//! Deterministic I/O fault injection.
//!
//! Real corruption testing cannot wait for real disks to fail, so this
//! module makes failure *scriptable*: a [`FaultInjector`] counts every
//! instrumented I/O operation (page writes and syncs through a
//! [`FaultStore`], WAL flushes, checkpoint renames) and fires exactly one
//! scripted fault when the armed operation index comes up:
//!
//! * [`FaultKind::TransientError`] — the operation fails once with an
//!   [`Io`](bdbms_common::ErrorCode::Io) error, then the device "heals";
//! * [`FaultKind::PermanentError`] — the operation and every one after
//!   it fails (a dead device) until the injector is disarmed;
//! * [`FaultKind::TornWrite`] — only a prefix of the write takes effect
//!   before the error: the classic torn page / torn log tail;
//! * [`FaultKind::BitFlip`] — one bit of the written payload is flipped
//!   and the write *reports success*: silent corruption, the case page
//!   checksums and WAL frame CRCs exist for.
//!
//! Because the operation counter is deterministic for a deterministic
//! workload, a harness can first run clean to learn the operation count,
//! then replay the workload once per (index, kind) pair — exhaustively
//! visiting every I/O the engine performs.  The crash-recovery suite in
//! `bdbms-core` does exactly that.
//!
//! Sites that cannot honour a data-shaped fault degrade it to an error:
//! a `sync` or a rename has no payload to tear or flip, so `TornWrite`
//! and `BitFlip` there behave like `TransientError`.  The decision is
//! still deterministic — what matters is that *some* fault fires at
//! every index.

use std::sync::Arc;

use parking_lot::Mutex;

use bdbms_common::{BdbmsError, Result};

use crate::pager::{PageId, PageStore, PAGE_SIZE};

/// The failure to inject when the armed operation index is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail this one operation with an I/O error; later operations
    /// succeed (a retried write would go through).
    TransientError,
    /// Fail this operation and every operation after it.
    PermanentError,
    /// Apply only the first `bytes` bytes of the write, then fail.
    TornWrite {
        /// How many bytes of the new data reach the medium.
        bytes: usize,
    },
    /// Flip the low bit of byte `byte` (mod the payload length) and
    /// report success — silent corruption.
    BitFlip {
        /// Which payload byte to damage.
        byte: usize,
    },
}

/// What an instrumented site should do with the current operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDecision {
    /// Perform the operation normally.
    Proceed,
    /// Fail with an injected I/O error, touching nothing.
    Fail,
    /// Let only the first `bytes` bytes of the write land, then fail.
    Tear {
        /// Prefix of the new data that survives.
        bytes: usize,
    },
    /// Write with the low bit of byte `byte` flipped, report success.
    Flip {
        /// Which payload byte to damage.
        byte: usize,
    },
}

#[derive(Default)]
struct State {
    ops: u64,
    armed: Option<(u64, FaultKind)>,
    fired: bool,
    /// Latched by a fired [`FaultKind::PermanentError`].
    dead: bool,
}

/// Shared, scriptable fault source.  Cheap to clone via `Arc`; all
/// methods take `&self`.
pub struct FaultInjector {
    state: Mutex<State>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("FaultInjector")
            .field("ops", &s.ops)
            .field("armed", &s.armed)
            .field("fired", &s.fired)
            .finish()
    }
}

impl FaultInjector {
    /// A disarmed injector: counts operations, injects nothing.
    pub fn new() -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            state: Mutex::new(State::default()),
        })
    }

    /// Arm `kind` to fire at operation index `at_op` (0-based), resetting
    /// the operation counter.
    pub fn arm(&self, at_op: u64, kind: FaultKind) {
        let mut s = self.state.lock();
        *s = State {
            ops: 0,
            armed: Some((at_op, kind)),
            fired: false,
            dead: false,
        };
    }

    /// Clear any armed fault (including a latched permanent failure);
    /// the counter keeps running.
    pub fn disarm(&self) {
        let mut s = self.state.lock();
        s.armed = None;
        s.dead = false;
    }

    /// Operations observed since the last [`arm`](Self::arm) (or since
    /// creation).
    pub fn op_count(&self) -> u64 {
        self.state.lock().ops
    }

    /// Has the armed fault fired?
    pub fn fired(&self) -> bool {
        self.state.lock().fired
    }

    /// Count one operation and decide its fate.  Instrumented sites call
    /// this once per I/O they are about to perform.
    pub fn next_op(&self) -> IoDecision {
        let mut s = self.state.lock();
        let idx = s.ops;
        s.ops += 1;
        if s.dead {
            return IoDecision::Fail;
        }
        match s.armed {
            Some((at, kind)) if !s.fired && idx == at => {
                s.fired = true;
                match kind {
                    FaultKind::TransientError => IoDecision::Fail,
                    FaultKind::PermanentError => {
                        s.dead = true;
                        IoDecision::Fail
                    }
                    FaultKind::TornWrite { bytes } => IoDecision::Tear { bytes },
                    FaultKind::BitFlip { byte } => IoDecision::Flip { byte },
                }
            }
            _ => IoDecision::Proceed,
        }
    }

    /// The error an injected failure surfaces as (always
    /// [`Io`](bdbms_common::ErrorCode::Io), so retry logic can tell it
    /// from logical corruption).
    pub fn injected_error(site: &str) -> BdbmsError {
        BdbmsError::io(format!("injected fault: {site}"))
    }
}

/// A [`PageStore`] wrapper that routes every write-shaped operation
/// through a [`FaultInjector`].  Reads pass through uncounted — the
/// write path is where durability is won or lost, and read-side
/// corruption is covered by the checksum sweep tests.
pub struct FaultStore {
    inner: Box<dyn PageStore>,
    injector: Arc<FaultInjector>,
}

impl FaultStore {
    /// Wrap `inner` under `injector`.
    pub fn new(inner: Box<dyn PageStore>, injector: Arc<FaultInjector>) -> FaultStore {
        FaultStore { inner, injector }
    }
}

impl PageStore for FaultStore {
    fn allocate(&mut self) -> Result<PageId> {
        // Allocation extends the backing file — an I/O that can fail.
        // Data-shaped faults degrade to an error (the extension either
        // happens or doesn't; it carries no payload to tear or flip).
        match self.injector.next_op() {
            IoDecision::Proceed => self.inner.allocate(),
            _ => Err(FaultInjector::injected_error("page allocation")),
        }
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.inner.read_page(id, buf)
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        match self.injector.next_op() {
            IoDecision::Proceed => self.inner.write_page(id, buf),
            IoDecision::Fail => Err(FaultInjector::injected_error(&format!("write of {id}"))),
            IoDecision::Tear { bytes } => {
                // First `bytes` bytes of the new data land; the rest of
                // the page keeps its previous contents.
                let n = bytes.min(PAGE_SIZE);
                let mut torn = vec![0u8; PAGE_SIZE];
                self.inner.read_page(id, &mut torn)?;
                torn[..n].copy_from_slice(&buf[..n]);
                self.inner.write_page(id, &torn)?;
                Err(FaultInjector::injected_error(&format!(
                    "torn write of {id} at byte {n}"
                )))
            }
            IoDecision::Flip { byte } => {
                let mut flipped = buf.to_vec();
                let at = byte % flipped.len();
                flipped[at] ^= 0x01;
                self.inner.write_page(id, &flipped)
            }
        }
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&mut self) -> Result<()> {
        match self.injector.next_op() {
            IoDecision::Proceed => self.inner.sync(),
            _ => Err(FaultInjector::injected_error("page-store fsync")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemStore;

    fn store_with(injector: Arc<FaultInjector>) -> FaultStore {
        FaultStore::new(Box::new(MemStore::new()), injector)
    }

    #[test]
    fn disarmed_injector_is_transparent() {
        let inj = FaultInjector::new();
        let mut s = store_with(inj.clone());
        let id = s.allocate().unwrap();
        let page = [7u8; PAGE_SIZE];
        s.write_page(id, &page).unwrap();
        s.sync().unwrap();
        let mut out = [0u8; PAGE_SIZE];
        s.read_page(id, &mut out).unwrap();
        assert_eq!(out, page);
        assert_eq!(inj.op_count(), 3, "allocate + write + sync counted");
        assert!(!inj.fired());
    }

    #[test]
    fn transient_fault_fires_once_then_heals() {
        let inj = FaultInjector::new();
        let mut s = store_with(inj.clone());
        let id = s.allocate().unwrap();
        inj.arm(0, FaultKind::TransientError);
        let err = s.write_page(id, &[1u8; PAGE_SIZE]).unwrap_err();
        assert_eq!(err.code(), bdbms_common::ErrorCode::Io);
        assert!(inj.fired());
        // the retry goes through
        s.write_page(id, &[1u8; PAGE_SIZE]).unwrap();
    }

    #[test]
    fn permanent_fault_keeps_failing_until_disarmed() {
        let inj = FaultInjector::new();
        let mut s = store_with(inj.clone());
        let id = s.allocate().unwrap();
        inj.arm(0, FaultKind::PermanentError);
        assert!(s.write_page(id, &[1u8; PAGE_SIZE]).is_err());
        assert!(s.write_page(id, &[1u8; PAGE_SIZE]).is_err());
        assert!(s.sync().is_err());
        inj.disarm();
        s.write_page(id, &[1u8; PAGE_SIZE]).unwrap();
    }

    #[test]
    fn torn_write_applies_only_the_prefix() {
        let inj = FaultInjector::new();
        let mut s = store_with(inj.clone());
        let id = s.allocate().unwrap();
        s.write_page(id, &[0xAAu8; PAGE_SIZE]).unwrap();
        inj.arm(0, FaultKind::TornWrite { bytes: 100 });
        assert!(s.write_page(id, &[0xBBu8; PAGE_SIZE]).is_err());
        let mut out = [0u8; PAGE_SIZE];
        s.read_page(id, &mut out).unwrap();
        assert!(out[..100].iter().all(|&b| b == 0xBB), "prefix landed");
        assert!(out[100..].iter().all(|&b| b == 0xAA), "tail kept old data");
    }

    #[test]
    fn bit_flip_succeeds_silently_with_one_bit_off() {
        let inj = FaultInjector::new();
        let mut s = store_with(inj.clone());
        let id = s.allocate().unwrap();
        inj.arm(0, FaultKind::BitFlip { byte: 5000 });
        s.write_page(id, &[0u8; PAGE_SIZE]).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        s.read_page(id, &mut out).unwrap();
        assert_eq!(out[5000], 0x01);
        assert_eq!(out.iter().filter(|&&b| b != 0).count(), 1);
    }

    #[test]
    fn fault_at_later_index_waits_for_it() {
        let inj = FaultInjector::new();
        let mut s = store_with(inj.clone());
        let id = s.allocate().unwrap();
        inj.arm(2, FaultKind::TransientError);
        s.write_page(id, &[1u8; PAGE_SIZE]).unwrap(); // op 0
        s.sync().unwrap(); // op 1
        assert!(s.write_page(id, &[2u8; PAGE_SIZE]).is_err()); // op 2
        s.sync().unwrap(); // healed
    }
}
