//! Write-ahead log: an append-only, segmented redo log.
//!
//! The WAL is the durability half of the engine's crash story (the other
//! half is the atomically-renamed checkpoint image written by
//! `bdbms-core`).  This module is deliberately *byte-oriented*: it frames,
//! checksums, segments, fsyncs, and replays opaque payloads, while the
//! record vocabulary (logical redo operations) lives upstairs in
//! `bdbms_core::durability`.
//!
//! ## On-disk format
//!
//! A WAL is a directory of segment files `wal-NNNNNNNN.log`.  Each segment
//! starts with a 16-byte header:
//!
//! ```text
//! [0..8)   magic  b"BDBMSWAL"
//! [8..16)  lsn of the first record in this segment (u64 LE)
//! ```
//!
//! followed by frames:
//!
//! ```text
//! [0..4)   payload length (u32 LE)
//! [4..8)   CRC-32 over (lsn bytes || payload)
//! [8..16)  lsn (u64 LE), strictly increasing across segments
//! [16..)   payload
//! ```
//!
//! LSNs are allocated densely starting at 1 and never restart: a log
//! emptied by [`Wal::reset`] resumes, even after a reopen, at the LSN its
//! segment header records.  A frame that fails its
//! length or CRC check in the **final** segment is a *torn tail* — the
//! expected signature of a crash mid-append — and is truncated away
//! (with everything after it).  The same failure in a non-final segment
//! means bytes rotted *behind* durable data and surfaces as
//! [`ErrorCode::Corrupt`](bdbms_common::ErrorCode::Corrupt) instead: a
//! later segment may hold committed records that silently truncating
//! would throw away.
//!
//! ## Fsync policy
//!
//! [`Durability::Full`] fsyncs the active segment on every
//! [`Wal::flush`] (the commit path) — a committed transaction survives
//! power loss.  [`Durability::NoSync`] only writes the OS buffer: commits
//! survive a process crash but a machine crash may lose the most recent
//! ones (PostgreSQL's `synchronous_commit = off` trade).
//!
//! ## WAL-before-data
//!
//! [`SharedWal`] implements [`FlushGate`], the hook the buffer pool calls
//! before writing any page whose [`page LSN`](crate::BufferPool) exceeds
//! the flushed LSN — no data page can reach the store ahead of its log
//! record.

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use bdbms_common::metrics::{Counter, Gauge, Histogram};
use bdbms_common::{BdbmsError, Result};

use crate::crc::{crc32, Crc32};
use crate::fault::{FaultInjector, IoDecision};

/// When does a committed transaction actually reach the platter?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Fsync the WAL on every commit: commits survive power loss.
    #[default]
    Full,
    /// Write the OS buffer only: commits survive a process crash, not
    /// necessarily a machine crash.
    NoSync,
}

/// The ordering hook between a WAL and a buffer pool: before writing a
/// dirty page stamped with `lsn`, the pool calls
/// [`flush_to`](FlushGate::flush_to) so the page's log record is
/// durable first.
pub trait FlushGate: Send + Sync {
    /// Make every appended record with an LSN ≤ `lsn` durable (to the
    /// extent the durability policy promises).  Records not yet appended
    /// cannot be waited for — the gate flushes what exists.
    fn flush_to(&self, lsn: u64) -> Result<()>;
}

const SEG_MAGIC: &[u8; 8] = b"BDBMSWAL";
const SEG_HEADER: u64 = 16;
const FRAME_HEADER: usize = 16;
/// Rotate to a fresh segment once the active one exceeds this.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:08}.log"))
}

/// One recovered record: its LSN and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// Log sequence number (dense, starting at 1).
    pub lsn: u64,
    /// Opaque payload as appended.
    pub payload: Vec<u8>,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Every valid record, in LSN order.
    pub entries: Vec<WalEntry>,
    /// Bytes discarded from a torn tail (0 on a clean log).
    pub torn_bytes: u64,
}

/// The append-only segmented log.
pub struct Wal {
    dir: PathBuf,
    durability: Durability,
    segment_bytes: u64,
    /// Index of the active segment file.
    active_index: u64,
    /// Buffered writer over the active segment.
    writer: BufWriter<File>,
    /// Bytes written to the active segment (including its header).
    active_len: u64,
    /// Next LSN to allocate.
    next_lsn: u64,
    /// Highest LSN guaranteed written to the OS (and fsynced under
    /// `Full`).
    flushed_lsn: u64,
    /// Latched when a failed append could not be rewound: the log's
    /// tail is in an unknown state and further appends could make a
    /// dead transaction's frames replayable.  Everything write-shaped
    /// errors until the database is reopened (which re-scans and
    /// truncates the tail).
    damaged: bool,
    /// Bytes of the active segment known written to the OS — an injected
    /// torn flush may only damage bytes past this point (a real torn
    /// write can only tear the bytes being written, never earlier ones).
    flushed_len: u64,
    /// Fault-injection hook on the flush path (armed only by tests).
    hook: Option<Arc<FaultInjector>>,
    /// Live-observability instruments (appends, fsync count + latency).
    /// Always allocated; a database registers them under `wal.*` names.
    metrics: WalMetrics,
}

/// The log's always-allocated observability instruments, `Arc`-shared
/// so a [`bdbms_common::metrics::MetricsRegistry`] can export them.
#[derive(Debug, Clone, Default)]
pub struct WalMetrics {
    /// Records appended (buffered, not necessarily durable yet).
    pub appends: Arc<Counter>,
    /// Fsyncs issued against the log (flush, rotation, reset) — the
    /// count group commit amortizes: N commits riding one flush tick it
    /// once.
    pub fsyncs: Arc<Counter>,
    /// Wall time of each fsync, in nanoseconds.
    pub fsync_latency_ns: Arc<Histogram>,
}

/// An opaque append position, taken with [`Wal::position`] before a
/// commit's appends and handed back to [`Wal::rewind`] if any of them
/// (or the flush) fails — the half-written commit must not linger,
/// because a *later* successful commit would otherwise make its frames
/// replayable.
#[derive(Debug, Clone, Copy)]
pub struct WalPos {
    index: u64,
    len: u64,
    next_lsn: u64,
}

impl Wal {
    /// Open (or create) the log directory, scan every segment, truncate a
    /// torn tail, and position the writer after the last valid frame.
    ///
    /// The caller decides which recovered entries are *committed*; the
    /// WAL itself only vouches for their integrity.  After replaying any
    /// entry, the caller truncates the log with [`reset`](Wal::reset)
    /// (the post-recovery checkpoint), which also drops any uncommitted
    /// entries for good.
    pub fn open(dir: impl Into<PathBuf>, durability: Durability) -> Result<(Wal, WalScan)> {
        Self::open_sized(dir, durability, DEFAULT_SEGMENT_BYTES)
    }

    /// [`open`](Wal::open) with an explicit segment-rotation threshold.
    pub fn open_sized(
        dir: impl Into<PathBuf>,
        durability: Durability,
        segment_bytes: u64,
    ) -> Result<(Wal, WalScan)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut indexes = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(idx) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                indexes.push(idx);
            }
        }
        indexes.sort_unstable();

        let mut scan = WalScan::default();
        let mut next_lsn = 1u64;
        for (pos, &idx) in indexes.iter().enumerate() {
            let last = pos + 1 == indexes.len();
            let path = segment_path(&dir, idx);
            let bytes = fs::read(&path)?;
            // LSNs never restart: a log emptied by `reset` resumes at the
            // LSN its segment header recorded
            if let Some(first) = header_lsn(&bytes) {
                next_lsn = next_lsn.max(first);
            }
            match scan_segment(&bytes, &mut scan.entries) {
                Ok(()) => {}
                Err(valid_up_to) if last => {
                    // torn tail: truncate the file at the last valid frame
                    scan.torn_bytes = bytes.len() as u64 - valid_up_to;
                    let f = OpenOptions::new().write(true).open(&path)?;
                    f.set_len(valid_up_to)?;
                    f.sync_all()?;
                }
                Err(_) => {
                    return Err(BdbmsError::corrupt(format!(
                        "WAL segment {} is damaged before the final segment; \
                         refusing to silently drop possibly-committed records",
                        path.display()
                    )));
                }
            }
        }
        if let Some(e) = scan.entries.last() {
            next_lsn = next_lsn.max(e.lsn + 1);
        }

        // append into the last segment (or a fresh first one)
        let active_index = indexes.last().copied().unwrap_or(0);
        let path = segment_path(&dir, active_index);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = file.metadata()?.len();
        let active_len = if len == 0 {
            file.write_all(SEG_MAGIC)?;
            file.write_all(&next_lsn.to_le_bytes())?;
            SEG_HEADER
        } else {
            file.seek(SeekFrom::End(0))?;
            len
        };
        let wal = Wal {
            dir,
            durability,
            segment_bytes,
            active_index,
            writer: BufWriter::new(file),
            active_len,
            next_lsn,
            flushed_lsn: next_lsn - 1,
            damaged: false,
            flushed_len: active_len,
            hook: None,
            metrics: WalMetrics::default(),
        };
        Ok((wal, scan))
    }

    /// The current append position (see [`WalPos`]).
    pub fn position(&self) -> WalPos {
        WalPos {
            index: self.active_index,
            len: self.active_len,
            next_lsn: self.next_lsn,
        }
    }

    /// Discard everything appended after `pos` — the error path of a
    /// commit whose append/flush failed partway.  Buffered bytes are
    /// dropped without flushing, segments created since `pos` are
    /// deleted, and the active segment is truncated back.  If the
    /// rewind itself fails the log is latched `damaged`: the tail
    /// state is unknown and appending more would risk replaying the
    /// dead transaction, so every later write errors until reopen.
    pub fn rewind(&mut self, pos: WalPos) -> Result<()> {
        let r = (|| -> Result<()> {
            let path = segment_path(&self.dir, pos.index);
            let file = OpenOptions::new().read(true).write(true).open(&path)?;
            // swap first and drop the old writer via into_parts: a plain
            // drop would flush its buffered (dead) bytes into the file
            let old = std::mem::replace(&mut self.writer, BufWriter::new(file));
            let _ = old.into_parts();
            for idx in (pos.index + 1)..=self.active_index {
                let _ = fs::remove_file(segment_path(&self.dir, idx));
            }
            self.writer.get_ref().set_len(pos.len)?;
            self.writer.get_mut().seek(SeekFrom::Start(pos.len))?;
            self.active_index = pos.index;
            self.active_len = pos.len;
            self.next_lsn = pos.next_lsn;
            self.flushed_lsn = self.flushed_lsn.min(pos.next_lsn - 1);
            self.flushed_len = self.flushed_len.min(pos.len);
            Ok(())
        })();
        match r {
            // a completed rewind leaves the tail in a known state, even
            // if an earlier failure (e.g. an injected torn flush) had
            // latched it damaged
            Ok(()) => self.damaged = false,
            Err(_) => self.damaged = true,
        }
        r
    }

    /// Route the flush path through `injector` — deterministic
    /// fault-injection tests only; see [`crate::fault`].
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.hook = Some(injector);
    }

    fn check_damage(&self) -> Result<()> {
        if self.damaged {
            Err(BdbmsError::storage(
                "WAL tail is in an unknown state after a failed commit \
                 rewind; reopen the database to recover",
            ))
        } else {
            Ok(())
        }
    }

    /// The durability policy in force.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// The next LSN [`append`](Wal::append) would allocate.  Data pages
    /// dirtied *now* are stamped with this: whatever record describes the
    /// change will get an LSN ≥ it.
    pub fn reserved_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Highest LSN made durable so far.
    pub fn flushed_lsn(&self) -> u64 {
        self.flushed_lsn
    }

    /// Handles to the log's observability instruments (for registry
    /// export).
    pub fn metrics(&self) -> WalMetrics {
        self.metrics.clone()
    }

    fn sync_file(&self, f: &File) -> std::io::Result<()> {
        self.metrics.fsyncs.inc();
        let started = std::time::Instant::now();
        let r = f.sync_all();
        self.metrics
            .fsync_latency_ns
            .record_duration(started.elapsed());
        r
    }

    /// Number of live segment files (observability for checkpoint tests).
    pub fn segment_count(&self) -> Result<usize> {
        let mut n = 0;
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("wal-") && name.ends_with(".log") {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Append one record; returns its LSN.  The bytes are buffered — call
    /// [`flush`](Wal::flush) (commit) to make them durable.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        self.check_damage()?;
        if self.active_len >= self.segment_bytes + SEG_HEADER {
            self.rotate()?;
        }
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let lsn_bytes = lsn.to_le_bytes();
        let crc = Crc32::new().update(&lsn_bytes).update(payload).finish();
        let mut header = [0u8; FRAME_HEADER];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..8].copy_from_slice(&crc.to_le_bytes());
        header[8..].copy_from_slice(&lsn_bytes);
        self.writer.write_all(&header)?;
        self.writer.write_all(payload)?;
        self.active_len += (FRAME_HEADER + payload.len()) as u64;
        self.metrics.appends.inc();
        Ok(lsn)
    }

    fn rotate(&mut self) -> Result<()> {
        self.writer.flush()?;
        if self.durability == Durability::Full {
            self.sync_file(self.writer.get_ref())?;
        }
        self.active_index += 1;
        let path = segment_path(&self.dir, self.active_index);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(SEG_MAGIC)?;
        file.write_all(&self.next_lsn.to_le_bytes())?;
        self.writer = BufWriter::new(file);
        self.active_len = SEG_HEADER;
        self.flushed_len = SEG_HEADER;
        Ok(())
    }

    /// Run the fault-injection hook on the flush path (armed only by
    /// tests); shared by [`flush`](Wal::flush) and
    /// [`begin_flush`](Wal::begin_flush).
    fn run_flush_hook(&mut self) -> Result<()> {
        if let Some(h) = self.hook.clone() {
            match h.next_op() {
                IoDecision::Proceed => {}
                IoDecision::Fail | IoDecision::Flip { .. } => {
                    // Nothing reached the medium; buffered bytes stay
                    // buffered and a failed commit rewinds them away.
                    // (A flush has no payload to flip, so Flip degrades
                    // to a plain failure.)
                    return Err(FaultInjector::injected_error("WAL flush"));
                }
                IoDecision::Tear { bytes } => {
                    // Part of the buffered tail reaches the medium, the
                    // rest vanishes: flush, then chop the un-durable end.
                    // The in-memory tail no longer matches the file, so
                    // the log latches damaged until a rewind (the commit
                    // error path) or a reopen restores a known state.
                    self.writer.flush()?;
                    let keep = self
                        .active_len
                        .saturating_sub(bytes as u64)
                        .max(self.flushed_len);
                    self.writer.get_ref().set_len(keep)?;
                    self.damaged = true;
                    return Err(FaultInjector::injected_error("torn WAL flush"));
                }
            }
        }
        Ok(())
    }

    /// Push buffered frames to the OS and, under [`Durability::Full`],
    /// fsync them.  This is the commit barrier.
    pub fn flush(&mut self) -> Result<()> {
        self.check_damage()?;
        self.run_flush_hook()?;
        self.writer.flush()?;
        if self.durability == Durability::Full {
            self.sync_file(self.writer.get_ref())?;
        }
        self.flushed_lsn = self.next_lsn - 1;
        self.flushed_len = self.active_len;
        Ok(())
    }

    /// Phase one of a two-phase flush: push buffered frames to the OS
    /// *under the WAL lock* and hand back a [`FlushHandle`] whose
    /// [`sync`](FlushHandle::sync) performs the fsync — designed to run
    /// *outside* the lock, so committers keep appending into the next
    /// group while the barrier is in flight.  This is what makes group
    /// commit actually group: holding the lock across the fsync would
    /// cap every group at whatever queued between fsyncs.
    ///
    /// Complete the protocol by calling
    /// [`complete_flush`](Wal::complete_flush) (with the lock retaken)
    /// after a successful sync.
    pub fn begin_flush(&mut self) -> Result<FlushHandle> {
        self.check_damage()?;
        self.run_flush_hook()?;
        self.writer.flush()?;
        let file = self.writer.get_ref().try_clone()?;
        Ok(FlushHandle {
            file,
            index: self.active_index,
            lsn: self.next_lsn - 1,
            len: self.active_len,
            metrics: self.metrics.clone(),
            durability: self.durability,
        })
    }

    /// Phase two of a two-phase flush: record what
    /// [`FlushHandle::sync`] made durable.  Rewinds and rotations that
    /// ran while the fsync was in flight shrink what the handle can
    /// vouch for, hence the clamps.
    pub fn complete_flush(&mut self, handle: &FlushHandle) {
        self.flushed_lsn = self
            .flushed_lsn
            .max(handle.lsn.min(self.next_lsn.saturating_sub(1)));
        if self.active_index == handle.index {
            self.flushed_len = self.flushed_len.max(handle.len.min(self.active_len));
        }
    }

    /// Drop every segment and start over with an empty log (checkpoint:
    /// the image now carries everything).  LSNs keep counting — they
    /// never restart, so page LSN stamps stay comparable.
    pub fn reset(&mut self) -> Result<()> {
        // flush so the writer's drop order can't resurrect bytes
        self.writer.flush()?;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if name.starts_with("wal-") && name.ends_with(".log") {
                fs::remove_file(entry.path())?;
            }
        }
        self.active_index += 1;
        let path = segment_path(&self.dir, self.active_index);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(SEG_MAGIC)?;
        file.write_all(&self.next_lsn.to_le_bytes())?;
        if self.durability == Durability::Full {
            self.sync_file(&file)?;
            File::open(&self.dir)?.sync_all()?;
        }
        self.writer = BufWriter::new(file);
        self.active_len = SEG_HEADER;
        self.flushed_len = SEG_HEADER;
        self.flushed_lsn = self.next_lsn - 1;
        // a completed reset is a known-good state from scratch
        self.damaged = false;
        Ok(())
    }
}

/// The first-record LSN a segment's header records, if the header is
/// intact.
fn header_lsn(bytes: &[u8]) -> Option<u64> {
    let header = bytes.get(..SEG_HEADER as usize)?;
    (&header[..8] == SEG_MAGIC)
        .then(|| u64::from_le_bytes(header[8..].try_into().expect("an 8-byte LSN field")))
}

/// Scan one segment's bytes, pushing valid entries.  `Err(offset)` means
/// the segment is valid up to `offset` and damaged after it.
///
/// Every slice below is guarded: the frame header is taken with `get`
/// (so a truncated header is a torn tail, not a panic) and the frame end
/// is computed with checked arithmetic (so a garbage length field that
/// would overflow `usize` is damage, not a panic).  The follow-up
/// `unwrap`s convert provably-sized slices and are unreachable for any
/// input — the property-fuzz suite in `tests/prop_wal.rs` holds this to
/// arbitrary byte strings.
fn scan_segment(bytes: &[u8], out: &mut Vec<WalEntry>) -> std::result::Result<(), u64> {
    if bytes.is_empty() {
        return Ok(());
    }
    if bytes.len() < SEG_HEADER as usize || &bytes[..8] != SEG_MAGIC {
        return Err(0);
    }
    let mut pos = SEG_HEADER as usize;
    while pos < bytes.len() {
        let valid_up_to = pos as u64;
        let Some(header) = bytes.get(pos..pos + FRAME_HEADER) else {
            return Err(valid_up_to);
        };
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let Some(end) = pos
            .checked_add(FRAME_HEADER)
            .and_then(|p| p.checked_add(len))
        else {
            return Err(valid_up_to);
        };
        // end ≥ pos + 8 always holds here, so the range is well-formed;
        // `get` rejects an end past the buffer.
        let Some(crc_input) = bytes.get(pos + 8..end) else {
            return Err(valid_up_to);
        };
        if crc32(crc_input) != crc {
            return Err(valid_up_to);
        }
        let lsn = u64::from_le_bytes(crc_input[..8].try_into().unwrap());
        out.push(WalEntry {
            lsn,
            payload: crc_input[8..].to_vec(),
        });
        pos = end;
    }
    Ok(())
}

/// Parse one segment's bytes read-only: the valid entries plus, when the
/// segment is damaged, the byte offset at which damage starts.  Public
/// surface for the fuzz suite and [`verify_wal_dir`].
pub fn scan_segment_bytes(bytes: &[u8]) -> (Vec<WalEntry>, Option<u64>) {
    let mut out = Vec::new();
    match scan_segment(bytes, &mut out) {
        Ok(()) => (out, None),
        Err(off) => (out, Some(off)),
    }
}

/// A read-only integrity report over a WAL directory (the WAL half of
/// the engine's `CHECK` statement).
#[derive(Debug, Default)]
pub struct WalCheck {
    /// Segment files inspected.
    pub segments: usize,
    /// Valid frames found across all segments.
    pub frames: usize,
    /// Human-readable integrity problems (empty = clean).
    pub problems: Vec<String>,
}

/// Walk every segment in `dir` without mutating anything: frame CRCs,
/// segment-index contiguity, header/first-frame agreement, and dense LSN
/// chaining across segments.  Unlike [`Wal::open`], damage is *reported*
/// rather than repaired — a torn tail is a finding here, not a
/// truncation.
pub fn verify_wal_dir(dir: impl AsRef<Path>) -> Result<WalCheck> {
    let dir = dir.as_ref();
    let mut check = WalCheck::default();
    if !dir.is_dir() {
        check
            .problems
            .push(format!("WAL directory `{}` is missing", dir.display()));
        return Ok(check);
    }
    let mut indexes = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(idx) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            indexes.push(idx);
        }
    }
    indexes.sort_unstable();
    for w in indexes.windows(2) {
        if w[1] != w[0] + 1 {
            check.problems.push(format!(
                "segment gap: wal-{:08} follows wal-{:08}",
                w[1], w[0]
            ));
        }
    }
    let mut expect_lsn: Option<u64> = None;
    for (i, &idx) in indexes.iter().enumerate() {
        check.segments += 1;
        let path = segment_path(dir, idx);
        let bytes = fs::read(&path)?;
        let (entries, damage) = scan_segment_bytes(&bytes);
        if let (Some(hdr_lsn), Some(first)) = (header_lsn(&bytes), entries.first()) {
            if first.lsn != hdr_lsn {
                check.problems.push(format!(
                    "segment {idx}: header claims first LSN {hdr_lsn}, \
                     first frame carries {}",
                    first.lsn
                ));
            }
        }
        if let Some(off) = damage {
            let last = i + 1 == indexes.len();
            check.problems.push(format!(
                "segment {idx}: damaged at byte {off}{}",
                if last { " (torn tail)" } else { "" }
            ));
        }
        for e in &entries {
            check.frames += 1;
            if let Some(want) = expect_lsn {
                if e.lsn != want {
                    check.problems.push(format!(
                        "LSN chain broken: expected {want}, found {}",
                        e.lsn
                    ));
                }
            }
            expect_lsn = Some(e.lsn + 1);
        }
    }
    Ok(check)
}

/// A clonable, thread-safe handle over a [`Wal`], shared between the
/// engine (appends, commits) and the buffer pool (the
/// [`FlushGate`] ordering hook).
#[derive(Clone)]
pub struct SharedWal(Arc<Mutex<Wal>>);

impl SharedWal {
    /// Wrap a WAL for sharing.
    pub fn new(wal: Wal) -> SharedWal {
        SharedWal(Arc::new(Mutex::new(wal)))
    }

    /// Run `f` with exclusive access to the log.
    pub fn with<R>(&self, f: impl FnOnce(&mut Wal) -> R) -> R {
        f(&mut self.0.lock())
    }
}

impl FlushGate for SharedWal {
    fn flush_to(&self, lsn: u64) -> Result<()> {
        let mut wal = self.0.lock();
        // Records up to `lsn` that exist are flushed; a stamp ahead of
        // the log (dirtied by an op whose record is still buffered in the
        // transaction) flushes everything appended so far — the missing
        // records belong to an uncommitted transaction, which recovery
        // discards regardless of what the data page holds.
        if wal.flushed_lsn() < lsn.min(wal.reserved_lsn() - 1) {
            wal.flush()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------

/// Completion state shared between one committer and the flusher.
struct TicketInner {
    state: std::sync::Mutex<Option<Result<u64>>>,
    cond: std::sync::Condvar,
}

/// The out-of-lock half of a two-phase WAL flush (see
/// [`Wal::begin_flush`]): a cloned handle on the active segment file
/// plus the high-water marks the eventual fsync will cover.
pub struct FlushHandle {
    file: File,
    index: u64,
    lsn: u64,
    len: u64,
    metrics: WalMetrics,
    durability: Durability,
}

impl FlushHandle {
    /// Highest LSN this flush makes durable.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Issue the fsync (a no-op under anything weaker than
    /// [`Durability::Full`] — the OS-level write already happened in
    /// [`Wal::begin_flush`]).  Call **without** holding the WAL lock.
    pub fn sync(&self) -> Result<()> {
        if self.durability == Durability::Full {
            self.metrics.fsyncs.inc();
            let started = std::time::Instant::now();
            let r = self.file.sync_all();
            self.metrics
                .fsync_latency_ns
                .record_duration(started.elapsed());
            r?;
        }
        Ok(())
    }
}

/// One committer's place in the group-commit queue.
///
/// Handed out by [`GroupCommitter::submit`] after the commit's frames
/// (including its commit record) are *appended* to the log.  The ticket
/// resolves once a flush with `flushed_lsn ≥ lsn` completes — that flush
/// may have been triggered by this committer, by a later one, or by a
/// checkpoint; whoever pays the fsync, everyone queued behind it rides
/// along.  Waiting is the *acknowledgment* barrier: a commit must not be
/// confirmed to a client before its ticket resolves.
pub struct CommitTicket {
    lsn: u64,
    inner: Arc<TicketInner>,
}

impl CommitTicket {
    /// The commit-record LSN this ticket waits on.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Block until the commit is durable (returns the flushed LSN) or
    /// the flush failed.  An error means the commit's durability is
    /// *unknown* — the frames may or may not have reached the platter —
    /// which callers must surface as a failed commit.
    pub fn wait(self) -> Result<u64> {
        let mut st = self.inner.state.lock().expect("ticket mutex");
        while st.is_none() {
            st = self.inner.cond.wait(st).expect("ticket mutex");
        }
        st.take().expect("resolved above")
    }
}

/// State shared between committers and the flusher thread.
struct GroupShared {
    /// LSNs waiting for durability, paired with their wakeup handles.
    pending: std::sync::Mutex<Vec<(u64, Arc<TicketInner>)>>,
    cond: std::sync::Condvar,
    shutdown: std::sync::atomic::AtomicBool,
}

/// The group-commit gate: one background flusher amortizes the fsync
/// barrier over every committer that reached the log before it.
///
/// Protocol: a committer appends its frames (commit record last) under
/// the WAL lock, then [`submit`](GroupCommitter::submit)s the commit
/// LSN and gets a [`CommitTicket`] back.  The flusher thread wakes,
/// snapshots the queue, issues **one** [`Wal::flush`], and resolves
/// every ticket whose LSN the flush covered.  Committers that arrive
/// while the fsync is in flight queue up for the next round — under N
/// concurrent committers each round carries ~N commits, so each commit
/// pays ~1/N of the barrier (the e14 experiment measures this as
/// fsyncs-per-commit).
pub struct GroupCommitter {
    wal: SharedWal,
    shared: Arc<GroupShared>,
    metrics: GroupCommitMetrics,
    flusher: Option<std::thread::JoinHandle<()>>,
}

/// The flusher's observability instruments: the group-size distribution
/// and the live fsync-cost EMA that drives the adaptive gather window.
/// These used to be locals inside `GroupCommitter::flush_loop`; the
/// registry export makes e14's commits-per-fsync claim observable on a
/// live server.
#[derive(Debug, Clone, Default)]
pub struct GroupCommitMetrics {
    /// Commits carried per flush round.
    pub group_sizes: Arc<Histogram>,
    /// Exponential moving average of fsync wall time, nanoseconds.
    pub fsync_ema_ns: Arc<Gauge>,
}

impl GroupCommitter {
    /// Spawn the flusher thread over `wal`.
    pub fn new(wal: SharedWal) -> GroupCommitter {
        let shared = Arc::new(GroupShared {
            pending: std::sync::Mutex::new(Vec::new()),
            cond: std::sync::Condvar::new(),
            shutdown: std::sync::atomic::AtomicBool::new(false),
        });
        let metrics = GroupCommitMetrics::default();
        let thread_shared = shared.clone();
        let thread_wal = wal.clone();
        let thread_metrics = metrics.clone();
        let flusher = std::thread::Builder::new()
            .name("bdbms-group-commit".into())
            .spawn(move || Self::flush_loop(thread_wal, thread_shared, thread_metrics))
            .expect("spawn group-commit flusher");
        GroupCommitter {
            wal,
            shared,
            metrics,
            flusher: Some(flusher),
        }
    }

    /// Handles to the flusher's observability instruments (for registry
    /// export).
    pub fn metrics(&self) -> GroupCommitMetrics {
        self.metrics.clone()
    }

    /// Queue a committed-but-unflushed LSN at the flush gate.  Call
    /// *after* the commit record is appended.
    pub fn submit(&self, lsn: u64) -> CommitTicket {
        let inner = Arc::new(TicketInner {
            state: std::sync::Mutex::new(None),
            cond: std::sync::Condvar::new(),
        });
        {
            let mut pending = self.shared.pending.lock().expect("group mutex");
            pending.push((lsn, inner.clone()));
        }
        self.shared.cond.notify_all();
        CommitTicket { lsn, inner }
    }

    /// The underlying shared WAL handle.
    pub fn wal(&self) -> &SharedWal {
        &self.wal
    }

    fn flush_loop(wal: SharedWal, shared: Arc<GroupShared>, metrics: GroupCommitMetrics) {
        // Adaptive gather: when the previous group carried more than one
        // commit (concurrent committers), linger for about half the
        // measured fsync cost before flushing, so commits the engine is
        // executing *right now* join this group instead of forcing the
        // next fsync.  A lone committer (previous group of one) never
        // waits — sequential workloads keep zero-delay flushes.
        let mut last_group = 1usize;
        let mut fsync_ema = std::time::Duration::from_micros(200);
        loop {
            // wait for work (or shutdown)
            let mut batch: Vec<(u64, Arc<TicketInner>)> = {
                let mut pending = shared.pending.lock().expect("group mutex");
                while pending.is_empty() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    pending = shared.cond.wait(pending).expect("group mutex");
                }
                std::mem::take(&mut *pending)
            };
            if last_group > 1 {
                // Sleep, don't spin: on a single core a yield loop
                // competes with the very committers this window is
                // waiting for.  One sleep takes the flusher off the
                // runqueue; late arrivals are drained in a single sweep.
                let gather = (fsync_ema / 2).min(std::time::Duration::from_millis(1));
                std::thread::sleep(gather);
                let mut pending = shared.pending.lock().expect("group mutex");
                batch.append(&mut pending);
            }
            last_group = batch.len();
            metrics.group_sizes.record(batch.len() as u64);
            // one flush covers the whole batch — committers appended
            // before submitting, so every batched LSN is in the log.
            // Skip the flush entirely if something else (a checkpoint,
            // the buffer pool's WAL-before-data gate) already made the
            // batch durable.  The flush itself is two-phase: buffered
            // bytes reach the OS under the WAL lock, but the fsync runs
            // with the lock *released*, so committers keep appending
            // into the next group while this one's barrier is in
            // flight — that concurrency is the whole amortization.
            let top = batch.iter().map(|(l, _)| *l).max().unwrap_or(0);
            let prepared = wal.with(|w| {
                if w.flushed_lsn() >= top {
                    Ok(None)
                } else {
                    w.begin_flush().map(Some)
                }
            });
            let outcome = match prepared {
                Ok(None) => Ok(top),
                Ok(Some(handle)) => {
                    let started = std::time::Instant::now();
                    match handle.sync() {
                        Ok(()) => {
                            fsync_ema = (fsync_ema * 7 + started.elapsed()) / 8;
                            metrics
                                .fsync_ema_ns
                                .set(fsync_ema.as_nanos().min(u64::MAX as u128) as u64);
                            Ok(wal.with(|w| {
                                w.complete_flush(&handle);
                                w.flushed_lsn()
                            }))
                        }
                        Err(e) => Err(e),
                    }
                }
                Err(e) => Err(e),
            };
            for (lsn, ticket) in batch {
                let r = match &outcome {
                    Ok(flushed) if *flushed >= lsn => Ok(*flushed),
                    // flushed short of this LSN without an error should
                    // be impossible (the frames were appended first);
                    // treat it as unknown durability rather than hang
                    Ok(flushed) => Err(BdbmsError::storage(format!(
                        "group flush stopped at LSN {flushed}, commit at {lsn} not covered"
                    ))),
                    Err(e) => Err(e.clone()),
                };
                *ticket.state.lock().expect("ticket mutex") = Some(r);
                ticket.cond.notify_all();
            }
        }
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cond.notify_all();
        if let Some(t) = self.flusher.take() {
            let _ = t.join();
        }
        // resolve any stragglers that raced the shutdown flag with one
        // final flush, so no waiter hangs forever
        let leftovers: Vec<(u64, Arc<TicketInner>)> =
            std::mem::take(&mut *self.shared.pending.lock().expect("group mutex"));
        if !leftovers.is_empty() {
            let outcome = self.wal.with(|w| w.flush().map(|()| w.flushed_lsn()));
            for (lsn, ticket) in leftovers {
                let r = match &outcome {
                    Ok(flushed) if *flushed >= lsn => Ok(*flushed),
                    Ok(_) | Err(_) => Err(BdbmsError::storage(
                        "group committer shut down before the commit was flushed",
                    )),
                };
                *ticket.state.lock().expect("ticket mutex") = Some(r);
                ticket.cond.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bdbms-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Format pin: the exact bytes of a one-record segment (header +
    /// frame), as written by the commit that introduced the format.  A
    /// checksum or framing change that alters them orphans every WAL on
    /// disk.
    #[test]
    fn golden_segment_bytes_do_not_drift() {
        let dir = tmp("golden");
        let (mut wal, _) = Wal::open(&dir, Durability::NoSync).unwrap();
        assert_eq!(wal.append(b"bdbms golden frame").unwrap(), 1);
        wal.flush().unwrap();
        let bytes = fs::read(segment_path(&dir, 0)).unwrap();
        let mut want = Vec::new();
        want.extend_from_slice(b"BDBMSWAL");
        want.extend_from_slice(&1u64.to_le_bytes()); // first lsn
        want.extend_from_slice(&18u32.to_le_bytes()); // payload length
        want.extend_from_slice(&[0x79, 0x0d, 0xe4, 0xed]); // crc(lsn ‖ payload)
        want.extend_from_slice(&1u64.to_le_bytes()); // lsn
        want.extend_from_slice(b"bdbms golden frame");
        assert_eq!(bytes, want);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_flush_reopen_roundtrip() {
        let dir = tmp("roundtrip");
        {
            let (mut wal, scan) = Wal::open(&dir, Durability::Full).unwrap();
            assert!(scan.entries.is_empty());
            assert_eq!(wal.append(b"alpha").unwrap(), 1);
            assert_eq!(wal.append(b"beta").unwrap(), 2);
            wal.flush().unwrap();
            assert_eq!(wal.flushed_lsn(), 2);
        }
        let (wal, scan) = Wal::open(&dir, Durability::Full).unwrap();
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(
            scan.entries,
            vec![
                WalEntry {
                    lsn: 1,
                    payload: b"alpha".to_vec()
                },
                WalEntry {
                    lsn: 2,
                    payload: b"beta".to_vec()
                },
            ]
        );
        assert_eq!(wal.reserved_lsn(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp("torn");
        {
            let (mut wal, _) = Wal::open(&dir, Durability::Full).unwrap();
            wal.append(b"kept").unwrap();
            wal.append(b"torn-away").unwrap();
            wal.flush().unwrap();
        }
        // chop bytes off the tail: the second frame becomes unreadable
        let seg = segment_path(&dir, 0);
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (_, scan) = Wal::open(&dir, Durability::Full).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.entries[0].payload, b"kept");
        assert!(scan.torn_bytes > 0);
        // the truncation is persistent: a second open sees a clean log
        let (_, scan) = Wal::open(&dir, Durability::Full).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.torn_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_in_final_segment_truncates_from_there() {
        let dir = tmp("bitflip");
        {
            let (mut wal, _) = Wal::open(&dir, Durability::Full).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
            wal.flush().unwrap();
        }
        // flip the first payload byte of the second frame
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let off = SEG_HEADER as usize + (FRAME_HEADER + 5) + FRAME_HEADER;
        bytes[off] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        let (_, scan) = Wal::open(&dir, Durability::Full).unwrap();
        assert_eq!(scan.entries.len(), 1, "bad frame and its tail dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_in_non_final_segment_is_corrupt() {
        let dir = tmp("midrot");
        {
            // tiny segments force rotation
            let (mut wal, _) = Wal::open_sized(&dir, Durability::Full, 32).unwrap();
            for i in 0..8 {
                wal.append(format!("record-{i}").as_bytes()).unwrap();
            }
            wal.flush().unwrap();
            assert!(wal.segment_count().unwrap() > 1);
        }
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        let err = match Wal::open(&dir, Durability::Full) {
            Ok(_) => panic!("damaged middle segment must not open"),
            Err(e) => e,
        };
        assert_eq!(err.code(), bdbms_common::ErrorCode::Corrupt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_preserves_lsn_order_across_segments() {
        let dir = tmp("rotate");
        {
            let (mut wal, _) = Wal::open_sized(&dir, Durability::NoSync, 64).unwrap();
            for i in 0..50u64 {
                assert_eq!(wal.append(&i.to_le_bytes()).unwrap(), i + 1);
            }
            wal.flush().unwrap();
            assert!(wal.segment_count().unwrap() >= 3, "rotated");
        }
        let (_, scan) = Wal::open(&dir, Durability::NoSync).unwrap();
        let lsns: Vec<u64> = scan.entries.iter().map(|e| e.lsn).collect();
        assert_eq!(lsns, (1..=50).collect::<Vec<u64>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_truncates_segments_and_keeps_lsns_monotonic() {
        let dir = tmp("reset");
        let (mut wal, _) = Wal::open_sized(&dir, Durability::Full, 64).unwrap();
        for _ in 0..20 {
            wal.append(b"padding-padding").unwrap();
        }
        wal.flush().unwrap();
        assert!(wal.segment_count().unwrap() > 1);
        let before = wal.reserved_lsn();
        wal.reset().unwrap();
        assert_eq!(wal.segment_count().unwrap(), 1, "old segments deleted");
        assert_eq!(wal.reserved_lsn(), before, "LSNs never restart");
        drop(wal);
        // nor across a reopen of the emptied log
        let (mut wal, scan) = Wal::open_sized(&dir, Durability::Full, 64).unwrap();
        assert!(scan.entries.is_empty());
        assert_eq!(
            wal.reserved_lsn(),
            before,
            "an empty log resumes at its header"
        );
        let lsn = wal.append(b"after-reset").unwrap();
        assert_eq!(lsn, before);
        wal.flush().unwrap();
        drop(wal);
        let (_, scan) = Wal::open(&dir, Durability::Full).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.entries[0].lsn, before);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression: a commit whose append/flush fails must be rewindable
    /// — without the rewind, a later successful commit would make the
    /// dead frames replayable.
    #[test]
    fn rewind_discards_a_half_written_commit() {
        let dir = tmp("rewind");
        {
            let (mut wal, _) = Wal::open(&dir, Durability::Full).unwrap();
            wal.append(b"committed-1").unwrap();
            wal.flush().unwrap();
            let pos = wal.position();
            // a commit that "fails": two frames appended, then rewound
            wal.append(b"dead-op").unwrap();
            wal.append(b"dead-op-2").unwrap();
            wal.rewind(pos).unwrap();
            // the next commit reuses the LSNs and must be the only
            // thing that follows the first one
            assert_eq!(wal.append(b"committed-2").unwrap(), 2);
            wal.flush().unwrap();
        }
        let (_, scan) = Wal::open(&dir, Durability::Full).unwrap();
        let payloads: Vec<&[u8]> = scan.entries.iter().map(|e| e.payload.as_slice()).collect();
        assert_eq!(payloads, vec![b"committed-1".as_slice(), b"committed-2"]);
        assert_eq!(
            scan.entries.iter().map(|e| e.lsn).collect::<Vec<_>>(),
            vec![1, 2]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Rewind across a segment rotation deletes the segments the dead
    /// commit created.
    #[test]
    fn rewind_across_rotation_deletes_new_segments() {
        let dir = tmp("rewind-rot");
        let (mut wal, _) = Wal::open_sized(&dir, Durability::NoSync, 48).unwrap();
        wal.append(b"keep").unwrap();
        wal.flush().unwrap();
        let pos = wal.position();
        for _ in 0..10 {
            wal.append(b"dead-padding-padding").unwrap();
        }
        assert!(wal.segment_count().unwrap() > 1, "rotated");
        wal.rewind(pos).unwrap();
        assert_eq!(wal.segment_count().unwrap(), 1);
        wal.append(b"after").unwrap();
        wal.flush().unwrap();
        drop(wal);
        let (_, scan) = Wal::open(&dir, Durability::NoSync).unwrap();
        let payloads: Vec<&[u8]> = scan.entries.iter().map(|e| e.payload.as_slice()).collect();
        assert_eq!(payloads, vec![b"keep".as_slice(), b"after"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_resolves_tickets_and_amortizes_fsyncs() {
        let dir = tmp("group");
        let (wal, _) = Wal::open(&dir, Durability::Full).unwrap();
        let shared = SharedWal::new(wal);
        let group = GroupCommitter::new(shared.clone());
        // a batch of "commits": append, then submit; all must resolve
        let mut tickets = Vec::new();
        for i in 0..8u64 {
            let lsn = shared
                .with(|w| w.append(format!("commit-{i}").as_bytes()))
                .unwrap();
            tickets.push(group.submit(lsn));
        }
        for t in tickets {
            let flushed = t.wait().unwrap();
            assert!(flushed >= 1);
        }
        // all 8 commits flushed; the flusher batches, so strictly fewer
        // fsyncs than commits (usually 1-2 for a burst this tight)
        let syncs = shared.with(|w| w.metrics().fsyncs.get());
        assert!(syncs >= 1, "at least one real fsync");
        assert!(syncs < 8, "fsyncs amortized across the batch, got {syncs}");
        assert_eq!(shared.with(|w| w.flushed_lsn()), 8);
        drop(group);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_ticket_waits_from_other_threads() {
        let dir = tmp("group-threads");
        let (wal, _) = Wal::open(&dir, Durability::Full).unwrap();
        let shared = SharedWal::new(wal);
        let group = Arc::new(GroupCommitter::new(shared.clone()));
        let mut joins = Vec::new();
        for i in 0..4u64 {
            let shared = shared.clone();
            let group = group.clone();
            joins.push(std::thread::spawn(move || {
                let lsn = shared
                    .with(|w| w.append(format!("t-{i}").as_bytes()))
                    .unwrap();
                group.submit(lsn).wait().unwrap()
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(shared.with(|w| w.flushed_lsn()), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_drop_resolves_stragglers() {
        let dir = tmp("group-drop");
        let (wal, _) = Wal::open(&dir, Durability::Full).unwrap();
        let shared = SharedWal::new(wal);
        let group = GroupCommitter::new(shared.clone());
        let lsn = shared.with(|w| w.append(b"late")).unwrap();
        let ticket = group.submit(lsn);
        drop(group);
        // the ticket resolves either via the flusher's last round or the
        // drop-time sweep; either way it must not hang, and on Ok the
        // record is durable
        if let Ok(flushed) = ticket.wait() {
            assert!(flushed >= lsn);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsyncs_tick_on_full_flush_only() {
        let dir = tmp("fsyncs");
        let (mut wal, _) = Wal::open(&dir, Durability::NoSync).unwrap();
        wal.append(b"x").unwrap();
        wal.flush().unwrap();
        assert_eq!(wal.metrics().fsyncs.get(), 0, "NoSync never fsyncs");
        drop(wal);
        let dir2 = tmp("fsyncs-full");
        let (mut wal, _) = Wal::open(&dir2, Durability::Full).unwrap();
        wal.append(b"x").unwrap();
        wal.flush().unwrap();
        wal.append(b"y").unwrap();
        wal.flush().unwrap();
        assert_eq!(wal.metrics().fsyncs.get(), 2, "one fsync per Full flush");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&dir2);
    }

    #[test]
    fn shared_wal_gate_flushes_up_to_stamp() {
        let dir = tmp("gate");
        let (wal, _) = Wal::open(&dir, Durability::NoSync).unwrap();
        let shared = SharedWal::new(wal);
        shared.with(|w| w.append(b"one").map(|_| ())).unwrap();
        assert_eq!(shared.with(|w| w.flushed_lsn()), 0);
        shared.flush_to(1).unwrap();
        assert_eq!(shared.with(|w| w.flushed_lsn()), 1);
        // a stamp ahead of the log flushes what exists and succeeds
        shared.flush_to(99).unwrap();
        assert_eq!(shared.with(|w| w.flushed_lsn()), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
