//! Logical I/O instrumentation.
//!
//! The paper's access-method claims are *I/O counts* ("up to 30% reduction
//! in I/Os for the insertion operations", §7.2).  We reproduce them with
//! deterministic logical I/O: every index structure in `bdbms-index` and
//! `bdbms-seq` counts node reads and node writes through an
//! [`AccessStats`], with one node standing in for one disk page.  The heap
//! storage layer in `bdbms-storage` counts real page reads/writes through
//! its buffer pool with the same vocabulary.

use std::cell::Cell;

/// Counters for logical reads/writes.  Interior mutability lets read-only
/// operations (`&self` searches) still record their accesses.
#[derive(Debug, Default)]
pub struct AccessStats {
    reads: Cell<u64>,
    writes: Cell<u64>,
}

impl AccessStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        AccessStats::default()
    }

    /// Record one logical read (node or page).
    #[inline]
    pub fn record_read(&self) {
        self.reads.set(self.reads.get() + 1);
    }

    /// Record one logical write (node or page).
    #[inline]
    pub fn record_write(&self) {
        self.writes.set(self.writes.get() + 1);
    }

    /// Record `n` logical writes at once (a bulk loader emitting `n` nodes).
    pub fn record_writes(&self, n: u64) {
        self.writes.set(self.writes.get() + n);
    }

    /// Number of logical reads so far.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Number of logical writes so far.
    pub fn writes(&self) -> u64 {
        self.writes.get()
    }

    /// Reads + writes.
    pub fn total(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Zero both counters (used between benchmark phases).
    pub fn reset(&self) {
        self.reads.set(0);
        self.writes.set(0);
    }

    /// Snapshot as a plain copyable struct.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads(),
            writes: self.writes(),
        }
    }
}

/// A point-in-time copy of [`AccessStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Logical reads.
    pub reads: u64,
    /// Logical writes.
    pub writes: u64,
}

impl IoSnapshot {
    /// Reads + writes.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Difference `self - earlier`, for measuring a phase.
    pub fn since(&self, earlier: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_resets() {
        let s = AccessStats::new();
        s.record_read();
        s.record_read();
        s.record_write();
        assert_eq!(s.reads(), 2);
        assert_eq!(s.writes(), 1);
        assert_eq!(s.total(), 3);
        s.reset();
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn snapshot_since() {
        let s = AccessStats::new();
        s.record_read();
        let before = s.snapshot();
        s.record_read();
        s.record_write();
        let delta = s.snapshot().since(before);
        assert_eq!(
            delta,
            IoSnapshot {
                reads: 1,
                writes: 1
            }
        );
        assert_eq!(delta.total(), 2);
    }
}
