//! # bdbms-storage
//!
//! The page-based storage substrate under the bdbms engine.
//!
//! The paper prototypes bdbms inside PostgreSQL; this crate is the
//! from-scratch replacement substrate: a pager with pluggable backing
//! stores ([`pager::MemStore`], [`pager::FileStore`]), a buffer pool with
//! scan-resistant LRU eviction and page-level I/O accounting
//! ([`buffer::BufferPool`]), slotted pages for variable-length records
//! ([`slotted`]), and heap files ([`heap::HeapFile`]) that the engine's
//! tables sit on.
//!
//! I/O accounting matters here: the paper's evaluation claims are phrased
//! in I/Os, so the buffer pool counts every page fetched from and flushed
//! to the backing store, and benchmarks read those counters.
//!
//! Durability lives in [`wal`]: a segmented, CRC-framed write-ahead log
//! with `Full`/`NoSync` fsync policies, plus the [`wal::FlushGate`] hook
//! through which the buffer pool enforces WAL-before-data (no dirty page
//! reaches the store ahead of its log record).  Page trailers, WAL frames
//! and snapshot blobs all share the one checksum kernel in [`crc`].  See
//! `docs/STORAGE.md`.

pub mod buffer;
pub mod crc;
pub mod fault;
pub mod heap;
pub mod pager;
pub mod slotted;
pub mod wal;

pub use buffer::BufferPool;
pub use crc::{crc32, Crc32};
pub use fault::{FaultInjector, FaultKind, FaultStore, IoDecision};
pub use heap::{HeapFile, Rid};
pub use pager::{
    page_checksum, stamp_page_checksum, verify_page_checksum, FileStore, MemStore, PageId,
    PageStore, PAGE_BODY, PAGE_SIZE, PAGE_TRAILER,
};
pub use wal::{
    scan_segment_bytes, verify_wal_dir, CommitTicket, Durability, FlushGate, GroupCommitter,
    SharedWal, Wal, WalCheck, WalPos,
};
