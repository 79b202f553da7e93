//! Buffer pool with scan-resistant LRU eviction and I/O accounting.
//!
//! Every page access in bdbms goes through a [`BufferPool`]: a miss costs
//! one read from the backing [`PageStore`] and a checksum verify,
//! evicting a dirty page costs one write.  Those counters are the ground
//! truth for the paper's I/O-based claims.  Eviction is LRU, except that
//! a scan's sequential faults are linked at the LRU end (see `Inner`).
//!
//! Access is closure-based (`with_page` / `with_page_mut`) so callers never
//! hold frame guards across other pool calls — a simple way to make the
//! pool safe under any call pattern.
//!
//! ## WAL ordering (page LSNs)
//!
//! A pool backing a durable database is wired to a write-ahead log:
//!
//! * [`set_lsn_source`](BufferPool::set_lsn_source) — every mutation
//!   stamps the frame with the WAL's reserved LSN, an upper bound on the
//!   log record that will describe the change;
//! * [`set_flush_gate`](BufferPool::set_flush_gate) — before *any* dirty
//!   page reaches the backing store (eviction, `flush_all`,
//!   `clear_cache`), the pool calls the gate with the page's LSN so the
//!   WAL is flushed at least that far first.  A dirty page can never
//!   overtake its log record;
//! * [`set_pin_dirty`](BufferPool::set_pin_dirty) — no-steal mode:
//!   eviction only considers *clean* victims and the pool grows past its
//!   capacity rather than write a dirty page mid-transaction.  The
//!   engine's checkpoint is then the only dirty-page writer, which keeps
//!   the on-disk image exactly the last checkpoint until the next one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use bdbms_common::metrics::Counter;
use bdbms_common::{BdbmsError, Result};

use crate::pager::{stamp_page_checksum, verify_page_checksum, PageId, PageStore, PAGE_SIZE};
use crate::wal::FlushGate;

/// "No slot": the end of an LRU link chain.
const NIL: usize = usize::MAX;

/// One slot of the frame table: a page-sized buffer plus the bookkeeping
/// of the page it currently holds.  The buffer is allocated once per slot
/// and recycled for whichever page the slot holds next.
struct Frame {
    /// The page held (stale while the slot is on the free list).
    id: PageId,
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    /// LSN stamped at the last mutation (0 = never mutated under a log).
    lsn: u64,
    /// Slot towards the MRU end of the intrusive LRU list.
    prev: usize,
    /// Slot towards the LRU end of the intrusive LRU list.
    next: usize,
}

/// The frame table is a slab (`frames`) addressed by slot number, one map
/// from resident page to slot (`index`), and an intrusive doubly-linked
/// LRU list threaded through the slots (`head` = most recently used,
/// `tail` = eviction victim).  A hit is one hash lookup; relinking and
/// picking a victim are index arithmetic.
///
/// Invariants: every slot is either *resident* — linked into the LRU
/// list and named by exactly one `index` entry — or on the `free` list,
/// never both; free slots are clean.
///
/// Insertion rule: a hit or a fault-in goes to the MRU end, except a
/// *sequential* fault (page `n + 1` right after a fault on page `n`),
/// which goes to the LRU end.  A scan larger than the pool then recycles
/// one frame instead of evicting every page just before its next pass
/// wants it.
struct Inner {
    store: Box<dyn PageStore>,
    frames: Vec<Frame>,
    index: HashMap<PageId, usize>,
    /// Slots holding no page (a fault-in that failed after claiming one).
    free: Vec<usize>,
    capacity: usize,
    head: usize,
    tail: usize,
    /// The page of the latest fault-in, for spotting sequential ones.
    last_fault: Option<PageId>,
    /// WAL-before-data hook: called with a frame's LSN before its bytes
    /// may reach the store.
    gate: Option<Arc<dyn FlushGate>>,
    /// Source of LSN stamps for mutated frames (the WAL's reserved LSN).
    lsn_source: Option<Arc<AtomicU64>>,
    /// No-steal mode: never write a dirty page on eviction.
    pin_dirty: bool,
    /// Live-observability counters (hit/miss/eviction/writeback).  A
    /// database registers them under `buffer.*` names and hands the same
    /// handles to every pool it opens.  `metrics_on` gates the recording
    /// so the e13 overhead workload can measure the
    /// instrumented-vs-bare delta.
    metrics: BufferPoolMetrics,
    metrics_on: bool,
}

/// The pool's observability instruments.  Handles are `Arc`-shared so a
/// [`bdbms_common::metrics::MetricsRegistry`] can export them without
/// the pool depending on any registry, and so a successor pool
/// ([`BufferPool::with_metrics`]) keeps counting where this one stopped.
#[derive(Debug, Clone, Default)]
pub struct BufferPoolMetrics {
    /// Page accesses served from a resident frame.
    pub hits: Arc<Counter>,
    /// Page accesses that faulted the page in from the store.
    pub misses: Arc<Counter>,
    /// Frames evicted to make room.
    pub evictions: Arc<Counter>,
    /// Dirty pages written back to the store (evictions + flushes).
    pub dirty_writebacks: Arc<Counter>,
}

impl Inner {
    /// Unlink `slot` from the LRU list (it must be linked).
    fn detach(&mut self, slot: usize) {
        let (prev, next) = {
            let f = &self.frames[slot];
            (f.prev, f.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.frames[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.frames[n].prev = prev,
        }
    }

    /// Link `slot` at the MRU end (its links must be dangling).
    fn attach_front(&mut self, slot: usize) {
        let old_head = self.head;
        let f = &mut self.frames[slot];
        f.prev = NIL;
        f.next = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.frames[h].prev = slot,
        }
        self.head = slot;
    }

    /// Link `slot` at the LRU end (its links must be dangling).
    fn attach_back(&mut self, slot: usize) {
        let old_tail = self.tail;
        let f = &mut self.frames[slot];
        f.prev = old_tail;
        f.next = NIL;
        match old_tail {
            NIL => self.head = slot,
            t => self.frames[t].next = slot,
        }
        self.tail = slot;
    }

    /// The slot holding page `id`: a hit is moved to the MRU end; a miss
    /// is faulted in (evicting the LRU frame at capacity) and linked by
    /// the insertion rule on [`Inner`].
    fn pin(&mut self, id: PageId) -> Result<usize> {
        if let Some(&slot) = self.index.get(&id) {
            self.note_access(false);
            if self.head != slot {
                self.detach(slot);
                self.attach_front(slot);
            }
            return Ok(slot);
        }
        let slot = self.claim_slot()?;
        let data = &mut self.frames[slot].data;
        let read = self.store.read_page(id, &mut data[..]).and_then(|()| {
            if verify_page_checksum(&data[..]) {
                Ok(())
            } else {
                Err(BdbmsError::corrupt(format!(
                    "page checksum mismatch reading {id} from the backing store"
                )))
            }
        });
        if let Err(e) = read {
            self.free.push(slot);
            return Err(e);
        }
        let sequential = self.last_fault.and_then(|p| p.0.checked_add(1)) == Some(id.0);
        self.last_fault = Some(id);
        self.install(slot, id, false, 0, sequential);
        self.note_access(true);
        Ok(slot)
    }

    /// Make the (unlinked, clean) `slot` the resident frame of `id`,
    /// linked at the LRU end if `cold`, else at the MRU end.
    fn install(&mut self, slot: usize, id: PageId, dirty: bool, lsn: u64, cold: bool) {
        let f = &mut self.frames[slot];
        f.id = id;
        f.dirty = dirty;
        f.lsn = lsn;
        self.index.insert(id, slot);
        if cold {
            self.attach_back(slot);
        } else {
            self.attach_front(slot);
        }
    }

    /// Record a hit or a miss on the access counters.
    #[inline]
    fn note_access(&self, missed: bool) {
        if self.metrics_on {
            if missed {
                self.metrics.misses.inc();
            } else {
                self.metrics.hits.inc();
            }
        }
    }

    /// Write one dirty frame's bytes back to the store and mark it clean,
    /// honouring WAL-before-data: the gate flushes the log up to the
    /// frame's LSN *before* the page write.  The checksum is stamped in
    /// place: the trailer lies outside [`crate::PAGE_BODY`], which is all
    /// a page user ever reads or writes.
    fn write_back(&mut self, slot: usize) -> Result<()> {
        let frame = &mut self.frames[slot];
        if frame.lsn > 0 {
            if let Some(gate) = &self.gate {
                gate.flush_to(frame.lsn)?;
            }
        }
        stamp_page_checksum(&mut frame.data[..]);
        self.store.write_page(frame.id, &frame.data[..])?;
        frame.dirty = false;
        if self.metrics_on {
            self.metrics.dirty_writebacks.inc();
        }
        Ok(())
    }

    /// An unlinked, clean slot for an incoming page: at capacity the LRU
    /// victim's slot — buffer included — is recycled; otherwise a free
    /// slot, or a new one.  In `pin_dirty` mode only clean frames are
    /// victims; with every frame dirty the pool grows past its capacity
    /// instead of violating no-steal.  The buffer holds stale bytes: the
    /// caller overwrites all of it.
    fn claim_slot(&mut self) -> Result<usize> {
        if self.index.len() >= self.capacity {
            let mut victim = self.tail;
            if self.pin_dirty {
                // walk from the LRU end towards MRU looking for a clean frame
                while victim != NIL && self.frames[victim].dirty {
                    victim = self.frames[victim].prev;
                }
            }
            if victim != NIL {
                if self.frames[victim].dirty {
                    self.write_back(victim)?;
                }
                self.detach(victim);
                self.index.remove(&self.frames[victim].id);
                if self.metrics_on {
                    self.metrics.evictions.inc();
                }
                return Ok(victim);
            }
        }
        if let Some(slot) = self.free.pop() {
            return Ok(slot);
        }
        self.frames.push(Frame {
            id: PageId(0),
            data: Box::new([0u8; PAGE_SIZE]),
            dirty: false,
            lsn: 0,
            prev: NIL,
            next: NIL,
        });
        Ok(self.frames.len() - 1)
    }

    /// The LSN stamp a mutation happening now should carry.
    fn current_lsn(&self) -> u64 {
        self.lsn_source
            .as_ref()
            .map(|s| s.load(Ordering::Acquire))
            .unwrap_or(0)
    }
}

/// A shared buffer pool over a [`PageStore`].
pub struct BufferPool {
    inner: Mutex<Inner>,
}

impl BufferPool {
    /// Create a pool holding at most `capacity` pages in memory.
    pub fn new(store: Box<dyn PageStore>, capacity: usize) -> Self {
        Self::with_metrics(store, capacity, BufferPoolMetrics::default())
    }

    /// [`new`](Self::new), counting on existing instruments: a database
    /// that replaces its pool (checkpoint, reopen) passes the handles
    /// its registry already exports, so `buffer.*` keep counting.
    pub fn with_metrics(
        store: Box<dyn PageStore>,
        capacity: usize,
        metrics: BufferPoolMetrics,
    ) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        BufferPool {
            inner: Mutex::new(Inner {
                store,
                frames: Vec::new(),
                index: HashMap::new(),
                free: Vec::new(),
                capacity,
                head: NIL,
                tail: NIL,
                last_fault: None,
                gate: None,
                lsn_source: None,
                pin_dirty: false,
                metrics,
                metrics_on: true,
            }),
        }
    }

    /// Handles to the pool's observability counters (for registry
    /// export).
    pub fn metrics(&self) -> BufferPoolMetrics {
        self.inner.lock().metrics.clone()
    }

    /// Toggle metric recording.  Only the e13 instrumentation-overhead
    /// workload turns this off; production pools leave it on.
    pub fn set_metrics_enabled(&self, on: bool) {
        self.inner.lock().metrics_on = on;
    }

    /// Install the WAL-before-data hook: every dirty-page write is
    /// preceded by `gate.flush_to(page lsn)`.
    pub fn set_flush_gate(&self, gate: Arc<dyn FlushGate>) {
        self.inner.lock().gate = Some(gate);
    }

    /// Install the LSN stamp source (the WAL's reserved-LSN counter).
    pub fn set_lsn_source(&self, source: Arc<AtomicU64>) {
        self.inner.lock().lsn_source = Some(source);
    }

    /// Switch no-steal mode on/off: when on, eviction never writes a
    /// dirty page (clean victims only; the pool grows when all frames
    /// are dirty).
    pub fn set_pin_dirty(&self, pin: bool) {
        self.inner.lock().pin_dirty = pin;
    }

    /// The LSN stamped on a resident page (0 if clean-loaded or not
    /// resident) — observability for the WAL-ordering tests.
    pub fn page_lsn(&self, id: PageId) -> u64 {
        let g = self.inner.lock();
        g.index
            .get(&id)
            .map(|&slot| g.frames[slot].lsn)
            .unwrap_or(0)
    }

    /// Allocate a fresh page (resident and clean).
    pub fn allocate(&self) -> Result<PageId> {
        let mut g = self.inner.lock();
        let id = g.store.allocate()?;
        let slot = g.claim_slot()?;
        g.frames[slot].data.fill(0);
        let lsn = g.current_lsn();
        g.install(slot, id, true, lsn, false);
        Ok(id)
    }

    /// Run `f` with read access to page `id`.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let mut g = self.inner.lock();
        let slot = g.pin(id)?;
        Ok(f(&g.frames[slot].data[..]))
    }

    /// Run `f` with write access to page `id`; the page is marked dirty.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let mut g = self.inner.lock();
        let slot = g.pin(id)?;
        let lsn = g.current_lsn();
        let frame = &mut g.frames[slot];
        frame.dirty = true;
        frame.lsn = frame.lsn.max(lsn);
        Ok(f(&mut frame.data[..]))
    }

    /// Write every dirty page back to the store, flushing the WAL past
    /// each page's LSN first (WAL-before-data holds here exactly as it
    /// does for eviction).
    pub fn flush_all(&self) -> Result<()> {
        let mut g = self.inner.lock();
        let mut dirty: Vec<(PageId, usize)> = g
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.dirty)
            .map(|(slot, f)| (f.id, slot))
            .collect();
        dirty.sort_unstable();
        for (_, slot) in dirty {
            g.write_back(slot)?;
        }
        Ok(())
    }

    /// Fsync the backing store (durable checkpoint barrier).
    pub fn sync_store(&self) -> Result<()> {
        self.inner.lock().store.sync()
    }

    /// Total pages ever allocated in the backing store.
    pub fn num_pages(&self) -> u64 {
        self.inner.lock().store.num_pages()
    }

    /// Drop every clean frame and flush+drop every dirty frame, so the next
    /// access of each page is a miss.  Benchmarks use this to measure cold
    /// reads.
    pub fn clear_cache(&self) -> Result<()> {
        self.flush_all()?;
        let mut g = self.inner.lock();
        g.frames.clear();
        g.index.clear();
        g.free.clear();
        g.head = NIL;
        g.tail = NIL;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemStore;

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(Box::new(MemStore::new()), cap)
    }

    #[test]
    fn read_your_writes() {
        let p = pool(4);
        let id = p.allocate().unwrap();
        p.with_page_mut(id, |pg| pg[17] = 42).unwrap();
        let v = p.with_page(id, |pg| pg[17]).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn eviction_persists_dirty_pages() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg[0] = 1).unwrap();
        p.with_page_mut(b, |pg| pg[0] = 2).unwrap();
        // Fill the pool with new pages, forcing a and b out.
        let c = p.allocate().unwrap();
        let d = p.allocate().unwrap();
        p.with_page_mut(c, |pg| pg[0] = 3).unwrap();
        p.with_page_mut(d, |pg| pg[0] = 4).unwrap();
        // a and b must round-trip through the store.
        assert_eq!(p.with_page(a, |pg| pg[0]).unwrap(), 1);
        assert_eq!(p.with_page(b, |pg| pg[0]).unwrap(), 2);
    }

    #[test]
    fn io_counting_hits_and_misses() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg[0] = 9).unwrap();
        p.flush_all().unwrap();
        let m = p.metrics();
        let io = || m.misses.get() + m.dirty_writebacks.get();

        // Hit: page resident, no I/O.
        let before = io();
        p.with_page(a, |_| ()).unwrap();
        assert_eq!(io() - before, 0);

        // Cold read after cache clear: one read.
        p.clear_cache().unwrap();
        let (misses, writebacks) = (m.misses.get(), m.dirty_writebacks.get());
        p.with_page(a, |_| ()).unwrap();
        assert_eq!(m.misses.get() - misses, 1);
        assert_eq!(m.dirty_writebacks.get() - writebacks, 0);
    }

    #[test]
    fn metrics_count_hits_misses_evictions_writebacks() {
        let p = pool(2);
        let m = p.metrics();
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg[0] = 1).unwrap();
        p.with_page_mut(b, |pg| pg[0] = 2).unwrap();
        assert_eq!(m.hits.get(), 2, "both pages resident after allocate");
        assert_eq!(m.misses.get(), 0);
        // Two more dirty pages force both originals out (dirty writeback).
        let c = p.allocate().unwrap();
        let d = p.allocate().unwrap();
        p.with_page_mut(c, |pg| pg[0] = 3).unwrap();
        p.with_page_mut(d, |pg| pg[0] = 4).unwrap();
        assert_eq!(m.evictions.get(), 2);
        assert_eq!(m.dirty_writebacks.get(), 2);
        // Re-reading an evicted page is a miss.
        p.with_page(a, |_| ()).unwrap();
        assert_eq!(m.misses.get(), 1);
        // The toggle stops recording without disturbing existing values.
        let hits_before = m.hits.get();
        p.set_metrics_enabled(false);
        p.with_page(a, |_| ()).unwrap();
        assert_eq!(m.hits.get(), hits_before);
        p.set_metrics_enabled(true);
        p.with_page(a, |_| ()).unwrap();
        assert_eq!(m.hits.get(), hits_before + 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.flush_all().unwrap();
        // Touch a so b is the LRU victim when c arrives.
        p.with_page(a, |_| ()).unwrap();
        let c = p.allocate().unwrap();
        p.with_page(c, |_| ()).unwrap();
        let misses = p.metrics().misses;
        let before = misses.get();
        p.with_page(a, |_| ()).unwrap(); // still resident → hit
        assert_eq!(misses.get() - before, 0);
        p.with_page(b, |_| ()).unwrap(); // evicted → miss
        assert_eq!(misses.get() - before, 1);
    }

    #[test]
    fn lru_order_tracks_arbitrary_access_patterns() {
        // While no fault is sequential (here: only every other page is
        // ever touched), the resident set is exactly the `cap` most
        // recently used pages, whatever the interleaving: every access
        // hits iff an LRU model holds the page.  This pins down the
        // linked-list bookkeeping (detach/attach) under churn.
        let cap = 4;
        let p = pool(cap);
        let ids: Vec<_> = (0..16).map(|_| p.allocate().unwrap()).collect();
        p.clear_cache().unwrap();
        let mut recency: Vec<usize> = Vec::new();
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..400 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let i = 2 * (seed % 8) as usize;
            let was_resident = recency.contains(&i);
            let misses = p.metrics().misses.get();
            p.with_page(ids[i], |_| ()).unwrap();
            let hit = p.metrics().misses.get() == misses;
            assert_eq!(hit, was_resident, "step {step}: page {i}");
            recency.retain(|&r| r != i);
            recency.push(i);
            if recency.len() > cap {
                recency.remove(0);
            }
        }
        assert_consistent(&p);
    }

    /// Hits per pass of `passes` repeated in-order scans of `pages`.
    fn hits_per_pass(p: &BufferPool, pages: &[PageId], passes: usize) -> Vec<u64> {
        (0..passes)
            .map(|_| {
                let misses = p.metrics().misses.get();
                for &id in pages {
                    p.with_page(id, |_| ()).unwrap();
                }
                pages.len() as u64 - (p.metrics().misses.get() - misses)
            })
            .collect()
    }

    #[test]
    fn repeated_scans_larger_than_the_pool_keep_hitting() {
        // Under plain LRU every pass over 3x the pool evicts each page
        // just before it is wanted again: zero hits.  Sequential faults
        // linked at the cold end leave most of the pool resident.
        let cap = 64;
        let p = pool(cap);
        let ids: Vec<_> = (0..3 * cap).map(|_| p.allocate().unwrap()).collect();
        p.clear_cache().unwrap();
        let hits = hits_per_pass(&p, &ids, 6);
        assert_eq!(hits[0], 0, "the first pass is cold");
        for (pass, &h) in hits.iter().enumerate().skip(1) {
            assert!(
                h as f64 >= 0.85 * cap as f64,
                "pass {pass}: {h} hits of a {cap}-page pool ({hits:?})"
            );
        }
        assert_consistent(&p);
    }

    #[test]
    fn a_hot_set_survives_a_concurrent_scan() {
        // cap/2 hot pages, one touched between consecutive pages of a
        // 3x-pool scan, swept back and forth: a hot page at either end
        // of the sweep goes cap - 1 scan pages and cap/2 - 1 other hot
        // pages between touches, past an LRU pool's capacity.
        let cap = 16;
        let p = pool(cap);
        let hot: Vec<_> = (0..cap / 2).map(|_| p.allocate().unwrap()).collect();
        let scan: Vec<_> = (0..3 * cap).map(|_| p.allocate().unwrap()).collect();
        p.clear_cache().unwrap();
        for &h in &hot {
            p.with_page(h, |_| ()).unwrap();
        }
        let n = hot.len();
        for (step, &s) in scan.iter().enumerate() {
            p.with_page(s, |_| ()).unwrap();
            let k = step % (2 * n);
            let h = hot[if k < n { k } else { 2 * n - 1 - k }];
            let misses = p.metrics().misses.get();
            p.with_page(h, |_| ()).unwrap();
            assert_eq!(
                p.metrics().misses.get(),
                misses,
                "step {step}: hot {h} missed"
            );
        }
        assert_consistent(&p);
    }

    /// Shared event trace: the order of WAL flushes and page writes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Event {
        WalFlushedTo(u64),
        PageWritten(PageId),
    }

    /// A gate that records when it runs and what the WAL has flushed.
    struct RecordingGate {
        events: Arc<Mutex<Vec<Event>>>,
        flushed: AtomicU64,
    }

    impl FlushGate for RecordingGate {
        fn flush_to(&self, lsn: u64) -> Result<()> {
            let prev = self.flushed.load(Ordering::SeqCst);
            if prev < lsn {
                self.flushed.store(lsn, Ordering::SeqCst);
                self.events.lock().push(Event::WalFlushedTo(lsn));
            }
            Ok(())
        }
    }

    /// A store that records every page write into the shared trace.
    struct RecordingStore {
        inner: MemStore,
        events: Arc<Mutex<Vec<Event>>>,
    }

    impl PageStore for RecordingStore {
        fn allocate(&mut self) -> Result<PageId> {
            self.inner.allocate()
        }
        fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
            self.inner.read_page(id, buf)
        }
        fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
            self.events.lock().push(Event::PageWritten(id));
            self.inner.write_page(id, buf)
        }
        fn num_pages(&self) -> u64 {
            self.inner.num_pages()
        }
    }

    /// A pool wired to a recording gate + store, with `lsn` as the
    /// mutation stamp source.
    fn gated_pool(cap: usize) -> (BufferPool, Arc<Mutex<Vec<Event>>>, Arc<AtomicU64>) {
        let events = Arc::new(Mutex::new(Vec::new()));
        let p = BufferPool::new(
            Box::new(RecordingStore {
                inner: MemStore::new(),
                events: events.clone(),
            }),
            cap,
        );
        let lsn = Arc::new(AtomicU64::new(0));
        p.set_lsn_source(lsn.clone());
        p.set_flush_gate(Arc::new(RecordingGate {
            events: events.clone(),
            flushed: AtomicU64::new(0),
        }));
        (p, events, lsn)
    }

    /// For every page write in the trace, a WAL flush covering that
    /// page's stamp must have happened earlier.
    fn assert_wal_before_data(events: &[Event], stamps: &HashMap<PageId, u64>) {
        let mut flushed = 0u64;
        for e in events {
            match e {
                Event::WalFlushedTo(lsn) => flushed = flushed.max(*lsn),
                Event::PageWritten(id) => {
                    let stamp = stamps.get(id).copied().unwrap_or(0);
                    assert!(
                        flushed >= stamp,
                        "page {id} (lsn {stamp}) reached the store with only \
                         {flushed} flushed: WAL-before-data violated\n{events:?}"
                    );
                }
            }
        }
    }

    /// Regression: `flush_all` must flush the WAL up to each page's LSN
    /// before writing that page.
    #[test]
    fn flush_all_orders_wal_before_data() {
        let (p, events, lsn) = gated_pool(8);
        let mut stamps = HashMap::new();
        for i in 1..=4u64 {
            lsn.store(i, Ordering::SeqCst);
            let id = p.allocate().unwrap();
            p.with_page_mut(id, |pg| pg[0] = i as u8).unwrap();
            stamps.insert(id, i);
        }
        p.flush_all().unwrap();
        let trace = events.lock().clone();
        assert_eq!(
            trace
                .iter()
                .filter(|e| matches!(e, Event::PageWritten(_)))
                .count(),
            4
        );
        assert_wal_before_data(&trace, &stamps);
    }

    /// Regression: evicting a dirty page must flush its WAL record
    /// first.  (This is the bug class the page-LSN gate exists for: a
    /// steal-mode eviction racing ahead of the log.)
    #[test]
    fn dirty_eviction_orders_wal_before_data() {
        let (p, events, lsn) = gated_pool(2);
        let mut stamps = HashMap::new();
        lsn.store(7, Ordering::SeqCst);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg[0] = 1).unwrap();
        stamps.insert(a, 7);
        lsn.store(9, Ordering::SeqCst);
        let b = p.allocate().unwrap();
        p.with_page_mut(b, |pg| pg[0] = 2).unwrap();
        stamps.insert(b, 9);
        // allocating two more pages forces both dirty pages out
        let _c = p.allocate().unwrap();
        let _d = p.allocate().unwrap();
        let trace = events.lock().clone();
        assert!(
            trace.contains(&Event::PageWritten(a)),
            "a must have been evicted: {trace:?}"
        );
        assert_wal_before_data(&trace, &stamps);
    }

    /// In pin-dirty (no-steal) mode, eviction never writes a dirty page:
    /// clean frames are evicted first and the pool grows past capacity
    /// when everything is dirty.
    #[test]
    fn pin_dirty_never_writes_on_eviction() {
        let (p, events, lsn) = gated_pool(2);
        p.set_pin_dirty(true);
        lsn.store(3, Ordering::SeqCst);
        let ids: Vec<_> = (0..4).map(|_| p.allocate().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            p.with_page_mut(*id, |pg| pg[0] = i as u8).unwrap();
        }
        assert!(
            events
                .lock()
                .iter()
                .all(|e| !matches!(e, Event::PageWritten(_))),
            "no dirty page may reach the store before a checkpoint flush"
        );
        // all four dirty pages are still readable (pool grew)
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(p.with_page(*id, |pg| pg[0]).unwrap(), i as u8);
        }
        // an explicit flush (the checkpoint) writes them, WAL first
        p.flush_all().unwrap();
        let stamps: HashMap<PageId, u64> = ids.iter().map(|&id| (id, 3)).collect();
        assert_wal_before_data(&events.lock(), &stamps);
        // once clean, frames evict without further writes
        events.lock().clear();
        let _ = p.allocate().unwrap();
        let _ = p.allocate().unwrap();
        assert!(events
            .lock()
            .iter()
            .all(|e| !matches!(e, Event::PageWritten(_))));
    }

    /// A store whose backing [`MemStore`] the test keeps a handle to, so
    /// it can scribble on persisted bytes behind the pool's back.
    struct SharedStore {
        inner: Arc<Mutex<MemStore>>,
    }

    impl PageStore for SharedStore {
        fn allocate(&mut self) -> Result<PageId> {
            self.inner.lock().allocate()
        }
        fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
            self.inner.lock().read_page(id, buf)
        }
        fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
            self.inner.lock().write_page(id, buf)
        }
        fn num_pages(&self) -> u64 {
            self.inner.lock().num_pages()
        }
    }

    #[test]
    fn cold_read_of_a_corrupted_page_is_an_error_not_garbage() {
        let backing = Arc::new(Mutex::new(MemStore::new()));
        let p = BufferPool::new(
            Box::new(SharedStore {
                inner: backing.clone(),
            }),
            4,
        );
        let id = p.allocate().unwrap();
        p.with_page_mut(id, |pg| pg[100] = 0xEE).unwrap();
        p.clear_cache().unwrap();
        // A stamped page reloads cleanly.
        assert_eq!(p.with_page(id, |pg| pg[100]).unwrap(), 0xEE);
        p.clear_cache().unwrap();
        // Flip one persisted byte behind the pool's back.
        {
            let mut g = backing.lock();
            let mut buf = [0u8; PAGE_SIZE];
            g.read_page(id, &mut buf).unwrap();
            buf[100] ^= 0xFF;
            g.write_page(id, &buf).unwrap();
        }
        let err = p.with_page(id, |_| ()).unwrap_err();
        assert_eq!(err.code(), bdbms_common::ErrorCode::Corrupt);
        assert!(err.to_string().contains("pg0"), "names the page: {err}");
        // The failed fault-in left nothing behind: no resident frame for
        // the page, its slot back on the free list, the LRU list whole.
        {
            let g = p.inner.lock();
            assert!(!g.index.contains_key(&id));
            assert_eq!(g.free.len(), 1);
        }
        assert_consistent(&p);
        // So does a read the store itself refuses.
        assert!(p.with_page(PageId(99), |_| ()).is_err());
        assert_eq!(p.inner.lock().free.len(), 1);
        assert_consistent(&p);
        // Repair the store: the retry succeeds, in the freed slot.
        {
            let mut g = backing.lock();
            let mut buf = [0u8; PAGE_SIZE];
            g.read_page(id, &mut buf).unwrap();
            buf[100] ^= 0xFF;
            g.write_page(id, &buf).unwrap();
        }
        assert_eq!(p.with_page(id, |pg| pg[100]).unwrap(), 0xEE);
        assert!(p.inner.lock().free.is_empty());
        assert_consistent(&p);
    }

    /// Every slot is on exactly one of the LRU list (and then named by
    /// its `index` entry) and the free list; the list's back links mirror
    /// its forward links.
    fn assert_consistent(p: &BufferPool) {
        let g = p.inner.lock();
        let mut seen = vec![false; g.frames.len()];
        let (mut cur, mut prev, mut linked) = (g.head, NIL, 0);
        while cur != NIL {
            assert!(!seen[cur], "slot {cur} linked twice");
            seen[cur] = true;
            assert_eq!(g.frames[cur].prev, prev, "back link of slot {cur}");
            assert_eq!(g.index.get(&g.frames[cur].id), Some(&cur));
            prev = cur;
            cur = g.frames[cur].next;
            linked += 1;
        }
        assert_eq!(g.tail, prev);
        assert_eq!(linked, g.index.len());
        for &slot in &g.free {
            assert!(!seen[slot], "free slot {slot} is also linked or free twice");
            seen[slot] = true;
            assert!(!g.frames[slot].dirty, "free slot {slot} is dirty");
        }
        assert!(seen.iter().all(|&s| s), "a slot is neither linked nor free");
    }

    #[test]
    fn a_failed_fault_in_at_capacity_keeps_the_pool_usable() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg[0] = 1).unwrap();
        p.with_page_mut(b, |pg| pg[0] = 2).unwrap();
        // The miss evicts (and writes back) `a` before its read fails.
        assert!(p.with_page(PageId(99), |_| ()).is_err());
        assert_consistent(&p);
        assert_eq!(p.with_page(a, |pg| pg[0]).unwrap(), 1);
        assert_eq!(p.with_page(b, |pg| pg[0]).unwrap(), 2);
        assert_consistent(&p);
        assert_eq!(p.inner.lock().frames.len(), 2, "the slab did not grow");
    }

    #[test]
    fn recycled_frames_do_not_leak_the_evicted_pages_bytes() {
        let backing = Arc::new(Mutex::new(MemStore::new()));
        let p = BufferPool::new(
            Box::new(SharedStore {
                inner: backing.clone(),
            }),
            2,
        );
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page_mut(a, |pg| pg.fill(0xFF)).unwrap();
        p.with_page_mut(b, |pg| pg.fill(0xFF)).unwrap();
        // Allocated in the store, never written: all zeros on the medium.
        let z = backing.lock().allocate().unwrap();
        // Faulting it in evicts `a` and reuses its buffer.
        assert!(p.with_page(z, |pg| pg.iter().all(|&x| x == 0)).unwrap());
        assert_eq!(p.metrics().evictions.get(), 1);
        // A fresh page allocated into `b`'s recycled buffer is zeroed too.
        let c = p.allocate().unwrap();
        assert!(p.with_page(c, |pg| pg.iter().all(|&x| x == 0)).unwrap());
        assert_eq!(p.inner.lock().frames.len(), 2, "buffers were reused");
        // The evicted pages round-trip through the store and verify.
        for id in [a, b] {
            let ok = p.with_page(id, |pg| pg[..crate::PAGE_BODY].iter().all(|&x| x == 0xFF));
            assert!(ok.unwrap());
        }
        assert_consistent(&p);
    }

    #[test]
    fn clear_cache_after_no_steal_growth_leaves_a_working_pool() {
        let (p, _events, lsn) = gated_pool(2);
        p.set_pin_dirty(true);
        lsn.store(5, Ordering::SeqCst);
        let ids: Vec<_> = (0..5).map(|_| p.allocate().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            p.with_page_mut(*id, |pg| pg[0] = i as u8 + 1).unwrap();
        }
        assert_eq!(p.inner.lock().index.len(), 5, "grew past capacity");
        assert_consistent(&p);
        p.clear_cache().unwrap();
        assert_eq!(p.inner.lock().index.len(), 0);
        assert_consistent(&p);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(p.with_page(*id, |pg| pg[0]).unwrap(), i as u8 + 1);
        }
        assert_eq!(p.inner.lock().frames.len(), 2, "back within capacity");
        assert_consistent(&p);
    }

    #[test]
    fn clear_cache_makes_reads_cold() {
        let p = pool(8);
        let ids: Vec<_> = (0..4).map(|_| p.allocate().unwrap()).collect();
        for (i, id) in ids.iter().enumerate() {
            p.with_page_mut(*id, |pg| pg[0] = i as u8).unwrap();
        }
        p.clear_cache().unwrap();
        let misses = p.metrics().misses.get();
        for id in &ids {
            p.with_page(*id, |_| ()).unwrap();
        }
        assert_eq!(p.metrics().misses.get() - misses, 4);
    }
}
