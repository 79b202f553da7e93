//! Heap files: unordered collections of variable-length records.
//!
//! Each engine table stores its tuples in one [`HeapFile`].  Records larger
//! than a page (long gene or protein sequences) are transparently split
//! into an overflow chain of fragments, so the value model never has to
//! care about page size.

use std::sync::Arc;

use bdbms_common::{BdbmsError, Result};

use crate::buffer::BufferPool;
use crate::pager::PageId;
use crate::slotted;

/// Record id: page + slot of the head fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page holding the head fragment.
    pub page: PageId,
    /// Slot within that page.
    pub slot: u16,
}

impl std::fmt::Display for Rid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.page, self.slot)
    }
}

/// Fragment header: flags(1) + next_page(8) + next_slot(2).
const FRAG_HEADER: usize = 11;
const FLAG_HAS_NEXT: u8 = 0b01;
const FLAG_IS_HEAD: u8 = 0b10;
/// Payload budget per fragment, sized so a fragment always fits on a page.
const FRAG_PAYLOAD: usize = slotted::MAX_RECORD - FRAG_HEADER;

fn encode_fragment(is_head: bool, next: Option<Rid>, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAG_HEADER + payload.len());
    let mut flags = 0u8;
    if is_head {
        flags |= FLAG_IS_HEAD;
    }
    if next.is_some() {
        flags |= FLAG_HAS_NEXT;
    }
    out.push(flags);
    let n = next.unwrap_or(Rid {
        page: PageId(0),
        slot: 0,
    });
    out.extend_from_slice(&n.page.0.to_le_bytes());
    out.extend_from_slice(&n.slot.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn decode_fragment(rec: &[u8]) -> Result<(bool, Option<Rid>, &[u8])> {
    if rec.len() < FRAG_HEADER {
        return Err(BdbmsError::storage("fragment too short"));
    }
    let flags = rec[0];
    let page = u64::from_le_bytes(rec[1..9].try_into().unwrap());
    let slot = u16::from_le_bytes(rec[9..11].try_into().unwrap());
    let next = if flags & FLAG_HAS_NEXT != 0 {
        Some(Rid {
            page: PageId(page),
            slot,
        })
    } else {
        None
    };
    Ok((flags & FLAG_IS_HEAD != 0, next, &rec[FRAG_HEADER..]))
}

/// An unordered file of records over a shared buffer pool.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    pages: Vec<PageId>,
    /// Pages that recently freed space; tried before allocating.
    reuse_candidates: Vec<PageId>,
}

impl HeapFile {
    /// Create an empty heap file on `pool`.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        Ok(HeapFile {
            pool,
            pages: Vec::new(),
            reuse_candidates: Vec::new(),
        })
    }

    /// Reattach a heap file persisted earlier: `pages` is the page list a
    /// previous incarnation reported via [`pages`](Self::pages), in
    /// order.  Records are readable immediately; inserts continue on the
    /// tail page.
    pub fn attach(pool: Arc<BufferPool>, pages: Vec<PageId>) -> HeapFile {
        HeapFile {
            pool,
            pages,
            // conservative: pages with reusable holes are rediscovered as
            // deletions happen
            reuse_candidates: Vec::new(),
        }
    }

    /// The pages owned by this file, in allocation order (persisted by
    /// checkpoints and handed back to [`attach`](Self::attach)).
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// The buffer pool this file lives on.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Number of pages owned by this file.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    fn new_page(&mut self) -> Result<PageId> {
        let id = self.pool.allocate()?;
        self.pool.with_page_mut(id, slotted::init)?;
        self.pages.push(id);
        Ok(id)
    }

    /// Insert one fragment, preferring reuse candidates and the tail page.
    fn insert_fragment(&mut self, frag: &[u8]) -> Result<Rid> {
        // Try reuse candidates first (pages that had deletions).
        while let Some(&pid) = self.reuse_candidates.last() {
            let slot = self
                .pool
                .with_page_mut(pid, |pg| slotted::insert(pg, frag))?;
            match slot {
                Some(slot) => return Ok(Rid { page: pid, slot }),
                None => {
                    self.reuse_candidates.pop();
                }
            }
        }
        if let Some(&pid) = self.pages.last() {
            if let Some(slot) = self
                .pool
                .with_page_mut(pid, |pg| slotted::insert(pg, frag))?
            {
                return Ok(Rid { page: pid, slot });
            }
        }
        let pid = self.new_page()?;
        let slot = self
            .pool
            .with_page_mut(pid, |pg| slotted::insert(pg, frag))?
            .ok_or_else(|| BdbmsError::storage("fragment larger than a fresh page"))?;
        Ok(Rid { page: pid, slot })
    }

    /// Insert a record of any length; returns its [`Rid`].
    pub fn insert(&mut self, rec: &[u8]) -> Result<Rid> {
        // Split into fragments; build the chain tail-first so each fragment
        // knows its successor's Rid.
        let chunks: Vec<&[u8]> = if rec.is_empty() {
            vec![rec]
        } else {
            rec.chunks(FRAG_PAYLOAD).collect()
        };
        let mut next: Option<Rid> = None;
        for (i, chunk) in chunks.iter().enumerate().rev() {
            let is_head = i == 0;
            let frag = encode_fragment(is_head, next, chunk);
            next = Some(self.insert_fragment(&frag)?);
        }
        Ok(next.expect("at least one fragment"))
    }

    /// Fetch the full record at `rid`.
    pub fn get(&self, rid: Rid) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut cur = Some(rid);
        let mut first = true;
        while let Some(r) = cur {
            let frag = self
                .pool
                .with_page(r.page, |pg| slotted::get(pg, r.slot).map(|d| d.to_vec()))?;
            let frag = frag.ok_or_else(|| BdbmsError::storage(format!("no record at {r}")))?;
            let (is_head, next, payload) = decode_fragment(&frag)?;
            if first && !is_head {
                return Err(BdbmsError::storage(format!(
                    "{r} is a continuation fragment, not a record head"
                )));
            }
            first = false;
            out.extend_from_slice(payload);
            cur = next;
        }
        Ok(out)
    }

    /// Run `f(index, record_bytes)` over every record in `rids`, in
    /// order, pinning each underlying page **once per run of same-page
    /// rids** instead of once per record — a vectorized scan's rows are
    /// overwhelmingly contiguous on a page, so this removes the
    /// per-record pool lock, frame lookup, and LRU touch, and
    /// single-fragment records (the common case for table rows) are
    /// handed to `f` in place without copying.  Multi-fragment records
    /// are assembled individually; call order stays strictly by index.
    /// Stops at the first error from `f` or the pool.
    pub fn with_records(
        &self,
        rids: &[Rid],
        mut f: impl FnMut(usize, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let mut i = 0;
        while i < rids.len() {
            let page = rids[i].page;
            let mut j = i;
            while j < rids.len() && rids[j].page == page {
                j += 1;
            }
            // Decode the run [i, j) under one page pin; a multi-fragment
            // record breaks out so it can be assembled (rare), then the
            // run resumes after it.
            let mut k = i;
            while k < j {
                let stopped_at = self.pool.with_page(page, |pg| -> Result<usize> {
                    for (idx, &rid) in rids.iter().enumerate().take(j).skip(k) {
                        let frag = slotted::get(pg, rid.slot)
                            .ok_or_else(|| BdbmsError::storage(format!("no record at {rid}")))?;
                        let (is_head, next, payload) = decode_fragment(frag)?;
                        if !is_head {
                            return Err(BdbmsError::storage(format!(
                                "{rid} is a continuation fragment, not a record head"
                            )));
                        }
                        if next.is_some() {
                            return Ok(idx);
                        }
                        f(idx, payload)?;
                    }
                    Ok(j)
                })??;
                if stopped_at < j {
                    let buf = self.get(rids[stopped_at])?;
                    f(stopped_at, &buf)?;
                    k = stopped_at + 1;
                } else {
                    k = j;
                }
            }
            i = j;
        }
        Ok(())
    }

    /// Delete the record at `rid` (all fragments).  Returns `false` if no
    /// record lives there.
    pub fn delete(&mut self, rid: Rid) -> Result<bool> {
        let head = self.pool.with_page(rid.page, |pg| {
            slotted::get(pg, rid.slot).map(|d| d.to_vec())
        })?;
        let Some(head) = head else {
            return Ok(false);
        };
        let (is_head, _, _) = decode_fragment(&head)?;
        if !is_head {
            return Ok(false);
        }
        let mut cur = Some(rid);
        while let Some(r) = cur {
            let frag = self
                .pool
                .with_page(r.page, |pg| slotted::get(pg, r.slot).map(|d| d.to_vec()))?;
            let frag = frag.ok_or_else(|| BdbmsError::storage(format!("broken chain at {r}")))?;
            let (_, next, _) = decode_fragment(&frag)?;
            self.pool
                .with_page_mut(r.page, |pg| slotted::delete(pg, r.slot))?;
            if !self.reuse_candidates.contains(&r.page) {
                self.reuse_candidates.push(r.page);
            }
            cur = next;
        }
        Ok(true)
    }

    /// Replace the record at `rid`.  Returns the (possibly new) [`Rid`]:
    /// single-fragment records that still fit keep their rid; otherwise the
    /// record is relocated.
    pub fn update(&mut self, rid: Rid, rec: &[u8]) -> Result<Rid> {
        // Fast path: head with no chain, and the new payload fits in place.
        let head = self.pool.with_page(rid.page, |pg| {
            slotted::get(pg, rid.slot).map(|d| d.to_vec())
        })?;
        let head = head.ok_or_else(|| BdbmsError::storage(format!("no record at {rid}")))?;
        let (is_head, next, _) = decode_fragment(&head)?;
        if !is_head {
            return Err(BdbmsError::storage(format!("{rid} is not a record head")));
        }
        if next.is_none() && rec.len() <= FRAG_PAYLOAD {
            let frag = encode_fragment(true, None, rec);
            let ok = self
                .pool
                .with_page_mut(rid.page, |pg| slotted::update(pg, rid.slot, &frag))?;
            if ok {
                return Ok(rid);
            }
        }
        self.delete(rid)?;
        self.insert(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemStore;

    fn file() -> HeapFile {
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 64));
        HeapFile::create(pool).unwrap()
    }

    /// All live record-head rids in page order, read off the raw slots.
    fn rids(f: &HeapFile) -> Vec<Rid> {
        let mut out = Vec::new();
        for &pid in f.pages() {
            f.pool
                .with_page(pid, |pg| {
                    for (slot, rec) in slotted::live_records(pg) {
                        if rec.first().is_some_and(|flags| flags & FLAG_IS_HEAD != 0) {
                            out.push(Rid { page: pid, slot });
                        }
                    }
                })
                .unwrap();
        }
        out
    }

    /// Every live record, in page order.
    fn scan(f: &HeapFile) -> Vec<Vec<u8>> {
        rids(f).into_iter().map(|r| f.get(r).unwrap()).collect()
    }

    #[test]
    fn insert_get_small() {
        let mut f = file();
        let r1 = f.insert(b"gene JW0055").unwrap();
        let r2 = f.insert(b"gene JW0080").unwrap();
        assert_eq!(f.get(r1).unwrap(), b"gene JW0055");
        assert_eq!(f.get(r2).unwrap(), b"gene JW0080");
    }

    #[test]
    fn insert_get_overflow_record() {
        let mut f = file();
        // 40 KiB record spans multiple pages.
        let big: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let rid = f.insert(&big).unwrap();
        assert_eq!(f.get(rid).unwrap(), big);
        assert!(f.num_pages() >= 5);
    }

    #[test]
    fn empty_record_roundtrips() {
        let mut f = file();
        let rid = f.insert(b"").unwrap();
        assert_eq!(f.get(rid).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn delete_then_get_fails() {
        let mut f = file();
        let rid = f.insert(b"x").unwrap();
        assert!(f.delete(rid).unwrap());
        assert!(f.get(rid).is_err());
        assert!(!f.delete(rid).unwrap());
    }

    #[test]
    fn delete_overflow_reclaims_all_fragments() {
        let mut f = file();
        let big = vec![5u8; 30_000];
        let rid = f.insert(&big).unwrap();
        let pages_before = f.num_pages();
        assert!(f.delete(rid).unwrap());
        // space is reused: inserting the same record again allocates no new pages
        let _ = f.insert(&big).unwrap();
        assert_eq!(f.num_pages(), pages_before);
    }

    #[test]
    fn update_in_place_keeps_rid() {
        let mut f = file();
        let rid = f.insert(b"before").unwrap();
        let rid2 = f.update(rid, b"after").unwrap();
        assert_eq!(rid, rid2);
        assert_eq!(f.get(rid).unwrap(), b"after");
    }

    #[test]
    fn update_grow_to_overflow_relocates() {
        let mut f = file();
        let rid = f.insert(b"small").unwrap();
        let big = vec![9u8; 20_000];
        let rid2 = f.update(rid, &big).unwrap();
        assert_eq!(f.get(rid2).unwrap(), big);
    }

    #[test]
    fn scan_returns_only_heads_in_order() {
        let mut f = file();
        let mut want = Vec::new();
        for i in 0..50 {
            let rec = format!("record-{i:03}").into_bytes();
            f.insert(&rec).unwrap();
            want.push(rec);
        }
        // interleave an overflow record; scan must yield it once
        let big = vec![1u8; 20_000];
        f.insert(&big).unwrap();
        want.push(big);
        let got = scan(&f);
        assert_eq!(got.len(), want.len());
        for w in &want {
            assert!(got.contains(w));
        }
    }

    #[test]
    fn continuation_fragment_is_not_a_head() {
        let mut f = file();
        let big = vec![2u8; 20_000];
        let head = f.insert(&big).unwrap();
        // find some continuation rid by scanning raw slots
        assert_eq!(rids(&f), vec![head], "scan sees exactly one head");
    }

    #[test]
    fn many_small_records_fill_pages_densely() {
        let mut f = file();
        for i in 0..2000u32 {
            f.insert(&i.to_le_bytes()).unwrap();
        }
        // 2000 × (11+4+slot 4) ≈ 38 KB → should stay under 10 pages
        assert!(f.num_pages() <= 10, "pages = {}", f.num_pages());
        assert_eq!(scan(&f).len(), 2000);
    }
}
