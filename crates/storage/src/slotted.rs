//! Slotted page layout for variable-length records.
//!
//! Layout of one [`PAGE_SIZE`] page:
//!
//! ```text
//! +--------------+-----------+------------------->      <-------------+
//! | slot_count   | free_end  | slot array (4 B/slot)  free   records  |
//! | u16 LE       | u16 LE    | [offset u16][len u16]                  |
//! +--------------+-----------+------------------->      <-------------+
//! 0              2           4
//! ```
//!
//! Records are packed from the end of the usable region downward; the
//! slot array grows from the header upward.  A deleted slot has
//! `offset == DEAD` and is reused by later inserts.  [`compact`] squeezes
//! out holes left by deletions so the free region is contiguous again.
//!
//! The last [`PAGE_TRAILER`] bytes of every
//! page are reserved for the buffer pool's CRC-32 checksum and never hold
//! record bytes — the usable region ends at `PAGE_SIZE - PAGE_TRAILER`.

use crate::pager::{PAGE_SIZE, PAGE_TRAILER};

const HEADER: usize = 4;
const SLOT_BYTES: usize = 4;
/// Sentinel offset marking a dead (deleted) slot.
const DEAD: u16 = u16::MAX;
/// One past the last byte records may occupy (the checksum trailer
/// starts here).
const PAGE_END: usize = PAGE_SIZE - PAGE_TRAILER;

/// Largest record payload a single page can hold.
pub const MAX_RECORD: usize = PAGE_END - HEADER - SLOT_BYTES;

fn read_u16(page: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([page[at], page[at + 1]])
}

fn write_u16(page: &mut [u8], at: usize, v: u16) {
    page[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

/// Initialize an empty slotted page.
pub fn init(page: &mut [u8]) {
    debug_assert_eq!(page.len(), PAGE_SIZE);
    write_u16(page, 0, 0);
    write_u16(page, 2, PAGE_END as u16);
}

/// Number of slots (live + dead) on the page.
pub fn slot_count(page: &[u8]) -> u16 {
    read_u16(page, 0)
}

fn free_end(page: &[u8]) -> usize {
    read_u16(page, 2) as usize
}

fn slot(page: &[u8], i: u16) -> (u16, u16) {
    let at = HEADER + i as usize * SLOT_BYTES;
    (read_u16(page, at), read_u16(page, at + 2))
}

fn set_slot(page: &mut [u8], i: u16, offset: u16, len: u16) {
    let at = HEADER + i as usize * SLOT_BYTES;
    write_u16(page, at, offset);
    write_u16(page, at + 2, len);
}

/// Contiguous free bytes between the slot array and the record area.
fn contiguous_free(page: &[u8]) -> usize {
    free_end(page) - (HEADER + slot_count(page) as usize * SLOT_BYTES)
}

/// Where a record of `len` bytes goes, from one walk of the slot
/// directory: its slot (the first dead one, else a new one appended) and
/// whether the page must be compacted first, or `None` when it cannot
/// fit even after compaction.
fn place(page: &[u8], len: usize) -> Option<(u16, bool)> {
    if len > MAX_RECORD {
        return None;
    }
    let n = slot_count(page);
    let (mut dead_slot, mut live) = (None, 0);
    for i in 0..n {
        match slot(page, i) {
            (DEAD, _) => {
                dead_slot.get_or_insert(i);
            }
            (_, bytes) => live += bytes as usize,
        }
    }
    let need = len + if dead_slot.is_some() { 0 } else { SLOT_BYTES };
    let free = contiguous_free(page);
    // holes left by deleted records, which `compact` reclaims
    let dead_bytes = (PAGE_END - free_end(page)) - live;
    (free + dead_bytes >= need).then_some((dead_slot.unwrap_or(n), free < need))
}

/// Can a record of `len` bytes be inserted (possibly after compaction)?
pub fn can_insert(page: &[u8], len: usize) -> bool {
    place(page, len).is_some()
}

/// Insert a record, compacting first if needed.  Returns the slot number,
/// or `None` if the record cannot fit on this page.
pub fn insert(page: &mut [u8], rec: &[u8]) -> Option<u16> {
    let (slot_no, compact_first) = place(page, rec.len())?;
    if compact_first {
        compact(page);
    }
    if slot_no == slot_count(page) {
        write_u16(page, 0, slot_no + 1);
    }
    let new_end = free_end(page) - rec.len();
    page[new_end..new_end + rec.len()].copy_from_slice(rec);
    write_u16(page, 2, new_end as u16);
    set_slot(page, slot_no, new_end as u16, rec.len() as u16);
    Some(slot_no)
}

/// Read the record in `slot_no`, if live.
pub fn get(page: &[u8], slot_no: u16) -> Option<&[u8]> {
    if slot_no >= slot_count(page) {
        return None;
    }
    let (off, len) = slot(page, slot_no);
    if off == DEAD {
        return None;
    }
    Some(&page[off as usize..off as usize + len as usize])
}

/// Delete the record in `slot_no`. Returns whether a live record was removed.
pub fn delete(page: &mut [u8], slot_no: u16) -> bool {
    if slot_no >= slot_count(page) || slot(page, slot_no).0 == DEAD {
        return false;
    }
    set_slot(page, slot_no, DEAD, 0);
    true
}

/// Replace the record in `slot_no` with `rec`, keeping the slot number.
/// Returns `false` (leaving the page unchanged) if `rec` cannot fit.
pub fn update(page: &mut [u8], slot_no: u16, rec: &[u8]) -> bool {
    if slot_no >= slot_count(page) {
        return false;
    }
    let (off, len) = slot(page, slot_no);
    if off == DEAD {
        return false;
    }
    if rec.len() <= len as usize {
        // Shrinking in place: rewrite at the same offset, leak the tail
        // (reclaimed by the next compaction).
        let off = off as usize;
        page[off..off + rec.len()].copy_from_slice(rec);
        set_slot(page, slot_no, off as u16, rec.len() as u16);
        return true;
    }
    // Need a larger home: logically delete, then re-insert into this slot.
    set_slot(page, slot_no, DEAD, 0);
    if !can_insert(page, rec.len()) {
        // Roll back the tombstone; caller will relocate to another page.
        set_slot(page, slot_no, off, len);
        return false;
    }
    if contiguous_free(page) < rec.len() {
        compact(page);
    }
    let new_end = free_end(page) - rec.len();
    page[new_end..new_end + rec.len()].copy_from_slice(rec);
    write_u16(page, 2, new_end as u16);
    set_slot(page, slot_no, new_end as u16, rec.len() as u16);
    true
}

/// Rewrite live records contiguously at the end of the page, making all
/// dead bytes reusable.
pub fn compact(page: &mut [u8]) {
    let n = slot_count(page);
    let mut live: Vec<(u16, Vec<u8>)> = (0..n)
        .filter_map(|i| get(page, i).map(|d| (i, d.to_vec())))
        .collect();
    // Pack from the end of the usable region downward.
    let mut end = PAGE_END;
    // Write larger offsets first to keep record order stable-ish; order
    // doesn't matter for correctness.
    for (slot_no, data) in live.drain(..) {
        end -= data.len();
        page[end..end + data.len()].copy_from_slice(&data);
        set_slot(page, slot_no, end as u16, data.len() as u16);
    }
    write_u16(page, 2, end as u16);
}

/// Iterate live `(slot, record)` pairs.
pub fn live_records(page: &[u8]) -> impl Iterator<Item = (u16, &[u8])> + '_ {
    (0..slot_count(page)).filter_map(move |i| get(page, i).map(|d| (i, d)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fresh() -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        init(&mut p);
        p
    }

    /// Bytes reclaimable by [`compact`] (holes left by deleted records).
    fn dead_bytes(page: &[u8]) -> usize {
        let n = slot_count(page);
        let live: usize = (0..n)
            .map(|i| slot(page, i))
            .filter(|(off, _)| *off != DEAD)
            .map(|(_, len)| len as usize)
            .sum();
        (PAGE_END - free_end(page)) - live
    }

    /// `insert` with four walks of the slot directory (two dead-slot
    /// checks, the live-byte sum, the dead-slot `find`): the reference
    /// the single-walk version must match byte for byte.
    fn reference_insert(page: &mut [u8], rec: &[u8]) -> Option<u16> {
        fn can_insert(page: &[u8], len: usize) -> bool {
            if len > MAX_RECORD {
                return false;
            }
            let has_dead_slot = (0..slot_count(page)).any(|i| slot(page, i).0 == DEAD);
            let slot_cost = if has_dead_slot { 0 } else { SLOT_BYTES };
            contiguous_free(page) + dead_bytes(page) >= len + slot_cost
        }
        if !can_insert(page, rec.len()) {
            return None;
        }
        let has_dead_slot = (0..slot_count(page)).any(|i| slot(page, i).0 == DEAD);
        let slot_cost = if has_dead_slot { 0 } else { SLOT_BYTES };
        if contiguous_free(page) < rec.len() + slot_cost {
            compact(page);
        }
        let n = slot_count(page);
        let slot_no = (0..n).find(|&i| slot(page, i).0 == DEAD).unwrap_or(n);
        if slot_no == n {
            write_u16(page, 0, n + 1);
        }
        let new_end = free_end(page) - rec.len();
        page[new_end..new_end + rec.len()].copy_from_slice(rec);
        write_u16(page, 2, new_end as u16);
        set_slot(page, slot_no, new_end as u16, rec.len() as u16);
        Some(slot_no)
    }

    /// One step of a page's life: insert a record of this length, or of
    /// a few bytes around the contiguous or the reclaimable free space
    /// (the two thresholds of `insert`), delete the n-th slot (modulo the
    /// count), or compact.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(usize),
        FillContiguous(usize),
        FillReclaimable(usize),
        Delete(usize),
        Compact,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..600).prop_map(Op::Insert),
            (0usize..MAX_RECORD + 8).prop_map(Op::Insert),
            (0usize..10).prop_map(Op::FillContiguous),
            (0usize..10).prop_map(Op::FillReclaimable),
            (0usize..64).prop_map(Op::Delete),
            (0usize..64).prop_map(Op::Delete),
            Just(Op::Compact),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn insert_matches_the_four_walk_reference(ops in prop::collection::vec(arb_op(), 1..120)) {
            let (mut page, mut reference) = (fresh(), fresh());
            for (i, op) in ops.iter().enumerate() {
                let free = contiguous_free(&page);
                let len = match *op {
                    Op::Insert(len) => Some(len),
                    Op::FillContiguous(k) => Some((free + 2).saturating_sub(k)),
                    Op::FillReclaimable(k) => Some((free + dead_bytes(&page) + 2).saturating_sub(k)),
                    _ => None,
                };
                match (op, len) {
                    (_, Some(len)) => {
                        let rec: Vec<u8> = (0..len).map(|b| (b + i) as u8).collect();
                        let fits = can_insert(&page, len);
                        let got = insert(&mut page, &rec);
                        prop_assert_eq!(got.is_some(), fits);
                        prop_assert_eq!(got, reference_insert(&mut reference, &rec));
                    }
                    (Op::Delete(n), _) => {
                        let count = slot_count(&page).max(1);
                        let at = (*n % count as usize) as u16;
                        prop_assert_eq!(delete(&mut page, at), delete(&mut reference, at));
                    }
                    _ => {
                        compact(&mut page);
                        compact(&mut reference);
                    }
                }
                prop_assert!(page == reference, "pages differ after op {} ({:?})", i, op);
            }
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut p = fresh();
        let s1 = insert(&mut p, b"hello").unwrap();
        let s2 = insert(&mut p, b"world!").unwrap();
        assert_ne!(s1, s2);
        assert_eq!(get(&p, s1).unwrap(), b"hello");
        assert_eq!(get(&p, s2).unwrap(), b"world!");
        assert_eq!(get(&p, 99), None);
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut p = fresh();
        let s1 = insert(&mut p, b"aaaa").unwrap();
        let _s2 = insert(&mut p, b"bbbb").unwrap();
        assert!(delete(&mut p, s1));
        assert!(!delete(&mut p, s1), "double delete is a no-op");
        assert_eq!(get(&p, s1), None);
        let s3 = insert(&mut p, b"cccc").unwrap();
        assert_eq!(s3, s1, "dead slot is reused");
        assert_eq!(slot_count(&p), 2);
    }

    #[test]
    fn fill_page_then_reject() {
        let mut p = fresh();
        let rec = vec![7u8; 1000];
        let mut n = 0;
        while insert(&mut p, &rec).is_some() {
            n += 1;
        }
        assert!(n >= 8, "should fit at least 8 1000-byte records, fit {n}");
        assert!(!can_insert(&p, 1000));
        // but a tiny record still fits in the tail
        assert!(can_insert(&p, 8) || contiguous_free(&p) < 12);
    }

    #[test]
    fn compaction_reclaims_holes() {
        let mut p = fresh();
        let rec = vec![7u8; 1500];
        let slots: Vec<u16> = (0..5).map(|_| insert(&mut p, &rec).unwrap()).collect();
        // Delete alternating records to fragment the page.
        delete(&mut p, slots[0]);
        delete(&mut p, slots[2]);
        delete(&mut p, slots[4]);
        // A 4000-byte record doesn't fit contiguously but does after compact.
        let big = vec![9u8; 4000];
        let s = insert(&mut p, &big).expect("insert after implicit compact");
        assert_eq!(get(&p, s).unwrap(), &big[..]);
        // survivors intact
        assert_eq!(get(&p, slots[1]).unwrap(), &rec[..]);
        assert_eq!(get(&p, slots[3]).unwrap(), &rec[..]);
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = fresh();
        let s = insert(&mut p, b"small").unwrap();
        assert!(update(&mut p, s, b"tiny"));
        assert_eq!(get(&p, s).unwrap(), b"tiny");
        assert!(update(&mut p, s, b"much larger record payload"));
        assert_eq!(get(&p, s).unwrap(), b"much larger record payload");
    }

    #[test]
    fn update_too_big_rolls_back() {
        let mut p = fresh();
        let s = insert(&mut p, b"keepme").unwrap();
        let huge = vec![1u8; PAGE_SIZE];
        assert!(!update(&mut p, s, &huge));
        assert_eq!(
            get(&p, s).unwrap(),
            b"keepme",
            "failed update must not corrupt"
        );
    }

    #[test]
    fn live_records_iterates_only_live() {
        let mut p = fresh();
        let a = insert(&mut p, b"a").unwrap();
        let b = insert(&mut p, b"b").unwrap();
        let c = insert(&mut p, b"c").unwrap();
        delete(&mut p, b);
        let live: Vec<u16> = live_records(&p).map(|(s, _)| s).collect();
        assert_eq!(live, vec![a, c]);
    }

    #[test]
    fn max_record_fits_exactly() {
        let mut p = fresh();
        let rec = vec![3u8; MAX_RECORD];
        let s = insert(&mut p, &rec).unwrap();
        assert_eq!(get(&p, s).unwrap().len(), MAX_RECORD);
        assert!(insert(&mut p, b"x").is_none());
    }
}
