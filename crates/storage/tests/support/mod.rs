//! Shared helpers for the storage crate's integration tests.

use bdbms_storage::{slotted, HeapFile, Rid};

/// Every record of `heap` with its rid, in page order, found from the
/// outside: each live slot of each page the file owns is kept when
/// [`HeapFile::get`] reads it as a record.  `get` refuses a continuation
/// fragment, so each multi-page record appears once, under its head.
/// Any other error (a broken chain, an I/O or checksum failure) panics
/// with its cause.
pub fn live_records(heap: &HeapFile) -> Vec<(Rid, Vec<u8>)> {
    let mut out = Vec::new();
    for &page in heap.pages() {
        let slots: Vec<u16> = heap
            .pool()
            .with_page(page, |pg| {
                slotted::live_records(pg).map(|(s, _)| s).collect()
            })
            .unwrap();
        for slot in slots {
            let rid = Rid { page, slot };
            match heap.get(rid) {
                Ok(rec) => out.push((rid, rec)),
                Err(e) if e.to_string().contains("is a continuation fragment") => {}
                Err(e) => panic!("reading {rid}: {e}"),
            }
        }
    }
    out
}
