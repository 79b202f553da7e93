//! `FileStore` behaviour as seen from outside the crate: reopen
//! round-trips, damaged files surfacing structured errors (never a
//! panic), and out-of-bounds access.  Until the durability work the
//! file-backed store was dead code outside `bdbms-storage`; these tests
//! pin the contract the engine's checkpoint/recovery path now relies on.

mod support;

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use bdbms_common::ErrorCode;
use bdbms_storage::{BufferPool, FileStore, HeapFile, PageId, PageStore, PAGE_SIZE};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bdbms-fstest-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = fs::remove_file(&path);
    path
}

#[test]
fn reopen_round_trips_every_page() {
    let path = tmp("roundtrip.db");
    let n = 5u64;
    {
        let mut fs_ = FileStore::create(&path).unwrap();
        for i in 0..n {
            let id = fs_.allocate().unwrap();
            let mut page = [0u8; PAGE_SIZE];
            page[0] = i as u8;
            page[PAGE_SIZE - 1] = 0xA0 | i as u8;
            fs_.write_page(id, &page).unwrap();
        }
        fs_.sync().unwrap();
    }
    let mut fs_ = FileStore::open(&path).unwrap();
    assert_eq!(fs_.num_pages(), n);
    let mut buf = [0u8; PAGE_SIZE];
    for i in 0..n {
        fs_.read_page(PageId(i), &mut buf).unwrap();
        assert_eq!(buf[0], i as u8);
        assert_eq!(buf[PAGE_SIZE - 1], 0xA0 | i as u8);
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn truncated_file_is_a_structured_corrupt_error() {
    let path = tmp("truncated.db");
    {
        let mut fs_ = FileStore::create(&path).unwrap();
        let id = fs_.allocate().unwrap();
        fs_.write_page(id, &[7u8; PAGE_SIZE]).unwrap();
    }
    // chop the file mid-page: a torn write / partial copy
    let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(PAGE_SIZE as u64 - 100).unwrap();
    drop(f);
    let err = match FileStore::open(&path) {
        Ok(_) => panic!("a torn page file must not open"),
        Err(e) => e,
    };
    assert_eq!(err.code(), ErrorCode::Corrupt, "got: {err}");
    let _ = fs::remove_file(&path);
}

#[test]
fn short_garbage_file_is_a_structured_error_not_a_panic() {
    let path = tmp("garbage.db");
    fs::write(&path, b"this is not a page file").unwrap();
    let err = match FileStore::open(&path) {
        Ok(_) => panic!("garbage must not open"),
        Err(e) => e,
    };
    assert_eq!(err.code(), ErrorCode::Corrupt);
    let _ = fs::remove_file(&path);
}

#[test]
fn read_and_write_past_eof_error() {
    let path = tmp("eof.db");
    let mut fs_ = FileStore::create(&path).unwrap();
    let id = fs_.allocate().unwrap();
    let mut buf = [0u8; PAGE_SIZE];
    fs_.read_page(id, &mut buf).unwrap();
    let err = fs_.read_page(PageId(1), &mut buf).unwrap_err();
    assert_eq!(err.code(), ErrorCode::Storage);
    let err = fs_.write_page(PageId(99), &buf).unwrap_err();
    assert_eq!(err.code(), ErrorCode::Storage);
    let _ = fs::remove_file(&path);
}

#[test]
fn heap_file_survives_reopen_through_a_file_backed_pool() {
    let path = tmp("heap.db");
    let records: Vec<Vec<u8>> = (0..100u32)
        .map(|i| format!("record-{i:04}").into_bytes())
        .chain(std::iter::once(vec![0xEE; 30_000])) // overflow chain
        .collect();
    let (pages, rids) = {
        let pool = Arc::new(BufferPool::new(
            Box::new(FileStore::create(&path).unwrap()),
            8, // tiny pool: most traffic round-trips through the file
        ));
        let mut heap = HeapFile::create(pool.clone()).unwrap();
        let rids: Vec<_> = records.iter().map(|r| heap.insert(r).unwrap()).collect();
        pool.flush_all().unwrap();
        pool.sync_store().unwrap();
        (heap.pages().to_vec(), rids)
    };
    // a brand-new process image: fresh store, fresh pool, reattached heap
    let pool = Arc::new(BufferPool::new(
        Box::new(FileStore::open(&path).unwrap()),
        8,
    ));
    let heap = HeapFile::attach(pool, pages);
    for (rid, want) in rids.iter().zip(&records) {
        assert_eq!(&heap.get(*rid).unwrap(), want);
    }
    assert_eq!(support::live_records(&heap).len(), records.len());
    let _ = fs::remove_file(&path);
}
