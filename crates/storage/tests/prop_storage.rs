//! Property tests: the heap file behaves like a `HashMap<Rid, Vec<u8>>`
//! under arbitrary interleavings of insert / update / delete and full
//! in-order passes, including records large enough to overflow pages,
//! over pools from 2 to 31 frames.

mod support;

use std::collections::HashMap;
use std::sync::Arc;

use bdbms_storage::{BufferPool, HeapFile, MemStore, Rid};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>),
    Update(usize, Vec<u8>),
    Delete(usize),
    /// `with_records` over every live rid in page order: a scan whose
    /// consecutive page faults take the pool's cold-end insertion path.
    FullPass,
}

fn arb_record() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // small records
        prop::collection::vec(any::<u8>(), 0..64),
        // page-straddling records
        prop::collection::vec(any::<u8>(), 8000..9000),
        // multi-page overflow records
        Just(vec![0xAAu8; 20_000]),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_record().prop_map(Op::Insert),
        (any::<usize>(), arb_record()).prop_map(|(i, r)| Op::Update(i, r)),
        any::<usize>().prop_map(Op::Delete),
        Just(Op::FullPass),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn heap_file_matches_model(ops in prop::collection::vec(arb_op(), 1..60), cap in 2usize..32) {
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), cap));
        let mut heap = HeapFile::create(pool).unwrap();
        let mut model: HashMap<Rid, Vec<u8>> = HashMap::new();
        let mut live: Vec<Rid> = Vec::new();

        for op in ops {
            match op {
                Op::Insert(rec) => {
                    let rid = heap.insert(&rec).unwrap();
                    prop_assert!(!model.contains_key(&rid), "rid reuse while live");
                    model.insert(rid, rec);
                    live.push(rid);
                }
                Op::Update(i, rec) => {
                    if live.is_empty() { continue; }
                    let rid = live[i % live.len()];
                    let new_rid = heap.update(rid, &rec).unwrap();
                    model.remove(&rid);
                    live.retain(|&r| r != rid);
                    model.insert(new_rid, rec);
                    live.push(new_rid);
                }
                Op::Delete(i) => {
                    if live.is_empty() { continue; }
                    let rid = live[i % live.len()];
                    prop_assert!(heap.delete(rid).unwrap());
                    model.remove(&rid);
                    live.retain(|&r| r != rid);
                }
                Op::FullPass => {
                    let mut rids = live.clone();
                    rids.sort();
                    let mut got = Vec::with_capacity(rids.len());
                    heap.with_records(&rids, |_, rec| {
                        got.push(rec.to_vec());
                        Ok(())
                    })
                    .unwrap();
                    let want: Vec<&Vec<u8>> = rids.iter().map(|r| &model[r]).collect();
                    prop_assert_eq!(got.iter().collect::<Vec<_>>(), want);
                }
            }
        }

        // Point lookups agree with the model.
        for (rid, rec) in &model {
            prop_assert_eq!(&heap.get(*rid).unwrap(), rec);
        }
        // The pages the file owns hold exactly the live records.
        let mut found = support::live_records(&heap);
        found.sort_by_key(|(r, _)| *r);
        let mut expect: Vec<(Rid, Vec<u8>)> =
            model.iter().map(|(r, d)| (*r, d.clone())).collect();
        expect.sort_by_key(|(r, _)| *r);
        prop_assert_eq!(found, expect);
    }
}
