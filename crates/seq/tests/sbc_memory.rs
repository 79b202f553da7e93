//! Pins what the SBC-tree holds and how much of it a search reads.
//!
//! The tree keeps one 12-byte entry per run boundary: the suffix's text
//! and run, and the run before it, packed.  The entries' preceding runs
//! and the inner nodes' per-child maxima are the 3-sided structure, so no
//! R-tree, order keys or run-length index sits beside it.  With those
//! (as before), a built tree held about 95 live bytes per run and the
//! first test fails.
//!
//! The counter is per thread, so the tests may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bdbms_seq::string_btree::naive_substring_search;
use bdbms_seq::{gen, RleSeq, SbcTree};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: defers to `System` unchanged; the counter is a `const`-
// initialized thread-local `Cell` without a destructor, so touching it
// neither allocates nor outlives the thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Shaped like the benchmark's sequence corpus: 300-character protein
/// secondary structures with mean run 8.
fn corpus(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| gen::secondary_structure(&mut rng, 300, 8.0))
        .collect()
}

fn pattern(runs: &[(u8, usize)]) -> Vec<u8> {
    runs.iter()
        .flat_map(|&(ch, n)| std::iter::repeat_n(ch, n))
        .collect()
}

fn pairs(sbc: Vec<bdbms_seq::sbc_tree::Occurrence>) -> Vec<(u32, u64)> {
    sbc.into_iter().map(|o| (o.text, o.pos)).collect()
}

/// Logical reads of one search.
fn reads(sbc: &SbcTree, search: impl FnOnce(&SbcTree)) -> u64 {
    sbc.reset_io();
    search(sbc);
    sbc.io_stats().reads
}

#[test]
fn a_built_tree_holds_at_most_36_bytes_per_run() {
    let texts = corpus(4_000, 20070107);
    let live = || LIVE.with(Cell::get);
    let before = live();
    let sbc = SbcTree::build(texts.iter().map(|t| RleSeq::encode(t)).collect());
    let held = live() - before;
    let runs = sbc.num_suffixes();
    let per_run = held as f64 / runs as f64;
    println!(
        "{runs} runs: {held} live bytes, {per_run:.1} per run; model {} bytes",
        sbc.storage_bytes()
    );
    assert!(
        per_run <= 36.0,
        "{per_run:.1} live bytes per run, texts included"
    );
    // and the tree it holds answers
    assert!(sbc.matching_texts(&texts[17][40..60]).contains(&17));
}

/// A pattern whose tail's class is large but whose first run is rare:
/// the 3-sided query reads the subtrees that hold an answer, the scan the
/// whole class.
#[test]
fn the_three_sided_query_reads_what_holds_the_answer() {
    let texts = corpus(4_000, 4242);
    let sbc = SbcTree::build(texts.iter().map(|t| RleSeq::encode(t)).collect());
    let pat = pattern(&[(b'L', 45), (b'E', 2)]);
    let mut want = naive_substring_search(&texts, &pat);
    want.sort_unstable();
    assert!(!want.is_empty(), "the corpus holds the pattern");
    let three_sided = reads(&sbc, |t| {
        assert_eq!(pairs(t.substring_search_three_sided(&pat)), want);
    });
    let scan = reads(&sbc, |t| {
        assert_eq!(pairs(t.substring_search_scan(&pat)), want);
    });
    let matching = reads(&sbc, |t| {
        let mut ids: Vec<u32> = want.iter().map(|&(text, _)| text).collect();
        ids.dedup();
        assert_eq!(t.matching_texts(&pat), ids);
    });
    println!(
        "{} hits: 3-sided {three_sided} reads, scan {scan}",
        want.len()
    );
    assert!(
        three_sided * 4 < scan,
        "3-sided {three_sided} reads vs scan {scan}"
    );
    assert_eq!(matching, three_sided);
}

/// Inserts that all land in one suffix neighbourhood (the case where
/// midpoint order keys used to collide) leave a tree that answers like a
/// bulk build of the same texts, and reads about as much.
#[test]
fn inserts_into_one_neighbourhood_answer_like_a_bulk_build() {
    let mut texts = corpus(300, 7);
    let mut grown = SbcTree::build(texts.iter().map(|t| RleSeq::encode(t)).collect());
    for i in 0..300 {
        // a shared head, then a tail that differs from text to text
        let t = pattern(&[
            (b'H', 10),
            (b'E', 3),
            (b'L', 1 + i % 7),
            (b'H', 1 + i / 7 % 6),
            (b'E', 1 + i / 42),
        ]);
        assert_eq!(grown.insert_sequence(&t), texts.len() as u32);
        texts.push(t);
    }
    let bulk = SbcTree::build(texts.iter().map(|t| RleSeq::encode(t)).collect());
    let (mut grown_reads, mut bulk_reads) = (0, 0);
    for pat in [
        pattern(&[(b'H', 3), (b'E', 3), (b'L', 2)]),
        pattern(&[(b'E', 3), (b'L', 4), (b'H', 1)]),
        pattern(&[(b'H', 10), (b'E', 3)]),
        pattern(&[(b'H', 10), (b'E', 3), (b'L', 5), (b'H', 2), (b'E', 1)]),
        pattern(&[(b'L', 3), (b'H', 5)]),
        pattern(&[(b'E', 3)]),
    ] {
        let mut want = naive_substring_search(&texts, &pat);
        want.sort_unstable();
        assert!(!want.is_empty());
        for sbc in [&grown, &bulk] {
            assert_eq!(pairs(sbc.substring_search(&pat)), want);
            assert_eq!(pairs(sbc.substring_search_scan(&pat)), want);
        }
        grown_reads += reads(&grown, |t| {
            assert_eq!(pairs(t.substring_search_three_sided(&pat)), want);
        });
        bulk_reads += reads(&bulk, |t| {
            assert_eq!(pairs(t.substring_search_three_sided(&pat)), want);
        });
    }
    println!("3-sided reads: grown {grown_reads}, bulk {bulk_reads}");
    assert!(
        grown_reads <= 2 * bulk_reads,
        "grown {grown_reads} vs bulk {bulk_reads}"
    );
}
