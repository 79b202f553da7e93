//! The String B-tree over **uncompressed** sequences — the baseline of the
//! paper's §7.2 comparison.
//!
//! One suffix reference is indexed per character position of every stored
//! text, so substring search is a prefix probe over the suffix order
//! (suffix-array semantics with B-tree I/O behaviour).  The paper's claim
//! is that the SBC-tree keeps this structure's *optimal search* while
//! storing an order of magnitude less: E12 measures both sides.

use std::cell::Cell;
use std::cmp::Ordering;

use bdbms_common::stats::IoSnapshot;

use crate::sufbtree::{suffix_starts, SufBTree};

/// Reference to the suffix of text `text` starting at byte `off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SufRef {
    /// Index of the text in the store.
    pub text: u32,
    /// Byte offset where the suffix starts.
    pub off: u32,
}

/// A page-I/O-instrumented String B-tree over raw byte sequences.
pub struct StringBTree {
    texts: Vec<Vec<u8>>,
    tree: SufBTree<SufRef>,
    /// Pages written appending raw text (1 page per 8 KiB, min 1 per text).
    text_write_io: Cell<u64>,
}

impl StringBTree {
    /// Empty index with page-realistic fanout.
    pub fn new() -> Self {
        Self::with_fanout(64)
    }

    /// Empty index with custom B-tree fanout.
    pub fn with_fanout(fanout: usize) -> Self {
        StringBTree {
            texts: Vec::new(),
            tree: SufBTree::with_fanout(fanout),
            text_write_io: Cell::new(0),
        }
    }

    /// Index `texts` (ids `0..texts.len()`, in order) in one build: one
    /// sort of every byte suffix and a bottom-up load of the tree — the
    /// same index `insert_text` would grow text by text.
    pub fn build(texts: Vec<Vec<u8>>) -> Self {
        Self::build_with_fanout(64, texts)
    }

    /// [`build`](Self::build) with a custom B-tree fanout.
    pub fn build_with_fanout(fanout: usize, texts: Vec<Vec<u8>>) -> Self {
        let mut suffixes = Vec::with_capacity(texts.iter().map(Vec::len).sum());
        let mut text_pages = 0;
        for (id, t) in texts.iter().enumerate() {
            text_pages += pages(t);
            let text = id as u32;
            suffixes.extend((0..t.len() as u32).map(|off| (SufRef { text, off }, ())));
        }
        crate::count_sorted_build();
        suffixes.sort_unstable_by(|&(a, _), &(b, _)| cmp_suf_refs(&texts, a, b));
        StringBTree {
            tree: SufBTree::from_sorted(fanout, &suffixes),
            texts,
            text_write_io: Cell::new(text_pages),
        }
    }

    /// Index `texts` (ids `0..texts.len()`, in order) from their stored
    /// [`order`](Self::order), with no sort: the index
    /// [`build`](Self::build) makes.  `None` unless `order` is a
    /// permutation of the texts' byte suffixes.
    pub fn from_order(texts: Vec<Vec<u8>>, order: &[u32]) -> Option<Self> {
        Self::from_order_with_fanout(64, texts, order)
    }

    /// [`from_order`](Self::from_order) with a custom B-tree fanout.
    pub fn from_order_with_fanout(
        fanout: usize,
        texts: Vec<Vec<u8>>,
        order: &[u32],
    ) -> Option<Self> {
        let mut numbered = Vec::with_capacity(texts.iter().map(Vec::len).sum());
        for (t, text) in texts.iter().zip(0..) {
            numbered.extend((0..t.len() as u32).map(|off| (SufRef { text, off }, ())));
        }
        Some(StringBTree {
            tree: SufBTree::from_order(fanout, &numbered, order)?,
            text_write_io: Cell::new(texts.iter().map(|t| pages(t)).sum()),
            texts,
        })
    }

    /// The tree order as an image stores it: the byte suffixes of the
    /// texts `kept` (ids, each once) numbered in `kept`'s order, text
    /// after text, listed in tree order — what
    /// [`SbcTree::order`](crate::SbcTree::order) is for run boundaries.
    pub fn order(&self, kept: &[u32]) -> Vec<u32> {
        let starts = suffix_starts(self.texts.len(), kept, |id| self.texts[id].len());
        let renumbered = !kept.is_sorted();
        self.tree.order(
            |e| starts[e.text as usize].map(|s| s + e.off),
            |a, b| renumbered && self.suffix(a) == self.suffix(b),
        )
    }

    /// Whether the suffixes ascend strictly in tree order.
    pub fn is_ordered(&self) -> bool {
        self.tree.is_ordered(|a, b| cmp_suf_refs(&self.texts, a, b))
    }

    fn suffix(&self, e: SufRef) -> &[u8] {
        &self.texts[e.text as usize][e.off as usize..]
    }

    /// Insert a text; indexes one suffix per character. Returns the text id.
    pub fn insert_text(&mut self, seq: &[u8]) -> u32 {
        let id = self.texts.len() as u32;
        self.texts.push(seq.to_vec());
        self.text_write_io
            .set(self.text_write_io.get() + pages(seq));
        // Split borrows: comparisons need &texts while the tree mutates.
        let texts = std::mem::take(&mut self.texts);
        let cmp = |a: SufRef, b: SufRef| cmp_suf_refs(&texts, a, b);
        for off in 0..seq.len() as u32 {
            self.tree.insert(&cmp, SufRef { text: id, off }, ());
        }
        self.texts = texts;
        id
    }

    /// Number of stored texts.
    pub fn num_texts(&self) -> usize {
        self.texts.len()
    }

    /// The raw text by id.
    pub fn text(&self, id: u32) -> &[u8] {
        &self.texts[id as usize]
    }

    /// Classifier: Equal ⟺ the suffix starts with `pat`.
    fn prefix_class<'a>(&'a self, pat: &'a [u8]) -> impl Fn(SufRef) -> Ordering + 'a {
        move |e: SufRef| {
            let s = self.suffix(e);
            if s.starts_with(pat) {
                Ordering::Equal
            } else {
                // a strict prefix of `pat` sorts before every extension
                s.cmp(pat)
            }
        }
    }

    /// All occurrences of `pat` as a substring: `(text, position)` pairs in
    /// suffix order.  Empty patterns return no occurrences.
    pub fn substring_search(&self, pat: &[u8]) -> Vec<(u32, u64)> {
        if pat.is_empty() {
            return Vec::new();
        }
        self.tree
            .collect_class(&self.prefix_class(pat))
            .into_iter()
            .map(|e| (e.text, e.off as u64))
            .collect()
    }

    /// Texts having `pat` as a prefix.
    pub fn prefix_search(&self, pat: &[u8]) -> Vec<u32> {
        if pat.is_empty() {
            return (0..self.texts.len() as u32).collect();
        }
        let mut out: Vec<u32> = self
            .tree
            .collect_class(&self.prefix_class(pat))
            .into_iter()
            .filter(|e| e.off == 0)
            .map(|e| e.text)
            .collect();
        out.sort_unstable();
        out
    }

    /// Texts `t` with `lo <= t < hi` in lexicographic order.
    pub fn range_search(&self, lo: &[u8], hi: &[u8]) -> Vec<u32> {
        let classify = |e: SufRef| {
            let s = self.suffix(e);
            if s < lo {
                Ordering::Less
            } else if s >= hi {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        };
        let mut out: Vec<u32> = self
            .tree
            .collect_class(&classify)
            .into_iter()
            .filter(|e| e.off == 0)
            .map(|e| e.text)
            .collect();
        out.sort_unstable();
        out
    }

    /// Storage footprint: raw text bytes + suffix-tree node bytes
    /// (8-byte suffix references).
    pub fn storage_bytes(&self) -> usize {
        self.texts.iter().map(|t| t.len()).sum::<usize>() + self.tree.storage_bytes(8)
    }

    /// Total logical I/O so far: index nodes, and text pages written.
    pub fn io_stats(&self) -> IoSnapshot {
        let t = self.tree.stats().snapshot();
        IoSnapshot {
            reads: t.reads,
            writes: t.writes + self.text_write_io.get(),
        }
    }

    /// Reset all I/O counters.
    pub fn reset_io(&self) {
        self.tree.stats().reset();
        self.text_write_io.set(0);
    }

    /// Number of indexed suffixes.
    pub fn num_suffixes(&self) -> usize {
        self.tree.len()
    }

    /// Index node count (≈ pages).
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }
}

impl Default for StringBTree {
    fn default() -> Self {
        Self::new()
    }
}

/// Pages written to store text `t` (one per 8 KiB, at least one).
fn pages(t: &[u8]) -> u64 {
    (t.len() as u64 / 8192).max(1)
}

/// The tree order: suffix bytes, ties (equal suffixes of different texts)
/// broken by `(text, off)` so the order is total.
fn cmp_suf_refs(texts: &[Vec<u8>], a: SufRef, b: SufRef) -> Ordering {
    texts[a.text as usize][a.off as usize..]
        .cmp(&texts[b.text as usize][b.off as usize..])
        .then_with(|| (a.text, a.off).cmp(&(b.text, b.off)))
}

/// Naive oracle: all `(text, pos)` occurrences of `pat` in `texts`.
/// Used by tests and by the benchmark harness for result validation.
pub fn naive_substring_search(texts: &[Vec<u8>], pat: &[u8]) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    if pat.is_empty() {
        return out;
    }
    for (t, text) in texts.iter().enumerate() {
        if text.len() < pat.len() {
            continue;
        }
        for pos in 0..=(text.len() - pat.len()) {
            if &text[pos..pos + pat.len()] == pat {
                out.push((t as u32, pos as u64));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(texts: &[&str]) -> StringBTree {
        let mut sbt = StringBTree::with_fanout(4);
        for t in texts {
            sbt.insert_text(t.as_bytes());
        }
        sbt
    }

    fn sorted(mut v: Vec<(u32, u64)>) -> Vec<(u32, u64)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn substring_search_finds_all_occurrences() {
        let texts = ["HHHEELLLHH", "ELLHHH", "LLLL"];
        let sbt = build(&texts);
        let raw: Vec<Vec<u8>> = texts.iter().map(|t| t.as_bytes().to_vec()).collect();
        for pat in ["HH", "LL", "ELL", "HHHEELLLHH", "XYZ", "H", "LLLL"] {
            let got = sorted(sbt.substring_search(pat.as_bytes()));
            let want = sorted(naive_substring_search(&raw, pat.as_bytes()));
            assert_eq!(got, want, "pattern {pat}");
        }
    }

    #[test]
    fn empty_pattern_matches_nothing() {
        let sbt = build(&["ABC"]);
        assert!(sbt.substring_search(b"").is_empty());
    }

    #[test]
    fn prefix_search_only_text_starts() {
        let sbt = build(&["ATGAAA", "ATT", "ATG", "GGG"]);
        assert_eq!(sbt.prefix_search(b"ATG"), vec![0, 2]);
        assert_eq!(sbt.prefix_search(b"AT"), vec![0, 1, 2]);
        assert_eq!(sbt.prefix_search(b"X"), Vec::<u32>::new());
        assert_eq!(sbt.prefix_search(b""), vec![0, 1, 2, 3]);
    }

    #[test]
    fn range_search_on_texts() {
        let sbt = build(&["AAA", "ABC", "BBB", "CCC"]);
        assert_eq!(sbt.range_search(b"AB", b"CC"), vec![1, 2]);
        assert_eq!(sbt.range_search(b"A", b"Z"), vec![0, 1, 2, 3]);
        assert_eq!(sbt.range_search(b"D", b"E"), Vec::<u32>::new());
    }

    #[test]
    fn io_counts_accumulate() {
        let mut sbt = StringBTree::with_fanout(4);
        sbt.insert_text(b"HHHEELLLHHHEELLL");
        let after_insert = sbt.io_stats();
        assert!(after_insert.writes > 0, "insertion must write pages");
        sbt.reset_io();
        let _ = sbt.substring_search(b"EE");
        let s = sbt.io_stats();
        assert!(s.reads > 0);
        assert_eq!(s.writes, 0);
    }

    #[test]
    fn storage_includes_text_and_index() {
        let mut sbt = StringBTree::new();
        sbt.insert_text(&vec![b'H'; 10_000]);
        // raw text dominates: at least the text bytes plus index entries
        assert!(sbt.storage_bytes() > 10_000 + 10_000 * 8 / 2);
        assert_eq!(sbt.num_suffixes(), 10_000);
    }

    #[test]
    fn duplicate_texts_are_distinct() {
        let sbt = build(&["HEL", "HEL"]);
        assert_eq!(sbt.prefix_search(b"HEL"), vec![0, 1]);
        assert_eq!(sbt.substring_search(b"EL").len(), 2);
    }
}
