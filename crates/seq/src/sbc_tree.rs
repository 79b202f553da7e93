//! The SBC-tree: an index for Run-Length-Compressed sequences (§7.2,
//! Figure 12; Eltabakh et al., technical report CSD TR05-030).
//!
//! *"The SBC-tree is a two-level index structure based on the well-known
//! String B-tree and a 3-sided range query structure [...] The SBC-tree
//! supports substring as well as prefix matching, and range search
//! operations over RLE-compressed sequences [without decompressing
//! them]."*
//!
//! ## How it works (and how this module implements it)
//!
//! Sequences are stored RLE-compressed.  One suffix is indexed **per run
//! boundary** (not per character — this is where the order-of-magnitude
//! storage saving comes from).  A substring pattern `P = p1 p2 … pk`
//! (RLE runs) occurs in a text iff
//!
//! 1. the tail `Q = p2 … pk` matches at some run boundary `j`
//!    (interior runs exactly; the final run may be a prefix of a longer
//!    run), **and**
//! 2. the run *preceding* the boundary has `P`'s first-run character and
//!    length ≥ `p1.len` (the first run of an occurrence may be the tail of
//!    a longer run).
//!
//! Condition 1 is a prefix probe on the String-B-tree component (suffixes
//! in true string order, compared run-wise without decompression): its
//! answer is a contiguous class of entries.  Condition 2 is a **3-sided
//! query** over that class — position in the class on one axis,
//! preceding run ≥ `p1` on the other.  The paper's prototype kept an
//! R-tree beside the String B-tree for it; here the suffix B-tree is that
//! structure.  Every entry carries its preceding run, packed as
//! `char << 24 | min(len, 2^24 - 1)` (0 at boundary 0, which has none) and
//! kept beside it in its leaf, so a point's x is its position in the tree
//! and its y is stored with it.  Every inner node keeps, per child, the
//! largest packed run below it.  The query walks the class between its
//! two boundary descents, skips every subtree whose largest preceding run
//! is below `p1`'s packed form (the pruning the R-tree's bounding
//! rectangles gave), and checks each entry it reaches against its packed
//! run.  Class membership and that check are the
//! exact answer, so a search reads no text; only a saturated length (a
//! run of 2^24 or more) is checked against the text.  A single-run
//! pattern `c^l` is a prefix class of its own: the boundaries whose run is
//! `c` at least `l` long.
//!
//! Every component counts logical node I/O, so E12 can compare insertion
//! and search I/O against [`crate::string_btree::StringBTree`].

use std::cell::Cell;
use std::cmp::Ordering;

use bdbms_common::stats::IoSnapshot;

use crate::rle::{RleSeq, Run};
use crate::sufbtree::{suffix_starts, SufBTree};

/// One indexed suffix: the suffix of text `text` that starts at run
/// boundary `run` (`0` = the whole text).  The tree keeps it with the run
/// before it, packed by [`pack_run`]: 12 bytes per suffix in all.
#[derive(Debug, Clone, Copy)]
struct RunRef {
    text: u32,
    run: u32,
}

/// Boundary `run` of `t`, which is text `text`, with its preceding run
/// packed (0 at boundary 0, which has none).
fn entry(t: &RleSeq, text: u32, run: u32) -> (RunRef, u32) {
    let prev = run
        .checked_sub(1)
        .map_or(0, |p| pack_run(t.runs()[p as usize]));
    (RunRef { text, run }, prev)
}

/// Longest run length a packed run holds exactly; a run at least this
/// long packs as this, and only its text says whether it is long enough.
const LEN_MAX: u32 = (1 << 24) - 1;

/// `r` as one word ordered by character, then by length: the y-axis of
/// the 3-sided query.
fn pack_run(r: Run) -> u32 {
    (r.ch as u32) << 24 | r.len.min(LEN_MAX)
}

/// How a multi-run pattern's first run filters its tail's class.
#[derive(Clone, Copy)]
enum FirstRunFilter {
    /// The 3-sided query: prune on the kept maxima, then check each
    /// entry's packed preceding run (production path).
    ThreeSided,
    /// Walk the whole class and verify each entry against the text
    /// (ablation).
    Scan,
}

/// One substring occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Occurrence {
    /// Text id.
    pub text: u32,
    /// Byte position of the match in the *uncompressed* text.
    pub pos: u64,
}

/// The SBC-tree index over RLE-compressed sequences.
pub struct SbcTree {
    texts: Vec<RleSeq>,
    /// Suffixes at run boundaries in string order, each keyed on its
    /// packed preceding run: the String B-tree and the 3-sided structure
    /// in one.
    tree: SufBTree<RunRef, u32>,
    text_write_io: Cell<u64>,
}

impl SbcTree {
    /// Empty index with page-realistic fanouts.
    pub fn new() -> Self {
        Self::with_fanout(64)
    }

    /// Empty index with a custom String-B-tree fanout.
    pub fn with_fanout(fanout: usize) -> Self {
        SbcTree {
            texts: Vec::new(),
            tree: SufBTree::with_fanout(fanout),
            text_write_io: Cell::new(0),
        }
    }

    /// Index `texts` (ids `0..texts.len()`, in order) in one build: the
    /// same index `insert_rle` would grow text by text, from one sort of
    /// the run-boundary suffixes and a bottom-up load of the tree.
    pub fn build(texts: Vec<RleSeq>) -> Self {
        Self::build_with_fanout(64, texts)
    }

    /// [`build`](Self::build) with a custom String-B-tree fanout.
    pub fn build_with_fanout(fanout: usize, texts: Vec<RleSeq>) -> Self {
        // Sort `(text, run)` behind a cached key — the suffix's first
        // three runs as order-preserving tokens — so the run-wise compare
        // only breaks ties.  (The key is kept as two words: a `u128` would
        // pad every element from 24 to 32 bytes.)  Sized exactly: this is
        // the build's largest temporary, and grown by doubling it reserves
        // up to twice what it uses.
        let mut keyed = Vec::with_capacity(texts.iter().map(RleSeq::num_runs).sum());
        let mut text_pages = 0;
        for (id, t) in texts.iter().enumerate() {
            text_pages += pages(t);
            keyed.extend((0..t.num_runs()).map(|run| {
                let key = (run..run + 3).fold(0u128, |k, i| k << 41 | run_token(t, i) as u128);
                ((key >> 64) as u64, key as u64, (id as u32, run as u32))
            }));
        }
        crate::count_sorted_build();
        keyed.sort_unstable_by(|a, b| {
            ((a.0, a.1).cmp(&(b.0, b.1))).then_with(|| cmp_suffixes(&texts, a.2, b.2))
        });
        // the entries are made after the sort, so that it moves 24 bytes
        // per suffix, not 32
        let entries: Vec<(RunRef, u32)> = keyed
            .into_iter()
            .map(|(_, _, (text, run))| entry(&texts[text as usize], text, run))
            .collect();
        SbcTree {
            tree: SufBTree::from_sorted(fanout, &entries),
            texts,
            text_write_io: Cell::new(text_pages),
        }
    }

    /// Index `texts` (ids `0..texts.len()`, in order) from their stored
    /// [`order`](Self::order), with no sort: the index
    /// [`build`](Self::build) makes, each entry's preceding run taken
    /// from its text.  `None` unless `order` is a permutation of the
    /// texts' run boundaries.
    pub fn from_order(texts: Vec<RleSeq>, order: &[u32]) -> Option<Self> {
        Self::from_order_with_fanout(64, texts, order)
    }

    /// [`from_order`](Self::from_order) with a custom String-B-tree
    /// fanout.
    pub fn from_order_with_fanout(
        fanout: usize,
        texts: Vec<RleSeq>,
        order: &[u32],
    ) -> Option<Self> {
        let mut numbered = Vec::with_capacity(texts.iter().map(RleSeq::num_runs).sum());
        for (t, id) in texts.iter().zip(0..) {
            numbered.extend((0..t.num_runs() as u32).map(|run| entry(t, id, run)));
        }
        Some(SbcTree {
            tree: SufBTree::from_order(fanout, &numbered, order)?,
            text_write_io: Cell::new(texts.iter().map(pages).sum()),
            texts,
        })
    }

    /// The tree order as an image stores it: the run boundaries of the
    /// texts `kept` (ids, each once) numbered in `kept`'s order, text
    /// after text, listed in tree order.  [`from_order`](Self::from_order)
    /// over those texts, in that order, loads the tree `build` makes of
    /// them: where the kept ids do not ascend, content-equal suffixes are
    /// re-listed by their new numbers.
    pub fn order(&self, kept: &[u32]) -> Vec<u32> {
        let texts = &self.texts;
        let starts = suffix_starts(texts.len(), kept, |id| texts[id].num_runs());
        let renumbered = !kept.is_sorted();
        self.tree.order(
            |e| starts[e.text as usize].map(|s| s + e.run),
            |a, b| {
                renumbered
                    && texts[a.text as usize].cmp_suffixes(
                        a.run as usize,
                        &texts[b.text as usize],
                        b.run as usize,
                    ) == Ordering::Equal
            },
        )
    }

    /// Whether the suffixes ascend strictly in tree order (an order
    /// loaded from an image is only checked to be a permutation).
    pub fn is_ordered(&self) -> bool {
        let texts = &self.texts;
        self.tree
            .is_ordered(|a, b| cmp_suffixes(texts, (a.text, a.run), (b.text, b.run)))
    }

    /// Insert a raw sequence (RLE-compressed on the way in).
    pub fn insert_sequence(&mut self, seq: &[u8]) -> u32 {
        self.insert_rle(RleSeq::encode(seq))
    }

    /// Insert an already-compressed sequence.
    pub fn insert_rle(&mut self, rle: RleSeq) -> u32 {
        let id = self.texts.len() as u32;
        self.text_write_io
            .set(self.text_write_io.get() + pages(&rle));
        self.texts.push(rle);
        // Index one suffix per run boundary, 0..num_runs.
        let texts = &self.texts;
        let cmp = |a: RunRef, b: RunRef| cmp_suffixes(texts, (a.text, a.run), (b.text, b.run));
        let t = &texts[id as usize];
        for run in 0..t.num_runs() as u32 {
            let (e, prev) = entry(t, id, run);
            self.tree.insert(&cmp, e, prev);
        }
        id
    }

    /// Number of stored sequences.
    pub fn num_texts(&self) -> usize {
        self.texts.len()
    }

    /// The compressed sequence by id.
    pub fn text(&self, id: u32) -> &RleSeq {
        &self.texts[id as usize]
    }

    /// Decompress a stored sequence (tests / display only — queries never
    /// need this).
    pub fn decompress(&self, id: u32) -> Vec<u8> {
        self.texts[id as usize].decode()
    }

    /// Number of indexed run-boundary suffixes.
    pub fn num_suffixes(&self) -> usize {
        self.tree.len()
    }

    /// Classifier: Equal ⟺ suffix begins (string-wise) with `pat`.
    fn prefix_class<'a>(&'a self, pat: &'a [u8]) -> impl Fn(RunRef) -> Ordering + 'a {
        move |e: RunRef| {
            let t = &self.texts[e.text as usize];
            if t.suffix_starts_with(e.run as usize, pat) {
                Ordering::Equal
            } else {
                t.cmp_suffix_bytes(e.run as usize, pat)
            }
        }
    }

    /// All occurrences of `pat` as a substring, through the 3-sided query.
    /// Empty patterns return no occurrences.
    pub fn substring_search(&self, pat: &[u8]) -> Vec<Occurrence> {
        self.occurrences(pat, FirstRunFilter::ThreeSided)
    }

    /// [`substring_search`](Self::substring_search) under the name E12's
    /// ablation table gives the 3-sided column.
    pub fn substring_search_three_sided(&self, pat: &[u8]) -> Vec<Occurrence> {
        self.occurrences(pat, FirstRunFilter::ThreeSided)
    }

    /// Ablation variant: walk the tail's whole class and verify every
    /// entry against the text (E12 — shows what the 3-sided query buys).
    pub fn substring_search_scan(&self, pat: &[u8]) -> Vec<Occurrence> {
        self.occurrences(pat, FirstRunFilter::Scan)
    }

    fn occurrences(&self, pat: &[u8], filter: FirstRunFilter) -> Vec<Occurrence> {
        let mut out = Vec::new();
        let Some(first) = first_run(pat) else {
            return out;
        };
        let single = first.len as usize == pat.len();
        self.visit_hits(pat, first, filter, |e| {
            let t = &self.texts[e.text as usize];
            let at = t.run_offset(e.run as usize);
            if single {
                // `c^l`: a run of `c` of length n ≥ l holds n - l + 1 of them
                let n = t.runs()[e.run as usize].len;
                out.extend((0..=(n - first.len) as u64).map(|d| Occurrence {
                    text: e.text,
                    pos: at + d,
                }));
            } else {
                out.push(Occurrence {
                    text: e.text,
                    pos: at - first.len as u64,
                });
            }
        });
        out.sort_unstable();
        out
    }

    /// Ids of the texts containing `pat`, ascending — what
    /// [`substring_search`](Self::substring_search) reports, minus the
    /// positions: no occurrence is enumerated and no text is read.
    pub fn matching_texts(&self, pat: &[u8]) -> Vec<u32> {
        // one bit per text, so the ids come back ascending without a sort
        let mut seen = vec![0u64; self.texts.len().div_ceil(64)];
        if let Some(first) = first_run(pat) {
            self.visit_hits(pat, first, FirstRunFilter::ThreeSided, |e| {
                seen[e.text as usize / 64] |= 1 << (e.text % 64);
            });
        }
        let mut ids = Vec::new();
        for (word, mut bits) in seen.into_iter().enumerate() {
            while bits != 0 {
                ids.push(word as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        ids
    }

    /// Every boundary where `pat`, whose first run is `first`, has a hit.
    /// For a single run `c^l` that is each boundary whose run is `c` at
    /// least `l` long: `pat`'s own prefix class, every member a hit.
    /// Otherwise it is each boundary where an occurrence's first run ends:
    /// a member of the tail's prefix class whose preceding run is
    /// `first.ch`, at least `first.len` long.  Text accesses are not
    /// counted as I/O on either side of the E12 comparison: the String
    /// B-tree's comparator reads texts just the same.
    fn visit_hits(
        &self,
        pat: &[u8],
        first: Run,
        filter: FirstRunFilter,
        mut visit: impl FnMut(RunRef),
    ) {
        let tail = &pat[first.len as usize..];
        if tail.is_empty() {
            return self
                .tree
                .visit_class(&self.prefix_class(pat), 0..=u32::MAX, &mut visit);
        }
        let classify = self.prefix_class(tail);
        match filter {
            // the packed runs of `first.ch` at least `first.len` long;
            // only a saturated length can fall short of a longer `first`
            FirstRunFilter::ThreeSided => {
                let keys = pack_run(first)..=pack_run(Run {
                    len: LEN_MAX,
                    ..first
                });
                let exact = first.len <= LEN_MAX;
                self.tree.visit_class(&classify, keys, &mut |e| {
                    if exact
                        || self.texts[e.text as usize].runs()[e.run as usize - 1].len >= first.len
                    {
                        visit(e);
                    }
                })
            }
            FirstRunFilter::Scan => self.tree.visit_class(&classify, 0..=u32::MAX, &mut |e| {
                if self.verify_in_text(e, first, tail) {
                    visit(e);
                }
            }),
        }
    }

    /// Conditions (1) and (2) for a candidate boundary, checked against
    /// the text alone.
    fn verify_in_text(&self, e: RunRef, first: Run, tail: &[u8]) -> bool {
        let t = &self.texts[e.text as usize];
        let Some(prev) = e.run.checked_sub(1) else {
            return false; // no preceding run
        };
        let prev = t.runs()[prev as usize];
        prev.ch == first.ch && prev.len >= first.len && t.suffix_starts_with(e.run as usize, tail)
    }

    /// Texts containing `pat` as a *subsequence* (characters in order,
    /// gaps allowed) — the operation §7.2 lists as planned future work
    /// (*"We plan to extend the supported operations of the SBC-tree index
    /// to include subsequence matching"*).
    ///
    /// Evaluated directly over the compressed form: the greedy two-pointer
    /// walk consumes runs, never decompressing.
    pub fn subsequence_search(&self, pat: &[u8]) -> Vec<u32> {
        if pat.is_empty() {
            return (0..self.texts.len() as u32).collect();
        }
        let prle = RleSeq::encode(pat);
        let mut out = Vec::new();
        for (id, t) in self.texts.iter().enumerate() {
            if rle_is_subsequence(t, &prle) {
                out.push(id as u32);
            }
        }
        out
    }

    /// Texts having `pat` as a prefix (whole-text suffixes are indexed at
    /// boundary 0, so this is a class probe + boundary filter).
    pub fn prefix_search(&self, pat: &[u8]) -> Vec<u32> {
        if pat.is_empty() {
            return (0..self.texts.len() as u32).collect();
        }
        self.whole_texts_in(&self.prefix_class(pat))
    }

    /// Texts `t` with `lo <= t < hi` lexicographically (uncompressed
    /// content order, evaluated over the compressed form).
    pub fn range_search(&self, lo: &[u8], hi: &[u8]) -> Vec<u32> {
        let classify = |e: RunRef| {
            let t = &self.texts[e.text as usize];
            match t.cmp_suffix_bytes(e.run as usize, lo) {
                Ordering::Less => Ordering::Less,
                _ => match t.cmp_suffix_bytes(e.run as usize, hi) {
                    Ordering::Less => Ordering::Equal,
                    _ => Ordering::Greater,
                },
            }
        };
        self.whole_texts_in(&classify)
    }

    /// Ids, ascending, of the texts whose whole-text suffix is in
    /// `classify`'s class: boundary 0, the one entry of each text keyed 0.
    fn whole_texts_in(&self, classify: &impl Fn(RunRef) -> Ordering) -> Vec<u32> {
        let mut out = Vec::new();
        self.tree
            .visit_class(classify, 0..=0, &mut |e| out.push(e.text));
        out.sort_unstable();
        out
    }

    /// Modeled on-disk storage footprint of the layout held in memory:
    ///
    /// * compressed text: 5 bytes per run (char + u32 length);
    /// * the suffix B-tree: 12 bytes per entry (text, run boundary and
    ///   packed preceding run) plus node overhead.  The entries' preceding
    ///   runs and the inner nodes' per-child maxima are the 3-sided
    ///   structure, and single-run patterns are prefix classes, so nothing
    ///   else is stored.
    pub fn storage_bytes(&self) -> usize {
        self.compressed_text_bytes() + self.tree.storage_bytes(12)
    }

    /// Bytes of RLE-compressed sequence data alone.
    pub fn compressed_text_bytes(&self) -> usize {
        self.texts.iter().map(|t| t.compressed_bytes()).sum()
    }

    /// Total logical I/O so far: tree nodes, and text pages written.
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
}

impl Default for SbcTree {
    fn default() -> Self {
        Self::new()
    }
}

/// Pages written to store `t` (one per 8 KiB, at least one).
fn pages(t: &RleSeq) -> u64 {
    (t.compressed_bytes() as u64 / 8192).max(1)
}

/// `pat`'s first run (none for the empty pattern).
fn first_run(pat: &[u8]) -> Option<Run> {
    let &ch = pat.first()?;
    let len = pat.iter().take_while(|&&c| c == ch).count();
    Some(Run {
        ch,
        len: len as u32,
    })
}

/// Greedy subsequence test over two RLE sequences, no decompression:
/// for each pattern run `(c, k)`, consume `k` copies of `c` from the text
/// runs at/after the cursor (greedy matching is optimal for subsequences).
fn rle_is_subsequence(text: &RleSeq, pat: &RleSeq) -> bool {
    let mut ti = 0usize;
    // how much of text run `ti` is already consumed
    let mut used: u64 = 0;
    for pr in pat.runs() {
        let mut need = pr.len as u64;
        while need > 0 {
            let Some(tr) = text.runs().get(ti) else {
                return false;
            };
            if tr.ch == pr.ch {
                let avail = tr.len as u64 - used;
                let take = avail.min(need);
                need -= take;
                used += take;
                if used == tr.len as u64 {
                    ti += 1;
                    used = 0;
                }
            } else {
                ti += 1;
                used = 0;
            }
        }
    }
    true
}

/// The tree order over `(text, run)` suffixes: suffix content, ties
/// (equal suffixes of different texts) broken by `(text, run)` so the
/// order is total.
fn cmp_suffixes(texts: &[RleSeq], a: (u32, u32), b: (u32, u32)) -> Ordering {
    texts[a.0 as usize]
        .cmp_suffixes(a.1 as usize, &texts[b.0 as usize], b.1 as usize)
        .then_with(|| a.cmp(&b))
}

/// Run `i` of `t` as a 41-bit token such that suffixes order like their
/// token sequences (a missing run is 0, below every token): by character,
/// then — the run that ends first is compared on its *next* character —
/// runs followed by a smaller character (or the end) before runs followed
/// by a larger one, the former by ascending length, the latter by
/// descending.
fn run_token(t: &RleSeq, i: usize) -> u64 {
    let Some(r) = t.runs().get(i) else { return 0 };
    let rising = t.runs().get(i + 1).is_some_and(|next| next.ch > r.ch);
    let len = if rising { u32::MAX - r.len } else { r.len };
    (r.ch as u64) << 33 | (rising as u64) << 32 | len as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::string_btree::naive_substring_search;

    fn build(texts: &[&str]) -> SbcTree {
        let mut t = SbcTree::with_fanout(4);
        for s in texts {
            t.insert_sequence(s.as_bytes());
        }
        t
    }

    fn occs(v: Vec<Occurrence>) -> Vec<(u32, u64)> {
        v.into_iter().map(|o| (o.text, o.pos)).collect()
    }

    #[test]
    fn substring_matches_naive_small() {
        let texts = ["HHHEELLLHH", "ELLHHH", "LLLL", "HEL"];
        let t = build(&texts);
        let raw: Vec<Vec<u8>> = texts.iter().map(|s| s.as_bytes().to_vec()).collect();
        for pat in [
            "HH",
            "LL",
            "ELL",
            "HEL",
            "HHH",
            "L",
            "HHHEELLLHH",
            "XYZ",
            "LLLL",
            "EL",
            "HHEE",
            "HHE",
        ] {
            let mut want = naive_substring_search(&raw, pat.as_bytes());
            want.sort_unstable();
            let got = occs(t.substring_search(pat.as_bytes()));
            assert_eq!(got, want, "pattern {pat} (3-sided)");
            let got_scan = occs(t.substring_search_scan(pat.as_bytes()));
            assert_eq!(got_scan, want, "pattern {pat} (scan)");
        }
    }

    #[test]
    fn single_run_pattern_enumerates_positions() {
        let t = build(&["HHHH"]);
        // "HH" occurs at 0, 1, 2
        assert_eq!(
            occs(t.substring_search(b"HH")),
            vec![(0, 0), (0, 1), (0, 2)]
        );
        assert_eq!(occs(t.substring_search(b"HHHH")), vec![(0, 0)]);
        assert!(t.substring_search(b"HHHHH").is_empty());
    }

    #[test]
    fn pattern_first_run_inside_longer_run() {
        // "HHE" inside "HHHHE": first run of the pattern (HH) is the tail
        // of a longer run — the 3-sided y ≥ filter case.
        let t = build(&["HHHHE"]);
        assert_eq!(occs(t.substring_search(b"HHE")), vec![(0, 2)]);
        assert_eq!(occs(t.substring_search(b"HHHHE")), vec![(0, 0)]);
        assert!(t.substring_search(b"HHHHHE").is_empty());
    }

    #[test]
    fn pattern_last_run_prefix_of_longer_run() {
        // "ELL" inside "HELLL": pattern's last run (LL) is a prefix of LLL.
        let t = build(&["HELLL"]);
        assert_eq!(occs(t.substring_search(b"ELL")), vec![(0, 1)]);
        // but interior runs must match exactly:
        let t2 = build(&["HEELL"]);
        assert!(t2.substring_search(b"HEEEL").is_empty());
    }

    #[test]
    fn built_index_answers_matching_texts() {
        let texts = ["HHHEELLLHH", "ELLHHH", "", "LLLL", "HEL", "ELLHHH"];
        let t = SbcTree::build_with_fanout(
            4,
            texts.iter().map(|s| RleSeq::encode(s.as_bytes())).collect(),
        );
        assert_eq!(t.num_texts(), 6);
        assert_eq!(t.num_suffixes(), 4 + 3 + 1 + 3 + 3, "one per run");
        assert_eq!(t.matching_texts(b"LLHH"), vec![0, 1, 5]);
        assert_eq!(t.matching_texts(b"LL"), vec![0, 1, 3, 5]);
        assert_eq!(t.matching_texts(b""), Vec::<u32>::new());
    }

    #[test]
    fn saturated_preceding_run_is_checked_against_the_text() {
        // runs of 2^24 + 1 and 2^24 + 5 both pack as LEN_MAX
        let long =
            |h: u32| RleSeq::from_runs(vec![Run { ch: b'H', len: h }, Run { ch: b'E', len: 2 }]);
        let mut t = SbcTree::new();
        for h in [LEN_MAX + 1, LEN_MAX + 5, LEN_MAX, 3] {
            t.insert_rle(long(h));
        }
        let pat = |h: u32| {
            let mut p = vec![b'H'; h as usize];
            p.push(b'E');
            p
        };
        assert_eq!(t.matching_texts(&pat(LEN_MAX + 3)), vec![1]);
        assert_eq!(t.matching_texts(&pat(LEN_MAX + 1)), vec![0, 1]);
        assert_eq!(t.matching_texts(&pat(LEN_MAX)), vec![0, 1, 2]);
        assert_eq!(t.matching_texts(&pat(4)), vec![0, 1, 2]);
        let at = |h: u32| occs(t.substring_search(&pat(h)));
        assert_eq!(at(LEN_MAX + 3), vec![(1, 2)]);
        assert_eq!(at(LEN_MAX + 1), vec![(0, 0), (1, 4)]);
        assert_eq!(
            occs(t.substring_search_scan(&pat(LEN_MAX + 1))),
            at(LEN_MAX + 1)
        );
    }

    #[test]
    fn prefix_search_texts() {
        let t = build(&["HHHE", "HHL", "HH", "EHH"]);
        assert_eq!(t.prefix_search(b"HH"), vec![0, 1, 2]);
        assert_eq!(t.prefix_search(b"HHH"), vec![0]);
        assert_eq!(t.prefix_search(b"E"), vec![3]);
        assert_eq!(t.prefix_search(b""), vec![0, 1, 2, 3]);
    }

    #[test]
    fn range_search_texts() {
        let t = build(&["EEE", "HEL", "HHL", "LLL"]);
        // string order: EEE < HEL < HHL < LLL
        assert_eq!(t.range_search(b"H", b"L"), vec![1, 2]);
        assert_eq!(t.range_search(b"E", b"Z"), vec![0, 1, 2, 3]);
        assert_eq!(t.range_search(b"M", b"N"), Vec::<u32>::new());
    }

    #[test]
    fn storage_is_far_smaller_than_string_btree_on_long_runs() {
        use crate::string_btree::StringBTree;
        // long-run text: 100 runs of length 50
        let mut raw = Vec::new();
        for i in 0..100 {
            let ch = [b'H', b'E', b'L'][i % 3];
            raw.extend(std::iter::repeat_n(ch, 50));
        }
        let mut sbc = SbcTree::new();
        sbc.insert_sequence(&raw);
        let mut sbt = StringBTree::new();
        sbt.insert_text(&raw);
        assert!(
            sbc.storage_bytes() * 5 < sbt.storage_bytes(),
            "sbc {} vs sbt {}",
            sbc.storage_bytes(),
            sbt.storage_bytes()
        );
        // and the suffix count ratio is the run length
        assert_eq!(sbt.num_suffixes(), 5000);
        assert_eq!(sbc.num_suffixes(), 100);
    }

    #[test]
    fn io_counts_insert_and_search() {
        let mut t = SbcTree::new();
        t.insert_sequence(b"HHHEELLLHHHEELLL");
        assert!(t.io_stats().writes > 0);
        t.reset_io();
        let _ = t.substring_search(b"EELL");
        let s = t.io_stats();
        assert!(s.reads > 0);
        assert_eq!(s.writes, 0);
    }

    #[test]
    fn occurrences_across_many_texts() {
        let texts: Vec<String> = (0..30)
            .map(|i| {
                let chars = [b'H', b'E', b'L'];
                let mut s = Vec::new();
                for j in 0..20 {
                    let ch = chars[(i + j) % 3];
                    s.extend(std::iter::repeat_n(ch, 1 + (i * 7 + j * 3) % 5));
                }
                String::from_utf8(s).unwrap()
            })
            .collect();
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let t = build(&refs);
        let raw: Vec<Vec<u8>> = texts.iter().map(|s| s.as_bytes().to_vec()).collect();
        for pat in ["HEL", "EELL", "HHEE", "LLLHH", "EEE"] {
            let mut want = naive_substring_search(&raw, pat.as_bytes());
            want.sort_unstable();
            assert_eq!(occs(t.substring_search(pat.as_bytes())), want, "pat {pat}");
        }
    }

    #[test]
    fn subsequence_search_matches_naive() {
        fn naive_subseq(text: &[u8], pat: &[u8]) -> bool {
            let mut it = text.iter();
            pat.iter().all(|c| it.any(|t| t == c))
        }
        let texts = ["HHHEELLLHH", "ELLHHH", "LLLL", "HEL", "EHEHEH"];
        let t = build(&texts);
        for pat in ["HEL", "HHLL", "LLLLL", "EEH", "HHHHHH", "", "X", "ELH"] {
            let got = t.subsequence_search(pat.as_bytes());
            let want: Vec<u32> = texts
                .iter()
                .enumerate()
                .filter(|(_, s)| naive_subseq(s.as_bytes(), pat.as_bytes()))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, want, "pattern {pat:?}");
        }
    }

    #[test]
    fn subsequence_greedy_handles_split_runs() {
        // pattern needs 4 H's spread over two text runs separated by E
        let t = build(&["HHEHH"]);
        assert_eq!(t.subsequence_search(b"HHHH"), vec![0]);
        assert!(t.subsequence_search(b"HHHHH").is_empty());
        // interleaved requirement
        assert_eq!(t.subsequence_search(b"HEH"), vec![0]);
        assert!(t.subsequence_search(b"EHE").is_empty());
    }

    #[test]
    fn empty_and_missing_patterns() {
        let t = build(&["HHEE"]);
        assert!(t.substring_search(b"").is_empty());
        assert!(t.substring_search(b"XY").is_empty());
        assert!(t.prefix_search(b"X").is_empty());
    }
}
