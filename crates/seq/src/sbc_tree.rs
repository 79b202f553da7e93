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
//! in true string order, compared run-wise without decompression).
//! Condition 2 is a **3-sided query** — lexicographic position within the
//! answer range of (1), preceding-run length ≥ `p1.len` — served by an
//! R-tree, exactly the substitution the paper's own prototype made.
//! Single-run patterns use a small run-length index instead.
//!
//! Every component counts logical node I/O, so E12 can compare insertion
//! and search I/O against [`crate::string_btree::StringBTree`].

use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::Bound;

use bdbms_common::stats::IoSnapshot;
use bdbms_index::bptree::BPlusTree;
use bdbms_index::rtree::{RTree, Rect};

use crate::rle::{RleSeq, Run};
use crate::sufbtree::SufBTree;

/// Reference to the suffix of text `text` starting at run boundary `run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRef {
    /// Index of the text in the store.
    pub text: u32,
    /// Run index where the suffix starts (`0` = whole text).
    pub run: u32,
}

/// Sentinel y-coordinate for boundary 0 (no preceding run); chosen above
/// every `char * 2^32 + len` encoding so first-run filters never match it.
const NO_PREV_Y: f64 = 256.0 * 4294967296.0;

/// Spacing of lexicographic order keys: a bulk build assigns
/// `rank * X_GAP`, a later insert the midpoint of its neighbours (see
/// `assign_x`), so ~20 inserts can land in one gap before keys collide.
const X_GAP: f64 = 1048576.0; // 2^20

/// Class size below which [`SbcTree::substring_search`] verifies the tail
/// class directly instead of probing the 3-sided structure (a handful of
/// leaf pages at the default fanout).
const ADAPTIVE_CLASS_CUTOFF: usize = 256;

/// Which first-run filter `multi_run_search` applies to the tail class.
#[derive(Clone, Copy)]
enum FirstRunFilter {
    /// Scan small classes, 3-sided probe for large ones (production path).
    Adaptive,
    /// Always the 3-sided structure (ablation).
    ThreeSided,
    /// Always scan the class (ablation).
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
    /// String-B-tree component: suffixes at run boundaries, string order.
    tree: SufBTree<RunRef>,
    /// Lexicographic order key of each indexed suffix (x-axis of the
    /// 3-sided structure), dense: suffix `(text, run)` is at
    /// `xbase[text] + run`.
    xkeys: Vec<f64>,
    /// Where each text's order keys start in `xkeys`.
    xbase: Vec<usize>,
    /// 3-sided structure (R-tree, per the paper's own substitution):
    /// point (x = order key, y = preceding-run char·2³² + len).
    rtree: RTree,
    /// Single-run pattern index: (char, run length, text, run) → ().
    runlen_idx: BPlusTree<(u8, u32, u32, u32), ()>,
    text_write_io: Cell<u64>,
    text_read_io: Cell<u64>,
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
            xkeys: Vec::new(),
            xbase: Vec::new(),
            rtree: RTree::with_capacity(fanout.max(8)),
            runlen_idx: BPlusTree::with_fanout(fanout.max(8)),
            text_write_io: Cell::new(0),
            text_read_io: Cell::new(0),
        }
    }

    /// Index `texts` (ids `0..texts.len()`, in order) in one build: the
    /// same index `insert_rle` would grow text by text, from one sort of
    /// the run-boundary suffixes and a bottom-up load of each component.
    pub fn build(texts: Vec<RleSeq>) -> Self {
        Self::build_with_fanout(64, texts)
    }

    /// [`build`](Self::build) with a custom String-B-tree fanout.
    pub fn build_with_fanout(fanout: usize, texts: Vec<RleSeq>) -> Self {
        let mut sbc = Self::with_fanout(fanout);
        // Sort behind a cached key — the suffix's first three runs as
        // order-preserving tokens — so the run-wise compare only breaks
        // ties; then drop the keys before anything else is built.  (The
        // key is kept as two words: a `u128` would pad every entry from 24
        // to 32 bytes.)
        // Sized exactly: this is the build's largest temporary, and grown
        // by doubling it reserves up to twice what it uses.
        let mut keyed = Vec::with_capacity(texts.iter().map(RleSeq::num_runs).sum());
        for (id, t) in texts.iter().enumerate() {
            sbc.text_write_io
                .set(sbc.text_write_io.get() + (t.compressed_bytes() as u64 / 8192).max(1));
            sbc.xbase.push(keyed.len());
            keyed.extend((0..t.num_runs()).map(|run| {
                let key = (run..run + 3).fold(0u128, |k, i| k << 41 | run_token(t, i) as u128);
                let e = RunRef {
                    text: id as u32,
                    run: run as u32,
                };
                ((key >> 64) as u64, key as u64, e)
            }));
        }
        keyed.sort_unstable_by(|a, b| {
            ((a.0, a.1).cmp(&(b.0, b.1))).then_with(|| cmp_run_refs(&texts, a.2, b.2))
        });
        let suffixes: Vec<RunRef> = keyed.into_iter().map(|(_, _, e)| e).collect();
        // The run-length keys are the one sizeable temporary left, so
        // their tree goes first, while the least else is resident: the
        // same (text, run) set, re-sorted by (char, length, text, run).
        let mut runs: Vec<((u8, u32, u32, u32), ())> = suffixes
            .iter()
            .map(|e| {
                let r = texts[e.text as usize].runs()[e.run as usize];
                ((r.ch, r.len, e.text, e.run), ())
            })
            .collect();
        runs.sort_unstable();
        sbc.runlen_idx = BPlusTree::from_sorted(fanout.max(8), runs);
        // Evenly spaced order keys; the 3-sided structure takes its points
        // one vertical slice at a time, straight off the sorted suffixes.
        sbc.xkeys = vec![0.0; suffixes.len()];
        for (rank, e) in suffixes.iter().enumerate() {
            sbc.xkeys[sbc.xbase[e.text as usize] + e.run as usize] = rank as f64 * X_GAP;
        }
        sbc.rtree = RTree::bulk_load(
            fanout.max(8),
            suffixes.iter().enumerate().map(|(rank, e)| {
                let y = prev_run_y(&texts[e.text as usize], e.run);
                (Rect::point(rank as f64 * X_GAP, y), payload(e.text, e.run))
            }),
        );
        sbc.tree = SufBTree::from_sorted(fanout, &suffixes);
        sbc.texts = texts;
        sbc
    }

    /// Insert a raw sequence (RLE-compressed on the way in).
    pub fn insert_sequence(&mut self, seq: &[u8]) -> u32 {
        self.insert_rle(RleSeq::encode(seq))
    }

    /// Insert an already-compressed sequence.
    pub fn insert_rle(&mut self, rle: RleSeq) -> u32 {
        let id = self.texts.len() as u32;
        self.text_write_io
            .set(self.text_write_io.get() + (rle.compressed_bytes() as u64 / 8192).max(1));
        self.texts.push(rle);
        let num_runs = self.texts[id as usize].num_runs() as u32;
        let base = self.xkeys.len();
        self.xbase.push(base);
        self.xkeys.resize(base + num_runs as usize, 0.0);
        // Index one suffix per run boundary, 0..num_runs.
        let texts = std::mem::take(&mut self.texts);
        let cmp = |a: RunRef, b: RunRef| cmp_run_refs(&texts, a, b);
        for run in 0..num_runs {
            let e = RunRef { text: id, run };
            let (pred, succ) = self.tree.insert(&cmp, e);
            let x = self.assign_x(pred, succ);
            self.xkeys[base + run as usize] = x;
            let y = prev_run_y(&texts[id as usize], run);
            self.rtree.insert(Rect::point(x, y), payload(id, run));
            let this_run = texts[id as usize].runs()[run as usize];
            self.runlen_idx
                .insert((this_run.ch, this_run.len, id, run), ());
        }
        self.texts = texts;
        id
    }

    fn xkey(&self, e: RunRef) -> f64 {
        self.xkeys[self.xbase[e.text as usize] + e.run as usize]
    }

    /// Midpoint order-key assignment between the new entry's neighbours.
    /// Collisions after repeated midpointing are harmless: the 3-sided
    /// query result is verified against the texts before being reported.
    fn assign_x(&self, pred: Option<RunRef>, succ: Option<RunRef>) -> f64 {
        match (pred.map(|e| self.xkey(e)), succ.map(|e| self.xkey(e))) {
            (None, None) => 0.0,
            (Some(p), None) => p + X_GAP,
            (None, Some(s)) => s - X_GAP,
            (Some(p), Some(s)) => (p + s) / 2.0,
        }
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

    /// All occurrences of `pat` as a substring.  Empty patterns return no
    /// occurrences.
    ///
    /// The first-run filter is chosen adaptively: when the tail class `Q`
    /// holds at most `ADAPTIVE_CLASS_CUTOFF` (256) suffixes, they are scanned
    /// and verified directly (a few leaf reads); only larger classes go
    /// through the 3-sided (R-tree) structure, which is what it is built
    /// for — pruning a *large* class down to the boundaries whose
    /// preceding run is long enough.  (Midpoint-assigned order keys
    /// collide under heavy insertion, so a 3-sided probe over a tiny
    /// class can touch far more R-tree nodes than the class itself.)
    pub fn substring_search(&self, pat: &[u8]) -> Vec<Occurrence> {
        self.occurrences(pat, FirstRunFilter::Adaptive)
    }

    /// Ablation variant: always use the 3-sided structure, regardless of
    /// class size (E12 — shows what the 3-sided structure buys or costs).
    pub fn substring_search_three_sided(&self, pat: &[u8]) -> Vec<Occurrence> {
        self.occurrences(pat, FirstRunFilter::ThreeSided)
    }

    /// Ablation variant: skip the 3-sided structure and filter candidates
    /// by scanning (E12 ablation — shows what the 3-sided structure buys).
    pub fn substring_search_scan(&self, pat: &[u8]) -> Vec<Occurrence> {
        self.occurrences(pat, FirstRunFilter::Scan)
    }

    fn occurrences(&self, pat: &[u8], filter: FirstRunFilter) -> Vec<Occurrence> {
        let prle = RleSeq::encode(pat);
        let mut out = Vec::new();
        match *prle.runs() {
            [] => {}
            // `c^l`: a run of `c` of length n ≥ l holds n - l + 1 of them
            [only] => self.visit_long_runs(only, |e, run_len| {
                let base = self.texts[e.text as usize].run_offset(e.run as usize);
                out.extend((0..=(run_len - only.len) as u64).map(|d| Occurrence {
                    text: e.text,
                    pos: base + d,
                }));
            }),
            [first, ..] => {
                let q = &pat[first.len as usize..];
                self.visit_tail_matches(first, q, filter, |e| {
                    out.extend(self.verify_occurrence(e, first, q));
                });
            }
        }
        out.sort_unstable();
        out
    }

    /// Ids of the texts containing `pat`, ascending — what
    /// [`substring_search`](Self::substring_search) reports, minus the
    /// positions: no occurrence is enumerated, and a text that has already
    /// matched is never verified again.
    pub fn matching_texts(&self, pat: &[u8]) -> Vec<u32> {
        let prle = RleSeq::encode(pat);
        // one bit per text, so the ids come back ascending without a sort
        let mut seen = vec![0u64; self.texts.len().div_ceil(64)];
        let bit = |text: u32| (text as usize / 64, 1u64 << (text % 64));
        match *prle.runs() {
            [] => {}
            [only] => self.visit_long_runs(only, |e, _| {
                let (word, mask) = bit(e.text);
                seen[word] |= mask;
            }),
            [first, ..] => {
                let q = &pat[first.len as usize..];
                self.visit_tail_matches(first, q, FirstRunFilter::Adaptive, |e| {
                    let (word, mask) = bit(e.text);
                    if seen[word] & mask == 0 && self.verify_occurrence(e, first, q).is_some() {
                        seen[word] |= mask;
                    }
                });
            }
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

    /// Single-run pattern: every run of `pat.ch` at least `pat.len` long,
    /// with its length, straight off the run-length index.
    fn visit_long_runs(&self, pat: Run, mut visit: impl FnMut(RunRef, u32)) {
        let lo = (pat.ch, pat.len, 0, 0);
        let hi = (pat.ch, u32::MAX, u32::MAX, u32::MAX);
        self.runlen_idx.visit_bounds(
            Bound::Included(&lo),
            Bound::Excluded(&hi),
            |&(_, run_len, text, run), _| visit(RunRef { text, run }, run_len),
        );
    }

    /// Multi-run pattern: String-B-tree probe for the tail `q`, then the
    /// first-run filter (3-sided, scan, or size-adaptive).  `visit` sees a
    /// superset of the boundaries where an occurrence ends its first run
    /// and must verify each against the text: the scan paths apply no
    /// first-run filter at all, and the 3-sided path can over-report when
    /// order keys collide.  Text accesses are not counted as I/O on either
    /// side of the E12 comparison: the String B-tree's comparator reads
    /// texts just the same.
    fn visit_tail_matches(
        &self,
        first: Run,
        q: &[u8],
        filter: FirstRunFilter,
        mut visit: impl FnMut(RunRef),
    ) {
        let classify = self.prefix_class(q);
        let class = match filter {
            FirstRunFilter::ThreeSided => None,
            FirstRunFilter::Scan => Some(self.tree.collect_class(&classify)),
            // small class: verify its members directly; large: worth the
            // 3-sided probe
            FirstRunFilter::Adaptive => self
                .tree
                .collect_class_bounded(&classify, ADAPTIVE_CLASS_CUTOFF),
        };
        if let Some(class) = class {
            class.into_iter().for_each(visit);
            return;
        }
        let Some(first_e) = self.tree.first_in_class(&classify) else {
            return;
        };
        let last_e = self
            .tree
            .last_in_class(&classify)
            .expect("non-empty class has a last element");
        let y_lo = encode_y(first.ch, first.len);
        for (_, p) in self
            .rtree
            .three_sided(self.xkey(first_e), self.xkey(last_e), y_lo)
        {
            let (text, run) = unpayload(p);
            visit(RunRef { text, run });
        }
    }

    /// Check conditions (1) and (2) for a candidate boundary and build the
    /// occurrence.
    fn verify_occurrence(&self, e: RunRef, first: Run, q: &[u8]) -> Option<Occurrence> {
        let t = &self.texts[e.text as usize];
        let prev = t.runs()[e.run.checked_sub(1)? as usize]; // else: no preceding run
        if prev.ch != first.ch || prev.len < first.len {
            return None;
        }
        if !t.suffix_starts_with(e.run as usize, q) {
            return None;
        }
        Some(Occurrence {
            text: e.text,
            pos: t.run_offset(e.run as usize) - first.len as u64,
        })
    }

    /// Texts containing `pat` as a *subsequence* (characters in order,
    /// gaps allowed) — the operation §7.2 lists as planned future work
    /// (*"We plan to extend the supported operations of the SBC-tree index
    /// to include subsequence matching"*).
    ///
    /// Evaluated directly over the compressed form: the greedy two-pointer
    /// walk consumes runs, never decompressing.  The run-length index
    /// prunes texts that lack enough of the pattern's scarcest character.
    pub fn subsequence_search(&self, pat: &[u8]) -> Vec<u32> {
        if pat.is_empty() {
            return (0..self.texts.len() as u32).collect();
        }
        let prle = RleSeq::encode(pat);
        // prune: per-text totals of the pattern's first run character must
        // reach that run's length (cheap necessary condition via run walk)
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
        let classify = self.prefix_class(pat);
        let mut out: Vec<u32> = self
            .tree
            .collect_class(&classify)
            .into_iter()
            .filter(|e| e.run == 0)
            .map(|e| e.text)
            .collect();
        out.sort_unstable();
        out
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
        let mut out: Vec<u32> = self
            .tree
            .collect_class(&classify)
            .into_iter()
            .filter(|e| e.run == 0)
            .map(|e| e.text)
            .collect();
        out.sort_unstable();
        out
    }

    /// Modeled on-disk storage footprint, using the packed layouts a disk
    /// SBC-tree would write (the in-memory R-tree and order-key shapes are
    /// build-time artifacts, not the persisted format):
    ///
    /// * compressed text: 5 bytes per run (char + u32 length);
    /// * String-B-tree component: 8 bytes per suffix entry
    ///   (packed text/run reference) plus node overhead;
    /// * 3-sided structure: 9 bytes per point — 4-byte leaf rank (the
    ///   order key is implicit in on-disk position), 1-byte preceding-run
    ///   char, 4-byte preceding-run length.
    ///
    /// The single-run accelerator index is reported separately by
    /// [`runlen_index_bytes`](Self::runlen_index_bytes) since the paper's
    /// SBC-tree handles single-run patterns inside the main structure.
    pub fn storage_bytes(&self) -> usize {
        self.compressed_text_bytes() + self.tree.storage_bytes(8) + self.tree.len() * 9
    }

    /// Bytes of RLE-compressed sequence data alone.
    pub fn compressed_text_bytes(&self) -> usize {
        self.texts.iter().map(|t| t.compressed_bytes()).sum()
    }

    /// Storage of the optional single-run-pattern accelerator (8 packed
    /// bytes per run).
    pub fn runlen_index_bytes(&self) -> usize {
        self.runlen_idx.len() * 8
    }

    /// Total logical I/O so far across all components.
    pub fn io_stats(&self) -> IoSnapshot {
        let a = self.tree.stats().snapshot();
        let b = self.rtree.stats().snapshot();
        let c = self.runlen_idx.stats().snapshot();
        IoSnapshot {
            reads: a.reads + b.reads + c.reads + self.text_read_io.get(),
            writes: a.writes + b.writes + c.writes + self.text_write_io.get(),
        }
    }

    /// Reset all I/O counters.
    pub fn reset_io(&self) {
        self.tree.stats().reset();
        self.rtree.stats().reset();
        self.runlen_idx.stats().reset();
        self.text_write_io.set(0);
        self.text_read_io.set(0);
    }
}

impl Default for SbcTree {
    fn default() -> Self {
        Self::new()
    }
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

/// The tree order: suffix content, ties (equal suffixes of different
/// texts) broken by `(text, run)` so the order is total.
fn cmp_run_refs(texts: &[RleSeq], a: RunRef, b: RunRef) -> Ordering {
    texts[a.text as usize]
        .cmp_suffixes(a.run as usize, &texts[b.text as usize], b.run as usize)
        .then_with(|| (a.text, a.run).cmp(&(b.text, b.run)))
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

/// y-coordinate of the boundary before run `run` of `text`: the run that
/// precedes it (recomputed from the text wherever it is needed, so the
/// stored rectangle is never trusted).
fn prev_run_y(text: &RleSeq, run: u32) -> f64 {
    match run.checked_sub(1) {
        None => NO_PREV_Y,
        Some(prev) => {
            let prev = text.runs()[prev as usize];
            encode_y(prev.ch, prev.len)
        }
    }
}

fn encode_y(ch: u8, len: u32) -> f64 {
    ch as f64 * 4294967296.0 + len as f64
}

fn payload(text: u32, run: u32) -> u64 {
    ((text as u64) << 32) | run as u64
}

fn unpayload(p: u64) -> (u32, u32) {
    ((p >> 32) as u32, p as u32)
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
    fn built_index_has_evenly_spaced_order_keys() {
        let texts = ["HHHEELLLHH", "ELLHHH", "", "LLLL", "HEL", "ELLHHH"];
        let t = SbcTree::build_with_fanout(
            4,
            texts.iter().map(|s| RleSeq::encode(s.as_bytes())).collect(),
        );
        assert_eq!(t.num_texts(), 6);
        let mut x = t.xkeys.clone();
        x.sort_by(f64::total_cmp);
        assert_eq!(x.len(), t.num_suffixes());
        assert!(x.windows(2).all(|w| w[1] - w[0] == X_GAP), "no collisions");
        assert_eq!(t.matching_texts(b"LLHH"), vec![0, 1, 5]);
        assert_eq!(t.matching_texts(b"LL"), vec![0, 1, 3, 5]);
        assert_eq!(t.matching_texts(b""), Vec::<u32>::new());
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
