//! # bdbms-seq
//!
//! Biological sequence support for bdbms (§7.2 of the paper).
//!
//! The paper stores protein secondary structures (and other repeat-heavy
//! sequences) Run-Length-Encoded and indexes them **without
//! decompressing** with the SBC-tree — a String B-tree over the compressed
//! suffixes plus a 3-sided range structure (the paper's prototype used an
//! R-tree; here each suffix is kept with its packed preceding run and the
//! String B-tree's inner nodes keep each subtree's largest one).
//!
//! Modules:
//! * [`rle`] — the RLE codec of Figure 12 (`LLLEEE…` → `L3E7H22…`),
//! * [`gen`] — synthetic sequence generators standing in for the paper's
//!   E. coli / protein datasets (documented substitution in DESIGN.md),
//! * [`sufbtree`] — a generic, node-instrumented suffix B-tree whose
//!   class walks filter and prune on a per-entry key,
//! * [`string_btree`] — the *uncompressed* String B-tree baseline the
//!   paper compares against,
//! * [`sbc_tree`] — the SBC-tree itself: substring / prefix / range search
//!   over RLE-compressed sequences.

pub mod gen;
pub mod rle;
pub mod sbc_tree;
pub mod string_btree;
pub mod sufbtree;

pub use rle::RleSeq;
pub use sbc_tree::SbcTree;
pub use string_btree::StringBTree;

use std::cell::Cell;

thread_local! {
    static SORTED_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// How many sort-based builds ([`SbcTree::build`],
/// [`StringBTree::build`]) this thread has run: an index loaded from a
/// stored order runs none.
pub fn sorted_builds() -> u64 {
    SORTED_BUILDS.get()
}

fn count_sorted_build() {
    SORTED_BUILDS.set(SORTED_BUILDS.get() + 1);
}
