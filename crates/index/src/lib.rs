//! # bdbms-index
//!
//! Access methods for bdbms (§7 of the paper).
//!
//! The paper argues biological databases need index structures beyond
//! B+-trees and hash tables, and proposes integrating the **SP-GiST**
//! extensible framework for space-partitioning trees.  This crate provides:
//!
//! * [`bptree::BPlusTree`] — the classic baseline the paper compares
//!   against,
//! * [`rtree::RTree`] — the spatial baseline, also reused by `bdbms-seq` as
//!   the 3-sided-range substitute inside the SBC-tree (exactly as the
//!   paper's own prototype did),
//! * [`spgist`] — the SP-GiST framework: a generic space-partitioning tree
//!   parameterized by pluggable operator sets, with instantiations
//!   [`trie::TrieOps`] (Patricia trie over byte strings),
//!   [`kdtree::KdTreeOps`] (k-d tree over 2-D points), and
//!   [`quadtree::QuadtreeOps`] (point quadtree),
//! * [`regex::Regex`] — a small Thompson-NFA regular-expression engine
//!   powering the "regular expression match search" operation the paper
//!   lists for SP-GiST tries.
//!
//! Every structure counts logical node reads/writes through
//! [`bdbms_common::stats::AccessStats`] (one node ≈ one page), which is
//! what the reproduction benchmarks report.

pub mod bptree;
pub mod kdtree;
pub mod pack;
pub mod quadtree;
pub mod regex;
pub mod rtree;
pub mod spgist;
pub mod trie;

pub use bptree::BPlusTree;
pub use rtree::{RTree, Rect};
pub use spgist::SpGist;
