//! An in-memory, node-instrumented B+-tree.
//!
//! This is the baseline access method the paper compares SP-GiST and the
//! SBC-tree against.  Nodes live in an arena and every node visited or
//! modified is counted through [`AccessStats`], with one node standing in
//! for one disk page (fanout defaults to a page-realistic 128).
//!
//! The tree is a multimap: duplicate keys are allowed and kept in insertion
//! order within a key.

use std::ops::Bound;

use bdbms_common::stats::AccessStats;

use crate::pack::packed_sizes;

/// The fanout [`BPlusTree::new`] uses: one node to a page-realistic 128
/// entries.
pub const DEFAULT_FANOUT: usize = 128;

/// Arena index of a node.
type NodeId = usize;

enum Node<K, V> {
    Inner {
        /// `keys[i]` separates `children[i]` (< key) from `children[i+1]` (≥ key).
        keys: Vec<K>,
        children: Vec<NodeId>,
    },
    Leaf {
        entries: Vec<(K, V)>,
        next: Option<NodeId>,
    },
}

/// B+-tree multimap with logical I/O accounting.
pub struct BPlusTree<K, V> {
    nodes: Vec<Node<K, V>>,
    root: NodeId,
    fanout: usize,
    len: usize,
    stats: AccessStats,
    /// Estimated byte cost per entry (key bytes are measured by the caller
    /// via `key_bytes`).
    key_bytes: fn(&K) -> usize,
}

impl<K: Ord + Clone, V: Clone> BPlusTree<K, V> {
    /// Empty tree with the default fanout.
    pub fn new() -> Self {
        Self::with_fanout(DEFAULT_FANOUT)
    }

    /// Empty tree with a custom fanout (min 4).
    pub fn with_fanout(fanout: usize) -> Self {
        assert!(fanout >= 4, "fanout must be at least 4");
        BPlusTree {
            nodes: vec![Node::Leaf {
                entries: Vec::new(),
                next: None,
            }],
            root: 0,
            fanout,
            len: 0,
            stats: AccessStats::new(),
            key_bytes: |_| 8,
        }
    }

    /// Bottom-up load of key-sorted `entries` (equal keys in the order
    /// they should be returned): leaves are packed full and chained, and
    /// every separator is the first key of the subtree to its right —
    /// the rule `insert` maintains, so lookups and later inserts behave
    /// exactly as on an insert-grown tree.  One logical write per node.
    pub fn from_sorted(fanout: usize, entries: Vec<(K, V)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0), "sorted");
        let mut tree = Self::with_fanout(fanout);
        tree.len = entries.len();
        if tree.len == 0 {
            return tree;
        }
        tree.nodes.clear();
        let leaves = tree.len.div_ceil(fanout);
        // (first key of the subtree, node) for the level being grouped
        let mut level: Vec<(K, NodeId)> = Vec::with_capacity(leaves);
        let mut entries = entries.into_iter();
        for size in packed_sizes(tree.len, fanout) {
            let id = tree.nodes.len();
            let leaf: Vec<(K, V)> = entries.by_ref().take(size).collect();
            level.push((leaf[0].0.clone(), id));
            tree.nodes.push(Node::Leaf {
                entries: leaf,
                next: (id + 1 < leaves).then_some(id + 1),
            });
        }
        while level.len() > 1 {
            let mut children = level.into_iter();
            level = packed_sizes(children.len(), fanout + 1)
                .map(|size| {
                    let mut group = children.by_ref().take(size);
                    let (first_key, first_child) = group.next().expect("non-empty group");
                    let mut keys = Vec::with_capacity(size - 1);
                    let mut kids = Vec::with_capacity(size);
                    kids.push(first_child);
                    for (key, child) in group {
                        keys.push(key);
                        kids.push(child);
                    }
                    tree.nodes.push(Node::Inner {
                        keys,
                        children: kids,
                    });
                    (first_key, tree.nodes.len() - 1)
                })
                .collect();
        }
        tree.root = level[0].1;
        tree.stats.record_writes(tree.nodes.len() as u64);
        tree
    }

    /// Set the function used to estimate stored key size (for the
    /// storage-bytes comparisons in E12 / E-SPGIST).
    pub fn set_key_size_fn(&mut self, f: fn(&K) -> usize) {
        self.key_bytes = f;
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical node I/O counters.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Number of nodes (≈ pages) in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Estimated storage footprint in bytes: per-node header plus per-entry
    /// key/value/pointer costs.
    pub fn storage_bytes(&self) -> usize {
        let mut total = 0;
        for n in &self.nodes {
            total += 16; // node header
            match n {
                Node::Inner { keys, children } => {
                    total += keys.iter().map(|k| (self.key_bytes)(k)).sum::<usize>();
                    total += children.len() * 8;
                }
                Node::Leaf { entries, .. } => {
                    total += entries
                        .iter()
                        .map(|(k, _)| (self.key_bytes)(k) + 8)
                        .sum::<usize>();
                }
            }
        }
        total
    }

    /// Depth of the tree (1 = root is a leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut id = self.root;
        loop {
            match &self.nodes[id] {
                Node::Leaf { .. } => return h,
                Node::Inner { children, .. } => {
                    id = children[0];
                    h += 1;
                }
            }
        }
    }

    /// Insert `(key, value)`.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some((sep, right)) = self.insert_rec(self.root, key, value) {
            // Root split: make a new root.
            let old_root = self.root;
            self.nodes.push(Node::Inner {
                keys: vec![sep],
                children: vec![old_root, right],
            });
            self.root = self.nodes.len() - 1;
            self.stats.record_write();
        }
        self.len += 1;
    }

    /// Recursive insert; returns `Some((separator, new_right))` on split.
    fn insert_rec(&mut self, id: NodeId, key: K, value: V) -> Option<(K, NodeId)> {
        self.stats.record_read();
        match &mut self.nodes[id] {
            Node::Leaf { entries, .. } => {
                let pos = entries.partition_point(|(k, _)| *k <= key);
                entries.insert(pos, (key, value));
                self.stats.record_write();
                if let Node::Leaf { entries, next } = &mut self.nodes[id] {
                    if entries.len() > self.fanout {
                        let mid = entries.len() / 2;
                        let right_entries = entries.split_off(mid);
                        let old_next = *next;
                        let sep = right_entries[0].0.clone();
                        self.nodes.push(Node::Leaf {
                            entries: right_entries,
                            next: old_next,
                        });
                        let right_id = self.nodes.len() - 1;
                        if let Node::Leaf { next, .. } = &mut self.nodes[id] {
                            *next = Some(right_id);
                        }
                        self.stats.record_write();
                        return Some((sep, right_id));
                    }
                }
                None
            }
            Node::Inner { keys, children } => {
                let idx = keys.partition_point(|k| *k <= key);
                let child = children[idx];
                let split = self.insert_rec(child, key, value);
                if let Some((sep, right)) = split {
                    if let Node::Inner { keys, children } = &mut self.nodes[id] {
                        let idx = keys.partition_point(|k| *k <= sep);
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        self.stats.record_write();
                        if keys.len() > self.fanout {
                            let mid = keys.len() / 2;
                            let up = keys[mid].clone();
                            let right_keys = keys.split_off(mid + 1);
                            keys.pop(); // `up` moves to the parent
                            let right_children = children.split_off(mid + 1);
                            self.nodes.push(Node::Inner {
                                keys: right_keys,
                                children: right_children,
                            });
                            self.stats.record_write();
                            return Some((up, self.nodes.len() - 1));
                        }
                    }
                }
                None
            }
        }
    }

    /// Descend to the *leftmost* leaf that may contain `key`.  Duplicate
    /// runs can straddle a separator equal to the key, so lookups start at
    /// the left edge and scan forward along the leaf chain.
    fn find_leaf(&self, key: &K) -> NodeId {
        let mut id = self.root;
        loop {
            self.stats.record_read();
            match &self.nodes[id] {
                Node::Leaf { .. } => return id,
                Node::Inner { keys, children } => {
                    let idx = keys.partition_point(|k| k < key);
                    id = children[idx];
                }
            }
        }
    }

    /// All values stored under `key`.
    pub fn get(&self, key: &K) -> Vec<V> {
        let mut out = Vec::new();
        let mut leaf = self.find_leaf(key);
        loop {
            match &self.nodes[leaf] {
                Node::Leaf { entries, next } => {
                    let start = entries.partition_point(|(k, _)| k < key);
                    let mut i = start;
                    while i < entries.len() && entries[i].0 == *key {
                        out.push(entries[i].1.clone());
                        i += 1;
                    }
                    if i < entries.len() || next.is_none() {
                        break;
                    }
                    // key run may continue into the next leaf
                    leaf = next.unwrap();
                    self.stats.record_read();
                }
                _ => unreachable!(),
            }
        }
        out
    }

    /// True iff at least one entry with `key` exists.
    pub fn contains(&self, key: &K) -> bool {
        !self.get(key).is_empty()
    }

    /// All entries with `lo <= key < hi` in key order.
    pub fn range(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        if lo >= hi {
            return Vec::new();
        }
        self.scan_bounds(Bound::Included(lo), Bound::Excluded(hi))
    }

    /// All entries within `lo`/`hi` (any [`std::ops::Bound`] combination) in key
    /// order.  This is the executor's index-scan entry point: equality
    /// probes use `Included(k)..=Included(k)`, one-sided comparisons leave
    /// the other end `Unbounded`.
    pub fn scan_bounds(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.visit_bounds(lo, hi, |k, v| out.push((k.clone(), v.clone())));
        out
    }

    /// [`scan_bounds`](Self::scan_bounds) without the copies: `visit` sees
    /// every entry within the bounds, in key order, by reference.
    pub fn visit_bounds(&self, lo: Bound<&K>, hi: Bound<&K>, mut visit: impl FnMut(&K, &V)) {
        let below_lo = |k: &K| match lo {
            Bound::Included(b) => k < b,
            Bound::Excluded(b) => k <= b,
            Bound::Unbounded => false,
        };
        let above_hi = |k: &K| match hi {
            Bound::Included(b) => k > b,
            Bound::Excluded(b) => k >= b,
            Bound::Unbounded => false,
        };
        // start at the leftmost leaf that can hold the lower bound
        let mut leaf = match lo {
            Bound::Included(b) | Bound::Excluded(b) => self.find_leaf(b),
            Bound::Unbounded => {
                let mut id = self.root;
                loop {
                    self.stats.record_read();
                    match &self.nodes[id] {
                        Node::Leaf { .. } => break id,
                        Node::Inner { children, .. } => id = children[0],
                    }
                }
            }
        };
        loop {
            match &self.nodes[leaf] {
                Node::Leaf { entries, next } => {
                    for (k, v) in entries {
                        if below_lo(k) {
                            continue;
                        }
                        if above_hi(k) {
                            return;
                        }
                        visit(k, v);
                    }
                    match next {
                        Some(n) => {
                            leaf = *n;
                            self.stats.record_read();
                        }
                        None => return,
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    /// Delete one entry equal to `(key, value)`; returns whether one was
    /// removed.  (No rebalancing — deletes are rare in the bdbms workloads
    /// and underfull nodes only waste space, never break correctness.)
    pub fn delete(&mut self, key: &K, value: &V) -> bool
    where
        V: PartialEq,
    {
        let mut leaf = self.find_leaf(key);
        loop {
            match &mut self.nodes[leaf] {
                Node::Leaf { entries, next } => {
                    let start = entries.partition_point(|(k, _)| k < key);
                    let mut i = start;
                    while i < entries.len() && entries[i].0 == *key {
                        if entries[i].1 == *value {
                            entries.remove(i);
                            self.len -= 1;
                            self.stats.record_write();
                            return true;
                        }
                        i += 1;
                    }
                    if i < entries.len() {
                        return false;
                    }
                    match next {
                        Some(n) => {
                            leaf = *n;
                            self.stats.record_read();
                        }
                        None => return false,
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    /// Every entry in key order (test / debugging helper).
    pub fn iter_all(&self) -> Vec<(K, V)> {
        // walk to the leftmost leaf, then follow the leaf chain
        let mut id = self.root;
        while let Node::Inner { children, .. } = &self.nodes[id] {
            id = children[0];
        }
        let mut out = Vec::with_capacity(self.len);
        loop {
            match &self.nodes[id] {
                Node::Leaf { entries, next } => {
                    out.extend(entries.iter().cloned());
                    match next {
                        Some(n) => id = *n,
                        None => break,
                    }
                }
                _ => unreachable!(),
            }
        }
        out
    }
}

impl<K: Ord + Clone, V: Clone> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Prefix search helper for byte-string keys: all entries whose key starts
/// with `prefix`, implemented as the range `[prefix, prefix+1)` — this is
/// exactly how a B+-tree serves prefix queries, and is the baseline for the
/// trie comparisons in E-SPGIST.
pub fn prefix_range<V: Clone>(tree: &BPlusTree<Vec<u8>, V>, prefix: &[u8]) -> Vec<(Vec<u8>, V)> {
    let lo = prefix.to_vec();
    let hi = prefix_upper_bound(prefix);
    match hi {
        Some(hi) => tree.range(&lo, &hi),
        None => {
            // prefix is all 0xFF: everything ≥ prefix matches the range scan
            let mut out = Vec::new();
            for (k, v) in tree.iter_all() {
                if k.starts_with(prefix) {
                    out.push((k, v));
                }
            }
            out
        }
    }
}

/// Smallest byte string strictly greater than every string with `prefix`.
pub fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut hi = prefix.to_vec();
    while let Some(last) = hi.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(hi);
        }
        hi.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_basic() {
        let mut t = BPlusTree::new();
        t.insert(5, "five");
        t.insert(3, "three");
        t.insert(8, "eight");
        assert_eq!(t.get(&3), vec!["three"]);
        assert_eq!(t.get(&5), vec!["five"]);
        assert_eq!(t.get(&9), Vec::<&str>::new());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn duplicates_preserved() {
        let mut t = BPlusTree::new();
        t.insert("JW0080".to_string(), 1);
        t.insert("JW0080".to_string(), 2);
        t.insert("JW0080".to_string(), 3);
        assert_eq!(t.get(&"JW0080".to_string()), vec![1, 2, 3]);
    }

    #[test]
    fn splits_keep_order_small_fanout() {
        let mut t = BPlusTree::with_fanout(4);
        let n = 1000;
        for i in (0..n).rev() {
            t.insert(i, i * 10);
        }
        assert_eq!(t.len(), n as usize);
        assert!(t.height() > 2, "must have split into a multi-level tree");
        let all = t.iter_all();
        assert_eq!(all.len(), n as usize);
        for (i, (k, v)) in all.iter().enumerate() {
            assert_eq!(*k, i as i64);
            assert_eq!(*v, i as i64 * 10);
        }
    }

    #[test]
    fn range_scan() {
        let mut t = BPlusTree::with_fanout(4);
        for i in 0..100 {
            t.insert(i, ());
        }
        let r = t.range(&10, &20);
        let keys: Vec<i32> = r.into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, (10..20).collect::<Vec<_>>());
        assert!(t.range(&50, &50).is_empty());
        assert!(t.range(&60, &50).is_empty());
    }

    #[test]
    fn range_spans_leaves() {
        let mut t = BPlusTree::with_fanout(4);
        for i in 0..64 {
            t.insert(i, ());
        }
        assert_eq!(t.range(&0, &64).len(), 64);
    }

    #[test]
    fn scan_bounds_all_combinations() {
        use std::ops::Bound::*;
        let mut t = BPlusTree::with_fanout(4);
        for i in 0..50 {
            t.insert(i, i);
        }
        let keys =
            |lo, hi| -> Vec<i32> { t.scan_bounds(lo, hi).into_iter().map(|(k, _)| k).collect() };
        assert_eq!(keys(Included(&10), Included(&12)), vec![10, 11, 12]);
        assert_eq!(keys(Excluded(&10), Excluded(&13)), vec![11, 12]);
        assert_eq!(keys(Included(&47), Unbounded), vec![47, 48, 49]);
        assert_eq!(keys(Unbounded, Excluded(&3)), vec![0, 1, 2]);
        assert_eq!(keys(Unbounded, Unbounded).len(), 50);
        assert_eq!(
            keys(Included(&30), Included(&30)),
            vec![30],
            "equality probe"
        );
        assert!(keys(Included(&20), Excluded(&20)).is_empty());
        assert!(keys(Included(&60), Unbounded).is_empty());
    }

    #[test]
    fn scan_bounds_with_duplicates() {
        use std::ops::Bound::*;
        let mut t = BPlusTree::with_fanout(4);
        for _ in 0..12 {
            t.insert(5, "x");
        }
        t.insert(4, "below");
        t.insert(6, "above");
        assert_eq!(t.scan_bounds(Included(&5), Included(&5)).len(), 12);
        assert_eq!(t.scan_bounds(Excluded(&5), Unbounded).len(), 1);
        assert_eq!(t.scan_bounds(Unbounded, Excluded(&5)).len(), 1);
    }

    #[test]
    fn delete_specific_entry() {
        let mut t = BPlusTree::with_fanout(4);
        t.insert(7, "a");
        t.insert(7, "b");
        assert!(t.delete(&7, &"a"));
        assert_eq!(t.get(&7), vec!["b"]);
        assert!(!t.delete(&7, &"zzz"));
        assert!(t.delete(&7, &"b"));
        assert!(t.get(&7).is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn duplicate_run_across_leaf_boundary() {
        let mut t = BPlusTree::with_fanout(4);
        for _ in 0..20 {
            t.insert(5, 1);
        }
        t.insert(1, 0);
        t.insert(9, 2);
        assert_eq!(t.get(&5).len(), 20);
    }

    /// First key of the subtree at `id`; checks every separator against
    /// the first key of the subtree to its right on the way down.
    fn first_key(t: &BPlusTree<i64, u64>, id: NodeId) -> i64 {
        match &t.nodes[id] {
            Node::Leaf { entries, .. } => {
                assert!(!entries.is_empty() && entries.len() <= t.fanout);
                entries[0].0
            }
            Node::Inner { keys, children } => {
                assert_eq!(children.len(), keys.len() + 1);
                assert!(children.len() >= 2 && keys.len() <= t.fanout);
                let firsts: Vec<i64> = children.iter().map(|&c| first_key(t, c)).collect();
                assert_eq!(
                    &firsts[1..],
                    keys.as_slice(),
                    "sep = first key to its right"
                );
                firsts[0]
            }
        }
    }

    #[test]
    fn from_sorted_at_the_size_boundaries() {
        for fanout in [4usize, 7] {
            let f = fanout;
            for n in [0, 1, f, f + 1, f * f, f * f + 1, f * f * (f + 1) + 1] {
                // every key three times: duplicate runs straddle leaves
                let input: Vec<(i64, u64)> = (0..n as u64).map(|i| (i as i64 / 3, i)).collect();
                let mut bulk = BPlusTree::from_sorted(fanout, input.clone());
                let mut grown = BPlusTree::with_fanout(fanout);
                for (k, v) in &input {
                    grown.insert(*k, *v);
                }
                assert_eq!(bulk.len(), n);
                assert_eq!(bulk.iter_all(), input, "leaf chain, n={n}");
                if n > 0 {
                    first_key(&bulk, bulk.root);
                    assert_eq!(bulk.stats().writes(), bulk.node_count() as u64);
                }
                assert!(bulk.height() <= grown.height());
                assert!(bulk.node_count() <= grown.node_count());
                for k in -1..=(n as i64 / 3 + 1) {
                    assert_eq!(bulk.get(&k), grown.get(&k), "get {k}, n={n}");
                    assert_eq!(bulk.range(&k, &(k + 2)), grown.range(&k, &(k + 2)));
                    assert_eq!(
                        bulk.scan_bounds(Bound::Excluded(&k), Bound::Unbounded),
                        grown.scan_bounds(Bound::Excluded(&k), Bound::Unbounded)
                    );
                }
                // packed leaves split and shrink like any others
                for (k, v) in &input {
                    if v % 2 == 0 {
                        assert!(bulk.delete(k, v) && grown.delete(k, v));
                    } else {
                        bulk.insert(*k, v + 1_000_000);
                        grown.insert(*k, v + 1_000_000);
                    }
                }
                assert_eq!(bulk.iter_all(), grown.iter_all(), "after DML, n={n}");
                if !bulk.is_empty() {
                    first_key(&bulk, bulk.root);
                }
            }
        }
    }

    #[test]
    fn visit_bounds_sees_what_scan_bounds_returns() {
        let t = BPlusTree::from_sorted(4, (0..50i64).map(|i| (i, i as u64)).collect());
        let mut seen = Vec::new();
        t.visit_bounds(Bound::Included(&10), Bound::Excluded(&13), |k, v| {
            seen.push((*k, *v))
        });
        assert_eq!(seen, vec![(10, 10), (11, 11), (12, 12)]);
        assert_eq!(
            seen,
            t.scan_bounds(Bound::Included(&10), Bound::Excluded(&13))
        );
    }

    #[test]
    fn prefix_search_on_bytes() {
        let mut t: BPlusTree<Vec<u8>, usize> = BPlusTree::with_fanout(8);
        let words = ["ATG", "ATGAAA", "ATGC", "ATT", "GTG", "AT"];
        for (i, w) in words.iter().enumerate() {
            t.insert(w.as_bytes().to_vec(), i);
        }
        let hits = prefix_range(&t, b"ATG");
        let mut got: Vec<&str> = hits
            .iter()
            .map(|(k, _)| std::str::from_utf8(k).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec!["ATG", "ATGAAA", "ATGC"]);
    }

    #[test]
    fn prefix_upper_bound_edge_cases() {
        assert_eq!(prefix_upper_bound(b"AB"), Some(b"AC".to_vec()));
        assert_eq!(prefix_upper_bound(&[0x41, 0xFF]), Some(vec![0x42]));
        assert_eq!(prefix_upper_bound(&[0xFF, 0xFF]), None);
    }

    #[test]
    fn stats_count_descent() {
        let mut t = BPlusTree::with_fanout(4);
        for i in 0..1000 {
            t.insert(i, ());
        }
        t.stats().reset();
        let _ = t.get(&500);
        let h = t.height() as u64;
        assert!(t.stats().reads() >= h, "lookup must read ≥ height nodes");
        assert_eq!(t.stats().writes(), 0);
    }

    #[test]
    fn storage_bytes_grows_with_entries() {
        let mut t = BPlusTree::with_fanout(16);
        let empty = t.storage_bytes();
        for i in 0..500 {
            t.insert(i, i);
        }
        assert!(t.storage_bytes() > empty + 500 * 8);
    }
}
