//! A generic, node-instrumented suffix B-tree.
//!
//! Both the uncompressed [`crate::string_btree::StringBTree`] baseline and
//! the [`crate::sbc_tree::SbcTree`] keep their suffixes in this structure:
//! a B+-tree whose entries are *references* into a text store (never
//! copies of the suffixes), compared through a caller-supplied comparator.
//! This mirrors the real String B-tree design, where keys are pointers to
//! strings on disk and comparisons chase those pointers.
//!
//! Query methods take a *classifier* `Fn(E) -> Ordering` that must be
//! monotone with respect to the tree order and partition entries into
//! `Less | Equal | Greater` blocks; `Equal` is the answer set.  Prefix
//! probes, string-range probes, and bound probes are all expressible this
//! way, so one search implementation serves every operation the paper
//! lists (substring, prefix, range).

use std::cmp::Ordering;

use bdbms_common::stats::AccessStats;
use bdbms_index::pack::packed_sizes;

type NodeId = usize;

enum Node<E> {
    Inner {
        seps: Vec<E>,
        children: Vec<NodeId>,
    },
    Leaf {
        entries: Vec<E>,
        prev: Option<NodeId>,
        next: Option<NodeId>,
    },
}

/// B+-tree over suffix references with an external comparator.
pub struct SufBTree<E: Copy> {
    nodes: Vec<Node<E>>,
    root: NodeId,
    fanout: usize,
    len: usize,
    stats: AccessStats,
}

impl<E: Copy> SufBTree<E> {
    /// Empty tree with page-realistic fanout.
    pub fn new() -> Self {
        Self::with_fanout(64)
    }

    /// Empty tree with a custom fanout (min 4).
    pub fn with_fanout(fanout: usize) -> Self {
        assert!(fanout >= 4);
        SufBTree {
            nodes: vec![Node::Leaf {
                entries: Vec::new(),
                prev: None,
                next: None,
            }],
            root: 0,
            fanout,
            len: 0,
            stats: AccessStats::new(),
        }
    }

    /// Bottom-up load of `entries`, already sorted under the total order
    /// later `insert`s and classifiers use: full leaves on a doubly-linked
    /// chain, and every separator the minimum of the subtree to its right
    /// (the rule `insert` maintains, so every query and later insert
    /// behaves as on an insert-grown tree).  One logical write per node.
    pub fn from_sorted(fanout: usize, entries: &[E]) -> Self {
        let mut tree = Self::with_fanout(fanout);
        if entries.is_empty() {
            return tree;
        }
        tree.len = entries.len();
        tree.nodes.clear();
        let leaves = entries.len().div_ceil(fanout);
        // (minimum of the subtree, node) for the level being grouped
        let mut level: Vec<(E, NodeId)> = Vec::with_capacity(leaves);
        let mut rest = entries;
        for size in packed_sizes(entries.len(), fanout) {
            let (leaf, tail) = rest.split_at(size);
            rest = tail;
            let id = tree.nodes.len();
            level.push((leaf[0], id));
            tree.nodes.push(Node::Leaf {
                entries: leaf.to_vec(),
                prev: id.checked_sub(1),
                next: (id + 1 < leaves).then_some(id + 1),
            });
        }
        while level.len() > 1 {
            let mut up = Vec::with_capacity(level.len().div_ceil(fanout + 1));
            let mut rest = level.as_slice();
            for size in packed_sizes(level.len(), fanout + 1) {
                let (group, tail) = rest.split_at(size);
                rest = tail;
                up.push((group[0].0, tree.nodes.len()));
                tree.nodes.push(Node::Inner {
                    seps: group[1..].iter().map(|&(min, _)| min).collect(),
                    children: group.iter().map(|&(_, child)| child).collect(),
                });
            }
            level = up;
        }
        tree.root = level[0].1;
        tree.stats.record_writes(tree.nodes.len() as u64);
        tree
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

    /// Node (≈ page) count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree height (1 = root leaf).
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

    /// Estimated storage footprint given the per-entry reference size.
    pub fn storage_bytes(&self, entry_bytes: usize) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                16 + match n {
                    Node::Inner { seps, children } => seps.len() * entry_bytes + children.len() * 8,
                    Node::Leaf { entries, .. } => entries.len() * entry_bytes,
                }
            })
            .sum()
    }

    /// Insert `e` under total order `cmp`, returning the in-order
    /// `(predecessor, successor)` of the new entry (used by the SBC-tree to
    /// assign order keys for its 3-sided structure).
    pub fn insert(&mut self, cmp: &impl Fn(E, E) -> Ordering, e: E) -> (Option<E>, Option<E>) {
        let (split, pred, succ) = self.insert_rec(self.root, cmp, e);
        if let Some((sep, right)) = split {
            let old_root = self.root;
            self.nodes.push(Node::Inner {
                seps: vec![sep],
                children: vec![old_root, right],
            });
            self.root = self.nodes.len() - 1;
            self.stats.record_write();
        }
        self.len += 1;
        (pred, succ)
    }

    #[allow(clippy::type_complexity)]
    fn insert_rec(
        &mut self,
        id: NodeId,
        cmp: &impl Fn(E, E) -> Ordering,
        e: E,
    ) -> (Option<(E, NodeId)>, Option<E>, Option<E>) {
        self.stats.record_read();
        match &mut self.nodes[id] {
            Node::Leaf {
                entries,
                prev,
                next,
            } => {
                let pos = entries.partition_point(|x| cmp(*x, e) == Ordering::Less);
                let pred0 = (pos > 0).then(|| entries[pos - 1]);
                let succ0 = entries.get(pos).copied();
                let prev_id = *prev;
                let next_id = *next;
                entries.insert(pos, e);
                self.stats.record_write();
                // Neighbours not found in this leaf live at the edges of the
                // adjacent leaves (doubly-linked leaf chain).
                let pred = pred0.or_else(|| {
                    prev_id.and_then(|p| {
                        self.stats.record_read();
                        match &self.nodes[p] {
                            Node::Leaf { entries, .. } => entries.last().copied(),
                            _ => unreachable!(),
                        }
                    })
                });
                let succ = succ0.or_else(|| {
                    next_id.and_then(|n| {
                        self.stats.record_read();
                        match &self.nodes[n] {
                            Node::Leaf { entries, .. } => entries.first().copied(),
                            _ => unreachable!(),
                        }
                    })
                });
                // split if overfull: detach the right half inside the
                // borrow, then wire pointers with fresh borrows.
                let fanout = self.fanout;
                let right_id = self.nodes.len();
                let detached = match &mut self.nodes[id] {
                    Node::Leaf { entries, next, .. } => {
                        if entries.len() > fanout {
                            let mid = entries.len() / 2;
                            let right_entries = entries.split_off(mid);
                            let old_next = *next;
                            *next = Some(right_id);
                            Some((right_entries, old_next))
                        } else {
                            None
                        }
                    }
                    _ => unreachable!(),
                };
                let split = detached.map(|(right_entries, old_next)| {
                    let sep = right_entries[0];
                    self.nodes.push(Node::Leaf {
                        entries: right_entries,
                        prev: Some(id),
                        next: old_next,
                    });
                    if let Some(onx) = old_next {
                        if let Node::Leaf { prev, .. } = &mut self.nodes[onx] {
                            *prev = Some(right_id);
                        }
                        self.stats.record_write();
                    }
                    self.stats.record_write();
                    (sep, right_id)
                });
                (split, pred, succ)
            }
            Node::Inner { seps, children } => {
                let idx = seps.partition_point(|s| cmp(*s, e) == Ordering::Less);
                let child = children[idx];
                let (split, pred, succ) = self.insert_rec(child, cmp, e);
                let up = if let Some((sep, right)) = split {
                    match &mut self.nodes[id] {
                        Node::Inner { seps, children } => {
                            let idx = seps.partition_point(|s| cmp(*s, sep) == Ordering::Less);
                            seps.insert(idx, sep);
                            children.insert(idx + 1, right);
                            self.stats.record_write();
                            if seps.len() > self.fanout {
                                let mid = seps.len() / 2;
                                let up_sep = seps[mid];
                                let right_seps = seps.split_off(mid + 1);
                                seps.pop();
                                let right_children = children.split_off(mid + 1);
                                self.nodes.push(Node::Inner {
                                    seps: right_seps,
                                    children: right_children,
                                });
                                self.stats.record_write();
                                Some((up_sep, self.nodes.len() - 1))
                            } else {
                                None
                            }
                        }
                        _ => unreachable!(),
                    }
                } else {
                    None
                };
                (up, pred, succ)
            }
        }
    }

    /// Descend to the leaf holding the first entry whose class under
    /// `classify` is not `Less`; returns (leaf id, position).
    fn lower_bound(&self, classify: &impl Fn(E) -> Ordering) -> (NodeId, usize) {
        let mut id = self.root;
        loop {
            self.stats.record_read();
            match &self.nodes[id] {
                Node::Inner { seps, children } => {
                    let idx = seps.partition_point(|s| classify(*s) == Ordering::Less);
                    id = children[idx];
                }
                Node::Leaf { entries, .. } => {
                    let pos = entries.partition_point(|e| classify(*e) == Ordering::Less);
                    return (id, pos);
                }
            }
        }
    }

    /// First entry in the `Equal` class (None when the class is empty).
    pub fn first_in_class(&self, classify: &impl Fn(E) -> Ordering) -> Option<E> {
        let (mut leaf, mut pos) = self.lower_bound(classify);
        loop {
            match &self.nodes[leaf] {
                Node::Leaf { entries, next, .. } => {
                    if pos < entries.len() {
                        let e = entries[pos];
                        return (classify(e) == Ordering::Equal).then_some(e);
                    }
                    match next {
                        Some(n) => {
                            leaf = *n;
                            pos = 0;
                            self.stats.record_read();
                        }
                        None => return None,
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    /// Last entry in the `Equal` class.
    pub fn last_in_class(&self, classify: &impl Fn(E) -> Ordering) -> Option<E> {
        // descend to the first entry classified Greater, then step back
        let upper = |e: E| match classify(e) {
            Ordering::Greater => Ordering::Greater,
            _ => Ordering::Less,
        };
        let (mut leaf, mut pos) = self.lower_bound(&upper);
        loop {
            match &self.nodes[leaf] {
                Node::Leaf { entries, prev, .. } => {
                    if pos > 0 {
                        let e = entries[pos - 1];
                        return (classify(e) == Ordering::Equal).then_some(e);
                    }
                    match prev {
                        Some(p) => {
                            self.stats.record_read();
                            leaf = *p;
                            pos = match &self.nodes[leaf] {
                                Node::Leaf { entries, .. } => entries.len(),
                                _ => unreachable!(),
                            };
                        }
                        None => return None,
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    /// Every entry in the `Equal` class, in tree order.
    pub fn collect_class(&self, classify: &impl Fn(E) -> Ordering) -> Vec<E> {
        let mut out = Vec::new();
        let (mut leaf, mut pos) = self.lower_bound(classify);
        loop {
            match &self.nodes[leaf] {
                Node::Leaf { entries, next, .. } => {
                    while pos < entries.len() {
                        match classify(entries[pos]) {
                            Ordering::Less => {}
                            Ordering::Equal => out.push(entries[pos]),
                            Ordering::Greater => return out,
                        }
                        pos += 1;
                    }
                    match next {
                        Some(n) => {
                            leaf = *n;
                            pos = 0;
                            self.stats.record_read();
                        }
                        None => return out,
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    /// Like [`collect_class`](Self::collect_class), but abandons the walk
    /// (returning `None`) as soon as the class exceeds `limit` entries.
    /// Callers that only want to *scan* small classes use this to bound
    /// their worst case at `limit` entries' worth of leaf reads.
    pub fn collect_class_bounded(
        &self,
        classify: &impl Fn(E) -> Ordering,
        limit: usize,
    ) -> Option<Vec<E>> {
        let mut out = Vec::new();
        let (mut leaf, mut pos) = self.lower_bound(classify);
        loop {
            match &self.nodes[leaf] {
                Node::Leaf { entries, next, .. } => {
                    while pos < entries.len() {
                        match classify(entries[pos]) {
                            Ordering::Less => {}
                            Ordering::Equal => {
                                if out.len() == limit {
                                    return None;
                                }
                                out.push(entries[pos]);
                            }
                            Ordering::Greater => return Some(out),
                        }
                        pos += 1;
                    }
                    match next {
                        Some(n) => {
                            leaf = *n;
                            pos = 0;
                            self.stats.record_read();
                        }
                        None => return Some(out),
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    /// Count of entries in the `Equal` class without materializing them.
    pub fn count_class(&self, classify: &impl Fn(E) -> Ordering) -> usize {
        let mut n = 0;
        let (mut leaf, mut pos) = self.lower_bound(classify);
        loop {
            match &self.nodes[leaf] {
                Node::Leaf { entries, next, .. } => {
                    while pos < entries.len() {
                        match classify(entries[pos]) {
                            Ordering::Less => {}
                            Ordering::Equal => n += 1,
                            Ordering::Greater => return n,
                        }
                        pos += 1;
                    }
                    match next {
                        Some(nx) => {
                            leaf = *nx;
                            pos = 0;
                            self.stats.record_read();
                        }
                        None => return n,
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    /// Every entry in tree order (test helper).
    pub fn iter_all(&self) -> Vec<E> {
        let mut id = self.root;
        while let Node::Inner { children, .. } = &self.nodes[id] {
            id = children[0];
        }
        let mut out = Vec::with_capacity(self.len);
        loop {
            match &self.nodes[id] {
                Node::Leaf { entries, next, .. } => {
                    out.extend(entries.iter().copied());
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

impl<E: Copy> Default for SufBTree<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmp_u32(a: u32, b: u32) -> Ordering {
        a.cmp(&b)
    }

    /// Structural invariants every tree must hold, however it was built;
    /// returns the entries in leaf-chain order.
    fn check_invariants(t: &SufBTree<u32>) -> Vec<u32> {
        // Minimum of the subtree at `id`; checks separators on the way.
        fn subtree_min(t: &SufBTree<u32>, id: NodeId, depth: usize, leaf_depth: &mut usize) -> u32 {
            match &t.nodes[id] {
                Node::Leaf { entries, .. } => {
                    assert!(entries.len() <= t.fanout);
                    assert!(!entries.is_empty() || t.len == 0);
                    assert!(*leaf_depth == 0 || *leaf_depth == depth, "balanced");
                    *leaf_depth = depth;
                    entries.first().copied().unwrap_or(0)
                }
                Node::Inner { seps, children } => {
                    assert_eq!(children.len(), seps.len() + 1);
                    assert!(children.len() >= 2 && seps.len() <= t.fanout);
                    let mins: Vec<u32> = children
                        .iter()
                        .map(|&c| subtree_min(t, c, depth + 1, leaf_depth))
                        .collect();
                    assert_eq!(&mins[1..], seps.as_slice(), "sep = min of right subtree");
                    mins[0]
                }
            }
        }
        let mut leaf_depth = 0;
        subtree_min(t, t.root, 1, &mut leaf_depth);
        assert_eq!(leaf_depth, t.height());
        // forward chain == backward chain reversed
        let forward = t.iter_all();
        let mut id = t.root;
        while let Node::Inner { children, .. } = &t.nodes[id] {
            id = *children.last().unwrap();
        }
        let mut backward = Vec::new();
        loop {
            let Node::Leaf { entries, prev, .. } = &t.nodes[id] else {
                unreachable!()
            };
            backward.extend(entries.iter().rev().copied());
            match prev {
                Some(p) => id = *p,
                None => break,
            }
        }
        backward.reverse();
        assert_eq!(forward, backward);
        assert_eq!(forward.len(), t.len());
        forward
    }

    #[test]
    fn from_sorted_at_the_size_boundaries() {
        for fanout in [4usize, 5, 8] {
            let f = fanout;
            for n in [0, 1, f, f + 1, f * f, f * f + 1, f * f * (f + 1) + 1] {
                let input: Vec<u32> = (0..n as u32).map(|v| v * 3).collect();
                let mut t = SufBTree::from_sorted(fanout, &input);
                assert_eq!(check_invariants(&t), input, "n={n} fanout={fanout}");
                let emitted = if n == 0 { 0 } else { t.node_count() as u64 };
                assert_eq!(t.stats().writes(), emitted, "one write per node");
                // fewest leaves possible, so the height is minimal too
                let mut level = n.div_ceil(fanout).max(1);
                let mut height = 1;
                while level > 1 {
                    level = level.div_ceil(fanout + 1);
                    height += 1;
                }
                assert_eq!(t.height(), height, "n={n} fanout={fanout}");
                // packed nodes split like any other: interleave new keys
                let mut model = input.clone();
                for v in (0..n as u32).map(|v| v * 3 + 1).chain([u32::MAX]) {
                    let pos = model.partition_point(|&m| m < v);
                    let (pred, succ) = t.insert(&cmp_u32, v);
                    assert_eq!(pred, pos.checked_sub(1).map(|p| model[p]));
                    assert_eq!(succ, model.get(pos).copied());
                    model.insert(pos, v);
                }
                assert_eq!(check_invariants(&t), model, "after inserts, n={n}");
            }
        }
    }

    #[test]
    fn from_sorted_answers_class_queries_like_an_insert_grown_tree() {
        let input: Vec<u32> = (0..500).collect();
        let bulk = SufBTree::from_sorted(4, &input);
        let mut grown: SufBTree<u32> = SufBTree::with_fanout(4);
        for &v in input.iter().rev() {
            grown.insert(&cmp_u32, v);
        }
        for (lo, hi) in [
            (0, 0),
            (0, 1),
            (3, 4),
            (4, 5),
            (37, 90),
            (0, 500),
            (499, 500),
        ] {
            let classify = |e: u32| {
                if e < lo {
                    Ordering::Less
                } else if e < hi {
                    Ordering::Equal
                } else {
                    Ordering::Greater
                }
            };
            assert_eq!(
                bulk.first_in_class(&classify),
                grown.first_in_class(&classify)
            );
            assert_eq!(
                bulk.last_in_class(&classify),
                grown.last_in_class(&classify)
            );
            assert_eq!(
                bulk.collect_class(&classify),
                grown.collect_class(&classify)
            );
            assert_eq!(bulk.count_class(&classify), (hi - lo) as usize);
            assert_eq!(
                bulk.collect_class_bounded(&classify, 10),
                grown.collect_class_bounded(&classify, 10)
            );
        }
    }

    #[test]
    fn sorted_insert_and_iteration() {
        let mut t: SufBTree<u32> = SufBTree::with_fanout(4);
        for v in [5u32, 1, 9, 3, 7, 2, 8, 0, 6, 4] {
            t.insert(&cmp_u32, v);
        }
        assert_eq!(t.iter_all(), (0..10).collect::<Vec<u32>>());
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn insert_reports_neighbours() {
        let mut t: SufBTree<u32> = SufBTree::with_fanout(4);
        assert_eq!(t.insert(&cmp_u32, 50), (None, None));
        assert_eq!(t.insert(&cmp_u32, 10), (None, Some(50)));
        assert_eq!(t.insert(&cmp_u32, 90), (Some(50), None));
        assert_eq!(t.insert(&cmp_u32, 40), (Some(10), Some(50)));
        assert_eq!(t.insert(&cmp_u32, 45), (Some(40), Some(50)));
    }

    #[test]
    fn neighbours_across_leaf_boundaries() {
        let mut t: SufBTree<u32> = SufBTree::with_fanout(4);
        for v in 0..100u32 {
            t.insert(&cmp_u32, v * 2);
        }
        // 51 lands between 50 and 52, very likely in a split leaf landscape
        let (pred, succ) = t.insert(&cmp_u32, 51);
        assert_eq!(pred, Some(50));
        assert_eq!(succ, Some(52));
        assert!(t.height() > 1);
    }

    #[test]
    fn class_queries() {
        let mut t: SufBTree<u32> = SufBTree::with_fanout(4);
        for v in 0..200u32 {
            t.insert(&cmp_u32, v);
        }
        // class: Equal for [37, 90)
        let classify = |e: u32| {
            if e < 37 {
                Ordering::Less
            } else if e < 90 {
                Ordering::Equal
            } else {
                Ordering::Greater
            }
        };
        assert_eq!(t.first_in_class(&classify), Some(37));
        assert_eq!(t.last_in_class(&classify), Some(89));
        let all = t.collect_class(&classify);
        assert_eq!(all, (37..90).collect::<Vec<u32>>());
        assert_eq!(t.count_class(&classify), 53);
    }

    #[test]
    fn empty_class() {
        let mut t: SufBTree<u32> = SufBTree::with_fanout(4);
        for v in [10u32, 20, 30] {
            t.insert(&cmp_u32, v);
        }
        // the Equal band is empty: everything is strictly Less or Greater
        let classify = |e: u32| {
            if e < 15 {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        };
        assert_eq!(t.first_in_class(&classify), None);
        assert_eq!(t.last_in_class(&classify), None);
        assert!(t.collect_class(&classify).is_empty());
    }

    #[test]
    fn class_at_extremes() {
        let mut t: SufBTree<u32> = SufBTree::with_fanout(4);
        for v in 0..50u32 {
            t.insert(&cmp_u32, v);
        }
        let all = |_: u32| Ordering::Equal;
        assert_eq!(t.first_in_class(&all), Some(0));
        assert_eq!(t.last_in_class(&all), Some(49));
        assert_eq!(t.collect_class(&all).len(), 50);
        let none_low = |_: u32| Ordering::Greater;
        assert_eq!(t.first_in_class(&none_low), None);
        assert_eq!(t.last_in_class(&none_low), None);
        let none_high = |_: u32| Ordering::Less;
        assert_eq!(t.first_in_class(&none_high), None);
    }

    #[test]
    fn storage_and_stats() {
        let mut t: SufBTree<u32> = SufBTree::with_fanout(8);
        for v in 0..1000u32 {
            t.insert(&cmp_u32, v);
        }
        assert!(t.storage_bytes(8) > 8000);
        t.stats().reset();
        let classify = |e: u32| {
            if e < 500 {
                Ordering::Less
            } else if e == 500 {
                Ordering::Equal
            } else {
                Ordering::Greater
            }
        };
        let _ = t.first_in_class(&classify);
        assert!(t.stats().reads() >= t.height() as u64);
    }
}
