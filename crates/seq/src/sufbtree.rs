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
//!
//! Every entry also carries a key `K`, kept in its leaf beside the entries
//! (not inside them, so a filter on keys reads only keys), and an inner
//! node keeps, per child, the largest key below it: [`SufBTree::visit_class`]
//! filters a class on a key range and skips every subtree whose keys all
//! fall below it.  The SBC-tree keys its suffixes on the packed run that
//! precedes them, which makes that walk its 3-sided query; the String
//! B-tree's key is `()`, which takes no space and filters nothing.

use std::cmp::Ordering;
use std::ops::RangeInclusive;

use bdbms_common::stats::AccessStats;
use bdbms_index::pack::packed_sizes;

type NodeId = usize;

/// The key a [`SufBTree`] keeps beside each entry.
pub trait Key: Copy + Ord {
    /// Every key.
    const ALL: RangeInclusive<Self>;

    /// `keys.contains(&self)` for a non-empty `keys`, in one comparison
    /// (so a loop can test keys without branching).
    fn within(self, keys: &RangeInclusive<Self>) -> bool;
}

impl Key for () {
    const ALL: RangeInclusive<()> = ()..=();

    fn within(self, _: &RangeInclusive<()>) -> bool {
        true
    }
}

impl Key for u32 {
    const ALL: RangeInclusive<u32> = 0..=u32::MAX;

    fn within(self, keys: &RangeInclusive<u32>) -> bool {
        self.wrapping_sub(*keys.start()) <= keys.end().wrapping_sub(*keys.start())
    }
}

/// A child pointer and the largest key in the child's subtree.
#[derive(Clone, Copy)]
struct Child<K> {
    id: NodeId,
    max: K,
}

enum Node<E, K> {
    Inner {
        seps: Vec<E>,
        children: Vec<Child<K>>,
    },
    /// `keys[i]` is the key of `entries[i]`.
    Leaf { entries: Vec<E>, keys: Vec<K> },
}

/// B+-tree over suffix references with an external comparator, each
/// entry with a key `K`.
pub struct SufBTree<E: Copy, K: Key = ()> {
    nodes: Vec<Node<E, K>>,
    root: NodeId,
    fanout: usize,
    len: usize,
    stats: AccessStats,
}

impl<E: Copy, K: Key> SufBTree<E, K> {
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
                keys: Vec::new(),
            }],
            root: 0,
            fanout,
            len: 0,
            stats: AccessStats::new(),
        }
    }

    /// Bottom-up load of `entries` with their keys, already sorted under
    /// the total order later `insert`s and classifiers use: full leaves,
    /// and every separator the minimum of the subtree to its right (the
    /// rule `insert` maintains, so every query and later insert behaves
    /// as on an insert-grown tree).  One logical write per node.
    pub fn from_sorted(fanout: usize, entries: &[(E, K)]) -> Self {
        let mut tree = Self::with_fanout(fanout);
        if entries.is_empty() {
            return tree;
        }
        tree.len = entries.len();
        tree.nodes.clear();
        // (minimum of the subtree, pointer to it) for the level being
        // grouped
        let mut level: Vec<(E, Child<K>)> = Vec::with_capacity(entries.len().div_ceil(fanout));
        let mut rest = entries;
        for size in packed_sizes(entries.len(), fanout) {
            let (leaf, tail) = rest.split_at(size);
            rest = tail;
            let node = Node::Leaf {
                entries: leaf.iter().map(|&(e, _)| e).collect(),
                keys: leaf.iter().map(|&(_, k)| k).collect(),
            };
            level.push((leaf[0].0, tree.push(node)));
        }
        while level.len() > 1 {
            let mut up = Vec::with_capacity(level.len().div_ceil(fanout + 1));
            let mut rest = level.as_slice();
            for size in packed_sizes(level.len(), fanout + 1) {
                let (group, tail) = rest.split_at(size);
                rest = tail;
                let node = Node::Inner {
                    seps: group[1..].iter().map(|&(min, _)| min).collect(),
                    children: group.iter().map(|&(_, child)| child).collect(),
                };
                up.push((group[0].0, tree.push(node)));
            }
            level = up;
        }
        tree.root = level[0].1.id;
        tree
    }

    /// Bottom-up load from a stored [`order`](Self::order): `numbered`
    /// lists every entry with its key, entry `n` under number `n`, and
    /// `order` lists their numbers in tree order.  `None` unless `order`
    /// is a permutation of `0..numbered.len()`; that it is the tree order
    /// is not checked here ([`is_ordered`](Self::is_ordered) does).
    pub fn from_order(fanout: usize, numbered: &[(E, K)], order: &[u32]) -> Option<Self> {
        if order.len() != numbered.len() {
            return None;
        }
        let mut seen = vec![false; numbered.len()];
        let mut sorted = Vec::with_capacity(order.len());
        for &n in order {
            if std::mem::replace(seen.get_mut(n as usize)?, true) {
                return None;
            }
            sorted.push(numbered[n as usize]);
        }
        Some(Self::from_sorted(fanout, &sorted))
    }

    /// The tree order as numbers: `number(e)` for each entry in tree
    /// order, leaving out the entries it numbers `None`.  Each run of
    /// neighbours that `tied` says are tied is listed by ascending
    /// number, the order a tree that breaks those ties on the numbers
    /// keeps.
    pub fn order(
        &self,
        number: impl Fn(E) -> Option<u32>,
        tied: impl Fn(E, E) -> bool,
    ) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        // where the current run of tied entries starts in `out`
        let mut run = 0;
        let mut prev = None;
        self.for_each(|e| {
            let Some(n) = number(e) else { return };
            if !prev.is_some_and(|p| tied(p, e)) {
                if out.len() - run > 1 {
                    out[run..].sort_unstable();
                }
                run = out.len();
            }
            prev = Some(e);
            out.push(n);
        });
        out[run..].sort_unstable();
        out
    }

    /// Whether the entries ascend strictly under `cmp` in tree order.
    pub fn is_ordered(&self, cmp: impl Fn(E, E) -> Ordering) -> bool {
        let (mut ordered, mut prev) = (true, None);
        self.for_each(|e| {
            ordered &= prev.is_none_or(|p| cmp(p, e) == Ordering::Less);
            prev = Some(e);
        });
        ordered
    }

    /// Visit every entry in tree order.
    pub fn for_each(&self, mut visit: impl FnMut(E)) {
        self.for_each_below(self.root, &mut visit);
    }

    fn for_each_below(&self, id: NodeId, visit: &mut impl FnMut(E)) {
        self.stats.record_read();
        match &self.nodes[id] {
            Node::Leaf { entries, .. } => entries.iter().for_each(|&e| visit(e)),
            Node::Inner { children, .. } => {
                for c in children {
                    self.for_each_below(c.id, visit);
                }
            }
        }
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
        while let Node::Inner { children, .. } = &self.nodes[id] {
            id = children[0].id;
            h += 1;
        }
        h
    }

    /// Estimated storage footprint: a 16-byte header per node,
    /// `entry_bytes` per entry (leaf entries with their keys, and inner
    /// separators), and per child an 8-byte pointer plus
    /// `size_of::<K>()` for the largest key below it.
    pub fn storage_bytes(&self, entry_bytes: usize) -> usize {
        let child_bytes = 8 + std::mem::size_of::<K>();
        self.nodes
            .iter()
            .map(|n| {
                16 + match n {
                    Node::Inner { seps, children } => {
                        seps.len() * entry_bytes + children.len() * child_bytes
                    }
                    Node::Leaf { entries, .. } => entries.len() * entry_bytes,
                }
            })
            .sum()
    }

    /// Pointer to node `id`, which is not empty, with the largest key
    /// below it.
    fn child(&self, id: NodeId) -> Child<K> {
        let max = match &self.nodes[id] {
            Node::Leaf { keys, .. } => keys.iter().copied().max(),
            Node::Inner { children, .. } => children.iter().map(|c| c.max).max(),
        };
        Child {
            id,
            max: max.expect("only an empty tree's root is empty"),
        }
    }

    /// Append `node` (one logical write) and point at it.
    fn push(&mut self, node: Node<E, K>) -> Child<K> {
        self.nodes.push(node);
        self.stats.record_write();
        self.child(self.nodes.len() - 1)
    }

    /// Insert `e`, with key `key`, under total order `cmp`.
    pub fn insert(&mut self, cmp: &impl Fn(E, E) -> Ordering, e: E, key: K) {
        if let Some((sep, right)) = self.insert_rec(self.root, cmp, e, key) {
            let left = self.child(self.root);
            self.root = self
                .push(Node::Inner {
                    seps: vec![sep],
                    children: vec![left, right],
                })
                .id;
        }
        self.len += 1;
    }

    /// Insert `e` below node `id`, raising the largest key on the path.
    /// When the node overflows it splits: the right half goes to a new
    /// node, returned with its minimum.
    fn insert_rec(
        &mut self,
        id: NodeId,
        cmp: &impl Fn(E, E) -> Ordering,
        e: E,
        key: K,
    ) -> Option<(E, Child<K>)> {
        self.stats.record_read();
        let fanout = self.fanout;
        let (sep, right) = match &mut self.nodes[id] {
            Node::Leaf { entries, keys } => {
                let pos = entries.partition_point(|x| cmp(*x, e) == Ordering::Less);
                entries.insert(pos, e);
                keys.insert(pos, key);
                self.stats.record_write();
                if entries.len() <= fanout {
                    return None;
                }
                let mid = entries.len() / 2;
                let right = (entries.split_off(mid), keys.split_off(mid));
                // the insert that overflowed doubled the left half's
                // capacity; a leaf never holds more than `fanout`
                entries.shrink_to(fanout);
                keys.shrink_to(fanout);
                let (entries, keys) = right;
                (entries[0], Node::Leaf { entries, keys })
            }
            Node::Inner { seps, children } => {
                let idx = seps.partition_point(|s| cmp(*s, e) == Ordering::Less);
                let child = &mut children[idx];
                child.max = child.max.max(key);
                let child_id = child.id;
                let (sep, right) = self.insert_rec(child_id, cmp, e, key)?;
                // the child split: its largest key is looked up again
                let left = self.child(child_id);
                let Node::Inner { seps, children } = &mut self.nodes[id] else {
                    unreachable!("node {id} was inner a moment ago")
                };
                children[idx] = left;
                seps.insert(idx, sep);
                children.insert(idx + 1, right);
                self.stats.record_write();
                if seps.len() <= fanout {
                    return None;
                }
                let mid = seps.len() / 2;
                let right_seps = seps.split_off(mid + 1);
                let up = seps.pop().expect("an overfull node has a middle separator");
                let right_children = children.split_off(mid + 1);
                (
                    up,
                    Node::Inner {
                        seps: right_seps,
                        children: right_children,
                    },
                )
            }
        };
        Some((sep, self.push(right)))
    }

    /// Visit, in tree order, every entry of the `Equal` class whose key is
    /// in `keys`.  `classify` runs only on the two boundary descents (to
    /// the class's first and last leaves), never on the entries between
    /// them, and a subtree whose largest key is below the range is skipped
    /// unread.  `keys` must not be empty.
    pub fn visit_class(
        &self,
        classify: &impl Fn(E) -> Ordering,
        keys: RangeInclusive<K>,
        visit: &mut impl FnMut(E),
    ) {
        assert!(keys.start() <= keys.end(), "an empty key range");
        self.visit_rec(self.root, classify, &keys, (true, true), visit);
    }

    /// [`visit_class`](Self::visit_class) below node `id`; `edges` says
    /// whether the node lies on the lower and on the upper boundary
    /// descent (off them, every entry is in the class).
    fn visit_rec(
        &self,
        id: NodeId,
        classify: &impl Fn(E) -> Ordering,
        keys: &RangeInclusive<K>,
        edges: (bool, bool),
        visit: &mut impl FnMut(E),
    ) {
        self.stats.record_read();
        // the class's slice of a sorted run of entries (or separators)
        let bounds = |items: &[E]| {
            let lo = match edges.0 {
                true => items.partition_point(|x| classify(*x) == Ordering::Less),
                false => 0,
            };
            let hi = match edges.1 {
                true => items.partition_point(|x| classify(*x) != Ordering::Greater),
                false => items.len(),
            };
            (lo, hi)
        };
        match &self.nodes[id] {
            Node::Leaf { entries, keys: ks } => {
                let (lo, hi) = bounds(entries);
                // keys are tested eight at a time without a branch (a
                // branch per key mispredicts on every other key when half
                // the class lies just outside the range); only the entries
                // of keys in range are read
                let blocks = ks[lo..hi].chunks_exact(8);
                let rest = lo + blocks.len() * 8;
                for (at, block) in (lo..).step_by(8).zip(blocks) {
                    let mut marked = 0u8;
                    for (i, k) in block.iter().enumerate() {
                        marked |= (k.within(keys) as u8) << i;
                    }
                    while marked != 0 {
                        visit(entries[at + marked.trailing_zeros() as usize]);
                        marked &= marked - 1;
                    }
                }
                for (i, k) in ks.iter().enumerate().take(hi).skip(rest) {
                    if k.within(keys) {
                        visit(entries[i]);
                    }
                }
            }
            Node::Inner { seps, children } => {
                // child `i` holds the entries between separators `i - 1`
                // and `i`
                let (lo, hi) = bounds(seps);
                for (i, c) in children.iter().enumerate().take(hi + 1).skip(lo) {
                    if c.max >= *keys.start() {
                        let edges = (edges.0 && i == lo, edges.1 && i == hi);
                        self.visit_rec(c.id, classify, keys, edges, visit);
                    }
                }
            }
        }
    }

    /// Every entry in the `Equal` class, in tree order.
    pub fn collect_class(&self, classify: &impl Fn(E) -> Ordering) -> Vec<E> {
        let mut out = Vec::new();
        self.visit_class(classify, K::ALL, &mut |e| out.push(e));
        out
    }
}

impl<E: Copy, K: Key> Default for SufBTree<E, K> {
    fn default() -> Self {
        Self::new()
    }
}

/// Where each kept text's suffixes start when the suffixes of the texts
/// `kept` are numbered in `kept`'s order, text after text: indexed by
/// text id, `None` for a text not kept, out of `texts`; `suffixes(id)`
/// counts text `id`'s suffixes.
pub fn suffix_starts(
    texts: usize,
    kept: &[u32],
    suffixes: impl Fn(usize) -> usize,
) -> Vec<Option<u32>> {
    let mut starts = vec![None; texts];
    let mut next = 0;
    for &id in kept {
        starts[id as usize] = Some(next);
        next += suffixes(id as usize) as u32;
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;

    type Tree = SufBTree<u32, u32>;

    /// An entry's key: scattered, so neither the first nor the last entry
    /// of a node holds its largest key.
    fn key(v: u32) -> u32 {
        v.wrapping_mul(37) % 101
    }

    fn insert(t: &mut Tree, v: u32) {
        t.insert(&cmp_u32, v, key(v));
    }

    fn load(fanout: usize, entries: &[u32]) -> Tree {
        let keyed: Vec<(u32, u32)> = entries.iter().map(|&v| (v, key(v))).collect();
        Tree::from_sorted(fanout, &keyed)
    }

    /// `visit_class`'s answer.
    fn visit(t: &Tree, classify: &impl Fn(u32) -> Ordering, keys: RangeInclusive<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        t.visit_class(classify, keys, &mut |e| out.push(e));
        out
    }

    fn cmp_u32(a: u32, b: u32) -> Ordering {
        a.cmp(&b)
    }

    /// `Equal` for `lo <= e < hi`.
    fn band(lo: u32, hi: u32) -> impl Fn(u32) -> Ordering {
        move |e| {
            if e < lo {
                Ordering::Less
            } else if e < hi {
                Ordering::Equal
            } else {
                Ordering::Greater
            }
        }
    }

    fn all(t: &Tree) -> Vec<u32> {
        t.collect_class(&|_| Ordering::Equal)
    }

    /// Structural invariants every tree must hold, however it was built;
    /// returns the entries in tree order.
    fn check_invariants(t: &Tree) -> Vec<u32> {
        // (minimum entry, largest key) of the subtree at `id`; checks
        // separators and the kept maxima on the way.
        fn subtree(t: &Tree, id: NodeId, depth: usize, leaf_depth: &mut usize) -> (u32, u32) {
            match &t.nodes[id] {
                Node::Leaf { entries, keys } => {
                    let want: Vec<u32> = entries.iter().map(|&v| key(v)).collect();
                    assert_eq!(keys, &want, "each entry's key beside it");
                    assert!(entries.len() <= t.fanout);
                    assert!(!entries.is_empty() || t.len == 0);
                    assert!(*leaf_depth == 0 || *leaf_depth == depth, "balanced");
                    *leaf_depth = depth;
                    let first = entries.first().copied().unwrap_or(0);
                    (first, keys.iter().copied().max().unwrap_or(0))
                }
                Node::Inner { seps, children } => {
                    assert_eq!(children.len(), seps.len() + 1);
                    assert!(children.len() >= 2 && seps.len() <= t.fanout);
                    let spans: Vec<(u32, u32)> = children
                        .iter()
                        .map(|c| {
                            let span = subtree(t, c.id, depth + 1, leaf_depth);
                            assert_eq!(c.max, span.1, "kept max = largest key below");
                            span
                        })
                        .collect();
                    let mins: Vec<u32> = spans.iter().map(|s| s.0).collect();
                    assert_eq!(&mins[1..], seps.as_slice(), "sep = min of right subtree");
                    (mins[0], spans.iter().map(|s| s.1).max().unwrap())
                }
            }
        }
        let mut leaf_depth = 0;
        subtree(t, t.root, 1, &mut leaf_depth);
        assert_eq!(leaf_depth, t.height());
        let entries = all(t);
        assert!(entries.windows(2).all(|w| w[0] < w[1]), "tree order");
        assert_eq!(entries.len(), t.len());
        entries
    }

    #[test]
    fn from_sorted_at_the_size_boundaries() {
        for fanout in [4usize, 5, 8] {
            let f = fanout;
            for n in [0, 1, f, f + 1, f * f, f * f + 1, f * f * (f + 1) + 1] {
                let input: Vec<u32> = (0..n as u32).map(|v| v * 3).collect();
                let mut t = load(fanout, &input);
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
                    insert(&mut t, v);
                    let pos = model.partition_point(|&m| m < v);
                    model.insert(pos, v);
                }
                assert_eq!(check_invariants(&t), model, "after inserts, n={n}");
            }
        }
    }

    #[test]
    fn from_sorted_answers_class_queries_like_an_insert_grown_tree() {
        let input: Vec<u32> = (0..500).collect();
        let bulk = load(4, &input);
        let mut grown = Tree::with_fanout(4);
        for &v in input.iter().rev() {
            insert(&mut grown, v);
        }
        check_invariants(&grown);
        for (lo, hi) in [
            (0, 0),
            (0, 1),
            (3, 4),
            (4, 5),
            (37, 90),
            (0, 500),
            (499, 500),
        ] {
            let classify = band(lo, hi);
            let want: Vec<u32> = (lo..hi).collect();
            assert_eq!(bulk.collect_class(&classify), want);
            assert_eq!(grown.collect_class(&classify), want);
            for keys in [0..=u32::MAX, 40..=60, 89..=89, 95..=1000, 101..=200] {
                let want: Vec<u32> = (lo..hi).filter(|&v| keys.contains(&key(v))).collect();
                assert_eq!(
                    visit(&bulk, &classify, keys.clone()),
                    want,
                    "bulk [{lo}, {hi})"
                );
                assert_eq!(visit(&grown, &classify, keys), want, "grown [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn an_order_round_trips_and_a_non_permutation_is_refused() {
        // entries numbered in reverse: entry `n` is `99 - n`
        let numbered: Vec<(u32, u32)> = (0..100u32).rev().map(|v| (v, key(v))).collect();
        let tree = load(4, &(0..100).collect::<Vec<u32>>());
        let order = tree.order(|e| Some(99 - e), |_, _| false);
        assert_eq!(order, (0..100).rev().collect::<Vec<u32>>());
        let loaded = Tree::from_order(4, &numbered, &order).unwrap();
        assert_eq!(check_invariants(&loaded), all(&tree));
        assert!(loaded.is_ordered(cmp_u32));
        // left out, and tied runs listed by number
        let even = tree.order(|e| (e % 2 == 0).then_some(e), |a, b| a / 10 == b / 10);
        assert_eq!(even, (0..100).step_by(2).collect::<Vec<u32>>());
        let by_tens = tree.order(|e| Some(99 - e), |a, b| a / 10 == b / 10);
        assert_eq!(by_tens[..10], (90..100).collect::<Vec<u32>>());
        let mut bad = order.clone();
        bad.swap(3, 4);
        assert!(!Tree::from_order(4, &numbered, &bad)
            .unwrap()
            .is_ordered(cmp_u32));
        for bad in [&order[1..], &[order.as_slice(), &[0]].concat()] {
            assert!(
                Tree::from_order(4, &numbered, bad).is_none(),
                "wrong length"
            );
        }
        let (mut repeated, mut outside) = (order.clone(), order.clone());
        repeated[1] = repeated[0];
        outside[0] = 100;
        assert!(Tree::from_order(4, &numbered, &repeated).is_none());
        assert!(Tree::from_order(4, &numbered, &outside).is_none());
    }

    #[test]
    fn sorted_insert_and_iteration() {
        let mut t = Tree::with_fanout(4);
        for v in [5u32, 1, 9, 3, 7, 2, 8, 0, 6, 4] {
            insert(&mut t, v);
        }
        assert_eq!(all(&t), (0..10).collect::<Vec<u32>>());
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn insert_raises_the_maxima_on_its_path() {
        // keys arrive out of order, so some inserts raise a kept maximum
        // and others land below it
        let mut t = Tree::with_fanout(4);
        for v in [50u32, 10, 90, 40, 45, 95, 5, 60, 70, 20, 99, 1] {
            insert(&mut t, v);
            check_invariants(&t);
        }
        assert!(
            t.height() > 1,
            "twelve entries at fanout 4 need an inner root"
        );
    }

    #[test]
    fn a_split_recomputes_both_halves_maxima() {
        let mut t = Tree::with_fanout(4);
        for v in 0..100u32 {
            insert(&mut t, v * 2);
            check_invariants(&t);
        }
        // descending inserts split the leftmost nodes over and over
        for v in (0..100u32).rev() {
            insert(&mut t, v * 2 + 1);
            check_invariants(&t);
        }
        assert_eq!(all(&t), (0..200).collect::<Vec<u32>>());
        assert!(t.height() > 2);
    }

    #[test]
    fn class_queries() {
        let mut t = Tree::with_fanout(4);
        for v in 0..200u32 {
            insert(&mut t, v);
        }
        let classify = band(37, 90);
        let every = t.collect_class(&classify);
        assert_eq!(every, (37..90).collect::<Vec<u32>>());
        t.stats().reset();
        let top = visit(&t, &classify, 95..=u32::MAX);
        let want: Vec<u32> = (37..90).filter(|&v| key(v) >= 95).collect();
        assert_eq!((top.len(), top), (3, want));
        let pruned = t.stats().reads();
        t.stats().reset();
        t.collect_class(&classify);
        assert!(
            pruned * 2 < t.stats().reads(),
            "pruned walk {pruned} reads vs {}",
            t.stats().reads()
        );
    }

    #[test]
    fn empty_class() {
        let mut t = Tree::with_fanout(4);
        for v in [10u32, 20, 30] {
            insert(&mut t, v);
        }
        // the Equal band is empty: everything is strictly Less or Greater
        let classify = |e: u32| {
            if e < 15 {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        };
        assert!(t.collect_class(&classify).is_empty());
        assert!(t.collect_class(&band(11, 20)).is_empty());
    }

    #[test]
    fn class_at_extremes() {
        let mut t = Tree::with_fanout(4);
        for v in 0..50u32 {
            insert(&mut t, v);
        }
        assert_eq!(all(&t), (0..50).collect::<Vec<u32>>());
        assert!(t.collect_class(&|_| Ordering::Greater).is_empty());
        assert!(t.collect_class(&|_| Ordering::Less).is_empty());
        let all_keys = |_| Ordering::Equal;
        assert!(
            visit(&t, &all_keys, 101..=u32::MAX).is_empty(),
            "no key reaches 101"
        );
        assert_eq!(visit(&t, &all_keys, 0..=0), vec![0]);
    }

    #[test]
    fn storage_and_stats() {
        let mut t = Tree::with_fanout(8);
        for v in 0..1000u32 {
            insert(&mut t, v);
        }
        assert!(t.storage_bytes(8) > 8000);
        t.stats().reset();
        let _ = t.collect_class(&band(500, 501));
        assert!(t.stats().reads() >= t.height() as u64);
    }
}
