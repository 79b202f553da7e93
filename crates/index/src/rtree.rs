//! A 2-D R-tree with quadratic split.
//!
//! Two roles in the reproduction:
//!
//! 1. the *spatial baseline* SP-GiST is compared against (§7.1 cites
//!    experiments showing space-partitioning trees beating R-trees for
//!    several operations), and
//! 2. the *3-sided range structure* inside the SBC-tree — the paper says
//!    *"The SBC-tree index is prototyped in PostgreSQL with an R-tree in
//!    place of the 3-sided structure"*, and we make the same substitution
//!    via [`RTree::three_sided`].

use bdbms_common::stats::AccessStats;

use crate::pack::packed_sizes;

/// Axis-aligned rectangle (degenerate rectangles are points).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Minimum corner `(x, y)`.
    pub min: [f64; 2],
    /// Maximum corner `(x, y)`.
    pub max: [f64; 2],
}

impl Rect {
    /// A point rectangle.
    pub fn point(x: f64, y: f64) -> Rect {
        Rect {
            min: [x, y],
            max: [x, y],
        }
    }

    /// Rectangle from corners (normalizing min/max).
    pub fn new(a: [f64; 2], b: [f64; 2]) -> Rect {
        Rect {
            min: [a[0].min(b[0]), a[1].min(b[1])],
            max: [a[0].max(b[0]), a[1].max(b[1])],
        }
    }

    /// Does `self` intersect `other` (boundaries inclusive)?
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min[0] <= other.max[0]
            && other.min[0] <= self.max[0]
            && self.min[1] <= other.max[1]
            && other.min[1] <= self.max[1]
    }

    /// Does `self` fully contain `other`?
    pub fn contains(&self, other: &Rect) -> bool {
        self.min[0] <= other.min[0]
            && self.min[1] <= other.min[1]
            && self.max[0] >= other.max[0]
            && self.max[1] >= other.max[1]
    }

    /// Smallest rectangle covering both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: [self.min[0].min(other.min[0]), self.min[1].min(other.min[1])],
            max: [self.max[0].max(other.max[0]), self.max[1].max(other.max[1])],
        }
    }

    /// Area (0 for points/lines).
    pub fn area(&self) -> f64 {
        (self.max[0] - self.min[0]) * (self.max[1] - self.min[1])
    }

    /// Growth in area needed to include `other`.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Minimum squared distance from a point to this rectangle.
    pub fn min_dist2(&self, p: [f64; 2]) -> f64 {
        let dx = (self.min[0] - p[0]).max(0.0).max(p[0] - self.max[0]);
        let dy = (self.min[1] - p[1]).max(0.0).max(p[1] - self.max[1]);
        dx * dx + dy * dy
    }
}

type NodeId = usize;

enum Node {
    Inner { entries: Vec<(Rect, NodeId)> },
    Leaf { entries: Vec<(Rect, u64)> },
}

impl Node {
    fn mbr(&self) -> Option<Rect> {
        match self {
            Node::Inner { entries } => entries.iter().map(|(r, _)| *r).reduce(|a, b| a.union(&b)),
            Node::Leaf { entries } => entries.iter().map(|(r, _)| *r).reduce(|a, b| a.union(&b)),
        }
    }
}

/// R-tree mapping rectangles to `u64` payloads.
pub struct RTree {
    nodes: Vec<Node>,
    root: NodeId,
    max_entries: usize,
    len: usize,
    stats: AccessStats,
}

impl RTree {
    /// Empty tree with default node capacity (realistic page fanout).
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// Empty tree with `max_entries` per node (min 4).
    pub fn with_capacity(max_entries: usize) -> Self {
        assert!(max_entries >= 4);
        RTree {
            nodes: vec![Node::Leaf {
                entries: Vec::new(),
            }],
            root: 0,
            max_entries,
            len: 0,
            stats: AccessStats::new(),
        }
    }

    /// Sort-Tile-Recursive bulk load (Leutenegger et al.): cut the items,
    /// taken in ascending x, into ~√(leaves) vertical slices, sort each
    /// slice by y and pack it into full leaves; then tile the leaves'
    /// rectangles the same way, level by level, up to one root.
    ///
    /// `items` must arrive in ascending order of x (rectangle centre) —
    /// only one slice is buffered at a time, so a caller whose x *is* a
    /// rank can stream them without materializing the set.  The order
    /// affects packing quality only: every bounding rectangle is computed
    /// from the node's actual contents, so queries are exact for any
    /// input order.  One logical write per node.
    pub fn bulk_load<I>(max_entries: usize, items: I) -> RTree
    where
        I: IntoIterator<Item = (Rect, u64)>,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        let mut tree = Self::with_capacity(max_entries);
        tree.len = items.len();
        if tree.len == 0 {
            return tree;
        }
        tree.nodes.clear();
        let mut level = tree.pack_level(items, |entries| Node::Leaf { entries });
        while level.len() > 1 {
            level.sort_unstable_by(|a, b| centre(&a.0, 0).total_cmp(&centre(&b.0, 0)));
            level = tree.pack_level(level.into_iter(), |entries| Node::Inner { entries });
        }
        tree.root = level[0].1;
        tree.stats.record_writes(tree.nodes.len() as u64);
        tree
    }

    /// One STR level: x-ordered `items` → packed nodes appended to the
    /// arena; returns each new node's bounding rectangle and id.
    fn pack_level<T>(
        &mut self,
        mut items: impl ExactSizeIterator<Item = (Rect, T)>,
        node: impl Fn(Vec<(Rect, T)>) -> Node,
    ) -> Vec<(Rect, NodeId)> {
        let cap = self.max_entries;
        let nodes = items.len().div_ceil(cap);
        let per_slice = (nodes as f64).sqrt().ceil() as usize * cap;
        let mut out = Vec::with_capacity(nodes);
        let mut slice: Vec<(Rect, T)> = Vec::new();
        for slice_len in packed_sizes(items.len(), per_slice) {
            slice.extend(items.by_ref().take(slice_len));
            slice.sort_unstable_by(|a, b| centre(&a.0, 1).total_cmp(&centre(&b.0, 1)));
            let mut rest = slice.drain(..);
            for size in packed_sizes(slice_len, cap) {
                let entries: Vec<(Rect, T)> = rest.by_ref().take(size).collect();
                out.push((mbr_of(&entries, |(r, _)| *r), self.nodes.len()));
                self.nodes.push(node(entries));
            }
        }
        out
    }

    /// Number of stored entries.
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

    /// Number of nodes (≈ pages).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Estimated storage footprint: 16-byte header + 40 bytes/entry
    /// (4 coordinates + payload/pointer).
    pub fn storage_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                16 + 40
                    * match n {
                        Node::Inner { entries } => entries.len(),
                        Node::Leaf { entries } => entries.len(),
                    }
            })
            .sum()
    }

    /// Insert `rect → payload`.
    pub fn insert(&mut self, rect: Rect, payload: u64) {
        if let Some((r1, n1, r2, n2)) = self.insert_rec(self.root, rect, payload) {
            self.nodes.push(Node::Inner {
                entries: vec![(r1, n1), (r2, n2)],
            });
            self.root = self.nodes.len() - 1;
            self.stats.record_write();
        }
        self.len += 1;
    }

    /// Returns the replacement pair on split.
    fn insert_rec(
        &mut self,
        id: NodeId,
        rect: Rect,
        payload: u64,
    ) -> Option<(Rect, NodeId, Rect, NodeId)> {
        self.stats.record_read();
        match &mut self.nodes[id] {
            Node::Leaf { entries } => {
                entries.push((rect, payload));
                self.stats.record_write();
                if entries.len() > self.max_entries {
                    return Some(self.split_leaf(id));
                }
                None
            }
            Node::Inner { entries } => {
                // choose subtree with least enlargement (ties: smaller area)
                let mut best = 0;
                let mut best_cost = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for (i, (r, _)) in entries.iter().enumerate() {
                    let cost = r.enlargement(&rect);
                    let area = r.area();
                    if cost < best_cost || (cost == best_cost && area < best_area) {
                        best = i;
                        best_cost = cost;
                        best_area = area;
                    }
                }
                let child = entries[best].1;
                entries[best].0 = entries[best].0.union(&rect);
                let split = self.insert_rec(child, rect, payload);
                if let Some((r1, n1, r2, n2)) = split {
                    if let Node::Inner { entries } = &mut self.nodes[id] {
                        // replace the split child's entry, add the new one
                        let pos = entries.iter().position(|(_, c)| *c == n1 || *c == child);
                        if let Some(pos) = pos {
                            entries[pos] = (r1, n1);
                        } else {
                            entries.push((r1, n1));
                        }
                        entries.push((r2, n2));
                        self.stats.record_write();
                        if entries.len() > self.max_entries {
                            return Some(self.split_inner(id));
                        }
                    }
                }
                None
            }
        }
    }

    /// Quadratic split of an overfull leaf.
    fn split_leaf(&mut self, id: NodeId) -> (Rect, NodeId, Rect, NodeId) {
        let entries = match &mut self.nodes[id] {
            Node::Leaf { entries } => std::mem::take(entries),
            _ => unreachable!(),
        };
        let (g1, g2) = quadratic_split(entries, self.max_entries, |(r, _)| *r);
        let r1 = mbr_of(&g1, |(r, _)| *r);
        let r2 = mbr_of(&g2, |(r, _)| *r);
        self.nodes[id] = Node::Leaf { entries: g1 };
        self.nodes.push(Node::Leaf { entries: g2 });
        self.stats.record_write();
        self.stats.record_write();
        (r1, id, r2, self.nodes.len() - 1)
    }

    /// Quadratic split of an overfull inner node.
    fn split_inner(&mut self, id: NodeId) -> (Rect, NodeId, Rect, NodeId) {
        let entries = match &mut self.nodes[id] {
            Node::Inner { entries } => std::mem::take(entries),
            _ => unreachable!(),
        };
        let (g1, g2) = quadratic_split(entries, self.max_entries, |(r, _)| *r);
        let r1 = mbr_of(&g1, |(r, _)| *r);
        let r2 = mbr_of(&g2, |(r, _)| *r);
        self.nodes[id] = Node::Inner { entries: g1 };
        self.nodes.push(Node::Inner { entries: g2 });
        self.stats.record_write();
        self.stats.record_write();
        (r1, id, r2, self.nodes.len() - 1)
    }

    /// Remove one `rect → payload` entry; `false` when there is none.
    /// Node bounds are left as they are: a bound still covers everything
    /// its node holds, so every search stays exact.
    pub fn remove(&mut self, rect: &Rect, payload: u64) -> bool {
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            self.stats.record_read();
            match &mut self.nodes[id] {
                Node::Inner { entries } => stack.extend(
                    entries
                        .iter()
                        .filter(|(r, _)| r.contains(rect))
                        .map(|&(_, child)| child),
                ),
                Node::Leaf { entries } => {
                    if let Some(pos) = entries.iter().position(|e| *e == (*rect, payload)) {
                        entries.remove(pos);
                        self.len -= 1;
                        self.stats.record_write();
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Every `(rect, payload)` entry, in no particular order (a linear
    /// walk of the leaves: no bound is consulted).
    pub fn entries(&self) -> impl Iterator<Item = &(Rect, u64)> {
        self.nodes.iter().flat_map(|n| match n {
            Node::Leaf { entries } => entries.as_slice(),
            Node::Inner { .. } => &[],
        })
    }

    /// All `(rect, payload)` entries intersecting `query`.
    pub fn search(&self, query: &Rect) -> Vec<(Rect, u64)> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            self.stats.record_read();
            match &self.nodes[id] {
                Node::Inner { entries } => {
                    for (r, c) in entries {
                        if r.intersects(query) {
                            stack.push(*c);
                        }
                    }
                }
                Node::Leaf { entries } => {
                    for (r, p) in entries {
                        if r.intersects(query) {
                            out.push((*r, *p));
                        }
                    }
                }
            }
        }
        out
    }

    /// 3-sided range query: `x ∈ [x_lo, x_hi]`, `y ≥ y_lo` (open above).
    ///
    /// This is the query shape the SBC-tree needs for its first-run filter;
    /// the paper substitutes an R-tree for the optimal 3-sided structure
    /// and so do we.
    pub fn three_sided(&self, x_lo: f64, x_hi: f64, y_lo: f64) -> Vec<(Rect, u64)> {
        self.search(&Rect {
            min: [x_lo, y_lo],
            max: [x_hi, f64::INFINITY],
        })
    }

    /// `k` nearest entries to point `p` (by rectangle min-distance),
    /// best-first search.
    pub fn knn(&self, p: [f64; 2], k: usize) -> Vec<(Rect, u64, f64)> {
        use std::collections::BinaryHeap;

        let mut out = Vec::new();
        if k == 0 {
            return out;
        }
        // Best-first: nodes enter the queue with their MBR min-distance,
        // leaf entries with their exact distance.
        struct HeapItem {
            dist: f64,
            node: Option<NodeId>,
            entry: Option<(Rect, u64)>,
        }
        impl PartialEq for HeapItem {
            fn eq(&self, o: &Self) -> bool {
                self.dist == o.dist
            }
        }
        impl Eq for HeapItem {}
        impl PartialOrd for HeapItem {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for HeapItem {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                // reversed for min-heap behaviour inside BinaryHeap
                o.dist.total_cmp(&self.dist)
            }
        }
        let mut pq: BinaryHeap<HeapItem> = BinaryHeap::new();
        pq.push(HeapItem {
            dist: 0.0,
            node: Some(self.root),
            entry: None,
        });
        while let Some(item) = pq.pop() {
            if let Some(id) = item.node {
                self.stats.record_read();
                match &self.nodes[id] {
                    Node::Inner { entries } => {
                        for (r, c) in entries {
                            pq.push(HeapItem {
                                dist: r.min_dist2(p),
                                node: Some(*c),
                                entry: None,
                            });
                        }
                    }
                    Node::Leaf { entries } => {
                        for (r, v) in entries {
                            pq.push(HeapItem {
                                dist: r.min_dist2(p),
                                node: None,
                                entry: Some((*r, *v)),
                            });
                        }
                    }
                }
            } else if let Some((r, v)) = item.entry {
                out.push((r, v, item.dist.sqrt()));
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }

    /// Bounding rectangle of everything stored (None when empty).
    pub fn bounds(&self) -> Option<Rect> {
        self.nodes[self.root].mbr()
    }
}

impl Default for RTree {
    fn default() -> Self {
        Self::new()
    }
}

/// Twice the centre of `r` along `axis` (only ever compared).
fn centre(r: &Rect, axis: usize) -> f64 {
    r.min[axis] + r.max[axis]
}

fn mbr_of<T>(items: &[T], rect: impl Fn(&T) -> Rect) -> Rect {
    items
        .iter()
        .map(rect)
        .reduce(|a, b| a.union(&b))
        .expect("split group is non-empty")
}

/// Guttman's quadratic split: pick the two seeds wasting the most area
/// together, then assign each remaining entry to the group whose MBR grows
/// least, keeping both groups above the minimum fill.
fn quadratic_split<T>(
    mut entries: Vec<T>,
    max_entries: usize,
    rect: impl Fn(&T) -> Rect,
) -> (Vec<T>, Vec<T>) {
    let min_fill = (max_entries / 3).max(1);
    // seeds
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in i + 1..entries.len() {
            let d = rect(&entries[i]).union(&rect(&entries[j])).area()
                - rect(&entries[i]).area()
                - rect(&entries[j]).area();
            if d > worst {
                worst = d;
                s1 = i;
                s2 = j;
            }
        }
    }
    let e2 = entries.remove(s2.max(s1));
    let e1 = entries.remove(s1.min(s2));
    let mut r1 = rect(&e1);
    let mut r2 = rect(&e2);
    let mut g1 = vec![e1];
    let mut g2 = vec![e2];
    while let Some(e) = entries.pop() {
        let remaining = entries.len();
        if g1.len() + remaining < min_fill {
            r1 = r1.union(&rect(&e));
            g1.push(e);
            continue;
        }
        if g2.len() + remaining < min_fill {
            r2 = r2.union(&rect(&e));
            g2.push(e);
            continue;
        }
        let c1 = r1.enlargement(&rect(&e));
        let c2 = r2.enlargement(&rect(&e));
        if c1 < c2 || (c1 == c2 && g1.len() <= g2.len()) {
            r1 = r1.union(&rect(&e));
            g1.push(e);
        } else {
            r2 = r2.union(&rect(&e));
            g2.push(e);
        }
    }
    (g1, g2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_geometry() {
        let a = Rect::new([0.0, 0.0], [2.0, 2.0]);
        let b = Rect::new([1.0, 1.0], [3.0, 3.0]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&Rect::point(5.0, 5.0)));
        assert_eq!(a.union(&b), Rect::new([0.0, 0.0], [3.0, 3.0]));
        assert_eq!(a.area(), 4.0);
        assert!(a.contains(&Rect::point(1.0, 1.0)));
        assert!(!b.contains(&a));
        assert_eq!(a.min_dist2([4.0, 2.0]), 4.0);
        assert_eq!(a.min_dist2([1.0, 1.0]), 0.0);
    }

    #[test]
    fn insert_and_point_search() {
        let mut t = RTree::with_capacity(4);
        for i in 0..100u64 {
            let x = (i % 10) as f64;
            let y = (i / 10) as f64;
            t.insert(Rect::point(x, y), i);
        }
        assert_eq!(t.len(), 100);
        let hits = t.search(&Rect::point(3.0, 7.0));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, 73);
    }

    #[test]
    fn window_search() {
        let mut t = RTree::with_capacity(8);
        for i in 0..100u64 {
            t.insert(Rect::point((i % 10) as f64, (i / 10) as f64), i);
        }
        let hits = t.search(&Rect::new([2.0, 2.0], [4.0, 4.0]));
        assert_eq!(hits.len(), 9);
    }

    #[test]
    fn three_sided_query() {
        let mut t = RTree::with_capacity(8);
        // x = rank, y = run length
        for (x, y) in [(1.0, 3.0), (2.0, 10.0), (3.0, 1.0), (4.0, 7.0), (5.0, 2.0)] {
            t.insert(Rect::point(x, y), (x * 10.0) as u64);
        }
        let hits = t.three_sided(2.0, 4.0, 5.0);
        let mut payloads: Vec<u64> = hits.iter().map(|(_, p)| *p).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, vec![20, 40]);
    }

    #[test]
    fn knn_orders_by_distance() {
        let mut t = RTree::with_capacity(4);
        for i in 0..50u64 {
            t.insert(Rect::point(i as f64, 0.0), i);
        }
        let got = t.knn([10.2, 0.0], 3);
        let ids: Vec<u64> = got.iter().map(|(_, p, _)| *p).collect();
        assert_eq!(ids, vec![10, 11, 9]);
        assert!(got[0].2 <= got[1].2 && got[1].2 <= got[2].2);
    }

    #[test]
    fn knn_k_larger_than_len() {
        let mut t = RTree::with_capacity(4);
        t.insert(Rect::point(0.0, 0.0), 1);
        t.insert(Rect::point(1.0, 1.0), 2);
        assert_eq!(t.knn([0.0, 0.0], 10).len(), 2);
        assert!(t.knn([0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn large_randomish_insert_search_consistency() {
        let mut t = RTree::with_capacity(8);
        let mut pts = Vec::new();
        // deterministic pseudo-random points
        let mut x: u64 = 12345;
        for i in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let px = (x >> 33) as f64 % 1000.0;
            let py = (x >> 13) as f64 % 1000.0;
            pts.push((px, py, i));
            t.insert(Rect::point(px, py), i);
        }
        let q = Rect::new([100.0, 100.0], [300.0, 300.0]);
        let mut expect: Vec<u64> = pts
            .iter()
            .filter(|(px, py, _)| q.intersects(&Rect::point(*px, *py)))
            .map(|(_, _, i)| *i)
            .collect();
        let mut got: Vec<u64> = t.search(&q).into_iter().map(|(_, p)| p).collect();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect);
        assert!(t.node_count() > 10);
    }

    #[test]
    fn bulk_load_at_the_size_boundaries() {
        // Height of the subtree at `id`; every inner rectangle must be the
        // tight bound of its child and every node within capacity.
        fn height(t: &RTree, id: NodeId) -> usize {
            match &t.nodes[id] {
                Node::Leaf { entries } => {
                    assert!(entries.len() <= t.max_entries);
                    1
                }
                Node::Inner { entries } => {
                    assert!((2..=t.max_entries).contains(&entries.len()));
                    let heights: Vec<usize> = entries
                        .iter()
                        .map(|(r, c)| {
                            assert_eq!(Some(*r), t.nodes[*c].mbr(), "tight child rectangle");
                            height(t, *c)
                        })
                        .collect();
                    assert!(heights.windows(2).all(|w| w[0] == w[1]), "balanced");
                    heights[0] + 1
                }
            }
        }
        let cap = 4;
        for n in [0, 1, cap, cap + 1, cap * cap, cap * cap + 1, 1000] {
            let pts: Vec<(Rect, u64)> = (0..n as u64)
                .map(|i| (Rect::point(i as f64, ((i * 7919) % 31) as f64), i))
                .collect();
            let t = RTree::bulk_load(cap, pts.clone());
            assert_eq!(t.len(), n);
            assert_eq!(t.is_empty(), n == 0);
            let mut level = n.div_ceil(cap).max(1);
            let mut want_height = 1;
            while level > 1 {
                level = level.div_ceil(cap);
                want_height += 1;
            }
            assert_eq!(height(&t, t.root), want_height, "n={n}");
            let everything = Rect::new([-1.0, -1.0], [n as f64, 31.0]);
            let mut got: Vec<u64> = t.search(&everything).into_iter().map(|(_, p)| p).collect();
            got.sort_unstable();
            assert_eq!(got, (0..n as u64).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn stats_track_reads() {
        let mut t = RTree::with_capacity(4);
        for i in 0..500u64 {
            t.insert(Rect::point(i as f64, i as f64), i);
        }
        t.stats().reset();
        let _ = t.search(&Rect::point(250.0, 250.0));
        assert!(t.stats().reads() > 0);
        // point search should touch far fewer nodes than exist
        assert!(t.stats().reads() < t.node_count() as u64 / 2);
    }
    #[test]
    fn remove_takes_out_exactly_one_entry() {
        let mut t = RTree::with_capacity(4);
        let rects: Vec<Rect> = (0..40)
            .map(|i| Rect::new([i as f64, 0.0], [i as f64 + 2.0, 1.0]))
            .collect();
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        assert!(t.remove(&rects[7], 7));
        assert!(!t.remove(&rects[7], 7), "already gone");
        assert!(!t.remove(&rects[8], 9), "payload must match too");
        assert_eq!(t.len(), 39);
        let mut all: Vec<u64> = t.entries().map(|e| e.1).collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).filter(|&i| i != 7).collect::<Vec<_>>());
        let hits: Vec<u64> = t
            .search(&Rect::point(8.0, 0.5))
            .iter()
            .map(|e| e.1)
            .collect();
        assert!(!hits.contains(&7) && hits.contains(&6) && hits.contains(&8));
        for i in (0..40).filter(|&i| i != 7) {
            assert!(t.remove(&rects[i], i as u64), "entry {i}");
        }
        assert!(t.is_empty() && t.search(&Rect::point(1.0, 0.5)).is_empty());
        assert_eq!(t.entries().count(), 0);
    }
}
