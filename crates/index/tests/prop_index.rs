//! Property tests: every access method must agree with a naive model.

use bdbms_index::bptree::{prefix_range, BPlusTree};
use bdbms_index::kdtree::{KdTreeOps, PointQuery};
use bdbms_index::quadtree::QuadtreeOps;
use bdbms_index::regex::Regex;
use bdbms_index::trie::{StrQuery, TrieOps};
use bdbms_index::{RTree, Rect, SpGist};
use proptest::prelude::*;

fn arb_dna() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"ACGT".to_vec()), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// B+-tree: get/range/iter agree with a sorted Vec model.
    #[test]
    fn bptree_matches_sorted_model(
        entries in prop::collection::vec((0i64..200, 0u32..1000), 0..300),
        lo in 0i64..200,
        len in 0i64..100,
        fanout in 4usize..16,
    ) {
        let mut grown = BPlusTree::with_fanout(fanout);
        let mut model = entries.clone();
        for (k, v) in &entries {
            grown.insert(*k, *v);
        }
        model.sort_by_key(|(k, _)| *k);
        // the bottom-up loader must be indistinguishable from inserts
        for t in [grown, BPlusTree::from_sorted(fanout, model.clone())] {
            // full iteration
            let all = t.iter_all();
            prop_assert_eq!(all.len(), model.len());
            let keys: Vec<i64> = all.iter().map(|(k, _)| *k).collect();
            let model_keys: Vec<i64> = model.iter().map(|(k, _)| *k).collect();
            prop_assert_eq!(keys, model_keys);
            // point lookups (multiset equality)
            for probe in [lo, lo + len] {
                let mut got = t.get(&probe);
                got.sort_unstable();
                let mut want: Vec<u32> = entries
                    .iter()
                    .filter(|(k, _)| *k == probe)
                    .map(|(_, v)| *v)
                    .collect();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
            // range scan
            let hi = lo + len;
            let got: Vec<i64> = t.range(&lo, &hi).into_iter().map(|(k, _)| k).collect();
            let want: Vec<i64> = model
                .iter()
                .map(|(k, _)| *k)
                .filter(|k| *k >= lo && *k < hi)
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Trie: exact / prefix / range / regex agree with naive filtering.
    #[test]
    fn trie_matches_naive(
        keys in prop::collection::vec(arb_dna(), 0..150),
        probe in arb_dna(),
        cap in 2usize..10,
    ) {
        let mut t = SpGist::with_leaf_capacity(TrieOps, cap);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k.clone(), i);
        }
        // exact
        let got = t.search(&StrQuery::Exact(probe.clone())).len();
        let want = keys.iter().filter(|k| **k == probe).count();
        prop_assert_eq!(got, want, "exact");
        // prefix
        let got = t.search(&StrQuery::Prefix(probe.clone())).len();
        let want = keys.iter().filter(|k| k.starts_with(&probe)).count();
        prop_assert_eq!(got, want, "prefix");
        // range [probe, probe ++ "T")
        let mut hi = probe.clone();
        hi.push(b'T');
        let got = t.search(&StrQuery::Range(probe.clone(), Some(hi.clone()))).len();
        let want = keys
            .iter()
            .filter(|k| k.as_slice() >= probe.as_slice() && k.as_slice() < hi.as_slice())
            .count();
        prop_assert_eq!(got, want, "range");
        // regex: anything starting with the probe then any DNA tail
        let pat = format!(
            "{}[ACGT]*",
            probe.iter().map(|&b| b as char).collect::<String>()
        );
        let re = Regex::compile(&pat).unwrap();
        let got = t.search(&StrQuery::Regex(re)).len();
        prop_assert_eq!(got, keys.iter().filter(|k| k.starts_with(&probe)).count(), "regex");
    }

    /// Trie prefix query equals B+-tree prefix range on identical data.
    #[test]
    fn trie_and_bptree_agree_on_prefix(
        keys in prop::collection::vec(arb_dna(), 0..120),
        probe in arb_dna(),
    ) {
        let mut trie = SpGist::with_leaf_capacity(TrieOps, 4);
        let mut bp: BPlusTree<Vec<u8>, usize> = BPlusTree::with_fanout(8);
        for (i, k) in keys.iter().enumerate() {
            trie.insert(k.clone(), i);
            bp.insert(k.clone(), i);
        }
        let mut a: Vec<usize> = trie
            .search(&StrQuery::Prefix(probe.clone()))
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        let mut b: Vec<usize> = prefix_range(&bp, &probe).into_iter().map(|(_, v)| v).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// kd-tree, quadtree and R-tree all return the same window result.
    #[test]
    fn spatial_structures_agree(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..200),
        wx in 0.0f64..100.0,
        wy in 0.0f64..100.0,
        wl in 0.0f64..40.0,
    ) {
        let mut kd = SpGist::with_leaf_capacity(KdTreeOps, 4);
        let mut qt = SpGist::with_leaf_capacity(QuadtreeOps, 4);
        let mut rt = RTree::with_capacity(8);
        for (i, (x, y)) in pts.iter().enumerate() {
            kd.insert([*x, *y], i);
            qt.insert([*x, *y], i);
            rt.insert(Rect::point(*x, *y), i as u64);
        }
        let (lo, hi) = ([wx, wy], [wx + wl, wy + wl]);
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, (x, y))| *x >= lo[0] && *x <= hi[0] && *y >= lo[1] && *y <= hi[1])
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        let mut a: Vec<usize> = kd
            .search(&PointQuery::Window(lo, hi))
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        let mut b: Vec<usize> = qt
            .search(&PointQuery::Window(lo, hi))
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        let mut c: Vec<usize> = rt
            .search(&Rect::new(lo, hi))
            .into_iter()
            .map(|(_, p)| p as usize)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        c.sort_unstable();
        prop_assert_eq!(&a, &want);
        prop_assert_eq!(&b, &want);
        prop_assert_eq!(&c, &want);
    }

    /// An STR-packed R-tree answers every query like one grown by inserts
    /// — for x-sorted input (the contract) and for unsorted input (only
    /// packing quality may suffer) — and keeps doing so under later inserts.
    #[test]
    fn rtree_bulk_load_matches_insert_built(
        pts in prop::collection::vec((0u32..60, 0u32..60), 0..400),
        extra in prop::collection::vec((0u32..60, 0u32..60), 0..60),
        cap in 4usize..12,
        queries in prop::collection::vec((0u32..60, 0u32..30, 0u32..60, 0u32..30), 1..8),
    ) {
        let item = |i: usize, &(x, y): &(u32, u32)| (Rect::point(x as f64, y as f64), i as u64);
        let mut sorted: Vec<(Rect, u64)> = pts.iter().enumerate().map(|(i, p)| item(i, p)).collect();
        let unsorted = RTree::bulk_load(cap, sorted.clone());
        sorted.sort_by(|a, b| a.0.min[0].total_cmp(&b.0.min[0]));
        let packed = RTree::bulk_load(cap, sorted);
        prop_assert_eq!(packed.stats().writes(), if pts.is_empty() { 0 } else { packed.node_count() as u64 });
        let mut grown = RTree::with_capacity(cap);
        for (i, p) in pts.iter().enumerate() {
            let (r, v) = item(i, p);
            grown.insert(r, v);
        }
        prop_assert!(packed.node_count() <= grown.node_count());
        let mut trees = [grown, packed, unsorted];
        for round in 0..2 {
            let payloads = |hits: Vec<(Rect, u64)>| {
                let mut ids: Vec<u64> = hits.into_iter().map(|(_, p)| p).collect();
                ids.sort_unstable();
                ids
            };
            for &(x, w, y, h) in &queries {
                let window = Rect::new([x as f64, y as f64], [(x + w) as f64, (y + h) as f64]);
                let want = payloads(trees[0].search(&window));
                let want3 = payloads(trees[0].three_sided(x as f64, (x + w) as f64, y as f64));
                for t in &trees[1..] {
                    prop_assert_eq!(t.len(), trees[0].len());
                    prop_assert_eq!(t.bounds(), trees[0].bounds());
                    prop_assert_eq!(&payloads(t.search(&window)), &want, "search, round {}", round);
                    prop_assert_eq!(
                        &payloads(t.three_sided(x as f64, (x + w) as f64, y as f64)),
                        &want3,
                        "three_sided, round {}", round
                    );
                    let d = |t: &RTree| -> Vec<f64> {
                        t.knn([x as f64, y as f64], 5).into_iter().map(|(_, _, d)| d).collect()
                    };
                    prop_assert_eq!(d(t), d(&trees[0]), "knn distances");
                }
            }
            // packed (full) nodes must split like any others
            for (i, p) in extra.iter().enumerate() {
                let (r, v) = item(pts.len() + i, p);
                for t in &mut trees {
                    t.insert(r, v);
                }
            }
        }
    }

    /// kNN over kd-tree and quadtree returns the true k nearest.
    #[test]
    fn knn_is_exact(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..150),
        qx in 0.0f64..100.0,
        qy in 0.0f64..100.0,
        k in 1usize..12,
    ) {
        let mut kd = SpGist::with_leaf_capacity(KdTreeOps, 4);
        let mut qt = SpGist::with_leaf_capacity(QuadtreeOps, 4);
        for (i, (x, y)) in pts.iter().enumerate() {
            kd.insert([*x, *y], i);
            qt.insert([*x, *y], i);
        }
        let mut dists: Vec<f64> = pts
            .iter()
            .map(|(x, y)| ((x - qx).powi(2) + (y - qy).powi(2)).sqrt())
            .collect();
        dists.sort_by(|a, b| a.total_cmp(b));
        let kk = k.min(pts.len());
        for t in [kd.knn(&[qx, qy], k), qt.knn(&[qx, qy], k)] {
            prop_assert_eq!(t.len(), kk);
            for (i, (_, _, d)) in t.iter().enumerate() {
                prop_assert!((d - dists[i]).abs() < 1e-9,
                    "rank {} dist {} expected {}", i, d, dists[i]);
            }
        }
    }

    /// Regex engine agrees with a tiny backtracking oracle on DNA patterns.
    #[test]
    fn regex_star_semantics(body in arb_dna(), tail in arb_dna()) {
        // pattern: body then C* then tail — check against constructed inputs
        let pat: String = body.iter().chain(tail.iter()).map(|&b| b as char).collect();
        let mid: String = body.iter().map(|&b| b as char).collect::<String>()
            + "C*"
            + &tail.iter().map(|&b| b as char).collect::<String>();
        let re = Regex::compile(&mid).unwrap();
        // zero repetitions
        prop_assert!(re.is_match(pat.as_bytes()));
        // three repetitions
        let mut with_c = body.clone();
        with_c.extend_from_slice(b"CCC");
        with_c.extend_from_slice(&tail);
        prop_assert!(re.is_match(&with_c));
    }
}
