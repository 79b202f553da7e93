//! Property tests: the SBC-tree (compressed) and String B-tree
//! (uncompressed) must agree with each other and with a naive oracle on
//! every operation, over arbitrary run-structured sequences.

use bdbms_seq::rle::RleSeq;
use bdbms_seq::string_btree::naive_substring_search;
use bdbms_seq::{gen, SbcTree, StringBTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run-structured sequences over {H, E, L} (compressible, like Figure 12).
fn arb_ss_text() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((prop::sample::select(b"HEL".to_vec()), 1usize..6), 1..8).prop_map(
        |runs| {
            let mut out = Vec::new();
            for (ch, len) in runs {
                out.extend(std::iter::repeat_n(ch, len));
            }
            out
        },
    )
}

fn arb_pattern() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((prop::sample::select(b"HEL".to_vec()), 1usize..4), 1..4).prop_map(
        |runs| {
            let mut out = Vec::new();
            for (ch, len) in runs {
                out.extend(std::iter::repeat_n(ch, len));
            }
            out
        },
    )
}

/// A text of 0..12 runs over the first `alphabet` symbols of `ABCD`, run
/// lengths uniform around `mean_run` (0 runs = the empty text; adjacent
/// runs may share a symbol and merge).
fn random_text(rng: &mut StdRng, alphabet: usize, mean_run: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..rng.gen_range(0..12) {
        let ch = b"ABCD"[rng.gen_range(0..alphabet)];
        out.extend(std::iter::repeat_n(ch, rng.gen_range(1..2 * mean_run + 1)));
    }
    out
}

/// `n` texts, roughly one in six a duplicate of an earlier one.
fn random_corpus(rng: &mut StdRng, n: usize, alphabet: usize, mean_run: usize) -> Vec<Vec<u8>> {
    let mut texts: Vec<Vec<u8>> = Vec::with_capacity(n);
    for _ in 0..n {
        let dup = !texts.is_empty() && rng.gen_range(0..6) == 0;
        let t = if dup {
            texts[rng.gen_range(0..texts.len())].clone()
        } else {
            random_text(rng, alphabet, mean_run)
        };
        texts.push(t);
    }
    texts
}

/// Patterns cut from the corpus (any alignment, single- and multi-run)
/// plus independent random ones and the empty pattern.
fn probe_patterns(
    rng: &mut StdRng,
    texts: &[Vec<u8>],
    alphabet: usize,
    mean_run: usize,
) -> Vec<Vec<u8>> {
    let mut pats = vec![Vec::new()];
    for _ in 0..6 {
        pats.push(random_text(rng, alphabet, mean_run.div_ceil(2)));
        let Some(t) = texts.get(rng.gen_range(0..texts.len().max(1))) else {
            continue;
        };
        if !t.is_empty() {
            let at = rng.gen_range(0..t.len());
            let len = rng.gen_range(1..(t.len() - at).min(3 * mean_run) + 1);
            pats.push(t[at..at + len].to_vec());
        }
    }
    pats
}

/// Every public query agrees between the two trees, and `matching_texts`
/// is `substring_search` minus the positions.
fn assert_same_answers(a: &SbcTree, b: &SbcTree, pats: &[Vec<u8>], stage: &str) {
    assert_eq!(a.num_texts(), b.num_texts(), "{stage}");
    assert_eq!(a.num_suffixes(), b.num_suffixes(), "{stage}");
    for (i, pat) in pats.iter().enumerate() {
        let occ = a.substring_search(pat);
        assert_eq!(occ, b.substring_search(pat), "{stage}: substring {pat:?}");
        assert_eq!(
            occ,
            b.substring_search_three_sided(pat),
            "{stage}: 3-sided {pat:?}"
        );
        assert_eq!(occ, b.substring_search_scan(pat), "{stage}: scan {pat:?}");
        let mut ids: Vec<u32> = occ.iter().map(|o| o.text).collect();
        ids.dedup();
        assert_eq!(
            a.matching_texts(pat),
            ids,
            "{stage}: matching_texts {pat:?}"
        );
        assert_eq!(
            b.matching_texts(pat),
            ids,
            "{stage}: matching_texts {pat:?}"
        );
        assert_eq!(
            a.prefix_search(pat),
            b.prefix_search(pat),
            "{stage}: prefix {pat:?}"
        );
        assert_eq!(
            a.subsequence_search(pat),
            b.subsequence_search(pat),
            "{stage}: subsequence {pat:?}"
        );
        let other = &pats[(i + 1) % pats.len()];
        let (lo, hi) = if pat <= other {
            (pat, other)
        } else {
            (other, pat)
        };
        assert_eq!(
            a.range_search(lo, hi),
            b.range_search(lo, hi),
            "{stage}: range"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bulk ≡ incremental: a bulk-built SBC-tree and one grown by inserts
    /// answer every query identically (and `matching_texts` agrees with
    /// `contains`) — and still do after 50 more inserts into both, which
    /// split the loader's packed nodes and put midpoint order keys
    /// between its evenly spaced ones.
    #[test]
    fn bulk_built_sbc_tree_matches_incremental(
        seed in any::<u64>(),
        n in 0usize..201,
        alphabet in 1usize..5,
        mean_run in 1usize..21,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut texts = random_corpus(&mut rng, n, alphabet, mean_run);
        let mut bulk = SbcTree::build_with_fanout(4, texts.iter().map(|t| RleSeq::encode(t)).collect());
        let mut grown = SbcTree::with_fanout(4);
        for t in &texts {
            grown.insert_sequence(t);
        }
        let pats = probe_patterns(&mut rng, &texts, alphabet, mean_run);
        assert_same_answers(&bulk, &grown, &pats, "built");
        for t in random_corpus(&mut rng, 50, alphabet, mean_run) {
            prop_assert_eq!(bulk.insert_sequence(&t), grown.insert_sequence(&t));
            texts.push(t);
        }
        let pats = probe_patterns(&mut rng, &texts, alphabet, mean_run);
        assert_same_answers(&bulk, &grown, &pats, "after 50 inserts");
        for pat in pats.iter().filter(|p| !p.is_empty()) {
            let want: Vec<u32> = (0..texts.len() as u32)
                .filter(|&id| texts[id as usize].windows(pat.len()).any(|w| w == pat))
                .collect();
            prop_assert_eq!(&bulk.matching_texts(pat), &want, "oracle {:?}", pat);
        }
        for (id, t) in texts.iter().enumerate() {
            prop_assert_eq!(&bulk.decompress(id as u32), t);
        }
    }

    /// Same for the uncompressed baseline: `StringBTree::build` ≡ a tree
    /// grown by `insert_text`, before and after further inserts.
    #[test]
    fn bulk_built_string_btree_matches_incremental(
        seed in any::<u64>(),
        n in 0usize..40,
        alphabet in 1usize..5,
        mean_run in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut texts = random_corpus(&mut rng, n, alphabet, mean_run);
        let mut bulk = StringBTree::build_with_fanout(4, texts.clone());
        let mut grown = StringBTree::with_fanout(4);
        for t in &texts {
            grown.insert_text(t);
        }
        for round in 0..2 {
            prop_assert_eq!(bulk.num_suffixes(), grown.num_suffixes());
            let pats = probe_patterns(&mut rng, &texts, alphabet, mean_run);
            for (i, pat) in pats.iter().enumerate() {
                prop_assert_eq!(bulk.substring_search(pat), grown.substring_search(pat), "round {}", round);
                prop_assert_eq!(bulk.prefix_search(pat), grown.prefix_search(pat));
                let other = &pats[(i + 1) % pats.len()];
                let (lo, hi) = if pat <= other { (pat, other) } else { (other, pat) };
                prop_assert_eq!(bulk.range_search(lo, hi), grown.range_search(lo, hi));
            }
            for t in random_corpus(&mut rng, 10, alphabet, mean_run) {
                prop_assert_eq!(bulk.insert_text(&t), grown.insert_text(&t));
                texts.push(t);
            }
        }
    }

    /// RLE encode/decode is the identity; textual form round-trips.
    #[test]
    fn rle_roundtrips(text in arb_ss_text()) {
        let rle = RleSeq::encode(&text);
        prop_assert_eq!(rle.decode(), text.clone());
        let parsed = RleSeq::from_text(&rle.to_text()).unwrap();
        prop_assert_eq!(parsed.decode(), text.clone());
        // random access agrees
        for (i, &c) in text.iter().enumerate() {
            prop_assert_eq!(rle.char_at(i as u64), Some(c));
        }
        prop_assert_eq!(rle.char_at(text.len() as u64), None);
    }

    /// SBC-tree substring search (both paths) == String B-tree == naive.
    #[test]
    fn substring_search_three_way_agreement(
        texts in prop::collection::vec(arb_ss_text(), 1..12),
        pat in arb_pattern(),
    ) {
        let mut sbc = SbcTree::with_fanout(4);
        let mut sbt = StringBTree::with_fanout(4);
        for t in &texts {
            sbc.insert_sequence(t);
            sbt.insert_text(t);
        }
        let mut want = naive_substring_search(&texts, &pat);
        want.sort_unstable();
        let got_sbc: Vec<(u32, u64)> = sbc
            .substring_search(&pat)
            .into_iter()
            .map(|o| (o.text, o.pos))
            .collect();
        let got_scan: Vec<(u32, u64)> = sbc
            .substring_search_scan(&pat)
            .into_iter()
            .map(|o| (o.text, o.pos))
            .collect();
        let got_three: Vec<(u32, u64)> = sbc
            .substring_search_three_sided(&pat)
            .into_iter()
            .map(|o| (o.text, o.pos))
            .collect();
        let mut got_sbt = sbt.substring_search(&pat);
        got_sbt.sort_unstable();
        prop_assert_eq!(&got_sbc, &want, "sbc adaptive");
        prop_assert_eq!(&got_scan, &want, "sbc scan");
        prop_assert_eq!(&got_three, &want, "sbc 3-sided");
        prop_assert_eq!(&got_sbt, &want, "string b-tree");
    }

    /// Generator-built corpora (the shapes E12/E15 run at, scaled down):
    /// every SBC filter strategy and the String B-tree must agree with
    /// the naive decompress-and-scan oracle, both on patterns cut from
    /// the corpus itself (guaranteed hits, arbitrary run alignment) and
    /// on independently generated ones.
    #[test]
    fn gen_corpus_substring_agreement(
        seed in any::<u64>(),
        mean_run in 1.5f64..16.0,
        pat_len in 2usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let texts: Vec<Vec<u8>> = (0..8)
            .map(|_| gen::secondary_structure(&mut rng, 120, mean_run))
            .collect();
        let mut sbc = SbcTree::new();
        let mut sbt = StringBTree::new();
        for t in &texts {
            sbc.insert_sequence(t);
            sbt.insert_text(t);
        }
        let cut = &texts[seed as usize % texts.len()];
        let off = seed as usize % (cut.len() - pat_len.min(cut.len() - 1));
        let cut_pat = cut[off..off + pat_len.min(cut.len() - off)].to_vec();
        let fresh_pat = gen::secondary_structure(&mut rng, pat_len, mean_run);
        for pat in [cut_pat, fresh_pat] {
            let mut want = naive_substring_search(&texts, &pat);
            want.sort_unstable();
            let as_pairs = |occs: Vec<bdbms_seq::sbc_tree::Occurrence>| -> Vec<(u32, u64)> {
                occs.into_iter().map(|o| (o.text, o.pos)).collect()
            };
            prop_assert_eq!(&as_pairs(sbc.substring_search(&pat)), &want, "sbc adaptive");
            prop_assert_eq!(&as_pairs(sbc.substring_search_scan(&pat)), &want, "sbc scan");
            prop_assert_eq!(
                &as_pairs(sbc.substring_search_three_sided(&pat)),
                &want,
                "sbc 3-sided"
            );
            let mut got_sbt = sbt.substring_search(&pat);
            got_sbt.sort_unstable();
            prop_assert_eq!(&got_sbt, &want, "string b-tree");
        }
    }

    /// Prefix and range search agree between the two index structures.
    #[test]
    fn prefix_and_range_agreement(
        texts in prop::collection::vec(arb_ss_text(), 1..12),
        pat in arb_pattern(),
        lo in arb_pattern(),
        hi in arb_pattern(),
    ) {
        let mut sbc = SbcTree::with_fanout(4);
        let mut sbt = StringBTree::with_fanout(4);
        for t in &texts {
            sbc.insert_sequence(t);
            sbt.insert_text(t);
        }
        prop_assert_eq!(sbc.prefix_search(&pat), sbt.prefix_search(&pat));
        let naive_prefix: Vec<u32> = texts
            .iter()
            .enumerate()
            .filter(|(_, t)| t.starts_with(&pat))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(sbc.prefix_search(&pat), naive_prefix);

        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let naive_range: Vec<u32> = texts
            .iter()
            .enumerate()
            .filter(|(_, t)| t.as_slice() >= lo.as_slice() && t.as_slice() < hi.as_slice())
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(sbc.range_search(&lo, &hi), naive_range.clone());
        prop_assert_eq!(sbt.range_search(&lo, &hi), naive_range);
    }

    /// The SBC-tree indexes exactly one suffix per run, the String B-tree
    /// one per character — the structural source of the storage claim.
    #[test]
    fn suffix_count_ratio_is_mean_run_length(texts in prop::collection::vec(arb_ss_text(), 1..8)) {
        let mut sbc = SbcTree::new();
        let mut sbt = StringBTree::new();
        let mut chars = 0usize;
        let mut runs = 0usize;
        for t in &texts {
            sbc.insert_sequence(t);
            sbt.insert_text(t);
            chars += t.len();
            runs += RleSeq::encode(t).num_runs();
        }
        prop_assert_eq!(sbc.num_suffixes(), runs);
        prop_assert_eq!(sbt.num_suffixes(), chars);
    }
}

/// About three in four of the ids `0..n`, shuffled: the live texts of an
/// index whose rows were re-indexed, in row order.
fn shuffled_subset(rng: &mut StdRng, n: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n as u32).filter(|_| rng.gen_range(0..4) != 0).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..i + 1));
    }
    ids
}

/// `order` loads, and each malformed variant of it is refused: one
/// number over or short, a repeated number, a number out of range.
fn assert_refuses_malformed(order: &[u32], loads: impl Fn(&[u32]) -> bool) {
    assert!(loads(order), "the order itself");
    assert!(!loads(&[order, &[0]].concat()), "one number over");
    let Some((_, short)) = order.split_last() else {
        return;
    };
    assert!(!loads(short), "one number short");
    let mut outside = order.to_vec();
    outside[0] = order.len() as u32;
    assert!(!loads(&outside), "a number out of range");
    if let [first, rest @ ..] = order {
        if let Some(last) = rest.len().checked_sub(1) {
            let mut repeated = order.to_vec();
            repeated[1 + last] = *first;
            assert!(!loads(&repeated), "a repeated number");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An SBC-tree loaded from `build(t)`'s stored order answers every
    /// query like `build(t)` and like an insert-grown tree, over corpora
    /// with duplicate texts; the order of any kept subset of the texts,
    /// in any order, is the order `build` makes of that subset; and a
    /// malformed order is refused.
    #[test]
    fn stored_order_loads_the_built_sbc_tree(
        seed in any::<u64>(),
        n in 0usize..201,
        alphabet in 1usize..5,
        mean_run in 1usize..21,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let texts = random_corpus(&mut rng, n, alphabet, mean_run);
        let rle = |ids: &[u32]| -> Vec<RleSeq> {
            ids.iter().map(|&id| RleSeq::encode(&texts[id as usize])).collect()
        };
        let all: Vec<u32> = (0..n as u32).collect();
        let built = SbcTree::build_with_fanout(4, rle(&all));
        let mut grown = SbcTree::with_fanout(4);
        for t in &texts {
            grown.insert_sequence(t);
        }
        let order = built.order(&all);
        prop_assert_eq!(&grown.order(&all), &order);
        let loaded = SbcTree::from_order_with_fanout(4, rle(&all), &order).unwrap();
        prop_assert!(loaded.is_ordered());
        let pats = probe_patterns(&mut rng, &texts, alphabet, mean_run);
        assert_same_answers(&loaded, &built, &pats, "loaded vs built");
        assert_same_answers(&loaded, &grown, &pats, "loaded vs grown");
        let kept = shuffled_subset(&mut rng, n);
        let rebuilt = SbcTree::build_with_fanout(4, rle(&kept));
        let identity: Vec<u32> = (0..kept.len() as u32).collect();
        prop_assert_eq!(grown.order(&kept), rebuilt.order(&identity));
        assert_refuses_malformed(&order, |o| {
            SbcTree::from_order_with_fanout(4, rle(&all), o).is_some()
        });
    }

    /// The same for the String B-tree, whose suffixes are bytes.
    #[test]
    fn stored_order_loads_the_built_string_btree(
        seed in any::<u64>(),
        n in 0usize..40,
        alphabet in 1usize..5,
        mean_run in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let texts = random_corpus(&mut rng, n, alphabet, mean_run);
        let pick = |ids: &[u32]| -> Vec<Vec<u8>> {
            ids.iter().map(|&id| texts[id as usize].clone()).collect()
        };
        let all: Vec<u32> = (0..n as u32).collect();
        let built = StringBTree::build_with_fanout(4, texts.clone());
        let mut grown = StringBTree::with_fanout(4);
        for t in &texts {
            grown.insert_text(t);
        }
        let order = built.order(&all);
        prop_assert_eq!(&grown.order(&all), &order);
        let loaded = StringBTree::from_order_with_fanout(4, texts.clone(), &order).unwrap();
        prop_assert!(loaded.is_ordered());
        let pats = probe_patterns(&mut rng, &texts, alphabet, mean_run);
        for (i, pat) in pats.iter().enumerate() {
            for other in [&built, &grown] {
                prop_assert_eq!(loaded.substring_search(pat), other.substring_search(pat));
                prop_assert_eq!(loaded.prefix_search(pat), other.prefix_search(pat));
                let next = &pats[(i + 1) % pats.len()];
                let (lo, hi) = if pat <= next { (pat, next) } else { (next, pat) };
                prop_assert_eq!(loaded.range_search(lo, hi), other.range_search(lo, hi));
            }
        }
        let kept = shuffled_subset(&mut rng, n);
        let rebuilt = StringBTree::build_with_fanout(4, pick(&kept));
        let identity: Vec<u32> = (0..kept.len() as u32).collect();
        prop_assert_eq!(grown.order(&kept), rebuilt.order(&identity));
        assert_refuses_malformed(&order, |o| {
            StringBTree::from_order_with_fanout(4, texts.clone(), o).is_some()
        });
    }
}
