//! Node sizing shared by the bottom-up loaders ([`crate::BPlusTree`],
//! [`crate::RTree`], and `bdbms-seq`'s suffix B-tree).

/// Sizes of the nodes a bottom-up loader cuts `n` items into: every node
/// holds `cap` items, except that the last two share theirs evenly when
/// the remainder alone would fill less than half a node.  For `cap >= 4`
/// no node of a multi-node level holds fewer than two items, so an inner
/// level never gets a single-child node.
pub fn packed_sizes(n: usize, cap: usize) -> impl Iterator<Item = usize> {
    let (full, rem) = (n / cap, n % cap);
    let nodes = full + usize::from(rem > 0);
    let balance = full > 0 && rem > 0 && rem < cap / 2;
    (0..nodes).map(move |i| match nodes - i {
        2 if balance => (cap + rem).div_ceil(2),
        1 if balance => (cap + rem) / 2,
        1 if rem > 0 => rem,
        _ => cap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_sum_to_n_and_stay_within_half_and_full() {
        for cap in [4usize, 5, 8, 64, 129] {
            for n in 0..(3 * cap * cap + 2) {
                let sizes: Vec<usize> = packed_sizes(n, cap).collect();
                assert_eq!(sizes.iter().sum::<usize>(), n, "n={n} cap={cap}");
                assert_eq!(sizes.len(), n.div_ceil(cap), "fewest nodes possible");
                assert!(sizes.iter().all(|&s| s <= cap));
                if sizes.len() > 1 {
                    assert!(sizes.iter().all(|&s| s >= cap / 2), "n={n} cap={cap}");
                }
            }
        }
    }

    #[test]
    fn worked_examples() {
        assert_eq!(packed_sizes(12, 4).collect::<Vec<_>>(), vec![4, 4, 4]);
        assert_eq!(packed_sizes(13, 4).collect::<Vec<_>>(), vec![4, 4, 3, 2]);
        assert_eq!(packed_sizes(14, 4).collect::<Vec<_>>(), vec![4, 4, 4, 2]);
        assert_eq!(packed_sizes(3, 4).collect::<Vec<_>>(), vec![3]);
        assert!(packed_sizes(0, 4).next().is_none());
    }
}
