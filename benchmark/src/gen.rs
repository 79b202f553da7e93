//! Seeded input generation, owned by the benchmark.
//!
//! Nothing here calls into bdbms: the same seed must give the same
//! inputs whatever happens to the engine's own `rand` shim or sequence
//! generators, and the oracles the workloads check results against are
//! computed from these values, never from query results.

use std::fmt::Write as _;

/// SplitMix64 — small, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream derived from this seed and a label, so the
    /// data generator, each driver thread and each kernel draw from
    /// streams that do not shift when another consumer changes.
    pub fn fork(seed: u64, label: u64) -> Rng {
        let mut r = Rng(seed ^ label.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // multiply-shift: unbiased enough for n << 2^64
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A shuffled deck of choices, dealt without replacement and reshuffled
/// when it runs out: every run of `len` draws has exactly the deck's
/// composition, so the operation mix of a window does not wander with
/// the seed the way independent draws would (stratified sampling — the
/// distribution is the same, its run-to-run variance is not).
pub struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(cards: Vec<T>) -> Deck<T> {
        let next = cards.len();
        Deck { cards, next }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.range(0, i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// Zipfian ranks over `0..n` with exponent `theta` (Gray et al.'s
/// closed form, as used by YCSB), scrambled so that popular ranks are
/// spread over the key space instead of clustering on the first pages.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2.min(n));
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        // odd multiplier => a permutation of 0..n only when n is a power
        // of two; a modular hash is enough to scatter the hot ranks
        (rank.min(self.n - 1).wrapping_mul(0x9E37_79B1) ^ 0x5bd1) % self.n
    }
}

pub const DNA: &[u8; 4] = b"ACGT";
pub const SS: &[u8; 3] = b"HEL";

pub fn dna(rng: &mut Rng, len: usize) -> String {
    (0..len)
        .map(|_| DNA[rng.below(4) as usize] as char)
        .collect()
}

/// A protein secondary-structure string: runs of H/E/L with geometric
/// run lengths of the given mean; adjacent runs differ.
pub fn secondary_structure(rng: &mut Rng, len: usize, mean_run: f64) -> String {
    let mut out = String::with_capacity(len);
    let mut cur = rng.below(3) as usize;
    let stop = 1.0 / mean_run;
    while out.len() < len {
        let mut run = 1;
        while rng.unit() >= stop {
            run += 1;
        }
        for _ in 0..run.min(len - out.len()) {
            out.push(SS[cur] as char);
        }
        cur = (cur + 1 + rng.below(2) as usize) % 3;
    }
    out
}

/// A uniformly random H/E/L string: runs of length ~1.5, which a corpus
/// with mean run 8 almost never contains — the "random miss" probes.
pub fn random_ss(rng: &mut Rng, len: usize) -> String {
    (0..len)
        .map(|_| SS[rng.below(3) as usize] as char)
        .collect()
}

pub fn gene_id(i: usize) -> String {
    format!("G{i:07}")
}

/// One row of the shared `Gene (GID, GName, Len, TagId, GSequence)`
/// shape.  `Len` is the row number, so `Len` ranges select exact row
/// counts and `SUM(Len)` has a closed form.
#[derive(Debug, Clone)]
pub struct GeneRow {
    pub name_id: u32,
    pub tag: u32,
    pub seq: String,
}

pub const GENE_SEQ_LEN: usize = 60;

pub fn gene_rows(rng: &mut Rng, n: usize, n_tags: usize) -> Vec<GeneRow> {
    (0..n)
        .map(|_| GeneRow {
            name_id: rng.below(5000) as u32,
            tag: rng.below(n_tags as u64) as u32,
            seq: dna(rng, GENE_SEQ_LEN),
        })
        .collect()
}

pub fn gene_name(name_id: u32) -> String {
    format!("gene{name_id:04}")
}

/// Render gene rows as the TSV `COPY` reads; returns the text.
pub fn gene_tsv(rows: &[GeneRow]) -> String {
    let mut out = String::with_capacity(rows.len() * 100);
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            gene_id(i),
            gene_name(r.name_id),
            i,
            r.tag,
            r.seq
        )
        .expect("write to String");
    }
    out
}

/// Render `(header, sequence)` records as FASTA with 60-column lines.
pub fn fasta(records: impl Iterator<Item = (String, String)>) -> String {
    let mut out = String::new();
    for (hdr, seq) in records {
        out.push('>');
        out.push_str(&hdr);
        out.push('\n');
        for chunk in seq.as_bytes().chunks(60) {
            out.push_str(std::str::from_utf8(chunk).expect("ASCII sequence"));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = gene_tsv(&gene_rows(&mut Rng::fork(7, 0), 50, 5));
        let b = gene_tsv(&gene_rows(&mut Rng::fork(7, 0), 50, 5));
        let c = gene_tsv(&gene_rows(&mut Rng::fork(8, 0), 50, 5));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn deck_deals_its_exact_composition() {
        let mut deck = Deck::new(vec![0u8, 0, 0, 1]);
        let mut rng = Rng::fork(5, 0);
        for _ in 0..10 {
            let hand: Vec<u8> = (0..4).map(|_| deck.draw(&mut rng)).collect();
            assert_eq!(hand.iter().filter(|&&c| c == 1).count(), 1, "{hand:?}");
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::fork(1, 0);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = counts[..10].iter().sum();
        assert!(top10 > 20_000 / 4, "top 1% of keys draw {top10} of 20000");
    }

    #[test]
    fn secondary_structure_has_long_runs() {
        let s = secondary_structure(&mut Rng::fork(3, 0), 3000, 8.0);
        assert_eq!(s.len(), 3000);
        let runs = 1 + s.as_bytes().windows(2).filter(|w| w[0] != w[1]).count();
        let mean = 3000.0 / runs as f64;
        assert!((5.0..12.0).contains(&mean), "mean run {mean}");
    }
}
