//! Order statistics over latency samples.

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).  Sorts a copy.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of integer samples (nanoseconds), as `f64`.
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// The tail percentile to report: the 99th when at least ten samples
/// lie beyond it, otherwise the highest lower one that has ten, and
/// its value: `(percentile, value)`.  With fewer than 40 samples that
/// is the median.  A tail estimated from fewer than ten samples is a
/// few outliers, not a property of the system.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0);
    }
    for p in [0.99, 0.95, 0.9, 0.75] {
        let beyond = ((1.0 - p) * n as f64).floor() as usize;
        if beyond >= 10 {
            return (p * 100.0, sorted[n - 1 - beyond]);
        }
    }
    (50.0, sorted[n / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(tail(&v), (99.0, 989));
        let v: Vec<u64> = (0..50).collect();
        assert_eq!(tail(&v).0, 75.0);
        let v: Vec<u64> = (0..10).collect();
        assert_eq!(tail(&v).0, 50.0);
    }
}
