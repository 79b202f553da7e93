//! Zero-dependency metrics core: atomic counters, gauges, and
//! fixed-bucket log-scale histograms behind a [`MetricsRegistry`].
//!
//! Design constraints (see docs/OBSERVABILITY.md):
//!
//! * **Lock-free hot path.** `Counter::inc`, `Gauge::set`, and
//!   `Histogram::record` are single relaxed atomic ops (the histogram
//!   adds two for count/sum).  Instrumented components own `Arc`
//!   handles to their instruments; the registry is only a naming and
//!   snapshot layer consulted at registration / snapshot time.
//! * **Shareable across threads.** Built on `std::sync::atomic`, not
//!   `Cell`, because instruments are bumped from the engine thread,
//!   the WAL flusher thread, and arbitrary test threads at once
//!   (unlike [`crate::stats::AccessStats`], which is single-threaded
//!   by design).
//! * **Cheap, consistent-enough `snapshot()`.** A snapshot is a
//!   relaxed read of every atom.  Individual instruments are exact;
//!   cross-instrument skew is bounded by the snapshot walk, which is
//!   fine for monitoring.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins value (e.g. an EMA exported from a worker loop).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log-scale buckets.  Bucket `i` counts values `v` with
/// `bucket_index(v) == i`, i.e. `v < 2^i` for the first bucket that
/// holds it; upper bounds run 1ns, 2ns, 4ns … ~34s and the last bucket
/// is a catch-all for anything larger.
pub const HISTOGRAM_BUCKETS: usize = 36;

/// Fixed-bucket log₂ histogram.  Values are `u64` in whatever unit the
/// instrument declares (latencies record nanoseconds; size histograms
/// record plain counts).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket_index(v: u64) -> usize {
    // 0 -> 0, 1 -> 0, 2..3 -> 1, 4..7 -> 2, ... (floor(log2(v))), so
    // bucket i has inclusive upper bound 2^(i+1)-1.
    let ix = (64 - v.leading_zeros() as usize).saturating_sub(1);
    ix.min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (saturating for the catch-all).
pub fn bucket_bound(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a latency in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_bound(i), n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time copy of a [`Histogram`]: only non-empty buckets are
/// kept, as `(inclusive_upper_bound, count)` pairs in ascending bound
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the q-th quantile
    /// (0.0 ≤ q ≤ 1.0).  Resolution is a factor of two — good enough
    /// to answer "are fsyncs ~100µs or ~10ms".
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= target.max(1) {
                return bound;
            }
        }
        self.buckets.last().map(|&(b, _)| b).unwrap_or(0)
    }
}

/// Names instruments and produces [`MetricsSnapshot`]s.
///
/// Components either ask the registry for a shared instrument by name
/// (`counter("txn.commits")` — get-or-create) or register instruments
/// they already own (`register_counter("buffer.hits", pool_hits)`),
/// which is how storage-layer atoms created before the registry exists
/// get exported.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
}

fn get_or_insert<T: Default>(list: &Mutex<Vec<(String, Arc<T>)>>, name: &str) -> Arc<T> {
    let mut list = list.lock().unwrap();
    if let Some((_, v)) = list.iter().find(|(n, _)| n == name) {
        return v.clone();
    }
    let v = Arc::new(T::default());
    list.push((name.to_string(), v.clone()));
    v
}

fn register<T>(list: &Mutex<Vec<(String, Arc<T>)>>, name: &str, v: Arc<T>) {
    let mut list = list.lock().unwrap();
    if let Some(slot) = list.iter_mut().find(|(n, _)| n == name) {
        slot.1 = v;
    } else {
        list.push((name.to_string(), v));
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Export an instrument the caller already owns under `name`
    /// (replaces any previous registration of that name).
    pub fn register_counter(&self, name: &str, c: Arc<Counter>) {
        register(&self.counters, name, c);
    }
    pub fn register_gauge(&self, name: &str, g: Arc<Gauge>) {
        register(&self.gauges, name, g);
    }
    pub fn register_histogram(&self, name: &str, h: Arc<Histogram>) {
        register(&self.histograms, name, h);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let mut gauges: Vec<(String, u64)> = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Point-in-time copy of a whole registry, sorted by name.  This is
/// what crosses the wire for the `Metrics` request and what the REPL
/// renders for `.metrics`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Human-readable dump, one instrument per line, used by the REPL's
    /// `.metrics` and by `bdbms-hammer`'s end-of-run report.
    pub fn render(&self) -> String {
        fn fmt_ns(ns: f64) -> String {
            if ns >= 1e9 {
                format!("{:.2}s", ns / 1e9)
            } else if ns >= 1e6 {
                format!("{:.2}ms", ns / 1e6)
            } else if ns >= 1e3 {
                format!("{:.2}us", ns / 1e3)
            } else {
                format!("{ns:.0}ns")
            }
        }
        let mut out = String::new();
        for (n, v) in &self.counters {
            out.push_str(&format!("{n:<32} {v}\n"));
        }
        for (n, v) in &self.gauges {
            out.push_str(&format!("{n:<32} {v}\n"));
        }
        for (n, h) in &self.histograms {
            let unit_ns = n.ends_with("_ns");
            let (mean, p50, p99) = (h.mean(), h.quantile(0.5), h.quantile(0.99));
            if unit_ns {
                out.push_str(&format!(
                    "{n:<32} count={} mean={} p50<={} p99<={}\n",
                    h.count,
                    fmt_ns(mean),
                    fmt_ns(p50 as f64),
                    fmt_ns(p99 as f64),
                ));
            } else {
                out.push_str(&format!(
                    "{n:<32} count={} mean={mean:.2} p50<={p50} p99<={p99}\n",
                    h.count,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = MetricsRegistry::new();
        let c = r.counter("a.count");
        c.inc();
        c.add(4);
        r.gauge("a.gauge").set(99);
        // get-or-create returns the same instrument
        r.counter("a.count").inc();
        let s = r.snapshot();
        assert_eq!(s.counter("a.count"), Some(6));
        assert_eq!(s.gauge("a.gauge"), Some(99));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bound(0), 1);
        assert_eq!(bucket_bound(9), 1023);
    }

    #[test]
    fn histogram_snapshot_stats() {
        let h = Histogram::new();
        for v in [100u64, 100, 100, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 100_300);
        assert_eq!(s.mean(), 25_075.0);
        // p50 lands in the bucket holding 100 (bound 127)
        assert_eq!(s.quantile(0.5), 127);
        // p100 lands in the bucket holding 100_000 (2^17-1 = 131071)
        assert_eq!(s.quantile(1.0), 131_071);
        assert!(s.buckets.len() == 2);
    }

    #[test]
    fn registered_instruments_are_shared() {
        let r = MetricsRegistry::new();
        let owned = Arc::new(Counter::new());
        owned.add(7);
        r.register_counter("ext.count", owned.clone());
        owned.inc();
        assert_eq!(r.snapshot().counter("ext.count"), Some(8));
        // re-registering replaces
        r.register_counter("ext.count", Arc::new(Counter::new()));
        assert_eq!(r.snapshot().counter("ext.count"), Some(0));
    }

    #[test]
    fn snapshot_is_sorted_and_monotonic() {
        let r = MetricsRegistry::new();
        r.counter("z").inc();
        r.counter("a").inc();
        let s1 = r.snapshot();
        assert_eq!(
            s1.counters
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "z"]
        );
        r.counter("z").add(10);
        let s2 = r.snapshot();
        assert!(s2.counter("z") >= s1.counter("z"));
    }
}
