//! Table and column statistics for the cost-based planner.
//!
//! Every [`crate::catalog::Table`] carries a [`TableStats`]: per column, a
//! count of NULLs, running min/max bounds, and a distinct-value estimate.
//! The stats are maintained *incrementally* on every INSERT / UPDATE /
//! DELETE (they are never absent, so the planner can always cost a
//! probe), and `ANALYZE <table>` rebuilds them exactly from the live
//! rows.
//!
//! Incremental maintenance is deliberately conservative:
//!
//! * min/max only *widen* on insert — deletes never shrink them (the
//!   true range stays inside the recorded one, so range-selectivity
//!   estimates err toward *larger* result sets, never smaller);
//! * the distinct estimator is a KMV (k-minimum-values) sketch, which
//!   supports observation but not retraction — deletes leave it alone,
//!   again overestimating distincts at worst (an overestimated distinct
//!   count *under*estimates equality cost symmetrically for all
//!   candidate indexes, so index choice stays sane);
//! * `ANALYZE` throws both away and recomputes from a scan.
//!
//! A checkpoint stores each user table's statistics as they stand
//! (`TableStats::encode`), and an open reads them back instead of
//! recomputing them, so a reopened database plans with exactly the
//! estimates the closed one had, stale-wide bounds included.
//!
//! Everything here is deterministic: the sketch hashes the canonical
//! [`Value`] encoding with FNV-1a (no per-process hash seeds), so a
//! given insert history always produces the same estimates — the planner
//! tests pin plan decisions on that.  That encoding is what a stored
//! record holds, so the `ANALYZE`-grade rebuilds (`ANALYZE`, `COPY`, and
//! an open or salvage that finds no stored statistics) observe columns
//! straight from the record bytes (`ColumnStats::observe_encoded`) with
//! the same result.

use std::cell::RefCell;
use std::cmp::Ordering;

use bdbms_common::codec::{self, Cur};
use bdbms_common::{BdbmsError, Result, Value};

/// Sketch size: the `k` of the k-minimum-values estimator.  256 keeps
/// the estimate within a few percent, which is far more precision than
/// index choice needs.
const SKETCH_K: usize = 256;

/// FNV-1a (deterministic across runs, unlike `std`'s seeded SipHash).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the canonical value encoding, encoded into a reused
/// buffer — the same bytes a stored record holds for the value.
fn hash_value(v: &Value) -> u64 {
    thread_local! {
        static BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    BUF.with_borrow_mut(|buf| {
        buf.clear();
        v.encode(buf);
        fnv1a(buf)
    })
}

/// A KMV (k-minimum-values) distinct-count sketch: keep the `k` smallest
/// hashes seen (sorted, so a snapshot clone is one flat copy); the k-th
/// smallest estimates the hash-space density.
#[derive(Debug, Clone, Default)]
pub struct DistinctSketch {
    mins: Vec<u64>,
}

impl DistinctSketch {
    /// Feed one value into the sketch.
    pub fn observe(&mut self, v: &Value) {
        self.observe_hash(hash_value(v));
    }

    fn observe_hash(&mut self, h: u64) {
        if self.mins.len() == SKETCH_K && h >= self.mins[SKETCH_K - 1] {
            return;
        }
        if let Err(at) = self.mins.binary_search(&h) {
            // at K, the new hash evicts the largest
            self.mins.truncate(SKETCH_K - 1);
            self.mins.insert(at, h);
        }
    }

    /// Estimated number of distinct values observed.
    pub fn estimate(&self) -> u64 {
        if self.mins.len() < SKETCH_K {
            // fewer than K distinct hashes ever seen: the sketch is exact
            self.mins.len() as u64
        } else {
            let frac = self.mins[SKETCH_K - 1] as f64 / u64::MAX as f64;
            ((SKETCH_K as f64 - 1.0) / frac.max(f64::MIN_POSITIVE)) as u64
        }
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    /// Smallest non-NULL value seen (by [`Value`]'s total order); may be
    /// stale-wide after deletes until the next ANALYZE.
    pub min: Option<Value>,
    /// Largest non-NULL value seen.
    pub max: Option<Value>,
    /// Number of NULLs currently in the column (maintained exactly).
    pub null_count: u64,
    sketch: DistinctSketch,
}

impl ColumnStats {
    /// Estimated count of distinct non-NULL values.
    pub fn distinct(&self) -> u64 {
        self.sketch.estimate()
    }

    /// Record an inserted value.
    pub fn observe(&mut self, v: &Value) {
        if v.is_null() {
            self.null_count += 1;
            return;
        }
        self.widen(hash_value(v), |m| v.cmp(m), || v.clone());
    }

    /// [`observe`](Self::observe) the value encoded at `buf[*pos..]` (a
    /// column of a stored record), advancing `*pos` past it, without
    /// materializing it: NULL is counted by its tag, the sketch hashes
    /// the stored bytes themselves, a TEXT bound is compared as the
    /// UTF-8-validated `&str` in place and a scalar is decoded without
    /// allocating.  Fails where [`Value::decode`] would, with the same
    /// error code, and then records nothing.
    pub(crate) fn observe_encoded(&mut self, buf: &[u8], pos: &mut usize) -> Result<()> {
        let start = *pos;
        if let Some(text) = Value::decode_str(buf, pos)? {
            // an empty `String` does not allocate, and against a value of
            // another type only the types' ranks decide
            let cmp = |m: &Value| match m {
                Value::Text(m) => text.cmp(m.as_str()),
                other => Value::Text(String::new()).cmp(other),
            };
            self.widen(fnv1a(&buf[start..*pos]), cmp, || Value::Text(text.into()));
            return Ok(());
        }
        let v = Value::decode(buf, pos)?;
        self.observe_decoded(&v, &buf[start..*pos]);
        Ok(())
    }

    /// [`observe`](Self::observe) `v`, already decoded from `encoding`
    /// (its stored bytes, which the sketch hashes instead of encoding
    /// `v` again).
    pub(crate) fn observe_decoded(&mut self, v: &Value, encoding: &[u8]) {
        if v.is_null() {
            self.null_count += 1;
        } else {
            self.widen(fnv1a(encoding), |m| v.cmp(m), || v.clone());
        }
    }

    /// The one sketch-and-bounds update behind both `observe` entries:
    /// `hash` is the value's encoding hashed, `cmp` orders it against a
    /// recorded bound and `owned` materializes it as a new bound.
    fn widen(&mut self, hash: u64, cmp: impl Fn(&Value) -> Ordering, owned: impl Fn() -> Value) {
        if self.min.as_ref().is_none_or(|m| cmp(m).is_lt()) {
            self.min = Some(owned());
        }
        if self.max.as_ref().is_none_or(|m| cmp(m).is_gt()) {
            self.max = Some(owned());
        }
        self.sketch.observe_hash(hash);
    }

    /// Record a deleted value.  Bounds and the sketch are left alone
    /// (conservative — see module docs); only the NULL count shrinks.
    pub fn retire(&mut self, v: &Value) {
        if v.is_null() {
            self.null_count = self.null_count.saturating_sub(1);
        }
    }
}

/// Statistics for one table: a [`ColumnStats`] per column.  The live row
/// count is read from the table itself (it is already exact there).
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    cols: Vec<ColumnStats>,
}

impl TableStats {
    /// Zeroed stats for a table of the given arity.
    pub fn new(arity: usize) -> TableStats {
        TableStats {
            cols: vec![ColumnStats::default(); arity],
        }
    }

    /// Stats of one column (by schema position).
    pub fn column(&self, col: usize) -> &ColumnStats {
        &self.cols[col]
    }

    /// Number of columns covered (none for a hidden table).
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The statistics as a checkpoint stores them: per column the NULL
    /// count, the bounds (NULL where there is none) and the sketch's
    /// hashes.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        codec::put_u32(out, self.cols.len() as u32);
        for c in &self.cols {
            codec::put_u64(out, c.null_count);
            for bound in [&c.min, &c.max] {
                codec::put_value(out, bound.as_ref().unwrap_or(&Value::Null));
            }
            codec::put_u64s(out, &c.sketch.mins);
        }
    }

    /// Read back what [`encode`](Self::encode) wrote.  Bytes of another
    /// shape — bounds without hashes or the reverse, a minimum above the
    /// maximum, more than `SKETCH_K` hashes or hashes out of order — are
    /// `Corrupt`.
    pub(crate) fn decode(buf: &[u8]) -> Result<TableStats> {
        let mut cur = Cur::new(buf);
        let n = cur.len()?;
        let mut cols = Vec::with_capacity(n.min(cur.remaining()));
        for col in 0..n {
            let null_count = cur.u64()?;
            let min = Some(cur.value()?).filter(|v| !v.is_null());
            let max = Some(cur.value()?).filter(|v| !v.is_null());
            let mins = cur.u64s()?;
            let fits = match (&min, &max) {
                (Some(lo), Some(hi)) => lo <= hi && !mins.is_empty(),
                (None, None) => mins.is_empty(),
                _ => false,
            };
            if !fits || mins.len() > SKETCH_K || mins.windows(2).any(|w| w[0] >= w[1]) {
                return Err(BdbmsError::corrupt(format!(
                    "stored statistics of column {col} are malformed"
                )));
            }
            let sketch = DistinctSketch { mins };
            cols.push(ColumnStats {
                min,
                max,
                null_count,
                sketch,
            });
        }
        if !cur.is_empty() {
            return Err(BdbmsError::corrupt(
                "trailing bytes after stored statistics",
            ));
        }
        Ok(TableStats { cols })
    }

    /// Record one inserted row.
    pub fn observe_row(&mut self, values: &[Value]) {
        for (c, v) in self.cols.iter_mut().zip(values) {
            c.observe(v);
        }
    }

    /// Record the value of column `col` encoded at `buf[*pos..]`,
    /// advancing `*pos` past it (see [`ColumnStats::observe_encoded`]).
    pub(crate) fn observe_encoded(
        &mut self,
        col: usize,
        buf: &[u8],
        pos: &mut usize,
    ) -> Result<()> {
        self.cols[col].observe_encoded(buf, pos)
    }

    /// Record the value of column `col`, already decoded from
    /// `encoding` (see [`ColumnStats::observe_decoded`]).
    pub(crate) fn observe_decoded(&mut self, col: usize, v: &Value, encoding: &[u8]) {
        self.cols[col].observe_decoded(v, encoding)
    }

    /// Record one deleted row.
    pub fn retire_row(&mut self, values: &[Value]) {
        for (c, v) in self.cols.iter_mut().zip(values) {
            c.retire(v);
        }
    }

    /// Record an in-place update of one column (of none, when these
    /// statistics cover no columns: a hidden table keeps none).
    pub fn update_cell(&mut self, col: usize, old: &Value, new: &Value) {
        if let Some(c) = self.cols.get_mut(col) {
            c.retire(old);
            c.observe(new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sketch_is_exact_below_k() {
        let mut s = DistinctSketch::default();
        for i in 0..100i64 {
            s.observe(&Value::Int(i % 10));
        }
        assert_eq!(s.estimate(), 10);
    }

    #[test]
    fn sketch_estimates_large_cardinalities() {
        let mut s = DistinctSketch::default();
        for i in 0..50_000i64 {
            s.observe(&Value::Int(i));
        }
        let est = s.estimate() as f64;
        assert!(
            (est - 50_000.0).abs() / 50_000.0 < 0.25,
            "estimate {est} too far from 50000"
        );
    }

    #[test]
    fn sketch_is_deterministic() {
        let run = || {
            let mut s = DistinctSketch::default();
            for i in 0..10_000i64 {
                s.observe(&Value::Int(i * 7));
            }
            s.estimate()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hash_value_is_pinned() {
        // FNV-1a over the canonical encoding; changing a constant here
        // changes every distinct estimate and the plans pinned on them
        assert_eq!(hash_value(&Value::Int(42)), 0xb960_a184_f070_32c6);
        assert_eq!(
            hash_value(&Value::Text("JW0001".into())),
            0x4867_97c4_d0bf_2e14
        );
        assert_eq!(hash_value(&Value::Float(-0.5)), 0x0e1f_ddf5_4edc_0548);
    }

    /// The sketch as an ordered set of the `SKETCH_K` smallest hashes —
    /// the reference the flat sorted-vector sketch must track exactly.
    #[derive(Default)]
    struct SetSketch(std::collections::BTreeSet<u64>);

    impl SetSketch {
        fn observe(&mut self, v: &Value) {
            let h = hash_value(v);
            if self.0.len() < SKETCH_K {
                self.0.insert(h);
            } else {
                let max = *self.0.iter().next_back().unwrap();
                if h < max && self.0.insert(h) {
                    self.0.pop_last();
                }
            }
        }

        fn estimate(&self) -> u64 {
            if self.0.len() < SKETCH_K {
                self.0.len() as u64
            } else {
                let kth = *self.0.iter().next_back().unwrap();
                let frac = kth as f64 / u64::MAX as f64;
                ((SKETCH_K as f64 - 1.0) / frac.max(f64::MIN_POSITIVE)) as u64
            }
        }
    }

    #[test]
    fn sketch_matches_the_ordered_set_reference() {
        let streams: [&dyn Fn(i64) -> Value; 3] = [
            &|i| Value::Int(i * 7 - 25_000),
            &|i| Value::Text(format!("JW{:05}", i * 13 % 50_000)),
            // repeated values: 300 distinct, each seen many times
            &|i| Value::Int(i % 300),
        ];
        for value_of in streams {
            let mut flat = DistinctSketch::default();
            let mut set = SetSketch::default();
            for i in 0..50_000i64 {
                let v = value_of(i);
                flat.observe(&v);
                set.observe(&v);
                if i % 1_000 == 999 {
                    assert_eq!(flat.estimate(), set.estimate(), "after {} values", i + 1);
                    assert!(flat.mins.iter().eq(&set.0), "same minima, at most K");
                }
            }
        }
    }

    /// `ColumnStats::observe` written out on its own, without the shared
    /// update: the reference both entries must track exactly.
    #[derive(Default)]
    struct ReferenceStats {
        min: Option<Value>,
        max: Option<Value>,
        null_count: u64,
        sketch: DistinctSketch,
    }

    impl ReferenceStats {
        fn observe(&mut self, v: &Value) {
            if v.is_null() {
                self.null_count += 1;
                return;
            }
            if self.min.as_ref().is_none_or(|m| v < m) {
                self.min = Some(v.clone());
            }
            if self.max.as_ref().is_none_or(|m| v > m) {
                self.max = Some(v.clone());
            }
            self.sketch.observe(v);
        }
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            // small integers and integral floats interleave in the order
            (-3i64..4).prop_map(Value::Int),
            (-3i64..4).prop_map(|i| Value::Float(i as f64)),
            // ±0.0, ±inf, NaN and arbitrary bit patterns
            any::<f64>().prop_map(Value::Float),
            "[aé日🧬]{0,3}".prop_map(Value::Text),
            prop::collection::vec(any::<char>(), 0..6)
                .prop_map(|cs| Value::Text(cs.into_iter().collect())),
            any::<bool>().prop_map(Value::Bool),
            any::<u64>().prop_map(Value::Timestamp),
        ]
    }

    /// Debug form, so that bounds that compare equal but differ in type
    /// or bits (`Int(2)` / `Float(2.0)`, `0.0` / `-0.0`) still differ.
    fn exact(v: &Option<Value>) -> String {
        format!("{v:?}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn observe_encoded_matches_observe(column in prop::collection::vec(arb_value(), 0..300)) {
            let (mut reference, mut by_bytes) = (ReferenceStats::default(), ColumnStats::default());
            let mut record = Vec::new();
            for v in &column {
                reference.observe(v);
                record.clear();
                v.encode(&mut record);
                let mut pos = 0;
                by_bytes.observe_encoded(&record, &mut pos).unwrap();
                prop_assert_eq!(pos, record.len());
            }
            prop_assert_eq!(exact(&by_bytes.min), exact(&reference.min));
            prop_assert_eq!(exact(&by_bytes.max), exact(&reference.max));
            prop_assert_eq!(by_bytes.null_count, reference.null_count);
            prop_assert_eq!(&by_bytes.sketch.mins, &reference.sketch.mins);
            // `observe` itself goes through the shared update, and so
            // does the entry for a key column, decoded once
            let (mut by_value, mut decoded) = (ColumnStats::default(), ColumnStats::default());
            for v in &column {
                by_value.observe(v);
                record.clear();
                v.encode(&mut record);
                decoded.observe_decoded(&Value::decode(&record, &mut 0).unwrap(), &record);
            }
            for c in [&by_value, &decoded] {
                prop_assert_eq!(exact(&c.min), exact(&reference.min));
                prop_assert_eq!(exact(&c.max), exact(&reference.max));
                prop_assert_eq!(c.null_count, reference.null_count);
                prop_assert_eq!(&c.sketch.mins, &reference.sketch.mins);
            }
        }
    }

    #[test]
    fn observe_encoded_walks_a_record_and_fails_like_decode() {
        // a record's columns back to back, read one after the other
        let mut record = Vec::new();
        let row = [
            Value::Int(7),
            Value::Null,
            Value::Text("日本".into()),
            Value::Bool(true),
        ];
        row.iter().for_each(|v| v.encode(&mut record));
        let mut t = TableStats::new(row.len());
        let mut pos = 0;
        for col in 0..row.len() {
            t.observe_encoded(col, &record, &mut pos).unwrap();
        }
        assert_eq!(pos, record.len());
        assert_eq!(t.column(2).max, Some(Value::Text("日本".into())));
        assert_eq!(t.column(1).null_count, 1);

        let broken: [&[u8]; 7] = [
            &[],                          // nothing at all
            &[9],                         // unknown tag
            &[1, 0, 0],                   // truncated INT
            &[3, 1, 0],                   // truncated TEXT length
            &[3, 5, 0, 0, 0, b'a'],       // truncated TEXT payload
            &[3, 2, 0, 0, 0, 0xff, 0xfe], // invalid UTF-8
            &[3, 2, 0, 0, 0, 0xe6, 0x97], // a cut multi-byte character
        ];
        for bytes in broken {
            let want = Value::decode(bytes, &mut 0).unwrap_err().code();
            let mut c = ColumnStats::default();
            let got = c.observe_encoded(bytes, &mut 0).unwrap_err().code();
            assert_eq!(got, want, "{bytes:?}");
            assert!(
                c.min.is_none() && c.null_count == 0 && c.distinct() == 0,
                "{bytes:?}"
            );
        }
    }

    /// What a checkpoint stores reads back identical, in `Debug` form;
    /// bytes of another shape are refused.
    #[test]
    fn stored_statistics_read_back_identical() {
        let mut t = TableStats::new(3);
        for i in 0..1_000i64 {
            let note = if i % 9 == 0 {
                Value::Null
            } else {
                Value::Text(format!("n{}", i % 50))
            };
            t.observe_row(&[Value::Int(i), note, Value::Null]);
        }
        t.retire_row(&[Value::Int(0), Value::Null, Value::Null]);
        let mut bytes = Vec::new();
        t.encode(&mut bytes);
        let back = TableStats::decode(&bytes).unwrap();
        assert_eq!(format!("{back:?}"), format!("{t:?}"));
        assert_eq!(back.column(0).distinct(), t.column(0).distinct());

        // one column: NULL count, min 1, max 2, one hash
        let column = |min: Value, max: Value, hashes: &[u64]| {
            let mut b = Vec::new();
            codec::put_u32(&mut b, 1);
            codec::put_u64(&mut b, 0);
            codec::put_value(&mut b, &min);
            codec::put_value(&mut b, &max);
            codec::put_u64s(&mut b, hashes);
            b
        };
        assert!(TableStats::decode(&column(Value::Int(1), Value::Int(2), &[7])).is_ok());
        let many: Vec<u64> = (0..=SKETCH_K as u64).collect();
        for bad in [
            column(Value::Int(2), Value::Int(1), &[7]),
            column(Value::Int(1), Value::Null, &[7]),
            column(Value::Int(1), Value::Int(2), &[]),
            column(Value::Null, Value::Null, &[7]),
            column(Value::Int(1), Value::Int(2), &[8, 7]),
            column(Value::Int(1), Value::Int(2), &many),
            [column(Value::Int(1), Value::Int(2), &[7]), vec![0]].concat(),
            bytes[..bytes.len() - 1].to_vec(),
        ] {
            let err = TableStats::decode(&bad).unwrap_err();
            assert_eq!(err.code(), bdbms_common::ErrorCode::Corrupt, "{bad:?}");
        }
    }

    #[test]
    fn column_stats_track_bounds_and_nulls() {
        let mut c = ColumnStats::default();
        c.observe(&Value::Int(5));
        c.observe(&Value::Int(-3));
        c.observe(&Value::Null);
        c.observe(&Value::Int(10));
        assert_eq!(c.min, Some(Value::Int(-3)));
        assert_eq!(c.max, Some(Value::Int(10)));
        assert_eq!(c.null_count, 1);
        assert_eq!(c.distinct(), 3);
        c.retire(&Value::Null);
        assert_eq!(c.null_count, 0);
        // deletes never shrink bounds
        c.retire(&Value::Int(-3));
        assert_eq!(c.min, Some(Value::Int(-3)));
    }

    #[test]
    fn table_stats_row_api() {
        let mut t = TableStats::new(2);
        t.observe_row(&[Value::Int(1), Value::Text("a".into())]);
        t.observe_row(&[Value::Int(2), Value::Text("a".into())]);
        assert_eq!(t.column(0).distinct(), 2);
        assert_eq!(t.column(1).distinct(), 1);
        t.update_cell(0, &Value::Int(2), &Value::Int(9));
        assert_eq!(t.column(0).max, Some(Value::Int(9)));
        t.retire_row(&[Value::Int(1), Value::Text("a".into())]);
        assert_eq!(t.column(0).null_count, 0);
    }
}
