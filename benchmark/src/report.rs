//! Metric names, units and the result a workload run hands back.
//!
//! The two tables here are the benchmark's contract with
//! `BENCHMARK.json` (the smoke test asserts they are equal): the
//! end-to-end metrics printed by an untraced run and the per-layer
//! rows printed by a traced run, for every workload.

use std::collections::BTreeMap;

use crate::json::{num, quote};

pub const WORKLOADS: [&str; 4] = [
    "wire_oltp_80r20w",
    "embedded_analytic",
    "curation_txn",
    "seq_pipeline",
];

/// `(name, unit, regression bound, better)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str, f64, &str); 5] = [
    ("throughput_ops_s", "ops/s", 0.25, "higher"),
    ("p50_us", "us", 0.25, "lower"),
    ("setup_s", "s", 0.25, "lower"),
    ("open_s", "s", 0.25, "lower"),
    ("peak_rss_mb", "MiB", 0.15, "lower"),
];

/// `(name, unit)` of every per-layer row in the result line.  Each is
/// measured on every workload; rows that exist only on some workloads
/// (`stmt.<kind>.p50_us`, `checkpoint.stall_max_ms`, per-span self
/// times) are printed in the report on standard error and written to
/// `trace.<workload>.json`, not here.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("client.p99_us", "us"),
    ("client.ops_failed", "count"),
    ("client.explained_frac", "frac"),
    ("client.frames_per_op", "count"),
    ("trace.overhead_frac", "frac"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("server.ping_rtt_us", "us"),
    ("server.point_exec_rtt_us", "us"),
    ("server.queue_us", "us"),
    ("parser.ns_per_stmt", "ns"),
    ("plan.prepare_us", "us"),
    ("plan_cache.hit_frac", "frac"),
    ("exec.scan_rows_s", "rows/s"),
    ("exec.rows_fetched_per_row_out", "ratio"),
    ("ann.propagate_over_plain", "ratio"),
    ("ann.add_us", "us"),
    ("dep.update_cascade_us", "us"),
    ("approval.decide_us", "us"),
    ("commit_us", "us"),
    ("checkpoint_ms", "ms"),
    ("checkpoint.bytes_per_commit", "bytes"),
    ("checkpoint.stall_frac", "frac"),
    ("open.recovery_ms", "ms"),
    ("stored_bytes_per_user_byte", "ratio"),
    ("wal.append_ns", "ns"),
    ("wal.fsync_us", "us"),
    ("wal.fsyncs_per_commit", "ratio"),
    ("group.mean_size", "count"),
    ("buffer.hit_frac", "frac"),
    ("buffer.hit_ns", "ns"),
    ("buffer.miss_us", "us"),
    ("buffer.evictions", "count"),
    ("heap.decode_ns_per_record", "ns"),
    ("heap.get_ns", "ns"),
    ("bptree.lookup_ns", "ns"),
    ("bptree.insert_ns", "ns"),
    ("sbc.build_ns_per_record", "ns"),
    ("sbc.probe_us", "us"),
    ("sbc.candidates_per_hit", "ratio"),
    ("sbc.insert_us", "us"),
    ("ingest.copy_rows_s", "rows/s"),
    ("calib_ms", "ms"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "bytes"),
    ("client.samples", "count"),
    ("client.tail_pct", "%"),
];

/// Named values with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Rows(pub Vec<(String, f64, &'static str)>);

impl Rows {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when any output check failed (also counted in `failed`)
    /// or a bypass assertion did not hold.
    pub correct: bool,
    /// End-to-end metrics (untraced run) or per-layer rows (traced).
    pub metrics: Rows,
    /// Rows for the human-readable report and `trace.json` only.
    pub extra: Rows,
    pub notes: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result the driver reads.  `expected` is the
    /// table the metrics must cover exactly.
    pub fn result_line(&self, expected: &[(&str, &str)]) -> Result<String, String> {
        let have: BTreeMap<&str, (f64, &str)> = self
            .metrics
            .0
            .iter()
            .map(|(n, v, u)| (n.as_str(), (*v, *u)))
            .collect();
        let mut parts = Vec::new();
        for (name, unit) in expected {
            let (value, have_unit) = have
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if have_unit != unit {
                return Err(format!("metric `{name}` has unit {have_unit}, not {unit}"));
            }
            parts.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            ));
        }
        if have.len() != expected.len() {
            return Err("a metric outside the declared table was measured".into());
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }

    /// The report for people, written to standard error.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "== {workload}: ops_attempted={} ops_failed={} correct={}\n",
            self.attempted, self.failed, self.correct
        );
        for (name, value, unit) in self.metrics.0.iter().chain(&self.extra.0) {
            out.push_str(&format!("  {name:<34} {value:>16.4} {unit}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        let units = END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for name in all {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "bad name {name}"
            );
        }
        for unit in units {
            assert!(unit.len() <= 16);
            assert!(unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
    }

    #[test]
    fn tables_equal_benchmark_json() {
        use crate::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let m = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |d: &Json, k: &str| d.get(k).and_then(Json::as_str).unwrap().to_string();
        let declared: Vec<String> = m
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|d| field(d, "name"))
            .collect();
        assert_eq!(declared, WORKLOADS);
        let declared: Vec<(String, String, f64, String)> = m
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .map(|d| {
                (
                    field(d, "name"),
                    field(d, "unit"),
                    d.get("bound").unwrap().as_f64().unwrap(),
                    field(d, "better"),
                )
            })
            .collect();
        let ours: Vec<(String, String, f64, String)> = END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2, m.3.to_string()))
            .collect();
        assert_eq!(declared, ours);
        let declared: Vec<(String, String)> = m
            .get("per_layer")
            .unwrap()
            .as_arr()
            .iter()
            .map(|d| (field(d, "name"), field(d, "unit")))
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn result_line_demands_the_exact_table() {
        let mut o = Outcome {
            attempted: 3,
            correct: true,
            ..Default::default()
        };
        o.metrics.set("a", 1.5, "s");
        assert!(o.result_line(&[("a", "s"), ("b", "s")]).is_err());
        let line = o.result_line(&[("a", "s")]).unwrap();
        let v = crate::json::Json::parse(&line).unwrap();
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("a")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.5)
        );
    }
}
