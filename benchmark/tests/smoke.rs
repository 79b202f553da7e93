//! Smoke test: every workload runs end to end at 1 % scale for one
//! second, untraced and traced, answers correctly, and prints exactly
//! the metrics `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_bdbms-benchmark");

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(section: &Json) -> Vec<String> {
    section
        .as_arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(EXE)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--scale",
            "0.01",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );
    let line = stdout.lines().last().expect("a result line");
    Json::parse(line).unwrap_or_else(|e| panic!("{workload}: bad result line ({e}): {line}"))
}

fn check(workload: &str, trace: bool) {
    let m = manifest();
    let section = if trace { "per_layer" } else { "end_to_end" };
    let declared: BTreeSet<String> = names(m.get(section).expect(section)).into_iter().collect();
    let unit_of = |name: &str| {
        m.get(section)
            .expect(section)
            .as_arr()
            .iter()
            .find(|d| d.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|d| d.get("unit"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    let result = run(workload, trace);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let printed: BTreeSet<String> = metrics.keys().cloned().collect();
    assert_eq!(printed, declared, "{workload} trace={trace}");
    for (name, v) in metrics {
        let value = v.get("value").and_then(Json::as_f64).expect("a value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert_eq!(
            v.get("unit").and_then(Json::as_str).map(str::to_string),
            unit_of(name),
            "{name}"
        );
        if !trace {
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} is {value}"
            );
        }
    }
}

#[test]
fn wire_oltp_80r20w() {
    check("wire_oltp_80r20w", false);
    check("wire_oltp_80r20w", true);
}

#[test]
fn embedded_analytic() {
    check("embedded_analytic", false);
    check("embedded_analytic", true);
}

#[test]
fn curation_txn() {
    check("curation_txn", false);
    check("curation_txn", true);
}

#[test]
fn seq_pipeline() {
    check("seq_pipeline", false);
    check("seq_pipeline", true);
}

#[test]
fn manifest_names_are_unique_well_formed_and_cover_the_workloads() {
    let m = manifest();
    let workloads = names(m.get("workloads").expect("workloads"));
    assert_eq!(
        workloads,
        [
            "wire_oltp_80r20w",
            "embedded_analytic",
            "curation_txn",
            "seq_pipeline"
        ]
    );
    let mut seen = BTreeSet::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for name in names(m.get(section).expect(section)) {
            assert!(
                name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{name}"
            );
            assert!(seen.insert(name.clone()), "duplicate name {name}");
        }
    }
    for w in m.get("workloads").expect("workloads").as_arr() {
        let why = w.get("why").and_then(Json::as_str).expect("a why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    let e2e = names(m.get("end_to_end").expect("end_to_end"));
    assert_eq!(
        e2e,
        [
            "throughput_ops_s",
            "p50_us",
            "setup_s",
            "open_s",
            "peak_rss_mb"
        ]
    );
    for metric in m.get("end_to_end").expect("end_to_end").as_arr() {
        let bound = metric.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
}
