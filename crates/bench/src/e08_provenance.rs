//! E08 — Provenance at multiple granularities and time travel (Figure 8).
//!
//! Replays the figure's story at scale: values arrive from sources S1/S2
//! or local inserts, a program P1 updates some, source S3 overwrites a
//! column — then "what is the source of this value at time T?" must
//! answer correctly for every (cell, T).

use std::time::Instant;

use bdbms_core::provenance::{ProvOp, ProvenanceRecord};
use bdbms_core::Database;

use crate::report::{ms, Report};

/// E08 report.
pub fn run() -> Report {
    let mut r = Report::new(
        "e08",
        "provenance management: multi-source lineage + time travel (Figure 8)",
        "data from sources S1/S2/local, updated by program P1, overwritten by \
         S3; query the source of any value at any time T",
    );
    r.headers(&[
        "rows",
        "prov records",
        "time-travel queries",
        "correct",
        "ms/query",
    ]);
    for n in [500usize, 2000] {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE T (id INT, v TEXT)").unwrap();
        let mut multi = String::from("INSERT INTO T VALUES ");
        for i in 0..n {
            if i > 0 {
                multi.push_str(", ");
            }
            multi.push_str(&format!("({i}, 'v{i}')"));
        }
        db.execute(&multi).unwrap();
        db.enable_provenance("T").unwrap();
        // phase 1: halves from S1 / S2
        let half: Vec<u64> = (0..n as u64 / 2).collect();
        let rest: Vec<u64> = (n as u64 / 2..n as u64).collect();
        let rec = |source: &str, op: ProvOp| ProvenanceRecord {
            source: source.into(),
            operation: op,
            program: None,
            time: 0,
        };
        db.record_provenance("T", &half, &[0, 1], &rec("S1", ProvOp::Copy))
            .unwrap();
        db.record_provenance("T", &rest, &[0, 1], &rec("S2", ProvOp::Copy))
            .unwrap();
        let t_loaded = db.now();
        // phase 2: program P1 updates every 4th row's v
        let p1_rows: Vec<u64> = (0..n as u64).step_by(4).collect();
        db.record_provenance("T", &p1_rows, &[1], &rec("P1", ProvOp::ProgramUpdate))
            .unwrap();
        let t_program = db.now();
        // phase 3: S3 overwrites the whole v column
        let all: Vec<u64> = (0..n as u64).collect();
        db.record_provenance("T", &all, &[1], &rec("S3", ProvOp::Overwrite))
            .unwrap();
        let t_final = db.now();

        // time-travel correctness over sampled cells × times
        let mut correct = 0;
        let mut total = 0;
        let t0 = Instant::now();
        for row in (0..n as u64).step_by(7) {
            for (at, expect) in [
                (t_loaded, if row < n as u64 / 2 { "S1" } else { "S2" }),
                (
                    t_program,
                    if row % 4 == 0 {
                        "P1"
                    } else if row < n as u64 / 2 {
                        "S1"
                    } else {
                        "S2"
                    },
                ),
                (t_final, "S3"),
            ] {
                total += 1;
                let got = db.source_of("T", row, 1, at).unwrap();
                if got.map(|g| g.source) == Some(expect.to_string()) {
                    correct += 1;
                }
            }
        }
        let elapsed = t0.elapsed() / total as u32;
        let prov_set = db.catalog().annotation_set("T", "provenance").unwrap();
        let prov_records = prov_set.index().len();
        r.row(vec![
            n.to_string(),
            prov_records.to_string(),
            total.to_string(),
            format!("{correct}/{total}"),
            ms(elapsed),
        ]);
        assert_eq!(correct, total);
    }
    r.note(
        "provenance stored as rectangle annotations: whole-column overwrites are single records",
    );
    r
}
