//! E11 — Content-based approval (Figure 11, §6).
//!
//! Measures the logging overhead the approval machinery adds to updates,
//! the size of the operation log with its auto-generated inverses, and
//! the correctness/throughput of bulk disapproval (inverse execution).

use std::time::Instant;

use bdbms_core::approval::LoggedOp;

use crate::report::{ms, Report};
use crate::workloads::pipeline_db;

/// E11 report.
pub fn run() -> Report {
    let mut r = Report::new(
        "e11",
        "content-based approval: logging overhead + inverse execution",
        "all updates logged with auto-generated inverse statements; \
         disapproval executes the inverse and re-triggers dependency tracking",
    );
    r.headers(&[
        "updates",
        "approval",
        "ms/update",
        "log entries",
        "log bytes",
        "undone ok",
    ]);
    for n in [200usize, 1000] {
        // OFF baseline
        let mut db = pipeline_db(n, 30);
        let t0 = Instant::now();
        for i in 0..n {
            let gid = bdbms_seq::gen::gene_id(i);
            db.execute(&format!(
                "UPDATE Gene SET GSequence = 'AAACCCGGG' WHERE GID = '{gid}'"
            ))
            .unwrap();
        }
        let off_t = t0.elapsed() / n as u32;
        r.row(vec![
            n.to_string(),
            "OFF".into(),
            ms(off_t),
            "0".into(),
            "0".into(),
            "-".into(),
        ]);

        // ON: log everything, then disapprove everything
        let mut db = pipeline_db(n, 30);
        db.execute("CREATE USER labadmin").unwrap();
        db.execute("CREATE USER alice").unwrap();
        db.execute("GRANT SELECT, UPDATE ON Gene TO alice").unwrap();
        db.execute("START CONTENT APPROVAL ON Gene APPROVED BY labadmin")
            .unwrap();
        let originals: Vec<String> = (0..n)
            .map(|i| {
                let gid = bdbms_seq::gen::gene_id(i);
                db.execute(&format!("SELECT GSequence FROM Gene WHERE GID = '{gid}'"))
                    .unwrap()
                    .rows[0]
                    .values[0]
                    .to_string()
            })
            .collect();
        let t0 = Instant::now();
        for i in 0..n {
            let gid = bdbms_seq::gen::gene_id(i);
            db.execute_as(
                &format!("UPDATE Gene SET GSequence = 'AAACCCGGG' WHERE GID = '{gid}'"),
                "alice",
            )
            .unwrap();
        }
        let on_t = t0.elapsed() / n as u32;
        let log = db.approval_log(None).unwrap();
        let log_entries = log.len();
        let arity = db.catalog().table("Gene").unwrap().schema.arity();
        let log_bytes = log_bytes(&log, arity);
        // disapprove everything; all originals must come back
        let ids: Vec<u64> = db
            .pending_operations(None)
            .unwrap()
            .iter()
            .map(|op| op.id.raw())
            .collect();
        for id in ids {
            db.execute_as(&format!("DISAPPROVE OPERATION {id}"), "labadmin")
                .unwrap();
        }
        let mut undone = 0;
        for (i, orig) in originals.iter().enumerate() {
            let gid = bdbms_seq::gen::gene_id(i);
            let now = db
                .execute(&format!("SELECT GSequence FROM Gene WHERE GID = '{gid}'"))
                .unwrap()
                .rows[0]
                .values[0]
                .to_string();
            if now == *orig {
                undone += 1;
            }
        }
        r.row(vec![
            n.to_string(),
            "ON".into(),
            ms(on_t),
            log_entries.to_string(),
            log_bytes.to_string(),
            format!("{undone}/{n}"),
        ]);
        assert_eq!(undone, n);
    }
    r.note("updates stay visible while pending (§6); disapproval restores every original value through the stored inverse");
    r
}

/// Bytes of log storage: each entry's row as the approval log stores
/// it (the inverse's old values included).
fn log_bytes(log: &[LoggedOp], arity: usize) -> usize {
    let row_bytes = |op: &LoggedOp| {
        let mut buf = Vec::new();
        op.to_row(arity).iter().for_each(|v| v.encode(&mut buf));
        buf.len()
    };
    log.iter().map(row_bytes).sum()
}
