//! Golden-output tests for `EXPLAIN` and a differential test pinning
//! `EXPLAIN ANALYZE` actuals against the executor counters the same
//! query reports through [`QueryResult::stats`].

use bdbms_common::Value;
use bdbms_core::{Database, QueryResult};

fn setup() -> Database {
    let mut db = Database::new_in_memory();
    for sql in [
        "CREATE TABLE Gene (GID TEXT, Chrom TEXT, Len INT)",
        "CREATE INDEX gene_gid ON Gene (GID)",
        "CREATE TABLE Prot (PID TEXT, GID TEXT, Mass INT)",
        "CREATE TABLE Seq (SID TEXT, Residues TEXT)",
        "CREATE SEQUENCE INDEX seq_res ON Seq (Residues) USING SBC",
    ] {
        db.execute(sql).unwrap();
    }
    for i in 0..200 {
        db.execute(&format!(
            "INSERT INTO Gene VALUES ('G{i:03}', 'chr{}', {})",
            i % 5,
            i * 3
        ))
        .unwrap();
        db.execute(&format!(
            "INSERT INTO Prot VALUES ('P{i:03}', 'G{i:03}', {})",
            i * 7
        ))
        .unwrap();
    }
    for i in 0..20 {
        db.execute(&format!(
            "INSERT INTO Seq VALUES ('S{i}', 'ACGTACGTTTAGGC')"
        ))
        .unwrap();
    }
    db.execute("ANALYZE Gene").unwrap();
    db.execute("ANALYZE Prot").unwrap();
    db
}

fn plan_text(qr: &QueryResult) -> Vec<String> {
    assert_eq!(qr.columns, ["plan"]);
    qr.rows
        .iter()
        .map(|r| match &r.values[0] {
            Value::Text(t) => t.clone(),
            other => panic!("plan rows must be text, got {other:?}"),
        })
        .collect()
}

#[test]
fn explain_point_lookup_uses_index() {
    let mut db = setup();
    let qr = db
        .execute("EXPLAIN SELECT Len FROM Gene WHERE GID = 'G007'")
        .unwrap();
    let lines = plan_text(&qr);
    assert_eq!(lines[0], "Project: Len");
    assert!(
        lines[1]
            .trim_start()
            .starts_with("Index Scan Gene using gene_gid (GID = 'G007')"),
        "expected an index point probe, got: {}",
        lines[1]
    );
    assert!(
        lines[1].contains("of 200)"),
        "row estimate missing: {}",
        lines[1]
    );
}

#[test]
fn explain_range_scan_renders_bounds() {
    let mut db = setup();
    let qr = db
        .execute("EXPLAIN SELECT GID FROM Gene WHERE GID >= 'G010' AND GID <= 'G020'")
        .unwrap();
    let lines = plan_text(&qr);
    assert_eq!(lines[0], "Project: GID");
    assert!(
        lines[1]
            .trim_start()
            .starts_with("Index Scan Gene using gene_gid (GID >= 'G010' AND GID <= 'G020')"),
        "expected an index range probe, got: {}",
        lines[1]
    );
    // the probe column is the only projected column: index-only
    assert!(
        lines[1].contains("(index-only)"),
        "expected index-only marker: {}",
        lines[1]
    );
}

#[test]
fn explain_join_shows_build_and_probe_sides() {
    let mut db = setup();
    let qr = db
        .execute(
            "EXPLAIN SELECT Prot.PID, Gene.Len FROM Gene, Prot \
             WHERE Gene.GID = Prot.GID AND Gene.Chrom = 'chr1'",
        )
        .unwrap();
    let lines = plan_text(&qr);
    assert_eq!(lines[0], "Project: PID, Len");
    let join = lines
        .iter()
        .find(|l| l.trim_start().starts_with("Hash Join"))
        .expect("plan must contain a hash join");
    assert!(join.trim_start().starts_with("Hash Join"), "{join}");
    assert!(
        lines.iter().any(|l| l.trim_start().starts_with("Build: ")),
        "plan must show the build side: {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.trim_start().starts_with("Probe: ")),
        "plan must show the probe side: {lines:?}"
    );
    // the filtered conjunct is pushed to its scan
    assert!(
        lines
            .iter()
            .any(|l| l.trim_start().starts_with("Pushed: ") && l.contains("Chrom")),
        "pushed predicate missing: {lines:?}"
    );
}

#[test]
fn explain_limit_pushdown_is_visible() {
    let mut db = setup();
    let qr = db.execute("EXPLAIN SELECT GID FROM Gene LIMIT 5").unwrap();
    let lines = plan_text(&qr);
    assert_eq!(lines[0], "Project: GID");
    assert!(
        lines.iter().any(|l| l.trim_start().starts_with("Limit 5")),
        "pushed limit missing: {lines:?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.trim_start().starts_with("Seq Scan Gene")),
        "expected a sequential scan: {lines:?}"
    );
}

/// The sequence-index probe answers its conjunct exactly: the node says
/// so and the conjunct is not listed as re-checked; any *other* pushed
/// conjunct still is.  The executor counters are what they were when the
/// conjunct was re-checked on every candidate.
#[test]
fn explain_seq_index_scan_is_exact() {
    let mut db = setup();
    db.execute("INSERT INTO Seq VALUES ('S20', 'TTTTTTTT'), ('S21', NULL)")
        .unwrap();
    let sql = "SELECT SID FROM Seq WHERE Residues CONTAINS SEQ 'ACGT'";
    let lines = plan_text(&db.execute(&format!("EXPLAIN {sql}")).unwrap());
    assert_eq!(
        lines,
        [
            "Project: SID",
            "  Seq Index Scan Seq using seq_res (Residues CONTAINS SEQ 'ACGT') (exact) \
             (rows~1.1 of 22)",
        ]
    );

    let lines = plan_text(
        &db.execute(&format!(
            "EXPLAIN {sql} AND SID LIKE 'S1%' AND Residues LIKE '%C'"
        ))
        .unwrap(),
    );
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert!(lines[1].contains("(exact)"), "{lines:?}");
    assert_eq!(
        lines[2].trim_start(),
        "Pushed: SID LIKE 'S1%' AND Residues LIKE '%C'"
    );

    let stats = db
        .execute(sql)
        .unwrap()
        .stats
        .expect("SELECT carries stats");
    assert_eq!(stats.seq_index_probes, 1);
    assert_eq!(stats.chosen_indexes, ["seq_res"]);
    assert_eq!(stats.rows_fetched, 20, "the 20 matching rows, not 22");
    assert_eq!(stats.rows_scan_filtered, 0);
    let lines = plan_text(&db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap());
    assert!(
        lines[1].contains("(exact)") && lines[1].contains("(actual: rows=20 batches=1"),
        "{lines:?}"
    );
}

#[test]
fn explain_does_not_execute() {
    let mut db = setup();
    let qr = db
        .execute("EXPLAIN SELECT * FROM Gene WHERE Len > 10")
        .unwrap();
    assert!(qr.stats.is_none(), "EXPLAIN must not carry executor stats");
    assert!(!plan_text(&qr).is_empty());
    // no rows of the underlying query leak out
    assert_eq!(qr.columns, ["plan"]);
}

#[test]
fn explain_rejects_non_select() {
    let mut db = setup();
    let err = db
        .execute("EXPLAIN INSERT INTO Gene VALUES ('X', 'c', 1)")
        .unwrap_err();
    assert!(err.message().contains("EXPLAIN supports only SELECT"));
}

#[test]
fn explain_analyze_matches_exec_stats() {
    let mut db = setup();
    let sql = "SELECT Prot.PID, Gene.Len FROM Gene, Prot \
               WHERE Gene.GID = Prot.GID AND Gene.Chrom = 'chr1'";
    // ground truth: run the query and capture its counters
    let plain = db.execute(sql).unwrap();
    let stats = plain.stats.clone().expect("SELECT carries stats");

    let qr = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let lines = plan_text(&qr);

    // every pipeline operator reports actuals
    let actual_lines: Vec<&String> = lines.iter().filter(|l| l.contains("(actual: ")).collect();
    assert!(
        !actual_lines.is_empty(),
        "EXPLAIN ANALYZE must annotate operators with actuals: {lines:?}"
    );

    // the output-row count in the Actual summary equals the real result
    let actual = lines
        .iter()
        .find(|l| l.trim_start().starts_with("Actual: "))
        .expect("Actual summary line");
    assert!(
        actual.contains(&format!("output rows={}", plain.rows.len())),
        "row count mismatch: {actual} vs {} rows",
        plain.rows.len()
    );

    // the Stats line mirrors the ExecStats counters of the plain run
    let stat_line = lines
        .iter()
        .find(|l| l.trim_start().starts_with("Stats: "))
        .expect("Stats summary line");
    for (name, v) in [
        ("rows_fetched", stats.rows_fetched),
        ("index_probes", stats.index_probes),
        ("full_scans", stats.full_scans),
    ] {
        assert!(
            stat_line.contains(&format!("{name}={v}")),
            "counter {name} mismatch: {stat_line} (expected {v})"
        );
    }
}

/// The shell prints a result through `to_table`; a plan line must reach
/// the terminal whole — the per-operator actuals and the tail of the
/// `Stats:` line are what `EXPLAIN ANALYZE` is for.
#[test]
fn rendered_explain_analyze_keeps_its_actuals() {
    let mut db = setup();
    let qr = db
        .execute(
            "EXPLAIN ANALYZE SELECT Prot.PID, Gene.Len FROM Gene, Prot \
             WHERE Gene.GID = Prot.GID AND Gene.Chrom = 'chr1' AND Gene.Len + Prot.Mass > 0",
        )
        .unwrap();
    let table = qr.to_table();
    for line in plan_text(&qr) {
        assert!(table.contains(&line), "cut in the rendered table: {line}");
    }
    let filter = table
        .lines()
        .find(|l| l.trim_start().starts_with("Filter: "))
        .expect("residual filter node");
    assert!(
        filter.contains("batches=") && filter.contains("time="),
        "{filter}"
    );
    assert!(table.contains("limit_pushdowns=0"), "{table}");
    // other columns keep their cap, so a wide cell cannot push the rest
    // of the row off the screen
    db.execute("CREATE TABLE Wide (A TEXT, B TEXT)").unwrap();
    let long = "x".repeat(100);
    db.execute(&format!("INSERT INTO Wide VALUES ('{long}', '{long}')"))
        .unwrap();
    let table = db.execute("SELECT A, B FROM Wide").unwrap().to_table();
    let row = table.lines().nth(2).unwrap();
    assert!(row.starts_with(&format!("{}… ", "x".repeat(39))), "{row}");
    assert!(row.trim_end().ends_with(&format!(" {long}")), "{row}");
}

#[test]
fn explain_shows_having_above_aggregate() {
    let mut db = setup();
    let lines = plan_text(
        &db.execute(
            "EXPLAIN SELECT Chrom, COUNT(*) FROM Gene GROUP BY Gene.Chrom HAVING COUNT(*) > 0",
        )
        .unwrap(),
    );
    assert_eq!(
        lines[..2],
        [
            "Having: (COUNT(*) > 0)",
            "  Aggregate (group by Gene.Chrom): Chrom, count",
        ],
        "{lines:?}"
    );
    assert!(
        lines[2].trim_start().starts_with("Seq Scan Gene"),
        "{lines:?}"
    );
}

#[test]
fn explain_shows_ahaving_above_aggregate() {
    let mut db = setup();
    db.execute("CREATE ANNOTATION TABLE Notes ON Gene").unwrap();
    let lines = plan_text(
        &db.execute(
            "EXPLAIN SELECT COUNT(*) FROM Gene ANNOTATION(Notes) GROUP BY Chrom \
             HAVING COUNT(*) > 1 AHAVING CONTAINS 'curated' ORDER BY Chrom DESC",
        )
        .unwrap(),
    );
    assert_eq!(
        lines[..4],
        [
            "Sort: Chrom DESC",
            "  Having: (COUNT(*) > 1)",
            "    AHaving: CONTAINS 'curated'",
            "      Aggregate (group by Chrom): count",
        ],
        "{lines:?}"
    );
}

#[test]
fn explain_set_operation_tree() {
    let mut db = setup();
    let qr = db
        .execute(
            "EXPLAIN SELECT GID FROM Gene WHERE Chrom = 'chr0' \
             UNION SELECT GID FROM Prot ORDER BY GID LIMIT 3",
        )
        .unwrap();
    let lines = plan_text(&qr);
    assert_eq!(lines[0], "Limit 3");
    assert!(lines[1].trim_start().starts_with("Sort: "), "{lines:?}");
    assert_eq!(lines[2].trim(), "Union");
    assert!(
        lines.iter().skip(3).any(|l| l.contains("Scan Gene")),
        "{lines:?}"
    );
    assert!(
        lines.iter().skip(3).any(|l| l.contains("Scan Prot")),
        "{lines:?}"
    );
}

#[test]
fn slow_query_log_records_and_shows() {
    let mut db = setup();
    assert!(db.slow_query_threshold().is_none(), "off by default");
    db.execute("SELECT GID FROM Gene WHERE GID = 'G007'")
        .unwrap();
    assert!(db.slow_queries().is_empty(), "nothing recorded while off");

    // a zero threshold records every statement
    db.set_slow_query_threshold(Some(std::time::Duration::ZERO));
    db.execute("SELECT GID FROM Gene WHERE GID = 'G007'")
        .unwrap();
    let logged = db.slow_queries();
    let entry = logged.last().expect("statement recorded");
    assert_eq!(entry.sql, "SELECT GID FROM Gene WHERE GID = 'G007'");
    assert_eq!(entry.user, "admin");
    assert!(entry.duration_ns > 0);
    assert!(
        entry.plan_summary.contains("indexes=[\"gene_gid\"]"),
        "plan summary carries the chosen index: {}",
        entry.plan_summary
    );

    let qr = db.execute("SHOW SLOW QUERIES").unwrap();
    assert_eq!(qr.columns, ["time", "user", "duration_us", "plan", "sql"]);
    assert!(!qr.rows.is_empty());
    let last = qr.rows.last().unwrap();
    assert_eq!(
        last.values[4],
        Value::Text("SELECT GID FROM Gene WHERE GID = 'G007'".into())
    );

    // the ring is bounded: flooding it keeps the newest 128
    for i in 0..200 {
        db.execute(&format!("SELECT GID FROM Gene WHERE Len = {i}"))
            .unwrap();
    }
    let logged = db.slow_queries();
    assert_eq!(logged.len(), 128, "ring buffer caps at 128 entries");
    assert!(
        logged.last().unwrap().sql.contains("Len = 199"),
        "newest entries survive eviction"
    );

    db.set_slow_query_threshold(None);
    db.execute("SELECT GID FROM Gene WHERE GID = 'G007'")
        .unwrap();
    assert_eq!(
        db.slow_queries().len(),
        128,
        "recording stops when disabled"
    );
}
