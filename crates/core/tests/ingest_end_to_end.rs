//! Bulk ingestion end to end: the `COPY` statement (FASTA and TSV), the
//! sequence-index catalog surface (`CREATE SEQUENCE INDEX … USING
//! SBC|SUFFIX`), planner routing of `CONTAINS SEQ` through the sequence
//! index (observed via `ExecStats`), durability round trips, and the
//! mid-COPY fault-injection sweep proving the load is atomic: after any
//! single injected I/O fault plus a crash, recovery sees zero copied
//! rows exactly when `COPY` failed and the complete load exactly when it
//! succeeded — never a partial heap, never a stale sequence index, and
//! never a read of the source file.

mod support;

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use bdbms_core::{Database, DurabilityOptions};
use bdbms_storage::{FaultInjector, FaultKind};

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bdbms-ingest-{}-{name}.bdbms", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Write a deterministic FASTA file of `n` records (same generator family
/// as `crates/seq::gen`: short DNA with runs, so the SBC-tree sees
/// realistic RLE input).
fn fasta_file(name: &str, n: usize) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("bdbms-ingest-{}-{name}.fasta", std::process::id()));
    let mut out = String::new();
    for i in 0..n {
        let bases = ["AAAC", "CCGT", "GGGA", "TTAC"];
        let mut seq = String::new();
        for j in 0..6 {
            seq.push_str(bases[(i + j) % 4]);
        }
        // a recognizable motif on every 7th record
        if i % 7 == 0 {
            seq.push_str("CATCAT");
        }
        writeln!(out, ">JW{i:04} synthetic record {i}").unwrap();
        // sequences split across lines, as real FASTA is
        let (a, b) = seq.split_at(seq.len() / 2);
        writeln!(out, "{a}").unwrap();
        writeln!(out, "{b}").unwrap();
    }
    fs::write(&path, out).unwrap();
    path
}

fn tsv_file(name: &str, body: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bdbms-ingest-{}-{name}.tsv", std::process::id()));
    fs::write(&path, body).unwrap();
    path
}

#[test]
fn copy_fasta_loads_headers_and_sequences() {
    let data = fasta_file("fasta-basic", 25);
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Gene (Hdr TEXT, Seq TEXT, Note TEXT)")
        .unwrap();
    // format inferred from the .fasta extension
    let r = db
        .execute(&format!("COPY Gene FROM '{}'", data.display()))
        .unwrap();
    assert_eq!(r.affected, 25);
    assert!(r.message.unwrap().contains("FASTA"));
    let r = db
        .execute("SELECT Hdr, Seq FROM Gene WHERE Hdr LIKE 'JW0003%'")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].values[0].to_string(), "JW0003 synthetic record 3");
    // sequence lines were concatenated
    assert!(!r.rows[0].values[1].to_string().contains('\n'));
    // the third column defaulted to NULL
    let r = db
        .execute("SELECT COUNT(*) FROM Gene WHERE Note IS NULL")
        .unwrap();
    assert_eq!(r.rows[0].values[0].to_string(), "25");
    let _ = fs::remove_file(&data);
}

#[test]
fn copy_tsv_parses_typed_columns() {
    let data = tsv_file(
        "tsv-basic",
        "JW0001\tmraW\t11\t0.5\ttrue\nJW0002\t\\N\t42\t\t1\n",
    );
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (GID TEXT, GName TEXT, Len INT, Score FLOAT, Seen BOOL)")
        .unwrap();
    let r = db
        .execute(&format!("COPY T FROM '{}' FORMAT TSV", data.display()))
        .unwrap();
    assert_eq!(r.affected, 2);
    let r = db
        .execute("SELECT Len FROM T WHERE GName IS NULL AND Score IS NULL AND Seen")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].values[0].to_string(), "42");
    let _ = fs::remove_file(&data);
}

#[test]
fn copy_failure_rolls_back_to_zero_rows() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (GID TEXT, Len INT)").unwrap();
    db.execute("INSERT INTO T VALUES ('pre', 1)").unwrap();
    db.execute("CREATE INDEX len_idx ON T (Len)").unwrap();
    db.execute("CREATE SEQUENCE INDEX gseq ON T (GID) USING SUFFIX")
        .unwrap();
    // a bad row in the middle: the whole COPY must vanish
    let data = tsv_file("tsv-bad", "a\t1\nb\t2\nc\tnot-an-int\nd\t4\n");
    let err = db
        .execute(&format!("COPY T FROM '{}' FORMAT TSV", data.display()))
        .unwrap_err();
    assert!(err.to_string().contains("line 3"), "got: {err}");
    assert_eq!(db.execute("SELECT * FROM T").unwrap().rows.len(), 1);
    // indexes saw none of the aborted rows
    let r = db.execute("SELECT GID FROM T WHERE Len = 2").unwrap();
    assert!(r.rows.is_empty());
    let r = db
        .execute("SELECT GID FROM T WHERE GID CONTAINS SEQ 'b'")
        .unwrap();
    assert!(r.rows.is_empty());
    // a missing file fails cleanly too
    let err = db
        .execute("COPY T FROM '/nonexistent/nope.tsv'")
        .unwrap_err();
    assert!(err.to_string().contains("cannot open"), "got: {err}");
    let _ = fs::remove_file(&data);
}

#[test]
fn copy_is_rejected_inside_a_transaction() {
    let data = tsv_file("tsv-txn", "a\n");
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (GID TEXT)").unwrap();
    db.execute("BEGIN").unwrap();
    let err = db
        .execute(&format!("COPY T FROM '{}'", data.display()))
        .unwrap_err();
    assert!(err.to_string().contains("COPY"), "got: {err}");
    db.execute("ROLLBACK").unwrap();
    let _ = fs::remove_file(&data);
}

#[test]
fn contains_seq_routes_through_the_sequence_index() {
    let data = fasta_file("routing", 60);
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Gene (Hdr TEXT, Seq TEXT)")
        .unwrap();
    db.execute(&format!("COPY Gene FROM '{}'", data.display()))
        .unwrap();
    db.execute("CREATE SEQUENCE INDEX seq_sbc ON Gene (Seq) USING SBC")
        .unwrap();
    let sql = "SELECT Hdr FROM Gene WHERE Seq CONTAINS SEQ 'CATCAT'";
    // the reference scans all 60 rows with `str::contains`
    let (probed, os) = support::run_checked(&db, "probe", sql);
    // 60 records, a motif on every 7th
    assert_eq!(probed.rows.len(), 9);
    assert_eq!(os.seq_index_probes, 1, "planner must route to the index");
    assert_eq!(os.full_scans, 0);
    assert_eq!(os.chosen_indexes, vec!["seq_sbc".to_string()]);
    // the probe is exact: only the 9 answer rows of 60 are fetched
    assert_eq!((os.rows_fetched, os.rows_scan_filtered), (9, 0));

    // the index stays correct across DML
    db.execute("INSERT INTO Gene VALUES ('new1', 'TTTCATCATTTT')")
        .unwrap();
    db.execute("UPDATE Gene SET Seq = 'CCCC' WHERE Hdr LIKE 'JW0007%'")
        .unwrap();
    db.execute("DELETE FROM Gene WHERE Hdr LIKE 'JW0014%'")
        .unwrap();
    let (probed, os) = support::run_checked(&db, "post-DML probe", sql);
    assert_eq!(probed.rows.len(), 8); // -1 update, -1 delete, +1 insert
    assert_eq!((os.seq_index_probes, os.rows_fetched), (1, 8));

    // NOT CONTAINS SEQ cannot use the candidate set
    let (_, os) = db
        .query_traced("SELECT Hdr FROM Gene WHERE Seq NOT CONTAINS SEQ 'CATCAT'")
        .unwrap();
    assert_eq!(os.seq_index_probes, 0);
    assert_eq!(os.full_scans, 1);

    // SUBSEQ extracts 1-based inclusive ranges
    let r = db
        .execute("SELECT SUBSEQ(Seq, 4, 9) FROM Gene WHERE Hdr = 'new1'")
        .unwrap();
    assert_eq!(r.rows[0].values[0].to_string(), "CATCAT");

    // dropping the index reverts to full scans
    db.execute("DROP SEQUENCE INDEX seq_sbc ON Gene").unwrap();
    let (_, os) = db.query_traced(sql).unwrap();
    assert_eq!(os.seq_index_probes, 0);
    assert_eq!(os.full_scans, 1);
    let _ = fs::remove_file(&data);
}

#[test]
fn suffix_kind_answers_identically_to_sbc() {
    let data = fasta_file("kinds", 40);
    let mk = |kind: &str| {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE G (H TEXT, S TEXT)").unwrap();
        db.execute(&format!("COPY G FROM '{}'", data.display()))
            .unwrap();
        db.execute(&format!("CREATE SEQUENCE INDEX sx ON G (S) USING {kind}"))
            .unwrap();
        let mut rows: Vec<String> = db
            .execute("SELECT H FROM G WHERE S CONTAINS SEQ 'GGGA'")
            .unwrap()
            .rows
            .iter()
            .map(|r| r.values[0].to_string())
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(mk("SBC"), mk("SUFFIX"));
    let _ = fs::remove_file(&data);
}

#[test]
fn copy_and_sequence_index_survive_close_and_open() {
    let dir = tmp("durable");
    let data = fasta_file("durable", 30);
    {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE Gene (Hdr TEXT, Seq TEXT)")
            .unwrap();
        db.execute("CREATE SEQUENCE INDEX sidx ON Gene (Seq) USING SBC")
            .unwrap();
        db.execute(&format!("COPY Gene FROM '{}'", data.display()))
            .unwrap();
        db.close().unwrap();
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.catalog().table("Gene").unwrap().len(), 30);
    let (r, st) = db
        .query_traced("SELECT Hdr FROM Gene WHERE Seq CONTAINS SEQ 'CATCAT'")
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    assert_eq!(st.seq_index_probes, 1, "the index definition must persist");
    assert_eq!(st.chosen_indexes, vec!["sidx".to_string()]);
    drop(db);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_file(&data);
}

#[test]
fn crash_right_after_copy_recovers_the_full_load() {
    // COPY commits by checkpoint, so a crash right after the statement
    // returns replays nothing and still sees every row — without the
    // source file, which is gone before the reopen
    let dir = tmp("post-copy-crash");
    let data = fasta_file("post-copy-crash", 20);
    {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE Gene (Hdr TEXT, Seq TEXT)")
            .unwrap();
        db.execute(&format!("COPY Gene FROM '{}'", data.display()))
            .unwrap();
        db.simulate_crash();
    }
    fs::remove_file(&data).unwrap();
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.catalog().table("Gene").unwrap().len(), 20);
    let rec = db.last_recovery().unwrap();
    assert_eq!(
        rec.replayed_commits, 0,
        "the commit checkpoint folds the load into the image"
    );
    drop(db);
    let _ = fs::remove_dir_all(&dir);
}

/// Every way a sequence index gets (re)built from existing rows — DDL
/// backfill, open, undo of `DROP SEQUENCE INDEX`, WAL replay of `CREATE
/// SEQUENCE INDEX` — must yield the index that row-at-a-time maintenance
/// had produced: same `CONTAINS SEQ` answers, over a table with NULL
/// sequences, updated rows and deleted rows (tombstones), with `CHECK`
/// clean each time.
#[test]
fn rebuilt_sequence_index_answers_like_the_maintained_one() {
    const PATTERNS: [&str; 6] = ["CATCAT", "AAAC", "GGGACATCAT", "CCCC", "T", "ACGTACGTAC"];
    fn answers(db: &Database, stage: &str) -> Vec<Vec<String>> {
        PATTERNS
            .iter()
            .map(|pat| {
                let sql = format!("SELECT Hdr FROM Gene WHERE Seq CONTAINS SEQ '{pat}'");
                // probe vs the reference's scan of every live row
                let (r, st) = support::run_checked(db, stage, &sql);
                assert_eq!(
                    st.seq_index_probes, 1,
                    "{stage}: `{pat}` must use the index"
                );
                let mut probe: Vec<String> =
                    r.rows.iter().map(|r| r.values[0].to_string()).collect();
                probe.sort();
                probe
            })
            .collect()
    }
    fn check(db: &mut Database, stage: &str) {
        let r = db.execute("CHECK").unwrap();
        assert_eq!(r.message.as_deref(), Some("CHECK ok"), "{stage}");
    }

    for kind in ["SBC", "SUFFIX"] {
        let dir = tmp(&format!("rebuilt-{kind}"));
        let data = fasta_file(&format!("rebuilt-{kind}"), 45);
        let create = format!("CREATE SEQUENCE INDEX sidx ON Gene (Seq) USING {kind}");
        let mut db = Database::create(&dir).unwrap();
        for sql in [
            "CREATE TABLE Gene (Hdr TEXT, Seq TEXT)",
            "CREATE INDEX hdr_idx ON Gene (Hdr)",
            &format!("COPY Gene FROM '{}'", data.display()),
            "INSERT INTO Gene VALUES ('null1', NULL), ('null2', NULL)",
            &create, // DDL backfill over rows and NULLs
            "UPDATE Gene SET Seq = 'CCCCCATCATCCCC' WHERE Hdr LIKE 'JW0003%'",
            "UPDATE Gene SET Seq = NULL WHERE Hdr LIKE 'JW0007%'",
            "UPDATE Gene SET Seq = 'GGGACATCAT' WHERE Hdr = 'null2'",
            "DELETE FROM Gene WHERE Hdr LIKE 'JW0014%'",
            "DELETE FROM Gene WHERE Hdr LIKE 'JW002%'",
            "INSERT INTO Gene VALUES ('new1', 'TTTCATCATTTT'), ('new2', 'AAACAAAC')",
        ] {
            db.execute(sql).unwrap();
        }
        let want = answers(&db, "maintained");
        assert!(want.iter().take(5).all(|rows| !rows.is_empty()));
        assert!(want[5].is_empty());
        check(&mut db, "maintained");

        db.close().unwrap();
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(answers(&db, "reopened"), want, "{kind}");
        check(&mut db, "reopened");

        db.execute("BEGIN").unwrap();
        db.execute("DROP SEQUENCE INDEX sidx ON Gene").unwrap();
        db.execute("ROLLBACK").unwrap();
        assert_eq!(answers(&db, "drop rolled back"), want, "{kind}");
        check(&mut db, "drop rolled back");

        // crash-replay: the CREATE (and DML on top of it) live only in the WAL
        db.execute("DROP SEQUENCE INDEX sidx ON Gene").unwrap();
        db.checkpoint().unwrap();
        db.execute(&create).unwrap();
        db.execute("UPDATE Gene SET Seq = 'CCCCCATCATCCCC' WHERE Hdr = 'new2'")
            .unwrap();
        let want = answers(&db, "recreated");
        db.simulate_crash();
        let mut db = Database::open(&dir).unwrap();
        assert!(db.last_recovery().unwrap().replayed_commits >= 2);
        assert_eq!(answers(&db, "create replayed"), want, "{kind}");
        check(&mut db, "create replayed");
        drop(db);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_file(&data);
    }
}

// ---------------------------------------------------------------------
// The mid-COPY fault sweep (the crash-test satellite)
// ---------------------------------------------------------------------

const SWEEP_ROWS: usize = 30;

/// Run the workload; each statement's error message, `None` on success.
fn sweep_workload(db: &mut Database, data: &std::path::Path) -> Vec<Option<String>> {
    [
        "CREATE TABLE Gene (Hdr TEXT, Seq TEXT)".to_string(),
        "CREATE SEQUENCE INDEX sidx ON Gene (Seq) USING SBC".to_string(),
        format!("COPY Gene FROM '{}' FORMAT FASTA", data.display()),
    ]
    .iter()
    .map(|s| db.execute(s).err().map(|e| e.to_string()))
    .collect()
}

/// Inject one I/O fault at every operation index across a COPY workload,
/// crash, move the source file away, reopen on a healthy device, and
/// hold the atomicity contract:
///
/// * never a panic, never a partial load, and recovery never needs the
///   source file;
/// * the load is durable exactly when `COPY` reported success: the
///   checkpoint it commits by is the commit point, so there is no
///   window in which a failed `COPY` leaves its rows behind;
/// * whenever rows are present and the index definition survived, a
///   sequence-index probe answers exactly like a full scan.
#[test]
fn mid_copy_fault_sweep_loads_all_or_nothing() {
    let data = fasta_file("sweep", SWEEP_ROWS);
    let opts = |inj: Option<Arc<FaultInjector>>| DurabilityOptions {
        fault_injector: inj,
        ..Default::default()
    };
    // pass 1: count I/O on a healthy device
    let inj = FaultInjector::new();
    let count_dir = tmp("sweep-count");
    {
        let mut db = Database::create_with(&count_dir, opts(Some(inj.clone()))).unwrap();
        inj.arm(u64::MAX, FaultKind::TransientError);
        let errs = sweep_workload(&mut db, &data);
        assert!(errs.iter().all(Option::is_none), "{errs:?}");
        db.simulate_crash();
    }
    let total_ops = inj.op_count();
    let _ = fs::remove_dir_all(&count_dir);
    assert!(total_ops > 10, "COPY must exercise real I/O ({total_ops})");

    let moved = data.with_extension("moved");
    let stride = if cfg!(debug_assertions) { 7 } else { 1 };
    let mut saw_checkpoint_failure = false;
    for n in (0..total_ops).step_by(stride) {
        for kind in [
            FaultKind::TransientError,
            FaultKind::PermanentError,
            FaultKind::TornWrite {
                bytes: 1 + (n as usize * 997) % 4000,
            },
        ] {
            let dir = tmp(&format!("sweep-{n}-{kind:?}"));
            let inj = FaultInjector::new();
            let mut db = Database::create_with(&dir, opts(Some(inj.clone()))).unwrap();
            inj.arm(n, kind);
            let errs = sweep_workload(&mut db, &data);
            inj.disarm();
            db.simulate_crash();
            fs::rename(&data, &moved).unwrap();
            let db = Database::open(&dir);
            fs::rename(&moved, &data).unwrap();
            let db = db.unwrap_or_else(|e| panic!("fault {kind:?} at op {n}: reopen failed: {e}"));
            let rows = db.catalog().table("Gene").map(|t| t.len()).unwrap_or(0);
            assert!(
                rows == 0 || rows == SWEEP_ROWS,
                "fault {kind:?} at op {n}: partial load ({rows} rows)"
            );
            assert_eq!(
                errs[2].is_none(),
                rows == SWEEP_ROWS,
                "fault {kind:?} at op {n}: COPY reported {:?} but {rows} rows survived",
                errs[2]
            );
            if errs[..2].iter().all(Option::is_none)
                && errs[2]
                    .as_ref()
                    .is_some_and(|e| e.contains("COPY checkpoint failed"))
            {
                // the table and index committed before COPY, and its
                // rollback leaves them standing
                assert!(
                    db.catalog()
                        .table("Gene")
                        .is_ok_and(|t| t.seq_index_named("sidx").is_some()),
                    "fault {kind:?} at op {n}: COPY rollback lost the DDL"
                );
                saw_checkpoint_failure = true;
            }
            // the sequence index (when its DDL survived) must agree with
            // the reference's scan — stale/missing candidates would diverge
            // here
            if db
                .catalog()
                .table("Gene")
                .is_ok_and(|t| t.seq_index_named("sidx").is_some())
            {
                let sql = "SELECT Hdr FROM Gene WHERE Seq CONTAINS SEQ 'CATCAT'";
                let leg = format!("fault {kind:?} at op {n}");
                let (_, st) = support::run_checked(&db, &leg, sql);
                assert_eq!(st.seq_index_probes, 1);
            }
            drop(db);
            let _ = fs::remove_dir_all(&dir);
        }
    }
    assert!(
        saw_checkpoint_failure,
        "some leg must create the table and index and then fail COPY \
         inside the checkpoint it commits by"
    );
    let _ = fs::remove_file(&data);
}
