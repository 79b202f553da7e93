//! Durable-database round trips: everything the engine manages —
//! tables, rows, secondary indexes, annotation sets in both schemes,
//! archived flags, outdated bitmaps, deletion logs, dependency rules,
//! auth state, the approval log, the logical clock and the planner
//! statistics — must survive `close()` + `open()` byte-identically.

use std::path::{Path, PathBuf};

use bdbms_common::{ErrorCode, Value};
use bdbms_core::{Database, Durability, DurabilityOptions, RecoveryReport};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bdbms-durability-{}-{name}.bdbms",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything observable about a table, for byte-identical comparisons
/// (same shape as the transactions suite, minus stats, which
/// `close_and_open_keep_the_planner_statistics` compares on its own).
fn table_fingerprint(db: &Database, table: &str) -> String {
    let t = db.catalog().table(table).unwrap();
    let rows = t.iter_rows().collect::<Result<Vec<_>, _>>().unwrap();
    let indexes: Vec<(String, usize, usize)> = t
        .indexes()
        .iter()
        .map(|i| (i.name.clone(), i.column, i.len()))
        .collect();
    #[allow(clippy::type_complexity)]
    let anns: Vec<(String, usize, usize, Vec<(u64, bool, String, u64, String)>)> = db
        .catalog()
        .ann_set_names(table)
        .into_iter()
        .map(|name| {
            let s = db.catalog().annotation_set(table, &name).unwrap();
            (
                name,
                s.index().len(),
                s.index().attachment_records(),
                s.annotations()
                    .unwrap()
                    .iter()
                    .map(|a| {
                        (
                            a.id.raw(),
                            a.archived,
                            a.raw.clone(),
                            a.created,
                            a.creator.clone(),
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    let outdated: Vec<(usize, usize)> = t.outdated.iter_set().collect();
    let deleted: Vec<(u64, Option<String>)> = db
        .deleted_log(table)
        .unwrap()
        .iter()
        .map(|d| (d.row_no, d.annotation.clone()))
        .collect();
    format!(
        "rows={rows:?} indexes={indexes:?} anns={anns:?} outdated={outdated:?} deleted={deleted:?}"
    )
}

#[test]
fn create_populate_close_open_round_trip() {
    let dir = tmp("roundtrip");
    let before = {
        let mut db = Database::create(&dir).unwrap();
        assert!(db.is_persistent());
        assert_eq!(db.path().unwrap(), dir.as_path());
        db.execute("CREATE TABLE Gene (GID TEXT, GName TEXT, Len INT)")
            .unwrap();
        db.execute("CREATE INDEX len_idx ON Gene (Len)").unwrap();
        db.execute(
            "INSERT INTO Gene VALUES ('JW0080','mraW',11), ('JW0082','ftsI',42), \
             ('JW0055','yabP',7)",
        )
        .unwrap();
        db.execute("UPDATE Gene SET Len = 13 WHERE GID = 'JW0080'")
            .unwrap();
        db.execute("DELETE FROM Gene WHERE GID = 'JW0055'").unwrap();
        // annotations in both schemes, one archived
        db.execute("CREATE ANNOTATION TABLE Curation ON Gene")
            .unwrap();
        db.execute("CREATE ANNOTATION TABLE CellNotes ON Gene SCHEME CELL")
            .unwrap();
        db.execute(
            "ADD ANNOTATION TO Gene.Curation VALUE '<Annotation>checked</Annotation>' \
             ON (SELECT G.GName FROM Gene G)",
        )
        .unwrap();
        db.execute(
            "ADD ANNOTATION TO Gene.CellNotes VALUE 'cell note' \
             ON (SELECT G.GID FROM Gene G WHERE Len = 42)",
        )
        .unwrap();
        db.execute(
            "ARCHIVE ANNOTATION FROM Gene.Curation ON (SELECT G.GName FROM Gene G WHERE Len = 13)",
        )
        .unwrap();
        let fp = table_fingerprint(&db, "Gene");
        db.close().unwrap();
        fp
    };
    let db = Database::open(&dir).unwrap();
    assert_eq!(table_fingerprint(&db, "Gene"), before);
    // a clean close leaves nothing to replay
    let rec = db.last_recovery().unwrap();
    assert_eq!(rec.replayed_commits, 0);
    assert_eq!(rec.discarded_ops, 0);
    assert_eq!(rec.torn_bytes, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn indexes_are_rebuilt_and_used_after_reopen() {
    let dir = tmp("indexes");
    {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE Gene (GID TEXT, Len INT)").unwrap();
        for i in 0..500 {
            db.execute(&format!("INSERT INTO Gene VALUES ('g{i}', {i})"))
                .unwrap();
        }
        db.execute("CREATE INDEX len_idx ON Gene (Len)").unwrap();
        db.close().unwrap();
    }
    let db = Database::open(&dir).unwrap();
    let (r, stats) = db
        .query_traced("SELECT GID FROM Gene WHERE Len = 250")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].values[0], Value::Text("g250".into()));
    assert_eq!(stats.index_probes, 1, "rebuilt index must serve probes");
    assert_eq!(stats.rows_fetched, 1, "no full scan after reopen");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auth_approval_rules_clock_survive_reopen() {
    let dir = tmp("managers");
    let pending_before;
    let clock_before;
    {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE Gene (GID TEXT, GSequence TEXT)")
            .unwrap();
        db.execute("CREATE TABLE Protein (GID TEXT, PSequence TEXT)")
            .unwrap();
        db.execute("CREATE USER alice IN GROUP curators").unwrap();
        db.execute("CREATE USER labadmin").unwrap();
        db.execute("GRANT SELECT, INSERT ON Gene TO alice").unwrap();
        db.execute("GRANT SELECT ON Gene TO curators").unwrap();
        db.execute(
            "CREATE DEPENDENCY RULE translate FROM Gene.GSequence TO Protein.PSequence \
             VIA PROCEDURE 'translate' LINK Gene.GID = Protein.GID",
        )
        .unwrap();
        db.execute("START CONTENT APPROVAL ON Gene APPROVED BY labadmin")
            .unwrap();
        db.execute_as("INSERT INTO Gene VALUES ('JW1', 'ATG')", "alice")
            .unwrap();
        pending_before = db.pending_operations(None).unwrap().len();
        assert_eq!(pending_before, 1);
        clock_before = db.now();
        db.close().unwrap();
    }
    let mut db = Database::open(&dir).unwrap();
    // clock never rewinds
    assert!(db.now() >= clock_before);
    // grants still enforced: alice may read, not delete
    db.execute_as("SELECT * FROM Gene", "alice").unwrap();
    let err = db
        .execute_as("DELETE FROM Gene WHERE GID = 'JW1'", "alice")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::Unauthorized);
    // duplicate user still rejected (user table survived)
    assert_eq!(
        db.execute("CREATE USER alice").unwrap_err().code(),
        ErrorCode::AlreadyExists
    );
    // the pending approval op survived the reopen
    let ops = db.pending_operations(None).unwrap();
    assert_eq!(ops.len(), pending_before);
    let id = ops[0].id.raw();
    // the dependency rule survived: updating the source cascades (this
    // update is itself approval-logged — admin is not the approver —
    // which is fine; we decide the original op below)
    assert_eq!(db.dependencies().rules().len(), 1);
    db.execute("INSERT INTO Protein VALUES ('JW1', 'M')")
        .unwrap();
    db.execute_as(
        "UPDATE Gene SET GSequence = 'GTG' WHERE GID = 'JW1'",
        "admin",
    )
    .unwrap();
    let t = db.catalog().table("Protein").unwrap();
    assert!(t.is_outdated(0, 1), "cascade across reopen marks outdated");
    db.execute_as(&format!("DISAPPROVE OPERATION {id}"), "labadmin")
        .unwrap();
    assert_eq!(
        db.catalog().table("Gene").unwrap().len(),
        0,
        "disapproval executed the stored inverse after reopen"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_transactions_survive_without_checkpoint() {
    let dir = tmp("wal-replay");
    {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE T (K INT, V TEXT)").unwrap();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO T VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        db.execute("COMMIT").unwrap();
        // crash: no checkpoint — everything past `create` lives in the WAL
        db.simulate_crash();
    }
    let mut db = Database::open(&dir).unwrap();
    let rec = db.last_recovery().unwrap().clone();
    assert!(rec.replayed_commits >= 2, "DDL txn + explicit txn replayed");
    assert!(rec.replayed_ops >= 3);
    let r = db.execute("SELECT K, V FROM T").unwrap();
    assert_eq!(r.rows.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rolled_back_work_never_reaches_the_wal() {
    let dir = tmp("rollback");
    {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE T (K INT)").unwrap();
        db.execute("INSERT INTO T VALUES (1)").unwrap();
        // an explicitly rolled-back transaction
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO T VALUES (2)").unwrap();
        db.execute("CREATE TABLE Ghost (X INT)").unwrap();
        db.execute("ROLLBACK").unwrap();
        // a savepoint rollback inside a committed transaction
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO T VALUES (3)").unwrap();
        db.execute("SAVEPOINT s").unwrap();
        db.execute("INSERT INTO T VALUES (4)").unwrap();
        db.execute("ROLLBACK TO s").unwrap();
        db.execute("COMMIT").unwrap();
        // a failed statement in an implicit transaction (partial apply
        // must not leak to disk either)
        let _ = db.execute("INSERT INTO T VALUES (5), ('boom')");
        db.simulate_crash();
    }
    let mut db = Database::open(&dir).unwrap();
    let r = db.execute("SELECT K FROM T").unwrap();
    let ks: Vec<&Value> = r.rows.iter().map(|row| &row.values[0]).collect();
    assert_eq!(ks, vec![&Value::Int(1), &Value::Int(3)]);
    assert!(
        db.catalog().table("Ghost").is_err(),
        "rolled-back DDL must not resurrect"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_sync_durability_works_and_checkpoints_truncate_the_wal() {
    let dir = tmp("nosync");
    {
        let mut db = Database::create_with(&dir, DurabilityOptions::no_sync()).unwrap();
        db.execute("CREATE TABLE T (K INT)").unwrap();
        for i in 0..50 {
            db.execute(&format!("INSERT INTO T VALUES ({i})")).unwrap();
        }
        assert_eq!(db.wal_segment_count(), Some(1));
        db.checkpoint().unwrap();
        // the image now carries everything; the WAL restarted empty
        assert_eq!(db.wal_segment_count(), Some(1));
        db.execute("INSERT INTO T VALUES (99)").unwrap();
        db.simulate_crash();
    }
    let mut db = Database::open_with(&dir, DurabilityOptions::no_sync()).unwrap();
    assert_eq!(
        db.last_recovery().unwrap().replayed_commits,
        1,
        "only the post-checkpoint insert needed replay"
    );
    assert_eq!(db.execute("SELECT K FROM T").unwrap().rows.len(), 51);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auto_checkpoint_after_commit_interval() {
    let dir = tmp("autockpt");
    let opts = DurabilityOptions {
        durability: Durability::NoSync,
        checkpoint_every_commits: 5,
        ..Default::default()
    };
    let mut db = Database::create_with(&dir, opts.clone()).unwrap();
    db.execute("CREATE TABLE T (K INT)").unwrap();
    for i in 0..20 {
        db.execute(&format!("INSERT INTO T VALUES ({i})")).unwrap();
    }
    // with a checkpoint every 5 commits the WAL can never hold more
    // than 5 transactions; reopening replays at most that many
    db.simulate_crash();
    let mut db = Database::open_with(&dir, opts).unwrap();
    assert!(db.last_recovery().unwrap().replayed_commits <= 5);
    assert_eq!(db.execute("SELECT K FROM T").unwrap().rows.len(), 20);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn create_and_open_error_shapes() {
    let dir = tmp("errors");
    // open of nothing
    let err = match Database::open(&dir) {
        Ok(_) => panic!("open of a missing database must fail"),
        Err(e) => e,
    };
    assert_eq!(err.code(), ErrorCode::NotFound);
    // double create
    let db = Database::create(&dir).unwrap();
    db.close().unwrap();
    let err = match Database::create(&dir) {
        Ok(_) => panic!("create over an existing database must fail"),
        Err(e) => e,
    };
    assert_eq!(err.code(), ErrorCode::AlreadyExists);
    // checkpoint inside a transaction is rejected
    let mut db = Database::open(&dir).unwrap();
    db.execute("BEGIN").unwrap();
    assert_eq!(db.checkpoint().unwrap_err().code(), ErrorCode::TxnState);
    db.execute("ROLLBACK").unwrap();
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_memory_databases_are_unchanged() {
    let mut db = Database::new_in_memory();
    assert!(!db.is_persistent());
    assert_eq!(db.path(), None);
    assert_eq!(db.last_recovery(), None);
    assert_eq!(db.wal_segment_count(), None);
    db.checkpoint().unwrap(); // no-op, not an error
    db.execute("CREATE TABLE T (K INT)").unwrap();
    db.execute("INSERT INTO T VALUES (1)").unwrap();
    assert_eq!(db.execute("SELECT * FROM T").unwrap().rows.len(), 1);
}

#[test]
fn provenance_survives_reopen() {
    use bdbms_core::provenance::{ProvOp, ProvenanceRecord};
    let dir = tmp("provenance");
    {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE Gene (GID TEXT, GSequence TEXT)")
            .unwrap();
        db.execute("INSERT INTO Gene VALUES ('JW1', 'ATG')")
            .unwrap();
        db.record_provenance(
            "Gene",
            &[0],
            &[1],
            &ProvenanceRecord {
                source: "GenoBase".into(),
                operation: ProvOp::Copy,
                program: None,
                time: db.now(),
            },
        )
        .unwrap();
        db.simulate_crash(); // provenance must come back from the WAL alone
    }
    let db = Database::open(&dir).unwrap();
    let rec = db.source_of("Gene", 0, 1, u64::MAX).unwrap();
    assert_eq!(rec.unwrap().source, "GenoBase");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a checkpoint replaces the buffer pool; the registry must
/// keep exporting the *live* pool's counters, not the retired one's
/// (every durable database checkpoints once at create, and an open that
/// finds WAL frames checkpoints too, so the `buffer.*` rows used to
/// freeze before the first statement).
#[test]
fn buffer_counters_keep_counting_across_checkpoints() {
    let dir = tmp("buffer-metrics");
    let mut db = Database::create(&dir).unwrap();
    db.execute("CREATE TABLE T (K INT)").unwrap();
    let mut hits = db.metrics_snapshot().counter("buffer.hits").unwrap();
    for round in 0..3 {
        db.execute(&format!("INSERT INTO T VALUES ({round})"))
            .unwrap();
        db.execute("SELECT K FROM T").unwrap();
        let now = db.metrics_snapshot().counter("buffer.hits").unwrap();
        assert!(now > hits, "round {round}: buffer.hits stuck at {hits}");
        hits = now;
        db.checkpoint().unwrap();
        // the checkpoint's own page traffic counts too, and nothing resets
        assert!(db.metrics_snapshot().counter("buffer.hits").unwrap() >= hits);
    }
    // a cold read after the checkpoint is a registered miss
    let misses = db.metrics_snapshot().counter("buffer.misses").unwrap();
    db.pool().clear_cache().unwrap();
    db.execute("SELECT K FROM T").unwrap();
    assert!(db.metrics_snapshot().counter("buffer.misses").unwrap() > misses);
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Format pin for the checkpoint writer: a fixed script, then
/// `checkpoint()`, must give exactly these `data.bdb` bytes (length and
/// FNV-1a hash, pinned for format 7, whose metadata record lists the
/// sections: here one page of `Gene`'s planner statistics).  The script reaches every
/// record shape a checkpoint
/// copies: rows updated in place and relocated, holes left by DELETEs,
/// and overflow chains (an inserted row and an updated row longer than a
/// page), next to an index and cell annotations.
#[test]
fn golden_image_bytes_do_not_drift() {
    let dir = tmp("golden-image");
    let mut db = Database::create(&dir).unwrap();
    db.execute("CREATE TABLE Gene (GID TEXT, GSeq TEXT, Len INT)")
        .unwrap();
    db.execute("CREATE INDEX len_idx ON Gene (Len)").unwrap();
    // 60 rows of ~200 bytes: the first heap page is full
    for i in 0..60 {
        let seq = "ACGT".repeat(50);
        db.execute(&format!(
            "INSERT INTO Gene VALUES ('JW{i:04}', '{seq}', {i})"
        ))
        .unwrap();
    }
    let long = "GATTACA".repeat(4000); // 28 KB: an overflow chain
    db.execute(&format!(
        "INSERT INTO Gene VALUES ('JW9000', '{long}', 9000)"
    ))
    .unwrap();
    // same size: rewritten in place
    db.execute("UPDATE Gene SET Len = 100 WHERE GID = 'JW0003'")
        .unwrap();
    // grows past its full page: relocated
    let grown = "T".repeat(1000);
    db.execute(&format!(
        "UPDATE Gene SET GSeq = '{grown}' WHERE GID = 'JW0004'"
    ))
    .unwrap();
    // grows past a page: relocated onto an overflow chain
    let huge = "C".repeat(20_000);
    db.execute(&format!(
        "UPDATE Gene SET GSeq = '{huge}' WHERE GID = 'JW0007'"
    ))
    .unwrap();
    db.execute("DELETE FROM Gene WHERE Len > 40 AND Len < 50")
        .unwrap();
    db.execute("CREATE ANNOTATION TABLE Notes ON Gene SCHEME CELL")
        .unwrap();
    db.execute(
        "ADD ANNOTATION TO Gene.Notes VALUE 'short read' \
         ON (SELECT G.GSeq FROM Gene G WHERE Len < 5)",
    )
    .unwrap();
    db.checkpoint().unwrap();
    let image = std::fs::read(dir.join("data.bdb")).unwrap();
    assert_eq!(
        (image.len(), fnv1a(&image)),
        (122_880, 2_271_649_458_317_867_723),
        "the checkpoint image drifted"
    );
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a over `bytes`, for the golden checks.  Not CRC-32: every page
/// ends in the CRC-32 of the rest of it, so a CRC-32 over whole pages
/// always leaves the same residue and would pin nothing but the length.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the redo stream byte for byte: a fixed script reaches every
/// redo-emitting path (rows, both index kinds, table and annotation-set
/// DDL, annotation add/archive/restore, a rule cascade that marks cells,
/// VALIDATE, the deletion log, the approval log and its decisions, users
/// and grants, and a savepoint rollback whose records must never reach
/// the log), then crashes so the WAL segments are left as written.  A
/// changed record, or a changed record count, moves this checksum — and
/// with it the image's WAL frontier and page LSNs.
#[test]
fn golden_redo_stream_does_not_drift() {
    let dir = tmp("golden-redo");
    let mut db = Database::create(&dir).unwrap();
    for sql in [
        "CREATE TABLE Gene (GID TEXT, GSeq TEXT, Len INT)",
        "CREATE TABLE Protein (GID TEXT, PSeq TEXT)",
        "CREATE TABLE Scratch (K INT)",
        "DROP TABLE Scratch",
        "CREATE INDEX len_idx ON Gene (Len)",
        "CREATE SEQUENCE INDEX seq_idx ON Gene (GSeq)",
        "INSERT INTO Gene VALUES ('JW1', 'ATGC', 4), ('JW2', 'GATTACA', 7), ('JW3', 'TTT', 3)",
        "INSERT INTO Protein VALUES ('JW1', 'M'), ('JW2', 'D'), ('JW3', 'K')",
        "UPDATE Gene SET Len = 5 WHERE GID = 'JW1'",
        "DROP INDEX len_idx ON Gene",
        "DROP SEQUENCE INDEX seq_idx ON Gene",
        "CREATE ANNOTATION TABLE Notes ON Gene SCHEME CELL",
        "CREATE ANNOTATION TABLE Tmp ON Gene",
        "DROP ANNOTATION TABLE Tmp ON Gene",
        "ADD ANNOTATION TO Gene.Notes VALUE 'short' ON (SELECT G.GSeq FROM Gene G WHERE Len < 6)",
        "ADD ANNOTATION TO Gene.Notes VALUE 'all' ON (SELECT G.GID FROM Gene G)",
        "ARCHIVE ANNOTATION FROM Gene.Notes ON (SELECT G.GSeq FROM Gene G)",
        "RESTORE ANNOTATION FROM Gene.Notes ON (SELECT G.GSeq FROM Gene G WHERE Len = 5)",
        "CREATE DEPENDENCY RULE translate FROM Gene.GSeq TO Protein.PSeq \
         VIA PROCEDURE 'translate' LINK Gene.GID = Protein.GID",
        "UPDATE Gene SET GSeq = 'ATGG' WHERE Len < 8",
        "VALIDATE Protein COLUMNS PSeq WHERE GID = 'JW1'",
        "DELETE FROM Protein WHERE GID = 'JW2'",
        "DELETE FROM Gene WHERE GID = 'JW3'",
        "BEGIN",
        "INSERT INTO Gene VALUES ('JW4', 'CCC', 3)",
        "SAVEPOINT s",
        "INSERT INTO Gene VALUES ('JW5', 'GGG', 3)",
        "UPDATE Gene SET GSeq = 'A' WHERE GID = 'JW1'",
        "ROLLBACK TO s",
        "COMMIT",
        "CREATE USER alice IN GROUP curators",
        "CREATE USER labadmin",
        "GRANT SELECT, INSERT, UPDATE ON Gene TO alice",
        "REVOKE UPDATE ON Gene FROM alice",
        "START CONTENT APPROVAL ON Gene APPROVED BY labadmin",
    ] {
        db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    db.execute_as("INSERT INTO Gene VALUES ('JW6', 'TAG', 3)", "alice")
        .unwrap();
    db.execute_as("INSERT INTO Gene VALUES ('JW7', 'TGA', 3)", "alice")
        .unwrap();
    let ids: Vec<u64> = db
        .pending_operations(None)
        .unwrap()
        .iter()
        .map(|op| op.id.raw())
        .collect();
    assert_eq!(ids.len(), 2);
    db.execute_as(&format!("APPROVE OPERATION {}", ids[0]), "labadmin")
        .unwrap();
    db.execute_as(&format!("DISAPPROVE OPERATION {}", ids[1]), "labadmin")
        .unwrap();
    db.execute("STOP CONTENT APPROVAL ON Gene").unwrap();
    db.execute("DROP DEPENDENCY RULE translate").unwrap();
    db.simulate_crash();
    let mut stream = Vec::new();
    for (name, _) in wal_listing(&dir) {
        stream.extend(std::fs::read(dir.join("wal").join(name)).unwrap());
    }
    assert_eq!(
        (stream.len(), fnv1a(&stream)),
        (5_103, 9_208_998_149_432_858_163),
        "the redo stream drifted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The WAL directory as `(file name, length)` pairs, sorted.
fn wal_listing(dir: &Path) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, e.metadata().unwrap().len())
        })
        .collect();
    out.sort();
    out
}

fn checkpoints(db: &Database) -> u64 {
    db.metrics_snapshot().counter("checkpoint.count").unwrap()
}

/// An open whose WAL holds no frame replays nothing and so rewrites
/// nothing: the image already is the database.  Commits made on it
/// still survive a crash (the log's LSNs continue past the image's
/// frontier), and the open that recovers them does rewrite.
#[test]
fn a_clean_open_writes_nothing() {
    let dir = tmp("clean-open");
    {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE T (K INT, V TEXT)").unwrap();
        db.execute("CREATE INDEX k_idx ON T (K)").unwrap();
        db.execute("INSERT INTO T VALUES (1, 'one'), (2, 'two'), (3, 'three')")
            .unwrap();
        db.execute("DELETE FROM T WHERE K = 2").unwrap();
        db.close().unwrap();
    }
    let image = std::fs::read(dir.join("data.bdb")).unwrap();
    let wal = wal_listing(&dir);

    let mut db = Database::open(&dir).unwrap();
    assert_eq!(db.execute("SELECT K FROM T").unwrap().rows.len(), 2);
    assert!(
        std::fs::read(dir.join("data.bdb")).unwrap() == image,
        "a clean open rewrote data.bdb"
    );
    assert_eq!(wal_listing(&dir), wal);
    assert_eq!(checkpoints(&db), 0, "a clean open does not checkpoint");
    assert_eq!(db.last_recovery(), Some(&RecoveryReport::default()));

    // committed work on a clean-opened database is recoverable, and its
    // frames continue the segment's LSNs
    db.execute("INSERT INTO T VALUES (4, 'four')").unwrap();
    let check = db.check().unwrap();
    assert!(check.is_ok(), "{:?}", check.problems);
    db.simulate_crash();
    let mut db = Database::open(&dir).unwrap();
    assert_eq!(db.last_recovery().unwrap().replayed_commits, 1);
    assert_eq!(checkpoints(&db), 1, "a recovering open rewrites the image");
    let wal_after = wal_listing(&dir);
    assert_eq!(wal_after.len(), 1);
    assert_eq!(wal_after[0].1, 16, "the WAL is truncated to a bare header");
    let r = db.execute("SELECT V FROM T WHERE K = 4").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(db.execute("SELECT K FROM T").unwrap().rows.len(), 3);
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A database written in another format version is refused, not
/// repaired: `open` and `open_salvage` both answer `Invalid`, naming
/// the two versions, and leave `data.bdb` byte for byte as it was.  The
/// header here is rewritten to the previous version with a valid CRC,
/// which is what an older build leaves on disk.
#[test]
fn another_format_version_is_refused_and_left_alone() {
    use bdbms_storage::{crc32, stamp_page_checksum, PAGE_SIZE};
    let dir = tmp("format-version");
    {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE T (K INT)").unwrap();
        for k in 0..10 {
            db.execute(&format!("INSERT INTO T VALUES ({k})")).unwrap();
        }
        db.close().unwrap();
    }
    let data = dir.join("data.bdb");
    let mut bytes = std::fs::read(&data).unwrap();
    // header page: magic (8), version (4), metadata rid (10), CRC of
    // those 22 bytes (4); the page's own checksum trailer follows
    let current = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let previous = current - 1;
    bytes[8..12].copy_from_slice(&previous.to_le_bytes());
    let crc = crc32(&bytes[..22]);
    bytes[22..26].copy_from_slice(&crc.to_le_bytes());
    stamp_page_checksum(&mut bytes[..PAGE_SIZE]);
    std::fs::write(&data, &bytes).unwrap();

    for salvage in [false, true] {
        let err = if salvage {
            Database::open_salvage(&dir)
        } else {
            Database::open(&dir)
        }
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.code(), ErrorCode::Invalid, "salvage={salvage}: {err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("version {previous}"))
                && msg.contains(&format!("version {current}")),
            "{msg}"
        );
        assert_eq!(
            std::fs::read(&data).unwrap(),
            bytes,
            "salvage={salvage} rewrote the image"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A table goes with its history: damage in one of its hidden history
/// tables quarantines the table that owns it, history and all, and the
/// name is free again afterwards.
#[test]
fn damaged_history_quarantines_its_owner() {
    let dir = tmp("history-quarantine");
    {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE Gene (GID TEXT)").unwrap();
        db.execute("CREATE TABLE Protein (PID TEXT)").unwrap();
        db.execute("CREATE ANNOTATION TABLE Notes ON Gene").unwrap();
        db.execute("INSERT INTO Gene VALUES ('g1')").unwrap();
        db.execute("INSERT INTO Protein VALUES ('p1')").unwrap();
        db.execute(
            "ADD ANNOTATION TO Gene.Notes VALUE 'HISTORYMARKER' ON (SELECT G.GID FROM Gene G)",
        )
        .unwrap();
        db.close().unwrap();
    }
    let data = dir.join("data.bdb");
    let mut bytes = std::fs::read(&data).unwrap();
    let pos = bytes
        .windows(b"HISTORYMARKER".len())
        .position(|w| w == b"HISTORYMARKER")
        .expect("the record table's page is in the image");
    bytes[pos] ^= 0x01;
    std::fs::write(&data, &bytes).unwrap();
    let err = Database::open(&dir).map(|_| ()).unwrap_err();
    assert_eq!(err.code(), ErrorCode::Corrupt);
    let mut db = Database::open_salvage(&dir).unwrap();
    let report = db.last_recovery().unwrap().clone();
    assert_eq!(report.quarantined_tables, ["Gene"]);
    assert!(
        !db.catalog().has_table("Gene$$deleted"),
        "its history went too"
    );
    assert_eq!(db.execute("SELECT * FROM Protein").unwrap().rows.len(), 1);
    assert!(db.check().unwrap().is_ok());
    db.execute("CREATE TABLE Gene (GID TEXT)").unwrap();
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean close and open keep every table's planner statistics as they
/// stood, in `Debug` form: the NULL counts, the distinct estimates and
/// the bounds, which stay as wide as the deleted rows left them until
/// `ANALYZE` narrows them — and an `ANALYZE` is kept across a close that
/// has nothing else to write.
#[test]
fn close_and_open_keep_the_planner_statistics() {
    let dir = tmp("stats-kept");
    let stats = |db: &Database| format!("{:?}", db.catalog().table("Gene").unwrap().stats());
    let bounds = |db: &Database| {
        let len = db
            .catalog()
            .table("Gene")
            .unwrap()
            .stats()
            .column(1)
            .clone();
        (len.min, len.max)
    };
    let before = {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE Gene (GID TEXT, Len INT, Note TEXT)")
            .unwrap();
        for i in 0..300 {
            let note = if i % 7 == 0 {
                "NULL".into()
            } else {
                format!("'n{}'", i % 40)
            };
            db.execute(&format!(
                "INSERT INTO Gene VALUES ('JW{i:04}', {i}, {note})"
            ))
            .unwrap();
        }
        // the rows holding both bounds go; the bounds stay wide
        db.execute("DELETE FROM Gene WHERE Len = 0 OR Len = 299")
            .unwrap();
        db.execute("UPDATE Gene SET Note = NULL WHERE Len = 5")
            .unwrap();
        assert_eq!(bounds(&db), (Some(Value::Int(0)), Some(Value::Int(299))));
        let before = stats(&db);
        db.close().unwrap();
        before
    };
    let mut db = Database::open(&dir).unwrap();
    assert_eq!(stats(&db), before, "a reopen plans with the same estimates");
    assert!(db.check().unwrap().is_ok());
    db.execute("ANALYZE Gene").unwrap();
    let analyzed = stats(&db);
    assert_eq!(bounds(&db), (Some(Value::Int(1)), Some(Value::Int(298))));
    db.close().unwrap();
    let db = Database::open(&dir).unwrap();
    assert_eq!(stats(&db), analyzed, "the ANALYZE outlived the close");
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opening a cleanly closed database, reading and closing it issues no
/// write at all: no page, no fsync, no rename, no WAL frame.
#[test]
fn open_select_close_writes_nothing() {
    let dir = tmp("read-only-close");
    {
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE T (K INT)").unwrap();
        db.execute("INSERT INTO T VALUES (1), (2)").unwrap();
        db.close().unwrap();
    }
    let image = std::fs::read(dir.join("data.bdb")).unwrap();
    let inj = bdbms_storage::FaultInjector::new();
    let opts = DurabilityOptions {
        fault_injector: Some(inj.clone()),
        ..Default::default()
    };
    let mut db = Database::open_with(&dir, opts).unwrap();
    assert_eq!(db.execute("SELECT K FROM T").unwrap().rows.len(), 2);
    db.close().unwrap();
    assert_eq!(inj.op_count(), 0, "open, SELECT and close wrote something");
    assert!(std::fs::read(dir.join("data.bdb")).unwrap() == image);
    let _ = std::fs::remove_dir_all(&dir);
}
