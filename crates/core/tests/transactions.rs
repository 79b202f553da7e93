//! Session-level transactions: `BEGIN`/`COMMIT`/`ROLLBACK`, savepoints,
//! and the implicit per-statement transaction.
//!
//! The headline guarantee (ISSUE 4): `BEGIN; <DML+DDL+ANALYZE>;
//! ROLLBACK` restores row data, indexes, planner statistics, outdated
//! bitmaps, annotations, provenance, and dependency rules to their
//! exact pre-transaction state — while the catalog generation moves
//! *forward*, so prepared plans cached against rolled-back DDL are
//! never replayed.

use std::sync::atomic::{AtomicUsize, Ordering};

use bdbms_common::{ErrorCode, Value};
use bdbms_core::approval::OpStatus;
use bdbms_core::ast::Privilege;
use bdbms_core::provenance::{ProvOp, ProvenanceRecord};
use bdbms_core::{Database, DurabilityOptions, TxnStatus};
use proptest::prelude::*;

fn curated_db() -> Database {
    curate(Database::new_in_memory())
}

/// `curated_db()`'s contents, on any database.
fn curate(mut db: Database) -> Database {
    db.execute("CREATE TABLE Gene (GID TEXT, Len INT)").unwrap();
    db.execute("CREATE ANNOTATION TABLE Curation ON Gene")
        .unwrap();
    db.execute("INSERT INTO Gene VALUES ('JW0080', 11), ('JW0082', 42), ('JW0055', 7)")
        .unwrap();
    db.execute(
        "ADD ANNOTATION TO Gene.Curation VALUE 'seed annotation' \
         ON (SELECT G.GID FROM Gene G WHERE Len = 42)",
    )
    .unwrap();
    db
}

/// One annotation's observable identity: id, archived flag, body.
type AnnFacts = Vec<(u64, bool, String)>;

/// Everything observable about a table, for byte-identical comparisons.
fn table_fingerprint(db: &Database, table: &str) -> String {
    let t = db.catalog().table(table).unwrap();
    let rows = t.iter_rows().collect::<Result<Vec<_>, _>>().unwrap();
    let indexes: Vec<(String, usize, usize)> = t
        .indexes()
        .iter()
        .map(|i| (i.name.clone(), i.column, i.len()))
        .collect();
    let anns: Vec<(String, usize, usize, AnnFacts)> = db
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
                    .map(|a| (a.id.raw(), a.archived, a.raw.clone()))
                    .collect(),
            )
        })
        .collect();
    format!(
        "rows={rows:?} indexes={indexes:?} anns={anns:?} stats={:?} \
         outdated_rows={} deleted_log={}",
        t.stats(),
        t.outdated.rows(),
        db.deleted_log(table).unwrap().len()
    )
}

#[test]
fn commit_makes_everything_permanent() {
    let mut db = curated_db();
    assert_eq!(db.transaction_status(), TxnStatus::Idle);
    db.execute("BEGIN").unwrap();
    assert_eq!(db.transaction_status(), TxnStatus::Active { savepoints: 0 });
    db.execute("INSERT INTO Gene VALUES ('JW9999', 99)")
        .unwrap();
    db.execute("CREATE INDEX len_idx ON Gene (Len)").unwrap();
    db.execute("UPDATE Gene SET Len = 12 WHERE GID = 'JW0080'")
        .unwrap();
    db.execute("COMMIT").unwrap();
    assert_eq!(db.transaction_status(), TxnStatus::Idle);
    let r = db.execute("SELECT GID FROM Gene WHERE Len = 99").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(db
        .catalog()
        .table("Gene")
        .unwrap()
        .index_named("len_idx")
        .is_some());
    let r = db
        .execute("SELECT Len FROM Gene WHERE GID = 'JW0080'")
        .unwrap();
    assert_eq!(r.rows[0].values[0], Value::Int(12));
}

#[test]
fn rollback_restores_dml_ddl_analyze_exactly() {
    let mut db = curated_db();
    let before = table_fingerprint(&db, "Gene");
    let gen_before = db.catalog().generation();

    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO Gene VALUES ('JW1111', 1), ('JW2222', 2)")
        .unwrap();
    db.execute("UPDATE Gene SET Len = Len + 100 WHERE Len >= 11")
        .unwrap();
    db.execute("DELETE FROM Gene WHERE GID = 'JW0055'").unwrap();
    db.execute("CREATE INDEX len_idx ON Gene (Len)").unwrap();
    db.execute("ANALYZE Gene").unwrap();
    db.execute("CREATE TABLE Scratch (x INT)").unwrap();
    db.execute("INSERT INTO Scratch VALUES (1)").unwrap();
    db.execute(
        "ADD ANNOTATION TO Gene.Curation VALUE 'mid-txn note' \
         ON (SELECT G.GID FROM Gene G WHERE GID = 'JW0080')",
    )
    .unwrap();
    db.execute("ROLLBACK").unwrap();

    assert_eq!(table_fingerprint(&db, "Gene"), before);
    assert!(!db.catalog().has_table("Scratch"), "created table removed");
    assert!(
        db.catalog().generation() > gen_before,
        "rollback must move the generation forward, never back"
    );

    // row-number allocation is part of the restored state: the next
    // insert gets the number it would have gotten without the txn
    db.execute("INSERT INTO Gene VALUES ('JW3333', 3)").unwrap();
    let t = db.catalog().table("Gene").unwrap();
    assert_eq!(t.row_numbers(), vec![0, 1, 2, 3]);
}

#[test]
fn rollback_restores_a_dropped_table_wholesale() {
    let mut db = curated_db();
    db.execute("CREATE INDEX gid_idx ON Gene (GID)").unwrap();
    let before = table_fingerprint(&db, "Gene");
    db.execute("BEGIN").unwrap();
    db.execute("DROP TABLE Gene").unwrap();
    assert!(!db.catalog().has_table("Gene"));
    // ... and a different table can even take its name mid-transaction
    db.execute("CREATE TABLE Gene (other TEXT)").unwrap();
    db.execute("ROLLBACK").unwrap();
    assert_eq!(table_fingerprint(&db, "Gene"), before);
    // the restored secondary index answers probes again
    let (_, st) = db
        .query_traced("SELECT Len FROM Gene WHERE GID = 'JW0082'")
        .unwrap();
    assert_eq!(st.index_probes, 1, "restored index is used");
}

#[test]
fn savepoints_partial_rollback_release_and_shadowing() {
    let mut db = curated_db();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO Gene VALUES ('A', 1)").unwrap();
    db.execute("SAVEPOINT sp1").unwrap();
    assert_eq!(db.transaction_status(), TxnStatus::Active { savepoints: 1 });
    db.execute("INSERT INTO Gene VALUES ('B', 2)").unwrap();
    db.execute("SAVEPOINT sp2").unwrap();
    db.execute("INSERT INTO Gene VALUES ('C', 3)").unwrap();
    // partial rollback drops C and sp2, keeps A, B and sp1
    db.execute("ROLLBACK TO sp1").unwrap();
    assert_eq!(db.transaction_status(), TxnStatus::Active { savepoints: 1 });
    let err = db.execute("ROLLBACK TO sp2").unwrap_err();
    assert_eq!(
        err.code(),
        ErrorCode::TxnState,
        "sp2 died with the rollback"
    );
    // B was rolled back: rollback-to keeps everything before the savepoint
    let r = db.execute("SELECT GID FROM Gene WHERE Len <= 3").unwrap();
    let got: Vec<Value> = r
        .column_values("GID")
        .unwrap()
        .into_iter()
        .cloned()
        .collect();
    assert_eq!(got, vec![Value::Text("A".into())]);
    db.execute("INSERT INTO Gene VALUES ('D', 4)").unwrap();
    db.execute("RELEASE sp1").unwrap();
    assert_eq!(db.transaction_status(), TxnStatus::Active { savepoints: 0 });
    db.execute("COMMIT").unwrap();
    let r = db.execute("SELECT GID FROM Gene WHERE Len <= 4").unwrap();
    assert_eq!(r.rows.len(), 2, "A and D survive; B and C rolled back");

    // full rollback after a savepoint-heavy transaction restores all
    let before = table_fingerprint(&db, "Gene");
    db.execute("BEGIN").unwrap();
    db.execute("SAVEPOINT s").unwrap();
    db.execute("INSERT INTO Gene VALUES ('E', 5)").unwrap();
    db.execute("SAVEPOINT s").unwrap(); // shadows
    db.execute("DELETE FROM Gene WHERE GID = 'A'").unwrap();
    db.execute("ROLLBACK TO s").unwrap(); // undoes only the delete
    db.execute("ROLLBACK").unwrap();
    assert_eq!(table_fingerprint(&db, "Gene"), before);
}

#[test]
fn stats_counters_restored_exactly_for_the_planner() {
    let mut db = curated_db();
    db.execute("ANALYZE Gene").unwrap();
    let stats_before = format!("{:?}", db.catalog().table("Gene").unwrap().stats());
    let analyze_before = db.execute("ANALYZE Gene").unwrap().message;
    // (re-ANALYZE is idempotent, so running it to capture the message is safe)

    db.execute("BEGIN").unwrap();
    for i in 0..100 {
        db.execute(&format!("INSERT INTO Gene VALUES ('T{i}', {i})"))
            .unwrap();
    }
    db.execute("ANALYZE Gene").unwrap();
    db.execute("DELETE FROM Gene WHERE Len < 50").unwrap();
    db.execute("ROLLBACK").unwrap();

    let stats_after = format!("{:?}", db.catalog().table("Gene").unwrap().stats());
    assert_eq!(
        stats_after, stats_before,
        "min/max, NULL counts, and the KMV sketch must be byte-identical"
    );
    // the documented check: ANALYZE reports the same row count as before
    let analyze_after = db.execute("ANALYZE Gene").unwrap().message;
    assert_eq!(analyze_after, analyze_before);
}

#[test]
fn prepared_plans_do_not_survive_a_rolled_back_create_index() {
    let mut db = curated_db();
    for i in 0..50 {
        db.execute(&format!("INSERT INTO Gene VALUES ('X{i}', {})", i + 1000))
            .unwrap();
    }
    let mut session = db.session("admin");
    let stmt = session
        .prepare("SELECT GID FROM Gene WHERE Len = 1042")
        .unwrap();
    // first run: no index, full scan; plan cached
    session.query(&stmt, &[]).unwrap().into_result().unwrap();
    assert!(stmt.has_cached_plan());

    session.run("BEGIN").unwrap();
    session.run("CREATE INDEX len_idx ON Gene (Len)").unwrap();
    // inside the txn the new index is live and the statement replans onto it
    let mut cur = session.query(&stmt, &[]).unwrap();
    while cur.next_row().unwrap().is_some() {}
    let mid = cur.stats();
    drop(cur);
    assert_eq!(mid.index_probes, 1, "mid-txn plan probes the new index");
    assert_eq!(mid.chosen_indexes, vec!["len_idx".to_string()]);

    session.run("ROLLBACK").unwrap();
    // the index is gone and the generation moved: the cached plan must
    // not be replayed (it would probe a dropped index)
    let mut cur = session.query(&stmt, &[]).unwrap();
    let row = cur.next_row().unwrap().expect("row still present");
    assert_eq!(row.values[0], Value::Text("X42".into()));
    assert!(cur.next_row().unwrap().is_none());
    let after = cur.stats();
    assert_eq!(after.index_probes, 0, "replanned onto a full scan");
    assert!(after.chosen_indexes.is_empty());
}

#[test]
fn annotations_and_provenance_attachments_disappear_on_rollback() {
    let mut db = curated_db();
    db.enable_provenance("Gene").unwrap();
    db.record_provenance(
        "Gene",
        &[0],
        &[0],
        &ProvenanceRecord {
            source: "GenoBase".into(),
            operation: ProvOp::Copy,
            program: None,
            time: 1,
        },
    )
    .unwrap();
    let before = table_fingerprint(&db, "Gene");

    db.execute("BEGIN").unwrap();
    db.execute(
        "ADD ANNOTATION TO Gene.Curation VALUE 'uncommitted note' \
         ON (SELECT G.GID FROM Gene G)",
    )
    .unwrap();
    // provenance through the system API joins the transaction too
    db.record_provenance(
        "Gene",
        &[1],
        &[1],
        &ProvenanceRecord {
            source: "RegulonDB".into(),
            operation: ProvOp::ProgramUpdate,
            program: Some("pipeline".into()),
            time: 2,
        },
    )
    .unwrap();
    // archive the pre-existing annotation (a state flip, not an add)
    db.execute("ARCHIVE ANNOTATION FROM Gene.Curation ON (SELECT G.GID FROM Gene G)")
        .unwrap();
    // annotation-DDL is transactional as well
    db.execute("CREATE ANNOTATION TABLE Review ON Gene")
        .unwrap();
    db.execute("DROP ANNOTATION TABLE Curation ON Gene")
        .unwrap();
    db.execute("ROLLBACK").unwrap();

    assert_eq!(table_fingerprint(&db, "Gene"), before);
    // the propagated view agrees: the seed annotation is live again
    let r = db
        .execute("SELECT GID FROM Gene ANNOTATION(Curation) AWHERE CONTAINS 'seed'")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    // and the provenance query sees exactly the pre-txn record
    let p = db.source_of("Gene", 0, 0, 10).unwrap().unwrap();
    assert_eq!(p.source, "GenoBase");
    assert!(db.source_of("Gene", 1, 1, 10).unwrap().is_none());
}

#[test]
fn dependency_rules_and_cascades_roll_back() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Gene (GID TEXT, GSequence TEXT)")
        .unwrap();
    db.execute("CREATE TABLE Protein (GID TEXT, PSequence TEXT)")
        .unwrap();
    db.execute("INSERT INTO Gene VALUES ('JW0080', 'ATG')")
        .unwrap();
    db.execute("INSERT INTO Protein VALUES ('JW0080', 'M')")
        .unwrap();
    db.register_procedure("translate", |args| Value::Text(format!("T:{}", args[0])));
    db.execute(
        "CREATE DEPENDENCY RULE r1 FROM Gene.GSequence TO Protein.PSequence \
         VIA PROCEDURE 'translate' EXECUTABLE LINK Gene.GID = Protein.GID",
    )
    .unwrap();
    db.execute("UPDATE Gene SET GSequence = 'ATGATG' WHERE GID = 'JW0080'")
        .unwrap();
    let gene_before = table_fingerprint(&db, "Gene");
    let protein_before = table_fingerprint(&db, "Protein");

    db.execute("BEGIN").unwrap();
    // the update cascades: Protein.PSequence is recomputed in-txn
    db.execute("UPDATE Gene SET GSequence = 'GGG' WHERE GID = 'JW0080'")
        .unwrap();
    let r = db.execute("SELECT PSequence FROM Protein").unwrap();
    assert_eq!(r.rows[0].values[0], Value::Text("T:GGG".into()));
    // rule DDL inside the transaction
    db.execute("DROP DEPENDENCY RULE r1").unwrap();
    db.execute("CREATE DEPENDENCY RULE r2 FROM Gene.GID TO Protein.GID VIA PROCEDURE 'copy'")
        .unwrap();
    db.execute("ROLLBACK").unwrap();

    assert_eq!(table_fingerprint(&db, "Gene"), gene_before);
    assert_eq!(
        table_fingerprint(&db, "Protein"),
        protein_before,
        "cascade recomputes are undone with their trigger"
    );
    assert!(db.dependencies().rule_by_name("r1").is_some());
    assert!(db.dependencies().rule_by_name("r2").is_none());
}

#[test]
fn outdated_bitmaps_roll_back_with_validate() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (a INT, b INT)").unwrap();
    db.execute("INSERT INTO T VALUES (1, 2)").unwrap();
    // a non-executable dependency marks b outdated when a changes
    db.execute("CREATE DEPENDENCY RULE r FROM T.a TO T.b VIA PROCEDURE 'lab'")
        .unwrap();
    db.execute("UPDATE T SET a = 5").unwrap();
    assert!(db.catalog().table("T").unwrap().is_outdated(0, 1));
    let before = table_fingerprint(&db, "T");

    db.execute("BEGIN").unwrap();
    db.execute("VALIDATE T COLUMNS b").unwrap();
    assert!(!db.catalog().table("T").unwrap().is_outdated(0, 1));
    db.execute("ROLLBACK").unwrap();
    assert!(
        db.catalog().table("T").unwrap().is_outdated(0, 1),
        "the outdated bit came back with the rollback"
    );
    assert_eq!(table_fingerprint(&db, "T"), before);
}

#[test]
fn implicit_transaction_makes_multi_row_dml_atomic() {
    // regression (ISSUE 4 satellite): a mid-flight failure used to leave
    // the earlier rows applied
    let mut db = curated_db();
    let before = table_fingerprint(&db, "Gene");
    let err = db
        .execute("INSERT INTO Gene VALUES ('OK1', 1), ('bad', 'not-an-int'), ('OK2', 2)")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::TypeMismatch);
    assert_eq!(
        table_fingerprint(&db, "Gene"),
        before,
        "no row of the failed INSERT may remain"
    );
    // row numbers were not burned by the rolled-back rows
    db.execute("INSERT INTO Gene VALUES ('JW4444', 4)").unwrap();
    assert_eq!(
        db.catalog().table("Gene").unwrap().row_numbers(),
        vec![0, 1, 2, 3]
    );
}

#[test]
fn failed_statement_inside_txn_rolls_back_alone() {
    let mut db = curated_db();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO Gene VALUES ('KEEP', 123)").unwrap();
    let err = db
        .execute("INSERT INTO Gene VALUES ('X1', 9), ('X2', 'boom')")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::TypeMismatch);
    assert!(db.in_transaction(), "statement failure keeps the txn open");
    db.execute("COMMIT").unwrap();
    let r = db.execute("SELECT GID FROM Gene WHERE Len >= 9").unwrap();
    let mut got: Vec<Value> = r
        .column_values("GID")
        .unwrap()
        .into_iter()
        .cloned()
        .collect();
    got.sort_by_key(|v| format!("{v:?}"));
    assert_eq!(
        got,
        vec![
            Value::Text("JW0080".into()),
            Value::Text("JW0082".into()),
            Value::Text("KEEP".into())
        ],
        "KEEP survives, X1/X2 do not"
    );
}

/// Only `COPY`, which commits by checkpoint, is refused inside a
/// transaction; the catalog statements run there like any other.
#[test]
fn non_transactional_statements_rejected_inside_txn() {
    let mut db = curated_db();
    for sql in [
        "CREATE USER alice",
        "GRANT INSERT ON Gene TO alice",
        "START CONTENT APPROVAL ON Gene APPROVED BY admin",
    ] {
        db.execute(sql).unwrap();
    }
    for gid in ["P1", "P2"] {
        db.execute_as(&format!("INSERT INTO Gene VALUES ('{gid}', 1)"), "alice")
            .unwrap();
    }
    db.execute("BEGIN").unwrap();
    let err = db.execute("COPY Gene FROM 'genes.tsv'").unwrap_err();
    assert_eq!(err.code(), ErrorCode::TxnState, "COPY must be rejected");
    for sql in [
        "CREATE USER bob",
        "GRANT SELECT ON Gene TO alice",
        "REVOKE SELECT ON Gene FROM alice",
        "APPROVE OPERATION 0",
        "DISAPPROVE OPERATION 1",
        "STOP CONTENT APPROVAL ON Gene",
        "START CONTENT APPROVAL ON Gene APPROVED BY bob",
    ] {
        db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    db.execute("COMMIT").unwrap();
    assert!(db.user_exists("bob"));
    assert_eq!(db.approval().config("Gene").unwrap().approver, "bob");
    let statuses: Vec<OpStatus> = (db.approval_log(None).unwrap().iter())
        .map(|op| op.status)
        .collect();
    assert_eq!(statuses, [OpStatus::Approved, OpStatus::Disapproved]);
    assert_eq!(
        db.execute("SELECT GID FROM Gene WHERE GID = 'P2'")
            .unwrap()
            .rows
            .len(),
        0
    );
}

/// `curated_db()` with a `Protein` table fed by rule `r1`, user `alice`
/// allowed to insert into `Gene` under content approval by `admin`,
/// and two of her inserts pending (operations 0 and 1).
fn catalog_db(mut db: Database) -> Database {
    for sql in [
        "CREATE TABLE Protein (GID TEXT, PLen INT)",
        "INSERT INTO Protein VALUES ('JW0080', 1), ('P1', 2)",
        "CREATE DEPENDENCY RULE r1 FROM Gene.Len TO Protein.PLen \
         VIA PROCEDURE 'assay' LINK Gene.GID = Protein.GID",
        "CREATE USER alice",
        "GRANT INSERT ON Gene TO alice",
        "START CONTENT APPROVAL ON Gene APPROVED BY admin",
    ] {
        db.execute(sql).unwrap();
    }
    for gid in ["P1", "P2"] {
        db.execute_as(&format!("INSERT INTO Gene VALUES ('{gid}', 1)"), "alice")
            .unwrap();
    }
    db
}

/// One statement of each catalog kind, every one of them changing
/// something [`catalog_db`] holds.
const CATALOG_STATEMENTS: [&str; 10] = [
    "CREATE USER bob IN GROUP lab",
    "GRANT SELECT, UPDATE ON Gene TO lab",
    "REVOKE INSERT ON Gene FROM alice",
    "APPROVE OPERATION 0",
    "DISAPPROVE OPERATION 1",
    "STOP CONTENT APPROVAL ON Gene",
    "START CONTENT APPROVAL ON Protein COLUMNS PLen APPROVED BY lab",
    "DROP DEPENDENCY RULE r1",
    "CREATE DEPENDENCY RULE r2 FROM Gene.GID TO Protein.PLen \
     VIA PROCEDURE 'assay' LINK Gene.GID = Protein.GID",
    "UPDATE Gene SET Len = 5 WHERE GID = 'JW0080'",
];

#[test]
fn catalog_statements_leave_no_trace_after_rollback() {
    let mut db = catalog_db(curated_db());
    let before = (views(&db), every_table(&db));
    db.execute("BEGIN").unwrap();
    for sql in CATALOG_STATEMENTS {
        db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    assert_ne!(views(&db), before.0);
    db.execute("ROLLBACK").unwrap();
    assert_eq!((views(&db), every_table(&db)), before);

    db.execute("BEGIN").unwrap();
    db.execute("SAVEPOINT s").unwrap();
    for sql in CATALOG_STATEMENTS {
        db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    db.execute("ROLLBACK TO s").unwrap();
    assert_eq!((views(&db), every_table(&db)), before);
    db.execute("COMMIT").unwrap();
    // the rolled-back rule's id is handed out again
    db.execute(RULE_R3).unwrap();
    assert_eq!(db.dependencies().rule_by_name("r3").unwrap().id.raw(), 1);
}

/// A rule no other rule conflicts with.
const RULE_R3: &str = "CREATE DEPENDENCY RULE r3 FROM Gene.GID TO Protein.GID \
                       VIA PROCEDURE 'assay' LINK Gene.GID = Protein.GID";

#[test]
fn catalog_statements_survive_a_crash_and_a_checkpoint() {
    let dir = std::env::temp_dir().join(format!("bdbms-txn-catalog-{}.bdbms", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::create_with(&dir, DurabilityOptions::no_sync()).unwrap();
    let mut db = catalog_db(curate(db));
    db.execute("BEGIN").unwrap();
    for sql in CATALOG_STATEMENTS {
        db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    db.execute("COMMIT").unwrap();
    // planner statistics are re-derived by a reopen: rows only
    let states = |db: &Database| -> Vec<String> {
        let tables = ["Gene", "Protein"].iter().map(|t| row_state(db, t));
        tables.chain([views(db)]).collect()
    };
    let live = states(&db);
    db.simulate_crash();
    let db = Database::open_with(&dir, DurabilityOptions::no_sync()).unwrap();
    assert_eq!(states(&db), live, "replayed");
    db.close().unwrap();
    let mut db = Database::open_with(&dir, DurabilityOptions::no_sync()).unwrap();
    assert_eq!(states(&db), live, "checkpointed");
    assert!(db.check().unwrap().is_ok());
    // the rule-id allocator is durable too
    db.execute(RULE_R3).unwrap();
    assert_eq!(db.dependencies().rule_by_name("r3").unwrap().id.raw(), 2);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cursors_opened_inside_a_transaction_see_its_writes_and_stream() {
    let mut db = curated_db();
    let mut session = db.session("admin");
    session.run("BEGIN").unwrap();
    for i in 0..20 {
        session
            .run(&format!("INSERT INTO Gene VALUES ('N{i}', {})", 500 + i))
            .unwrap();
    }
    let stmt = session
        .prepare("SELECT GID FROM Gene WHERE Len >= 500")
        .unwrap();
    let mut cur = session.query(&stmt, &[]).unwrap();
    // pinned semantics: the cursor reads the transaction's own
    // uncommitted writes, and advances the scan only as pulled
    let first = cur.next_row().unwrap().expect("uncommitted row visible");
    assert_eq!(first.values[0], Value::Text("N0".into()));
    let early = cur.stats();
    // streaming at per-batch granularity: a table this small fits in
    // one batch, so at most one batch's worth of rows is fetched
    assert!(
        early.rows_fetched <= bdbms_core::batch::BATCH_SIZE as u64,
        "streaming: no more than one batch is materialized (fetched {})",
        early.rows_fetched
    );
    let rest: Vec<_> = cur.collect();
    assert_eq!(rest.len(), 19);

    session.run("ROLLBACK").unwrap();
    let mut cur = session.query(&stmt, &[]).unwrap();
    assert!(
        cur.next_row().unwrap().is_none(),
        "a cursor opened after ROLLBACK sees none of the rolled-back rows"
    );
}

#[test]
fn approval_log_rolls_back_with_the_statement_that_wrote_it() {
    let mut db = curated_db();
    db.execute("CREATE USER intern").unwrap();
    db.execute("GRANT INSERT ON Gene TO intern").unwrap();
    db.execute("START CONTENT APPROVAL ON Gene APPROVED BY admin")
        .unwrap();
    // a monitored multi-row INSERT that fails mid-way must leave neither
    // rows nor pending-approval entries behind
    let err = db
        .execute_as("INSERT INTO Gene VALUES ('P1', 1), ('P2', 'bad')", "intern")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::TypeMismatch);
    assert!(
        db.pending_operations(None).unwrap().is_empty(),
        "no stale pending operation may reference a rolled-back row"
    );
}

#[test]
fn transaction_control_statement_errors() {
    let mut db = curated_db();
    // savepoint commands need an open transaction
    for sql in ["SAVEPOINT s", "ROLLBACK TO s", "RELEASE s"] {
        assert_eq!(db.execute(sql).unwrap_err().code(), ErrorCode::TxnState);
    }
    db.execute("BEGIN").unwrap();
    assert_eq!(
        db.execute("RELEASE nope").unwrap_err().code(),
        ErrorCode::TxnState
    );
    // an empty transaction commits and rolls back cleanly
    db.execute("COMMIT").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("ROLLBACK").unwrap();
    assert_eq!(db.transaction_status(), TxnStatus::Idle);
}

// ---- randomized rollback ----

/// `curated_db()` plus a Protein table fed by two rules on `Gene.Len`:
/// `PLen` is recomputed (a cascading UPDATE), `PFun` goes outdated.
/// One cell is outdated before any transaction starts, so a DELETE of
/// its row must re-mark it on rollback.  Scratch tables `S0` and `S1`
/// and a set `R0` on `Gene` hold data for the generated DDL to drop.
fn cascading(mut db: Database) -> Database {
    db.register_procedure("double", |args| match args[0] {
        Value::Int(v) => Value::Int(2 * v),
        _ => Value::Null,
    });
    for sql in [
        "CREATE TABLE Protein (GID TEXT, PFun TEXT, PLen INT)",
        "INSERT INTO Protein VALUES ('JW0080', 'kinase', 22), ('JW0082', 'ligase', 84), \
         ('JW0055', 'unknown', 14)",
        "CREATE DEPENDENCY RULE plen FROM Gene.Len TO Protein.PLen \
         VIA PROCEDURE 'double' EXECUTABLE LINK Gene.GID = Protein.GID",
        "CREATE DEPENDENCY RULE pfun FROM Gene.Len TO Protein.PFun \
         VIA PROCEDURE 'assay' LINK Gene.GID = Protein.GID",
        "UPDATE Gene SET Len = 43 WHERE GID = 'JW0082'",
        // group `lab`, which approves below, has a member
        "CREATE USER curator IN GROUP lab",
        // scratch tables and a set for the DDL below to drop, each with
        // rows or annotations that only their kept objects hold
        "CREATE TABLE S0 (x INT)",
        "INSERT INTO S0 VALUES (1), (2)",
        "CREATE INDEX sx ON S0 (x)",
        "CREATE TABLE S1 (x INT)",
        "INSERT INTO S1 VALUES (3)",
        "CREATE ANNOTATION TABLE R0 ON Gene",
        "ADD ANNOTATION TO Gene.R0 VALUE 'r' ON (SELECT G.GID FROM Gene G)",
    ] {
        db.execute(sql).unwrap();
    }
    assert!(db.catalog().table("Protein").unwrap().is_outdated(1, 1));
    db
}

const GIDS: [&str; 4] = ["JW0080", "JW0082", "JW0055", "JW0099"];

/// One generated statement, `(kind, gene, number)`, over the tables of
/// [`cascading`].  Some fail (a duplicate index, a missing one); inside
/// a transaction those roll back alone.
fn statement((kind, pick, n): (u8, usize, i64)) -> String {
    let gid = GIDS[pick];
    match kind {
        0 => format!("INSERT INTO Gene VALUES ('{gid}', {n})"),
        1 => format!("UPDATE Gene SET Len = {n} WHERE GID = '{gid}'"),
        2 => format!("DELETE FROM Gene WHERE GID = '{gid}'"),
        3 => format!("DELETE FROM Protein WHERE GID = '{gid}'"),
        4 => format!("INSERT INTO Protein VALUES ('{gid}', 'new', {n})"),
        5 => format!("UPDATE Protein SET PFun = 'f{n}' WHERE GID = '{gid}'"),
        6 => format!("CREATE INDEX len{pick} ON Gene (Len)"),
        7 => format!("DROP INDEX len{pick} ON Gene"),
        8 => format!("CREATE SEQUENCE INDEX gid{pick} ON Gene (GID)"),
        9 => format!("DROP SEQUENCE INDEX gid{pick} ON Gene"),
        10 => format!(
            "ADD ANNOTATION TO Gene.Curation VALUE 'n{n}' \
             ON (SELECT G.GID, G.Len FROM Gene G WHERE Len < {n})"
        ),
        11 => format!(
            "ARCHIVE ANNOTATION FROM Gene.Curation ON (SELECT G.GID, G.Len FROM Gene G WHERE Len < {n})"
        ),
        12 => format!(
            "RESTORE ANNOTATION FROM Gene.Curation ON (SELECT G.GID FROM Gene G WHERE GID = '{gid}')"
        ),
        13 => format!("VALIDATE Protein COLUMNS PFun WHERE GID = '{gid}'"),
        14 => ["ANALYZE Gene", "ANALYZE Protein"][pick % 2].to_string(),
        15 => format!(
            "ADD ANNOTATION TO Gene.Curation VALUE 'obsolete' ON (DELETE FROM Gene WHERE Len = {n})"
        ),
        // the catalog statements: users, grants, content approval (by a
        // group admin is not in, so admin's writes are logged), decisions
        // and rules
        16 => format!("CREATE USER u{pick} IN GROUP lab"),
        17 | 18 => format!(
            "{} {} ON {} {} u{pick}",
            ["GRANT", "REVOKE"][kind as usize - 17],
            ["SELECT", "INSERT", "UPDATE", "DELETE"][n as usize % 4],
            ["Gene", "Protein"][pick % 2],
            ["TO", "FROM"][kind as usize - 17],
        ),
        19 => format!(
            "START CONTENT APPROVAL ON Gene {} APPROVED BY lab",
            ["", "COLUMNS Len"][n as usize % 2]
        ),
        20 => format!(
            "STOP CONTENT APPROVAL ON Gene {}",
            ["", "COLUMNS Len"][n as usize % 2]
        ),
        21 => format!("APPROVE OPERATION {pick}"),
        22 => format!("DISAPPROVE OPERATION {pick}"),
        23 => format!(
            "CREATE DEPENDENCY RULE x{pick} FROM Gene.GID TO Protein.GID \
             VIA PROCEDURE 'copy' LINK Gene.Len = Protein.PLen"
        ),
        24 => format!(
            "DROP DEPENDENCY RULE {}",
            ["plen", "pfun", "x0", "x1"][pick]
        ),
        // table and annotation-set DDL, on scratch tables and sets with
        // rows and annotations of their own
        25 => format!("CREATE TABLE S{pick} (x INT)"),
        26 => format!("DROP TABLE S{pick}"),
        27 => format!("INSERT INTO S{pick} VALUES ({n})"),
        28 => format!("CREATE INDEX sx ON S{pick} (x)"),
        29 => format!("CREATE ANNOTATION TABLE R{pick} ON Gene"),
        30 => format!("DROP ANNOTATION TABLE R{pick} ON Gene"),
        _ => format!(
            "ADD ANNOTATION TO Gene.R{pick} VALUE 'r{n}' \
             ON (SELECT G.GID FROM Gene G WHERE Len < {n})"
        ),
    }
}

fn arb_statements() -> impl Strategy<Value = Vec<(u8, usize, i64)>> {
    prop::collection::vec((0u8..32, 0usize..4, 0i64..60), 1..12)
}

fn run(db: &mut Database, stmts: &[(u8, usize, i64)]) {
    for &stmt in stmts {
        let _ = db.execute(&statement(stmt));
    }
}

/// What [`table_fingerprint`] summarizes or leaves out — outdated bits,
/// sequence indexes, deletion-log entries — next to everything else it
/// holds but planner statistics, which a reopen re-derives.
fn row_state(db: &Database, table: &str) -> String {
    let t = db.catalog().table(table).unwrap();
    let rows = t.iter_rows().collect::<Result<Vec<_>, _>>().unwrap();
    let indexes: Vec<(String, usize, usize)> = t
        .indexes()
        .iter()
        .map(|i| (i.name.clone(), i.column, i.len()))
        .collect();
    let seq_indexes: Vec<(String, usize, usize)> = t
        .seq_indexes()
        .iter()
        .map(|i| (i.name.clone(), i.column, i.len()))
        .collect();
    let anns: Vec<(String, usize, AnnFacts)> = db
        .catalog()
        .ann_set_names(table)
        .into_iter()
        .map(|name| {
            let s = db.catalog().annotation_set(table, &name).unwrap();
            let annotations = s.annotations().unwrap();
            let facts = annotations
                .iter()
                .map(|a| (a.id.raw(), a.archived, a.raw.clone()));
            (name, s.index().attachment_records(), facts.collect())
        })
        .collect();
    let outdated: Vec<(usize, usize)> = t.outdated.iter_set().collect();
    let deleted_log = db.deleted_log(table).unwrap();
    let deleted: Vec<(u64, &[Value], Option<&str>)> = deleted_log
        .iter()
        .map(|d| (d.row_no, &d.values[..], d.annotation.as_deref()))
        .collect();
    format!(
        "rows={rows:?} indexes={indexes:?} seq={seq_indexes:?} anns={anns:?} \
         outdated={outdated:?} of {} deleted={deleted:?}",
        t.outdated.rows()
    )
}

/// Every table's fingerprint (with statistics) and row state, and the
/// catalog views.
fn every_table(db: &Database) -> Vec<(String, String)> {
    let tables = ["Gene", "Protein"].iter();
    let tables = tables.map(|t| (table_fingerprint(db, t), row_state(db, t)));
    tables.chain([(views(db), String::new())]).collect()
}

/// What the catalog views answer — users, groups and privileges, the
/// approval configs, the approval log's decisions and the rules — the
/// rows of the catalog tables behind them, and which scratch tables
/// `S0`…`S3` exist, with their rows and indexes.
fn views(db: &Database) -> String {
    let principals = ["admin", "alice", "bob", "lab", "u0", "u1", "u2", "u3"];
    let tables = ["Gene", "Protein"];
    let privileges = [
        Privilege::Select,
        Privilege::Insert,
        Privilege::Update,
        Privilege::Delete,
    ];
    let auth = db.auth();
    let users: Vec<(bool, Vec<String>)> = (principals.iter())
        .map(|u| (auth.user_exists(u), auth.groups_of(u).to_vec()))
        .collect();
    let mut held = Vec::new();
    for u in principals {
        for t in tables {
            held.extend(privileges.map(|p| auth.has_privilege(u, t, p)));
        }
    }
    let configs = tables.map(|t| db.approval().config(t).cloned());
    let log: Vec<(u64, String, OpStatus)> = (db.approval_log(None).unwrap().into_iter())
        .map(|op| (op.id.raw(), op.table, op.status))
        .collect();
    let rows = ["$auth", "$approval", "$rules", "$schema"].map(|t| {
        let t = db.catalog().table(t).unwrap();
        t.iter_rows().collect::<Result<Vec<_>, _>>().unwrap()
    });
    let scratch: Vec<_> = (0..4)
        .map(|i| {
            let t = db.catalog().table(&format!("S{i}")).ok()?;
            let rows = t.iter_rows().collect::<Result<Vec<_>, _>>().unwrap();
            let indexes: Vec<_> = t.indexes().iter().map(|i| (&i.name, i.len())).collect();
            Some(format!("{rows:?} {indexes:?}"))
        })
        .collect();
    format!(
        "users={users:?} held={held:?} configs={configs:?} log={log:?} rules={:?} rows={rows:?} \
         scratch={scratch:?}",
        db.dependencies().rules()
    )
}

/// The rows of `$schema`.
fn schema_rows(db: &Database) -> Vec<(u64, Vec<Value>)> {
    let t = db.catalog().table("$schema").unwrap();
    t.iter_rows().collect::<Result<_, _>>().unwrap()
}

/// `Gene` gets a B+-tree and a sequence index next to its rows and its
/// annotated set.
fn indexed(mut db: Database) -> Database {
    db.execute("CREATE INDEX len_idx ON Gene (Len)").unwrap();
    db.execute("CREATE SEQUENCE INDEX gid_seq ON Gene (GID)")
        .unwrap();
    db
}

/// `Gene` dropped, then re-created as another table with an index and
/// a row of its own.
const DROP_AND_RECREATE: [&str; 4] = [
    "DROP TABLE Gene",
    "CREATE TABLE Gene (z INT)",
    "CREATE INDEX z_idx ON Gene (z)",
    "INSERT INTO Gene VALUES (1)",
];

/// A dropped table comes back from rollback whole — rows, both kinds of
/// index, its annotations and its `$schema` rows — even though another
/// table took its name in between; whole, to a savepoint, and, once
/// committed, through a crash.
#[test]
fn a_dropped_table_comes_back_past_its_successor() {
    let mut db = indexed(curated_db());
    let state = |db: &Database| {
        let gene = (table_fingerprint(db, "Gene"), row_state(db, "Gene"));
        (gene, schema_rows(db))
    };
    let before = state(&db);
    db.execute("BEGIN").unwrap();
    for sql in DROP_AND_RECREATE {
        db.execute(sql).unwrap();
    }
    assert_ne!(state(&db), before);
    db.execute("ROLLBACK").unwrap();
    assert_eq!(state(&db), before);
    db.execute("BEGIN").unwrap();
    db.execute("SAVEPOINT s").unwrap();
    for sql in DROP_AND_RECREATE {
        db.execute(sql).unwrap();
    }
    db.execute("ROLLBACK TO s").unwrap();
    db.execute("COMMIT").unwrap();
    assert_eq!(state(&db), before);
    let check = db.check().unwrap();
    assert!(check.is_ok(), "{:?}", check.problems);
    let (_, st) = db
        .query_traced("SELECT GID FROM Gene WHERE Len = 42")
        .unwrap();
    assert_eq!(st.index_probes, 1, "the restored index answers");

    let dir = std::env::temp_dir().join(format!("bdbms-txn-redefine-{}.bdbms", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::create_with(&dir, DurabilityOptions::no_sync()).unwrap();
    let mut db = indexed(curate(db));
    db.execute("BEGIN").unwrap();
    for sql in DROP_AND_RECREATE {
        db.execute(sql).unwrap();
    }
    db.execute("COMMIT").unwrap();
    let state = |db: &Database| (row_state(db, "Gene"), schema_rows(db));
    let live = state(&db);
    db.simulate_crash();
    let db = Database::open_with(&dir, DurabilityOptions::no_sync()).unwrap();
    assert_eq!(state(&db), live);
    assert!(db.check().unwrap().is_ok());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random DML, index DDL, annotation, archive, cascade, VALIDATE,
    /// ANALYZE and DELETE sequences leave no trace after `ROLLBACK`, and
    /// none past a savepoint after `ROLLBACK TO`.
    #[test]
    fn random_transactions_roll_back_exactly(stmts in arb_statements(), split in 0usize..12) {
        let mut db = cascading(curated_db());
        let before = every_table(&db);
        db.execute("BEGIN").unwrap();
        run(&mut db, &stmts);
        db.execute("ROLLBACK").unwrap();
        prop_assert_eq!(every_table(&db), before.clone());

        let (head, tail) = stmts.split_at(split.min(stmts.len()));
        db.execute("BEGIN").unwrap();
        run(&mut db, head);
        let at_savepoint = every_table(&db);
        db.execute("SAVEPOINT s").unwrap();
        run(&mut db, tail);
        db.execute("ROLLBACK TO s").unwrap();
        prop_assert_eq!(every_table(&db), at_savepoint);
        db.execute("ROLLBACK").unwrap();
        prop_assert_eq!(every_table(&db), before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same sequences, committed on a durable database and
    /// recovered from the WAL alone, come back as they were live.
    #[test]
    fn random_committed_transactions_replay_exactly(stmts in arb_statements()) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bdbms-txn-replay-{}-{}.bdbms",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::create_with(&dir, DurabilityOptions::no_sync()).unwrap();
        let mut db = cascading(curate(db));
        db.execute("BEGIN").unwrap();
        run(&mut db, &stmts);
        db.execute("COMMIT").unwrap();
        let states = |db: &Database| -> Vec<String> {
            let tables = ["Gene", "Protein"].iter().map(|t| row_state(db, t));
            tables.chain([views(db)]).collect()
        };
        let live = states(&db);
        db.simulate_crash();
        let db = Database::open_with(&dir, DurabilityOptions::no_sync()).unwrap();
        let recovered = states(&db);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(recovered, live);
    }
}
