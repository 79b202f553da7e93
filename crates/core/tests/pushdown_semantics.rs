//! Pushdown/index regression suite: the executor's one plan (conjuncts
//! pushed to their scans, index probes, annotations attached after the
//! joins) must return the reference interpreter's rows and annotation
//! sets (`support/reference.rs`: the whole WHERE on every joined row,
//! annotations attached to every cell up front, no planner, no index) for
//! every §3.4 construct — ANNOTATION propagation, AWHERE, FILTER, PROMOTE,
//! the synthetic `outdated` annotation (§5), grouping, set operations —
//! and the secondary indexes must stay consistent across INSERT / UPDATE /
//! DELETE and dependency cascades.  What the plan *costs* is pinned as
//! absolute, hand-computed `ExecStats` values.

mod support;

use bdbms_core::executor::ExecStats;
use bdbms_core::Database;

/// Run `sql`, assert the reference interpreter's answer (columns, the
/// multiset of `values + per-cell annotation identities`, with ORDER BY
/// the sort-key sequence), and return the run's stats.
fn assert_reference(db: &Database, sql: &str) -> ExecStats {
    support::run_checked(db, "engine", sql).1
}

/// The paper-shaped fixture: two gene tables with annotation tables,
/// per-cell annotations at several granularities, outdated marks, and a
/// secondary index on the join/filter column.
fn fixture() -> Database {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE DB1_Gene (GID TEXT, GName TEXT, Len INT)")
        .unwrap();
    db.execute("CREATE TABLE DB2_Gene (GID TEXT, GFunction TEXT, Score FLOAT)")
        .unwrap();
    db.execute("CREATE ANNOTATION TABLE Prov ON DB1_Gene")
        .unwrap();
    db.execute("CREATE ANNOTATION TABLE Comments ON DB1_Gene")
        .unwrap();
    db.execute("CREATE ANNOTATION TABLE GAnnotation ON DB2_Gene")
        .unwrap();
    for i in 0..60 {
        db.execute(&format!(
            "INSERT INTO DB1_Gene VALUES ('JW{i:04}', 'g{i}', {i})"
        ))
        .unwrap();
    }
    for i in 0..40 {
        db.execute(&format!(
            "INSERT INTO DB2_Gene VALUES ('JW{:04}', 'fn{i}', {}.5)",
            i * 2,
            i
        ))
        .unwrap();
    }
    // column-granularity annotation (§3.2 example B3)
    db.execute(
        "ADD ANNOTATION TO DB1_Gene.Prov VALUE 'obtained from RegulonDB' \
         ON (SELECT G.GName FROM DB1_Gene G)",
    )
    .unwrap();
    // tuple- and cell-granularity annotations
    db.execute(
        "ADD ANNOTATION TO DB1_Gene.Comments VALUE 'unknown function' \
         ON (SELECT G.GID, G.GName, G.Len FROM DB1_Gene G WHERE Len < 10)",
    )
    .unwrap();
    db.execute(
        "ADD ANNOTATION TO DB2_Gene.GAnnotation VALUE 'obtained from GenoBase' \
         ON (SELECT G.GFunction FROM DB2_Gene G WHERE Score > 30.0)",
    )
    .unwrap();
    db.execute("CREATE INDEX len_idx ON DB1_Gene (Len)")
        .unwrap();
    db.execute("CREATE INDEX gid_idx ON DB2_Gene (GID)")
        .unwrap();
    db
}

#[test]
fn filtered_queries_match_the_reference() {
    let db = fixture();
    for sql in [
        // selective equality over the indexed column
        "SELECT GID, Len FROM DB1_Gene WHERE Len = 42",
        // range over the indexed column
        "SELECT GID FROM DB1_Gene WHERE Len > 55",
        "SELECT GID FROM DB1_Gene WHERE Len >= 10 AND Len < 13",
        // non-indexed predicate (full scan)
        "SELECT GID FROM DB1_Gene WHERE GName LIKE 'g1%'",
        // compound with OR (not pushable through the index)
        "SELECT GID FROM DB1_Gene WHERE Len = 3 OR Len = 57",
        // NULL comparison: provably empty
        "SELECT GID FROM DB1_Gene WHERE Len = NULL",
        // non-comparison NULL: `x OR NULL` is true when x is true, so
        // this must NOT be planned as empty
        "SELECT GID FROM DB1_Gene WHERE Len > 55 OR NULL",
        // expression predicates
        "SELECT GID FROM DB1_Gene WHERE Len * 2 = 20 AND LENGTH(GID) = 6",
    ] {
        assert_reference(&db, sql);
    }
}

#[test]
fn annotation_propagation_matches_the_reference() {
    let db = fixture();
    for sql in [
        // scan-time attachment + projection annotation semantics
        "SELECT GID, GName FROM DB1_Gene ANNOTATION(Prov, Comments) WHERE Len < 12",
        // AWHERE over attached annotations
        "SELECT GID FROM DB1_Gene ANNOTATION(Comments) WHERE Len < 30 AWHERE CONTAINS 'unknown'",
        // FILTER keeps tuples, drops non-matching annotations
        "SELECT GID, GName FROM DB1_Gene ANNOTATION(Prov, Comments) \
         WHERE Len < 12 FILTER CONTAINS 'RegulonDB'",
        // PROMOTE pulls a non-projected column's annotations
        "SELECT GID PROMOTE (GName) FROM DB1_Gene ANNOTATION(Prov) WHERE Len = 7",
        // join with annotations from both sides, pushdown on each input
        "SELECT G.GID, H.GFunction FROM DB1_Gene ANNOTATION(Prov) G, \
         DB2_Gene ANNOTATION(GAnnotation) H \
         WHERE G.GID = H.GID AND G.Len < 20 AND H.Score > 1.0",
        // DISTINCT union-of-annotations semantics
        "SELECT DISTINCT GName FROM DB1_Gene ANNOTATION(Prov) WHERE Len < 15",
        // grouping: annotations union across the group; AHAVING
        "SELECT COUNT(*) FROM DB1_Gene ANNOTATION(Comments) WHERE Len < 9 \
         GROUP BY GName AHAVING CONTAINS 'unknown'",
        // set operation with annotation union
        "SELECT GID FROM DB1_Gene ANNOTATION(Comments) WHERE Len < 5 \
         UNION SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation) WHERE Score > 35.0",
        "SELECT GID FROM DB1_Gene WHERE Len < 20 \
         INTERSECT SELECT GID FROM DB2_Gene WHERE Score < 50.0",
        // ORDER BY on the compound output
        "SELECT GID FROM DB1_Gene WHERE Len < 6 ORDER BY GID DESC",
    ] {
        assert_reference(&db, sql);
    }
}

#[test]
fn outdated_annotations_match_the_reference() {
    let mut db = fixture();
    // make cells outdated the § 5 way: a non-executable dependency rule
    // marks targets stale when sources change
    db.execute("CREATE TABLE Protein (GID TEXT, PSequence TEXT)")
        .unwrap();
    for i in 0..10 {
        db.execute(&format!(
            "INSERT INTO Protein VALUES ('JW{i:04}', 'seq{i}')"
        ))
        .unwrap();
    }
    db.execute(
        "CREATE DEPENDENCY RULE r1 FROM DB1_Gene.GName TO Protein.PSequence \
         VIA PROCEDURE 'translate' LINK DB1_Gene.GID = Protein.GID",
    )
    .unwrap();
    db.execute("UPDATE DB1_Gene SET GName = 'renamed' WHERE Len = 3")
        .unwrap();
    db.execute("UPDATE DB1_Gene SET GName = 'renamed2' WHERE Len = 7")
        .unwrap();
    // outdated cells now exist on Protein; the post-filter attach stage
    // must surface the synthetic annotation on exactly the reference's cells
    for sql in [
        "SELECT GID, PSequence FROM Protein",
        "SELECT GID, PSequence FROM Protein WHERE GID = 'JW0003'",
        "SELECT PSequence FROM Protein AWHERE FROM outdated",
        "SELECT GID FROM Protein AWHERE CONTAINS 'pending re-verification'",
    ] {
        assert_reference(&db, sql);
    }
}

#[test]
fn the_plan_probes_the_index_and_attaches_to_survivors_only() {
    let db = fixture();
    let stats = assert_reference(&db, "SELECT GID FROM DB1_Gene WHERE Len = 42");
    assert_eq!(stats.index_probes, 1, "equality must probe the index");
    assert_eq!(stats.full_scans, 0);
    assert_eq!(
        stats.rows_fetched, 1,
        "only the matching row of 60 is fetched"
    );
    assert_eq!(stats.anns_attached, 0, "no annotations requested");

    // without an index the pushed conjunct is still evaluated at the scan:
    // all 60 rows are fetched, 49 rejected there ('g1', 'g10'..'g19' pass)
    let stats = assert_reference(&db, "SELECT GID FROM DB1_Gene WHERE GName LIKE 'g1%'");
    assert_eq!((stats.index_probes, stats.full_scans), (0, 1));
    assert_eq!((stats.rows_fetched, stats.rows_scan_filtered), (60, 49));

    // G.Len = 4 probes len_idx for the one row of G; H has no pushed
    // conjunct, so its 40 rows stream past the one-row build side.  Prov
    // annotates GName on all 60 rows, but only the surviving joined row's
    // *projected* columns get annotation work: none for GID, one for GName
    let join = "FROM DB1_Gene ANNOTATION(Prov) G, DB2_Gene H WHERE G.GID = H.GID AND G.Len = 4";
    let stats = assert_reference(&db, &format!("SELECT G.GID {join}"));
    assert_eq!((stats.index_probes, stats.full_scans), (1, 1));
    assert_eq!(stats.rows_fetched, 41);
    assert_eq!(stats.join_order, [1, 0], "H streams, G is the build side");
    assert_eq!(stats.anns_attached, 0);
    let stats = assert_reference(&db, &format!("SELECT G.GID, G.GName {join}"));
    assert_eq!(stats.anns_attached, 1);
    // AWHERE needs every column's annotations, still on survivors only:
    // the probe's bound is widened to `Len <= 5` (6 candidates), the
    // re-check drops Len = 5, and each of the 5 survivors carries Prov on
    // GName
    let stats = assert_reference(
        &db,
        "SELECT GID FROM DB1_Gene ANNOTATION(Prov) WHERE Len < 5 AWHERE CONTAINS 'RegulonDB'",
    );
    assert_eq!((stats.rows_fetched, stats.rows_scan_filtered), (6, 1));
    assert_eq!(stats.anns_attached, 5);
}

#[test]
fn index_consistency_through_dml_and_cascades() {
    let mut db = fixture();
    let probe = |db: &Database, len: i64| -> Vec<String> {
        let (qr, stats) = db
            .query_traced(&format!("SELECT GID FROM DB1_Gene WHERE Len = {len}"))
            .unwrap();
        assert_eq!(stats.index_probes, 1);
        qr.rows.iter().map(|r| r.values[0].to_string()).collect()
    };
    // INSERT: new row visible through the index
    db.execute("INSERT INTO DB1_Gene VALUES ('JW9001', 'new', 1001)")
        .unwrap();
    assert_eq!(probe(&db, 1001), vec!["JW9001"]);
    // UPDATE: moves the key
    db.execute("UPDATE DB1_Gene SET Len = 2002 WHERE GID = 'JW9001'")
        .unwrap();
    assert_eq!(probe(&db, 1001), Vec::<String>::new());
    assert_eq!(probe(&db, 2002), vec!["JW9001"]);
    // DELETE: retires the key
    db.execute("DELETE FROM DB1_Gene WHERE GID = 'JW9001'")
        .unwrap();
    assert_eq!(probe(&db, 2002), Vec::<String>::new());

    // dependency cascades write through Table::update and must maintain
    // indexes on the *target* table too
    db.execute("CREATE TABLE Derived (GID TEXT, DLen INT)")
        .unwrap();
    for i in 0..10 {
        db.execute(&format!("INSERT INTO Derived VALUES ('JW{i:04}', 0)"))
            .unwrap();
    }
    db.execute("CREATE INDEX dlen_idx ON Derived (DLen)")
        .unwrap();
    db.register_procedure("double_len", |inputs| match &inputs[0] {
        bdbms_common::Value::Int(i) => bdbms_common::Value::Int(i * 2),
        other => other.clone(),
    });
    db.execute(
        "CREATE DEPENDENCY RULE dd FROM DB1_Gene.Len TO Derived.DLen \
         VIA PROCEDURE 'double_len' EXECUTABLE LINK DB1_Gene.GID = Derived.GID",
    )
    .unwrap();
    // cascade recomputes Derived.DLen = 2 * Len through Table::update
    db.execute("UPDATE DB1_Gene SET Len = 500 WHERE GID = 'JW0004'")
        .unwrap();
    let (qr, stats) = db
        .query_traced("SELECT GID FROM Derived WHERE DLen = 1000")
        .unwrap();
    assert_eq!(stats.index_probes, 1);
    assert_eq!(qr.rows.len(), 1);
    assert_eq!(qr.rows[0].values[0].to_string(), "JW0004");
    // and the equivalence still holds table-wide after all the churn
    assert_reference(&db, "SELECT GID, DLen FROM Derived WHERE DLen > 0");
    assert_reference(
        &db,
        "SELECT GID, Len FROM DB1_Gene WHERE Len >= 0 ORDER BY GID",
    );
}

#[test]
fn update_delete_where_go_through_index_planning() {
    let mut db = fixture();
    // UPDATE/DELETE with indexable predicates go through the same probe
    // planning as SELECT scans — churn, then verify against the reference
    db.execute("UPDATE DB1_Gene SET GName = 'hit' WHERE Len = 33")
        .unwrap();
    let (qr, _) = db
        .query_traced("SELECT GName FROM DB1_Gene WHERE Len = 33")
        .unwrap();
    assert_eq!(qr.rows[0].values[0].to_string(), "hit");
    db.execute("DELETE FROM DB1_Gene WHERE Len >= 58").unwrap();
    let (qr, _) = db.query_traced("SELECT COUNT(*) FROM DB1_Gene").unwrap();
    assert_eq!(qr.rows[0].values[0].to_string(), "58");
    assert_reference(&db, "SELECT GID FROM DB1_Gene WHERE Len > 50");
}
