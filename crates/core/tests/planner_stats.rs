//! Planner determinism suite: given a fixed insert history (hence fixed
//! statistics), the cost-based planner must make reproducible, assertable
//! decisions — which index serves a scan, which join order runs, whether
//! a LIMIT terminates the pipeline early, and when a scan is served
//! index-only — all observed through `ExecStats`, as absolute values.
//! Whatever the plan, the answer must be the reference interpreter's
//! (`support/reference.rs`).

mod support;

use bdbms_common::Value;
use bdbms_core::executor::ExecStats;
use bdbms_core::Database;

/// 200-row Gene table: `Len` = row number (unique), `Bucket` = row % 10
/// (10 distinct), B+-tree indexes on both; 10-row Tag dimension table.
fn fixture() -> Database {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Gene (GID TEXT, GName TEXT, Len INT, Bucket INT)")
        .unwrap();
    db.execute("CREATE ANNOTATION TABLE Curation ON Gene")
        .unwrap();
    for i in 0..200 {
        db.execute(&format!(
            "INSERT INTO Gene VALUES ('JW{i:04}', 'g{i}', {i}, {})",
            i % 10
        ))
        .unwrap();
    }
    db.execute(
        "ADD ANNOTATION TO Gene.Curation VALUE 'curated' \
         ON (SELECT G.GName FROM Gene G)",
    )
    .unwrap();
    db.execute("CREATE INDEX len_idx ON Gene (Len)").unwrap();
    db.execute("CREATE INDEX bucket_idx ON Gene (Bucket)")
        .unwrap();
    db.execute("CREATE TABLE Tag (Len INT, TName TEXT)")
        .unwrap();
    for t in 0..10 {
        db.execute(&format!("INSERT INTO Tag VALUES ({}, 'tag{t}')", t * 20))
            .unwrap();
    }
    db
}

/// Run `sql`, assert the reference interpreter's answer (columns, the
/// multiset of `values + per-cell annotation identities`, with ORDER BY
/// the sort-key sequence), and return the run's stats.
fn assert_reference(db: &Database, sql: &str) -> ExecStats {
    support::run_checked(db, "engine", sql).1
}

#[test]
fn incremental_stats_track_dml() {
    let db = fixture();
    let t = db.catalog().table("Gene").unwrap();
    let len = t.stats().column(2);
    assert_eq!(len.min, Some(Value::Int(0)));
    assert_eq!(len.max, Some(Value::Int(199)));
    assert_eq!(len.null_count, 0);
    // fewer than the sketch's K distinct values → the estimate is exact
    assert_eq!(len.distinct(), 200);
    assert_eq!(t.stats().column(3).distinct(), 10);

    let mut db = db;
    db.execute("INSERT INTO Gene VALUES ('JW9999', 'g', 500, NULL)")
        .unwrap();
    let t = db.catalog().table("Gene").unwrap();
    assert_eq!(t.stats().column(2).max, Some(Value::Int(500)));
    assert_eq!(t.stats().column(3).null_count, 1);
    db.execute("UPDATE Gene SET Bucket = 3 WHERE Len = 500")
        .unwrap();
    assert_eq!(
        db.catalog()
            .table("Gene")
            .unwrap()
            .stats()
            .column(3)
            .null_count,
        0
    );
    // deletes shrink NULL counts but conservatively keep min/max wide
    db.execute("DELETE FROM Gene WHERE Len = 500").unwrap();
    let t = db.catalog().table("Gene").unwrap();
    assert_eq!(t.stats().column(2).max, Some(Value::Int(500)));
}

#[test]
fn analyze_statement_rebuilds_exact_stats() {
    let mut db = fixture();
    db.execute("DELETE FROM Gene WHERE Len >= 100").unwrap();
    // incrementally-maintained bounds are stale-wide after the delete…
    assert_eq!(
        db.catalog().table("Gene").unwrap().stats().column(2).max,
        Some(Value::Int(199))
    );
    // …until ANALYZE recomputes them from the live rows
    let r = db.execute("ANALYZE Gene").unwrap();
    assert!(r.message.unwrap().contains("100 row(s)"));
    let t = db.catalog().table("Gene").unwrap();
    assert_eq!(t.stats().column(2).max, Some(Value::Int(99)));
    assert_eq!(t.stats().column(2).distinct(), 100);
    assert!(db.execute("ANALYZE NoSuchTable").is_err());
}

#[test]
fn multi_index_choice_is_cost_based_and_deterministic() {
    let db = fixture();
    // Bucket = 3 matches 20 rows; Len ∈ [100, 102) matches 2 → len_idx
    // (the pre-stats planner preferred any equality, i.e. bucket_idx)
    let sql = "SELECT GID FROM Gene WHERE Bucket = 3 AND Len >= 100 AND Len < 102";
    let (_, st) = db.query_traced(sql).unwrap();
    assert_eq!(st.chosen_indexes, vec!["len_idx".to_string()]);
    assert_eq!(st.index_probes, 1);
    // a table-wide Len range is worse than the Bucket equality
    let sql = "SELECT GID FROM Gene WHERE Bucket = 3 AND Len >= 0";
    let (_, st) = db.query_traced(sql).unwrap();
    assert_eq!(st.chosen_indexes, vec!["bucket_idx".to_string()]);
    // decisions are a pure function of the (fixed) stats
    for _ in 0..3 {
        let (_, again) = db.query_traced(sql).unwrap();
        assert_eq!(again.chosen_indexes, st.chosen_indexes);
    }
    // both plans return the reference's rows
    assert_reference(&db, sql);
    assert_reference(
        &db,
        "SELECT GID FROM Gene WHERE Bucket = 3 AND Len >= 100 AND Len < 102",
    );
}

#[test]
fn join_order_streams_the_big_source() {
    let db = fixture();
    let sql = "SELECT G.GID, T.TName FROM Tag T, Gene G WHERE T.Len = G.Len";
    let st = assert_reference(&db, sql);
    assert_eq!(
        st.join_order,
        vec![1, 0],
        "Gene (200 rows) streams; Tag (10 rows) is the hash build side"
    );
    assert_eq!((st.full_scans, st.rows_fetched), (2, 210));
    // with Gene already first, the order is kept
    let sql = "SELECT G.GID, T.TName FROM Gene G, Tag T WHERE T.Len = G.Len";
    let st = assert_reference(&db, sql);
    assert_eq!(st.join_order, vec![0, 1]);
    // a selective pushed predicate flips the estimate: Gene shrinks to
    // one row, so Tag streams and Gene becomes the build side
    let sql = "SELECT G.GID, T.TName FROM Gene G, Tag T WHERE T.Len = G.Len AND G.Len = 40";
    let st = assert_reference(&db, sql);
    assert_eq!(st.join_order, vec![1, 0]);
    // … and Gene's one row comes off len_idx, not the heap
    assert_eq!(
        (st.index_probes, st.full_scans, st.rows_fetched),
        (1, 1, 11)
    );
}

#[test]
fn three_way_join_prefers_connected_sources() {
    let mut db = fixture();
    db.execute("CREATE TABLE TagMeta (TName TEXT, Grp TEXT)")
        .unwrap();
    for t in 0..10 {
        db.execute(&format!(
            "INSERT INTO TagMeta VALUES ('tag{t}', 'grp{}')",
            t % 2
        ))
        .unwrap();
    }
    // TagMeta only joins through Tag; after Gene streams, Tag (connected
    // to Gene) must come before TagMeta even though TagMeta is no bigger
    let sql = "SELECT G.GID, M.Grp FROM TagMeta M, Tag T, Gene G \
               WHERE T.Len = G.Len AND M.TName = T.TName";
    let st = assert_reference(&db, sql);
    assert_eq!(st.join_order, vec![2, 1, 0], "Gene, then Tag, then TagMeta");
}

#[test]
fn limit_terminates_the_pipeline_early() {
    let db = fixture();
    // full-scan LIMIT: the scan emits rows in row order and stops after
    // the 7th, so the kept rows are the first 7 inserted
    let sql = "SELECT GID, GName FROM Gene LIMIT 7";
    let (qr, st) = db.query_traced(sql).unwrap();
    let gids: Vec<String> = qr.rows.iter().map(|r| r.values[0].to_string()).collect();
    assert_eq!(
        gids,
        ["JW0000", "JW0001", "JW0002", "JW0003", "JW0004", "JW0005", "JW0006"]
    );
    assert_eq!(
        st.rows_fetched, 7,
        "scan stopped after the limit, not at 200"
    );
    assert_eq!(st.limit_pushdowns, 1);
    assert_eq!(st.rows_limit_discarded, 0);
    assert_reference(&db, sql);

    // LIMIT over an index range probe stops the probe's re-checks too
    let sql = "SELECT GID, Len FROM Gene WHERE Len >= 50 LIMIT 5";
    let st = assert_reference(&db, sql);
    assert_eq!(st.rows_fetched, 5);
    assert_eq!(st.limit_pushdowns, 1);

    // annotations still attach only to the tuples that survive the limit
    let sql = "SELECT GName FROM Gene ANNOTATION(Curation) LIMIT 3";
    let st = assert_reference(&db, sql);
    assert_eq!(st.anns_attached, 3);
}

#[test]
fn limit_is_not_pushed_past_blocking_operators() {
    let db = fixture();
    for (sql, discarded) in [
        // ORDER BY must see every row before truncating: 200 - 4
        ("SELECT GID, Len FROM Gene ORDER BY Len DESC LIMIT 4", 196),
        // grouping and DISTINCT are blocking too: 10 buckets - 3
        (
            "SELECT Bucket, COUNT(*) AS n FROM Gene GROUP BY Bucket ORDER BY Bucket LIMIT 3",
            7,
        ),
        (
            "SELECT DISTINCT Bucket FROM Gene ORDER BY Bucket LIMIT 3",
            7,
        ),
    ] {
        // the reference sorts before it truncates: same sort keys, in order
        let st = assert_reference(&db, sql);
        assert_eq!(st.limit_pushdowns, 0, "must not push: {sql}");
        assert_eq!(st.rows_fetched, 200, "every row is read: {sql}");
        assert_eq!(st.rows_limit_discarded, discarded, "late truncation: {sql}");
    }
    // ORDER BY + LIMIT answers are correct (top-4 by Len descending)
    let (qr, _) = db
        .query_traced("SELECT Len FROM Gene ORDER BY Len DESC LIMIT 4")
        .unwrap();
    let lens: Vec<String> = qr.rows.iter().map(|r| r.values[0].to_string()).collect();
    assert_eq!(lens, vec!["199", "198", "197", "196"]);
}

#[test]
fn index_only_scans_skip_the_heap() {
    let db = fixture();
    // projection and predicate both live on the indexed column
    let sql = "SELECT Len FROM Gene WHERE Len >= 5 AND Len < 8";
    let (qr, st) = db.query_traced(sql).unwrap();
    assert_eq!(st.index_only_scans, 1);
    assert_eq!(st.index_probes, 1);
    assert_eq!(
        qr.rows
            .iter()
            .map(|r| r.values[0].to_string())
            .collect::<Vec<_>>(),
        vec!["5", "6", "7"]
    );
    assert_reference(&db, sql);
    // aggregates over the covered column stay index-only
    let sql = "SELECT COUNT(*) AS n FROM Gene WHERE Len >= 100";
    let (qr, st) = db.query_traced(sql).unwrap();
    assert_eq!(st.index_only_scans, 1);
    assert_eq!(qr.rows[0].values[0], Value::Int(100));
    assert_reference(&db, sql);
    // projecting an uncovered column forces heap fetches
    let (_, st) = db
        .query_traced("SELECT GID FROM Gene WHERE Len = 5")
        .unwrap();
    assert_eq!(st.index_only_scans, 0);
    assert_eq!(st.index_probes, 1);
}

#[test]
fn stats_survive_heavy_churn_and_plans_stay_valid() {
    let mut db = fixture();
    // churn: shift half the buckets, delete a band, re-insert
    db.execute("UPDATE Gene SET Bucket = Bucket + 10 WHERE Len < 100")
        .unwrap();
    db.execute("DELETE FROM Gene WHERE Len >= 150").unwrap();
    for i in 300..330 {
        db.execute(&format!(
            "INSERT INTO Gene VALUES ('JW{i:04}', 'g{i}', {i}, {})",
            i % 10
        ))
        .unwrap();
    }
    db.execute("ANALYZE Gene").unwrap();
    for sql in [
        "SELECT GID FROM Gene WHERE Bucket = 13 AND Len >= 10 AND Len < 12",
        "SELECT GID, Len FROM Gene WHERE Len >= 300 ORDER BY Len",
        "SELECT Bucket, COUNT(*) AS n FROM Gene GROUP BY Bucket ORDER BY Bucket",
        "SELECT GID FROM Gene WHERE Len >= 100 LIMIT 6",
    ] {
        assert_reference(&db, sql);
    }
}
