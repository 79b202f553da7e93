//! End-to-end coverage of the Session API: prepared statements,
//! parameter binding, streaming cursors, plan caching, and plan
//! invalidation on DDL / ANALYZE.

use bdbms_common::{ErrorCode, Value};
use bdbms_core::batch::BATCH_SIZE;
use bdbms_core::Database;

/// A Gene table with `n` rows (`Len` = row number) and no indexes.
fn gene_db(n: usize) -> Database {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Gene (GID TEXT, GName TEXT, Len INT)")
        .unwrap();
    let mut i = 0;
    while i < n {
        let hi = (i + 500).min(n);
        let tuples: Vec<String> = (i..hi)
            .map(|r| format!("('JW{r:06}', 'g{r}', {r})"))
            .collect();
        db.execute(&format!("INSERT INTO Gene VALUES {}", tuples.join(", ")))
            .unwrap();
        i = hi;
    }
    db
}

#[test]
fn prepared_query_matches_one_shot_execute() {
    let mut db = gene_db(200);
    let expected = db
        .execute("SELECT GID, Len FROM Gene WHERE Len >= 10 AND Len < 14")
        .unwrap();

    let session = db.session("admin");
    let stmt = session
        .prepare("SELECT GID, Len FROM Gene WHERE Len >= ? AND Len < ?")
        .unwrap();
    assert_eq!(stmt.param_count(), 2);
    let cursor = session
        .query(&stmt, &[Value::Int(10), Value::Int(14)])
        .unwrap();
    let got = cursor.into_result().unwrap();
    assert_eq!(got.columns, expected.columns);
    assert_eq!(
        got.rows.iter().map(|r| &r.values).collect::<Vec<_>>(),
        expected.rows.iter().map(|r| &r.values).collect::<Vec<_>>()
    );

    // re-execution with different parameters reuses the cached parse
    let got = session
        .query(&stmt, &[Value::Int(100), Value::Int(101)])
        .unwrap()
        .into_result()
        .unwrap();
    assert_eq!(got.rows.len(), 1);
    assert_eq!(got.rows[0].values[0], Value::Text("JW000100".into()));
}

#[test]
fn numbered_parameters_bind_by_slot_and_repeat() {
    let mut db = gene_db(50);
    let session = db.session("admin");
    // $1 used twice, $2 once — two slots, order independent of use site
    let stmt = session
        .prepare("SELECT GID FROM Gene WHERE Len >= $1 AND Len <= $1 + $2")
        .unwrap();
    assert_eq!(stmt.param_count(), 2);
    let rows = session
        .query(&stmt, &[Value::Int(7), Value::Int(2)])
        .unwrap()
        .into_result()
        .unwrap();
    assert_eq!(rows.rows.len(), 3, "Len in [7, 9]");
}

#[test]
fn row_cursor_streams_without_materializing() {
    let mut db = gene_db(5000);
    let session = db.session("admin");
    let stmt = session.prepare("SELECT GID FROM Gene").unwrap();
    let mut cursor = session.query(&stmt, &[]).unwrap();
    assert_eq!(cursor.columns(), ["GID"]);
    for _ in 0..5 {
        assert!(cursor.next_row().unwrap().is_some());
    }
    // the scan advanced only as far as the cursor was pulled — at
    // per-batch granularity: pulling any of the first BATCH_SIZE rows
    // fetches exactly one batch, and the remaining 3976 rows were never
    // fetched off the heap
    let st = cursor.stats();
    assert_eq!(
        st.rows_fetched, BATCH_SIZE as u64,
        "pull-based cursor must not materialize past the current batch"
    );
    assert_eq!(st.full_scans, 1);
    // draining the cursor fetches the rest
    let rest = cursor.into_result().unwrap();
    assert_eq!(rest.rows.len(), 4995);

    // the one-shot path fetches everything up front (sanity contrast)
    let (_, st) = db.query_traced("SELECT GID FROM Gene").unwrap();
    assert_eq!(st.rows_fetched, 5000);
}

#[test]
fn dropped_cursor_stops_the_scan() {
    let mut db = gene_db(3000);
    let session = db.session("admin");
    let stmt = session
        .prepare("SELECT GID FROM Gene WHERE Len % 2 = 0")
        .unwrap();
    let mut cursor = session.query(&stmt, &[]).unwrap();
    let first = cursor.next_row().unwrap().unwrap();
    assert_eq!(first.values[0], Value::Text("JW000000".into()));
    let fetched_at_drop = cursor.stats().rows_fetched;
    drop(cursor);
    assert!(
        fetched_at_drop <= BATCH_SIZE as u64,
        "one surviving row needs at most one batch of fetches, got {fetched_at_drop}"
    );
}

/// Regression for the batch-executor redesign: the cursor surface keeps
/// its blocking-vs-streaming contract, with the streaming scan advancing
/// in whole batches as rows are pulled — never materializing the rest of
/// the table, and fetching nothing before the first pull.
#[test]
fn streamable_cursor_advances_per_batch() {
    let mut db = gene_db(5000);
    let session = db.session("admin");
    let stmt = session.prepare("SELECT GID FROM Gene").unwrap();
    let mut cursor = session.query(&stmt, &[]).unwrap();
    // opening the cursor fetches nothing
    assert_eq!(cursor.stats().rows_fetched, 0);
    // rows 1..=BATCH_SIZE all come out of the first batch
    for _ in 0..BATCH_SIZE {
        assert!(cursor.next_row().unwrap().is_some());
    }
    assert_eq!(cursor.stats().rows_fetched, BATCH_SIZE as u64);
    assert_eq!(cursor.stats().scan_batches, 1);
    // the next pull crosses the batch boundary: exactly one more batch
    assert!(cursor.next_row().unwrap().is_some());
    assert_eq!(cursor.stats().rows_fetched, 2 * BATCH_SIZE as u64);
    assert_eq!(cursor.stats().scan_batches, 2);
    // dropping here leaves the remaining ~3000 rows unfetched
    let fetched = cursor.stats().rows_fetched;
    drop(cursor);
    assert!(fetched < 5000);
}

#[test]
fn prepared_dml_executes_with_parameters() {
    let mut db = gene_db(0);
    let mut session = db.session("admin");
    let ins = session
        .prepare("INSERT INTO Gene VALUES (?, ?, ?)")
        .unwrap();
    for i in 0..10i64 {
        let r = session
            .execute(
                &ins,
                &[
                    Value::Text(format!("G{i}")),
                    Value::Text("x".into()),
                    Value::Int(i),
                ],
            )
            .unwrap();
        assert_eq!(r.affected, 1);
    }
    let upd = session
        .prepare("UPDATE Gene SET GName = $2 WHERE GID = $1")
        .unwrap();
    let r = session
        .execute(
            &upd,
            &[Value::Text("G3".into()), Value::Text("renamed".into())],
        )
        .unwrap();
    assert_eq!(r.affected, 1);
    let q = session
        .prepare("SELECT GName FROM Gene WHERE GID = ?")
        .unwrap();
    let got = session
        .query(&q, &[Value::Text("G3".into())])
        .unwrap()
        .into_result()
        .unwrap();
    assert_eq!(got.rows[0].values[0], Value::Text("renamed".into()));
}

#[test]
fn plan_is_cached_and_invalidated_by_create_index() {
    let mut db = gene_db(2000);
    let gen_before = db.catalog().generation();
    {
        let session = db.session("admin");
        let stmt = session
            .prepare("SELECT GID FROM Gene WHERE Len = ?")
            .unwrap();
        assert!(!stmt.has_cached_plan());

        // no index exists: the cached plan is a full scan
        let cursor = session.query(&stmt, &[Value::Int(42)]).unwrap();
        let st = cursor.stats();
        drop(cursor);
        assert!(stmt.has_cached_plan());
        assert_eq!(st.full_scans, 1, "no index to probe yet");
        assert_eq!(st.rows_fetched, 0, "nothing pulled yet");

        let got = session
            .query(&stmt, &[Value::Int(42)])
            .unwrap()
            .into_result()
            .unwrap();
        assert_eq!(got.rows.len(), 1);

        // DDL through the same session invalidates the cached plan …
        let mut session = session;
        session.run("CREATE INDEX len_idx ON Gene (Len)").unwrap();
        // … so the next execution replans onto the new index instead of
        // replaying the stale full-scan choice
        let mut cursor = session.query(&stmt, &[Value::Int(42)]).unwrap();
        let row = cursor.next_row().unwrap().unwrap();
        assert_eq!(row.values[0], Value::Text("JW000042".into()));
        let st = cursor.stats();
        assert_eq!(
            st.index_probes, 1,
            "stale full-scan plan must not be reused"
        );
        assert_eq!(st.full_scans, 0);
        assert_eq!(st.chosen_indexes, vec!["len_idx".to_string()]);
    }
    assert!(
        db.catalog().generation() > gen_before,
        "CREATE INDEX must bump the plan generation"
    );

    // ANALYZE also bumps the generation (fresh stats can flip cost-based
    // choices even without new access paths)
    let g = db.catalog().generation();
    db.execute("ANALYZE Gene").unwrap();
    assert!(db.catalog().generation() > g);
}

#[test]
fn cached_plan_replays_across_executions() {
    let mut db = gene_db(2000);
    db.execute("CREATE INDEX len_idx ON Gene (Len)").unwrap();
    let session = db.session("admin");
    let stmt = session
        .prepare("SELECT GID FROM Gene WHERE Len = ?")
        .unwrap();
    // 1,000 re-executions: parse once, plan once, probe each time
    for i in 0..1000 {
        let k = i % 2000;
        let mut cursor = session.query(&stmt, &[Value::Int(k)]).unwrap();
        let row = cursor.next_row().unwrap().unwrap();
        assert_eq!(row.values[0], Value::Text(format!("JW{k:06}")));
        let st = cursor.stats();
        assert_eq!(st.index_probes, 1);
        assert_eq!(st.rows_fetched, 1);
    }
    assert!(stmt.has_cached_plan());
}

#[test]
fn blocking_queries_still_cursor() {
    let mut db = gene_db(100);
    let session = db.session("admin");
    let stmt = session
        .prepare("SELECT GName, COUNT(*) AS n FROM Gene GROUP BY GName ORDER BY GName LIMIT 3")
        .unwrap();
    let cursor = session.query(&stmt, &[]).unwrap();
    assert_eq!(cursor.columns(), ["GName", "n"]);
    let got = cursor.into_result().unwrap();
    assert_eq!(got.rows.len(), 3);
}

#[test]
fn param_count_mismatch_is_structured() {
    let mut db = gene_db(10);
    let mut session = db.session("admin");
    let stmt = session
        .prepare("SELECT GID FROM Gene WHERE Len = ?")
        .unwrap();
    let err = session.query(&stmt, &[]).unwrap_err();
    assert_eq!(err.code(), ErrorCode::ParamMismatch);
    let err = session
        .query(&stmt, &[Value::Int(1), Value::Int(2)])
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::ParamMismatch);
    // legacy one-shot execution cannot bind parameters at all
    let err = session
        .run("SELECT GID FROM Gene WHERE Len = ?")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::ParamMismatch);
}

#[test]
fn query_rejects_non_select_and_checks_auth() {
    let mut db = gene_db(10);
    db.execute("CREATE USER eve").unwrap();
    {
        let session = db.session("admin");
        let dml = session.prepare("DELETE FROM Gene").unwrap();
        let err = session.query(&dml, &[]).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Invalid);
    }
    // eve holds no SELECT privilege: the cursor is refused up front
    let session = db.session("eve");
    let stmt = session.prepare("SELECT GID FROM Gene").unwrap();
    let err = session.query(&stmt, &[]).unwrap_err();
    assert_eq!(err.code(), ErrorCode::Unauthorized);
}

#[test]
fn prepared_statements_cache_by_sql_text() {
    let mut db = gene_db(10);
    let session = db.session("admin");
    let a = session.prepare("SELECT GID FROM Gene").unwrap();
    let b = session.prepare("SELECT GID FROM Gene").unwrap();
    // same cache entry: a plan observed through one handle is visible
    // through the other
    drop(session.query(&a, &[]).unwrap());
    assert!(b.has_cached_plan());
}

#[test]
fn annotations_flow_through_cursors() {
    let mut db = gene_db(20);
    db.execute("CREATE ANNOTATION TABLE Curation ON Gene")
        .unwrap();
    db.execute(
        "ADD ANNOTATION TO Gene.Curation VALUE 'curated' \
         ON (SELECT G.GID FROM Gene G WHERE Len < 3)",
    )
    .unwrap();
    let session = db.session("admin");
    let stmt = session
        .prepare("SELECT GID FROM Gene ANNOTATION(Curation) WHERE Len = ?")
        .unwrap();
    let mut cursor = session.query(&stmt, &[Value::Int(1)]).unwrap();
    let row = cursor.next_row().unwrap().unwrap();
    assert_eq!(row.anns[0][0].text(), "curated");
    let mut cursor = session.query(&stmt, &[Value::Int(10)]).unwrap();
    let row = cursor.next_row().unwrap().unwrap();
    assert!(row.anns[0].is_empty());
}

#[test]
fn null_binding_does_not_poison_the_plan_cache() {
    let mut db = gene_db(2000);
    db.execute("CREATE INDEX len_idx ON Gene (Len)").unwrap();
    let session = db.session("admin");
    let stmt = session
        .prepare("SELECT GID FROM Gene WHERE Len = ?")
        .unwrap();
    // first binding is NULL: provably-empty scan, and the decision is
    // value-dependent so nothing may be cached off it
    let got = session
        .query(&stmt, &[Value::Null])
        .unwrap()
        .into_result()
        .unwrap();
    assert!(got.rows.is_empty());
    assert!(
        !stmt.has_cached_plan(),
        "a NULL first binding must not pin an access path"
    );
    // the next (normal) binding probes the index as if NULL never happened
    let mut cursor = session.query(&stmt, &[Value::Int(42)]).unwrap();
    assert!(cursor.next_row().unwrap().is_some());
    assert_eq!(cursor.stats().index_probes, 1);
    drop(cursor);
    assert!(stmt.has_cached_plan());
    // a later NULL replays the cached column choice into an empty probe
    // and leaves the cache intact
    let got = session
        .query(&stmt, &[Value::Null])
        .unwrap()
        .into_result()
        .unwrap();
    assert!(got.rows.is_empty());
    assert!(stmt.has_cached_plan());
    let mut cursor = session.query(&stmt, &[Value::Int(7)]).unwrap();
    assert!(cursor.next_row().unwrap().is_some());
    assert_eq!(cursor.stats().index_probes, 1);
}

#[test]
fn set_op_branches_are_authorized() {
    let mut db = gene_db(5);
    db.execute("CREATE TABLE Secret (GID TEXT, GName TEXT, Len INT)")
        .unwrap();
    db.execute("INSERT INTO Secret VALUES ('classified', 'x', 1)")
        .unwrap();
    db.execute("CREATE USER eve").unwrap();
    db.execute("GRANT SELECT ON Gene TO eve").unwrap();
    {
        let session = db.session("eve");
        let stmt = session
            .prepare("SELECT GID FROM Gene UNION SELECT GID FROM Secret")
            .unwrap();
        let err = session.query(&stmt, &[]).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Unauthorized);
    }
    // the legacy one-shot path shares the same check
    let err = db
        .execute_as("SELECT GID FROM Gene UNION SELECT GID FROM Secret", "eve")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::Unauthorized);
    // with the grant in place the compound query flows
    db.execute("GRANT SELECT ON Secret TO eve").unwrap();
    let got = db
        .execute_as("SELECT GID FROM Gene UNION SELECT GID FROM Secret", "eve")
        .unwrap();
    assert_eq!(got.rows.len(), 6);
}

#[test]
fn query_traced_rejects_placeholders_up_front() {
    let db = gene_db(0);
    let err = db
        .query_traced("SELECT GID FROM Gene WHERE Len = ?")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::ParamMismatch);
}
