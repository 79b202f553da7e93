//! End-to-end: a real `Server` on a TCP port, driven through the
//! transport-agnostic `Connection` trait — the same generic client code
//! runs against the embedded backend and the wire, and must observe the
//! same behavior (results, annotations, errors with spans, transaction
//! state).

use std::path::PathBuf;

use bdbms_client::{connect, parse_target, RemoteConnection, Target};
use bdbms_common::{ErrorCode, Value};
use bdbms_core::client::Connection;
use bdbms_core::{Database, LocalConnection};
use bdbms_server::{Server, ServerConfig};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bdbms-remote-e2e-{}-{name}.bdbms",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(name: &str) -> (Server, String) {
    let server = Server::start(ServerConfig::new(tmp(name), "127.0.0.1:0")).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// The backend-agnostic workout: DDL, DML with parameters, streaming
/// SELECT, annotations, errors, transactions.  Identical assertions for
/// the embedded and the remote connection.
fn workout(conn: &mut dyn Connection) {
    conn.run("CREATE TABLE Gene (GID TEXT, GName TEXT, Len INT)")
        .unwrap();
    conn.run("CREATE ANNOTATION TABLE Curation ON Gene")
        .unwrap();

    let ins = conn.prepare("INSERT INTO Gene VALUES (?, ?, ?)").unwrap();
    assert_eq!(ins.param_count(), 3);
    for (gid, name, len) in [
        ("JW0080", "mraW", 11),
        ("JW0082", "ftsI", 42),
        ("JW0055", "yabP", 7),
    ] {
        let r = conn
            .execute(
                &ins,
                &[
                    Value::Text(gid.into()),
                    Value::Text(name.into()),
                    Value::Int(len),
                ],
            )
            .unwrap();
        assert_eq!(r.affected, 1);
    }
    conn.run(
        "ADD ANNOTATION TO Gene.Curation \
         VALUE '<Annotation>checked against GenoBase</Annotation>' \
         ON (SELECT G.GID FROM Gene G WHERE Len = 42)",
    )
    .unwrap();

    // streaming query with parameters + annotations over the wire
    let sel = conn
        .prepare("SELECT GID, GName FROM Gene ANNOTATION(Curation) WHERE Len = ?")
        .unwrap();
    let mut rows = conn.query(&sel, &[Value::Int(42)]).unwrap();
    assert_eq!(rows.columns(), ["GID", "GName"]);
    let row = rows.next_row().unwrap().unwrap();
    assert_eq!(row.values[0], Value::Text("JW0082".into()));
    assert_eq!(row.anns[0].len(), 1);
    assert_eq!(row.anns[0][0].text(), "checked against GenoBase");
    assert_eq!(row.anns[0][0].ann_table, "Curation");
    assert!(rows.next_row().unwrap().is_none());
    drop(rows);

    // errors carry code + span losslessly
    let err = conn.run("SELEKT GID FROM Gene").unwrap_err();
    assert_eq!(err.code(), ErrorCode::Syntax);
    assert!(err.span.is_some(), "syntax error should carry a span");
    let err = conn.run("SELECT GID FROM Nope").unwrap_err();
    assert_eq!(err.code(), ErrorCode::NotFound);
    let err = conn.execute(&ins, &[Value::Int(1)]).unwrap_err();
    assert_eq!(err.code(), ErrorCode::ParamMismatch);

    // transaction state drives in_transaction() on both backends
    assert!(!conn.in_transaction());
    conn.begin().unwrap();
    assert!(conn.in_transaction());
    conn.run("DELETE FROM Gene WHERE GID = 'JW0055'").unwrap();
    assert_eq!(conn.run("SELECT GID FROM Gene").unwrap().rows.len(), 2);
    conn.rollback().unwrap();
    assert!(!conn.in_transaction());
    assert_eq!(conn.run("SELECT GID FROM Gene").unwrap().rows.len(), 3);

    let err = conn.run("COMMIT").unwrap_err();
    assert_eq!(err.code(), ErrorCode::TxnState);

    // authorization round-trips: alice can't read Gene until granted
    conn.run("CREATE USER alice").unwrap();
    conn.set_user("alice").unwrap();
    assert_eq!(conn.user(), "alice");
    let err = conn.run("SELECT GID FROM Gene").unwrap_err();
    assert_eq!(err.code(), ErrorCode::Unauthorized);
    conn.set_user("admin").unwrap();
    conn.run("GRANT SELECT ON Gene TO alice").unwrap();
    conn.set_user("alice").unwrap();
    assert_eq!(conn.run("SELECT GID FROM Gene").unwrap().rows.len(), 3);
    conn.set_user("admin").unwrap();

    conn.close().unwrap();
}

#[test]
fn same_workout_passes_on_both_backends() {
    // embedded
    let mut local = LocalConnection::new(Database::new_in_memory(), "admin");
    workout(&mut local);

    // remote
    let (server, addr) = start_server("workout");
    let mut remote = RemoteConnection::connect(&addr, "admin").unwrap();
    assert!(remote.describe().contains(&addr));
    workout(&mut remote);
    drop(remote);
    server.stop();
}

#[test]
fn connect_dispatches_on_target_shape() {
    let (server, addr) = start_server("dispatch");
    assert!(matches!(parse_target(&addr), Target::Remote(_)));
    let mut conn = connect(&addr, "admin").unwrap();
    assert!(conn.local_database().is_none());
    conn.run("CREATE TABLE T (A INT)").unwrap();
    conn.close().unwrap();
    drop(conn);
    server.stop();

    let path = tmp("dispatch-local");
    let target = path.to_string_lossy().to_string();
    assert!(matches!(parse_target(&target), Target::Local(_)));
    let mut conn = connect(&target, "admin").unwrap();
    assert!(conn.local_database().is_some());
    conn.run("CREATE TABLE T (A INT)").unwrap();
    conn.close().unwrap();
}

#[test]
fn fetch_pages_large_results() {
    let (server, addr) = start_server("paging");
    let mut conn = RemoteConnection::connect(&addr, "admin").unwrap();
    conn.run("CREATE TABLE Big (K INT)").unwrap();
    let ins = conn.prepare("INSERT INTO Big VALUES (?)").unwrap();
    conn.run("BEGIN").unwrap();
    let total = 700usize; // > 2 fetch batches at 256 rows each
    for k in 0..total {
        conn.execute(&ins, &[Value::Int(k as i64)]).unwrap();
    }
    conn.run("COMMIT").unwrap();

    let sel = conn.prepare("SELECT K FROM Big").unwrap();
    let mut rows = conn.query(&sel, &[]).unwrap();
    let mut seen = Vec::new();
    while let Some(row) = rows.next_row().unwrap() {
        match row.values[0] {
            Value::Int(k) => seen.push(k),
            ref v => panic!("unexpected value {v:?}"),
        }
    }
    drop(rows);
    seen.sort_unstable();
    assert_eq!(seen.len(), total);
    assert_eq!(seen[0], 0);
    assert_eq!(*seen.last().unwrap(), total as i64 - 1);

    // abandoning a cursor mid-stream keeps the connection usable
    let mut rows = conn.query(&sel, &[]).unwrap();
    rows.next_row().unwrap().unwrap();
    drop(rows); // closes the server-side cursor under the hood
    assert_eq!(
        conn.run("SELECT K FROM Big WHERE K = 0")
            .unwrap()
            .rows
            .len(),
        1
    );

    conn.close().unwrap();
    drop(conn);
    server.stop();
}

#[test]
fn unknown_user_is_rejected_at_hello() {
    let (server, addr) = start_server("hello-auth");
    let err = match RemoteConnection::connect(&addr, "mallory") {
        Ok(_) => panic!("unknown user accepted at hello"),
        Err(e) => e,
    };
    assert_eq!(err.code(), ErrorCode::Unauthorized);
    server.stop();
}

#[test]
fn concurrent_transactions_serialize_across_connections() {
    let (server, addr) = start_server("txn-gate");
    let mut a = RemoteConnection::connect(&addr, "admin").unwrap();
    a.run("CREATE TABLE T (K INT)").unwrap();
    a.run("BEGIN").unwrap();
    a.run("INSERT INTO T VALUES (1)").unwrap();

    // b's statement must wait for a's transaction, then see its result
    let addr2 = addr.clone();
    let b = std::thread::spawn(move || {
        let mut b = RemoteConnection::connect(&addr2, "admin").unwrap();
        // this blocks server-side until `a` commits
        let n = b.run("SELECT K FROM T").unwrap().rows.len();
        b.close().unwrap();
        n
    });
    // give b time to arrive and park in the deferred queue
    std::thread::sleep(std::time::Duration::from_millis(200));
    a.run("INSERT INTO T VALUES (2)").unwrap();
    a.run("COMMIT").unwrap();
    assert_eq!(b.join().unwrap(), 2, "deferred statement ran pre-commit");

    // a disconnect mid-transaction rolls back
    let mut c = RemoteConnection::connect(&addr, "admin").unwrap();
    c.run("BEGIN").unwrap();
    c.run("INSERT INTO T VALUES (3)").unwrap();
    drop(c); // no COMMIT
    std::thread::sleep(std::time::Duration::from_millis(200));
    let mut d = RemoteConnection::connect(&addr, "admin").unwrap();
    assert_eq!(d.run("SELECT K FROM T").unwrap().rows.len(), 2);
    d.close().unwrap();
    drop(a);
    drop(d);
    server.stop();
}

/// Seed the same small, indexed table through either backend.
fn seed_for_stats(conn: &mut dyn Connection) {
    conn.run("CREATE TABLE Gene (GID TEXT, Chrom TEXT, Len INT)")
        .unwrap();
    conn.run("CREATE INDEX gene_gid ON Gene (GID)").unwrap();
    let ins = conn.prepare("INSERT INTO Gene VALUES (?, ?, ?)").unwrap();
    conn.run("BEGIN").unwrap();
    for i in 0..100i64 {
        conn.execute(
            &ins,
            &[
                Value::Text(format!("G{i:03}")),
                Value::Text(format!("chr{}", i % 4)),
                Value::Int(i),
            ],
        )
        .unwrap();
    }
    conn.run("COMMIT").unwrap();
    conn.run("ANALYZE Gene").unwrap();
}

/// The deterministic half of a statement's [`ExecStats`]: everything
/// except the wall-clock fields, which legitimately differ between an
/// embedded call and a served one.
fn deterministic(stats: &bdbms_core::executor::ExecStats) -> bdbms_core::executor::ExecStats {
    let mut s = stats.clone();
    s.parse_ns = 0;
    s.plan_ns = 0;
    s.exec_ns = 0;
    s
}

#[test]
fn exec_stats_match_between_local_and_remote() {
    let queries = [
        "SELECT GID, Len FROM Gene WHERE GID = 'G042'",
        "SELECT GID FROM Gene WHERE Chrom = 'chr1' AND Len > 50",
        "SELECT GID, Len FROM Gene ORDER BY Len DESC LIMIT 5",
    ];

    let mut local = LocalConnection::new(Database::new_in_memory(), "admin");
    seed_for_stats(&mut local);

    let (server, addr) = start_server("stats-parity");
    let mut remote = RemoteConnection::connect(&addr, "admin").unwrap();
    seed_for_stats(&mut remote);

    for sql in queries {
        let lr = local.run(sql).unwrap();
        let rr = remote.run(sql).unwrap();
        assert_eq!(lr.rows.len(), rr.rows.len(), "row counts differ for {sql}");
        let ls = lr.stats.as_ref().expect("local stats");
        let rs = rr.stats.as_ref().expect("remote stats crossed the wire");
        assert_eq!(
            deterministic(ls),
            deterministic(rs),
            "executor counters differ between backends for {sql}"
        );
        assert!(
            rs.exec_ns > 0,
            "remote ExecStats should carry executor wall time for {sql}"
        );
    }

    local.close().unwrap();
    remote.close().unwrap();
    drop(remote);
    server.stop();
}

#[test]
fn metrics_snapshot_crosses_the_wire_and_is_monotonic() {
    let (server, addr) = start_server("metrics-wire");
    let mut conn = RemoteConnection::connect(&addr, "admin").unwrap();
    seed_for_stats(&mut conn);

    let before = conn.metrics().unwrap();
    let commits_before = before
        .counter("txn.commits")
        .expect("txn.commits registered");
    let stmts_before = before
        .counter("session.statements")
        .expect("session.statements registered");
    assert!(
        before.counter("wal.appends").is_some(),
        "durable server should expose WAL counters"
    );

    for _ in 0..5 {
        conn.run("SELECT GID FROM Gene WHERE GID = 'G007'").unwrap();
    }

    let after = conn.metrics().unwrap();
    assert!(
        after.counter("session.statements").unwrap() >= stmts_before + 5,
        "statement counter must advance across snapshots"
    );
    assert!(
        after.counter("txn.commits").unwrap() >= commits_before,
        "counters must be monotonic"
    );
    let lat = after
        .histogram("session.statement_latency_ns")
        .expect("latency histogram registered");
    assert!(lat.count >= 5, "latency histogram records each statement");

    conn.close().unwrap();
    drop(conn);
    server.stop();
}

/// Regression: the server's database has checkpointed (and so replaced
/// its buffer pool) before the first client connects; `buffer.*` must
/// follow the live pool instead of freezing with the retired one.
#[test]
fn buffer_counters_are_live_over_the_wire() {
    let (server, addr) = start_server("metrics-buffer");
    let mut conn = RemoteConnection::connect(&addr, "admin").unwrap();
    seed_for_stats(&mut conn);
    let before = conn.metrics().unwrap();
    assert!(before.counter("checkpoint.count").unwrap() >= 1);
    let hits_before = before
        .counter("buffer.hits")
        .expect("buffer.hits registered");
    for _ in 0..5 {
        conn.run("SELECT COUNT(*) FROM Gene").unwrap();
    }
    let after = conn.metrics().unwrap();
    assert!(
        after.counter("buffer.hits").unwrap() > hits_before,
        "buffer.hits frozen at {hits_before} after a checkpoint"
    );
    conn.close().unwrap();
    drop(conn);
    server.stop();
}

#[test]
fn group_commit_amortizes_fsyncs_across_clients() {
    let (server, addr) = start_server("group-fsync");
    {
        let mut setup = RemoteConnection::connect(&addr, "admin").unwrap();
        setup.run("CREATE TABLE T (K INT)").unwrap();
        setup.close().unwrap();
    }
    let before = server.fsync_count();
    let clients = 8usize;
    let commits = 16usize;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut conn = RemoteConnection::connect(&addr, "admin").unwrap();
                let ins = conn.prepare("INSERT INTO T VALUES (?)").unwrap();
                for i in 0..commits {
                    conn.execute(&ins, &[Value::Int((c * commits + i) as i64)])
                        .unwrap();
                }
                conn.close().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = (clients * commits) as u64;
    let fsyncs = server.fsync_count() - before;
    assert!(
        fsyncs < total,
        "expected fewer fsyncs than commits, got {fsyncs} for {total} commits"
    );

    // every acknowledged commit is visible
    let mut check = RemoteConnection::connect(&addr, "admin").unwrap();
    assert_eq!(
        check.run("SELECT K FROM T").unwrap().rows.len(),
        clients * commits
    );
    check.close().unwrap();
    drop(check);
    server.stop();
}
