//! End-to-end: a real `Server` on a TCP port, driven through the
//! transport-agnostic `Connection` trait — the same generic client code
//! runs against the embedded backend and the wire, and must observe the
//! same behavior (results, annotations, errors with spans, transaction
//! state).

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use bdbms_client::{connect, parse_target, RemoteConnection, Target};
use bdbms_common::{ErrorCode, Value};
use bdbms_core::client::{Connection, StatementHandle};
use bdbms_core::{Database, LocalConnection};
use bdbms_server::proto::{read_response, write_request, Request, Response, DEFAULT_FETCH_ROWS};
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

/// A bare protocol client that sees every frame the server sends.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let stream = TcpStream::connect(addr).unwrap();
        let mut raw = Raw {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        };
        raw.send(&Request::Hello {
            user: "admin".into(),
        });
        assert!(matches!(raw.recv(), Response::HelloOk { .. }));
        raw
    }

    fn send(&mut self, req: &Request) {
        let mut buf = Vec::new();
        write_request(&mut buf, req).unwrap();
        self.writer.write_all(&buf).unwrap();
    }

    fn recv(&mut self) -> Response {
        read_response(&mut self.reader).unwrap()
    }

    fn prepare(&mut self, sql: &str) -> u64 {
        self.send(&Request::Prepare { sql: sql.into() });
        match self.recv() {
            Response::PrepareOk { stmt, .. } => stmt,
            other => panic!("unexpected reply to Prepare: {other:?}"),
        }
    }

    /// Expect `CursorOk`; returns the cursor id.
    fn cursor_ok(&mut self) -> u64 {
        match self.recv() {
            Response::CursorOk { cursor, .. } => cursor,
            other => panic!("expected CursorOk, got {other:?}"),
        }
    }

    /// Expect `RowBatch`; returns its row count and done flag.
    fn row_batch(&mut self) -> (usize, bool) {
        match self.recv() {
            Response::RowBatch { rows, done } => (rows.len(), done),
            other => panic!("expected RowBatch, got {other:?}"),
        }
    }
}

/// `server.requests.<kind>` as the server reports it now.
fn requests(conn: &mut RemoteConnection, kind: &str) -> u64 {
    conn.metrics()
        .unwrap()
        .counter(&format!("server.requests.{kind}"))
        .unwrap_or_else(|| panic!("server.requests.{kind} registered"))
}

#[test]
fn point_queries_take_one_round_trip() {
    let (server, addr) = start_server("point-one-trip");
    let mut conn = RemoteConnection::connect(&addr, "admin").unwrap();
    seed_for_stats(&mut conn);
    let sel = conn
        .prepare("SELECT GID, Len FROM Gene WHERE GID = ?")
        .unwrap();
    let (qf, fetch, query) = (
        requests(&mut conn, "query_fetch"),
        requests(&mut conn, "fetch"),
        requests(&mut conn, "query"),
    );
    for i in 0..1000i64 {
        let gid = format!("G{:03}", i % 100);
        let mut rows = conn.query(&sel, &[Value::Text(gid.clone())]).unwrap();
        let row = rows.next_row().unwrap().unwrap();
        assert_eq!(row.values, [Value::Text(gid), Value::Int(i % 100)]);
        assert!(rows.next_row().unwrap().is_none());
    }
    assert_eq!(requests(&mut conn, "query_fetch") - qf, 1000);
    assert_eq!(requests(&mut conn, "fetch") - fetch, 0);
    assert_eq!(requests(&mut conn, "query") - query, 0);
    conn.close().unwrap();
    drop(conn);
    server.stop();
}

/// Seed `Big (K INT)` with rows 0..300 through either backend.
fn seed_big(conn: &mut dyn Connection) {
    conn.run("CREATE TABLE Big (K INT)").unwrap();
    let ins = conn.prepare("INSERT INTO Big VALUES (?)").unwrap();
    conn.run("BEGIN").unwrap();
    for k in 0..300i64 {
        conn.execute(&ins, &[Value::Int(k)]).unwrap();
    }
    conn.run("COMMIT").unwrap();
}

#[test]
fn first_batch_results_match_local_and_page_only_past_it() {
    let mut local = LocalConnection::new(Database::new_in_memory(), "admin");
    seed_big(&mut local);
    let (server, addr) = start_server("first-batch");
    let mut remote = RemoteConnection::connect(&addr, "admin").unwrap();
    seed_big(&mut remote);

    let sql = "SELECT K FROM Big WHERE K < ?";
    let lsel = local.prepare(sql).unwrap();
    let rsel = remote.prepare(sql).unwrap();
    let edge = DEFAULT_FETCH_ROWS as i64;
    for (n, fetches) in [(0, 0), (1, 0), (edge, 0), (edge + 1, 1)] {
        let params = [Value::Int(n)];
        let want = local
            .query(&lsel, &params)
            .and_then(|mut rows| rows.collect_result())
            .unwrap();
        let before = requests(&mut remote, "fetch");
        let got = remote
            .query(&rsel, &params)
            .and_then(|mut rows| rows.collect_result())
            .unwrap();
        assert_eq!(requests(&mut remote, "fetch") - before, fetches, "{n} rows");
        assert_eq!(got.columns, want.columns);
        let values = |r: &bdbms_core::result::QueryResult| {
            r.rows
                .iter()
                .map(|row| row.values.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(values(&got), values(&want), "{n} rows");
        assert_eq!(got.rows.len(), n as usize);
    }
    remote.close().unwrap();
    drop(remote);
    server.stop();
}

#[test]
fn raw_query_fetch_and_query_frames() {
    let (server, addr) = start_server("raw-frames");
    let mut conn = RemoteConnection::connect(&addr, "admin").unwrap();
    seed_big(&mut conn);
    conn.close().unwrap();
    drop(conn);

    let mut raw = Raw::connect(&addr);
    let sel = raw.prepare("SELECT K FROM Big WHERE K < ?");
    let query_fetch = |k: i64| Request::QueryFetch {
        stmt: sel,
        params: vec![Value::Int(k)],
        max_rows: DEFAULT_FETCH_ROWS,
    };

    // a result the first batch exhausts: its cursor was never opened
    raw.send(&query_fetch(1));
    let cursor = raw.cursor_ok();
    assert_eq!(raw.row_batch(), (1, true));
    raw.send(&Request::Fetch {
        cursor,
        max_rows: DEFAULT_FETCH_ROWS,
    });
    match raw.recv() {
        Response::Error { error, .. } => assert_eq!(error.code(), ErrorCode::NotFound),
        other => panic!("Fetch on a finished cursor answered {other:?}"),
    }

    // one row past the first batch: exactly one Fetch finishes it
    raw.send(&query_fetch(257));
    let cursor = raw.cursor_ok();
    assert_eq!(raw.row_batch(), (256, false));
    raw.send(&Request::Fetch {
        cursor,
        max_rows: DEFAULT_FETCH_ROWS,
    });
    assert_eq!(raw.row_batch(), (1, true));

    // the paging-only v1 form still answers CursorOk alone, then Fetch
    raw.send(&Request::Query {
        stmt: sel,
        params: vec![Value::Int(3)],
    });
    let cursor = raw.cursor_ok();
    raw.send(&Request::Fetch {
        cursor,
        max_rows: DEFAULT_FETCH_ROWS,
    });
    assert_eq!(raw.row_batch(), (3, true));

    raw.send(&Request::Quit);
    assert!(matches!(raw.recv(), Response::Bye));
    server.stop();
}

#[test]
fn failed_query_keeps_the_stream_aligned() {
    let mut local = LocalConnection::new(Database::new_in_memory(), "admin");
    seed_big(&mut local);
    let (server, addr) = start_server("failed-query");
    let mut remote = RemoteConnection::connect(&addr, "admin").unwrap();
    seed_big(&mut remote);
    let ok = remote.prepare("SELECT K FROM Big WHERE K = ?").unwrap();
    let still_aligned = |remote: &mut RemoteConnection| {
        let r = remote
            .query(&ok, &[Value::Int(7)])
            .and_then(|mut rows| rows.collect_result())
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].values, [Value::Int(7)]);
    };

    // an unknown statement id: NotFound, as `Execute` answers it
    let bogus = StatementHandle::remote(9_999, 0, "SELECT K FROM Big");
    let err = remote.query(&bogus, &[]).map(|_| ()).unwrap_err();
    assert_eq!(err.code(), ErrorCode::NotFound);
    still_aligned(&mut remote);

    // a runtime error in the projection: the embedded code, over the wire
    let sql = "SELECT K / ? FROM Big";
    let lsel = local.prepare(sql).unwrap();
    let want = local
        .query(&lsel, &[Value::Int(0)])
        .and_then(|mut rows| rows.collect_result())
        .unwrap_err();
    assert_eq!(want.code(), ErrorCode::Eval);
    let rsel = remote.prepare(sql).unwrap();
    let got = remote
        .query(&rsel, &[Value::Int(0)])
        .and_then(|mut rows| rows.collect_result())
        .unwrap_err();
    assert_eq!(got.code(), want.code());
    still_aligned(&mut remote);

    remote.close().unwrap();
    drop(remote);
    server.stop();
}

#[test]
fn query_fetch_waits_for_another_connections_transaction() {
    let (server, addr) = start_server("query-fetch-deferred");
    let mut a = RemoteConnection::connect(&addr, "admin").unwrap();
    a.run("CREATE TABLE T (K INT)").unwrap();
    a.run("BEGIN").unwrap();
    a.run("INSERT INTO T VALUES (1)").unwrap();

    let mut b = Raw::connect(&addr);
    let sel = b.prepare("SELECT K FROM T");
    b.send(&Request::QueryFetch {
        stmt: sel,
        params: vec![],
        max_rows: DEFAULT_FETCH_ROWS,
    });
    // deferred behind a's transaction: no reply while it is open
    b.reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut probe = [0u8; 1];
    let waited = std::io::Read::read(b.reader.get_mut(), &mut probe);
    assert!(
        waited.is_err(),
        "QueryFetch answered inside a's transaction"
    );
    b.reader.get_ref().set_read_timeout(None).unwrap();

    a.run("INSERT INTO T VALUES (2)").unwrap();
    a.run("COMMIT").unwrap();
    b.cursor_ok();
    assert_eq!(b.row_batch(), (2, true), "deferred query saw a's rows");

    a.close().unwrap();
    drop(a);
    b.send(&Request::Quit);
    assert!(matches!(b.recv(), Response::Bye));
    server.stop();
}
