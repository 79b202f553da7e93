//! The stable-surface adapter: **every** call into bdbms lives in this
//! file.  A later PR that reshapes the engine cannot edit this
//! directory to follow, so the adapter uses only what ROADMAP item 2
//! keeps: SQL text, the `Connection` trait (`RemoteConnection`),
//! `Session`, `Database::{create_with, open, close, checkpoint,
//! metrics_snapshot}`, `Server::start`, and the layer entry points the
//! per-layer rows name (`parser::parse`, `proto::{write,read}_*`,
//! `Wal::{append, flush}`, `BufferPool::with_page`,
//! `HeapFile::{with_records, get}`, `BPlusTree`, `SbcTree`).  It does
//! not touch `ExecOptions`, `query_traced`, `run_select*`,
//! `execute_as`, `AccessStats` or `IoSnapshot`.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bdbms_client::RemoteConnection;
use bdbms_core::client::{Connection, StatementHandle};
use bdbms_core::session::{Prepared, Session};
use bdbms_core::{Database, Durability, DurabilityOptions};
use bdbms_index::BPlusTree;
use bdbms_seq::SbcTree;
use bdbms_server::proto::{read_request, read_response, write_request, write_response};
use bdbms_server::proto::{Request, Response};
use bdbms_server::{Server, ServerConfig};
use bdbms_storage::{BufferPool, FileStore, HeapFile, MemStore, PageId, Rid, Wal};

pub use bdbms_common::metrics::MetricsSnapshot;
pub use bdbms_common::Value;
pub use bdbms_core::QueryResult;

use crate::stats::median;
use crate::trace::{SpanId, Tracer, NO_SPAN};

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------
// The client surface the workloads drive
// ---------------------------------------------------------------------

/// A prepared statement on whichever backend prepared it.
pub enum Stmt {
    Local(Prepared),
    Remote(StatementHandle),
    Raw(u64),
}

/// What a workload does to a database, local or remote.  `select` is
/// the prepared-cursor path (plan cache), `execute` the materialising
/// path used for DML, `run` the literal-SQL path (lex + parse + plan
/// per call).  Every call records a `call.*` span under `parent`.
pub trait Client {
    fn prepare(&mut self, sql: &str) -> Res<Stmt>;
    fn select(&mut self, stmt: &Stmt, params: &[Value], at: At<'_>) -> Res<QueryResult>;
    fn execute(&mut self, stmt: &Stmt, params: &[Value], at: At<'_>) -> Res<QueryResult>;
    fn run(&mut self, sql: &str, at: At<'_>) -> Res<QueryResult>;
    fn metrics(&mut self) -> Res<MetricsSnapshot>;
    /// Wire frames exchanged so far (0 on an embedded client).
    fn frames(&self) -> u64;
    /// Say goodbye (remote clients; the server only stops once every
    /// client has).
    fn close(&mut self) -> Res<()> {
        Ok(())
    }
}

/// Where a call's span goes: the tracer, the operation id, the parent.
pub struct At<'t> {
    pub tr: &'t mut Tracer,
    pub op: u64,
    pub parent: SpanId,
}

impl<'t> At<'t> {
    pub fn new(tr: &'t mut Tracer, op: u64, parent: SpanId) -> At<'t> {
        At { tr, op, parent }
    }
}

/// `engine.parse/plan/exec` child spans laid end to end from the start
/// of the call that returned these timings.
fn engine_spans(at: &mut At<'_>, call: SpanId, r: &QueryResult) {
    if call == NO_SPAN {
        return;
    }
    let Some(st) = &r.stats else { return };
    let mut t = at.tr.start_of(call);
    for (name, ns) in [
        ("engine.parse", st.parse_ns),
        ("engine.plan", st.plan_ns),
        ("engine.exec", st.exec_ns),
    ] {
        if ns > 0 {
            at.tr.add(name, at.op, call, t, t + ns);
            t += ns;
        }
    }
}

/// The three `ExecStats` timings a result carries, summed (ns).
pub fn engine_ns(r: &QueryResult) -> u64 {
    r.stats
        .as_ref()
        .map_or(0, |s| s.parse_ns + s.plan_ns + s.exec_ns)
}

/// `(rows fetched by scans, engine exec ns)` of a result, if reported.
pub fn scan_work(r: &QueryResult) -> Option<(u64, u64)> {
    r.stats.as_ref().map(|s| (s.rows_fetched, s.exec_ns))
}

/// One embedded `Session`.
pub struct Embedded<'db> {
    session: Session<'db>,
}

impl<'db> Embedded<'db> {
    pub fn new(db: &'db mut Database, user: &str) -> Embedded<'db> {
        Embedded {
            session: db.session(user),
        }
    }
}

impl Embedded<'_> {
    /// `(hits, misses, evictions)` of the pool that is live *now*.
    /// Every checkpoint swaps in a fresh pool while the registry's
    /// `buffer.*` counters stay attached to the first one, so they stop
    /// moving after the first checkpoint; the live pool's own counters
    /// are what an embedded caller can still read.
    /// Act as `user` from the next statement on.
    pub fn set_user(&mut self, user: &str) {
        self.session.set_user(user);
    }

    pub fn pool_counters(&mut self) -> (u64, u64, u64) {
        let db = Connection::local_database(&mut self.session).expect("a session is local");
        let m = db.pool().metrics();
        (m.hits.get(), m.misses.get(), m.evictions.get())
    }
}

fn local(stmt: &Stmt) -> Res<&Prepared> {
    match stmt {
        Stmt::Local(p) => Ok(p),
        _ => Err("statement was prepared on another backend".into()),
    }
}

impl Client for Embedded<'_> {
    fn prepare(&mut self, sql: &str) -> Res<Stmt> {
        self.session.prepare(sql).map(Stmt::Local).map_err(err(sql))
    }

    fn select(&mut self, stmt: &Stmt, params: &[Value], mut at: At<'_>) -> Res<QueryResult> {
        let p = local(stmt)?;
        let s = at.tr.begin("call.session_query", at.op, at.parent);
        let r = self
            .session
            .query(p, params)
            .and_then(|cur| cur.into_result());
        at.tr.end(s);
        let r = r.map_err(err(p.sql()))?;
        engine_spans(&mut at, s, &r);
        Ok(r)
    }

    fn execute(&mut self, stmt: &Stmt, params: &[Value], mut at: At<'_>) -> Res<QueryResult> {
        let p = local(stmt)?;
        let s = at.tr.begin("call.session_execute", at.op, at.parent);
        let r = self.session.execute(p, params);
        at.tr.end(s);
        let r = r.map_err(err(p.sql()))?;
        engine_spans(&mut at, s, &r);
        Ok(r)
    }

    fn run(&mut self, sql: &str, mut at: At<'_>) -> Res<QueryResult> {
        let s = at.tr.begin("call.session_run", at.op, at.parent);
        let r = self.session.run(sql);
        at.tr.end(s);
        let r = r.map_err(err(sql))?;
        engine_spans(&mut at, s, &r);
        Ok(r)
    }

    fn metrics(&mut self) -> Res<MetricsSnapshot> {
        Connection::metrics(&mut self.session).map_err(err("metrics"))
    }

    fn frames(&self) -> u64 {
        0
    }
}

/// The repo's own `RemoteConnection` — what the end-to-end run uses.
/// It is opaque, so frames are inferred from the calls made (a request
/// and a response per round trip; a cursor read is `Query` + `Fetch`).
pub struct Remote {
    conn: RemoteConnection,
    frames: u64,
}

impl Remote {
    pub fn connect(addr: &str, user: &str) -> Res<Remote> {
        Ok(Remote {
            conn: RemoteConnection::connect(addr, user).map_err(err("connect"))?,
            frames: 2,
        })
    }
}

fn handle(stmt: &Stmt) -> Res<&StatementHandle> {
    match stmt {
        Stmt::Remote(h) => Ok(h),
        _ => Err("statement was prepared on another backend".into()),
    }
}

impl Client for Remote {
    fn prepare(&mut self, sql: &str) -> Res<Stmt> {
        self.frames += 2;
        self.conn.prepare(sql).map(Stmt::Remote).map_err(err(sql))
    }

    fn select(&mut self, stmt: &Stmt, params: &[Value], at: At<'_>) -> Res<QueryResult> {
        let h = handle(stmt)?;
        let s = at.tr.begin("call.conn_query", at.op, at.parent);
        let r = self
            .conn
            .query(h, params)
            .and_then(|mut rows| rows.collect_result());
        at.tr.end(s);
        let r = r.map_err(err(h.sql()))?;
        let fetches = r.rows.len().div_ceil(256).max(1) as u64;
        self.frames += 2 + 2 * fetches;
        Ok(r)
    }

    fn execute(&mut self, stmt: &Stmt, params: &[Value], mut at: At<'_>) -> Res<QueryResult> {
        let h = handle(stmt)?;
        let s = at.tr.begin("call.conn_execute", at.op, at.parent);
        let r = self.conn.execute(h, params);
        at.tr.end(s);
        self.frames += 2;
        let r = r.map_err(err(h.sql()))?;
        engine_spans(&mut at, s, &r);
        Ok(r)
    }

    fn run(&mut self, sql: &str, mut at: At<'_>) -> Res<QueryResult> {
        let s = at.tr.begin("call.conn_run", at.op, at.parent);
        let r = self.conn.run(sql);
        at.tr.end(s);
        self.frames += 2;
        let r = r.map_err(err(sql))?;
        engine_spans(&mut at, s, &r);
        Ok(r)
    }

    fn metrics(&mut self) -> Res<MetricsSnapshot> {
        self.frames += 2;
        self.conn.metrics().map_err(err("metrics"))
    }

    fn frames(&self) -> u64 {
        self.frames
    }

    fn close(&mut self) -> Res<()> {
        self.conn.close().map_err(err("close"))
    }
}

/// A `Read` that adds up the time spent blocked in the socket.
struct TimedRead {
    inner: TcpStream,
    blocked_ns: u64,
}

impl Read for TimedRead {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        let n = self.inner.read(buf);
        self.blocked_ns += t.elapsed().as_nanos() as u64;
        n
    }
}

/// The traced run's wire client: the same frames `RemoteConnection`
/// sends, written through `proto` directly so that encode, socket wait
/// and decode each get a span.
pub struct TracedWire {
    reader: BufReader<TimedRead>,
    writer: TcpStream,
    buf: Vec<u8>,
    frames: u64,
}

impl TracedWire {
    pub fn connect(addr: &str, user: &str) -> Res<TracedWire> {
        let stream = TcpStream::connect(addr).map_err(err("connect"))?;
        stream.set_nodelay(true).map_err(err("nodelay"))?;
        let mut c = TracedWire {
            reader: BufReader::new(TimedRead {
                inner: stream.try_clone().map_err(err("clone socket"))?,
                blocked_ns: 0,
            }),
            writer: stream,
            buf: Vec::new(),
            frames: 0,
        };
        let mut off = Tracer::off();
        match c.roundtrip(
            &Request::Hello {
                user: user.to_string(),
            },
            &mut At::new(&mut off, 0, NO_SPAN),
        )? {
            Response::HelloOk { .. } => Ok(c),
            other => Err(format!("unexpected reply to Hello: {other:?}")),
        }
    }

    /// One request/response exchange: `proto.encode`, `wait.socket`
    /// (write + time blocked reading), `proto.decode` (the rest of
    /// `read_response`).  Returns the span of the socket wait so the
    /// caller can hang the server's `ExecStats` under it.
    fn exchange(&mut self, req: &Request, at: &mut At<'_>) -> Res<(Response, SpanId)> {
        let enc = at.tr.begin("proto.encode", at.op, at.parent);
        self.buf.clear();
        write_request(&mut self.buf, req).map_err(err("encode"))?;
        at.tr.end(enc);
        let wait_start = at.tr.now_ns();
        self.writer.write_all(&self.buf).map_err(err("send"))?;
        self.reader.get_mut().blocked_ns = 0;
        let read_start = at.tr.now_ns();
        let resp = read_response(&mut self.reader).map_err(err("receive"))?;
        let done = at.tr.now_ns();
        let wait_end = (read_start + self.reader.get_ref().blocked_ns).min(done);
        let wait = at
            .tr
            .add("wait.socket", at.op, at.parent, wait_start, wait_end);
        at.tr.add("proto.decode", at.op, at.parent, wait_end, done);
        self.frames += 2;
        Ok((resp, wait))
    }

    fn roundtrip(&mut self, req: &Request, at: &mut At<'_>) -> Res<Response> {
        match self.exchange(req, at)?.0 {
            Response::Error { error, .. } => Err(error.to_string()),
            resp => Ok(resp),
        }
    }

    fn result_of(&mut self, req: &Request, at: &mut At<'_>) -> Res<QueryResult> {
        match self.exchange(req, at)? {
            (Response::Result { result, .. }, wait) => {
                engine_spans(at, wait, &result);
                Ok(result)
            }
            (Response::Error { error, .. }, _) => Err(error.to_string()),
            (other, _) => Err(format!("unexpected reply: {other:?}")),
        }
    }
}

fn raw(stmt: &Stmt) -> Res<u64> {
    match stmt {
        Stmt::Raw(id) => Ok(*id),
        _ => Err("statement was prepared on another backend".into()),
    }
}

impl Client for TracedWire {
    fn prepare(&mut self, sql: &str) -> Res<Stmt> {
        let mut off = Tracer::off();
        let req = Request::Prepare {
            sql: sql.to_string(),
        };
        match self.roundtrip(&req, &mut At::new(&mut off, 0, NO_SPAN))? {
            Response::PrepareOk { stmt, .. } => Ok(Stmt::Raw(stmt)),
            other => Err(format!("unexpected reply to Prepare: {other:?}")),
        }
    }

    fn select(&mut self, stmt: &Stmt, params: &[Value], mut at: At<'_>) -> Res<QueryResult> {
        let req = Request::Query {
            stmt: raw(stmt)?,
            params: params.to_vec(),
        };
        let (cursor, columns) = match self.roundtrip(&req, &mut at)? {
            Response::CursorOk {
                cursor, columns, ..
            } => (cursor, columns),
            other => return Err(format!("unexpected reply to Query: {other:?}")),
        };
        let mut rows = Vec::new();
        loop {
            let fetch = Request::Fetch {
                cursor,
                max_rows: 256,
            };
            match self.roundtrip(&fetch, &mut at)? {
                Response::RowBatch { rows: batch, done } => {
                    rows.extend(batch);
                    if done {
                        break;
                    }
                }
                other => return Err(format!("unexpected reply to Fetch: {other:?}")),
            }
        }
        Ok(QueryResult {
            columns,
            rows,
            ..Default::default()
        })
    }

    fn execute(&mut self, stmt: &Stmt, params: &[Value], mut at: At<'_>) -> Res<QueryResult> {
        let req = Request::Execute {
            stmt: raw(stmt)?,
            params: params.to_vec(),
        };
        self.result_of(&req, &mut at)
    }

    fn run(&mut self, sql: &str, mut at: At<'_>) -> Res<QueryResult> {
        let req = Request::Run {
            sql: sql.to_string(),
        };
        self.result_of(&req, &mut at)
    }

    fn metrics(&mut self) -> Res<MetricsSnapshot> {
        let mut off = Tracer::off();
        match self.roundtrip(&Request::Metrics, &mut At::new(&mut off, 0, NO_SPAN))? {
            Response::Metrics { snapshot } => Ok(snapshot),
            other => Err(format!("unexpected reply to Metrics: {other:?}")),
        }
    }

    fn frames(&self) -> u64 {
        self.frames
    }

    fn close(&mut self) -> Res<()> {
        let mut off = Tracer::off();
        self.roundtrip(&Request::Quit, &mut At::new(&mut off, 0, NO_SPAN))
            .map(|_| ())
    }
}

impl TracedWire {
    /// Round-trip time of a `Ping`, which the connection's reader
    /// thread answers without entering the engine (ns).
    pub fn ping_ns(&mut self) -> Res<u64> {
        let mut off = Tracer::off();
        let t = Instant::now();
        match self.roundtrip(&Request::Ping, &mut At::new(&mut off, 0, NO_SPAN))? {
            Response::Pong => Ok(t.elapsed().as_nanos() as u64),
            other => Err(format!("unexpected reply to Ping: {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------
// Database and server lifecycle
// ---------------------------------------------------------------------

pub type Db = Database;

/// The durable-database knobs a workload fixes: its flush policy and
/// its buffer-pool size.  Everything else stays at the engine default
/// (`checkpoint_every_commits = 1024`, 4 MiB WAL segments).
#[derive(Debug, Clone, Copy)]
pub struct DbOpts {
    pub fsync_on_commit: bool,
    pub pool_pages: usize,
}

pub const DEFAULT_POOL_PAGES: usize = 1024;

pub fn create_db(dir: &Path, opts: DbOpts) -> Res<Db> {
    let o = DurabilityOptions {
        durability: if opts.fsync_on_commit {
            Durability::Full
        } else {
            Durability::NoSync
        },
        pool_pages: opts.pool_pages,
        ..Default::default()
    };
    Database::create_with(dir, o).map_err(err("create database"))
}

pub fn open_db(dir: &Path) -> Res<Db> {
    Database::open(dir).map_err(err("open database"))
}

pub fn close_db(db: Db) -> Res<()> {
    db.close().map_err(err("close database"))
}

pub fn checkpoint(db: &mut Db) -> Res<()> {
    db.checkpoint().map_err(err("checkpoint"))
}

/// Commits the last `open` replayed from the WAL.
pub fn replayed_commits(db: &Db) -> u64 {
    db.last_recovery().map_or(0, |r| r.replayed_commits)
}

/// Run one literal statement as `admin` (set-up and verification).
pub fn sql(db: &mut Db, text: &str) -> Res<QueryResult> {
    db.session("admin").run(text).map_err(err(text))
}

/// An in-process server on `dir` (created if empty), group commit on,
/// `Durability::Full`, engine-default pool and checkpoint interval.
pub struct ServerHandle {
    server: Server,
    pub addr: String,
}

pub fn start_server(dir: &Path) -> Res<ServerHandle> {
    let server =
        Server::start(ServerConfig::new(dir, "127.0.0.1:0")).map_err(err("start server"))?;
    let addr = server.local_addr().to_string();
    Ok(ServerHandle { server, addr })
}

impl ServerHandle {
    /// Stop accepting and join the engine (which checkpoints on drop).
    /// Every client must have disconnected first.
    pub fn stop(self) {
        self.server.stop();
    }
}

// ---------------------------------------------------------------------
// Layer kernels: one public function per per-layer row group, each
// replaying inputs the workload captured through a layer's public
// entry points in isolation.
// ---------------------------------------------------------------------

/// Median over batches of `(batch wall time / items in the batch)`, ns.
/// Runs at least `MIN_BATCHES` batches and at least ~30 ms in total.
fn per_item_ns(items: usize, mut batch: impl FnMut()) -> f64 {
    const MIN_BATCHES: usize = 5;
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < MIN_BATCHES
        || (started.elapsed().as_millis() < 30 && samples.len() < 1000)
    {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / items.max(1) as f64);
    }
    median(&samples)
}

/// `core::lexer` + `core::parser`: ns per statement over a corpus.
pub fn kernel_parse(corpus: &[String]) -> f64 {
    per_item_ns(corpus.len(), || {
        for sql in corpus {
            std::hint::black_box(bdbms_core::parser::parse(sql).is_ok());
        }
    })
}

/// `core::session`: µs per `Session::prepare` of a statement the
/// session has not seen (each batch uses a fresh session).
pub fn kernel_prepare(db: &mut Db, corpus: &[String]) -> f64 {
    per_item_ns(corpus.len(), || {
        let session = db.session("admin");
        for sql in corpus {
            std::hint::black_box(session.prepare(sql).is_ok());
        }
    }) / 1e3
}

/// One request of the workload and the reply it got, for the codec
/// kernel.
pub enum WireOp {
    Execute(Vec<Value>),
    Query(Vec<Value>),
    Run(String),
}

/// `server::proto`: ns per frame to encode and to decode the
/// workload's own request and response frames: `(encode, decode)`.
pub fn kernel_proto(sample: &[(WireOp, QueryResult)]) -> (f64, f64) {
    let frames: Vec<(Request, Response)> = sample
        .iter()
        .map(|(op, result)| {
            let req = match op {
                WireOp::Execute(p) => Request::Execute {
                    stmt: 1,
                    params: p.clone(),
                },
                WireOp::Query(p) => Request::Query {
                    stmt: 1,
                    params: p.clone(),
                },
                WireOp::Run(sql) => Request::Run { sql: sql.clone() },
            };
            let resp = Response::Result {
                result: result.clone(),
                in_txn: false,
            };
            (req, resp)
        })
        .collect();
    let mut wire: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let encode = per_item_ns(frames.len() * 2, || {
        wire.clear();
        for (req, resp) in &frames {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            write_request(&mut a, req).expect("encode request");
            write_response(&mut b, resp).expect("encode response");
            wire.push((a, b));
        }
    });
    let decode = per_item_ns(frames.len() * 2, || {
        for (a, b) in &wire {
            std::hint::black_box(read_request(&mut a.as_slice()).expect("decode request"));
            std::hint::black_box(read_response(&mut b.as_slice()).expect("decode response"));
        }
    });
    (encode, decode)
}

/// `server::engine` seen from a socket: median `Ping` round trip,
/// median prepared point-`Execute` round trip, and what is left of the
/// latter after the engine's own `ExecStats` and the ping round trip
/// are taken out (queueing, hand-off, encode) — all in µs.
pub fn kernel_server(addr: &str, point_sql: &str, keys: &[Value]) -> Res<(f64, f64, f64)> {
    let mut c = TracedWire::connect(addr, "admin")?;
    let stmt = c.prepare(point_sql)?;
    let mut off = Tracer::off();
    let (mut ping, mut rtt, mut engine) = (Vec::new(), Vec::new(), Vec::new());
    for key in keys {
        ping.push(c.ping_ns()? as f64);
        let t = Instant::now();
        let r = c.execute(
            &stmt,
            std::slice::from_ref(key),
            At::new(&mut off, 0, NO_SPAN),
        )?;
        rtt.push(t.elapsed().as_nanos() as f64);
        engine.push(engine_ns(&r) as f64);
    }
    c.close()?;
    let (ping, rtt, engine) = (median(&ping), median(&rtt), median(&engine));
    Ok((ping / 1e3, rtt / 1e3, (rtt - engine - ping).max(0.0) / 1e3))
}

/// `storage::wal` on a scratch log: ns per `Wal::append` of the
/// workload's record sizes (no flush), and µs per `append` + `flush`
/// under `Durability::Full` (one fsync each).
pub fn kernel_wal(scratch: &Path, record_sizes: &[usize]) -> Res<(f64, f64)> {
    let payloads: Vec<Vec<u8>> = record_sizes.iter().map(|&n| vec![0xA5u8; n]).collect();
    let (mut wal, _) =
        Wal::open(scratch.join("wal-append"), Durability::NoSync).map_err(err("open wal"))?;
    let append = per_item_ns(payloads.len(), || {
        for p in &payloads {
            wal.append(p).expect("append");
        }
        wal.flush().expect("flush buffered frames");
    });
    let (mut wal, _) =
        Wal::open(scratch.join("wal-fsync"), Durability::Full).map_err(err("open wal"))?;
    let mut fsync = Vec::new();
    for p in payloads.iter().cycle().take(64) {
        wal.append(p).map_err(err("append"))?;
        let t = Instant::now();
        wal.flush().map_err(err("flush"))?;
        fsync.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok((append, median(&fsync)))
}

/// `storage::buffer`: ns per `with_page` on a resident page, and µs per
/// `with_page` that must evict and read from a `FileStore` holding
/// three times the pool's capacity (a cyclic walk defeats LRU).
pub fn kernel_buffer(scratch: &Path, pool_pages: usize) -> Res<(f64, f64)> {
    let store = FileStore::create(scratch.join("pages.bdb")).map_err(err("page file"))?;
    let pool = BufferPool::new(Box::new(store), pool_pages);
    let total = pool_pages * 3;
    for i in 0..total {
        let id = pool.allocate().map_err(err("allocate"))?;
        pool.with_page_mut(id, |pg| pg[..8].copy_from_slice(&(i as u64).to_le_bytes()))
            .map_err(err("fill"))?;
    }
    pool.flush_all().map_err(err("flush"))?;
    let miss = per_item_ns(total, || {
        for i in 0..total {
            pool.with_page(PageId(i as u64), |pg| std::hint::black_box(pg[0]))
                .expect("cold read");
        }
    });
    let hot = pool_pages / 2;
    let hit = per_item_ns(hot * 8, || {
        for _ in 0..8 {
            for i in 0..hot {
                pool.with_page(PageId((total - 1 - i) as u64), |pg| {
                    std::hint::black_box(pg[0])
                })
                .expect("resident read");
            }
        }
    });
    Ok((hit, miss / 1e3))
}

/// Encode one row the way the heap stores it.
pub fn encode_row(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::new();
    for v in values {
        v.encode(&mut out);
    }
    out
}

/// `storage::heap` over an in-memory pool holding the workload's own
/// records: ns per record for a `with_records` scan that decodes every
/// column, and ns per random `HeapFile::get`.
pub fn kernel_heap(records: &[Vec<u8>], columns: usize, probe_order: &[usize]) -> Res<(f64, f64)> {
    let pool = Arc::new(BufferPool::new(
        Box::new(MemStore::new()),
        records.len() / 8 + 64,
    ));
    let mut heap = HeapFile::create(pool).map_err(err("heap"))?;
    let rids: Vec<Rid> = records
        .iter()
        .map(|r| heap.insert(r))
        .collect::<Result<_, _>>()
        .map_err(err("heap insert"))?;
    let decode = per_item_ns(rids.len(), || {
        heap.with_records(&rids, |_, bytes| {
            let mut pos = 0;
            for _ in 0..columns {
                std::hint::black_box(Value::decode(bytes, &mut pos)?);
            }
            Ok(())
        })
        .expect("scan");
    });
    let get = per_item_ns(probe_order.len(), || {
        for &i in probe_order {
            std::hint::black_box(heap.get(rids[i]).expect("get"));
        }
    });
    Ok((decode, get))
}

/// `index::bptree` over the workload's keys: ns per `get` of a present
/// key and ns per `insert` (building the tree from empty).
pub fn kernel_bptree(keys: &[String], probe_order: &[usize]) -> (f64, f64) {
    let mut tree: BPlusTree<String, u64> = BPlusTree::new();
    let insert = per_item_ns(keys.len(), || {
        tree = BPlusTree::new();
        for (i, k) in keys.iter().enumerate() {
            tree.insert(k.clone(), i as u64);
        }
    });
    let lookup = per_item_ns(probe_order.len(), || {
        for &i in probe_order {
            std::hint::black_box(tree.get(&keys[i]));
        }
    });
    (lookup, insert)
}

pub struct SbcCost {
    pub build_ns_per_record: f64,
    pub probe_us: f64,
    pub candidates_per_hit: f64,
    pub insert_us: f64,
}

/// `seq::sbc_tree` + `seq::rle` over the workload's sequences and
/// patterns: build cost per record, µs per `substring_search`,
/// occurrences reported per distinct matching text, and µs per insert
/// into the built tree.
pub fn kernel_sbc(texts: &[&str], patterns: &[String], extra: &[&str]) -> SbcCost {
    let mut tree = SbcTree::new();
    let build = per_item_ns(texts.len(), || {
        tree = SbcTree::new();
        for t in texts {
            tree.insert_sequence(t.as_bytes());
        }
    });
    let (mut occurrences, mut hits) = (0usize, 0usize);
    let probe = per_item_ns(patterns.len(), || {
        (occurrences, hits) = (0, 0);
        for p in patterns {
            let occ = tree.substring_search(p.as_bytes());
            occurrences += occ.len();
            let mut ids: Vec<u32> = occ.iter().map(|o| o.text).collect();
            ids.dedup();
            hits += ids.len();
        }
    });
    let mut insert = Vec::new();
    for t in extra {
        let s = Instant::now();
        tree.insert_sequence(t.as_bytes());
        insert.push(s.elapsed().as_nanos() as f64 / 1e3);
    }
    SbcCost {
        build_ns_per_record: build,
        probe_us: probe / 1e3,
        candidates_per_hit: if hits == 0 {
            0.0
        } else {
            occurrences as f64 / hits as f64
        },
        insert_us: median(&insert),
    }
}

pub struct CurationCost {
    pub update_cascade_us: f64,
    pub decide_us: f64,
    pub ann_add_us: f64,
    pub propagate_over_plain: f64,
    pub commit_us: f64,
}

/// `core::dependency`, `core::approval`, `core::annotation` and
/// `core::txn` on a scratch database built from the workload's own
/// `(key, sequence)` pairs: a non-executable dependency rule, content
/// approval, and one annotation table, driven with literal SQL.
pub fn kernel_curation(
    scratch: &Path,
    rows: &[(String, String)],
    fsync: bool,
) -> Res<CurationCost> {
    let mut db = create_db(
        &scratch.join("curation-kernel"),
        DbOpts {
            fsync_on_commit: fsync,
            pool_pages: DEFAULT_POOL_PAGES,
        },
    )?;
    let mut s = db.session("admin");
    let run = |s: &mut Session<'_>, text: &str| s.run(text).map_err(err(text));
    for ddl in [
        "CREATE TABLE Src (K TEXT, S TEXT)",
        "CREATE TABLE Dst (K TEXT, D TEXT)",
        "CREATE INDEX src_k ON Src (K)",
        "CREATE INDEX dst_k ON Dst (K)",
        "CREATE ANNOTATION TABLE Notes ON Src",
        "CREATE USER kadmin",
        "CREATE DEPENDENCY RULE kr FROM Src.S TO Dst.D VIA PROCEDURE 'bench' LINK Src.K = Dst.K",
    ] {
        run(&mut s, ddl)?;
    }
    for chunk in rows.chunks(200) {
        let tuples = |f: &dyn Fn(&(String, String)) -> String| {
            chunk.iter().map(f).collect::<Vec<_>>().join(", ")
        };
        run(
            &mut s,
            &format!(
                "INSERT INTO Src VALUES {}",
                tuples(&|(k, v)| format!("('{k}', '{v}')"))
            ),
        )?;
        run(
            &mut s,
            &format!(
                "INSERT INTO Dst VALUES {}",
                tuples(&|(k, _)| format!("('{k}', 'derived')"))
            ),
        )?;
    }
    // annotation propagation against the plain scan, before any
    // per-row annotation exists: one column-level annotation
    run(
        &mut s,
        "ADD ANNOTATION TO Src.Notes VALUE 'kernel: whole column' ON (SELECT T.S FROM Src T)",
    )?;
    let time_scan = |s: &mut Session<'_>, text: &str| -> Res<f64> {
        let mut samples = Vec::new();
        for _ in 0..9 {
            let t = Instant::now();
            s.run(text).map_err(err(text))?;
            samples.push(t.elapsed().as_nanos() as f64);
        }
        Ok(median(&samples))
    };
    let plain = time_scan(&mut s, "SELECT K, S FROM Src")?;
    let annotated = time_scan(&mut s, "SELECT K, S FROM Src ANNOTATION(Notes)")?;
    run(
        &mut s,
        "START CONTENT APPROVAL ON Src COLUMNS S APPROVED BY kadmin",
    )?;
    let (mut cascade, mut commit, mut add, mut decide) = (vec![], vec![], vec![], vec![]);
    let n = rows.len().min(120);
    for (i, (k, v)) in rows.iter().take(n).enumerate() {
        run(&mut s, "BEGIN")?;
        let t = Instant::now();
        run(
            &mut s,
            &format!("UPDATE Src SET S = '{v}X' WHERE K = '{k}'"),
        )?;
        cascade.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        run(
            &mut s,
            &format!(
                "ADD ANNOTATION TO Src.Notes VALUE 'kernel note {i}' \
                 ON (SELECT T.S FROM Src T WHERE K = '{k}')"
            ),
        )?;
        add.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        run(&mut s, "COMMIT")?;
        commit.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    s.set_user("kadmin");
    for id in 0..n {
        let verb = if id % 2 == 0 { "APPROVE" } else { "DISAPPROVE" };
        let t = Instant::now();
        run(&mut s, &format!("{verb} OPERATION {id}"))?;
        decide.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(s);
    close_db(db)?;
    Ok(CurationCost {
        update_cascade_us: median(&cascade),
        decide_us: median(&decide),
        ann_add_us: median(&add),
        propagate_over_plain: annotated / plain.max(1.0),
        commit_us: median(&commit),
    })
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copy a quiesced database directory: with no checkpoint in flight and
/// every acknowledged commit flushed, the copy is what a crash at this
/// instant would leave behind, WAL tail included.
pub fn crash_image(dir: &Path, to: &Path) -> Res<PathBuf> {
    fn copy(from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(to)?;
        for e in std::fs::read_dir(from)? {
            let e = e?;
            let dst = to.join(e.file_name());
            if e.metadata()?.is_dir() {
                copy(&e.path(), &dst)?;
            } else {
                std::fs::copy(e.path(), dst)?;
            }
        }
        Ok(())
    }
    copy(dir, to).map_err(err("copy database directory"))?;
    Ok(to.to_path_buf())
}
