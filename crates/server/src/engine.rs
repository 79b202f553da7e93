//! The single engine thread that owns the [`Database`].
//!
//! The engine is deliberately single-threaded — the core is built on
//! `Rc`/`RefCell` and is not `Send`, so the database never leaves the
//! thread that opened it.  Concurrency comes from the *shape* of the
//! commit path instead:
//!
//! * Connection reader threads decode frames and forward [`Cmd`]s over
//!   an mpsc channel; the engine executes them one at a time and writes
//!   each reply frame **directly to the client's socket** (`Write` is
//!   implemented for `&TcpStream`, so the shared handle registered by
//!   [`Cmd::Connect`] needs no lock).  The reader threads never handle
//!   replies at all — on a loaded single-core box the wakeup round-trip
//!   through a per-connection handler used to cost more than the
//!   statement itself.
//! * With group commit armed, a commit returns from the engine as soon
//!   as its WAL records are **appended** (no fsync).  The engine hands
//!   the pre-encoded acknowledgment and its [`CommitTicket`] to the
//!   **ack pump** — one thread that waits tickets in commit order and
//!   writes the acks once the group-commit flusher's fsync covers them.
//!   The engine immediately moves on to the next command; sixteen
//!   committing clients queue sixteen appends behind one another and
//!   share a handful of fsyncs, and the fsync wakes one pump thread
//!   that drains the whole group instead of sixteen parked handlers.
//!
//! Replies leave the engine as **pre-encoded frames** (`Vec<u8>`): a
//! materialized result holds `Rc`-shared annotations and cannot leave
//! the engine thread as a live object.  `Query` and `QueryFetch` share
//! one handler ([`Cmd::Query`]); for `QueryFetch` it encodes `CursorOk`
//! and the first `RowBatch` into one buffer, so a point read leaves in
//! one `write(2)` and costs the client one round trip.
//!
//! Ordering: the protocol is strictly request/response — a client has
//! at most one request outstanding, so for any one connection exactly
//! one of {engine, ack pump} has a reply to write at a time and the
//! socket never sees interleaved or reordered replies (a two-frame
//! reply is one write by the engine).  A client that pipelines past an
//! unacknowledged commit forfeits that guarantee (its own stream may
//! garble; nobody else's can).
//!
//! Every command the engine handles bumps its `server.requests.<kind>`
//! registry counter, so request traffic is visible through `Metrics`.
//!
//! Transactions: the core has one transaction runtime, so an explicit
//! `BEGIN` makes its connection the *transaction owner*.  Statements
//! from other connections are deferred (queued in arrival order) until
//! the owner commits, rolls back, or disconnects — a disconnect with an
//! open transaction rolls it back, exactly like a dropped session.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use bdbms_common::metrics::Counter;
use bdbms_common::{BdbmsError, Result, Value};
use bdbms_core::result::AnnRow;
use bdbms_core::{CommitTicket, Database, Prepared};

use crate::proto::{write_response, Response, PROTOCOL_VERSION};

/// A decoded command, forwarded by a connection reader thread.
#[derive(Debug)]
pub enum Cmd {
    /// Register the connection's write half.  Sent once by the reader
    /// before anything else; every later reply goes to this stream.
    Connect {
        stream: Arc<TcpStream>,
    },
    Hello {
        user: String,
    },
    Prepare {
        sql: String,
    },
    Execute {
        stmt: u64,
        params: Vec<Value>,
    },
    /// `Query` (`first: None`: reply `CursorOk` alone) or `QueryFetch`
    /// (`first: Some(n)`: `CursorOk` plus the first batch of up to `n`
    /// rows, in one write).
    Query {
        stmt: u64,
        params: Vec<Value>,
        first: Option<u32>,
    },
    Fetch {
        cursor: u64,
        max_rows: u32,
    },
    CloseStmt {
        stmt: u64,
    },
    CloseCursor {
        cursor: u64,
    },
    Run {
        sql: String,
    },
    SetUser {
        user: String,
    },
    /// Snapshot the metrics registry (read-only; never deferred).
    Metrics,
    /// The connection is gone (EOF, error, or `Quit`).  No reply.
    Disconnect,
}

/// The request kinds the engine answers, indexed by [`Cmd::kind`]; each
/// is counted as `server.requests.<name>`.
const REQUEST_KINDS: [&str; 11] = [
    "hello",
    "prepare",
    "execute",
    "query",
    "query_fetch",
    "fetch",
    "close_stmt",
    "close_cursor",
    "run",
    "set_user",
    "metrics",
];

impl Cmd {
    /// Index into [`REQUEST_KINDS`]; `None` for connection bookkeeping.
    fn kind(&self) -> Option<usize> {
        Some(match self {
            Cmd::Connect { .. } | Cmd::Disconnect => return None,
            Cmd::Hello { .. } => 0,
            Cmd::Prepare { .. } => 1,
            Cmd::Execute { .. } => 2,
            Cmd::Query { first: None, .. } => 3,
            Cmd::Query { first: Some(_), .. } => 4,
            Cmd::Fetch { .. } => 5,
            Cmd::CloseStmt { .. } => 6,
            Cmd::CloseCursor { .. } => 7,
            Cmd::Run { .. } => 8,
            Cmd::SetUser { .. } => 9,
            Cmd::Metrics => 10,
        })
    }
}

/// One unit of work for the engine: which connection and what to do.
/// The reply goes straight to the connection's registered socket.
pub struct EngineRequest {
    pub conn: u64,
    pub cmd: Cmd,
}

/// A commit waiting for its durability barrier: the ack pump waits the
/// ticket, then writes `frame` (or an error frame if the flush failed).
struct PendingAck {
    ticket: CommitTicket,
    frame: Vec<u8>,
    stream: Arc<TcpStream>,
}

/// How the engine thread opens its database.
pub struct EngineConfig {
    /// Database directory (opened if a data file exists, else created).
    pub path: PathBuf,
    /// Arm the group-commit gate (on for servers; off turns every
    /// commit back into its own fsync, for baselines).
    pub group_commit: bool,
}

/// Handle to a running engine thread.
pub struct Engine {
    tx: Option<Sender<EngineRequest>>,
    /// WAL fsync counter, shared with the engine's database (`None`
    /// only if the database is in-memory, which a server's never is).
    fsyncs: Option<Arc<Counter>>,
    thread: Option<JoinHandle<()>>,
}

impl Engine {
    /// Spawn the engine thread and open the database on it.  Errors
    /// opening the database are reported here, not on first use.
    pub fn start(cfg: EngineConfig) -> Result<Engine> {
        let (tx, rx) = channel::<EngineRequest>();
        let (ready_tx, ready_rx) = channel();
        let thread = std::thread::Builder::new()
            .name("bdbms-engine".to_string())
            .spawn(move || {
                let mut db = match Database::open_or_create(&cfg.path) {
                    Ok(db) => db,
                    Err(e) => {
                        let _ = ready_tx.send(Err(e));
                        return;
                    }
                };
                if cfg.group_commit {
                    db.enable_group_commit();
                }
                let _ = ready_tx.send(Ok(db.wal_sync_counter()));
                let (ack_tx, ack_rx) = channel::<PendingAck>();
                let pump = std::thread::Builder::new()
                    .name("bdbms-ack-pump".to_string())
                    .spawn(move || ack_pump(ack_rx))
                    .expect("spawn ack pump");
                engine_loop(db, rx, ack_tx);
                // engine_loop consumed the ack sender; the pump drains
                // what's left (the flusher resolves pending tickets
                // before the database's shutdown checkpoint) and exits
                let _ = pump.join();
            })
            .map_err(|e| BdbmsError::io(format!("spawning engine thread: {e}")))?;
        let fsyncs = ready_rx
            .recv()
            .map_err(|_| BdbmsError::io("engine thread died during startup"))??;
        Ok(Engine {
            tx: Some(tx),
            fsyncs,
            thread: Some(thread),
        })
    }

    /// A sender for connection readers to submit work through.
    pub fn sender(&self) -> Sender<EngineRequest> {
        self.tx.as_ref().expect("engine running").clone()
    }

    /// Total WAL fsyncs issued by the engine's database so far.
    pub fn fsync_count(&self) -> u64 {
        self.fsyncs.as_ref().map_or(0, |c| c.get())
    }

    /// Stop the engine: drops the work channel and joins the thread
    /// (the database closes with a shutdown checkpoint).  Connection
    /// readers still holding sender clones keep the engine alive until
    /// they disconnect — call this after the listener has wound down.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.tx.take();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-connection server-side state.
struct ConnState {
    /// The socket replies are written to (shared with the reader
    /// thread, which only reads, and the ack pump).
    stream: Arc<TcpStream>,
    /// Set by `Hello`; commands before a successful hello are rejected.
    user: Option<String>,
    stmts: HashMap<u64, Prepared>,
    cursors: HashMap<u64, CursorState>,
    next_id: u64,
}

impl ConnState {
    fn new(stream: Arc<TcpStream>) -> ConnState {
        ConnState {
            stream,
            user: None,
            stmts: HashMap::new(),
            cursors: HashMap::new(),
            next_id: 0,
        }
    }
}

/// A server-side cursor: the result rows of one `Query`, materialized
/// at execute time and paged to the client in `Fetch` batches.
struct CursorState {
    rows: VecDeque<AnnRow>,
}

fn encode(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    // encoding into a Vec cannot fail except via MAX_FRAME, which a
    // server-built response can only hit with a pathological result;
    // surface that as an error frame rather than a dead connection
    if write_response(&mut buf, resp).is_err() {
        buf.clear();
        let fallback = Response::Error {
            error: BdbmsError::io("response exceeded maximum frame size"),
            in_txn: false,
        };
        write_response(&mut buf, &fallback).expect("fallback error frame encodes");
    }
    buf
}

fn err_frame(error: BdbmsError, in_txn: bool) -> Vec<u8> {
    encode(&Response::Error { error, in_txn })
}

/// Write one pre-encoded frame to the socket.  A failed write means the
/// client vanished; its reader thread sees the hangup and disconnects.
fn send_frame(stream: &TcpStream, frame: &[u8]) {
    let mut w: &TcpStream = stream;
    let _ = w.write_all(frame);
}

/// The ack pump: waits each commit's durability barrier, then writes
/// the acknowledgment.  Tickets arrive in commit (LSN) order and one
/// group fsync resolves a whole run of them, so the pump wakes once per
/// *group* and drains it — not once per commit.
fn ack_pump(rx: Receiver<PendingAck>) {
    while let Ok(ack) = rx.recv() {
        match ack.ticket.wait() {
            // the fsync covering this commit has happened — only now
            // may the acknowledgment reach the client
            Ok(_) => send_frame(&ack.stream, &ack.frame),
            // flush failed: commit durability is unknown; the client
            // must see the failure, not a result
            Err(e) => send_frame(&ack.stream, &err_frame(e, false)),
        }
    }
}

/// Should this command wait until the transaction owner releases the
/// database?  Only statement execution touches transaction state;
/// prepares, fetches from materialized cursors, and bookkeeping are
/// safe to interleave.
fn touches_txn(cmd: &Cmd) -> bool {
    matches!(
        cmd,
        Cmd::Execute { .. } | Cmd::Query { .. } | Cmd::Run { .. }
    )
}

fn engine_loop(mut db: Database, rx: Receiver<EngineRequest>, ack: Sender<PendingAck>) {
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut txn_owner: Option<u64> = None;
    let mut deferred: VecDeque<EngineRequest> = VecDeque::new();
    let requests: Vec<Arc<Counter>> = REQUEST_KINDS
        .iter()
        .map(|kind| db.metrics().counter(&format!("server.requests.{kind}")))
        .collect();

    while let Ok(first) = rx.recv() {
        let mut queue = VecDeque::new();
        queue.push_back(first);
        while let Some(req) = queue.pop_front() {
            if touches_txn(&req.cmd) && txn_owner.is_some_and(|owner| owner != req.conn) {
                deferred.push_back(req);
                continue;
            }
            if let Some(kind) = req.cmd.kind() {
                requests[kind].inc();
            }
            handle(&mut db, &mut conns, &mut txn_owner, &ack, req);
            if txn_owner.is_none() && !deferred.is_empty() {
                // the transaction released: replay deferred commands in
                // arrival order ahead of any new arrivals
                while let Some(d) = deferred.pop_front() {
                    queue.push_back(d);
                }
            }
        }
    }
    // all senders gone: engine shuts down, Database drop checkpoints
}

fn handle(
    db: &mut Database,
    conns: &mut HashMap<u64, ConnState>,
    txn_owner: &mut Option<u64>,
    ack: &Sender<PendingAck>,
    req: EngineRequest,
) {
    let EngineRequest { conn, cmd } = req;

    match &cmd {
        Cmd::Connect { stream } => {
            conns.insert(conn, ConnState::new(stream.clone()));
            return;
        }
        Cmd::Disconnect => {
            if *txn_owner == Some(conn) {
                // dropped connection mid-transaction: roll it back
                let user = conns
                    .get(&conn)
                    .and_then(|c| c.user.clone())
                    .unwrap_or_else(|| "admin".to_string());
                let _ = db.session(&user).rollback();
                *txn_owner = None;
            }
            conns.remove(&conn);
            return;
        }
        _ => {}
    }

    // a reader always sends Connect first, so a missing entry means the
    // connection already disconnected — there is no socket to answer on
    let Some(state) = conns.get_mut(&conn) else {
        return;
    };
    let stream = state.stream.clone();

    if let Cmd::Hello { user } = &cmd {
        let frame = if db.user_exists(user) {
            state.user = Some(user.clone());
            encode(&Response::HelloOk {
                version: PROTOCOL_VERSION,
                server: format!("bdbms {}", env!("CARGO_PKG_VERSION")),
            })
        } else {
            err_frame(
                BdbmsError::unauthorized(format!("unknown user `{user}`")),
                db.in_transaction(),
            )
        };
        send_frame(&stream, &frame);
        return;
    }

    let Some(user) = state.user.clone() else {
        send_frame(
            &stream,
            &err_frame(
                BdbmsError::invalid("connection must Hello before issuing commands"),
                false,
            ),
        );
        return;
    };

    let frame = match cmd {
        Cmd::Connect { .. } | Cmd::Disconnect | Cmd::Hello { .. } => {
            unreachable!("handled above")
        }
        Cmd::Prepare { sql } => match db.session(&user).prepare(&sql) {
            Ok(p) => {
                state.next_id += 1;
                let id = state.next_id;
                let param_count = p.param_count() as u32;
                state.stmts.insert(id, p);
                encode(&Response::PrepareOk {
                    stmt: id,
                    param_count,
                    in_txn: db.in_transaction(),
                })
            }
            Err(e) => err_frame(e, db.in_transaction()),
        },
        Cmd::Execute { stmt, params } => match state.stmts.get(&stmt).cloned() {
            Some(p) => {
                let r = db.session(&user).execute(&p, &params);
                let resp = r.map(|result| Response::Result {
                    result,
                    in_txn: db.in_transaction(),
                });
                match finish_statement(db, conn, txn_owner, ack, &stream, resp) {
                    Some(frame) => frame,
                    None => return, // the ack pump writes it after the fsync
                }
            }
            None => err_frame(unknown_stmt(stmt), db.in_transaction()),
        },
        Cmd::Run { sql } => {
            let r = db.session(&user).run(&sql);
            let resp = r.map(|result| Response::Result {
                result,
                in_txn: db.in_transaction(),
            });
            match finish_statement(db, conn, txn_owner, ack, &stream, resp) {
                Some(frame) => frame,
                None => return, // the ack pump writes it after the fsync
            }
        }
        Cmd::Query {
            stmt,
            params,
            first,
        } => match state.stmts.get(&stmt).cloned() {
            Some(p) => {
                // cursors borrow their session: materialize inside this
                // block, then page the owned rows out in batches
                let materialized = {
                    let session = db.session(&user);
                    session.query(&p, &params).and_then(|cur| {
                        let columns = cur.columns().to_vec();
                        let mut rows = VecDeque::new();
                        for row in cur {
                            rows.push_back(row?);
                        }
                        Ok((columns, rows))
                    })
                };
                match materialized {
                    Ok((columns, mut rows)) => {
                        state.next_id += 1;
                        let id = state.next_id;
                        let mut frame = encode(&Response::CursorOk {
                            cursor: id,
                            columns,
                            in_txn: db.in_transaction(),
                        });
                        // the first batch rides in the same write; a
                        // cursor it exhausts is never registered
                        let done = match first {
                            Some(max_rows) => {
                                let (batch, done) = next_batch(&mut rows, max_rows);
                                frame.extend(encode(&batch));
                                done
                            }
                            None => false,
                        };
                        if !done {
                            state.cursors.insert(id, CursorState { rows });
                        }
                        frame
                    }
                    Err(e) => err_frame(e, db.in_transaction()),
                }
            }
            None => err_frame(unknown_stmt(stmt), db.in_transaction()),
        },
        Cmd::Fetch { cursor, max_rows } => match state.cursors.get_mut(&cursor) {
            Some(c) => {
                let (batch, done) = next_batch(&mut c.rows, max_rows);
                if done {
                    state.cursors.remove(&cursor);
                }
                encode(&batch)
            }
            None => err_frame(
                BdbmsError::not_found(format!("no open cursor {cursor}")),
                db.in_transaction(),
            ),
        },
        Cmd::CloseStmt { stmt } => {
            state.stmts.remove(&stmt);
            encode(&Response::Ok {
                in_txn: db.in_transaction(),
            })
        }
        Cmd::CloseCursor { cursor } => {
            state.cursors.remove(&cursor);
            encode(&Response::Ok {
                in_txn: db.in_transaction(),
            })
        }
        Cmd::SetUser { user: new_user } => {
            if db.user_exists(&new_user) {
                state.user = Some(new_user);
                encode(&Response::Ok {
                    in_txn: db.in_transaction(),
                })
            } else {
                err_frame(
                    BdbmsError::unauthorized(format!("unknown user `{new_user}`")),
                    db.in_transaction(),
                )
            }
        }
        Cmd::Metrics => encode(&Response::Metrics {
            snapshot: db.metrics_snapshot(),
        }),
    };
    send_frame(&stream, &frame);
}

/// Drain up to `max_rows` rows (at least one, if any are left) into a
/// `RowBatch`; `true` when that empties the cursor.
fn next_batch(rows: &mut VecDeque<AnnRow>, max_rows: u32) -> (Response, bool) {
    let take = (max_rows as usize).max(1).min(rows.len());
    let batch: Vec<AnnRow> = rows.drain(..take).collect();
    let done = rows.is_empty();
    (Response::RowBatch { rows: batch, done }, done)
}

fn unknown_stmt(id: u64) -> BdbmsError {
    BdbmsError::not_found(format!("no prepared statement {id}"))
}

/// Post-statement bookkeeping shared by `Execute` and `Run`: update the
/// transaction owner, and if the statement committed under group
/// commit, hand the acknowledgment to the ack pump so it is written
/// only after the flusher's fsync covers the commit.  Returns the frame
/// to write now, or `None` if the pump took it.
fn finish_statement(
    db: &mut Database,
    conn: u64,
    txn_owner: &mut Option<u64>,
    ack: &Sender<PendingAck>,
    stream: &Arc<TcpStream>,
    resp: Result<Response>,
) -> Option<Vec<u8>> {
    *txn_owner = if db.in_transaction() {
        Some(conn)
    } else {
        None
    };
    let ticket = db.take_commit_ticket();
    let frame = match resp {
        Ok(r) => encode(&r),
        Err(e) => encode(&Response::Error {
            error: e,
            in_txn: db.in_transaction(),
        }),
    };
    match ticket {
        Some(ticket) => {
            let pending = PendingAck {
                ticket,
                frame,
                stream: stream.clone(),
            };
            if let Err(std::sync::mpsc::SendError(p)) = ack.send(pending) {
                // pump gone (shutdown race): resolve the barrier inline
                match p.ticket.wait() {
                    Ok(_) => send_frame(&p.stream, &p.frame),
                    Err(e) => send_frame(&p.stream, &err_frame(e, false)),
                }
            }
            None
        }
        None => Some(frame),
    }
}
