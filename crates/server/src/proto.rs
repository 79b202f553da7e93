//! The bdbms wire protocol.
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! [u32 LE: length of kind + payload][u8: kind][payload bytes]
//! ```
//!
//! Payloads are written and read with [`bdbms_common::codec`], the same
//! primitives snapshots and WAL records use: integers are little-endian
//! fixed-width; strings are `u32 length || utf8 bytes`; lists are a
//! `u32` count followed by their elements; values are [`Value::encode`]'s
//! `tag byte || payload`.  Options are a presence byte (exactly 0 or 1)
//! followed by the payload, and a frame's payload must be consumed to
//! its last byte.  A truncated or mangled payload is
//! [`ErrorCode::Corrupt`].  The protocol is synchronous
//! request/response — the client writes one request frame and reads
//! its reply: exactly one response frame, except that a successful
//! [`Request::QueryFetch`] is answered by `CursorOk` followed by the
//! first `RowBatch`.  Further rows are paged explicitly with
//! [`Request::Fetch`], so a large result never monopolizes the
//! connection.
//!
//! Errors cross the wire losslessly: an [`Response::Error`] frame
//! carries the [`ErrorCode`] (one byte, exhaustively mapped), the
//! message text, and the optional byte [`Span`] into the offending SQL
//! — a remote client reconstructs the exact [`BdbmsError`] the engine
//! raised.  See `docs/SERVER.md` for the full frame catalog.

use std::io::{Read, Write};

use bdbms_common::codec::{put_bool, put_str, put_strs, put_u32, put_u64, put_values, Cur};
use bdbms_common::metrics::{HistogramSnapshot, MetricsSnapshot};
use bdbms_common::{BdbmsError, ErrorCode, Result, Span, Value};
use bdbms_core::executor::ExecStats;
use bdbms_core::result::{AnnOut, AnnRow, QueryResult};
use bdbms_core::xml::XmlNode;

/// Protocol version, negotiated in `Hello` / `HelloOk`.  Version 2 adds
/// [`Request::QueryFetch`]; a server accepts every version from 1 up to
/// this one (v1 clients never send the newer kinds), so a v2 client
/// that meets a v1 server is refused at `Hello`.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a single frame (64 MiB) — a garbage length prefix
/// must not allocate unbounded memory.
pub const MAX_FRAME: u32 = 64 << 20;

/// Default rows per [`Request::Fetch`] batch used by clients.
pub const DEFAULT_FETCH_ROWS: u32 = 256;

// ---- frame kinds ----

const K_HELLO: u8 = 0x01;
const K_PREPARE: u8 = 0x02;
const K_EXECUTE: u8 = 0x03;
const K_QUERY: u8 = 0x04;
const K_FETCH: u8 = 0x05;
const K_CLOSE_STMT: u8 = 0x06;
const K_CLOSE_CURSOR: u8 = 0x07;
const K_RUN: u8 = 0x08;
const K_SET_USER: u8 = 0x09;
const K_PING: u8 = 0x0A;
const K_QUIT: u8 = 0x0B;
const K_METRICS: u8 = 0x0C;
const K_QUERY_FETCH: u8 = 0x0D;

const K_HELLO_OK: u8 = 0x81;
const K_PREPARE_OK: u8 = 0x82;
const K_RESULT: u8 = 0x83;
const K_CURSOR_OK: u8 = 0x84;
const K_ROW_BATCH: u8 = 0x85;
const K_OK: u8 = 0x86;
const K_PONG: u8 = 0x87;
const K_BYE: u8 = 0x88;
const K_METRICS_OK: u8 = 0x89;
const K_ERROR: u8 = 0x8F;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// First frame on a connection: authenticate as `user`.
    Hello { user: String },
    /// Parse + cache a statement server-side; answered by `PrepareOk`.
    Prepare { sql: String },
    /// Bind + execute a prepared statement, materializing the result.
    Execute { stmt: u64, params: Vec<Value> },
    /// Bind + run a prepared SELECT; answered by `CursorOk` alone, then
    /// every row is pulled with `Fetch`.  The paging-only v1 form: v2
    /// clients send [`Request::QueryFetch`], which saves the first
    /// `Fetch` round trip.
    Query { stmt: u64, params: Vec<Value> },
    /// Bind + run a prepared SELECT; answered by `CursorOk` followed at
    /// once by a `RowBatch` of up to `max_rows` rows.  When that batch
    /// is `done` the cursor was never opened server-side; otherwise the
    /// rest is pulled with `Fetch` as after `Query`.
    QueryFetch {
        stmt: u64,
        params: Vec<Value>,
        max_rows: u32,
    },
    /// Pull up to `max_rows` rows from an open cursor.
    Fetch { cursor: u64, max_rows: u32 },
    /// Discard a prepared statement.
    CloseStmt { stmt: u64 },
    /// Discard an open cursor before exhaustion.
    CloseCursor { cursor: u64 },
    /// Parse + execute a parameter-less statement in one step.
    Run { sql: String },
    /// Switch the acting user for subsequent statements.
    SetUser { user: String },
    /// Liveness probe; answered by `Pong` without touching the engine.
    Ping,
    /// Orderly goodbye; answered by `Bye`, then the connection closes.
    Quit,
    /// Snapshot the server's metrics registry; answered by `Metrics`.
    Metrics,
}

/// A server→client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// `Hello` accepted.
    HelloOk { version: u32, server: String },
    /// Statement parsed and cached under `stmt`.
    PrepareOk {
        stmt: u64,
        param_count: u32,
        in_txn: bool,
    },
    /// A materialized statement result.
    Result { result: QueryResult, in_txn: bool },
    /// A cursor is open; pull rows with `Fetch`.
    CursorOk {
        cursor: u64,
        columns: Vec<String>,
        in_txn: bool,
    },
    /// Up to `max_rows` rows; `done` means the cursor is exhausted and
    /// already closed server-side.
    RowBatch { rows: Vec<AnnRow>, done: bool },
    /// Command acknowledged (`CloseStmt` / `CloseCursor` / `SetUser`).
    Ok { in_txn: bool },
    /// Liveness reply.
    Pong,
    /// Goodbye acknowledgment.
    Bye,
    /// Point-in-time copy of the engine's metrics registry.
    Metrics { snapshot: MetricsSnapshot },
    /// The command failed; the full engine error, round-tripped.
    Error { error: BdbmsError, in_txn: bool },
}

impl Response {
    /// The explicit-transaction flag piggybacked on this response, when
    /// it carries one (clients mirror it into their prompt state).
    pub fn in_txn(&self) -> Option<bool> {
        match self {
            Response::PrepareOk { in_txn, .. }
            | Response::Result { in_txn, .. }
            | Response::CursorOk { in_txn, .. }
            | Response::Ok { in_txn }
            | Response::Error { in_txn, .. } => Some(*in_txn),
            _ => None,
        }
    }
}

// ---- error-code mapping (exhaustive both ways) ----

/// One wire byte per [`ErrorCode`] variant.  `match` on the full enum:
/// adding a code without extending the protocol is a compile error.
pub fn error_code_to_wire(code: ErrorCode) -> u8 {
    match code {
        ErrorCode::Syntax => 0,
        ErrorCode::NotFound => 1,
        ErrorCode::AlreadyExists => 2,
        ErrorCode::TypeMismatch => 3,
        ErrorCode::Invalid => 4,
        ErrorCode::Unauthorized => 5,
        ErrorCode::Approval => 6,
        ErrorCode::Dependency => 7,
        ErrorCode::Storage => 8,
        ErrorCode::Corrupt => 9,
        ErrorCode::Eval => 10,
        ErrorCode::Io => 11,
        ErrorCode::ParamMismatch => 12,
        ErrorCode::TxnState => 13,
    }
}

/// Inverse of [`error_code_to_wire`].
pub fn error_code_from_wire(byte: u8) -> Result<ErrorCode> {
    Ok(match byte {
        0 => ErrorCode::Syntax,
        1 => ErrorCode::NotFound,
        2 => ErrorCode::AlreadyExists,
        3 => ErrorCode::TypeMismatch,
        4 => ErrorCode::Invalid,
        5 => ErrorCode::Unauthorized,
        6 => ErrorCode::Approval,
        7 => ErrorCode::Dependency,
        8 => ErrorCode::Storage,
        9 => ErrorCode::Corrupt,
        10 => ErrorCode::Eval,
        11 => ErrorCode::Io,
        12 => ErrorCode::ParamMismatch,
        13 => ErrorCode::TxnState,
        b => return Err(bad(format!("unknown error code byte {b}"))),
    })
}

fn bad(m: impl Into<String>) -> BdbmsError {
    BdbmsError::corrupt(format!("wire protocol: {}", m.into()))
}

/// A frame's payload must be consumed exactly.
fn done(c: &Cur<'_>) -> Result<()> {
    if !c.is_empty() {
        return Err(bad("trailing bytes in frame"));
    }
    Ok(())
}

// ---- row / result encoding ----

fn put_ann(out: &mut Vec<u8>, ann: &AnnOut) {
    put_str(out, &ann.source_table);
    put_str(out, &ann.ann_table);
    put_u64(out, ann.id);
    put_str(out, &ann.raw);
    put_u64(out, ann.created);
}

fn get_ann(c: &mut Cur<'_>) -> Result<AnnOut> {
    let source_table = c.str()?;
    let ann_table = c.str()?;
    let id = c.u64()?;
    let raw = c.str()?;
    let created = c.u64()?;
    // the parsed body is derived state — re-derive it client-side from
    // the raw text instead of shipping the tree
    let body = XmlNode::parse_or_wrap(&raw);
    Ok(AnnOut {
        source_table,
        ann_table,
        id,
        raw,
        body,
        created,
    })
}

fn put_row(out: &mut Vec<u8>, row: &AnnRow) {
    put_values(out, &row.values);
    put_u32(out, row.anns.len() as u32);
    for col in &row.anns {
        put_u32(out, col.len() as u32);
        for ann in col {
            put_ann(out, ann);
        }
    }
}

fn get_row(c: &mut Cur<'_>) -> Result<AnnRow> {
    let values = c.values()?;
    let ncols = c.u32()? as usize;
    let mut anns = Vec::with_capacity(ncols.min(1024));
    for _ in 0..ncols {
        let n = c.u32()? as usize;
        let mut col = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            col.push(std::rc::Rc::new(get_ann(c)?));
        }
        anns.push(col);
    }
    Ok(AnnRow { values, anns })
}

/// Executor counters, shipped with every `Result` frame so remote
/// clients see exactly what a local [`Session`](bdbms_core::Session)
/// reports (the local-vs-remote parity test pins this).
fn put_stats(out: &mut Vec<u8>, st: &ExecStats) {
    put_u64(out, st.rows_fetched);
    put_u64(out, st.rows_scan_filtered);
    put_u64(out, st.index_probes);
    put_u64(out, st.seq_index_probes);
    put_u64(out, st.full_scans);
    put_u64(out, st.index_only_scans);
    put_u64(out, st.anns_attached);
    put_u64(out, st.limit_pushdowns);
    put_u64(out, st.rows_limit_discarded);
    put_u64(out, st.scan_batches);
    put_u64(out, st.parse_ns);
    put_u64(out, st.plan_ns);
    put_u64(out, st.exec_ns);
    put_strs(out, &st.chosen_indexes);
    put_u32(out, st.join_order.len() as u32);
    for pos in &st.join_order {
        put_u64(out, *pos as u64);
    }
}

fn get_stats(c: &mut Cur<'_>) -> Result<ExecStats> {
    let mut st = ExecStats {
        rows_fetched: c.u64()?,
        rows_scan_filtered: c.u64()?,
        index_probes: c.u64()?,
        seq_index_probes: c.u64()?,
        full_scans: c.u64()?,
        index_only_scans: c.u64()?,
        anns_attached: c.u64()?,
        limit_pushdowns: c.u64()?,
        rows_limit_discarded: c.u64()?,
        scan_batches: c.u64()?,
        parse_ns: c.u64()?,
        plan_ns: c.u64()?,
        exec_ns: c.u64()?,
        chosen_indexes: c.strs()?,
        ..Default::default()
    };
    let n = c.u32()? as usize;
    st.join_order = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        st.join_order.push(c.u64()? as usize);
    }
    Ok(st)
}

fn put_result(out: &mut Vec<u8>, r: &QueryResult) {
    put_strs(out, &r.columns);
    put_u32(out, r.rows.len() as u32);
    for row in &r.rows {
        put_row(out, row);
    }
    put_u64(out, r.affected as u64);
    match &r.message {
        None => out.push(0),
        Some(m) => {
            out.push(1);
            put_str(out, m);
        }
    }
    match &r.stats {
        None => out.push(0),
        Some(st) => {
            out.push(1);
            put_stats(out, st);
        }
    }
}

fn get_result(c: &mut Cur<'_>) -> Result<QueryResult> {
    let columns = c.strs()?;
    let nrows = c.u32()? as usize;
    let mut rows = Vec::with_capacity(nrows.min(1024));
    for _ in 0..nrows {
        rows.push(get_row(c)?);
    }
    let affected = c.u64()? as usize;
    let message = match c.u8()? {
        0 => None,
        1 => Some(c.str()?),
        _ => return Err(bad("bad option tag")),
    };
    let stats = match c.u8()? {
        0 => None,
        1 => Some(get_stats(c)?),
        _ => return Err(bad("bad option tag")),
    };
    Ok(QueryResult {
        columns,
        rows,
        affected,
        message,
        stats,
    })
}

fn put_snapshot(out: &mut Vec<u8>, s: &MetricsSnapshot) {
    put_u32(out, s.counters.len() as u32);
    for (n, v) in &s.counters {
        put_str(out, n);
        put_u64(out, *v);
    }
    put_u32(out, s.gauges.len() as u32);
    for (n, v) in &s.gauges {
        put_str(out, n);
        put_u64(out, *v);
    }
    put_u32(out, s.histograms.len() as u32);
    for (n, h) in &s.histograms {
        put_str(out, n);
        put_u64(out, h.count);
        put_u64(out, h.sum);
        put_u32(out, h.buckets.len() as u32);
        for (bound, count) in &h.buckets {
            put_u64(out, *bound);
            put_u64(out, *count);
        }
    }
}

fn get_snapshot(c: &mut Cur<'_>) -> Result<MetricsSnapshot> {
    let n = c.u32()? as usize;
    let mut counters = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        counters.push((c.str()?, c.u64()?));
    }
    let n = c.u32()? as usize;
    let mut gauges = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        gauges.push((c.str()?, c.u64()?));
    }
    let n = c.u32()? as usize;
    let mut histograms = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = c.str()?;
        let count = c.u64()?;
        let sum = c.u64()?;
        let nb = c.u32()? as usize;
        let mut buckets = Vec::with_capacity(nb.min(1024));
        for _ in 0..nb {
            buckets.push((c.u64()?, c.u64()?));
        }
        histograms.push((
            name,
            HistogramSnapshot {
                count,
                sum,
                buckets,
            },
        ));
    }
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

fn put_error(out: &mut Vec<u8>, e: &BdbmsError) {
    out.push(error_code_to_wire(e.code));
    put_str(out, &e.message);
    match e.span {
        None => out.push(0),
        Some(Span { start, end }) => {
            out.push(1);
            put_u64(out, start as u64);
            put_u64(out, end as u64);
        }
    }
}

fn get_error(c: &mut Cur<'_>) -> Result<BdbmsError> {
    let code = error_code_from_wire(c.u8()?)?;
    let message = c.str()?;
    let span = match c.u8()? {
        0 => None,
        1 => {
            let start = c.u64()? as usize;
            let end = c.u64()? as usize;
            Some(Span::new(start, end))
        }
        _ => return Err(bad("bad option tag")),
    };
    Ok(BdbmsError {
        code,
        message,
        span,
    })
}

// ---- framing ----

fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<()> {
    let len = 1 + payload.len() as u32;
    if len > MAX_FRAME {
        return Err(bad(format!("frame too large ({len} bytes)")));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[kind])?;
    w.write_all(payload)?;
    Ok(())
}

/// Read one raw frame.  `Ok(None)` = clean EOF at a frame boundary.
fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>> {
    let mut lenb = [0u8; 4];
    // distinguish clean EOF (no bytes at all) from a torn frame
    match r.read(&mut lenb)? {
        0 => return Ok(None),
        n => r.read_exact(&mut lenb[n..])?,
    }
    let len = u32::from_le_bytes(lenb);
    if len == 0 || len > MAX_FRAME {
        return Err(bad(format!("bad frame length {len}")));
    }
    // the kind byte first, so the payload lands in its own buffer
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    let mut payload = vec![0u8; len as usize - 1];
    r.read_exact(&mut payload)?;
    Ok(Some((kind[0], payload)))
}

/// Write one request frame (caller flushes the stream).
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<()> {
    let mut p = Vec::new();
    let kind = match req {
        Request::Hello { user } => {
            put_u32(&mut p, PROTOCOL_VERSION);
            put_str(&mut p, user);
            K_HELLO
        }
        Request::Prepare { sql } => {
            put_str(&mut p, sql);
            K_PREPARE
        }
        Request::Execute { stmt, params } => {
            put_u64(&mut p, *stmt);
            put_values(&mut p, params);
            K_EXECUTE
        }
        Request::Query { stmt, params } => {
            put_u64(&mut p, *stmt);
            put_values(&mut p, params);
            K_QUERY
        }
        Request::QueryFetch {
            stmt,
            params,
            max_rows,
        } => {
            put_u64(&mut p, *stmt);
            put_values(&mut p, params);
            put_u32(&mut p, *max_rows);
            K_QUERY_FETCH
        }
        Request::Fetch { cursor, max_rows } => {
            put_u64(&mut p, *cursor);
            put_u32(&mut p, *max_rows);
            K_FETCH
        }
        Request::CloseStmt { stmt } => {
            put_u64(&mut p, *stmt);
            K_CLOSE_STMT
        }
        Request::CloseCursor { cursor } => {
            put_u64(&mut p, *cursor);
            K_CLOSE_CURSOR
        }
        Request::Run { sql } => {
            put_str(&mut p, sql);
            K_RUN
        }
        Request::SetUser { user } => {
            put_str(&mut p, user);
            K_SET_USER
        }
        Request::Ping => K_PING,
        Request::Quit => K_QUIT,
        Request::Metrics => K_METRICS,
    };
    write_frame(w, kind, &p)
}

/// Read one request frame.  `Ok(None)` = the peer closed cleanly.
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>> {
    let Some((kind, body)) = read_frame(r)? else {
        return Ok(None);
    };
    let mut c = Cur::new(&body);
    let req = match kind {
        K_HELLO => {
            let version = c.u32()?;
            if !(1..=PROTOCOL_VERSION).contains(&version) {
                return Err(bad(format!(
                    "protocol version mismatch: client {version}, server 1..={PROTOCOL_VERSION}"
                )));
            }
            Request::Hello { user: c.str()? }
        }
        K_PREPARE => Request::Prepare { sql: c.str()? },
        K_EXECUTE => Request::Execute {
            stmt: c.u64()?,
            params: c.values()?,
        },
        K_QUERY => Request::Query {
            stmt: c.u64()?,
            params: c.values()?,
        },
        K_QUERY_FETCH => Request::QueryFetch {
            stmt: c.u64()?,
            params: c.values()?,
            max_rows: c.u32()?,
        },
        K_FETCH => Request::Fetch {
            cursor: c.u64()?,
            max_rows: c.u32()?,
        },
        K_CLOSE_STMT => Request::CloseStmt { stmt: c.u64()? },
        K_CLOSE_CURSOR => Request::CloseCursor { cursor: c.u64()? },
        K_RUN => Request::Run { sql: c.str()? },
        K_SET_USER => Request::SetUser { user: c.str()? },
        K_PING => Request::Ping,
        K_QUIT => Request::Quit,
        K_METRICS => Request::Metrics,
        k => return Err(bad(format!("unknown request kind {k:#x}"))),
    };
    done(&c)?;
    Ok(Some(req))
}

/// Write one response frame (caller flushes the stream).
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<()> {
    let mut p = Vec::new();
    let kind = match resp {
        Response::HelloOk { version, server } => {
            put_u32(&mut p, *version);
            put_str(&mut p, server);
            K_HELLO_OK
        }
        Response::PrepareOk {
            stmt,
            param_count,
            in_txn,
        } => {
            put_u64(&mut p, *stmt);
            put_u32(&mut p, *param_count);
            put_bool(&mut p, *in_txn);
            K_PREPARE_OK
        }
        Response::Result { result, in_txn } => {
            put_result(&mut p, result);
            put_bool(&mut p, *in_txn);
            K_RESULT
        }
        Response::CursorOk {
            cursor,
            columns,
            in_txn,
        } => {
            put_u64(&mut p, *cursor);
            put_strs(&mut p, columns);
            put_bool(&mut p, *in_txn);
            K_CURSOR_OK
        }
        Response::RowBatch { rows, done } => {
            put_u32(&mut p, rows.len() as u32);
            for row in rows {
                put_row(&mut p, row);
            }
            put_bool(&mut p, *done);
            K_ROW_BATCH
        }
        Response::Ok { in_txn } => {
            put_bool(&mut p, *in_txn);
            K_OK
        }
        Response::Pong => K_PONG,
        Response::Bye => K_BYE,
        Response::Metrics { snapshot } => {
            put_snapshot(&mut p, snapshot);
            K_METRICS_OK
        }
        Response::Error { error, in_txn } => {
            put_error(&mut p, error);
            put_bool(&mut p, *in_txn);
            K_ERROR
        }
    };
    write_frame(w, kind, &p)
}

/// Read one response frame.  EOF is an error here — the server must
/// answer every request (a vanished server mid-commit is precisely the
/// unknown-outcome case clients must see loudly).
pub fn read_response(r: &mut impl Read) -> Result<Response> {
    let Some((kind, body)) = read_frame(r)? else {
        return Err(BdbmsError::io("connection closed by server"));
    };
    let mut c = Cur::new(&body);
    let resp = match kind {
        K_HELLO_OK => Response::HelloOk {
            version: c.u32()?,
            server: c.str()?,
        },
        K_PREPARE_OK => Response::PrepareOk {
            stmt: c.u64()?,
            param_count: c.u32()?,
            in_txn: c.bool()?,
        },
        K_RESULT => Response::Result {
            result: get_result(&mut c)?,
            in_txn: c.bool()?,
        },
        K_CURSOR_OK => Response::CursorOk {
            cursor: c.u64()?,
            columns: c.strs()?,
            in_txn: c.bool()?,
        },
        K_ROW_BATCH => {
            let n = c.u32()? as usize;
            let mut rows = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                rows.push(get_row(&mut c)?);
            }
            Response::RowBatch {
                rows,
                done: c.bool()?,
            }
        }
        K_OK => Response::Ok { in_txn: c.bool()? },
        K_PONG => Response::Pong,
        K_BYE => Response::Bye,
        K_METRICS_OK => Response::Metrics {
            snapshot: get_snapshot(&mut c)?,
        },
        K_ERROR => Response::Error {
            error: get_error(&mut c)?,
            in_txn: c.bool()?,
        },
        k => return Err(bad(format!("unknown response kind {k:#x}"))),
    };
    done(&c)?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    fn roundtrip_req(req: Request) {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let back = read_request(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back, req);
    }

    fn roundtrip_resp(resp: Response) {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let back = read_response(&mut buf.as_slice()).unwrap();
        // results/rows carry Rc-shared parsed annotation bodies without
        // PartialEq; structural Debug equality is exactly the lossless-
        // round-trip claim being tested
        assert_eq!(format!("{back:?}"), format!("{resp:?}"));
    }

    #[test]
    fn requests_round_trip() {
        roundtrip_req(Request::Hello {
            user: "admin".into(),
        });
        roundtrip_req(Request::Prepare {
            sql: "SELECT * FROM Gene WHERE Len = ?".into(),
        });
        roundtrip_req(Request::Execute {
            stmt: 3,
            params: vec![
                Value::Null,
                Value::Int(-7),
                Value::Float(2.5),
                Value::Text("mraW".into()),
                Value::Bool(true),
                Value::Timestamp(99),
            ],
        });
        roundtrip_req(Request::Query {
            stmt: 9,
            params: vec![],
        });
        roundtrip_req(Request::QueryFetch {
            stmt: 9,
            params: vec![Value::Int(42), Value::Text("JW0080".into())],
            max_rows: DEFAULT_FETCH_ROWS,
        });
        roundtrip_req(Request::Fetch {
            cursor: 4,
            max_rows: 128,
        });
        roundtrip_req(Request::CloseStmt { stmt: 3 });
        roundtrip_req(Request::CloseCursor { cursor: 4 });
        roundtrip_req(Request::Run {
            sql: "BEGIN".into(),
        });
        roundtrip_req(Request::SetUser {
            user: "alice".into(),
        });
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Quit);
        roundtrip_req(Request::Metrics);
    }

    /// A `Hello` frame announcing `version` (the frame is
    /// `len || kind || version || user`).
    fn hello_at(version: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::Hello {
                user: "admin".into(),
            },
        )
        .unwrap();
        buf[5..9].copy_from_slice(&version.to_le_bytes());
        buf
    }

    #[test]
    fn hello_accepts_every_version_up_to_ours() {
        assert_eq!(PROTOCOL_VERSION, 2);
        for version in 1..=PROTOCOL_VERSION {
            let got = read_request(&mut hello_at(version).as_slice()).unwrap();
            assert_eq!(
                got,
                Some(Request::Hello {
                    user: "admin".into()
                })
            );
        }
        for version in [0, PROTOCOL_VERSION + 1] {
            let err = read_request(&mut hello_at(version).as_slice()).unwrap_err();
            assert!(err.message.contains("protocol version"), "{err}");
        }
    }

    #[test]
    fn exec_stats_round_trip() {
        let result = QueryResult {
            columns: vec!["x".into()],
            rows: vec![],
            affected: 0,
            message: None,
            stats: Some(ExecStats {
                rows_fetched: 10,
                rows_scan_filtered: 3,
                index_probes: 2,
                seq_index_probes: 1,
                full_scans: 4,
                index_only_scans: 1,
                anns_attached: 7,
                chosen_indexes: vec!["gene_gid".into()],
                join_order: vec![1, 0],
                limit_pushdowns: 1,
                rows_limit_discarded: 5,
                scan_batches: 6,
                parse_ns: 1_000,
                plan_ns: 2_000,
                exec_ns: 3_000,
            }),
        };
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &Response::Result {
                result: result.clone(),
                in_txn: false,
            },
        )
        .unwrap();
        let Response::Result { result: got, .. } = read_response(&mut buf.as_slice()).unwrap()
        else {
            panic!("wrong frame");
        };
        assert_eq!(got.stats, result.stats);
    }

    #[test]
    fn metrics_snapshot_round_trips() {
        let snapshot = MetricsSnapshot {
            counters: vec![("buffer.hits".into(), 42), ("txn.commits".into(), 7)],
            gauges: vec![("group.fsync_ema_ns".into(), 125_000)],
            histograms: vec![(
                "wal.fsync_latency_ns".into(),
                HistogramSnapshot {
                    count: 3,
                    sum: 300_000,
                    buckets: vec![(131_071, 3)],
                },
            )],
        };
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &Response::Metrics {
                snapshot: snapshot.clone(),
            },
        )
        .unwrap();
        let Response::Metrics { snapshot: got } = read_response(&mut buf.as_slice()).unwrap()
        else {
            panic!("wrong frame");
        };
        assert_eq!(got, snapshot);
    }

    #[test]
    fn responses_round_trip() {
        roundtrip_resp(Response::HelloOk {
            version: PROTOCOL_VERSION,
            server: "bdbms 0.1.0".into(),
        });
        roundtrip_resp(Response::PrepareOk {
            stmt: 1,
            param_count: 2,
            in_txn: false,
        });
        roundtrip_resp(Response::CursorOk {
            cursor: 7,
            columns: vec!["GID".into(), "GName".into()],
            in_txn: true,
        });
        roundtrip_resp(Response::Ok { in_txn: false });
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Bye);
    }

    #[test]
    fn annotated_rows_round_trip() {
        let ann = Rc::new(AnnOut {
            source_table: "DB2_Gene".into(),
            ann_table: "GAnnotation".into(),
            id: 12,
            raw: "<Annotation>obtained from GenoBase</Annotation>".into(),
            body: XmlNode::parse_or_wrap("<Annotation>obtained from GenoBase</Annotation>"),
            created: 42,
        });
        let mut row = AnnRow::plain(vec![Value::Text("JW0080".into()), Value::Int(11)]);
        row.anns[0].push(ann.clone());
        row.anns[0].push(ann.clone());
        let result = QueryResult {
            columns: vec!["GID".into(), "Len".into()],
            rows: vec![row.clone(), AnnRow::plain(vec![Value::Null, Value::Null])],
            affected: 0,
            message: Some("ok".into()),
            stats: None,
        };
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &Response::Result {
                result: result.clone(),
                in_txn: false,
            },
        )
        .unwrap();
        let back = read_response(&mut buf.as_slice()).unwrap();
        let Response::Result { result: got, .. } = back else {
            panic!("wrong frame");
        };
        assert_eq!(got.columns, result.columns);
        assert_eq!(got.rows.len(), 2);
        assert_eq!(got.rows[0].values, row.values);
        // annotation body is re-derived from raw text and must match
        let got_ann = &got.rows[0].anns[0][0];
        assert_eq!(got_ann.identity(), ann.identity());
        assert_eq!(got_ann.text(), "obtained from GenoBase");
        assert_eq!(got_ann.created, 42);
        roundtrip_resp(Response::RowBatch {
            rows: vec![row],
            done: true,
        });
    }

    /// The acceptance-criteria test: every [`ErrorCode`] variant and the
    /// span round-trip exactly through an error frame.
    #[test]
    fn every_error_code_round_trips() {
        for (i, code) in ErrorCode::ALL.into_iter().enumerate() {
            // wire bytes are stable and distinct
            assert_eq!(error_code_to_wire(code), i as u8);
            assert_eq!(error_code_from_wire(i as u8).unwrap(), code);

            for span in [None, Some(Span::new(7, 19))] {
                let error = BdbmsError {
                    code,
                    message: format!("synthetic {} failure", code.as_str()),
                    span,
                };
                let resp = Response::Error {
                    error: error.clone(),
                    in_txn: true,
                };
                let mut buf = Vec::new();
                write_response(&mut buf, &resp).unwrap();
                let Response::Error { error: got, in_txn } =
                    read_response(&mut buf.as_slice()).unwrap()
                else {
                    panic!("wrong frame");
                };
                assert_eq!(got, error, "lossy round-trip for {code:?}");
                assert!(in_txn);
            }
        }
        assert!(error_code_from_wire(14).is_err());
    }

    #[test]
    fn clean_eof_is_none_torn_frame_is_error() {
        let mut empty: &[u8] = &[];
        assert!(read_request(&mut empty).unwrap().is_none());

        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        // length prefix present but the body is missing: torn frame
        let mut torn: &[u8] = &buf[..4];
        assert!(read_request(&mut torn).is_err());
        // partial length prefix: also torn
        let mut short: &[u8] = &buf[..3];
        assert!(read_request(&mut short).is_err());
    }

    #[test]
    fn oversized_and_garbage_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.push(K_PING);
        assert!(read_request(&mut buf.as_slice()).is_err());

        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0x7F, 0x00]); // unknown kind
        assert!(read_request(&mut buf.as_slice()).is_err());
    }

    fn query_fetch_sample() -> Request {
        Request::QueryFetch {
            stmt: 7,
            params: vec![Value::Int(42), Value::Text("JW0080".into()), Value::Null],
            max_rows: 256,
        }
    }

    fn row_batch_sample() -> Response {
        let mut row = AnnRow::plain(vec![Value::Text("JW0080".into()), Value::Int(11)]);
        row.anns[1].push(Rc::new(AnnOut {
            source_table: "Gene".into(),
            ann_table: "GAnn".into(),
            id: 3,
            raw: "<A>x</A>".into(),
            body: XmlNode::parse_or_wrap("<A>x</A>"),
            created: 9,
        }));
        Response::RowBatch {
            rows: vec![row],
            done: true,
        }
    }

    /// Literal frame bytes.  The round-trip tests above would still pass
    /// if writer and reader changed format together; these pin the
    /// format itself.
    #[test]
    fn golden_frame_bytes() {
        #[rustfmt::skip]
        let query_fetch: &[u8] = &[
            38, 0, 0, 0, K_QUERY_FETCH,
            7, 0, 0, 0, 0, 0, 0, 0, // stmt
            3, 0, 0, 0, // three params
            1, 42, 0, 0, 0, 0, 0, 0, 0, // Int(42)
            3, 6, 0, 0, 0, b'J', b'W', b'0', b'0', b'8', b'0', // Text
            0, // Null
            0, 1, 0, 0, // max_rows
        ];
        let mut buf = Vec::new();
        write_request(&mut buf, &query_fetch_sample()).unwrap();
        assert_eq!(buf, query_fetch);
        assert_eq!(
            read_request(&mut &query_fetch[..]).unwrap(),
            Some(query_fetch_sample())
        );

        #[rustfmt::skip]
        let row_batch: &[u8] = &[
            86, 0, 0, 0, K_ROW_BATCH,
            1, 0, 0, 0, // one row
            2, 0, 0, 0, // two values
            3, 6, 0, 0, 0, b'J', b'W', b'0', b'0', b'8', b'0',
            1, 11, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, // two annotation columns
            0, 0, 0, 0, // none on the first
            1, 0, 0, 0, // one on the second
            4, 0, 0, 0, b'G', b'e', b'n', b'e',
            4, 0, 0, 0, b'G', b'A', b'n', b'n',
            3, 0, 0, 0, 0, 0, 0, 0, // id
            8, 0, 0, 0, b'<', b'A', b'>', b'x', b'<', b'/', b'A', b'>',
            9, 0, 0, 0, 0, 0, 0, 0, // created
            1, // done
        ];
        let mut buf = Vec::new();
        write_response(&mut buf, &row_batch_sample()).unwrap();
        assert_eq!(buf, row_batch);
        let back = read_response(&mut &row_batch[..]).unwrap();
        assert_eq!(format!("{back:?}"), format!("{:?}", row_batch_sample()));
    }

    #[test]
    fn truncated_values_are_corrupt() {
        let mut buf = Vec::new();
        write_request(&mut buf, &query_fetch_sample()).unwrap();
        // cut the Text param short and fix up the frame length: the
        // payload decoder, not the framing, must reject it
        let cut = 30;
        let mut torn = buf[..cut].to_vec();
        torn[..4].copy_from_slice(&(cut as u32 - 4).to_le_bytes());
        let err = read_request(&mut torn.as_slice()).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Corrupt, "{err}");
    }

    use proptest::prelude::*;

    /// One well-formed frame of each payload-bearing shape, for the
    /// mutation fuzz to damage.
    fn sample_frames() -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let mut buf = Vec::new();
        write_request(&mut buf, &query_fetch_sample()).unwrap();
        frames.push(buf);
        for resp in [
            row_batch_sample(),
            Response::Result {
                result: QueryResult {
                    columns: vec!["GID".into()],
                    rows: vec![AnnRow::plain(vec![Value::Float(2.5)])],
                    affected: 1,
                    message: Some("ok".into()),
                    stats: Some(ExecStats {
                        chosen_indexes: vec!["gid_idx".into()],
                        join_order: vec![0],
                        ..Default::default()
                    }),
                },
                in_txn: true,
            },
            Response::CursorOk {
                cursor: 1,
                columns: vec!["a".into(), "b".into()],
                in_txn: false,
            },
            Response::Error {
                error: BdbmsError {
                    code: ErrorCode::Syntax,
                    message: "near FROM".into(),
                    span: Some(Span::new(3, 7)),
                },
                in_txn: false,
            },
        ] {
            let mut buf = Vec::new();
            write_response(&mut buf, &resp).unwrap();
            frames.push(buf);
        }
        frames
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Socket bytes are outside input: whatever arrives — a garbage
        /// length prefix, a valid frame header over a garbage payload,
        /// or a real frame with one byte flipped — decoding returns `Ok`
        /// or `Err` and never panics.
        #[test]
        fn wire_decode_never_panics(
            raw in prop::collection::vec(any::<u8>(), 0..64),
            kind in prop::sample::select(vec![
                K_HELLO, K_PREPARE, K_EXECUTE, K_QUERY, K_FETCH, K_CLOSE_STMT,
                K_CLOSE_CURSOR, K_RUN, K_SET_USER, K_PING, K_QUIT, K_METRICS,
                K_QUERY_FETCH, K_HELLO_OK, K_PREPARE_OK, K_RESULT, K_CURSOR_OK,
                K_ROW_BATCH, K_OK, K_PONG, K_BYE, K_METRICS_OK, K_ERROR,
            ]),
            payload in prop::collection::vec(any::<u8>(), 0..96),
            pos_seed in any::<u64>(),
            flip in 1u8..=255,
        ) {
            let _ = read_request(&mut raw.as_slice());
            let _ = read_response(&mut raw.as_slice());

            let mut framed = (1 + payload.len() as u32).to_le_bytes().to_vec();
            framed.push(kind);
            framed.extend_from_slice(&payload);
            let _ = read_request(&mut framed.as_slice());
            let _ = read_response(&mut framed.as_slice());

            for mut frame in sample_frames() {
                let pos = (pos_seed % frame.len() as u64) as usize;
                frame[pos] ^= flip;
                let _ = read_request(&mut frame.as_slice());
                let _ = read_response(&mut frame.as_slice());
            }
        }
    }
}
