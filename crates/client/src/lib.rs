//! # bdbms-client
//!
//! The remote half of the transport-agnostic client API
//! ([`bdbms_core::client`]): [`RemoteConnection`] implements
//! [`Connection`] over the wire protocol in [`bdbms_server::proto`], so
//! everything written against the trait — the REPL, the CLI, bench
//! drivers — runs unchanged against an embedded database or a
//! `bdbms-serve` process.  A query is sent as `QueryFetch`, whose reply
//! carries the first row batch, so a point read is one round trip;
//! longer results page the rest with `Fetch`.
//!
//! [`connect`] is the front door: it takes either a filesystem path
//! (embedded) or a `host:port` address (remote) and hands back a boxed
//! [`Connection`].

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;

use bdbms_common::metrics::MetricsSnapshot;
use bdbms_common::{BdbmsError, Result, Value};
use bdbms_core::client::{Connection, Rows, StatementHandle};
use bdbms_core::result::{AnnRow, QueryResult};
use bdbms_core::{Database, LocalConnection};
use bdbms_server::proto::{read_response, write_request, Request, Response, DEFAULT_FETCH_ROWS};

pub mod shell;

/// Where a connection target points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// A database directory on this machine (embedded engine).
    Local(String),
    /// A `host:port` address of a `bdbms-serve` process.
    Remote(String),
}

/// Classify a connection target: `host:port` (a valid `u16` port after
/// the last colon, no path separators) means remote; anything else is a
/// local database path.  `./4411`-style paths and Windows drive letters
/// stay local because of the separator check.
pub fn parse_target(s: &str) -> Target {
    if let Some((host, port)) = s.rsplit_once(':') {
        let pathy = host.is_empty() || host.contains('/') || host.contains('\\');
        if !pathy && port.parse::<u16>().is_ok() {
            return Target::Remote(s.to_string());
        }
    }
    Target::Local(s.to_string())
}

/// Open a connection to `target` as `user`: a [`RemoteConnection`] for
/// `host:port`, otherwise a [`LocalConnection`] over the database
/// directory at the path (opened if present, created if not).
pub fn connect(target: &str, user: &str) -> Result<Box<dyn Connection>> {
    match parse_target(target) {
        Target::Remote(addr) => Ok(Box::new(RemoteConnection::connect(&addr, user)?)),
        Target::Local(path) => Ok(Box::new(LocalConnection::new(
            Database::open_or_create(&path)?,
            user,
        ))),
    }
}

fn unexpected(resp: &Response) -> BdbmsError {
    BdbmsError::corrupt(format!("unexpected response frame {resp:?}"))
}

fn backend_mismatch() -> BdbmsError {
    BdbmsError::invalid("statement was prepared on a different connection backend")
}

/// A [`Connection`] over TCP to a `bdbms-serve` process.
///
/// Strictly synchronous: one request frame out, one reply back — one
/// response frame, or for [`query`](Connection::query) (sent as
/// `QueryFetch`) `CursorOk` plus the first row batch, so a result of up
/// to [`DEFAULT_FETCH_ROWS`] rows costs one round trip.  The
/// explicit-transaction flag piggybacked on every response
/// keeps [`in_transaction`](Connection::in_transaction) — and the
/// REPL's `*` prompt — mirroring the server-side session state.
pub struct RemoteConnection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    addr: String,
    user: String,
    in_txn: bool,
    closed: bool,
}

impl RemoteConnection {
    /// Connect and authenticate (`Hello`) as `user`.
    pub fn connect(addr: &str, user: &str) -> Result<RemoteConnection> {
        let stream =
            TcpStream::connect(addr).map_err(|e| BdbmsError::io(format!("connect {addr}: {e}")))?;
        // request/response frames are small; don't let Nagle batch them
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut conn = RemoteConnection {
            reader,
            writer,
            addr: addr.to_string(),
            user: user.to_string(),
            in_txn: false,
            closed: false,
        };
        match conn.roundtrip(&Request::Hello {
            user: user.to_string(),
        })? {
            Response::HelloOk { .. } => Ok(conn),
            other => Err(unexpected(&other)),
        }
    }

    /// The address this connection points at.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One synchronous request/response exchange.  Error frames come
    /// back as `Err` with the engine's exact [`BdbmsError`]; the
    /// transaction flag is folded into local state either way.
    fn roundtrip(&mut self, req: &Request) -> Result<Response> {
        if self.closed {
            return Err(BdbmsError::io("connection is closed"));
        }
        write_request(&mut self.writer, req)?;
        self.writer.flush()?;
        self.read_reply()
    }

    /// Read one response frame, folding its transaction flag into local
    /// state and turning an error frame into `Err`.
    fn read_reply(&mut self) -> Result<Response> {
        let resp = read_response(&mut self.reader)?;
        if let Some(t) = resp.in_txn() {
            self.in_txn = t;
        }
        if let Response::Error { error, .. } = resp {
            return Err(error);
        }
        Ok(resp)
    }
}

impl Connection for RemoteConnection {
    fn describe(&self) -> String {
        format!("remote server at {}", self.addr)
    }

    fn user(&self) -> &str {
        &self.user
    }

    fn set_user(&mut self, user: &str) -> Result<()> {
        match self.roundtrip(&Request::SetUser {
            user: user.to_string(),
        })? {
            Response::Ok { .. } => {
                self.user = user.to_string();
                Ok(())
            }
            other => Err(unexpected(&other)),
        }
    }

    fn prepare(&mut self, sql: &str) -> Result<StatementHandle> {
        match self.roundtrip(&Request::Prepare {
            sql: sql.to_string(),
        })? {
            Response::PrepareOk {
                stmt, param_count, ..
            } => Ok(StatementHandle::remote(stmt, param_count as usize, sql)),
            other => Err(unexpected(&other)),
        }
    }

    fn execute(&mut self, stmt: &StatementHandle, params: &[Value]) -> Result<QueryResult> {
        let id = stmt.remote_id().ok_or_else(backend_mismatch)?;
        match self.roundtrip(&Request::Execute {
            stmt: id,
            params: params.to_vec(),
        })? {
            Response::Result { result, .. } => Ok(result),
            other => Err(unexpected(&other)),
        }
    }

    fn query<'c>(
        &'c mut self,
        stmt: &StatementHandle,
        params: &[Value],
    ) -> Result<Box<dyn Rows + 'c>> {
        let id = stmt.remote_id().ok_or_else(backend_mismatch)?;
        let (cursor, columns) = match self.roundtrip(&Request::QueryFetch {
            stmt: id,
            params: params.to_vec(),
            max_rows: DEFAULT_FETCH_ROWS,
        })? {
            Response::CursorOk {
                cursor, columns, ..
            } => (cursor, columns),
            other => return Err(unexpected(&other)),
        };
        // the first batch follows CursorOk in the same reply
        match self.read_reply()? {
            Response::RowBatch { rows, done } => Ok(Box::new(RemoteRows {
                conn: self,
                cursor,
                columns,
                buf: rows.into(),
                done,
            })),
            other => Err(unexpected(&other)),
        }
    }

    fn run(&mut self, sql: &str) -> Result<QueryResult> {
        match self.roundtrip(&Request::Run {
            sql: sql.to_string(),
        })? {
            Response::Result { result, .. } => Ok(result),
            other => Err(unexpected(&other)),
        }
    }

    fn in_transaction(&self) -> bool {
        self.in_txn
    }

    fn metrics(&mut self) -> Result<MetricsSnapshot> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics { snapshot } => Ok(snapshot),
            other => Err(unexpected(&other)),
        }
    }

    fn close(&mut self) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        write_request(&mut self.writer, &Request::Quit)?;
        self.writer.flush()?;
        // consume the Bye so the peer sees an orderly goodbye
        let _ = read_response(&mut self.reader);
        self.closed = true;
        Ok(())
    }
}

impl Drop for RemoteConnection {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// Rows streaming off a server-side cursor: the first
/// [`DEFAULT_FETCH_ROWS`] arrive with the query's reply, the rest are
/// paged in batches of that size as the client pulls.
pub struct RemoteRows<'c> {
    conn: &'c mut RemoteConnection,
    cursor: u64,
    columns: Vec<String>,
    buf: VecDeque<AnnRow>,
    done: bool,
}

impl Rows for RemoteRows<'_> {
    fn columns(&self) -> &[String] {
        &self.columns
    }

    fn next_row(&mut self) -> Result<Option<AnnRow>> {
        loop {
            if let Some(row) = self.buf.pop_front() {
                return Ok(Some(row));
            }
            if self.done {
                return Ok(None);
            }
            match self.conn.roundtrip(&Request::Fetch {
                cursor: self.cursor,
                max_rows: DEFAULT_FETCH_ROWS,
            })? {
                Response::RowBatch { rows, done } => {
                    self.buf.extend(rows);
                    self.done = done;
                }
                other => return Err(unexpected(&other)),
            }
        }
    }
}

impl Drop for RemoteRows<'_> {
    fn drop(&mut self) {
        if !self.done {
            // free the server-side cursor; the ack must be consumed to
            // keep the request/response stream aligned
            let _ = self.conn.roundtrip(&Request::CloseCursor {
                cursor: self.cursor,
            });
            self.done = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_classification() {
        assert_eq!(
            parse_target("127.0.0.1:4411"),
            Target::Remote("127.0.0.1:4411".into())
        );
        assert_eq!(
            parse_target("localhost:9"),
            Target::Remote("localhost:9".into())
        );
        assert_eq!(
            parse_target("mydb.bdbms"),
            Target::Local("mydb.bdbms".into())
        );
        assert_eq!(
            parse_target("./data/4411"),
            Target::Local("./data/4411".into())
        );
        assert_eq!(
            parse_target("dir/host:4411"),
            Target::Local("dir/host:4411".into())
        );
        assert_eq!(
            parse_target("host:notaport"),
            Target::Local("host:notaport".into())
        );
        assert_eq!(parse_target(":4411"), Target::Local(":4411".into()));
    }
}
