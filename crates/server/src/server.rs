//! The TCP front end: accept loop and per-connection reader threads.
//!
//! Each accepted socket gets a *reader* thread that decodes request
//! frames and forwards them to the [`Engine`].
//! Replies never come back through the reader: the engine (or, for
//! commits waiting on their durability barrier, its ack pump) writes
//! response frames straight to the socket.  A slow fsync therefore
//! stalls only the clients that committed, while the engine keeps
//! executing other connections' statements — and their commits pile
//! onto the same upcoming fsync, which is the group-commit win.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;

use bdbms_common::{BdbmsError, Result};

use crate::engine::{Cmd, Engine, EngineConfig, EngineRequest};
use crate::proto::{read_request, write_response, Request, Response};

/// Server configuration.
pub struct ServerConfig {
    /// Database directory (created on first boot).
    pub db_path: PathBuf,
    /// Listen address, e.g. `127.0.0.1:4411` (`:0` picks a free port).
    pub listen: String,
    /// Arm group commit (the default; off for baseline measurements).
    pub group_commit: bool,
}

impl ServerConfig {
    /// Defaults: group commit on.
    pub fn new(db_path: impl Into<PathBuf>, listen: impl Into<String>) -> ServerConfig {
        ServerConfig {
            db_path: db_path.into(),
            listen: listen.into(),
            group_commit: true,
        }
    }
}

/// A running server: an engine thread, an accept thread, and one
/// handler thread per live connection.
pub struct Server {
    addr: SocketAddr,
    engine: Option<Engine>,
    accept: Option<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind, open the database, and start accepting connections.
    pub fn start(cfg: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&cfg.listen)
            .map_err(|e| BdbmsError::io(format!("bind {}: {e}", cfg.listen)))?;
        let addr = listener.local_addr()?;
        let engine = Engine::start(EngineConfig {
            path: cfg.db_path,
            group_commit: cfg.group_commit,
        })?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let engine_tx = engine.sender();
        let stop_flag = shutdown.clone();
        let accept = std::thread::Builder::new()
            .name("bdbms-accept".to_string())
            .spawn(move || {
                let next_conn = AtomicU64::new(1);
                for stream in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // reply frames are small and latency-bound; Nagle
                    // would hold them hostage to the client's ACKs
                    let _ = stream.set_nodelay(true);
                    let conn = next_conn.fetch_add(1, Ordering::Relaxed);
                    let tx = engine_tx.clone();
                    let _ = std::thread::Builder::new()
                        .name(format!("bdbms-conn-{conn}"))
                        .spawn(move || serve_conn(stream, conn, tx));
                }
            })
            .map_err(|e| BdbmsError::io(format!("spawning accept thread: {e}")))?;

        Ok(Server {
            addr,
            engine: Some(engine),
            accept: Some(accept),
            shutdown,
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total WAL fsyncs issued so far (the e14 experiment's numerator).
    pub fn fsync_count(&self) -> u64 {
        self.engine.as_ref().map(|e| e.fsync_count()).unwrap_or(0)
    }

    /// Block forever serving connections (the `bdbms-serve` main loop).
    pub fn serve_forever(mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }

    /// Graceful stop: stop accepting, then join the engine once every
    /// connected client has disconnected.  Clients that never say
    /// goodbye keep their handler threads (and thus the engine) alive —
    /// callers that need a hard stop kill the process instead, which is
    /// exactly what the crash suite does.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // unblock the accept loop with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(engine) = self.engine.take() {
            engine.stop();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// One connection's reader loop.  Strictly sequential per connection:
/// decode a frame, forward it, read the next.  The engine writes the
/// replies — the reader answers directly only for `Ping`/`Quit` and
/// engine-is-gone errors, which is safe because the protocol allows at
/// most one outstanding request per connection (so no engine write can
/// be in flight for this socket at that moment).
fn serve_conn(stream: TcpStream, conn: u64, engine: Sender<EngineRequest>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let stream = Arc::new(stream);
    if engine
        .send(EngineRequest {
            conn,
            cmd: Cmd::Connect {
                stream: stream.clone(),
            },
        })
        .is_err()
    {
        let _ = write_direct(
            &stream,
            &Response::Error {
                error: BdbmsError::io("server is shutting down"),
                in_txn: false,
            },
        );
        return;
    }

    // runs until EOF or a torn/garbage frame ends the connection
    while let Ok(Some(req)) = read_request(&mut reader) {
        let cmd = match req {
            // liveness probes skip the engine round-trip entirely
            Request::Ping => {
                if write_direct(&stream, &Response::Pong).is_err() {
                    break;
                }
                continue;
            }
            Request::Quit => {
                let _ = write_direct(&stream, &Response::Bye);
                break;
            }
            Request::Hello { user } => Cmd::Hello { user },
            Request::Prepare { sql } => Cmd::Prepare { sql },
            Request::Execute { stmt, params } => Cmd::Execute { stmt, params },
            Request::Query { stmt, params } => Cmd::Query {
                stmt,
                params,
                first: None,
            },
            Request::QueryFetch {
                stmt,
                params,
                max_rows,
            } => Cmd::Query {
                stmt,
                params,
                first: Some(max_rows),
            },
            Request::Fetch { cursor, max_rows } => Cmd::Fetch { cursor, max_rows },
            Request::CloseStmt { stmt } => Cmd::CloseStmt { stmt },
            Request::CloseCursor { cursor } => Cmd::CloseCursor { cursor },
            Request::Run { sql } => Cmd::Run { sql },
            Request::SetUser { user } => Cmd::SetUser { user },
            Request::Metrics => Cmd::Metrics,
        };
        if engine.send(EngineRequest { conn, cmd }).is_err() {
            // engine is gone; tell the client and hang up
            let _ = write_direct(
                &stream,
                &Response::Error {
                    error: BdbmsError::io("server is shutting down"),
                    in_txn: false,
                },
            );
            break;
        }
    }
    let _ = engine.send(EngineRequest {
        conn,
        cmd: Cmd::Disconnect,
    });
}

/// Encode and write one response as a single `write(2)`.
fn write_direct(stream: &TcpStream, resp: &Response) -> Result<()> {
    let mut buf = Vec::new();
    write_response(&mut buf, resp)?;
    let mut w: &TcpStream = stream;
    w.write_all(&buf)?;
    Ok(())
}
