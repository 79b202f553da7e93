//! E14 — wire-protocol server: group-commit throughput and fsync
//! amortization under concurrent clients.
//!
//! Not a paper figure: this experiment gates the server tier the ROADMAP
//! added on top of the embedded engine.  It boots an in-process
//! [`bdbms_server::Server`] on a durable database (`Durability::Full`,
//! one WAL fsync required per acknowledged commit) and compares:
//!
//! * **sequential commits** — one client performing every commit
//!   back-to-back, the degenerate group of one: each commit pays a full
//!   fsync round-trip;
//! * **group commit** — the same total number of commits issued by 16
//!   concurrent clients: the engine keeps appending while the flusher
//!   fsyncs, so one fsync acknowledges every commit that reached the
//!   log before it;
//! * **point reads** — the same client fleet running prepared point
//!   reads, concurrent vs sequential, to show reads pipeline through
//!   the single engine thread too.
//!
//! The gated numbers (see `scripts/check_perf.py --id e14`, which also
//! applies *absolute* floors to this table): group commit must deliver
//! ≥4x the sequential commit throughput, and ≥4 commits per fsync
//! (i.e. ≤0.25 fsyncs per acknowledged commit).

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bdbms_client::RemoteConnection;
use bdbms_common::Value;
use bdbms_core::client::Connection;
use bdbms_core::Database;
use bdbms_server::proto::{read_response, write_request, Request, Response};
use bdbms_server::{Server, ServerConfig};

use crate::report::{ratio, Report};

/// A booted server on its own scratch directory.
struct Harness {
    server: Option<Server>,
    addr: String,
    dir: PathBuf,
}

impl Harness {
    fn start(name: &str) -> Harness {
        static SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bdbms-e14-{}-{}-{name}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let server =
            Server::start(ServerConfig::new(&dir, "127.0.0.1:0")).expect("boot bench server");
        let addr = server.local_addr().to_string();
        Harness {
            server: Some(server),
            addr,
            dir,
        }
    }

    fn connect(&self) -> RemoteConnection {
        RemoteConnection::connect(&self.addr, "admin").expect("bench client connect")
    }

    fn fsyncs(&self) -> u64 {
        self.server.as_ref().unwrap().fsync_count()
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The pre-server status quo: one embedded session (the only way the
/// single-threaded core can be driven) committing `total` single-row
/// INSERTs back-to-back under `Durability::Full` — every commit pays
/// its own fsync before the next one can start.  This is what "16
/// clients" amounted to before the wire protocol existed: sixteen
/// workers taking turns on one `Database`.  Returns (elapsed, fsyncs).
fn embedded_sequential_commits(total: usize) -> (Duration, u64) {
    static SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bdbms-e14-embedded-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::create(&dir).expect("embedded bench db");
    db.execute("CREATE TABLE Commits (K INT, Who TEXT)")
        .unwrap();
    let fsyncs = db.wal_sync_counter().expect("durable db has a WAL");
    let mut session = db.session("admin");
    let ins = session
        .prepare("INSERT INTO Commits VALUES (?, ?)")
        .unwrap();
    ins.execute(
        &mut session,
        &[Value::Int(-1), Value::Text("warm-up".into())],
    )
    .unwrap();
    let fsyncs0 = fsyncs.get();
    let s = Instant::now();
    for i in 0..total {
        ins.execute(
            &mut session,
            &[Value::Int(i as i64), Value::Text("seq".into())],
        )
        .unwrap();
    }
    let elapsed = s.elapsed();
    let paid = fsyncs.get() - fsyncs0;
    drop(session);
    db.simulate_crash(); // skip the shutdown checkpoint
    let _ = std::fs::remove_dir_all(&dir);
    (elapsed, paid)
}

/// One remote client committing `total` single-row INSERTs
/// back-to-back over the wire: the sequential wire baseline (a group
/// of one per fsync).  Returns (elapsed, fsyncs consumed).
fn sequential_commits(h: &Harness, total: usize) -> (Duration, u64) {
    let mut conn = h.connect();
    let ins = conn.prepare("INSERT INTO Commits VALUES (?, ?)").unwrap();
    conn.execute(&ins, &[Value::Int(-1), Value::Text("warm-up".into())])
        .unwrap();
    let fsyncs0 = h.fsyncs();
    let s = Instant::now();
    for i in 0..total {
        conn.execute(&ins, &[Value::Int(i as i64), Value::Text("seq".into())])
            .unwrap();
    }
    let elapsed = s.elapsed();
    let fsyncs = h.fsyncs() - fsyncs0;
    conn.close().unwrap();
    (elapsed, fsyncs)
}

/// A raw wire connection: the bench speaks the protocol directly so
/// one driver thread can multiplex many client connections.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    stmt: u64,
}

impl RawConn {
    fn connect(addr: &str) -> RawConn {
        let stream = TcpStream::connect(addr).expect("bench client connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone socket"));
        let mut conn = RawConn {
            reader,
            writer: stream,
            stmt: 0,
        };
        conn.send(&Request::Hello {
            user: "admin".into(),
        });
        match conn.recv() {
            Response::HelloOk { .. } => {}
            other => panic!("hello failed: {other:?}"),
        }
        conn
    }

    /// Encode and write one request as a single `write(2)`.
    fn send(&mut self, req: &Request) {
        let mut buf = Vec::new();
        write_request(&mut buf, req).expect("encode request");
        self.writer.write_all(&buf).expect("send request");
    }

    fn recv(&mut self) -> Response {
        read_response(&mut self.reader).expect("read response")
    }

    fn prepare_insert(&mut self, warm_key: i64) {
        self.send(&Request::Prepare {
            sql: "INSERT INTO Commits VALUES (?, ?)".into(),
        });
        self.stmt = match self.recv() {
            Response::PrepareOk { stmt, .. } => stmt,
            other => panic!("prepare failed: {other:?}"),
        };
        self.commit_row(warm_key, "warm-up");
        match self.recv() {
            Response::Result { .. } => {}
            other => panic!("warm-up insert failed: {other:?}"),
        }
    }

    /// Fire one INSERT without waiting for the acknowledgment.
    fn commit_row(&mut self, key: i64, who: &str) {
        self.send(&Request::Execute {
            stmt: self.stmt,
            params: vec![Value::Int(key), Value::Text(who.into())],
        });
    }
}

/// `clients` concurrent connections, each committing `per_client`
/// single-row INSERTs: the group-commit workload.  Returns (elapsed,
/// fsyncs consumed, commits acknowledged).
///
/// One driver thread multiplexes the connections in lock-step rounds —
/// each connection always has exactly one commit outstanding and never
/// sends the next before its acknowledgment arrives, so semantically
/// this is `clients` zero-think-time clients.  A thread per client
/// (what `bdbms-hammer` does) measures the same server behavior but,
/// on a small box, adds a scheduler wakeup per commit *in the driver*,
/// which is noise this experiment should not count.
fn concurrent_commits(h: &Harness, clients: usize, per_client: usize) -> (Duration, u64, u64) {
    let mut conns: Vec<RawConn> = (0..clients).map(|_| RawConn::connect(&h.addr)).collect();
    let whos: Vec<String> = (0..clients).map(|c| format!("client-{c}")).collect();
    for (c, conn) in conns.iter_mut().enumerate() {
        conn.prepare_insert(-2 - c as i64);
    }
    let fsyncs0 = h.fsyncs();
    let s = Instant::now();
    for i in 0..per_client {
        for (c, conn) in conns.iter_mut().enumerate() {
            let key = 1_000_000 + (c * per_client + i) as i64;
            conn.commit_row(key, &whos[c]);
        }
        for conn in conns.iter_mut() {
            match conn.recv() {
                Response::Result { .. } => {}
                other => panic!("commit not acknowledged: {other:?}"),
            }
        }
    }
    let elapsed = s.elapsed();
    let fsyncs = h.fsyncs() - fsyncs0;
    for conn in &mut conns {
        conn.send(&Request::Quit);
    }
    (elapsed, fsyncs, (clients * per_client) as u64)
}

/// Prepared point reads: `total` sequential on one connection, then the
/// same total spread over `clients` concurrent connections.
fn point_reads(h: &Harness, clients: usize, total: usize) -> (Duration, Duration) {
    let read_one = |conn: &mut RemoteConnection, sel: &bdbms_core::StatementHandle, key: i64| {
        let mut rows = conn.query(sel, &[Value::Int(key)]).unwrap();
        rows.next_row().unwrap().expect("seeded key readable");
    };
    let mut conn = h.connect();
    let sel = conn.prepare("SELECT Who FROM Commits WHERE K = ?").unwrap();
    read_one(&mut conn, &sel, 0); // warm-up
    let s = Instant::now();
    for i in 0..total {
        read_one(&mut conn, &sel, (i % 64) as i64);
    }
    let sequential = s.elapsed();
    conn.close().unwrap();

    let per_client = total / clients;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let addr = h.addr.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut conn =
                    RemoteConnection::connect(&addr, "admin").expect("bench client connect");
                let sel = conn.prepare("SELECT Who FROM Commits WHERE K = ?").unwrap();
                let mut rows = conn.query(&sel, &[Value::Int(0)]).unwrap();
                rows.next_row().unwrap().expect("seeded key readable");
                drop(rows);
                barrier.wait();
                for i in 0..per_client {
                    let key = (i % 64) as i64;
                    let mut rows = conn.query(&sel, &[Value::Int(key)]).unwrap();
                    rows.next_row().unwrap().expect("seeded key readable");
                }
                conn.close().unwrap();
            })
        })
        .collect();
    let s = Instant::now();
    barrier.wait();
    for handle in handles {
        handle.join().expect("read client");
    }
    let concurrent = s.elapsed();
    (sequential, concurrent)
}

/// Run E14 at the standard scale: 16 clients, 512 commits total.
pub fn run() -> Report {
    run_sized(16, 32, 512)
}

/// Run E14 at a chosen scale (tests use a smaller one).
pub fn run_sized(clients: usize, per_client: usize, reads: usize) -> Report {
    let total = clients * per_client;
    let mut report = Report::new(
        "e14",
        &format!("wire-protocol server: group commit ({clients} clients x {per_client} commits)"),
        "server tier on top of the embedded engine (ROADMAP, not a paper \
         figure): one fsync acknowledges every commit that reached the log",
    );
    report.headers(&[
        "query",
        "clients",
        "ops",
        "elapsed ms",
        "ops/s",
        "fsyncs/commit",
        "speedup",
    ]);

    // each leg gets a fresh server + database so WAL growth from one leg
    // never taxes the next
    let seed = |h: &Harness| {
        let mut setup = h.connect();
        setup.run("CREATE TABLE Commits (K INT, Who TEXT)").unwrap();
        // seed keys 0..64 for the point-read leg
        for k in 0..64 {
            setup
                .run(&format!("INSERT INTO Commits VALUES ({k}, 'seed')"))
                .unwrap();
        }
        setup.close().unwrap();
    };

    let (emb_t, emb_fsyncs) = embedded_sequential_commits(total);

    let seq_h = Harness::start("seq");
    seed(&seq_h);
    let (seq_t, seq_fsyncs) = sequential_commits(&seq_h, total);
    drop(seq_h);

    let grp_h = Harness::start("group");
    seed(&grp_h);
    let (grp_t, grp_fsyncs, acked) = concurrent_commits(&grp_h, clients, per_client);
    let (read_seq_t, read_con_t) = point_reads(&grp_h, clients, reads);
    drop(grp_h);

    let emb_rate = total as f64 / emb_t.as_secs_f64().max(1e-9);
    let seq_rate = total as f64 / seq_t.as_secs_f64().max(1e-9);
    let grp_rate = acked as f64 / grp_t.as_secs_f64().max(1e-9);
    let fsyncs_per_commit = grp_fsyncs as f64 / acked as f64;
    let commits_per_fsync = acked as f64 / (grp_fsyncs as f64).max(1e-9);
    let read_seq_rate = reads as f64 / read_seq_t.as_secs_f64().max(1e-9);
    let read_con_rate = reads as f64 / read_con_t.as_secs_f64().max(1e-9);

    report.row(vec![
        "sequential commits (embedded)".to_string(),
        "1".to_string(),
        total.to_string(),
        format!("{:.1}", emb_t.as_secs_f64() * 1e3),
        format!("{emb_rate:.0}"),
        format!("{:.2}", emb_fsyncs as f64 / total as f64),
        "1.0x".to_string(),
    ]);
    report.row(vec![
        "sequential commits (wire)".to_string(),
        "1".to_string(),
        total.to_string(),
        format!("{:.1}", seq_t.as_secs_f64() * 1e3),
        format!("{seq_rate:.0}"),
        format!("{:.2}", seq_fsyncs as f64 / total as f64),
        ratio(seq_rate, emb_rate),
    ]);
    report.row(vec![
        "group commit".to_string(),
        clients.to_string(),
        acked.to_string(),
        format!("{:.1}", grp_t.as_secs_f64() * 1e3),
        format!("{grp_rate:.0}"),
        format!("{fsyncs_per_commit:.2}"),
        ratio(grp_rate, emb_rate),
    ]);
    report.row(vec![
        "commits per fsync".to_string(),
        clients.to_string(),
        acked.to_string(),
        format!("{:.1}", grp_t.as_secs_f64() * 1e3),
        format!("{grp_rate:.0}"),
        format!("{fsyncs_per_commit:.2}"),
        format!("{commits_per_fsync:.1}x"),
    ]);
    report.row(vec![
        "point reads".to_string(),
        clients.to_string(),
        reads.to_string(),
        format!("{:.1}", read_con_t.as_secs_f64() * 1e3),
        format!("{read_con_rate:.0}"),
        "0.00".to_string(),
        ratio(read_con_rate, read_seq_rate),
    ]);

    report.note(format!(
        "group commit: {acked} acknowledged commits consumed {grp_fsyncs} fsyncs \
         ({fsyncs_per_commit:.2} fsyncs/commit, {commits_per_fsync:.1} commits/fsync); \
         the embedded sequential baseline paid {emb_fsyncs} fsyncs for {total}, \
         the wire-sequential run {seq_fsyncs}"
    ));
    report.note(
        "speedups are against the embedded single-session baseline — the only \
         way concurrent workers could drive the single-threaded core before \
         the server existed was taking turns, one fsync each",
    );
    report.note(
        "every commit is acknowledged only after the flusher's fsync covers \
         its LSN — the crash test (crates/server/tests/crash_commit.rs) \
         SIGKILLs the server mid-burst and asserts no acknowledged commit \
         is lost",
    );
    report.note(
        "the engine thread keeps executing other connections' statements \
         while a handler blocks on its commit ticket, so commits pile onto \
         the next fsync instead of queueing behind each other",
    );
    report.note(
        "gated with absolute floors (scripts/check_perf.py --id e14): \
         group commit >= 4x sequential throughput, >= 4 commits per fsync",
    );
    report.note(format!(
        "the throughput ratio scales with the device's fsync latency (the \
         embedded row's {:.0} us/commit is almost entirely one fsync): \
         group commit amortizes the barrier but still pays the engine's \
         per-commit CPU, so a write-cached VM syncing in ~100 us bounds \
         the ratio lower than the >= 4x floor, while any device syncing \
         in >= 200 us clears it — gate on real-disk CI runners, not \
         cache-backed dev VMs",
        emb_t.as_secs_f64() * 1e6 / total as f64
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shape check at a small scale: the report renders, carries the
    /// four workloads, and group commit never costs more than one fsync
    /// per commit.  Whether commits actually share an fsync depends on
    /// the scheduler (4 clients on a loaded 2-core box sometimes commit
    /// one at a time: 4 runs in 100 under two busy loops), so the
    /// amortization itself — and the >= 4x floors — are gated by the
    /// release-mode CI `server` job, not here.
    #[test]
    fn report_shape_and_fsync_amortization() {
        let r = run_sized(4, 8, 32);
        assert_eq!(r.rows.len(), 5);
        let j = r.render_json();
        assert!(j.contains("\"id\":\"e14\""));
        assert!(j.contains("sequential commits (embedded)"));
        assert!(j.contains("group commit"));
        assert!(j.contains("commits per fsync"));
        let fsyncs_per_commit: f64 = r.rows[2][5].parse().unwrap();
        assert!(
            fsyncs_per_commit <= 1.0,
            "more than one fsync per commit: {fsyncs_per_commit}"
        );
    }
}
