//! `wire_oltp_80r20w` — the whole system: an in-process `Server` over
//! TCP loopback, two client threads, 80 % reads and 20 % writes.
//!
//! **Why it exists.**  It is the ROADMAP's named whole-system run and
//! the only workload where `server::proto`, `server::engine`, the ack
//! pump and group fsync do the work, and where the whole-image
//! checkpoint the engine takes every 1024 commits (several per second
//! at this write rate) stalls foreground traffic.  A change to the wire
//! codec, the engine hand-off, group commit, the B+-tree or checkpoint
//! cost should move it; a change to the batch scan operators or the
//! sequence index should predict *no change*.
//!
//! **Sizes.**  `Gene` holds 60 000 rows (~7 MiB of heap) behind the
//! server's default 1024-page = 8 MiB pool: the table just fits.  Flush
//! policy: `Durability::Full`, group commit on, every write is its own
//! autocommitted transaction and is acknowledged only after the fsync
//! that covers it; `checkpoint_every_commits` = 1024 (engine default).
//!
//! **Operations** (prepared, autocommit): 80 % point `SELECT ... WHERE
//! GID = ?` with Zipf(0.99) keys, read through a cursor (`Query` +
//! `Fetch`, the plan-cache path); 10 % single-row `UPDATE`; 10 %
//! single-row `INSERT`.  Two closed loops: each client sends its next
//! request only after the previous reply, which is how `Connection`
//! clients behave.  Updates are partitioned by key parity between the
//! two clients so that each client knows the value it must read back.

use std::collections::HashMap;
use std::time::Instant;

use crate::adapter::{
    self, At, Client, MetricsSnapshot, QueryResult, Remote, Res, Stmt, TracedWire, Value, WireOp,
};
use crate::gen::{self, Deck, Rng, Zipf};
use crate::harness::{self, int_at, Cfg, Ctx, Driver, KernelInputs};
use crate::report::Outcome;
use crate::trace::{SpanId, NO_SPAN};

use super::{fresh_dir, spread, GeneTable};

const GENE_ROWS: usize = 60_000;
const THREADS: usize = 2;
const WARMUP_OPS: usize = 2000;
const ZIPF_THETA: f64 = 0.99;
/// Client 0 samples the engine's checkpoint counter this often (traced
/// part only): fine enough to bracket a ~100 ms checkpoint, rare enough
/// to add ~3 % more requests on one of the two connections.
const POLL_EVERY: u64 = 32;

const SELECT: &str = "SELECT GName, Len, TagId FROM Gene WHERE GID = ?";
const UPDATE: &str = "UPDATE Gene SET TagId = ? WHERE GID = ?";
const INSERT: &str = "INSERT INTO Gene VALUES (?, ?, ?, ?, ?)";

struct Inputs {
    gene: GeneTable,
    zipf: Zipf,
}

/// One client thread's generator state and its log of acknowledged
/// writes.  Everything here is `Send`; the connection and its prepared
/// statements are made inside whichever thread runs a phase.
struct Worker {
    id: usize,
    rng: Rng,
    /// 80 reads, 10 updates, 10 inserts per hundred operations.
    mix: Deck<u8>,
    /// Key index -> `TagId` this client last wrote there (acknowledged).
    updated: HashMap<usize, i64>,
    /// `(GID, Len)` of every acknowledged insert.
    inserted: Vec<(String, i64)>,
    /// A few operations of the traced part, for the codec kernel.
    sample: Vec<(&'static str, Vec<Value>)>,
    frames: u64,
}

struct Conn {
    client: Box<dyn Client>,
    select: Stmt,
    update: Stmt,
    insert: Stmt,
}

fn connect(addr: &str, traced: bool) -> Res<Conn> {
    let mut client: Box<dyn Client> = if traced {
        Box::new(TracedWire::connect(addr, "admin")?)
    } else {
        Box::new(Remote::connect(addr, "admin")?)
    };
    Ok(Conn {
        select: client.prepare(SELECT)?,
        update: client.prepare(UPDATE)?,
        insert: client.prepare(INSERT)?,
        client,
    })
}

impl Worker {
    fn new(id: usize, seed: u64) -> Worker {
        Worker {
            id,
            rng: Rng::fork(seed, 0x100 + id as u64),
            mix: Deck::new(
                (0..100)
                    .map(|i| (i >= 80) as u8 + (i >= 90) as u8)
                    .collect(),
            ),
            updated: HashMap::new(),
            inserted: Vec::new(),
            sample: Vec::new(),
            frames: 0,
        }
    }

    fn op(
        &mut self,
        inp: &Inputs,
        c: &mut Conn,
        ctx: &mut Ctx,
        op: u64,
        root: SpanId,
    ) -> Res<(&'static str, bool)> {
        let n = inp.gene.len();
        let choice = self.mix.draw(&mut self.rng);
        let key = inp.zipf.sample(&mut self.rng) as usize;
        let (kind, params, ok) = if choice == 0 {
            let params = vec![Value::Text(gen::gene_id(key))];
            let r = ctx.stmt("point_select", op, root, |at: At<'_>| {
                c.client.select(&c.select, &params, at)
            })?;
            let row = &inp.gene.rows[key];
            // the other client never writes this client's keys, so for
            // those the expected TagId is known exactly
            let tag_ok = key % THREADS != self.id
                || int_at(&r, 0, 2) == Some(*self.updated.get(&key).unwrap_or(&(row.tag as i64)));
            let ok = r.rows.len() == 1
                && int_at(&r, 0, 1) == Some(key as i64)
                && r.rows[0].values[0].as_text() == Some(gen::gene_name(row.name_id).as_str())
                && tag_ok;
            ("op.point_select", params, ok)
        } else if choice == 1 {
            let key = (key - key % THREADS + self.id).min(n - THREADS + self.id);
            let tag = self.rng.below(inp.gene.n_tags as u64) as i64;
            let params = vec![Value::Int(tag), Value::Text(gen::gene_id(key))];
            let r = ctx.stmt("update", op, root, |at: At<'_>| {
                c.client.execute(&c.update, &params, at)
            })?;
            self.updated.insert(key, tag);
            ("op.update", params, r.affected == 1)
        } else {
            let seq = self.inserted.len();
            let gid = format!("N{}{seq:07}", self.id);
            let len = (n + (self.id + 1) * 100_000_000 + seq) as i64;
            let params = vec![
                Value::Text(gid.clone()),
                Value::Text("inserted".into()),
                Value::Int(len),
                Value::Int(self.rng.below(inp.gene.n_tags as u64) as i64),
                Value::Text(gen::dna(&mut self.rng, gen::GENE_SEQ_LEN)),
            ];
            let r = ctx.stmt("insert", op, root, |at: At<'_>| {
                c.client.execute(&c.insert, &params, at)
            })?;
            self.inserted.push((gid, len));
            ("op.insert", params, r.affected == 1)
        };
        if ctx.tr.is_on() {
            if self.sample.len() < 64 {
                self.sample.push((kind, params));
            }
            if self.id == 0 && op.is_multiple_of(POLL_EVERY) {
                ctx.poll_checkpoints(c.client.as_mut());
            }
        }
        Ok((kind, ok))
    }

    /// Run operations on a connection of this thread's own until
    /// `until`, or exactly `count` operations when given.
    fn phase(
        &mut self,
        inp: &Inputs,
        addr: &str,
        ctx: &mut Ctx,
        until: Instant,
        count: Option<usize>,
    ) -> Res<()> {
        let mut c = connect(addr, ctx.tr.is_on())?;
        match count {
            Some(count) => {
                for i in 0..count {
                    if !self.op(inp, &mut c, ctx, i as u64, NO_SPAN)?.1 {
                        return Err("warm-up operation returned a wrong answer".into());
                    }
                }
            }
            None => ctx.drive(until, |ctx, op, root| self.op(inp, &mut c, ctx, op, root)),
        }
        self.frames += c.client.frames();
        c.client.close()
    }

    /// Read back every acknowledged write of this client (a bounded,
    /// evenly spread sample of each kind) through `run`.
    fn read_back(&self, mut run: impl FnMut(&str) -> Res<QueryResult>) -> Res<bool> {
        let mut ok = true;
        let mut keys: Vec<(&usize, &i64)> = self.updated.iter().collect();
        keys.sort_unstable();
        for i in spread(keys.len(), 1500) {
            let (key, tag) = keys[i];
            let r = run(&format!(
                "SELECT TagId FROM Gene WHERE GID = '{}'",
                gen::gene_id(*key)
            ))?;
            ok &= r.rows.len() == 1 && int_at(&r, 0, 0) == Some(*tag);
        }
        for i in spread(self.inserted.len(), 1500) {
            let (gid, len) = &self.inserted[i];
            let r = run(&format!("SELECT Len FROM Gene WHERE GID = '{gid}'"))?;
            ok &= r.rows.len() == 1 && int_at(&r, 0, 0) == Some(*len);
        }
        Ok(ok)
    }
}

struct Drv<'a> {
    inp: &'a Inputs,
    addr: String,
    workers: Vec<Worker>,
    admin: Remote,
}

impl Drv<'_> {
    /// Both clients at once, each in its own thread with its own socket.
    fn both(&mut self, ctxs: &mut [Ctx], until: Instant, count: Option<usize>) {
        let (inp, addr) = (self.inp, self.addr.as_str());
        std::thread::scope(|s| {
            for (w, ctx) in self.workers.iter_mut().zip(ctxs.iter_mut()) {
                s.spawn(move || {
                    if let Err(e) = w.phase(inp, addr, ctx, until, count) {
                        ctx.failed += 1;
                        ctx.first_errors.push(e);
                    }
                });
            }
        });
    }
}

impl Driver for Drv<'_> {
    fn run_part(&mut self, ctxs: &mut [Ctx], until: Instant) {
        // frames are reported per operation of the last part run
        for w in &mut self.workers {
            w.frames = 0;
        }
        self.both(ctxs, until, None);
    }

    fn snapshot(&mut self) -> Option<MetricsSnapshot> {
        self.admin.metrics().ok()
    }
}

fn load(inp: &Inputs, admin: &mut Remote) -> Res<f64> {
    let mut off = crate::trace::Tracer::off();
    inp.gene
        .load(&[], |s| admin.run(s, At::new(&mut off, 0, NO_SPAN)))
}

pub fn run(cfg: &Cfg) -> Res<Outcome> {
    let mut rng = Rng::fork(cfg.seed, 0x01E);
    let n = cfg.scaled(GENE_ROWS, 200);
    let inp = Inputs {
        gene: GeneTable::generate(&mut rng, n, (n / 100).max(10), &cfg.work)?,
        zipf: Zipf::new(n as u64, ZIPF_THETA),
    };
    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    let mut setup_s = Vec::new();
    let reps = cfg.setup_reps();
    for rep in 0..reps {
        let dir = fresh_dir(&cfg.work, &format!("db{rep}"))?;
        let t = Instant::now();
        let server = adapter::start_server(&dir)?;
        let mut admin = Remote::connect(&server.addr, "admin")?;
        let copy_s = load(&inp, &mut admin)?;
        let mut drv = Drv {
            inp: &inp,
            addr: server.addr.clone(),
            workers: (0..THREADS)
                .map(|id| Worker::new(id, cfg.seed + rep as u64))
                .collect(),
            admin,
        };
        let epoch = Instant::now();
        let mut ctxs: Vec<Ctx> = (0..THREADS).map(|i| Ctx::new(i as u64, epoch)).collect();
        drv.both(&mut ctxs, epoch, Some(cfg.scaled(WARMUP_OPS, 8)));
        if let Some(e) = ctxs.iter().flat_map(|c| &c.first_errors).next() {
            return Err(format!("warm-up failed: {e}"));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < reps {
            drv.admin.close()?;
            server.stop();
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }

        // ---- the window ----
        let mut ctxs: Vec<Ctx> = (0..THREADS).map(|i| Ctx::new(i as u64, epoch)).collect();
        let w = harness::run_window(cfg, &mut ctxs, &mut drv);
        harness::tally(&ctxs, &mut out);

        // ---- every acknowledged write is readable, before and after restart ----
        let mut off = crate::trace::Tracer::off();
        let inserted: usize = drv.workers.iter().map(|w| w.inserted.len()).sum();
        let expect_count = (n + inserted) as i64;
        let count = drv
            .admin
            .run("SELECT COUNT(*) FROM Gene", At::new(&mut off, 0, NO_SPAN))?;
        let mut readable = int_at(&count, 0, 0) == Some(expect_count);
        for wk in &drv.workers {
            readable &= wk.read_back(|s| drv.admin.run(s, At::new(&mut off, 0, NO_SPAN)))?;
        }
        if !readable {
            out.correct = false;
            out.notes
                .push("an acknowledged write was not readable after the window".into());
        }

        let frames: u64 = drv.workers.iter().map(|w| w.frames).sum();
        let traced = if cfg.trace {
            let kernels = kernel_inputs(&inp, cfg, &mut drv)?;
            let (spans, st) = harness::window_rows(&w, ctxs, frames, None, &mut out);
            out.metrics
                .set("ingest.copy_rows_s", n as f64 / copy_s, "rows/s");
            harness::server_rows(&server.addr, &kernels, &mut out.metrics)?;
            let image = adapter::crash_image(&dir, &cfg.work.join("crash-image"))?;
            Some((kernels, spans, st, image))
        } else {
            harness::window_e2e(&w, &mut out.metrics);
            out.metrics
                .set("setup_s", crate::stats::median(&setup_s), "s");
            None
        };
        drv.admin.close()?;
        let workers = std::mem::take(&mut drv.workers);
        drop(drv);
        server.stop();

        let stored = adapter::dir_bytes(&dir);
        let (open_s, ok) = harness::open_phase(
            &dir,
            cfg.open_reps(),
            "SELECT COUNT(*) FROM Gene",
            expect_count,
            |db| {
                let mut ok = true;
                for wk in &workers {
                    ok &= wk.read_back(|s| adapter::sql(db, s))?;
                }
                Ok(ok)
            },
        )?;
        if !ok {
            out.correct = false;
            out.notes
                .push("after restart: CHECK failed or an acknowledged write is missing".into());
        }
        match traced {
            None => {
                out.metrics.set("open_s", open_s, "s");
                out.metrics
                    .set("peak_rss_mb", harness::peak_rss_mb(), "MiB");
            }
            Some((kernels, spans, st, image)) => {
                out.extra.set("open_s.single", open_s, "s");
                let user_bytes =
                    inp.gene.tsv_bytes + inserted as u64 * (inp.gene.tsv_bytes / n as u64);
                out.metrics.set(
                    "stored_bytes_per_user_byte",
                    stored as f64 / user_bytes as f64,
                    "ratio",
                );
                harness::recovery_row(&image, &mut out)?;
                let mut db = adapter::open_db(&dir)?;
                harness::checkpoint_row(&mut db, &mut out.metrics)?;
                harness::kernel_rows(
                    &kernels,
                    &cfg.work.join("kernels"),
                    &mut db,
                    &mut out.metrics,
                )?;
                adapter::close_db(db)?;
                harness::write_trace(cfg, "wire_oltp_80r20w", &spans, &st, &out)?;
            }
        }
        return Ok(out);
    }
    unreachable!("the last set-up repetition returns")
}

/// Kernel inputs captured from the window; replies for the codec
/// kernel are fetched again here (results hold `Rc`s and cannot leave
/// the client threads that first got them).
fn kernel_inputs(inp: &Inputs, cfg: &Cfg, drv: &mut Drv<'_>) -> Res<KernelInputs> {
    let mut off = crate::trace::Tracer::off();
    let select = drv.admin.prepare(SELECT)?;
    let mut wire_sample = Vec::new();
    for (kind, params) in drv
        .workers
        .iter_mut()
        .flat_map(|w| std::mem::take(&mut w.sample))
    {
        wire_sample.push(if kind == "op.point_select" {
            let r = drv
                .admin
                .select(&select, &params, At::new(&mut off, 0, NO_SPAN))?;
            (WireOp::Query(params), r)
        } else {
            let reply = QueryResult {
                affected: 1,
                ..Default::default()
            };
            (WireOp::Execute(params), reply)
        });
    }
    Ok(KernelInputs {
        sql_corpus: vec![SELECT.into(), UPDATE.into(), INSERT.into()],
        wire_sample,
        point_sql: SELECT.into(),
        pool_pages: adapter::DEFAULT_POOL_PAGES,
        fsync_on_commit: true,
        ..inp.gene.kernel_inputs(cfg.seed)
    })
}
