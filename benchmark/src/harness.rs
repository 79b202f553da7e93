//! What the four workloads share: the run configuration, the closed
//! measurement loop, the summary of a window, the after-window phases
//! (reopen, crash-image recovery) and the layer-kernel suite.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::adapter::{self, At, Client, Db, MetricsSnapshot, QueryResult, Res, Value, WireOp};
use crate::report::{Outcome, Rows};
use crate::stats::{median, median_u64, tail};
use crate::trace::{self, SpanId, Tracer, NO_SPAN};

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Multiplier on every table size (the smoke test runs at 0.01).
    pub scale: f64,
    /// Scratch directory of this run, inside the checkout; removed at exit.
    pub work: PathBuf,
    /// Where `trace.<workload>.json` goes.
    pub trace_dir: PathBuf,
}

impl Cfg {
    pub fn scaled(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(min)
    }

    /// An untraced run sets up this many times and reports the median;
    /// the traced run needs the time for the kernels instead.
    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }

    pub fn open_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            5
        }
    }
}

/// Share of a traced run's window that runs with tracing off, to give
/// `trace.overhead_frac` its base.
const BASELINE_SHARE: f64 = 0.3;

/// One driver thread's measurements.
pub struct Ctx {
    pub tr: Tracer,
    pub lat_ns: Vec<u64>,
    /// `(start, end)` of each operation on the tracer's clock, for the
    /// per-slice throughput and the checkpoint-stall rows.
    pub op_times: Vec<(u64, u64)>,
    /// Operations of the current window part.
    pub attempted: u64,
    earlier_attempted: u64,
    pub failed: u64,
    pub first_errors: Vec<String>,
    /// Statement kind -> latencies (ns), traced part only.
    pub stmt_ns: BTreeMap<&'static str, Vec<u64>>,
    pub rows_fetched: u64,
    pub exec_ns: u64,
    pub rows_out: u64,
    /// `(time on the tracer's clock, checkpoint.count)` samples.
    pub checkpoint_polls: Vec<(u64, u64)>,
    next_op: u64,
}

impl Ctx {
    pub fn new(thread: u64, epoch: Instant) -> Ctx {
        Ctx {
            tr: Tracer::new(false, epoch),
            lat_ns: Vec::with_capacity(1 << 16),
            op_times: Vec::new(),
            attempted: 0,
            earlier_attempted: 0,
            failed: 0,
            first_errors: Vec::new(),
            stmt_ns: BTreeMap::new(),
            rows_fetched: 0,
            exec_ns: 0,
            rows_out: 0,
            checkpoint_polls: Vec::new(),
            // operation ids are unique across threads
            next_op: thread << 40,
        }
    }

    /// Run one statement of kind `kind` inside operation `op`; in the
    /// traced part its latency and scan work are recorded per kind.
    pub fn stmt(
        &mut self,
        kind: &'static str,
        op: u64,
        parent: SpanId,
        call: impl FnOnce(At<'_>) -> Res<QueryResult>,
    ) -> Res<QueryResult> {
        if !self.tr.is_on() {
            return call(At::new(&mut self.tr, op, parent));
        }
        let t = Instant::now();
        let r = call(At::new(&mut self.tr, op, parent))?;
        self.stmt_ns
            .entry(kind)
            .or_default()
            .push(t.elapsed().as_nanos() as u64);
        if let Some((fetched, exec)) = adapter::scan_work(&r) {
            self.rows_fetched += fetched;
            self.exec_ns += exec;
            self.rows_out += r.rows.len() as u64;
        }
        Ok(r)
    }

    /// Note the engine's checkpoint counter as seen now (traced part).
    pub fn poll_checkpoints(&mut self, client: &mut dyn Client) {
        if self.tr.is_on() {
            if let Ok(m) = client.metrics() {
                let n = m.counter("checkpoint.count").unwrap_or(0);
                self.checkpoint_polls.push((self.tr.now_ns(), n));
            }
        }
    }

    /// The closed loop: run `op` back to back until `until`, each call
    /// one operation whose latency is the wall time of the call.  `op`
    /// gets the context, the operation id and its root span; it returns
    /// the operation's span name with `true` when the reply was right
    /// and `false` when it was wrong, or `Err` when a call failed — the
    /// last two count as failed operations.
    pub fn drive(
        &mut self,
        until: Instant,
        mut op: impl FnMut(&mut Ctx, u64, SpanId) -> Res<(&'static str, bool)>,
    ) {
        while Instant::now() < until {
            let id = self.next_op;
            self.next_op += 1;
            let root = self.tr.begin("op.pending", id, NO_SPAN);
            let start = self.tr.now_ns();
            let outcome = op(self, id, root);
            let end = self.tr.now_ns();
            self.tr.end(root);
            self.lat_ns.push(end - start);
            self.op_times.push((start, end));
            self.attempted += 1;
            match outcome {
                Ok((name, ok)) => {
                    self.tr.rename(root, name);
                    if !ok {
                        self.failed += 1;
                        if self.first_errors.len() < 5 {
                            self.first_errors.push(format!("{name}: wrong answer"));
                        }
                    }
                }
                Err(e) => {
                    self.failed += 1;
                    if self.first_errors.len() < 5 {
                        self.first_errors.push(e);
                    }
                }
            }
        }
    }

    /// Operations attempted over every window part.
    pub fn attempted_total(&self) -> u64 {
        self.earlier_attempted + self.attempted
    }

    /// Start a new window part: latencies start over, counts carry.
    fn reset_measurements(&mut self) {
        self.lat_ns.clear();
        self.op_times.clear();
        self.earlier_attempted += self.attempted;
        self.attempted = 0;
    }
}

/// What one window part measured, over all driver threads.
pub struct Part {
    pub ops: u64,
    pub lat_ns: Vec<u64>,
    /// Operations completed per second: the median over `SLICES` equal
    /// slices of the part, so that a burst of interference from outside
    /// (this is a shared 2-core VM) moves a few slices and not the
    /// result, while stalls the system causes itself several times per
    /// slice (checkpoints) stay in every slice.
    pub throughput: f64,
}

const SLICES: usize = 10;

/// Per-slice throughput over `[t0, t1)` on the contexts' shared clock.
/// An operation that straddles a slice boundary counts in each slice
/// by the share of its duration that falls there.
fn slice_throughput(ctxs: &[Ctx], t0: u64, t1: u64) -> f64 {
    let width = ((t1 - t0) / SLICES as u64).max(1);
    let mut done = [0f64; SLICES];
    for &(s, e) in ctxs.iter().flat_map(|c| &c.op_times) {
        let dur = (e - s).max(1) as f64;
        let first = (s.saturating_sub(t0) / width) as usize;
        for (k, slot) in done.iter_mut().enumerate().skip(first) {
            let (a, b) = (t0 + k as u64 * width, t0 + (k as u64 + 1) * width);
            if a >= e {
                break;
            }
            *slot += (e.min(b).saturating_sub(s.max(a))) as f64 / dur;
        }
    }
    median(&done.map(|n| n / (width as f64 / 1e9)))
}

/// The measured window of a run: untraced in an end-to-end run; in a
/// traced run, an untraced baseline part followed by the traced part.
pub struct Window {
    pub baseline: Option<Part>,
    pub main: Part,
    pub before: Option<MetricsSnapshot>,
    pub after: Option<MetricsSnapshot>,
    pub allocs: (u64, u64),
}

/// What `run_window` needs from a workload: run every driver thread
/// until the deadline (returning when all are done), and read the
/// engine's registry.
pub trait Driver {
    fn run_part(&mut self, ctxs: &mut [Ctx], until: Instant);
    fn snapshot(&mut self) -> Option<MetricsSnapshot>;
}

/// Drive the contexts (one per driver thread) through the window.
pub fn run_window(cfg: &Cfg, ctxs: &mut [Ctx], d: &mut impl Driver) -> Window {
    fn part(d: &mut impl Driver, ctxs: &mut [Ctx], secs: f64, traced: bool) -> Part {
        for c in ctxs.iter_mut() {
            c.reset_measurements();
            c.tr.set_on(traced);
        }
        let t0 = ctxs[0].tr.now_ns();
        d.run_part(ctxs, Instant::now() + Duration::from_secs_f64(secs));
        let mut lat_ns: Vec<u64> = ctxs.iter().flat_map(|c| c.lat_ns.iter().copied()).collect();
        lat_ns.sort_unstable();
        Part {
            ops: ctxs.iter().map(|c| c.attempted).sum(),
            throughput: slice_throughput(ctxs, t0, t0 + (secs * 1e9) as u64),
            lat_ns,
        }
    }
    if !cfg.trace {
        return Window {
            baseline: None,
            main: part(d, ctxs, cfg.seconds, false),
            before: None,
            after: None,
            allocs: (0, 0),
        };
    }
    let baseline = part(d, ctxs, cfg.seconds * BASELINE_SHARE, false);
    let before = d.snapshot();
    let a0 = crate::alloc::totals();
    crate::alloc::set_counting(true);
    let main = part(d, ctxs, cfg.seconds * (1.0 - BASELINE_SHARE), true);
    crate::alloc::set_counting(false);
    let a1 = crate::alloc::totals();
    for c in ctxs.iter_mut() {
        c.tr.set_on(false);
    }
    Window {
        baseline: Some(baseline),
        main,
        before,
        after: d.snapshot(),
        allocs: (a1.0 - a0.0, a1.1 - a0.1),
    }
}

/// Throughput and median latency of the window (the two end-to-end
/// metrics the window itself yields).
pub fn window_e2e(w: &Window, rows: &mut Rows) {
    rows.set("throughput_ops_s", w.main.throughput, "ops/s");
    rows.set("p50_us", median_u64(&w.main.lat_ns) / 1e3, "us");
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// After the window and a clean close: `reps` times `Database::open`
/// plus the first `SELECT COUNT(*)`; the median is `open_s`.  `check`
/// runs on the first reopened database (outside the clock) and says
/// whether what it finds is what the workload left there.
pub fn open_phase(
    dir: &Path,
    reps: usize,
    count_sql: &str,
    expect_count: i64,
    check: impl FnOnce(&mut Db) -> Res<bool>,
) -> Res<(f64, bool)> {
    let mut times = Vec::new();
    let mut ok = true;
    let mut check = Some(check);
    for _ in 0..reps {
        let t = Instant::now();
        let mut db = adapter::open_db(dir)?;
        let r = adapter::sql(&mut db, count_sql)?;
        times.push(t.elapsed().as_secs_f64());
        ok &= r.rows.first().and_then(|row| row.values[0].as_int()) == Some(expect_count);
        if let Some(check) = check.take() {
            ok &= check_passes(&mut db)?;
            ok &= check(&mut db)?;
        }
        adapter::close_db(db)?;
    }
    Ok((median(&times), ok))
}

/// The engine's own integrity check (`CHECK`) reports no problem.
pub fn check_passes(db: &mut Db) -> Res<bool> {
    let r = adapter::sql(db, "CHECK")?;
    Ok(!r
        .rows
        .iter()
        .any(|row| row.values[0].as_text() == Some("problem")))
}

/// Sum of the annotation lists of column `col` over a result.
pub fn anns_on(r: &QueryResult, col: usize) -> usize {
    r.rows.iter().map(|row| row.anns[col].len()).sum()
}

pub fn int_at(r: &QueryResult, row: usize, col: usize) -> Option<i64> {
    r.rows
        .get(row)
        .and_then(|x| x.values.get(col))
        .and_then(Value::as_int)
}

// ---------------------------------------------------------------------
// The traced run's rows
// ---------------------------------------------------------------------

/// What the layer kernels replay: inputs captured from the workload.
#[derive(Default)]
pub struct KernelInputs {
    /// The workload's statement texts (prepared texts and a sample of
    /// the literal ones it ran).
    pub sql_corpus: Vec<String>,
    /// A sample of the workload's requests with the replies they got.
    pub wire_sample: Vec<(WireOp, QueryResult)>,
    /// A prepared point lookup on the workload's key and keys to bind.
    pub point_sql: String,
    pub point_keys: Vec<Value>,
    /// Encoded rows of the workload's main table.
    pub records: Vec<Vec<u8>>,
    pub columns: usize,
    pub keys: Vec<String>,
    /// Sequences of the workload's sequence column, and patterns.
    pub texts: Vec<String>,
    pub patterns: Vec<String>,
    pub pool_pages: usize,
    pub fsync_on_commit: bool,
}

fn counter_delta(w: &Window, name: &str) -> f64 {
    let get = |s: &Option<MetricsSnapshot>| s.as_ref().and_then(|m| m.counter(name)).unwrap_or(0);
    get(&w.after).saturating_sub(get(&w.before)) as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Rows derived from the traced window itself: spans, per-statement
/// timings, registry deltas, allocation counts.  Returns the merged
/// spans for `trace.json`.
pub fn window_rows(
    w: &Window,
    ctxs: Vec<Ctx>,
    frames: u64,
    pool: Option<(u64, u64, u64)>,
    out: &mut Outcome,
) -> (Vec<trace::Span>, trace::SelfTime) {
    let rows = &mut out.metrics;
    let (pct, p99) = tail(&w.main.lat_ns);
    rows.set("client.p99_us", p99 as f64 / 1e3, "us");
    rows.set("client.tail_pct", pct, "%");
    rows.set("client.samples", w.main.lat_ns.len() as f64, "count");
    rows.set("client.ops_failed", out.failed as f64, "count");
    rows.set(
        "client.frames_per_op",
        ratio(frames as f64, w.main.ops as f64),
        "count",
    );
    let base = w.baseline.as_ref().map_or(0.0, |p| p.throughput);
    rows.set(
        "trace.overhead_frac",
        if base > 0.0 {
            1.0 - w.main.throughput / base
        } else {
            0.0
        },
        "frac",
    );
    let (hits, misses) = (
        counter_delta(w, "plan_cache.hits"),
        counter_delta(w, "plan_cache.misses"),
    );
    rows.set("plan_cache.hit_frac", ratio(hits, hits + misses), "frac");
    let fetched: u64 = ctxs.iter().map(|c| c.rows_fetched).sum();
    let exec_ns: u64 = ctxs.iter().map(|c| c.exec_ns).sum();
    let rows_out: u64 = ctxs.iter().map(|c| c.rows_out).sum();
    rows.set(
        "exec.scan_rows_s",
        ratio(fetched as f64, exec_ns as f64 / 1e9),
        "rows/s",
    );
    rows.set(
        "exec.rows_fetched_per_row_out",
        ratio(fetched as f64, rows_out as f64),
        "ratio",
    );
    let commits = counter_delta(w, "txn.commits");
    rows.set(
        "checkpoint.bytes_per_commit",
        ratio(counter_delta(w, "checkpoint.bytes"), commits),
        "bytes",
    );
    rows.set(
        "wal.fsyncs_per_commit",
        ratio(counter_delta(w, "wal.fsyncs"), commits),
        "ratio",
    );
    let group = |s: &Option<MetricsSnapshot>| {
        s.as_ref()
            .and_then(|m| m.histogram("group.sizes"))
            .map_or((0, 0), |h| (h.count, h.sum))
    };
    let (g0, g1) = (group(&w.before), group(&w.after));
    rows.set(
        "group.mean_size",
        ratio(
            g1.1.saturating_sub(g0.1) as f64,
            g1.0.saturating_sub(g0.0) as f64,
        ),
        "count",
    );
    // the registry's buffer counters detach at the first checkpoint;
    // an embedded workload passes the live pool's own counters instead
    let (bh, bm, be) = match pool {
        Some(p) => (p.0 as f64, p.1 as f64, p.2 as f64),
        None => (
            counter_delta(w, "buffer.hits"),
            counter_delta(w, "buffer.misses"),
            counter_delta(w, "buffer.evictions"),
        ),
    };
    rows.set("buffer.hit_frac", ratio(bh, bh + bm), "frac");
    rows.set("buffer.evictions", be, "count");
    rows.set(
        "alloc.count_per_op",
        ratio(w.allocs.0 as f64, w.main.ops as f64),
        "count",
    );
    rows.set(
        "alloc.bytes_per_op",
        ratio(w.allocs.1 as f64, w.main.ops as f64),
        "bytes",
    );

    // checkpoint stalls: an interval between two polls in which the
    // checkpoint counter moved contains a checkpoint; every operation
    // overlapping such an interval was (possibly) stalled by it
    let mut polls: Vec<(u64, u64)> = ctxs
        .iter()
        .flat_map(|c| c.checkpoint_polls.iter().copied())
        .collect();
    polls.sort_unstable();
    let intervals: Vec<(u64, u64)> = polls
        .windows(2)
        .filter(|p| p[1].1 > p[0].1)
        .map(|p| (p[0].0, p[1].0))
        .collect();
    let (mut stalled_ns, mut stall_max) = (0u64, 0u64);
    for c in &ctxs {
        for &(s, e) in &c.op_times {
            if intervals.iter().any(|&(a, b)| s < b && e > a) {
                stalled_ns += e - s;
                stall_max = stall_max.max(e - s);
            }
        }
    }
    let busy_ns: u64 = w.main.lat_ns.iter().sum();
    rows.set(
        "checkpoint.stall_frac",
        ratio(stalled_ns as f64, busy_ns as f64),
        "frac",
    );
    out.extra
        .set("checkpoint.stall_max_ms", stall_max as f64 / 1e6, "ms");
    out.extra.set(
        "checkpoint.count_in_window",
        counter_delta(w, "checkpoint.count"),
        "count",
    );
    out.extra.set("txn.commits_in_window", commits, "count");
    if let Some(h) = w
        .after
        .as_ref()
        .and_then(|m| m.histogram("wal.fsync_latency_ns"))
    {
        out.extra
            .set("wal.fsync_us.registry_mean", h.mean() / 1e3, "us");
    }

    let mut stmt: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut buffers = Vec::new();
    for c in ctxs {
        for (k, v) in c.stmt_ns {
            stmt.entry(k).or_default().extend(v);
        }
        buffers.push(c.tr.into_spans());
    }
    for (kind, v) in &stmt {
        out.extra
            .set(format!("stmt.{kind}.p50_us"), median_u64(v) / 1e3, "us");
    }
    let spans = trace::merge(buffers);
    let st = trace::self_time(&spans);
    out.metrics
        .set("client.explained_frac", st.explained_frac, "frac");
    for (name, (n, ns)) in &st.by_name {
        out.extra.set(
            format!("self.{name}.frac"),
            ratio(*ns as f64, st.root_ns as f64),
            "frac",
        );
        out.extra
            .set(format!("self.{name}.spans"), *n as f64, "count");
    }
    (spans, st)
}

/// The layer kernels every traced run ends with.  `db` is the
/// workload's final database, reopened in this process.
pub fn kernel_rows(k: &KernelInputs, scratch: &Path, db: &mut Db, rows: &mut Rows) -> Res<()> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("kernel scratch: {e}"))?;
    rows.set(
        "parser.ns_per_stmt",
        adapter::kernel_parse(&k.sql_corpus),
        "ns",
    );
    rows.set(
        "plan.prepare_us",
        adapter::kernel_prepare(db, &k.sql_corpus),
        "us",
    );
    let (enc, dec) = adapter::kernel_proto(&k.wire_sample);
    rows.set("proto.encode_ns", enc, "ns");
    rows.set("proto.decode_ns", dec, "ns");
    let sizes: Vec<usize> = k.records.iter().take(256).map(Vec::len).collect();
    let (append, fsync) = adapter::kernel_wal(scratch, &sizes)?;
    rows.set("wal.append_ns", append, "ns");
    rows.set("wal.fsync_us", fsync, "us");
    let (hit, miss) = adapter::kernel_buffer(scratch, k.pool_pages.min(512))?;
    rows.set("buffer.hit_ns", hit, "ns");
    rows.set("buffer.miss_us", miss, "us");
    // a fixed pseudo-random visiting order over the captured inputs
    let order = |n: usize| -> Vec<usize> { (0..n).map(|i| i.wrapping_mul(7919) % n).collect() };
    let (decode, get) = adapter::kernel_heap(&k.records, k.columns, &order(k.records.len()))?;
    rows.set("heap.decode_ns_per_record", decode, "ns");
    rows.set("heap.get_ns", get, "ns");
    let (lookup, insert) = adapter::kernel_bptree(&k.keys, &order(k.keys.len()));
    rows.set("bptree.lookup_ns", lookup, "ns");
    rows.set("bptree.insert_ns", insert, "ns");
    let split = k.texts.len() - (k.texts.len() / 10).max(1);
    let texts: Vec<&str> = k.texts.iter().map(String::as_str).collect();
    let sbc = adapter::kernel_sbc(&texts[..split], &k.patterns, &texts[split..]);
    rows.set("sbc.build_ns_per_record", sbc.build_ns_per_record, "ns");
    rows.set("sbc.probe_us", sbc.probe_us, "us");
    rows.set("sbc.candidates_per_hit", sbc.candidates_per_hit, "ratio");
    rows.set("sbc.insert_us", sbc.insert_us, "us");
    let pairs: Vec<(String, String)> = k
        .keys
        .iter()
        .zip(&k.texts)
        .take(1000)
        .map(|(a, b)| (a.clone(), b.clone()))
        .collect();
    let c = adapter::kernel_curation(scratch, &pairs, k.fsync_on_commit)?;
    rows.set("dep.update_cascade_us", c.update_cascade_us, "us");
    rows.set("approval.decide_us", c.decide_us, "us");
    rows.set("ann.add_us", c.ann_add_us, "us");
    rows.set("ann.propagate_over_plain", c.propagate_over_plain, "ratio");
    rows.set("commit_us", c.commit_us, "us");
    rows.set("calib_ms", crate::calib::run(), "ms");
    Ok(())
}

/// `server::engine` rows: boots a server on `dir` unless one is given.
pub fn server_rows(addr: &str, k: &KernelInputs, rows: &mut Rows) -> Res<()> {
    let (ping, rtt, queue) = adapter::kernel_server(addr, &k.point_sql, &k.point_keys)?;
    rows.set("server.ping_rtt_us", ping, "us");
    rows.set("server.point_exec_rtt_us", rtt, "us");
    rows.set("server.queue_us", queue, "us");
    Ok(())
}

/// The durability rows taken on the workload's final database:
/// recovery time of a crash image, explicit checkpoint time, and bytes
/// stored per byte loaded.  `dir` must be quiescent and not yet closed
/// when `image` was copied from it.
pub fn recovery_row(image: &Path, out: &mut Outcome) -> Res<()> {
    let t = Instant::now();
    let db = adapter::open_db(image)?;
    out.metrics
        .set("open.recovery_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    out.extra.set(
        "open.replayed_commits",
        adapter::replayed_commits(&db) as f64,
        "count",
    );
    adapter::close_db(db)
}

pub fn checkpoint_row(db: &mut Db, rows: &mut Rows) -> Res<()> {
    let mut ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        adapter::checkpoint(db)?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    rows.set("checkpoint_ms", median(&ms), "ms");
    Ok(())
}

/// What an embedded workload hands over once its window is done and
/// its session is dropped.
pub struct Measured<'a> {
    pub workload: &'a str,
    pub window: Window,
    pub ctxs: Vec<Ctx>,
    /// The live pool's `(hits, misses, evictions)` before and after
    /// the window.
    pub pool: [(u64, u64, u64); 2],
    pub setup_s: &'a [f64],
    pub rows_copied: usize,
    pub copy_s: f64,
    pub dir: &'a Path,
    pub bytes_loaded: u64,
    pub count_sql: &'a str,
    pub expect_count: i64,
    /// What the layer kernels replay; `Some` exactly in a traced run.
    pub kernels: Option<KernelInputs>,
}

/// Tally the driver threads' operations into the outcome.
pub fn tally(ctxs: &[Ctx], out: &mut Outcome) {
    out.attempted = ctxs.iter().map(Ctx::attempted_total).sum();
    out.failed = ctxs.iter().map(|c| c.failed).sum();
    out.notes
        .extend(ctxs.iter().flat_map(|c| c.first_errors.iter().cloned()));
}

/// The rest of an embedded workload's run: tally operations; (traced)
/// copy a crash image; close; reopen `open_reps` times for `open_s`,
/// checking the reopened state with `check`; then either report the
/// end-to-end metrics, or the window, recovery, server and kernel rows
/// and `trace.<workload>.json`.
pub fn conclude_embedded(
    cfg: &Cfg,
    db: Db,
    m: Measured<'_>,
    out: &mut Outcome,
    check: impl FnOnce(&mut Db) -> Res<bool>,
) -> Res<()> {
    tally(&m.ctxs, out);
    let image = match m.kernels {
        Some(_) => Some(adapter::crash_image(m.dir, &cfg.work.join("crash-image"))?),
        None => None,
    };
    adapter::close_db(db)?;
    let stored = adapter::dir_bytes(m.dir);
    let (open_s, ok) = open_phase(m.dir, cfg.open_reps(), m.count_sql, m.expect_count, check)?;
    if !ok {
        out.correct = false;
        out.notes
            .push("the reopened database does not hold what the workload left".into());
    }
    let Some(k) = &m.kernels else {
        window_e2e(&m.window, &mut out.metrics);
        out.metrics.set("setup_s", median(m.setup_s), "s");
        out.metrics.set("open_s", open_s, "s");
        out.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
        return Ok(());
    };
    // a checkpoint swaps the pool and restarts its counters: then the
    // counters after the window cover the time since the last swap
    let [p0, p1] = m.pool;
    let pool = if p1.0 >= p0.0 && p1.1 >= p0.1 && p1.2 >= p0.2 {
        (p1.0 - p0.0, p1.1 - p0.1, p1.2 - p0.2)
    } else {
        p1
    };
    let (spans, st) = window_rows(&m.window, m.ctxs, 0, Some(pool), out);
    out.metrics.set(
        "ingest.copy_rows_s",
        m.rows_copied as f64 / m.copy_s,
        "rows/s",
    );
    out.extra.set("open_s.single", open_s, "s");
    out.metrics.set(
        "stored_bytes_per_user_byte",
        ratio(stored as f64, m.bytes_loaded as f64),
        "ratio",
    );
    recovery_row(&image.expect("copied above"), out)?;
    let server = adapter::start_server(m.dir)?;
    let probed = server_rows(&server.addr, k, &mut out.metrics);
    server.stop();
    probed?;
    let mut db = adapter::open_db(m.dir)?;
    checkpoint_row(&mut db, &mut out.metrics)?;
    kernel_rows(k, &cfg.work.join("kernels"), &mut db, &mut out.metrics)?;
    adapter::close_db(db)?;
    write_trace(cfg, m.workload, &spans, &st, out)
}

/// Write `trace.<workload>.json` and finish the outcome's notes.
pub fn write_trace(
    cfg: &Cfg,
    workload: &str,
    spans: &[trace::Span],
    st: &trace::SelfTime,
    out: &Outcome,
) -> Res<()> {
    let rows: Vec<(String, f64, &str)> = out
        .metrics
        .0
        .iter()
        .chain(&out.extra.0)
        .map(|(n, v, u)| (n.clone(), *v, *u))
        .collect();
    std::fs::create_dir_all(&cfg.trace_dir).map_err(|e| format!("trace dir: {e}"))?;
    let path = cfg.trace_dir.join(format!("trace.{workload}.json"));
    std::fs::write(
        &path,
        trace::render_json(workload, cfg.seed, spans, st, &rows),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))
}
