//! `seq_pipeline` — bulk-load sequences, index them, search them: one
//! `Session`, `Durability::NoSync`.
//!
//! **Why it exists.**  `seq::sbc_tree`, `seq::rle` and `core::ingest`
//! do the work here and nothing else does.  Set-up is `COPY ... FORMAT
//! FASTA` plus `CREATE SEQUENCE INDEX ... USING SBC`, so **`setup_s` on
//! this workload is the ingest metric**, and `open_s` is the cost of
//! rebuilding the sequence index on every open (ROADMAP item 3).  The
//! 5 % inserts maintain the same index the probes read, so a probe gain
//! bought with slower maintenance shows.  A change to the SBC-tree, RLE
//! or the loader should move it; a change to fsync, group commit or the
//! wire should predict *no change* (asserted: `wal.fsyncs` does not
//! move, no frame is sent).
//!
//! **Sizes.**  8 000 protein secondary-structure records of 300
//! characters (mean run 8) — 2.4 MB of sequence, inside the default
//! 8 MiB pool.  Flush policy: `NoSync` (commits append to the WAL and
//! never fsync); engine-default checkpoint every 1024 commits.
//!
//! **Operations.**  85 % `SELECT PID ... WHERE SS CONTAINS SEQ '<p>'`
//! with pattern length 8-48, half cut from the corpus and half uniform
//! random H/E/L strings (which a mean-run-8 corpus almost never holds);
//! 10 % prepared `SUBSEQ` of one record; 5 % prepared `INSERT` of a new
//! sequence.  The grammar takes the `CONTAINS SEQ` pattern only as a
//! string literal, so probes go through `Session::run` and pay lex and
//! parse per call.  One closed loop, one caller.  One probe in a
//! hundred is compared with `str::contains` over the corpus.

use std::path::Path;
use std::time::Instant;

use crate::adapter::{
    self, At, Client, Db, DbOpts, Embedded, MetricsSnapshot, QueryResult, Res, Stmt, Value, WireOp,
};
use crate::gen::{self, Deck, Rng};
use crate::harness::{self, Cfg, Ctx, Driver, KernelInputs, Measured};
use crate::report::Outcome;
use crate::trace::{SpanId, NO_SPAN};

use super::{copy_sql, fresh_dir, spread, write_input};

const RECORDS: usize = 8_000;
const SEQ_LEN: usize = 300;
const MEAN_RUN: f64 = 8.0;
const WARMUP_OPS: usize = 200;

const SUBSEQ: &str = "SELECT SUBSEQ(SS, ?, ?) FROM Prot WHERE PID = ?";
const INSERT: &str = "INSERT INTO Prot VALUES (?, ?)";

fn pid(i: usize) -> String {
    format!("P{i:07}")
}

struct Inputs {
    corpus: Vec<String>,
    fasta: std::path::PathBuf,
    bytes_loaded: u64,
}

fn setup(inp: &Inputs, dir: &Path) -> Res<(Db, f64)> {
    let mut db = adapter::create_db(
        dir,
        DbOpts {
            fsync_on_commit: false,
            pool_pages: adapter::DEFAULT_POOL_PAGES,
        },
    )?;
    let mut run = |s: &str| adapter::sql(&mut db, s);
    run("CREATE TABLE Prot (PID TEXT, SS TEXT)")?;
    let t = Instant::now();
    let loaded = run(&copy_sql("Prot", &inp.fasta, "FASTA"))?.affected;
    let copy_s = t.elapsed().as_secs_f64();
    if loaded != inp.corpus.len() {
        return Err(format!(
            "COPY loaded {loaded} of {} records",
            inp.corpus.len()
        ));
    }
    run("CREATE SEQUENCE INDEX prot_ss ON Prot (SS) USING SBC")?;
    run("CREATE INDEX prot_pid ON Prot (PID)")?;
    run("ANALYZE Prot")?;
    adapter::checkpoint(&mut db)?;
    Ok((db, copy_s))
}

/// A probe kept for the after-window comparison with `str::contains`.
struct Sampled {
    pattern: String,
    rows: usize,
    /// How many inserted sequences the probe could see.
    inserted: usize,
}

#[derive(Default)]
struct Log {
    inserted: Vec<String>,
    sampled: Vec<Sampled>,
    probes: u64,
    patterns: Vec<String>,
    sample: Vec<(WireOp, QueryResult)>,
}

impl Log {
    fn naive_count(&self, inp: &Inputs, pattern: &str, inserted: usize) -> usize {
        inp.corpus
            .iter()
            .chain(&self.inserted[..inserted])
            .filter(|s| s.contains(pattern))
            .count()
    }

    /// The sampled probes agree with a scan, and what was inserted is
    /// there (both through `run`, before and after the reopen).
    fn verify(
        &self,
        inp: &Inputs,
        mut run: impl FnMut(&str) -> Res<QueryResult>,
        replay: bool,
    ) -> Res<bool> {
        let mut ok = true;
        for s in &self.sampled {
            ok &= s.rows == self.naive_count(inp, &s.pattern, s.inserted);
            if replay {
                let r = run(&format!(
                    "SELECT PID FROM Prot WHERE SS CONTAINS SEQ '{}'",
                    s.pattern
                ))?;
                ok &= r.rows.len() == self.naive_count(inp, &s.pattern, self.inserted.len());
            }
        }
        for i in spread(self.inserted.len(), 300) {
            let r = run(&format!("SELECT SS FROM Prot WHERE PID = 'N{i:07}'"))?;
            ok &= r.rows.len() == 1
                && r.rows[0].values[0].as_text() == Some(self.inserted[i].as_str());
        }
        Ok(ok)
    }
}

struct Drv<'a, 'db> {
    client: &'a mut Embedded<'db>,
    subseq: Stmt,
    insert: Stmt,
    inp: &'a Inputs,
    rng: Rng,
    /// 85 probes, 10 `SUBSEQ`s, 5 inserts per hundred operations.
    mix: Deck<u8>,
    /// Every pattern length 8..=48 from each source once per 82 probes.
    probes: Deck<(u8, bool)>,
    log: Log,
}

fn decks() -> (Deck<u8>, Deck<(u8, bool)>) {
    (
        Deck::new(
            (0..100)
                .map(|i| (i >= 85) as u8 + (i >= 95) as u8)
                .collect(),
        ),
        Deck::new(
            (8..=48)
                .flat_map(|len| [(len, true), (len, false)])
                .collect(),
        ),
    )
}

impl Drv<'_, '_> {
    fn op(&mut self, ctx: &mut Ctx, op: u64, root: SpanId) -> Res<(&'static str, bool)> {
        let client = &mut *self.client;
        let n = self.inp.corpus.len();
        let choice = self.mix.draw(&mut self.rng);
        if choice == 0 {
            let (len, from_corpus) = self.probes.draw(&mut self.rng);
            let len = len as usize;
            let pattern = if from_corpus {
                let t = &self.inp.corpus[self.rng.range(0, n)];
                let at = self.rng.range(0, t.len() - len + 1);
                t[at..at + len].to_string()
            } else {
                gen::random_ss(&mut self.rng, len)
            };
            let sql = format!("SELECT PID FROM Prot WHERE SS CONTAINS SEQ '{pattern}'");
            let r = ctx.stmt("contains_seq", op, root, |at: At<'_>| client.run(&sql, at))?;
            let ok = !from_corpus || !r.rows.is_empty();
            self.log.probes += 1;
            if self.log.probes.is_multiple_of(100) {
                self.log.sampled.push(Sampled {
                    pattern: pattern.clone(),
                    rows: r.rows.len(),
                    inserted: self.log.inserted.len(),
                });
            }
            if ctx.tr.is_on() && self.log.patterns.len() < 200 {
                self.log.patterns.push(pattern);
                if self.log.sample.len() < 48 && r.rows.len() < 2000 {
                    self.log.sample.push((WireOp::Run(sql), r));
                }
            }
            Ok(("op.contains_seq", ok))
        } else if choice == 1 {
            let i = self.rng.range(0, n);
            let lo = self.rng.range(1, SEQ_LEN / 2);
            let hi = self.rng.range(lo, SEQ_LEN + 1);
            let params = [
                Value::Int(lo as i64),
                Value::Int(hi as i64),
                Value::Text(pid(i)),
            ];
            let stmt = &self.subseq;
            let r = ctx.stmt("subseq", op, root, |at: At<'_>| {
                client.select(stmt, &params, at)
            })?;
            let want = &self.inp.corpus[i][lo - 1..hi];
            Ok((
                "op.subseq",
                r.rows.len() == 1 && r.rows[0].values[0].as_text() == Some(want),
            ))
        } else {
            let seq = gen::secondary_structure(&mut self.rng, SEQ_LEN, MEAN_RUN);
            let params = [
                Value::Text(format!("N{:07}", self.log.inserted.len())),
                Value::Text(seq.clone()),
            ];
            let stmt = &self.insert;
            let r = ctx.stmt("insert", op, root, |at: At<'_>| {
                client.execute(stmt, &params, at)
            })?;
            self.log.inserted.push(seq);
            ctx.poll_checkpoints(client);
            Ok(("op.insert", r.affected == 1))
        }
    }
}

impl Driver for Drv<'_, '_> {
    fn run_part(&mut self, ctxs: &mut [Ctx], until: Instant) {
        ctxs[0].drive(until, |ctx, op, root| self.op(ctx, op, root));
    }

    fn snapshot(&mut self) -> Option<MetricsSnapshot> {
        self.client.metrics().ok()
    }
}

pub fn run(cfg: &Cfg) -> Res<Outcome> {
    let mut rng = Rng::fork(cfg.seed, 0x5E9);
    let n = cfg.scaled(RECORDS, 60);
    let corpus: Vec<String> = (0..n)
        .map(|_| gen::secondary_structure(&mut rng, SEQ_LEN, MEAN_RUN))
        .collect();
    let text = gen::fasta(corpus.iter().enumerate().map(|(i, s)| (pid(i), s.clone())));
    let fasta = cfg.work.join("prot.fasta");
    write_input(&fasta, &text)?;
    let inp = Inputs {
        corpus,
        fasta,
        bytes_loaded: text.len() as u64,
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
        let (mut db, copy_s) = setup(&inp, &dir)?;
        let mut client = Embedded::new(&mut db, "admin");
        let (mix, probes) = decks();
        let mut drv = Drv {
            mix,
            probes,
            subseq: client.prepare(SUBSEQ)?,
            insert: client.prepare(INSERT)?,
            client: &mut client,
            inp: &inp,
            rng: Rng::fork(cfg.seed, 0xD0 + rep as u64),
            log: Log::default(),
        };
        let mut warm = Ctx::new(0, Instant::now());
        for i in 0..cfg.scaled(WARMUP_OPS, 8) {
            if !drv.op(&mut warm, i as u64, NO_SPAN)?.1 {
                return Err("warm-up operation returned a wrong answer".into());
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < reps {
            drop(drv);
            drop(client);
            adapter::close_db(db)?;
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }

        // ---- the window ----
        let mut ctxs = vec![Ctx::new(0, Instant::now())];
        let s0 = drv.snapshot();
        let p0 = drv.client.pool_counters();
        let w = harness::run_window(cfg, &mut ctxs, &mut drv);
        let p1 = drv.client.pool_counters();
        let s1 = drv.snapshot();
        let fsyncs = |s: &Option<MetricsSnapshot>| {
            s.as_ref()
                .and_then(|m| m.counter("wal.fsyncs"))
                .unwrap_or(0)
        };
        if fsyncs(&s1) != fsyncs(&s0) || drv.client.frames() != 0 {
            out.correct = false;
            out.notes
                .push("bypass broken: a NoSync embedded window fsynced or sent frames".into());
        }

        let mut off = crate::trace::Tracer::off();
        if !drv.log.verify(
            &inp,
            |s| drv.client.run(s, At::new(&mut off, 0, NO_SPAN)),
            false,
        )? {
            out.correct = false;
            out.notes.push(
                "a sampled probe disagrees with str::contains, or an insert is missing".into(),
            );
        }
        let mut log = std::mem::take(&mut drv.log);
        drop(drv);
        drop(client);

        let expect_count = (n + log.inserted.len()) as i64;
        let inserted_bytes = log.inserted.len() as u64 * (SEQ_LEN as u64 + 10);
        let captured = (
            std::mem::take(&mut log.patterns),
            std::mem::take(&mut log.sample),
        );
        let measured = Measured {
            workload: "seq_pipeline",
            window: w,
            ctxs,
            pool: [p0, p1],
            setup_s: &setup_s,
            rows_copied: n,
            copy_s,
            dir: &dir,
            bytes_loaded: inp.bytes_loaded + inserted_bytes,
            count_sql: "SELECT COUNT(*) FROM Prot",
            expect_count,
            kernels: cfg.trace.then(|| kernel_inputs(&inp, captured)),
        };
        harness::conclude_embedded(cfg, db, measured, &mut out, |db| {
            log.verify(&inp, |s| adapter::sql(db, s), true)
        })?;
        return Ok(out);
    }
    unreachable!("the last set-up repetition returns")
}

fn kernel_inputs(
    inp: &Inputs,
    captured: (Vec<String>, Vec<(WireOp, QueryResult)>),
) -> KernelInputs {
    let n = inp.corpus.len();
    let (patterns, wire_sample) = captured;
    let mut sql_corpus: Vec<String> = patterns
        .iter()
        .map(|p| format!("SELECT PID FROM Prot WHERE SS CONTAINS SEQ '{p}'"))
        .collect();
    sql_corpus.extend([SUBSEQ.to_string(), INSERT.to_string()]);
    KernelInputs {
        sql_corpus,
        wire_sample,
        point_sql: "SELECT SS FROM Prot WHERE PID = ?".into(),
        point_keys: spread(n, 300).map(|i| Value::Text(pid(i))).collect(),
        records: (0..n)
            .map(|i| {
                adapter::encode_row(&[Value::Text(pid(i)), Value::Text(inp.corpus[i].clone())])
            })
            .collect(),
        columns: 2,
        keys: (0..n).map(pid).collect(),
        texts: spread(n, 1000).map(|i| inp.corpus[i].clone()).collect(),
        patterns,
        pool_pages: adapter::DEFAULT_POOL_PAGES,
        fsync_on_commit: false,
    }
}
