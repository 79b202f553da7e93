//! `curation_txn` — the paper's §7 curator loop: one `Session`,
//! `Durability::Full`, every statement literal SQL.
//!
//! **Why it exists.**  It is the write-side mirror of the two read
//! workloads.  The lexer, parser and planner are paid per statement
//! here (the prepared workloads bypass them), and undo/redo recording,
//! the dependency cascade, the approval log, `Wal::append`, one fsync
//! per commit and the checkpoint rewrite every 1024 commits dominate.
//! A change to parsing, dependency tracking, approval, annotation
//! insertion or the commit path should move it; a change to the batch
//! scan operators or the wire should predict *no change*.
//!
//! **Sizes.**  `Gene` and `Protein` hold 20 000 rows each (~3 MiB of
//! heap together), well inside the default 1024-page = 8 MiB pool —
//! `buffer.hit_frac` should sit near 1.  A dependency rule
//! `Protein.PSequence <- Gene.GSequence` via a non-executable
//! procedure marks the protein outdated on every gene update; content
//! approval on `Gene.GSequence` logs every update as pending; one
//! annotation table takes a cell annotation per operation.  Flush
//! policy: `Durability::Full`, one fsync per `COMMIT`, engine-default
//! checkpoint every 1024 commits.
//!
//! **One operation** (user `alice`): `BEGIN; UPDATE Gene SET GSequence
//! ... WHERE GID = ...; ADD ANNOTATION ... ON (SELECT G.GSequence ...);
//! COMMIT`.  Every 10th operation adds `SHOW OUTDATED ON Protein`;
//! every 20th, `labadmin` approves or disapproves (alternating) the
//! update just made.  One closed loop, one caller.  Genes are visited
//! in a seeded permutation, so no gene is updated twice before its
//! pending operation is decided and the op log implies the final state
//! exactly.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use crate::adapter::{
    self, At, Client, Db, DbOpts, Embedded, MetricsSnapshot, QueryResult, Res, Value, WireOp,
};
use crate::gen::{self, Rng};
use crate::harness::{self, anns_on, Cfg, Ctx, Driver, KernelInputs, Measured};
use crate::report::Outcome;
use crate::trace::{SpanId, NO_SPAN};

use super::{copy_sql, fresh_dir, spread, substrings, write_input};

const ROWS: usize = 20_000;
const WARMUP_OPS: usize = 100;

struct Inputs {
    n: usize,
    seqs: Vec<String>,
    gene_tsv: std::path::PathBuf,
    protein_tsv: std::path::PathBuf,
    bytes_loaded: u64,
    /// The order genes are visited in.
    order: Vec<u32>,
}

impl Inputs {
    fn generate(cfg: &Cfg) -> Res<Inputs> {
        let mut rng = Rng::fork(cfg.seed, 0xC0A);
        let n = cfg.scaled(ROWS, 100);
        let seqs: Vec<String> = (0..n)
            .map(|_| gen::dna(&mut rng, gen::GENE_SEQ_LEN))
            .collect();
        let (mut genes, mut proteins) = (String::new(), String::new());
        for (i, s) in seqs.iter().enumerate() {
            let gid = gen::gene_id(i);
            genes.push_str(&format!("{gid}\tgene{i:05}\t{s}\n"));
            proteins.push_str(&format!(
                "prot{i:05}\t{gid}\t{}\tfunction {}\n",
                &s[..20],
                i % 97
            ));
        }
        let (gene_tsv, protein_tsv) = (cfg.work.join("cgene.tsv"), cfg.work.join("cprotein.tsv"));
        write_input(&gene_tsv, &genes)?;
        write_input(&protein_tsv, &proteins)?;
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.range(0, i + 1));
        }
        Ok(Inputs {
            n,
            seqs,
            gene_tsv,
            protein_tsv,
            bytes_loaded: (genes.len() + proteins.len()) as u64,
            order,
        })
    }
}

fn setup(inp: &Inputs, dir: &Path) -> Res<(Db, f64)> {
    let mut db = adapter::create_db(
        dir,
        DbOpts {
            fsync_on_commit: true,
            pool_pages: adapter::DEFAULT_POOL_PAGES,
        },
    )?;
    let mut run = |s: &str| adapter::sql(&mut db, s);
    run("CREATE TABLE Gene (GID TEXT, GName TEXT, GSequence TEXT)")?;
    run("CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence TEXT, PFunction TEXT)")?;
    let t = Instant::now();
    run(&copy_sql("Gene", &inp.gene_tsv, "TSV"))?;
    run(&copy_sql("Protein", &inp.protein_tsv, "TSV"))?;
    let copy_s = t.elapsed().as_secs_f64();
    for ddl in [
        "CREATE INDEX gene_gid ON Gene (GID)",
        "CREATE INDEX protein_gid ON Protein (GID)",
        "ANALYZE Gene",
        "ANALYZE Protein",
        "CREATE ANNOTATION TABLE Comments ON Gene",
        "CREATE USER labadmin",
        "CREATE USER alice IN GROUP lab1",
        "GRANT SELECT, INSERT, UPDATE ON Gene TO lab1",
        "GRANT SELECT ON Protein TO lab1",
        "CREATE DEPENDENCY RULE r1 FROM Gene.GSequence TO Protein.PSequence \
         VIA PROCEDURE 'lab-experiment' LINK Gene.GID = Protein.GID",
        "START CONTENT APPROVAL ON Gene COLUMNS GSequence APPROVED BY labadmin",
    ] {
        run(ddl)?;
    }
    adapter::checkpoint(&mut db)?;
    Ok((db, copy_s))
}

/// What the op log implies about the database.
#[derive(Default)]
struct Log {
    /// Operations committed so far (= annotations added, = approval ids used).
    ops: usize,
    /// Gene -> the sequence it must hold now, for every gene touched.
    current: HashMap<usize, String>,
    /// Statement texts of the traced part, for the parser kernel.
    corpus: Vec<String>,
    sample: Vec<(WireOp, QueryResult)>,
}

struct Drv<'a, 'db> {
    client: &'a mut Embedded<'db>,
    inp: &'a Inputs,
    rng: Rng,
    log: Log,
}

impl Drv<'_, '_> {
    fn op(&mut self, ctx: &mut Ctx, op: u64, root: SpanId) -> Res<bool> {
        let i = self.log.ops;
        let gene = self.inp.order[i % self.inp.n] as usize;
        let gid = gen::gene_id(gene);
        let new_seq = gen::dna(&mut self.rng, gen::GENE_SEQ_LEN);
        let old_seq = self
            .log
            .current
            .get(&gene)
            .unwrap_or(&self.inp.seqs[gene])
            .clone();
        let texts = [
            ("begin", "BEGIN".to_string()),
            (
                "update",
                format!("UPDATE Gene SET GSequence = '{new_seq}' WHERE GID = '{gid}'"),
            ),
            (
                "add_annotation",
                format!(
                    "ADD ANNOTATION TO Gene.Comments VALUE 'op {i}: resequenced by alice' \
                     ON (SELECT G.GSequence FROM Gene G WHERE GID = '{gid}')"
                ),
            ),
            ("commit", "COMMIT".to_string()),
        ];
        let mut ok = true;
        for (kind, sql) in &texts {
            let r = self.stmt(ctx, op, root, kind, sql)?;
            if *kind == "update" {
                ok &= r.affected == 1;
            }
        }
        self.log.ops += 1;
        self.log.current.insert(gene, new_seq);
        if (i + 1).is_multiple_of(10) {
            let r = self.stmt(ctx, op, root, "show_outdated", "SHOW OUTDATED ON Protein")?;
            ok &= r.rows.len() == self.log.current.len();
        }
        if (i + 1).is_multiple_of(20) {
            // approval ids are handed out in log order from 0; this
            // operation's UPDATE is the i-th logged operation
            let approve = (i + 1).is_multiple_of(40);
            let (verb, kind) = if approve {
                ("APPROVE", "approve")
            } else {
                ("DISAPPROVE", "disapprove")
            };
            self.client.set_user("labadmin");
            let decided = self.stmt(ctx, op, root, kind, &format!("{verb} OPERATION {i}"));
            self.client.set_user("alice");
            decided?;
            if !approve {
                // the inverse restored the old value; the protein stays outdated
                self.log.current.insert(gene, old_seq);
            }
        }
        ctx.poll_checkpoints(&mut *self.client);
        Ok(ok)
    }

    /// One literal statement; the traced part keeps its text (parser
    /// kernel) and a few request/reply pairs (codec kernel).
    fn stmt(
        &mut self,
        ctx: &mut Ctx,
        op: u64,
        root: SpanId,
        kind: &'static str,
        sql: &str,
    ) -> Res<QueryResult> {
        let client = &mut *self.client;
        let r = ctx.stmt(kind, op, root, |at: At<'_>| client.run(sql, at))?;
        if ctx.tr.is_on() && self.log.corpus.len() < 400 {
            self.log.corpus.push(sql.to_string());
            if self.log.sample.len() < 64 {
                self.log
                    .sample
                    .push((WireOp::Run(sql.to_string()), r.clone()));
            }
        }
        Ok(r)
    }

    /// The database holds exactly what the op log implies: outdated
    /// cells, annotations, pending operations, and current sequences.
    fn verify(log: &Log, mut run: impl FnMut(&str) -> Res<QueryResult>) -> Res<bool> {
        let mut ok = run("SHOW OUTDATED ON Protein")?.rows.len() == log.current.len();
        ok &= anns_on(&run("SELECT GSequence FROM Gene ANNOTATION(Comments)")?, 0) == log.ops;
        ok &= run("SHOW PENDING OPERATIONS ON Gene")?.rows.len() == log.ops - log.ops / 20;
        let mut genes: Vec<(&usize, &String)> = log.current.iter().collect();
        genes.sort_unstable();
        for i in spread(genes.len(), 500) {
            let (gene, seq) = genes[i];
            let r = run(&format!(
                "SELECT GSequence FROM Gene WHERE GID = '{}'",
                gen::gene_id(*gene)
            ))?;
            ok &= r.rows.len() == 1 && r.rows[0].values[0].as_text() == Some(seq.as_str());
        }
        Ok(ok)
    }
}

impl Driver for Drv<'_, '_> {
    fn run_part(&mut self, ctxs: &mut [Ctx], until: Instant) {
        ctxs[0].drive(until, |ctx, op, root| {
            Ok(("op.curate", self.op(ctx, op, root)?))
        });
    }

    fn snapshot(&mut self) -> Option<MetricsSnapshot> {
        self.client.metrics().ok()
    }
}

pub fn run(cfg: &Cfg) -> Res<Outcome> {
    let inp = Inputs::generate(cfg)?;
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
        let mut client = Embedded::new(&mut db, "alice");
        let mut drv = Drv {
            client: &mut client,
            inp: &inp,
            rng: Rng::fork(cfg.seed, 0xD0 + rep as u64),
            log: Log::default(),
        };
        let mut warm = Ctx::new(0, Instant::now());
        for i in 0..cfg.scaled(WARMUP_OPS, 8) {
            if !drv.op(&mut warm, i as u64, NO_SPAN)? {
                return Err("warm-up operation returned a wrong answer".into());
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < reps {
            drop(client);
            adapter::close_db(db)?;
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }

        // ---- the window ----
        let mut ctxs = vec![Ctx::new(0, Instant::now())];
        let p0 = drv.client.pool_counters();
        let w = harness::run_window(cfg, &mut ctxs, &mut drv);
        let p1 = drv.client.pool_counters();
        if drv.client.frames() != 0 {
            out.correct = false;
            out.notes
                .push("bypass broken: an embedded window sent frames".into());
        }

        let mut off = crate::trace::Tracer::off();
        drv.client.set_user("admin");
        if !Drv::verify(&drv.log, |s| {
            drv.client.run(s, At::new(&mut off, 0, NO_SPAN))
        })? {
            out.correct = false;
            out.notes
                .push("the database does not hold what the op log implies".into());
        }
        let mut log = std::mem::take(&mut drv.log);
        let captured = (
            std::mem::take(&mut log.corpus),
            std::mem::take(&mut log.sample),
        );
        drop(drv);
        drop(client);

        let measured = Measured {
            workload: "curation_txn",
            window: w,
            ctxs,
            pool: [p0, p1],
            setup_s: &setup_s,
            rows_copied: 2 * inp.n,
            copy_s,
            dir: &dir,
            bytes_loaded: inp.bytes_loaded,
            count_sql: "SELECT COUNT(*) FROM Gene",
            expect_count: inp.n as i64,
            kernels: cfg.trace.then(|| kernel_inputs(&inp, cfg, captured)),
        };
        harness::conclude_embedded(cfg, db, measured, &mut out, |db| {
            Drv::verify(&log, |s| adapter::sql(db, s))
        })?;
        return Ok(out);
    }
    unreachable!("the last set-up repetition returns")
}

fn kernel_inputs(
    inp: &Inputs,
    cfg: &Cfg,
    captured: (Vec<String>, Vec<(WireOp, QueryResult)>),
) -> KernelInputs {
    let picks: Vec<usize> = spread(inp.n, 20_000).collect();
    let texts: Vec<String> = spread(inp.n, 1000).map(|i| inp.seqs[i].clone()).collect();
    let patterns = substrings(&texts, cfg.seed, 8, 25);
    KernelInputs {
        sql_corpus: captured.0,
        wire_sample: captured.1,
        point_sql: "SELECT GName, GSequence FROM Gene WHERE GID = ?".into(),
        point_keys: spread(inp.n, 300)
            .map(|i| Value::Text(gen::gene_id(i)))
            .collect(),
        records: picks
            .iter()
            .map(|&i| {
                adapter::encode_row(&[
                    Value::Text(gen::gene_id(i)),
                    Value::Text(format!("gene{i:05}")),
                    Value::Text(inp.seqs[i].clone()),
                ])
            })
            .collect(),
        columns: 3,
        keys: picks.iter().map(|&i| gen::gene_id(i)).collect(),
        texts,
        patterns,
        pool_pages: adapter::DEFAULT_POOL_PAGES,
        fsync_on_commit: true,
    }
}
