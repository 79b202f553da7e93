//! `embedded_analytic` — one `Session`, read-only, table larger than
//! the buffer pool.
//!
//! **Why it exists.**  `core::batch`/`executor`, `storage::heap`
//! decode, buffer-pool misses and annotation attach do all the work
//! here; the WAL, fsync and the wire do none (asserted: `wal.fsyncs`
//! does not move in the window and no frame is sent).  It is the
//! workload a change to the batch operators, the scan path or the
//! annotation manager should move, and the one on which a change to the
//! commit path or the codec should predict *no change*.
//!
//! **Sizes.**  `Gene` holds 40 000 rows (~4.7 MiB of heap), read
//! through a 192-page = 1.5 MiB pool — ~3x the pool, so every full scan
//! misses the pool and pays page read + CRC.  A 400-row `Tag` dimension
//! and ~130 annotations over ~8 000 rows at row, cell and column
//! granularity ride along.  Flush policy: irrelevant in the window (no
//! commits); set-up runs under `Durability::Full`.
//!
//! **One operation** is one round of seven prepared statements
//! (full-scan `GROUP BY`, 10 % filter, hash join, 1 % indexed range,
//! `ANNOTATION(...)` propagation scan, `AWHERE`, `PROMOTE`).  One
//! closed loop, one caller.  Every result is checked against an oracle
//! computed by the generator.

use std::path::Path;
use std::time::Instant;

use crate::adapter::{
    self, At, Client, Db, DbOpts, Embedded, MetricsSnapshot, Res, Stmt, Value, WireOp,
};
use crate::gen::Rng;
use crate::harness::{self, anns_on, Cfg, Ctx, Driver, KernelInputs, Measured};
use crate::report::Outcome;
use crate::trace::SpanId;

use super::{copy_sql, fresh_dir, write_input, GeneTable};

const GENE_ROWS: usize = 40_000;
const POOL_PAGES: usize = 192;
const WARMUP_ROUNDS: usize = 3;

const GID: u8 = 1;
const NAME: u8 = 2;
const SEQ: u8 = 16;
const ALL: u8 = 31;

/// One `ADD ANNOTATION` of the set-up: rows `lo..hi` (by `Len`), the
/// covered columns, and whether its text says `suspect`.
struct AnnSpec {
    lo: usize,
    hi: usize,
    cols: u8,
    suspect: bool,
}

struct Inputs {
    gene: GeneTable,
    tag_tsv: std::path::PathBuf,
    bytes_loaded: u64,
    anns: Vec<AnnSpec>,
    // the oracle, computed from the generated values alone
    tag_count: Vec<i64>,
    tag_sum: Vec<i64>,
    /// Per row: indices of the range annotations covering it.
    row_anns: Vec<Vec<u16>>,
    tag_ann_gid: Vec<i64>,
    tag_ann_seq: Vec<i64>,
}

impl Inputs {
    fn generate(cfg: &Cfg) -> Res<Inputs> {
        let mut rng = Rng::fork(cfg.seed, 0xA11);
        let n = cfg.scaled(GENE_ROWS, 200);
        let n_tags = (n / 100).max(10);
        let gene = GeneTable::generate(&mut rng, n, n_tags, &cfg.work)?;
        let mut tags = String::new();
        for t in 0..n_tags {
            tags.push_str(&format!("{t}\ttag{t:04}\t{}\n", t % 10));
        }
        let tag_tsv = cfg.work.join("tag.tsv");
        write_input(&tag_tsv, &tags)?;

        let width = (n / 600).max(4);
        let mut anns = Vec::new();
        for k in 0..(n / 300).max(4) {
            let lo = rng.range(0, n - width);
            anns.push(AnnSpec {
                lo,
                hi: lo + width,
                cols: match k % 4 {
                    0 | 2 => ALL,
                    1 => SEQ,
                    _ => NAME | SEQ,
                },
                suspect: k % 3 == 0,
            });
        }
        let mut row_anns = vec![Vec::new(); n];
        for (k, a) in anns.iter().enumerate() {
            for slot in &mut row_anns[a.lo..a.hi] {
                slot.push(k as u16);
            }
        }
        let (mut tag_count, mut tag_sum) = (vec![0i64; n_tags], vec![0i64; n_tags]);
        let (mut tag_ann_gid, mut tag_ann_seq) = (vec![0i64; n_tags], vec![0i64; n_tags]);
        for (i, r) in gene.rows.iter().enumerate() {
            let t = r.tag as usize;
            tag_count[t] += 1;
            tag_sum[t] += i as i64;
            for &k in &row_anns[i] {
                let cols = anns[k as usize].cols;
                tag_ann_gid[t] += i64::from(cols & GID != 0);
                tag_ann_seq[t] += i64::from(cols & SEQ != 0);
            }
        }
        Ok(Inputs {
            bytes_loaded: gene.tsv_bytes + tags.len() as u64,
            gene,
            tag_tsv,
            anns,
            tag_count,
            tag_sum,
            row_anns,
            tag_ann_gid,
            tag_ann_seq,
        })
    }

    fn n(&self) -> usize {
        self.gene.len()
    }

    /// Annotations on row `i` whose columns intersect `mask`, plus the
    /// one column-level annotation on `GName`.
    fn anns_touching(&self, i: usize, mask: u8) -> usize {
        self.row_anns[i]
            .iter()
            .filter(|&&k| self.anns[k as usize].cols & mask != 0)
            .count()
            + usize::from(mask & NAME != 0)
    }

    fn is_suspect(&self, i: usize) -> bool {
        self.row_anns[i]
            .iter()
            .any(|&k| self.anns[k as usize].suspect)
    }
}

fn setup(inp: &Inputs, dir: &Path, cfg: &Cfg) -> Res<(Db, f64)> {
    let mut db = adapter::create_db(
        dir,
        DbOpts {
            fsync_on_commit: true,
            pool_pages: cfg.scaled(POOL_PAGES, 16),
        },
    )?;
    let copy_s = inp
        .gene
        .load(&["CREATE INDEX gene_len ON Gene (Len)"], |s| {
            adapter::sql(&mut db, s)
        })?;
    let mut run = |s: &str| adapter::sql(&mut db, s);
    run("CREATE TABLE Tag (TagId INT, TName TEXT, Weight INT)")?;
    run(&copy_sql("Tag", &inp.tag_tsv, "TSV"))?;
    run("ANALYZE Tag")?;
    run("CREATE ANNOTATION TABLE GAnnotation ON Gene")?;
    run(
        "ADD ANNOTATION TO Gene.GAnnotation VALUE 'imported from GenoBase' \
         ON (SELECT G.GName FROM Gene G)",
    )?;
    for (k, a) in inp.anns.iter().enumerate() {
        let cols = match a.cols {
            ALL => "G.*",
            SEQ => "G.GSequence",
            _ => "G.GName, G.GSequence",
        };
        let word = if a.suspect { "suspect" } else { "curated" };
        run(&format!(
            "ADD ANNOTATION TO Gene.GAnnotation VALUE '{word}: batch {k}' \
             ON (SELECT {cols} FROM Gene G WHERE Len >= {} AND Len < {})",
            a.lo, a.hi
        ))?;
    }
    adapter::checkpoint(&mut db)?;
    Ok((db, copy_s))
}

const KINDS: [&str; 7] = [
    "agg", "filter", "join", "range", "ann_scan", "awhere", "promote",
];
const SQL: [&str; 7] = [
    "SELECT TagId, COUNT(*), SUM(Len) FROM Gene GROUP BY TagId",
    "SELECT GID, Len FROM Gene WHERE TagId >= ? AND TagId < ?",
    "SELECT G.GID, T.TName FROM Gene G, Tag T WHERE G.TagId = T.TagId AND T.Weight = ?",
    "SELECT GID, Len FROM Gene WHERE Len >= ? AND Len < ?",
    "SELECT GID, GSequence FROM Gene ANNOTATION(GAnnotation) WHERE TagId >= ? AND TagId < ?",
    "SELECT GID, GSequence FROM Gene ANNOTATION(GAnnotation) WHERE Len >= ? AND Len < ? \
     AWHERE CONTAINS 'suspect'",
    "SELECT GID PROMOTE (GSequence, GName) FROM Gene ANNOTATION(GAnnotation) \
     WHERE Len >= ? AND Len < ?",
];

struct Drv<'a, 'db> {
    client: &'a mut Embedded<'db>,
    stmts: Vec<Stmt>,
    inp: &'a Inputs,
    rng: Rng,
    /// Requests and replies kept for the codec kernel (traced part).
    sample: Vec<(WireOp, adapter::QueryResult)>,
}

impl Drv<'_, '_> {
    /// One round: seven statements, each checked against the oracle.
    fn round(&mut self, ctx: &mut Ctx, op: u64, root: SpanId) -> Res<bool> {
        let inp = self.inp;
        let (n, n_tags) = (inp.n(), inp.tag_count.len());
        let tag_w = (n_tags / 10).max(1);
        let t0 = self.rng.range(0, n_tags - tag_w + 1);
        let weight = self.rng.below(10) as i64;
        let len_w = (n / 100).max(2);
        let l0 = self.rng.range(0, n - len_w + 1);
        let tags = [Value::Int(t0 as i64), Value::Int((t0 + tag_w) as i64)];
        let lens = [Value::Int(l0 as i64), Value::Int((l0 + len_w) as i64)];
        let weights = [Value::Int(weight)];
        let params: [&[Value]; 7] = [&[], &tags, &weights, &lens, &tags, &lens, &lens];
        let mut ok = true;
        for q in 0..7 {
            let (client, stmt) = (&mut *self.client, &self.stmts[q]);
            let r = ctx.stmt(KINDS[q], op, root, |at: At<'_>| {
                client.select(stmt, params[q], at)
            })?;
            let in_tags = |v: &[i64]| v[t0..t0 + tag_w].iter().sum::<i64>();
            ok &= match q {
                0 => {
                    r.rows.len() == inp.tag_count.iter().filter(|&&c| c > 0).count()
                        && r.rows.iter().all(|row| {
                            let t = row.values[0].as_int().unwrap_or(-1) as usize;
                            t < n_tags
                                && row.values[1].as_int() == Some(inp.tag_count[t])
                                && row.values[2].as_int() == Some(inp.tag_sum[t])
                        })
                }
                1 => {
                    r.rows.len() as i64 == in_tags(&inp.tag_count)
                        && r.rows
                            .iter()
                            .filter_map(|x| x.values[1].as_int())
                            .sum::<i64>()
                            == in_tags(&inp.tag_sum)
                }
                2 => {
                    let want: i64 = (0..n_tags)
                        .filter(|t| (t % 10) as i64 == weight)
                        .map(|t| inp.tag_count[t])
                        .sum();
                    r.rows.len() as i64 == want
                }
                3 => {
                    r.rows.len() == len_w
                        && r.rows
                            .iter()
                            .filter_map(|x| x.values[1].as_int())
                            .sum::<i64>()
                            == (l0..l0 + len_w).sum::<usize>() as i64
                }
                4 => {
                    r.rows.len() as i64 == in_tags(&inp.tag_count)
                        && anns_on(&r, 0) as i64 == in_tags(&inp.tag_ann_gid)
                        && anns_on(&r, 1) as i64 == in_tags(&inp.tag_ann_seq)
                }
                5 => {
                    let keep: Vec<usize> =
                        (l0..l0 + len_w).filter(|&i| inp.is_suspect(i)).collect();
                    r.rows.len() == keep.len()
                        && anns_on(&r, 1)
                            == keep
                                .iter()
                                .map(|&i| inp.anns_touching(i, SEQ))
                                .sum::<usize>()
                }
                _ => {
                    r.rows.len() == len_w
                        && anns_on(&r, 0)
                            == (l0..l0 + len_w)
                                .map(|i| inp.anns_touching(i, GID | SEQ | NAME))
                                .sum::<usize>()
                }
            };
            if ctx.tr.is_on() && self.sample.len() < 14 {
                self.sample.push((WireOp::Query(params[q].to_vec()), r));
            }
        }
        Ok(ok)
    }
}

impl Driver for Drv<'_, '_> {
    fn run_part(&mut self, ctxs: &mut [Ctx], until: Instant) {
        ctxs[0].drive(until, |ctx, op, root| {
            Ok(("op.round", self.round(ctx, op, root)?))
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
        let (mut db, copy_s) = setup(&inp, &dir, cfg)?;
        let mut client = Embedded::new(&mut db, "admin");
        let stmts = SQL
            .iter()
            .map(|s| client.prepare(s))
            .collect::<Res<Vec<_>>>()?;
        let mut drv = Drv {
            client: &mut client,
            stmts,
            inp: &inp,
            rng: Rng::fork(cfg.seed, 0xD0 + rep as u64),
            sample: Vec::new(),
        };
        let mut warm = Ctx::new(0, Instant::now());
        for i in 0..WARMUP_ROUNDS {
            if !drv.round(&mut warm, i as u64, crate::trace::NO_SPAN)? {
                return Err("warm-up round returned a wrong answer".into());
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
        let s0 = drv.snapshot();
        let p0 = drv.client.pool_counters();
        let w = harness::run_window(cfg, &mut ctxs, &mut drv);
        let p1 = drv.client.pool_counters();
        let s1 = drv.snapshot();
        let moved = |name: &str| {
            let get = |s: &Option<MetricsSnapshot>| s.as_ref().and_then(|m| m.counter(name));
            get(&s1).unwrap_or(0) - get(&s0).unwrap_or(0)
        };
        if moved("wal.fsyncs") != 0 || moved("txn.commits") != 0 || drv.client.frames() != 0 {
            out.correct = false;
            out.notes.push(
                "bypass broken: a read-only embedded window fsynced, committed or sent frames"
                    .into(),
            );
        }
        let sample = std::mem::take(&mut drv.sample);
        drop(drv);
        drop(client);
        let measured = Measured {
            workload: "embedded_analytic",
            window: w,
            ctxs,
            pool: [p0, p1],
            setup_s: &setup_s,
            rows_copied: inp.n(),
            copy_s,
            dir: &dir,
            bytes_loaded: inp.bytes_loaded,
            count_sql: "SELECT COUNT(*) FROM Gene",
            expect_count: inp.n() as i64,
            kernels: cfg.trace.then(|| kernel_inputs(&inp, cfg, sample)),
        };
        harness::conclude_embedded(cfg, db, measured, &mut out, |_| Ok(true))?;
        return Ok(out);
    }
    unreachable!("the last set-up repetition returns")
}

fn kernel_inputs(
    inp: &Inputs,
    cfg: &Cfg,
    sample: Vec<(WireOp, adapter::QueryResult)>,
) -> KernelInputs {
    KernelInputs {
        sql_corpus: SQL.iter().map(|s| s.to_string()).collect(),
        wire_sample: sample,
        point_sql: "SELECT GName, Len FROM Gene WHERE GID = ?".into(),
        pool_pages: cfg.scaled(POOL_PAGES, 16),
        fsync_on_commit: true,
        ..inp.gene.kernel_inputs(cfg.seed)
    }
}
