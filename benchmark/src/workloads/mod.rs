//! The four workloads.  Each module owns its whole lifecycle — generate
//! inputs, set up (timed), drive the window, verify, reopen — and says
//! in its header why it exists and which layers do its work.

pub mod curation_txn;
pub mod embedded_analytic;
pub mod seq_pipeline;
pub mod wire_oltp;

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{self, QueryResult, Res, Value};
use crate::gen::{self, GeneRow, Rng};
use crate::harness::{Cfg, KernelInputs};
use crate::report::Outcome;

pub fn run(workload: &str, cfg: &Cfg) -> Res<Outcome> {
    match workload {
        "wire_oltp_80r20w" => wire_oltp::run(cfg),
        "embedded_analytic" => embedded_analytic::run(cfg),
        "curation_txn" => curation_txn::run(cfg),
        "seq_pipeline" => seq_pipeline::run(cfg),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The `Gene (GID, GName, Len, TagId, GSequence)` table two workloads
/// share, generated and written as TSV before any clock starts.
pub struct GeneTable {
    pub rows: Vec<GeneRow>,
    pub n_tags: usize,
    pub tsv: PathBuf,
    pub tsv_bytes: u64,
}

pub const GENE_DDL: &str =
    "CREATE TABLE Gene (GID TEXT, GName TEXT, Len INT, TagId INT, GSequence TEXT)";
pub const GENE_COLUMNS: usize = 5;

impl GeneTable {
    pub fn generate(rng: &mut Rng, n: usize, n_tags: usize, dir: &Path) -> Res<GeneTable> {
        let rows = gen::gene_rows(rng, n, n_tags);
        let text = gen::gene_tsv(&rows);
        let tsv = dir.join("gene.tsv");
        write_input(&tsv, &text)?;
        Ok(GeneTable {
            rows,
            n_tags,
            tsv,
            tsv_bytes: text.len() as u64,
        })
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Create, `COPY`, index and `ANALYZE` the table through `run`;
    /// returns the seconds the `COPY` statement took.
    pub fn load(
        &self,
        extra_indexes: &[&str],
        mut run: impl FnMut(&str) -> Res<QueryResult>,
    ) -> Res<f64> {
        run(GENE_DDL)?;
        let t = Instant::now();
        let r = run(&copy_sql("Gene", &self.tsv, "TSV"))?;
        let copy_s = t.elapsed().as_secs_f64();
        if r.affected != self.len() {
            return Err(format!("COPY loaded {} of {} rows", r.affected, self.len()));
        }
        run("CREATE INDEX gene_gid ON Gene (GID)")?;
        for ddl in extra_indexes {
            run(ddl)?;
        }
        run("ANALYZE Gene")?;
        Ok(copy_s)
    }

    /// The kernel inputs this table supplies: a spread of encoded rows
    /// and keys, 1 000 sequences, and substrings of them as patterns.
    pub fn kernel_inputs(&self, seed: u64) -> KernelInputs {
        let n = self.len();
        let picks: Vec<usize> = spread(n, 20_000).collect();
        let texts: Vec<String> = spread(n, 1000).map(|i| self.rows[i].seq.clone()).collect();
        KernelInputs {
            point_keys: spread(n, 300)
                .map(|i| Value::Text(gen::gene_id(i)))
                .collect(),
            records: picks.iter().map(|&i| self.encoded(i)).collect(),
            columns: GENE_COLUMNS,
            keys: picks.iter().map(|&i| gen::gene_id(i)).collect(),
            patterns: substrings(&texts, seed, 8, 25),
            texts,
            ..Default::default()
        }
    }

    /// The row as the heap stores it, for the heap kernel.
    pub fn encoded(&self, i: usize) -> Vec<u8> {
        let r = &self.rows[i];
        adapter::encode_row(&[
            Value::Text(gen::gene_id(i)),
            Value::Text(gen::gene_name(r.name_id)),
            Value::Int(i as i64),
            Value::Int(r.tag as i64),
            Value::Text(r.seq.clone()),
        ])
    }
}

pub fn copy_sql(table: &str, path: &Path, format: &str) -> String {
    format!("COPY {table} FROM '{}' FORMAT {format}", path.display())
}

pub fn write_input(path: &Path, text: &str) -> Res<()> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Fresh empty directory `dir/name`.
pub fn fresh_dir(dir: &Path, name: &str) -> Res<PathBuf> {
    let p = dir.join(name);
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).map_err(|e| format!("create {}: {e}", p.display()))?;
    Ok(p)
}

/// Every `n / take`-th index of `0..n` (at least one), for bounded
/// samples that still span the whole input.
pub fn spread(n: usize, take: usize) -> impl Iterator<Item = usize> {
    let step = (n / take.max(1)).max(1);
    (0..n).step_by(step)
}

/// 200 seeded substrings of `texts`, each `min_len..max_len` long: the
/// patterns the sequence-index kernel probes with on workloads that
/// capture none of their own.
pub fn substrings(texts: &[String], seed: u64, min_len: usize, max_len: usize) -> Vec<String> {
    let mut rng = Rng::fork(seed, 0x5BC);
    (0..200)
        .map(|_| {
            let t = &texts[rng.range(0, texts.len())];
            let len = rng.range(min_len, max_len.min(t.len()));
            let at = rng.range(0, t.len() - len + 1);
            t[at..at + len].to_string()
        })
        .collect()
}
