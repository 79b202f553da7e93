//! E15 — bulk ingestion (`COPY`) + sequence-index build.
//!
//! Two acceptance claims from the ingestion subsystem (ISSUEs 8 and
//! 14, not a paper figure — the paper's §7.2 curation scenario
//! motivates them):
//!
//! * **bulk load**: `COPY <table> FROM '<file>' FORMAT FASTA` must load a
//!   50k-record FASTA dump ≥10x faster than the same records issued as
//!   row-at-a-time `INSERT` statements.  Both sides run against a durable
//!   database under `NoSync` (so the ratio measures the amortization —
//!   deferred index build, deferred stats, one checkpoint instead of 50k
//!   WAL row records — not the fsync count).
//! * **sequence index build**: filling an SBC-tree from rows that already
//!   exist (`CREATE SEQUENCE INDEX`, every `Database::open`) by one sort
//!   and bottom-up loads (`SbcTree::build`) must beat growing it one
//!   `insert_sequence` at a time ≥2x on the search corpus.
//!
//! Both rows are gated in CI by `scripts/check_perf.py --id e15` with
//! absolute floors (10x, 2x).  `CONTAINS SEQ` through the index is
//! measured end to end by the `seq_pipeline` workload of `benchmark/`
//! (BENCHMARK.json), and pinned for correctness by
//! `crates/core/tests/seq_probe_exact.rs`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bdbms_core::{Database, DurabilityOptions};
use bdbms_seq::{RleSeq, SbcTree};

use crate::report::{ms, ratio, Report};
use crate::workloads::{pattern_from, ss_corpus};

/// Sequence length / RLE mean-run of the search corpus (protein
/// secondary structures — the SBC-tree's native workload, as in E12).
const SEARCH_SEQ_LEN: usize = 300;
const SEARCH_MEAN_RUN: f64 = 8.0;
/// Pattern length: long enough to span several runs, so the SBC-tree's
/// multi-run path (String-B-tree probe + 3-sided filter) is exercised.
const PATTERN_LEN: usize = 24;

fn tmp(name: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "bdbms-e15-{name}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

/// Render a corpus as a FASTA file (`>JWxxxx` headers, 60-char lines).
fn write_fasta(path: &std::path::Path, corpus: &[Vec<u8>]) {
    let mut out = String::new();
    for (i, seq) in corpus.iter().enumerate() {
        writeln!(out, ">JW{i:04}").unwrap();
        for chunk in seq.chunks(60) {
            out.push_str(std::str::from_utf8(chunk).expect("ASCII corpus"));
            out.push('\n');
        }
    }
    std::fs::write(path, out).expect("bench FASTA file");
}

fn fresh_gene_db(dir: &std::path::Path) -> Database {
    let _ = std::fs::remove_dir_all(dir);
    let mut db =
        Database::create_with(dir, DurabilityOptions::no_sync()).expect("durable bench db");
    db.execute("CREATE TABLE Gene (Hdr TEXT, Seq TEXT)")
        .unwrap();
    db.execute("CREATE INDEX hdr_idx ON Gene (Hdr)").unwrap();
    db
}

/// One-shot wall time of `COPY`ing `corpus` vs. inserting it row by row,
/// each against its own fresh durable (`NoSync`) database with a
/// secondary B+-tree index to maintain.
fn time_bulk_load(corpus: &[Vec<u8>]) -> (Duration, Duration) {
    let fasta = tmp("load.fasta");
    write_fasta(&fasta, corpus);

    let copy_dir = tmp("copy-db");
    let mut db = fresh_gene_db(&copy_dir);
    let s = Instant::now();
    let r = db
        .execute(&format!(
            "COPY Gene FROM '{}' FORMAT FASTA",
            fasta.display()
        ))
        .expect("bench COPY");
    let copy_t = s.elapsed();
    assert_eq!(r.affected, corpus.len(), "COPY must load every record");
    db.simulate_crash(); // skip the shutdown checkpoint (already forced)
    let _ = std::fs::remove_dir_all(&copy_dir);

    let insert_dir = tmp("insert-db");
    let mut db = fresh_gene_db(&insert_dir);
    let statements: Vec<String> = corpus
        .iter()
        .enumerate()
        .map(|(i, seq)| {
            format!(
                "INSERT INTO Gene VALUES ('JW{i:04}', '{}')",
                std::str::from_utf8(seq).expect("ASCII corpus")
            )
        })
        .collect();
    let s = Instant::now();
    for stmt in &statements {
        db.execute(stmt).expect("bench INSERT");
    }
    let insert_t = s.elapsed();
    assert_eq!(
        db.catalog().table("Gene").unwrap().len(),
        corpus.len(),
        "row-at-a-time must load every record"
    );
    db.simulate_crash();
    let _ = std::fs::remove_dir_all(&insert_dir);
    let _ = std::fs::remove_file(&fasta);
    (copy_t, insert_t)
}

/// One-shot wall time of indexing `corpus` in an SBC-tree: grown by
/// `insert_sequence` vs. built in bulk (RLE encoding on both clocks).
/// Asserts the two indexes hold the same suffixes and answer alike.
fn time_index_build(corpus: &[Vec<u8>]) -> (Duration, Duration) {
    let s = Instant::now();
    let mut grown = SbcTree::new();
    for seq in corpus {
        grown.insert_sequence(seq);
    }
    let incremental_t = s.elapsed();
    let s = Instant::now();
    let built = SbcTree::build(corpus.iter().map(|seq| RleSeq::encode(seq)).collect());
    let bulk_t = s.elapsed();
    assert_eq!(built.num_suffixes(), grown.num_suffixes());
    let pat = pattern_from(corpus, PATTERN_LEN, 7);
    let hits = built.matching_texts(&pat);
    assert_eq!(hits, grown.matching_texts(&pat));
    assert!(!hits.is_empty(), "the pattern is drawn from the corpus");
    (incremental_t, bulk_t)
}

/// Run E15 at the acceptance scale: a 50k-record bulk load and a
/// 12k-sequence index-build corpus.
pub fn run() -> Report {
    run_sized(50_000, 12_000)
}

/// Run E15 at a chosen scale (tests use a smaller one).
pub fn run_sized(load_n: usize, search_n: usize) -> Report {
    let mut report = Report::new(
        "e15",
        &format!("bulk ingestion + sequence index build ({load_n} / {search_n} records)"),
        "ingestion subsystem: COPY amortizes index/stats/WAL work; the \
         sequence index is built in bulk (§7.2 curation scenario)",
    );
    report.headers(&["query", "scale", "baseline ms", "optimized ms", "speedup"]);

    // short records for the load (payload shape does not matter there)
    let load_corpus = ss_corpus(load_n, 60, SEARCH_MEAN_RUN);
    let (copy_t, insert_t) = time_bulk_load(&load_corpus);
    report.row(vec![
        "bulk load (COPY vs row INSERTs)".to_string(),
        format!("{load_n} records"),
        ms(insert_t),
        ms(copy_t),
        ratio(insert_t.as_secs_f64(), copy_t.as_secs_f64()),
    ]);

    let search_corpus = ss_corpus(search_n, SEARCH_SEQ_LEN, SEARCH_MEAN_RUN);
    let (incremental_t, bulk_t) = time_index_build(&search_corpus);
    report.row(vec![
        "sequence index build (bulk vs incremental)".to_string(),
        format!("{search_n} x {SEARCH_SEQ_LEN} chars"),
        ms(incremental_t),
        ms(bulk_t),
        ratio(incremental_t.as_secs_f64(), bulk_t.as_secs_f64()),
    ]);

    let load_rate = load_n as f64 / copy_t.as_secs_f64().max(1e-12);
    let insert_rate = load_n as f64 / insert_t.as_secs_f64().max(1e-12);
    report.note(format!(
        "bulk load: {load_rate:.0} rows/s via COPY vs {insert_rate:.0} rows/s \
         row-at-a-time (both durable, NoSync; hdr_idx maintained on both \
         sides — COPY defers it to one pass after the load)"
    ));
    report.note(
        "COPY writes no WAL record and commits by one checkpoint; the \
         INSERT side writes one WAL record per row",
    );
    report.note(
        "index build: the incremental leg inserts one run-boundary suffix at \
         a time into the suffix B-tree; the bulk leg sorts the suffixes once \
         and loads the tree bottom-up (what CREATE SEQUENCE INDEX and every \
         open do)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic shape check at a small scale; wall-clock floors are
    /// asserted by the release-mode perf gate, not here.
    #[test]
    fn report_has_two_gated_rows_and_json_renders() {
        let r = run_sized(300, 120);
        assert_eq!(r.rows.len(), 2);
        let j = r.render_json();
        assert!(j.contains("\"id\":\"e15\""));
        assert!(j.contains("bulk load (COPY vs row INSERTs)"));
        assert!(j.contains("sequence index build (bulk vs incremental)"));
    }

    /// The workload helpers carry their own correctness asserts (row
    /// counts, grown/built index agreement); run them small.
    #[test]
    fn workloads_hold_their_invariants() {
        let corpus = ss_corpus(150, 80, 6.0);
        let (copy_t, insert_t) = time_bulk_load(&corpus);
        assert!(copy_t > Duration::ZERO && insert_t > Duration::ZERO);
        let corpus = ss_corpus(200, 200, 8.0);
        let (incremental_t, bulk_t) = time_index_build(&corpus);
        assert!(incremental_t > Duration::ZERO && bulk_t > Duration::ZERO);
    }
}
