//! Sequence search through SQL (§7.2): `COPY`, `CREATE SEQUENCE INDEX`,
//! `CONTAINS SEQ`, and `SUBSEQ`.
//!
//! Earlier revisions of this example drove the SBC-tree and String
//! B-tree APIs directly; the whole workflow is now surfaced in SQL, so
//! this walks the curation path a biologist would take:
//!
//! 1. bulk-load a FASTA dump with `COPY … FORMAT FASTA`,
//! 2. index the sequence column with `CREATE SEQUENCE INDEX … USING SBC`
//!    (the RLE-compressed SBC-tree; `USING SUFFIX` picks the
//!    uncompressed String B-tree baseline),
//! 3. search with `WHERE col CONTAINS SEQ '<pattern>'` — the planner
//!    routes the predicate through the sequence index, visible in the
//!    execution stats — and slice with `SUBSEQ(col, lo, hi)`.
//!
//! Run with: `cargo run --release --example sequence_search`

use std::fmt::Write as _;

use bdbms::core::Database;
use bdbms::seq::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut db = Database::new_in_memory();

    // ---- 1. write a FASTA dump and COPY it in ----
    let mut fasta = String::new();
    let mut corpus = Vec::new();
    for i in 0..300 {
        let seq = gen::secondary_structure(&mut rng, 400, 10.0);
        writeln!(fasta, ">{} protein secondary structure", gen::gene_id(i)).unwrap();
        for chunk in seq.chunks(60) {
            writeln!(fasta, "{}", String::from_utf8_lossy(chunk)).unwrap();
        }
        corpus.push(seq);
    }
    let path = std::env::temp_dir().join(format!("bdbms-example-{}.fasta", std::process::id()));
    std::fs::write(&path, fasta).unwrap();

    db.execute("CREATE TABLE Prot (Hdr TEXT, SS TEXT)").unwrap();
    let r = db
        .execute(&format!("COPY Prot FROM '{}' FORMAT FASTA", path.display()))
        .unwrap();
    println!("{}", r.message.as_deref().unwrap_or_default());
    std::fs::remove_file(&path).ok();

    // ---- 2. index the sequence column ----
    db.execute("CREATE SEQUENCE INDEX ss_idx ON Prot (SS) USING SBC")
        .unwrap();
    println!("sequence index `ss_idx` created (SBC-tree, RLE-compressed)\n");

    // ---- 3. substring search through the index ----
    // A pattern cut from a stored sequence, so it is guaranteed to hit.
    let pat = String::from_utf8_lossy(&corpus[17][40..64]).into_owned();
    let sql = format!("SELECT Hdr FROM Prot WHERE SS CONTAINS SEQ '{pat}'");
    let (hits, stats) = db.query_traced(&sql).unwrap();
    // the corpus is still in hand: check the index against a plain scan
    let scanned = corpus
        .iter()
        .filter(|seq| String::from_utf8_lossy(seq).contains(&pat))
        .count();
    assert_eq!(hits.rows.len(), scanned);
    println!("CONTAINS SEQ '{pat}'");
    println!("  {} matching protein(s):", hits.rows.len());
    for row in &hits.rows {
        println!("    {}", row.values[0]);
    }
    println!(
        "  seq-index probes = {}, full scans = {}, rows fetched = {} of {}, via {:?}\n",
        stats.seq_index_probes,
        stats.full_scans,
        stats.rows_fetched,
        corpus.len(),
        stats.chosen_indexes
    );

    // ---- negation falls back to a scan (the index prunes, it cannot
    //      enumerate non-matches) ----
    let (miss, ms) = db
        .query_traced(&format!(
            "SELECT COUNT(*) FROM Prot WHERE SS NOT CONTAINS SEQ '{pat}'"
        ))
        .unwrap();
    println!(
        "NOT CONTAINS SEQ: {} proteins, full scans = {} (negation cannot use the index)\n",
        miss.rows[0].values[0], ms.full_scans
    );

    // ---- 4. SUBSEQ slices (1-based, inclusive) ----
    let (slice, _) = db
        .query_traced("SELECT Hdr, SUBSEQ(SS, 1, 24) FROM Prot WHERE Hdr LIKE 'JW0017%'")
        .unwrap();
    for row in &slice.rows {
        println!("SUBSEQ(SS, 1, 24) of {}: {}", row.values[0], row.values[1]);
    }
}
