//! Shared workload builders used by the experiments.

use bdbms_common::Value;
use bdbms_core::Database;
use bdbms_seq::gen;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for every experiment.
pub fn rng() -> StdRng {
    StdRng::seed_from_u64(20070107) // CIDR 2007 :)
}

/// Build the paper's Figure 2 database (both gene tables, all eight
/// annotations at their paper granularities).
pub fn figure2_db() -> Database {
    let mut db = Database::new_in_memory();
    for t in ["DB1_Gene", "DB2_Gene"] {
        db.execute(&format!(
            "CREATE TABLE {t} (GID TEXT, GName TEXT, GSequence TEXT)"
        ))
        .unwrap();
        db.execute(&format!("CREATE ANNOTATION TABLE GAnnotation ON {t}"))
            .unwrap();
    }
    for (gid, name, seq) in [
        ("JW0080", "mraW", "ATGATGGAAAA"),
        ("JW0082", "ftsI", "ATGAAAGCAGC"),
        ("JW0055", "yabP", "ATGAAAGTATC"),
        ("JW0078", "fruR", "GTGAAACTGGA"),
    ] {
        db.execute(&format!(
            "INSERT INTO DB1_Gene VALUES ('{gid}', '{name}', '{seq}')"
        ))
        .unwrap();
    }
    for (gid, name, seq) in [
        ("JW0080", "mraW", "ATGATGGAAAA"),
        ("JW0041", "fixB", "ATGAACACGTT"),
        ("JW0037", "caiB", "ATGGATCATCT"),
        ("JW0027", "ispH", "ATGCAGATCCT"),
        ("JW0055", "yabP", "ATGAAAGTATC"),
    ] {
        db.execute(&format!(
            "INSERT INTO DB2_Gene VALUES ('{gid}', '{name}', '{seq}')"
        ))
        .unwrap();
    }
    let adds = [
        // A1 over tuples JW0080/JW0082 of DB1
        "ADD ANNOTATION TO DB1_Gene.GAnnotation VALUE 'A1: These genes are published in Nature' \
         ON (SELECT G.* FROM DB1_Gene G WHERE GID IN ('JW0080', 'JW0082'))",
        // A2 over tuples JW0055/JW0078 of DB1
        "ADD ANNOTATION TO DB1_Gene.GAnnotation \
         VALUE '<Annotation>A2: These genes were obtained from RegulonDB</Annotation>' \
         ON (SELECT G.* FROM DB1_Gene G WHERE GID IN ('JW0055', 'JW0078'))",
        // A3 on the single GSequence cell of mraW
        "ADD ANNOTATION TO DB1_Gene.GAnnotation \
         VALUE 'A3: Involved in methyltransferase activity' \
         ON (SELECT G.GSequence FROM DB1_Gene G WHERE GID = 'JW0080')",
        // B1 on GID+GName of three DB2 tuples
        "ADD ANNOTATION TO DB2_Gene.GAnnotation VALUE 'B1: Curated by user admin' \
         ON (SELECT G.GID, G.GName FROM DB2_Gene G \
             WHERE GID IN ('JW0080', 'JW0037', 'JW0041'))",
        // B2 on GName of two tuples
        "ADD ANNOTATION TO DB2_Gene.GAnnotation VALUE 'B2: possibly split by frameshift' \
         ON (SELECT G.GName FROM DB2_Gene G WHERE GID IN ('JW0027', 'JW0055'))",
        // B3 over the entire GSequence column
        "ADD ANNOTATION TO DB2_Gene.GAnnotation \
         VALUE '<Annotation>B3: obtained from GenoBase</Annotation>' \
         ON (SELECT G.GSequence FROM DB2_Gene G)",
        // B4 over the caiB tuple
        "ADD ANNOTATION TO DB2_Gene.GAnnotation VALUE 'B4: pseudogene' \
         ON (SELECT G.* FROM DB2_Gene G WHERE GID = 'JW0037')",
        // B5 over the mraW tuple
        "ADD ANNOTATION TO DB2_Gene.GAnnotation \
         VALUE '<Annotation>B5: This gene has an unknown function</Annotation>' \
         ON (SELECT G.* FROM DB2_Gene G WHERE GID = 'JW0080')",
    ];
    for stmt in adds {
        db.execute(stmt).unwrap();
    }
    db
}

/// Deterministic attributes for gene `i`: overlapping GIDs carry
/// identical names/sequences in both tables, so set operations find the
/// common tuples (as in the paper's example).
pub fn gene_attrs(i: usize, seq_len: usize) -> (String, String, String) {
    let mut r = StdRng::seed_from_u64(0xB10_0000 + i as u64);
    (
        gen::gene_id(i),
        gen::gene_name(&mut r, i),
        String::from_utf8(gen::dna(&mut r, seq_len)).unwrap(),
    )
}

/// Two synthetic gene tables with `n` rows each and ~50% GID overlap,
/// each with a populated `GAnnotation` annotation table (row/column/cell
/// granularities mixed).  Returns the database.
pub fn synthetic_gene_db(n: usize, seq_len: usize) -> Database {
    let mut db = Database::new_in_memory();
    for (t, offset) in [("DB1_Gene", 0usize), ("DB2_Gene", n / 2)] {
        db.execute(&format!(
            "CREATE TABLE {t} (GID TEXT, GName TEXT, GSequence TEXT)"
        ))
        .unwrap();
        db.execute(&format!("CREATE ANNOTATION TABLE GAnnotation ON {t}"))
            .unwrap();
        for i in 0..n {
            let (gid, name, seq) = gene_attrs(offset + i, seq_len);
            db.execute(&format!(
                "INSERT INTO {t} VALUES ('{gid}', '{name}', '{seq}')"
            ))
            .unwrap();
        }
        // column annotation (provenance-ish)
        db.execute(&format!(
            "ADD ANNOTATION TO {t}.GAnnotation \
             VALUE '<Annotation>obtained from Source_{t}</Annotation>' \
             ON (SELECT G.GSequence FROM {t} G)"
        ))
        .unwrap();
        // row annotations on ~10% of the tuples
        for i in (0..n).step_by(10) {
            let gid = gen::gene_id(offset + i);
            db.execute(&format!(
                "ADD ANNOTATION TO {t}.GAnnotation VALUE 'curator note {i}' \
                 ON (SELECT G.* FROM {t} G WHERE GID = '{gid}')"
            ))
            .unwrap();
        }
    }
    db
}

/// The Figure 9 dependency pipeline with `n` genes (and one protein per
/// gene), the executable prediction tool registered, and rules r1/r2.
pub fn pipeline_db(n: usize, seq_len: usize) -> Database {
    let mut rng = rng();
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Gene (GID TEXT, GName TEXT, GSequence TEXT)")
        .unwrap();
    db.execute("CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence TEXT, PFunction TEXT)")
        .unwrap();
    db.register_procedure("P", |args| match &args[0] {
        Value::Text(dna) => Value::Text(dna.as_bytes().chunks(3).map(|c| c[0] as char).collect()),
        _ => Value::Null,
    });
    db.execute(
        "CREATE DEPENDENCY RULE r1 FROM Gene.GSequence TO Protein.PSequence \
         VIA PROCEDURE 'P' EXECUTABLE LINK Gene.GID = Protein.GID",
    )
    .unwrap();
    db.execute(
        "CREATE DEPENDENCY RULE r2 FROM Protein.PSequence TO Protein.PFunction \
         VIA PROCEDURE 'lab-experiment'",
    )
    .unwrap();
    for i in 0..n {
        let gid = gen::gene_id(i);
        let name = gen::gene_name(&mut rng, i);
        let seq = String::from_utf8(gen::dna(&mut rng, seq_len)).unwrap();
        let pseq: String = seq.as_bytes().chunks(3).map(|c| c[0] as char).collect();
        db.execute(&format!(
            "INSERT INTO Gene VALUES ('{gid}', '{name}', '{seq}')"
        ))
        .unwrap();
        db.execute(&format!(
            "INSERT INTO Protein VALUES ('{name}', '{gid}', '{pseq}', 'function {i}')"
        ))
        .unwrap();
    }
    db
}

/// The executor-bench fixture:
///
/// * a `Gene` table with `n` rows whose `Len` column holds the row
///   number (so `Len = k` selects exactly one row and `Len >= a AND
///   Len < a + n/100` selects 1%) and whose `Bucket` column holds
///   `row % 100` (so `Bucket = b` selects 1% — a *less* selective
///   equality than a narrow `Len` range, which is what the cost-based
///   multi-index choice workload exploits);
/// * secondary indexes on **both** `Len` and `Bucket`;
/// * a column-granularity `Curation` annotation over `GName`;
/// * a small `Tag` dimension table (`n / 100` rows, `Len` values spaced
///   100 apart) for join-order workloads — written first in FROM lists
///   so FROM-order execution hash-builds the big table while the
///   cost-based order streams it.
pub fn indexed_gene_db(n: usize) -> Database {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Gene (GID TEXT, GName TEXT, Len INT, Bucket INT)")
        .unwrap();
    db.execute("CREATE ANNOTATION TABLE Curation ON Gene")
        .unwrap();
    // batched inserts: one statement per 500 rows keeps parse overhead
    // negligible at 100k rows
    let mut i = 0;
    while i < n {
        let hi = (i + 500).min(n);
        let tuples: Vec<String> = (i..hi)
            .map(|r| format!("('JW{r:06}', 'g{r}', {r}, {})", r % 100))
            .collect();
        db.execute(&format!("INSERT INTO Gene VALUES {}", tuples.join(", ")))
            .unwrap();
        i = hi;
    }
    db.execute(
        "ADD ANNOTATION TO Gene.Curation VALUE 'curated against GenoBase' \
         ON (SELECT G.GName FROM Gene G)",
    )
    .unwrap();
    db.execute("CREATE INDEX len_idx ON Gene (Len)").unwrap();
    db.execute("CREATE INDEX bucket_idx ON Gene (Bucket)")
        .unwrap();
    db.execute("CREATE TABLE Tag (Len INT, TName TEXT)")
        .unwrap();
    let tags: Vec<String> = (0..n.div_ceil(100))
        .map(|t| format!("({}, 'tag{t}')", t * 100))
        .collect();
    if !tags.is_empty() {
        db.execute(&format!("INSERT INTO Tag VALUES {}", tags.join(", ")))
            .unwrap();
    }
    db
}

/// `n` protein secondary-structure sequences of `len` residues with the
/// given geometric mean run length.
pub fn ss_corpus(n: usize, len: usize, mean_run: f64) -> Vec<Vec<u8>> {
    let mut rng = rng();
    (0..n)
        .map(|_| gen::secondary_structure(&mut rng, len, mean_run))
        .collect()
}

/// Extract a substring of `m` chars from a random corpus position (so the
/// pattern is guaranteed to occur at least once).
pub fn pattern_from(corpus: &[Vec<u8>], m: usize, salt: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(salt);
    loop {
        let t = &corpus[rng.gen_range(0..corpus.len())];
        if t.len() > m {
            let start = rng.gen_range(0..t.len() - m);
            return t[start..start + m].to_vec();
        }
    }
}
