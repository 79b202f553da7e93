//! Cross-crate integration tests: the full bdbms stack working together —
//! engine + annotations + dependencies + approval + provenance in one
//! scenario, and the access methods serving engine-shaped data.

use bdbms::common::Value;
use bdbms::core::provenance::{ProvOp, ProvenanceRecord};
use bdbms::core::Database;
use bdbms::index::trie::{StrQuery, TrieOps};
use bdbms::index::SpGist;
use bdbms::seq::{gen, RleSeq, SbcTree, StringBTree};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The whole paper in one scenario: load with provenance, annotate,
/// depend, approve, archive — and verify every manager's view at the end.
#[test]
fn e_coli_curation_scenario() {
    let mut db = Database::new_in_memory();

    // -- schema & users --
    db.execute("CREATE TABLE Gene (GID TEXT, GName TEXT, GSequence TEXT)")
        .unwrap();
    db.execute("CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence TEXT, PFunction TEXT)")
        .unwrap();
    db.execute("CREATE ANNOTATION TABLE Comments ON Gene")
        .unwrap();
    db.execute("CREATE USER labadmin").unwrap();
    db.execute("CREATE USER alice IN GROUP lab1").unwrap();
    db.execute("GRANT SELECT, INSERT, UPDATE ON Gene TO lab1")
        .unwrap();
    db.execute("GRANT SELECT ON Protein TO lab1").unwrap();

    // -- dependency rules + executable tool --
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

    // -- load with provenance --
    db.execute("INSERT INTO Gene VALUES ('JW0080', 'mraW', 'ATGATGGAAAAA')")
        .unwrap();
    db.execute("INSERT INTO Protein VALUES ('mraW', 'JW0080', 'AAGA', 'Exhibitor')")
        .unwrap();
    db.record_provenance(
        "Gene",
        &[0],
        &[0, 1, 2],
        &ProvenanceRecord {
            source: "RegulonDB".into(),
            operation: ProvOp::Copy,
            program: Some("loader".into()),
            time: 0,
        },
    )
    .unwrap();

    // -- annotate through A-SQL --
    db.execute_as(
        "ADD ANNOTATION TO Gene.Comments VALUE 'verify against trace files' \
         ON (SELECT G.GSequence FROM Gene G WHERE GID = 'JW0080')",
        "alice",
    )
    .unwrap();

    // -- approval on; alice edits; change cascades immediately --
    db.execute("START CONTENT APPROVAL ON Gene COLUMNS GSequence APPROVED BY labadmin")
        .unwrap();
    db.execute_as(
        "UPDATE Gene SET GSequence = 'GTGGTGGTGGTG' WHERE GID = 'JW0080'",
        "alice",
    )
    .unwrap();
    // dependency: PSequence recomputed, PFunction outdated
    let qr = db.execute("SELECT PSequence FROM Protein").unwrap();
    assert_eq!(qr.rows[0].values[0], Value::Text("GGGG".into()));
    let outdated = db.execute("SHOW OUTDATED ON Protein").unwrap();
    assert_eq!(outdated.rows.len(), 1);

    // the pending edit is visible; the admin disapproves it
    let pending = db.execute("SHOW PENDING OPERATIONS ON Gene").unwrap();
    assert_eq!(pending.rows.len(), 1);
    let id = pending.rows[0].values[0].as_int().unwrap();
    db.execute_as(&format!("DISAPPROVE OPERATION {id}"), "labadmin")
        .unwrap();
    // inverse restored the gene AND the cascade recomputed the protein back
    let qr = db.execute("SELECT GSequence FROM Gene").unwrap();
    assert_eq!(qr.rows[0].values[0], Value::Text("ATGATGGAAAAA".into()));
    let qr = db.execute("SELECT PSequence FROM Protein").unwrap();
    assert_eq!(qr.rows[0].values[0], Value::Text("AAGA".into()));

    // -- queries see annotations + provenance + outdated flags together --
    let qr = db
        .execute(
            "SELECT GSequence FROM Gene ANNOTATION(Comments, provenance) \
             WHERE GID = 'JW0080'",
        )
        .unwrap();
    let anns: Vec<String> = qr.rows[0].anns[0].iter().map(|a| a.text()).collect();
    assert!(anns.iter().any(|a| a.contains("trace files")));
    assert!(anns.iter().any(|a| a.contains("RegulonDB")));

    // -- archive the comment; it stops propagating --
    db.execute(
        "ARCHIVE ANNOTATION FROM Gene.Comments \
         ON (SELECT G.GSequence FROM Gene G)",
    )
    .unwrap();
    let qr = db
        .execute("SELECT GSequence FROM Gene ANNOTATION(Comments)")
        .unwrap();
    assert!(qr.rows[0].anns[0].is_empty());

    // -- provenance time travel still answers --
    let src = db.source_of("Gene", 0, 2, db.now()).unwrap().unwrap();
    assert_eq!(src.source, "RegulonDB");
}

/// Sequences stored in the engine can be indexed by the access methods:
/// gene sequences go into an SBC-tree and are searchable without
/// decompression; results agree with a String B-tree and brute force.
#[test]
fn engine_data_flows_into_sequence_indexes() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE SS (PID TEXT, Structure TEXT)")
        .unwrap();
    let mut corpus = Vec::new();
    for i in 0..40 {
        let s = gen::secondary_structure(&mut rng, 200, 9.0);
        let text = String::from_utf8(s.clone()).unwrap();
        db.execute(&format!("INSERT INTO SS VALUES ('P{i:03}', '{text}')"))
            .unwrap();
        corpus.push(s);
    }
    // pull the column out of the engine and index it
    let qr = db.execute("SELECT Structure FROM SS").unwrap();
    let mut sbc = SbcTree::new();
    let mut sbt = StringBTree::new();
    for row in &qr.rows {
        let s = row.values[0].as_text().unwrap().as_bytes();
        sbc.insert_sequence(s);
        sbt.insert_text(s);
    }
    assert_eq!(sbc.num_texts(), 40);
    let pat = &corpus[11][40..52];
    let a: Vec<(u32, u64)> = sbc
        .substring_search(pat)
        .into_iter()
        .map(|o| (o.text, o.pos))
        .collect();
    let mut b = sbt.substring_search(pat);
    b.sort_unstable();
    let mut naive = bdbms::seq::string_btree::naive_substring_search(&corpus, pat);
    naive.sort_unstable();
    assert_eq!(a, naive);
    assert_eq!(b, naive);
    assert!(!a.is_empty(), "pattern drawn from the corpus must occur");
    // compression really happened inside the SBC store
    let ratio = RleSeq::encode(&corpus[0]).compression_ratio();
    assert!(ratio > 1.0);
}

/// Gene identifiers indexed in an SP-GiST trie answer the id-style regex
/// queries the paper lists, consistently with a linear scan.
#[test]
fn gene_ids_in_spgist_trie() {
    let mut trie: SpGist<TrieOps, usize> = SpGist::new(TrieOps);
    let ids: Vec<String> = (0..5000).map(gen::gene_id).collect();
    for (i, id) in ids.iter().enumerate() {
        trie.insert(id.clone().into_bytes(), i);
    }
    let re = bdbms::index::regex::Regex::compile("JW00[0-9]2").unwrap();
    let hits = trie.search(&StrQuery::Regex(re)).len();
    let re = bdbms::index::regex::Regex::compile("JW00[0-9]2").unwrap();
    let naive = ids.iter().filter(|s| re.is_match(s.as_bytes())).count();
    assert_eq!(hits, naive);
    assert_eq!(hits, 10);
}

/// The storage engine under the database survives buffer-pool pressure:
/// a tiny pool forces evictions while the engine runs a full workload.
#[test]
fn engine_correct_under_tiny_buffer_pool() {
    use bdbms::storage::{BufferPool, MemStore};
    use std::sync::Arc;
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 4));
    let mut db = Database::with_pool(pool.clone());
    db.execute("CREATE TABLE T (id INT, payload TEXT)").unwrap();
    for i in 0..500 {
        db.execute(&format!(
            "INSERT INTO T VALUES ({i}, 'payload-{i}-{}')",
            "x".repeat(100)
        ))
        .unwrap();
    }
    db.execute("UPDATE T SET payload = 'rewritten' WHERE id % 7 = 0")
        .unwrap();
    db.execute("DELETE FROM T WHERE id % 13 = 0").unwrap();
    let qr = db.execute("SELECT COUNT(*) FROM T").unwrap();
    let expect = (0..500).filter(|i| i % 13 != 0).count() as i64;
    assert_eq!(qr.rows[0].values[0], Value::Int(expect));
    let qr = db
        .execute("SELECT COUNT(*) FROM T WHERE payload = 'rewritten'")
        .unwrap();
    let expect = (0..500).filter(|i| i % 13 != 0 && i % 7 == 0).count() as i64;
    assert_eq!(qr.rows[0].values[0], Value::Int(expect));
    // the tiny pool really did hit the backing store: the table spans more
    // pages than the pool holds, so scans fault pages back in
    let io = pool.metrics();
    assert!(
        io.misses.get() > 10,
        "scans over an evicted table must re-read pages"
    );
    assert!(
        io.dirty_writebacks.get() > 5,
        "dirty evictions must have written pages"
    );
}
