//! Corruption armor, end to end: the `CHECK` statement, the page
//! checksums it leans on, and salvage-mode opens.
//!
//! The acceptance criterion: flipping **any** single byte of a small
//! checkpointed database is rejected at `Database::open` (with
//! `Corrupt`, never garbage).  Nothing heals a flip on open: an open
//! that finds no WAL frame does not rewrite the image.
//! `Database::open_salvage` must then still come up, quarantining only
//! what the flip actually hit.

use std::fs;
use std::path::{Path, PathBuf};

use bdbms_common::ErrorCode;
use bdbms_core::{Database, DurabilityOptions};

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bdbms-corrupt-{}-{name}.bdbms", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// Two tables with distinctive content; `GENEMARKER` makes the Gene
/// heap page findable in the raw image.
fn build(dir: &Path) {
    let mut db = Database::create(dir).unwrap();
    db.execute("CREATE TABLE Gene (GID TEXT, GSeq TEXT)")
        .unwrap();
    for i in 0..8 {
        db.execute(&format!(
            "INSERT INTO Gene VALUES ('JW{i:04}', 'GENEMARKER{}')",
            "ACGT".repeat(50)
        ))
        .unwrap();
    }
    db.execute("CREATE TABLE Protein (PID TEXT, PName TEXT)")
        .unwrap();
    db.execute("INSERT INTO Protein VALUES ('P1','thrA'), ('P2','thrB')")
        .unwrap();
    db.execute("CREATE INDEX pid_idx ON Protein (PID)").unwrap();
    db.close().unwrap();
}

fn rows_of(db: &mut Database, table: &str) -> usize {
    db.execute(&format!("SELECT * FROM {table}"))
        .unwrap()
        .rows
        .len()
}

#[test]
fn check_is_clean_on_a_healthy_database() {
    let dir = tmp("check-clean");
    build(&dir);
    let mut db = Database::open(&dir).unwrap();
    let rep = db.check().unwrap();
    assert!(rep.is_ok(), "unexpected problems: {:?}", rep.problems);
    assert!(rep.pages_checked > 0, "the durable image has pages");
    assert_eq!(rep.rows_checked, 10, "8 genes + 2 proteins");
    assert_eq!(rep.index_entries_checked, 2);
    assert!(
        rep.wal_segments >= 1,
        "an open database keeps a live segment"
    );
    // the SQL surface renders the same report
    let qr = db.execute("CHECK").unwrap();
    assert_eq!(qr.message.as_deref(), Some("CHECK ok"));
    assert_eq!(qr.columns, vec!["check", "detail"]);
    assert!(qr.rows.len() >= 4, "one row per verification leg");
    // table-filtered variant
    let qr = db.execute("CHECK TABLE Protein").unwrap();
    assert_eq!(qr.message.as_deref(), Some("CHECK ok"));
    assert!(db.execute("CHECK NoSuchTable").is_err());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn check_works_in_memory_too() {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (K INT)").unwrap();
    db.execute("INSERT INTO T VALUES (1), (2)").unwrap();
    let qr = db.execute("CHECK").unwrap();
    assert_eq!(qr.message.as_deref(), Some("CHECK ok"));
    let rep = db.check().unwrap();
    assert_eq!(rep.rows_checked, 2);
    assert_eq!(rep.pages_checked, 0, "no durable image to walk");
}

/// `CHECK` reads the durable image directly from disk, so corruption
/// that happens *behind a live handle* (whose buffer pool would happily
/// serve the cached page) is still detected.
#[test]
fn check_catches_a_flip_behind_the_buffer_pool() {
    let dir = tmp("check-live-flip");
    build(&dir);
    let db = Database::open(&dir).unwrap();
    assert!(db.check().unwrap().is_ok());
    // rot one byte of the image on disk while the handle stays open
    let data = dir.join("data.bdb");
    let mut bytes = fs::read(&data).unwrap();
    let pos = bytes.len() / 2;
    bytes[pos] ^= 0x01;
    fs::write(&data, &bytes).unwrap();
    let rep = db.check().unwrap();
    assert!(!rep.is_ok(), "the flip must be reported");
    assert!(
        rep.problems.iter().any(|p| p.contains("checksum")),
        "problems: {:?}",
        rep.problems
    );
    drop(db); // shutdown checkpoint rewrites the image — that's fine here
    let _ = fs::remove_dir_all(&dir);
}

/// The acceptance sweep: flip single bits across the whole checkpointed
/// image.  Every flip must be rejected with `Corrupt` at open — every
/// byte of the image is covered by a page checksum, and an open with an
/// empty WAL does not rewrite the image, so a flip it accepted would
/// stay on disk.  Salvage must then succeed and keep every table the
/// flip did not touch.  (The name predates the rule: no flip is
/// harmless.)
#[test]
fn every_single_byte_flip_is_caught_or_harmless() {
    let dir = tmp("flip-sweep");
    build(&dir);
    let data = dir.join("data.bdb");
    let orig = fs::read(&data).unwrap();
    // Exhaustive would be len × (open+salvage); stride keeps the test
    // inside CI budgets while still visiting every page and region type
    // (997 is prime, so offsets cycle through all byte positions mod
    // every power-of-two structure size).  At stride 1 every flip is
    // rejected too.
    let stride = if cfg!(debug_assertions) { 4099 } else { 997 };
    for pos in (0..orig.len()).step_by(stride) {
        let work = tmp(&format!("flip-sweep-{pos}"));
        copy_dir(&dir, &work);
        let mut bytes = orig.clone();
        bytes[pos] ^= 0x01;
        fs::write(work.join("data.bdb"), &bytes).unwrap();
        let e = match Database::open(&work) {
            Ok(_) => panic!("flip at {pos} was accepted: a clean open would keep it on disk"),
            Err(e) => e,
        };
        assert_eq!(
            e.code(),
            ErrorCode::Corrupt,
            "flip at {pos} must surface as Corrupt, got: {e}"
        );
        // salvage must come up and keep everything untouched
        let mut db = Database::open_salvage(&work).unwrap();
        let report = db.last_recovery().unwrap().clone();
        for t in ["Gene", "Protein"] {
            let quarantined = report.quarantined_tables.iter().any(|q| q == t);
            if report.image_lost || quarantined {
                continue;
            }
            let want = if t == "Gene" { 8 } else { 2 };
            assert_eq!(
                rows_of(&mut db, t),
                want,
                "flip at {pos}: surviving table `{t}` lost rows"
            );
        }
        assert!(
            db.check().unwrap().is_ok(),
            "salvage must leave a clean image"
        );
        drop(db);
        let _ = fs::remove_dir_all(&work);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A flip inside one table's heap page quarantines exactly that table;
/// the other opens with all rows.
#[test]
fn salvage_quarantines_only_the_damaged_table() {
    let dir = tmp("salvage-quarantine");
    build(&dir);
    let data = dir.join("data.bdb");
    let bytes = fs::read(&data).unwrap();
    let marker = b"GENEMARKER";
    let pos = bytes
        .windows(marker.len())
        .position(|w| w == marker)
        .expect("the Gene heap page is in the image");
    let mut bytes = bytes;
    bytes[pos] ^= 0x01;
    fs::write(&data, &bytes).unwrap();

    let err = Database::open(&dir).map(|_| ()).unwrap_err();
    assert_eq!(err.code(), ErrorCode::Corrupt);

    let mut db = Database::open_salvage(&dir).unwrap();
    let report = db.last_recovery().unwrap().clone();
    assert_eq!(report.quarantined_tables, vec!["Gene".to_string()]);
    assert!(!report.image_lost);
    assert!(db.execute("SELECT * FROM Gene").is_err(), "quarantined");
    assert_eq!(rows_of(&mut db, "Protein"), 2);
    assert!(db.check().unwrap().is_ok(), "salvaged image is clean");
    // the salvaged database is fully usable going forward
    db.execute("CREATE TABLE Gene (GID TEXT, GSeq TEXT)")
        .unwrap();
    db.execute("INSERT INTO Gene VALUES ('fresh','row')")
        .unwrap();
    db.close().unwrap();
    let mut db = Database::open(&dir).unwrap();
    assert_eq!(rows_of(&mut db, "Gene"), 1);
    let _ = fs::remove_dir_all(&dir);
}

/// Salvage replays the WAL over the surviving tables: committed rows of
/// an intact table come back, while records that target the quarantined
/// one are counted as skipped instead of failing the open.
#[test]
fn salvage_replays_the_wal_around_a_quarantined_table() {
    let dir = tmp("salvage-wal-replay");
    build(&dir);
    let mut db = Database::open(&dir).unwrap();
    db.execute("INSERT INTO Gene VALUES ('JW0100', 'late')")
        .unwrap();
    db.execute("INSERT INTO Protein VALUES ('P3','thrC'), ('P4','thrD')")
        .unwrap();
    db.simulate_crash();
    // the clean open wrote nothing: the image is still the one `build`
    // checkpointed, and the commits above live only in the WAL
    let data = dir.join("data.bdb");
    let mut bytes = fs::read(&data).unwrap();
    let pos = bytes
        .windows(b"GENEMARKER".len())
        .position(|w| w == b"GENEMARKER")
        .expect("the Gene heap page is in the image");
    bytes[pos] ^= 0x01;
    fs::write(&data, &bytes).unwrap();

    let err = Database::open(&dir).map(|_| ()).unwrap_err();
    assert_eq!(err.code(), ErrorCode::Corrupt);

    let mut db = Database::open_salvage(&dir).unwrap();
    let report = db.last_recovery().unwrap().clone();
    assert_eq!(report.quarantined_tables, vec!["Gene".to_string()]);
    assert!(!report.image_lost && !report.wal_lost);
    assert!(
        report.skipped_wal_records >= 1,
        "the Gene insert targets a quarantined table: {report:?}"
    );
    assert_eq!(report.replayed_commits, 2);
    assert_eq!(rows_of(&mut db, "Protein"), 4, "WAL rows replayed");
    assert!(db.execute("SELECT * FROM Gene").is_err(), "quarantined");
    assert!(db.check().unwrap().is_ok(), "salvaged image is clean");
    db.close().unwrap();
    let mut db = Database::open(&dir).unwrap();
    assert_eq!(rows_of(&mut db, "Protein"), 4);
    let _ = fs::remove_dir_all(&dir);
}

/// A frame rotted in a non-final WAL segment fails `open` (committed
/// records may follow it); salvage discards the whole chain and keeps
/// the image's tables.
#[test]
fn salvage_drops_a_wal_chain_damaged_before_its_final_segment() {
    let dir = tmp("salvage-wal-lost");
    build(&dir);
    let opts = DurabilityOptions {
        wal_segment_bytes: 256,
        ..Default::default()
    };
    let mut db = Database::open_with(&dir, opts.clone()).unwrap();
    for i in 0..8 {
        db.execute(&format!("INSERT INTO Protein VALUES ('Q{i}', 'late')"))
            .unwrap();
    }
    db.simulate_crash();
    let mut segments: Vec<PathBuf> = fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    assert!(segments.len() >= 2, "segments: {segments:?}");
    // a payload byte of the first frame: past the 16-byte segment header
    // and the 16-byte frame header
    let mut bytes = fs::read(&segments[0]).unwrap();
    bytes[16 + 16] ^= 0x01;
    fs::write(&segments[0], &bytes).unwrap();

    let err = Database::open_with(&dir, opts.clone())
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::Corrupt);

    let mut db = Database::open_salvage_with(&dir, opts.clone()).unwrap();
    let report = db.last_recovery().unwrap().clone();
    assert!(report.wal_lost, "{report:?}");
    assert!(!report.image_lost && report.quarantined_tables.is_empty());
    assert_eq!(report.replayed_commits, 0);
    assert_eq!(rows_of(&mut db, "Gene"), 8, "the image's tables stand");
    assert_eq!(rows_of(&mut db, "Protein"), 2);
    assert!(db.check().unwrap().is_ok(), "salvaged image is clean");
    db.close().unwrap();
    let mut db = Database::open_with(&dir, opts).unwrap();
    assert_eq!(db.last_recovery(), Some(&Default::default()));
    assert_eq!(rows_of(&mut db, "Protein"), 2);
    let _ = fs::remove_dir_all(&dir);
}

/// Destroying the header page loses the whole image, but salvage still
/// opens (empty) instead of refusing, and the directory is reusable.
#[test]
fn salvage_survives_total_image_loss() {
    let dir = tmp("salvage-total-loss");
    build(&dir);
    let data = dir.join("data.bdb");
    let mut bytes = fs::read(&data).unwrap();
    bytes[0] ^= 0xFF; // first magic byte of the header page
    fs::write(&data, &bytes).unwrap();

    assert_eq!(
        Database::open(&dir).map(|_| ()).unwrap_err().code(),
        ErrorCode::Corrupt
    );

    let mut db = Database::open_salvage(&dir).unwrap();
    let report = db.last_recovery().unwrap().clone();
    assert!(report.image_lost);
    assert!(report.quarantined_tables.is_empty());
    assert!(db.execute("SELECT * FROM Gene").is_err(), "all tables lost");
    db.execute("CREATE TABLE Rebuilt (K INT)").unwrap();
    db.execute("INSERT INTO Rebuilt VALUES (7)").unwrap();
    db.close().unwrap();
    let mut db = Database::open(&dir).unwrap();
    assert_eq!(rows_of(&mut db, "Rebuilt"), 1);
    let _ = fs::remove_dir_all(&dir);
}

/// A stored sequence-index order that is malformed (a repeated number,
/// under a valid page checksum) or damaged (a flipped byte) is `Corrupt`
/// for `open`.  Salvage does not read stored orders: it keeps the table,
/// rebuilds its index from the heap with the sort-based build, and the
/// image it writes opens cleanly again.
#[test]
fn a_bad_sequence_index_order_is_corrupt_and_salvage_rebuilds_the_index() {
    use bdbms_storage::{stamp_page_checksum, PAGE_BODY, PAGE_SIZE};
    let texts = ["HHEEL", "LLHE", "HHEEL", "EEEHL", "LHHE", "HHEEL"];
    for kind in ["SBC", "SUFFIX"] {
        // one suffix per run boundary, or per byte
        let suffixes: usize = texts
            .iter()
            .map(|t| match kind {
                "SBC" => 1 + t.as_bytes().windows(2).filter(|w| w[0] != w[1]).count(),
                _ => t.len(),
            })
            .sum();
        for damage in ["repeated number", "flipped byte"] {
            let dir = tmp(&format!("bad-order-{kind}-{}", damage.len()));
            let mut db = Database::create(&dir).unwrap();
            db.execute("CREATE TABLE S (K INT, V TEXT)").unwrap();
            for (k, t) in texts.iter().enumerate() {
                db.execute(&format!("INSERT INTO S VALUES ({k}, '{t}')"))
                    .unwrap();
            }
            db.execute(&format!("CREATE SEQUENCE INDEX sx ON S (V) USING {kind}"))
                .unwrap();
            db.close().unwrap();

            // the order page: a permutation of 0..suffixes, then zeros
            let data = dir.join("data.bdb");
            let mut bytes = fs::read(&data).unwrap();
            let number =
                |pg: &[u8], i: usize| u32::from_le_bytes(pg[4 * i..4 * i + 4].try_into().unwrap());
            let is_order = |pg: &[u8]| {
                let mut n: Vec<u32> = (0..suffixes).map(|i| number(pg, i)).collect();
                n.sort_unstable();
                n.iter().copied().eq(0..suffixes as u32)
                    && pg[4 * suffixes..PAGE_BODY].iter().all(|&b| b == 0)
            };
            let pages: Vec<usize> = (1..bytes.len() / PAGE_SIZE)
                .filter(|&p| is_order(&bytes[p * PAGE_SIZE..(p + 1) * PAGE_SIZE]))
                .collect();
            assert_eq!(pages.len(), 1, "{kind}: one order page");
            let pg = &mut bytes[pages[0] * PAGE_SIZE..(pages[0] + 1) * PAGE_SIZE];
            if damage == "repeated number" {
                let first = number(pg, 0);
                pg[4..8].copy_from_slice(&first.to_le_bytes());
                stamp_page_checksum(pg);
            } else {
                pg[0] ^= 0x01;
            }
            fs::write(&data, &bytes).unwrap();

            let err = Database::open(&dir).map(|_| ()).unwrap_err();
            assert_eq!(err.code(), ErrorCode::Corrupt, "{kind}, {damage}: {err}");
            let sorts = bdbms_seq::sorted_builds();
            let mut db = Database::open_salvage(&dir).unwrap();
            assert_eq!(bdbms_seq::sorted_builds(), sorts + 1, "salvage rebuilds");
            let report = db.last_recovery().unwrap().clone();
            assert!(report.quarantined_tables.is_empty() && !report.image_lost);
            let hits = db
                .execute("SELECT K FROM S WHERE V CONTAINS SEQ 'HEE'")
                .unwrap();
            assert_eq!(hits.rows.len(), 3, "{kind}, {damage}");
            assert!(db.check().unwrap().is_ok(), "{kind}, {damage}");
            db.close().unwrap();
            let db = Database::open(&dir).unwrap();
            assert!(db.check().unwrap().is_ok(), "{kind}, {damage}: reopened");
            drop(db);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
