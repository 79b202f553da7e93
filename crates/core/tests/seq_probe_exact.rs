//! The sequence-index probe is *exact*: the batch executor does not
//! re-check `col CONTAINS SEQ '<pat>'` on the rows a `Seq Index Scan`
//! returns (and does not even decode the column for it), so the index
//! answer itself must be precisely the live rows whose text contains
//! the pattern — after any mix of INSERT / UPDATE / DELETE (tombstones),
//! a rolled-back transaction, a reopen (bulk rebuild from the heap) and
//! a crash-replay of `CREATE SEQUENCE INDEX`, for both backends.  The
//! oracle is `str::contains` over a model of the live rows; the reference
//! interpreter, which evaluates `CONTAINS SEQ` on every heap row, must
//! agree too.

mod support;

use std::fs;
use std::path::PathBuf;

use bdbms_core::Database;
use proptest::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bdbms-exact-{}-{name}.bdbms", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One DML step: `(kind, victim, text)`.  `victim` picks a live row
/// (modulo the live count) for updates and deletes.
type Op = (u8, usize, String);

fn arb_ops(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..6, 0usize..1000, "[AC]{0,10}"), n)
}

/// The live rows: `(K, S)`, `S = None` for NULL.
type Model = Vec<(i64, Option<String>)>;

/// Apply `ops` to the database and to the model.
fn apply(db: &mut Database, model: &mut Model, next_k: &mut i64, ops: &[Op]) {
    let lit = |s: &Option<String>| s.as_ref().map_or("NULL".to_string(), |s| format!("'{s}'"));
    for (kind, victim, text) in ops {
        match kind {
            0 | 1 => {
                let s = (*kind == 0).then(|| text.clone());
                db.execute(&format!("INSERT INTO P VALUES ({next_k}, {})", lit(&s)))
                    .unwrap();
                model.push((*next_k, s));
                *next_k += 1;
            }
            2 | 3 if !model.is_empty() => {
                let live = model.len();
                let row = &mut model[victim % live];
                row.1 = (*kind == 2).then(|| text.clone());
                db.execute(&format!(
                    "UPDATE P SET S = {} WHERE K = {}",
                    lit(&row.1),
                    row.0
                ))
                .unwrap();
            }
            4 if !model.is_empty() => {
                let (k, _) = model.remove(victim % model.len());
                db.execute(&format!("DELETE FROM P WHERE K = {k}")).unwrap();
            }
            _ => {}
        }
    }
}

/// Every pattern's exact-probe answer equals the model's.
fn assert_exact(db: &Database, model: &Model, patterns: &[String], stage: &str) {
    for pat in patterns {
        let mut want: Vec<i64> = model
            .iter()
            .filter(|(_, s)| {
                s.as_ref()
                    .is_some_and(|s| !pat.is_empty() && s.contains(pat.as_str()))
            })
            .map(|(k, _)| *k)
            .collect();
        want.sort_unstable();
        let sql = format!("SELECT K FROM P WHERE S CONTAINS SEQ '{pat}'");
        let (r, st) = db.query_traced(&sql).unwrap();
        assert_eq!(st.seq_index_probes, 1, "{stage}: `{pat}` must probe");
        // exact ⇒ every fetched row is a result row
        assert_eq!(st.rows_fetched as usize, want.len(), "{stage} `{pat}`");
        assert_eq!(st.rows_scan_filtered, 0, "{stage} `{pat}`");
        let mut got: Vec<i64> = r
            .rows
            .iter()
            .map(|r| r.values[0].as_int().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "{stage}: `{pat}`");
        support::expect(db.catalog(), &sql).assert_matches(stage, Ok(r));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exact_seq_probe_equals_contains_over_live_rows(
        initial in prop::collection::vec("[AC]{0,10}", 0..30),
        committed in arb_ops(0..40),
        doomed in arb_ops(1..12),
        replayed in arb_ops(0..10),
        patterns in prop::collection::vec("[AC]{0,4}", 1..8),
        kind in prop_oneof![Just("SBC"), Just("SUFFIX")],
    ) {
        let dir = tmp(kind);
        let create = format!("CREATE SEQUENCE INDEX sx ON P (S) USING {kind}");
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE P (K INT, S TEXT)").unwrap();
        let mut model: Model = Vec::new();
        let mut next_k = 0i64;
        let seed: Vec<Op> = initial.into_iter().map(|s| (0, 0, s)).collect();
        apply(&mut db, &mut model, &mut next_k, &seed);
        db.execute(&create).unwrap(); // DDL backfill
        apply(&mut db, &mut model, &mut next_k, &committed);
        assert_exact(&db, &model, &patterns, "maintained");

        db.execute("BEGIN").unwrap();
        apply(&mut db, &mut model.clone(), &mut next_k, &doomed);
        db.execute("ROLLBACK").unwrap();
        assert_exact(&db, &model, &patterns, "rolled back");

        db.close().unwrap();
        let mut db = Database::open(&dir).unwrap();
        assert_exact(&db, &model, &patterns, "reopened");

        // the CREATE and the DML on top of it live only in the WAL
        db.execute("DROP SEQUENCE INDEX sx ON P").unwrap();
        db.checkpoint().unwrap();
        db.execute(&create).unwrap();
        apply(&mut db, &mut model, &mut next_k, &replayed);
        db.simulate_crash();
        let mut db = Database::open(&dir).unwrap();
        assert_exact(&db, &model, &patterns, "create replayed");
        let r = db.execute("CHECK").unwrap();
        prop_assert_eq!(r.message.as_deref(), Some("CHECK ok"));
        drop(db);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A checkpoint stores each sequence index's suffix order and a clean
/// reopen loads it with no sort, for both backends — also where UPDATEs
/// in descending row order and an undone DELETE re-indexed rows, so text
/// ids no longer ascend with row numbers and content-equal suffixes of
/// duplicate sequences must be re-listed in row order; and where the
/// WAL replays inserts on top of the stored order.
#[test]
fn stored_order_reopens_without_a_sort() {
    let patterns: Vec<String> = [
        "A", "C", "AC", "CA", "CC", "AAC", "ACC", "CAA", "CCA", "ACCA", "CAAC", "CCCA",
    ]
    .map(String::from)
    .to_vec();
    let dups = [
        "ACCA", "CAAC", "ACCA", "AAAC", "CAAC", "ACCA", "CCCA", "AAAC",
    ];
    for kind in ["SBC", "SUFFIX"] {
        let dir = tmp(&format!("stored-order-{kind}"));
        let mut db = Database::create(&dir).unwrap();
        db.execute("CREATE TABLE P (K INT, S TEXT)").unwrap();
        let (mut model, mut next_k) = (Model::new(), 0);
        let seed: Vec<Op> = dups.iter().map(|s| (0, 0, s.to_string())).collect();
        apply(&mut db, &mut model, &mut next_k, &seed);
        db.execute(&format!("CREATE SEQUENCE INDEX sx ON P (S) USING {kind}"))
            .unwrap();
        for k in (0..8).rev() {
            let s = dups[(k + 3) % 8];
            db.execute(&format!("UPDATE P SET S = '{s}' WHERE K = {k}"))
                .unwrap();
            model[k].1 = Some(s.to_string());
        }
        db.execute("BEGIN").unwrap();
        db.execute("DELETE FROM P WHERE K = 2").unwrap();
        db.execute("ROLLBACK").unwrap();
        assert_exact(&db, &model, &patterns, "re-indexed");
        db.close().unwrap();

        let sorts = bdbms_seq::sorted_builds();
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(
            bdbms_seq::sorted_builds(),
            sorts,
            "{kind}: a clean open sorts"
        );
        assert_exact(&db, &model, &patterns, "reopened");
        let r = db.execute("CHECK").unwrap();
        assert_eq!(
            r.message.as_deref(),
            Some("CHECK ok"),
            "{kind}: {:?}",
            r.rows
        );

        let more: Vec<Op> = dups[..5].iter().map(|s| (0, 0, s.to_string())).collect();
        apply(&mut db, &mut model, &mut next_k, &more);
        db.simulate_crash();
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(
            bdbms_seq::sorted_builds(),
            sorts,
            "{kind}: a replaying open sorts"
        );
        assert!(db.last_recovery().unwrap().replayed_commits >= 5);
        assert_exact(&db, &model, &patterns, "inserts replayed");
        let r = db.execute("CHECK").unwrap();
        assert_eq!(
            r.message.as_deref(),
            Some("CHECK ok"),
            "{kind}: {:?}",
            r.rows
        );
        db.close().unwrap();
        let db = Database::open(&dir).unwrap();
        assert_exact(&db, &model, &patterns, "reopened after replay");
        drop(db);
        let _ = fs::remove_dir_all(&dir);
    }
}
