//! Property tests for the engine: SQL results must agree with a naive
//! in-memory model under random data and random predicates, and random
//! statement garbage must error, never panic.

use bdbms_common::Value;
use bdbms_core::Database;
use proptest::prelude::*;

fn db_with_rows(rows: &[(i64, i64, String)]) -> Database {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE T (a INT, b INT, s TEXT)").unwrap();
    if rows.is_empty() {
        return db;
    }
    let values: Vec<String> = rows
        .iter()
        .map(|(a, b, s)| format!("({a}, {b}, '{s}')"))
        .collect();
    db.execute(&format!("INSERT INTO T VALUES {}", values.join(", ")))
        .unwrap();
    db
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64, String)>> {
    prop::collection::vec((-50i64..50, -50i64..50, "[a-c]{0,4}"), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// WHERE with comparison predicates selects exactly the model rows.
    #[test]
    fn where_matches_model(rows in arb_rows(), lo in -50i64..50, hi in -50i64..50) {
        let mut db = db_with_rows(&rows);
        let qr = db
            .execute(&format!("SELECT a, b FROM T WHERE a >= {lo} AND b < {hi}"))
            .unwrap();
        let expect = rows.iter().filter(|(a, b, _)| *a >= lo && *b < hi).count();
        prop_assert_eq!(qr.rows.len(), expect);
        for r in &qr.rows {
            let a = r.values[0].as_int().unwrap();
            let b = r.values[1].as_int().unwrap();
            prop_assert!(a >= lo && b < hi);
        }
    }

    /// ORDER BY sorts correctly (and DESC reverses).
    #[test]
    fn order_by_matches_model(rows in arb_rows()) {
        let mut db = db_with_rows(&rows);
        let qr = db.execute("SELECT a FROM T ORDER BY a").unwrap();
        let got: Vec<i64> = qr.rows.iter().map(|r| r.values[0].as_int().unwrap()).collect();
        let mut expect: Vec<i64> = rows.iter().map(|(a, _, _)| *a).collect();
        expect.sort_unstable();
        prop_assert_eq!(&got, &expect);
        let qr = db.execute("SELECT a FROM T ORDER BY a DESC").unwrap();
        let got: Vec<i64> = qr.rows.iter().map(|r| r.values[0].as_int().unwrap()).collect();
        expect.reverse();
        prop_assert_eq!(got, expect);
    }

    /// Aggregates agree with the model, per group and globally.
    #[test]
    fn aggregates_match_model(rows in arb_rows()) {
        let mut db = db_with_rows(&rows);
        let qr = db
            .execute("SELECT s, COUNT(*), SUM(a), MIN(b), MAX(b) FROM T GROUP BY s ORDER BY s")
            .unwrap();
        use std::collections::BTreeMap;
        let mut model: BTreeMap<&str, (i64, i64, i64, i64)> = BTreeMap::new();
        for (a, b, s) in &rows {
            let e = model.entry(s).or_insert((0, 0, i64::MAX, i64::MIN));
            e.0 += 1;
            e.1 += a;
            e.2 = e.2.min(*b);
            e.3 = e.3.max(*b);
        }
        prop_assert_eq!(qr.rows.len(), model.len());
        for (row, (s, (cnt, sum, min, max))) in qr.rows.iter().zip(model) {
            prop_assert_eq!(row.values[0].as_text().unwrap(), s);
            prop_assert_eq!(row.values[1].as_int().unwrap(), cnt);
            prop_assert_eq!(row.values[2].as_int().unwrap(), sum);
            prop_assert_eq!(row.values[3].as_int().unwrap(), min);
            prop_assert_eq!(row.values[4].as_int().unwrap(), max);
        }
        // global count
        let qr = db.execute("SELECT COUNT(*) FROM T").unwrap();
        prop_assert_eq!(qr.rows[0].values[0].as_int().unwrap(), rows.len() as i64);
    }

    /// UPDATE+DELETE keep the table consistent with the model.
    #[test]
    fn dml_matches_model(rows in arb_rows(), pivot in -50i64..50) {
        let mut db = db_with_rows(&rows);
        db.execute(&format!("UPDATE T SET b = b + 100 WHERE a < {pivot}")).unwrap();
        db.execute(&format!("DELETE FROM T WHERE a = {pivot}")).unwrap();
        let model: Vec<(i64, i64)> = rows
            .iter()
            .filter(|(a, _, _)| *a != pivot)
            .map(|(a, b, _)| (*a, if *a < pivot { b + 100 } else { *b }))
            .collect();
        let qr = db.execute("SELECT a, b FROM T ORDER BY a, b").unwrap();
        let mut got: Vec<(i64, i64)> = qr
            .rows
            .iter()
            .map(|r| (r.values[0].as_int().unwrap(), r.values[1].as_int().unwrap()))
            .collect();
        let mut expect = model;
        expect.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// INTERSECT/UNION/EXCEPT match set semantics of the model.
    #[test]
    fn set_ops_match_model(
        xs in prop::collection::vec(-20i64..20, 0..40),
        ys in prop::collection::vec(-20i64..20, 0..40),
    ) {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE X (v INT)").unwrap();
        db.execute("CREATE TABLE Y (v INT)").unwrap();
        for v in &xs {
            db.execute(&format!("INSERT INTO X VALUES ({v})")).unwrap();
        }
        for v in &ys {
            db.execute(&format!("INSERT INTO Y VALUES ({v})")).unwrap();
        }
        use std::collections::BTreeSet;
        let sx: BTreeSet<i64> = xs.iter().copied().collect();
        let sy: BTreeSet<i64> = ys.iter().copied().collect();
        let run = |db: &mut Database, op: &str| -> BTreeSet<i64> {
            db.execute(&format!("SELECT v FROM X {op} SELECT v FROM Y"))
                .unwrap()
                .rows
                .iter()
                .map(|r| r.values[0].as_int().unwrap())
                .collect()
        };
        prop_assert_eq!(run(&mut db, "INTERSECT"), &sx & &sy);
        prop_assert_eq!(run(&mut db, "UNION"), &sx | &sy);
        prop_assert_eq!(run(&mut db, "EXCEPT"), &sx - &sy);
    }

    /// The annotation store agrees with a per-cell model under random
    /// rectangle attachments, for both storage schemes.
    #[test]
    fn annotation_schemes_match_model(
        attaches in prop::collection::vec(
            (0u64..30, 0u64..30, 0usize..4, 0usize..4),
            1..25,
        ),
    ) {
        use bdbms_core::annotation::AnnotationSet;
        use std::collections::HashSet;
        let mut cell = AnnotationSet::new("a", true);
        let mut rect = AnnotationSet::new("a", false);
        let mut model: Vec<HashSet<(u64, usize)>> = Vec::new();
        for (r1, r2, c1, c2) in &attaches {
            let (rlo, rhi) = (*r1.min(r2), *r1.max(r2));
            let (clo, chi) = (*c1.min(c2), *c1.max(c2));
            let rows: Vec<u64> = (rlo..=rhi).collect();
            let cols: Vec<usize> = (clo..=chi).collect();
            cell.add(&rows, &cols);
            rect.add(&rows, &cols);
            let mut covered = HashSet::new();
            for r in rlo..=rhi {
                for c in clo..=chi {
                    covered.insert((r, c));
                }
            }
            model.push(covered);
        }
        for probe_r in (0..30).step_by(3) {
            for probe_c in 0..4usize {
                let expect: usize = model
                    .iter()
                    .filter(|cov| cov.contains(&(probe_r, probe_c)))
                    .count();
                prop_assert_eq!(cell.for_cell(probe_r, probe_c).len(), expect);
                prop_assert_eq!(rect.for_cell(probe_r, probe_c).len(), expect);
            }
        }
    }

    /// Random junk never panics the parser/engine — it errors.
    #[test]
    fn junk_statements_error_gracefully(junk in "[ -~]{0,80}") {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE T (a INT)").unwrap();
        let _ = db.execute(&junk); // must not panic
    }

    /// Text round-trips through insert/select including quote escaping.
    #[test]
    fn text_values_roundtrip(s in "[a-zA-Z0-9 .,;<>/&()*+-]{0,60}") {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE T (v TEXT)").unwrap();
        let quoted = s.replace('\'', "''");
        db.execute(&format!("INSERT INTO T VALUES ('{quoted}')")).unwrap();
        let qr = db.execute("SELECT v FROM T").unwrap();
        prop_assert_eq!(qr.rows[0].values[0].clone(), Value::Text(s));
    }
}
