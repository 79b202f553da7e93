//! Differential property suite for statement targeting: the rows an
//! `UPDATE`, a `DELETE` and an `ADD ANNOTATION … ON (SELECT …)` touch are
//! exactly the rows the reference interpreter (`support/reference.rs`)
//! returns for `SELECT * … WHERE` with the same condition — across
//! B+-tree probes (re-checked), the exact sequence probe, the empty probe
//! of `col = NULL`, full scans and an unresolvable column.  Every
//! statement runs inside `BEGIN … ROLLBACK`; its post-state is read back
//! through the reference, and a statement the reference says must fail
//! fails with the same error code and leaves the table unchanged.

mod support;

use bdbms_common::{Result, Value};
use bdbms_core::Database;
use proptest::prelude::*;
use support::reference;
use support::{arb_where, diff_db, parse_select, seq_db};

/// The table a condition targets, described for the three statements.
struct Target {
    table: &'static str,
    /// A column with a distinct value per row, projected by the annotation
    /// target and read back through `AWHERE`.
    key: &'static str,
    /// The annotation set `ADD ANNOTATION` writes to.
    set: &'static str,
    /// The UPDATE's `column = literal` (a column no condition reads), and
    /// the value the literal stores.
    assign: (&'static str, &'static str, Value),
}

fn gene() -> Target {
    Target {
        table: "Gene",
        key: "GID",
        set: "Curation",
        assign: ("GName", "'touched'", Value::Text("touched".into())),
    }
}

fn prot() -> Target {
    Target {
        table: "Prot",
        key: "PID",
        set: "Notes",
        assign: ("Fam", "99", Value::Int(99)),
    }
}

/// The reference's answer to a SELECT: each row's values.
fn reference_rows(db: &Database, sql: &str) -> Result<Vec<Vec<Value>>> {
    let sel = parse_select(sql).expect("test SQL parses");
    let (_, rows) = reference::run(db.catalog(), &sel)?;
    Ok(rows.into_iter().map(|r| r.values).collect())
}

/// A multiset of rows in a comparable order.
fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// Run `UPDATE`, `DELETE` and `ADD ANNOTATION` with condition `cond`
/// (`""` or `" WHERE …"`) against `t`, each inside `BEGIN … ROLLBACK`,
/// and check each against the reference's `SELECT * FROM t{cond}`: the
/// affected count, the post-state, and — when the reference fails — the
/// error code and an unchanged table.
fn assert_targets(db: &mut Database, t: &Target, cond: &str) {
    let (table, key, set) = (t.table, t.key, t.set);
    let (assign, literal, value) = &t.assign;
    let schema = &db.catalog().table(table).unwrap().schema;
    let (assign_at, key_at) = (
        schema.require(assign).unwrap(),
        schema.require(key).unwrap(),
    );
    let all = format!("SELECT * FROM {table}");
    let tagged =
        format!("SELECT {key} FROM {table} ANNOTATION({set}) AWHERE CONTAINS 'target-probe'");
    let before = sorted(reference_rows(db, &all).unwrap());
    let want = reference_rows(db, &format!("{all}{cond}"));
    let statements = [
        format!("UPDATE {table} SET {assign} = {literal}{cond}"),
        format!("DELETE FROM {table}{cond}"),
        format!(
            "ADD ANNOTATION TO {table}.{set} VALUE 'target-probe' \
             ON (SELECT {key} FROM {table}{cond})"
        ),
    ];
    for (kind, sql) in statements.iter().enumerate() {
        db.execute("BEGIN").unwrap();
        let got = db.execute(sql);
        let after = sorted(reference_rows(db, &all).unwrap());
        match (&want, got) {
            (Err(w), Err(g)) => {
                assert_eq!(w.code(), g.code(), "error codes differ for {sql}");
                assert_eq!(after, before, "a failed statement changed {table}: {sql}");
            }
            (Ok(_), Err(e)) => panic!("reference succeeds, statement fails for {sql}: {e}"),
            (Err(e), Ok(_)) => panic!("statement succeeds, reference fails for {sql}: {e}"),
            (Ok(hit), Ok(res)) => {
                assert_eq!(res.affected, hit.len(), "affected count differs for {sql}");
                let expected: Vec<Vec<Value>> = match kind {
                    0 => before
                        .iter()
                        .map(|row| {
                            let mut row = row.clone();
                            if hit.contains(&row) {
                                row[assign_at] = value.clone();
                            }
                            row
                        })
                        .collect(),
                    1 => before
                        .iter()
                        .filter(|r| !hit.contains(r))
                        .cloned()
                        .collect(),
                    _ => {
                        let keys = hit.iter().map(|r| vec![r[key_at].clone()]).collect();
                        let annotated = reference_rows(db, &tagged).unwrap();
                        assert_eq!(sorted(annotated), sorted(keys), "annotated rows of {sql}");
                        before.clone()
                    }
                };
                assert_eq!(after, sorted(expected), "post-state differs for {sql}");
            }
        }
        db.execute("ROLLBACK").unwrap();
        let restored = sorted(reference_rows(db, &all).unwrap());
        assert_eq!(restored, before, "ROLLBACK of {sql}");
        assert!(
            reference_rows(db, &tagged).unwrap().is_empty(),
            "ROLLBACK of {sql}"
        );
    }
}

/// The condition shapes every access path must agree on, by name: a
/// B+-tree probe (widened bounds, re-checked), the exact sequence probe,
/// the provably empty probe, a full scan, an unresolvable column — and
/// the cases `plan.rs` once pinned `filter_rows` with, over a 100-row
/// table indexed on `len` and sequence-indexed on `GID`.
#[test]
fn every_access_path_targets_the_reference_rows() {
    let mut db = diff_db();
    for cond in [
        "",
        " WHERE Len = 42",
        " WHERE Len > 290",
        " WHERE Len >= 10 AND Len < 12",
        " WHERE Bucket = 2 AND Len > 280",
        " WHERE Len = NULL",
        " WHERE Len % 50 = 0",
        " WHERE Nope = 1",
        " WHERE GID + 1 = 2",
    ] {
        assert_targets(&mut db, &gene(), cond);
    }
    let mut db = seq_db();
    for cond in [
        " WHERE SS CONTAINS SEQ 'HHHHEEEE'",
        " WHERE SS CONTAINS SEQ 'CE' AND Len < 20",
        " WHERE SS CONTAINS SEQ 'X'",
        " WHERE SS NOT CONTAINS SEQ 'H'",
        " WHERE Len > 35",
    ] {
        assert_targets(&mut db, &prot(), cond);
    }

    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE G (GID TEXT, len INT, score FLOAT, note TEXT)")
        .unwrap();
    let rows: Vec<String> = (0..100)
        .map(|i| format!("('JW{i:04}', {i}, {:.1}, NULL)", i as f64 / 2.0))
        .collect();
    db.execute(&format!("INSERT INTO G VALUES {}", rows.join(", ")))
        .unwrap();
    db.execute("CREATE INDEX len_idx ON G (len)").unwrap();
    db.execute("CREATE SEQUENCE INDEX gid_seq ON G (GID) USING SBC")
        .unwrap();
    db.execute("CREATE ANNOTATION TABLE Probe ON G").unwrap();
    let g = Target {
        table: "G",
        key: "GID",
        set: "Probe",
        assign: ("note", "'touched'", Value::Text("touched".into())),
    };
    for cond in [
        "",
        " WHERE len = 42",
        " WHERE len > 90 AND G.GID LIKE 'JW%'",
        " WHERE len >= 95 OR len < 2",
        " WHERE len * 2 = 10",
        " WHERE score > 40.0",
        " WHERE GID CONTAINS SEQ '004'",
        " WHERE GID CONTAINS SEQ 'JW' AND len < 3",
        " WHERE GID CONTAINS SEQ 'absent'",
    ] {
        assert_targets(&mut db, &g, cond);
    }
}

/// `Len`/`CONTAINS SEQ` conditions over `seq_db`'s `Prot`: B+-tree
/// probes, the exact sequence probe (alone, re-checked beside a range,
/// negated), the empty probe and an unresolvable column.
fn arb_prot_where() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..45).prop_map(|k| format!(" WHERE Len = {k}")),
        (0i64..40, 1i64..9).prop_map(|(k, w)| format!(" WHERE Len > {k} AND Len <= {}", k + w)),
        "[HEC]{1,5}".prop_map(|p| format!(" WHERE SS CONTAINS SEQ '{p}'")),
        ("[HEC]{1,3}", 0i64..40)
            .prop_map(|(p, k)| format!(" WHERE SS CONTAINS SEQ '{p}' AND Len < {k}")),
        "[HEC]{1,2}".prop_map(|p| format!(" WHERE SS NOT CONTAINS SEQ '{p}'")),
        Just(" WHERE Len = NULL".to_string()),
        Just(" WHERE Nope = 1".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Gene` under `arb_where()` plus the empty probe and an unresolvable
    /// column: statement targets ≡ reference rows.
    #[test]
    fn gene_targets_are_equivalent(
        cond in prop_oneof![
            arb_where(),
            Just(" WHERE Len = NULL".to_string()),
            Just(" WHERE Nope = 1".to_string()),
        ],
    ) {
        let mut db = diff_db();
        assert_targets(&mut db, &gene(), &cond);
    }

    /// `Prot` under `Len` and `CONTAINS SEQ` conditions: statement
    /// targets ≡ reference rows.
    #[test]
    fn prot_targets_are_equivalent(cond in arb_prot_where()) {
        let mut db = seq_db();
        assert_targets(&mut db, &prot(), &cond);
    }
}
