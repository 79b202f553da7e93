//! Shared by the differential suites: the reference interpreter, the
//! rule for comparing an engine answer against it, and the randomized
//! suites' databases and WHERE generator.
#![allow(dead_code)] // each test crate uses its own subset

pub mod reference;

use bdbms_common::{BdbmsError, Result, Value};
use bdbms_core::ast::{Select, Statement};
use bdbms_core::catalog::Catalog;
use bdbms_core::executor::ExecStats;
use bdbms_core::{AnnRow, Database, QueryResult};
use proptest::prelude::*;
use reference::Answer;

/// Canonical text form of each row: values plus the identities of every
/// column's annotations (annotation propagation must match too).
pub fn row_keys(rows: &[AnnRow]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            let anns: Vec<Vec<String>> = r
                .anns
                .iter()
                .map(|col| {
                    let mut ids: Vec<String> =
                        col.iter().map(|a| format!("{:?}", a.identity())).collect();
                    ids.sort();
                    ids
                })
                .collect();
            format!("{:?} {:?}", r.values, anns)
        })
        .collect()
}

/// Parse one SELECT statement.
pub fn parse_select(sql: &str) -> Result<Select> {
    match bdbms_core::parser::parse(sql)? {
        Statement::Select(sel) => Ok(sel),
        _ => Err(BdbmsError::invalid("the reference runs SELECT only")),
    }
}

/// What the reference interpreter says about one statement.
pub struct Expected {
    sql: String,
    sel: Select,
    /// The answer with the outermost LIMIT lifted (which rows a LIMIT
    /// keeps is the engine's choice; that they come from here is not).
    unlimited: Result<Answer>,
}

/// Run `sql` through the reference interpreter.
pub fn expect(catalog: &Catalog, sql: &str) -> Expected {
    let sel = parse_select(sql).expect("generated SQL parses");
    let lifted = Select {
        limit: None,
        ..sel.clone()
    };
    Expected {
        sql: sql.to_string(),
        unlimited: reference::run(catalog, &lifted),
        sel,
    }
}

/// Run `sql` through `Database::query_traced`, assert that the answer is
/// the reference interpreter's (see [`Expected::assert_matches`]), and
/// hand it back with its execution counters.
pub fn run_checked(db: &Database, leg: &str, sql: &str) -> (QueryResult, ExecStats) {
    let (got, stats) = db
        .query_traced(sql)
        .unwrap_or_else(|e| panic!("{leg}: engine failed on {sql}: {e:?}"));
    expect(db.catalog(), sql).assert_matches(leg, Ok(got.clone()));
    (got, stats)
}

impl Expected {
    /// Assert that `got` (the engine's answer on path `leg`) is the
    /// reference's: the same error code, or the same columns and the same
    /// multiset of `values + annotation identities`; with `ORDER BY`, the
    /// same sort-key sequence too; under `LIMIT k`, `min(k, n)` rows that
    /// form a sub-multiset of the un-limited answer.
    pub fn assert_matches(&self, leg: &str, got: Result<QueryResult>) {
        let sql = &self.sql;
        let ((columns, want), got) = match (&self.unlimited, got) {
            (Ok(want), Ok(got)) => (want, got),
            (Err(w), Err(g)) => {
                assert_eq!(w.code(), g.code(), "{leg}: error codes differ for {sql}");
                return;
            }
            (Ok(_), Err(e)) => panic!("{leg}: reference succeeds, engine fails for {sql}: {e}"),
            (Err(e), Ok(_)) => panic!("{leg}: engine succeeds, reference fails for {sql}: {e}"),
        };
        assert_eq!(*columns, got.columns, "{leg}: columns differ for {sql}");
        let kept = match self.sel.limit {
            Some(k) => want.len().min(k as usize),
            None => want.len(),
        };
        assert_eq!(got.rows.len(), kept, "{leg}: row count differs for {sql}");
        let mut pool = row_keys(want);
        for key in row_keys(&got.rows) {
            let at = pool.iter().position(|k| *k == key);
            let at = at.unwrap_or_else(|| panic!("{leg}: {key} is not a reference row of {sql}"));
            pool.swap_remove(at);
        }
        // rows that tie on the sort key may come in either order
        let sort_keys = |rows: &[AnnRow]| -> Vec<Vec<Value>> {
            let cols = self.sel.order_by.iter().map(|((_, name), _)| {
                let at = columns.iter().position(|c| c.eq_ignore_ascii_case(name));
                at.expect("the reference resolved ORDER BY")
            });
            let cols: Vec<usize> = cols.collect();
            rows.iter()
                .map(|r| cols.iter().map(|&c| r.values[c].clone()).collect())
                .collect()
        };
        assert_eq!(
            sort_keys(&got.rows),
            sort_keys(&want[..kept]),
            "{leg}: sort keys differ for {sql}"
        );
    }
}

/// Three joinable tables with indexes and annotations, so random queries
/// exercise index probes, full scans, hash joins, and the annotation
/// operators.  `Obs` adds NULLs in every column but its id, FLOAT values
/// next to INT ones, multi-byte UTF-8 text and deleted rows.
pub fn diff_db() -> Database {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Gene (GID TEXT, GName TEXT, Len INT, Bucket INT)")
        .unwrap();
    let tuples: Vec<String> = (0..300)
        .map(|r| format!("('JW{r:04}', 'g{}', {r}, {})", r % 7, r % 5))
        .collect();
    db.execute(&format!("INSERT INTO Gene VALUES {}", tuples.join(", ")))
        .unwrap();
    db.execute("CREATE INDEX len_idx ON Gene (Len)").unwrap();
    db.execute("CREATE INDEX bucket_idx ON Gene (Bucket)")
        .unwrap();
    db.execute("CREATE ANNOTATION TABLE Curation ON Gene")
        .unwrap();
    db.execute(
        "ADD ANNOTATION TO Gene.Curation VALUE 'curated by lab' \
         ON (SELECT G.GID FROM Gene G WHERE Len < 40)",
    )
    .unwrap();
    db.execute(
        "ADD ANNOTATION TO Gene.Curation VALUE 'from GenoBase' \
         ON (SELECT G.Len FROM Gene G WHERE Bucket = 2)",
    )
    .unwrap();
    db.execute("CREATE TABLE Tag (TLen INT, TName TEXT)")
        .unwrap();
    let tags: Vec<String> = (0..80)
        .map(|r| format!("({}, 't{r}')", r * 3 % 50))
        .collect();
    db.execute(&format!("INSERT INTO Tag VALUES {}", tags.join(", ")))
        .unwrap();
    db.execute("CREATE TABLE Obs (OId INT, Site TEXT, Val FLOAT, Qty INT, Memo TEXT)")
        .unwrap();
    let or_null = |null: bool, v: String| if null { "NULL".to_string() } else { v };
    let sites = ["Zürich", "Ålesund", "東京", "São Paulo", "Kraków"];
    let obs: Vec<String> = (0..120)
        .map(|r| {
            let site = or_null(r % 11 == 0, format!("'{}-{}'", sites[r % 5], r % 3));
            let val = or_null(r % 7 == 3, format!("{:.1}", r as f64 * 0.5));
            let qty = or_null(r % 13 == 5, format!("{}", r % 9));
            let memo = or_null(r % 4 == 1, format!("'µ-{r}-ß'"));
            format!("({r}, {site}, {val}, {qty}, {memo})")
        })
        .collect();
    db.execute(&format!("INSERT INTO Obs VALUES {}", obs.join(", ")))
        .unwrap();
    db.execute("CREATE INDEX qty_idx ON Obs (Qty)").unwrap();
    db.execute("DELETE FROM Obs WHERE OId % 10 = 7").unwrap();
    db.execute("CREATE ANNOTATION TABLE Audit ON Obs").unwrap();
    db.execute(
        "ADD ANNOTATION TO Obs.Audit VALUE 'checked on site' \
         ON (SELECT O.Site, O.Memo FROM Obs O WHERE Qty < 4)",
    )
    .unwrap();
    db
}

/// A sequence-indexed table (plus a B+-tree on `Len`, annotations on the
/// sequence column and a small dimension table), so random queries run
/// the *exact* `Seq Index Scan`: the engine neither re-checks the
/// answered `CONTAINS SEQ` conjunct nor decodes `SS` for it, the reference
/// evaluates the whole WHERE on every row.
pub fn seq_db() -> Database {
    let mut db = Database::new_in_memory();
    db.execute("CREATE TABLE Prot (PID TEXT, SS TEXT, Len INT, Fam INT)")
        .unwrap();
    let mut x = 20070107u64;
    let mut next = |n: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % n
    };
    let tuples: Vec<String> = (0..150)
        .map(|r| {
            let mut ss = String::new();
            for _ in 0..1 + next(8) {
                let ch = ['H', 'E', 'C'][next(3) as usize];
                ss.extend(std::iter::repeat_n(ch, 1 + next(5) as usize));
            }
            // a few NULL sequences: never indexed, never matched
            let ss = if r % 29 == 0 {
                "NULL".to_string()
            } else {
                format!("'{ss}'")
            };
            format!("('P{r:04}', {ss}, {}, {})", r % 40, r % 6)
        })
        .collect();
    db.execute(&format!("INSERT INTO Prot VALUES {}", tuples.join(", ")))
        .unwrap();
    db.execute("CREATE INDEX len_idx ON Prot (Len)").unwrap();
    db.execute("CREATE SEQUENCE INDEX ss_idx ON Prot (SS) USING SBC")
        .unwrap();
    // tombstones and re-indexed rows (text ids out of row order)
    db.execute("UPDATE Prot SET SS = 'HHHHEEEECCCC' WHERE Len = 3")
        .unwrap();
    db.execute("DELETE FROM Prot WHERE Len = 7").unwrap();
    db.execute("CREATE ANNOTATION TABLE Notes ON Prot").unwrap();
    db.execute(
        "ADD ANNOTATION TO Prot.Notes VALUE 'predicted' \
         ON (SELECT P.SS FROM Prot P WHERE Fam = 1)",
    )
    .unwrap();
    db.execute("CREATE TABLE Family (FId INT, FName TEXT)")
        .unwrap();
    db.execute(
        "INSERT INTO Family VALUES (0, 'globin'), (1, 'kinase'), (2, 'EH-hand'), \
         (3, 'zinc'), (4, 'HEC'), (5, 'barrel'), (1, 'kinase-like'), (9, 'orphan')",
    )
    .unwrap();
    db
}

/// WHERE clauses over `diff_db`'s `Obs`, none reading every column a
/// statement reads: B+-tree probes with a re-check, INT against FLOAT
/// (constants and columns), NULL tests, multi-byte text, `IN` lists.
pub fn arb_obs_where() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        (0i64..10).prop_map(|k| format!(" WHERE Qty = {k}")),
        (0i64..9).prop_map(|k| format!(" WHERE Qty >= {k} AND Val < {}.5", k * 6)),
        (0i64..60).prop_map(|k| format!(" WHERE Val > {k}")),
        (0i64..60).prop_map(|k| format!(" WHERE Val <= {k}.5 AND Memo IS NOT NULL")),
        Just(" WHERE Qty < Val".to_string()),
        Just(" WHERE Site LIKE '%ü%' OR Site LIKE '東%'".to_string()),
        Just(" WHERE Memo IS NULL".to_string()),
        Just(" WHERE OId IN (3, 4.0, 50, 77, 118)".to_string()),
        (0i64..5).prop_map(|k| format!(" WHERE Qty % 5 = {k} AND Site >= 'S'")),
    ]
}

/// WHERE clauses over `diff_db`'s `Gene`: B+-tree equality and range
/// probes, full-scan filters, and a type error.
pub fn arb_where() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        (0i64..310).prop_map(|k| format!(" WHERE Len = {k}")),
        (0i64..300, 1i64..40).prop_map(|(k, w)| format!(" WHERE Len >= {k} AND Len < {}", k + w)),
        (0i64..5).prop_map(|k| format!(" WHERE Bucket = {k}")),
        (1i64..9, 0i64..9).prop_map(|(m, r)| format!(" WHERE Len % {m} = {r}")),
        (0i64..10).prop_map(|d| format!(" WHERE GID LIKE 'JW%{d}'")),
        (0i64..5, 0i64..150).prop_map(|(b, k)| format!(" WHERE Bucket = {b} AND Len > {k}")),
        // type error: TEXT + INT fails on the first row of every path
        Just(" WHERE GID + 1 = 2".to_string()),
    ]
}
