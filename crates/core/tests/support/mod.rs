//! Shared by the differential suites: the reference interpreter and the
//! rule for comparing an engine answer against it.
#![allow(dead_code)] // each test crate uses its own subset

pub mod reference;

use bdbms_common::{BdbmsError, Result, Value};
use bdbms_core::ast::{Select, Statement};
use bdbms_core::catalog::Catalog;
use bdbms_core::executor::ExecStats;
use bdbms_core::{AnnRow, Database, QueryResult};
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
