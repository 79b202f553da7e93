//! Query results: annotated tuples.
//!
//! The defining trait of A-SQL results is that every output *cell* carries
//! its propagated annotations (§3.4).  [`AnnRow`] therefore pairs each
//! value vector with a per-column list of annotation snapshots.

use std::fmt;
use std::rc::Rc;

use bdbms_common::Value;

use crate::xml::XmlNode;

/// Snapshot of an annotation as it travels through a query pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnOut {
    /// User table the annotation's cell lives in.
    pub source_table: String,
    /// Name of the annotation table (category) it came from.
    pub ann_table: String,
    /// Annotation id within that table.
    pub id: u64,
    /// Original body text.
    pub raw: String,
    /// Parsed body.
    pub body: XmlNode,
    /// Creation timestamp.
    pub created: u64,
}

impl AnnOut {
    /// Flattened body text (for CONTAINS predicates and display).
    pub fn text(&self) -> String {
        self.body.full_text()
    }

    /// Identity of the underlying annotation record: a record is the same
    /// only if it comes from the same user table, the same annotation
    /// table, and has the same id there.
    pub fn identity(&self) -> (&str, &str, u64) {
        (&self.source_table, &self.ann_table, self.id)
    }
}

/// Shared annotation reference (annotations dedupe heavily across cells —
/// the paper's A2 covers twelve cells).
pub type AnnRef = Rc<AnnOut>;

/// One output tuple: values plus per-column annotation lists.
#[derive(Debug, Clone, Default)]
pub struct AnnRow {
    /// Column values.
    pub values: Vec<Value>,
    /// `anns[i]` = annotations attached to column `i`.
    pub anns: Vec<Vec<AnnRef>>,
}

impl AnnRow {
    /// A row with no annotations.
    pub fn plain(values: Vec<Value>) -> AnnRow {
        let n = values.len();
        AnnRow {
            values,
            anns: vec![Vec::new(); n],
        }
    }

    /// Every annotation on the tuple (all columns, deduped by identity).
    pub fn all_anns(&self) -> Vec<AnnRef> {
        let mut out: Vec<AnnRef> = Vec::new();
        for col in &self.anns {
            for a in col {
                if !out.iter().any(|x| x.identity() == a.identity()) {
                    out.push(a.clone());
                }
            }
        }
        out
    }

    /// Merge another row's annotations into this one column-wise
    /// (the paper's annotation-union `+` operator used by duplicate
    /// elimination, GROUP BY, and the set operations).
    pub fn union_anns_from(&mut self, other: &AnnRow) {
        for (mine, theirs) in self.anns.iter_mut().zip(&other.anns) {
            for a in theirs {
                if !mine.iter().any(|x| x.identity() == a.identity()) {
                    mine.push(a.clone());
                }
            }
        }
    }
}

/// The result of executing a statement.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output column names (empty for DML/DDL).
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<AnnRow>,
    /// Rows affected by DML.
    pub affected: usize,
    /// Informational message (DDL confirmations etc.).
    pub message: Option<String>,
    /// Execution statistics for the statement, when the executing
    /// surface collects them (SELECTs run through [`crate::Database`]
    /// one-shots and [`crate::Session`] cursors).  `None` for DML/DDL
    /// and for results deserialized from the wire protocol.
    pub stats: Option<crate::executor::ExecStats>,
}

impl QueryResult {
    /// An empty result carrying a message.
    pub fn message(msg: impl Into<String>) -> QueryResult {
        QueryResult {
            message: Some(msg.into()),
            ..Default::default()
        }
    }

    /// A DML result.
    pub fn affected(n: usize) -> QueryResult {
        QueryResult {
            affected: n,
            ..Default::default()
        }
    }

    /// Values of one column, by name.  Lookup follows SQL identifier
    /// semantics (case-insensitive, like the catalog and the schema);
    /// when two output columns differ only by case, an exact-case match
    /// wins over the first case-insensitive one.
    pub fn column_values(&self, name: &str) -> Option<Vec<&Value>> {
        let idx = self.columns.iter().position(|c| c == name).or_else(|| {
            self.columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(name))
        })?;
        Some(self.rows.iter().map(|r| &r.values[idx]).collect())
    }

    /// Render as an aligned text table with annotations shown inline as
    /// `value {ann1; ann2}` — how the examples print query answers.
    pub fn to_table(&self) -> String {
        if self.columns.is_empty() {
            return match (&self.message, self.affected) {
                (Some(m), _) => m.clone(),
                (None, n) => format!("{n} row(s) affected"),
            };
        }
        // the last column cannot push another one off the screen, so it
        // is never cut (an `EXPLAIN ANALYZE` line keeps its actuals); only
        // its rule and padding stop at the cap
        let last = self.columns.len() - 1;
        let render_cell = |row: &AnnRow, i: usize| -> String {
            let text = row.values[i].to_string();
            let mut s = if i == last { text } else { truncate(&text, 40) };
            if !row.anns[i].is_empty() {
                let anns: Vec<String> = row.anns[i]
                    .iter()
                    .map(|a| truncate(&a.text(), 30))
                    .collect();
                s.push_str(&format!(" {{{}}}", anns.join("; ")));
            }
            s
        };
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let mut line = Vec::with_capacity(widths.len());
            for (i, w) in widths.iter_mut().enumerate() {
                let s = render_cell(row, i);
                *w = (*w).max(if i == last { s.len().min(40) } else { s.len() });
                line.push(s);
            }
            cells.push(line);
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for line in cells {
            for (i, s) in line.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", s, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ann(table: &str, id: u64, text: &str) -> AnnRef {
        Rc::new(AnnOut {
            source_table: "T".to_string(),
            ann_table: table.to_string(),
            id,
            raw: text.to_string(),
            body: XmlNode::leaf("Annotation", text),
            created: 1,
        })
    }

    #[test]
    fn union_anns_dedupes() {
        let mut a = AnnRow::plain(vec![Value::Int(1), Value::Int(2)]);
        a.anns[0].push(ann("c", 1, "A1"));
        let mut b = AnnRow::plain(vec![Value::Int(1), Value::Int(2)]);
        b.anns[0].push(ann("c", 1, "A1"));
        b.anns[1].push(ann("c", 2, "A2"));
        a.union_anns_from(&b);
        assert_eq!(a.anns[0].len(), 1);
        assert_eq!(a.anns[1].len(), 1);
    }

    #[test]
    fn all_anns_across_columns() {
        let mut r = AnnRow::plain(vec![Value::Int(1), Value::Int(2)]);
        r.anns[0].push(ann("c", 1, "A1"));
        r.anns[1].push(ann("c", 1, "A1"));
        r.anns[1].push(ann("p", 1, "B1"));
        assert_eq!(r.all_anns().len(), 2);
    }

    #[test]
    fn table_rendering_shows_annotations() {
        let mut r = AnnRow::plain(vec![Value::Text("JW0080".into())]);
        r.anns[0].push(ann("GAnnotation", 0, "obtained from GenoBase"));
        let qr = QueryResult {
            columns: vec!["GID".into()],
            rows: vec![r],
            affected: 0,
            message: None,
            stats: None,
        };
        let t = qr.to_table();
        assert!(t.contains("JW0080"));
        assert!(t.contains("obtained from GenoBase"));
    }

    #[test]
    fn message_results() {
        assert_eq!(QueryResult::message("ok").to_table(), "ok");
        assert_eq!(QueryResult::affected(3).to_table(), "3 row(s) affected");
    }

    #[test]
    fn column_values_lookup() {
        let qr = QueryResult {
            columns: vec!["a".into(), "b".into()],
            rows: vec![AnnRow::plain(vec![Value::Int(1), Value::Int(2)])],
            affected: 0,
            message: None,
            stats: None,
        };
        assert_eq!(qr.column_values("B").unwrap(), vec![&Value::Int(2)]);
        assert_eq!(qr.column_values("b").unwrap(), vec![&Value::Int(2)]);
        assert!(qr.column_values("z").is_none());
    }

    #[test]
    fn column_values_prefers_exact_case_on_collision() {
        // `SELECT Gid AS gid, GID AS GID …`-style outputs can collide
        // case-insensitively; an exact-case request must pick its column
        let qr = QueryResult {
            columns: vec!["gid".into(), "GID".into()],
            rows: vec![AnnRow::plain(vec![Value::Int(1), Value::Int(2)])],
            affected: 0,
            message: None,
            stats: None,
        };
        assert_eq!(qr.column_values("GID").unwrap(), vec![&Value::Int(2)]);
        assert_eq!(qr.column_values("gid").unwrap(), vec![&Value::Int(1)]);
        // no exact match: first case-insensitive hit wins
        assert_eq!(qr.column_values("Gid").unwrap(), vec![&Value::Int(1)]);
    }
}
