//! Provenance management (§4, Figure 8).
//!
//! The paper treats provenance as *a kind of annotation* with two extra
//! requirements:
//!
//! 1. **Structure** — provenance bodies follow a predefined XML schema
//!    that the DBMS enforces (`<Annotation><source>…</source>
//!    <operation>…</operation>…</Annotation>`);
//! 2. **Authorization** — end-users cannot write provenance; only the
//!    system / integration tools may (modelled with the `PROVENANCE`
//!    privilege).
//!
//! Figure 8's question — *"what is the source of this value at time T?"* —
//! is answered by [`source_of`]: the latest provenance record attached to
//! the cell with timestamp ≤ T.

use bdbms_common::{BdbmsError, Result};

use crate::annotation::{Annotation, AnnotationSet};
use crate::catalog::Catalog;
use crate::xml::XmlNode;

/// Name of the reserved provenance annotation table on each relation.
pub const PROVENANCE_TABLE: &str = "provenance";

/// The operations Figure 8 depicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvOp {
    /// Data copied in from an external source.
    Copy,
    /// Locally inserted.
    LocalInsert,
    /// Updated by a program.
    ProgramUpdate,
    /// Overwritten by data from another source.
    Overwrite,
}

impl ProvOp {
    /// Canonical text used in the XML body.
    pub fn as_str(self) -> &'static str {
        match self {
            ProvOp::Copy => "copy",
            ProvOp::LocalInsert => "local-insert",
            ProvOp::ProgramUpdate => "program-update",
            ProvOp::Overwrite => "overwrite",
        }
    }

    /// Parse the canonical text.
    pub fn parse(s: &str) -> Option<ProvOp> {
        match s {
            "copy" => Some(ProvOp::Copy),
            "local-insert" => Some(ProvOp::LocalInsert),
            "program-update" => Some(ProvOp::ProgramUpdate),
            "overwrite" => Some(ProvOp::Overwrite),
            _ => None,
        }
    }
}

/// One provenance record (a decoded provenance annotation).
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceRecord {
    /// The source (database, program, or `local`).
    pub source: String,
    /// The operation that brought the value in.
    pub operation: ProvOp,
    /// Optional program/tool name.
    pub program: Option<String>,
    /// When it was recorded.
    pub time: u64,
}

impl ProvenanceRecord {
    /// Build the schema'd XML body.
    pub fn to_xml(&self) -> XmlNode {
        let mut children = vec![
            XmlNode::leaf("source", &self.source),
            XmlNode::leaf("operation", self.operation.as_str()),
        ];
        if let Some(p) = &self.program {
            children.push(XmlNode::leaf("program", p));
        }
        XmlNode::elem("Annotation", children)
    }

    /// Decode and validate a provenance body (§4: the schema is enforced).
    pub fn from_xml(body: &XmlNode, created: u64) -> Result<ProvenanceRecord> {
        let source = body
            .path_text("/Annotation/source")
            .ok_or_else(|| BdbmsError::invalid("provenance body missing <source>"))?
            .to_string();
        let op_text = body
            .path_text("/Annotation/operation")
            .ok_or_else(|| BdbmsError::invalid("provenance body missing <operation>"))?;
        let operation = ProvOp::parse(op_text).ok_or_else(|| {
            BdbmsError::invalid(format!("unknown provenance operation `{op_text}`"))
        })?;
        Ok(ProvenanceRecord {
            source,
            operation,
            program: body.path_text("/Annotation/program").map(|s| s.to_string()),
            time: created,
        })
    }
}

/// Validate a raw annotation body against the provenance schema; returns
/// the parse error the engine reports when schema enforcement is on.
pub fn validate_body(raw: &str) -> Result<()> {
    let body = XmlNode::parse(raw)
        .map_err(|e| BdbmsError::invalid(format!("provenance body must be XML: {e}")))?;
    ProvenanceRecord::from_xml(&body, 0).map(|_| ())
}

/// A fresh provenance annotation set, flagged system-only and
/// schema-enforced.
pub(crate) fn provenance_set() -> AnnotationSet {
    let mut set = AnnotationSet::new(PROVENANCE_TABLE, false);
    set.system_only = true;
    set.schema_enforced = true;
    set
}

/// Every provenance record attached to `(row, col)` of `table`, archived
/// ones included (history is not curated away), with its creation time.
fn cell_records(catalog: &Catalog, table: &str, row: u64, col: usize) -> Result<Vec<Annotation>> {
    catalog.table(table)?;
    let Ok(set) = catalog.annotation_set(table, PROVENANCE_TABLE) else {
        return Ok(Vec::new());
    };
    let ids = set.index().ids_for_cell(row, col);
    ids.into_iter().map(|id| set.get(id)).collect()
}

/// The source of `(row, col)` at time `at` — the newest provenance record
/// with `time <= at` (Figure 8's query).  `None` when the cell has no
/// provenance that old.
pub fn source_of(
    catalog: &Catalog,
    table: &str,
    row: u64,
    col: usize,
    at: u64,
) -> Result<Option<ProvenanceRecord>> {
    let mut best: Option<ProvenanceRecord> = None;
    for ann in cell_records(catalog, table, row, col)? {
        if ann.created > at {
            continue;
        }
        if let Ok(rec) = ProvenanceRecord::from_xml(&ann.body, ann.created) {
            if best.as_ref().is_none_or(|b| rec.time >= b.time) {
                best = Some(rec);
            }
        }
    }
    Ok(best)
}

/// Full provenance history of a cell, oldest first.
pub fn history_of(
    catalog: &Catalog,
    table: &str,
    row: u64,
    col: usize,
) -> Result<Vec<ProvenanceRecord>> {
    let mut out: Vec<ProvenanceRecord> = cell_records(catalog, table, row, col)?
        .iter()
        .filter_map(|a| ProvenanceRecord::from_xml(&a.body, a.created).ok())
        .collect();
    out.sort_by_key(|r| r.time);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;

    fn db() -> Database {
        let mut db = Database::new_in_memory();
        db.execute("CREATE TABLE Gene (GID TEXT, GSequence TEXT)")
            .unwrap();
        db.execute("INSERT INTO Gene VALUES ('JW0080', 'ATG')")
            .unwrap();
        db.enable_provenance("Gene").unwrap();
        db
    }

    fn record(db: &mut Database, source: &str, op: ProvOp, rows: &[u64], cols: &[usize]) -> u64 {
        let rec = ProvenanceRecord {
            source: source.to_string(),
            operation: op,
            program: None,
            time: 0,
        };
        db.record_provenance("Gene", rows, cols, &rec).unwrap();
        db.now()
    }

    #[test]
    fn record_roundtrip() {
        let rec = ProvenanceRecord {
            source: "RegulonDB".into(),
            operation: ProvOp::Copy,
            program: Some("loader-v2".into()),
            time: 7,
        };
        let xml = rec.to_xml();
        let back = ProvenanceRecord::from_xml(&xml, 7).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn schema_enforcement() {
        assert!(validate_body(
            "<Annotation><source>S1</source><operation>copy</operation></Annotation>"
        )
        .is_ok());
        assert!(validate_body("<Annotation><source>S1</source></Annotation>").is_err());
        assert!(validate_body("free text").is_err());
        assert!(validate_body(
            "<Annotation><source>S1</source><operation>teleport</operation></Annotation>"
        )
        .is_err());
    }

    #[test]
    fn figure8_source_at_time_t() {
        let mut db = db();
        // history: copied from S2, updated by P1, overwritten from S3
        let t1 = record(&mut db, "S2", ProvOp::Copy, &[0], &[1]);
        let t5 = record(&mut db, "P1", ProvOp::ProgramUpdate, &[0], &[1]);
        let t9 = record(&mut db, "S3", ProvOp::Overwrite, &[0], &[1]);
        let source = |at: u64| db.source_of("Gene", 0, 1, at).unwrap().map(|r| r.source);
        assert_eq!(source(t1 - 1), None);
        assert_eq!(source(t1).unwrap(), "S2");
        assert_eq!(source(t5 - 1).unwrap(), "S2");
        assert_eq!(source(t5).unwrap(), "P1");
        assert_eq!(source(t9 + 100).unwrap(), "S3");
        let hist = db.provenance_history("Gene", 0, 1).unwrap();
        assert_eq!(hist.len(), 3);
        assert!(hist.windows(2).all(|w| w[0].time <= w[1].time));
        // other cells untouched
        assert_eq!(db.source_of("Gene", 0, 0, t9 + 100).unwrap(), None);
    }

    #[test]
    fn ensure_is_idempotent_and_flagged() {
        let mut db = db();
        db.enable_provenance("Gene").unwrap();
        assert_eq!(db.catalog().ann_set_names("Gene"), [PROVENANCE_TABLE]);
        let set = db
            .catalog()
            .annotation_set("Gene", PROVENANCE_TABLE)
            .unwrap();
        let set = set.index();
        assert!(set.system_only);
        assert!(set.schema_enforced);
    }
}
