//! The annotation manager (§3 of the paper).
//!
//! A user relation may have **multiple annotation tables** attached
//! (categorization at the storage level — §3.1): one per category, each an
//! [`AnnotationSet`].  Every annotation carries an XML (or free-text) body,
//! a creation timestamp (used by `ARCHIVE … BETWEEN t1 AND t2`), an
//! archived flag (§3.3 — archived annotations are not propagated but can
//! be restored), and a creator.
//!
//! As in the paper, the annotations are stored in tables.  Set `S` on
//! table `T` keeps two hidden tables in the catalog, ordinary heap tables
//! whose names no SQL identifier can spell:
//!
//! * `T$S` — one row per annotation (`record_schema`); the annotation
//!   id is the row number;
//! * `T$S$rects` — the attachments, one Figure 5 rectangle record
//!   `(ann, col_lo, col_hi, row_lo, row_hi)` per row (`rect_schema`).
//!
//! Their rows are written, logged, undone, replayed and checkpointed like
//! any other rows.  What memory keeps is *derived* from them: the
//! [`AnnotationSet`] — the attachment index of the set's scheme plus each
//! annotation's archived flag.  The hidden tables' own row write path
//! keeps it current (`crate::catalog::History`), and the open pass
//! rebuilds it, so rollback and recovery need nothing of their own.
//!
//! Two attachment indexes are implemented, matching the paper's Figures
//! 3 and 5; both derive from the same rectangle rows:
//!
//! * [`CellScheme`] — the naive scheme where every data cell carries its
//!   own annotation list (the paper's Figure 3, where annotation `A2` is
//!   repeated 6 times);
//! * [`RectScheme`] — the compact scheme of Figure 5: the table is viewed
//!   as a 2-D space (columns × tuples) and an annotation over any group of
//!   contiguous cells is **one rectangle record**, indexed by an R-tree
//!   for cell-stabbing lookups.
//!
//! Experiment **E05** compares the two schemes' storage and lookup costs.

use std::collections::HashMap;

use bdbms_common::ids::AnnotationId;
use bdbms_common::{BdbmsError, DataType, Result, Schema, Value};
use bdbms_index::rtree::{RTree, Rect};

use crate::xml::XmlNode;

/// One annotation record, as read from its set's record table.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// Unique id within the annotation set (its record's row number).
    pub id: AnnotationId,
    /// Parsed body.
    pub body: XmlNode,
    /// Original body text as supplied.
    pub raw: String,
    /// Creation timestamp (logical clock tick).
    pub created: u64,
    /// User who added it.
    pub creator: String,
    /// Archived annotations are kept but not propagated (§3.3).
    pub archived: bool,
}

/// Column of the archived flag in a record row.
pub(crate) const ARCHIVED: usize = 3;

/// Columns of a set's record table `T$S`.
pub(crate) fn record_schema() -> Schema {
    Schema::of(&[
        ("body", DataType::Text),
        ("created", DataType::Timestamp),
        ("creator", DataType::Text),
        ("archived", DataType::Bool),
    ])
}

/// Columns of a set's rectangle table `T$S$rects`.
pub(crate) fn rect_schema() -> Schema {
    Schema::of(&[
        ("ann", DataType::Int),
        ("col_lo", DataType::Int),
        ("col_hi", DataType::Int),
        ("row_lo", DataType::Int),
        ("row_hi", DataType::Int),
    ])
}

impl Annotation {
    /// The record row of a new annotation.
    pub(crate) fn row(raw: &str, created: u64, creator: &str) -> Vec<Value> {
        vec![
            Value::Text(raw.to_string()),
            Value::Timestamp(created),
            Value::Text(creator.to_string()),
            Value::Bool(false),
        ]
    }

    /// Decode record row `id`.
    pub(crate) fn from_row(id: u64, row: Vec<Value>) -> Result<Annotation> {
        match <[Value; 4]>::try_from(row) {
            Ok(
                [Value::Text(raw), Value::Timestamp(created), Value::Text(creator), Value::Bool(archived)],
            ) => Ok(Annotation {
                id: AnnotationId(id),
                body: XmlNode::parse_or_wrap(&raw),
                raw,
                created,
                creator,
                archived,
            }),
            _ => Err(BdbmsError::corrupt(format!(
                "malformed annotation record {id}"
            ))),
        }
    }
}

/// One attachment record: annotation `ann` over columns `cols.0..=cols.1`
/// of rows `rows.0..=rows.1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rectangle {
    /// The attached annotation.
    pub ann: AnnotationId,
    /// First and last column.
    pub cols: (usize, usize),
    /// First and last row number.
    pub rows: (u64, u64),
}

impl Rectangle {
    /// The rectangle row holding this record.
    pub(crate) fn row(&self) -> Vec<Value> {
        [
            self.ann.raw(),
            self.cols.0 as u64,
            self.cols.1 as u64,
            self.rows.0,
            self.rows.1,
        ]
        .map(|v| Value::Int(v as i64))
        .to_vec()
    }

    /// Decode a rectangle row (`None` when it is not one).
    pub(crate) fn from_row(row: &[Value]) -> Option<Rectangle> {
        let int = |k: usize| match row.get(k) {
            Some(Value::Int(v)) => u64::try_from(*v).ok(),
            _ => None,
        };
        Some(Rectangle {
            ann: AnnotationId(int(0)?),
            cols: (int(1)? as usize, int(2)? as usize),
            rows: (int(3)?, int(4)?),
        })
    }

    fn rect(&self) -> Rect {
        Rect::new(
            [self.cols.0 as f64, self.rows.0 as f64],
            [self.cols.1 as f64, self.rows.1 as f64],
        )
    }
}

/// Decompose the `rows × cols` cells of one annotation into maximal
/// contiguous rectangles, exactly as Figure 5 suggests.
pub(crate) fn rectangles(ann: AnnotationId, rows: &[u64], cols: &[usize]) -> Vec<Rectangle> {
    let cols: Vec<u64> = cols.iter().map(|&c| c as u64).collect();
    let mut out = Vec::new();
    for (clo, chi) in contiguous_u64(&cols) {
        for (rlo, rhi) in contiguous_u64(rows) {
            out.push(Rectangle {
                ann,
                cols: (clo as usize, chi as usize),
                rows: (rlo, rhi),
            });
        }
    }
    out
}

/// Attachment storage scheme.
pub enum Scheme {
    /// Per-cell lists (Figure 3).
    Cell(CellScheme),
    /// Compact rectangles + R-tree (Figure 5).
    Rect(RectScheme),
}

/// Naive per-cell attachment: every annotated cell stores the id list.
#[derive(Default, PartialEq)]
pub struct CellScheme {
    cells: HashMap<(u64, usize), Vec<AnnotationId>>,
}

impl CellScheme {
    fn cells(r: &Rectangle) -> impl Iterator<Item = (u64, usize)> {
        let (cols, rows) = (r.cols, r.rows);
        (rows.0..=rows.1).flat_map(move |row| (cols.0..=cols.1).map(move |col| (row, col)))
    }

    fn attach(&mut self, r: &Rectangle) {
        for cell in Self::cells(r) {
            self.cells.entry(cell).or_default().push(r.ann);
        }
    }

    /// Remove one attachment of `r.ann` per covered cell; cells left
    /// without attachments go, as if the record had never been added.
    fn detach(&mut self, r: &Rectangle) {
        for cell in Self::cells(r) {
            if let Some(ids) = self.cells.get_mut(&cell) {
                if let Some(pos) = ids.iter().rposition(|&id| id == r.ann) {
                    ids.remove(pos);
                }
                if ids.is_empty() {
                    self.cells.remove(&cell);
                }
            }
        }
    }

    fn for_cell(&self, row: u64, col: usize) -> Vec<AnnotationId> {
        self.cells.get(&(row, col)).cloned().unwrap_or_default()
    }

    /// Attachment records stored (one per annotated cell per annotation —
    /// the repetition the paper calls out).
    fn record_count(&self) -> usize {
        self.cells.values().map(|v| v.len()).sum()
    }

    /// 10 bytes of cell key + 8 bytes per referenced annotation id.
    fn storage_bytes(&self) -> usize {
        self.cells.len() * 10 + self.record_count() * 8
    }
}

/// Compact rectangle attachment over the (column, row) plane: an
/// R-tree over the rectangles (x = column span, y = row span), each
/// carrying its annotation id.
#[derive(Default)]
pub struct RectScheme {
    index: RTree,
}

impl RectScheme {
    fn attach(&mut self, r: &Rectangle) {
        self.index.insert(r.rect(), r.ann.raw());
    }

    fn detach(&mut self, r: &Rectangle) {
        self.index.remove(&r.rect(), r.ann.raw());
    }

    fn for_cell(&self, row: u64, col: usize) -> Vec<AnnotationId> {
        let cell = Rect::point(col as f64, row as f64);
        let hits = self.index.search(&cell).into_iter();
        hits.map(|(_, ann)| AnnotationId(ann)).collect()
    }

    /// Linear-scan variant (ablation: what the R-tree buys on lookups).
    pub fn for_cell_scan(&self, row: u64, col: usize) -> Vec<AnnotationId> {
        let cell = Rect::point(col as f64, row as f64);
        let hits = self.index.entries().filter(|(r, _)| r.intersects(&cell));
        hits.map(|&(_, ann)| AnnotationId(ann)).collect()
    }

    /// Every rectangle as `(col_lo, col_hi, row_lo, row_hi, ann)`, sorted.
    fn records(&self) -> Vec<[u64; 5]> {
        let mut all: Vec<[u64; 5]> = self
            .index
            .entries()
            .map(|(r, ann)| {
                let [clo, rlo] = r.min.map(|c| c as u64);
                let [chi, rhi] = r.max.map(|c| c as u64);
                [clo, chi, rlo, rhi, *ann]
            })
            .collect();
        all.sort_unstable();
        all
    }

    fn record_count(&self) -> usize {
        self.index.len()
    }

    /// 40 bytes per rectangle record (4 coordinates + id), plus the R-tree.
    fn storage_bytes(&self) -> usize {
        self.index.len() * 40 + self.index.storage_bytes()
    }
}

/// Sorted+deduped contiguous runs of row numbers.
fn contiguous_u64(xs: &[u64]) -> Vec<(u64, u64)> {
    let mut v: Vec<u64> = xs.to_vec();
    v.sort_unstable();
    v.dedup();
    let mut out = Vec::new();
    let mut i = 0;
    while i < v.len() {
        let start = v[i];
        let mut end = start;
        while i + 1 < v.len() && v[i + 1] == end + 1 {
            i += 1;
            end = v[i];
        }
        out.push((start, end));
        i += 1;
    }
    out
}

/// One annotation table (category) attached to a user relation: its
/// definition and the in-memory state derived from its hidden tables —
/// the attachment index and each annotation's archived flag.
pub struct AnnotationSet {
    /// Category name (e.g. `GAnnotation`, `provenance`).
    pub name: String,
    /// Only users with the PROVENANCE privilege may write (§4).
    pub system_only: bool,
    /// Enforce the provenance XML schema on bodies (§4).
    pub schema_enforced: bool,
    scheme: Scheme,
    /// By annotation id: `Some(archived)` for each stored record.
    flags: Vec<Option<bool>>,
}

impl AnnotationSet {
    /// New, empty annotation set with the chosen scheme.
    pub fn new(name: impl Into<String>, cell_scheme: bool) -> Self {
        AnnotationSet {
            name: name.into(),
            system_only: false,
            schema_enforced: false,
            scheme: if cell_scheme {
                Scheme::Cell(CellScheme::default())
            } else {
                Scheme::Rect(RectScheme::default())
            },
            flags: Vec::new(),
        }
    }

    /// Index a new annotation over `rows × cols` in this set alone — the
    /// storage-scheme experiments (E05) and model tests, which need no
    /// record table (in a database the index is fed from the set's rows).
    pub fn add(&mut self, rows: &[u64], cols: &[usize]) -> AnnotationId {
        let id = AnnotationId(self.flags.len() as u64);
        self.record_written(id.raw(), Some(false));
        for r in rectangles(id, rows, cols) {
            self.attach(&r);
        }
        id
    }

    /// Record row `id` was written (`Some(archived)`) or removed (`None`).
    pub(crate) fn record_written(&mut self, id: u64, archived: Option<bool>) {
        let id = id as usize;
        if self.flags.len() <= id {
            self.flags.resize(id + 1, None);
        }
        self.flags[id] = archived;
        while self.flags.last() == Some(&None) {
            self.flags.pop();
        }
    }

    /// A rectangle row was written.
    pub(crate) fn attach(&mut self, r: &Rectangle) {
        match &mut self.scheme {
            Scheme::Cell(s) => s.attach(r),
            Scheme::Rect(s) => s.attach(r),
        }
    }

    /// A rectangle row was removed.
    pub(crate) fn detach(&mut self, r: &Rectangle) {
        match &mut self.scheme {
            Scheme::Cell(s) => s.detach(r),
            Scheme::Rect(s) => s.detach(r),
        }
    }

    /// Non-archived annotations attached to a cell, ascending.
    pub fn for_cell(&self, row: u64, col: usize) -> Vec<AnnotationId> {
        let mut ids = self.ids_for_cell(row, col);
        ids.retain(|&id| !self.is_archived(id));
        ids
    }

    /// All annotation ids attached to a cell (archived included),
    /// ascending.
    pub fn ids_for_cell(&self, row: u64, col: usize) -> Vec<AnnotationId> {
        let mut ids = match &self.scheme {
            Scheme::Cell(s) => s.for_cell(row, col),
            Scheme::Rect(s) => s.for_cell(row, col),
        };
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Is the annotation archived?
    pub fn is_archived(&self, id: AnnotationId) -> bool {
        self.flags.get(id.raw() as usize) == Some(&Some(true))
    }

    /// Number of annotation records.
    pub fn len(&self) -> usize {
        self.flags.iter().flatten().count()
    }

    /// True when no annotations stored.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Does this index hold exactly what `other` holds — the same
    /// records, flags and attachments?  (`CHECK` compares the live index
    /// with one rebuilt from the rows.)
    pub(crate) fn same_index(&self, other: &AnnotationSet) -> bool {
        self.flags == other.flags
            && match (&self.scheme, &other.scheme) {
                (Scheme::Cell(a), Scheme::Cell(b)) => {
                    let sorted = |s: &CellScheme| {
                        let mut cells: Vec<_> = s.cells.iter().collect();
                        cells.sort_unstable_by_key(|(cell, _)| **cell);
                        cells
                            .into_iter()
                            .map(|(cell, ids)| {
                                let mut ids = ids.clone();
                                ids.sort_unstable();
                                (*cell, ids)
                            })
                            .collect::<Vec<_>>()
                    };
                    sorted(a) == sorted(b)
                }
                // the R-tree must also find each rectangle at its corner
                (Scheme::Rect(a), Scheme::Rect(b)) => {
                    a.records() == b.records()
                        && a.index.entries().all(|(r, ann)| {
                            let corner = Rect::point(r.min[0], r.min[1]);
                            a.index.search(&corner).contains(&(*r, *ann))
                        })
                }
                _ => false,
            }
    }

    /// Attachment records stored by the scheme (the compactness metric of
    /// E05).
    pub fn attachment_records(&self) -> usize {
        match &self.scheme {
            Scheme::Cell(s) => s.record_count(),
            Scheme::Rect(s) => s.record_count(),
        }
    }

    /// Attachment storage bytes (annotation bodies excluded — identical in
    /// both schemes).
    pub fn attachment_bytes(&self) -> usize {
        match &self.scheme {
            Scheme::Cell(s) => s.storage_bytes(),
            Scheme::Rect(s) => s.storage_bytes(),
        }
    }

    /// Access the rectangle scheme, if that's what this set uses
    /// (benchmark ablation hook).
    pub fn rect_scheme(&self) -> Option<&RectScheme> {
        match &self.scheme {
            Scheme::Rect(s) => Some(s),
            Scheme::Cell(_) => None,
        }
    }

    /// Is this set stored in the per-cell scheme (Figure 3) rather than
    /// the rectangle scheme (Figure 5)?
    pub fn is_cell_scheme(&self) -> bool {
        matches!(self.scheme, Scheme::Cell(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_decomposition() {
        assert_eq!(
            contiguous_u64(&[1, 2, 3, 7, 8, 10]),
            vec![(1, 3), (7, 8), (10, 10)]
        );
        assert_eq!(contiguous_u64(&[5, 3, 4]), vec![(3, 5)]);
        assert_eq!(contiguous_u64(&[2, 2, 2]), vec![(2, 2)]);
        assert!(contiguous_u64(&[]).is_empty());
    }

    #[test]
    fn figure2_annotations_on_both_schemes() {
        // DB2_Gene: 3 columns (GID, GName, GSequence), 5 tuples.
        // B1 over rows {0,1,4} cells of all columns? In Figure 2, B1 covers
        // rows mraW, fixB, caiB on GID+GName; we model: rows 0,1,2 on cols 0,1.
        for cell_scheme in [true, false] {
            let mut set = AnnotationSet::new("GAnnotation", cell_scheme);
            let b1 = set.add(&[0, 1, 2], &[0, 1]);
            let b3 = set.add(&[0, 1, 2, 3, 4], &[2]);
            let b5 = set.add(&[0], &[0, 1, 2]);
            // cell lookups
            let on_00 = set.for_cell(0, 0);
            assert!(on_00.contains(&b1) && on_00.contains(&b5));
            assert_eq!(set.for_cell(4, 2), vec![b3]);
            assert!(set.for_cell(4, 0).is_empty());
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn rect_scheme_is_compact_for_column_annotations() {
        // Column annotation over 1000 rows: 1 rectangle vs 1000 cell records.
        let rows: Vec<u64> = (0..1000).collect();
        let mut rect = AnnotationSet::new("a", false);
        rect.add(&rows, &[2]);
        let mut cell = AnnotationSet::new("a", true);
        cell.add(&rows, &[2]);
        assert_eq!(rect.attachment_records(), 1);
        assert_eq!(cell.attachment_records(), 1000);
        assert!(rect.attachment_bytes() * 10 < cell.attachment_bytes());
    }

    #[test]
    fn scattered_rows_make_multiple_rectangles() {
        let mut set = AnnotationSet::new("a", false);
        set.add(&[0, 1, 5, 6, 9], &[0, 1, 2]);
        // 3 row runs × 1 col run = 3 rectangles
        assert_eq!(set.attachment_records(), 3);
        assert_eq!(set.for_cell(5, 1).len(), 1);
        assert!(set.for_cell(3, 1).is_empty());
    }

    /// `ARCHIVE … BETWEEN` flips only the records created in the window,
    /// and `RESTORE` flips them back: the record rows change, and the
    /// index's flags with them.
    #[test]
    fn archive_and_restore_with_time_window() {
        let mut db = crate::Database::new_in_memory();
        db.execute("CREATE TABLE T (v INT)").unwrap();
        db.execute("CREATE ANNOTATION TABLE a ON T").unwrap();
        db.execute("INSERT INTO T VALUES (1)").unwrap();
        let add = |db: &mut crate::Database, body: &str| {
            db.execute(&format!(
                "ADD ANNOTATION TO T.a VALUE '{body}' ON (SELECT G.v FROM T G)"
            ))
            .unwrap();
            db.now()
        };
        let old = add(&mut db, "old");
        add(&mut db, "new");
        let live = |db: &crate::Database| {
            let set = db.catalog().annotation_set("T", "a").unwrap();
            let ids = set.index().for_cell(0, 0);
            ids.into_iter()
                .map(|id| set.get(id).unwrap().raw)
                .collect::<Vec<_>>()
        };
        assert_eq!(live(&db), ["old", "new"]);
        // archive only the old one
        let r = db
            .execute(&format!(
                "ARCHIVE ANNOTATION FROM T.a BETWEEN 0 AND {old} ON (SELECT G.v FROM T G)"
            ))
            .unwrap();
        assert_eq!(r.message.as_deref(), Some("1 annotation(s) archived"));
        assert_eq!(live(&db), ["new"]);
        let set = db.catalog().annotation_set("T", "a").unwrap();
        assert!(
            set.get(AnnotationId(0)).unwrap().archived,
            "the row changed"
        );
        // restore it
        let r = db
            .execute("RESTORE ANNOTATION FROM T.a ON (SELECT G.v FROM T G)")
            .unwrap();
        assert_eq!(r.message.as_deref(), Some("1 annotation(s) restored"));
        assert_eq!(live(&db), ["old", "new"]);
    }

    #[test]
    fn archived_not_propagated_but_queryable() {
        for cell_scheme in [true, false] {
            let mut set = AnnotationSet::new("a", cell_scheme);
            let id = set.add(&[3], &[1]);
            set.record_written(id.raw(), Some(true));
            assert!(set.for_cell(3, 1).is_empty(), "archived must not propagate");
            assert!(set.is_archived(id));
            assert_eq!(set.ids_for_cell(3, 1), vec![id]);
        }
    }

    #[test]
    fn rect_scan_ablation_agrees_with_rtree() {
        let mut set = AnnotationSet::new("a", false);
        for i in 0..50u64 {
            set.add(&[i, i + 1], &[(i % 3) as usize]);
        }
        let rs = set.rect_scheme().unwrap();
        for row in 0..52u64 {
            for col in 0..3usize {
                let mut a = rs.for_cell_scan(row, col);
                a.sort_unstable();
                a.dedup();
                assert_eq!(a, set.ids_for_cell(row, col), "cell ({row},{col})");
            }
        }
    }

    #[test]
    fn duplicate_attachment_ids_deduped() {
        let mut set = AnnotationSet::new("a", false);
        // Overlapping rectangles from one annotation (rows given twice).
        let id = set.add(&[0, 0, 1], &[0]);
        assert_eq!(set.ids_for_cell(0, 0), vec![id]);
    }

    /// Removing the rows of the newest annotations (a rollback) leaves
    /// the index equal to one that never saw them — in both schemes, and
    /// when the freed row numbers are reused.
    #[test]
    fn detaching_rows_restores_the_index_exactly() {
        for cell_scheme in [true, false] {
            let build = |n: u64| {
                let mut set = AnnotationSet::new("a", cell_scheme);
                for i in 0..n {
                    set.add(&[i, i + 1, i + 5], &[0, 1]);
                }
                set
            };
            let mut set = build(6);
            for rect in rectangles(AnnotationId(5), &[5, 6, 10], &[0, 1]) {
                set.detach(&rect);
            }
            set.record_written(5, None);
            assert!(set.same_index(&build(5)));
            let again = set.add(&[0], &[3]);
            assert_eq!(again, AnnotationId(5), "the freed id is reused");
            assert_eq!(set.for_cell(0, 3), vec![again]);
            assert!(set.for_cell(10, 0).is_empty());
        }
    }

    #[test]
    fn rows_round_trip() {
        let r = Rectangle {
            ann: AnnotationId(7),
            cols: (1, 2),
            rows: (40, 90),
        };
        assert_eq!(Rectangle::from_row(&r.row()), Some(r));
        let a = Annotation::from_row(3, Annotation::row("<A>x</A>", 9, "bob")).unwrap();
        assert_eq!((a.id.raw(), a.created, a.archived), (3, 9, false));
        assert_eq!(a.body.full_text(), "x");
        assert_eq!(
            Annotation::from_row(3, vec![Value::Null])
                .unwrap_err()
                .code(),
            bdbms_common::ErrorCode::Corrupt
        );
    }
}
