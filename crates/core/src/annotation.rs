//! The annotation manager (§3 of the paper).
//!
//! A user relation may have **multiple annotation tables** attached
//! (categorization at the storage level — §3.1): one per category, each an
//! [`AnnotationSet`].  Every annotation carries an XML (or free-text) body,
//! a creation timestamp (used by `ARCHIVE … BETWEEN t1 AND t2`), an
//! archived flag (§3.3 — archived annotations are not propagated but can
//! be restored), and a creator.
//!
//! Two attachment storage schemes are implemented, matching the paper's
//! Figures 3 and 5:
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

use std::collections::BTreeMap;
use std::collections::HashMap;

use bdbms_common::codec;
use bdbms_common::ids::AnnotationId;
use bdbms_common::Result;
use bdbms_index::rtree::{RTree, Rect};

use crate::xml::XmlNode;

/// One annotation record.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// Unique id within the annotation set.
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

/// Attachment storage scheme.
pub enum Scheme {
    /// Per-cell lists (Figure 3).
    Cell(CellScheme),
    /// Compact rectangles + R-tree (Figure 5).
    Rect(RectScheme),
}

/// Naive per-cell attachment: every annotated cell stores the id list.
#[derive(Default)]
pub struct CellScheme {
    cells: HashMap<(u64, usize), Vec<AnnotationId>>,
}

impl CellScheme {
    fn attach(&mut self, ann: AnnotationId, rows: &[u64], cols: &[usize]) {
        for &r in rows {
            for &c in cols {
                self.cells.entry((r, c)).or_default().push(ann);
            }
        }
    }

    fn for_cell(&self, row: u64, col: usize) -> Vec<AnnotationId> {
        self.cells.get(&(row, col)).cloned().unwrap_or_default()
    }

    /// Drop every attachment of annotations at or past the id watermark
    /// (transaction rollback).  Cells left without attachments are
    /// removed so storage accounting matches a history where the
    /// annotations never existed.
    fn detach_from(&mut self, watermark: u64) {
        self.cells.retain(|_, ids| {
            ids.retain(|id| id.raw() < watermark);
            !ids.is_empty()
        });
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

/// Compact rectangle attachment over the (column, row) plane.
#[derive(Default)]
pub struct RectScheme {
    /// (col_lo, col_hi, row_lo, row_hi, ann).
    rects: Vec<(usize, usize, u64, u64, AnnotationId)>,
    /// R-tree over the rectangles (x = column span, y = row span).
    index: RTree,
}

impl RectScheme {
    fn attach(&mut self, ann: AnnotationId, rows: &[u64], cols: &[usize]) {
        // Decompose the (row set × col set) into maximal contiguous
        // rectangles, exactly as Figure 5 suggests.
        for (clo, chi) in contiguous_usize(cols) {
            for (rlo, rhi) in contiguous_u64(rows) {
                let idx = self.rects.len();
                self.rects.push((clo, chi, rlo, rhi, ann));
                self.index.insert(
                    Rect::new([clo as f64, rlo as f64], [chi as f64, rhi as f64]),
                    idx as u64,
                );
            }
        }
    }

    fn for_cell(&self, row: u64, col: usize) -> Vec<AnnotationId> {
        self.index
            .search(&Rect::point(col as f64, row as f64))
            .into_iter()
            .map(|(_, idx)| self.rects[idx as usize].4)
            .collect()
    }

    /// Linear-scan variant (ablation: what the R-tree buys on lookups).
    pub fn for_cell_scan(&self, row: u64, col: usize) -> Vec<AnnotationId> {
        self.rects
            .iter()
            .filter(|(clo, chi, rlo, rhi, _)| {
                *clo <= col && col <= *chi && *rlo <= row && row <= *rhi
            })
            .map(|(_, _, _, _, a)| *a)
            .collect()
    }

    fn record_count(&self) -> usize {
        self.rects.len()
    }

    /// Drop every rectangle of annotations at or past the id watermark
    /// (transaction rollback).  Annotations are appended in id order, so
    /// the survivors are a prefix of the rectangle list; rebuilding the
    /// R-tree over that prefix reproduces the pre-transaction structure
    /// exactly (same rectangles, same insertion order).
    fn detach_from(&mut self, watermark: u64) {
        let keep = self
            .rects
            .iter()
            .take_while(|(_, _, _, _, ann)| ann.raw() < watermark)
            .count();
        if keep == self.rects.len() {
            return;
        }
        self.rects.truncate(keep);
        self.index = RTree::default();
        for (idx, &(clo, chi, rlo, rhi, _)) in self.rects.iter().enumerate() {
            self.index.insert(
                Rect::new([clo as f64, rlo as f64], [chi as f64, rhi as f64]),
                idx as u64,
            );
        }
    }

    /// 40 bytes per rectangle record (4 coordinates + id), plus the R-tree.
    fn storage_bytes(&self) -> usize {
        self.rects.len() * 40 + self.index.storage_bytes()
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

fn contiguous_usize(xs: &[usize]) -> Vec<(usize, usize)> {
    contiguous_u64(&xs.iter().map(|&x| x as u64).collect::<Vec<_>>())
        .into_iter()
        .map(|(a, b)| (a as usize, b as usize))
        .collect()
}

/// One annotation table (category) attached to a user relation.
pub struct AnnotationSet {
    /// Category name (e.g. `GAnnotation`, `provenance`).
    pub name: String,
    /// Only users with the PROVENANCE privilege may write (§4).
    pub system_only: bool,
    /// Enforce the provenance XML schema on bodies (§4).
    pub schema_enforced: bool,
    annotations: BTreeMap<u64, Annotation>,
    scheme: Scheme,
    next_id: u64,
}

impl AnnotationSet {
    /// New annotation set with the chosen scheme.
    pub fn new(name: impl Into<String>, cell_scheme: bool) -> Self {
        AnnotationSet {
            name: name.into(),
            system_only: false,
            schema_enforced: false,
            annotations: BTreeMap::new(),
            scheme: if cell_scheme {
                Scheme::Cell(CellScheme::default())
            } else {
                Scheme::Rect(RectScheme::default())
            },
            next_id: 0,
        }
    }

    /// Add an annotation over `rows × cols` cells.
    pub fn add(
        &mut self,
        raw: &str,
        creator: &str,
        created: u64,
        rows: &[u64],
        cols: &[usize],
    ) -> AnnotationId {
        let id = AnnotationId(self.next_id);
        self.next_id += 1;
        let body = XmlNode::parse_or_wrap(raw);
        self.annotations.insert(
            id.raw(),
            Annotation {
                id,
                body,
                raw: raw.to_string(),
                created,
                creator: creator.to_string(),
                archived: false,
            },
        );
        match &mut self.scheme {
            Scheme::Cell(s) => s.attach(id, rows, cols),
            Scheme::Rect(s) => s.attach(id, rows, cols),
        }
        id
    }

    /// The annotation record by id.
    pub fn get(&self, id: AnnotationId) -> Option<&Annotation> {
        self.annotations.get(&id.raw())
    }

    /// Non-archived annotations attached to a cell.
    pub fn for_cell(&self, row: u64, col: usize) -> Vec<&Annotation> {
        self.ids_for_cell(row, col)
            .into_iter()
            .filter_map(|id| self.annotations.get(&id.raw()))
            .filter(|a| !a.archived)
            .collect()
    }

    /// All annotation ids attached to a cell (archived included).
    pub fn ids_for_cell(&self, row: u64, col: usize) -> Vec<AnnotationId> {
        let mut ids = match &self.scheme {
            Scheme::Cell(s) => s.for_cell(row, col),
            Scheme::Rect(s) => s.for_cell(row, col),
        };
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Archive (or restore) annotations attached to any of `cells`,
    /// optionally limited to a creation-time window (Figure 6b/6c).
    /// Returns the ids of the annotation records that changed state.
    pub fn set_archived(
        &mut self,
        cells: &[(u64, usize)],
        between: Option<(u64, u64)>,
        archived: bool,
    ) -> Vec<AnnotationId> {
        let mut ids: Vec<AnnotationId> = cells
            .iter()
            .flat_map(|&(r, c)| self.ids_for_cell(r, c))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.retain(|id| {
            let Some(a) = self.annotations.get_mut(&id.raw()) else {
                return false;
            };
            let in_window = between.is_none_or(|(lo, hi)| lo <= a.created && a.created <= hi);
            let flips = in_window && a.archived != archived;
            if flips {
                a.archived = archived;
            }
            flips
        });
        ids
    }

    /// The id the next [`add`](Self::add) would allocate — the watermark
    /// an addition records as its inverse.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Roll the set back to an id watermark: truncate annotations (and
    /// their scheme attachments) at or past it and rewind the allocator.
    pub(crate) fn rollback_to(&mut self, next_id: u64) {
        if self.next_id > next_id {
            self.annotations.retain(|&id, _| id < next_id);
            match &mut self.scheme {
                Scheme::Cell(s) => s.detach_from(next_id),
                Scheme::Rect(s) => s.detach_from(next_id),
            }
            self.next_id = next_id;
        }
    }

    /// Put the archived flag of exactly these annotations back to
    /// `archived` (rollback of a [`set_archived`](Self::set_archived)).
    pub(crate) fn restore_archived(&mut self, ids: &[AnnotationId], archived: bool) {
        for id in ids {
            if let Some(a) = self.annotations.get_mut(&id.raw()) {
                a.archived = archived;
            }
        }
    }

    /// Number of annotation records.
    pub fn len(&self) -> usize {
        self.annotations.len()
    }

    /// True when no annotations stored.
    pub fn is_empty(&self) -> bool {
        self.annotations.is_empty()
    }

    /// Every annotation id referenced by an attachment record, sorted and
    /// deduplicated.  `CHECK` verifies these never dangle (each must
    /// resolve through [`get`](Self::get)).
    pub fn referenced_ids(&self) -> Vec<AnnotationId> {
        let mut ids: Vec<AnnotationId> = match &self.scheme {
            Scheme::Cell(s) => s.cells.values().flatten().copied().collect(),
            Scheme::Rect(s) => s.rects.iter().map(|r| r.4).collect(),
        };
        ids.sort_unstable();
        ids.dedup();
        ids
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

    /// Iterate all annotations (archived included).
    pub fn iter(&self) -> impl Iterator<Item = &Annotation> {
        self.annotations.values()
    }

    /// Is this set stored in the per-cell scheme (Figure 3) rather than
    /// the rectangle scheme (Figure 5)?
    pub fn is_cell_scheme(&self) -> bool {
        matches!(self.scheme, Scheme::Cell(_))
    }

    // ---- durable form (checkpoint snapshots — see `crate::durability`) ----

    /// Serialize the whole set: annotation records (bodies as their raw
    /// text, re-parsed on load) plus the exact attachment-scheme state.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        codec::put_str(out, &self.name);
        codec::put_bool(out, self.system_only);
        codec::put_bool(out, self.schema_enforced);
        codec::put_u64(out, self.next_id);
        codec::put_u32(out, self.annotations.len() as u32);
        for a in self.annotations.values() {
            codec::put_u64(out, a.id.raw());
            codec::put_str(out, &a.raw);
            codec::put_u64(out, a.created);
            codec::put_str(out, &a.creator);
            codec::put_bool(out, a.archived);
        }
        match &self.scheme {
            Scheme::Cell(s) => {
                codec::put_u8(out, 0);
                // deterministic order: sorted by (row, col)
                let mut cells: Vec<(&(u64, usize), &Vec<AnnotationId>)> = s.cells.iter().collect();
                cells.sort_by_key(|(k, _)| **k);
                codec::put_u32(out, cells.len() as u32);
                for ((row, col), ids) in cells {
                    codec::put_u64(out, *row);
                    codec::put_u32(out, *col as u32);
                    codec::put_u32(out, ids.len() as u32);
                    for id in ids {
                        codec::put_u64(out, id.raw());
                    }
                }
            }
            Scheme::Rect(s) => {
                codec::put_u8(out, 1);
                codec::put_u32(out, s.rects.len() as u32);
                for &(clo, chi, rlo, rhi, ann) in &s.rects {
                    codec::put_u32(out, clo as u32);
                    codec::put_u32(out, chi as u32);
                    codec::put_u64(out, rlo);
                    codec::put_u64(out, rhi);
                    codec::put_u64(out, ann.raw());
                }
            }
        }
    }

    /// Inverse of [`encode`](Self::encode).  Rebuilds parsed bodies and
    /// the R-tree, reproducing the in-memory structure exactly (the
    /// rectangle list keeps its insertion order, which the rollback
    /// machinery's prefix-truncation relies on).
    pub(crate) fn decode(cur: &mut codec::Cur<'_>) -> Result<AnnotationSet> {
        let name = cur.str()?;
        let system_only = cur.bool()?;
        let schema_enforced = cur.bool()?;
        let next_id = cur.u64()?;
        let n = cur.len()?;
        let mut annotations = BTreeMap::new();
        for _ in 0..n {
            let id = cur.u64()?;
            let raw = cur.str()?;
            let created = cur.u64()?;
            let creator = cur.str()?;
            let archived = cur.bool()?;
            annotations.insert(
                id,
                Annotation {
                    id: AnnotationId(id),
                    body: XmlNode::parse_or_wrap(&raw),
                    raw,
                    created,
                    creator,
                    archived,
                },
            );
        }
        let scheme = match cur.u8()? {
            0 => {
                let n = cur.len()?;
                let mut cells = HashMap::with_capacity(n);
                for _ in 0..n {
                    let row = cur.u64()?;
                    let col = cur.u32()? as usize;
                    let k = cur.len()?;
                    let mut ids = Vec::with_capacity(k);
                    for _ in 0..k {
                        ids.push(AnnotationId(cur.u64()?));
                    }
                    cells.insert((row, col), ids);
                }
                Scheme::Cell(CellScheme { cells })
            }
            1 => {
                let n = cur.len()?;
                let mut s = RectScheme::default();
                for _ in 0..n {
                    let clo = cur.u32()? as usize;
                    let chi = cur.u32()? as usize;
                    let rlo = cur.u64()?;
                    let rhi = cur.u64()?;
                    let ann = AnnotationId(cur.u64()?);
                    let idx = s.rects.len();
                    s.rects.push((clo, chi, rlo, rhi, ann));
                    s.index.insert(
                        Rect::new([clo as f64, rlo as f64], [chi as f64, rhi as f64]),
                        idx as u64,
                    );
                }
                Scheme::Rect(s)
            }
            t => {
                return Err(bdbms_common::BdbmsError::corrupt(format!(
                    "unknown annotation scheme tag {t}"
                )))
            }
        };
        Ok(AnnotationSet {
            name,
            system_only,
            schema_enforced,
            annotations,
            scheme,
            next_id,
        })
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
            let b1 = set.add("Curated by user admin", "admin", 1, &[0, 1, 2], &[0, 1]);
            let b3 = set.add(
                "<Annotation>obtained from GenoBase</Annotation>",
                "admin",
                2,
                &[0, 1, 2, 3, 4],
                &[2],
            );
            let b5 = set.add(
                "This gene has an unknown function",
                "alice",
                3,
                &[0],
                &[0, 1, 2],
            );
            // cell lookups
            let on_00: Vec<_> = set.for_cell(0, 0).iter().map(|a| a.id).collect();
            assert!(on_00.contains(&b1) && on_00.contains(&b5));
            let on_42 = set.for_cell(4, 2);
            assert_eq!(on_42.len(), 1);
            assert_eq!(on_42[0].id, b3);
            assert!(set.for_cell(4, 0).is_empty());
            // xml body parsed
            assert_eq!(
                set.get(b3).unwrap().body.full_text(),
                "obtained from GenoBase"
            );
        }
    }

    #[test]
    fn rect_scheme_is_compact_for_column_annotations() {
        // Column annotation over 1000 rows: 1 rectangle vs 1000 cell records.
        let rows: Vec<u64> = (0..1000).collect();
        let mut rect = AnnotationSet::new("a", false);
        rect.add("B3", "u", 1, &rows, &[2]);
        let mut cell = AnnotationSet::new("a", true);
        cell.add("B3", "u", 1, &rows, &[2]);
        assert_eq!(rect.attachment_records(), 1);
        assert_eq!(cell.attachment_records(), 1000);
        assert!(rect.attachment_bytes() * 10 < cell.attachment_bytes());
    }

    #[test]
    fn scattered_rows_make_multiple_rectangles() {
        let mut set = AnnotationSet::new("a", false);
        set.add("x", "u", 1, &[0, 1, 5, 6, 9], &[0, 1, 2]);
        // 3 row runs × 1 col run = 3 rectangles
        assert_eq!(set.attachment_records(), 3);
        assert_eq!(set.for_cell(5, 1).len(), 1);
        assert!(set.for_cell(3, 1).is_empty());
    }

    #[test]
    fn archive_and_restore_with_time_window() {
        let mut set = AnnotationSet::new("a", false);
        let _a1 = set.add("old", "u", 5, &[0], &[0]);
        let _a2 = set.add("new", "u", 15, &[0], &[0]);
        assert_eq!(set.for_cell(0, 0).len(), 2);
        // archive only the old one
        let changed = set.set_archived(&[(0, 0)], Some((0, 10)), true);
        assert_eq!(changed.len(), 1);
        let live: Vec<_> = set.for_cell(0, 0).iter().map(|a| a.raw.clone()).collect();
        assert_eq!(live, vec!["new"]);
        // restore it
        let changed = set.set_archived(&[(0, 0)], None, false);
        assert_eq!(changed.len(), 1);
        assert_eq!(set.for_cell(0, 0).len(), 2);
    }

    #[test]
    fn archived_not_propagated_but_queryable() {
        let mut set = AnnotationSet::new("a", true);
        let id = set.add("B5", "u", 1, &[3], &[1]);
        set.set_archived(&[(3, 1)], None, true);
        assert!(set.for_cell(3, 1).is_empty(), "archived must not propagate");
        assert!(set.get(id).unwrap().archived);
        assert_eq!(set.ids_for_cell(3, 1), vec![id]);
    }

    #[test]
    fn rect_scan_ablation_agrees_with_rtree() {
        let mut set = AnnotationSet::new("a", false);
        for i in 0..50u64 {
            set.add("x", "u", 1, &[i, i + 1], &[(i % 3) as usize]);
        }
        let rs = set.rect_scheme().unwrap();
        for row in 0..52u64 {
            for col in 0..3usize {
                let mut a = rs.for_cell_scan(row, col);
                let mut b = set.ids_for_cell(row, col);
                a.sort_unstable();
                a.dedup();
                b.sort_unstable();
                assert_eq!(a, b, "cell ({row},{col})");
            }
        }
    }

    #[test]
    fn duplicate_attachment_ids_deduped() {
        let mut set = AnnotationSet::new("a", false);
        // Overlapping rectangles from one annotation (rows given twice).
        let id = set.add("x", "u", 1, &[0, 0, 1], &[0]);
        assert_eq!(set.ids_for_cell(0, 0), vec![id]);
    }
}
