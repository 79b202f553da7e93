//! The catalog: tables, their heaps, annotation sets, and outdated bitmaps.
//!
//! The curator's history lives in **hidden tables**, ordinary [`Table`]s
//! whose names contain `$`, which no SQL identifier can spell: for table
//! `T`, `T$$deleted` (the deletion log), `T$$approval` (the approval
//! log), and for each annotation set `S`, `T$S` and `T$S$rects` (see
//! `crate::annotation`).  They are created and dropped with their owner,
//! and [`Catalog::tables`] does not list them.
//!
//! The catalog's own state lives in hidden tables too, whose names start
//! with `$` and which no table owns: users, groups and grants
//! ([`AUTH_TABLE`]), approval configs and the operation-id floor
//! ([`APPROVAL_TABLE`]), and dependency rules ([`RULES_TABLE`]), each
//! keeping a [`CatalogView`] from its rows; and the definitions of every
//! user table, index, sequence index and annotation set
//! ([`SCHEMA_TABLE`], one [`Definition`] per row), which
//! `Database::define` puts into effect.

use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::rc::Rc;
use std::sync::Arc;

use bdbms_common::bitmap::CellBitmap;
use bdbms_common::{BdbmsError, DataType, Result, Schema, Value};
use bdbms_index::bptree::DEFAULT_FANOUT;
use bdbms_index::BPlusTree;
use bdbms_seq::{RleSeq, SbcTree, StringBTree};
use bdbms_storage::{BufferPool, HeapFile, Rid};

use crate::annotation::{Annotation, AnnotationSet, Rectangle, ARCHIVED};
use crate::ast::SeqIndexKind;
use crate::batch::BATCH_SIZE;
use crate::durability::WalRecord;
use crate::stats::TableStats;
use crate::txn::{SharedLog, UndoOp};

/// A secondary B+-tree index over one column, kept in sync by every
/// [`Table`] write path (plain DML, approval inverses, dependency
/// cascades — they all funnel through `insert_with_row_no` / `update` /
/// `delete`).
///
/// NULL values are not indexed: no SQL comparison is ever true against
/// NULL, so equality/range probes — the only lookups the executor issues —
/// can never need them.
pub struct TableIndex {
    /// Index name (unique per table, case-insensitive).
    pub name: String,
    /// Indexed column position.
    pub column: usize,
    tree: BPlusTree<Value, u64>,
}

impl TableIndex {
    fn new(name: impl Into<String>, column: usize) -> TableIndex {
        TableIndex {
            name: name.into(),
            column,
            tree: BPlusTree::new(),
        }
    }

    /// Replace the tree with a bottom-up load of every live row's
    /// non-NULL `(key, row_no)` pair, listed in ascending row order.  The
    /// stable sort keeps equal keys in row order — the order per-row
    /// `add`s in row order leave them in — so every probe answers as on
    /// an insert-grown tree.
    fn load(&mut self, mut entries: Vec<(Value, u64)>) {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        self.tree = BPlusTree::from_sorted(DEFAULT_FANOUT, entries);
    }

    fn add(&mut self, value: &Value, row_no: u64) {
        if !value.is_null() {
            self.tree.insert(value.clone(), row_no);
        }
    }

    fn remove(&mut self, value: &Value, row_no: u64) {
        if !value.is_null() {
            self.tree.delete(value, &row_no);
        }
    }

    /// Row numbers whose indexed value falls within the bounds, sorted
    /// ascending (scan order), deduplicated.
    ///
    /// The tree orders [`Value`]s by their *total* order, which coarsens
    /// SQL comparison on a few numeric edge cases (e.g. `i64` beyond
    /// 2^53 collapsing under the float interleave), so callers must
    /// re-check the originating predicate on the returned rows — the
    /// index is a candidate pruner, not an oracle.
    pub fn probe(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<u64> {
        let mut rows = Vec::new();
        self.tree
            .visit_bounds(lo, hi, |_, &row_no| rows.push(row_no));
        // an equality or narrow range probe over rows inserted in order
        // comes back strictly ascending already
        if !rows.windows(2).all(|w| w[0] < w[1]) {
            rows.sort_unstable();
            rows.dedup();
        }
        rows
    }

    /// Like [`probe`](Self::probe), but also returns each row's indexed
    /// key value, enabling *index-only* scans: when a query touches no
    /// column but the indexed one, the executor reconstructs the visible
    /// part of the tuple from the key and skips the heap fetch entirely.
    /// Same order contract as `probe` (ascending row number).
    pub fn probe_entries(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<(u64, Value)> {
        let mut rows: Vec<(u64, Value)> = self
            .tree
            .scan_bounds(lo, hi)
            .into_iter()
            .map(|(k, r)| (r, k))
            .collect();
        rows.sort_unstable_by_key(|&(row_no, _)| row_no);
        rows.dedup_by(|a, b| a.0 == b.0);
        rows
    }

    /// Visit every indexed key in tree order, by reference.  `CHECK`
    /// walks the leaf chain this way to count entries and verify key
    /// order; it is not a query path (use [`probe`](Self::probe) there).
    pub(crate) fn visit_keys(&self, mut visit: impl FnMut(&Value)) {
        self.tree
            .visit_bounds(Bound::Unbounded, Bound::Unbounded, |k, _| visit(k));
    }

    /// Number of indexed (non-NULL) entries.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }
}

/// The physical structure behind a sequence index: the paper's SBC-tree
/// (RLE-compressed suffixes, queried without decompression) or the plain
/// String B-tree baseline it is benchmarked against.
enum SeqBackend {
    Sbc(SbcTree),
    Suffix(StringBTree),
}

impl SeqBackend {
    fn new(kind: SeqIndexKind) -> SeqBackend {
        match kind {
            SeqIndexKind::Sbc => SeqBackend::Sbc(SbcTree::new()),
            SeqIndexKind::Suffix => SeqBackend::Suffix(StringBTree::new()),
        }
    }

    fn insert_text(&mut self, text: &[u8]) -> u32 {
        match self {
            SeqBackend::Sbc(t) => t.insert_sequence(text),
            SeqBackend::Suffix(t) => t.insert_text(text),
        }
    }

    /// The one way an index is filled from rows that already exist: a
    /// bottom-up load of every collected text, in the `order` an image
    /// stored for them, or without one a bulk build (one sort).  `None`
    /// when `order` is not a permutation of the texts' suffixes.
    fn fill(texts: SeqTexts, order: Option<&[u32]>) -> Option<SeqBackend> {
        Some(match (texts, order) {
            (SeqTexts::Sbc(texts), None) => SeqBackend::Sbc(SbcTree::build(texts)),
            (SeqTexts::Suffix(texts), None) => SeqBackend::Suffix(StringBTree::build(texts)),
            (SeqTexts::Sbc(texts), Some(order)) => {
                SeqBackend::Sbc(SbcTree::from_order(texts, order)?)
            }
            (SeqTexts::Suffix(texts), Some(order)) => {
                SeqBackend::Suffix(StringBTree::from_order(texts, order)?)
            }
        })
    }

    /// The tree order over the texts `kept`, numbered in that order
    /// (`SbcTree::order`).
    fn order(&self, kept: &[u32]) -> Vec<u32> {
        match self {
            SeqBackend::Sbc(t) => t.order(kept),
            SeqBackend::Suffix(t) => t.order(kept),
        }
    }

    /// Text ids containing `pattern` as a substring, ascending.
    fn matching_texts(&self, pattern: &[u8]) -> Vec<u32> {
        match self {
            SeqBackend::Sbc(t) => t.matching_texts(pattern),
            SeqBackend::Suffix(t) => {
                let mut ids: Vec<u32> = t
                    .substring_search(pattern)
                    .into_iter()
                    .map(|(text, _)| text)
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            }
        }
    }
}

/// Texts collected for [`SeqBackend::fill`], each already in the form
/// its backend stores (so a scan can hand them over chunk by chunk
/// without the raw column ever being resident as a whole).
enum SeqTexts {
    Sbc(Vec<RleSeq>),
    Suffix(Vec<Vec<u8>>),
}

impl SeqTexts {
    fn with_capacity(kind: SeqIndexKind, texts: usize) -> SeqTexts {
        match kind {
            SeqIndexKind::Sbc => SeqTexts::Sbc(Vec::with_capacity(texts)),
            SeqIndexKind::Suffix => SeqTexts::Suffix(Vec::with_capacity(texts)),
        }
    }

    fn push(&mut self, text: &[u8]) {
        match self {
            SeqTexts::Sbc(texts) => texts.push(RleSeq::encode(text)),
            SeqTexts::Suffix(texts) => texts.push(text.to_vec()),
        }
    }
}

/// A sequence index (`CREATE SEQUENCE INDEX … USING SBC|SUFFIX`) over one
/// TEXT column, answering `CONTAINS SEQ` probes from the suffix structure
/// instead of a full scan.
///
/// Neither backend supports deletion, so updates and deletes *tombstone*:
/// the row↔text maps drop their entries (making the stale text
/// unreachable from any probe result) while the suffix structure keeps
/// the dead text's nodes.
///
/// Unlike [`TableIndex`], the probe result is **exact**: both backends
/// verify every reported occurrence against the stored text, a text
/// belongs to at most one live row, NULLs are never entered, and the
/// empty pattern matches nothing — so [`probe`](Self::probe) returns
/// precisely the live rows on which `col CONTAINS SEQ '<pattern>'` is
/// true, and the planner lets the batch executor skip the re-check
/// (`Probe::SeqIndex`'s `answers`).
pub struct SeqIndex {
    /// Index name (unique per table across seq indexes, case-insensitive).
    pub name: String,
    /// Indexed column position (always a TEXT column).
    pub column: usize,
    /// Which backend structure this index uses.
    pub kind: SeqIndexKind,
    backend: SeqBackend,
    text_of_row: BTreeMap<u64, u32>,
    /// The live row of each text id ([`DEAD_TEXT`] once tombstoned); ids
    /// are dense and append-only, so the map is a plain vector.
    row_of_text: Vec<u64>,
    /// The order an image stored for this index, which its fill at open
    /// loads instead of sorting.
    stored_order: Option<Vec<u32>>,
}

/// `SeqIndex::row_of_text` entry of a tombstoned text (row numbers are
/// allocated from 0 upward and never reach it).
const DEAD_TEXT: u64 = u64::MAX;

impl SeqIndex {
    fn new(name: impl Into<String>, column: usize, kind: SeqIndexKind) -> SeqIndex {
        SeqIndex {
            name: name.into(),
            column,
            kind,
            backend: SeqBackend::new(kind),
            text_of_row: BTreeMap::new(),
            row_of_text: Vec::new(),
            stored_order: None,
        }
    }

    fn add(&mut self, value: &Value, row_no: u64) {
        if let Value::Text(s) = value {
            let id = self.backend.insert_text(s.as_bytes());
            debug_assert_eq!(id as usize, self.row_of_text.len(), "text ids are dense");
            self.text_of_row.insert(row_no, id);
            self.row_of_text.push(row_no);
        }
    }

    fn remove(&mut self, row_no: u64) {
        if let Some(id) = self.text_of_row.remove(&row_no) {
            self.row_of_text[id as usize] = DEAD_TEXT;
        }
    }

    /// Fill the (empty) index with `texts`, the `i`-th of which belongs
    /// to row `rows[i]` (ascending), from its stored order if it has one.
    fn load(&mut self, rows: Vec<u64>, texts: SeqTexts) -> Result<()> {
        debug_assert!(self.is_empty());
        let order = self.stored_order.take();
        self.backend = SeqBackend::fill(texts, order.as_deref()).ok_or_else(|| {
            BdbmsError::corrupt(format!(
                "the stored order of sequence index `{}` is not a permutation \
                 of its {} text(s)' suffixes",
                self.name,
                rows.len()
            ))
        })?;
        self.text_of_row = rows.iter().copied().zip(0u32..).collect();
        self.row_of_text = rows;
        Ok(())
    }

    /// The index's order as a checkpoint stores it: over the live texts,
    /// numbered by row, so that an open — which numbers the texts it
    /// rebuilds from the heap by row — can load it as it stands.
    pub(crate) fn order(&self) -> Vec<u32> {
        let kept: Vec<u32> = self.text_of_row.values().copied().collect();
        self.backend.order(&kept)
    }

    /// Whether row `row_no`'s indexed text is `text` (`CHECK`).
    pub(crate) fn holds(&self, row_no: u64, text: &str) -> bool {
        let Some(&id) = self.text_of_row.get(&row_no) else {
            return false;
        };
        match &self.backend {
            SeqBackend::Sbc(t) => *t.text(id) == RleSeq::encode(text.as_bytes()),
            SeqBackend::Suffix(t) => t.text(id) == text.as_bytes(),
        }
    }

    /// The suffix entries, tombstoned texts' included, and whether they
    /// ascend strictly in the backend's tree order (`CHECK`).
    pub(crate) fn verify_order(&self) -> (usize, bool) {
        match &self.backend {
            SeqBackend::Sbc(t) => (t.num_suffixes(), t.is_ordered()),
            SeqBackend::Suffix(t) => (t.num_suffixes(), t.is_ordered()),
        }
    }

    /// Exactly the live rows whose sequence contains `pattern`, sorted
    /// ascending (scan order).  An empty pattern matches nothing,
    /// mirroring the `CONTAINS SEQ ''` evaluation rule.
    pub fn probe(&self, pattern: &str) -> Vec<u64> {
        if pattern.is_empty() {
            return Vec::new();
        }
        let mut rows: Vec<u64> = self
            .backend
            .matching_texts(pattern.as_bytes())
            .into_iter()
            .map(|id| self.row_of_text[id as usize])
            .filter(|&row_no| row_no != DEAD_TEXT)
            .collect();
        // text ids ascend with row numbers until a row is re-indexed
        // (UPDATE, or an undo restoring a deleted row)
        if !rows.is_sorted() {
            rows.sort_unstable();
        }
        rows
    }

    /// Number of live (non-tombstoned) indexed rows.
    pub fn len(&self) -> usize {
        self.text_of_row.len()
    }

    /// True when no live rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.text_of_row.is_empty()
    }
}

/// A row preserved in the deletion log (§3.2: *"the deleted tuples will be
/// stored in separate log tables along with the annotation that specifies
/// why these tuples have been deleted"*).
#[derive(Debug, Clone)]
pub struct DeletedRow {
    /// The row number the tuple had while alive.
    pub row_no: u64,
    /// The tuple values at deletion time.
    pub values: Vec<Value>,
    /// The "why deleted" annotation, if the deletion was issued through
    /// `ADD ANNOTATION … ON (DELETE …)`.
    pub annotation: Option<String>,
    /// Deletion timestamp.
    pub time: u64,
    /// Who deleted it.
    pub user: String,
}

/// Columns `T$$deleted` puts before `T`'s own: the row number, why,
/// when and by whom.
const DELETED_FIXED: usize = 4;

impl DeletedRow {
    /// The columns of `table`'s deletion log.
    pub(crate) fn schema(table: &Schema) -> Schema {
        let fixed = [
            ("$row", DataType::Int),
            ("$why", DataType::Text),
            ("$time", DataType::Timestamp),
            ("$user", DataType::Text),
        ];
        history_schema(&fixed, table)
    }

    /// This entry as a row of the deletion log.
    pub(crate) fn into_row(self) -> Vec<Value> {
        let mut row = vec![
            Value::Int(self.row_no as i64),
            self.annotation.map_or(Value::Null, Value::Text),
            Value::Timestamp(self.time),
            Value::Text(self.user),
        ];
        row.extend(self.values);
        row
    }

    /// Decode a deletion-log row.
    pub(crate) fn from_row(mut row: Vec<Value>) -> Result<DeletedRow> {
        let values = row.split_off(DELETED_FIXED.min(row.len()));
        match <[Value; DELETED_FIXED]>::try_from(row) {
            Ok([Value::Int(row_no), why, Value::Timestamp(time), Value::Text(user)]) => {
                Ok(DeletedRow {
                    row_no: row_no as u64,
                    values,
                    annotation: match why {
                        Value::Text(s) => Some(s),
                        _ => None,
                    },
                    time,
                    user,
                })
            }
            _ => Err(BdbmsError::corrupt("malformed deletion-log row")),
        }
    }
}

/// `fixed` columns followed by every column of `table` (names with `$`
/// cannot clash with a user column's).
pub(crate) fn history_schema(fixed: &[(&str, DataType)], table: &Schema) -> Schema {
    let fixed = fixed
        .iter()
        .map(|&(n, t)| bdbms_common::ColumnDef::new(n, t));
    Schema::new(fixed.chain(table.columns().iter().cloned()).collect())
        .expect("user column names contain no `$`")
}

/// The deletion log of `table`.
pub(crate) fn deleted_table(table: &str) -> String {
    format!("{table}$$deleted")
}

/// The approval log of `table`.
pub(crate) fn approval_table(table: &str) -> String {
    format!("{table}$$approval")
}

/// The owner of an approval log, if `name` is one.
pub(crate) fn approval_log_owner(name: &str) -> Option<&str> {
    name.strip_suffix("$$approval")
}

/// The record table of annotation set `set` on `table`.
pub(crate) fn records_table(table: &str, set: &str) -> String {
    format!("{table}${set}")
}

/// The rectangle table of annotation set `set` on `table`.
pub(crate) fn rects_table(table: &str, set: &str) -> String {
    format!("{table}${set}$rects")
}

/// The user table that owns hidden history table `name` (`None` for a
/// user table's own name, `""` for a catalog table, which none owns).
pub fn owner_of(name: &str) -> Option<&str> {
    name.split_once('$').map(|(owner, _)| owner)
}

/// An annotation set, shared by its two hidden tables, whose row writes
/// keep it current.
pub(crate) type SharedSet = Rc<RefCell<AnnotationSet>>;

/// Users, group memberships and grants (`crate::auth`).
pub(crate) const AUTH_TABLE: &str = "$auth";
/// Approval configs and the operation-id floor (`crate::approval`).
pub(crate) const APPROVAL_TABLE: &str = "$approval";
/// Dependency rules, one per row, numbered by rule id
/// (`crate::dependency`): the table's row allocator hands out the ids.
pub(crate) const RULES_TABLE: &str = "$rules";

/// Table, index, sequence-index and annotation-set definitions, one
/// [`Definition`] per row.
pub(crate) const SCHEMA_TABLE: &str = "$schema";

/// The user table a row of `$auth`, `$approval` or `$schema` is about
/// (column 0; `""` for a row about none).
pub(crate) fn on_table(row: &[Value]) -> &str {
    row[0].as_text().unwrap_or("")
}

/// One row of `$schema`.  Every kind of definition has one row shape
/// ([`schema`](Self::schema)): the table it is on, its kind and its
/// name, then the columns its [`Kind`] uses, NULL elsewhere.
pub(crate) struct Definition {
    /// The user table it is on (a table's own name).
    pub table: String,
    /// The table's, index's or set's name.
    pub name: String,
    pub kind: Kind,
}

/// What a [`Definition`] defines, with what its row holds besides names.
pub(crate) enum Kind {
    /// `TABLE`, with its deletion and approval logs: the owner, and the
    /// columns as `name TYPE, …` text.
    Table { owner: String, schema: Schema },
    /// `INDEX` (a B+-tree) or `SEQUENCE INDEX` (`SBC` / `SUFFIX`) on a
    /// column.
    Index {
        column: String,
        seq: Option<SeqIndexKind>,
    },
    /// `ANNOTATION TABLE`, with its record and rectangle tables: the
    /// `CELL` / `RECTANGLE` scheme and two flags.
    Set {
        cell_scheme: bool,
        system_only: bool,
        schema_enforced: bool,
    },
}

impl Definition {
    /// The columns of `$schema`.
    pub(crate) fn schema() -> Schema {
        use DataType::{Bool, Text};
        Schema::of(&[
            ("on_table", Text),
            ("kind", Text),
            ("name", Text),
            ("owner", Text),
            ("columns", Text),
            ("variant", Text),
            ("system_only", Bool),
            ("schema_enforced", Bool),
        ])
    }

    /// This definition as a `$schema` row.
    pub(crate) fn to_row(&self) -> Vec<Value> {
        let text = |s: &str| Value::Text(s.to_string());
        let mut row = vec![Value::Null; 8];
        row[0] = text(&self.table);
        row[2] = text(&self.name);
        match &self.kind {
            Kind::Table { owner, schema } => {
                let columns: Vec<String> = (schema.columns().iter())
                    .map(|c| format!("{} {}", c.name, c.ty))
                    .collect();
                row[1] = text("TABLE");
                row[3] = text(owner);
                row[4] = text(&columns.join(", "));
            }
            Kind::Index { column, seq } => {
                row[1] = text(if seq.is_some() {
                    "SEQUENCE INDEX"
                } else {
                    "INDEX"
                });
                row[4] = text(column);
                row[5] = seq.map_or(Value::Null, |k| text(k.as_str()));
            }
            Kind::Set {
                cell_scheme,
                system_only,
                schema_enforced,
            } => {
                row[1] = text("ANNOTATION TABLE");
                row[5] = text(if *cell_scheme { "CELL" } else { "RECTANGLE" });
                row[6] = Value::Bool(*system_only);
                row[7] = Value::Bool(*schema_enforced);
            }
        }
        row
    }

    /// Decode a `$schema` row.
    pub(crate) fn from_row(row: &[Value]) -> Result<Definition> {
        let malformed = || BdbmsError::corrupt(format!("malformed `$schema` row {row:?}"));
        let text = |col: usize| row.get(col).and_then(Value::as_text).ok_or_else(malformed);
        let flag = |col: usize| match row.get(col) {
            Some(&Value::Bool(b)) => Ok(b),
            _ => Err(malformed()),
        };
        let index = |seq| -> Result<Kind> {
            let column = text(4)?.to_string();
            Ok(Kind::Index { column, seq })
        };
        let (table, name) = (text(0)?.to_string(), text(2)?.to_string());
        let kind = match (text(1)?, text(5)) {
            ("TABLE", _) if table == name => Kind::Table {
                owner: text(3)?.to_string(),
                schema: parse_columns(text(4)?).ok_or_else(malformed)?,
            },
            ("INDEX", _) => index(None)?,
            ("SEQUENCE INDEX", Ok("SBC")) => index(Some(SeqIndexKind::Sbc))?,
            ("SEQUENCE INDEX", Ok("SUFFIX")) => index(Some(SeqIndexKind::Suffix))?,
            ("ANNOTATION TABLE", Ok(scheme @ ("CELL" | "RECTANGLE"))) => Kind::Set {
                cell_scheme: scheme == "CELL",
                system_only: flag(6)?,
                schema_enforced: flag(7)?,
            },
            _ => return Err(malformed()),
        };
        Ok(Definition { table, name, kind })
    }
}

/// A table's `name TYPE, …` column list back as its schema (identifiers
/// hold no space or comma, so the text splits cleanly).
fn parse_columns(text: &str) -> Option<Schema> {
    let columns = text.split(", ").map(|c| {
        let (name, ty) = c.split_once(' ')?;
        Some(bdbms_common::ColumnDef::new(
            name,
            DataType::parse(ty).ok()?,
        ))
    });
    Schema::new(columns.collect::<Option<_>>()?).ok()
}

/// The in-memory form of a catalog table (`AuthManager`,
/// `ApprovalManager`, `DependencyManager`): a pure function of the
/// table's rows, which the hot reads consult instead of the heap.
pub(crate) trait CatalogView {
    /// Fold row `row_no` into the view (`added`), or take it out.
    fn apply(&mut self, row_no: u64, row: &[Value], added: bool);
}

/// A catalog view, shared by its table and the `Database`.
pub(crate) type SharedView = Rc<RefCell<dyn CatalogView>>;

/// The in-memory state a hidden table derives from its rows.  The
/// table's row write path — the one that keeps its B+-trees — keeps it
/// too, so live writes, rollback and replay agree with no code of their
/// own, and the open pass rebuilds it with the indexes.
pub(crate) enum History {
    /// `T$S`: the set itself — its definition, and the archived flag of
    /// each annotation.
    Records(SharedSet),
    /// `T$S$rects`: the attachment index.
    Rects(SharedSet),
    /// A catalog table: its view.
    Catalog(SharedView),
}

impl History {
    /// The histories of a new set's record and rectangle tables, which
    /// share the set.
    pub(crate) fn of_set(set: AnnotationSet) -> [History; 2] {
        let set = Rc::new(RefCell::new(set));
        [History::Records(set.clone()), History::Rects(set)]
    }

    fn row_added(&mut self, row_no: u64, row: &[Value]) {
        match self {
            History::Records(set) => {
                let archived = row[ARCHIVED] == Value::Bool(true);
                set.borrow_mut().record_written(row_no, Some(archived));
            }
            History::Rects(set) => {
                if let Some(r) = Rectangle::from_row(row) {
                    set.borrow_mut().attach(&r);
                }
            }
            History::Catalog(view) => view.borrow_mut().apply(row_no, row, true),
        }
    }

    fn row_removed(&mut self, row_no: u64, row: &[Value]) {
        match self {
            History::Records(set) => set.borrow_mut().record_written(row_no, None),
            History::Rects(set) => {
                if let Some(r) = Rectangle::from_row(row) {
                    set.borrow_mut().detach(&r);
                }
            }
            History::Catalog(view) => view.borrow_mut().apply(row_no, row, false),
        }
    }
}

/// One annotation set as queries read it: the in-memory index, and the
/// record table the bodies are fetched from.
#[derive(Clone, Copy)]
pub struct SetRef<'a> {
    set: &'a RefCell<AnnotationSet>,
    records: &'a Table,
}

impl<'a> SetRef<'a> {
    /// The derived index (attachments and archived flags).
    pub fn index(&self) -> Ref<'a, AnnotationSet> {
        self.set.borrow()
    }

    /// Fetch one annotation record through the buffer pool.
    pub fn get(&self, id: bdbms_common::ids::AnnotationId) -> Result<Annotation> {
        Annotation::from_row(id.raw(), self.records.get(id.raw())?)
    }

    /// Every annotation record, in id order.
    pub fn annotations(&self) -> Result<Vec<Annotation>> {
        self.records
            .iter_rows()
            .map(|r| r.and_then(|(id, row)| Annotation::from_row(id, row)))
            .collect()
    }
}

/// What a scan decodes of each record it visits and which rows it keeps
/// ([`Table::scan_chunk`], [`Table::fetch_rows`]): the `keep` columns
/// (source-local, ascending; `None` = all) are decoded first and shown to
/// `survives`; only a row it accepts is kept, and its `late` columns are
/// then decoded from the same record, under the same page pin.
pub(crate) struct Sieve<'s, F: FnMut(&[Value]) -> Result<bool>> {
    pub keep: Option<&'s [usize]>,
    pub survives: F,
    pub late: &'s [usize],
}

/// A table's physical parts, as the image keeps them: its heap, row
/// map, row allocator and outdated bitmap from the metadata record, and
/// from its sections the stored order of each of its sequence indexes,
/// by index name, and its stored planner statistics.
pub(crate) struct TableParts {
    pub heap: HeapFile,
    pub rows: BTreeMap<u64, Rid>,
    pub next_row: u64,
    pub outdated: CellBitmap,
    pub orders: Vec<(String, Vec<u32>)>,
    pub stats: Option<TableStats>,
}

/// What a [`Table::derive`] pass reads of each record besides the
/// columns it decodes for the indexes and the history.
enum Walk<'s> {
    /// Nothing past the last such column.
    Keys,
    /// Every column, each checked to decode as [`Value::decode`] would.
    Check,
    /// Every column, each observed into these (fresh) statistics.
    Stats(&'s mut TableStats),
}

/// One user table.
pub struct Table {
    /// Case-preserved name.
    pub name: String,
    /// Relation schema.
    pub schema: Schema,
    /// Owner (may GRANT, start approval, drop).
    pub owner: String,
    heap: HeapFile,
    rows: BTreeMap<u64, Rid>,
    next_row: u64,
    /// Outdated-cell bitmap (§5, Figure 10), indexed `[row_no][col]`.
    pub outdated: CellBitmap,
    /// What a hidden history table derives from its rows.
    history: Option<History>,
    /// Secondary indexes (`CREATE INDEX … ON …`).
    indexes: Vec<TableIndex>,
    /// Sequence indexes (`CREATE SEQUENCE INDEX … ON …`).
    seq_indexes: Vec<SeqIndex>,
    /// Planner statistics, maintained incrementally by every write path
    /// and rebuilt exactly by `ANALYZE`.
    stats: TableStats,
    /// The database's transaction log: every logical mutation of this
    /// table records its redo [`WalRecord`] and its inverse here (see
    /// `crate::txn`).  A detached table's own log records nothing.
    log: SharedLog,
}

impl Table {
    /// Create an empty table on the shared buffer pool.
    pub fn create(
        name: impl Into<String>,
        schema: Schema,
        owner: impl Into<String>,
        pool: Arc<BufferPool>,
    ) -> Result<Table> {
        let (name, arity) = (name.into(), schema.arity());
        Ok(Table {
            stats: Self::fresh_stats(&name, arity),
            name,
            schema,
            owner: owner.into(),
            heap: HeapFile::create(pool)?,
            rows: BTreeMap::new(),
            next_row: 0,
            outdated: CellBitmap::new(0, arity),
            history: None,
            indexes: Vec::new(),
            seq_indexes: Vec::new(),
            log: SharedLog::default(),
        })
    }

    /// Empty planner statistics for table `name`.  A hidden history
    /// table keeps none: no SQL can name it, so no query plans over it,
    /// and its writes and first-touch snapshots pay for no upkeep.
    fn fresh_stats(name: &str, arity: usize) -> TableStats {
        TableStats::new(if owner_of(name).is_some() { 0 } else { arity })
    }

    /// A hidden history table keeping `history` from its rows.
    pub(crate) fn with_history(mut self, history: Option<History>) -> Table {
        self.history = history;
        self
    }

    /// Rebuild a table from its persisted parts (database open).  The
    /// heap is already attached to the live buffer pool; the indexes —
    /// each named with its column and, for a sequence index, its kind,
    /// as `$schema` holds them — and a hidden table's `history` are
    /// rebuilt from the heap in one pass, which also checks that every
    /// column of every live row decodes.  A sequence index with a stored
    /// order in `parts` is loaded in that order, without a sort; an order
    /// no sequence index claims is corrupt.  A user table takes the
    /// statistics stored in `parts`, or has them computed in the pass if
    /// there are none; stored statistics that do not fit the table are
    /// corrupt.
    pub(crate) fn from_parts(
        name: String,
        schema: Schema,
        owner: String,
        parts: TableParts,
        mut history: Option<History>,
        index_defs: &[(String, String, Option<SeqIndexKind>)],
    ) -> Result<Table> {
        let arity = schema.arity();
        let (mut indexes, mut seq_indexes) = (Vec::new(), Vec::new());
        let mut orders = parts.orders;
        for (index, col, seq) in index_defs {
            let col = schema.index_of(col).ok_or_else(|| {
                BdbmsError::corrupt(format!("index `{index}` names no column `{col}`"))
            })?;
            let Some(kind) = seq else {
                indexes.push(TableIndex::new(index, col));
                continue;
            };
            let mut sidx = SeqIndex::new(index, col, *kind);
            if let Some(at) = orders
                .iter()
                .position(|(n, _)| n.eq_ignore_ascii_case(index))
            {
                sidx.stored_order = Some(orders.swap_remove(at).1);
            }
            seq_indexes.push(sidx);
        }
        if let Some((index, _)) = orders.first() {
            return Err(BdbmsError::corrupt(format!(
                "a stored order for no sequence index `{index}` on `{name}`"
            )));
        }
        // a hidden table keeps no statistics, and a user table without
        // stored ones has them computed in the pass, which otherwise only
        // checks that every value decodes
        let keeps = Self::fresh_stats(&name, arity).arity();
        let (stored, mut computed) = match parts.stats {
            Some(s) if s.arity() != keeps => {
                return Err(BdbmsError::corrupt(format!(
                    "stored statistics of {} column(s) for `{name}`, which keeps {keeps}",
                    s.arity()
                )))
            }
            Some(s) => (s, None),
            None => (
                TableStats::new(keeps),
                (keeps > 0).then(|| TableStats::new(keeps)),
            ),
        };
        let mut t = Table {
            stats: stored,
            name,
            schema,
            owner,
            heap: parts.heap,
            rows: parts.rows,
            next_row: parts.next_row,
            outdated: parts.outdated,
            history: None,
            indexes: Vec::new(),
            seq_indexes: Vec::new(),
            log: SharedLog::default(),
        };
        let walk = computed.as_mut().map_or(Walk::Check, Walk::Stats);
        t.derive(walk, &mut indexes, &mut seq_indexes, history.as_mut(), 0)?;
        if let Some(stats) = computed {
            t.stats = stats;
        }
        t.indexes = indexes;
        t.seq_indexes = seq_indexes;
        t.history = history;
        Ok(t)
    }

    /// Attach the database's transaction log.
    pub(crate) fn attach_log(&mut self, log: SharedLog) {
        self.log = log;
    }

    /// Log a change whose inverse is itself a record, replayed on
    /// rollback; each is built, from this table's name, only if needed.
    fn record(
        &self,
        redo: impl FnOnce(String) -> WalRecord,
        undo: impl FnOnce(String) -> WalRecord,
    ) {
        self.log.borrow_mut().record(
            || redo(self.name.clone()),
            || UndoOp::Replay(undo(self.name.clone())),
        );
    }

    /// Copy every live row's record bytes, in row-number order, into a
    /// fresh heap on `pool` (checkpoint), returning the new heap and rid
    /// map.  Records move undecoded, one page pin per run of same-page
    /// rows, a chunk of rows at a time (whole-table rid lists made the
    /// checkpoint's peak memory spike).
    pub(crate) fn write_rows_to(
        &self,
        pool: Arc<BufferPool>,
    ) -> Result<(HeapFile, BTreeMap<u64, Rid>)> {
        let mut heap = HeapFile::create(pool)?;
        let mut rows = Vec::with_capacity(self.rows.len());
        let mut live = self.rows.iter().peekable();
        while live.peek().is_some() {
            let (nos, rids): (Vec<u64>, Vec<Rid>) = live.by_ref().take(BATCH_SIZE).unzip();
            self.heap.with_records(&rids, |k, rec| {
                rows.push((nos[k], heap.insert(rec)?));
                Ok(())
            })?;
        }
        // ascending row numbers: the map is built in one step
        Ok((heap, rows.into_iter().collect()))
    }

    /// Adopt a freshly written heap + rid map (the checkpoint just moved
    /// this table's rows onto a new page file).
    pub(crate) fn swap_storage(&mut self, heap: HeapFile, rows: BTreeMap<u64, Rid>) {
        debug_assert_eq!(rows.len(), self.rows.len());
        self.heap = heap;
        self.rows = rows;
    }

    fn encode_row(row_no: u64, values: &[Value]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + values.len() * 8);
        buf.extend_from_slice(&row_no.to_le_bytes());
        for v in values {
            v.encode(&mut buf);
        }
        buf
    }

    /// Decode one record into `out`, the row's `arity` slots, and return
    /// its row number.  With `keep` (ascending) only those slots are
    /// written and every other one is left as it is, its encoding merely
    /// skipped — TEXT payloads are never copied or validated — and once
    /// `keep` is exhausted the rest of the record is not even walked.  On
    /// error `out` may hold part of the row.
    fn decode_row_into(buf: &[u8], keep: Option<&[usize]>, out: &mut [Value]) -> Result<u64> {
        let row_no = Self::record_row_no(buf)?;
        let mut pos = 8;
        let Some(keep) = keep else {
            for slot in out {
                *slot = Value::decode(buf, &mut pos)?;
            }
            return Ok(row_no);
        };
        let mut col = 0;
        for &k in keep {
            for _ in col..k {
                Value::skip(buf, &mut pos)?;
            }
            out[k] = Value::decode(buf, &mut pos)?;
            col = k + 1;
        }
        Ok(row_no)
    }

    /// The row number a record starts with; its values follow at byte 8.
    fn record_row_no(buf: &[u8]) -> Result<u64> {
        match buf.get(..8) {
            Some(no) => Ok(u64::from_le_bytes(no.try_into().expect("8 bytes"))),
            None => Err(BdbmsError::storage("row record too short")),
        }
    }

    /// Insert a row (validated/coerced against the schema); returns its
    /// stable row number.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<u64> {
        self.insert_with_row_no(self.next_row, values)
    }

    /// Insert preserving a specific row number (used by disapproval
    /// inverses restoring deleted rows).
    pub fn insert_with_row_no(&mut self, row_no: u64, values: Vec<Value>) -> Result<u64> {
        if self.rows.contains_key(&row_no) {
            return Err(BdbmsError::invalid(format!(
                "row {row_no} already exists in {}",
                self.name
            )));
        }
        let values = self.schema.check_row(values)?;
        let rid = self.heap.insert(&Self::encode_row(row_no, &values))?;
        self.rows.insert(row_no, rid);
        self.next_row = self.next_row.max(row_no + 1);
        if self.outdated.rows() <= row_no as usize {
            self.outdated.grow_rows(row_no as usize + 1);
        }
        for idx in &mut self.indexes {
            idx.add(&values[idx.column], row_no);
        }
        for sidx in &mut self.seq_indexes {
            sidx.add(&values[sidx.column], row_no);
        }
        if let Some(h) = &mut self.history {
            h.row_added(row_no, &values);
        }
        self.stats.observe_row(&values);
        self.record(
            |table| WalRecord::RowInsert {
                table,
                row_no,
                values: values.clone(),
            },
            |table| WalRecord::RowDelete { table, row_no },
        );
        Ok(row_no)
    }

    /// Fetch a row by number.
    pub fn get(&self, row_no: u64) -> Result<Vec<Value>> {
        let rid = *self
            .rows
            .get(&row_no)
            .ok_or_else(|| BdbmsError::not_found(format!("row {row_no} in {}", self.name)))?;
        let buf = self.heap.get(rid)?;
        let no = Self::record_row_no(&buf)?;
        debug_assert_eq!(no, row_no);
        let (arity, mut pos) = (self.schema.arity(), 8);
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(Value::decode(&buf, &mut pos)?);
        }
        Ok(values)
    }

    /// Overwrite a row in place.
    pub fn update(&mut self, row_no: u64, values: Vec<Value>) -> Result<()> {
        // index and stats maintenance both need the old values
        let old = self.get(row_no)?;
        self.update_inner(row_no, &old, values)
    }

    /// Overwrite a row whose current values the caller already holds
    /// (UPDATE's row-selection pass materializes them), saving the heap
    /// re-read that index maintenance would otherwise need.
    pub fn update_with_old(
        &mut self,
        row_no: u64,
        old: &[Value],
        values: Vec<Value>,
    ) -> Result<()> {
        self.update_inner(row_no, old, values)
    }

    fn update_inner(&mut self, row_no: u64, old: &[Value], values: Vec<Value>) -> Result<()> {
        let values = self.schema.check_row(values)?;
        let rid = *self
            .rows
            .get(&row_no)
            .ok_or_else(|| BdbmsError::not_found(format!("row {row_no} in {}", self.name)))?;
        let new_rid = self.heap.update(rid, &Self::encode_row(row_no, &values))?;
        self.rows.insert(row_no, new_rid);
        for idx in &mut self.indexes {
            if old[idx.column] != values[idx.column] {
                idx.remove(&old[idx.column], row_no);
                idx.add(&values[idx.column], row_no);
            }
        }
        for sidx in &mut self.seq_indexes {
            if old[sidx.column] != values[sidx.column] {
                sidx.remove(row_no);
                sidx.add(&values[sidx.column], row_no);
            }
        }
        if let Some(h) = &mut self.history {
            h.row_removed(row_no, old);
            h.row_added(row_no, &values);
        }
        for (col, (o, n)) in old.iter().zip(&values).enumerate() {
            if o != n {
                self.stats.update_cell(col, o, n);
            }
        }
        self.record(
            |table| WalRecord::RowUpdate {
                table,
                row_no,
                values: values.clone(),
            },
            |table| WalRecord::RowUpdate {
                table,
                row_no,
                values: old.to_vec(),
            },
        );
        Ok(())
    }

    /// Delete a row; returns its last values.
    pub fn delete(&mut self, row_no: u64) -> Result<Vec<Value>> {
        let values = self.get(row_no)?;
        let rid = self.rows.remove(&row_no).expect("checked by get");
        self.heap.delete(rid)?;
        // clear outdated bits of the dead row; rollback re-marks each
        // (after the row's re-insert, which leaves bits alone)
        for c in 0..self.schema.arity() {
            if self.outdated.get(row_no as usize, c) {
                self.outdated.clear(row_no as usize, c);
                self.log.borrow_mut().record_undo(|| {
                    UndoOp::Replay(cell_record(self.name.clone(), row_no, c, true))
                });
            }
        }
        for idx in &mut self.indexes {
            idx.remove(&values[idx.column], row_no);
        }
        for sidx in &mut self.seq_indexes {
            sidx.remove(row_no);
        }
        if let Some(h) = &mut self.history {
            h.row_removed(row_no, &values);
        }
        self.stats.retire_row(&values);
        self.record(
            |table| WalRecord::RowDelete { table, row_no },
            |table| WalRecord::RowInsert {
                table,
                row_no,
                values: values.clone(),
            },
        );
        Ok(values)
    }

    /// All `(row_no, values)` pairs in row-number order, fetched from the
    /// heap one at a time as the iterator is advanced, so a consumer that
    /// stops early or filters cheaply never materializes the whole table.
    pub fn iter_rows(&self) -> impl Iterator<Item = Result<(u64, Vec<Value>)>> + '_ {
        self.rows
            .keys()
            .map(move |&no| self.get(no).map(|v| (no, v)))
    }

    /// Vectorized scan step for the batch executor: visit up to `want`
    /// rows with row numbers `>= from` and append each row the `sieve`
    /// keeps — its number to `row_nos`, its `arity` values to the
    /// row-major arena `values` — materializing only the sieve's columns.
    /// Skipped slots are filled with NULL — the caller's plan must prove
    /// them unread, the same contract index-only scans rely on.  Records
    /// are decoded in place in the buffer pool, one page pin per run of
    /// same-page rows (no per-row record copy, pool lock, LRU bookkeeping
    /// or allocation beyond the TEXT payloads).  Returns the row number
    /// to resume from, or `None` when the table is exhausted.  On error
    /// `row_nos` lists the rows kept before the failure; `values` may end
    /// in part of the failing one.
    pub(crate) fn scan_chunk(
        &self,
        from: u64,
        want: usize,
        sieve: Sieve<'_, impl FnMut(&[Value]) -> Result<bool>>,
        row_nos: &mut Vec<u64>,
        values: &mut Vec<Value>,
    ) -> Result<Option<u64>> {
        let mut nos: Vec<u64> = Vec::with_capacity(want);
        let mut rids: Vec<Rid> = Vec::with_capacity(want);
        let mut resume = None;
        for (&no, &rid) in self.rows.range(from..) {
            if nos.len() == want {
                resume = Some(no);
                break;
            }
            nos.push(no);
            rids.push(rid);
        }
        self.decode_records(&nos, &rids, sieve, row_nos, values)?;
        Ok(resume)
    }

    /// The fetch primitive of index and sequence-index probes: visit the
    /// rows numbered `nos` (ascending, as every probe returns them), in
    /// list order, into the same arenas and with the same decode path and
    /// `sieve` contract as [`scan_chunk`](Self::scan_chunk) — so a
    /// candidate list costs one page pin per run of same-page rows
    /// instead of a pool lock, a record copy and a full decode per row.
    /// The row map is walked by successor: a candidate that directly
    /// follows the previous one is an iterator step, and only a gap costs
    /// a fresh descent.  A row number that is not live is `NotFound` (an
    /// index out of step with the heap) and nothing is decoded; on a
    /// later error, the rows kept before the failure remain.
    pub(crate) fn fetch_rows(
        &self,
        nos: &[u64],
        sieve: Sieve<'_, impl FnMut(&[Value]) -> Result<bool>>,
        row_nos: &mut Vec<u64>,
        values: &mut Vec<Value>,
    ) -> Result<()> {
        let mut rids: Vec<Rid> = Vec::with_capacity(nos.len());
        let mut successors = self.rows.range(nos.first().copied().unwrap_or(0)..);
        for &no in nos {
            let mut entry = successors.next();
            if entry.map(|(&k, _)| k) != Some(no) {
                successors = self.rows.range(no..);
                entry = successors.next().filter(|(&k, _)| k == no);
            }
            match entry {
                Some((_, &rid)) => rids.push(rid),
                None => return Err(BdbmsError::not_found(format!("row {no} in {}", self.name))),
            }
        }
        self.decode_records(nos, &rids, sieve, row_nos, values)
    }

    /// Decode the records at `rids` (row `nos[k]` lives at `rids[k]`)
    /// through `sieve`, appending the rows it keeps to the `(row_nos,
    /// values)` arenas.
    fn decode_records(
        &self,
        nos: &[u64],
        rids: &[Rid],
        mut sieve: Sieve<'_, impl FnMut(&[Value]) -> Result<bool>>,
        row_nos: &mut Vec<u64>,
        values: &mut Vec<Value>,
    ) -> Result<()> {
        let arity = self.schema.arity();
        row_nos.reserve(rids.len());
        values.reserve(rids.len() * arity);
        self.heap.with_records(rids, |k, buf| {
            let start = values.len();
            values.resize(start + arity, Value::Null);
            let decoded_no = Self::decode_row_into(buf, sieve.keep, &mut values[start..])?;
            debug_assert_eq!(decoded_no, nos[k]);
            if !(sieve.survives)(&values[start..])? {
                values.truncate(start);
                return Ok(());
            }
            if !sieve.late.is_empty() {
                Self::decode_row_into(buf, Some(sieve.late), &mut values[start..])?;
            }
            row_nos.push(nos[k]);
            Ok(())
        })
    }

    /// The one heap pass behind open, `COPY`, `CREATE [SEQUENCE] INDEX`
    /// and `ANALYZE`: a chunked in-pool walk over the record bytes that
    /// fills whatever derived state the caller hands it —
    ///
    /// * `walk`: how much of each record is read besides the decoded
    ///   columns — with [`Walk::Check`] or [`Walk::Stats`] every value of
    ///   every live row is checked to decode, and with the latter exact
    ///   statistics are observed from every column's stored encoding;
    /// * each B+-tree in `indexes`: replaced, once the scan has
    ///   succeeded, by a bottom-up load of every live row's key;
    /// * each sequence index in `seq_indexes`: an empty one is filled
    ///   from every row once the scan has succeeded (loaded in its stored
    ///   order at open, bulk-built otherwise), a non-empty one gets
    ///   the rows from `first_row` up appended (its backend is
    ///   insert-only);
    /// * a hidden table's (fresh) `history`: fed every row.
    ///
    /// Only the index key columns are decoded (every column when a
    /// `history` is fed).  A failed scan leaves the
    /// B+-trees as they were and at most some rows appended to non-empty
    /// sequence indexes, which `truncate_rows_from` undoes (new indexes
    /// are simply dropped).
    fn derive(
        &self,
        mut walk: Walk<'_>,
        indexes: &mut [TableIndex],
        seq_indexes: &mut [SeqIndex],
        mut history: Option<&mut History>,
        first_row: u64,
    ) -> Result<()> {
        // the key columns, ascending: a row's slice of the arena holds
        // exactly these, in this order
        let all = history.is_some().then(|| 0..self.schema.arity());
        let mut keys: Vec<usize> = indexes
            .iter()
            .map(|i| i.column)
            .chain(seq_indexes.iter().map(|i| i.column))
            .chain(all.into_iter().flatten())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let slot = |col: usize| keys.binary_search(&col).expect("a key column");
        // unless only keys are read, every column is; otherwise the walk
        // of a record ends at its last key column
        let walk_to = match walk {
            Walk::Keys => keys.last().map_or(0, |&col| col + 1),
            Walk::Check | Walk::Stats(_) => self.schema.arity(),
        };
        // sized once: doubling growth would leave up to half of each
        // vector reserved and unused while the index is built from it
        let live = self.rows.len();
        let mut sorted: Vec<Vec<(Value, u64)>> =
            indexes.iter().map(|_| Vec::with_capacity(live)).collect();
        // a key moves out of the arena into the last index that reads it
        let owns_key: Vec<bool> = (0..indexes.len())
            .map(|i| {
                indexes[i + 1..]
                    .iter()
                    .all(|j| j.column != indexes[i].column)
            })
            .collect();
        let mut loads: Vec<Option<(Vec<u64>, SeqTexts)>> = seq_indexes
            .iter()
            .map(|i| {
                i.is_empty().then(|| {
                    (
                        Vec::with_capacity(live),
                        SeqTexts::with_capacity(i.kind, live),
                    )
                })
            })
            .collect();
        let mut arena: Vec<Value> = Vec::new();
        let mut rows = self.rows.iter().peekable();
        while rows.peek().is_some() {
            let (nos, rids): (Vec<u64>, Vec<Rid>) = rows.by_ref().take(BATCH_SIZE).unzip();
            arena.clear();
            self.heap.with_records(&rids, |k, buf| {
                let decoded_no = Self::record_row_no(buf)?;
                debug_assert_eq!(decoded_no, nos[k]);
                let mut pos = 8;
                let mut next_key = keys.iter().peekable();
                for col in 0..walk_to {
                    let start = pos;
                    if next_key.next_if_eq(&&col).is_none() {
                        match &mut walk {
                            Walk::Stats(stats) => stats.observe_encoded(col, buf, &mut pos)?,
                            // a TEXT value's UTF-8 is checked, as decoding
                            // it would; any other value's tag and length
                            Walk::Check => {
                                if Value::decode_str(buf, &mut pos)?.is_none() {
                                    Value::skip(buf, &mut pos)?;
                                }
                            }
                            Walk::Keys => Value::skip(buf, &mut pos)?,
                        }
                        continue;
                    }
                    let key = Value::decode(buf, &mut pos)?;
                    if let Walk::Stats(stats) = &mut walk {
                        stats.observe_decoded(col, &key, &buf[start..pos]);
                    }
                    arena.push(key);
                }
                Ok(())
            })?;
            // (without key columns the arena is empty: nothing to feed)
            for (values, &row_no) in arena.chunks_mut(keys.len().max(1)).zip(&nos) {
                if let Some(h) = history.as_deref_mut() {
                    h.row_added(row_no, values);
                }
                for (sidx, load) in seq_indexes.iter_mut().zip(&mut loads) {
                    match (load, &values[slot(sidx.column)]) {
                        (Some((rows, texts)), Value::Text(s)) => {
                            rows.push(row_no);
                            texts.push(s.as_bytes());
                        }
                        (None, value) if row_no >= first_row => sidx.add(value, row_no),
                        _ => {}
                    }
                }
                for ((idx, pairs), &owns_key) in indexes.iter().zip(&mut sorted).zip(&owns_key) {
                    match &mut values[slot(idx.column)] {
                        Value::Null => {}
                        key if owns_key => pairs.push((std::mem::take(key), row_no)),
                        key => pairs.push((key.clone(), row_no)),
                    }
                }
            }
        }
        for (idx, pairs) in indexes.iter_mut().zip(sorted) {
            idx.load(pairs);
        }
        for (sidx, load) in seq_indexes.iter_mut().zip(loads) {
            if let Some((rows, texts)) = load {
                sidx.load(rows, texts)?;
            }
        }
        Ok(())
    }

    // ---- secondary indexes ----

    /// Create index `name` over `column`, backfilling it from the live
    /// rows: a B+-tree, or a sequence index of kind `seq` over a TEXT
    /// column.  Not logged: its `$schema` row is (`Database::define` is
    /// the caller).
    pub fn create_index(
        &mut self,
        name: &str,
        column: &str,
        seq: Option<SeqIndexKind>,
    ) -> Result<()> {
        let (taken, what) = match seq {
            None => (self.index_named(name).is_some(), "index"),
            Some(_) => (self.seq_index_named(name).is_some(), "sequence index"),
        };
        if taken {
            let what = format!("{what} `{name}` on `{}`", self.name);
            return Err(BdbmsError::already_exists(what));
        }
        let col = self.schema.require(column)?;
        let Some(kind) = seq else {
            let mut idx = TableIndex::new(name, col);
            self.derive(Walk::Keys, std::slice::from_mut(&mut idx), &mut [], None, 0)?;
            self.indexes.push(idx);
            return Ok(());
        };
        if self.schema.columns()[col].ty != DataType::Text {
            return Err(BdbmsError::invalid(format!(
                "sequence index `{name}` requires a TEXT column, but `{column}` is {:?}",
                self.schema.columns()[col].ty
            )));
        }
        let mut sidx = SeqIndex::new(name, col, kind);
        self.derive(
            Walk::Keys,
            &mut [],
            std::slice::from_mut(&mut sidx),
            None,
            0,
        )?;
        self.seq_indexes.push(sidx);
        Ok(())
    }

    /// Drop index `name` (a sequence index if `seq`).  Its definition's
    /// inverse recreates it by backfilling, applied when the rows are
    /// back to their drop-time state, so the rebuilt index is the
    /// dropped one.
    pub fn drop_index(&mut self, name: &str, seq: bool) -> Result<()> {
        let count = |t: &Table| t.indexes.len() + t.seq_indexes.len();
        let (before, other) = (count(self), |i: &str| !i.eq_ignore_ascii_case(name));
        match seq {
            false => self.indexes.retain(|i| other(&i.name)),
            true => self.seq_indexes.retain(|i| other(&i.name)),
        }
        if count(self) == before {
            let what = if seq { "sequence index" } else { "index" };
            return Err(BdbmsError::not_found(format!(
                "{what} `{name}` on `{}`",
                self.name
            )));
        }
        Ok(())
    }

    /// Find an index by name (case-insensitive).
    pub fn index_named(&self, name: &str) -> Option<&TableIndex> {
        self.indexes
            .iter()
            .find(|i| i.name.eq_ignore_ascii_case(name))
    }

    /// Find an index over the given column position, if any.
    pub fn index_on(&self, column: usize) -> Option<&TableIndex> {
        self.indexes.iter().find(|i| i.column == column)
    }

    /// All indexes on this table.
    pub fn indexes(&self) -> &[TableIndex] {
        &self.indexes
    }

    // ---- sequence indexes ----

    /// Find a sequence index by name (case-insensitive).
    pub fn seq_index_named(&self, name: &str) -> Option<&SeqIndex> {
        self.seq_indexes
            .iter()
            .find(|i| i.name.eq_ignore_ascii_case(name))
    }

    /// Find a sequence index over the given column position, if any.
    pub fn seq_index_on(&self, column: usize) -> Option<&SeqIndex> {
        self.seq_indexes.iter().find(|i| i.column == column)
    }

    /// All sequence indexes on this table.
    pub fn seq_indexes(&self) -> &[SeqIndex] {
        &self.seq_indexes
    }

    // ---- bulk load (COPY) ----

    /// `COPY` fast path: append one row, deferring index maintenance and
    /// statistics to [`finish_bulk`](Self::finish_bulk); durability is
    /// the checkpoint `COPY` commits by, not redo.  The table is in a
    /// *scan-correct but index-stale* state between the first
    /// `bulk_append` and `finish_bulk`; `crate::ingest` owns that window
    /// and never lets a query see it.
    pub(crate) fn bulk_append(&mut self, values: Vec<Value>) -> Result<u64> {
        let values = self.schema.check_row(values)?;
        let row_no = self.next_row;
        let rid = self.heap.insert(&Self::encode_row(row_no, &values))?;
        self.rows.insert(row_no, rid);
        self.next_row = row_no + 1;
        Ok(row_no)
    }

    /// Close out a bulk-append run that started at `first_row`: grow the
    /// outdated bitmap and, in one heap pass, recompute exact statistics
    /// (the deferred `ANALYZE`) and bring every index up to date — the
    /// B+-trees are reloaded from every live row and the new rows are
    /// appended to the sequence indexes, except that a sequence index
    /// still empty (first `COPY` into an indexed table) is bulk-built.
    pub(crate) fn finish_bulk(&mut self, first_row: u64) -> Result<()> {
        if self.outdated.rows() < self.next_row as usize {
            self.outdated.grow_rows(self.next_row as usize);
        }
        let mut stats = TableStats::new(self.schema.arity());
        let mut indexes = std::mem::take(&mut self.indexes);
        let mut seq_indexes = std::mem::take(&mut self.seq_indexes);
        let derived = self.derive(
            Walk::Stats(&mut stats),
            &mut indexes,
            &mut seq_indexes,
            None,
            first_row,
        );
        self.indexes = indexes;
        self.seq_indexes = seq_indexes;
        derived?;
        self.stats = stats;
        Ok(())
    }

    /// Remove every row numbered `first_row` or above (bulk-load
    /// rollback).  Index entries that were never built (the load
    /// failed before or in `finish_bulk`) are tolerated; statistics are restored
    /// wholesale by the accompanying first-touch snapshot, not here.
    pub(crate) fn truncate_rows_from(&mut self, first_row: u64) -> Result<()> {
        let doomed: Vec<u64> = self.rows.range(first_row..).map(|(&no, _)| no).collect();
        for row_no in doomed {
            let values = self.get(row_no)?;
            let rid = self.rows.remove(&row_no).expect("listed above");
            self.heap.delete(rid)?;
            for c in 0..self.schema.arity() {
                if (row_no as usize) < self.outdated.rows() {
                    self.outdated.clear(row_no as usize, c);
                }
            }
            for idx in &mut self.indexes {
                idx.remove(&values[idx.column], row_no);
            }
            for sidx in &mut self.seq_indexes {
                sidx.remove(row_no);
            }
            if let Some(h) = &mut self.history {
                h.row_removed(row_no, &values);
            }
        }
        self.set_next_row(first_row);
        Ok(())
    }

    // ---- planner statistics ----

    /// The table's planner statistics (always present; incrementally
    /// maintained, exact after [`analyze`](Self::analyze)).
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Replace the statistics wholesale (transaction rollback restoring
    /// a first-touch snapshot — the KMV sketch cannot retract).
    pub(crate) fn set_stats(&mut self, stats: TableStats) {
        self.stats = stats;
    }

    /// The next row number an insert would allocate.
    pub(crate) fn peek_next_row(&self) -> u64 {
        self.next_row
    }

    /// Rewind the row-number allocator (transaction rollback; the rows
    /// past it have already been deleted by the rows' own inverses).
    pub(crate) fn set_next_row(&mut self, next_row: u64) {
        self.next_row = next_row;
    }

    /// Rebuild statistics exactly from the live rows (`ANALYZE`).
    /// Returns the number of rows scanned.
    pub fn analyze(&mut self) -> Result<u64> {
        let mut stats = TableStats::new(self.schema.arity());
        self.derive(Walk::Stats(&mut stats), &mut [], &mut [], None, 0)?;
        self.stats = stats;
        Ok(self.rows.len() as u64)
    }

    /// Live row numbers in order.
    pub fn row_numbers(&self) -> Vec<u64> {
        self.rows.keys().copied().collect()
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Is this row number live?
    pub fn contains_row(&self, row_no: u64) -> bool {
        self.rows.contains_key(&row_no)
    }

    /// The annotation set a hidden record table holds.
    pub(crate) fn annotation_set(&self) -> Option<&SharedSet> {
        match &self.history {
            Some(History::Records(set)) => Some(set),
            _ => None,
        }
    }

    /// Mark a cell outdated (§5), growing the bitmap as needed.  Only a
    /// bit that actually flips gets an inverse.
    pub fn mark_outdated(&mut self, row_no: u64, col: usize) {
        let flips = !self.is_outdated(row_no, col);
        if self.outdated.rows() <= row_no as usize {
            self.outdated.grow_rows(row_no as usize + 1);
        }
        self.outdated.set(row_no as usize, col);
        self.record_cell(row_no, col, true, flips);
    }

    /// Clear the outdated mark (revalidation — §5).
    pub fn clear_outdated(&mut self, row_no: u64, col: usize) {
        if (row_no as usize) < self.outdated.rows() {
            let flips = self.outdated.get(row_no as usize, col);
            self.outdated.clear(row_no as usize, col);
            self.record_cell(row_no, col, false, flips);
        }
    }

    /// Log an outdated-bit change: its redo record always, the opposite
    /// change as its inverse only when the bit flipped.
    fn record_cell(&self, row_no: u64, col: usize, mark: bool, flipped: bool) {
        if flipped {
            self.record(
                |table| cell_record(table, row_no, col, mark),
                |table| cell_record(table, row_no, col, !mark),
            );
        } else {
            let redo = || cell_record(self.name.clone(), row_no, col, mark);
            self.log.borrow_mut().record_redo(redo);
        }
    }

    /// Is the cell marked outdated?
    pub fn is_outdated(&self, row_no: u64, col: usize) -> bool {
        (row_no as usize) < self.outdated.rows() && self.outdated.get(row_no as usize, col)
    }
}

/// The record that marks (`mark`) or clears one outdated cell.
fn cell_record(table: String, row_no: u64, col: usize, mark: bool) -> WalRecord {
    let col = col as u64;
    if mark {
        WalRecord::OutdatedMark { table, row_no, col }
    } else {
        WalRecord::OutdatedClear { table, row_no, col }
    }
}

/// The database catalog.
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    /// Bumped by every DDL change (and `ANALYZE`) that can invalidate a
    /// cached query plan: table/index create/drop, stats rebuild.
    /// Prepared statements stamp their cached plans with this and replan
    /// when it moves.
    generation: u64,
    /// Process-unique catalog identity, stamped into cached plans so a
    /// prepared statement carried across `Database` instances can never
    /// replay one database's plan against another's schema (generation
    /// counters alone can coincide).
    id: u64,
}

impl Default for Catalog {
    fn default() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_CATALOG_ID: AtomicU64 = AtomicU64::new(1);
        Catalog {
            tables: BTreeMap::new(),
            generation: 0,
            id: NEXT_CATALOG_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// The current plan-validity generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// This catalog's process-unique identity.
    pub fn instance_id(&self) -> u64 {
        self.id
    }

    /// Invalidate all cached plans (DDL / ANALYZE happened).
    pub fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// Register a new table.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        let key = Self::key(&table.name);
        if self.tables.contains_key(&key) {
            return Err(BdbmsError::already_exists(format!(
                "table `{}`",
                table.name
            )));
        }
        self.tables.insert(key, table);
        self.bump_generation();
        Ok(())
    }

    /// Drop a table with every hidden table it owns (all named
    /// `name$…`); returns them, the table first.
    pub fn drop_table(&mut self, name: &str) -> Result<Vec<Table>> {
        let key = Self::key(name);
        let t = self
            .tables
            .remove(&key)
            .ok_or_else(|| BdbmsError::not_found(format!("table `{name}`")))?;
        let prefix = format!("{key}$");
        let owned: Vec<String> = self
            .tables
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, _)| k.clone())
            .collect();
        let mut dropped = vec![t];
        dropped.extend(owned.iter().filter_map(|k| self.tables.remove(k)));
        self.bump_generation();
        Ok(dropped)
    }

    /// Case-insensitive lookup.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&Self::key(name))
            .ok_or_else(|| BdbmsError::not_found(format!("table `{name}`")))
    }

    /// Mutable lookup.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&Self::key(name))
            .ok_or_else(|| BdbmsError::not_found(format!("table `{name}`")))
    }

    /// Does the table exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&Self::key(name))
    }

    /// All user tables in name order (hidden history tables are not
    /// listed).
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.all_tables().filter(|t| owner_of(&t.name).is_none())
    }

    /// Every table, hidden history tables included, in name order — an
    /// owner right before the tables it owns.
    pub(crate) fn all_tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Every table, hidden history tables included, mutably.
    pub fn tables_mut(&mut self) -> impl Iterator<Item = &mut Table> {
        self.tables.values_mut()
    }

    /// Annotation set `set` on `table`, as queries read it.
    pub fn annotation_set(&self, table: &str, set: &str) -> Result<SetRef<'_>> {
        let records = self
            .table(table)
            .and_then(|_| self.table(&records_table(table, set)));
        match records.as_ref().map(|t| (t, t.annotation_set())) {
            Ok((records, Some(set))) => Ok(SetRef { set, records }),
            _ => Err(BdbmsError::not_found(format!(
                "annotation table `{set}` on `{table}`"
            ))),
        }
    }

    /// The annotation sets attached to `table`, in name order.
    pub fn ann_set_names(&self, table: &str) -> Vec<String> {
        let prefix = format!("{}$", Self::key(table));
        self.tables
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .filter_map(|(_, t)| Some(t.annotation_set()?.borrow().name.clone()))
            .collect()
    }
}

#[cfg(test)]
/// Damage hooks for `CHECK`'s tests: each breaks one invariant behind
/// the table's write paths, which keep them all.
impl Table {
    /// Add or remove one entry of the `index`-th secondary index, leaving
    /// the heap alone.
    pub(crate) fn damage_index(&mut self, index: usize, key: &Value, row_no: u64, add: bool) {
        let idx = &mut self.indexes[index];
        if add {
            idx.add(key, row_no);
        } else {
            idx.remove(key, row_no);
        }
    }

    /// Overwrite a live row's heap record with raw bytes.
    pub(crate) fn damage_record(&mut self, row_no: u64, rec: &[u8]) {
        let rid = self.heap.update(self.rows[&row_no], rec).unwrap();
        self.rows.insert(row_no, rid);
    }

    /// Drop row `row_no` from the `index`-th sequence index, leaving the
    /// heap alone.
    pub(crate) fn damage_seq_index(&mut self, index: usize, row_no: u64) {
        self.seq_indexes[index].remove(row_no);
    }

    /// Refill the `index`-th sequence index as an open does, from its
    /// stored order with the neighbours at `at` and `at + 1` swapped.
    pub(crate) fn damage_seq_order(&mut self, index: usize, at: usize) {
        let old = &self.seq_indexes[index];
        let mut order = old.order();
        order.swap(at, at + 1);
        let mut sidx = SeqIndex::new(&old.name, old.column, old.kind);
        sidx.stored_order = Some(order);
        self.derive(
            Walk::Keys,
            &mut [],
            std::slice::from_mut(&mut sidx),
            None,
            0,
        )
        .unwrap();
        self.seq_indexes[index] = sidx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdbms_common::DataType;
    use bdbms_storage::MemStore;
    use proptest::prelude::*;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Box::new(MemStore::new()), 64))
    }

    fn gene_table() -> Table {
        Table::create(
            "Gene",
            Schema::of(&[
                ("GID", DataType::Text),
                ("GName", DataType::Text),
                ("GSequence", DataType::Text),
            ]),
            "admin",
            pool(),
        )
        .unwrap()
    }

    #[test]
    fn insert_get_update_delete() {
        let mut t = gene_table();
        let r0 = t
            .insert(vec!["JW0080".into(), "mraW".into(), "ATGATG".into()])
            .unwrap();
        let r1 = t
            .insert(vec!["JW0082".into(), "ftsI".into(), "ATGAAA".into()])
            .unwrap();
        assert_eq!(r0, 0);
        assert_eq!(r1, 1);
        assert_eq!(t.get(r0).unwrap()[1], Value::Text("mraW".into()));
        t.update(r0, vec!["JW0080".into(), "mraW".into(), "GTGGTG".into()])
            .unwrap();
        assert_eq!(t.get(r0).unwrap()[2], Value::Text("GTGGTG".into()));
        let old = t.delete(r1).unwrap();
        assert_eq!(old[0], Value::Text("JW0082".into()));
        assert!(t.get(r1).is_err());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn row_numbers_stable_after_delete() {
        let mut t = gene_table();
        for i in 0..5 {
            t.insert(vec![format!("JW{i:04}").into(), "x".into(), "ATG".into()])
                .unwrap();
        }
        t.delete(2).unwrap();
        let rows = t.row_numbers();
        assert_eq!(rows, vec![0, 1, 3, 4]);
        // new insert does not reuse row number 2
        let r = t
            .insert(vec!["JW9999".into(), "y".into(), "ATG".into()])
            .unwrap();
        assert_eq!(r, 5);
    }

    #[test]
    fn insert_with_row_no_restores() {
        let mut t = gene_table();
        t.insert(vec!["a".into(), "b".into(), "c".into()]).unwrap();
        let old = t.delete(0).unwrap();
        t.insert_with_row_no(0, old).unwrap();
        assert_eq!(t.get(0).unwrap()[0], Value::Text("a".into()));
        assert!(t
            .insert_with_row_no(0, vec!["x".into(), "y".into(), "z".into()])
            .is_err());
    }

    #[test]
    fn schema_violations_rejected() {
        let mut t = gene_table();
        assert!(t.insert(vec!["only-two".into(), "cols".into()]).is_err());
        assert!(t
            .insert(vec![Value::Int(1), "b".into(), "c".into()])
            .is_err());
    }

    #[test]
    fn outdated_bits() {
        let mut t = gene_table();
        t.insert(vec!["a".into(), "b".into(), "c".into()]).unwrap();
        assert!(!t.is_outdated(0, 2));
        t.mark_outdated(0, 2);
        assert!(t.is_outdated(0, 2));
        t.clear_outdated(0, 2);
        assert!(!t.is_outdated(0, 2));
        // growth beyond current rows
        t.mark_outdated(10, 1);
        assert!(t.is_outdated(10, 1));
    }

    #[test]
    fn index_stays_consistent_across_dml() {
        let mut t = gene_table();
        for i in 0..20 {
            t.insert(vec![format!("JW{i:04}").into(), "x".into(), "ATG".into()])
                .unwrap();
        }
        t.create_index("gid_idx", "GID", None).unwrap();
        assert_eq!(t.index_named("gid_idx").unwrap().len(), 20, "backfilled");
        let probe = |t: &Table, key: &str| -> Vec<u64> {
            let v = Value::Text(key.into());
            t.index_on(0)
                .unwrap()
                .probe(Bound::Included(&v), Bound::Included(&v))
        };
        assert_eq!(probe(&t, "JW0007"), vec![7]);
        // update moves the entry to the new key
        t.update(7, vec!["JW9999".into(), "x".into(), "ATG".into()])
            .unwrap();
        assert_eq!(probe(&t, "JW0007"), Vec::<u64>::new());
        assert_eq!(probe(&t, "JW9999"), vec![7]);
        // delete retires the entry
        t.delete(7).unwrap();
        assert_eq!(probe(&t, "JW9999"), Vec::<u64>::new());
        assert_eq!(t.index_on(0).unwrap().len(), 19);
        // re-insert with a preserved row number (approval inverse path)
        t.insert_with_row_no(7, vec!["JW0007".into(), "x".into(), "ATG".into()])
            .unwrap();
        assert_eq!(probe(&t, "JW0007"), vec![7]);
        // range probe is sorted scan order
        let lo = Value::Text("JW0003".into());
        let hi = Value::Text("JW0006".into());
        let rows = t
            .index_on(0)
            .unwrap()
            .probe(Bound::Included(&lo), Bound::Included(&hi));
        assert_eq!(rows, vec![3, 4, 5, 6]);
        t.drop_index("GID_IDX", false).unwrap();
        assert!(t.index_on(0).is_none());
        assert!(t.drop_index("gid_idx", false).is_err());
    }

    #[test]
    fn index_skips_nulls() {
        let mut t = Table::create(
            "N",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Text)]),
            "admin",
            pool(),
        )
        .unwrap();
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        t.insert(vec![Value::Null, "x".into()]).unwrap();
        t.create_index("a_idx", "a", None).unwrap();
        assert_eq!(t.index_named("a_idx").unwrap().len(), 1);
        // updating NULL → value adds an entry; value → NULL removes it
        t.update(1, vec![Value::Int(5), "x".into()]).unwrap();
        assert_eq!(t.index_named("a_idx").unwrap().len(), 2);
        t.update(0, vec![Value::Null, Value::Null]).unwrap();
        assert_eq!(t.index_named("a_idx").unwrap().len(), 1);
    }

    #[test]
    fn index_probe_comes_back_in_row_order() {
        let mut t =
            Table::create("N", Schema::of(&[("a", DataType::Int)]), "admin", pool()).unwrap();
        // keys descend as row numbers ascend, with one repeated key
        for a in [9, 7, 7, 5, 3] {
            t.insert(vec![Value::Int(a)]).unwrap();
        }
        t.create_index("a_idx", "a", None).unwrap();
        let idx = t.index_named("a_idx").unwrap();
        let (lo, hi) = (Value::Int(4), Value::Int(8));
        let range = idx.probe(Bound::Included(&lo), Bound::Included(&hi));
        assert_eq!(range, vec![1, 2, 3], "tree order 3, 1, 2 is re-sorted");
        let all = idx.probe(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        let eq = idx.probe(Bound::Included(&hi), Bound::Excluded(&hi));
        assert_eq!(eq, Vec::<u64>::new());
    }

    #[test]
    fn seq_index_stays_consistent_across_dml() {
        let mut t = gene_table();
        t.insert(vec!["JW0001".into(), "a".into(), "ATGCATGC".into()])
            .unwrap();
        t.insert(vec!["JW0002".into(), "b".into(), "GGGGCCCC".into()])
            .unwrap();
        t.create_index("seq_idx", "GSequence", Some(SeqIndexKind::Sbc))
            .unwrap();
        assert_eq!(t.seq_index_named("seq_idx").unwrap().len(), 2, "backfilled");
        let probe = |t: &Table, pat: &str| t.seq_index_on(2).unwrap().probe(pat);
        assert_eq!(probe(&t, "GCAT"), vec![0]);
        assert_eq!(probe(&t, "GGCC"), vec![1]);
        assert_eq!(probe(&t, ""), Vec::<u64>::new(), "empty pattern");
        // update tombstones the old text and indexes the new one
        t.update(0, vec!["JW0001".into(), "a".into(), "TTTTTTTT".into()])
            .unwrap();
        assert_eq!(probe(&t, "GCAT"), Vec::<u64>::new());
        assert_eq!(probe(&t, "TTT"), vec![0]);
        // row 0's new text has the highest text id: candidates still come
        // back in row order
        t.insert(vec!["JW0003".into(), "c".into(), "ATTTTA".into()])
            .unwrap();
        t.update(0, vec!["JW0001".into(), "a".into(), "CTTTTC".into()])
            .unwrap();
        assert_eq!(probe(&t, "TTT"), vec![0, 2]);
        t.delete(2).unwrap();
        // delete tombstones
        t.delete(1).unwrap();
        assert_eq!(probe(&t, "GGCC"), Vec::<u64>::new());
        assert_eq!(t.seq_index_on(2).unwrap().len(), 1);
        // duplicate name / non-TEXT column / unknown column rejected
        assert!(t
            .create_index("SEQ_IDX", "GSequence", Some(SeqIndexKind::Suffix))
            .is_err());
        assert!(t
            .create_index("nope", "missing", Some(SeqIndexKind::Sbc))
            .is_err());
        t.drop_index("SEQ_IDX", true).unwrap();
        assert!(t.seq_index_on(2).is_none());
        assert!(t.drop_index("seq_idx", true).is_err());
    }

    #[test]
    fn seq_index_rejects_non_text_column() {
        let mut t = Table::create(
            "N",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Text)]),
            "admin",
            pool(),
        )
        .unwrap();
        assert!(t.create_index("sa", "a", Some(SeqIndexKind::Sbc)).is_err());
        assert!(t
            .create_index("sb", "b", Some(SeqIndexKind::Suffix))
            .is_ok());
    }

    #[test]
    fn bulk_append_then_finish_matches_row_at_a_time() {
        let mut t = gene_table();
        t.insert(vec!["JW0000".into(), "pre".into(), "ACGT".into()])
            .unwrap();
        t.create_index("gid_idx", "GID", None).unwrap();
        t.create_index("seq_idx", "GSequence", Some(SeqIndexKind::Sbc))
            .unwrap();
        let first = t.peek_next_row();
        for i in 1..=10 {
            t.bulk_append(vec![
                format!("JW{i:04}").into(),
                "x".into(),
                format!("ACGT{}", "T".repeat(i)).into(),
            ])
            .unwrap();
        }
        t.finish_bulk(first).unwrap();
        assert_eq!(t.len(), 11);
        assert_eq!(t.index_named("gid_idx").unwrap().len(), 11, "rebuilt");
        assert_eq!(t.seq_index_named("seq_idx").unwrap().len(), 11, "appended");
        let v = Value::Text("JW0007".into());
        assert_eq!(
            t.index_on(0)
                .unwrap()
                .probe(Bound::Included(&v), Bound::Included(&v)),
            vec![7]
        );
        // "ACGT" + 9 extra T's already holds a 10-T run (the G is followed
        // by 1+9 T's), so both of the longest two rows match
        assert_eq!(t.seq_index_on(2).unwrap().probe("TTTTTTTTTT"), vec![9, 10]);
        assert_eq!(t.seq_index_on(2).unwrap().probe("TTTTTTTTTTT"), vec![10]);
        assert_eq!(t.stats().column(0).distinct(), 11, "stats recomputed");
        // rollback path: truncate removes exactly the bulk rows
        let first2 = t.peek_next_row();
        t.bulk_append(vec!["JW9998".into(), "y".into(), "GGG".into()])
            .unwrap();
        t.bulk_append(vec!["JW9999".into(), "y".into(), "GGG".into()])
            .unwrap();
        t.truncate_rows_from(first2).unwrap();
        assert_eq!(t.len(), 11);
        assert_eq!(t.peek_next_row(), first2);
        assert_eq!(t.index_named("gid_idx").unwrap().len(), 11);
    }

    #[test]
    fn fetch_rows_decodes_candidate_lists_like_get() {
        let mut t = gene_table();
        // ~1 KB rows: eight to a page, so 40 rows span several pages; row
        // 17 is a 40 KB record (a multi-fragment chain) between two
        // ordinary rows of the same run
        for i in 0..40usize {
            let seq = if i == 17 {
                "ACGT".repeat(10_000)
            } else {
                format!("{i:04}").repeat(250)
            };
            t.insert(vec![format!("JW{i:04}").into(), "x".into(), seq.into()])
                .unwrap();
        }
        t.delete(5).unwrap();
        // the arenas, read back as `(row_no, values)` pairs
        let fetch = |nos: &[u64], keep: Option<&[usize]>| {
            let (mut row_nos, mut values) = (Vec::new(), Vec::new());
            let survives = |_: &[Value]| Ok(true);
            let sieve = Sieve {
                keep,
                survives,
                late: &[],
            };
            t.fetch_rows(nos, sieve, &mut row_nos, &mut values)?;
            assert_eq!(values.len(), row_nos.len() * 3, "stride = arity");
            let rows = values.chunks(3).map(<[Value]>::to_vec);
            Ok::<_, BdbmsError>(row_nos.into_iter().zip(rows).collect::<Vec<_>>())
        };
        let by_get = |nos: &[u64]| -> Vec<(u64, Vec<Value>)> {
            nos.iter().map(|&no| (no, t.get(no).unwrap())).collect()
        };

        assert_eq!(fetch(&[], None).unwrap(), Vec::new(), "empty list");
        // a contiguous run with the long record in the middle
        let run: Vec<u64> = (14..22).collect();
        assert_eq!(fetch(&run, None).unwrap(), by_get(&run));
        // rows on non-adjacent pages come back in list order
        let spread = [0, 9, 17, 18, 30, 39];
        assert_eq!(fetch(&spread, None).unwrap(), by_get(&spread));
        // the successor walk re-seeks on every gap, also a backward one
        let zigzag = [30, 31, 2, 3, 4, 6, 39, 0];
        assert_eq!(fetch(&zigzag, None).unwrap(), by_get(&zigzag));
        // pruned slots are NULL, kept ones are decoded — also past the
        // long column, and on the multi-fragment record
        let pruned = fetch(&spread, Some(&[0])).unwrap();
        for ((no, values), (_, full)) in pruned.iter().zip(by_get(&spread)) {
            assert_eq!(values[0], full[0], "row {no}");
            assert_eq!(values[1..], [Value::Null, Value::Null], "row {no}");
        }
        let last_only = fetch(&[17], Some(&[2])).unwrap();
        assert_eq!(last_only[0].1[0], Value::Null);
        assert_eq!(last_only[0].1[2], t.get(17).unwrap()[2]);
        // a sieve sees the first column only and keeps every other row,
        // whose last column it then decodes — the long record included
        let (mut row_nos, mut values) = (Vec::new(), Vec::new());
        let mut seen = Vec::new();
        let survives = |row: &[Value]| {
            seen.push(row.to_vec());
            Ok(seen.len() % 2 == 1)
        };
        let sieve = Sieve {
            keep: Some(&[0]),
            survives,
            late: &[2],
        };
        t.fetch_rows(&spread, sieve, &mut row_nos, &mut values)
            .unwrap();
        assert_eq!(row_nos, [0, 17, 30]);
        for (no, row) in row_nos.iter().zip(values.chunks(3)) {
            let full = t.get(*no).unwrap();
            assert_eq!(row, [full[0].clone(), Value::Null, full[2].clone()]);
        }
        assert!(seen.iter().all(|r| r[1..] == [Value::Null, Value::Null]));
        // a row that is not live (deleted, or never allocated) is
        // NotFound and nothing is decoded
        for bad in [5, 40] {
            let (mut row_nos, mut values) = (Vec::new(), Vec::new());
            let survives = |_: &[Value]| Ok(true);
            let sieve = Sieve {
                keep: None,
                survives,
                late: &[],
            };
            let err = t
                .fetch_rows(&[4, bad, 6], sieve, &mut row_nos, &mut values)
                .unwrap_err();
            assert_eq!(err.code(), bdbms_common::ErrorCode::NotFound, "row {bad}");
            assert!(row_nos.is_empty() && values.is_empty());
        }
    }

    /// Everything a query or `CHECK` can read from an index, in Debug
    /// form so that equal keys of different types (`Int(2)` /
    /// `Float(2.0)`) must also agree.
    fn index_answers(idx: &TableIndex, bounds: &[Value]) -> Vec<String> {
        let mut out = Vec::new();
        let mut keys = Vec::new();
        idx.visit_keys(|k| keys.push(format!("{k:?}")));
        out.push(keys.join(","));
        let mut ranges = vec![(Bound::Unbounded, Bound::Unbounded)];
        for lo in bounds {
            ranges.push((Bound::Included(lo), Bound::Included(lo)));
            ranges.push((Bound::Excluded(lo), Bound::Unbounded));
            for hi in bounds {
                ranges.push((Bound::Included(lo), Bound::Excluded(hi)));
            }
        }
        for (lo, hi) in ranges {
            out.push(format!("{:?}", idx.probe(lo, hi)));
            out.push(format!("{:?}", idx.probe_entries(lo, hi)));
        }
        out
    }

    fn arb_key() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (0i64..6).prop_map(Value::Int),
            (0i64..6).prop_map(|i| Value::Float(i as f64 / 2.0)),
            Just(Value::Float(-0.0)),
            "[ab日]{0,2}".prop_map(Value::Text),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Up to ~3 leaves of entries, with many duplicates of each key.
        #[test]
        fn bulk_loaded_index_answers_like_an_insert_grown_one(
            keys in prop::collection::vec(arb_key(), 0..400),
        ) {
            let mut grown = TableIndex::new("grown", 0);
            let mut entries = Vec::new();
            for (row_no, k) in (0..).zip(&keys) {
                grown.add(k, row_no);
                if !k.is_null() {
                    entries.push((k.clone(), row_no));
                }
            }
            let mut bulk = TableIndex::new("bulk", 0);
            bulk.load(entries);
            prop_assert_eq!(bulk.len(), grown.len());
            let bounds = [Value::Int(1), Value::Float(1.0), Value::Text("a".into())];
            prop_assert_eq!(index_answers(&bulk, &bounds), index_answers(&grown, &bounds));
        }
    }

    #[test]
    fn create_index_bulk_loads_like_inserts_into_an_index() {
        let schema = Schema::of(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("t", DataType::Text),
        ]);
        let row = |n: i64| {
            let null_every = |k: i64, v: Value| if n % k == 0 { Value::Null } else { v };
            vec![
                null_every(7, Value::Int(n % 13)),
                null_every(5, Value::Float((n % 9) as f64 / 4.0 - 1.0)),
                null_every(11, Value::Text(format!("k{}", n % 17))),
            ]
        };
        let mut bulk = Table::create("B", schema.clone(), "admin", pool()).unwrap();
        let mut grown = Table::create("G", schema, "admin", pool()).unwrap();
        for (col, name) in ["i", "f", "t"].iter().enumerate() {
            grown
                .create_index(&format!("{name}_idx"), name, None)
                .unwrap();
            assert!(grown.indexes[col].is_empty());
        }
        for n in 0..600 {
            bulk.insert(row(n)).unwrap();
            grown.insert(row(n)).unwrap();
        }
        for n in (0..600).step_by(19) {
            bulk.delete(n).unwrap();
            grown.delete(n).unwrap();
        }
        for name in ["i", "f", "t"] {
            bulk.create_index(&format!("{name}_idx"), name, None)
                .unwrap();
        }
        let bounds = [Value::Int(3), Value::Float(0.25), Value::Text("k9".into())];
        let same_answers = |bulk: &Table, grown: &Table| {
            for col in 0..3 {
                let (b, g) = (&bulk.indexes[col], &grown.indexes[col]);
                assert_eq!(b.len(), g.len(), "column {col}");
                assert_eq!(
                    index_answers(b, &bounds),
                    index_answers(g, &bounds),
                    "column {col}"
                );
            }
        };
        same_answers(&bulk, &grown);
        // a COPY appending to the now non-empty indexes reloads them
        let first = bulk.peek_next_row();
        for n in 600..900 {
            bulk.bulk_append(row(n)).unwrap();
            grown.insert(row(n)).unwrap();
        }
        bulk.finish_bulk(first).unwrap();
        same_answers(&bulk, &grown);
        // a pass that fails leaves every tree as it was
        let before: Vec<_> = bulk
            .indexes
            .iter()
            .map(|i| index_answers(i, &bounds))
            .collect();
        let first = bulk.peek_next_row();
        bulk.bulk_append(row(900)).unwrap();
        bulk.damage_record(first, &[0; 3]);
        assert!(bulk.finish_bulk(first).is_err());
        let after: Vec<_> = bulk
            .indexes
            .iter()
            .map(|i| index_answers(i, &bounds))
            .collect();
        assert_eq!(after, before);
    }

    #[test]
    fn derive_checks_every_column_decodes() {
        let mut t = Table::create(
            "T",
            Schema::of(&[("k", DataType::Int), ("note", DataType::Text)]),
            "admin",
            pool(),
        )
        .unwrap();
        for k in 0..4 {
            t.insert(vec![Value::Int(k), Value::Text(format!("n{k}"))])
                .unwrap();
        }
        t.create_index("k_idx", "k", None).unwrap();
        // row 1's unindexed TEXT column stops being UTF-8
        let mut rec = 1u64.to_le_bytes().to_vec();
        Value::Int(1).encode(&mut rec);
        rec.extend_from_slice(&[3, 2, 0, 0, 0, 0xff, 0xfe]);
        t.damage_record(1, &rec);
        let want = Value::decode(&rec, &mut 8).and_then(|_| Value::decode(&rec, &mut 17));
        let want = want.unwrap_err().code();
        assert_eq!(want, bdbms_common::ErrorCode::Storage);
        assert_eq!(t.analyze().unwrap_err().code(), want, "ANALYZE");
        // the passes an open makes: checks, or statistics where none
        // are stored, plus a fresh index
        let mut stats = TableStats::new(2);
        for walk in [Walk::Check, Walk::Stats(&mut stats)] {
            let mut idx = TableIndex::new("k2", 0);
            let err = t.derive(walk, std::slice::from_mut(&mut idx), &mut [], None, 0);
            assert_eq!(err.unwrap_err().code(), want, "open's derive pass");
            assert!(idx.is_empty(), "a failed pass loads no index");
        }
        // without statistics only the key column is read, as before
        t.create_index("k3", "k", None).unwrap();
        assert_eq!(t.index_named("k3").unwrap().len(), 4);
    }

    /// One definition of each kind, on table `T (v INT, s TEXT)`.
    fn definitions() -> Vec<Definition> {
        let def = |name: &str, kind| Definition {
            table: "T".into(),
            name: name.into(),
            kind,
        };
        let schema = Schema::of(&[("v", DataType::Int), ("s", DataType::Text)]);
        let (v, s) = (|| "v".to_string(), || "s".to_string());
        vec![
            def(
                "T",
                Kind::Table {
                    owner: "alice".into(),
                    schema,
                },
            ),
            def(
                "v_idx",
                Kind::Index {
                    column: v(),
                    seq: None,
                },
            ),
            def(
                "s_sbc",
                Kind::Index {
                    column: s(),
                    seq: Some(SeqIndexKind::Sbc),
                },
            ),
            def(
                "s_suf",
                Kind::Index {
                    column: s(),
                    seq: Some(SeqIndexKind::Suffix),
                },
            ),
            def(
                "notes",
                Kind::Set {
                    cell_scheme: true,
                    system_only: false,
                    schema_enforced: true,
                },
            ),
            def(
                "prov",
                Kind::Set {
                    cell_scheme: false,
                    system_only: true,
                    schema_enforced: false,
                },
            ),
        ]
    }

    /// Every kind of definition is one row shape, decoded back to the
    /// same row; a row no definition writes is `Corrupt`.
    #[test]
    fn definitions_round_trip_through_one_row_shape() {
        let schema = Definition::schema();
        for def in definitions() {
            let row = schema.check_row(def.to_row()).unwrap();
            assert_eq!(Definition::from_row(&row).unwrap().to_row(), row);
        }
        let table = definitions()[0].to_row();
        assert_eq!(table[4], Value::Text("v INT, s TEXT".into()));
        let text = |s: &str| Value::Text(s.into());
        let malformed = [
            (1, text("VIEW")),
            (0, text("U")), // a table row on another table
            (4, text("v INT, s")),
            (4, text("v BLOB")),
            (3, Value::Null),
        ];
        for (col, value) in malformed {
            let mut row = table.clone();
            row[col] = value;
            let err = Definition::from_row(&row).err().unwrap();
            assert_eq!(err.code(), bdbms_common::ErrorCode::Corrupt);
        }
        let mut index = definitions()[2].to_row();
        index[5] = text("RTREE");
        assert!(Definition::from_row(&index).is_err());
        let mut set = definitions()[4].to_row();
        set[6] = Value::Null;
        assert!(Definition::from_row(&set).is_err());
    }

    /// `define` makes each kind's objects and takes them away again,
    /// and refuses a definition that is already in effect.
    #[test]
    fn define_makes_and_unmakes_every_kind() {
        let mut db = crate::Database::new_in_memory();
        let rows: Vec<Vec<Value>> = definitions().iter().map(Definition::to_row).collect();
        for row in &rows {
            db.define(row, true).unwrap();
        }
        let hidden = [
            "T$$deleted",
            "T$$approval",
            "T$notes",
            "T$notes$rects",
            "T$prov",
        ];
        for name in hidden {
            assert_eq!(db.catalog.table(name).unwrap().owner, "alice", "{name}");
        }
        let t = db.catalog.table("T").unwrap();
        assert_eq!((t.indexes().len(), t.seq_indexes().len()), (1, 2));
        let set = db.catalog.annotation_set("T", "notes").unwrap();
        assert!(set.index().is_cell_scheme() && set.index().schema_enforced);
        assert!(
            db.catalog
                .annotation_set("T", "prov")
                .unwrap()
                .index()
                .system_only
        );
        for row in &rows {
            let err = db.define(row, true).unwrap_err();
            assert_eq!(err.code(), bdbms_common::ErrorCode::AlreadyExists);
        }
        for row in rows.iter().rev() {
            db.define(row, false).unwrap();
        }
        assert!(db.catalog.all_tables().all(|t| t.name.starts_with('$')));
    }

    #[test]
    fn catalog_case_insensitive() {
        let mut c = Catalog::new();
        c.add_table(gene_table()).unwrap();
        assert!(c.table("gene").is_ok());
        assert!(c.table("GENE").is_ok());
        assert!(c.has_table("Gene"));
        assert!(c.add_table(gene_table()).is_err(), "duplicate rejected");
        c.drop_table("GeNe").unwrap();
        assert!(!c.has_table("Gene"));
        assert!(c.drop_table("Gene").is_err());
    }

    #[test]
    fn long_sequences_overflow_pages() {
        let mut t = gene_table();
        let long_seq: String = "ACGT".repeat(10_000); // 40 KB
        t.insert(vec!["JW0001".into(), "big".into(), long_seq.clone().into()])
            .unwrap();
        assert_eq!(t.get(0).unwrap()[2], Value::Text(long_seq));
    }
}
