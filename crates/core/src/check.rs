//! Online integrity verification — the `CHECK [TABLE t]` statement and
//! [`Database::check`].
//!
//! Biological databases are long-lived curated artifacts: the paper's
//! motivating users (§1) accumulate years of annotations and provenance
//! that no upstream source can regenerate, so *silent* corruption is
//! strictly worse than an outage.  `CHECK` walks every consistency
//! invariant the engine can verify from a live handle and reports all
//! findings instead of stopping at the first:
//!
//! * page checksums of the durable image (`data.bdb`), read directly
//!   from disk so buffer-pool hits cannot mask a rotted page;
//! * row decodability of every table heap;
//! * secondary-index key order and index↔heap agreement;
//! * sequence-index suffix order, and each live text equal to its row's
//!   value, one per non-NULL row;
//! * each annotation set's in-memory index equal to one rebuilt from
//!   its hidden tables' rows, every attachment resolving to a record;
//! * each catalog view (users and grants, approval configs, dependency
//!   rules) equal to one rebuilt from its catalog table's rows;
//! * every live table, index, sequence index and annotation set defined
//!   by exactly one `$schema` row, and every row's object live;
//! * outdated-bitmap shape (arity) and liveness (bits only on live rows);
//! * each user table's planner statistics: per column, the NULL count
//!   exact and every live non-NULL value inside the [min, max] bounds;
//! * WAL chain continuity (segment numbering, header agreement, frame
//!   CRCs, dense LSNs) via [`verify_wal_dir`].
//!
//! The statement is read-only; it never repairs.  For opening a database
//! that `CHECK` (or open-time verification) has condemned, see salvage
//! mode in [`crate::durability`].

use std::ops::Bound;
use std::path::Path;

use bdbms_common::{BdbmsError, Result, Value};
use bdbms_storage::{
    verify_page_checksum, verify_wal_dir, FileStore, PageId, PageStore, PAGE_SIZE,
};

use crate::annotation::{AnnotationSet, Rectangle, ARCHIVED};
use crate::catalog::{
    owner_of, records_table, rects_table, Catalog, CatalogView, Definition, Kind, Table,
    APPROVAL_TABLE, AUTH_TABLE, RULES_TABLE, SCHEMA_TABLE,
};
use crate::database::Database;
use crate::durability::{DATA_FILE, WAL_DIR};
use crate::result::{AnnRow, QueryResult};

/// What [`Database::check`] verified and what it found.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Pages of the durable image whose checksums were verified.
    pub pages_checked: u64,
    /// Rows decoded from the heaps of user tables and their history
    /// tables (the catalog tables' rows are checked against the views
    /// and objects they hold instead).
    pub rows_checked: u64,
    /// Secondary-index entries and sequence-index suffix entries
    /// verified (key order + heap agreement).
    pub index_entries_checked: u64,
    /// WAL segment files scanned.
    pub wal_segments: usize,
    /// WAL frames whose CRC chain was verified.
    pub wal_frames: usize,
    /// Everything wrong, one human-readable line per finding.
    pub problems: Vec<String>,
}

impl CheckReport {
    /// Did every check pass?
    pub fn is_ok(&self) -> bool {
        self.problems.is_empty()
    }
}

impl Database {
    /// Verify the whole database; see the module docs for the invariant
    /// list.  Returns `Err` only when verification itself cannot run
    /// (e.g. an unknown table filter) — findings are in the report.
    pub fn check(&self) -> Result<CheckReport> {
        self.check_filtered(None)
    }

    /// [`check`](Self::check) restricted to one table's logical legs.
    /// The storage-wide legs (page image, WAL) always run: a damaged
    /// page is a database problem regardless of which table owns it.
    pub fn check_table(&self, table: &str) -> Result<CheckReport> {
        self.check_filtered(Some(table))
    }

    fn check_filtered(&self, filter: Option<&str>) -> Result<CheckReport> {
        if let Some(f) = filter {
            self.catalog().table(f)?; // unknown filter is an error, not a finding
        }
        let mut rep = CheckReport::default();
        if let Some(dir) = self.path() {
            check_durable_image(dir, &mut rep);
        }
        // a filtered check covers the table's history tables too; a
        // catalog table (which none owns) has its own legs below
        for t in self.catalog().all_tables() {
            let owner = owner_of(&t.name);
            let skipped = filter.is_some_and(|f| !owner.unwrap_or(&t.name).eq_ignore_ascii_case(f));
            if owner == Some("") || skipped {
                continue;
            }
            check_table(t, &mut rep);
            for set in self.catalog().ann_set_names(&t.name) {
                check_ann_set(self.catalog(), &t.name, &set, &mut rep);
            }
        }
        if filter.is_none() {
            let table = |name| self.catalog.table(name);
            check_view(&*self.auth.borrow(), table(AUTH_TABLE)?, &mut rep);
            check_view(&*self.approval.borrow(), table(APPROVAL_TABLE)?, &mut rep);
            check_view(&*self.deps.borrow(), table(RULES_TABLE)?, &mut rep);
            check_definitions(self.catalog(), &mut rep)?;
        }
        Ok(rep)
    }

    /// Execute the `CHECK` statement: run the checks and render the
    /// report as a result set, one row per leg plus one per problem.
    pub(crate) fn run_check(&self, filter: Option<&str>) -> Result<QueryResult> {
        let rep = self.check_filtered(filter)?;
        let mut qr = QueryResult {
            columns: vec!["check".into(), "detail".into()],
            ..Default::default()
        };
        let mut row = |check: &str, detail: String| {
            qr.rows.push(AnnRow::plain(vec![
                Value::Text(check.into()),
                Value::Text(detail),
            ]));
        };
        row(
            "pages",
            format!("{} page checksum(s) verified", rep.pages_checked),
        );
        row("rows", format!("{} row(s) decoded", rep.rows_checked));
        row(
            "indexes",
            format!("{} index entries verified", rep.index_entries_checked),
        );
        row(
            "wal",
            format!(
                "{} segment(s), {} frame(s)",
                rep.wal_segments, rep.wal_frames
            ),
        );
        for p in &rep.problems {
            row("problem", p.clone());
        }
        let message = if rep.is_ok() {
            "CHECK ok".to_string()
        } else {
            format!("CHECK found {} problem(s)", rep.problems.len())
        };
        Ok(QueryResult {
            message: Some(message),
            ..qr
        })
    }
}

/// Verify the on-disk artifacts: every page checksum of `data.bdb`
/// (bypassing the buffer pool — a cached frame would hide bit rot on
/// the medium) and the WAL segment chain.
fn check_durable_image(dir: &Path, rep: &mut CheckReport) {
    let data = dir.join(DATA_FILE);
    if data.exists() {
        match FileStore::open(&data) {
            Ok(mut store) => {
                let mut buf = vec![0u8; PAGE_SIZE];
                for id in 0..store.num_pages() {
                    let pid = PageId(id);
                    match store.read_page(pid, &mut buf) {
                        Ok(()) if verify_page_checksum(&buf) => rep.pages_checked += 1,
                        Ok(()) => rep.problems.push(format!(
                            "page checksum mismatch on {pid} of the durable image"
                        )),
                        Err(e) => rep.problems.push(format!("cannot read {pid}: {e}")),
                    }
                }
            }
            Err(e) => rep
                .problems
                .push(format!("cannot open the durable image: {e}")),
        }
    }
    match verify_wal_dir(dir.join(WAL_DIR)) {
        Ok(w) => {
            rep.wal_segments = w.segments;
            rep.wal_frames = w.frames;
            rep.problems.extend(w.problems);
        }
        Err(e) => rep.problems.push(format!("cannot scan WAL directory: {e}")),
    }
}

/// Verify one table's logical invariants, one decoded row at a time.
fn check_table(t: &Table, rep: &mut CheckReport) {
    let name = &t.name;
    // Row decodability, and each heap `(key, row)` pair probed in each
    // index: per index, (non-NULL keys, some pair not indexed); and per
    // sequence index, (non-NULL texts, some row's text not the indexed
    // one).  Reads go through the live buffer pool, which verifies cold
    // page checksums.
    let mut heap_side = vec![(0u64, false); t.indexes().len()];
    let mut seq_side = vec![(0u64, false); t.seq_indexes().len()];
    // per column with statistics (a hidden table keeps none): (NULLs,
    // some value outside the bounds)
    let stats = t.stats();
    let mut stats_side = vec![(0u64, false); stats.arity()];
    for entry in t.iter_rows() {
        match entry {
            Ok((no, values)) => {
                rep.rows_checked += 1;
                for (col, (nulls, outside)) in stats_side.iter_mut().enumerate() {
                    let (v, c) = (&values[col], stats.column(col));
                    match (&c.min, &c.max) {
                        _ if v.is_null() => *nulls += 1,
                        (Some(min), Some(max)) => *outside |= v < min || v > max,
                        _ => *outside = true,
                    }
                }
                for (idx, (expected, missing)) in t.indexes().iter().zip(&mut heap_side) {
                    let key = Bound::Included(&values[idx.column]);
                    if !values[idx.column].is_null() {
                        *expected += 1;
                        *missing |= idx.probe(key, key).binary_search(&no).is_err();
                    }
                }
                for (sidx, (expected, wrong)) in t.seq_indexes().iter().zip(&mut seq_side) {
                    if let Value::Text(s) = &values[sidx.column] {
                        *expected += 1;
                        *wrong |= !sidx.holds(no, s);
                    }
                }
            }
            Err(e) => rep
                .problems
                .push(format!("table `{name}`: unreadable row: {e}")),
        }
    }
    // Secondary indexes: tree order, then agreement with the heap.  Row
    // numbers are unique, so "every heap pair is indexed" plus "the index
    // holds exactly as many entries" is equality of the two pair sets.
    for (idx, (expected, missing)) in t.indexes().iter().zip(heap_side) {
        let mut indexed = 0u64;
        let mut in_order = true;
        let mut prev: Option<Value> = None;
        idx.visit_keys(|k| {
            indexed += 1;
            in_order &= prev.replace(k.clone()).is_none_or(|p| &p <= k);
        });
        rep.index_entries_checked += indexed;
        if !in_order {
            rep.problems.push(format!(
                "index `{}` on `{name}`: keys out of order",
                idx.name
            ));
        }
        if missing || indexed != expected {
            rep.problems.push(format!(
                "index `{}` on `{name}` disagrees with the heap \
                 ({indexed} indexed vs {expected} expected entries)",
                idx.name
            ));
        }
    }
    // Sequence indexes: suffix order, then one live text per non-NULL
    // row, each its row's value.
    for (sidx, (expected, wrong)) in t.seq_indexes().iter().zip(seq_side) {
        let (entries, ordered) = sidx.verify_order();
        rep.index_entries_checked += entries as u64;
        if !ordered {
            rep.problems.push(format!(
                "sequence index `{}` on `{name}`: suffixes out of order",
                sidx.name
            ));
        }
        if wrong || sidx.len() as u64 != expected {
            rep.problems.push(format!(
                "sequence index `{}` on `{name}` disagrees with the heap \
                 ({} indexed vs {expected} expected texts)",
                sidx.name,
                sidx.len()
            ));
        }
    }
    // Statistics: exact NULL counts, and bounds holding every value
    // (deletes never narrow them, so they may be wider than the values).
    for (col, (nulls, outside)) in stats_side.into_iter().enumerate() {
        let column = &t.schema.columns()[col].name;
        let stored = stats.column(col).null_count;
        if nulls != stored {
            rep.problems.push(format!(
                "statistics of `{name}`.`{column}`: {stored} NULL(s) counted, {nulls} live"
            ));
        }
        if outside {
            rep.problems.push(format!(
                "statistics of `{name}`.`{column}`: a live value lies outside the bounds"
            ));
        }
    }
    // Outdated bitmap: right shape, bits only on live rows.
    if t.outdated.cols() != t.schema.arity() {
        rep.problems.push(format!(
            "table `{name}`: outdated bitmap has {} column(s), schema has {}",
            t.outdated.cols(),
            t.schema.arity()
        ));
    }
    for (r, c) in t.outdated.iter_set() {
        if !t.contains_row(r as u64) {
            rep.problems.push(format!(
                "table `{name}`: outdated bit on dead row {r}, column {c}"
            ));
        }
    }
}

/// Verify one annotation set: its in-memory index must equal one
/// rebuilt from its record and rectangle rows.
fn check_ann_set(catalog: &Catalog, table: &str, set: &str, rep: &mut CheckReport) {
    let rebuilt = (|| -> Result<bool> {
        let live = catalog.annotation_set(table, set)?.index();
        let mut fresh = AnnotationSet::new(set, live.is_cell_scheme());
        for row in catalog.table(&records_table(table, set))?.iter_rows() {
            let (id, row) = row?;
            fresh.record_written(id, Some(row[ARCHIVED] == Value::Bool(true)));
        }
        for row in catalog.table(&rects_table(table, set))?.iter_rows() {
            let (key, row) = row?;
            let r = Rectangle::from_row(&row)
                .ok_or_else(|| BdbmsError::corrupt(format!("malformed rectangle row {key}")))?;
            fresh.attach(&r);
        }
        Ok(live.same_index(&fresh))
    })();
    let problem = match rebuilt {
        Ok(true) => return,
        Ok(false) => "attachment index disagrees with its rows".to_string(),
        Err(e) => format!("unreadable history: {e}"),
    };
    rep.problems
        .push(format!("annotation set `{set}` on `{table}`: {problem}"));
}

/// Every row of catalog table `t`, or `None` with the first unreadable
/// one reported.
fn catalog_rows(t: &Table, rep: &mut CheckReport) -> Option<Vec<(u64, Vec<Value>)>> {
    let rows = t.iter_rows().collect::<Result<Vec<_>>>();
    rows.inspect_err(|e| {
        let problem = format!("catalog table `{}`: unreadable row: {e}", t.name);
        rep.problems.push(problem);
    })
    .ok()
}

/// Verify one catalog view: it must equal one rebuilt from its table's
/// rows.
fn check_view<V: CatalogView + Default + PartialEq>(live: &V, t: &Table, rep: &mut CheckReport) {
    let Some(rows) = catalog_rows(t, rep) else {
        return;
    };
    let mut fresh = V::default();
    for (row_no, row) in rows {
        fresh.apply(row_no, &row, true);
    }
    if *live != fresh {
        rep.problems.push(format!(
            "catalog table `{}`: its view disagrees with its rows",
            t.name
        ));
    }
}

/// Verify the definitions: each live table (owner, schema), index,
/// sequence index and annotation set (scheme, flags) has exactly one
/// `$schema` row, and each row's object is live.
fn check_definitions(catalog: &Catalog, rep: &mut CheckReport) -> Result<()> {
    let mut live = Vec::new();
    for t in catalog.tables() {
        let table = &t.name;
        let mut add = |name: &str, kind| {
            let (table, name) = (table.clone(), name.to_string());
            live.push(Definition { table, name, kind }.to_row());
        };
        let (owner, schema) = (t.owner.clone(), t.schema.clone());
        add(table, Kind::Table { owner, schema });
        let indexes = t.indexes().iter().map(|i| (&i.name, i.column, None));
        let seq_indexes = t
            .seq_indexes()
            .iter()
            .map(|i| (&i.name, i.column, Some(i.kind)));
        for (name, col, seq) in indexes.chain(seq_indexes) {
            let column = t.schema.columns()[col].name.clone();
            add(name, Kind::Index { column, seq });
        }
        for name in catalog.ann_set_names(table) {
            let set = catalog.annotation_set(table, &name)?.index();
            let kind = Kind::Set {
                cell_scheme: set.is_cell_scheme(),
                system_only: set.system_only,
                schema_enforced: set.schema_enforced,
            };
            add(&name, kind);
        }
    }
    let what = |row: &[Value]| format!("{} `{}` on `{}`", row[1], row[2], row[0]);
    let Some(rows) = catalog_rows(catalog.table(SCHEMA_TABLE)?, rep) else {
        return Ok(());
    };
    for (row_no, row) in rows {
        match live.iter().position(|l| *l == row) {
            Some(i) => drop(live.swap_remove(i)),
            None => rep.problems.push(format!(
                "catalog table `{SCHEMA_TABLE}`: row {row_no} defines no live {}",
                what(&row)
            )),
        }
    }
    for row in live {
        rep.problems.push(format!(
            "catalog table `{SCHEMA_TABLE}`: no row defines {}",
            what(&row)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bdbms_common::{DataType, Schema};
    use bdbms_storage::{BufferPool, MemStore};

    use super::*;
    use crate::ast::SeqIndexKind;
    use crate::Database;

    /// `T (K INT, V TEXT)` with rows 0..3 (`K` = 10, 20, 30) and an index
    /// on `K`.
    fn table() -> Table {
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 16));
        let schema = Schema::of(&[("K", DataType::Int), ("V", DataType::Text)]);
        let mut t = Table::create("T", schema, "admin", pool).unwrap();
        for k in [10, 20, 30] {
            t.insert(vec![Value::Int(k), Value::Text("v".into())])
                .unwrap();
        }
        t.create_index("k_idx", "K", None).unwrap();
        t
    }

    fn problems(t: &Table) -> Vec<String> {
        let mut rep = CheckReport::default();
        check_table(t, &mut rep);
        rep.problems
    }

    #[test]
    fn an_intact_table_passes() {
        let t = table();
        let mut rep = CheckReport::default();
        check_table(&t, &mut rep);
        assert!(rep.is_ok(), "{:?}", rep.problems);
        assert_eq!((rep.rows_checked, rep.index_entries_checked), (3, 3));
    }

    #[test]
    fn an_index_missing_an_entry_disagrees() {
        let mut t = table();
        t.damage_index(0, &Value::Int(20), 1, false);
        assert_eq!(
            problems(&t),
            ["index `k_idx` on `T` disagrees with the heap (2 indexed vs 3 expected entries)"]
        );
    }

    #[test]
    fn an_index_with_an_extra_entry_disagrees() {
        let mut t = table();
        t.damage_index(0, &Value::Int(20), 7, true);
        assert_eq!(
            problems(&t),
            ["index `k_idx` on `T` disagrees with the heap (4 indexed vs 3 expected entries)"]
        );
    }

    #[test]
    fn a_same_count_wrong_pair_disagrees() {
        // row 1's entry moves from key 20 to key 30: the counts still
        // match, only the membership probe can see it
        let mut t = table();
        t.damage_index(0, &Value::Int(20), 1, false);
        t.damage_index(0, &Value::Int(30), 1, true);
        assert_eq!(
            problems(&t),
            ["index `k_idx` on `T` disagrees with the heap (3 indexed vs 3 expected entries)"]
        );
    }

    #[test]
    fn an_unreadable_record_is_reported() {
        let mut t = table();
        t.damage_record(1, b"short");
        let found = problems(&t);
        assert!(
            found[0].starts_with("table `T`: unreadable row: "),
            "{found:?}"
        );
        // the index still holds the row the heap can no longer decode
        assert_eq!(
            found[1..],
            ["index `k_idx` on `T` disagrees with the heap (3 indexed vs 2 expected entries)"]
        );
    }

    /// `S (K INT, V TEXT)` with a sequence index of `kind` on `V` over
    /// rows 0..4, row 2's `V` NULL.
    fn seq_table(kind: SeqIndexKind) -> Table {
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 16));
        let schema = Schema::of(&[("K", DataType::Int), ("V", DataType::Text)]);
        let mut t = Table::create("S", schema, "admin", pool).unwrap();
        for (k, v) in [
            (1, Some("HHEEL")),
            (2, Some("HHEEL")),
            (3, None),
            (4, Some("LHHE")),
        ] {
            let v = v.map_or(Value::Null, |v| Value::Text(v.into()));
            t.insert(vec![Value::Int(k), v]).unwrap();
        }
        t.create_index("sx", "V", Some(kind)).unwrap();
        t
    }

    #[test]
    fn an_intact_sequence_index_counts_its_suffixes() {
        // 3 + 3 + 3 run boundaries, or 5 + 5 + 4 bytes
        for (kind, suffixes) in [(SeqIndexKind::Sbc, 9), (SeqIndexKind::Suffix, 14)] {
            let mut rep = CheckReport::default();
            check_table(&seq_table(kind), &mut rep);
            assert!(rep.is_ok(), "{:?}", rep.problems);
            assert_eq!((rep.rows_checked, rep.index_entries_checked), (4, suffixes));
        }
    }

    #[test]
    fn a_row_missing_from_a_sequence_index_is_reported() {
        for kind in [SeqIndexKind::Sbc, SeqIndexKind::Suffix] {
            let mut t = seq_table(kind);
            t.damage_seq_index(0, 1);
            assert_eq!(
                problems(&t),
                ["sequence index `sx` on `S` disagrees with the heap (2 indexed vs 3 expected texts)"]
            );
        }
    }

    #[test]
    fn a_sequence_order_with_two_neighbours_swapped_is_reported() {
        for kind in [SeqIndexKind::Sbc, SeqIndexKind::Suffix] {
            let mut t = seq_table(kind);
            t.damage_seq_order(0, 0);
            assert_eq!(
                problems(&t),
                ["sequence index `sx` on `S`: suffixes out of order"]
            );
        }
    }

    /// Stored statistics must hold the live rows: a bound that excludes
    /// a live value, or a NULL count off by one, is reported.
    #[test]
    fn statistics_that_exclude_a_live_value_are_reported() {
        let mut t = table();
        t.insert(vec![Value::Int(40), Value::Null]).unwrap();
        // deletes leave the bounds wide: still fine
        t.delete(0).unwrap();
        assert!(problems(&t).is_empty(), "{:?}", problems(&t));
        // bounds and NULL count as of rows 1..2 only: 40 lies above, and
        // the NULL of row 3 is not counted
        let mut narrow = crate::stats::TableStats::new(2);
        for k in [20, 30] {
            narrow.observe_row(&[Value::Int(k), Value::Text("v".into())]);
        }
        t.set_stats(narrow);
        assert_eq!(
            problems(&t),
            [
                "statistics of `T`.`K`: a live value lies outside the bounds",
                "statistics of `T`.`V`: 0 NULL(s) counted, 1 live",
            ]
        );
    }

    #[test]
    fn an_outdated_bit_on_a_dead_row_is_reported() {
        let mut t = table();
        t.delete(2).unwrap();
        t.outdated.set(2, 1);
        assert_eq!(
            problems(&t),
            ["table `T`: outdated bit on dead row 2, column 1"]
        );
    }

    /// An annotation set's in-memory index must equal the one its rows
    /// rebuild.
    #[test]
    fn an_annotation_index_out_of_step_with_its_rows_is_reported() {
        let mut db = Database::new_in_memory();
        for sql in [
            "CREATE TABLE T (v INT)",
            "CREATE ANNOTATION TABLE a ON T",
            "INSERT INTO T VALUES (1), (2)",
            "ADD ANNOTATION TO T.a VALUE 'x' ON (SELECT G.v FROM T G)",
        ] {
            db.execute(sql).unwrap();
        }
        assert!(db.check().unwrap().is_ok());
        let records = db.catalog.table("T$a").unwrap();
        // archived in memory only: the record row still says live
        let set = records.annotation_set().unwrap();
        set.borrow_mut().record_written(0, Some(true));
        assert_eq!(
            db.check().unwrap().problems,
            ["annotation set `a` on `T`: attachment index disagrees with its rows"]
        );
    }

    /// Each catalog view must equal the one its table's rows rebuild.
    #[test]
    fn a_catalog_view_out_of_step_with_its_rows_is_reported() {
        let mut db = Database::new_in_memory();
        for sql in [
            "CREATE TABLE T (v INT)",
            "CREATE TABLE U (v INT)",
            "CREATE USER alice IN GROUP lab",
            "GRANT SELECT ON T TO alice",
            "START CONTENT APPROVAL ON T COLUMNS v APPROVED BY lab",
            "CREATE DEPENDENCY RULE r FROM T.v TO U.v VIA PROCEDURE 'p' LINK T.v = U.v",
        ] {
            db.execute(sql).unwrap();
        }
        assert!(db.check().unwrap().is_ok());
        // each view takes in one row its table does not hold
        let ghosts = [
            (
                AUTH_TABLE,
                vec![Value::Null, "bob".into(), Value::Null, Value::Null],
            ),
            (
                APPROVAL_TABLE,
                crate::approval::ApprovalManager::floor_row(9),
            ),
            (RULES_TABLE, db.dependencies().rules()[0].to_row()),
        ];
        let mut problems = Vec::new();
        for (table, row) in ghosts {
            let view = db.catalog_tables().into_iter().find(|c| c.0 == table);
            view.unwrap().2.unwrap().borrow_mut().apply(7, &row, true);
            problems = db.check().unwrap().problems;
            assert!(
                problems.contains(&format!(
                    "catalog table `{table}`: its view disagrees with its rows"
                )),
                "{problems:?}"
            );
        }
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(
            db.check_table("T").unwrap().is_ok(),
            "a filtered check skips the catalog"
        );
    }

    /// Each live table, index and set has exactly one `$schema` row, and
    /// each row its object.
    #[test]
    fn a_definition_out_of_step_with_its_object_is_reported() {
        let mut db = Database::new_in_memory();
        for sql in [
            "CREATE TABLE T (v INT)",
            "CREATE INDEX v_idx ON T (v)",
            "CREATE ANNOTATION TABLE a ON T",
        ] {
            db.execute(sql).unwrap();
        }
        assert!(db.check().unwrap().is_ok());
        // a ghost: a row whose index was never made
        let kind = Kind::Index {
            column: "v".into(),
            seq: None,
        };
        let (table, name) = ("T".to_string(), "ghost".to_string());
        let ghost = Definition { table, name, kind }.to_row();
        let schema = db.catalog.table_mut(SCHEMA_TABLE).unwrap();
        schema.insert(ghost).unwrap();
        assert_eq!(
            db.check().unwrap().problems,
            ["catalog table `$schema`: row 3 defines no live INDEX `ghost` on `T`"]
        );
        // and an index no row defines
        let t = db.catalog.table_mut("T").unwrap();
        t.create_index("bare", "v", None).unwrap();
        t.drop_index("v_idx", false).unwrap();
        assert_eq!(
            db.check().unwrap().problems,
            [
                "catalog table `$schema`: row 1 defines no live INDEX `v_idx` on `T`",
                "catalog table `$schema`: row 3 defines no live INDEX `ghost` on `T`",
                "catalog table `$schema`: no row defines INDEX `bare` on `T`",
            ]
        );
        assert!(
            db.check_table("T").unwrap().is_ok(),
            "a filtered check skips it"
        );
    }
}
