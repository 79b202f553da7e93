//! Session-level transactions: the one transaction log.
//!
//! bdbms targets curated biological databases where base data,
//! annotations, provenance, and derived cells must change together or
//! not at all (§3–§5 of the paper).  This module supplies the mechanism:
//! a **transaction log** of `LogEntry`s, one per change the engine
//! makes, each holding
//!
//! * the change's **redo** `WalRecord` — built lazily, and only for a
//!   durable database; commit hands these to the WAL in order — and
//! * its **inverse** `UndoOp`.  Most inverses are themselves
//!   `WalRecord`s (an insert's inverse is a `RowDelete`, a delete's a
//!   `RowInsert` of the old image, an update's a `RowUpdate` back to it,
//!   an outdated mark's an `OutdatedClear`), so rollback applies them
//!   through `Database::apply_wal_record`, the code crash recovery
//!   replays with.
//!
//! The mutator that emits the redo record records the inverse in the
//! same call, so the two halves cannot drift apart.  The curator's
//! history — annotation records and attachments, the deletion logs and
//! the approval logs — the catalog's users, grants, approval configs
//! and dependency rules, and the definitions of tables, indexes,
//! sequence indexes and annotation sets are rows of hidden tables
//! (`crate::catalog`), so their changes are row records with row
//! inverses like any other.  A definition row's record, replayed or
//! undone, puts the definition into or out of effect
//! (`Database::define`); a table or set a definition's removal takes out
//! is kept by the transaction until it ends, and the removal's inverse
//! puts it back whole instead of re-creating it empty.  Two inverses
//! have no redo twin and stay undo-only: `COPY`'s row truncation, and
//! one first-touch table snapshot per frame for state with no cheap
//! logical inverse: planner statistics (a KMV sketch cannot retract an
//! observation), the row-number allocator (which also hands out
//! annotation, operation and rule ids) and the outdated bitmap's row
//! count.
//!
//! ## How rollback works
//!
//! Rollback takes the entries past a watermark and applies their
//! inverses **newest first**, with the log suspended so the replayed
//! mutations record nothing.  Snapshots are recorded *before* the first
//! mutation they cover, so in reverse order they apply last and settle
//! the final state.  The redo halves of the taken entries simply vanish:
//! they describe work that no longer survives, so the WAL never sees
//! them.
//!
//! Savepoints and statement boundaries are watermarks (log lengths).
//! At every watermark the first-touch set is reset, so the next
//! mutation of a table re-snapshots it *at the watermark's state* —
//! which is exactly what a partial rollback must restore.  Extra
//! snapshots are harmless (an older snapshot applied after a newer one
//! wins, and both describe the same restore point for the entries
//! between them).
//!
//! ## What is (and is not) transactional
//!
//! Every statement but `COPY` is undone by rollback: DML, table/index
//! DDL, `ANALYZE`, annotation commands (including provenance attachments
//! recorded through the system API), dependency rule DDL, `VALIDATE`,
//! `CREATE USER`, `GRANT`/`REVOKE`, `START/STOP CONTENT APPROVAL` and
//! `APPROVE/DISAPPROVE OPERATION`.  `COPY` commits by checkpoint and is
//! rejected inside an explicit transaction with a
//! [`bdbms_common::ErrorCode::TxnState`] error.
//!
//! Rollback never rewinds the catalog generation: it *bumps* it, so a
//! prepared plan cached against mid-transaction DDL (say a `CREATE
//! INDEX` that was rolled back) can never be replayed against the
//! restored catalog.  See `docs/TRANSACTIONS.md`.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use crate::catalog::Table;
use crate::database::Database;
use crate::durability::WalRecord;
use crate::stats::TableStats;

/// Observable state of the transaction machinery (see
/// [`crate::Database::transaction_status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnStatus {
    /// No transaction open; every statement runs in its own implicit one.
    Idle,
    /// An explicit `BEGIN` is open.
    Active {
        /// Number of live savepoints.
        savepoints: usize,
    },
}

/// One recorded inverse.  Applied in reverse recording order by
/// rollback; every application is tolerant of objects that earlier
/// undo steps (or the recorded history itself) already removed.
pub(crate) enum UndoOp {
    /// An inverse that is itself a redo record, applied through the
    /// recovery replay path (`Database::apply_wal_record`).
    Replay(WalRecord),
    /// Undo a `COPY` bulk load: remove every row the load appended
    /// (they all sit at or above `first_row`).  The accompanying
    /// first-touch snapshot restores stats / allocator / bitmap size.
    UnBulkLoad { table: String, first_row: u64 },
    /// First-touch snapshot of a table's non-row state: planner stats
    /// (the KMV sketch cannot retract), the row-number allocator, and
    /// the outdated bitmap's row count (its bits are restored by the
    /// marks' and clears' own inverses).
    RestoreTableState {
        table: String,
        stats: TableStats,
        next_row: u64,
        outdated_rows: usize,
    },
}

impl UndoOp {
    /// Apply this inverse against the live engine state.  Missing
    /// objects are skipped: they can only be missing because the
    /// recorded history already accounts for them (e.g. a row op on a
    /// table the same rollback later un-creates).
    pub(crate) fn apply(self, db: &mut Database) {
        let catalog = &mut db.catalog;
        match self {
            UndoOp::Replay(rec) => {
                let _ = db.apply_wal_record(rec);
            }
            UndoOp::UnBulkLoad { table, first_row } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    let _ = t.truncate_rows_from(first_row);
                }
            }
            UndoOp::RestoreTableState {
                table,
                stats,
                next_row,
                outdated_rows,
            } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    t.set_stats(stats);
                    t.set_next_row(next_row);
                    t.outdated.truncate_rows(outdated_rows);
                }
            }
        }
    }
}

/// One change of the open transaction: its redo record (durable
/// databases only) and its inverse.  Either half may be absent — a
/// change whose undo is a snapshot, or which flipped nothing (an
/// outdated mark on a marked cell), has no inverse of its own; a
/// snapshot has no redo.
pub(crate) struct LogEntry {
    redo: Option<WalRecord>,
    undo: Option<UndoOp>,
}

impl LogEntry {
    /// The inverse half (rollback applies these newest first).
    pub(crate) fn into_undo(self) -> Option<UndoOp> {
        self.undo
    }
}

/// The transaction log, shared (see [`SharedLog`]) between the
/// transaction runtime (watermarks, commit, rollback), every [`Table`]
/// (row, index, annotation-set and outdated-bit changes) and the
/// [`Database`] (table and annotation-set DDL).  A table not yet
/// attached to a database holds a default one, which records nothing.
#[derive(Default)]
pub(crate) struct TxnLog {
    entries: Vec<LogEntry>,
    /// Build redo records (durable databases).
    durable: bool,
    /// A transaction (implicit or explicit) is open.
    open: bool,
    /// Non-zero while rollback applies inverses (their own mutations
    /// must record nothing) or `COPY` loads (it commits by checkpoint,
    /// and its one inverse truncates the whole load).
    suspended: u32,
}

/// Shared handle to the [`TxnLog`].
pub(crate) type SharedLog = Rc<RefCell<TxnLog>>;

impl TxnLog {
    fn recording(&self) -> bool {
        self.open && self.suspended == 0
    }

    /// Record a change and its inverse, each built only when needed.
    pub(crate) fn record(
        &mut self,
        redo: impl FnOnce() -> WalRecord,
        undo: impl FnOnce() -> UndoOp,
    ) {
        if self.recording() {
            let redo = self.durable.then(redo);
            self.entries.push(LogEntry {
                redo,
                undo: Some(undo()),
            });
        }
    }

    /// Record a change whose inverse lives elsewhere (a snapshot or
    /// watermark) or that has none.
    pub(crate) fn record_redo(&mut self, redo: impl FnOnce() -> WalRecord) {
        if self.recording() && self.durable {
            self.entries.push(LogEntry {
                redo: Some(redo()),
                undo: None,
            });
        }
    }

    /// Record an inverse with no redo twin.
    pub(crate) fn record_undo(&mut self, undo: impl FnOnce() -> UndoOp) {
        if self.recording() {
            self.entries.push(LogEntry {
                redo: None,
                undo: Some(undo()),
            });
        }
    }
}

/// Mode of the transaction machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Not recording.
    Idle,
    /// Recording for the implicit transaction around one statement.
    Implicit,
    /// Recording for an explicit `BEGIN`.
    Explicit,
}

/// The per-connection transaction runtime: mode, the log, savepoint
/// watermarks, and the first-touch bookkeeping that decides when a
/// table snapshot must be recorded.  Owned by [`crate::Database`];
/// driven by the [`crate::Session`] state machine.
pub(crate) struct TxnRuntime {
    mode: Mode,
    log: SharedLog,
    /// Savepoint stack: `(lowercased name, watermark)`.  Names may
    /// shadow; lookups find the most recent.
    savepoints: Vec<(String, usize)>,
    /// Tables snapshotted since the last watermark (lowercased names).
    touched_tables: HashSet<String>,
    /// Tables with a *retained* snapshot since the last frame boundary
    /// (`BEGIN` / `SAVEPOINT` / `ROLLBACK TO`).  A later statement's
    /// snapshot of such a table only serves that statement's own
    /// rollback — [`statement_succeeded`](Self::statement_succeeded)
    /// prunes it, so a long transaction holds one snapshot per table
    /// per frame instead of one per table per statement.
    frame_tables: HashSet<String>,
    /// Tables a definition's removal took out while the log recorded,
    /// under the removed table's lowercased name, oldest first; the
    /// removal's inverse takes them back.  Undo runs newest first, so
    /// the last entry of a name is always the one to put back.
    kept: Vec<(String, Vec<Table>)>,
}

impl TxnRuntime {
    pub(crate) fn new() -> TxnRuntime {
        TxnRuntime {
            mode: Mode::Idle,
            log: SharedLog::default(),
            savepoints: Vec::new(),
            touched_tables: HashSet::new(),
            frame_tables: HashSet::new(),
            kept: Vec::new(),
        }
    }

    fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
        self.log.borrow_mut().open = mode != Mode::Idle;
    }

    /// Is any transaction (implicit or explicit) recording?
    pub(crate) fn recording(&self) -> bool {
        self.mode != Mode::Idle
    }

    /// Is an explicit `BEGIN` open?
    pub(crate) fn explicit(&self) -> bool {
        self.mode == Mode::Explicit
    }

    /// Number of live savepoints.
    pub(crate) fn savepoint_count(&self) -> usize {
        self.savepoints.len()
    }

    /// The shared log (tables attach to it).
    pub(crate) fn log(&self) -> SharedLog {
        self.log.clone()
    }

    /// Build redo records from now on (durable databases).
    pub(crate) fn set_durable(&self) {
        self.log.borrow_mut().durable = true;
    }

    /// See [`TxnLog::record_undo`].
    pub(crate) fn record_undo(&self, undo: impl FnOnce() -> UndoOp) {
        self.log.borrow_mut().record_undo(undo);
    }

    /// Keep the `tables` a definition's removal took out, if the log
    /// records the removal: its inverse will want them back.
    pub(crate) fn keep(&mut self, name: &str, tables: Vec<Table>) {
        if self.log.borrow().recording() {
            self.kept.push((name.to_ascii_lowercase(), tables));
        }
    }

    /// The tables kept under `name`, while rollback applies inverses (a
    /// live statement re-using the name gets none: its table is new).
    pub(crate) fn take_kept(&mut self, name: &str) -> Option<Vec<Table>> {
        if self.log.borrow().suspended == 0 {
            return None;
        }
        let key = name.to_ascii_lowercase();
        let pos = self.kept.iter().rposition(|(k, _)| *k == key)?;
        Some(self.kept.remove(pos).1)
    }

    /// Stop recording while rollback applies inverses or `COPY` loads.
    pub(crate) fn suspend(&self) {
        self.log.borrow_mut().suspended += 1;
    }

    /// Resume recording.
    pub(crate) fn resume(&self) {
        let mut log = self.log.borrow_mut();
        debug_assert!(log.suspended > 0);
        log.suspended -= 1;
    }

    /// Should the caller record a first-touch table snapshot now?
    /// (Registers the touch.)
    pub(crate) fn table_needs_snapshot(&mut self, table: &str) -> bool {
        self.recording() && self.touched_tables.insert(table.to_ascii_lowercase())
    }

    /// A watermark at the current end of the log.  The first-touch set
    /// is reset so the next mutation re-snapshots at this point's state
    /// (the invariant every partial rollback needs).
    pub(crate) fn watermark(&mut self) -> usize {
        self.touched_tables.clear();
        self.log.borrow().entries.len()
    }

    /// Take the redo records, in order (commit hands them to the WAL).
    /// The inverses stay: a failed WAL write still rolls back.
    pub(crate) fn take_redo(&mut self) -> Vec<WalRecord> {
        let mut log = self.log.borrow_mut();
        log.entries
            .iter_mut()
            .filter_map(|e| e.redo.take())
            .collect()
    }

    /// Does any entry carry a redo record?
    pub(crate) fn has_redo(&self) -> bool {
        self.log.borrow().entries.iter().any(|e| e.redo.is_some())
    }

    fn reset_frames(&mut self) {
        self.touched_tables.clear();
        self.frame_tables.clear();
    }

    /// A statement inside an explicit transaction completed: prune the
    /// snapshots it recorded for tables the current frame already holds
    /// a snapshot of.  Those copies could only ever serve the
    /// statement's own rollback (every live mark — `BEGIN` and each
    /// savepoint — is older than the frame's retained snapshot, and
    /// during reverse replay the older snapshot wins), so keeping them
    /// would grow the log by a full stats copy per statement.
    pub(crate) fn statement_succeeded(&mut self, mark: usize) {
        if self.mode != Mode::Explicit {
            return;
        }
        let frame = &self.frame_tables;
        let mut log = self.log.borrow_mut();
        let at = mark.min(log.entries.len());
        let tail = log.entries.split_off(at);
        log.entries.extend(tail.into_iter().filter(|e| {
            !matches!(&e.undo, Some(UndoOp::RestoreTableState { table, .. })
                if frame.contains(&table.to_ascii_lowercase()))
        }));
        drop(log);
        self.frame_tables.extend(self.touched_tables.drain());
    }

    /// Number of log entries (tests observe snapshot pruning).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.log.borrow().entries.len()
    }

    /// Open the implicit transaction around one statement (idle only).
    pub(crate) fn begin_implicit(&mut self) {
        debug_assert_eq!(self.mode, Mode::Idle);
        self.set_mode(Mode::Implicit);
        self.touched_tables.clear();
    }

    /// Open an explicit transaction (idle only — nested `BEGIN` is the
    /// caller's `TxnState` error).
    pub(crate) fn begin_explicit(&mut self) {
        debug_assert_eq!(self.mode, Mode::Idle);
        self.set_mode(Mode::Explicit);
        self.reset_frames();
    }

    /// Return to idle, forgetting savepoints and frames.
    fn end(&mut self) {
        self.set_mode(Mode::Idle);
        self.savepoints.clear();
        self.reset_frames();
    }

    /// Commit: discard the log (keeping its capacity) and the kept
    /// tables, and return to idle.  (For durable databases the redo
    /// records were already handed to the WAL by `Database::wal_commit`.)
    pub(crate) fn commit(&mut self) {
        self.end();
        self.log.borrow_mut().entries.clear();
        self.kept.clear();
    }

    /// Take every entry (rollback of the whole transaction) and return
    /// to idle.  The caller applies the inverses in reverse; the redo
    /// records go with them — nothing of this transaction may reach the
    /// WAL.
    pub(crate) fn take_all(&mut self) -> Vec<LogEntry> {
        self.end();
        std::mem::take(&mut self.log.borrow_mut().entries)
    }

    /// Take the entries recorded past `mark` (partial rollback —
    /// savepoint or failed statement).  The transaction stays open;
    /// savepoints created past the mark are dropped and the first-touch
    /// and frame sets reset: snapshots consumed by this rollback are no
    /// longer retained, so later touches re-snapshot (redundant copies
    /// for tables whose frame snapshot pre-dates the mark are harmless —
    /// the older snapshot wins during reverse replay).
    pub(crate) fn take_after(&mut self, mark: usize) -> Vec<LogEntry> {
        self.savepoints.retain(|&(_, m)| m <= mark);
        self.reset_frames();
        let mut log = self.log.borrow_mut();
        let at = mark.min(log.entries.len());
        log.entries.split_off(at)
    }

    /// Create a savepoint at the current point.  Starts a new snapshot
    /// frame: the savepoint is a fresh restore target, so the next touch
    /// of each table must snapshot (and retain) its state here.
    pub(crate) fn add_savepoint(&mut self, name: &str) {
        let mark = self.watermark();
        self.reset_frames();
        self.savepoints.push((name.to_ascii_lowercase(), mark));
    }

    /// The watermark of the most recent savepoint with this name.
    pub(crate) fn find_savepoint(&self, name: &str) -> Option<usize> {
        let key = name.to_ascii_lowercase();
        self.savepoints
            .iter()
            .rev()
            .find(|(n, _)| *n == key)
            .map(|&(_, m)| m)
    }

    /// Release the most recent savepoint with this name and every
    /// savepoint created after it.  Returns false if unknown.
    pub(crate) fn release_savepoint(&mut self, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        match self.savepoints.iter().rposition(|(n, _)| *n == key) {
            Some(pos) => {
                self.savepoints.truncate(pos);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermarks_reset_first_touch_sets() {
        let mut txn = TxnRuntime::new();
        assert!(!txn.table_needs_snapshot("Gene"), "idle records nothing");
        txn.begin_explicit();
        assert!(txn.table_needs_snapshot("Gene"));
        assert!(!txn.table_needs_snapshot("GENE"), "case-insensitive");
        let _ = txn.watermark();
        assert!(txn.table_needs_snapshot("Gene"), "re-snapshot after mark");
    }

    fn table_snapshot(table: &str) -> UndoOp {
        UndoOp::RestoreTableState {
            table: table.into(),
            stats: TableStats::new(1),
            next_row: 0,
            outdated_rows: 0,
        }
    }

    fn row_delete(row_no: u64) -> WalRecord {
        WalRecord::RowDelete {
            table: "t".into(),
            row_no,
        }
    }

    fn insert(txn: &TxnRuntime, row_no: u64) {
        txn.log().borrow_mut().record(
            || WalRecord::RowInsert {
                table: "t".into(),
                row_no,
                values: Vec::new(),
            },
            || UndoOp::Replay(row_delete(row_no)),
        );
    }

    #[test]
    fn redundant_statement_snapshots_are_pruned() {
        let mut txn = TxnRuntime::new();
        txn.begin_explicit();
        // statement 1 first-touches t: snapshot retained
        let m = txn.watermark();
        assert!(txn.table_needs_snapshot("t"));
        txn.record_undo(|| table_snapshot("t"));
        insert(&txn, 0);
        txn.statement_succeeded(m);
        assert_eq!(txn.len(), 2);
        // statement 2 re-snapshots for its own rollback; the copy is
        // pruned on success — the log stays one snapshot per frame
        let m = txn.watermark();
        assert!(txn.table_needs_snapshot("t"), "per-statement re-snapshot");
        txn.record_undo(|| table_snapshot("t"));
        insert(&txn, 1);
        txn.statement_succeeded(m);
        assert_eq!(txn.len(), 3, "second snapshot pruned");
        // a savepoint opens a new frame: its first snapshot is retained
        txn.add_savepoint("s");
        let m = txn.watermark();
        assert!(txn.table_needs_snapshot("t"));
        txn.record_undo(|| table_snapshot("t"));
        txn.statement_succeeded(m);
        assert_eq!(txn.len(), 4, "new frame retains its snapshot");
    }

    #[test]
    fn redo_is_built_only_when_durable_and_open() {
        let mut txn = TxnRuntime::new();
        insert(&txn, 0);
        assert_eq!(txn.len(), 0, "idle records nothing");
        txn.begin_implicit();
        txn.log().borrow_mut().record_redo(|| row_delete(0));
        assert_eq!(txn.len(), 0, "in-memory: a redo-only change is not logged");
        insert(&txn, 0);
        assert!(!txn.has_redo(), "in-memory: the inverse alone");
        txn.set_durable();
        insert(&txn, 1);
        txn.suspend();
        insert(&txn, 2);
        txn.resume();
        assert_eq!(txn.len(), 2, "suspension records nothing");
        let redo = txn.take_redo();
        assert!(matches!(redo[..], [WalRecord::RowInsert { row_no: 1, .. }]));
        // the inverses outlive the redo hand-off: a failed WAL write
        // still rolls everything back
        let undo: Vec<UndoOp> = txn
            .take_all()
            .into_iter()
            .filter_map(LogEntry::into_undo)
            .collect();
        assert!(matches!(
            undo[..],
            [
                UndoOp::Replay(WalRecord::RowDelete { row_no: 0, .. }),
                UndoOp::Replay(WalRecord::RowDelete { row_no: 1, .. })
            ]
        ));
        assert!(!txn.recording());
    }

    #[test]
    fn savepoint_stack_shadows_and_releases() {
        let mut txn = TxnRuntime::new();
        txn.begin_explicit();
        insert(&txn, 0);
        txn.add_savepoint("a");
        insert(&txn, 1);
        txn.add_savepoint("a"); // shadows
        assert_eq!(txn.find_savepoint("A"), Some(2), "most recent wins");
        assert!(txn.release_savepoint("a"));
        assert_eq!(txn.find_savepoint("a"), Some(1), "outer `a` survives");
        // rollback past a savepoint drops it
        let entries = txn.take_after(1);
        assert_eq!(entries.len(), 1);
        assert_eq!(txn.find_savepoint("a"), Some(1));
        let entries = txn.take_after(0);
        assert_eq!(entries.len(), 1);
        assert_eq!(txn.find_savepoint("a"), None);
        assert!(!txn.release_savepoint("a"));
        assert!(txn.explicit(), "partial rollback keeps the txn open");
        let _ = txn.take_all();
        assert!(!txn.recording());
    }
}
