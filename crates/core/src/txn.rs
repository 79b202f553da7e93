//! Session-level transactions: the logical undo log.
//!
//! bdbms targets curated biological databases where base data,
//! annotations, provenance, and derived cells must change together or
//! not at all (§3–§5 of the paper).  This module supplies the mechanism:
//! a **logical undo log** that records, for every mutation the engine
//! performs, the inverse operation needed to put the catalog back
//! exactly — row images for DML, moved-out objects for `DROP`s,
//! watermarks for append-only structures (annotation sets, the approval
//! log, the deletion log), and first-touch snapshots for state that has
//! no cheap logical inverse (planner statistics, whose KMV sketch cannot
//! retract observations, the outdated-cell bitmaps, and row-number
//! allocation).
//!
//! ## How rollback works
//!
//! `TxnRuntime` accumulates `UndoOp`s while a transaction (explicit
//! `BEGIN…COMMIT`, or the implicit one wrapped around every standalone
//! statement) is open.  Rollback applies the recorded ops **in reverse
//! order**; snapshots are pushed *before* the first mutation they cover,
//! so in reverse order they apply last and settle the final state.
//!
//! Savepoints and statement boundaries are watermarks into the op list.
//! At every watermark the first-touch sets are reset, so the next
//! mutation of a table re-snapshots it *at the watermark's state* —
//! which is exactly what a partial rollback must restore.  Extra
//! snapshots are harmless (an older snapshot applied after a newer one
//! wins, and both describe the same restore point for the ops between
//! them).
//!
//! ## What is (and is not) transactional
//!
//! DML, table/index DDL, `ANALYZE`, annotation commands (including
//! provenance attachments recorded through the system API), dependency
//! rule DDL, and `VALIDATE` are fully undone by rollback.
//! Authorization and approval-workflow statements (`CREATE USER`,
//! `GRANT`/`REVOKE`, `START/STOP CONTENT APPROVAL`,
//! `APPROVE/DISAPPROVE OPERATION`) are **non-transactional** and are
//! rejected inside an explicit transaction with a
//! [`bdbms_common::ErrorCode::TxnState`] error.
//!
//! Rollback never rewinds the catalog generation: it *bumps* it, so a
//! prepared plan cached against mid-transaction DDL (say a `CREATE
//! INDEX` that was rolled back) can never be replayed against the
//! restored catalog.  See `docs/TRANSACTIONS.md`.

use std::collections::HashSet;

use bdbms_common::bitmap::CellBitmap;
use bdbms_common::ids::OperationId;
use bdbms_common::Value;

use crate::annotation::AnnotationSet;
use crate::approval::{ApprovalManager, OpStatus};
use crate::catalog::{Catalog, Table};
use crate::dependency::{DependencyManager, DependencyRule};
use crate::durability::{fresh_redo_sink, RedoSink, WalRecord};
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

/// One recorded inverse operation.  Applied in reverse recording order
/// by rollback; every application is tolerant of objects that earlier
/// undo steps (or the recorded history itself) already removed.
pub(crate) enum UndoOp {
    /// Undo an INSERT: delete the row again.
    UnInsert { table: String, row_no: u64 },
    /// Undo a DELETE: re-insert the old tuple under its old row number
    /// (the deletion-log entry is retired by the table snapshot).
    UnDelete {
        table: String,
        row_no: u64,
        values: Vec<Value>,
    },
    /// Undo an UPDATE (or a dependency-cascade recompute): restore the
    /// old row image.
    UnUpdate {
        table: String,
        row_no: u64,
        old: Vec<Value>,
    },
    /// Undo `CREATE TABLE`.
    UnCreateTable { name: String },
    /// Undo `DROP TABLE`: the dropped table is moved here wholesale and
    /// put back on rollback.
    UnDropTable { table: Box<Table> },
    /// Undo `CREATE INDEX`.
    UnCreateIndex { table: String, index: String },
    /// Undo `DROP INDEX`: recreate and backfill.  Applied when the
    /// table's rows are already back to their drop-time state, so the
    /// backfill reproduces the dropped index exactly.
    UnDropIndex {
        table: String,
        index: String,
        column: String,
    },
    /// Undo `CREATE SEQUENCE INDEX`.
    UnCreateSeqIndex { table: String, index: String },
    /// Undo `DROP SEQUENCE INDEX`: recreate and backfill (same timing
    /// contract as [`UndoOp::UnDropIndex`]).
    UnDropSeqIndex {
        table: String,
        index: String,
        column: String,
        kind: crate::ast::SeqIndexKind,
    },
    /// Undo a `COPY` bulk load: remove every row the load appended
    /// (they all sit at or above `first_row`).  The accompanying
    /// first-touch snapshot restores stats / allocator / bitmap state.
    UnBulkLoad { table: String, first_row: u64 },
    /// Undo `CREATE ANNOTATION TABLE`.
    UnCreateAnnSet { table: String, set: String },
    /// Undo `DROP ANNOTATION TABLE`: the set is moved here and
    /// reinserted at its old position.
    UnDropAnnSet {
        table: String,
        pos: usize,
        set: Box<AnnotationSet>,
    },
    /// Undo `CREATE DEPENDENCY RULE` (restores the id allocator too).
    UnAddRule { name: String, prev_next_id: u64 },
    /// Undo `DROP DEPENDENCY RULE`: reinsert at the old position.
    UnDropRule {
        pos: usize,
        rule: Box<DependencyRule>,
    },
    /// First-touch snapshot of a table's non-row state: planner stats
    /// (the KMV sketch cannot retract), the outdated bitmap, the
    /// row-number allocator, and the deletion-log length.
    RestoreTableState {
        table: String,
        stats: TableStats,
        outdated: CellBitmap,
        next_row: u64,
        deleted_log_len: usize,
    },
    /// First-touch snapshot of an annotation set: the id watermark
    /// (annotations at or past it are truncated, with their scheme
    /// attachments) and the archived flags of the survivors.
    RestoreAnnSet {
        table: String,
        set: String,
        next_id: u64,
        flags: Vec<(u64, bool)>,
    },
    /// First-touch snapshot of the approval log (length + id allocator).
    RestoreApprovalLog { len: usize, next_id: u64 },
    /// Undo an approval decision's status flip (the data changes of the
    /// executed inverse are undone by their own row ops).
    RestoreOpStatus { id: OperationId, status: OpStatus },
}

impl UndoOp {
    /// Apply this inverse against the live engine state.  Missing
    /// objects are skipped: they can only be missing because the
    /// recorded history already accounts for them (e.g. a row op on a
    /// table the same rollback later un-creates).
    pub(crate) fn apply(
        self,
        catalog: &mut Catalog,
        deps: &mut DependencyManager,
        approval: &mut ApprovalManager,
    ) {
        match self {
            UndoOp::UnInsert { table, row_no } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    let _ = t.delete(row_no);
                }
            }
            UndoOp::UnDelete {
                table,
                row_no,
                values,
            } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    let _ = t.insert_with_row_no(row_no, values);
                }
            }
            UndoOp::UnUpdate { table, row_no, old } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    let _ = t.update(row_no, old);
                }
            }
            UndoOp::UnCreateTable { name } => {
                let _ = catalog.drop_table(&name);
            }
            UndoOp::UnDropTable { table } => {
                let _ = catalog.add_table(*table);
            }
            UndoOp::UnCreateIndex { table, index } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    let _ = t.drop_index(&index);
                }
            }
            UndoOp::UnDropIndex {
                table,
                index,
                column,
            } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    let _ = t.create_index(&index, &column);
                }
            }
            UndoOp::UnCreateSeqIndex { table, index } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    let _ = t.drop_seq_index(&index);
                }
            }
            UndoOp::UnDropSeqIndex {
                table,
                index,
                column,
                kind,
            } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    let _ = t.create_seq_index(&index, &column, kind);
                }
            }
            UndoOp::UnBulkLoad { table, first_row } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    let _ = t.truncate_rows_from(first_row);
                }
            }
            UndoOp::UnCreateAnnSet { table, set } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    t.ann_sets.retain(|s| !s.name.eq_ignore_ascii_case(&set));
                }
            }
            UndoOp::UnDropAnnSet { table, pos, set } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    t.ann_sets.insert(pos.min(t.ann_sets.len()), *set);
                }
            }
            UndoOp::UnAddRule { name, prev_next_id } => {
                let _ = deps.drop_rule(&name);
                deps.set_next_rule_id(prev_next_id);
            }
            UndoOp::UnDropRule { pos, rule } => {
                deps.insert_rule_at(pos, *rule);
            }
            UndoOp::RestoreTableState {
                table,
                stats,
                outdated,
                next_row,
                deleted_log_len,
            } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    t.set_stats(stats);
                    t.outdated = outdated;
                    t.set_next_row(next_row);
                    t.deleted_log.truncate(deleted_log_len);
                }
            }
            UndoOp::RestoreAnnSet {
                table,
                set,
                next_id,
                flags,
            } => {
                if let Ok(t) = catalog.table_mut(&table) {
                    if let Some(s) = t.ann_set_mut(&set) {
                        s.rollback_to(next_id, &flags);
                    }
                }
            }
            UndoOp::RestoreApprovalLog { len, next_id } => {
                approval.truncate_log(len, next_id);
            }
            UndoOp::RestoreOpStatus { id, status } => {
                approval.set_status(id, status);
            }
        }
    }
}

/// A watermark into the transaction's two logs: the undo-op list and
/// the redo-record buffer.  Savepoints and statement boundaries record
/// one; partial rollback truncates both logs to it (the undo ops are
/// applied, the redo records simply vanish — they describe work that no
/// longer survives, so the WAL never sees them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TxnMark {
    /// Position in the undo-op list.
    pub(crate) ops: usize,
    /// Position in the redo-record buffer.
    pub(crate) redo: usize,
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

/// The per-connection transaction runtime: mode, undo log, savepoint
/// watermarks, and the first-touch bookkeeping that decides when a
/// snapshot op must be pushed.  Owned by [`crate::Database`]; driven by
/// the [`crate::Session`] state machine.
pub(crate) struct TxnRuntime {
    mode: Mode,
    ops: Vec<UndoOp>,
    /// The redo buffer shared with every table and the database (see
    /// `crate::durability`): logical WAL records of the open
    /// transaction, drained at commit, truncated by rollback.
    redo: RedoSink,
    /// Savepoint stack: `(lowercased name, watermark)`.  Names may
    /// shadow; lookups find the most recent.
    savepoints: Vec<(String, TxnMark)>,
    /// Tables snapshotted since the last watermark (lowercased names).
    touched_tables: HashSet<String>,
    /// Annotation sets snapshotted since the last watermark.
    touched_sets: HashSet<(String, String)>,
    /// Approval log snapshotted since the last watermark?
    touched_approval: bool,
    /// Tables with a *retained* snapshot since the last frame boundary
    /// (`BEGIN` / `SAVEPOINT` / `ROLLBACK TO`).  A later statement's
    /// snapshot of such a table only serves that statement's own
    /// rollback — [`statement_succeeded`](Self::statement_succeeded)
    /// prunes it, so a long transaction holds one snapshot per table
    /// per frame instead of one per table per statement.
    frame_tables: HashSet<String>,
    /// Annotation sets with a retained snapshot since the frame boundary.
    frame_sets: HashSet<(String, String)>,
    /// Approval log snapshot retained since the frame boundary?
    frame_approval: bool,
}

impl TxnRuntime {
    pub(crate) fn new() -> TxnRuntime {
        TxnRuntime {
            mode: Mode::Idle,
            ops: Vec::new(),
            redo: fresh_redo_sink(),
            savepoints: Vec::new(),
            touched_tables: HashSet::new(),
            touched_sets: HashSet::new(),
            touched_approval: false,
            frame_tables: HashSet::new(),
            frame_sets: HashSet::new(),
            frame_approval: false,
        }
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

    /// Record one inverse op (no-op when idle).
    pub(crate) fn push(&mut self, op: UndoOp) {
        if self.recording() {
            self.ops.push(op);
        }
    }

    /// Should the caller push a first-touch table snapshot now?
    /// (Registers the touch.)
    pub(crate) fn table_needs_snapshot(&mut self, table: &str) -> bool {
        self.recording() && self.touched_tables.insert(table.to_ascii_lowercase())
    }

    /// Should the caller push a first-touch annotation-set snapshot now?
    pub(crate) fn ann_set_needs_snapshot(&mut self, table: &str, set: &str) -> bool {
        self.recording()
            && self
                .touched_sets
                .insert((table.to_ascii_lowercase(), set.to_ascii_lowercase()))
    }

    /// Should the caller push a first-touch approval-log snapshot now?
    pub(crate) fn approval_needs_snapshot(&mut self) -> bool {
        if !self.recording() || self.touched_approval {
            return false;
        }
        self.touched_approval = true;
        true
    }

    /// A watermark covering the current point in both logs.  The
    /// first-touch sets are reset so the next mutation re-snapshots at
    /// this point's state (the invariant every partial rollback needs).
    pub(crate) fn watermark(&mut self) -> TxnMark {
        self.reset_touches();
        TxnMark {
            ops: self.ops.len(),
            redo: self.redo.borrow().len(),
        }
    }

    // ---- redo buffer plumbing (see `crate::durability`) ----

    /// The shared redo sink (tables and the database clone this).
    pub(crate) fn redo_sink(&self) -> RedoSink {
        self.redo.clone()
    }

    /// Append a redo record (no-op when redo is disabled or suspended).
    pub(crate) fn redo_push(&self, build: impl FnOnce() -> WalRecord) {
        self.redo.borrow_mut().push(build);
    }

    /// Drain the redo buffer (commit hands the records to the WAL).
    pub(crate) fn redo_take(&mut self) -> Vec<WalRecord> {
        self.redo.borrow_mut().take()
    }

    /// Stop collecting while rollback applies undo ops (their table
    /// mutations must not re-log) or `COPY` loads (it commits by
    /// checkpoint, not by redo).
    pub(crate) fn redo_suspend(&self) {
        self.redo.borrow_mut().suspend();
    }

    /// Resume collecting after rollback.
    pub(crate) fn redo_resume(&self) {
        self.redo.borrow_mut().resume();
    }

    fn reset_touches(&mut self) {
        self.touched_tables.clear();
        self.touched_sets.clear();
        self.touched_approval = false;
    }

    fn reset_frames(&mut self) {
        self.frame_tables.clear();
        self.frame_sets.clear();
        self.frame_approval = false;
    }

    /// A statement inside an explicit transaction completed: prune the
    /// snapshot ops it pushed for objects the current frame already
    /// holds a snapshot of.  Those copies could only ever serve the
    /// statement's own rollback (every live mark — `BEGIN` and each
    /// savepoint — is older than the frame's retained snapshot, and
    /// during reverse replay the older snapshot wins), so keeping them
    /// would grow the log by a full stats + bitmap copy per statement.
    pub(crate) fn statement_succeeded(&mut self, mark: TxnMark) {
        if self.mode != Mode::Explicit {
            return;
        }
        let tail = self.ops.split_off(mark.ops.min(self.ops.len()));
        for op in tail {
            let redundant = match &op {
                UndoOp::RestoreTableState { table, .. } => {
                    self.frame_tables.contains(&table.to_ascii_lowercase())
                }
                UndoOp::RestoreAnnSet { table, set, .. } => self
                    .frame_sets
                    .contains(&(table.to_ascii_lowercase(), set.to_ascii_lowercase())),
                UndoOp::RestoreApprovalLog { .. } => self.frame_approval,
                _ => false,
            };
            if !redundant {
                self.ops.push(op);
            }
        }
        self.frame_tables.extend(self.touched_tables.drain());
        self.frame_sets.extend(self.touched_sets.drain());
        self.frame_approval |= self.touched_approval;
        self.touched_approval = false;
    }

    /// Number of recorded undo ops (tests observe snapshot pruning).
    #[cfg(test)]
    fn ops_len(&self) -> usize {
        self.ops.len()
    }

    /// Open the implicit transaction around one statement (idle only).
    pub(crate) fn begin_implicit(&mut self) {
        debug_assert_eq!(self.mode, Mode::Idle);
        self.mode = Mode::Implicit;
        self.reset_touches();
    }

    /// Open an explicit transaction (idle only — nested `BEGIN` is the
    /// caller's `TxnState` error).
    pub(crate) fn begin_explicit(&mut self) {
        debug_assert_eq!(self.mode, Mode::Idle);
        self.mode = Mode::Explicit;
        self.reset_touches();
        self.reset_frames();
    }

    /// Commit: discard the log and return to idle.  (For durable
    /// databases the redo buffer was already drained into the WAL by
    /// `Database::wal_commit`; clearing here is the in-memory no-op.)
    pub(crate) fn commit(&mut self) {
        self.mode = Mode::Idle;
        self.ops.clear();
        self.redo.borrow_mut().clear();
        self.savepoints.clear();
        self.reset_touches();
        self.reset_frames();
    }

    /// Take every recorded op (rollback of the whole transaction) and
    /// return to idle.  The caller applies them in reverse.  The redo
    /// buffer is discarded wholesale: nothing of this transaction may
    /// reach the WAL.
    pub(crate) fn take_all(&mut self) -> Vec<UndoOp> {
        self.mode = Mode::Idle;
        self.savepoints.clear();
        self.reset_touches();
        self.reset_frames();
        self.redo.borrow_mut().clear();
        std::mem::take(&mut self.ops)
    }

    /// Take the ops recorded past `mark` (partial rollback — savepoint
    /// or failed statement).  The transaction stays open; savepoints
    /// created past the mark are dropped and the first-touch sets reset.
    /// Frame bookkeeping resets too: snapshots consumed by this rollback
    /// are no longer retained, so later touches re-snapshot (redundant
    /// copies for objects whose frame snapshot pre-dates the mark are
    /// harmless — the older snapshot wins during reverse replay).
    pub(crate) fn take_after(&mut self, mark: TxnMark) -> Vec<UndoOp> {
        self.savepoints.retain(|(_, m)| m.ops <= mark.ops);
        self.reset_touches();
        self.reset_frames();
        self.redo.borrow_mut().truncate(mark.redo);
        self.ops.split_off(mark.ops.min(self.ops.len()))
    }

    /// Create a savepoint at the current point.  Starts a new snapshot
    /// frame: the savepoint is a fresh restore target, so the next touch
    /// of each object must snapshot (and retain) its state here.
    pub(crate) fn add_savepoint(&mut self, name: &str) {
        let mark = self.watermark();
        self.reset_frames();
        self.savepoints.push((name.to_ascii_lowercase(), mark));
    }

    /// The watermark of the most recent savepoint with this name.
    pub(crate) fn find_savepoint(&self, name: &str) -> Option<TxnMark> {
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
        txn.begin_explicit();
        assert!(txn.table_needs_snapshot("Gene"));
        assert!(!txn.table_needs_snapshot("GENE"), "case-insensitive");
        assert!(txn.ann_set_needs_snapshot("Gene", "Curation"));
        assert!(!txn.ann_set_needs_snapshot("gene", "curation"));
        assert!(txn.approval_needs_snapshot());
        assert!(!txn.approval_needs_snapshot());
        let _ = txn.watermark();
        assert!(txn.table_needs_snapshot("Gene"), "re-snapshot after mark");
        assert!(txn.ann_set_needs_snapshot("Gene", "Curation"));
        assert!(txn.approval_needs_snapshot());
    }

    fn table_snapshot(table: &str) -> UndoOp {
        UndoOp::RestoreTableState {
            table: table.into(),
            stats: TableStats::new(1),
            outdated: CellBitmap::new(0, 1),
            next_row: 0,
            deleted_log_len: 0,
        }
    }

    #[test]
    fn redundant_statement_snapshots_are_pruned() {
        let mut txn = TxnRuntime::new();
        txn.begin_explicit();
        // statement 1 first-touches t: snapshot retained
        let m = txn.watermark();
        assert!(txn.table_needs_snapshot("t"));
        txn.push(table_snapshot("t"));
        txn.push(UndoOp::UnInsert {
            table: "t".into(),
            row_no: 0,
        });
        txn.statement_succeeded(m);
        assert_eq!(txn.ops_len(), 2);
        // statement 2 re-snapshots for its own rollback; the copy is
        // pruned on success — the log stays one snapshot per frame
        let m = txn.watermark();
        assert!(txn.table_needs_snapshot("t"), "per-statement re-snapshot");
        txn.push(table_snapshot("t"));
        txn.push(UndoOp::UnInsert {
            table: "t".into(),
            row_no: 1,
        });
        txn.statement_succeeded(m);
        assert_eq!(txn.ops_len(), 3, "second snapshot pruned");
        // a savepoint opens a new frame: its first snapshot is retained
        txn.add_savepoint("s");
        let m = txn.watermark();
        assert!(txn.table_needs_snapshot("t"));
        txn.push(table_snapshot("t"));
        txn.statement_succeeded(m);
        assert_eq!(txn.ops_len(), 4, "new frame retains its snapshot");
    }

    #[test]
    fn savepoint_stack_shadows_and_releases() {
        let mut txn = TxnRuntime::new();
        txn.begin_explicit();
        txn.push(UndoOp::UnInsert {
            table: "t".into(),
            row_no: 0,
        });
        txn.add_savepoint("a");
        txn.push(UndoOp::UnInsert {
            table: "t".into(),
            row_no: 1,
        });
        txn.add_savepoint("a"); // shadows
        let ops_of = |m: Option<TxnMark>| m.map(|m| m.ops);
        assert_eq!(ops_of(txn.find_savepoint("A")), Some(2), "most recent wins");
        assert!(txn.release_savepoint("a"));
        assert_eq!(
            ops_of(txn.find_savepoint("a")),
            Some(1),
            "outer `a` survives"
        );
        // rollback past a savepoint drops it
        let ops = txn.take_after(TxnMark { ops: 1, redo: 0 });
        assert_eq!(ops.len(), 1);
        assert_eq!(ops_of(txn.find_savepoint("a")), Some(1));
        let ops = txn.take_after(TxnMark { ops: 0, redo: 0 });
        assert_eq!(ops.len(), 1);
        assert_eq!(txn.find_savepoint("a"), None);
        assert!(!txn.release_savepoint("a"));
        assert!(txn.explicit(), "partial rollback keeps the txn open");
        let _ = txn.take_all();
        assert!(!txn.recording());
    }
}
