//! Content-based update authorization (§6, Figure 11).
//!
//! When content approval is active on a table, every INSERT / UPDATE /
//! DELETE by a non-approver is applied immediately (*"users may be allowed
//! to view the data pending its approval"*) **and** logged together with
//! an automatically generated inverse operation: *"for INSERT, a DELETE
//! statement will be generated, for DELETE, an INSERT statement [...] and
//! for UPDATE, another UPDATE statement that restores the old values"*.
//! The approver later approves (log entry closed) or disapproves (the
//! stored inverse is executed by the `Database`, which also routes the
//! undo through dependency tracking, as §6's last paragraph requires).

use std::collections::HashMap;

use bdbms_common::ids::OperationId;
use bdbms_common::{BdbmsError, Result, Value};

/// Approval configuration for one table (Figure 11's START command).
#[derive(Debug, Clone)]
pub struct ApprovalConfig {
    /// Monitored columns, lowercased (`None` = every column).
    pub columns: Option<Vec<String>>,
    /// User or group allowed to approve/disapprove.
    pub approver: String,
}

/// The inverse operation stored with each log entry.
#[derive(Debug, Clone, PartialEq)]
pub enum InverseOp {
    /// Inverse of INSERT: delete the inserted row.
    DeleteRow {
        /// Row to delete.
        row_no: u64,
    },
    /// Inverse of DELETE: re-insert the old tuple under its old row number.
    InsertRow {
        /// Row number to restore.
        row_no: u64,
        /// The tuple at deletion time.
        values: Vec<Value>,
    },
    /// Inverse of UPDATE: restore the old cell values.
    RestoreCells {
        /// Row to patch.
        row_no: u64,
        /// `(column index, old value)` pairs.
        old: Vec<(usize, Value)>,
    },
}

/// Status of a logged operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStatus {
    /// Awaiting a decision.
    Pending,
    /// Approved: permanent.
    Approved,
    /// Disapproved: inverse was executed.
    Disapproved,
}

impl std::fmt::Display for OpStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OpStatus::Pending => "pending",
            OpStatus::Approved => "approved",
            OpStatus::Disapproved => "disapproved",
        };
        f.write_str(s)
    }
}

/// One logged update operation.
#[derive(Debug, Clone)]
pub struct LoggedOp {
    /// Log id.
    pub id: OperationId,
    /// Table the operation touched.
    pub table: String,
    /// Issuing user (§6: "the log stores also the user identifier who
    /// issued the update operation and the issuing time").
    pub user: String,
    /// Issuing time.
    pub time: u64,
    /// Human-readable description.
    pub description: String,
    /// The stored inverse.
    pub inverse: InverseOp,
    /// Current status.
    pub status: OpStatus,
}

/// The content-based approval manager.
#[derive(Default)]
pub struct ApprovalManager {
    configs: HashMap<String, ApprovalConfig>,
    log: Vec<LoggedOp>,
    next_id: u64,
}

impl ApprovalManager {
    /// Fresh manager with approval off everywhere.
    pub fn new() -> Self {
        ApprovalManager::default()
    }

    fn key(table: &str) -> String {
        table.to_ascii_lowercase()
    }

    /// Turn approval on for a table (Figure 11 START CONTENT APPROVAL).
    pub fn start(&mut self, table: &str, columns: Option<Vec<String>>, approver: &str) {
        self.configs.insert(
            Self::key(table),
            ApprovalConfig {
                columns: columns.map(|cs| cs.into_iter().map(|c| c.to_ascii_lowercase()).collect()),
                approver: approver.to_string(),
            },
        );
    }

    /// Turn approval off (STOP CONTENT APPROVAL).  With explicit columns,
    /// stops monitoring only those; stopping the last column clears the
    /// config.
    pub fn stop(&mut self, table: &str, columns: &[String]) {
        let key = Self::key(table);
        if columns.is_empty() {
            self.configs.remove(&key);
            return;
        }
        if let Some(cfg) = self.configs.get_mut(&key) {
            if let Some(cols) = &mut cfg.columns {
                cols.retain(|c| !columns.iter().any(|x| x.eq_ignore_ascii_case(c)));
                if cols.is_empty() {
                    self.configs.remove(&key);
                }
            }
            // configured for all columns: an explicit column list cannot
            // partially disable it; keep monitoring (caller may STOP fully).
        }
    }

    /// The active config for a table, if any.
    pub fn config(&self, table: &str) -> Option<&ApprovalConfig> {
        self.configs.get(&Self::key(table))
    }

    /// Should an operation touching `columns` (indices into the schema,
    /// by name lowercased) be logged for approval?
    pub fn monitors(&self, table: &str, touched_columns: &[String]) -> bool {
        match self.config(table) {
            None => false,
            Some(cfg) => match &cfg.columns {
                None => true,
                Some(watch) => touched_columns
                    .iter()
                    .any(|c| watch.iter().any(|w| w.eq_ignore_ascii_case(c))),
            },
        }
    }

    /// Append a pending operation to the log.
    pub fn log_operation(
        &mut self,
        table: &str,
        user: &str,
        time: u64,
        description: String,
        inverse: InverseOp,
    ) -> OperationId {
        let id = OperationId(self.next_id);
        self.next_id += 1;
        self.log.push(LoggedOp {
            id,
            table: table.to_string(),
            user: user.to_string(),
            time,
            description,
            inverse,
            status: OpStatus::Pending,
        });
        id
    }

    /// The full log (newest last).
    pub fn log(&self) -> &[LoggedOp] {
        &self.log
    }

    /// Pending entries, optionally filtered by table.
    pub fn pending(&self, table: Option<&str>) -> Vec<&LoggedOp> {
        self.log
            .iter()
            .filter(|op| op.status == OpStatus::Pending)
            .filter(|op| match table {
                Some(t) => op.table.eq_ignore_ascii_case(t),
                None => true,
            })
            .collect()
    }

    /// Position of an entry: the log is ascending by id (appends
    /// allocate upward, and `restore` / `restore_log_entry` refuse
    /// anything else), so this is a binary search.
    fn position(&self, id: OperationId) -> Result<usize> {
        self.log
            .binary_search_by_key(&id.raw(), |op| op.id.raw())
            .map_err(|_| BdbmsError::not_found(format!("operation {id}")))
    }

    /// Look up a log entry.
    pub fn get(&self, id: OperationId) -> Result<&LoggedOp> {
        Ok(&self.log[self.position(id)?])
    }

    /// Mark an entry decided; returns the entry (with the inverse the
    /// caller must execute on disapproval).  Fails on double decisions.
    pub fn decide(&mut self, id: OperationId, approve: bool) -> Result<LoggedOp> {
        let pos = self.position(id)?;
        let op = &mut self.log[pos];
        if op.status != OpStatus::Pending {
            return Err(BdbmsError::approval(format!(
                "operation {id} was already {}",
                op.status
            )));
        }
        op.status = if approve {
            OpStatus::Approved
        } else {
            OpStatus::Disapproved
        };
        Ok(op.clone())
    }

    /// The log length and id allocator — the watermark an append
    /// records as its inverse.
    pub(crate) fn log_watermark(&self) -> (usize, u64) {
        (self.log.len(), self.next_id)
    }

    /// Restore the log to a snapshot: drop entries appended past the
    /// watermark and rewind the id allocator (transaction rollback).
    pub(crate) fn truncate_log(&mut self, len: usize, next_id: u64) {
        self.log.truncate(len);
        self.next_id = next_id;
    }

    /// Force an entry's status (transaction rollback undoing a decision
    /// whose inverse execution was itself rolled back).
    pub(crate) fn set_status(&mut self, id: OperationId, status: OpStatus) {
        if let Ok(pos) = self.position(id) {
            self.log[pos].status = status;
        }
    }

    /// Deterministic dump of the manager (checkpoint snapshots — see
    /// `crate::durability`): sorted per-table configs, the full log, and
    /// the id allocator.
    #[allow(clippy::type_complexity)]
    pub(crate) fn snapshot(
        &self,
    ) -> (Vec<(String, Option<Vec<String>>, String)>, &[LoggedOp], u64) {
        let mut configs: Vec<(String, Option<Vec<String>>, String)> = self
            .configs
            .iter()
            .map(|(t, c)| (t.clone(), c.columns.clone(), c.approver.clone()))
            .collect();
        configs.sort();
        (configs, &self.log, self.next_id)
    }

    /// Rebuild from a [`snapshot`](Self::snapshot) dump.  A log whose
    /// ids are not strictly ascending and below the allocator is
    /// `Corrupt`: lookups binary-search it.
    pub(crate) fn restore(
        configs: Vec<(String, Option<Vec<String>>, String)>,
        log: Vec<LoggedOp>,
        next_id: u64,
    ) -> Result<ApprovalManager> {
        let mut m = ApprovalManager::new();
        for (table, columns, approver) in configs {
            // keys were stored lowercased; reinsert directly
            m.configs
                .insert(table, ApprovalConfig { columns, approver });
        }
        for op in log {
            m.restore_log_entry(op)?;
        }
        if m.next_id > next_id {
            return Err(BdbmsError::corrupt(format!(
                "approval log holds ids at or past its allocator {next_id}"
            )));
        }
        m.next_id = next_id;
        Ok(m)
    }

    /// Re-append a logged operation with its original id (WAL replay).
    /// An id not above every logged one is `Corrupt`.
    pub(crate) fn restore_log_entry(&mut self, op: LoggedOp) -> Result<()> {
        if self
            .log
            .last()
            .is_some_and(|last| last.id.raw() >= op.id.raw())
        {
            return Err(BdbmsError::corrupt(format!(
                "approval log entry {} is out of order",
                op.id
            )));
        }
        self.next_id = self.next_id.max(op.id.raw() + 1);
        self.log.push(op);
        Ok(())
    }

    /// Bytes of log storage (for the E11 overhead report): description +
    /// stored inverse values.
    pub fn log_bytes(&self) -> usize {
        self.log
            .iter()
            .map(|op| {
                let inv = match &op.inverse {
                    InverseOp::DeleteRow { .. } => 8,
                    InverseOp::InsertRow { values, .. } => {
                        8 + values.iter().map(value_bytes).sum::<usize>()
                    }
                    InverseOp::RestoreCells { old, .. } => {
                        8 + old.iter().map(|(_, v)| 4 + value_bytes(v)).sum::<usize>()
                    }
                };
                40 + op.description.len() + inv
            })
            .sum()
    }
}

fn value_bytes(v: &Value) -> usize {
    match v {
        Value::Text(s) => 5 + s.len(),
        _ => 9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdbms_common::ErrorCode;

    #[test]
    fn start_stop_and_monitoring() {
        let mut m = ApprovalManager::new();
        assert!(!m.monitors("Gene", &["gsequence".into()]));
        m.start("Gene", None, "labadmin");
        assert!(m.monitors("gene", &["anything".into()]));
        m.stop("Gene", &[]);
        assert!(!m.monitors("Gene", &["anything".into()]));

        // column-scoped monitoring (the paper's GSequence example)
        m.start("Gene", Some(vec!["GSequence".into()]), "labadmin");
        assert!(m.monitors("Gene", &["gsequence".into()]));
        assert!(!m.monitors("Gene", &["gname".into()]));
        m.stop("Gene", &["GSequence".into()]);
        assert!(!m.monitors("Gene", &["gsequence".into()]));
    }

    #[test]
    fn log_and_decide() {
        let mut m = ApprovalManager::new();
        m.start("Gene", None, "labadmin");
        let id = m.log_operation(
            "Gene",
            "alice",
            7,
            "UPDATE Gene SET GSequence='GTG' (row 0)".into(),
            InverseOp::RestoreCells {
                row_no: 0,
                old: vec![(2, Value::Text("ATG".into()))],
            },
        );
        assert_eq!(m.pending(None).len(), 1);
        assert_eq!(m.pending(Some("gene")).len(), 1);
        assert_eq!(m.pending(Some("other")).len(), 0);
        let decided = m.decide(id, false).unwrap();
        assert_eq!(decided.status, OpStatus::Disapproved);
        assert!(matches!(decided.inverse, InverseOp::RestoreCells { .. }));
        assert!(m.pending(None).is_empty());
        // double decision rejected
        assert_eq!(m.decide(id, true).unwrap_err().kind(), "approval");
    }

    #[test]
    fn inverse_shapes() {
        // the three inverse kinds of §6
        let ins_inv = InverseOp::DeleteRow { row_no: 5 };
        let del_inv = InverseOp::InsertRow {
            row_no: 5,
            values: vec![Value::Text("JW0080".into())],
        };
        let upd_inv = InverseOp::RestoreCells {
            row_no: 5,
            old: vec![(1, Value::Int(3))],
        };
        assert_ne!(ins_inv, del_inv);
        assert_ne!(del_inv, upd_inv);
    }

    #[test]
    fn log_bytes_grow() {
        let mut m = ApprovalManager::new();
        let empty = m.log_bytes();
        for i in 0..10 {
            m.log_operation(
                "T",
                "u",
                i,
                format!("op {i}"),
                InverseOp::DeleteRow { row_no: i },
            );
        }
        assert!(m.log_bytes() > empty + 10 * 40);
        assert_eq!(m.log().len(), 10);
    }

    #[test]
    fn unknown_operation() {
        let mut m = ApprovalManager::new();
        assert!(m.get(OperationId(9)).is_err());
        assert!(m.decide(OperationId(9), true).is_err());
    }

    fn log_ops(m: &mut ApprovalManager, n: u64) -> Vec<OperationId> {
        (0..n)
            .map(|i| {
                m.log_operation(
                    "T",
                    "u",
                    i,
                    format!("op {i}"),
                    InverseOp::DeleteRow { row_no: i },
                )
            })
            .collect()
    }

    #[test]
    fn lookups_by_id_after_truncate_and_restore() {
        let mut m = ApprovalManager::new();
        let ids = log_ops(&mut m, 6);
        let (len, next_id) = m.log_watermark();
        let extra = log_ops(&mut m, 3);
        // rollback: the truncated ids are gone, the survivors still found
        m.truncate_log(len, next_id);
        for id in &extra {
            assert_eq!(m.get(*id).unwrap_err().code(), ErrorCode::NotFound);
        }
        for id in &ids {
            assert_eq!(m.get(*id).unwrap().id, *id);
        }
        // the allocator rewound: the next op reuses the first truncated id
        let again = log_ops(&mut m, 1)[0];
        assert_eq!(again, extra[0]);
        m.set_status(ids[4], OpStatus::Approved);
        assert_eq!(m.decide(ids[2], false).unwrap().id, ids[2]);
        // a snapshot round trip keeps every id reachable
        let (configs, log, next_id) = m.snapshot();
        let log = log.to_vec();
        let r = ApprovalManager::restore(configs, log, next_id).unwrap();
        assert_eq!(r.get(ids[4]).unwrap().status, OpStatus::Approved);
        assert_eq!(r.get(ids[2]).unwrap().status, OpStatus::Disapproved);
        assert_eq!(r.get(again).unwrap().status, OpStatus::Pending);
        assert_eq!(
            r.get(OperationId(next_id)).unwrap_err().code(),
            ErrorCode::NotFound
        );
    }

    #[test]
    fn out_of_order_ids_are_corrupt() {
        let mut m = ApprovalManager::new();
        log_ops(&mut m, 3);
        let (configs, log, next_id) = m.snapshot();
        let mut log = log.to_vec();
        log.swap(0, 2);
        let err = ApprovalManager::restore(configs.clone(), log.clone(), next_id)
            .err()
            .unwrap();
        assert_eq!(err.code(), ErrorCode::Corrupt);
        log.swap(0, 2);
        let err = ApprovalManager::restore(configs, log.clone(), 1)
            .err()
            .unwrap();
        assert_eq!(err.code(), ErrorCode::Corrupt, "ids past the allocator");
        // replay: a duplicate id is refused and leaves the log as it was
        let dup = log[1].clone();
        assert_eq!(
            m.restore_log_entry(dup).unwrap_err().code(),
            ErrorCode::Corrupt
        );
        assert_eq!(m.log().len(), 3);
    }
}
