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
//!
//! The log is a table, as in the paper: each table `T` keeps
//! its entries as rows of the hidden table `T$$approval`
//! (`LoggedOp::schema`), under the operation id as the row number, so
//! appending, deciding and rolling either back are row changes.  So are
//! starting and stopping approval: the configs are rows of the catalog
//! table `$approval`, whose view [`ApprovalManager`] is.

use std::collections::HashMap;

use bdbms_common::ids::OperationId;
use bdbms_common::{BdbmsError, DataType, Result, Schema, Value};

use crate::catalog::{history_schema, CatalogView};

/// Approval configuration for one table (Figure 11's START command).
#[derive(Debug, Clone, PartialEq)]
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

impl LoggedOp {
    /// The columns of `table`'s approval log.
    pub(crate) fn schema(table: &Schema) -> Schema {
        let fixed = [
            ("$row", DataType::Int),
            ("$user", DataType::Text),
            ("$time", DataType::Timestamp),
            ("$description", DataType::Text),
            ("$status", DataType::Int),
            ("$inverse", DataType::Int),
            ("$restored", DataType::Text),
        ];
        history_schema(&fixed, table)
    }

    /// This entry as a row of its table's approval log, stored under the
    /// operation id as its row number: the fixed columns, then the
    /// table's own columns holding the inverse's old values (NULL where
    /// it restores nothing).  `$restored` lists the columns a
    /// `RestoreCells` puts back, as comma-separated indices.
    pub fn to_row(&self, arity: usize) -> Vec<Value> {
        let mut values = vec![Value::Null; arity];
        let mut restored = Vec::new();
        let (kind, row_no) = match &self.inverse {
            InverseOp::DeleteRow { row_no } => (0, *row_no),
            InverseOp::InsertRow { row_no, values: v } => {
                values.clone_from(v);
                (1, *row_no)
            }
            InverseOp::RestoreCells { row_no, old } => {
                for (col, v) in old {
                    restored.push(col.to_string());
                    values[*col] = v.clone();
                }
                (2, *row_no)
            }
        };
        let mut row = vec![
            Value::Int(row_no as i64),
            Value::Text(self.user.clone()),
            Value::Timestamp(self.time),
            Value::Text(self.description.clone()),
            Value::Int(self.status.code()),
            Value::Int(kind),
            Value::Text(restored.join(",")),
        ];
        row.extend(values);
        row
    }

    /// Decode row `id` of `table`'s approval log.
    pub(crate) fn from_row(table: &str, id: u64, mut row: Vec<Value>) -> Result<LoggedOp> {
        let mut values = row.split_off(LOG_FIXED.min(row.len()));
        let bad = || BdbmsError::corrupt(format!("malformed approval-log row on `{table}`"));
        let Ok(
            [Value::Int(row_no), Value::Text(user), Value::Timestamp(time), Value::Text(description), Value::Int(status), Value::Int(kind), Value::Text(restored)],
        ) = <[Value; LOG_FIXED]>::try_from(row)
        else {
            return Err(bad());
        };
        let row_no = row_no as u64;
        let inverse = match kind {
            0 => InverseOp::DeleteRow { row_no },
            1 => InverseOp::InsertRow { row_no, values },
            2 => InverseOp::RestoreCells {
                row_no,
                old: restored
                    .split(',')
                    .filter(|c| !c.is_empty())
                    .map(|c| {
                        let col: usize = c.parse().map_err(|_| bad())?;
                        let v = values.get_mut(col).ok_or_else(bad)?;
                        Ok((col, std::mem::take(v)))
                    })
                    .collect::<Result<_>>()?,
            },
            _ => return Err(bad()),
        };
        Ok(LoggedOp {
            id: OperationId(id),
            table: table.to_string(),
            user,
            time,
            description,
            inverse,
            status: OpStatus::from_code(status).ok_or_else(bad)?,
        })
    }
}

/// Column of the status in an approval-log row.
pub(crate) const STATUS: usize = 4;
/// Columns an approval-log row puts before its table's own.
const LOG_FIXED: usize = 7;

impl OpStatus {
    /// The status as stored in an approval-log row.
    pub(crate) fn code(self) -> i64 {
        match self {
            OpStatus::Pending => 0,
            OpStatus::Approved => 1,
            OpStatus::Disapproved => 2,
        }
    }

    fn from_code(code: i64) -> Option<OpStatus> {
        Some(match code {
            0 => OpStatus::Pending,
            1 => OpStatus::Approved,
            2 => OpStatus::Disapproved,
            _ => return None,
        })
    }
}

/// The content-based approval manager: which tables are monitored, and
/// by whom — the view of the `$approval` catalog table.  The log itself
/// is each table's hidden approval log (see `crate::catalog`).
#[derive(Default, PartialEq)]
pub struct ApprovalManager {
    configs: HashMap<String, ApprovalConfig>,
    /// One past the highest operation id a since-dropped log handed out:
    /// new ids start at least here, so no id is ever reused.
    id_floor: u64,
}

impl ApprovalManager {
    /// Fresh manager with approval off everywhere.
    pub fn new() -> Self {
        ApprovalManager::default()
    }

    /// The columns of `$approval`.  Column 0 names the table a config
    /// is on, as in `$auth`, so `DROP TABLE` clears both alike.
    pub(crate) fn schema() -> Schema {
        Schema::of(&[
            ("on_table", DataType::Text),
            ("monitored", DataType::Text),
            ("approver", DataType::Text),
            ("id_floor", DataType::Int),
        ])
    }

    /// The `$approval` row by which `approver` monitors `column` of
    /// `table` (`None`: every column), names lowercased; a config is one
    /// row per monitored column (Figure 11's START command).
    pub(crate) fn row(table: &str, column: Option<&str>, approver: &str) -> Vec<Value> {
        let column = column.map_or(Value::Null, |c| Value::Text(c.to_ascii_lowercase()));
        let table = Value::Text(table.to_ascii_lowercase());
        vec![
            table,
            column,
            Value::Text(approver.to_string()),
            Value::Null,
        ]
    }

    /// The one `$approval` row that holds the operation-id floor.
    pub(crate) fn floor_row(floor: u64) -> Vec<Value> {
        vec![
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Int(floor as i64),
        ]
    }

    /// Refuse a STOP CONTENT APPROVAL of `columns` (none: all) that
    /// would change nothing — no config, an all-column config asked to
    /// drop some columns, or columns it does not monitor — so it is
    /// never reported as done.
    pub(crate) fn check_stop(&self, table: &str, columns: &[String]) -> Result<()> {
        let Some(cfg) = self.config(table) else {
            return Err(BdbmsError::invalid(format!(
                "no content approval is active on `{table}`"
            )));
        };
        match &cfg.columns {
            _ if columns.is_empty() => Ok(()),
            None => Err(BdbmsError::invalid(format!(
                "content approval on `{table}` monitors every column; stop it \
                 with `STOP CONTENT APPROVAL ON {table}`"
            ))),
            Some(_) if self.monitors(table, columns) => Ok(()),
            Some(_) => Err(BdbmsError::invalid(format!(
                "content approval on `{table}` monitors none of those columns; \
                 `STOP CONTENT APPROVAL ON {table}` stops it"
            ))),
        }
    }

    /// The active config for a table, if any.
    pub fn config(&self, table: &str) -> Option<&ApprovalConfig> {
        self.configs.get(&table.to_ascii_lowercase())
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

    /// The lowest id a new operation may take: `DROP TABLE` raises it
    /// past the ids its approval log handed out.
    pub(crate) fn id_floor(&self) -> u64 {
        self.id_floor
    }
}

impl CatalogView for ApprovalManager {
    fn apply(&mut self, _: u64, row: &[Value], added: bool) {
        let text = |col: usize| row[col].as_text();
        match (text(0), text(1), text(2), row[3].as_int()) {
            // the floor row is written once, then replaced
            (None, None, None, Some(floor)) => self.id_floor = if added { floor as u64 } else { 0 },
            (Some(table), column, Some(approver), None) => {
                let cfg = self.configs.entry(table.to_string());
                let cfg = cfg.or_insert_with(|| ApprovalConfig {
                    columns: column.map(|_| Vec::new()),
                    approver: approver.to_string(),
                });
                match (&mut cfg.columns, column) {
                    (Some(cols), Some(col)) if added => cols.push(col.to_string()),
                    (Some(cols), Some(col)) => cols.retain(|c| c != col),
                    _ => {}
                }
                if !added && cfg.columns.as_ref().is_none_or(Vec::is_empty) {
                    self.configs.remove(table);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdbms_common::ErrorCode;

    #[test]
    fn start_stop_and_monitoring() {
        let mut db = crate::Database::new_in_memory();
        db.execute("CREATE TABLE Gene (GSequence TEXT, GName TEXT)")
            .unwrap();
        db.execute("CREATE USER labadmin").unwrap();
        let monitors = |db: &crate::Database, table: &str, col: &str| {
            db.approval().monitors(table, &[col.to_string()])
        };
        assert!(!monitors(&db, "Gene", "gsequence"));
        db.execute("START CONTENT APPROVAL ON Gene APPROVED BY labadmin")
            .unwrap();
        assert!(monitors(&db, "gene", "anything"));
        db.execute("STOP CONTENT APPROVAL ON Gene").unwrap();
        assert!(!monitors(&db, "Gene", "anything"));

        // column-scoped monitoring (the paper's GSequence example)
        db.execute("START CONTENT APPROVAL ON Gene COLUMNS GSequence APPROVED BY labadmin")
            .unwrap();
        assert!(monitors(&db, "Gene", "gsequence"));
        assert!(!monitors(&db, "Gene", "gname"));
        db.execute("STOP CONTENT APPROVAL ON Gene COLUMNS GSequence")
            .unwrap();
        assert!(!monitors(&db, "Gene", "gsequence"));
        assert!(db.approval().config("Gene").is_none());
    }

    /// Gene with `alice` allowed to insert and update, approval on (by
    /// admin), and `n` of her inserts logged.
    fn logged_db(n: usize) -> crate::Database {
        let mut db = crate::Database::new_in_memory();
        db.execute("CREATE TABLE Gene (GID TEXT, GSequence TEXT)")
            .unwrap();
        db.execute("CREATE USER alice").unwrap();
        db.execute("GRANT INSERT, UPDATE ON Gene TO alice").unwrap();
        db.execute("START CONTENT APPROVAL ON Gene APPROVED BY admin")
            .unwrap();
        for i in 0..n {
            db.execute_as(&format!("INSERT INTO Gene VALUES ('g{i}', 'ATG')"), "alice")
                .unwrap();
        }
        db
    }

    #[test]
    fn log_and_decide() {
        let mut db = logged_db(0);
        db.execute("INSERT INTO Gene VALUES ('JW0080', 'ATG')")
            .unwrap();
        db.execute_as("UPDATE Gene SET GSequence = 'GTG'", "alice")
            .unwrap();
        let pending = db.pending_operations(None).unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(db.pending_operations(Some("gene")).unwrap().len(), 1);
        assert_eq!(db.pending_operations(Some("other")).unwrap().len(), 0);
        assert_eq!(
            pending[0].inverse,
            InverseOp::RestoreCells {
                row_no: 0,
                old: vec![(1, Value::Text("ATG".into()))],
            }
        );
        let id = pending[0].id.raw();
        db.execute(&format!("DISAPPROVE OPERATION {id}")).unwrap();
        let log = db.approval_log(None).unwrap();
        assert_eq!(log[0].status, OpStatus::Disapproved);
        assert!(db.pending_operations(None).unwrap().is_empty());
        let r = db.execute("SELECT GSequence FROM Gene").unwrap();
        assert_eq!(
            r.rows[0].values[0],
            Value::Text("ATG".into()),
            "inverse ran"
        );
        // double decision rejected
        let err = db.execute(&format!("APPROVE OPERATION {id}")).unwrap_err();
        assert_eq!(err.kind(), "approval");
    }

    /// The log is rows of the table's hidden approval log: each logged
    /// operation adds one, holding its inverse's values.
    #[test]
    fn log_bytes_grow() {
        let db = logged_db(10);
        let log = db.catalog().table("Gene$$approval").unwrap();
        assert_eq!(log.len(), 10);
        let row = log.get(3).unwrap();
        assert_eq!(row[STATUS], Value::Int(OpStatus::Pending.code()));
        assert_eq!(db.approval_log(Some("Gene")).unwrap().len(), 10);
    }

    #[test]
    fn unknown_operation() {
        let mut db = logged_db(1);
        for verb in ["APPROVE", "DISAPPROVE"] {
            let err = db.execute(&format!("{verb} OPERATION 9")).unwrap_err();
            assert_eq!(err.code(), ErrorCode::NotFound);
        }
    }

    /// Ids are handed out one past the highest logged, so a rolled-back
    /// append frees its id again; a reopen keeps every id reachable.
    #[test]
    fn lookups_by_id_after_truncate_and_restore() {
        let dir =
            std::env::temp_dir().join(format!("bdbms-approval-ids-{}.bdbms", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = crate::Database::create(&dir).unwrap();
        for sql in [
            "CREATE TABLE Gene (GID TEXT, GSequence TEXT)",
            "CREATE TABLE Protein (PID TEXT)",
            "CREATE USER alice",
            "GRANT INSERT ON Gene TO alice",
            "GRANT INSERT ON Protein TO alice",
            "START CONTENT APPROVAL ON Gene APPROVED BY admin",
            "START CONTENT APPROVAL ON Protein APPROVED BY admin",
        ] {
            db.execute(sql).unwrap();
        }
        let insert = |db: &mut crate::Database, sql: &str| db.execute_as(sql, "alice");
        for i in 0..3 {
            insert(&mut db, &format!("INSERT INTO Gene VALUES ('g{i}', 'A')")).unwrap();
            insert(&mut db, &format!("INSERT INTO Protein VALUES ('p{i}')")).unwrap();
        }
        // a failing statement's appends roll back with it
        let err = insert(
            &mut db,
            "INSERT INTO Gene VALUES ('x', 'A'), ('y', 'A', 'z')",
        );
        assert!(err.is_err());
        insert(&mut db, "INSERT INTO Protein VALUES ('p3')").unwrap();
        db.execute("APPROVE OPERATION 4").unwrap();
        let ids = |db: &crate::Database| -> Vec<(u64, String, OpStatus)> {
            let log = db.approval_log(None).unwrap();
            log.into_iter()
                .map(|op| (op.id.raw(), op.table, op.status))
                .collect()
        };
        let before = ids(&db);
        let want: Vec<u64> = (0..7).collect();
        assert_eq!(before.iter().map(|e| e.0).collect::<Vec<_>>(), want);
        assert_eq!(before[6].1, "Protein", "the freed id 6 was reused");
        assert_eq!(before[4].2, OpStatus::Approved);
        db.close().unwrap();
        let mut db = crate::Database::open(&dir).unwrap();
        assert_eq!(ids(&db), before);
        db.execute("DISAPPROVE OPERATION 2").unwrap();
        assert_eq!(
            db.execute("APPROVE OPERATION 7").unwrap_err().code(),
            ErrorCode::NotFound
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Content approval logs and disapproves an update of any column,
    /// however wide the table.
    #[test]
    fn an_update_past_the_63rd_column_is_logged_and_undone() {
        let mut db = crate::Database::new_in_memory();
        let cols: Vec<String> = (0..70).map(|c| format!("c{c} INT")).collect();
        db.execute(&format!("CREATE TABLE W ({})", cols.join(", ")))
            .unwrap();
        let zeros = vec!["0"; 70].join(", ");
        for sql in [
            format!("INSERT INTO W VALUES ({zeros})"),
            "CREATE USER alice".into(),
            "GRANT UPDATE ON W TO alice".into(),
            "START CONTENT APPROVAL ON W APPROVED BY admin".into(),
        ] {
            db.execute(&sql).unwrap();
        }
        db.execute_as("UPDATE W SET c5 = 5, c64 = 64, c69 = 69", "alice")
            .unwrap();
        let pending = db.pending_operations(None).unwrap();
        assert_eq!(
            pending[0].inverse,
            InverseOp::RestoreCells {
                row_no: 0,
                old: [5, 64, 69].map(|c| (c, Value::Int(0))).to_vec(),
            }
        );
        db.execute("DISAPPROVE OPERATION 0").unwrap();
        let r = db.execute("SELECT c5, c64, c69 FROM W").unwrap();
        assert_eq!(
            r.rows[0].values,
            vec![Value::Int(0); 3],
            "every cell restored"
        );
    }

    /// Dropping a table drops its pending operations with it, but never
    /// frees their ids: later operations — after a checkpoint, and after
    /// a crash that replays the drop — get fresh ones.
    #[test]
    fn ids_of_a_dropped_table_are_never_reused() {
        let dir = std::env::temp_dir().join(format!(
            "bdbms-approval-dropped-{}.bdbms",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = crate::Database::create(&dir).unwrap();
        let monitor = |db: &mut crate::Database, table: &str| {
            db.execute(&format!("CREATE TABLE {table} (K TEXT)"))
                .unwrap();
            db.execute(&format!("GRANT INSERT ON {table} TO alice"))
                .unwrap();
            db.execute(&format!(
                "START CONTENT APPROVAL ON {table} APPROVED BY admin"
            ))
            .unwrap();
        };
        db.execute("CREATE USER alice").unwrap();
        monitor(&mut db, "Gene");
        monitor(&mut db, "Protein");
        let insert = |db: &mut crate::Database, table: &str| {
            db.execute_as(&format!("INSERT INTO {table} VALUES ('k')"), "alice")
                .unwrap();
            db.approval_log(None).unwrap().last().unwrap().id.raw()
        };
        let ids = ["Gene", "Protein", "Gene"].map(|t| insert(&mut db, t));
        assert_eq!(ids, [0, 1, 2]);
        db.execute("DROP TABLE Gene").unwrap();
        let pending = db.pending_operations(None).unwrap();
        assert_eq!(
            pending.iter().map(|op| op.id.raw()).collect::<Vec<_>>(),
            [1]
        );
        let err = db.execute("APPROVE OPERATION 2").unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
        db.close().unwrap();
        let mut db = crate::Database::open(&dir).unwrap();
        assert_eq!(
            insert(&mut db, "Protein"),
            3,
            "the checkpoint keeps 2 retired"
        );
        monitor(&mut db, "Gene");
        assert_eq!(insert(&mut db, "Gene"), 4, "the floor is checkpointed");
        db.execute("DROP TABLE Gene").unwrap();
        db.simulate_crash();
        let mut db = crate::Database::open(&dir).unwrap();
        assert_eq!(
            insert(&mut db, "Protein"),
            5,
            "the replayed drop retires its ids"
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
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

    fn op(inverse: InverseOp, status: OpStatus) -> LoggedOp {
        LoggedOp {
            id: OperationId(9),
            table: "Gene".into(),
            user: "alice".into(),
            time: 44,
            description: "UPDATE Gene".into(),
            inverse,
            status,
        }
    }

    /// Every inverse kind and status survives its log row, values typed.
    #[test]
    fn log_rows_round_trip() {
        for (inverse, status) in [
            (InverseOp::DeleteRow { row_no: 3 }, OpStatus::Pending),
            (
                InverseOp::InsertRow {
                    row_no: 4,
                    values: vec![Value::Text("JW1".into()), Value::Null, Value::Float(2.5)],
                },
                OpStatus::Approved,
            ),
            (
                InverseOp::RestoreCells {
                    row_no: 5,
                    old: vec![(0, Value::Null), (2, Value::Int(7))],
                },
                OpStatus::Disapproved,
            ),
        ] {
            let logged = op(inverse, status);
            let row = logged.to_row(3);
            let back = LoggedOp::from_row("Gene", 9, row).unwrap();
            assert_eq!(back.inverse, logged.inverse);
            assert_eq!(
                (back.id, back.status, back.time, back.user, back.description),
                (
                    logged.id,
                    logged.status,
                    44,
                    logged.user,
                    logged.description
                )
            );
        }
        let err = LoggedOp::from_row("Gene", 9, vec![Value::Null; 9]).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Corrupt);
    }
}
