//! The bdbms database facade.
//!
//! [`Database`] owns the storage pool, catalog, logical clock, and the
//! four managers the paper's architecture names (§2): the annotation
//! manager (per-table [`crate::annotation::AnnotationSet`]s), the
//! dependency manager, the authorization manager (GRANT/REVOKE), and the
//! content-approval manager.  Statements enter through
//! [`Database::execute_as`], which parses A-SQL and routes each command
//! through authorization, approval logging, and dependency tracking.

use std::cell::{Ref, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use bdbms_common::clock::LogicalClock;
use bdbms_common::metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use bdbms_common::{BdbmsError, DataType, Result, Schema, Value};
use bdbms_storage::{BufferPool, MemStore};

use bdbms_common::ids::{AnnotationId, OperationId};

use crate::annotation::{self, Annotation, AnnotationSet, ARCHIVED};
use crate::approval::{ApprovalManager, InverseOp, LoggedOp, OpStatus, STATUS};
use crate::ast::{AnnTarget, CopyFormat, Expr, Privilege, SeqIndexKind, Statement};
use crate::auth::{AuthManager, ADMIN};
use crate::catalog::{
    approval_log_owner, approval_table, deleted_table, on_table, records_table, rects_table,
    Catalog, Definition, DeletedRow, History, Kind, SharedView, Table, APPROVAL_TABLE, AUTH_TABLE,
    RULES_TABLE, SCHEMA_TABLE,
};
use crate::dependency::{DependencyManager, DependencyRule};
use crate::executor::{run_select_traced, select_cells, table_bindings, target_rows, ExecStats};
use crate::expr::eval;
use crate::provenance::{self, ProvenanceRecord};
use crate::result::{AnnRow, QueryResult};
use crate::session::Session;
use crate::txn::{LogEntry, TxnRuntime, TxnStatus, UndoOp};

/// How a dependency cascade treats non-recomputable targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CascadeMode {
    /// A source value was modified: recompute executable targets, mark the
    /// rest outdated.
    Update,
    /// A fresh row arrived: derive computable cells, but don't outdate
    /// values supplied with the row itself.
    InsertFresh,
    /// The source value is itself untrusted (outdated or deleted): mark
    /// targets outdated, never recompute from stale inputs.
    Stale,
}

/// Engine-level instruments, registered on the database's
/// [`MetricsRegistry`] at construction (docs/OBSERVABILITY.md).  The
/// instruments are plain atomics shared by `Arc`, so recording never
/// takes the registry lock.
#[derive(Debug, Clone)]
pub(crate) struct EngineMetrics {
    /// Committed transactions — explicit `COMMIT`s *and* the implicit
    /// per-statement transactions every standalone statement runs in.
    pub(crate) commits: Arc<Counter>,
    /// Rolled-back transactions (explicit `ROLLBACK`, failed implicit
    /// statements, and commits that failed at the WAL and rolled back).
    pub(crate) rollbacks: Arc<Counter>,
    /// Checkpoints taken.
    pub(crate) checkpoints: Arc<Counter>,
    /// Wall time per checkpoint.
    pub(crate) checkpoint_duration_ns: Arc<Histogram>,
    /// Bytes written by checkpoints (durable image pages).
    pub(crate) checkpoint_bytes: Arc<Counter>,
    /// Prepared-statement plan replays (cached plan still valid).
    pub(crate) plan_cache_hits: Arc<Counter>,
    /// Cursor opens with no cached plan to consult.
    pub(crate) plan_cache_misses: Arc<Counter>,
    /// Cached plans discarded (generation moved, or the replan decided
    /// differently) — the statement re-planned live.
    pub(crate) plan_cache_invalidations: Arc<Counter>,
    /// Statements executed through [`crate::Session::run`] / `execute`.
    pub(crate) statements: Arc<Counter>,
    /// Per-statement wall time (parse + plan + execute).
    pub(crate) statement_latency_ns: Arc<Histogram>,
    /// Statements that exceeded the slow-query threshold.
    pub(crate) slow_queries: Arc<Counter>,
}

impl EngineMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        EngineMetrics {
            commits: reg.counter("txn.commits"),
            rollbacks: reg.counter("txn.rollbacks"),
            checkpoints: reg.counter("checkpoint.count"),
            checkpoint_duration_ns: reg.histogram("checkpoint.duration_ns"),
            checkpoint_bytes: reg.counter("checkpoint.bytes"),
            plan_cache_hits: reg.counter("plan_cache.hits"),
            plan_cache_misses: reg.counter("plan_cache.misses"),
            plan_cache_invalidations: reg.counter("plan_cache.invalidations"),
            statements: reg.counter("session.statements"),
            statement_latency_ns: reg.histogram("session.statement_latency_ns"),
            slow_queries: reg.counter("session.slow_queries"),
        }
    }
}

/// One slow-query log entry (see [`Database::set_slow_query_threshold`]
/// and `SHOW SLOW QUERIES`).
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Logical time the statement finished.
    pub at: u64,
    /// User the statement ran as.
    pub user: String,
    /// Statement text.
    pub sql: String,
    /// Total wall time (parse + plan + execute), nanoseconds.
    pub duration_ns: u64,
    /// One-line plan summary from the statement's [`ExecStats`] (empty
    /// for statements that carry none, e.g. DML).
    pub plan_summary: String,
}

/// Fixed-capacity ring buffer of the slowest-statement history.  Bounded
/// so an unattended server can log slow queries forever without growing;
/// new entries evict the oldest.
#[derive(Debug, Default)]
pub(crate) struct SlowQueryLog {
    threshold_ns: Option<u64>,
    entries: VecDeque<SlowQuery>,
}

/// Capacity of the slow-query ring buffer.
const SLOW_QUERY_LOG_CAP: usize = 128;

/// The bdbms engine.
///
/// A `Database` is either **in-memory** ([`Database::new_in_memory`] —
/// state dies with the process; this is what tests and benchmarks use)
/// or **durable** ([`Database::create`] / [`Database::open`] — catalog
/// and row heaps persist on `FileStore` pages, commits are redo-logged
/// through a WAL, and crash recovery replays committed transactions; see
/// `crate::durability` and `docs/STORAGE.md`).
pub struct Database {
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) catalog: Catalog,
    pub(crate) clock: LogicalClock,
    /// The views of the catalog tables (`crate::catalog`), shared with
    /// the tables whose row writes keep them.
    pub(crate) auth: Rc<RefCell<AuthManager>>,
    pub(crate) approval: Rc<RefCell<ApprovalManager>>,
    pub(crate) deps: Rc<RefCell<DependencyManager>>,
    /// Transaction runtime: the transaction log (each change's redo
    /// record and inverse) and its watermarks.  Driven by the
    /// [`Session`] state machine (`BEGIN`/`COMMIT`/`ROLLBACK`); outside
    /// an explicit transaction every statement wraps itself in an
    /// implicit one, so a failing multi-row statement is atomic.
    pub(crate) txn: TxnRuntime,
    /// The durable half (WAL, checkpoint paths) — `None` when in-memory.
    pub(crate) storage: Option<crate::durability::PersistentStorage>,
    /// The live metrics registry: buffer-pool, WAL, checkpoint,
    /// transaction, plan-cache, and session instruments
    /// (docs/OBSERVABILITY.md).
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// Engine-level instruments, pre-resolved so hot paths never take
    /// the registry lock.
    pub(crate) engine_metrics: EngineMetrics,
    /// Ring buffer of statements slower than the configured threshold.
    pub(crate) slow_log: SlowQueryLog,
}

impl Database {
    /// An in-memory database with a default-size buffer pool.
    pub fn new_in_memory() -> Self {
        Self::with_pool(Arc::new(BufferPool::new(Box::new(MemStore::new()), 1024)))
    }

    /// A database over a caller-supplied buffer pool (benchmarks use this
    /// to control pool size and read I/O counters).
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        // the pool owns its counters; the registry only names them
        let pm = pool.metrics();
        metrics.register_counter("buffer.hits", pm.hits);
        metrics.register_counter("buffer.misses", pm.misses);
        metrics.register_counter("buffer.evictions", pm.evictions);
        metrics.register_counter("buffer.dirty_writebacks", pm.dirty_writebacks);
        let engine_metrics = EngineMetrics::new(&metrics);
        let mut db = Database {
            pool,
            catalog: Catalog::new(),
            clock: LogicalClock::new(),
            auth: Rc::default(),
            approval: Rc::default(),
            deps: Rc::default(),
            txn: TxnRuntime::new(),
            storage: None,
            metrics,
            engine_metrics,
            slow_log: SlowQueryLog::default(),
        };
        for (name, schema, view) in db.catalog_tables() {
            let mut t = Table::create(name, schema, ADMIN, db.pool.clone())
                .expect("a fresh pool has room")
                .with_history(view.map(History::Catalog));
            t.attach_log(db.txn.log());
            db.catalog
                .add_table(t)
                .expect("a fresh catalog holds no table");
        }
        db
    }

    /// The catalog tables, with their schemas and the views their rows
    /// keep (`$schema` keeps none: `define` acts on its rows).
    pub(crate) fn catalog_tables(&self) -> [(&'static str, Schema, Option<SharedView>); 4] {
        let view = |v: SharedView| Some(v);
        [
            (AUTH_TABLE, AuthManager::schema(), view(self.auth.clone())),
            (
                APPROVAL_TABLE,
                ApprovalManager::schema(),
                view(self.approval.clone()),
            ),
            (
                RULES_TABLE,
                DependencyRule::schema(),
                view(self.deps.clone()),
            ),
            (SCHEMA_TABLE, Definition::schema(), None),
        ]
    }

    /// The shared buffer pool (I/O counters live here).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The live metrics registry (docs/OBSERVABILITY.md).  Snapshot it
    /// with [`Self::metrics_snapshot`]; tests and tools may also
    /// register their own instruments here.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A point-in-time snapshot of every registered metric — counters,
    /// gauges, and latency histograms, sorted by name.  Cheap (relaxed
    /// atomic loads); safe to poll.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Engine-level instruments (plan cache, transactions, sessions).
    pub(crate) fn engine_metrics(&self) -> &EngineMetrics {
        &self.engine_metrics
    }

    // ---- slow-query log (docs/OBSERVABILITY.md) ----

    /// Record statements slower than `threshold` in a fixed-size ring
    /// buffer, surfaced by `SHOW SLOW QUERIES` and [`Self::slow_queries`].
    /// `None` (the default) disables recording.  Applies to statements
    /// run through [`crate::Session::run`] / [`crate::Session::execute`]
    /// (and the `Database::execute*` wrappers); streaming cursors are
    /// not recorded — their cost accrues as the caller pulls.
    pub fn set_slow_query_threshold(&mut self, threshold: Option<Duration>) {
        self.slow_log.threshold_ns = threshold.map(|d| d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// The configured slow-query threshold, if any.
    pub fn slow_query_threshold(&self) -> Option<Duration> {
        self.slow_log.threshold_ns.map(Duration::from_nanos)
    }

    /// The slow-query ring buffer, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log.entries.iter().cloned().collect()
    }

    /// Session callback: one statement finished in `duration`.  Bumps
    /// the session counters and, when a threshold is set and exceeded,
    /// records the statement in the slow-query ring.
    pub(crate) fn note_statement(
        &mut self,
        sql: &str,
        user: &str,
        duration: Duration,
        result: Option<&QueryResult>,
    ) {
        let ns = duration.as_nanos().min(u64::MAX as u128) as u64;
        self.engine_metrics.statements.inc();
        self.engine_metrics.statement_latency_ns.record(ns);
        let Some(threshold) = self.slow_log.threshold_ns else {
            return;
        };
        if ns < threshold {
            return;
        }
        self.engine_metrics.slow_queries.inc();
        let plan_summary = match result.and_then(|q| q.stats.as_ref()) {
            Some(st) => format!(
                "join_order={:?} indexes={:?} full_scans={} index_probes={} \
                 seq_index_probes={} rows_fetched={} limit_pushdowns={}",
                st.join_order,
                st.chosen_indexes,
                st.full_scans,
                st.index_probes,
                st.seq_index_probes,
                st.rows_fetched,
                st.limit_pushdowns
            ),
            None => String::new(),
        };
        if self.slow_log.entries.len() == SLOW_QUERY_LOG_CAP {
            self.slow_log.entries.pop_front();
        }
        self.slow_log.entries.push_back(SlowQuery {
            at: self.clock.now(),
            user: user.to_string(),
            sql: sql.to_string(),
            duration_ns: ns,
            plan_summary,
        });
    }

    /// The catalog (read access for benchmarks and tests).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The dependency manager.
    pub fn dependencies(&self) -> Ref<'_, DependencyManager> {
        self.deps.borrow()
    }

    /// The approval manager.
    pub fn approval(&self) -> Ref<'_, ApprovalManager> {
        self.approval.borrow()
    }

    /// The authorization manager: users, groups and grants.
    pub fn auth(&self) -> Ref<'_, AuthManager> {
        self.auth.borrow()
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Register an executable procedure body (§5) under `name`.
    pub fn register_procedure(&mut self, name: &str, f: impl Fn(&[Value]) -> Value + 'static) {
        self.deps.borrow_mut().register_procedure(name, f);
    }

    /// Open a [`Session`] acting as `user` — the prepared-statement /
    /// parameter-binding / streaming-cursor entry point (see
    /// `docs/API.md`).  Transport-agnostic tools should program against
    /// [`crate::client::Connection`] instead, which sessions implement.
    pub fn session(&mut self, user: &str) -> Session<'_> {
        Session::new(self, user)
    }

    /// Does `user` exist in the authorization manager?  (`admin` always
    /// does.)  The wire-protocol server validates `Hello` frames with
    /// this before binding a connection to a user.
    pub fn user_exists(&self, user: &str) -> bool {
        self.auth.borrow().user_exists(user)
    }

    /// Execute a statement as `admin`.
    ///
    /// **Legacy one-shot entry point** — a thin wrapper over
    /// [`Session::run`] via [`Self::execute_as`], kept because half the
    /// test suite and every doc example reads better with it.  New code
    /// should open a [`Session`] (or a [`crate::client::Connection`])
    /// and use its prepared-statement / cursor surface; SELECT results
    /// from either path carry their executor counters in
    /// [`QueryResult::stats`].
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        self.execute_as(sql, ADMIN)
    }

    /// Execute a statement as a given user (parse + execute in one step;
    /// statements with parameter placeholders must instead be prepared
    /// through a [`Session`]).
    ///
    /// **Legacy one-shot entry point** — literally
    /// `self.session(user).run(sql)`.  Prefer holding the [`Session`]
    /// yourself; it amortizes plan caching across statements.
    pub fn execute_as(&mut self, sql: &str, user: &str) -> Result<QueryResult> {
        self.session(user).run(sql)
    }

    /// Authorize `user` to read every FROM table of a SELECT, including
    /// the branches of UNION/INTERSECT/EXCEPT chains (shared by the
    /// one-shot execute path and session query cursors).
    pub(crate) fn check_select_auth(&self, sel: &crate::ast::Select, user: &str) -> Result<()> {
        let mut next = Some(sel);
        while let Some(sel) = next {
            for tref in &sel.from {
                let owner = &self.catalog.table(&tref.table)?.owner;
                self.auth
                    .borrow()
                    .check(user, &tref.table, owner, Privilege::Select)?;
            }
            next = sel.set_op.as_ref().map(|(_, right)| &**right);
        }
        Ok(())
    }

    /// Run a SELECT through `&self`, returning the result together with
    /// its execution counters (the same ones every SELECT result carries
    /// as [`QueryResult::stats`]).  This is the instrumentation path of
    /// the regression tests and the `crates/bench` experiments; it runs
    /// with admin visibility and does not tick the logical clock.
    pub fn query_traced(&self, sql: &str) -> Result<(QueryResult, ExecStats)> {
        let (stmt, param_count) = crate::parser::parse_prepared(sql)?;
        if param_count > 0 {
            return Err(BdbmsError::param_mismatch(format!(
                "statement expects {param_count} parameter(s); prepare it and \
                 pass them through a session"
            )));
        }
        match stmt {
            Statement::Select(sel) => {
                let mut stats = ExecStats::default();
                let mut qr = run_select_traced(&self.catalog, &sel, &mut stats)?;
                qr.stats = Some(stats.clone());
                Ok((qr, stats))
            }
            _ => Err(BdbmsError::invalid("query_traced expects a SELECT")),
        }
    }

    // ---- transactions (see `crate::txn` and docs/TRANSACTIONS.md) ----

    /// Observable transaction state: [`TxnStatus::Idle`], or
    /// [`TxnStatus::Active`] with the live savepoint count.
    pub fn transaction_status(&self) -> TxnStatus {
        if self.txn.explicit() {
            TxnStatus::Active {
                savepoints: self.txn.savepoint_count(),
            }
        } else {
            TxnStatus::Idle
        }
    }

    /// Is an explicit transaction (`BEGIN` without a matching
    /// `COMMIT`/`ROLLBACK`) open?
    pub fn in_transaction(&self) -> bool {
        self.txn.explicit()
    }

    pub(crate) fn txn_begin(&mut self) -> Result<QueryResult> {
        if self.txn.explicit() {
            return Err(BdbmsError::txn_state(
                "BEGIN inside an open transaction (nested transactions are \
                 not supported; use SAVEPOINT)",
            ));
        }
        self.txn.begin_explicit();
        Ok(QueryResult::message("transaction started"))
    }

    pub(crate) fn txn_commit(&mut self) -> Result<QueryResult> {
        if !self.txn.explicit() {
            return Err(BdbmsError::txn_state("COMMIT outside a transaction"));
        }
        // WAL first: only after the redo records + commit record are on
        // disk (per the durability policy) may the commit be
        // acknowledged.  A WAL failure rolls the transaction back — its
        // partial tail has no commit record, so recovery discards it.
        if let Err(e) = self.wal_commit() {
            let ops = self.txn.take_all();
            self.apply_undo(ops);
            self.engine_metrics.rollbacks.inc();
            return Err(BdbmsError::new(
                e.code(),
                format!("commit failed and was rolled back: {}", e.message()),
            ));
        }
        self.txn.commit();
        self.engine_metrics.commits.inc();
        self.maybe_checkpoint();
        Ok(QueryResult::message("transaction committed"))
    }

    pub(crate) fn txn_rollback(&mut self) -> Result<QueryResult> {
        if !self.txn.explicit() {
            return Err(BdbmsError::txn_state("ROLLBACK outside a transaction"));
        }
        let ops = self.txn.take_all();
        self.apply_undo(ops);
        self.engine_metrics.rollbacks.inc();
        Ok(QueryResult::message("transaction rolled back"))
    }

    pub(crate) fn txn_savepoint(&mut self, name: &str) -> Result<QueryResult> {
        if !self.txn.explicit() {
            return Err(BdbmsError::txn_state("SAVEPOINT outside a transaction"));
        }
        self.txn.add_savepoint(name);
        Ok(QueryResult::message(format!("savepoint `{name}` created")))
    }

    pub(crate) fn txn_rollback_to(&mut self, name: &str) -> Result<QueryResult> {
        if !self.txn.explicit() {
            return Err(BdbmsError::txn_state(
                "ROLLBACK TO SAVEPOINT outside a transaction",
            ));
        }
        let mark = self
            .txn
            .find_savepoint(name)
            .ok_or_else(|| BdbmsError::txn_state(format!("unknown savepoint `{name}`")))?;
        let ops = self.txn.take_after(mark);
        self.apply_undo(ops);
        Ok(QueryResult::message(format!(
            "rolled back to savepoint `{name}`"
        )))
    }

    pub(crate) fn txn_release(&mut self, name: &str) -> Result<QueryResult> {
        if !self.txn.explicit() {
            return Err(BdbmsError::txn_state(
                "RELEASE SAVEPOINT outside a transaction",
            ));
        }
        if !self.txn.release_savepoint(name) {
            return Err(BdbmsError::txn_state(format!("unknown savepoint `{name}`")));
        }
        Ok(QueryResult::message(format!("savepoint `{name}` released")))
    }

    /// Apply the inverses of taken log entries (newest first) and, if
    /// anything was undone, bump the catalog generation: the generation
    /// only ever moves forward, so a prepared plan cached against
    /// rolled-back DDL can never be replayed.
    ///
    /// The log is suspended for the duration: the inverses' own
    /// mutations must record nothing.
    pub(crate) fn apply_undo(&mut self, entries: Vec<LogEntry>) {
        if entries.is_empty() {
            return;
        }
        self.txn.suspend();
        for op in entries.into_iter().rev().filter_map(LogEntry::into_undo) {
            op.apply(self);
        }
        self.txn.resume();
        self.catalog.bump_generation();
    }

    /// Run `f` inside the implicit-transaction envelope: on success the
    /// redo records are committed to the WAL (durable databases) and the
    /// log discarded; on failure — of `f` *or* of the WAL write —
    /// every applied effect is rolled back.  When a transaction is
    /// already recording, `f` simply joins it.
    fn with_implicit<R>(&mut self, f: impl FnOnce(&mut Self) -> Result<R>) -> Result<R> {
        if self.txn.recording() {
            return f(self);
        }
        self.txn.begin_implicit();
        match f(self) {
            Ok(r) => {
                if let Err(e) = self.wal_commit() {
                    let ops = self.txn.take_all();
                    self.apply_undo(ops);
                    self.engine_metrics.rollbacks.inc();
                    return Err(BdbmsError::new(
                        e.code(),
                        format!("commit failed and was rolled back: {}", e.message()),
                    ));
                }
                self.txn.commit();
                self.engine_metrics.commits.inc();
                self.maybe_checkpoint();
                Ok(r)
            }
            Err(e) => {
                let ops = self.txn.take_all();
                self.apply_undo(ops);
                self.engine_metrics.rollbacks.inc();
                Err(e)
            }
        }
    }

    /// Record the first-touch snapshot of a table's non-row state
    /// (stats, row allocator, outdated-bitmap row count).  Must run
    /// *before* the mutation it covers.
    fn rec_touch_table(&mut self, table: &str) {
        if !self.txn.table_needs_snapshot(table) {
            return;
        }
        if let Ok(t) = self.catalog.table(table) {
            self.txn.record_undo(|| UndoOp::RestoreTableState {
                table: t.name.clone(),
                stats: t.stats().clone(),
                next_row: t.peek_next_row(),
                outdated_rows: t.outdated.rows(),
            });
        }
    }

    // ---- the curator's history: rows of hidden tables ----

    /// Hidden table `name`, ready for a row write: its non-row state is
    /// snapshotted first.  The row is logged and undone like any other,
    /// and the table's derived state follows it.
    fn history_table(&mut self, name: &str) -> Result<&mut Table> {
        self.rec_touch_table(name);
        self.catalog.table_mut(name)
    }

    /// Delete table `name`'s grants and approval config, and retire the
    /// ids its approval log handed out (its operations go with the log:
    /// none can be decided any more).  Runs before the table is dropped.
    pub(crate) fn drop_catalog_entries(&mut self, name: &str) -> Result<()> {
        for catalog in [AUTH_TABLE, APPROVAL_TABLE] {
            self.catalog_delete(catalog, |row| on_table(row).eq_ignore_ascii_case(name))?;
        }
        let log = self.catalog.table(&approval_table(name));
        let next = log.map_or(0, Table::peek_next_row);
        if next > self.approval.borrow().id_floor() {
            // the floor row is the one about no table
            self.catalog_delete(APPROVAL_TABLE, |row| row[0].is_null())?;
            self.history_table(APPROVAL_TABLE)?
                .insert(ApprovalManager::floor_row(next))?;
        }
        Ok(())
    }

    /// Delete every row of catalog table `name` that `doomed` picks; the
    /// table's view follows.
    pub(crate) fn catalog_delete(
        &mut self,
        name: &str,
        doomed: impl Fn(&[Value]) -> bool,
    ) -> Result<()> {
        let mut rows = Vec::new();
        for row in self.catalog.table(name)?.iter_rows() {
            let (row_no, row) = row?;
            if doomed(&row) {
                rows.push(row_no);
            }
        }
        let t = self.history_table(name)?;
        for row_no in rows {
            t.delete(row_no)?;
        }
        Ok(())
    }

    // ---- definitions: rows of `$schema` ----

    /// Put definition `row` of `$schema` into effect (`added`) or out of
    /// it: the one place a table, index, sequence index or annotation
    /// set is created or dropped.  Live DDL calls it next to the row
    /// write, and [`apply_wal_record`](Self::apply_wal_record) after any
    /// row record on `$schema`, so rollback (the rows' inverses) and
    /// replay run this code.  It logs nothing: the row record is the log.
    ///
    /// A table or set dropped while the log records is kept by the
    /// transaction, and a row inverse re-defining it puts it back whole
    /// (heap, annotations, statistics), not empty.  A re-defined index is
    /// backfilled from the heap, which is by then as it was at the drop.
    pub(crate) fn define(&mut self, row: &[Value], added: bool) -> Result<()> {
        let def = Definition::from_row(row)?;
        // a table or set goes under the table that owns the others it makes
        let head = match &def.kind {
            Kind::Index { column, seq } => {
                let t = self.catalog.table_mut(&def.table)?;
                match added {
                    true => t.create_index(&def.name, column, *seq)?,
                    false => t.drop_index(&def.name, seq.is_some())?,
                }
                None
            }
            Kind::Table { .. } => Some(def.name.clone()),
            Kind::Set { .. } => Some(records_table(&def.table, &def.name)),
        };
        if let Some(head) = head {
            if !added {
                let tables = self.catalog.drop_table(&head)?;
                self.txn.keep(&head, tables);
            } else if let Some(tables) = self.txn.take_kept(&head) {
                for t in tables {
                    self.catalog.add_table(t)?;
                }
            } else {
                let pool = self.pool.clone();
                self.add_defined_tables(&def, |name, schema, owner, history| {
                    Ok(Table::create(name, schema, owner, pool.clone())?.with_history(history))
                })?;
            }
        }
        // a new or lost access path invalidates cached prepared plans
        self.catalog.bump_generation();
        Ok(())
    }

    /// Add the tables definition `def` makes — a table with its deletion
    /// and approval logs, or a set's record and rectangle tables, which
    /// share the set — each by `make(name, schema, owner, history)`:
    /// empty for DDL, over the image's parts at open.
    pub(crate) fn add_defined_tables(
        &mut self,
        def: &Definition,
        mut make: impl FnMut(String, Schema, &str, Option<History>) -> Result<Table>,
    ) -> Result<()> {
        let (table, name) = (&def.table, &def.name);
        let (owner, tables) = match &def.kind {
            Kind::Table { owner, schema } => {
                let table = (table.clone(), schema.clone(), None);
                let deleted = (deleted_table(name), DeletedRow::schema(schema), None);
                let approval = (approval_table(name), LoggedOp::schema(schema), None);
                (owner.clone(), vec![table, deleted, approval])
            }
            Kind::Set {
                cell_scheme,
                system_only,
                schema_enforced,
            } => {
                let mut set = AnnotationSet::new(name, *cell_scheme);
                set.system_only = *system_only;
                set.schema_enforced = *schema_enforced;
                let [records, rects] = History::of_set(set).map(Some);
                let records = (
                    records_table(table, name),
                    annotation::record_schema(),
                    records,
                );
                let rects = (rects_table(table, name), annotation::rect_schema(), rects);
                (
                    self.catalog.table(table)?.owner.clone(),
                    vec![records, rects],
                )
            }
            Kind::Index { .. } => return Ok(()),
        };
        for (name, schema, history) in tables {
            let mut t = make(name, schema, &owner, history)?;
            t.attach_log(self.txn.log());
            self.catalog.add_table(t)?;
        }
        Ok(())
    }

    /// Put `def` into effect and write its `$schema` row: the row record
    /// is all a DDL statement logs, and its inverse takes the definition
    /// out again.
    fn add_definition(&mut self, def: Definition) -> Result<()> {
        let row = def.to_row();
        self.define(&row, true)?;
        if let Err(e) = self.history_table(SCHEMA_TABLE)?.insert(row.clone()) {
            // nothing was logged: take the definition back unlogged
            self.txn.suspend();
            let _ = self.define(&row, false);
            self.txn.resume();
            return Err(e);
        }
        Ok(())
    }

    /// Delete the `$schema` rows on `table` whose definitions `is`
    /// picks, taking each out of effect, and count them.  A table's own
    /// row goes last: rollback runs newest first, so the row inverses
    /// re-define the table before its indexes and sets.
    fn drop_definitions(&mut self, table: &str, is: impl Fn(&Definition) -> bool) -> Result<usize> {
        let mut doomed = Vec::new();
        for row in self.catalog.table(SCHEMA_TABLE)?.iter_rows() {
            let (row_no, row) = row?;
            let def = Definition::from_row(&row)?;
            if def.table.eq_ignore_ascii_case(table) && is(&def) {
                doomed.push((matches!(def.kind, Kind::Table { .. }), row_no));
            }
        }
        doomed.sort_unstable();
        for &(_, row_no) in &doomed {
            let row = self.history_table(SCHEMA_TABLE)?.delete(row_no)?;
            self.define(&row, false)?;
        }
        Ok(doomed.len())
    }

    /// `CREATE [SEQUENCE] INDEX`: its row names the table and the column
    /// as the catalog spells them.
    fn create_index(
        &mut self,
        table: &str,
        name: &str,
        column: &str,
        seq: Option<SeqIndexKind>,
        user: &str,
    ) -> Result<()> {
        self.require_owner(table, user)?;
        let t = self.catalog.table(table)?;
        let column = t.schema.columns()[t.schema.require(column)?].name.clone();
        let (table, name) = (t.name.clone(), name.to_string());
        let kind = Kind::Index { column, seq };
        self.add_definition(Definition { table, name, kind })
    }

    /// `DROP [SEQUENCE] INDEX`.
    fn drop_index(&mut self, table: &str, name: &str, seq: bool, user: &str) -> Result<()> {
        self.require_owner(table, user)?;
        let dropped = self.drop_definitions(table, |d| {
            let index = matches!(d.kind, Kind::Index { seq: s, .. } if s.is_some() == seq);
            index && d.name.eq_ignore_ascii_case(name)
        })?;
        if dropped == 0 {
            let kind = if seq { "sequence index" } else { "index" };
            return Err(BdbmsError::not_found(format!(
                "{kind} `{name}` on `{table}`"
            )));
        }
        Ok(())
    }

    /// Store a new annotation over `rows × cols` of `table` in `set`:
    /// one record row (whose row number is the id) and its rectangles
    /// (`T$S$rects`).
    #[allow(clippy::too_many_arguments)] // the annotation's fields
    fn insert_annotation(
        &mut self,
        table: &str,
        set: &str,
        raw: &str,
        creator: &str,
        created: u64,
        rows: &[u64],
        cols: &[usize],
    ) -> Result<AnnotationId> {
        let records = self.history_table(&records_table(table, set))?;
        let id = AnnotationId(records.insert(Annotation::row(raw, created, creator))?);
        let rects = rects_table(table, set);
        for r in annotation::rectangles(id, rows, cols) {
            self.history_table(&rects)?.insert(r.row())?;
        }
        Ok(id)
    }

    /// Archive (or restore) the annotations of `set` attached to any of
    /// `cells`, optionally limited to a creation-time window (Figure
    /// 6b/6c): each one that changes state is one record-row update.
    /// Returns how many changed.
    fn set_archived(
        &mut self,
        table: &str,
        set: &str,
        cells: &[(u64, usize)],
        between: Option<(u64, u64)>,
        archived: bool,
    ) -> Result<usize> {
        let index = self.catalog.annotation_set(table, set)?.index();
        let mut ids: Vec<AnnotationId> = cells
            .iter()
            .flat_map(|&(r, c)| index.ids_for_cell(r, c))
            .filter(|&id| index.is_archived(id) != archived)
            .collect();
        drop(index);
        ids.sort_unstable();
        ids.dedup();
        let records = records_table(table, set);
        let mut changed = 0;
        for id in ids {
            let old = self.catalog.table(&records)?.get(id.raw())?;
            let created = Annotation::from_row(id.raw(), old.clone())?.created;
            if between.is_some_and(|(lo, hi)| created < lo || hi < created) {
                continue;
            }
            let mut row = old.clone();
            row[ARCHIVED] = Value::Bool(archived);
            let records = self.history_table(&records)?;
            records.update_with_old(id.raw(), &old, row)?;
            changed += 1;
        }
        Ok(changed)
    }

    /// Every approval log, with its owner's name.  An operation's id is
    /// its row number in its table's log: the logs' row maps are the
    /// id → row map.
    fn approval_logs(&self) -> impl Iterator<Item = (&str, &Table)> {
        let logs = self.catalog.all_tables();
        logs.filter_map(|t| Some((approval_log_owner(&t.name)?, t)))
    }

    /// Append a pending operation to `table`'s approval log (§6).
    fn log_for_approval(
        &mut self,
        table: &str,
        user: &str,
        description: String,
        inverse: InverseOp,
    ) -> Result<()> {
        // ids are global: one past the highest any log, dropped ones
        // included, has handed out (a rollback rewinds its log's
        // allocator, freeing the id again)
        let logs = self.approval_logs().map(|(_, log)| log.peek_next_row());
        let id = logs.fold(self.approval.borrow().id_floor(), u64::max);
        let op = LoggedOp {
            id: OperationId(id),
            table: table.to_string(),
            user: user.to_string(),
            time: self.clock.now(),
            description,
            inverse,
            status: OpStatus::Pending,
        };
        let row = op.to_row(self.catalog.table(table)?.schema.arity());
        let log = self.history_table(&approval_table(table))?;
        log.insert_with_row_no(id, row).map(drop)
    }

    /// Keep a deleted tuple in `table`'s deletion log (§3.2).
    fn log_deletion(&mut self, table: &str, deleted: DeletedRow) -> Result<()> {
        let log = self.history_table(&deleted_table(table))?;
        log.insert(deleted.into_row()).map(drop)
    }

    /// The deletion log of `table` (§3.2), oldest first.
    pub fn deleted_log(&self, table: &str) -> Result<Vec<DeletedRow>> {
        self.catalog.table(table)?;
        let log = self.catalog.table(&deleted_table(table))?;
        log.iter_rows()
            .map(|r| r.and_then(|(_, row)| DeletedRow::from_row(row)))
            .collect()
    }

    /// Every logged operation (§6), optionally of one table only, in id
    /// order, decided or not.
    pub fn approval_log(&self, table: Option<&str>) -> Result<Vec<LoggedOp>> {
        let mut ops = Vec::new();
        for (owner, log) in self.approval_logs() {
            if table.is_none_or(|f| f.eq_ignore_ascii_case(owner)) {
                for row in log.iter_rows() {
                    let (id, row) = row?;
                    ops.push(LoggedOp::from_row(owner, id, row)?);
                }
            }
        }
        ops.sort_by_key(|op| op.id);
        Ok(ops)
    }

    /// The operations awaiting a decision, optionally of one table only.
    pub fn pending_operations(&self, table: Option<&str>) -> Result<Vec<LoggedOp>> {
        let mut ops = self.approval_log(table)?;
        ops.retain(|op| op.status == OpStatus::Pending);
        Ok(ops)
    }

    /// Statements rejected inside an explicit transaction: `COPY`
    /// commits by writing a checkpoint image, and an image cannot hold
    /// another statement's uncommitted work.
    fn non_transactional(stmt: &Statement) -> Option<&'static str> {
        matches!(stmt, Statement::Copy { .. }).then_some("COPY")
    }

    /// Execute a parsed statement.
    ///
    /// Inside an explicit transaction the statement runs against the
    /// open transaction log with statement-level atomicity (a failure
    /// undoes the statement's own effects and leaves the transaction
    /// usable).
    /// Otherwise the statement wraps itself in an **implicit
    /// transaction**: on error every already-applied effect — rows of a
    /// multi-row INSERT, earlier rows of an UPDATE, cascade recomputes —
    /// is rolled back, so statements are atomic.
    pub fn execute_stmt(&mut self, stmt: Statement, user: &str) -> Result<QueryResult> {
        // Transaction control is the Session's state machine
        // (`Session::run` and `Session::execute` route these before they
        // get here); reaching one directly is a state-machine bypass.
        if matches!(
            stmt,
            Statement::Begin
                | Statement::Commit
                | Statement::Rollback
                | Statement::Savepoint { .. }
                | Statement::RollbackTo { .. }
                | Statement::Release { .. }
        ) {
            return Err(BdbmsError::txn_state(
                "transaction control statements run through a Session \
                 (Database::execute wraps one)",
            ));
        }
        if self.txn.explicit() {
            if let Some(what) = Self::non_transactional(&stmt) {
                return Err(BdbmsError::txn_state(format!(
                    "{what} is non-transactional; run it outside BEGIN…COMMIT"
                )));
            }
            let mark = self.txn.watermark();
            let r = self.execute_stmt_inner(stmt, user);
            match &r {
                // drop this statement's now-redundant snapshot copies so
                // long transactions hold one snapshot per object per
                // frame, not per statement
                Ok(_) => self.txn.statement_succeeded(mark),
                Err(_) => {
                    let ops = self.txn.take_after(mark);
                    self.apply_undo(ops);
                }
            }
            r
        } else {
            // implicit transaction: atomic in memory AND on disk — the
            // statement's redo records reach the WAL only on success
            self.with_implicit(|db| db.execute_stmt_inner(stmt, user))
        }
    }

    /// Execute a parsed statement against the open transaction log.
    fn execute_stmt_inner(&mut self, stmt: Statement, user: &str) -> Result<QueryResult> {
        self.clock.tick();
        match stmt {
            Statement::CreateTable { name, columns } => self.create_table(name, columns, user),
            Statement::DropTable { name } => self.drop_table(&name, user),
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                self.create_index(&table, &name, &column, None, user)?;
                Ok(QueryResult::message(format!(
                    "index `{name}` created on `{table}`"
                )))
            }
            Statement::DropIndex { name, table } => {
                self.drop_index(&table, &name, false, user)?;
                Ok(QueryResult::message(format!(
                    "index `{name}` dropped from `{table}`"
                )))
            }
            Statement::CreateSequenceIndex {
                name,
                table,
                column,
                kind,
            } => {
                self.create_index(&table, &name, &column, Some(kind), user)?;
                Ok(QueryResult::message(format!(
                    "sequence index `{name}` ({}) created on `{table}`",
                    kind.as_str()
                )))
            }
            Statement::DropSequenceIndex { name, table } => {
                self.drop_index(&table, &name, true, user)?;
                Ok(QueryResult::message(format!(
                    "sequence index `{name}` dropped from `{table}`"
                )))
            }
            Statement::Copy {
                table,
                path,
                format,
            } => self.do_copy(&table, &path, format, user),
            Statement::CreateAnnotationTable {
                name,
                on,
                cell_scheme,
            } => self.create_annotation_table(&name, &on, cell_scheme, user),
            Statement::DropAnnotationTable { name, on } => {
                self.drop_annotation_table(&name, &on, user)
            }
            Statement::AddAnnotation { to, value, on } => self.add_annotation(to, &value, on, user),
            Statement::ArchiveAnnotation { from, between, on } => {
                self.archive_restore(from, between, on, true, user)
            }
            Statement::RestoreAnnotation { from, between, on } => {
                self.archive_restore(from, between, on, false, user)
            }
            Statement::Select(sel) => {
                self.check_select_auth(&sel, user)?;
                let mut stats = ExecStats::default();
                let mut qr = run_select_traced(&self.catalog, &sel, &mut stats)?;
                qr.stats = Some(stats);
                Ok(qr)
            }
            Statement::Insert { table, rows } => {
                let mut inserted = Vec::new();
                for row in rows {
                    inserted.push(self.do_insert(&table, &row, user)?);
                }
                Ok(QueryResult::affected(inserted.len()))
            }
            Statement::Update {
                table,
                sets,
                where_clause,
            } => {
                let n = self
                    .do_update(&table, &sets, where_clause.as_ref(), user)?
                    .len();
                Ok(QueryResult::affected(n))
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                let n = self
                    .do_delete(&table, where_clause.as_ref(), user, None)?
                    .len();
                Ok(QueryResult::affected(n))
            }
            Statement::CreateUser { name, groups } => {
                if user != ADMIN {
                    return Err(BdbmsError::unauthorized("only admin may create users"));
                }
                if self.auth.borrow().user_exists(&name) {
                    return Err(BdbmsError::already_exists(format!("user `{name}`")));
                }
                let groups = groups.iter().map(|g| Some(g.as_str()));
                for group in std::iter::once(None).chain(groups) {
                    let row = AuthManager::row(None, &name, group, None);
                    self.history_table(AUTH_TABLE)?.insert(row)?;
                }
                Ok(QueryResult::message(format!("user `{name}` created")))
            }
            Statement::Grant {
                privileges,
                table,
                to,
            } => {
                self.require_owner(&table, user)?;
                self.auth.borrow().require_principal(&to)?;
                for p in privileges {
                    let held = self.auth.borrow().granted(&to, &table, p);
                    if !held {
                        let row = AuthManager::row(Some(&table), &to, None, Some(p));
                        self.history_table(AUTH_TABLE)?.insert(row)?;
                    }
                }
                Ok(QueryResult::message(format!(
                    "granted on `{table}` to `{to}`"
                )))
            }
            Statement::Revoke {
                privileges,
                table,
                from,
            } => {
                self.require_owner(&table, user)?;
                self.auth.borrow().require_principal(&from)?;
                let revoked: Vec<Vec<Value>> = (privileges.into_iter())
                    .map(|p| AuthManager::row(Some(&table), &from, None, Some(p)))
                    .collect();
                self.catalog_delete(AUTH_TABLE, |row| revoked.iter().any(|r| r == row))?;
                Ok(QueryResult::message(format!(
                    "revoked on `{table}` from `{from}`"
                )))
            }
            Statement::StartContentApproval {
                table,
                columns,
                approved_by,
            } => {
                self.require_owner(&table, user)?;
                let schema = &self.catalog.table(&table)?.schema;
                for column in &columns {
                    schema.require(column)?;
                }
                self.auth.borrow().require_principal(&approved_by)?;
                // a new config replaces the old one
                let key = Value::Text(table.to_ascii_lowercase());
                self.catalog_delete(APPROVAL_TABLE, |row| row[0] == key)?;
                let mut columns: Vec<Option<&str>> = columns.iter().map(|c| Some(&c[..])).collect();
                if columns.is_empty() {
                    columns.push(None);
                }
                for column in columns {
                    let row = ApprovalManager::row(&table, column, &approved_by);
                    self.history_table(APPROVAL_TABLE)?.insert(row)?;
                }
                Ok(QueryResult::message(format!(
                    "content approval started on `{table}`"
                )))
            }
            Statement::StopContentApproval { table, columns } => {
                self.require_owner(&table, user)?;
                self.approval.borrow().check_stop(&table, &columns)?;
                let key = Value::Text(table.to_ascii_lowercase());
                let stopped = |c: Option<&str>| {
                    columns.is_empty()
                        || c.is_some_and(|c| columns.iter().any(|x| x.eq_ignore_ascii_case(c)))
                };
                self.catalog_delete(APPROVAL_TABLE, |row| {
                    row[0] == key && stopped(row[1].as_text())
                })?;
                Ok(QueryResult::message(format!(
                    "content approval stopped on `{table}`"
                )))
            }
            Statement::ApproveOperation { id } => self.decide(id, true, user),
            Statement::DisapproveOperation { id } => self.decide(id, false, user),
            Statement::ShowPending { table } => {
                let mut qr = QueryResult {
                    columns: vec![
                        "id".into(),
                        "table".into(),
                        "user".into(),
                        "time".into(),
                        "status".into(),
                        "description".into(),
                    ],
                    ..Default::default()
                };
                for op in self.pending_operations(table.as_deref())? {
                    qr.rows.push(AnnRow::plain(vec![
                        Value::Int(op.id.raw() as i64),
                        Value::Text(op.table),
                        Value::Text(op.user),
                        Value::Timestamp(op.time),
                        Value::Text(op.status.to_string()),
                        Value::Text(op.description),
                    ]));
                }
                Ok(qr)
            }
            Statement::ShowOutdated { table } => self.show_outdated(table.as_deref()),
            Statement::Check { table } => self.run_check(table.as_deref()),
            Statement::Explain { analyze, stmt } => match *stmt {
                Statement::Select(sel) => {
                    self.check_select_auth(&sel, user)?;
                    crate::executor::explain_select(&self.catalog, &sel, analyze)
                }
                _ => Err(BdbmsError::invalid(
                    "EXPLAIN supports only SELECT statements",
                )),
            },
            Statement::ShowSlowQueries => {
                let mut qr = QueryResult {
                    columns: vec![
                        "time".to_string(),
                        "user".to_string(),
                        "duration_us".to_string(),
                        "plan".to_string(),
                        "sql".to_string(),
                    ],
                    ..Default::default()
                };
                for q in self.slow_queries() {
                    qr.rows.push(AnnRow::plain(vec![
                        Value::Timestamp(q.at),
                        Value::Text(q.user),
                        Value::Int((q.duration_ns / 1_000) as i64),
                        Value::Text(q.plan_summary),
                        Value::Text(q.sql),
                    ]));
                }
                Ok(qr)
            }
            Statement::CreateDependencyRule {
                name,
                from,
                to,
                procedure,
                executable,
                invertible,
                link,
            } => self.create_dependency_rule(
                name, from, to, procedure, executable, invertible, link, user,
            ),
            Statement::DropDependencyRule { name } => {
                if user != ADMIN {
                    return Err(BdbmsError::unauthorized(
                        "only admin may drop dependency rules",
                    ));
                }
                let rule = self.deps.borrow().rule_by_name(&name).map(|r| r.id.raw());
                let id =
                    rule.ok_or_else(|| BdbmsError::not_found(format!("dependency rule `{name}`")))?;
                self.history_table(RULES_TABLE)?.delete(id)?;
                Ok(QueryResult::message(format!("rule `{name}` dropped")))
            }
            Statement::Analyze { table } => {
                let owner = self.catalog.table(&table)?.owner.clone();
                self.auth
                    .borrow()
                    .check(user, &table, &owner, Privilege::Select)?;
                // the snapshot holds the incremental stats ANALYZE replaces
                self.rec_touch_table(&table);
                let rows = self.catalog.table_mut(&table)?.analyze()?;
                // statistics are stored: the next close must write them
                self.note_analyze();
                // fresh stats can change cost-based choices: replan
                self.catalog.bump_generation();
                Ok(QueryResult::message(format!(
                    "analyzed `{table}`: {rows} row(s)"
                )))
            }
            Statement::Validate {
                table,
                columns,
                where_clause,
            } => self.validate(&table, &columns, where_clause.as_ref(), user),
            Statement::Begin
            | Statement::Commit
            | Statement::Rollback
            | Statement::Savepoint { .. }
            | Statement::RollbackTo { .. }
            | Statement::Release { .. } => {
                unreachable!("transaction control is routed by execute_stmt")
            }
        }
    }

    fn require_owner(&self, table: &str, user: &str) -> Result<()> {
        let t = self.catalog.table(table)?;
        if user == ADMIN {
            return Ok(());
        }
        if t.owner.eq_ignore_ascii_case(user) {
            Ok(())
        } else {
            Err(BdbmsError::unauthorized(format!(
                "user `{user}` is not the owner of `{table}`"
            )))
        }
    }

    // ---- bulk load (COPY) ----

    /// `COPY <table> FROM '<path>'`: the bulk-load protocol.  Rows go to
    /// the heap with index/stats/redo maintenance deferred
    /// (`crate::ingest`), and a durable database commits the load by
    /// writing a checkpoint image before the implicit transaction ends:
    /// nothing reaches the WAL.  Rollback on failure — of the load or of
    /// the checkpoint — is the recorded `UnBulkLoad` inverse (truncate
    /// the appended rows) plus the first-touch snapshot (restore stats /
    /// allocator / bitmap size) — recorded first, so applied last.
    fn do_copy(
        &mut self,
        table: &str,
        path: &str,
        format: Option<CopyFormat>,
        user: &str,
    ) -> Result<QueryResult> {
        let owner = self.catalog.table(table)?.owner.clone();
        self.auth
            .borrow()
            .check(user, table, &owner, Privilege::Insert)?;
        if self.approval.borrow().config(table).is_some() {
            return Err(BdbmsError::invalid(format!(
                "COPY into `{table}` is not supported while content approval \
                 monitors it (bulk loads bypass per-row operation logging)"
            )));
        }
        let format = crate::ingest::resolve_format(std::path::Path::new(path), format);
        self.rec_touch_table(table);
        let first_row = self.catalog.table(table)?.peek_next_row();
        self.txn.record_undo(|| UndoOp::UnBulkLoad {
            table: table.to_string(),
            first_row,
        });
        // the bulk path logs nothing: the inverse above covers every row
        self.txn.suspend();
        let loaded = self
            .catalog
            .table_mut(table)
            .and_then(|t| crate::ingest::bulk_load(t, std::path::Path::new(path), format));
        self.txn.resume();
        let rows = loaded?;
        // new rows + rebuilt stats invalidate cached plans
        self.catalog.bump_generation();
        if self.storage.is_some() {
            // the checkpoint is the commit: the image holds the load once
            // the rename succeeds.  A redo record left in the buffer would
            // reach the WAL above the image's frontier and apply twice.
            assert!(!self.txn.has_redo(), "COPY logs no redo");
            self.checkpoint_inner().map_err(|e| {
                BdbmsError::new(
                    e.code(),
                    format!("COPY checkpoint failed, load rolled back: {}", e.message()),
                )
            })?;
        }
        let mut qr = QueryResult::affected(rows as usize);
        qr.message = Some(format!(
            "copied {rows} row(s) into `{table}` from `{path}` ({})",
            format.as_str()
        ));
        Ok(qr)
    }

    // ---- DDL ----

    fn create_table(
        &mut self,
        name: String,
        columns: Vec<(String, DataType)>,
        user: &str,
    ) -> Result<QueryResult> {
        let schema = Schema::new(
            columns
                .into_iter()
                .map(|(n, t)| bdbms_common::ColumnDef::new(n, t))
                .collect(),
        )?;
        let owner = user.to_string();
        self.add_definition(Definition {
            table: name.clone(),
            name: name.clone(),
            kind: Kind::Table { owner, schema },
        })?;
        Ok(QueryResult::message(format!("table `{name}` created")))
    }

    fn drop_table(&mut self, name: &str, user: &str) -> Result<QueryResult> {
        self.require_owner(name, user)?;
        if let Some(rule) = (self.deps.borrow().rules().iter()).find(|r| {
            r.src_table.eq_ignore_ascii_case(name) || r.dst_table.eq_ignore_ascii_case(name)
        }) {
            return Err(BdbmsError::dependency(format!(
                "dependency rule `{}` names `{name}`; drop the rule first \
                 (DROP DEPENDENCY RULE {})",
                rule.name, rule.name
            )));
        }
        self.drop_catalog_entries(name)?;
        self.drop_definitions(name, |_| true)?;
        Ok(QueryResult::message(format!("table `{name}` dropped")))
    }

    fn create_annotation_table(
        &mut self,
        name: &str,
        on: &str,
        cell_scheme: bool,
        user: &str,
    ) -> Result<QueryResult> {
        self.require_owner(on, user)?;
        if self.catalog.annotation_set(on, name).is_ok() {
            return Err(BdbmsError::already_exists(format!(
                "annotation table `{name}` on `{on}`"
            )));
        }
        self.create_ann_set(on, AnnotationSet::new(name, cell_scheme))?;
        Ok(QueryResult::message(format!(
            "annotation table `{name}` created on `{on}`"
        )))
    }

    fn drop_annotation_table(&mut self, name: &str, on: &str, user: &str) -> Result<QueryResult> {
        self.require_owner(on, user)?;
        let set = |d: &Definition| matches!(d.kind, Kind::Set { .. });
        if self.drop_definitions(on, |d| set(d) && d.name.eq_ignore_ascii_case(name))? == 0 {
            let what = format!("annotation table `{name}` on `{on}`");
            return Err(BdbmsError::not_found(what));
        }
        Ok(QueryResult::message(format!(
            "annotation table `{name}` dropped from `{on}`"
        )))
    }

    /// Define annotation set `set` on `table` — every set creation
    /// funnels through here.
    fn create_ann_set(&mut self, table: &str, set: AnnotationSet) -> Result<()> {
        let kind = Kind::Set {
            cell_scheme: set.is_cell_scheme(),
            system_only: set.system_only,
            schema_enforced: set.schema_enforced,
        };
        let table = self.catalog.table(table)?.name.clone();
        let name = set.name;
        self.add_definition(Definition { table, name, kind })
    }

    // ---- DML with approval + dependency integration ----

    /// Insert one literal row; returns the new row number.
    fn do_insert(&mut self, table: &str, row: &[Expr], user: &str) -> Result<u64> {
        let owner = self.catalog.table(table)?.owner.clone();
        self.auth
            .borrow()
            .check(user, table, &owner, Privilege::Insert)?;
        let values: Vec<Value> = row
            .iter()
            .map(|e| eval(e, &[], &[]))
            .collect::<Result<_>>()?;
        self.rec_touch_table(table);
        let t = self.catalog.table_mut(table)?;
        let row_no = t.insert(values)?;
        let all_cols: Vec<String> = t.schema.names().iter().map(|s| s.to_string()).collect();
        // content approval (§6)
        if self.approval.borrow().monitors(table, &all_cols) && !self.is_approver(user, table) {
            self.log_for_approval(
                table,
                user,
                format!("INSERT INTO {table} (row {row_no})"),
                InverseOp::DeleteRow { row_no },
            )?;
        }
        // dependency cascade: the new row may feed *computable* derived
        // cells; it never outdates values supplied with the fresh row
        let arity = self.catalog.table(table)?.schema.arity();
        for col in 0..arity {
            self.cascade(table, row_no, col, CascadeMode::InsertFresh)?;
        }
        Ok(row_no)
    }

    /// Update matching rows; returns the touched row numbers.
    fn do_update(
        &mut self,
        table: &str,
        sets: &[(String, Expr)],
        where_clause: Option<&Expr>,
        user: &str,
    ) -> Result<Vec<u64>> {
        let owner = self.catalog.table(table)?.owner.clone();
        self.auth
            .borrow()
            .check(user, table, &owner, Privilege::Update)?;
        let t = self.catalog.table(table)?;
        let bindings = table_bindings(t, &t.name);
        let set_cols: Vec<usize> = sets
            .iter()
            .map(|(c, _)| t.schema.require(c))
            .collect::<Result<_>>()?;
        let touched_names: Vec<String> = sets.iter().map(|(c, _)| c.clone()).collect();
        // plan: evaluate per matching row (row selection is the executor's
        // scan stage)
        #[allow(clippy::type_complexity)]
        let mut plans: Vec<(u64, Vec<Value>, Vec<Value>, Vec<(usize, Value)>)> = Vec::new();
        for (row_no, values) in target_rows(t, &t.name, where_clause, true)? {
            let mut new_values = values.clone();
            let mut old: Vec<(usize, Value)> = Vec::new();
            for ((_, e), &col) in sets.iter().zip(&set_cols) {
                let v = eval(e, &bindings, &values)?;
                old.push((col, values[col].clone()));
                new_values[col] = v;
            }
            plans.push((row_no, values, new_values, old));
        }
        let monitored = self.approval.borrow().monitors(table, &touched_names)
            && !self.is_approver(user, table);
        self.rec_touch_table(table);
        let mut touched = Vec::with_capacity(plans.len());
        for (row_no, old_values, new_values, old) in plans {
            let t = self.catalog.table_mut(table)?;
            // the row-selection pass already materialized the old values,
            // so index maintenance needs no heap re-read
            t.update_with_old(row_no, &old_values, new_values)?;
            // an explicit update re-evaluates the cell: it is valid again
            // until its own sources change (§5 "Validating outdated data")
            for &(col, _) in &old {
                t.clear_outdated(row_no, col);
            }
            if monitored {
                self.log_for_approval(
                    table,
                    user,
                    format!(
                        "UPDATE {table} SET {} (row {row_no})",
                        touched_names.join(", ")
                    ),
                    InverseOp::RestoreCells {
                        row_no,
                        old: old.clone(),
                    },
                )?;
            }
            for &(col, _) in &old {
                self.cascade(table, row_no, col, CascadeMode::Update)?;
            }
            touched.push(row_no);
        }
        Ok(touched)
    }

    /// Delete matching rows; logs to the deletion log (with the optional
    /// "why deleted" annotation).  Returns deleted row numbers.
    fn do_delete(
        &mut self,
        table: &str,
        where_clause: Option<&Expr>,
        user: &str,
        why: Option<&str>,
    ) -> Result<Vec<u64>> {
        let owner = self.catalog.table(table)?.owner.clone();
        self.auth
            .borrow()
            .check(user, table, &owner, Privilege::Delete)?;
        let t = self.catalog.table(table)?;
        let all_cols: Vec<String> = t.schema.names().iter().map(|s| s.to_string()).collect();
        let victims: Vec<u64> = target_rows(t, &t.name, where_clause, false)?
            .into_iter()
            .map(|(row_no, _)| row_no)
            .collect();
        let monitored =
            self.approval.borrow().monitors(table, &all_cols) && !self.is_approver(user, table);
        let arity = self.catalog.table(table)?.schema.arity();
        self.rec_touch_table(table);
        for &row_no in &victims {
            // mark dependents stale *before* the source row disappears
            for col in 0..arity {
                self.cascade(table, row_no, col, CascadeMode::Stale)?;
            }
            let time = self.clock.now();
            let values = self.catalog.table_mut(table)?.delete(row_no)?;
            self.log_deletion(
                table,
                DeletedRow {
                    row_no,
                    values: values.clone(),
                    annotation: why.map(|s| s.to_string()),
                    time,
                    user: user.to_string(),
                },
            )?;
            if monitored {
                self.log_for_approval(
                    table,
                    user,
                    format!("DELETE FROM {table} (row {row_no})"),
                    InverseOp::InsertRow { row_no, values },
                )?;
            }
        }
        Ok(victims)
    }

    fn is_approver(&self, user: &str, table: &str) -> bool {
        let approval = self.approval.borrow();
        let cfg = approval.config(table);
        cfg.is_some_and(|cfg| self.auth.borrow().acts_as(user, &cfg.approver))
    }

    // ---- dependency cascade (§5) ----

    /// Propagate a change of `(table, row_no, col)`.
    fn cascade(&mut self, table: &str, row_no: u64, col: usize, mode: CascadeMode) -> Result<()> {
        let col_name = {
            let t = self.catalog.table(table)?;
            t.schema.columns()[col].name.clone()
        };
        let rules: Vec<DependencyRule> = self
            .deps
            .borrow()
            .rules_from(table, &col_name)
            .into_iter()
            .cloned()
            .collect();
        for rule in rules {
            let targets = self.link_targets(&rule, row_no)?;
            for dst_row in targets {
                // the cascade mutates target cells and outdated bits;
                // both are covered by the target table's snapshot
                self.rec_touch_table(&rule.dst_table);
                let dst_col = {
                    let dt = self.catalog.table(&rule.dst_table)?;
                    dt.schema.require(&rule.dst_col)?
                };
                let recompute = mode != CascadeMode::Stale
                    && rule.executable
                    && self.deps.borrow().procedure(&rule.procedure).is_some();
                if recompute {
                    // gather the rule's source values from the source row
                    let st = self.catalog.table(&rule.src_table)?;
                    let src_values = st.get(row_no)?;
                    let inputs: Vec<Value> = rule
                        .src_cols
                        .iter()
                        .map(|c| st.schema.require(c).map(|i| src_values[i].clone()))
                        .collect::<Result<_>>()?;
                    let f = self.deps.borrow().procedure(&rule.procedure);
                    let f = f.expect("checked");
                    let new_value = f(&inputs);
                    let dt = self.catalog.table_mut(&rule.dst_table)?;
                    let mut dst_values = dt.get(dst_row)?;
                    if dst_values[dst_col] != new_value {
                        let old = dst_values.clone();
                        dst_values[dst_col] = new_value;
                        dt.update_with_old(dst_row, &old, dst_values)?;
                        // recomputed: the cell is current again (Figure 10:
                        // PSequence bits stay 0); downstream saw a genuine
                        // modification, so continue in Update mode
                        dt.clear_outdated(dst_row, dst_col);
                        self.cascade(&rule.dst_table, dst_row, dst_col, CascadeMode::Update)?;
                    } else {
                        dt.clear_outdated(dst_row, dst_col);
                    }
                } else if mode != CascadeMode::InsertFresh {
                    // non-executable (or unregistered) procedure: mark the
                    // target outdated; freshly inserted rows don't outdate
                    // their own supplied values
                    let dt = self.catalog.table_mut(&rule.dst_table)?;
                    let was = dt.is_outdated(dst_row, dst_col);
                    dt.mark_outdated(dst_row, dst_col);
                    if !was {
                        // downstream of an outdated cell is outdated too
                        self.cascade(&rule.dst_table, dst_row, dst_col, CascadeMode::Stale)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Target rows of a rule for a given source row.
    fn link_targets(&self, rule: &DependencyRule, src_row: u64) -> Result<Vec<u64>> {
        match &rule.link {
            None => {
                // same-table, same-row dependency (paper's Rules 2 and 3)
                if rule.src_table.eq_ignore_ascii_case(&rule.dst_table) {
                    let dt = self.catalog.table(&rule.dst_table)?;
                    Ok(if dt.contains_row(src_row) {
                        vec![src_row]
                    } else {
                        vec![]
                    })
                } else {
                    Err(BdbmsError::dependency(format!(
                        "rule `{}` spans tables but has no LINK",
                        rule.name
                    )))
                }
            }
            Some((src_link, dst_link)) => {
                let st = self.catalog.table(&rule.src_table)?;
                let src_col = st.schema.require(src_link)?;
                let key = st.get(src_row)?[src_col].clone();
                // NULL = NULL is not true in SQL: a NULL key links no row,
                // as it joins none
                if key.is_null() {
                    return Ok(Vec::new());
                }
                let dt = self.catalog.table(&rule.dst_table)?;
                let dst_col = dt.schema.require(dst_link)?;
                let mut out = Vec::new();
                for entry in dt.iter_rows() {
                    let (row_no, values) = entry?;
                    if values[dst_col] == key {
                        out.push(row_no);
                    }
                }
                Ok(out)
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the SQL statement's clauses
    fn create_dependency_rule(
        &mut self,
        name: String,
        from: Vec<(String, String)>,
        to: (String, String),
        procedure: String,
        executable: bool,
        invertible: bool,
        link: Option<(String, String)>,
        user: &str,
    ) -> Result<QueryResult> {
        self.require_owner(&to.0, user)?;
        // validate sources: single table, existing columns
        let src_table = from
            .first()
            .map(|(t, _)| t.clone())
            .ok_or_else(|| BdbmsError::invalid("rule needs a source column"))?;
        if !from.iter().all(|(t, _)| t.eq_ignore_ascii_case(&src_table)) {
            return Err(BdbmsError::invalid(
                "all source columns must come from one table",
            ));
        }
        {
            let st = self.catalog.table(&src_table)?;
            for (_, c) in &from {
                st.schema.require(c)?;
            }
            let dt = self.catalog.table(&to.0)?;
            dt.schema.require(&to.1)?;
        }
        // decode LINK "Table.Col = Table.Col" into column names
        let link_cols = match link {
            None => None,
            Some((a, b)) => {
                let parse_side = |s: &str| -> Result<(String, String)> {
                    s.split_once('.')
                        .map(|(t, c)| (t.to_string(), c.to_string()))
                        .ok_or_else(|| BdbmsError::invalid(format!("bad LINK side `{s}`")))
                };
                let (at, ac) = parse_side(&a)?;
                let (bt, bc) = parse_side(&b)?;
                // sides may come in either order
                let (src_side, dst_side) = if at.eq_ignore_ascii_case(&src_table) {
                    ((at, ac), (bt, bc))
                } else {
                    ((bt, bc), (at, ac))
                };
                if !src_side.0.eq_ignore_ascii_case(&src_table)
                    || !dst_side.0.eq_ignore_ascii_case(&to.0)
                {
                    return Err(BdbmsError::invalid(
                        "LINK must join the rule's source and target tables",
                    ));
                }
                let st = self.catalog.table(&src_table)?;
                st.schema.require(&src_side.1)?;
                let dt = self.catalog.table(&to.0)?;
                dt.schema.require(&dst_side.1)?;
                Some((src_side.1, dst_side.1))
            }
        };
        let rule = DependencyRule {
            id: bdbms_common::ids::RuleId(0),
            name: name.clone(),
            src_table,
            src_cols: from.into_iter().map(|(_, c)| c).collect(),
            dst_table: to.0,
            dst_col: to.1,
            procedure,
            executable,
            invertible,
            link: link_cols,
        };
        self.deps.borrow().check_rule(&rule)?;
        // the row number is the rule id
        self.history_table(RULES_TABLE)?.insert(rule.to_row())?;
        Ok(QueryResult::message(format!(
            "dependency rule `{name}` created"
        )))
    }

    // ---- approval decisions ----

    fn decide(&mut self, id: u64, approve: bool, user: &str) -> Result<QueryResult> {
        let (owner, log) = self
            .approval_logs()
            .find(|(_, log)| log.contains_row(id))
            .ok_or_else(|| BdbmsError::not_found(format!("operation {}", OperationId(id))))?;
        let (log, old) = (log.name.clone(), log.get(id)?);
        let decided = LoggedOp::from_row(owner, id, old.clone())?;
        // the decision-maker must be the configured approver (or admin)
        if user != ADMIN && !self.is_approver(user, &decided.table) {
            return Err(BdbmsError::unauthorized(format!(
                "user `{user}` may not decide operations on `{}`",
                decided.table
            )));
        }
        if decided.status != OpStatus::Pending {
            return Err(BdbmsError::approval(format!(
                "operation {} was already {}",
                decided.id, decided.status
            )));
        }
        // the status flip is a row update; a failing inverse execution
        // below rolls back with the statement, flip included
        let status = if approve {
            OpStatus::Approved
        } else {
            OpStatus::Disapproved
        };
        let mut row = old.clone();
        row[STATUS] = Value::Int(status.code());
        self.history_table(&log)?.update_with_old(id, &old, row)?;
        if approve {
            return Ok(QueryResult::message(format!("operation {id} approved")));
        }
        // §6: execute the inverse statement; dependency tracking then
        // invalidates anything derived from the undone values.
        self.rec_touch_table(&decided.table);
        match decided.inverse {
            InverseOp::DeleteRow { row_no } => {
                let arity = self.catalog.table(&decided.table)?.schema.arity();
                for col in 0..arity {
                    self.cascade(&decided.table, row_no, col, CascadeMode::Stale)?;
                }
                let time = self.clock.now();
                let values = self.catalog.table_mut(&decided.table)?.delete(row_no)?;
                self.log_deletion(
                    &decided.table,
                    DeletedRow {
                        row_no,
                        values,
                        annotation: Some(format!("disapproved operation {id}")),
                        time,
                        user: user.to_string(),
                    },
                )?;
            }
            InverseOp::InsertRow { row_no, values } => {
                let t = self.catalog.table_mut(&decided.table)?;
                t.insert_with_row_no(row_no, values)?;
                let arity = self.catalog.table(&decided.table)?.schema.arity();
                for col in 0..arity {
                    self.cascade(&decided.table, row_no, col, CascadeMode::Update)?;
                }
            }
            InverseOp::RestoreCells { row_no, old } => {
                let t = self.catalog.table_mut(&decided.table)?;
                let mut values = t.get(row_no)?;
                for (col, v) in &old {
                    values[*col] = v.clone();
                }
                t.update(row_no, values)?;
                for (col, _) in &old {
                    self.cascade(&decided.table, row_no, *col, CascadeMode::Update)?;
                }
            }
        }
        Ok(QueryResult::message(format!(
            "operation {id} disapproved; inverse executed"
        )))
    }

    // ---- annotations (§3) ----

    fn check_ann_write(&self, user: &str, table: &str, set_name: &str) -> Result<()> {
        let t = self.catalog.table(table)?;
        let set = self.catalog.annotation_set(table, set_name)?.index();
        if set.system_only {
            // §4: provenance writes restricted to integration tools
            self.auth
                .borrow()
                .check(user, table, &t.owner, Privilege::Provenance)
        } else {
            self.auth
                .borrow()
                .check(user, table, &t.owner, Privilege::Select)
        }
    }

    fn add_annotation(
        &mut self,
        to: Vec<(String, String)>,
        value: &str,
        on: AnnTarget,
        user: &str,
    ) -> Result<QueryResult> {
        for (t, s) in &to {
            self.check_ann_write(user, t, s)?;
            let set = self.catalog.annotation_set(t, s)?.index();
            if set.schema_enforced {
                provenance::validate_body(value)?;
            }
        }
        // resolve target cells (and run the wrapped DML, if any)
        let (target_table, rows, cols): (String, Vec<u64>, Vec<usize>) = match on {
            AnnTarget::Select(sel) => select_cells(&self.catalog, &sel)?,
            AnnTarget::Insert(stmt) => match *stmt {
                Statement::Insert { table, rows } => {
                    let arity = self.catalog.table(&table)?.schema.arity();
                    let mut new_rows = Vec::new();
                    for row in rows {
                        new_rows.push(self.do_insert(&table, &row, user)?);
                    }
                    (table, new_rows, (0..arity).collect())
                }
                _ => unreachable!("parser builds Insert"),
            },
            AnnTarget::Update(stmt) => match *stmt {
                Statement::Update {
                    table,
                    sets,
                    where_clause,
                } => {
                    let t = self.catalog.table(&table)?;
                    let cols: Vec<usize> = sets
                        .iter()
                        .map(|(c, _)| t.schema.require(c))
                        .collect::<Result<_>>()?;
                    let rows = self.do_update(&table, &sets, where_clause.as_ref(), user)?;
                    (table, rows, cols)
                }
                _ => unreachable!("parser builds Update"),
            },
            AnnTarget::Delete(stmt) => match *stmt {
                Statement::Delete {
                    table,
                    where_clause,
                } => {
                    // §3.2: deleted tuples go to the log *with* the
                    // annotation explaining why
                    let rows = self.do_delete(&table, where_clause.as_ref(), user, Some(value))?;
                    let n = rows.len();
                    return Ok(QueryResult {
                        affected: n,
                        message: Some(format!("{n} tuple(s) deleted and logged with annotation")),
                        ..Default::default()
                    });
                }
                _ => unreachable!("parser builds Delete"),
            },
        };
        // every target annotation table must belong to the target table
        for (t, _) in &to {
            if !t.eq_ignore_ascii_case(&target_table) {
                return Err(BdbmsError::invalid(format!(
                    "annotation target selects from `{target_table}` but annotation \
                     table is on `{t}`"
                )));
            }
        }
        let time = self.clock.now();
        let mut added = 0;
        for (t, s) in &to {
            self.insert_annotation(t, s, value, user, time, &rows, &cols)?;
            added += 1;
        }
        Ok(QueryResult {
            affected: rows.len() * cols.len(),
            message: Some(format!(
                "annotation added to {added} annotation table(s) over {} row(s) × {} column(s)",
                rows.len(),
                cols.len()
            )),
            ..Default::default()
        })
    }

    fn archive_restore(
        &mut self,
        from: Vec<(String, String)>,
        between: Option<(u64, u64)>,
        on: crate::ast::Select,
        archive: bool,
        user: &str,
    ) -> Result<QueryResult> {
        let (target_table, rows, cols) = select_cells(&self.catalog, &on)?;
        let cells: Vec<(u64, usize)> = rows
            .iter()
            .flat_map(|&r| cols.iter().map(move |&c| (r, c)))
            .collect();
        let mut changed = 0;
        for (t, s) in &from {
            if !t.eq_ignore_ascii_case(&target_table) {
                return Err(BdbmsError::invalid(format!(
                    "annotation target selects from `{target_table}` but annotation \
                     table is on `{t}`"
                )));
            }
            self.check_ann_write(user, t, s)?;
            changed += self.set_archived(t, s, &cells, between, archive)?;
        }
        Ok(QueryResult::message(format!(
            "{changed} annotation(s) {}",
            if archive { "archived" } else { "restored" }
        )))
    }

    // ---- outdated reporting & validation (§5) ----

    fn show_outdated(&self, table: Option<&str>) -> Result<QueryResult> {
        let mut qr = QueryResult {
            columns: vec!["table".into(), "row".into(), "column".into()],
            ..Default::default()
        };
        let tables: Vec<&Table> = match table {
            // an unknown table fails, as a SELECT from it does
            Some(name) => vec![self.catalog.table(name)?],
            None => self.catalog.tables().collect(),
        };
        for t in tables {
            let columns = t.schema.columns();
            for (row_no, c) in t.outdated.iter_set() {
                // live rows only (a bitmap wider than the schema is CHECK's finding)
                if let Some(col) = columns.get(c).filter(|_| t.contains_row(row_no as u64)) {
                    qr.rows.push(AnnRow::plain(vec![
                        Value::Text(t.name.clone()),
                        Value::Int(row_no as i64),
                        Value::Text(col.name.clone()),
                    ]));
                }
            }
        }
        Ok(qr)
    }

    fn validate(
        &mut self,
        table: &str,
        columns: &[String],
        where_clause: Option<&Expr>,
        user: &str,
    ) -> Result<QueryResult> {
        let owner = self.catalog.table(table)?.owner.clone();
        self.auth
            .borrow()
            .check(user, table, &owner, Privilege::Update)?;
        let t = self.catalog.table(table)?;
        let cols: Vec<usize> = if columns.is_empty() {
            (0..t.schema.arity()).collect()
        } else {
            columns
                .iter()
                .map(|c| t.schema.require(c))
                .collect::<Result<_>>()?
        };
        let targets: Vec<u64> = target_rows(t, &t.name, where_clause, false)?
            .into_iter()
            .map(|(row_no, _)| row_no)
            .collect();
        let t = self.catalog.table_mut(table)?;
        let mut cleared = 0;
        for row_no in targets {
            for &c in &cols {
                if t.is_outdated(row_no, c) {
                    t.clear_outdated(row_no, c);
                    cleared += 1;
                }
            }
        }
        Ok(QueryResult::message(format!(
            "{cleared} cell(s) revalidated"
        )))
    }

    // ---- provenance API (§4) ----

    /// Create the provenance set if missing (logged like any set
    /// creation).  Runs inside whatever transaction the caller holds open.
    fn ensure_provenance_inner(&mut self, table: &str) -> Result<()> {
        self.catalog.table(table)?;
        let set = self
            .catalog
            .annotation_set(table, provenance::PROVENANCE_TABLE);
        if set.is_err() {
            self.create_ann_set(table, provenance::provenance_set())?;
        }
        Ok(())
    }

    /// Create the reserved provenance annotation table on `table`.
    /// Outside an open transaction this commits (and WAL-logs) on its
    /// own; inside one it joins the transaction.
    pub fn enable_provenance(&mut self, table: &str) -> Result<()> {
        self.with_implicit(|db| db.ensure_provenance_inner(table))
    }

    /// Record a provenance annotation over cells (system path — this is
    /// what integration tools call; end users go through A-SQL and hit
    /// the PROVENANCE privilege check).  Inside an open transaction the
    /// attachment joins the transaction log: a rollback removes it.  Outside
    /// one it commits (and WAL-logs) on its own.
    pub fn record_provenance(
        &mut self,
        table: &str,
        rows: &[u64],
        cols: &[usize],
        record: &ProvenanceRecord,
    ) -> Result<()> {
        self.with_implicit(|db| {
            db.ensure_provenance_inner(table)?;
            let time = db.clock.tick();
            db.insert_annotation(
                table,
                provenance::PROVENANCE_TABLE,
                &record.to_xml().to_xml(),
                "system",
                time,
                rows,
                cols,
            )?;
            Ok(())
        })
    }

    /// Figure 8's query: the source of a cell at time `at`.
    pub fn source_of(
        &self,
        table: &str,
        row: u64,
        col: usize,
        at: u64,
    ) -> Result<Option<ProvenanceRecord>> {
        provenance::source_of(&self.catalog, table, row, col, at)
    }

    /// Full provenance history of a cell.
    pub fn provenance_history(
        &self,
        table: &str,
        row: u64,
        col: usize,
    ) -> Result<Vec<ProvenanceRecord>> {
        provenance::history_of(&self.catalog, table, row, col)
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new_in_memory()
    }
}
