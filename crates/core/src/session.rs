//! The session API: prepared statements, parameter binding, and
//! streaming cursors.
//!
//! [`Database::execute`] re-lexes, re-parses, and re-plans every call
//! and materializes the whole result — fine for one-off statements,
//! wasteful for the workload the paper describes: biologists issuing
//! near-identical queries over and over.  A [`Session`] separates
//! *prepare* from *execute* the way production engines do (SQLite's
//! `sqlite3_prepare` / `sqlite3_step` model):
//!
//! ```
//! use bdbms_core::Database;
//! use bdbms_common::Value;
//!
//! let mut db = Database::new_in_memory();
//! db.execute("CREATE TABLE Gene (GID TEXT, Len INT)").unwrap();
//! db.execute("INSERT INTO Gene VALUES ('JW0080', 11), ('JW0082', 42)").unwrap();
//!
//! let session = db.session("admin");
//! // parsed once, cached by SQL text, parameterized with `?` / `$n`
//! let stmt = session.prepare("SELECT GID FROM Gene WHERE Len = ?").unwrap();
//! let mut cursor = session.query(&stmt, &[Value::Int(42)]).unwrap();
//! // rows stream off the executor pipeline — nothing is materialized
//! let row = cursor.next_row().unwrap().unwrap();
//! assert_eq!(row.values[0], Value::Text("JW0082".into()));
//! assert!(cursor.next_row().unwrap().is_none());
//! ```
//!
//! Each [`Prepared`] caches its parsed AST for the statement's lifetime
//! and, for simple SELECTs, the executor's [`SelectPlan`] stamped with
//! the catalog generation it was derived under — repeated executions
//! skip parse *and* plan until DDL or `ANALYZE` bumps the generation,
//! at which point the next execution transparently replans.
//!
//! Rust note: the issue-sheet sketch `Prepared::query(&params)` needs a
//! database handle to run against; borrows flow through the session, so
//! the canonical spelling is `session.query(&stmt, &params)` (or the
//! equivalent sugar `stmt.query(&session, &params)`).  DML goes through
//! [`Session::execute`], which takes the session mutably.
//!
//! Sessions also drive the transaction state machine:
//! `BEGIN`/`COMMIT`/`ROLLBACK` and savepoints flow through
//! [`Session::run`]/[`Session::execute`] (or the method mirrors
//! [`Session::begin`] and friends), with the transaction log living on the
//! [`Database`] — see `docs/TRANSACTIONS.md` and [`crate::txn`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bdbms_common::{BdbmsError, Result, Value};

use crate::ast::{AnnTarget, Expr, Projection, Select, SelectItem, Statement};
use crate::database::Database;
use crate::executor::{open_select_cursor, ExecStats, SelectPlan};
use crate::parser::parse_prepared;
use crate::result::{AnnRow, QueryResult};

/// A user-scoped handle for preparing and running statements against a
/// [`Database`].  Created by [`Database::session`]; holds a per-session
/// statement cache keyed by SQL text.
pub struct Session<'db> {
    db: &'db mut Database,
    user: String,
    cache: RefCell<HashMap<String, Rc<PreparedInner>>>,
}

/// The cached guts of one prepared statement: the parsed AST, the
/// declared parameter-slot count, and (for simple SELECTs) the last
/// generation-stamped plan.
struct PreparedInner {
    sql: String,
    stmt: Statement,
    param_count: usize,
    plan: RefCell<Option<SelectPlan>>,
}

/// A prepared statement: a cheap, clonable handle over the cached parse
/// (and plan).  Obtained from [`Session::prepare`]; run it with
/// [`Session::query`] (SELECT) or [`Session::execute`] (anything).
#[derive(Clone)]
pub struct Prepared {
    inner: Rc<PreparedInner>,
}

impl Prepared {
    /// The SQL text this statement was prepared from.
    pub fn sql(&self) -> &str {
        &self.inner.sql
    }

    /// Number of parameter slots (`?` / `$n`) the statement declares.
    pub fn param_count(&self) -> usize {
        self.inner.param_count
    }

    /// Does this statement currently hold a cached execution plan?
    /// (Observability for tests and tooling; the cache is consulted and
    /// refreshed automatically.)
    pub fn has_cached_plan(&self) -> bool {
        self.inner.plan.borrow().is_some()
    }

    /// Sugar for [`Session::query`].
    pub fn query<'s>(&self, session: &'s Session<'_>, params: &[Value]) -> Result<RowCursor<'s>> {
        session.query(self, params)
    }

    /// Sugar for [`Session::execute`].
    pub fn execute(&self, session: &mut Session<'_>, params: &[Value]) -> Result<QueryResult> {
        session.execute(self, params)
    }

    /// Error unless `params` matches the declared slot count.
    fn check_params(&self, params: &[Value]) -> Result<()> {
        if params.len() != self.inner.param_count {
            return Err(BdbmsError::param_mismatch(format!(
                "statement expects {} parameter(s), got {}",
                self.inner.param_count,
                params.len()
            )));
        }
        Ok(())
    }

    /// Bind `params` into the cached AST, checking the count.
    fn bind(&self, params: &[Value]) -> Result<Statement> {
        self.check_params(params)?;
        Ok(if params.is_empty() {
            self.inner.stmt.clone()
        } else {
            bind_statement(&self.inner.stmt, params)
        })
    }
}

/// A pull-based cursor over a SELECT's annotated output rows.
///
/// For streamable queries the underlying scan advances only as rows are
/// pulled — interrupting the iteration (or a pushed `LIMIT`) means the
/// heap is never walked past the last row consumed.  Blocking queries
/// (grouping, DISTINCT, ORDER BY, set operations) buffer first and the
/// cursor walks the buffered rows.  [`RowCursor::stats`] exposes the
/// executor counters accumulated *so far*, which is how the tests pin
/// the no-materialization guarantee.
pub struct RowCursor<'s> {
    columns: Vec<String>,
    stream: Box<dyn Iterator<Item = Result<AnnRow>> + 's>,
    stats: Rc<RefCell<ExecStats>>,
}

impl std::fmt::Debug for RowCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowCursor")
            .field("columns", &self.columns)
            .finish_non_exhaustive()
    }
}

impl<'s> RowCursor<'s> {
    /// Output column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Pull the next row (`Ok(None)` = exhausted).
    pub fn next_row(&mut self) -> Result<Option<AnnRow>> {
        self.stream.next().transpose()
    }

    /// Snapshot of the executor counters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.stats.borrow().clone()
    }

    /// Drain the remaining rows into a materialized [`QueryResult`].
    /// The result carries the cursor's final executor counters in
    /// [`QueryResult::stats`].
    pub fn into_result(self) -> Result<QueryResult> {
        let started = std::time::Instant::now();
        let rows = self.stream.collect::<Result<Vec<AnnRow>>>()?;
        let mut stats = self.stats.borrow().clone();
        stats.exec_ns = stats
            .exec_ns
            .saturating_add(started.elapsed().as_nanos() as u64);
        Ok(QueryResult {
            columns: self.columns,
            rows,
            affected: 0,
            message: None,
            stats: Some(stats),
        })
    }
}

impl Iterator for RowCursor<'_> {
    type Item = Result<AnnRow>;

    fn next(&mut self) -> Option<Self::Item> {
        self.stream.next()
    }
}

impl<'db> Session<'db> {
    pub(crate) fn new(db: &'db mut Database, user: &str) -> Session<'db> {
        Session {
            db,
            user: user.to_string(),
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// The user this session acts as.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// Switch the user subsequent statements are authorized as.  Cached
    /// statements stay valid — authorization is checked at execution
    /// time, not at prepare time.
    pub fn set_user(&mut self, user: &str) {
        self.user = user.to_string();
    }

    /// The underlying database (for the [`crate::client::Connection`]
    /// escape hatch).
    pub(crate) fn database_mut(&mut self) -> &mut Database {
        self.db
    }

    /// Parse (or fetch from the session cache) a statement.  Parameter
    /// placeholders: `?` takes the next positional slot, `$n` names slot
    /// `n` (1-based); both may appear anywhere an expression may.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        if let Some(inner) = self.cache.borrow().get(sql) {
            return Ok(Prepared {
                inner: inner.clone(),
            });
        }
        let (stmt, param_count) = parse_prepared(sql)?;
        let inner = Rc::new(PreparedInner {
            sql: sql.to_string(),
            stmt,
            param_count,
            plan: RefCell::new(None),
        });
        self.cache
            .borrow_mut()
            .insert(sql.to_string(), inner.clone());
        Ok(Prepared { inner })
    }

    /// Run a prepared SELECT with the given parameters, returning a
    /// streaming [`RowCursor`].  Reuses the statement's cached plan when
    /// the catalog generation still matches, and re-caches the plan the
    /// executor actually used.
    pub fn query<'s>(&'s self, stmt: &Prepared, params: &[Value]) -> Result<RowCursor<'s>> {
        open_cursor(self.db, &self.user, stmt, params)
    }

    /// Run a prepared statement of any kind (DML, DDL, A-SQL commands,
    /// transaction control — SELECTs work too, materialized) with the
    /// given parameters.
    pub fn execute(&mut self, stmt: &Prepared, params: &[Value]) -> Result<QueryResult> {
        let started = std::time::Instant::now();
        let bound = stmt.bind(params)?;
        let res = self.dispatch(bound);
        self.db.note_statement(
            &stmt.inner.sql,
            &self.user,
            started.elapsed(),
            res.as_ref().ok(),
        );
        res
    }

    /// Parse and execute a parameter-less statement in one step — the
    /// path the legacy [`Database::execute`] entry points wrap.
    pub fn run(&mut self, sql: &str) -> Result<QueryResult> {
        let started = std::time::Instant::now();
        let (stmt, param_count) = parse_prepared(sql)?;
        let parse_ns = started.elapsed().as_nanos() as u64;
        if param_count > 0 {
            return Err(BdbmsError::param_mismatch(format!(
                "statement expects {param_count} parameter(s); prepare it and \
                 pass them through query/execute"
            )));
        }
        let mut res = self.dispatch(stmt);
        if let Ok(qr) = &mut res {
            if let Some(st) = &mut qr.stats {
                st.parse_ns = parse_ns;
            }
        }
        self.db
            .note_statement(sql, &self.user, started.elapsed(), res.as_ref().ok());
        res
    }

    /// The session's transaction state machine: transaction-control
    /// statements drive it directly; everything else executes against
    /// the current transaction (explicit, or the implicit per-statement
    /// one — see `docs/TRANSACTIONS.md`).
    fn dispatch(&mut self, stmt: Statement) -> Result<QueryResult> {
        match stmt {
            Statement::Begin => self.begin(),
            Statement::Commit => self.commit(),
            Statement::Rollback => self.rollback(),
            Statement::Savepoint { name } => self.savepoint(&name),
            Statement::RollbackTo { name } => self.rollback_to(&name),
            Statement::Release { name } => self.release(&name),
            other => self.db.execute_stmt(other, &self.user),
        }
    }

    // ---- transaction state machine (docs/TRANSACTIONS.md) ----

    /// Is an explicit transaction open?
    pub fn in_transaction(&self) -> bool {
        self.db.in_transaction()
    }

    /// `BEGIN`: open an explicit transaction.  `TxnState` error if one
    /// is already open (no nesting — use [`savepoint`](Self::savepoint)).
    pub fn begin(&mut self) -> Result<QueryResult> {
        self.db.txn_begin()
    }

    /// `COMMIT`: make the open transaction permanent.  `TxnState` error
    /// outside a transaction.
    pub fn commit(&mut self) -> Result<QueryResult> {
        self.db.txn_commit()
    }

    /// `ROLLBACK`: undo everything since `BEGIN` — rows, DDL, stats,
    /// annotations, provenance, dependency edges.  `TxnState` error
    /// outside a transaction.
    pub fn rollback(&mut self) -> Result<QueryResult> {
        self.db.txn_rollback()
    }

    /// `SAVEPOINT name`: mark a partial-rollback point.  Names may
    /// shadow earlier savepoints.
    pub fn savepoint(&mut self, name: &str) -> Result<QueryResult> {
        self.db.txn_savepoint(name)
    }

    /// `ROLLBACK TO name`: undo back to the savepoint, keeping the
    /// transaction (and the savepoint) open.  `TxnState` error if the
    /// name is unknown.
    pub fn rollback_to(&mut self, name: &str) -> Result<QueryResult> {
        self.db.txn_rollback_to(name)
    }

    /// `RELEASE name`: forget the savepoint (and all later ones) without
    /// undoing anything.
    pub fn release(&mut self, name: &str) -> Result<QueryResult> {
        self.db.txn_release(name)
    }
}

/// The engine half of [`Session::query`], with the borrow anchored to the
/// [`Database`] rather than a session: binds `params`, checks SELECT
/// authorization, opens the streaming cursor, and refreshes the
/// statement's cached plan.  Shared with [`crate::client::LocalConnection`],
/// whose cursors must borrow the connection-owned database (a transient
/// session would not live long enough).
pub(crate) fn open_cursor<'d>(
    db: &'d Database,
    user: &str,
    stmt: &Prepared,
    params: &[Value],
) -> Result<RowCursor<'d>> {
    stmt.check_params(params)?;
    let not_select =
        || BdbmsError::invalid("query expects a SELECT statement (run DML/DDL through execute)");
    // owned storage for the parameter-bound copy; with no parameters
    // the cached AST is borrowed as-is (no per-call deep clone)
    let bound;
    let sel: &Select = if params.is_empty() {
        match &stmt.inner.stmt {
            Statement::Select(sel) => sel,
            _ => return Err(not_select()),
        }
    } else {
        bound = bind_statement(&stmt.inner.stmt, params);
        match &bound {
            Statement::Select(sel) => sel,
            _ => return Err(not_select()),
        }
    };
    db.check_select_auth(sel, user)?;
    let st = Rc::new(RefCell::new(ExecStats::default()));
    let hints = stmt.inner.plan.borrow().clone();
    let (cursor, plan) = open_select_cursor(db.catalog(), sel, st.clone(), hints.as_ref())?;
    // cache-outcome classification: a replayed plan that comes back
    // unchanged is a hit; a changed one means the catalog generation
    // moved underneath it (invalidation); no hints at all is a miss
    let em = db.engine_metrics();
    match (&hints, &plan) {
        (Some(h), Some(p)) if h == p => em.plan_cache_hits.inc(),
        (Some(_), _) => em.plan_cache_invalidations.inc(),
        (None, _) => em.plan_cache_misses.inc(),
    }
    if let Some(p) = plan {
        // replayed plans come back unchanged — only genuinely new
        // decisions are written to the cache
        let mut cached = stmt.inner.plan.borrow_mut();
        if cached.as_ref() != Some(&p) {
            *cached = Some(p);
        }
    }
    Ok(RowCursor {
        columns: cursor.columns,
        stream: cursor.stream,
        stats: st,
    })
}

// ---- parameter substitution ----

/// Substitute every [`Expr::Param`] with its literal.  Slot bounds were
/// checked by [`Prepared::bind`].
fn bind_expr(e: &Expr, params: &[Value]) -> Expr {
    match e {
        Expr::Param(i) => Expr::Literal(params[*i].clone()),
        Expr::Literal(_) | Expr::Column(..) => e.clone(),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(bind_expr(a, params))),
        Expr::Binary(a, op, b) => Expr::Binary(
            Box::new(bind_expr(a, params)),
            *op,
            Box::new(bind_expr(b, params)),
        ),
        Expr::IsNull(a, neg) => Expr::IsNull(Box::new(bind_expr(a, params)), *neg),
        Expr::Like(a, pat, neg) => Expr::Like(Box::new(bind_expr(a, params)), pat.clone(), *neg),
        Expr::ContainsSeq(a, pat, neg) => {
            Expr::ContainsSeq(Box::new(bind_expr(a, params)), pat.clone(), *neg)
        }
        Expr::InList(a, items, neg) => Expr::InList(
            Box::new(bind_expr(a, params)),
            items.iter().map(|i| bind_expr(i, params)).collect(),
            *neg,
        ),
        Expr::Call(name, args) => Expr::Call(
            name.clone(),
            args.iter().map(|a| bind_expr(a, params)).collect(),
        ),
        Expr::Aggregate(f, arg) => {
            Expr::Aggregate(*f, arg.as_ref().map(|a| Box::new(bind_expr(a, params))))
        }
    }
}

fn bind_select(s: &Select, params: &[Value]) -> Select {
    Select {
        distinct: s.distinct,
        projection: match &s.projection {
            Projection::Star(a) => Projection::Star(a.clone()),
            Projection::Items(items) => Projection::Items(
                items
                    .iter()
                    .map(|i| SelectItem {
                        expr: bind_expr(&i.expr, params),
                        alias: i.alias.clone(),
                        promote: i.promote.clone(),
                    })
                    .collect(),
            ),
        },
        from: s.from.clone(),
        where_clause: s.where_clause.as_ref().map(|e| bind_expr(e, params)),
        awhere: s.awhere.clone(),
        group_by: s.group_by.clone(),
        having: s.having.as_ref().map(|e| bind_expr(e, params)),
        ahaving: s.ahaving.clone(),
        filter: s.filter.clone(),
        order_by: s.order_by.clone(),
        limit: s.limit,
        set_op: s
            .set_op
            .as_ref()
            .map(|(op, right)| (*op, Box::new(bind_select(right, params)))),
    }
}

fn bind_statement(stmt: &Statement, params: &[Value]) -> Statement {
    match stmt {
        Statement::Select(s) => Statement::Select(bind_select(s, params)),
        Statement::Insert { table, rows } => Statement::Insert {
            table: table.clone(),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|e| bind_expr(e, params)).collect())
                .collect(),
        },
        Statement::Update {
            table,
            sets,
            where_clause,
        } => Statement::Update {
            table: table.clone(),
            sets: sets
                .iter()
                .map(|(c, e)| (c.clone(), bind_expr(e, params)))
                .collect(),
            where_clause: where_clause.as_ref().map(|e| bind_expr(e, params)),
        },
        Statement::Delete {
            table,
            where_clause,
        } => Statement::Delete {
            table: table.clone(),
            where_clause: where_clause.as_ref().map(|e| bind_expr(e, params)),
        },
        Statement::Validate {
            table,
            columns,
            where_clause,
        } => Statement::Validate {
            table: table.clone(),
            columns: columns.clone(),
            where_clause: where_clause.as_ref().map(|e| bind_expr(e, params)),
        },
        Statement::AddAnnotation { to, value, on } => Statement::AddAnnotation {
            to: to.clone(),
            value: value.clone(),
            on: match on {
                AnnTarget::Select(s) => AnnTarget::Select(Box::new(bind_select(s, params))),
                AnnTarget::Insert(s) => AnnTarget::Insert(Box::new(bind_statement(s, params))),
                AnnTarget::Update(s) => AnnTarget::Update(Box::new(bind_statement(s, params))),
                AnnTarget::Delete(s) => AnnTarget::Delete(Box::new(bind_statement(s, params))),
            },
        },
        Statement::ArchiveAnnotation { from, between, on } => Statement::ArchiveAnnotation {
            from: from.clone(),
            between: *between,
            on: bind_select(on, params),
        },
        Statement::RestoreAnnotation { from, between, on } => Statement::RestoreAnnotation {
            from: from.clone(),
            between: *between,
            on: bind_select(on, params),
        },
        Statement::Explain { analyze, stmt } => Statement::Explain {
            analyze: *analyze,
            stmt: Box::new(bind_statement(stmt, params)),
        },
        // every other statement form is parameter-free by construction
        // (the parser only plants Expr::Param inside expressions)
        other => other.clone(),
    }
}
