//! Batch-at-a-time (vectorized) operators — the only operators
//! [`crate::executor`] assembles.
//!
//! A row-at-a-time iterator chain pays a virtual call, a stats borrow,
//! and an interpreted expression walk *per row per operator*.  In the
//! MonetDB/X100 style, every operator here implements
//!
//! ```text
//! fn next_batch(&mut self, demand: usize) -> Result<Option<Batch>>
//! ```
//!
//! and moves up to [`BATCH_SIZE`] tuples per call, so dispatch and
//! bookkeeping amortize across the batch and predicates run as
//! per-conjunct tight loops over a selection vector.  `demand` makes the
//! pull *demand-driven*: a pushed `LIMIT k` asks its child for exactly
//! `k` tuples, which keeps filterless scans' fetch counts exact.
//!
//! Result multisets and error codes are pinned against a reference
//! interpreter that shares none of this code (the differential proptest
//! suite, `tests/batch_differential.rs`); the row counters in
//! `ExecStats` advance in batch granularity.  See `docs/EXECUTOR.md` for
//! the operator catalog and how to add one.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use bdbms_common::{BdbmsError, Result, Value};

use crate::ast::{AggFunc, AnnExpr, Expr, Select, SelectItem};
use crate::catalog::Table;
use crate::executor::{
    concat_pipe, eval_ann, has_aggregate, item_ann_columns, ExecStats, PipeRow, SourceAttach,
};
use crate::expr::{compile, eval_compiled, resolve_column, CExpr, ColBinding};
use crate::result::{AnnRef, AnnRow};

/// Target tuples per operator pull.  Large enough to amortize dispatch,
/// small enough that a batch of wide rows stays cache- and
/// allocation-friendly.
pub const BATCH_SIZE: usize = 1024;

/// A batch of pipeline tuples plus a **selection vector**: `sel` lists
/// the indexes of the live rows in ascending order.  Filters shrink
/// `sel` instead of moving rows; dead rows are simply never read again.
pub(crate) struct Batch {
    /// Row storage; only the positions named by `sel` are live.
    pub(crate) rows: Vec<PipeRow>,
    /// Live row indexes, ascending.
    pub(crate) sel: Vec<usize>,
}

impl Batch {
    /// A batch with every row live.
    pub(crate) fn full(rows: Vec<PipeRow>) -> Batch {
        let sel = (0..rows.len()).collect();
        Batch { rows, sel }
    }

    /// Number of live rows.
    pub(crate) fn live(&self) -> usize {
        self.sel.len()
    }

    /// Consume the batch, yielding the live rows in order (compaction —
    /// used when a consumer materializes).
    pub(crate) fn into_rows(self) -> Vec<PipeRow> {
        if self.sel.len() == self.rows.len() {
            return self.rows;
        }
        let mut sel = self.sel.into_iter().peekable();
        self.rows
            .into_iter()
            .enumerate()
            .filter_map(|(i, r)| {
                if sel.peek() == Some(&i) {
                    sel.next();
                    Some(r)
                } else {
                    None
                }
            })
            .collect()
    }
}

/// The vectorized operator interface.  `demand` is how many live tuples
/// the caller wants at most (clamped to `1..=BATCH_SIZE`); an operator
/// may return fewer — including an empty batch, which means "made
/// progress, pull again" — and returns `Ok(None)` only at exhaustion.
/// An `Err` aborts the current batch; partially fetched tuples are
/// dropped with it.
pub(crate) trait BatchOp<'a> {
    /// Pull the next batch.
    fn next_batch(&mut self, demand: usize) -> Result<Option<Batch>>;
}

impl<'a> BatchOp<'a> for Box<dyn BatchOp<'a> + 'a> {
    fn next_batch(&mut self, demand: usize) -> Result<Option<Batch>> {
        (**self).next_batch(demand)
    }
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// A scan's access path, chosen at assembly time by the executor's
/// `scan_base_batch`.
pub(crate) enum ScanBase<'a> {
    /// Index and sequence-index probes (an empty scan is the empty
    /// list): [`BatchScan`] hands the table a batch of candidates per
    /// pull, fetched a page run at a time and pruned to `keep` exactly
    /// like a full scan's chunk ([`Table::fetch_rows`]).
    Rows {
        table: &'a Table,
        /// Candidate row numbers, ascending.
        rows: Vec<u64>,
        /// Position in `rows` of the next candidate to fetch.
        next: usize,
        /// As for `Chunk`.
        keep: Option<Vec<usize>>,
    },
    /// Index-only scan: the candidates come with their keys, `column` is
    /// the only one read, and the heap is never touched.
    Keys {
        /// Source-local position of the indexed column.
        column: usize,
        /// `(row_no, key)` candidates, ascending by row number.
        entries: std::vec::IntoIter<(u64, Value)>,
    },
    /// Vectorized full scan: [`BatchScan`] asks the table for a whole
    /// chunk per pull, decoded in place in the buffer pool and pruned to
    /// `keep` (the planner's value columns — every other slot is
    /// provably unread and left NULL), so a scan pays neither a per-row
    /// record copy nor a full decode.
    Chunk {
        table: &'a Table,
        /// Next row number to fetch.
        next: u64,
        /// Source-local columns whose values the query reads, ascending
        /// (`None` = unknown, decode all).
        keep: Option<Vec<usize>>,
    },
}

/// An index-only scan's tuple: `key` in the indexed `column`, every other
/// slot NULL (provably unread).
fn key_tuple(arity: usize, column: usize, key: Value) -> Vec<Value> {
    let mut values = vec![Value::Null; arity];
    values[column] = key;
    values
}

/// Scan: wraps the access path chosen at assembly time
/// ([`crate::executor`]'s `scan_base_batch`), fetches up to `demand`
/// tuples — a whole chunk of the table or of the probe's candidate list
/// at once — then re-checks the pushed conjuncts (all but the one an
/// exact probe has answered) in per-conjunct tight loops over the
/// selection vector.  Eager annotation mode attaches here, to every
/// fetched tuple before the re-check: that is the un-optimized baseline
/// whose `anns_attached` totals the regression suite pins.
pub(crate) struct BatchScan<'a> {
    base: ScanBase<'a>,
    pushed: Vec<CExpr>,
    /// Eager-mode attacher (applied pre-filter).
    attach: Option<SourceAttach<'a>>,
    arity: usize,
    st: Rc<RefCell<ExecStats>>,
    done: bool,
}

impl<'a> BatchScan<'a> {
    pub(crate) fn new(
        base: ScanBase<'a>,
        pushed: Vec<CExpr>,
        attach: Option<SourceAttach<'a>>,
        arity: usize,
        st: Rc<RefCell<ExecStats>>,
    ) -> Self {
        BatchScan {
            base,
            pushed,
            attach,
            arity,
            st,
            done: false,
        }
    }
}

impl<'a> BatchOp<'a> for BatchScan<'a> {
    fn next_batch(&mut self, demand: usize) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        let want = demand.clamp(1, BATCH_SIZE);
        let mut fetched: Vec<(u64, Vec<Value>)> = Vec::with_capacity(want);
        let fetch = match &mut self.base {
            ScanBase::Rows {
                table,
                rows,
                next,
                keep,
            } => {
                let run = &rows[*next..rows.len().min(*next + want)];
                *next += run.len();
                self.done = *next == rows.len();
                table.fetch_rows(run, keep.as_deref(), &mut fetched)
            }
            ScanBase::Keys { column, entries } => {
                let (arity, column) = (self.arity, *column);
                fetched.extend(
                    entries
                        .by_ref()
                        .take(want)
                        .map(|(row_no, key)| (row_no, key_tuple(arity, column, key))),
                );
                self.done = entries.len() == 0;
                Ok(())
            }
            ScanBase::Chunk { table, next, keep } => table
                .scan_chunk(*next, want, keep.as_deref(), &mut fetched)
                .map(|resume| match resume {
                    Some(n) => *next = n,
                    None => self.done = true,
                }),
        };
        if let Err(e) = fetch {
            self.done = true;
            self.st.borrow_mut().rows_fetched += fetched.len() as u64;
            return Err(e);
        }
        if fetched.is_empty() {
            return Ok(None);
        }
        let mut attached = 0u64;
        let arity = self.arity;
        let attach = &mut self.attach;
        let rows: Vec<PipeRow> = fetched
            .into_iter()
            .map(|(row_no, values)| {
                // eager mode attaches pre-filter
                let anns = attach.as_mut().map(|a| {
                    let mut slots = vec![Vec::new(); arity];
                    attached += a.attach_into(row_no, &mut slots);
                    slots
                });
                PipeRow {
                    values,
                    rows: vec![row_no],
                    anns,
                }
            })
            .collect();
        {
            let mut s = self.st.borrow_mut();
            s.rows_fetched += rows.len() as u64;
            s.scan_batches += 1;
            if attached > 0 {
                s.anns_attached += attached;
            }
        }
        let mut batch = Batch::full(rows);
        // per-conjunct tight loops: each conjunct sweeps the survivors
        // of the previous one
        let mut filtered = 0u64;
        for conjunct in &self.pushed {
            if batch.sel.is_empty() {
                break;
            }
            let mut kept = Vec::with_capacity(batch.sel.len());
            for &i in &batch.sel {
                match eval_compiled(conjunct, &batch.rows[i].values) {
                    Err(e) => {
                        self.done = true;
                        if filtered > 0 {
                            self.st.borrow_mut().rows_scan_filtered += filtered;
                        }
                        return Err(e);
                    }
                    Ok(v) if !v.is_true() => filtered += 1,
                    Ok(_) => kept.push(i),
                }
            }
            batch.sel = kept;
        }
        if filtered > 0 {
            self.st.borrow_mut().rows_scan_filtered += filtered;
        }
        Ok(Some(batch))
    }
}

/// Drain a build-side scan to its live rows (assembly-time
/// materialization of hash-join build sides; a failing build scan fails
/// the statement before the probe side is pulled).
pub(crate) fn drain_build<'a>(mut scan: impl BatchOp<'a>) -> Result<Vec<PipeRow>> {
    let mut out = Vec::new();
    while let Some(b) = scan.next_batch(BATCH_SIZE)? {
        out.extend(b.into_rows());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

/// Join against a materialized build side: hash join on an equi-key
/// (NULL keys never match, per SQL) or cross product without one.
/// Matches that overflow `demand` buffer in `pending` and drain on the
/// next pull.
pub(crate) struct BatchJoin<'a> {
    left: Box<dyn BatchOp<'a> + 'a>,
    build: Vec<PipeRow>,
    /// `Some((probe column, build-side hash))` for an equi-join.
    key: Option<(usize, HashMap<Value, Vec<usize>>)>,
    pending: VecDeque<PipeRow>,
    left_done: bool,
}

impl<'a> BatchJoin<'a> {
    pub(crate) fn new(
        left: Box<dyn BatchOp<'a> + 'a>,
        build: Vec<PipeRow>,
        key: Option<(usize, usize)>,
    ) -> Self {
        let key = key.map(|(lcol, rcol)| {
            let mut map: HashMap<Value, Vec<usize>> = HashMap::new();
            for (ri, r) in build.iter().enumerate() {
                if !r.values[rcol].is_null() {
                    map.entry(r.values[rcol].clone()).or_default().push(ri);
                }
            }
            (lcol, map)
        });
        BatchJoin {
            left,
            build,
            key,
            pending: VecDeque::new(),
            left_done: false,
        }
    }
}

impl<'a> BatchOp<'a> for BatchJoin<'a> {
    fn next_batch(&mut self, demand: usize) -> Result<Option<Batch>> {
        let want = demand.clamp(1, BATCH_SIZE);
        let mut out: Vec<PipeRow> = Vec::with_capacity(want.min(self.pending.len().max(16)));
        loop {
            while out.len() < want {
                match self.pending.pop_front() {
                    Some(r) => out.push(r),
                    None => break,
                }
            }
            if out.len() >= want || self.left_done {
                break;
            }
            match self.left.next_batch(want)? {
                None => self.left_done = true,
                Some(b) => {
                    for &i in &b.sel {
                        let l = &b.rows[i];
                        match &self.key {
                            Some((lcol, map)) => {
                                if l.values[*lcol].is_null() {
                                    continue;
                                }
                                if let Some(idxs) = map.get(&l.values[*lcol]) {
                                    for &ri in idxs {
                                        let joined = concat_pipe(l, &self.build[ri]);
                                        if out.len() < want {
                                            out.push(joined);
                                        } else {
                                            self.pending.push_back(joined);
                                        }
                                    }
                                }
                            }
                            None => {
                                for r in &self.build {
                                    let joined = concat_pipe(l, r);
                                    if out.len() < want {
                                        out.push(joined);
                                    } else {
                                        self.pending.push_back(joined);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if out.is_empty() && self.left_done && self.pending.is_empty() {
            return Ok(None);
        }
        Ok(Some(Batch::full(out)))
    }
}

// ---------------------------------------------------------------------------
// Filter / attach / AWHERE / limit
// ---------------------------------------------------------------------------

/// Residual WHERE: cross-source conjuncts (or, with pushdown disabled,
/// the whole predicate) swept over the joined batch in per-conjunct
/// tight loops.
pub(crate) struct BatchFilter<'a> {
    child: Box<dyn BatchOp<'a> + 'a>,
    conjuncts: Vec<CExpr>,
}

impl<'a> BatchFilter<'a> {
    pub(crate) fn new(child: Box<dyn BatchOp<'a> + 'a>, conjuncts: Vec<CExpr>) -> Self {
        BatchFilter { child, conjuncts }
    }
}

impl<'a> BatchOp<'a> for BatchFilter<'a> {
    fn next_batch(&mut self, demand: usize) -> Result<Option<Batch>> {
        let Some(mut batch) = self.child.next_batch(demand)? else {
            return Ok(None);
        };
        for conjunct in &self.conjuncts {
            if batch.sel.is_empty() {
                break;
            }
            let mut kept = Vec::with_capacity(batch.sel.len());
            for &i in &batch.sel {
                match eval_compiled(conjunct, &batch.rows[i].values) {
                    Err(e) => return Err(e),
                    Ok(v) if !v.is_true() => {}
                    Ok(_) => kept.push(i),
                }
            }
            batch.sel = kept;
        }
        Ok(Some(batch))
    }
}

/// Lazy annotation attachment: fills each survivor's annotation slots
/// from the per-source attachers (post-join, post-filter — survivors
/// only), bumping `anns_attached` once per batch.
pub(crate) struct BatchAttach<'a> {
    child: Box<dyn BatchOp<'a> + 'a>,
    attachers: Vec<SourceAttach<'a>>,
    total_arity: usize,
    st: Rc<RefCell<ExecStats>>,
}

impl<'a> BatchAttach<'a> {
    pub(crate) fn new(
        child: Box<dyn BatchOp<'a> + 'a>,
        attachers: Vec<SourceAttach<'a>>,
        total_arity: usize,
        st: Rc<RefCell<ExecStats>>,
    ) -> Self {
        BatchAttach {
            child,
            attachers,
            total_arity,
            st,
        }
    }
}

impl<'a> BatchOp<'a> for BatchAttach<'a> {
    fn next_batch(&mut self, demand: usize) -> Result<Option<Batch>> {
        let Some(mut batch) = self.child.next_batch(demand)? else {
            return Ok(None);
        };
        let mut attached = 0u64;
        for &i in &batch.sel {
            let row = &mut batch.rows[i];
            if row.anns.is_none() {
                let mut slots = vec![Vec::new(); self.total_arity];
                for (si, attacher) in self.attachers.iter_mut().enumerate() {
                    attached += attacher.attach_into(row.rows[si], &mut slots);
                }
                row.anns = Some(slots);
            }
        }
        if attached > 0 {
            self.st.borrow_mut().anns_attached += attached;
        }
        Ok(Some(batch))
    }
}

/// AWHERE: a tuple survives when *some* of its annotations satisfies
/// the predicate (§3.4).  Runs after attachment, so every live row has
/// its slots filled.
pub(crate) struct BatchAWhere<'a> {
    child: Box<dyn BatchOp<'a> + 'a>,
    cond: AnnExpr,
}

impl<'a> BatchAWhere<'a> {
    pub(crate) fn new(child: Box<dyn BatchOp<'a> + 'a>, cond: AnnExpr) -> Self {
        BatchAWhere { child, cond }
    }
}

impl<'a> BatchOp<'a> for BatchAWhere<'a> {
    fn next_batch(&mut self, demand: usize) -> Result<Option<Batch>> {
        let Some(mut batch) = self.child.next_batch(demand)? else {
            return Ok(None);
        };
        let cond = &self.cond;
        let rows = &batch.rows;
        batch.sel.retain(|&i| match &rows[i].anns {
            Some(slots) => slots.iter().flatten().any(|a| eval_ann(cond, a)),
            None => false,
        });
        Ok(Some(batch))
    }
}

/// Pushed LIMIT: caps its demand on the child at the remaining budget
/// and truncates the final batch, so upstream scans never fetch past
/// the k-th surviving tuple (plus at most the current batch's
/// overshoot when filters intervene).
pub(crate) struct BatchLimit<'a> {
    child: Box<dyn BatchOp<'a> + 'a>,
    remaining: usize,
}

impl<'a> BatchLimit<'a> {
    pub(crate) fn new(child: Box<dyn BatchOp<'a> + 'a>, k: usize) -> Self {
        BatchLimit {
            child,
            remaining: k,
        }
    }
}

impl<'a> BatchOp<'a> for BatchLimit<'a> {
    fn next_batch(&mut self, demand: usize) -> Result<Option<Batch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let want = demand.clamp(1, BATCH_SIZE).min(self.remaining);
        let Some(mut batch) = self.child.next_batch(want)? else {
            self.remaining = 0;
            return Ok(None);
        };
        if batch.sel.len() > self.remaining {
            batch.sel.truncate(self.remaining);
        }
        self.remaining -= batch.sel.len();
        Ok(Some(batch))
    }
}

// ---------------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------------

/// Project one pipeline row through compiled item expressions, merging
/// each item's referenced (plus PROMOTEd) columns' annotations (§3.4
/// projection); `filter` then drops the annotations FILTER rejects.
fn project_pipe_row(
    compiled: &[CExpr],
    item_cols: &[Vec<usize>],
    filter: Option<&AnnExpr>,
    row: &PipeRow,
) -> Result<AnnRow> {
    let mut values = Vec::with_capacity(compiled.len());
    for c in compiled {
        values.push(eval_compiled(c, &row.values)?);
    }
    let mut anns = Vec::with_capacity(compiled.len());
    for cols in item_cols {
        let mut merged: Vec<AnnRef> = Vec::new();
        if let Some(slots) = &row.anns {
            for &c in cols {
                for a in &slots[c] {
                    if !merged.iter().any(|x| x.identity() == a.identity()) {
                        merged.push(a.clone());
                    }
                }
            }
        }
        if let Some(cond) = filter {
            merged.retain(|a| eval_ann(cond, a));
        }
        anns.push(merged);
    }
    Ok(AnnRow { values, anns })
}

/// Project a batch's live rows into `out`.  On error, rows projected
/// before the failing one remain in `out`.
pub(crate) fn project_batch_into(
    compiled: &[CExpr],
    item_cols: &[Vec<usize>],
    batch: &Batch,
    filter: Option<&AnnExpr>,
    out: &mut Vec<AnnRow>,
) -> Result<()> {
    for &i in &batch.sel {
        out.push(project_pipe_row(
            compiled,
            item_cols,
            filter,
            &batch.rows[i],
        )?);
    }
    Ok(())
}

/// Drain an operator tree into materialized [`AnnRow`]s (for the
/// grouped output stage that needs whole groups in hand).
pub(crate) fn drain_rows<'a>(op: &mut dyn BatchOp<'a>, total_arity: usize) -> Result<Vec<AnnRow>> {
    let mut out = Vec::new();
    while let Some(b) = op.next_batch(BATCH_SIZE)? {
        for row in b.into_rows() {
            let anns = row.anns.unwrap_or_else(|| vec![Vec::new(); total_arity]);
            out.push(AnnRow {
                values: row.values,
                anns,
            });
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Streaming cursor adapter
// ---------------------------------------------------------------------------

/// Adapts an operator tree to the row-iterator shape `SelectCursor`
/// expects: pulls a batch per refill, projects it eagerly, and hands
/// out rows one at a time.  Construction pulls **nothing** — the first
/// batch is fetched on the first `next()` (the session tests pin
/// `rows_fetched == 0` right after opening a cursor).  Per-row
/// projection errors are buffered in sequence, so the rows before a
/// failing one are still handed out first.
pub(crate) struct BatchCursorStream<'a> {
    op: Box<dyn BatchOp<'a> + 'a>,
    compiled: Vec<CExpr>,
    item_cols: Vec<Vec<usize>>,
    filter: Option<AnnExpr>,
    buf: VecDeque<Result<AnnRow>>,
    done: bool,
}

impl<'a> BatchCursorStream<'a> {
    pub(crate) fn new(
        op: Box<dyn BatchOp<'a> + 'a>,
        compiled: Vec<CExpr>,
        item_cols: Vec<Vec<usize>>,
        filter: Option<AnnExpr>,
    ) -> Self {
        BatchCursorStream {
            op,
            compiled,
            item_cols,
            filter,
            buf: VecDeque::new(),
            done: false,
        }
    }
}

impl Iterator for BatchCursorStream<'_> {
    type Item = Result<AnnRow>;

    fn next(&mut self) -> Option<Result<AnnRow>> {
        loop {
            if let Some(entry) = self.buf.pop_front() {
                return Some(entry);
            }
            if self.done {
                return None;
            }
            match self.op.next_batch(BATCH_SIZE) {
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
                Ok(None) => {
                    self.done = true;
                    return None;
                }
                Ok(Some(b)) => {
                    for &i in &b.sel {
                        self.buf.push_back(project_pipe_row(
                            &self.compiled,
                            &self.item_cols,
                            self.filter.as_ref(),
                            &b.rows[i],
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming aggregation
// ---------------------------------------------------------------------------

/// What one SELECT item contributes to the accumulator fast path.
enum ItemKind {
    /// Non-aggregate expression: evaluated once on the group's first row
    /// (group-by keys are constant within a group).
    Key(CExpr),
    /// A top-level aggregate over an optional argument expression.
    Agg(AggFunc, Option<CExpr>),
}

/// Incremental form of the executor's per-group aggregate evaluation
/// (`eval_group`): counts non-null inputs, tracks int-ness and the
/// float total the same way, and keeps min/max by `Ord`.
struct AggAcc {
    f: AggFunc,
    /// Non-null input count (COUNT(*) counts every row via `Int(1)`).
    n: u64,
    all_int: bool,
    /// Sum over `as_float()`-convertible inputs (others contribute 0,
    /// like `eval_group`'s `filter_map(as_float)`).
    total: f64,
    /// Running min/max (only maintained for Min/Max).
    best: Option<Value>,
    /// First evaluation error, deferred to finalization (errors surface
    /// after the pipeline is fully drained).
    err: Option<BdbmsError>,
}

impl AggAcc {
    fn new(f: AggFunc) -> Self {
        AggAcc {
            f,
            n: 0,
            all_int: true,
            // -0.0 is `<f64 as Sum>`'s identity: `eval_group`'s sum over
            // values with no float form yields -0.0, and both group
            // stages must agree bit-for-bit
            total: -0.0,
            best: None,
            err: None,
        }
    }

    fn update(&mut self, v: Value) {
        self.n += 1;
        if !matches!(v, Value::Int(_)) {
            self.all_int = false;
        }
        match self.f {
            AggFunc::Min => match &self.best {
                Some(b) if *b <= v => {}
                _ => self.best = Some(v),
            },
            AggFunc::Max => match &self.best {
                Some(b) if *b >= v => {}
                _ => self.best = Some(v),
            },
            _ => {
                if let Some(x) = v.as_float() {
                    self.total += x;
                }
            }
        }
    }

    fn finalize(self) -> Value {
        match self.f {
            AggFunc::Count => Value::Int(self.n as i64),
            AggFunc::Sum | AggFunc::Avg => {
                if self.n == 0 {
                    Value::Null
                } else if matches!(self.f, AggFunc::Sum) {
                    if self.all_int {
                        Value::Int(self.total as i64)
                    } else {
                        Value::Float(self.total)
                    }
                } else {
                    Value::Float(self.total / self.n as f64)
                }
            }
            AggFunc::Min | AggFunc::Max => self.best.unwrap_or(Value::Null),
        }
    }
}

/// Per-item state of one group.
enum ItemState {
    Key(std::result::Result<Value, BdbmsError>),
    Agg(AggAcc),
}

struct Group {
    states: Vec<ItemState>,
    /// Merged annotations per item (identity-deduped union across the
    /// group's rows, §3.4).
    anns: Vec<Vec<AnnRef>>,
}

/// Streaming GROUP BY over batches: groups keyed in insertion order,
/// one accumulator per aggregate item — no per-row `AnnRow`
/// materialization and no interpreted expression walks.
///
/// Eligible when there is no HAVING/AHAVING, the GROUP BY keys resolve,
/// and every item is either aggregate-free or a *top-level* aggregate;
/// anything else returns `None` from [`try_new`](Self::try_new) and the
/// executor falls back to materializing + `aggregate_rows`.
pub(crate) struct BatchAggregator {
    key_idxs: Vec<usize>,
    kinds: Vec<ItemKind>,
    /// Annotation columns per item; errors deferred to finalization.
    item_cols: Vec<std::result::Result<Vec<usize>, BdbmsError>>,
    index: HashMap<Vec<Value>, usize>,
    groups: Vec<Group>,
    group_by_empty: bool,
    arity: usize,
}

impl BatchAggregator {
    /// Build the fast path if this SELECT's shape allows it.
    pub(crate) fn try_new(
        sel: &Select,
        items: &[SelectItem],
        bindings: &[ColBinding],
    ) -> Option<Self> {
        if sel.having.is_some() || sel.ahaving.is_some() {
            return None;
        }
        let key_idxs: Vec<usize> = sel
            .group_by
            .iter()
            .map(|(q, n)| resolve_column(bindings, q.as_deref(), n).ok())
            .collect::<Option<_>>()?;
        let kinds: Vec<ItemKind> = items
            .iter()
            .map(|item| match &item.expr {
                Expr::Aggregate(f, arg) => Some(ItemKind::Agg(
                    *f,
                    arg.as_deref().map(|a| compile(a, bindings)),
                )),
                e if !has_aggregate(e) => Some(ItemKind::Key(compile(e, bindings))),
                _ => None,
            })
            .collect::<Option<_>>()?;
        let item_cols = items
            .iter()
            .map(|i| item_ann_columns(i, bindings))
            .collect();
        Some(BatchAggregator {
            key_idxs,
            kinds,
            item_cols,
            index: HashMap::new(),
            groups: Vec::new(),
            group_by_empty: sel.group_by.is_empty(),
            arity: bindings.len(),
        })
    }

    fn new_group(&self, first: &[Value]) -> Group {
        let states = self
            .kinds
            .iter()
            .map(|kind| match kind {
                ItemKind::Key(c) => ItemState::Key(eval_compiled(c, first)),
                ItemKind::Agg(f, _) => ItemState::Agg(AggAcc::new(*f)),
            })
            .collect();
        Group {
            states,
            anns: vec![Vec::new(); self.kinds.len()],
        }
    }

    /// Fold a batch's live rows into the groups.
    pub(crate) fn consume(&mut self, batch: &Batch) {
        for &i in &batch.sel {
            let row = &batch.rows[i];
            let g = if self.group_by_empty {
                // global aggregates: one group, no per-row key hashing
                if self.groups.is_empty() {
                    let group = self.new_group(&row.values);
                    self.groups.push(group);
                }
                0
            } else {
                let key: Vec<Value> = self
                    .key_idxs
                    .iter()
                    .map(|&k| row.values[k].clone())
                    .collect();
                match self.index.get(&key) {
                    Some(&g) => g,
                    None => {
                        let g = self.groups.len();
                        self.index.insert(key, g);
                        let group = self.new_group(&row.values);
                        self.groups.push(group);
                        g
                    }
                }
            };
            let group = &mut self.groups[g];
            for (kind, state) in self.kinds.iter().zip(group.states.iter_mut()) {
                if let (ItemKind::Agg(_, arg), ItemState::Agg(acc)) = (kind, state) {
                    if acc.err.is_some() {
                        continue;
                    }
                    let v = match arg {
                        None => Value::Int(1),
                        Some(c) => match eval_compiled(c, &row.values) {
                            Ok(v) => v,
                            Err(e) => {
                                acc.err = Some(e);
                                continue;
                            }
                        },
                    };
                    if !v.is_null() {
                        acc.update(v);
                    }
                }
            }
            // annotation union across the group, per item (§3.4)
            if let Some(slots) = &row.anns {
                for (cols, merged) in self.item_cols.iter().zip(group.anns.iter_mut()) {
                    let Ok(cols) = cols else { continue };
                    for &c in cols {
                        for a in &slots[c] {
                            if !merged.iter().any(|x| x.identity() == a.identity()) {
                                merged.push(a.clone());
                            }
                        }
                    }
                }
            }
        }
    }

    /// Finalize: surface deferred errors in `aggregate_rows` order (groups
    /// in insertion order; per item, the value error before the
    /// annotation-column error) and emit one row per group.
    pub(crate) fn finish(mut self) -> Result<Vec<AnnRow>> {
        if self.groups.is_empty() && self.group_by_empty {
            // global aggregates over empty input: one group over NULLs
            let nulls = vec![Value::Null; self.arity];
            let group = self.new_group(&nulls);
            self.groups.push(group);
        }
        let mut out = Vec::with_capacity(self.groups.len());
        for group in self.groups {
            let Group { states, anns } = group;
            let mut values = Vec::with_capacity(states.len());
            let mut out_anns = Vec::with_capacity(states.len());
            for ((state, cols), merged) in states.into_iter().zip(self.item_cols.iter()).zip(anns) {
                match state {
                    ItemState::Key(res) => values.push(res?),
                    ItemState::Agg(acc) => {
                        if let Some(e) = acc.err {
                            return Err(e);
                        }
                        values.push(acc.finalize());
                    }
                }
                if let Err(e) = cols {
                    return Err(e.clone());
                }
                out_anns.push(merged);
            }
            out.push(AnnRow {
                values,
                anns: out_anns,
            });
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Profiling (EXPLAIN ANALYZE)
// ---------------------------------------------------------------------------

/// Per-operator actuals collected by [`BatchProfiler`]: rows and batches
/// emitted, and wall time spent inside the operator (inclusive of its
/// children — subtract a child's total for self time).
#[derive(Debug, Clone, Default)]
pub(crate) struct OpProfile {
    pub label: String,
    pub rows: u64,
    pub batches: u64,
    pub elapsed_ns: u64,
}

/// The set of profiled operators of one pipeline, in assembly (leaf to
/// root) order.  `EXPLAIN ANALYZE` hands one of these to the batch
/// assembler; normal execution passes `None` and no wrapper is ever
/// constructed — the disabled path is zero-cost by absence, not by a
/// branch per batch.
#[derive(Default)]
pub(crate) struct PipelineProfile {
    pub ops: Vec<Rc<RefCell<OpProfile>>>,
}

impl PipelineProfile {
    /// Interpose a [`BatchProfiler`] recording under `label`.
    pub(crate) fn wrap<'a>(
        &mut self,
        op: Box<dyn BatchOp<'a> + 'a>,
        label: impl Into<String>,
    ) -> Box<dyn BatchOp<'a> + 'a> {
        let cell = Rc::new(RefCell::new(OpProfile {
            label: label.into(),
            ..OpProfile::default()
        }));
        self.ops.push(cell.clone());
        Box::new(BatchProfiler { child: op, cell })
    }
}

/// Transparent [`BatchOp`] wrapper that times every pull and counts the
/// rows and batches flowing out of its child.
pub(crate) struct BatchProfiler<'a> {
    child: Box<dyn BatchOp<'a> + 'a>,
    cell: Rc<RefCell<OpProfile>>,
}

impl<'a> BatchOp<'a> for BatchProfiler<'a> {
    fn next_batch(&mut self, demand: usize) -> Result<Option<Batch>> {
        let started = std::time::Instant::now();
        let out = self.child.next_batch(demand);
        let mut p = self.cell.borrow_mut();
        p.elapsed_ns += started.elapsed().as_nanos() as u64;
        if let Ok(Some(b)) = &out {
            p.batches += 1;
            p.rows += b.live() as u64;
        }
        out
    }
}
