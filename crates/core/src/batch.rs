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
//! bookkeeping amortize across the batch.  A scan evaluates its pushed
//! conjuncts on each row as soon as the columns they read are decoded
//! and decodes the rest of a row only if it survives; later predicates
//! run as per-conjunct tight loops over a selection vector.  `demand`
//! makes the pull *demand-driven*: a pushed `LIMIT k` asks its child for
//! exactly `k` tuples, which keeps filterless scans' fetch counts exact.
//!
//! A `Batch` is **flat**: one row-major value arena, one row-number
//! arena and — downstream of `BatchAttach`, the one operator that
//! creates it — one annotation-slot arena per batch, never a heap object
//! per tuple.  The heap decodes straight into the arena,
//! operators hand the expression engine `&[Value]` row slices of it, and
//! the `Projection` — the last reader — *moves* bare-column items out
//! of it, so what a statement allocates per answer row is what the
//! `AnnRow` it returns is made of.  The other two readers at the end of
//! a pipeline are the `BatchAggregator`, which folds every grouped
//! SELECT into accumulators, and `Batch::into_rows`, which hands a
//! curator statement the rows it targets.
//!
//! Result multisets and error codes are pinned against a reference
//! interpreter that shares none of this code (the differential proptest
//! suites, `tests/batch_differential.rs` for SELECT and
//! `tests/target_differential.rs` for statement targets); the row counters in
//! `ExecStats` advance in batch granularity.  See `docs/EXECUTOR.md` for
//! the operator catalog and how to add one.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use bdbms_common::{BdbmsError, Result, Value};

use crate::ast::{AggFunc, AnnExpr, BinaryOp, Expr, Select, SelectItem, UnaryOp};
use crate::catalog::{Sieve, Table};
use crate::executor::{eval_ann, has_aggregate, item_ann_columns, ExecStats, SourceAttach};
use crate::expr::{compile, eval_compiled, resolve_column, CExpr, ColBinding};
use crate::result::{AnnRef, AnnRow};

/// Target tuples per operator pull.  Large enough to amortize dispatch
/// and the three arena allocations a batch costs, small enough that a
/// batch of wide rows stays cache-friendly.
pub const BATCH_SIZE: usize = 1024;

/// A batch of pipeline tuples, stored row-major in one arena per kind of
/// datum, plus a **selection vector**: `sel` lists the indexes of the
/// live tuples in ascending order.  Filters shrink `sel` instead of
/// moving tuples; dead tuples are simply never read again.
///
/// Tuple `i` is the value slice `values[i * arity..][..arity]` (what
/// `eval_compiled` takes), the row numbers `row_nos[i * sources..]
/// [..sources]` it was joined from, and — downstream of [`BatchAttach`] —
/// the annotation slots `anns[i * arity..][..arity]`.
pub(crate) struct Batch {
    /// Values per tuple.
    arity: usize,
    /// Row numbers per tuple: one per FROM source joined so far (>= 1).
    sources: usize,
    values: Vec<Value>,
    /// Originating row numbers, per tuple in FROM order.
    row_nos: Vec<u64>,
    /// Annotation slots, one per value; `None` upstream of
    /// [`BatchAttach`] (scans, joins and the WHERE filter never see
    /// slots) and in pipelines without one, which every reader treats
    /// like all-empty slots.
    anns: Option<Vec<Vec<AnnRef>>>,
    /// Live tuple indexes, ascending.
    sel: Vec<usize>,
}

impl Batch {
    /// An empty batch of `arity`-wide tuples over `sources` sources.
    fn new(arity: usize, sources: usize) -> Batch {
        Batch {
            arity,
            sources,
            values: Vec::new(),
            row_nos: Vec::new(),
            anns: None,
            sel: Vec::new(),
        }
    }

    /// Tuples stored, live or not.
    fn len(&self) -> usize {
        self.row_nos.len() / self.sources
    }

    /// Number of live tuples.
    pub(crate) fn live(&self) -> usize {
        self.sel.len()
    }

    /// Make every stored tuple live.
    fn select_all(&mut self) {
        self.sel = (0..self.len()).collect();
    }

    /// Where tuple `i` sits in the value and annotation arenas.
    fn cells(&self, i: usize) -> std::ops::Range<usize> {
        i * self.arity..(i + 1) * self.arity
    }

    /// Tuple `i`'s values.
    fn row(&self, i: usize) -> &[Value] {
        &self.values[self.cells(i)]
    }

    /// Tuple `i`'s originating row numbers, in FROM order.
    fn row_nos(&self, i: usize) -> &[u64] {
        &self.row_nos[i * self.sources..(i + 1) * self.sources]
    }

    /// Tuple `i`'s annotation slots, if an attach stage has run.
    fn row_anns(&self, i: usize) -> Option<&[Vec<AnnRef>]> {
        Some(&self.anns.as_ref()?[self.cells(i)])
    }

    /// Sweep `conjuncts` over the live tuples in per-conjunct tight
    /// loops, each over the survivors of the previous one.
    fn retain_true(&mut self, conjuncts: &[CExpr]) -> Result<()> {
        for conjunct in conjuncts {
            if self.sel.is_empty() {
                break;
            }
            let mut kept = Vec::with_capacity(self.sel.len());
            for &i in &self.sel {
                if eval_compiled(conjunct, self.row(i))?.is_true() {
                    kept.push(i);
                }
            }
            self.sel = kept;
        }
        Ok(())
    }

    /// Append the concatenation of `left`'s tuple `l` and `right`'s
    /// tuple `r`, live.
    fn push_joined(&mut self, left: &Batch, l: usize, right: &Batch, r: usize) {
        self.sel.push(self.len());
        self.values.extend_from_slice(left.row(l));
        self.values.extend_from_slice(right.row(r));
        self.row_nos.extend_from_slice(left.row_nos(l));
        self.row_nos.extend_from_slice(right.row_nos(r));
    }

    /// Move `other`'s live tuples onto the end of this batch (same
    /// shape, no annotation slots yet), live.  A fully live `other` is
    /// two `memcpy`s.
    fn append_live(&mut self, mut other: Batch) {
        let base = self.len();
        self.sel.extend(base..base + other.live());
        if other.live() == other.len() {
            self.values.append(&mut other.values);
            self.row_nos.append(&mut other.row_nos);
            return;
        }
        for &i in &other.sel {
            let cells = other.cells(i);
            self.values
                .extend(other.values[cells].iter_mut().map(std::mem::take));
            self.row_nos.extend_from_slice(other.row_nos(i));
        }
    }

    /// Move the live tuples out as `(row number, values)` pairs, in order
    /// (the first source's row number: for single-source pipelines, the
    /// executor's statement targets).
    pub(crate) fn into_rows(mut self) -> impl Iterator<Item = (u64, Vec<Value>)> {
        let sel = std::mem::take(&mut self.sel);
        sel.into_iter().map(move |i| {
            let cells = self.cells(i);
            let values = self.values[cells].iter_mut().map(std::mem::take).collect();
            (self.row_nos[i * self.sources], values)
        })
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
    /// chunk per pull, decoded from the buffer pool straight into the
    /// batch's arena and pruned to `keep` (the planner's value columns —
    /// every other slot is provably unread and left NULL), so a scan pays
    /// neither a per-row record copy nor a full decode.
    Chunk {
        table: &'a Table,
        /// Next row number to fetch.
        next: u64,
        /// Source-local columns whose values the query reads, ascending
        /// (`None` = unknown, decode all).
        keep: Option<Vec<usize>>,
    },
}

impl ScanBase<'_> {
    /// Narrow a heap-reading scan to decode `first` (ascending) up front
    /// and return the kept columns it defers, ascending: the ones a
    /// [`BatchScan`] decodes only for the rows that survive.  An
    /// index-only scan defers nothing, nor does a scan whose kept
    /// columns are all in `first`.
    pub(crate) fn defer_all_but(&mut self, first: Vec<usize>, arity: usize) -> Vec<usize> {
        let (ScanBase::Rows { keep, .. } | ScanBase::Chunk { keep, .. }) = self else {
            return Vec::new();
        };
        let kept = keep.clone().unwrap_or_else(|| (0..arity).collect());
        let late: Vec<usize> = kept.into_iter().filter(|c| !first.contains(c)).collect();
        if !late.is_empty() {
            *keep = Some(first);
        }
        late
    }
}

/// Scan: wraps the access path chosen at assembly time
/// ([`crate::executor`]'s `scan_base_batch`) and fetches up to `demand`
/// tuples — a whole chunk of the table or of the probe's candidate list
/// at once.  A fetched row survives when its pushed conjuncts (all but
/// the one an exact probe has answered) accept it — evaluated in order
/// as soon as the columns they read are decoded, each only on the rows
/// every conjunct before it accepted — and, on the streamed side of hash
/// joins, when each join's build side has its key.  A rejected row never
/// enters the batch, and a survivor's `late` columns are decoded from
/// the same record under the same page pin ([`Sieve`]).
pub(crate) struct BatchScan<'a> {
    base: ScanBase<'a>,
    pushed: Vec<CExpr>,
    /// `(column, build-side keys)` per hash join this scan streams into.
    joins: Vec<(usize, JoinKeys)>,
    /// Kept columns decoded only for the rows that survive,
    /// source-local and ascending.
    late: Vec<usize>,
    arity: usize,
    st: Rc<RefCell<ExecStats>>,
    done: bool,
}

impl<'a> BatchScan<'a> {
    pub(crate) fn new(
        base: ScanBase<'a>,
        pushed: Vec<CExpr>,
        late: Vec<usize>,
        arity: usize,
        st: Rc<RefCell<ExecStats>>,
    ) -> Self {
        BatchScan {
            base,
            pushed,
            joins: Vec::new(),
            late,
            arity,
            st,
            done: false,
        }
    }

    /// On the streamed side of a join — whose columns lead every joined
    /// tuple — drop, in the scan, the rows that match no build tuple on
    /// `side`'s equi-join key when that key is one of the scan's own
    /// columns: they would join nothing.
    pub(crate) fn semi_join(&mut self, side: &BuildSide) {
        if let Some((col, keys)) = side.key.as_ref().filter(|(col, _)| *col < self.arity) {
            self.joins.push((*col, keys.clone()));
        }
    }
}

impl<'a> BatchOp<'a> for BatchScan<'a> {
    fn next_batch(&mut self, demand: usize) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        let want = demand.clamp(1, BATCH_SIZE);
        let arity = self.arity;
        let mut batch = Batch::new(arity, 1);
        let (mut fetched, mut filtered) = (0u64, 0u64);
        let (pushed, joins) = (&self.pushed, &self.joins);
        let mut survives = |row: &[Value]| -> Result<bool> {
            fetched += 1;
            for conjunct in pushed {
                if !eval_compiled(conjunct, row)?.is_true() {
                    filtered += 1;
                    return Ok(false);
                }
            }
            Ok(joins
                .iter()
                .all(|(col, keys)| keys.contains_key(&row[*col])))
        };
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
                let sieve = Sieve {
                    keep: keep.as_deref(),
                    survives: &mut survives,
                    late: &self.late,
                };
                table.fetch_rows(run, sieve, &mut batch.row_nos, &mut batch.values)
            }
            ScanBase::Keys { column, entries } => {
                // the key in its column, every other slot NULL (provably
                // unread)
                let mut sift = || {
                    for (row_no, key) in entries.by_ref().take(want) {
                        let start = batch.values.len();
                        batch.values.resize(start + arity, Value::Null);
                        batch.values[start + *column] = key;
                        if survives(&batch.values[start..])? {
                            batch.row_nos.push(row_no);
                        } else {
                            batch.values.truncate(start);
                        }
                    }
                    Ok(())
                };
                let sifted = sift();
                self.done = entries.len() == 0;
                sifted
            }
            ScanBase::Chunk { table, next, keep } => {
                let sieve = Sieve {
                    keep: keep.as_deref(),
                    survives: &mut survives,
                    late: &self.late,
                };
                table
                    .scan_chunk(*next, want, sieve, &mut batch.row_nos, &mut batch.values)
                    .map(|resume| match resume {
                        Some(n) => *next = n,
                        None => self.done = true,
                    })
            }
        };
        let mut s = self.st.borrow_mut();
        s.rows_fetched += fetched;
        s.rows_scan_filtered += filtered;
        if let Err(e) = fetch {
            self.done = true;
            return Err(e);
        }
        if fetched == 0 {
            return Ok(None);
        }
        s.scan_batches += 1;
        batch.select_all();
        Ok(Some(batch))
    }
}

/// Drain a build-side scan to one arena of its live tuples
/// (assembly-time materialization of hash-join build sides; a failing
/// build scan fails the statement before the probe side is pulled).
pub(crate) fn drain_build<'a>(mut scan: impl BatchOp<'a>, arity: usize) -> Result<Batch> {
    let mut build = Batch::new(arity, 1);
    while let Some(b) = scan.next_batch(BATCH_SIZE)? {
        build.append_live(b);
    }
    Ok(build)
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

/// A build side's hash on its join key: the build tuples per non-NULL
/// key, shared by the join and the streamed scan that drops the rows it
/// would not match ([`BatchScan::semi_join`]).
pub(crate) type JoinKeys = Rc<HashMap<Value, Vec<usize>>>;

/// A drained build side, hashed on its join key for an equi-join.
pub(crate) struct BuildSide {
    /// Every tuple live.
    build: Batch,
    /// `Some((probe column, build-side hash))` for an equi-join.
    key: Option<(usize, JoinKeys)>,
}

impl BuildSide {
    /// Hash `build` on its column `rcol` for `key = Some((lcol, rcol))`
    /// (NULL keys never match, per SQL).
    pub(crate) fn new(build: Batch, key: Option<(usize, usize)>) -> Self {
        let key = key.map(|(lcol, rcol)| {
            let mut map: HashMap<Value, Vec<usize>> = HashMap::new();
            for ri in 0..build.len() {
                let k = &build.row(ri)[rcol];
                if !k.is_null() {
                    map.entry(k.clone()).or_default().push(ri);
                }
            }
            (lcol, Rc::new(map))
        });
        BuildSide { build, key }
    }
}

/// Join against a materialized build side: hash join on an equi-key
/// (NULL keys never match, per SQL) or cross product without one.
/// Joined tuples are written straight into the output arena; when a left
/// tuple's matches overflow `demand`, the join remembers where it stopped
/// and resumes there on the next pull.
pub(crate) struct BatchJoin<'a> {
    left: Box<dyn BatchOp<'a> + 'a>,
    /// The build side, every tuple live.
    build: Batch,
    /// `Some((probe column, build-side hash))` for an equi-join.
    key: Option<(usize, JoinKeys)>,
    /// Every build tuple: what a left tuple matches without a key.
    all: Vec<usize>,
    /// The left batch being joined, the position in its `sel` of the
    /// tuple to resume with, and how many of that tuple's matches have
    /// been emitted.
    cur: Option<(Batch, usize, usize)>,
    left_done: bool,
}

impl<'a> BatchJoin<'a> {
    pub(crate) fn new(left: Box<dyn BatchOp<'a> + 'a>, side: BuildSide) -> Self {
        let BuildSide { build, key } = side;
        let all = match key {
            Some(_) => Vec::new(),
            None => (0..build.len()).collect(),
        };
        BatchJoin {
            left,
            build,
            key,
            all,
            cur: None,
            left_done: false,
        }
    }
}

impl<'a> BatchOp<'a> for BatchJoin<'a> {
    fn next_batch(&mut self, demand: usize) -> Result<Option<Batch>> {
        let want = demand.clamp(1, BATCH_SIZE);
        let mut out: Option<Batch> = None;
        while out.as_ref().map_or(0, Batch::len) < want && !self.left_done {
            let Some((left, pos, emitted)) = &mut self.cur else {
                match self.left.next_batch(want)? {
                    None => self.left_done = true,
                    Some(b) => self.cur = Some((b, 0, 0)),
                }
                continue;
            };
            let Some(&l) = left.sel.get(*pos) else {
                self.cur = None;
                continue;
            };
            let out = out.get_or_insert_with(|| {
                let mut out = Batch::new(
                    left.arity + self.build.arity,
                    left.sources + self.build.sources,
                );
                // a guess of one match per remaining left tuple
                let rows = want.min(left.live() - *pos);
                out.values.reserve(rows * out.arity);
                out.row_nos.reserve(rows * out.sources);
                out
            });
            let matches: &[usize] = match &self.key {
                None => &self.all,
                Some((lcol, map)) => match &left.row(l)[*lcol] {
                    Value::Null => &[],
                    k => map.get(k).map_or(&[], Vec::as_slice),
                },
            };
            let room = want - out.len();
            for &r in matches[*emitted..].iter().take(room) {
                out.push_joined(left, l, &self.build, r);
            }
            if matches.len() - *emitted > room {
                *emitted += room;
            } else {
                *pos += 1;
                *emitted = 0;
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Filter / attach / AWHERE / limit
// ---------------------------------------------------------------------------

/// Residual WHERE: cross-source conjuncts swept over the joined batch in
/// per-conjunct tight loops.
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
        batch.retain_true(&self.conjuncts)?;
        Ok(Some(batch))
    }
}

/// Annotation attachment, and the only operator that creates annotation
/// slots: fills each survivor's slots from the per-source attachers
/// (post-join, post-filter — survivors only), bumping `anns_attached`
/// once per batch.
pub(crate) struct BatchAttach<'a> {
    child: Box<dyn BatchOp<'a> + 'a>,
    attachers: Vec<SourceAttach<'a>>,
    st: Rc<RefCell<ExecStats>>,
}

impl<'a> BatchAttach<'a> {
    pub(crate) fn new(
        child: Box<dyn BatchOp<'a> + 'a>,
        attachers: Vec<SourceAttach<'a>>,
        st: Rc<RefCell<ExecStats>>,
    ) -> Self {
        BatchAttach {
            child,
            attachers,
            st,
        }
    }
}

impl<'a> BatchOp<'a> for BatchAttach<'a> {
    fn next_batch(&mut self, demand: usize) -> Result<Option<Batch>> {
        let Some(mut batch) = self.child.next_batch(demand)? else {
            return Ok(None);
        };
        debug_assert!(
            batch.anns.is_none(),
            "no operator upstream of the attach stage creates annotation slots"
        );
        let mut slots = vec![Vec::new(); batch.len() * batch.arity];
        let mut attached = 0u64;
        for &i in &batch.sel {
            let slots = &mut slots[batch.cells(i)];
            for (attacher, &row_no) in self.attachers.iter_mut().zip(batch.row_nos(i)) {
                attached += attacher.attach_into(row_no, slots)?;
            }
        }
        batch.anns = Some(slots);
        if attached > 0 {
            self.st.borrow_mut().anns_attached += attached;
        }
        Ok(Some(batch))
    }
}

/// AWHERE: a tuple survives when *some* of its annotations satisfies
/// the predicate (§3.4).
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
        let mut sel = std::mem::take(&mut batch.sel);
        sel.retain(|&i| {
            let slots = batch.row_anns(i).unwrap_or_default();
            slots.iter().flatten().any(|a| eval_ann(&self.cond, a))
        });
        batch.sel = sel;
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

/// The compiled SELECT list, and the one stage allowed to take values
/// *out* of a batch: it is handed every batch by value, nothing reads a
/// tuple after it, and the spent arena is dropped whole.
pub(crate) struct Projection {
    compiled: Vec<CExpr>,
    /// Per item, the columns whose annotations it carries (referenced
    /// plus PROMOTEd, §3.4).
    item_cols: Vec<Vec<usize>>,
    /// Per item, `Some(k)` when the item is the bare column `k` and no
    /// later item reads `k`: the value is moved, not cloned.  Items are
    /// evaluated in list order, so only the *last* reader of a column may
    /// take it — `SELECT PID, PID` clones for the first and moves for the
    /// second.
    moved: Vec<Option<usize>>,
    /// FILTER: drops the annotations it rejects from every output cell.
    filter: Option<AnnExpr>,
}

impl Projection {
    /// Compile `items` against `bindings`; fails when an item's
    /// annotation columns do not resolve.
    pub(crate) fn new(
        items: &[SelectItem],
        bindings: &[ColBinding],
        filter: Option<AnnExpr>,
    ) -> Result<Projection> {
        let item_cols: Vec<Vec<usize>> = items
            .iter()
            .map(|i| item_ann_columns(i, bindings))
            .collect::<Result<_>>()?;
        let compiled: Vec<CExpr> = items.iter().map(|i| compile(&i.expr, bindings)).collect();
        // an item's annotation columns include every column it reads
        let moved = compiled
            .iter()
            .enumerate()
            .map(|(j, c)| match c {
                CExpr::Column(k) if !item_cols[j + 1..].iter().any(|cols| cols.contains(k)) => {
                    Some(*k)
                }
                _ => None,
            })
            .collect();
        Ok(Projection {
            compiled,
            item_cols,
            moved,
            filter,
        })
    }

    /// Project tuple `i` of `batch`, merging each item's columns'
    /// annotations (§3.4 projection).  The tuple is spent afterwards.
    fn project_row(&self, batch: &mut Batch, i: usize) -> Result<AnnRow> {
        let cells = batch.cells(i);
        let mut values = Vec::with_capacity(self.compiled.len());
        for (c, moved) in self.compiled.iter().zip(&self.moved) {
            values.push(match moved {
                Some(k) => std::mem::take(&mut batch.values[cells.start + k]),
                None => eval_compiled(c, &batch.values[cells.clone()])?,
            });
        }
        let slots = batch.row_anns(i);
        let mut anns = Vec::with_capacity(self.compiled.len());
        for cols in &self.item_cols {
            let mut merged: Vec<AnnRef> = Vec::new();
            for a in cols.iter().flat_map(|&c| slots.map_or(&[][..], |s| &s[c])) {
                if !merged.iter().any(|x| x.identity() == a.identity()) {
                    merged.push(a.clone());
                }
            }
            if let Some(cond) = &self.filter {
                merged.retain(|a| eval_ann(cond, a));
            }
            anns.push(merged);
        }
        Ok(AnnRow { values, anns })
    }

    /// Project a batch's live tuples, in order; the batch is spent.
    fn project(&self, mut batch: Batch) -> impl Iterator<Item = Result<AnnRow>> + '_ {
        let sel = std::mem::take(&mut batch.sel);
        sel.into_iter()
            .map(move |i| self.project_row(&mut batch, i))
    }

    /// Project a batch's live tuples into `out`.  On error, rows
    /// projected before the failing one remain in `out`.
    pub(crate) fn project_into(&self, batch: Batch, out: &mut Vec<AnnRow>) -> Result<()> {
        for row in self.project(batch) {
            out.push(row?);
        }
        Ok(())
    }
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
    projection: Projection,
    buf: VecDeque<Result<AnnRow>>,
    done: bool,
}

impl<'a> BatchCursorStream<'a> {
    pub(crate) fn new(op: Box<dyn BatchOp<'a> + 'a>, projection: Projection) -> Self {
        BatchCursorStream {
            op,
            projection,
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
                Ok(Some(b)) => self.buf.extend(self.projection.project(b)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming aggregation
// ---------------------------------------------------------------------------

/// One aggregate's running state: counts non-null inputs, tracks
/// int-ness and the float total, and keeps min/max by `Ord`.
struct AggAcc {
    f: AggFunc,
    /// Non-null input count (COUNT(*) counts every row via `Int(1)`).
    n: u64,
    all_int: bool,
    /// Sum over `as_float()`-convertible inputs (others contribute 0).
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
            // -0.0 is `<f64 as Sum>`'s identity: a sum over values with no
            // float form is -0.0 in the reference too, bit for bit
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

    fn finalize(self) -> Result<Value> {
        if let Some(e) = self.err {
            return Err(e);
        }
        Ok(match self.f {
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
        })
    }
}

/// An expression over a finished group: each aggregate reachable through
/// `Binary`/`Unary` reads its accumulator's output, every aggregate-free
/// part is compiled over the group's first-row cells.  An operator over
/// an aggregate evaluates both operands before it applies (errors under a
/// short-circuited arm still fire, as in the reference interpreter); an
/// aggregate in any other position is `compile`'s `CExpr::Err`.
enum GroupExpr {
    /// Aggregate-free, over the first-row cells.
    Row(CExpr),
    /// The output of accumulator `k`.
    Agg(usize),
    Unary(UnaryOp, Box<GroupExpr>),
    Binary(Box<GroupExpr>, BinaryOp, Box<GroupExpr>),
}

impl GroupExpr {
    /// Compile `e`, adding each distinct aggregate it reads to `aggs` and
    /// each binding position its aggregate-free parts read to `cols`.
    fn new(
        e: &Expr,
        bindings: &[ColBinding],
        aggs: &mut Vec<AggSpec>,
        cols: &mut Vec<usize>,
    ) -> Self {
        let mut sub = |e: &Expr| Box::new(GroupExpr::new(e, bindings, aggs, cols));
        match e {
            Expr::Aggregate(f, arg) => GroupExpr::Agg(position_or_push(aggs, (*f, arg.clone()))),
            Expr::Unary(op, a) if has_aggregate(a) => GroupExpr::Unary(*op, sub(a)),
            Expr::Binary(l, op, r) if has_aggregate(e) => GroupExpr::Binary(sub(l), *op, sub(r)),
            _ => {
                let mut c = compile(e, bindings);
                renumber_columns(&mut c, cols);
                GroupExpr::Row(c)
            }
        }
    }

    fn eval(&self, first: &[Value], aggs: &[Result<Value>]) -> Result<Value> {
        let lit = |v: Value| Box::new(CExpr::Literal(v));
        match self {
            GroupExpr::Row(c) => eval_compiled(c, first),
            GroupExpr::Agg(k) => aggs[*k].clone(),
            GroupExpr::Unary(op, a) => {
                eval_compiled(&CExpr::Unary(*op, lit(a.eval(first, aggs)?)), &[])
            }
            GroupExpr::Binary(l, op, r) => {
                let l = l.eval(first, aggs)?;
                let r = r.eval(first, aggs)?;
                eval_compiled(&CExpr::Binary(lit(l), *op, lit(r)), &[])
            }
        }
    }
}

/// An aggregate as the SQL spells it: function and argument.
type AggSpec = (AggFunc, Option<Box<Expr>>);

/// `x`'s position in `xs`, appending it when absent.
fn position_or_push<T: PartialEq>(xs: &mut Vec<T>, x: T) -> usize {
    match xs.iter().position(|y| *y == x) {
        Some(k) => k,
        None => {
            xs.push(x);
            xs.len() - 1
        }
    }
}

/// Renumber a compiled expression's column reads to positions in
/// `cols`, adding the binding positions it is the first to read.
fn renumber_columns(c: &mut CExpr, cols: &mut Vec<usize>) {
    match c {
        CExpr::Column(k) => *k = position_or_push(cols, *k),
        CExpr::Literal(_) | CExpr::Err(_) => {}
        CExpr::Unary(_, a)
        | CExpr::IsNull(a, _)
        | CExpr::Like(a, _, _)
        | CExpr::ContainsSeq(a, _, _) => renumber_columns(a, cols),
        CExpr::InList(a, items, _) => {
            renumber_columns(a, cols);
            items.iter_mut().for_each(|i| renumber_columns(i, cols));
        }
        CExpr::Binary(l, _, r) => {
            renumber_columns(l, cols);
            renumber_columns(r, cols);
        }
        CExpr::Call(_, args) => args.iter_mut().for_each(|a| renumber_columns(a, cols)),
    }
}

struct Group {
    /// The group's first row, at the aggregator's `first_cols`.
    first: Vec<Value>,
    accs: Vec<AggAcc>,
    /// Some annotation of some row satisfied AHAVING.
    ahaving: bool,
    /// Merged annotations per item (identity-deduped union across the
    /// group's rows, §3.4).
    anns: Vec<Vec<AnnRef>>,
}

/// GROUP BY / aggregation over batches: groups keyed in insertion order,
/// one accumulator per distinct aggregate, and per group only the
/// first-row cells the aggregate-free parts read — no per-row `AnnRow`
/// and no interpreted expression walk.  `finish` evaluates HAVING, then
/// AHAVING, then the items over (first-row cells ++ accumulator outputs),
/// group by group.
pub(crate) struct BatchAggregator {
    /// GROUP BY key positions; one that does not resolve fails `finish`,
    /// once the pipeline has drained.
    keys: std::result::Result<Vec<usize>, BdbmsError>,
    /// Per distinct aggregate: function and compiled argument.
    aggs: Vec<(AggFunc, Option<CExpr>)>,
    /// Binding positions a group keeps from its first row.
    first_cols: Vec<usize>,
    having: Option<GroupExpr>,
    ahaving: Option<AnnExpr>,
    items: Vec<GroupExpr>,
    /// Annotation columns per item; errors deferred to finalization.
    item_cols: Vec<std::result::Result<Vec<usize>, BdbmsError>>,
    index: HashMap<Vec<Value>, usize>,
    groups: Vec<Group>,
    /// The current row's GROUP BY key, refilled in place row by row (a
    /// TEXT key reuses its buffer), so a row of an existing group
    /// allocates nothing; only a new group's key is cloned.
    key: Vec<Value>,
}

impl BatchAggregator {
    pub(crate) fn new(sel: &Select, items: &[SelectItem], bindings: &[ColBinding]) -> Self {
        let keys = sel
            .group_by
            .iter()
            .map(|(q, n)| resolve_column(bindings, q.as_deref(), n))
            .collect();
        let (mut aggs, mut first_cols) = (Vec::new(), Vec::new());
        let having = sel
            .having
            .as_ref()
            .map(|h| GroupExpr::new(h, bindings, &mut aggs, &mut first_cols));
        let group_items = items
            .iter()
            .map(|i| GroupExpr::new(&i.expr, bindings, &mut aggs, &mut first_cols))
            .collect();
        let aggs = aggs
            .into_iter()
            .map(|(f, arg)| (f, arg.map(|a| compile(&a, bindings))))
            .collect();
        BatchAggregator {
            keys,
            aggs,
            first_cols,
            having,
            ahaving: sel.ahaving.clone(),
            items: group_items,
            item_cols: items
                .iter()
                .map(|i| item_ann_columns(i, bindings))
                .collect(),
            index: HashMap::new(),
            groups: Vec::new(),
            key: Vec::new(),
        }
    }

    /// A fresh group whose first row is `first` (at `first_cols`).
    fn new_group(&self, first: Vec<Value>) -> Group {
        Group {
            first,
            accs: self.aggs.iter().map(|(f, _)| AggAcc::new(*f)).collect(),
            ahaving: false,
            anns: vec![Vec::new(); self.items.len()],
        }
    }

    /// Fold a batch's live rows into the groups.
    pub(crate) fn consume(&mut self, batch: &Batch) {
        let Ok(keys) = &self.keys else { return };
        for &i in &batch.sel {
            let row = batch.row(i);
            let first = |cols: &[usize]| cols.iter().map(|&c| row[c].clone()).collect();
            let g = if keys.is_empty() {
                // global aggregates: one group, no per-row key hashing
                if self.groups.is_empty() {
                    let group = self.new_group(first(&self.first_cols));
                    self.groups.push(group);
                }
                0
            } else {
                self.key.resize(keys.len(), Value::Null);
                for (slot, &k) in self.key.iter_mut().zip(keys) {
                    match (slot, &row[k]) {
                        (Value::Text(buf), Value::Text(v)) => buf.clone_from(v),
                        (slot, v) => *slot = v.clone(),
                    }
                }
                match self.index.get(self.key.as_slice()) {
                    Some(&g) => g,
                    None => {
                        let group = self.new_group(first(&self.first_cols));
                        self.index.insert(self.key.clone(), self.groups.len());
                        self.groups.push(group);
                        self.groups.len() - 1
                    }
                }
            };
            let group = &mut self.groups[g];
            for ((_, arg), acc) in self.aggs.iter().zip(&mut group.accs) {
                if acc.err.is_some() {
                    continue;
                }
                let v = match arg {
                    None => Value::Int(1),
                    Some(c) => match eval_compiled(c, row) {
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
            let Some(slots) = batch.row_anns(i) else {
                continue;
            };
            if let Some(cond) = &self.ahaving {
                group.ahaving = group.ahaving || slots.iter().flatten().any(|a| eval_ann(cond, a));
            }
            // annotation union across the group, per item (§3.4)
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

    /// Finalize, group by group in insertion order: HAVING, then AHAVING,
    /// then each item (its value error before its annotation-column
    /// error); one row per group that passes.
    pub(crate) fn finish(mut self) -> Result<Vec<AnnRow>> {
        let global = self.keys.as_ref().map_err(Clone::clone)?.is_empty();
        if global && self.groups.is_empty() {
            // global aggregates over empty input: one group over NULLs
            let group = self.new_group(vec![Value::Null; self.first_cols.len()]);
            self.groups.push(group);
        }
        let mut out = Vec::with_capacity(self.groups.len());
        for group in self.groups {
            let aggs: Vec<Result<Value>> = group.accs.into_iter().map(AggAcc::finalize).collect();
            if let Some(h) = &self.having {
                if !h.eval(&group.first, &aggs)?.is_true() {
                    continue;
                }
            }
            if self.ahaving.is_some() && !group.ahaving {
                continue;
            }
            let mut values = Vec::with_capacity(self.items.len());
            for (item, cols) in self.items.iter().zip(&self.item_cols) {
                values.push(item.eval(&group.first, &aggs)?);
                if let Err(e) = cols {
                    return Err(e.clone());
                }
            }
            out.push(AnnRow {
                values,
                anns: group.anns,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A scan-shaped batch (one source) of `arity`-wide tuples numbered
    /// from 0, every tuple live.
    fn batch(arity: usize, rows: &[&[Value]]) -> Batch {
        let mut b = Batch::new(arity, 1);
        for (no, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), arity);
            b.row_nos.push(no as u64);
            b.values.extend_from_slice(row);
        }
        b.select_all();
        b
    }

    /// Hands out prepared batches, whatever the demand.
    struct Feed(VecDeque<Batch>);

    impl<'a> BatchOp<'a> for Feed {
        fn next_batch(&mut self, _demand: usize) -> Result<Option<Batch>> {
            Ok(self.0.pop_front())
        }
    }

    fn feed<'a>(batches: Vec<Batch>) -> Box<dyn BatchOp<'a> + 'a> {
        Box::new(Feed(batches.into()))
    }

    fn column(name: &str) -> SelectItem {
        SelectItem {
            expr: Expr::Column(None, name.to_string()),
            alias: None,
            promote: Vec::new(),
        }
    }

    fn bindings(names: &[&str]) -> Vec<ColBinding> {
        names.iter().map(|n| ColBinding::new(None, n)).collect()
    }

    #[test]
    fn row_views_at_arity_0_1_and_n() {
        let none = batch(0, &[&[], &[]]);
        assert_eq!((none.len(), none.live()), (2, 2));
        assert_eq!(none.row(1), &[] as &[Value]);
        let one = batch(1, &[&[Value::Int(4)], &[Value::Int(5)]]);
        assert_eq!(one.row(1), [Value::Int(5)]);
        let wide = batch(
            3,
            &[
                &[Value::Int(1), "a".into(), Value::Null],
                &[Value::Int(2), "b".into(), Value::Bool(true)],
            ],
        );
        assert_eq!(wide.row(0), [Value::Int(1), "a".into(), Value::Null]);
        assert_eq!(wide.row(1), [Value::Int(2), "b".into(), Value::Bool(true)]);
        assert!(wide.row_anns(1).is_none(), "no slots until attached");
    }

    #[test]
    fn join_output_has_the_strides_of_both_sides() {
        // left: two sources already joined (arity 2), tuple 1 dead
        let mut left = Batch::new(2, 2);
        for (nos, key) in [([10, 20], 1), ([11, 21], 2), ([12, 22], 2)] {
            left.row_nos.extend_from_slice(&nos);
            left.values.extend([Value::Int(key), Value::Null]);
        }
        left.sel = vec![0, 2];
        // build: key 2 twice, key NULL once (never matches)
        let mut build = batch(
            1,
            &[
                &[Value::Int(2)],
                &[Value::Null],
                &[Value::Int(2)],
                &[Value::Int(9)],
            ],
        );
        build.row_nos = vec![100, 101, 102, 103];
        let mut join = BatchJoin::new(feed(vec![left]), BuildSide::new(build, Some((0, 0))));
        // demand 1: the second match of the same left tuple comes on the
        // next pull
        let first = join.next_batch(1).unwrap().unwrap();
        assert_eq!((first.arity, first.sources, first.len()), (3, 3, 1));
        assert_eq!(first.row(0), [Value::Int(2), Value::Null, Value::Int(2)]);
        assert_eq!(first.row_nos, [12, 22, 100]);
        let rest = join.next_batch(BATCH_SIZE).unwrap().unwrap();
        assert_eq!(rest.row_nos, [12, 22, 102], "resumed at the second match");
        assert_eq!(rest.sel, [0]);
        // slots are created downstream of the joins, by `BatchAttach` alone
        assert!(first.anns.is_none() && rest.anns.is_none());
        assert!(join.next_batch(BATCH_SIZE).unwrap().is_none());
    }

    #[test]
    fn cross_join_resumes_inside_a_left_tuple() {
        let left = batch(1, &[&[Value::Int(1)], &[Value::Int(2)]]);
        let build = batch(1, &[&["a".into()], &["b".into()], &["c".into()]]);
        let mut join = BatchJoin::new(feed(vec![left]), BuildSide::new(build, None));
        let mut pairs = Vec::new();
        while let Some(b) = join.next_batch(2).unwrap() {
            assert!(b.len() <= 2, "never more than the demand");
            pairs.extend(b.sel.iter().map(|&i| format!("{:?}", b.row(i))));
        }
        assert_eq!(pairs.len(), 6);
        assert_eq!(pairs[2], r#"[Int(1), Text("c")]"#);
        assert_eq!(pairs[3], r#"[Int(2), Text("a")]"#);
    }

    #[test]
    fn dead_tuples_are_never_read() {
        // tuple 1 is dead and poisoned: any expression over it fails
        let poisoned = || {
            let mut b = batch(
                2,
                &[
                    &[Value::Int(1), "x".into()],
                    &["poison".into(), "y".into()],
                    &[Value::Int(3), "z".into()],
                ],
            );
            b.sel = vec![0, 2];
            b
        };
        let names = bindings(&["a", "b"]);
        let plus_one = Expr::Binary(
            Box::new(Expr::Column(None, "a".into())),
            crate::ast::BinaryOp::Add,
            Box::new(Expr::Literal(Value::Int(1))),
        );
        let positive = Expr::Binary(
            Box::new(plus_one.clone()),
            crate::ast::BinaryOp::Gt,
            Box::new(Expr::Literal(Value::Int(0))),
        );
        let conjunct = compile(&positive, &names);
        assert!(eval_compiled(&conjunct, poisoned().row(1)).is_err());
        // filter
        let mut filter = BatchFilter::new(feed(vec![poisoned()]), vec![conjunct]);
        assert_eq!(filter.next_batch(BATCH_SIZE).unwrap().unwrap().sel, [0, 2]);
        // projection
        let items = [
            SelectItem {
                expr: plus_one,
                ..column("a")
            },
            column("b"),
        ];
        let mut out = Vec::new();
        Projection::new(&items, &names, None)
            .unwrap()
            .project_into(poisoned(), &mut out)
            .unwrap();
        let values: Vec<_> = out.into_iter().map(|r| r.values).collect();
        assert_eq!(
            values,
            [[Value::Int(2), "x".into()], [Value::Int(4), "z".into()]]
        );
        // build-side compaction and the statement-target drain
        let mut build = Batch::new(2, 1);
        build.append_live(poisoned());
        build.append_live(batch(2, &[&[Value::Int(5), "w".into()]]));
        assert_eq!((build.len(), build.row_nos.clone()), (3, vec![0, 2, 0]));
        assert_eq!(build.row(1), [Value::Int(3), "z".into()]);
        assert_eq!(build.row(2), [Value::Int(5), "w".into()]);
        let rows: Vec<_> = poisoned().into_rows().collect();
        assert_eq!(
            rows,
            [
                (0, vec![Value::Int(1), "x".into()]),
                (2, vec![Value::Int(3), "z".into()])
            ]
        );
        // the aggregator: `SUM(a + 1)` over the live tuples only
        let sel = match crate::parser::parse("SELECT b, SUM(a + 1) FROM t GROUP BY b").unwrap() {
            crate::ast::Statement::Select(sel) => sel,
            _ => unreachable!(),
        };
        let crate::ast::Projection::Items(items) = &sel.projection else {
            unreachable!()
        };
        let mut agg = BatchAggregator::new(&sel, items, &names);
        agg.consume(&poisoned());
        let groups: Vec<_> = agg
            .finish()
            .unwrap()
            .into_iter()
            .map(|r| r.values)
            .collect();
        assert_eq!(
            groups,
            [["x".into(), Value::Int(2)], ["z".into(), Value::Int(4)]]
        );
    }

    #[test]
    fn projection_moves_a_column_on_its_last_use_only() {
        let names = bindings(&["a", "b"]);
        let p = Projection::new(&[column("a"), column("b"), column("a")], &names, None).unwrap();
        assert_eq!(p.moved, [None, Some(1), Some(0)]);
        // PROMOTE reads annotations only, but is counted as a reader
        let promoting = SelectItem {
            promote: vec![(None, "a".to_string())],
            ..column("b")
        };
        let p = Projection::new(&[column("a"), promoting], &names, None).unwrap();
        assert_eq!(p.moved, [None, Some(1)]);

        let p = Projection::new(&[column("a"), column("a")], &names, None).unwrap();
        let mut b = batch(2, &[&["long text".into(), Value::Int(1)]]);
        let row = p.project_row(&mut b, 0).unwrap();
        assert_eq!(row.values, ["long text".into(), "long text".into()]);
        assert_eq!(b.row(0), [Value::Null, Value::Int(1)], "taken, not cloned");
    }

    #[test]
    fn index_only_tuples_are_null_but_for_the_key() {
        let st = Rc::new(RefCell::new(ExecStats::default()));
        let entries = vec![(3, Value::Int(30)), (8, Value::Int(80))];
        let base = ScanBase::Keys {
            column: 1,
            entries: entries.into_iter(),
        };
        let mut scan = BatchScan::new(base, Vec::new(), Vec::new(), 3, st.clone());
        let b = scan.next_batch(BATCH_SIZE).unwrap().unwrap();
        assert_eq!(b.row_nos, [3, 8]);
        assert_eq!(b.row(0), [Value::Null, Value::Int(30), Value::Null]);
        assert_eq!(b.row(1), [Value::Null, Value::Int(80), Value::Null]);
        assert_eq!(st.borrow().rows_fetched, 2);
        assert!(b.anns.is_none(), "scans create no annotation slots");
        assert!(scan.next_batch(BATCH_SIZE).unwrap().is_none());
    }

    #[test]
    fn a_streamed_scan_drops_the_rows_no_build_side_matches() {
        let st = Rc::new(RefCell::new(ExecStats::default()));
        let keys = [Value::Int(1), Value::Int(2), Value::Null, Value::Float(3.0)];
        let base = ScanBase::Keys {
            column: 0,
            entries: (0..).zip(keys).collect::<Vec<_>>().into_iter(),
        };
        let mut scan = BatchScan::new(base, Vec::new(), Vec::new(), 1, st.clone());
        let build = batch(1, &[&[Value::Int(3)], &[Value::Null], &[Value::Int(2)]]);
        scan.semi_join(&BuildSide::new(build, Some((0, 0))));
        // a cross join's side, or a key on another source's column, drops
        // nothing
        scan.semi_join(&BuildSide::new(batch(1, &[]), None));
        scan.semi_join(&BuildSide::new(batch(1, &[]), Some((1, 0))));
        let b = scan.next_batch(BATCH_SIZE).unwrap().unwrap();
        assert_eq!(b.row_nos, [1, 3], "NULL never matches, 3.0 matches 3");
        let s = st.borrow();
        assert_eq!((s.rows_fetched, s.rows_scan_filtered), (4, 0));
    }
}
