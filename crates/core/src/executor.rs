//! The annotation-aware query executor (§3.4): a planner front half
//! ([`crate::plan`]) and a tree of batch-at-a-time operators
//! ([`crate::batch`]).
//!
//! ## Operator semantics (the paper's §3.4, all preserved)
//!
//! * **scan** attaches each cell's (non-archived) annotations from the
//!   annotation tables named in `ANNOTATION(…)`, plus a synthetic
//!   `outdated` annotation for cells marked in the Figure 10 bitmap
//!   (§5: *"the database should propagate with those items an annotation
//!   specifying that the query answer may not be correct"*);
//! * **selection** (WHERE/HAVING) passes tuples *with all their
//!   annotations*;
//! * **projection** passes only the annotations of the projected columns;
//!   `PROMOTE` copies annotations from non-projected columns onto a
//!   projected one;
//! * **AWHERE / AHAVING** filter tuples by a predicate over their
//!   annotations (a tuple passes when *some* annotation satisfies it);
//! * **FILTER** keeps every tuple but drops non-matching annotations;
//! * **duplicate elimination, GROUP BY, UNION, INTERSECT, EXCEPT** union
//!   the annotations of the tuples they merge (the paper's `+` operator).
//!
//! ## The pipeline
//!
//! A simple SELECT runs as a tree of operators, each pulled a batch of
//! up to [`crate::batch::BATCH_SIZE`] tuples at a time:
//!
//! ```text
//! scan(source 0) ──┐
//! scan(source 1) ──┤ hash/cross join ── residual WHERE ── annotation
//!      …           │  (build side         (cross-source     attach ──
//! scan(source n) ──┘   materialized)       conjuncts)      AWHERE ──
//!                                              ── project / aggregate
//! ```
//!
//! Every statement gets one plan; nothing selects another.  The planner
//! always does the following (the reference interpreter under
//! `tests/support/` does none of it, and is what the results are checked
//! against):
//!
//! * **Predicate pushdown** — the WHERE clause is split into conjuncts
//!   and every conjunct whose columns live in one FROM source is
//!   evaluated *at that source's scan*, before joins and before any
//!   annotation work.  Cross-source conjuncts run after the joins.
//! * **Index-backed scans** — when a pushed conjunct has the shape
//!   `column ⟨=,<,<=,>,>=⟩ constant` and the column carries a secondary
//!   index (`CREATE INDEX … ON t (col)`), the scan probes the B+-tree
//!   for candidate rows instead of walking the heap.  Bounds are widened
//!   to inclusive and the conjunct is re-checked on each candidate (see
//!   [`crate::plan`] for why), so the index can only prune, never lie.
//!   Equality probes are preferred over range probes.
//! * **Cost-based join order** — the source with the largest estimated
//!   cardinality streams, the rest are hash-join build sides
//!   (`choose_join_order`).
//! * **Annotation attachment after the joins** — annotation slots are
//!   created in exactly one operator, `batch::BatchAttach`:
//!   `AnnOut` snapshots are built only for tuples that survive all
//!   filtering, and only for the columns the query can propagate
//!   annotations from (projected columns plus `PROMOTE` sources; every
//!   column when AWHERE/AHAVING needs the whole tuple's annotations).
//!   The paper's "selection passes tuples with all their annotations"
//!   semantics is unaffected: selection predicates never read
//!   annotations, so attaching after WHERE is observationally identical.
//! * **LIMIT pushdown** — when nothing downstream blocks or reorders
//!   rows, `LIMIT k` caps the demand on the scans.
//!
//! Every grouped SELECT — GROUP BY, aggregates anywhere in the items,
//! HAVING, AHAVING — runs `batch::BatchAggregator`, and the rows the
//! curator statements touch (UPDATE, DELETE, VALIDATE, the `ON (SELECT
//! …)` of the annotation commands) come from the same scan stage a
//! SELECT's first source runs (`target_rows`).  Nothing else in the
//! engine evaluates a WHERE or an aggregate over table rows.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;
use std::rc::Rc;

use bdbms_common::{BdbmsError, Result, Value};

use crate::ast::{AnnExpr, BinaryOp, Expr, Projection, Select, SelectItem, SetOp, TableRef};
use crate::catalog::{Catalog, SetRef, Table};
use crate::expr::{referenced_columns, resolve_column, ColBinding};
use crate::plan::{self, ConjunctSite, Probe, ProbeChoice};
use crate::result::{AnnOut, AnnRef, AnnRow, QueryResult};
use crate::xml::XmlNode;

/// Category name of the synthetic annotations that flag outdated cells.
pub const OUTDATED_ANN_TABLE: &str = "outdated";

/// Counters and plan decisions describing how a query was executed
/// (deterministic, unlike wall-clock time — the regression tests pin
/// speedups and plan shapes on these).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tuples that entered the pipeline from scans (heap fetches plus
    /// index-only reconstructions).
    pub rows_fetched: u64,
    /// Tuples rejected by pushed-down predicates at scan time.
    pub rows_scan_filtered: u64,
    /// Scans served by a B+-tree probe.
    pub index_probes: u64,
    /// Scans served by a sequence-index (`CONTAINS SEQ`) probe.
    pub seq_index_probes: u64,
    /// Scans that walked the whole heap.
    pub full_scans: u64,
    /// Index probes that never touched the heap (all needed columns
    /// covered by the index key).
    pub index_only_scans: u64,
    /// Annotation references attached to tuples.
    pub anns_attached: u64,
    /// Names of the indexes chosen by [`crate::plan::choose_probe_with`], in
    /// scan-execution order (across set-operation branches too).
    pub chosen_indexes: Vec<String>,
    /// Join order actually executed, as FROM-clause positions (the first
    /// entry streams; the rest are hash-build sides).  One run of
    /// positions is appended per simple SELECT executed.
    pub join_order: Vec<usize>,
    /// Number of simple SELECTs whose LIMIT was pushed into the
    /// pipeline (scans then stop after the k-th surviving tuple).
    pub limit_pushdowns: u64,
    /// Rows that were fully computed and then discarded by a LIMIT that
    /// could not be pushed past a blocking operator (0 when the limit
    /// terminated the pipeline instead).
    pub rows_limit_discarded: u64,
    /// Batches emitted by scans.  `rows_fetched / scan_batches`
    /// approximates batch fill.
    pub scan_batches: u64,
    /// Wall time spent parsing the statement text, in nanoseconds
    /// (0 when the statement arrived pre-parsed, e.g. a cached prepared
    /// statement).  Integer nanos keep `ExecStats: Eq`.
    pub parse_ns: u64,
    /// Wall time spent in the planning front-half (conjunct
    /// classification, probe choice, join ordering, pipeline assembly),
    /// in nanoseconds.
    pub plan_ns: u64,
    /// Wall time spent executing the assembled pipeline, in
    /// nanoseconds.  Streaming cursors accumulate this as they drain.
    pub exec_ns: u64,
}

/// Evaluate an annotation predicate against one annotation.
pub fn eval_ann(cond: &AnnExpr, ann: &AnnOut) -> bool {
    match cond {
        AnnExpr::Contains(s) => ann.text().contains(s) || ann.raw.contains(s),
        AnnExpr::FromTable(t) => ann.ann_table.eq_ignore_ascii_case(t),
        AnnExpr::PathEq(path, value) => ann.body.path_text(path) == Some(value.as_str()),
        AnnExpr::Before(t) => ann.created < *t,
        AnnExpr::After(t) => ann.created >= *t,
        AnnExpr::And(a, b) => eval_ann(a, ann) && eval_ann(b, ann),
        AnnExpr::Or(a, b) => eval_ann(a, ann) || eval_ann(b, ann),
        AnnExpr::Not(a) => !eval_ann(a, ann),
    }
}

/// One FROM entry resolved against the catalog.  Everything borrowed
/// here lives as long as the *catalog*, never the SELECT AST — which is
/// what lets the assembled pipeline outlive the statement text as a
/// [`SelectCursor`].
pub(crate) struct Source<'a> {
    table: &'a Table,
    /// The annotation sets named in the FROM entry's `ANNOTATION(…)`,
    /// resolved up front.
    sets: Vec<SetRef<'a>>,
    /// First column position of this source in the joined binding list.
    pub(crate) offset: usize,
    pub(crate) arity: usize,
}

/// Attaches one source's annotations (named sets + synthetic `outdated`)
/// to joined tuples, sharing one `Rc` per distinct annotation via a cache,
/// on the columns the plan says are needed.  The set's in-memory index
/// answers which annotations a cell carries; a body is fetched from the
/// set's record table on its first use in the statement only.
pub(crate) struct SourceAttach<'a> {
    table: &'a Table,
    sets: Vec<SetRef<'a>>,
    /// Source-local columns to attach (sorted).
    cols: Vec<usize>,
    /// Column offset of this source in the joined row.
    offset: usize,
    cache: HashMap<(usize, u64), AnnRef>,
}

impl<'a> SourceAttach<'a> {
    /// An attacher for `src`'s columns among `needed_cols` (joined-row
    /// positions).
    fn new(src: &Source<'a>, needed_cols: &BTreeSet<usize>) -> Self {
        SourceAttach {
            table: src.table,
            sets: src.sets.clone(),
            cols: needed_cols
                .range(src.offset..src.offset + src.arity)
                .map(|&c| c - src.offset)
                .collect(),
            offset: src.offset,
            cache: HashMap::new(),
        }
    }

    /// True when this attacher can never attach anything — no columns to
    /// attach to, or no annotation sets in scope *and* no outdated cells
    /// to surface as §5 annotations.  The batch pipeline skips its attach
    /// stage entirely then, instead of allocating empty annotation slots
    /// for every row.
    pub(crate) fn is_noop(&self) -> bool {
        self.cols.is_empty() || (self.sets.is_empty() && self.table.outdated.count_set() == 0)
    }

    /// Attach annotations of `row_no` into the row's slots.  Returns how
    /// many were attached, so operators bump `anns_attached` once per
    /// batch instead of once per row.
    pub(crate) fn attach_into(&mut self, row_no: u64, out: &mut [Vec<AnnRef>]) -> Result<u64> {
        let mut attached = 0u64;
        for (set_idx, set) in self.sets.iter().enumerate() {
            let index = set.index();
            for &col in &self.cols {
                let slot = &mut out[self.offset + col];
                for id in index.for_cell(row_no, col) {
                    let snap = match self.cache.entry((set_idx, id.raw())) {
                        Entry::Occupied(e) => e.get().clone(),
                        Entry::Vacant(e) => {
                            let a = set.get(id)?;
                            let snap = Rc::new(AnnOut {
                                source_table: self.table.name.clone(),
                                ann_table: index.name.clone(),
                                id: id.raw(),
                                raw: a.raw,
                                body: a.body,
                                created: a.created,
                            });
                            e.insert(snap).clone()
                        }
                    };
                    slot.push(snap);
                    attached += 1;
                }
            }
        }
        // outdated flags propagate as annotations (§5)
        for &col in &self.cols {
            if self.table.is_outdated(row_no, col) {
                out[self.offset + col].push(Rc::new(AnnOut {
                    source_table: self.table.name.clone(),
                    ann_table: OUTDATED_ANN_TABLE.to_string(),
                    id: (row_no << 16) | col as u64,
                    raw: "outdated: value pending re-verification".to_string(),
                    body: XmlNode::leaf("Annotation", "outdated: value pending re-verification"),
                    created: 0,
                }));
                attached += 1;
            }
        }
        Ok(attached)
    }
}

/// The pushed conjuncts a scan still evaluates on the rows its probe
/// returns: all of them, minus the one the probe answers exactly
/// ([`Probe::answers`]).
fn rechecked<'e>(pushed: &'e [Expr], probe: &Probe) -> impl Iterator<Item = &'e Expr> + Clone {
    let answered = probe.answers();
    pushed
        .iter()
        .enumerate()
        .filter(move |(k, _)| Some(*k) != answered)
        .map(|(_, c)| c)
}

/// Resolve a chosen probe to the access path [`crate::batch::BatchScan`]
/// pulls from, recording its access-path stats (at assembly time): a
/// full scan is a chunked table handle, every index or sequence-index
/// probe its ascending candidate list, fetched a batch at a time through
/// [`Table::fetch_rows`].
///
/// `keep` lists the source-local columns whose *values* the query reads
/// on this source's rows (`None` = unknown, assume all); every other
/// slot is left NULL.  When a B+-tree probe covers every such column,
/// the scan is served *index-only*: tuples are reconstructed from the
/// tree's keys and the heap is never touched.
pub(crate) fn scan_base_batch<'a>(
    src: &Source<'a>,
    probe: Probe,
    keep: Option<Vec<usize>>,
    st: &RefCell<ExecStats>,
) -> crate::batch::ScanBase<'a> {
    use crate::batch::ScanBase;
    let table = src.table;
    let mut s = st.borrow_mut();
    let rows = match probe {
        Probe::FullScan => {
            s.full_scans += 1;
            return ScanBase::Chunk {
                table,
                next: 0,
                keep,
            };
        }
        Probe::Empty => Vec::new(),
        Probe::Index { column, lo, hi } => {
            let idx = table.index_on(column).expect("plan chose an index");
            s.index_probes += 1;
            s.chosen_indexes.push(idx.name.clone());
            let (lo, hi) = (plan::as_ref_bound(&lo), plan::as_ref_bound(&hi));
            if keep
                .as_ref()
                .is_some_and(|cols| cols.iter().all(|&c| c == column))
            {
                s.index_only_scans += 1;
                return ScanBase::Keys {
                    column,
                    entries: idx.probe_entries(lo, hi).into_iter(),
                };
            }
            idx.probe(lo, hi)
        }
        Probe::SeqIndex {
            column, pattern, ..
        } => {
            let sidx = table.seq_index_on(column).expect("plan chose a seq index");
            s.seq_index_probes += 1;
            s.chosen_indexes.push(sidx.name.clone());
            sidx.probe(&pattern)
        }
    };
    ScanBase::Rows {
        table,
        rows,
        next: 0,
        keep,
    }
}

/// One source's scan stage, as both SELECT assembly and statement
/// targeting ([`target_rows`]) build it: the probe
/// [`plan::choose_probe_with`] picks (or the cached choice it replays),
/// its access path ([`scan_base_batch`]), and the pushed conjuncts it
/// still re-checks ([`rechecked`]), compiled.  It decodes the columns
/// whose values the pipeline reads — `value_cols` (binding positions,
/// `None` = all), the re-checked conjuncts' and the `residual`'s — but
/// of a row first only what its conjuncts read, and the rest once the
/// row has survived them.  The streamed source (the first in execution
/// order, at offset 0) reads the residual's columns first too: its join
/// keys are among them ([`crate::batch::BatchScan::semi_join`]).
/// Returns the scan and the cacheable choice (see
/// [`plan::choose_probe_with`]).
fn scan_stage<'a>(
    src: &Source<'a>,
    bindings: &[ColBinding],
    pushed: &[Expr],
    forced: Option<ProbeChoice>,
    value_cols: &Option<BTreeSet<usize>>,
    residual: &[Expr],
    st: &Rc<RefCell<ExecStats>>,
) -> (crate::batch::BatchScan<'a>, Option<ProbeChoice>) {
    let local = &bindings[src.offset..src.offset + src.arity];
    let (probe, choice) = plan::choose_probe_with(src.table, local, pushed, forced);
    // a conjunct the probe answers exactly is neither re-checked nor a
    // reason to decode its column
    let checked: Vec<&Expr> = rechecked(pushed, &probe).collect();
    let compiled = checked
        .iter()
        .map(|c| crate::expr::compile(c, local))
        .collect();
    let read = checked.iter().copied().chain(residual);
    let keep = PlannedSelect::local_value_cols(value_cols, src, bindings, read);
    let mut base = scan_base_batch(src, probe, keep, st);
    let first_read = if src.offset == 0 { residual } else { &[] };
    let first: Vec<&Expr> = checked.iter().copied().chain(first_read).collect();
    // with nothing to survive, a row is decoded in one step
    let late = if first.is_empty() {
        Vec::new()
    } else {
        PlannedSelect::local_value_cols(&Some(BTreeSet::new()), src, bindings, first.into_iter())
            .map_or_else(Vec::new, |first| base.defer_all_but(first, src.arity))
    };
    let scan = crate::batch::BatchScan::new(base, compiled, late, src.arity, st.clone());
    (scan, choice)
}

/// Find a usable equi-join conjunct between the accumulated sources and
/// the next one: `left_col = right_col` where each side resolves on
/// exactly one of the two inputs.  Returns `(acc position, next-local
/// position)`.
fn find_equi_key(
    conjuncts: &[Expr],
    acc_bindings: &[ColBinding],
    next_bindings: &[ColBinding],
) -> Option<(usize, usize)> {
    for c in conjuncts {
        if let Expr::Binary(a, BinaryOp::Eq, b) = c {
            if let (Expr::Column(qa, ca), Expr::Column(qb, cb)) = (&**a, &**b) {
                for ((q1, c1), (q2, c2)) in [((qa, ca), (qb, cb)), ((qb, cb), (qa, ca))] {
                    let l = resolve_column(acc_bindings, q1.as_deref(), c1);
                    let r = resolve_column(next_bindings, q2.as_deref(), c2);
                    let l_unambiguous = resolve_column(next_bindings, q1.as_deref(), c1).is_err();
                    let r_unambiguous = resolve_column(acc_bindings, q2.as_deref(), c2).is_err();
                    if let (Ok(l), Ok(r)) = (l, r) {
                        if l_unambiguous && r_unambiguous {
                            return Some((l, r));
                        }
                    }
                }
            }
        }
    }
    None
}

/// Does the expression tree contain an aggregate?
pub(crate) fn has_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Aggregate(..) => true,
        Expr::Literal(_) | Expr::Column(..) | Expr::Param(_) => false,
        Expr::Unary(_, a)
        | Expr::IsNull(a, _)
        | Expr::Like(a, _, _)
        | Expr::ContainsSeq(a, _, _) => has_aggregate(a),
        Expr::Binary(a, _, b) => has_aggregate(a) || has_aggregate(b),
        Expr::InList(a, items, _) => has_aggregate(a) || items.iter().any(has_aggregate),
        Expr::Call(_, args) => args.iter().any(has_aggregate),
    }
}

/// Expand a projection into concrete items.
fn expand_projection(projection: &Projection, bindings: &[ColBinding]) -> Result<Vec<SelectItem>> {
    match projection {
        Projection::Items(items) => Ok(items.clone()),
        Projection::Star(alias) => {
            let items: Vec<SelectItem> = bindings
                .iter()
                .filter(|b| match alias {
                    None => true,
                    Some(a) => b.qualifier.as_deref() == Some(a.to_ascii_lowercase().as_str()),
                })
                .map(|b| SelectItem {
                    expr: Expr::Column(b.qualifier.clone(), b.name.clone()),
                    alias: None,
                    promote: Vec::new(),
                })
                .collect();
            if items.is_empty() {
                return Err(BdbmsError::invalid("`*` matched no columns (bad alias?)"));
            }
            Ok(items)
        }
    }
}

fn item_name(item: &SelectItem) -> String {
    if let Some(a) = &item.alias {
        return a.clone();
    }
    match &item.expr {
        Expr::Column(_, n) => n.clone(),
        Expr::Aggregate(f, _) => format!("{f:?}").to_lowercase(),
        _ => "expr".to_string(),
    }
}

/// Annotations that flow into one projected item: the referenced columns'
/// annotations plus any PROMOTE sources (§3.4).
pub(crate) fn item_ann_columns(item: &SelectItem, bindings: &[ColBinding]) -> Result<Vec<usize>> {
    let mut cols = Vec::new();
    referenced_columns(&item.expr, bindings, &mut cols)?;
    for (q, n) in &item.promote {
        cols.push(resolve_column(bindings, q.as_deref(), n)?);
    }
    cols.sort_unstable();
    cols.dedup();
    Ok(cols)
}

/// Merge rows with identical values, unioning annotations (the paper's
/// duplicate-elimination semantics).
fn dedup_union(rows: Vec<AnnRow>) -> Vec<AnnRow> {
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut out: Vec<AnnRow> = Vec::new();
    for row in rows {
        match index.get(&row.values) {
            Some(&i) => out[i].union_anns_from(&row),
            None => {
                index.insert(row.values.clone(), out.len());
                out.push(row);
            }
        }
    }
    out
}

/// Execute a (possibly compound) SELECT, accumulating execution counters
/// into `stats` (across set-operation branches too).
pub fn run_select_traced(
    catalog: &Catalog,
    sel: &Select,
    stats: &mut ExecStats,
) -> Result<QueryResult> {
    let mut result = run_simple_select(catalog, sel, stats)?;
    if let Some((op, right)) = &sel.set_op {
        let right_res = run_select_traced(catalog, right, stats)?;
        if right_res.columns.len() != result.columns.len() {
            return Err(BdbmsError::invalid(format!(
                "set operation arity mismatch: {} vs {}",
                result.columns.len(),
                right_res.columns.len()
            )));
        }
        let left_rows = dedup_union(result.rows);
        let right_rows = dedup_union(right_res.rows);
        let right_index: HashMap<Vec<Value>, usize> = right_rows
            .iter()
            .enumerate()
            .map(|(i, r)| (r.values.clone(), i))
            .collect();
        let rows = match op {
            SetOp::Intersect => {
                // tuples in both; annotations unioned from both sides —
                // exactly the paper's DB1_Gene ∩ DB2_Gene example
                let mut out = Vec::new();
                for mut l in left_rows {
                    if let Some(&ri) = right_index.get(&l.values) {
                        l.union_anns_from(&right_rows[ri]);
                        out.push(l);
                    }
                }
                out
            }
            SetOp::Union => {
                let mut all = left_rows;
                all.extend(right_rows);
                dedup_union(all)
            }
            SetOp::Except => left_rows
                .into_iter()
                .filter(|l| !right_index.contains_key(&l.values))
                .collect(),
        };
        result.rows = rows;
    }
    // ORDER BY applies to the final output
    if !sel.order_by.is_empty() {
        let mut keys = Vec::new();
        for ((_, name), desc) in &sel.order_by {
            let idx = result
                .columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(name))
                .ok_or_else(|| BdbmsError::not_found(format!("ORDER BY column `{name}`")))?;
            keys.push((idx, *desc));
        }
        result.rows.sort_by(|a, b| {
            for (idx, desc) in &keys {
                let ord = a.values[*idx].cmp(&b.values[*idx]);
                let ord = if *desc { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    // LIMIT caps the final output; when the pipeline already terminated
    // early (pushed limit) this is a no-op, otherwise the discarded rows
    // were computed for nothing and are counted as such
    if let Some(k) = sel.limit {
        let k = k as usize;
        if result.rows.len() > k {
            stats.rows_limit_discarded += (result.rows.len() - k) as u64;
            result.rows.truncate(k);
        }
    }
    Ok(result)
}

// ---------------------------------------------------------------------------
// EXPLAIN / EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

/// One rendered plan line: indented text plus the profiler label of the
/// operator it describes (`None` for structural lines like `Pushed:`),
/// so `EXPLAIN ANALYZE` can splice actuals back onto the right nodes.
struct PlanLine {
    text: String,
    label: Option<String>,
}

/// Render a nanosecond wall time at a human scale (`1.2ms`, `450ns`).
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}us", ns as f64 / 1_000.0),
        10_000_000..=9_999_999_999 => format!("{:.1}ms", ns as f64 / 1_000_000.0),
        _ => format!("{:.2}s", ns as f64 / 1_000_000_000.0),
    }
}

/// Render an annotation predicate for plan output.
fn render_ann(a: &AnnExpr) -> String {
    match a {
        AnnExpr::Contains(s) => format!("CONTAINS '{s}'"),
        AnnExpr::FromTable(t) => format!("FROM {t}"),
        AnnExpr::PathEq(p, v) => format!("PATH '{p}' = '{v}'"),
        AnnExpr::Before(t) => format!("BEFORE T{t}"),
        AnnExpr::After(t) => format!("AFTER T{t}"),
        AnnExpr::And(x, y) => format!("({} AND {})", render_ann(x), render_ann(y)),
        AnnExpr::Or(x, y) => format!("({} OR {})", render_ann(x), render_ann(y)),
        AnnExpr::Not(x) => format!("NOT ({})", render_ann(x)),
    }
}

/// Render an optionally qualified column reference (`q.name` or `name`).
fn render_col_ref((qualifier, name): &(Option<String>, String)) -> String {
    match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.clone(),
    }
}

/// Render ORDER BY keys as a comma-separated list (`col [DESC]`).
fn render_order_keys(sel: &Select) -> String {
    let keys = sel.order_by.iter().map(|(col, desc)| {
        let col = render_col_ref(col);
        if *desc {
            format!("{col} DESC")
        } else {
            col
        }
    });
    keys.collect::<Vec<_>>().join(", ")
}

/// Render a conjunct list as ` AND `-joined parenthesized expressions.
fn render_conjuncts<'e>(cs: impl IntoIterator<Item = &'e Expr>) -> String {
    cs.into_iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// Describe execution-order source `i`'s access path — the same
/// [`plan::choose_probe_with`] decision, exactness and column set the
/// batch assembly derives — with its estimated cardinality, plus the pushed
/// conjuncts its scan still re-checks (rendered, empty when none).
fn describe_scan(planned: &PlannedSelect<'_>, i: usize) -> (String, String) {
    let src = &planned.sources[i];
    let local_bindings = &planned.bindings[src.offset..src.offset + src.arity];
    let pushed = &planned.pushed[i];
    let table = src.table;
    let n = table.len();
    let est = plan::estimate_scan_rows(table, local_bindings, pushed);
    let (probe, _) = plan::choose_probe_with(table, local_bindings, pushed, None);
    let checked = rechecked(pushed, &probe);
    let local_value_cols = PlannedSelect::local_value_cols(
        &planned.value_cols,
        src,
        &planned.bindings,
        checked.clone().chain(&planned.residual),
    );
    let rechecks = render_conjuncts(checked);
    let col_name = |c: usize| table.schema.columns()[c].name.clone();
    // bound values render like the Expr literals they came from
    let lit = |v: &Value| match v {
        Value::Text(s) => format!("'{s}'"),
        other => other.to_string(),
    };
    let mut text = match probe {
        Probe::FullScan => format!("Seq Scan {}", table.name),
        Probe::Empty => format!("Empty Scan {} (pushed predicate is NULL)", table.name),
        Probe::Index { column, lo, hi } => {
            let idx = table.index_on(column).expect("plan chose an index");
            let col = col_name(column);
            let cond = match (&lo, &hi) {
                (Bound::Included(a), Bound::Included(b)) if a == b => {
                    format!("{col} = {}", lit(a))
                }
                (lo, hi) => {
                    let mut parts = Vec::new();
                    match lo {
                        Bound::Included(v) => parts.push(format!("{col} >= {}", lit(v))),
                        Bound::Excluded(v) => parts.push(format!("{col} > {}", lit(v))),
                        Bound::Unbounded => {}
                    }
                    match hi {
                        Bound::Included(v) => parts.push(format!("{col} <= {}", lit(v))),
                        Bound::Excluded(v) => parts.push(format!("{col} < {}", lit(v))),
                        Bound::Unbounded => {}
                    }
                    parts.join(" AND ")
                }
            };
            let covered = local_value_cols
                .as_ref()
                .is_some_and(|cols| cols.iter().all(|&c| c == column));
            format!(
                "Index Scan {} using {} ({}){}",
                table.name,
                idx.name,
                cond,
                if covered { " (index-only)" } else { "" }
            )
        }
        Probe::SeqIndex {
            column, pattern, ..
        } => {
            let sidx = table.seq_index_on(column).expect("plan chose a seq index");
            format!(
                "Seq Index Scan {} using {} ({} CONTAINS SEQ '{}') (exact)",
                table.name,
                sidx.name,
                col_name(column),
                pattern
            )
        }
    };
    text.push_str(&format!(" (rows~{est:.1} of {n})"));
    (text, rechecks)
}

/// Render one simple-SELECT branch as a root-down tree and, under
/// `EXPLAIN ANALYZE`, execute it through the instrumented batch pipeline
/// and splice per-operator actuals onto the nodes.
///
/// `apply_order_limit` is false for the left branch of a set operation,
/// whose ORDER BY / LIMIT apply to the *combined* output and are
/// rendered by the caller.
fn explain_branch(
    catalog: &Catalog,
    sel: &Select,
    analyze: bool,
    apply_order_limit: bool,
    indent: usize,
    lines: &mut Vec<PlanLine>,
) -> Result<()> {
    let st = Rc::new(RefCell::new(ExecStats::default()));
    let plan_started = std::time::Instant::now();
    let planned = plan_simple_select(catalog, sel, &st, None)?;
    let plan_ns = plan_started.elapsed().as_nanos() as u64;
    let items = planned.items.clone()?;

    let first = lines.len();
    let mut depth = indent;
    let mut push = |depth: usize, text: String, label: Option<String>| {
        lines.push(PlanLine {
            text: format!("{}{}", "  ".repeat(depth), text),
            label,
        });
    };

    // ---- output-side wrappers, root first ----
    if apply_order_limit {
        if let Some(k) = sel.limit {
            if planned.push_limit.is_none() {
                push(depth, format!("Limit {k}"), None);
                depth += 1;
            }
        }
        if !sel.order_by.is_empty() {
            push(depth, format!("Sort: {}", render_order_keys(sel)), None);
            depth += 1;
        }
    }
    if let Some(f) = &sel.filter {
        push(depth, format!("Annotation Filter: {}", render_ann(f)), None);
        depth += 1;
    }
    if sel.distinct {
        push(depth, "Distinct".to_string(), None);
        depth += 1;
    }
    // HAVING / AHAVING select among the groups `Aggregate` forms below
    if let Some(h) = &sel.having {
        push(depth, format!("Having: {h}"), None);
        depth += 1;
    }
    if let Some(a) = &sel.ahaving {
        push(depth, format!("AHaving: {}", render_ann(a)), None);
        depth += 1;
    }
    if is_aggregated(sel, &items) {
        let group = if sel.group_by.is_empty() {
            String::new()
        } else {
            let keys: Vec<String> = sel.group_by.iter().map(render_col_ref).collect();
            format!(" (group by {})", keys.join(", "))
        };
        let cols = items.iter().map(item_name).collect::<Vec<_>>().join(", ");
        push(depth, format!("Aggregate{group}: {cols}"), None);
    } else {
        let cols = items.iter().map(item_name).collect::<Vec<_>>().join(", ");
        push(depth, format!("Project: {cols}"), None);
    }
    depth += 1;

    // ---- pipeline stages, root first (mirrors assemble_batch_pipeline) ----
    if let Some(k) = planned.push_limit {
        push(
            depth,
            format!("Limit {k} (pushed)"),
            Some(format!("Limit {k}")),
        );
        depth += 1;
    }
    if let Some(cond) = &planned.awhere {
        push(
            depth,
            format!("AWhere: {}", render_ann(cond)),
            Some("AWhere".to_string()),
        );
        depth += 1;
    }
    if planned.attachers().is_some() {
        push(
            depth,
            "Attach Annotations".to_string(),
            Some("Attach Annotations".to_string()),
        );
        depth += 1;
    }
    if !planned.residual.is_empty() {
        push(
            depth,
            format!("Filter: {}", render_conjuncts(&planned.residual)),
            Some("Filter".to_string()),
        );
        depth += 1;
    }

    // ---- join chain: the outermost join is the *last* source in
    //      execution order; recurse probe-side down to the first scan ----
    fn render_sources(
        planned: &PlannedSelect<'_>,
        upto: usize,
        depth: usize,
        prefix: &str,
        push: &mut impl FnMut(usize, String, Option<String>),
    ) {
        let src = &planned.sources[upto];
        let (text, rechecks) = describe_scan(planned, upto);
        let scan_depth = if upto == 0 {
            push(
                depth,
                format!("{prefix}{text}"),
                Some(format!("Scan {}", src.table.name)),
            );
            depth
        } else {
            push(
                depth,
                format!("{prefix}Hash Join {}", src.table.name),
                Some(format!("Hash Join {}", src.table.name)),
            );
            render_sources(planned, upto - 1, depth + 1, "Probe: ", push);
            push(
                depth + 1,
                format!("Build: {text}"),
                Some(format!("Scan {} (build)", src.table.name)),
            );
            depth + 1
        };
        if !rechecks.is_empty() {
            push(scan_depth + 1, format!("Pushed: {rechecks}"), None);
        }
    }
    render_sources(&planned, planned.sources.len() - 1, depth, "", &mut push);

    // ---- ANALYZE: execute through the profiled batch pipeline and
    //      splice actuals onto the nodes rendered above ----
    if analyze {
        let mut prof = crate::batch::PipelineProfile::default();
        let exec_started = std::time::Instant::now();
        let res = run_simple_select_batch(sel, planned, &st, Some(&mut prof))?;
        let exec_ns = exec_started.elapsed().as_nanos() as u64;
        let mut used = vec![false; prof.ops.len()];
        for line in &mut lines[first..] {
            let Some(label) = &line.label else { continue };
            let hit = prof
                .ops
                .iter()
                .enumerate()
                .find(|(i, op)| !used[*i] && op.borrow().label == *label);
            if let Some((i, op)) = hit {
                used[i] = true;
                let p = op.borrow();
                line.text.push_str(&format!(
                    " (actual: rows={} batches={} time={})",
                    p.rows,
                    p.batches,
                    fmt_ns(p.elapsed_ns)
                ));
            }
        }
        let s = st.borrow();
        lines.push(PlanLine {
            text: format!(
                "{}Actual: output rows={}, plan time={}, exec time={}",
                "  ".repeat(indent),
                res.rows.len(),
                fmt_ns(plan_ns),
                fmt_ns(exec_ns)
            ),
            label: None,
        });
        lines.push(PlanLine {
            text: format!(
                "{}Stats: rows_fetched={} scan_filtered={} index_probes={} \
                 seq_index_probes={} full_scans={} index_only_scans={} \
                 anns_attached={} batches={} limit_pushdowns={}",
                "  ".repeat(indent),
                s.rows_fetched,
                s.rows_scan_filtered,
                s.index_probes,
                s.seq_index_probes,
                s.full_scans,
                s.index_only_scans,
                s.anns_attached,
                s.scan_batches,
                s.limit_pushdowns
            ),
            label: None,
        });
    }
    Ok(())
}

/// Recursive half of [`explain_select`]: a SELECT without a set
/// operation is one branch; with one, the set-op node comes first
/// (root-down) over the left branch and the recursively-rendered right
/// side, and the outermost ORDER BY / LIMIT — which
/// [`run_select_traced`] applies to the *combined* output — wrap the
/// set-op node rather than the left branch.
fn explain_select_tree(
    catalog: &Catalog,
    sel: &Select,
    analyze: bool,
    depth: usize,
    lines: &mut Vec<PlanLine>,
) -> Result<()> {
    let Some((op, right)) = &sel.set_op else {
        return explain_branch(catalog, sel, analyze, true, depth, lines);
    };
    let mut depth = depth;
    if let Some(k) = sel.limit {
        lines.push(PlanLine {
            text: format!("{}Limit {k}", "  ".repeat(depth)),
            label: None,
        });
        depth += 1;
    }
    if !sel.order_by.is_empty() {
        lines.push(PlanLine {
            text: format!("{}Sort: {}", "  ".repeat(depth), render_order_keys(sel)),
            label: None,
        });
        depth += 1;
    }
    let name = match op {
        SetOp::Union => "Union",
        SetOp::Intersect => "Intersect",
        SetOp::Except => "Except",
    };
    lines.push(PlanLine {
        text: format!("{}{name}", "  ".repeat(depth)),
        label: None,
    });
    explain_branch(catalog, sel, analyze, false, depth + 1, lines)?;
    explain_select_tree(catalog, right, analyze, depth + 1, lines)
}

/// `EXPLAIN [ANALYZE] SELECT …`: render the plan the executor would
/// choose as a one-column (`plan`) result — access paths with estimated
/// cardinalities, join order as a root-down tree, pushed conjuncts, and
/// LIMIT pushdown.  With `analyze` the statement is executed through the
/// instrumented batch pipeline and every operator node carries actual
/// rows / batches / wall time (docs/OBSERVABILITY.md).
pub fn explain_select(catalog: &Catalog, sel: &Select, analyze: bool) -> Result<QueryResult> {
    let mut lines: Vec<PlanLine> = Vec::new();
    explain_select_tree(catalog, sel, analyze, 0, &mut lines)?;
    Ok(QueryResult {
        columns: vec!["plan".to_string()],
        rows: lines
            .into_iter()
            .map(|l| AnnRow {
                values: vec![Value::Text(l.text)],
                anns: vec![Vec::new()],
            })
            .collect(),
        affected: 0,
        message: None,
        stats: None,
    })
}

/// The column bindings one FROM source contributes (alias-qualified).
fn source_bindings(table: &Table, tref: &TableRef) -> Vec<ColBinding> {
    table_bindings(table, tref.alias.as_deref().unwrap_or(&tref.table))
}

/// A table's columns, each answering to `qualifier`.
pub(crate) fn table_bindings(table: &Table, qualifier: &str) -> Vec<ColBinding> {
    table
        .schema
        .columns()
        .iter()
        .map(|c| ColBinding::new(Some(qualifier), &c.name))
        .collect()
}

/// Greedy cost-based join order over the FROM sources, as FROM
/// positions.  The first source streams through the pipeline (it is
/// never materialized), every later source becomes a hash-join build
/// side — so the source with the *largest* estimated post-pushdown
/// cardinality goes first, and the rest follow smallest-estimate-first,
/// preferring sources connected to the accumulated prefix by an
/// equi-join conjunct (to avoid intermediate cross products).  Ties
/// break toward FROM order, so the plan is deterministic given fixed
/// stats.
fn choose_join_order(
    resolved: &[(&Table, &TableRef)],
    pushed_from: &[Vec<Expr>],
    conjuncts: &[Expr],
) -> Vec<usize> {
    let n = resolved.len();
    let locals: Vec<Vec<ColBinding>> = resolved
        .iter()
        .map(|(t, r)| source_bindings(t, r))
        .collect();
    let est: Vec<f64> = (0..n)
        .map(|i| plan::estimate_scan_rows(resolved[i].0, &locals[i], &pushed_from[i]))
        .collect();
    let mut first = 0;
    for i in 1..n {
        if est[i] > est[first] {
            first = i;
        }
    }
    let mut order = vec![first];
    let mut acc: Vec<ColBinding> = locals[first].clone();
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != first).collect();
    while !remaining.is_empty() {
        let mut best_pos = 0;
        for p in 1..remaining.len() {
            let (a, b) = (remaining[best_pos], remaining[p]);
            let ca = find_equi_key(conjuncts, &acc, &locals[a]).is_some();
            let cb = find_equi_key(conjuncts, &acc, &locals[b]).is_some();
            let better = match (ca, cb) {
                (true, false) => false,
                (false, true) => true,
                // strict `<` keeps the earlier FROM position on ties
                _ => est[b] < est[a],
            };
            if better {
                best_pos = p;
            }
        }
        let next = remaining.remove(best_pos);
        acc.extend(locals[next].iter().cloned());
        order.push(next);
    }
    order
}

/// Global binding positions whose *values* the query's output side reads
/// (projected expressions, grouping keys, HAVING); the WHERE conjuncts
/// are added per source, by [`PlannedSelect::local_value_cols`], once
/// the access path says which of them are still evaluated.  `None` when
/// any reference fails to resolve — the caller then assumes every column
/// is needed and index-only scans are disabled.  Annotation propagation
/// is deliberately excluded: annotations are keyed by row number, never
/// by the cell's value.
fn needed_value_columns(
    sel: &Select,
    bindings: &[ColBinding],
    items: Option<&[SelectItem]>,
) -> Option<BTreeSet<usize>> {
    let mut out = BTreeSet::new();
    let mut cols = Vec::new();
    let mut add = |e: &Expr, out: &mut BTreeSet<usize>| -> bool {
        cols.clear();
        if referenced_columns(e, bindings, &mut cols).is_err() {
            return false;
        }
        out.extend(cols.iter().copied());
        true
    };
    for item in items? {
        if !add(&item.expr, &mut out) {
            return None;
        }
    }
    for (q, n) in &sel.group_by {
        match resolve_column(bindings, q.as_deref(), n) {
            Ok(i) => out.insert(i),
            Err(_) => return None,
        };
    }
    if let Some(h) = &sel.having {
        if !add(h, &mut out) {
            return None;
        }
    }
    Some(out)
}

/// The value-independent plan of one simple SELECT, stamped with the
/// catalog generation it was derived under.  Prepared statements cache
/// this (see [`crate::session`]) and replay it until DDL or `ANALYZE`
/// moves the generation; key bounds and filter constants are *not* part
/// of the plan, so re-binding parameters never forces a replan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectPlan {
    /// Identity of the catalog the plan was derived against.
    pub catalog: u64,
    /// Catalog generation the plan was derived under.
    pub generation: u64,
    /// Execution order of the FROM sources (the first entry streams, the
    /// rest become hash-build sides).
    pub join_order: Vec<usize>,
    /// Pushdown site of each top-level WHERE conjunct, in conjunct order.
    pub sites: Vec<ConjunctSite>,
    /// Access path of each source, in execution order.
    pub probes: Vec<ProbeChoice>,
}

/// Everything the planner decides for one simple SELECT before any
/// operator exists: sources in execution order, conjunct sites, access
/// paths to force, annotation/value column needs, LIMIT pushdown.
/// [`assemble_batch_pipeline`] turns it into the operator tree
/// ([`crate::batch`]); [`explain_branch`] renders it.
pub(crate) struct PlannedSelect<'a> {
    /// FROM sources in execution order.
    sources: Vec<Source<'a>>,
    /// Column bindings in execution order.
    bindings: Rc<Vec<ColBinding>>,
    /// Pushed conjuncts per source, in execution order.
    pushed: Vec<Vec<Expr>>,
    /// Cross-source (or unpushable) conjuncts, evaluated after joins.
    residual: Vec<Expr>,
    /// All top-level WHERE conjuncts (for equi-join key discovery).
    all_conjuncts: Vec<Expr>,
    /// Expanded projection (errors deferred to projection time).
    items: std::result::Result<Vec<SelectItem>, BdbmsError>,
    /// Binding positions whose annotations the query can propagate.
    needed_cols: BTreeSet<usize>,
    /// Binding positions whose values the output side reads (column
    /// pruning and index-only planning; see `local_value_cols`).
    value_cols: Option<BTreeSet<usize>>,
    /// LIMIT to push into the pipeline, when eligible.
    push_limit: Option<usize>,
    /// AWHERE condition, if any.
    awhere: Option<AnnExpr>,
    /// Execution order as FROM positions.
    order: Vec<usize>,
    /// Pushdown site per top-level conjunct, in conjunct order.
    plan_sites: Vec<ConjunctSite>,
    /// Probe forced by a replayed plan, per source in execution order.
    forced: Vec<Option<ProbeChoice>>,
    catalog_id: u64,
    generation: u64,
}

impl<'a> PlannedSelect<'a> {
    /// One annotation attacher per source, in execution order — `None`
    /// when nothing can attach (no column to attach to, or no annotation
    /// set in scope and no outdated cell): the pipeline then has no
    /// attach stage and no batch ever carries annotation slots, which
    /// every reader treats like all-empty ones.
    fn attachers(&self) -> Option<Vec<SourceAttach<'a>>> {
        let attachers: Vec<SourceAttach<'a>> = self
            .sources
            .iter()
            .map(|src| SourceAttach::new(src, &self.needed_cols))
            .collect();
        attachers.iter().any(|a| !a.is_noop()).then_some(attachers)
    }

    /// Source-local columns of `src` whose values the query reads,
    /// ascending: the output side (`value_cols`) plus every conjunct in
    /// `checked` — the conjuncts evaluated on this source's rows, i.e.
    /// its scan's re-check list and the residual.  `None` when unknown
    /// (a reference that fails to resolve).
    fn local_value_cols<'e>(
        value_cols: &Option<BTreeSet<usize>>,
        src: &Source,
        bindings: &[ColBinding],
        checked: impl Iterator<Item = &'e Expr>,
    ) -> Option<Vec<usize>> {
        let mut cols: Vec<usize> = value_cols.as_ref()?.iter().copied().collect();
        for c in checked {
            referenced_columns(c, bindings, &mut cols).ok()?;
        }
        let mut local: Vec<usize> = cols
            .into_iter()
            .filter(|&c| c >= src.offset && c < src.offset + src.arity)
            .map(|c| c - src.offset)
            .collect();
        local.sort_unstable();
        local.dedup();
        Some(local)
    }
}

/// Plan one simple SELECT.  `hints` replays a cached [`SelectPlan`] when
/// it is still valid (same catalog generation, same statement shape);
/// otherwise every decision is made live and recorded in the assembled
/// pipeline's plan.
fn plan_simple_select<'a>(
    catalog: &'a Catalog,
    sel: &Select,
    st: &RefCell<ExecStats>,
    hints: Option<&SelectPlan>,
) -> Result<PlannedSelect<'a>> {
    if sel.from.is_empty() {
        return Err(BdbmsError::invalid("SELECT requires FROM"));
    }

    // ---- source resolution (FROM order) ----
    let mut resolved: Vec<(&Table, &TableRef)> = Vec::new();
    for tref in &sel.from {
        let table = catalog.table(&tref.table)?;
        // validate requested annotation tables up front
        for ann in &tref.annotations {
            catalog.annotation_set(&table.name, ann)?;
        }
        resolved.push((table, tref));
    }
    let all_conjuncts: Vec<Expr> = sel
        .where_clause
        .as_ref()
        .map(plan::split_conjuncts)
        .unwrap_or_default();

    // a cached plan replays only while it was derived against *this*
    // catalog at its current generation and the statement shape still
    // matches (paranoid shape checks keep a mismatched cache from ever
    // mis-executing — it just replans)
    let hints = hints.filter(|h| {
        h.catalog == catalog.instance_id()
            && h.generation == catalog.generation()
            && h.join_order.len() == resolved.len()
            && h.probes.len() == resolved.len()
            && h.sites.len() == all_conjuncts.len()
    });

    // a replayed plan skips classification and join ordering, and an
    // explicit projection list never consults the FROM-order bindings —
    // don't build them on the (hot) fully-hinted path
    let from_bindings: Vec<ColBinding> =
        if hints.is_some() && matches!(&sel.projection, Projection::Items(_)) {
            Vec::new()
        } else {
            resolved
                .iter()
                .flat_map(|(t, r)| source_bindings(t, r))
                .collect()
        };

    // the projection expands against FROM-ordered bindings so `SELECT *`
    // column order does not depend on the join order chosen below;
    // expansion errors surface at projection time, after the pipeline
    // has been drained
    let items_early = expand_projection(&sel.projection, &from_bindings);

    // ---- conjunct classification (pushdown), FROM layout ----
    // classification is permutation-invariant (it resolves by
    // qualifier/name over the same multiset of bindings), so one pass
    // against the FROM layout serves both join-order estimation and the
    // reordered execution below
    let mut offset = 0usize;
    let from_segments: Vec<(usize, usize)> = resolved
        .iter()
        .map(|(t, _)| {
            let seg = (offset, t.schema.arity());
            offset += t.schema.arity();
            seg
        })
        .collect();
    let mut plan_sites: Vec<ConjunctSite> = Vec::new();
    let mut pushed_from: Vec<Vec<Expr>> = vec![Vec::new(); resolved.len()];
    let mut residual: Vec<Expr> = Vec::new();
    for (ci, c) in all_conjuncts.iter().enumerate() {
        let site = match hints {
            Some(h) => h.sites[ci],
            None => plan::classify_conjunct(c, &from_bindings, &from_segments),
        };
        plan_sites.push(site);
        match site {
            ConjunctSite::Source(i) => pushed_from[i].push(c.clone()),
            ConjunctSite::Residual => residual.push(c.clone()),
        }
    }

    // ---- join order (greedy, by estimated post-pushdown cardinality) ----
    let order: Vec<usize> = match hints {
        Some(h) => h.join_order.clone(),
        None if resolved.len() > 1 => choose_join_order(&resolved, &pushed_from, &all_conjuncts),
        None => vec![0],
    };

    // ---- sources, bindings, pushed conjuncts in execution order ----
    let mut sources: Vec<Source> = Vec::new();
    let mut all_bindings: Vec<ColBinding> = Vec::new();
    for &i in &order {
        let (table, tref) = resolved[i];
        let offset = all_bindings.len();
        all_bindings.extend(source_bindings(table, tref));
        sources.push(Source {
            table,
            sets: tref
                .annotations
                .iter()
                .map(|n| catalog.annotation_set(&table.name, n))
                .collect::<Result<_>>()?,
            offset,
            arity: table.schema.arity(),
        });
    }
    let pushed: Vec<Vec<Expr>> = order
        .iter()
        .map(|&i| std::mem::take(&mut pushed_from[i]))
        .collect();
    let total_arity = all_bindings.len();
    st.borrow_mut().join_order.extend(order.iter().copied());

    // ---- columns whose annotations the query can propagate ----
    let need_all = sel.awhere.is_some() || sel.ahaving.is_some();
    let needed_cols: BTreeSet<usize> = if need_all {
        (0..total_arity).collect()
    } else {
        let mut needed = BTreeSet::new();
        if let Ok(items) = &items_early {
            for item in items {
                // unresolvable items error later, at projection time
                if let Ok(cols) = item_ann_columns(item, &all_bindings) {
                    needed.extend(cols);
                }
            }
        }
        needed
    };

    // ---- columns whose values the query reads (index-only planning) ----
    let value_cols = needed_value_columns(sel, &all_bindings, items_early.as_deref().ok());

    // ---- LIMIT pushdown eligibility: nothing between the pipeline and
    //      the final output may block or reorder rows ----
    let push_limit: Option<usize> = match sel.limit {
        Some(k)
            if sel.set_op.is_none()
                && sel.order_by.is_empty()
                && !sel.distinct
                && sel.group_by.is_empty()
                && sel.having.is_none()
                && sel.ahaving.is_none()
                && matches!(&items_early,
                    Ok(items) if !items.iter().any(|i| has_aggregate(&i.expr))) =>
        {
            Some(k as usize)
        }
        _ => None,
    };
    let forced: Vec<Option<ProbeChoice>> = (0..sources.len())
        .map(|i| hints.map(|h| h.probes[i]))
        .collect();
    Ok(PlannedSelect {
        sources,
        bindings: Rc::new(all_bindings),
        pushed,
        residual,
        all_conjuncts,
        items: items_early,
        needed_cols,
        value_cols,
        push_limit,
        awhere: sel.awhere.clone(),
        order,
        plan_sites,
        forced,
        catalog_id: catalog.instance_id(),
        generation: catalog.generation(),
    })
}

/// A fully assembled (but not yet pulled) pipeline: the operator tree
/// plus everything the projection stage needs.  It borrows only from the
/// *catalog*, never from the SELECT AST, so it can outlive the statement
/// text inside a [`SelectCursor`].
pub(crate) struct BuiltBatchPipeline<'a> {
    /// Root operator: joined, filtered, annotated, limit-capped batches.
    pub(crate) op: Box<dyn crate::batch::BatchOp<'a> + 'a>,
    /// Column bindings in execution order.
    pub(crate) bindings: Rc<Vec<ColBinding>>,
    /// Expanded projection items (errors deferred to projection time).
    pub(crate) items: std::result::Result<Vec<SelectItem>, BdbmsError>,
    /// The plan this pipeline was assembled with — `None` when a
    /// decision depended on the bound values and must not be cached.
    pub(crate) plan: Option<SelectPlan>,
}

/// Interpose a profiler stage when `EXPLAIN ANALYZE` asked for one;
/// normal execution (`prof = None`) passes operators through untouched.
fn maybe_profile<'a>(
    prof: &mut Option<&mut crate::batch::PipelineProfile>,
    op: Box<dyn crate::batch::BatchOp<'a> + 'a>,
    label: impl Into<String>,
) -> Box<dyn crate::batch::BatchOp<'a> + 'a> {
    match prof {
        Some(p) => p.wrap(op, label),
        None => op,
    }
}

/// Assemble the operator tree from a planned SELECT, leaf to root: one
/// scan per source (pushed conjuncts re-checked), hash or cross joins
/// against build sides drained here, the residual WHERE, annotation
/// attachment, AWHERE, and the pushed LIMIT.  Probe stats, build-side
/// materialization (and its errors) and `limit_pushdowns` happen at
/// assembly time; nothing is pulled from the first source until the
/// caller asks for a batch.
fn assemble_batch_pipeline<'a>(
    p: PlannedSelect<'a>,
    st: Rc<RefCell<ExecStats>>,
    mut prof: Option<&mut crate::batch::PipelineProfile>,
) -> Result<BuiltBatchPipeline<'a>> {
    use crate::batch::{self, BatchOp};
    let attachers = p.attachers();
    let PlannedSelect {
        sources,
        bindings,
        pushed,
        residual,
        all_conjuncts,
        items,
        needed_cols: _,
        value_cols,
        push_limit,
        awhere,
        order,
        plan_sites,
        forced,
        catalog_id,
        generation,
    } = p;

    // ---- per-source scans; the first streams, the rest are drained
    //      here as hash-join build sides ----
    let mut plan_probes: Vec<ProbeChoice> = Vec::with_capacity(sources.len());
    let mut plan_cacheable = true;
    let mut streamed = None;
    let mut sides = Vec::with_capacity(sources.len() - 1);
    for (i, src) in sources.iter().enumerate() {
        let (scan, choice) = scan_stage(
            src,
            &bindings,
            &pushed[i],
            forced[i],
            &value_cols,
            &residual,
            &st,
        );
        match choice {
            Some(c) => plan_probes.push(c),
            None => {
                plan_cacheable = false;
                plan_probes.push(ProbeChoice::FullScan);
            }
        }
        if i == 0 {
            streamed = Some(scan);
            continue;
        }
        let build = match prof.as_deref_mut() {
            Some(pr) => batch::drain_build(
                pr.wrap(Box::new(scan), format!("Scan {} (build)", src.table.name)),
                src.arity,
            )?,
            None => batch::drain_build(scan, src.arity)?,
        };
        let acc_bindings = &bindings[..src.offset];
        let next_bindings = &bindings[src.offset..src.offset + src.arity];
        let key = find_equi_key(&all_conjuncts, acc_bindings, next_bindings);
        sides.push(batch::BuildSide::new(build, key));
    }
    // the streamed scan, last: it drops the rows the drained build sides
    // do not match on its own columns before decoding the rest of them
    let mut scan = streamed.expect("at least one source");
    sides.iter().for_each(|side| scan.semi_join(side));
    let label = format!("Scan {}", sources[0].table.name);
    let mut op = maybe_profile(&mut prof, Box::new(scan), label);
    for (src, side) in sources[1..].iter().zip(sides) {
        let join: Box<dyn BatchOp<'a> + 'a> = Box::new(batch::BatchJoin::new(op, side));
        op = maybe_profile(&mut prof, join, format!("Hash Join {}", src.table.name));
    }

    // ---- residual WHERE (cross-source conjuncts) ----
    if !residual.is_empty() {
        let compiled: Vec<crate::expr::CExpr> = residual
            .iter()
            .map(|c| crate::expr::compile(c, &bindings))
            .collect();
        op = maybe_profile(
            &mut prof,
            Box::new(batch::BatchFilter::new(op, compiled)),
            "Filter",
        );
    }

    // ---- annotation attachment: survivors only, and the one place
    //      annotation slots are created.  Skipped outright when nothing
    //      can attach, so un-annotated queries never allocate per-row
    //      annotation buffers ----
    if let Some(attachers) = attachers {
        op = maybe_profile(
            &mut prof,
            Box::new(batch::BatchAttach::new(op, attachers, st.clone())),
            "Attach Annotations",
        );
    }

    // ---- AWHERE: annotation-based selection (some annotation satisfies) ----
    if let Some(cond) = awhere {
        op = maybe_profile(
            &mut prof,
            Box::new(batch::BatchAWhere::new(op, cond)),
            "AWhere",
        );
    }

    // ---- pushed LIMIT: demand-driven, so scans stop (and fetch counts
    //      stay exact on filterless scans) after the k-th tuple ----
    if let Some(k) = push_limit {
        st.borrow_mut().limit_pushdowns += 1;
        op = maybe_profile(
            &mut prof,
            Box::new(batch::BatchLimit::new(op, k)),
            format!("Limit {k}"),
        );
    }

    Ok(BuiltBatchPipeline {
        op,
        bindings,
        items,
        plan: plan_cacheable.then_some(SelectPlan {
            catalog: catalog_id,
            generation,
            join_order: order,
            sites: plan_sites,
            probes: plan_probes,
        }),
    })
}

fn run_simple_select(
    catalog: &Catalog,
    sel: &Select,
    stats_out: &mut ExecStats,
) -> Result<QueryResult> {
    let st = Rc::new(RefCell::new(std::mem::take(stats_out)));
    let res = run_simple_select_shared(catalog, sel, &st);
    *stats_out = st.borrow().clone();
    res
}

/// Does this SELECT's output stage aggregate?
fn is_aggregated(sel: &Select, items: &[SelectItem]) -> bool {
    !sel.group_by.is_empty()
        || items.iter().any(|i| has_aggregate(&i.expr))
        || sel.having.as_ref().is_some_and(has_aggregate)
}

/// The shared result tail: DISTINCT dedup-union and FILTER (§3.4), then
/// the materialized [`QueryResult`].
fn finish_select(sel: &Select, columns: Vec<String>, mut out_rows: Vec<AnnRow>) -> QueryResult {
    // DISTINCT: merge duplicates, unioning annotations (§3.4)
    if sel.distinct {
        out_rows = dedup_union(out_rows);
    }
    // FILTER: keep tuples, drop non-matching annotations (§3.4)
    if let Some(cond) = &sel.filter {
        for row in &mut out_rows {
            for col in &mut row.anns {
                col.retain(|a| eval_ann(cond, a));
            }
        }
    }
    QueryResult {
        columns,
        rows: out_rows,
        affected: 0,
        message: None,
        stats: None,
    }
}

/// [`run_simple_select`] over shared stats, with planning and execution
/// wall time attributed separately.  Plan hints apply only to the
/// streaming-cursor path ([`open_select_cursor`]); materialized
/// execution always plans live.
fn run_simple_select_shared(
    catalog: &Catalog,
    sel: &Select,
    st: &Rc<RefCell<ExecStats>>,
) -> Result<QueryResult> {
    let plan_started = std::time::Instant::now();
    let planned = plan_simple_select(catalog, sel, st, None)?;
    st.borrow_mut().plan_ns += plan_started.elapsed().as_nanos() as u64;
    let exec_started = std::time::Instant::now();
    let res = run_simple_select_batch(sel, planned, st, None);
    st.borrow_mut().exec_ns += exec_started.elapsed().as_nanos() as u64;
    res
}

/// The materializing executor: batches are drained through the operator
/// tree and projected or aggregated in tight loops.  The pipeline is
/// always drained before projection-stage errors surface, and aggregate
/// evaluation errors are deferred to finalization (group by group, HAVING
/// before the items, the items in order).
fn run_simple_select_batch(
    sel: &Select,
    planned: PlannedSelect<'_>,
    st: &Rc<RefCell<ExecStats>>,
    prof: Option<&mut crate::batch::PipelineProfile>,
) -> Result<QueryResult> {
    use crate::batch::{self, BATCH_SIZE};
    let BuiltBatchPipeline {
        mut op,
        bindings,
        items,
        plan: _,
    } = assemble_batch_pipeline(planned, st.clone(), prof)?;
    // pipeline errors surface before projection errors: every consumer
    // below drains the operator tree before touching items
    let items = match items {
        Ok(items) => items,
        Err(e) => {
            while op.next_batch(BATCH_SIZE)?.is_some() {}
            return Err(e);
        }
    };
    let out_columns: Vec<String> = items.iter().map(item_name).collect();
    let out_rows = if is_aggregated(sel, &items) {
        let mut agg = batch::BatchAggregator::new(sel, &items, &bindings);
        while let Some(b) = op.next_batch(BATCH_SIZE)? {
            agg.consume(&b);
        }
        agg.finish()?
    } else {
        if sel.having.is_some() || sel.ahaving.is_some() {
            while op.next_batch(BATCH_SIZE)?.is_some() {}
            return Err(BdbmsError::invalid(
                "HAVING/AHAVING require GROUP BY or aggregates",
            ));
        }
        // materialize the batches first (pipeline errors before
        // projection errors), then project in compiled tight loops
        let mut batches = Vec::new();
        while let Some(b) = op.next_batch(BATCH_SIZE)? {
            batches.push(b);
        }
        let projection = batch::Projection::new(&items, &bindings, None)?;
        let mut out = Vec::with_capacity(batches.iter().map(|b| b.live()).sum());
        for b in batches {
            projection.project_into(b, &mut out)?;
        }
        out
    };
    Ok(finish_select(sel, out_columns, out_rows))
}

/// A pull-based cursor over one SELECT's output: rows are produced on
/// demand, directly off the executor pipeline, without materializing the
/// full result (the [`crate::session`] API surfaces this as `RowCursor`).
pub struct SelectCursor<'a> {
    /// Output column names.
    pub columns: Vec<String>,
    /// The projected row stream.
    pub stream: Box<dyn Iterator<Item = Result<AnnRow>> + 'a>,
}

/// O(1) half of the can-this-SELECT-stream check: clauses that force
/// the blocking path regardless of what the projection resolves to.
/// (Set operations, grouping, HAVING/AHAVING, DISTINCT, and ORDER BY
/// all need the full input before the first output row; FILTER and
/// LIMIT are per-row.)
fn has_blocking_clause(sel: &Select) -> bool {
    sel.set_op.is_some()
        || !sel.group_by.is_empty()
        || sel.having.is_some()
        || sel.ahaving.is_some()
        || sel.distinct
        || !sel.order_by.is_empty()
}

/// Resolution half of the can-this-SELECT-stream check: the projection
/// expands against the FROM tables and carries no aggregates.
/// Resolution failures answer `false` so the error surfaces through the
/// materializing path with its usual ordering.
fn projection_streamable(catalog: &Catalog, sel: &Select) -> bool {
    let mut bindings = Vec::new();
    for tref in &sel.from {
        match catalog.table(&tref.table) {
            Ok(t) => bindings.extend(source_bindings(t, tref)),
            Err(_) => return false,
        }
    }
    match expand_projection(&sel.projection, &bindings) {
        Ok(items) => items
            .iter()
            .all(|i| !has_aggregate(&i.expr) && item_ann_columns(i, &bindings).is_ok()),
        Err(_) => false,
    }
}

/// Open a streaming cursor over a (possibly compound) SELECT.
///
/// Streamable simple SELECTs pull rows lazily off the pipeline — the
/// scan advances only as the cursor is consumed, which is what the
/// `ExecStats` row counters pin in the regression tests.  Blocking
/// queries (set ops, grouping, DISTINCT, ORDER BY, aggregates) run to
/// completion first and the cursor walks the materialized result.
///
/// Returns the cursor plus the [`SelectPlan`] used (for prepared-
/// statement caching; `None` when the query took the blocking path).
pub fn open_select_cursor<'a>(
    catalog: &'a Catalog,
    sel: &Select,
    st: Rc<RefCell<ExecStats>>,
    hints: Option<&SelectPlan>,
) -> Result<(SelectCursor<'a>, Option<SelectPlan>)> {
    // a cached plan is only ever produced by the streamable path, so a
    // generation-valid one stands in for the (allocating) projection-
    // resolution half of the check; the O(1) blocking-clause check still
    // runs, so a hint mismatched to its statement can never force a
    // grouping/ordering query onto the streaming path
    let can_stream = !has_blocking_clause(sel)
        && (hints.is_some_and(|h| {
            h.catalog == catalog.instance_id() && h.generation == catalog.generation()
        }) || projection_streamable(catalog, sel));
    if can_stream {
        let plan_started = std::time::Instant::now();
        let planned = plan_simple_select(catalog, sel, &st, hints)?;
        st.borrow_mut().plan_ns += plan_started.elapsed().as_nanos() as u64;
        // the cursor pulls one batch at a time and hands out its rows,
        // so the scan advances in BATCH_SIZE steps as the consumer pulls
        // (the session tests pin that nothing is fetched before the
        // first pull)
        let built = assemble_batch_pipeline(planned, st.clone(), None)?;
        let items = built.items?;
        let columns: Vec<String> = items.iter().map(item_name).collect();
        let projection =
            crate::batch::Projection::new(&items, &built.bindings, sel.filter.clone())?;
        // a streamable SELECT has no blocking clause, so its LIMIT is
        // always the pipeline's root operator
        let stream = Box::new(crate::batch::BatchCursorStream::new(built.op, projection));
        return Ok((SelectCursor { columns, stream }, built.plan));
    }
    // blocking query: run to completion, then stream the buffered rows
    let mut tmp = st.borrow().clone();
    let res = run_select_traced(catalog, sel, &mut tmp);
    *st.borrow_mut() = tmp;
    let qr = res?;
    Ok((
        SelectCursor {
            columns: qr.columns,
            stream: Box::new(qr.rows.into_iter().map(Ok)),
        },
        None,
    ))
}

/// The rows of `table` a curator statement targets — `UPDATE` and
/// `DELETE`, `VALIDATE`, and the granularity SELECT of `ADD/ARCHIVE/
/// RESTORE ANNOTATION … ON (SELECT …)` — as `(row_no, values)` in
/// row-number order.  They come from the scan stage SELECT assembly
/// builds ([`scan_stage`]), with the WHERE's conjuncts pushed to it, so a
/// statement probes the index a SELECT would and re-checks what it would.
/// `all_columns` decodes every column (UPDATE computes new rows from
/// them); otherwise only the columns the re-checked conjuncts read are
/// decoded and every other value is NULL.  The scan is drained before
/// this returns, so a failing predicate fails the statement before it
/// touches a row.
pub(crate) fn target_rows(
    table: &Table,
    qualifier: &str,
    where_clause: Option<&Expr>,
    all_columns: bool,
) -> Result<Vec<(u64, Vec<Value>)>> {
    use crate::batch::{BatchOp, BATCH_SIZE};
    let bindings = table_bindings(table, qualifier);
    // a conjunct that does not resolve keeps the whole predicate one
    // conjunct, so no probe can prune the rows its error surfaces on
    let conjuncts = match where_clause {
        None => Vec::new(),
        Some(pred) => {
            let split = plan::split_conjuncts(pred);
            let mut cols = Vec::new();
            if split
                .iter()
                .any(|c| referenced_columns(c, &bindings, &mut cols).is_err())
            {
                vec![pred.clone()]
            } else {
                split
            }
        }
    };
    let src = Source {
        table,
        sets: Vec::new(),
        offset: 0,
        arity: bindings.len(),
    };
    let value_cols = (!all_columns).then(BTreeSet::new);
    let st = Rc::new(RefCell::new(ExecStats::default()));
    let (mut scan, _) = scan_stage(&src, &bindings, &conjuncts, None, &value_cols, &[], &st);
    let mut rows = Vec::new();
    while let Some(batch) = scan.next_batch(BATCH_SIZE)? {
        rows.extend(batch.into_rows());
    }
    Ok(rows)
}

/// Resolve an annotation-command target (`ADD/ARCHIVE/RESTORE … ON
/// (SELECT …)`) to concrete cells of one table.
///
/// The paper's granularity-selection queries are simple single-table
/// SELECTs (its §3.2 examples), and that is what bdbms supports here:
/// one table, plain column projection (or `*`), optional WHERE.  Rows
/// come from `target_rows`, so `ADD ANNOTATION … WHERE key = …` probes
/// the index instead of scanning the heap.
pub fn select_cells(catalog: &Catalog, sel: &Select) -> Result<(String, Vec<u64>, Vec<usize>)> {
    if sel.from.len() != 1
        || sel.set_op.is_some()
        || !sel.group_by.is_empty()
        || sel.having.is_some()
        || sel.distinct
        || sel.awhere.is_some()
        || sel.ahaving.is_some()
        || sel.filter.is_some()
    {
        return Err(BdbmsError::invalid(
            "annotation target must be a simple single-table SELECT \
             (no set ops, grouping, DISTINCT, or annotation clauses)",
        ));
    }
    let tref = &sel.from[0];
    let table: &Table = catalog.table(&tref.table)?;
    let qualifier = tref.alias.as_deref().unwrap_or(&tref.table);
    let bindings = table_bindings(table, qualifier);
    // target columns
    let items = expand_projection(&sel.projection, &bindings)?;
    let mut cols = Vec::with_capacity(items.len());
    for item in &items {
        match &item.expr {
            Expr::Column(q, n) => cols.push(resolve_column(&bindings, q.as_deref(), n)?),
            _ => {
                return Err(BdbmsError::invalid(
                    "annotation target must project plain columns",
                ))
            }
        }
    }
    cols.sort_unstable();
    cols.dedup();
    let rows = target_rows(table, qualifier, sel.where_clause.as_ref(), false)?;
    let row_nos = rows.into_iter().map(|(row_no, _)| row_no).collect();
    Ok((table.name.clone(), row_nos, cols))
}
