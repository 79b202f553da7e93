//! Scan planning: conjunct splitting, predicate-pushdown classification,
//! and index access-path selection.  This module decides; it reads no
//! row — the executor's scan stage ([`crate::executor`]) fetches and
//! filters them, for SELECT and for the rows UPDATE, DELETE, VALIDATE
//! and the annotation commands target alike.
//!
//! The executor plans each FROM source before any tuple is materialized:
//!
//! 1. the WHERE clause is split into top-level conjuncts
//!    ([`split_conjuncts`]);
//! 2. each conjunct whose columns all resolve inside one source is
//!    *pushed down* to that source's scan ([`classify_conjunct`]), so
//!    non-qualifying tuples are dropped before joins and before any
//!    annotation is attached;
//! 3. a pushed conjunct of the shape `column ⟨cmp⟩ constant` over an
//!    indexed column turns the scan into a B+-tree probe
//!    ([`choose_probe_with`]) instead of a full heap scan.
//!
//! B+-tree probes are deliberately *approximate*: bounds are widened to
//! inclusive and the originating conjunct is still re-evaluated on every
//! candidate row, because [`Value`]'s total order (used as the tree key
//! order) coarsens SQL comparison on numeric edge cases (the float
//! interleave collapses `i64` values beyond 2^53).  Widening keeps the
//! candidate set a superset of the true result; re-evaluation trims the
//! false positives.
//!
//! A sequence-index probe is *exact* for the one conjunct it was built
//! from ([`Probe::answers`]): the candidate rows are precisely the rows
//! on which that conjunct is true, so the batch executor neither
//! re-evaluates it nor decodes its column on its account.
//!
//! ## Cost model
//!
//! When several indexes could serve a scan, [`choose_probe_with`] costs each
//! candidate with the table's [`crate::stats::TableStats`] and takes the
//! one expected to return the fewest rows: an equality probe is costed
//! at `rows / distinct(col)`, a range probe at the fraction of the
//! `[min, max]` span it covers (System R's 1/3 / 1/9 defaults when the
//! column is non-numeric).  [`estimate_scan_rows`] applies the same
//! per-conjunct selectivities to a whole pushed-conjunct set, which is
//! what the executor's greedy join ordering ranks sources by.  All
//! estimates are deterministic functions of the insert history, so plan
//! choices are stable and testable.

use std::ops::Bound;

use bdbms_common::{DataType, Value};

use crate::ast::{BinaryOp, Expr};
use crate::catalog::Table;
use crate::expr::{eval, referenced_columns, ColBinding};
use crate::stats::ColumnStats;

/// Split a predicate into its top-level conjuncts, in evaluation order.
pub fn split_conjuncts(e: &Expr) -> Vec<Expr> {
    fn walk(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::Binary(a, BinaryOp::And, b) => {
                walk(a, out);
                walk(b, out);
            }
            other => out.push(other.clone()),
        }
    }
    let mut out = Vec::new();
    walk(e, &mut out);
    out
}

/// Where a conjunct may be evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConjunctSite {
    /// All referenced columns live in one source: evaluate at its scan.
    Source(usize),
    /// Spans sources (or does not resolve cleanly): evaluate after joins.
    Residual,
}

/// Decide, for one conjunct, whether it can run at a single source's
/// scan.  `segments` gives each source's `(offset, arity)` within the
/// joined binding list.  Conjuncts that reference no column at all are
/// assigned to source 0 (they are constant; filtering the first scan
/// preserves the cross-product semantics).  Conjuncts whose columns do
/// not resolve are left residual so the original evaluation-time error
/// behavior is preserved.
pub fn classify_conjunct(
    conjunct: &Expr,
    bindings: &[ColBinding],
    segments: &[(usize, usize)],
) -> ConjunctSite {
    let mut cols = Vec::new();
    if referenced_columns(conjunct, bindings, &mut cols).is_err() {
        return ConjunctSite::Residual;
    }
    if cols.is_empty() {
        return ConjunctSite::Source(0);
    }
    for (i, &(off, arity)) in segments.iter().enumerate() {
        if cols.iter().all(|&c| c >= off && c < off + arity) {
            return ConjunctSite::Source(i);
        }
    }
    ConjunctSite::Residual
}

/// The access path chosen for one source's scan.
#[derive(Debug, Clone)]
pub enum Probe {
    /// Walk every live row.
    FullScan,
    /// The pushed predicate compares against NULL: no row can qualify.
    Empty,
    /// B+-tree probe over `column` (source-local position) with the given
    /// key bounds; candidates still re-checked against the predicate.
    Index {
        /// Source-local column position.
        column: usize,
        /// Lower key bound (inclusive or unbounded — see module docs).
        lo: Bound<Value>,
        /// Upper key bound (inclusive or unbounded).
        hi: Bound<Value>,
    },
    /// Sequence-index probe over `column`: exactly the live rows whose
    /// text contains `pattern` (the SBC-tree / String B-tree verify each
    /// occurrence against the text, and the index drops tombstoned rows).
    SeqIndex {
        /// Source-local column position.
        column: usize,
        /// The literal substring from `CONTAINS SEQ '<pattern>'`.
        pattern: String,
        /// Position, in the pushed conjunct list the probe was chosen
        /// from, of the `column CONTAINS SEQ '<pattern>'` conjunct.
        answers: usize,
    },
}

impl Probe {
    /// The pushed conjunct (by position in the list handed to
    /// [`choose_probe_with`]) that this probe answers **exactly**: its
    /// candidates are all and only the live rows on which the conjunct is
    /// true, so re-evaluating it on them cannot reject any.  Only a probe
    /// whose access method verifies its own answer may claim this — the
    /// sequence indexes do; B+-tree probes (widened bounds) and full
    /// scans never do.
    pub fn answers(&self) -> Option<usize> {
        match self {
            Probe::SeqIndex { answers, .. } => Some(*answers),
            Probe::FullScan | Probe::Empty | Probe::Index { .. } => None,
        }
    }
}

/// Assumed fraction of rows matching a `CONTAINS SEQ` substring
/// predicate: sequence motifs are rare, so a sequence-index probe is
/// costed well below a full scan but above a unique-key equality probe.
const SEQ_MATCH_FRACTION: f64 = 0.05;

/// Is an index over a column of type `col` usable for a probe with a
/// constant of type `key`?  Requires that SQL comparison agree with the
/// B+-tree's total value order (up to the inclusive-bound widening).
fn probe_types_compatible(col: DataType, key: DataType) -> bool {
    use DataType::*;
    let numeric = |t: DataType| matches!(t, Int | Float | Timestamp);
    col == key || (numeric(col) && numeric(key))
}

/// Evaluate an expression that references no columns to a constant.
fn const_fold(e: &Expr) -> Option<Value> {
    eval(e, &[], &[]).ok()
}

/// Accumulated inclusive bounds for one indexed column.
#[derive(Default)]
struct ColBounds {
    lo: Option<Value>,
    hi: Option<Value>,
    has_eq: bool,
}

impl ColBounds {
    /// Tighten with another inclusive bound (keep the larger lower /
    /// smaller upper — SQL comparison and the tree's total order agree
    /// closely enough that picking by total order plus the residual
    /// re-check stays a superset).
    fn tighten_lo(&mut self, key: Value) {
        match &self.lo {
            Some(cur) if *cur >= key => {}
            _ => self.lo = Some(key),
        }
    }
    fn tighten_hi(&mut self, key: Value) {
        match &self.hi {
            Some(cur) if *cur <= key => {}
            _ => self.hi = Some(key),
        }
    }
}

/// The value-independent part of a probe decision: which access path a
/// source scan takes, with key bounds left to be recomputed from the
/// (possibly parameter-bound) conjuncts at execution time.  This is what
/// prepared statements cache and replay until the catalog generation
/// moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeChoice {
    /// Walk the heap.
    FullScan,
    /// Probe the index over this source-local column.
    Column(usize),
    /// Probe the sequence index over this source-local column; the
    /// pattern is re-read from the conjuncts at execution time.
    SeqIndex(usize),
}

/// Pick an index access path for one source given its pushed conjuncts
/// — or replay a cached [`ProbeChoice`] instead of re-costing the
/// candidates — returning the concrete probe and the choice taken.
///
/// All usable `column ⟨cmp⟩ constant` conjuncts over indexed columns are
/// collected and their bounds intersected per column (so `k >= a AND
/// k < b` probes the `[a, b]` range, not `[a, ∞)`); a column with an
/// equality wins over range-only columns.  `local_bindings` are the
/// source's own bindings, so resolved positions are source-local.
///
/// The returned choice is `None` when any decision along the way depended
/// on a constant's *value* (a NULL or type-incompatible key, a constant
/// that failed to fold) — such a choice must not be cached, or a freak
/// first binding would pin a bad access path for every later execution.
///
/// A forced choice pins only the access *path*; key bounds are always
/// recomputed from the conjuncts at hand, so re-binding a prepared
/// statement with new parameter values probes the right keys.  A forced
/// choice that no longer fits the table (index dropped, conjunct shape
/// drifted) falls back to a live cost-based pick.
pub fn choose_probe_with(
    table: &Table,
    local_bindings: &[ColBinding],
    pushed: &[Expr],
    forced: Option<ProbeChoice>,
) -> (Probe, Option<ProbeChoice>) {
    // per-column accumulated bounds, in first-seen order
    let mut cols: Vec<(usize, ColBounds)> = Vec::new();
    let mut empty = false;
    let mut value_dependent = false;
    for conjunct in pushed {
        let Expr::Binary(l, op, r) = conjunct else {
            continue;
        };
        // only comparison conjuncts constrain an index — in particular
        // the NULL shortcut below is valid for `col ⟨cmp⟩ NULL` but NOT
        // for e.g. `col OR NULL`, which can still be true
        if !matches!(
            op,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        ) {
            continue;
        }
        // column on one side, constant expression on the other
        let sides = [(l, *op, r), (r, mirror(*op), l)];
        for (col_side, op, const_side) in sides {
            let Expr::Column(q, n) = &**col_side else {
                continue;
            };
            let Ok(col) = crate::expr::resolve_column(local_bindings, q.as_deref(), n) else {
                continue;
            };
            let mut const_cols = Vec::new();
            if referenced_columns(const_side, local_bindings, &mut const_cols).is_err()
                || !const_cols.is_empty()
            {
                continue;
            }
            let Some(key) = const_fold(const_side) else {
                // a column-free side that fails to fold (e.g. `? / 0`)
                // is a value-level accident, not statement shape
                value_dependent = true;
                continue;
            };
            if table.index_on(col).is_none() {
                continue;
            }
            if key.is_null() {
                // `col ⟨cmp⟩ NULL` is never true, and the conjunct must
                // hold for a row to survive: the scan is provably empty.
                // (A value-dependent fact — never part of the cached
                // choice, which is why it is not an early return.)
                empty = true;
                value_dependent = true;
                continue;
            }
            let key_ty = key.data_type().expect("non-null");
            if !probe_types_compatible(table.schema.columns()[col].ty, key_ty) {
                // whether the key's type fits the index is a property of
                // the bound value, not of the statement
                value_dependent = true;
                continue;
            }
            let pos = match cols.iter().position(|(c, _)| *c == col) {
                Some(p) => p,
                None => {
                    cols.push((col, ColBounds::default()));
                    cols.len() - 1
                }
            };
            let entry = &mut cols[pos].1;
            // bounds widened to inclusive: see module docs
            match op {
                BinaryOp::Eq => {
                    entry.tighten_lo(key.clone());
                    entry.tighten_hi(key);
                    entry.has_eq = true;
                }
                BinaryOp::Gt | BinaryOp::Ge => entry.tighten_lo(key),
                BinaryOp::Lt | BinaryOp::Le => entry.tighten_hi(key),
                _ => {}
            }
            break; // a conjunct constrains via at most one side
        }
    }
    // `col CONTAINS SEQ '<pat>'` over a sequence-indexed column is a
    // candidate too (first-seen wins among several); the pattern is a
    // statement literal, so this is never value-dependent
    let mut seq_candidate: Option<(usize, &str, usize)> = None;
    for (answers, conjunct) in pushed.iter().enumerate() {
        let Expr::ContainsSeq(col_side, pattern, false) = conjunct else {
            continue;
        };
        let Expr::Column(q, n) = &**col_side else {
            continue;
        };
        let Ok(col) = crate::expr::resolve_column(local_bindings, q.as_deref(), n) else {
            continue;
        };
        if table.seq_index_on(col).is_some() {
            seq_candidate = Some((col, pattern.as_str(), answers));
            break;
        }
    }
    let bounded = |b: &ColBounds| b.lo.is_some() || b.hi.is_some();
    let concrete = |col: usize, b: &ColBounds| Probe::Index {
        column: col,
        lo: b.lo.clone().map_or(Bound::Unbounded, Bound::Included),
        hi: b.hi.clone().map_or(Bound::Unbounded, Bound::Included),
    };
    let seq_concrete = |(col, pat, answers): (usize, &str, usize)| Probe::SeqIndex {
        column: col,
        pattern: pat.to_string(),
        answers,
    };
    // a cached choice replays if it still fits the current shape
    let (probe, choice) = match forced {
        Some(ProbeChoice::FullScan) => (Probe::FullScan, ProbeChoice::FullScan),
        Some(ProbeChoice::Column(c))
            if table.index_on(c).is_some()
                && cols.iter().any(|(col, b)| *col == c && bounded(b)) =>
        {
            let b = &cols.iter().find(|(col, _)| *col == c).expect("checked").1;
            (concrete(c, b), ProbeChoice::Column(c))
        }
        Some(ProbeChoice::SeqIndex(c)) if seq_candidate.is_some_and(|(col, ..)| col == c) => (
            seq_concrete(seq_candidate.expect("checked")),
            ProbeChoice::SeqIndex(c),
        ),
        // live cost-based choice (also the fallback for a stale forced
        // column): expected result rows per candidate, smallest wins;
        // ties prefer equality probes, then first-seen order (so the
        // choice is deterministic given fixed stats)
        _ => {
            let pick = cols
                .iter()
                .filter(|(_, b)| bounded(b))
                .map(|(col, b)| (col, b, estimate_bounds_rows(table, *col, b)))
                // `min_by` keeps the first of equal candidates → first-seen order
                .min_by(|(_, ab, ae), (_, bb, be)| {
                    ae.total_cmp(be).then_with(|| bb.has_eq.cmp(&ab.has_eq))
                });
            let seq_est = table.len() as f64 * SEQ_MATCH_FRACTION;
            match (seq_candidate, pick) {
                // the sequence probe competes on the same expected-rows
                // basis; ties go to the B+-tree (cheaper candidate walk)
                (Some(seq), pick)
                    if pick
                        .as_ref()
                        .is_none_or(|(_, _, tree_est)| seq_est < *tree_est) =>
                {
                    (seq_concrete(seq), ProbeChoice::SeqIndex(seq.0))
                }
                (_, Some((col, b, _))) => (concrete(*col, b), ProbeChoice::Column(*col)),
                _ => (Probe::FullScan, ProbeChoice::FullScan),
            }
        }
    };
    let probe = if empty { Probe::Empty } else { probe };
    (probe, (!value_dependent).then_some(choice))
}

/// Expected rows returned by a probe of `column` constrained to the
/// accumulated bounds.
fn estimate_bounds_rows(table: &Table, column: usize, b: &ColBounds) -> f64 {
    let n = table.len() as f64;
    let cs = table.stats().column(column);
    let nonnull = (n - cs.null_count as f64).max(0.0);
    if b.has_eq {
        return nonnull / cs.distinct().max(1) as f64;
    }
    nonnull * range_fraction(cs, b.lo.as_ref(), b.hi.as_ref())
}

/// Fraction of a column's `[min, max]` span covered by the bounds, when
/// the column is numeric; System R-style defaults (1/3 one-sided, 1/9
/// two-sided) otherwise.
fn range_fraction(cs: &ColumnStats, lo: Option<&Value>, hi: Option<&Value>) -> f64 {
    let bounds_numeric =
        lo.is_none_or(|v| v.as_float().is_some()) && hi.is_none_or(|v| v.as_float().is_some());
    let stats_numeric = (
        cs.min.as_ref().and_then(|v| v.as_float()),
        cs.max.as_ref().and_then(|v| v.as_float()),
    );
    if let (Some(min), Some(max)) = stats_numeric {
        if bounds_numeric {
            let span = max - min;
            if span <= 0.0 {
                // single-valued column: every row shares the one key
                return 1.0;
            }
            let lo_f = lo.and_then(|v| v.as_float()).unwrap_or(min).max(min);
            let hi_f = hi.and_then(|v| v.as_float()).unwrap_or(max).min(max);
            return ((hi_f - lo_f) / span).clamp(0.0, 1.0);
        }
    }
    match (lo, hi) {
        (Some(_), Some(_)) => 1.0 / 9.0,
        (None, None) => 1.0,
        _ => 1.0 / 3.0,
    }
}

/// Estimated selectivity of one conjunct evaluated at a single source's
/// scan (fraction of rows surviving), using the table's stats where the
/// conjunct has the `column ⟨cmp⟩ constant` shape and fixed defaults
/// elsewhere.
pub fn estimate_conjunct_selectivity(
    table: &Table,
    local_bindings: &[ColBinding],
    conjunct: &Expr,
) -> f64 {
    let n = table.len() as f64;
    match conjunct {
        Expr::Binary(l, op, r)
            if matches!(
                op,
                BinaryOp::Eq
                    | BinaryOp::Ne
                    | BinaryOp::Lt
                    | BinaryOp::Le
                    | BinaryOp::Gt
                    | BinaryOp::Ge
            ) =>
        {
            let sides = [(l, *op, r), (r, mirror(*op), l)];
            for (col_side, op, const_side) in sides {
                let Expr::Column(q, name) = &**col_side else {
                    continue;
                };
                let Ok(col) = crate::expr::resolve_column(local_bindings, q.as_deref(), name)
                else {
                    continue;
                };
                let mut const_cols = Vec::new();
                if referenced_columns(const_side, local_bindings, &mut const_cols).is_err()
                    || !const_cols.is_empty()
                {
                    continue;
                }
                let Some(key) = const_fold(const_side) else {
                    continue;
                };
                if key.is_null() {
                    return 0.0; // comparison with NULL is never true
                }
                let cs = table.stats().column(col);
                let nonnull_frac = if n > 0.0 {
                    ((n - cs.null_count as f64) / n).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                let eq_sel = 1.0 / cs.distinct().max(1) as f64;
                return nonnull_frac
                    * match op {
                        BinaryOp::Eq => eq_sel,
                        BinaryOp::Ne => 1.0 - eq_sel,
                        BinaryOp::Lt | BinaryOp::Le => range_fraction(cs, None, Some(&key)),
                        BinaryOp::Gt | BinaryOp::Ge => range_fraction(cs, Some(&key), None),
                        _ => 1.0,
                    };
            }
            0.5 // column-vs-column / expression comparison
        }
        Expr::Binary(_, BinaryOp::And, _) => split_conjuncts(conjunct)
            .iter()
            .map(|c| estimate_conjunct_selectivity(table, local_bindings, c))
            .product(),
        Expr::Like(_, _, negated) => {
            if *negated {
                0.75
            } else {
                0.25
            }
        }
        Expr::ContainsSeq(_, _, negated) => {
            if *negated {
                1.0 - SEQ_MATCH_FRACTION
            } else {
                SEQ_MATCH_FRACTION
            }
        }
        Expr::IsNull(inner, negated) => {
            if let Expr::Column(q, name) = &**inner {
                if let Ok(col) = crate::expr::resolve_column(local_bindings, q.as_deref(), name) {
                    let null_frac = if n > 0.0 {
                        (table.stats().column(col).null_count as f64 / n).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    return if *negated { 1.0 - null_frac } else { null_frac };
                }
            }
            0.5
        }
        Expr::InList(inner, items, negated) => {
            let base = if let Expr::Column(q, name) = &**inner {
                match crate::expr::resolve_column(local_bindings, q.as_deref(), name) {
                    Ok(col) => {
                        let d = table.stats().column(col).distinct().max(1) as f64;
                        (items.len() as f64 / d).clamp(0.0, 1.0)
                    }
                    Err(_) => 0.5,
                }
            } else {
                0.5
            };
            if *negated {
                1.0 - base
            } else {
                base
            }
        }
        _ => 0.5,
    }
}

/// Estimated rows a source's scan yields after its pushed conjuncts,
/// assuming independent predicates.  This is the cardinality the greedy
/// join ordering ranks sources by.
pub fn estimate_scan_rows(table: &Table, local_bindings: &[ColBinding], pushed: &[Expr]) -> f64 {
    let mut est = table.len() as f64;
    for c in pushed {
        est *= estimate_conjunct_selectivity(table, local_bindings, c).clamp(0.0, 1.0);
    }
    est
}

/// Mirror a comparison so `const ⟨cmp⟩ col` reads as `col ⟨cmp'⟩ const`.
fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::Le => BinaryOp::Ge,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::Ge => BinaryOp::Le,
        other => other,
    }
}

/// Borrow a bound's key.
pub fn as_ref_bound(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
        Bound::Unbounded => Bound::Unbounded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;
    use bdbms_common::Schema;
    use bdbms_storage::{BufferPool, MemStore};
    use std::sync::Arc;

    /// A live probe choice, no cached plan replayed.
    fn probe(table: &Table, bindings: &[ColBinding], pushed: &[Expr]) -> Probe {
        choose_probe_with(table, bindings, pushed, None).0
    }

    fn where_of(sql: &str) -> Expr {
        match parse(sql).unwrap() {
            Statement::Select(s) => s.where_clause.unwrap(),
            _ => panic!(),
        }
    }

    /// 100 rows of `G (GID, len, score)`, indexed on `len`.
    fn test_table() -> Table {
        let mut t = Table::create(
            "G",
            Schema::of(&[
                ("GID", DataType::Text),
                ("len", DataType::Int),
                ("score", DataType::Float),
            ]),
            "admin",
            Arc::new(BufferPool::new(Box::new(MemStore::new()), 64)),
        )
        .unwrap();
        for i in 0..100i64 {
            t.insert(vec![
                Value::Text(format!("JW{i:04}")),
                Value::Int(i),
                Value::Float(i as f64 / 2.0),
            ])
            .unwrap();
        }
        t.create_index("len_idx", "len", None).unwrap();
        t
    }

    #[test]
    fn conjunct_splitting_preserves_order() {
        let e = where_of("SELECT * FROM t WHERE a = 1 AND b = 2 AND (c = 3 OR d = 4)");
        let cs = split_conjuncts(&e);
        assert_eq!(cs.len(), 3);
        assert!(matches!(&cs[2], Expr::Binary(_, BinaryOp::Or, _)));
    }

    #[test]
    fn classification_by_segment() {
        let bindings = vec![
            ColBinding::new(Some("a"), "x"),
            ColBinding::new(Some("a"), "y"),
            ColBinding::new(Some("b"), "z"),
        ];
        let segs = [(0, 2), (2, 1)];
        let c = where_of("SELECT * FROM t WHERE a.x = 1 AND a.y = a.x");
        for conj in split_conjuncts(&c) {
            assert_eq!(
                classify_conjunct(&conj, &bindings, &segs),
                ConjunctSite::Source(0)
            );
        }
        let c = where_of("SELECT * FROM t WHERE b.z = 1");
        assert_eq!(
            classify_conjunct(&c, &bindings, &segs),
            ConjunctSite::Source(1)
        );
        let c = where_of("SELECT * FROM t WHERE a.x = b.z");
        assert_eq!(
            classify_conjunct(&c, &bindings, &segs),
            ConjunctSite::Residual
        );
        let c = where_of("SELECT * FROM t WHERE 1 = 2");
        assert_eq!(
            classify_conjunct(&c, &bindings, &segs),
            ConjunctSite::Source(0)
        );
        let c = where_of("SELECT * FROM t WHERE missing = 1");
        assert_eq!(
            classify_conjunct(&c, &bindings, &segs),
            ConjunctSite::Residual
        );
    }

    #[test]
    fn probe_selection_prefers_equality() {
        let t = test_table();
        let bindings: Vec<ColBinding> = t
            .schema
            .columns()
            .iter()
            .map(|c| ColBinding::new(Some("g"), &c.name))
            .collect();
        let cs = split_conjuncts(&where_of(
            "SELECT * FROM g WHERE len > 5 AND len = 42 AND GID LIKE 'JW%'",
        ));
        match probe(&t, &bindings, &cs) {
            Probe::Index { column, lo, hi } => {
                assert_eq!(column, 1);
                assert_eq!(lo, Bound::Included(Value::Int(42)));
                assert_eq!(hi, Bound::Included(Value::Int(42)));
            }
            other => panic!("expected equality probe, got {other:?}"),
        }
        // no index on score → full scan
        let cs = split_conjuncts(&where_of("SELECT * FROM g WHERE score = 1.0"));
        assert!(matches!(probe(&t, &bindings, &cs), Probe::FullScan));
        // reversed sides and ranges
        let cs = split_conjuncts(&where_of("SELECT * FROM g WHERE 10 >= len"));
        assert!(matches!(
            probe(&t, &bindings, &cs),
            Probe::Index {
                column: 1,
                lo: Bound::Unbounded,
                hi: Bound::Included(Value::Int(10))
            }
        ));
        // NULL comparison → provably empty
        let cs = split_conjuncts(&where_of("SELECT * FROM g WHERE len = NULL"));
        assert!(matches!(probe(&t, &bindings, &cs), Probe::Empty));
        // non-comparison operators never constrain (and never trip the
        // NULL shortcut: `len OR NULL` can still be true)
        let cs = split_conjuncts(&where_of("SELECT * FROM g WHERE len OR NULL"));
        assert!(matches!(probe(&t, &bindings, &cs), Probe::FullScan));
        let cs = split_conjuncts(&where_of("SELECT * FROM g WHERE len + NULL"));
        assert!(matches!(probe(&t, &bindings, &cs), Probe::FullScan));
        // type-incompatible constant → no index
        let cs = split_conjuncts(&where_of("SELECT * FROM g WHERE len = 'JW'"));
        assert!(matches!(probe(&t, &bindings, &cs), Probe::FullScan));
    }

    #[test]
    fn contains_seq_routes_to_seq_index() {
        let mut t = test_table();
        t.create_index("gid_seq", "GID", Some(crate::ast::SeqIndexKind::Sbc))
            .unwrap();
        let bindings: Vec<ColBinding> = t
            .schema
            .columns()
            .iter()
            .map(|c| ColBinding::new(Some("g"), &c.name))
            .collect();
        let cs = split_conjuncts(&where_of("SELECT * FROM g WHERE GID CONTAINS SEQ 'JW00'"));
        match probe(&t, &bindings, &cs) {
            Probe::SeqIndex {
                column,
                pattern,
                answers,
            } => {
                assert_eq!(column, 0);
                assert_eq!(pattern, "JW00");
                assert_eq!(answers, 0);
            }
            other => panic!("expected seq probe, got {other:?}"),
        }
        // a unique-key equality probe is expected to yield fewer rows
        // than the assumed substring match fraction, so it wins
        let cs = split_conjuncts(&where_of(
            "SELECT * FROM g WHERE GID CONTAINS SEQ 'JW00' AND len = 42",
        ));
        assert!(matches!(
            probe(&t, &bindings, &cs),
            Probe::Index { column: 1, .. }
        ));
        // NOT CONTAINS SEQ cannot use the candidate set (complement)
        let cs = split_conjuncts(&where_of(
            "SELECT * FROM g WHERE GID NOT CONTAINS SEQ 'JW00'",
        ));
        assert!(matches!(probe(&t, &bindings, &cs), Probe::FullScan));
        // that the probed rows are the reference's is
        // `tests/target_differential.rs`'s to check
    }
}
