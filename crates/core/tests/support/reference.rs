//! Reference interpreter for A-SQL `SELECT` (§3.4): the oracle of the
//! differential suites, and deliberately the slowest correct thing.  Every
//! FROM table is materialised with `Table::iter_rows`, every cell gets its
//! annotations (and the synthetic `outdated` one) up front, tables join by
//! FROM-order nested loops, and the **whole** WHERE runs through `eval` on
//! every joined row — so it re-checks what an exact `Seq Index Scan` skips.
//! It shares `eval`/`eval_ann` and `AnnRow` with the engine and nothing
//! else: no planner, no batch operator, no index (annotation rectangles
//! are scanned linearly), no executor entry point.

use std::collections::BTreeMap;
use std::rc::Rc;

use bdbms_common::{BdbmsError, Result, Value};
use bdbms_core::ast::{AggFunc, AnnExpr, Expr, Projection, Select, SetOp};
use bdbms_core::catalog::{Catalog, SetRef, Table};
use bdbms_core::executor::eval_ann;
use bdbms_core::expr::{eval, ColBinding};
use bdbms_core::result::{AnnOut, AnnRef, AnnRow};
use bdbms_core::xml::XmlNode;

/// Output column names and annotated rows.
pub type Answer = (Vec<String>, Vec<AnnRow>);
/// A possibly qualified column name, as the AST spells it.
type ColRef = (Option<String>, String);

/// Run a (possibly compound) SELECT: set operations, ORDER BY, LIMIT.
pub fn run(catalog: &Catalog, sel: &Select) -> Result<Answer> {
    let (columns, mut rows) = block(catalog, sel)?;
    if let Some((op, right)) = &sel.set_op {
        let (right_columns, r) = run(catalog, right)?;
        if right_columns.len() != columns.len() {
            return Err(BdbmsError::invalid("set operation arity mismatch"));
        }
        // equal tuples of either side merge, annotations unioned; the
        // operator then says which of them stay
        let within = |side: &[AnnRow], x: &AnnRow| side.iter().any(|y| y.values == x.values);
        let l = rows.clone();
        rows.extend(r.iter().cloned());
        rows = dedup(rows);
        rows.retain(|x| match op {
            SetOp::Union => true,
            SetOp::Intersect => within(&l, x) && within(&r, x),
            SetOp::Except => within(&l, x) && !within(&r, x),
        });
    }
    // stable sorts, least significant key first
    for ((_, name), desc) in sel.order_by.iter().rev() {
        let at = columns.iter().position(|c| c.eq_ignore_ascii_case(name));
        let at = at.ok_or_else(|| BdbmsError::not_found(format!("ORDER BY column `{name}`")))?;
        rows.sort_by(|a, b| {
            let (a, b) = if *desc { (b, a) } else { (a, b) };
            a.values[at].cmp(&b.values[at])
        });
    }
    rows.truncate(sel.limit.map_or(rows.len(), |k| k as usize));
    Ok((columns, rows))
}

/// One SELECT block: FROM, WHERE/AWHERE, grouping with HAVING/AHAVING,
/// projection, DISTINCT, FILTER.
fn block(catalog: &Catalog, sel: &Select) -> Result<Answer> {
    let (cols, joined) = from_rows(catalog, sel)?;
    let mut rows = Vec::new();
    for row in joined {
        let tuple = std::slice::from_ref(&row);
        if passes(&sel.where_clause, &sel.awhere, &cols, tuple)? {
            rows.push(row);
        }
    }
    // output items: expression, column name, and (§3.4) the joined-row
    // positions whose annotations the cell carries — the columns the
    // expression reads plus the PROMOTEd ones
    let mut items: Vec<(Expr, String, Vec<usize>)> = Vec::new();
    match &sel.projection {
        Projection::Items(list) => {
            for i in list {
                let name = match (&i.alias, &i.expr) {
                    (Some(alias), _) => alias.clone(),
                    (None, Expr::Column(_, n)) => n.clone(),
                    (None, Expr::Aggregate(f, _)) => format!("{f:?}").to_lowercase(),
                    _ => "expr".to_string(),
                };
                let mut refs = shape(&i.expr).0;
                refs.extend(i.promote.iter().cloned());
                items.push((i.expr.clone(), name, positions(&refs, &cols)?));
            }
        }
        Projection::Star(alias) => {
            let alias = alias.as_ref().map(|a| a.to_ascii_lowercase());
            for (at, c) in cols.iter().enumerate() {
                if alias.is_none() || c.qualifier == alias {
                    let column = Expr::Column(c.qualifier.clone(), c.name.clone());
                    items.push((column, c.name.clone(), vec![at]));
                }
            }
            if items.is_empty() {
                return Err(BdbmsError::invalid("`*` matched no columns"));
            }
        }
    }
    let aggregates = |e: &Expr| shape(e).1;
    let grouped = !sel.group_by.is_empty()
        || items.iter().any(|(e, ..)| aggregates(e))
        || sel.having.as_ref().is_some_and(aggregates);
    if !grouped && (sel.having.is_some() || sel.ahaving.is_some()) {
        return Err(BdbmsError::invalid("HAVING/AHAVING require grouping"));
    }
    let keys = positions(&sel.group_by, &cols)?;
    let mut groups: BTreeMap<Vec<Value>, Vec<AnnRow>> = BTreeMap::new();
    if grouped && keys.is_empty() {
        groups.insert(Vec::new(), Vec::new()); // COUNT(*) over nothing is 0
    }
    for (i, row) in rows.into_iter().enumerate() {
        let mut key: Vec<Value> = keys.iter().map(|&k| row.values[k].clone()).collect();
        if !grouped {
            key.push(Value::Int(i as i64)); // each row is its own group
        }
        groups.entry(key).or_default().push(row);
    }
    let mut out = Vec::new();
    for group in groups.values() {
        if !passes(&sel.having, &sel.ahaving, &cols, group)? {
            continue;
        }
        let mut row = AnnRow::default();
        for (e, _, read) in &items {
            row.values.push(group_value(e, &cols, group)?);
            // the cells this item reads, as one tuple: its annotations
            let mut cells = AnnRow::plain(Vec::new());
            for r in group {
                cells.anns.extend(read.iter().map(|&c| r.anns[c].clone()));
            }
            row.anns.push(cells.all_anns());
        }
        out.push(row);
    }
    if sel.distinct {
        out = dedup(out);
    }
    if let Some(cond) = &sel.filter {
        let cells = out.iter_mut().flat_map(|r| &mut r.anns);
        cells.for_each(|cell| cell.retain(|a| eval_ann(cond, a)));
    }
    Ok((items.into_iter().map(|(_, name, _)| name).collect(), out))
}

/// Does a group (WHERE/AWHERE: one tuple; HAVING/AHAVING: a group) pass
/// a data predicate and an annotation predicate — the data predicate
/// holds, and *some* annotation on the group satisfies the other?
fn passes(
    data: &Option<Expr>,
    ann: &Option<AnnExpr>,
    cols: &[ColBinding],
    group: &[AnnRow],
) -> Result<bool> {
    let data = match data {
        Some(p) => group_value(p, cols, group)?.is_true(),
        None => true,
    };
    let anns = || group.iter().flat_map(|r| r.all_anns());
    Ok(data && ann.as_ref().is_none_or(|c| anns().any(|a| eval_ann(c, &a))))
}

/// Materialise the FROM tables with every cell's annotations attached and
/// join them by nested loops, in FROM order.
fn from_rows(catalog: &Catalog, sel: &Select) -> Result<(Vec<ColBinding>, Vec<AnnRow>)> {
    let mut cols = Vec::new();
    let mut joined = vec![AnnRow::default()];
    for tref in &sel.from {
        let table = catalog.table(&tref.table)?;
        let mut sets = Vec::new();
        for n in &tref.annotations {
            sets.push(catalog.annotation_set(&table.name, n)?);
        }
        let qualifier = Some(tref.alias.as_deref().unwrap_or(&tref.table));
        let columns = table.schema.columns().iter();
        cols.extend(columns.map(|c| ColBinding::new(qualifier, &c.name)));
        let mut next = Vec::new();
        for entry in table.iter_rows() {
            let (row_no, values) = entry?;
            let anns = (0..values.len()).map(|col| cell_anns(table, &sets, row_no, col));
            let anns: Vec<Vec<AnnRef>> = anns.collect::<Result<_>>()?;
            for left in &joined {
                let mut row = AnnRow::plain(left.values.iter().chain(&values).cloned().collect());
                row.anns = left.anns.iter().chain(&anns).cloned().collect();
                next.push(row);
            }
        }
        joined = next;
    }
    Ok((cols, joined))
}

/// Every live annotation on one cell, from the requested sets, plus the
/// synthetic `outdated` annotation (§5) when the cell is flagged.
fn cell_anns(table: &Table, sets: &[SetRef<'_>], row: u64, col: usize) -> Result<Vec<AnnRef>> {
    let snapshot = |ann_table: &str, id: u64, raw: &str, created: u64| AnnOut {
        source_table: table.name.clone(),
        ann_table: ann_table.to_string(),
        id,
        raw: raw.to_string(),
        body: XmlNode::parse_or_wrap(raw),
        created,
    };
    let mut out = Vec::new();
    for set in sets {
        let index = set.index();
        let mut ids = match index.rect_scheme() {
            Some(rects) => rects.for_cell_scan(row, col), // not the R-tree
            None => index.ids_for_cell(row, col),
        };
        ids.sort_unstable();
        ids.dedup();
        // bodies and archived flags from the record rows
        for id in ids {
            let a = set.get(id)?;
            if !a.archived {
                out.push(snapshot(&index.name, id.raw(), &a.raw, a.created));
            }
        }
    }
    if table.is_outdated(row, col) {
        let (id, text) = (
            (row << 16) | col as u64,
            "outdated: value pending re-verification",
        );
        out.push(snapshot("outdated", id, text, 0));
    }
    Ok(out.into_iter().map(Rc::new).collect())
}

/// Duplicate elimination: equal tuples merge, annotations unioned.
fn dedup(rows: Vec<AnnRow>) -> Vec<AnnRow> {
    let mut out: Vec<AnnRow> = Vec::new();
    for row in rows {
        match out.iter_mut().find(|o| o.values == row.values) {
            Some(o) => o.union_anns_from(&row),
            None => out.push(row),
        }
    }
    out
}

/// An expression over a group: aggregates fold the group's rows, anything
/// else is read off its first row (NULLs when the group is empty).
fn group_value(e: &Expr, cols: &[ColBinding], group: &[AnnRow]) -> Result<Value> {
    let lit = |x: &Expr| group_value(x, cols, group).map(|v| Box::new(Expr::Literal(v)));
    match e {
        Expr::Aggregate(f, arg) => {
            let one = Expr::Literal(Value::Int(1)); // COUNT(*) counts a constant
            let arg = arg.as_deref().unwrap_or(&one);
            let vals = group.iter().map(|r| eval(arg, cols, &r.values));
            let mut vals = vals.collect::<Result<Vec<Value>>>()?;
            vals.retain(|v| !v.is_null());
            let total = || vals.iter().filter_map(Value::as_float).sum::<f64>();
            Ok(match f {
                AggFunc::Count => Value::Int(vals.len() as i64),
                AggFunc::Min => vals.into_iter().min().unwrap_or(Value::Null),
                AggFunc::Max => vals.into_iter().max().unwrap_or(Value::Null),
                _ if vals.is_empty() => Value::Null,
                AggFunc::Avg => Value::Float(total() / vals.len() as f64),
                AggFunc::Sum => match vals.iter().map(Value::as_int).sum::<Option<i64>>() {
                    Some(exact) => Value::Int(exact), // every input is an INT
                    None => Value::Float(total()),
                },
            })
        }
        Expr::Binary(l, op, r) if shape(e).1 => {
            eval(&Expr::Binary(lit(l)?, *op, lit(r)?), cols, &[])
        }
        Expr::Unary(op, a) if shape(e).1 => eval(&Expr::Unary(*op, lit(a)?), cols, &[]),
        _ => match group.first() {
            Some(row) => eval(e, cols, &row.values),
            None => eval(e, cols, &vec![Value::Null; cols.len()]),
        },
    }
}

/// The column references of an expression, and whether it aggregates.
fn shape(e: &Expr) -> (Vec<ColRef>, bool) {
    let (mut refs, mut aggregates) = (Vec::new(), false);
    let mut todo = vec![e];
    while let Some(e) = todo.pop() {
        match e {
            Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Column(q, n) => refs.push((q.clone(), n.clone())),
            Expr::Unary(_, a) | Expr::IsNull(a, _) | Expr::Like(a, _, _) => todo.push(a),
            Expr::ContainsSeq(a, _, _) => todo.push(a),
            Expr::Binary(a, _, b) => todo.extend([&**a, &**b]),
            Expr::InList(a, items, _) => todo.extend(items.iter().chain([&**a])),
            Expr::Call(_, args) => todo.extend(args),
            Expr::Aggregate(_, arg) => {
                aggregates = true;
                todo.extend(arg.as_deref());
            }
        }
    }
    (refs, aggregates)
}

/// Joined-row positions of column references: each is evaluated over a
/// row whose i-th value is `i`, so name resolution and its error codes
/// are `eval`'s.
fn positions(refs: &[ColRef], cols: &[ColBinding]) -> Result<Vec<usize>> {
    let probe: Vec<Value> = (0..cols.len() as i64).map(Value::Int).collect();
    let mut out = Vec::new();
    for (q, n) in refs {
        let at = eval(&Expr::Column(q.clone(), n.clone()), cols, &probe)?;
        out.push(at.as_int().expect("a column of the probe row") as usize);
    }
    Ok(out)
}
