//! Scalar expression evaluation.

use std::borrow::Cow;

use bdbms_common::{BdbmsError, Result, Value};
use bdbms_index::regex::Regex;

use crate::ast::{BinaryOp, Expr, UnaryOp};

/// One column binding in scope: optional qualifier (table name or alias,
/// lowercased) + column name.
#[derive(Debug, Clone)]
pub struct ColBinding {
    /// Qualifier this column answers to (alias if given, else table name).
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
}

impl ColBinding {
    /// New binding.
    pub fn new(qualifier: Option<&str>, name: &str) -> ColBinding {
        ColBinding {
            qualifier: qualifier.map(|q| q.to_ascii_lowercase()),
            name: name.to_string(),
        }
    }
}

/// Resolve a (possibly qualified) column reference to its index.
pub fn resolve_column(
    bindings: &[ColBinding],
    qualifier: Option<&str>,
    name: &str,
) -> Result<usize> {
    let q = qualifier.map(|q| q.to_ascii_lowercase());
    let matches: Vec<usize> = bindings
        .iter()
        .enumerate()
        .filter(|(_, b)| {
            b.name.eq_ignore_ascii_case(name)
                && match &q {
                    None => true,
                    Some(q) => b.qualifier.as_deref() == Some(q.as_str()),
                }
        })
        .map(|(i, _)| i)
        .collect();
    match matches.len() {
        0 => Err(BdbmsError::not_found(format!(
            "column `{}{}`",
            qualifier.map(|q| format!("{q}.")).unwrap_or_default(),
            name
        ))),
        1 => Ok(matches[0]),
        _ => Err(BdbmsError::invalid(format!(
            "ambiguous column `{name}` (qualify it)"
        ))),
    }
}

/// All column indexes referenced by an expression (for annotation
/// propagation through projections).
pub fn referenced_columns(
    expr: &Expr,
    bindings: &[ColBinding],
    out: &mut Vec<usize>,
) -> Result<()> {
    match expr {
        Expr::Literal(_) | Expr::Param(_) => Ok(()),
        Expr::Column(q, n) => {
            out.push(resolve_column(bindings, q.as_deref(), n)?);
            Ok(())
        }
        Expr::Unary(_, e)
        | Expr::IsNull(e, _)
        | Expr::Like(e, _, _)
        | Expr::ContainsSeq(e, _, _) => referenced_columns(e, bindings, out),
        Expr::Binary(l, _, r) => {
            referenced_columns(l, bindings, out)?;
            referenced_columns(r, bindings, out)
        }
        Expr::InList(e, items, _) => {
            referenced_columns(e, bindings, out)?;
            for i in items {
                referenced_columns(i, bindings, out)?;
            }
            Ok(())
        }
        Expr::Call(_, args) => {
            for a in args {
                referenced_columns(a, bindings, out)?;
            }
            Ok(())
        }
        Expr::Aggregate(_, arg) => {
            if let Some(a) = arg {
                referenced_columns(a, bindings, out)?;
            }
            Ok(())
        }
    }
}

/// Evaluate an expression over one row.  Aggregates are rejected here —
/// the executor computes them per group.
pub fn eval(expr: &Expr, bindings: &[ColBinding], values: &[Value]) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(i) => Err(BdbmsError::param_mismatch(format!(
            "unbound parameter ${} (bind it through a prepared statement)",
            i + 1
        ))),
        Expr::Column(q, n) => {
            let idx = resolve_column(bindings, q.as_deref(), n)?;
            Ok(values[idx].clone())
        }
        Expr::Unary(UnaryOp::Not, e) => {
            let v = eval(e, bindings, values)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Bool(b) => Ok(Value::Bool(!b)),
                other => Err(BdbmsError::eval(format!(
                    "NOT applied to {}",
                    other.type_name()
                ))),
            }
        }
        Expr::Unary(UnaryOp::Neg, e) => {
            let v = eval(e, bindings, values)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                other => Err(BdbmsError::eval(format!(
                    "negation of {}",
                    other.type_name()
                ))),
            }
        }
        Expr::IsNull(e, negated) => {
            let v = eval(e, bindings, values)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Like(e, pattern, negated) => {
            let v = eval(e, bindings, values)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => {
                    let hit = like_match(&s, pattern)?;
                    Ok(Value::Bool(hit != *negated))
                }
                other => Err(BdbmsError::eval(format!(
                    "LIKE applied to {}",
                    other.type_name()
                ))),
            }
        }
        Expr::ContainsSeq(e, pattern, negated) => {
            let v = eval(e, bindings, values)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => {
                    let hit = !pattern.is_empty() && s.contains(pattern.as_str());
                    Ok(Value::Bool(hit != *negated))
                }
                other => Err(BdbmsError::eval(format!(
                    "CONTAINS SEQ applied to {}",
                    other.type_name()
                ))),
            }
        }
        Expr::InList(e, items, negated) => {
            let v = eval(e, bindings, values)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for item in items {
                let iv = eval(item, bindings, values)?;
                if v.sql_cmp(&iv) == Some(std::cmp::Ordering::Equal) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::Binary(l, op, r) => eval_binary(l, *op, r, bindings, values),
        Expr::Call(name, args) => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval(a, bindings, values))
                .collect::<Result<_>>()?;
            eval_function(name, &vals)
        }
        Expr::Aggregate(..) => Err(BdbmsError::eval("aggregate used outside GROUP BY context")),
    }
}

fn eval_binary(
    l: &Expr,
    op: BinaryOp,
    r: &Expr,
    bindings: &[ColBinding],
    values: &[Value],
) -> Result<Value> {
    // short-circuit logic with SQL three-valued semantics
    if matches!(op, BinaryOp::And | BinaryOp::Or) {
        let lv = eval(l, bindings, values)?;
        match (op, &lv) {
            (BinaryOp::And, Value::Bool(false)) => return Ok(Value::Bool(false)),
            (BinaryOp::Or, Value::Bool(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let rv = eval(r, bindings, values)?;
        return match (op, lv, rv) {
            (BinaryOp::And, Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(a && b)),
            (BinaryOp::Or, Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(a || b)),
            (BinaryOp::And, Value::Null, Value::Bool(false))
            | (BinaryOp::And, Value::Bool(false), Value::Null) => Ok(Value::Bool(false)),
            (BinaryOp::Or, Value::Null, Value::Bool(true))
            | (BinaryOp::Or, Value::Bool(true), Value::Null) => Ok(Value::Bool(true)),
            (_, Value::Null, _) | (_, _, Value::Null) => Ok(Value::Null),
            (_, a, b) => Err(BdbmsError::eval(format!(
                "logic over {} and {}",
                a.type_name(),
                b.type_name()
            ))),
        };
    }
    let lv = eval(l, bindings, values)?;
    let rv = eval(r, bindings, values)?;
    match op {
        BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
            let cmp = lv.sql_cmp(&rv);
            let Some(ord) = cmp else {
                return Ok(Value::Null);
            };
            let b = match op {
                BinaryOp::Eq => ord.is_eq(),
                BinaryOp::Ne => ord.is_ne(),
                BinaryOp::Lt => ord.is_lt(),
                BinaryOp::Le => ord.is_le(),
                BinaryOp::Gt => ord.is_gt(),
                BinaryOp::Ge => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        BinaryOp::Concat => match (lv, rv) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (a, b) => Ok(Value::Text(format!("{a}{b}"))),
        },
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            arith(op, &lv, &rv)
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

fn arith(op: BinaryOp, lv: &Value, rv: &Value) -> Result<Value> {
    if lv.is_null() || rv.is_null() {
        return Ok(Value::Null);
    }
    // integer arithmetic when both are ints (except division by zero)
    if let (Value::Int(a), Value::Int(b)) = (lv, rv) {
        return match op {
            BinaryOp::Add => Ok(Value::Int(a.wrapping_add(*b))),
            BinaryOp::Sub => Ok(Value::Int(a.wrapping_sub(*b))),
            BinaryOp::Mul => Ok(Value::Int(a.wrapping_mul(*b))),
            BinaryOp::Div => {
                if *b == 0 {
                    Err(BdbmsError::eval("division by zero"))
                } else {
                    Ok(Value::Int(a / b))
                }
            }
            BinaryOp::Mod => {
                if *b == 0 {
                    Err(BdbmsError::eval("modulo by zero"))
                } else {
                    Ok(Value::Int(a % b))
                }
            }
            _ => unreachable!(),
        };
    }
    let (a, b) = match (lv.as_float(), rv.as_float()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(BdbmsError::eval(format!(
                "arithmetic over {} and {}",
                lv.type_name(),
                rv.type_name()
            )))
        }
    };
    let out = match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => {
            if b == 0.0 {
                return Err(BdbmsError::eval("division by zero"));
            }
            a / b
        }
        BinaryOp::Mod => a % b,
        _ => unreachable!(),
    };
    Ok(Value::Float(out))
}

fn eval_function(name: &str, args: &[Value]) -> Result<Value> {
    let argc = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(BdbmsError::eval(format!(
                "{name} expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    match name {
        "LENGTH" => {
            argc(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(BdbmsError::eval(format!("LENGTH of {}", other.type_name()))),
            }
        }
        "UPPER" | "LOWER" => {
            argc(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Text(if name == "UPPER" {
                    s.to_uppercase()
                } else {
                    s.to_lowercase()
                })),
                other => Err(BdbmsError::eval(format!("{name} of {}", other.type_name()))),
            }
        }
        "ABS" => {
            argc(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(BdbmsError::eval(format!("ABS of {}", other.type_name()))),
            }
        }
        "SUBSTR" => {
            argc(3)?;
            match (&args[0], &args[1], &args[2]) {
                (Value::Null, _, _) => Ok(Value::Null),
                (Value::Text(s), Value::Int(start), Value::Int(len)) => {
                    let start = (*start).max(1) as usize - 1;
                    let len = (*len).max(0) as usize;
                    Ok(Value::Text(s.chars().skip(start).take(len).collect()))
                }
                _ => Err(BdbmsError::eval("SUBSTR(text, int, int) expected")),
            }
        }
        "SUBSEQ" => {
            // SUBSEQ(seq, lo, hi): the 1-based inclusive character range
            // [lo, hi] of a sequence — the paper's subsequence extraction,
            // evaluated over the SQL-visible (uncompressed) column value.
            argc(3)?;
            match (&args[0], &args[1], &args[2]) {
                (Value::Null, _, _) => Ok(Value::Null),
                (Value::Text(s), Value::Int(lo), Value::Int(hi)) => {
                    if *lo < 1 || *hi < *lo {
                        return Err(BdbmsError::eval(format!(
                            "SUBSEQ range [{lo}, {hi}] must satisfy 1 <= lo <= hi"
                        )));
                    }
                    let start = (*lo - 1) as usize;
                    let len = (*hi - *lo + 1) as usize;
                    Ok(Value::Text(s.chars().skip(start).take(len).collect()))
                }
                _ => Err(BdbmsError::eval("SUBSEQ(text, int, int) expected")),
            }
        }
        "TRIM" => {
            argc(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Text(s.trim().to_string())),
                other => Err(BdbmsError::eval(format!("TRIM of {}", other.type_name()))),
            }
        }
        other => Err(BdbmsError::eval(format!("unknown function `{other}`"))),
    }
}

/// SQL LIKE via the workspace regex engine: `%` → `.*`, `_` → `.`,
/// everything else escaped.
pub fn like_match(s: &str, pattern: &str) -> Result<bool> {
    Ok(like_regex(pattern)?.is_match(s.as_bytes()))
}

/// Compile a LIKE pattern into the workspace regex engine.
pub fn like_regex(pattern: &str) -> Result<Regex> {
    let mut re = String::with_capacity(pattern.len() * 2);
    for ch in pattern.chars() {
        match ch {
            '%' => re.push_str(".*"),
            '_' => re.push('.'),
            c if "\\.*+?()[]|".contains(c) => {
                re.push('\\');
                re.push(c);
            }
            c => re.push(c),
        }
    }
    Regex::compile(&re).map_err(|e| BdbmsError::eval(format!("bad LIKE pattern: {e}")))
}

// ---------------------------------------------------------------------------
// Compiled expressions
// ---------------------------------------------------------------------------

/// A scalar expression compiled against a fixed binding list: column
/// references are pre-resolved to value indexes and LIKE patterns are
/// compiled once, so the batch executor's tight loops skip the per-row
/// name resolution and regex compilation that [`eval`] pays.
///
/// Compilation never fails: anything that cannot be evaluated (an
/// unresolvable column, an unbound parameter, a bare aggregate) becomes a
/// [`CExpr::Err`] node whose error surfaces at *evaluation* time, exactly
/// when the interpreted path would have surfaced it.  An `Err` node under
/// a short-circuited branch therefore never fires — same as [`eval`].
pub enum CExpr {
    /// Constant.
    Literal(Value),
    /// Pre-resolved column: an index into the row's value slice.
    Column(usize),
    /// Unary operator.
    Unary(UnaryOp, Box<CExpr>),
    /// `IS [NOT] NULL`.
    IsNull(Box<CExpr>, bool),
    /// `[NOT] LIKE` with the pattern pre-compiled; a bad pattern is kept
    /// as the error it would raise, surfaced only when a text value is
    /// actually matched (NULL inputs still yield NULL first).
    Like(
        Box<CExpr>,
        Box<std::result::Result<Regex, BdbmsError>>,
        bool,
    ),
    /// `[NOT] CONTAINS SEQ`.
    ContainsSeq(Box<CExpr>, String, bool),
    /// `[NOT] IN (…)`.
    InList(Box<CExpr>, Vec<CExpr>, bool),
    /// Binary operator.
    Binary(Box<CExpr>, BinaryOp, Box<CExpr>),
    /// Scalar function call.
    Call(String, Vec<CExpr>),
    /// Deferred evaluation error (unresolvable column, parameter, …).
    Err(BdbmsError),
}

/// Compile `expr` against `bindings`.  Infallible — resolution failures
/// become deferred [`CExpr::Err`] nodes (see the type docs).
pub fn compile(expr: &Expr, bindings: &[ColBinding]) -> CExpr {
    match expr {
        Expr::Literal(v) => CExpr::Literal(v.clone()),
        Expr::Param(i) => CExpr::Err(BdbmsError::param_mismatch(format!(
            "unbound parameter ${} (bind it through a prepared statement)",
            i + 1
        ))),
        Expr::Column(q, n) => match resolve_column(bindings, q.as_deref(), n) {
            Ok(idx) => CExpr::Column(idx),
            Err(e) => CExpr::Err(e),
        },
        Expr::Unary(op, e) => CExpr::Unary(*op, Box::new(compile(e, bindings))),
        Expr::IsNull(e, negated) => CExpr::IsNull(Box::new(compile(e, bindings)), *negated),
        Expr::Like(e, pattern, negated) => CExpr::Like(
            Box::new(compile(e, bindings)),
            Box::new(like_regex(pattern)),
            *negated,
        ),
        Expr::ContainsSeq(e, pattern, negated) => {
            CExpr::ContainsSeq(Box::new(compile(e, bindings)), pattern.clone(), *negated)
        }
        Expr::InList(e, items, negated) => CExpr::InList(
            Box::new(compile(e, bindings)),
            items.iter().map(|i| compile(i, bindings)).collect(),
            *negated,
        ),
        Expr::Binary(l, op, r) => CExpr::Binary(
            Box::new(compile(l, bindings)),
            *op,
            Box::new(compile(r, bindings)),
        ),
        Expr::Call(name, args) => CExpr::Call(
            name.clone(),
            args.iter().map(|a| compile(a, bindings)).collect(),
        ),
        Expr::Aggregate(..) => {
            CExpr::Err(BdbmsError::eval("aggregate used outside GROUP BY context"))
        }
    }
}

/// An operand read in place: a column borrows the row's value and a
/// constant the plan's, so an operator over them clones neither; any
/// other expression is evaluated.
fn operand<'v>(e: &'v CExpr, values: &'v [Value]) -> Result<Cow<'v, Value>> {
    Ok(match e {
        CExpr::Column(idx) => Cow::Borrowed(&values[*idx]),
        CExpr::Literal(v) => Cow::Borrowed(v),
        e => Cow::Owned(eval_compiled(e, values)?),
    })
}

/// Evaluate a compiled expression over one row's values.  Semantics are
/// identical to [`eval`] on the source expression, error-for-error.
pub fn eval_compiled(expr: &CExpr, values: &[Value]) -> Result<Value> {
    match expr {
        CExpr::Literal(v) => Ok(v.clone()),
        CExpr::Column(idx) => Ok(values[*idx].clone()),
        CExpr::Err(e) => Err(e.clone()),
        CExpr::Unary(UnaryOp::Not, e) => {
            let v = eval_compiled(e, values)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Bool(b) => Ok(Value::Bool(!b)),
                other => Err(BdbmsError::eval(format!(
                    "NOT applied to {}",
                    other.type_name()
                ))),
            }
        }
        CExpr::Unary(UnaryOp::Neg, e) => {
            let v = eval_compiled(e, values)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                other => Err(BdbmsError::eval(format!(
                    "negation of {}",
                    other.type_name()
                ))),
            }
        }
        CExpr::IsNull(e, negated) => {
            let v = operand(e, values)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        CExpr::Like(e, regex, negated) => {
            let v = operand(e, values)?;
            match &*v {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => match regex.as_ref() {
                    Ok(re) => Ok(Value::Bool(re.is_match(s.as_bytes()) != *negated)),
                    Err(e) => Err(e.clone()),
                },
                other => Err(BdbmsError::eval(format!(
                    "LIKE applied to {}",
                    other.type_name()
                ))),
            }
        }
        CExpr::ContainsSeq(e, pattern, negated) => {
            let v = operand(e, values)?;
            match &*v {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => {
                    let hit = !pattern.is_empty() && s.contains(pattern.as_str());
                    Ok(Value::Bool(hit != *negated))
                }
                other => Err(BdbmsError::eval(format!(
                    "CONTAINS SEQ applied to {}",
                    other.type_name()
                ))),
            }
        }
        CExpr::InList(e, items, negated) => {
            let v = operand(e, values)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for item in items {
                let iv = operand(item, values)?;
                if v.sql_cmp(&iv) == Some(std::cmp::Ordering::Equal) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        CExpr::Binary(l, op, r) => eval_compiled_binary(l, *op, r, values),
        CExpr::Call(name, args) => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_compiled(a, values))
                .collect::<Result<_>>()?;
            eval_function(name, &vals)
        }
    }
}

fn eval_compiled_binary(l: &CExpr, op: BinaryOp, r: &CExpr, values: &[Value]) -> Result<Value> {
    // short-circuit logic with SQL three-valued semantics
    if matches!(op, BinaryOp::And | BinaryOp::Or) {
        let lv = eval_compiled(l, values)?;
        match (op, &lv) {
            (BinaryOp::And, Value::Bool(false)) => return Ok(Value::Bool(false)),
            (BinaryOp::Or, Value::Bool(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let rv = eval_compiled(r, values)?;
        return match (op, lv, rv) {
            (BinaryOp::And, Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(a && b)),
            (BinaryOp::Or, Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(a || b)),
            (BinaryOp::And, Value::Null, Value::Bool(false))
            | (BinaryOp::And, Value::Bool(false), Value::Null) => Ok(Value::Bool(false)),
            (BinaryOp::Or, Value::Null, Value::Bool(true))
            | (BinaryOp::Or, Value::Bool(true), Value::Null) => Ok(Value::Bool(true)),
            (_, Value::Null, _) | (_, _, Value::Null) => Ok(Value::Null),
            (_, a, b) => Err(BdbmsError::eval(format!(
                "logic over {} and {}",
                a.type_name(),
                b.type_name()
            ))),
        };
    }
    let lv = operand(l, values)?;
    let rv = operand(r, values)?;
    match op {
        BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
            let cmp = lv.sql_cmp(&rv);
            let Some(ord) = cmp else {
                return Ok(Value::Null);
            };
            let b = match op {
                BinaryOp::Eq => ord.is_eq(),
                BinaryOp::Ne => ord.is_ne(),
                BinaryOp::Lt => ord.is_lt(),
                BinaryOp::Le => ord.is_le(),
                BinaryOp::Gt => ord.is_gt(),
                BinaryOp::Ge => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        BinaryOp::Concat => match (&*lv, &*rv) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (a, b) => Ok(Value::Text(format!("{a}{b}"))),
        },
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            arith(op, &lv, &rv)
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;

    fn where_expr(sql: &str) -> Expr {
        match parse(&format!("SELECT * FROM t WHERE {sql}")).unwrap() {
            Statement::Select(s) => s.where_clause.unwrap(),
            _ => panic!(),
        }
    }

    fn ctx() -> (Vec<ColBinding>, Vec<Value>) {
        (
            vec![
                ColBinding::new(Some("g"), "GID"),
                ColBinding::new(Some("g"), "len"),
                ColBinding::new(Some("g"), "score"),
                ColBinding::new(Some("g"), "note"),
            ],
            vec![
                Value::Text("JW0080".into()),
                Value::Int(12),
                Value::Float(2.5),
                Value::Null,
            ],
        )
    }

    fn run(sql: &str) -> Value {
        let (b, v) = ctx();
        eval(&where_expr(sql), &b, &v).unwrap()
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(run("len > 10 AND score < 3"), Value::Bool(true));
        assert_eq!(run("len > 10 AND score > 3"), Value::Bool(false));
        assert_eq!(run("len = 12 OR 1 = 2"), Value::Bool(true));
        assert_eq!(run("NOT len = 12"), Value::Bool(false));
        assert_eq!(run("GID = 'JW0080'"), Value::Bool(true));
        assert_eq!(run("g.GID <> 'JW0080'"), Value::Bool(false));
    }

    #[test]
    fn null_semantics() {
        assert_eq!(run("note = 'x'"), Value::Null);
        assert_eq!(run("note IS NULL"), Value::Bool(true));
        assert_eq!(run("note IS NOT NULL"), Value::Bool(false));
        assert_eq!(run("note = 'x' OR len = 12"), Value::Bool(true));
        assert_eq!(run("note = 'x' AND 1 = 2"), Value::Bool(false));
        assert!(!run("note = 'x'").is_true());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("len + 1 = 13"), Value::Bool(true));
        assert_eq!(run("len * 2 - 4 = 20"), Value::Bool(true));
        assert_eq!(run("len / 5 = 2"), Value::Bool(true), "integer division");
        assert_eq!(run("len % 5 = 2"), Value::Bool(true));
        assert_eq!(run("score * 2 = 5.0"), Value::Bool(true));
        let (b, v) = ctx();
        assert!(eval(&where_expr("len / 0 = 1"), &b, &v).is_err());
    }

    #[test]
    fn like_patterns() {
        assert_eq!(run("GID LIKE 'JW%'"), Value::Bool(true));
        assert_eq!(run("GID LIKE 'JW___0'"), Value::Bool(true));
        assert_eq!(run("GID LIKE 'JW___9'"), Value::Bool(false));
        assert_eq!(run("GID LIKE 'JW00_0'"), Value::Bool(true));
        assert_eq!(run("GID NOT LIKE '%99'"), Value::Bool(true));
        assert_eq!(run("GID LIKE '%008%'"), Value::Bool(true));
    }

    #[test]
    fn in_list() {
        assert_eq!(run("GID IN ('JW0080', 'JW0082')"), Value::Bool(true));
        assert_eq!(run("len NOT IN (1, 2, 3)"), Value::Bool(true));
        assert_eq!(run("note IN ('a')"), Value::Null);
    }

    #[test]
    fn functions() {
        assert_eq!(run("LENGTH(GID) = 6"), Value::Bool(true));
        assert_eq!(run("UPPER('atg') = 'ATG'"), Value::Bool(true));
        assert_eq!(run("SUBSTR(GID, 1, 2) = 'JW'"), Value::Bool(true));
        assert_eq!(run("ABS(0 - len) = 12"), Value::Bool(true));
        assert_eq!(run("TRIM('  x ') = 'x'"), Value::Bool(true));
        assert_eq!(run("GID || '!' = 'JW0080!'"), Value::Bool(true));
    }

    #[test]
    fn contains_seq_and_subseq() {
        assert_eq!(run("GID CONTAINS SEQ 'W00'"), Value::Bool(true));
        assert_eq!(run("GID CONTAINS SEQ 'XYZ'"), Value::Bool(false));
        assert_eq!(run("GID NOT CONTAINS SEQ 'XYZ'"), Value::Bool(true));
        assert_eq!(run("note CONTAINS SEQ 'x'"), Value::Null);
        assert_eq!(run("GID CONTAINS SEQ ''"), Value::Bool(false));
        assert_eq!(run("SUBSEQ(GID, 1, 2) = 'JW'"), Value::Bool(true));
        assert_eq!(run("SUBSEQ(GID, 3, 6) = '0080'"), Value::Bool(true));
        assert_eq!(run("SUBSEQ(note, 1, 2)"), Value::Null);
        let (b, v) = ctx();
        assert!(eval(&where_expr("len CONTAINS SEQ 'x'"), &b, &v).is_err());
        assert!(eval(&where_expr("SUBSEQ(GID, 0, 2) = 'J'"), &b, &v).is_err());
        assert!(eval(&where_expr("SUBSEQ(GID, 3, 2) = ''"), &b, &v).is_err());
    }

    #[test]
    fn resolution_errors() {
        let (b, v) = ctx();
        assert!(eval(&where_expr("missing = 1"), &b, &v).is_err());
        // ambiguity
        let b2 = vec![
            ColBinding::new(Some("a"), "x"),
            ColBinding::new(Some("b"), "x"),
        ];
        let e = where_expr("x = 1");
        assert!(eval(&e, &b2, &[Value::Int(1), Value::Int(2)]).is_err());
        let e = where_expr("b.x = 2");
        assert_eq!(
            eval(&e, &b2, &[Value::Int(1), Value::Int(2)]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn compiled_matches_interpreted() {
        let (b, v) = ctx();
        for sql in [
            "len > 10 AND score < 3",
            "note = 'x' OR len = 12",
            "note = 'x' AND 1 = 2",
            "len + 1 = 13",
            "len / 0 = 1",
            "GID LIKE 'JW%'",
            "GID NOT LIKE '%99'",
            "note IS NULL",
            "GID IN ('JW0080', 'JW0082')",
            "note IN ('a')",
            "LENGTH(GID) = 6",
            "SUBSTR(GID, 1, 2) = 'JW'",
            "GID || '!' = 'JW0080!'",
            "GID CONTAINS SEQ 'W00'",
            "note CONTAINS SEQ 'x'",
            "len CONTAINS SEQ 'x'",
            "NOT len = 12",
            "0 - len = 0 - 12",
            "missing = 1",
            "a.b = 1",
        ] {
            let e = where_expr(sql);
            let interpreted = eval(&e, &b, &v);
            let compiled = eval_compiled(&compile(&e, &b), &v);
            assert_eq!(interpreted, compiled, "divergence on {sql}");
        }
    }

    #[test]
    fn compiled_defers_resolution_errors_past_short_circuits() {
        let (b, v) = ctx();
        // the unresolvable column sits behind a short-circuited OR arm, so
        // neither path ever surfaces it
        let e = where_expr("len = 12 OR missing = 1");
        assert_eq!(eval(&e, &b, &v).unwrap(), Value::Bool(true));
        assert_eq!(
            eval_compiled(&compile(&e, &b), &v).unwrap(),
            Value::Bool(true)
        );
        // evaluated directly, the deferred error fires with the same code
        let e = where_expr("missing = 1");
        let interp_err = eval(&e, &b, &v).unwrap_err();
        let comp_err = eval_compiled(&compile(&e, &b), &v).unwrap_err();
        assert_eq!(interp_err, comp_err);
    }

    #[test]
    fn referenced_columns_walks_everything() {
        let (b, _) = ctx();
        let e = where_expr("LENGTH(GID) + len > score");
        let mut cols = Vec::new();
        referenced_columns(&e, &b, &mut cols).unwrap();
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1, 2]);
    }
}
