//! The tuple value model.
//!
//! Biological tables in the paper mix identifiers, free text, numbers, and
//! long sequences (gene / protein / secondary-structure strings).  bdbms
//! models all of them with [`Value`]; sequences are `Text` at the value
//! level and gain their compressed/indexed treatment in `bdbms-seq`.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{BdbmsError, Result};

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float (e.g. BLAST E-values in Figure 9(b)).
    Float,
    /// Variable-length UTF-8 text; also used for biological sequences.
    Text,
    /// Boolean.
    Bool,
    /// Logical timestamp (ticks of [`crate::clock::LogicalClock`]).
    Timestamp,
}

impl DataType {
    /// Parse a SQL type name (`INT`, `FLOAT`, `TEXT`, `BOOL`, `TIMESTAMP`;
    /// a few common aliases accepted).
    pub fn parse(name: &str) -> Result<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" => Ok(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" => Ok(DataType::Float),
            "TEXT" | "VARCHAR" | "STRING" | "SEQUENCE" => Ok(DataType::Text),
            "BOOL" | "BOOLEAN" => Ok(DataType::Bool),
            "TIMESTAMP" => Ok(DataType::Timestamp),
            other => Err(BdbmsError::syntax(format!("unknown type `{other}`"))),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A single cell value.
///
/// `Value` implements a *total* ordering (`NULL` sorts first, floats compare
/// by `total_cmp`) so it can key sorted structures and drive `ORDER BY`,
/// `GROUP BY`, and duplicate elimination deterministically.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// SQL NULL.
    #[default]
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Text / sequence data.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// Logical timestamp.
    Timestamp(u64),
}

impl Value {
    /// The dynamic type of this value, if not NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// True iff NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Checks this value is NULL or matches `ty`, coercing `Int` → `Float`
    /// and `Int` → `Timestamp` (the only implicit widenings bdbms allows).
    pub fn coerce_to(self, ty: DataType) -> Result<Value> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(i as f64)),
            (Value::Int(i), DataType::Timestamp) => {
                if i < 0 {
                    Err(BdbmsError::invalid(format!("negative timestamp {i}")))
                } else {
                    Ok(Value::Timestamp(i as u64))
                }
            }
            (v, t) if v.data_type() == Some(t) => Ok(v),
            (v, t) => Err(BdbmsError::type_mismatch(format!(
                "cannot store {} value into {} column",
                v.type_name(),
                t
            ))),
        }
    }

    /// Human-readable type name (NULL included).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INT",
            Value::Float(_) => "FLOAT",
            Value::Text(_) => "TEXT",
            Value::Bool(_) => "BOOL",
            Value::Timestamp(_) => "TIMESTAMP",
        }
    }

    /// Truthiness for WHERE-style predicates: only `Bool(true)` passes.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Access the text payload, if any.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Access the integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Access the float payload, widening integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Serialize to a compact byte representation (used by the slotted-page
    /// record format in `bdbms-storage`). The encoding is
    /// `tag byte || payload`, with text length-prefixed.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(2);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Text(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                out.push(4);
                out.push(*b as u8);
            }
            Value::Timestamp(t) => {
                out.push(5);
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
    }

    /// Decode one value from `buf` starting at `*pos`, advancing `*pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Value> {
        let err = || BdbmsError::storage("truncated value encoding");
        let tag = *buf.get(*pos).ok_or_else(err)?;
        *pos += 1;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let s = buf.get(*pos..*pos + n).ok_or_else(err)?;
            *pos += n;
            Ok(s)
        };
        match tag {
            0 => Ok(Value::Null),
            1 => {
                let b: [u8; 8] = take(pos, 8)?.try_into().unwrap();
                Ok(Value::Int(i64::from_le_bytes(b)))
            }
            2 => {
                let b: [u8; 8] = take(pos, 8)?.try_into().unwrap();
                Ok(Value::Float(f64::from_le_bytes(b)))
            }
            3 => {
                let b: [u8; 4] = take(pos, 4)?.try_into().unwrap();
                let n = u32::from_le_bytes(b) as usize;
                let s = take(pos, n)?;
                let s = std::str::from_utf8(s)
                    .map_err(|_| BdbmsError::storage("invalid utf8 in stored text"))?;
                Ok(Value::Text(s.to_string()))
            }
            4 => {
                let b = take(pos, 1)?[0];
                Ok(Value::Bool(b != 0))
            }
            5 => {
                let b: [u8; 8] = take(pos, 8)?.try_into().unwrap();
                Ok(Value::Timestamp(u64::from_le_bytes(b)))
            }
            t => Err(BdbmsError::storage(format!("unknown value tag {t}"))),
        }
    }

    /// Borrow the TEXT value encoded at `buf[*pos..]` (its payload
    /// UTF-8-validated in place, not copied) and advance `*pos` past it.
    /// `Ok(None)`, with `*pos` unmoved, when the value there is not TEXT;
    /// a damaged TEXT encoding fails as [`decode`](Self::decode) does.
    pub fn decode_str<'a>(buf: &'a [u8], pos: &mut usize) -> Result<Option<&'a str>> {
        if buf.get(*pos) != Some(&3) {
            return Ok(None);
        }
        let start = *pos;
        Self::skip(buf, pos)?;
        std::str::from_utf8(&buf[start + 5..*pos])
            .map(Some)
            .map_err(|_| BdbmsError::storage("invalid utf8 in stored text"))
    }

    /// Advance `*pos` past one encoded value without materializing it.
    ///
    /// Column-pruned scans use this to step over values the plan has
    /// proven unread — text payloads are not copied or even
    /// UTF-8-validated, only length-checked.
    pub fn skip(buf: &[u8], pos: &mut usize) -> Result<()> {
        let err = || BdbmsError::storage("truncated value encoding");
        let tag = *buf.get(*pos).ok_or_else(err)?;
        *pos += 1;
        let n = match tag {
            0 => 0,
            1 | 2 | 5 => 8,
            3 => {
                let b: [u8; 4] = buf.get(*pos..*pos + 4).ok_or_else(err)?.try_into().unwrap();
                *pos += 4;
                u32::from_le_bytes(b) as usize
            }
            4 => 1,
            t => return Err(BdbmsError::storage(format!("unknown value tag {t}"))),
        };
        buf.get(*pos..*pos + n).ok_or_else(err)?;
        *pos += n;
        Ok(())
    }

    /// SQL-comparison between values of compatible types.
    ///
    /// Returns `None` when either side is NULL or the types are
    /// incomparable — mirroring SQL's three-valued logic where comparisons
    /// with NULL are unknown.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            (Value::Int(a), Value::Float(b)) => Some((*a as f64).total_cmp(b)),
            (Value::Float(a), Value::Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Timestamp(a), Value::Timestamp(b)) => Some(a.cmp(b)),
            (Value::Timestamp(a), Value::Int(b)) => Some((*a as i128).cmp(&(*b as i128))),
            (Value::Int(a), Value::Timestamp(b)) => Some((*a as i128).cmp(&(*b as i128))),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order used by sorting operators: NULL < Int/Float/Timestamp
    /// (numeric, interleaved) < Text < Bool.
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 1,
                Value::Text(_) => 2,
                Value::Bool(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) if rank(a) == 1 && rank(b) == 1 => {
                let fa = numeric(a);
                let fb = numeric(b);
                fa.total_cmp(&fb)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

fn numeric(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        Value::Timestamp(t) => *t as f64,
        _ => f64::NAN,
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash numerics through their f64 bit pattern so Int(2),
            // Float(2.0) and Timestamp(2) — which compare Equal — also
            // hash identically.
            Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => {
                1u8.hash(state);
                numeric(self).to_bits().hash(state);
            }
            Value::Text(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(t) => write!(f, "T{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_encoding_all_variants() {
        let vals = vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::Text("ATGAAAGTATC".into()),
            Value::Bool(true),
            Value::Timestamp(99),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            v.encode(&mut buf);
        }
        let mut pos = 0;
        for v in &vals {
            let d = Value::decode(&buf, &mut pos).unwrap();
            assert_eq!(&d, v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn skip_advances_exactly_like_decode() {
        let vals = vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::Text("ATGAAAGTATC".into()),
            Value::Bool(true),
            Value::Timestamp(99),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            v.encode(&mut buf);
        }
        let (mut sp, mut dp) = (0, 0);
        for v in &vals {
            // decode_str borrows exactly the TEXT values, and only moves
            // past those
            let (before, mut tp) = (dp, dp);
            let text = Value::decode_str(&buf, &mut tp).unwrap();
            assert_eq!(text, v.as_text());
            Value::skip(&buf, &mut sp).unwrap();
            Value::decode(&buf, &mut dp).unwrap();
            assert_eq!(sp, dp);
            assert_eq!(tp, if text.is_some() { dp } else { before });
        }
        assert_eq!(sp, buf.len());
        // truncated text payload: skip must fail, not run off the end
        let mut short = Vec::new();
        Value::Text("hello".into()).encode(&mut short);
        short.truncate(7);
        let mut pos = 0;
        assert!(Value::skip(&short, &mut pos).is_err());
    }

    #[test]
    fn decode_truncated_fails() {
        let mut buf = Vec::new();
        Value::Int(7).encode(&mut buf);
        buf.truncate(4);
        let mut pos = 0;
        assert!(Value::decode(&buf, &mut pos).is_err());
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_mixed_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn total_order_null_first() {
        let mut v = [Value::Text("b".into()), Value::Int(1), Value::Null];
        v.sort();
        assert_eq!(v[0], Value::Null);
        assert_eq!(v[1], Value::Int(1));
    }

    #[test]
    fn coercion_int_to_float_and_timestamp() {
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Timestamp).unwrap(),
            Value::Timestamp(3)
        );
        assert!(Value::Int(-1).coerce_to(DataType::Timestamp).is_err());
        assert!(Value::Text("x".into()).coerce_to(DataType::Int).is_err());
    }

    #[test]
    fn datatype_parse_aliases() {
        assert_eq!(DataType::parse("varchar").unwrap(), DataType::Text);
        assert_eq!(DataType::parse("INTEGER").unwrap(), DataType::Int);
        assert!(DataType::parse("blob").is_err());
    }

    #[test]
    fn equal_values_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(h(&Value::Int(2)), h(&Value::Float(2.0)));
        assert_eq!(h(&Value::Timestamp(2)), h(&Value::Int(2)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Timestamp(5).to_string(), "T5");
        assert_eq!(Value::Text("fruR".into()).to_string(), "fruR");
    }
}
