//! Tiny byte codec shared by snapshots, WAL records and the wire
//! protocol, and by the structures that serialize themselves into them
//! (annotation sets, result rows).
//!
//! Everything is little-endian and length-prefixed; decoding is fully
//! bounds-checked and surfaces [`ErrorCode::Corrupt`] — bytes come off
//! disk or a socket, so a short or mangled buffer must be an error, never
//! a panic.

use crate::{BdbmsError, ErrorCode, Result, Value};

/// Elements reserved up front for a decoded list: its count is
/// untrusted until the elements themselves decode, so a garbage prefix
/// must not reserve gigabytes.
const MAX_PREALLOC: usize = 1024;

pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => put_bool(out, false),
        Some(s) => {
            put_bool(out, true);
            put_str(out, s);
        }
    }
}

pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    v.encode(out);
}

pub fn put_values(out: &mut Vec<u8>, vs: &[Value]) {
    put_u32(out, vs.len() as u32);
    for v in vs {
        v.encode(out);
    }
}

pub fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_u64(out, v);
    }
}

pub fn put_strs(out: &mut Vec<u8>, vs: &[String]) {
    put_u32(out, vs.len() as u32);
    for v in vs {
        put_str(out, v);
    }
}

/// A bounds-checked cursor over encoded bytes.
pub struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    /// Has every byte been consumed?
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn short() -> BdbmsError {
        BdbmsError::new(ErrorCode::Corrupt, "truncated encoding")
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(Self::short)?;
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }

    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length prefix about to drive a `Vec::with_capacity`: sanity-cap
    /// it so corrupt bytes can't trigger an absurd allocation.
    pub fn len(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining().max(1) * 4096 {
            return Err(BdbmsError::corrupt(format!(
                "implausible length prefix {n}"
            )));
        }
        Ok(n)
    }

    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| BdbmsError::corrupt("invalid utf8 in stored string"))
    }

    pub fn opt_str(&mut self) -> Result<Option<String>> {
        Ok(if self.bool()? {
            Some(self.str()?)
        } else {
            None
        })
    }

    pub fn value(&mut self) -> Result<Value> {
        // Value::decode reports Storage on truncation; re-badge as
        // Corrupt — these bytes came from a snapshot, WAL frame or socket.
        let mut pos = self.pos;
        let v = Value::decode(self.buf, &mut pos)
            .map_err(|e| BdbmsError::corrupt(e.message().to_string()))?;
        self.pos = pos;
        Ok(v)
    }

    pub fn values(&mut self) -> Result<Vec<Value>> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            out.push(self.value()?);
        }
        Ok(out)
    }

    pub fn u64s(&mut self) -> Result<Vec<u64>> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    pub fn strs(&mut self) -> Result<Vec<String>> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            out.push(self.str()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_bool(&mut out, true);
        put_u16(&mut out, 513);
        put_u32(&mut out, 70_000);
        put_u64(&mut out, u64::MAX - 1);
        put_str(&mut out, "géne");
        put_opt_str(&mut out, None);
        put_opt_str(&mut out, Some("x"));
        put_values(&mut out, &[Value::Int(-3), Value::Null]);
        put_u64s(&mut out, &[1, 2, 3]);
        put_strs(&mut out, &["a".into(), "b".into()]);
        let mut c = Cur::new(&out);
        assert_eq!(c.u8().unwrap(), 7);
        assert!(c.bool().unwrap());
        assert_eq!(c.u16().unwrap(), 513);
        assert_eq!(c.u32().unwrap(), 70_000);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.str().unwrap(), "géne");
        assert_eq!(c.opt_str().unwrap(), None);
        assert_eq!(c.opt_str().unwrap(), Some("x".into()));
        assert_eq!(c.values().unwrap(), vec![Value::Int(-3), Value::Null]);
        assert_eq!(c.u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(c.strs().unwrap(), vec!["a".to_string(), "b".to_string()]);
        assert!(c.is_empty());
    }

    #[test]
    fn truncation_is_corrupt_not_panic() {
        let mut out = Vec::new();
        put_str(&mut out, "hello");
        out.truncate(6);
        let mut c = Cur::new(&out);
        let err = c.str().unwrap_err();
        assert_eq!(err.code(), ErrorCode::Corrupt);
        let mut c = Cur::new(&[1, 0, 0]);
        assert_eq!(c.u64().unwrap_err().code(), ErrorCode::Corrupt);
        // a value cut short inside its payload is Corrupt too, not the
        // Storage code `Value::decode` itself reports
        let mut out = Vec::new();
        put_values(&mut out, &[Value::Int(42)]);
        out.truncate(out.len() - 1);
        assert_eq!(
            Cur::new(&out).values().unwrap_err().code(),
            ErrorCode::Corrupt
        );
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any reader sequence over any bytes: errors, never panics,
        /// and the length sanity cap keeps `with_capacity` bounded.
        #[test]
        fn cursor_never_panics(
            bytes in prop::collection::vec(any::<u8>(), 0..128),
            ops in prop::collection::vec(0u8..10, 1..16),
        ) {
            let mut c = Cur::new(&bytes);
            for op in ops {
                let _ = match op {
                    0 => c.u8().map(|_| ()),
                    1 => c.bool().map(|_| ()),
                    2 => c.u16().map(|_| ()),
                    3 => c.u32().map(|_| ()),
                    4 => c.u64().map(|_| ()),
                    5 => c.str().map(|_| ()),
                    6 => c.opt_str().map(|_| ()),
                    7 => c.values().map(|_| ()),
                    8 => c.u64s().map(|_| ()),
                    _ => c.strs().map(|_| ()),
                };
            }
        }
    }
}
