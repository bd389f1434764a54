//! 64-bit digests of outputs, so oracles can compare results without
//! keeping them.

use seed_sqlengine::{ResultSet, SqlError, Value};

/// FNV-1a over a sequence of byte strings, each length-prefixed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn text(s: &str) -> u64 {
    Digest::new().bytes(s.as_bytes()).finish()
}

fn value(d: Digest, v: &Value) -> Digest {
    match v {
        Value::Null => d.bytes(b"n"),
        Value::Integer(i) => d.bytes(b"i").bytes(&i.to_le_bytes()),
        Value::Real(r) => d.bytes(b"r").bytes(&r.to_bits().to_le_bytes()),
        Value::Text(s) => d.bytes(b"t").bytes(s.as_bytes()),
    }
}

fn rows_into(mut d: Digest, rows: &[Vec<Value>]) -> Digest {
    for row in rows {
        d = d.bytes(b"|");
        for v in row {
            d = value(d, v);
        }
    }
    d
}

/// Columns and rows in order, every value exactly.
pub fn rows(rs: &ResultSet) -> u64 {
    let d = rs.columns.iter().fold(Digest::new(), |d, c| d.bytes(c.as_bytes()));
    rows_into(d, &rs.rows).finish()
}

/// Stored rows in order, every value exactly.
pub fn table(rows: &[Vec<Value>]) -> u64 {
    rows_into(Digest::new(), rows).finish()
}

/// Rows as a multiset, compared the way execution accuracy compares them
/// ([`ResultSet::fingerprint`]).
pub fn multiset(rs: &ResultSet) -> u64 {
    rs.fingerprint().iter().fold(Digest::new(), |d, r| d.bytes(r.as_bytes())).finish()
}

/// An execution outcome: its rows, or its error.
pub fn outcome(result: Result<&ResultSet, &SqlError>) -> u64 {
    match result {
        Ok(rs) => rows(rs),
        Err(e) => Digest::new().bytes(b"error").bytes(e.to_string().as_bytes()).finish(),
    }
}
