//! Dynamically-typed SQL values with SQLite-like coercion semantics.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{SqlError, SqlResult};

/// A single SQL value.
///
/// The engine follows SQLite's storage-class model: integers and reals are
/// distinct but compare numerically against each other, text compares
/// lexicographically, and `NULL` participates in three-valued logic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL `NULL`.
    Null,
    /// 64-bit signed integer.
    Integer(i64),
    /// 64-bit float.
    Real(f64),
    /// UTF-8 text.
    Text(String),
}

impl Value {
    /// Builds a text value from anything string-like.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Returns `true` if the value is `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one.
    ///
    /// Text is *not* implicitly parsed: `'12'` is text, matching the way the
    /// BIRD databases store coded values.
    pub fn as_f64(&self) -> Option<f64> {
        CellRef::from(self).as_f64()
    }

    /// Integer view of the value, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// Text view of the value, if it is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// SQL truthiness: `NULL` is unknown, numbers are true when non-zero,
    /// text is true when non-empty and not `"0"`.
    pub fn to_truth(&self) -> Truth {
        CellRef::from(self).truth()
    }

    /// Builds a value from a boolean (SQL integers 0/1).
    pub fn from_bool(b: bool) -> Self {
        Value::Integer(if b { 1 } else { 0 })
    }

    /// Coerces the value into a number for arithmetic, following SQLite's
    /// permissive CAST behaviour (text parses its numeric prefix, NULL stays
    /// NULL).
    pub fn coerce_numeric(&self) -> Value {
        match self {
            Value::Null => Value::Null,
            Value::Integer(i) => Value::Integer(*i),
            Value::Real(r) => Value::Real(*r),
            Value::Text(s) => parse_numeric_prefix(s),
        }
    }

    /// Compares two values with SQL semantics, returning `None` when either
    /// side is `NULL`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Text(a), b) => {
                // Mixed text/number: try numeric comparison if the text parses.
                match a.parse::<f64>() {
                    Ok(x) => b.as_f64().map(|y| cmp_f64(x, y)),
                    Err(_) => Some(Ordering::Greater), // text sorts after numbers (SQLite)
                }
            }
            (a, Value::Text(b)) => match b.parse::<f64>() {
                Ok(y) => a.as_f64().map(|x| cmp_f64(x, y)),
                Err(_) => Some(Ordering::Less),
            },
            (a, b) => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                Some(cmp_f64(x, y))
            }
        }
    }

    /// Total ordering used for `ORDER BY` and `GROUP BY`: `NULL` sorts first,
    /// then numbers, then text.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        CellRef::from(self).total_cmp(CellRef::from(other))
    }

    /// Equality as used by `GROUP BY`/`DISTINCT`/result comparison: NULLs are
    /// equal to each other, numbers compare numerically, text exactly.
    pub fn grouping_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }

    /// Renders the value the way SQLite's shell would.
    pub fn render(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            v => {
                let mut out = String::new();
                CellRef::from(v).render_into(&mut out);
                out
            }
        }
    }

    /// Arithmetic helper shared by the expression evaluator.
    pub fn arith(&self, op: ArithOp, other: &Value) -> SqlResult<Value> {
        let a = self.coerce_numeric();
        let b = other.coerce_numeric();
        if a.is_null() || b.is_null() {
            return Ok(Value::Null);
        }
        // Integer arithmetic stays integral except for division.
        if let (Value::Integer(x), Value::Integer(y)) = (&a, &b) {
            return Ok(match op {
                ArithOp::Add => Value::Integer(x.wrapping_add(*y)),
                ArithOp::Sub => Value::Integer(x.wrapping_sub(*y)),
                ArithOp::Mul => Value::Integer(x.wrapping_mul(*y)),
                ArithOp::Div => {
                    if *y == 0 {
                        Value::Null
                    } else {
                        // SQLite's `/` on integers is integer division; BIRD gold SQL
                        // frequently relies on CAST(... AS REAL) to avoid it.
                        Value::Integer(x / y)
                    }
                }
                ArithOp::Mod => {
                    if *y == 0 {
                        Value::Null
                    } else {
                        Value::Integer(x % y)
                    }
                }
            });
        }
        let x = a.as_f64().ok_or_else(|| SqlError::Type("non-numeric operand".into()))?;
        let y = b.as_f64().ok_or_else(|| SqlError::Type("non-numeric operand".into()))?;
        Ok(match op {
            ArithOp::Add => Value::Real(x + y),
            ArithOp::Sub => Value::Real(x - y),
            ArithOp::Mul => Value::Real(x * y),
            ArithOp::Div => {
                if y == 0.0 {
                    Value::Null
                } else {
                    Value::Real(x / y)
                }
            }
            ArithOp::Mod => {
                if y == 0.0 {
                    Value::Null
                } else {
                    Value::Real(x % y)
                }
            }
        })
    }
}

/// A borrowed view of one [`Value`] or column cell: copied for numbers,
/// borrowed for text, so comparing or hashing a cell never clones it. The
/// batch kernels' working currency.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CellRef<'a> {
    Null,
    Int(i64),
    Real(f64),
    Text(&'a str),
}

impl<'a> From<&'a Value> for CellRef<'a> {
    #[inline]
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => CellRef::Null,
            Value::Integer(i) => CellRef::Int(*i),
            Value::Real(r) => CellRef::Real(*r),
            Value::Text(s) => CellRef::Text(s),
        }
    }
}

impl CellRef<'_> {
    /// Numeric view, like [`Value::as_f64`]: text is not parsed.
    #[inline]
    pub(crate) fn as_f64(self) -> Option<f64> {
        match self {
            CellRef::Int(i) => Some(i as f64),
            CellRef::Real(r) => Some(r),
            _ => None,
        }
    }

    /// [`Value::to_truth`]: NULL is unknown, numbers are true when
    /// non-zero, text when non-empty and not `"0"`.
    #[inline]
    pub(crate) fn truth(self) -> Truth {
        match self {
            CellRef::Null => Truth::Unknown,
            CellRef::Int(i) => Truth::from_bool(i != 0),
            CellRef::Real(r) => Truth::from_bool(r != 0.0),
            CellRef::Text(s) => Truth::from_bool(!s.is_empty() && s != "0"),
        }
    }

    /// Appends the cell's [`Value::render`] text to `out`, so a caller
    /// rendering many numbers reuses one buffer.
    pub(crate) fn render_into(self, out: &mut String) {
        use std::fmt::Write;
        let written = match self {
            CellRef::Null => out.write_str("NULL"),
            CellRef::Int(i) => write!(out, "{i}"),
            CellRef::Real(r) if r.fract() == 0.0 && r.abs() < 1e15 => write!(out, "{r:.1}"),
            CellRef::Real(r) => write!(out, "{r}"),
            CellRef::Text(s) => out.write_str(s),
        };
        written.expect("writing to a String cannot fail");
    }

    /// The cell as an owned [`Value`].
    pub(crate) fn to_value(self) -> Value {
        match self {
            CellRef::Null => Value::Null,
            CellRef::Int(i) => Value::Integer(i),
            CellRef::Real(r) => Value::Real(r),
            CellRef::Text(s) => Value::Text(s.to_string()),
        }
    }

    /// [`Value::total_cmp`]: `NULL` first, then numbers (through
    /// [`cmp_f64`]), then text.
    #[inline]
    pub(crate) fn total_cmp(self, other: CellRef<'_>) -> Ordering {
        fn rank(c: CellRef<'_>) -> u8 {
            match c {
                CellRef::Null => 0,
                CellRef::Int(_) | CellRef::Real(_) => 1,
                CellRef::Text(_) => 2,
            }
        }
        match (self, other) {
            (CellRef::Null, CellRef::Null) => Ordering::Equal,
            (CellRef::Text(a), CellRef::Text(b)) => a.cmp(b),
            (a, b) if rank(a) == 1 && rank(b) == 1 => {
                cmp_f64(a.as_f64().unwrap(), b.as_f64().unwrap())
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.grouping_eq(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Integer(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
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
        Value::from_bool(v)
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Three-valued SQL logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    True,
    False,
    Unknown,
}

impl Truth {
    pub fn from_bool(b: bool) -> Self {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    pub fn to_value(self) -> Value {
        match self {
            Truth::True => Value::Integer(1),
            Truth::False => Value::Integer(0),
            Truth::Unknown => Value::Null,
        }
    }

    pub fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    pub fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// `WHERE` keeps only rows whose predicate is definitely true.
    pub fn is_true(self) -> bool {
        self == Truth::True
    }
}

/// Float comparison with `sql_cmp`'s NaN quirk: `partial_cmp`'s `None`
/// (a NaN operand) collapses to `Equal`, so NaN compares equal to every
/// number. Shared with the columnar batch kernels ([`crate::columnar`]),
/// which must reproduce this bit for bit.
pub(crate) fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// Parses the longest numeric prefix of a string, like SQLite's CAST to NUMERIC.
fn parse_numeric_prefix(s: &str) -> Value {
    let t = s.trim();
    if let Ok(i) = t.parse::<i64>() {
        return Value::Integer(i);
    }
    if let Ok(r) = t.parse::<f64>() {
        return Value::Real(r);
    }
    // Longest prefix that parses as a float.
    let mut end = 0usize;
    let bytes = t.as_bytes();
    let mut seen_digit = false;
    let mut seen_dot = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'-' | b'+' if i == 0 => end = i + 1,
            b'0'..=b'9' => {
                seen_digit = true;
                end = i + 1;
            }
            b'.' if !seen_dot => {
                seen_dot = true;
                end = i + 1;
            }
            _ => break,
        }
    }
    if !seen_digit {
        return Value::Integer(0);
    }
    let prefix = &t[..end];
    if let Ok(i) = prefix.parse::<i64>() {
        Value::Integer(i)
    } else if let Ok(r) = prefix.parse::<f64>() {
        Value::Real(r)
    } else {
        Value::Integer(0)
    }
}

/// SQL `LIKE` matching with `%` and `_` wildcards, case-insensitive per
/// character (see [`LikePattern`]). Compiles `pattern` and matches once;
/// callers matching one pattern against many texts compile it themselves.
pub fn like_match(pattern: &str, text: &str) -> bool {
    LikePattern::new(pattern).matches(text)
}

/// One element of a compiled [`LikePattern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LikeTok {
    /// `%`: any run of characters, the empty run included.
    Any,
    /// `_`: exactly one character.
    One,
    /// Any other character: matches itself, case-folded.
    Char(char),
}

/// A compiled SQL `LIKE` pattern. Every `%` and `_` is a wildcard (there is
/// no escape character), and a literal character matches a text character
/// when their `char::to_lowercase` sequences are equal — so the Kelvin sign
/// `K` matches `k`, but `İ` (which lowercases to two characters) matches
/// neither `i` nor `I`.
///
/// Matching is the two-pointer wildcard algorithm: it walks the text once,
/// keeping a single backtrack point, the last `%` seen. A mismatch after it
/// extends that `%`'s run by one character and retries the tokens after it;
/// earlier `%`s never need revisiting, because each run of literal tokens
/// is matched at its leftmost position. So a match costs
/// O(|pattern| · |text|) and allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LikePattern {
    toks: Vec<LikeTok>,
}

impl LikePattern {
    /// Compiles `pattern`. Consecutive `%`s collapse into one.
    pub fn new(pattern: &str) -> Self {
        let mut toks = Vec::with_capacity(pattern.len());
        for c in pattern.chars() {
            let tok = match c {
                '%' => LikeTok::Any,
                '_' => LikeTok::One,
                c => LikeTok::Char(c),
            };
            if !(tok == LikeTok::Any && toks.last() == Some(&LikeTok::Any)) {
                toks.push(tok);
            }
        }
        LikePattern { toks }
    }

    /// True when the whole of `text` matches the pattern.
    pub fn matches(&self, text: &str) -> bool {
        let toks = &self.toks;
        // `p` indexes tokens, `t` is a byte offset into `text`.
        let (mut p, mut t) = (0usize, 0usize);
        // The last `%` seen: the token after it, and the text offset where
        // its run currently ends.
        let mut star: Option<(usize, usize)> = None;
        loop {
            let c = char_at(text, t);
            match (toks.get(p), c) {
                (None, None) => return true,
                (Some(LikeTok::Any), _) => {
                    p += 1;
                    star = Some((p, t));
                    continue;
                }
                (Some(LikeTok::One), Some(c)) => {
                    p += 1;
                    t += c.len_utf8();
                    continue;
                }
                (Some(LikeTok::Char(pc)), Some(c)) if chars_match(*pc, c) => {
                    p += 1;
                    t += c.len_utf8();
                    continue;
                }
                _ => {}
            }
            // Mismatch: give the last `%` one more character, or fail.
            let Some((after, end)) = star else { return false };
            let Some(c) = char_at(text, end) else { return false };
            t = end + c.len_utf8();
            p = after;
            star = Some((after, t));
        }
    }
}

/// The character starting at byte offset `t`, decoded without re-walking
/// the string for ASCII text.
#[inline]
fn char_at(text: &str, t: usize) -> Option<char> {
    match text.as_bytes().get(t) {
        None => None,
        Some(&b) if b.is_ascii() => Some(b as char),
        Some(_) => text[t..].chars().next(),
    }
}

/// `LIKE`'s per-character equality: ASCII pairs compare case-insensitively
/// in place; any other pair compares its `char::to_lowercase` sequences.
#[inline]
fn chars_match(p: char, t: char) -> bool {
    if p.is_ascii() && t.is_ascii() {
        p.eq_ignore_ascii_case(&t)
    } else {
        p.to_lowercase().eq(t.to_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_in_comparison() {
        assert_eq!(Value::Null.sql_cmp(&Value::Integer(1)), None);
        assert_eq!(Value::Integer(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn numeric_comparison_across_types() {
        assert_eq!(Value::Integer(2).sql_cmp(&Value::Real(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Real(1.5).sql_cmp(&Value::Integer(2)), Some(Ordering::Less));
    }

    #[test]
    fn text_comparison_is_lexicographic() {
        assert_eq!(Value::text("Alameda").sql_cmp(&Value::text("Fresno")), Some(Ordering::Less));
        assert_eq!(
            Value::text("restricted").sql_cmp(&Value::text("Restricted")),
            Some(Ordering::Greater),
            "comparison is case sensitive, which is what makes BIRD case errors matter"
        );
    }

    #[test]
    fn truth_table_three_valued() {
        use Truth::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.not(), Unknown);
    }

    #[test]
    fn arithmetic_integer_division_truncates() {
        let v = Value::Integer(7).arith(ArithOp::Div, &Value::Integer(2)).unwrap();
        assert_eq!(v, Value::Integer(3));
        let v = Value::Real(7.0).arith(ArithOp::Div, &Value::Integer(2)).unwrap();
        assert_eq!(v, Value::Real(3.5));
    }

    #[test]
    fn division_by_zero_is_null() {
        let v = Value::Integer(7).arith(ArithOp::Div, &Value::Integer(0)).unwrap();
        assert!(v.is_null());
    }

    #[test]
    fn arithmetic_with_null_is_null() {
        let v = Value::Null.arith(ArithOp::Add, &Value::Integer(2)).unwrap();
        assert!(v.is_null());
    }

    #[test]
    fn text_numeric_prefix_coercion() {
        assert_eq!(Value::text("12abc").coerce_numeric(), Value::Integer(12));
        assert_eq!(Value::text("3.5x").coerce_numeric(), Value::Real(3.5));
        assert_eq!(Value::text("abc").coerce_numeric(), Value::Integer(0));
    }

    /// The original recursive matcher, kept as the reference
    /// [`LikePattern`] is checked against. Exponential on patterns with many
    /// `%`s; only ever called on short strings.
    fn like_match_reference(pattern: &str, text: &str) -> bool {
        fn inner(p: &[char], t: &[char]) -> bool {
            if p.is_empty() {
                return t.is_empty();
            }
            match p[0] {
                '%' => {
                    if inner(&p[1..], t) {
                        return true;
                    }
                    (1..=t.len()).any(|k| inner(&p[1..], &t[k..]))
                }
                '_' => !t.is_empty() && inner(&p[1..], &t[1..]),
                c => {
                    !t.is_empty()
                        && c.to_lowercase().eq(t[0].to_lowercase())
                        && inner(&p[1..], &t[1..])
                }
            }
        }
        let p: Vec<char> = pattern.chars().collect();
        let t: Vec<char> = text.chars().collect();
        inner(&p, &t)
    }

    proptest::proptest! {
        /// The compiled matcher agrees with the recursive reference on short
        /// strings over the wildcards, ASCII letters, and characters whose
        /// case mappings are irregular: `İ` lowercases to two characters,
        /// `ß` uppercases to two, `ſ` uppercases to `S`, and the Kelvin sign
        /// lowercases to `k`. Each generated pair is also checked at every
        /// text suffix, to cover more alignments per case.
        #[test]
        fn like_pattern_matches_the_recursive_reference(
            pattern in "[%_aAbBkKsSiIİßſ\u{212A}]{0,8}",
            text in "[aAbBkKsSiIİßſ\u{212A}]{0,10}"
        ) {
            let compiled = LikePattern::new(&pattern);
            for (start, _) in text.char_indices().chain(std::iter::once((text.len(), ' '))) {
                let t = &text[start..];
                proptest::prop_assert_eq!(
                    compiled.matches(t),
                    like_match_reference(&pattern, t),
                    "{:?} LIKE {:?}", t, pattern
                );
            }
        }
    }

    #[test]
    fn like_folds_case_per_character() {
        assert!(like_match("k", "\u{212A}"), "the Kelvin sign lowercases to k");
        assert!(like_match("\u{212A}", "K"));
        assert!(!like_match("i", "İ"), "İ lowercases to two characters");
        assert!(!like_match("s", "ſ"), "ſ is its own lowercase");
        assert!(like_match("ß", "ß"));
        assert!(like_match("_", "İ"), "_ consumes one character, not one byte");
        assert!(like_match("%%a%%", "bab"), "runs of % collapse");
        assert!(!like_match("a%", ""));
        assert!(like_match("%", ""));
    }

    #[test]
    fn like_matching_wildcards() {
        assert!(like_match("%Fremont%", "Fremont Unified"));
        assert!(like_match("POPLATEK%", "POPLATEK TYDNE"));
        assert!(like_match("_at", "cat"));
        assert!(!like_match("_at", "cart"));
        assert!(like_match("fremont", "FREMONT"), "LIKE is case-insensitive");
    }

    #[test]
    fn render_matches_sqlite_style() {
        assert_eq!(Value::Integer(5).render(), "5");
        assert_eq!(Value::Real(2.0).render(), "2.0");
        assert_eq!(Value::Null.render(), "NULL");
        assert_eq!(Value::text("x").render(), "x");
    }

    #[test]
    fn grouping_treats_nulls_as_equal() {
        assert!(Value::Null.grouping_eq(&Value::Null));
        assert!(!Value::Null.grouping_eq(&Value::Integer(0)));
    }

    #[test]
    fn total_order_ranks_null_numbers_text() {
        let mut vals = [Value::text("z"), Value::Integer(3), Value::Null, Value::Real(1.5)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Real(1.5));
        assert_eq!(vals[2], Value::Integer(3));
        assert_eq!(vals[3], Value::text("z"));
    }
}
