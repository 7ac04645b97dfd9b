//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`from_str`] and [`Error`]. Works over the serde shim's
//! [`serde::value::Value`] tree.
//!
//! Numbers print with Rust's shortest-round-trip float formatting, so every
//! `f32`/`f64` survives a save/load cycle bit-exactly (non-finite floats
//! become `null`, as in the real crate).

use serde::de::DeserializeOwned;
use serde::value::{Number, Value};
use serde::Serialize;

/// JSON (de)serialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error(e.0)
    }
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Deserialize from a JSON string.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T, Error> {
    let value = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    }
    .parse_document()?;
    Ok(T::from_value(&value)?)
}

// ---- writer -------------------------------------------------------------

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(n, out),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, fv)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(fv, out);
            }
            out.push('}');
        }
    }
}

fn write_number(n: &Number, out: &mut String) {
    use std::fmt::Write;
    match *n {
        Number::U(u) => write!(out, "{u}").unwrap(),
        Number::I(i) => write!(out, "{i}").unwrap(),
        Number::F(f) if f.is_finite() => {
            // Keep a syntactic marker that this is a float so integers and
            // floats stay distinguishable after a round trip.
            if f == f.trunc() && f.abs() < 1e15 {
                write!(out, "{f:.1}").unwrap()
            } else {
                write!(out, "{f}").unwrap()
            }
        }
        Number::F(_) => out.push_str("null"),
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser -------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("JSON parse error at byte {}: {msg}", self.pos))
    }

    fn parse_document(mut self) -> Result<Value, Error> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.expect(b':')?;
                    fields.push((key, self.parse_value()?));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.err(&format!("unexpected byte `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.eat_keyword("\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Consume the plain run up to the next `"` or `\` in one
                    // validation. Both are ASCII, and an ASCII byte never
                    // occurs inside a multi-byte UTF-8 sequence, so the run
                    // ends on a code-point boundary.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let s =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Num(Number::U(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Num(Number::I(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Num(Number::F(f)))
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(from_str::<u64>(&to_string(&123u64).unwrap()).unwrap(), 123);
        assert_eq!(from_str::<i32>(&to_string(&-5i32).unwrap()).unwrap(), -5);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn float_round_trips_exactly() {
        for &x in &[0.1f32, 1.0, -2.5e-8, std::f32::consts::PI, f32::MAX] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<f32>(&s).unwrap(), x, "through {s}");
        }
        for &x in &[0.1f64, 1e300, -7.0] {
            let s = to_string(&x).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap(), x, "through {s}");
        }
    }

    #[test]
    fn nested_containers_round_trip() {
        let v: Vec<Vec<f32>> = vec![vec![1.0, 2.5], vec![], vec![-3.25]];
        let s = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<Vec<f32>>>(&s).unwrap(), v);
        let m: std::collections::HashMap<String, u32> =
            [("a".to_string(), 1u32), ("b".to_string(), 2)]
                .into_iter()
                .collect();
        assert_eq!(
            from_str::<std::collections::HashMap<String, u32>>(&to_string(&m).unwrap()).unwrap(),
            m
        );
    }

    #[test]
    fn unicode_strings_round_trip() {
        for s in [
            "héllo wörld",
            "日本語",
            "emoji 🎉 done",
            "quote \" slash \\ tab \t",
        ] {
            let json = to_string(&s.to_string()).unwrap();
            assert_eq!(from_str::<String>(&json).unwrap(), s);
        }
        // Escaped input forms parse too.
        assert_eq!(from_str::<String>("\"\\u00e9\"").unwrap(), "é");
        assert_eq!(from_str::<String>("\"\\ud83c\\udf89\"").unwrap(), "🎉");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // ~1 MB of mixed ASCII and multi-byte text with escapes sprinkled
        // in: re-validating the rest of the document per character would
        // take tens of seconds here.
        let s = "plain ascii, straße 日本語 🎉 \"quoted\" back\\slash\n".repeat(20_000);
        assert!(s.len() > 1_000_000);
        let json = to_string(&s).unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        let elapsed = t0.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "parsing took {elapsed:?}"
        );
    }

    #[test]
    fn invalid_utf8_in_a_string_is_rejected() {
        let bytes = b"\"ab\xffcd\"";
        let err = Parser { bytes, pos: 0 }.parse_document().unwrap_err();
        assert!(err.to_string().contains("invalid UTF-8"), "{err}");
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<u32>("{").is_err());
        assert!(from_str::<u32>("12 34").is_err());
        assert!(from_str::<u32>("\"nope\"").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f32::NAN).unwrap(), "null");
        assert!(from_str::<f32>("null").unwrap().is_nan());
    }
}
