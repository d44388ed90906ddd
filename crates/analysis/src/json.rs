//! Minimal JSON encode/decode for diagnostics.
//!
//! The build environment is offline, so the workspace carries no serde;
//! diagnostics are small flat records, and a few dozen lines of
//! recursive-descent parsing buy us a machine-readable interchange format
//! that round-trips ([`diags_to_json`] / [`diags_from_json`]) and is easy
//! for CI to consume (`jq`, Python, anything).
//!
//! The encoder emits a stable field order so JSON output is byte-for-byte
//! deterministic for a given diagnostic list.

use crate::diag::{Code, Diagnostic, Locus, Position, Severity, Summary};

/// A parsed JSON value — just enough of the data model for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number; diagnostics only use unsigned integers.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as usize, if this is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

pub use swmon_core::json::escape;

fn opt_usize(v: Option<usize>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

fn opt_str(v: &Option<String>) -> String {
    match v {
        Some(s) => format!("\"{}\"", escape(s)),
        None => "null".to_string(),
    }
}

fn position_to_json(p: &Position) -> String {
    match p {
        Position::Property => "{\"kind\":\"property\"}".to_string(),
        Position::Stage => "{\"kind\":\"stage\"}".to_string(),
        Position::Guard { atom } => format!("{{\"kind\":\"guard\",\"atom\":{atom}}}"),
        Position::Unless { clause } => format!("{{\"kind\":\"unless\",\"clause\":{clause}}}"),
        Position::Window => "{\"kind\":\"window\"}".to_string(),
    }
}

/// Encode one diagnostic as a JSON object.
pub fn diag_to_json(d: &Diagnostic) -> String {
    format!(
        "{{\"code\":\"{}\",\"severity\":\"{}\",\"property\":\"{}\",\"stage\":{},\"stage_name\":{},\"position\":{},\"line\":{},\"message\":\"{}\",\"suggestion\":{}}}",
        d.code.as_str(),
        d.severity.as_str(),
        escape(&d.locus.property),
        opt_usize(d.locus.stage),
        opt_str(&d.locus.stage_name),
        position_to_json(&d.locus.position),
        opt_usize(d.locus.line),
        escape(&d.message),
        opt_str(&d.suggestion),
    )
}

/// Encode a diagnostic list (with a summary header) as a JSON document.
pub fn diags_to_json(diags: &[Diagnostic]) -> String {
    let s = Summary::of(diags);
    let mut out = format!(
        "{{\"summary\":{{\"errors\":{},\"warnings\":{},\"perf\":{},\"notes\":{}}},\"diagnostics\":[",
        s.errors, s.warnings, s.perf, s.notes
    );
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str("  ");
        out.push_str(&diag_to_json(d));
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push_str("]}");
    out
}

/// Parse error: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub what: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.what)
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, what: &str) -> Result<T, ParseError> {
        Err(ParseError { at: self.pos, what: what.to_string() })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.src.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.src[self.pos..self.pos + 4])
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(cp) = hex else {
                                return self.err("bad \\u escape");
                            };
                            self.pos += 4;
                            // Diagnostics never emit surrogate pairs (only
                            // control chars are \u-escaped), so a lone BMP
                            // code point is all we accept.
                            match char::from_u32(cp) {
                                Some(ch) => out.push(ch),
                                None => return self.err("\\u escape is not a scalar value"),
                            }
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                c if c < 0x20 => return self.err("raw control character in string"),
                _ => {
                    // Re-sync to char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let len = utf8_len(c);
                    if start + len > self.src.len() {
                        return self.err("truncated UTF-8");
                    }
                    match std::str::from_utf8(&self.src[start..start + len]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = start + len;
                        }
                        Err(_) => return self.err("invalid UTF-8"),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("");
        match text.parse::<f64>() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => self.err("bad number"),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xF0..=0xF7 => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

/// Parse a JSON document into a [`Value`].
pub fn parse(src: &str) -> Result<Value, ParseError> {
    let mut p = Parser { src: src.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return p.err("trailing garbage after document");
    }
    Ok(v)
}

fn opt_string_field(v: &Value, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("field '{key}' is not a string")),
    }
}

fn opt_usize_field(v: &Value, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(n) => n.as_usize().map(Some).ok_or_else(|| format!("field '{key}' is not an integer")),
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    opt_string_field(v, key)?.ok_or_else(|| format!("missing field '{key}'"))
}

fn position_from(v: &Value) -> Result<Position, String> {
    let kind = str_field(v, "kind")?;
    match kind.as_str() {
        "property" => Ok(Position::Property),
        "stage" => Ok(Position::Stage),
        "guard" => Ok(Position::Guard {
            atom: opt_usize_field(v, "atom")?.ok_or("guard position missing 'atom'")?,
        }),
        "unless" => Ok(Position::Unless {
            clause: opt_usize_field(v, "clause")?.ok_or("unless position missing 'clause'")?,
        }),
        "window" => Ok(Position::Window),
        other => Err(format!("unknown position kind '{other}'")),
    }
}

/// Decode one diagnostic from a parsed JSON object.
pub fn diag_from_value(v: &Value) -> Result<Diagnostic, String> {
    let code = Code::parse(&str_field(v, "code")?).ok_or("unknown diagnostic code")?;
    let severity = Severity::parse(&str_field(v, "severity")?).ok_or("unknown severity")?;
    let position = position_from(v.get("position").ok_or("missing field 'position'")?)?;
    Ok(Diagnostic {
        code,
        severity,
        locus: Locus {
            property: str_field(v, "property")?,
            stage: opt_usize_field(v, "stage")?,
            stage_name: opt_string_field(v, "stage_name")?,
            position,
            line: opt_usize_field(v, "line")?,
        },
        message: str_field(v, "message")?,
        suggestion: opt_string_field(v, "suggestion")?,
    })
}

/// Decode a full document produced by [`diags_to_json`].
pub fn diags_from_json(src: &str) -> Result<Vec<Diagnostic>, String> {
    let doc = parse(src).map_err(|e| e.to_string())?;
    let arr = doc
        .get("diagnostics")
        .and_then(Value::as_arr)
        .ok_or("document has no 'diagnostics' array")?;
    arr.iter().map(diag_from_value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                code: Code::UnboundVar,
                severity: Severity::Error,
                locus: Locus {
                    property: "bad \"quoted\"\nname".into(),
                    stage: Some(2),
                    stage_name: Some("reply".into()),
                    position: Position::Guard { atom: 1 },
                    line: Some(7),
                },
                message: "variable Z is read but never bound".into(),
                suggestion: Some("bind Z in an earlier stage".into()),
            },
            Diagnostic {
                code: Code::RoutingPin,
                severity: Severity::Perf,
                locus: Locus {
                    property: "p2".into(),
                    stage: None,
                    stage_name: None,
                    position: Position::Property,
                    line: None,
                },
                message: "pinned to one shard".into(),
                suggestion: None,
            },
            Diagnostic {
                code: Code::DeadTimeout,
                severity: Severity::Warning,
                locus: Locus {
                    property: "p3".into(),
                    stage: Some(0),
                    stage_name: Some("s".into()),
                    position: Position::Window,
                    line: None,
                },
                message: "unicode ünïcode ✓".into(),
                suggestion: None,
            },
        ]
    }

    #[test]
    fn round_trip() {
        let diags = sample();
        let json = diags_to_json(&diags);
        let back = diags_from_json(&json).expect("parse back");
        assert_eq!(diags, back);
    }

    #[test]
    fn round_trip_empty() {
        let json = diags_to_json(&[]);
        assert_eq!(diags_from_json(&json).unwrap(), Vec::new());
    }

    #[test]
    fn encoder_is_deterministic() {
        assert_eq!(diags_to_json(&sample()), diags_to_json(&sample()));
    }

    #[test]
    fn summary_is_in_document() {
        let json = diags_to_json(&sample());
        let doc = parse(&json).unwrap();
        let summary = doc.get("summary").unwrap();
        assert_eq!(summary.get("errors").unwrap().as_usize(), Some(1));
        assert_eq!(summary.get("warnings").unwrap().as_usize(), Some(1));
        assert_eq!(summary.get("perf").unwrap().as_usize(), Some(1));
        assert_eq!(summary.get("notes").unwrap().as_usize(), Some(0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(diags_from_json("not json").is_err());
        assert!(diags_from_json("{}").is_err());
        assert!(diags_from_json("{\"diagnostics\":[{\"code\":\"SW999\"}]}").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
    }

    #[test]
    fn escapes_control_chars() {
        let e = escape("a\"b\\c\nd\u{1}");
        assert_eq!(e, "a\\\"b\\\\c\\nd\\u0001");
        let v = parse(&format!("\"{e}\"")).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{1}"));
    }
}
