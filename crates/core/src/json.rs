//! JSON string escaping, shared by every crate that writes JSON by hand
//! (the workspace carries no serde). It lives this low in the dependency
//! graph so the telemetry exporter and the analysis/store/bench emitters
//! (through `swmon_analysis::json`, which also holds the parser) use one
//! escaper: property names come from the DSL, whose string lexer accepts
//! any character but `"`.

/// Escape a string per JSON rules: quotes, backslashes and every control
/// character below U+0020.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
