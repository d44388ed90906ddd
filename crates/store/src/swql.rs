//! SWQL — the store's datalog-ish query language.
//!
//! A query is a **conjunction of atoms** with a top-level `or` across
//! conjunctive branches (a union of conjunctive queries, AxQL-style):
//!
//! ```text
//! query  := branch ( "or" branch )*
//! branch := atom ( "," atom )*
//! atom   := prop( NAME | * )       violations of one property (or any);
//!                                  NAME may be slash-pathed (fw/ret-drop)
//!         | bind( VAR, VALUE )     binding VAR equals VALUE
//!         | window( TIME, TIME )   violation time in the inclusive range
//!         | degraded( )            degraded-provenance violations only
//!         | shard( N )             discovered by shard N
//!         | epoch( E )             raised under catalog epoch E (deploy
//!                                  provenance; 0 = the initial property set)
//! VALUE  := UINT | a.b.c.d | aa:bb:cc:dd:ee:ff
//! TIME   := UINT [ ns | us | ms | s ]
//! ```
//!
//! The hand-rolled lexer/parser reports **spanned diagnostics with stable
//! codes** (`SQ000`–`SQ007`), rendered rustc-style or as JSON — the same
//! plumbing idiom as `swmon-analysis`'s `SW00x` diagnostics, reusing its
//! [`Severity`] scale and JSON escaping. Fixture tests pin every code and
//! span, so error output is a stable interface, not incidental text.
//!
//! `SQ000`–`SQ006` are parse errors (always gating: the query cannot run).
//! `SQ007` is a post-parse *warning* from [`validate_properties`]: a
//! `prop("...")` naming a property outside the monitored catalog matches
//! nothing, which is silently empty at execution time — the warning makes
//! the silence visible without blocking the query.

use std::fmt;

use swmon_analysis::Severity;
use swmon_core::json::escape;
use swmon_packet::{FieldValue, Ipv4Address, MacAddr};

/// A half-open byte range `[start, end)` into the query source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First byte of the spanned text.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

impl Span {
    fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }
}

/// Stable SWQL diagnostic codes. The numbering is append-only: codes are
/// asserted by fixture tests and consumed by CI, so they never change
/// meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// SQ000: a character the lexer does not recognise.
    UnexpectedChar,
    /// SQ001: malformed query structure (expected/found).
    Syntax,
    /// SQ002: an atom name outside the SWQL vocabulary.
    UnknownAtom,
    /// SQ003: an atom applied to the wrong number of arguments.
    Arity,
    /// SQ004: a value or time literal that does not parse.
    BadLiteral,
    /// SQ005: a variable in value position — SWQL has no joins, so every
    /// `bind` compares against a constant.
    UnboundVar,
    /// SQ006: a `window(a, b)` with `a > b`.
    ReversedWindow,
    /// SQ007: `prop(name)` where `name` is not a monitored property — the
    /// atom can only ever match the empty set. A warning, not an error:
    /// the query still runs (see [`validate_properties`]).
    UnknownProperty,
}

impl Code {
    /// The stable code string, e.g. `"SQ002"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::UnexpectedChar => "SQ000",
            Code::Syntax => "SQ001",
            Code::UnknownAtom => "SQ002",
            Code::Arity => "SQ003",
            Code::BadLiteral => "SQ004",
            Code::UnboundVar => "SQ005",
            Code::ReversedWindow => "SQ006",
            Code::UnknownProperty => "SQ007",
        }
    }

    /// Parse a code string back to the enum.
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// Every defined code, in numbering order.
    pub const ALL: &'static [Code] = &[
        Code::UnexpectedChar,
        Code::Syntax,
        Code::UnknownAtom,
        Code::Arity,
        Code::BadLiteral,
        Code::UnboundVar,
        Code::ReversedWindow,
        Code::UnknownProperty,
    ];
}

/// A spanned, coded SWQL parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// The stable diagnostic code.
    pub code: Code,
    /// Severity on the shared `swmon-analysis` scale. Parse errors
    /// (`SQ000`–`SQ006`) are always `Error` — a query that does not parse
    /// cannot run. Post-parse validation (`SQ007`) emits `Warning`: the
    /// query runs, but part of it provably matches nothing.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Byte span of the offending source text.
    pub span: Span,
    /// Optional fix-it hint.
    pub help: Option<String>,
}

impl QueryError {
    fn new(code: Code, message: impl Into<String>, span: Span) -> Self {
        QueryError { code, severity: Severity::Error, message: message.into(), span, help: None }
    }

    fn warning(code: Code, message: impl Into<String>, span: Span) -> Self {
        QueryError { code, severity: Severity::Warning, message: message.into(), span, help: None }
    }

    fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Rustc-style rendering with a caret line under the offending span.
    pub fn render(&self, src: &str) -> String {
        let mut out =
            format!("{}[{}]: {}\n", self.severity.as_str(), self.code.as_str(), self.message);
        let col = self.span.start.min(src.len());
        out.push_str(&format!("  --> <swql>:1:{}\n", col + 1));
        out.push_str("   |\n");
        out.push_str(&format!(" 1 | {src}\n"));
        let width = self.span.end.saturating_sub(self.span.start).max(1);
        out.push_str(&format!("   | {}{}\n", " ".repeat(col), "^".repeat(width)));
        if let Some(help) = &self.help {
            out.push_str(&format!("   = help: {help}\n"));
        }
        out
    }

    /// The error as a JSON object (stable field order).
    pub fn to_json(&self) -> String {
        let help = match &self.help {
            Some(h) => format!("\"{}\"", escape(h)),
            None => "null".to_string(),
        };
        format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"span\":{{\"start\":{},\"end\":{}}},\"help\":{}}}",
            self.code.as_str(),
            self.severity.as_str(),
            escape(&self.message),
            self.span.start,
            self.span.end,
            help
        )
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity.as_str(), self.code.as_str(), self.message)
    }
}

impl std::error::Error for QueryError {}

/// One SWQL atom — a single predicate over a stored violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// `prop(name)`, or `prop(*)` for any property (`None`).
    Prop(Option<String>),
    /// `bind(var, value)`: the violation's bindings map `var` to `value`.
    Bind(String, FieldValue),
    /// `window(a, b)`: violation time within the inclusive nanosecond range.
    Window(u64, u64),
    /// `degraded()`: degraded-provenance violations only.
    Degraded,
    /// `shard(s)`: discovered by shard `s`.
    Shard(u32),
    /// `epoch(e)`: raised under catalog epoch `e` (deploy provenance).
    Epoch(u64),
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Prop(None) => write!(f, "prop(*)"),
            Atom::Prop(Some(p)) => write!(f, "prop({p})"),
            Atom::Bind(v, val) => write!(f, "bind({v}, {val})"),
            Atom::Window(a, b) => write!(f, "window({a}, {b})"),
            Atom::Degraded => write!(f, "degraded()"),
            Atom::Shard(s) => write!(f, "shard({s})"),
            Atom::Epoch(e) => write!(f, "epoch({e})"),
        }
    }
}

/// One conjunctive branch: every atom must hold.
#[derive(Debug, Clone, PartialEq)]
pub struct Branch {
    /// The conjoined atoms with their source spans.
    pub atoms: Vec<(Atom, Span)>,
}

/// A parsed SWQL query: the union (`or`) of its branches.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The disjunctive branches, in source order.
    pub branches: Vec<Branch>,
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.branches.iter().enumerate() {
            if i > 0 {
                write!(f, " or ")?;
            }
            for (j, (a, _)) in b.atoms.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
        }
        Ok(())
    }
}

// ---- lexer --------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokKind {
    Word,
    LParen,
    RParen,
    Comma,
    Star,
}

#[derive(Debug, Clone)]
struct Token<'a> {
    kind: TokKind,
    span: Span,
    text: &'a str,
}

fn is_word_char(c: char) -> bool {
    // `/` is a word character because property names are slash-pathed
    // (e.g. `stateful-fw/return-not-dropped`).
    c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':' | '?' | '/')
}

fn lex(src: &str) -> Result<Vec<Token<'_>>, QueryError> {
    let mut out = Vec::new();
    let mut it = src.char_indices().peekable();
    while let Some(&(i, c)) = it.peek() {
        if c.is_whitespace() {
            it.next();
            continue;
        }
        let single = |kind| Token {
            kind,
            span: Span::new(i, i + c.len_utf8()),
            text: &src[i..i + c.len_utf8()],
        };
        match c {
            '(' => out.push(single(TokKind::LParen)),
            ')' => out.push(single(TokKind::RParen)),
            ',' => out.push(single(TokKind::Comma)),
            '*' => out.push(single(TokKind::Star)),
            c if is_word_char(c) => {
                let start = i;
                let mut end = i;
                while let Some(&(j, c)) = it.peek() {
                    if is_word_char(c) {
                        end = j + c.len_utf8();
                        it.next();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokKind::Word,
                    span: Span::new(start, end),
                    text: &src[start..end],
                });
                continue;
            }
            other => {
                return Err(QueryError::new(
                    Code::UnexpectedChar,
                    format!("unexpected character `{other}`"),
                    Span::new(i, i + other.len_utf8()),
                )
                .with_help("SWQL is atoms, `(`, `)`, `,`, `*` and the keyword `or`"));
            }
        }
        it.next();
    }
    Ok(out)
}

// ---- parser -------------------------------------------------------------

const KNOWN_ATOMS: &str = "prop(P), bind(var, value), window(a, b), degraded(), shard(S), epoch(E)";

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eof_span(&self) -> Span {
        Span::new(self.src.len(), self.src.len())
    }

    fn expect(&mut self, kind: TokKind, what: &str) -> Result<Token<'a>, QueryError> {
        match self.next() {
            Some(t) if t.kind == kind => Ok(t),
            Some(t) => Err(QueryError::new(
                Code::Syntax,
                format!("expected {what}, found `{}`", t.text),
                t.span,
            )),
            None => Err(QueryError::new(
                Code::Syntax,
                format!("expected {what}, found end of query"),
                self.eof_span(),
            )),
        }
    }

    /// Comma-separated argument tokens up to the closing paren. Each
    /// argument must be a single Word or Star token.
    fn args(&mut self) -> Result<Vec<Token<'a>>, QueryError> {
        self.expect(TokKind::LParen, "`(`")?;
        let mut out = Vec::new();
        if self.peek().map(|t| t.kind) == Some(TokKind::RParen) {
            self.next();
            return Ok(out);
        }
        loop {
            match self.next() {
                Some(t) if matches!(t.kind, TokKind::Word | TokKind::Star) => out.push(t),
                Some(t) => {
                    return Err(QueryError::new(
                        Code::Syntax,
                        format!("expected an argument, found `{}`", t.text),
                        t.span,
                    ))
                }
                None => {
                    return Err(QueryError::new(
                        Code::Syntax,
                        "expected an argument, found end of query",
                        self.eof_span(),
                    ))
                }
            }
            match self.next() {
                Some(t) if t.kind == TokKind::RParen => return Ok(out),
                Some(t) if t.kind == TokKind::Comma => continue,
                Some(t) => {
                    return Err(QueryError::new(
                        Code::Syntax,
                        format!("expected `,` or `)`, found `{}`", t.text),
                        t.span,
                    ))
                }
                None => {
                    return Err(QueryError::new(
                        Code::Syntax,
                        "unclosed `(`: expected `,` or `)`",
                        self.eof_span(),
                    ))
                }
            }
        }
    }

    fn check_arity(
        &self,
        name: &Token<'a>,
        args: &[Token<'a>],
        want: usize,
        close: Span,
    ) -> Result<(), QueryError> {
        if args.len() == want {
            return Ok(());
        }
        let span = Span::new(name.span.start, close.end);
        Err(QueryError::new(
            Code::Arity,
            format!(
                "`{}` takes {want} argument{}, found {}",
                name.text,
                if want == 1 { "" } else { "s" },
                args.len()
            ),
            span,
        )
        .with_help(format!("known atoms: {KNOWN_ATOMS}")))
    }

    fn atom(&mut self) -> Result<(Atom, Span), QueryError> {
        let name = self.expect(TokKind::Word, "an atom")?;
        if name.text == "or" {
            return Err(QueryError::new(
                Code::Syntax,
                "`or` separates branches; expected an atom",
                name.span,
            ));
        }
        let args = self.args()?;
        // Span of the whole atom: name through the `)` just consumed.
        let close = self.toks[self.pos - 1].span;
        let span = Span::new(name.span.start, close.end);
        let atom = match name.text {
            "prop" => {
                self.check_arity(&name, &args, 1, close)?;
                match args[0].kind {
                    TokKind::Star => Atom::Prop(None),
                    _ => Atom::Prop(Some(args[0].text.to_string())),
                }
            }
            "bind" => {
                self.check_arity(&name, &args, 2, close)?;
                let var = args[0].text.strip_prefix('?').unwrap_or(args[0].text);
                if var.is_empty() || !var.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) {
                    return Err(QueryError::new(
                        Code::BadLiteral,
                        format!("`{}` is not a variable name", args[0].text),
                        args[0].span,
                    ));
                }
                if args[1].text.starts_with('?') {
                    return Err(QueryError::new(
                        Code::UnboundVar,
                        format!("unbound variable `{}` in value position", args[1].text),
                        args[1].span,
                    )
                    .with_help("SWQL has no joins; `bind` compares against a constant value"));
                }
                Atom::Bind(var.to_string(), parse_value(&args[1])?)
            }
            "window" => {
                self.check_arity(&name, &args, 2, close)?;
                let a = parse_time(&args[0])?;
                let b = parse_time(&args[1])?;
                if a > b {
                    return Err(QueryError::new(
                        Code::ReversedWindow,
                        format!("reversed window: {} > {}", args[0].text, args[1].text),
                        span,
                    )
                    .with_help("window(a, b) is inclusive and requires a <= b"));
                }
                Atom::Window(a, b)
            }
            "degraded" => {
                self.check_arity(&name, &args, 0, close)?;
                Atom::Degraded
            }
            "shard" => {
                self.check_arity(&name, &args, 1, close)?;
                let s = args[0].text.parse::<u32>().map_err(|_| {
                    QueryError::new(
                        Code::BadLiteral,
                        format!("`{}` is not a shard number", args[0].text),
                        args[0].span,
                    )
                })?;
                Atom::Shard(s)
            }
            "epoch" => {
                self.check_arity(&name, &args, 1, close)?;
                let e = args[0].text.parse::<u64>().map_err(|_| {
                    QueryError::new(
                        Code::BadLiteral,
                        format!("`{}` is not an epoch number", args[0].text),
                        args[0].span,
                    )
                })?;
                Atom::Epoch(e)
            }
            other => {
                return Err(QueryError::new(
                    Code::UnknownAtom,
                    format!("unknown atom `{other}`"),
                    name.span,
                )
                .with_help(format!("known atoms: {KNOWN_ATOMS}")));
            }
        };
        Ok((atom, span))
    }

    fn branch(&mut self) -> Result<Branch, QueryError> {
        let mut atoms = vec![self.atom()?];
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Comma {
                self.next();
                atoms.push(self.atom()?);
            } else {
                break;
            }
        }
        Ok(Branch { atoms })
    }

    fn query(&mut self) -> Result<Query, QueryError> {
        if self.toks.is_empty() {
            return Err(QueryError::new(
                Code::Syntax,
                "empty query: expected an atom",
                self.eof_span(),
            )
            .with_help(format!("known atoms: {KNOWN_ATOMS}")));
        }
        let mut branches = vec![self.branch()?];
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Word && t.text == "or" {
                self.next();
                branches.push(self.branch()?);
            } else {
                let t = t.clone();
                return Err(QueryError::new(
                    Code::Syntax,
                    format!("expected `,`, `or`, or end of query, found `{}`", t.text),
                    t.span,
                ));
            }
        }
        Ok(Query { branches })
    }
}

/// A `bind` value literal: `aa:bb:cc:dd:ee:ff` (MAC), `a.b.c.d` (IPv4), or
/// a decimal unsigned integer — exactly the three [`FieldValue`] shapes,
/// in their `Display` syntax.
fn parse_value(tok: &Token<'_>) -> Result<FieldValue, QueryError> {
    let t = tok.text;
    let bad = |what: &str| {
        QueryError::new(Code::BadLiteral, format!("`{t}` is not {what}"), tok.span).with_help(
            "values are a decimal integer, a dotted-quad IPv4 (10.0.0.7), \
             or a colon-hex MAC (02:00:00:00:00:01)",
        )
    };
    if t.contains(':') {
        let octets: Vec<&str> = t.split(':').collect();
        if octets.len() != 6 {
            return Err(bad("a MAC address"));
        }
        let mut mac = [0u8; 6];
        for (i, o) in octets.iter().enumerate() {
            mac[i] = u8::from_str_radix(o, 16).map_err(|_| bad("a MAC address"))?;
        }
        return Ok(FieldValue::Mac(MacAddr(mac)));
    }
    if t.contains('.') {
        let octets: Vec<&str> = t.split('.').collect();
        if octets.len() != 4 {
            return Err(bad("an IPv4 address"));
        }
        let mut ip = [0u8; 4];
        for (i, o) in octets.iter().enumerate() {
            ip[i] = o.parse::<u8>().map_err(|_| bad("an IPv4 address"))?;
        }
        return Ok(FieldValue::Ipv4(Ipv4Address(ip)));
    }
    t.parse::<u64>().map(FieldValue::Uint).map_err(|_| bad("an unsigned integer"))
}

/// A `window` time literal: decimal nanoseconds, or a decimal with a
/// `ns`/`us`/`ms`/`s` suffix.
fn parse_time(tok: &Token<'_>) -> Result<u64, QueryError> {
    let t = tok.text;
    let bad = || {
        QueryError::new(Code::BadLiteral, format!("`{t}` is not a time"), tok.span)
            .with_help("times are nanoseconds, optionally suffixed: 500, 500ns, 20us, 3ms, 2s")
    };
    let (digits, scale) = if let Some(d) = t.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = t.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = t.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = t.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (t, 1)
    };
    let n = digits.parse::<u64>().map_err(|_| bad())?;
    n.checked_mul(scale).ok_or_else(bad)
}

/// Parse an SWQL query. Errors carry a stable [`Code`] and a byte [`Span`];
/// render them with [`QueryError::render`] or [`QueryError::to_json`].
pub fn parse(src: &str) -> Result<Query, QueryError> {
    let toks = lex(src)?;
    let mut p = Parser { src, toks, pos: 0 };
    p.query()
}

/// Post-parse validation: one `SQ007` warning per `prop(name)` atom whose
/// `name` is not among `known` (the monitored catalog). Such an atom is
/// legal SWQL but can only ever match the empty set — at execution time it
/// silently returns nothing, so the caller should surface these warnings
/// next to the answer. Warnings are non-gating and never stop the query.
pub fn validate_properties<'a>(
    query: &Query,
    known: impl IntoIterator<Item = &'a str>,
) -> Vec<QueryError> {
    let known: Vec<&str> = known.into_iter().collect();
    let mut out = Vec::new();
    for branch in &query.branches {
        for (atom, span) in &branch.atoms {
            let Atom::Prop(Some(name)) = atom else { continue };
            if known.iter().any(|k| k == name) {
                continue;
            }
            let mut warn = QueryError::warning(
                Code::UnknownProperty,
                format!("`{name}` is not a monitored property; this atom matches nothing"),
                *span,
            );
            warn.help = Some(match closest(name, &known) {
                Some(candidate) => format!("did you mean `{candidate}`?"),
                None => "property names come from the monitored catalog; \
                         `prop(*)` matches any property"
                    .to_string(),
            });
            out.push(warn);
        }
    }
    out
}

/// The known name sharing the longest common prefix with `name` (ties go
/// to the first in catalog order), if the overlap is long enough to be a
/// plausible near-miss rather than noise.
fn closest<'a>(name: &str, known: &[&'a str]) -> Option<&'a str> {
    let overlap = |k: &str| name.bytes().zip(k.bytes()).take_while(|(a, b)| a == b).count();
    known.iter().copied().max_by_key(|k| overlap(k)).filter(|k| overlap(k) >= 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_vocabulary() {
        let q = parse(
            "prop(fw-allows-return), bind(A, 10.0.0.7), window(1us, 2ms), degraded(), \
             shard(3), epoch(2)",
        )
        .expect("valid query");
        assert_eq!(q.branches.len(), 1);
        let atoms: Vec<&Atom> = q.branches[0].atoms.iter().map(|(a, _)| a).collect();
        assert_eq!(atoms[0], &Atom::Prop(Some("fw-allows-return".into())));
        assert_eq!(atoms[1], &Atom::Bind("A".into(), FieldValue::Ipv4(Ipv4Address([10, 0, 0, 7]))));
        assert_eq!(atoms[2], &Atom::Window(1_000, 2_000_000));
        assert_eq!(atoms[3], &Atom::Degraded);
        assert_eq!(atoms[4], &Atom::Shard(3));
        assert_eq!(atoms[5], &Atom::Epoch(2));
        assert_eq!(atoms[5].to_string(), "epoch(2)");
        assert_eq!(parse("epoch(x)").unwrap_err().code, Code::BadLiteral);
    }

    #[test]
    fn or_builds_branches_and_star_matches_all() {
        let q = parse("prop(*) or bind(?B, 02:00:00:00:00:01), degraded()").expect("valid");
        assert_eq!(q.branches.len(), 2);
        assert_eq!(q.branches[0].atoms[0].0, Atom::Prop(None));
        assert_eq!(
            q.branches[1].atoms[0].0,
            Atom::Bind("B".into(), FieldValue::Mac(MacAddr([2, 0, 0, 0, 0, 1])))
        );
        assert_eq!(q.branches[1].atoms[1].0, Atom::Degraded);
    }

    #[test]
    fn spans_point_at_the_source() {
        let src = "prop(fw), window(5, 9)";
        let q = parse(src).unwrap();
        let (_, s0) = &q.branches[0].atoms[0];
        assert_eq!(&src[s0.start..s0.end], "prop(fw)");
        let (_, s1) = &q.branches[0].atoms[1];
        assert_eq!(&src[s1.start..s1.end], "window(5, 9)");
    }

    #[test]
    fn uint_and_time_suffixes() {
        let q = parse("bind(P, 443), window(500ns, 2s)").unwrap();
        assert_eq!(q.branches[0].atoms[0].0, Atom::Bind("P".into(), FieldValue::Uint(443)));
        assert_eq!(q.branches[0].atoms[1].0, Atom::Window(500, 2_000_000_000));
    }

    #[test]
    fn every_code_round_trips() {
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(*c));
        }
        assert_eq!(Code::parse("SQ999"), None);
    }

    #[test]
    fn unknown_property_warns_without_blocking() {
        let src = "prop(firewall/return-not-droped), degraded()";
        let q = parse(src).expect("the query itself is well-formed");
        let known = ["firewall/return-not-dropped", "nat/reverse-translation"];
        let warns = validate_properties(&q, known);
        assert_eq!(warns.len(), 1);
        let w = &warns[0];
        assert_eq!(w.code, Code::UnknownProperty);
        assert_eq!(w.severity, Severity::Warning, "SQ007 never gates");
        assert_eq!(&src[w.span.start..w.span.end], "prop(firewall/return-not-droped)");
        assert_eq!(w.help.as_deref(), Some("did you mean `firewall/return-not-dropped`?"));
        // Known names and `prop(*)` stay silent.
        let clean = parse("prop(nat/reverse-translation) or prop(*)").unwrap();
        assert!(validate_properties(&clean, known).is_empty());
        // Far-off names get the generic help, not a bogus suggestion.
        let far = parse("prop(zzz)").unwrap();
        let w = &validate_properties(&far, known)[0];
        assert!(w.help.as_deref().unwrap().contains("prop(*)"), "{w:?}");
    }

    #[test]
    fn render_and_json_carry_code_span_help() {
        let err = parse("prop(fw), frob(1)").unwrap_err();
        assert_eq!(err.code, Code::UnknownAtom);
        let pretty = err.render("prop(fw), frob(1)");
        assert!(pretty.starts_with("error[SQ002]: unknown atom `frob`"), "{pretty}");
        assert!(pretty.contains("^^^^"), "caret under the atom name: {pretty}");
        let json = err.to_json();
        assert!(json.contains("\"code\":\"SQ002\""), "{json}");
        assert!(json.contains("\"span\":{\"start\":10,\"end\":14}"), "{json}");
    }
}
