//! A textual surface syntax for properties — the "query language" facet of
//! the paper's Varanus, for operators who would rather write specifications
//! in files than in Rust.
//!
//! ```text
//! # Sec 2.1, third refinement.
//! property "firewall/return-until-close"
//! statement "for T seconds after A→B traffic, or until close, B→A is admitted"
//!
//! observe outbound on arrival
//!   in_port == 0
//!   bind ?A = ipv4.src
//!   bind ?B = ipv4.dst
//! end
//!
//! observe return-dropped on departure(drop) within 30s refresh
//!   ipv4.src == ?B
//!   ipv4.dst == ?A
//!   unless on arrival { ipv4.src == ?A  ipv4.dst == ?B  tcp.flags == 17 }
//! end
//! ```
//!
//! [`parse_property`] and [`to_dsl`] are inverses: pretty-printing any
//! property in the catalog and re-parsing it yields the same AST
//! (round-trip tested over all Table 1 properties).

use crate::guard::{Atom, Guard};
use crate::pattern::{ActionPattern, EventPattern, OobPattern};
use crate::property::{Property, RefreshPolicy, Stage, StageKind, Unless, WindowSpec};
use crate::var::{var, Var};
use std::fmt;
use swmon_packet::{Field, FieldValue, Ipv4Address, MacAddr};
use swmon_sim::time::Duration;

// --------------------------------------------------------------------------
// Errors

/// A parse error with 1-based line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    /// Line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DslError {}

// --------------------------------------------------------------------------
// Spans

/// 1-based source lines for one parsed stage — enough locus information for
/// a diagnostic to point back into the DSL text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpan {
    /// Line of the `observe` / `deadline` keyword.
    pub line: usize,
    /// Line of each top-level guard atom, in atom order.
    pub atom_lines: Vec<usize>,
    /// Line of each `unless` clause, in clause order.
    pub unless_lines: Vec<usize>,
    /// Line of the `within` window (match stages) or of the deadline header.
    pub window_line: Option<usize>,
}

/// 1-based source lines for one parsed property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertySpans {
    /// Line of the `property` keyword.
    pub line: usize,
    /// One span per stage, in stage order.
    pub stages: Vec<StageSpan>,
}

// --------------------------------------------------------------------------
// Lexer

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Str(String),
    Ident(String),
    Num(u64),
    Dur(Duration),
    Ip(Ipv4Address),
    Mac(MacAddr),
    Var(String),
    Sym(&'static str),
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Num(n) => write!(f, "{n}"),
            Tok::Dur(d) => write!(f, "{d}"),
            Tok::Ip(a) => write!(f, "{a}"),
            Tok::Mac(m) => write!(f, "{m}"),
            Tok::Var(v) => write!(f, "?{v}"),
            Tok::Sym(s) => write!(f, "{s}"),
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'
}

fn lex(src: &str) -> Result<Vec<(usize, Tok)>, DslError> {
    let mut toks = Vec::new();
    for (ln0, line) in src.lines().enumerate() {
        let line_no = ln0 + 1;
        let line = match line.find('#') {
            Some(i) => &line[..i],
            None => line,
        };
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0usize;
        let err = |msg: String| DslError { line: line_no, message: msg };
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            // String literal.
            if c == '"' {
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && chars[j] != '"' {
                    j += 1;
                }
                if j == chars.len() {
                    return Err(err("unterminated string".into()));
                }
                toks.push((line_no, Tok::Str(chars[start..j].iter().collect())));
                i = j + 1;
                continue;
            }
            // Variables.
            if c == '?' {
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                if j == start {
                    return Err(err("expected variable name after '?'".into()));
                }
                toks.push((line_no, Tok::Var(chars[start..j].iter().collect())));
                i = j;
                continue;
            }
            // MAC address: six colon-separated hex pairs.
            if c.is_ascii_hexdigit() {
                let rest: String = chars[i..].iter().collect();
                if let Some(mac_str) = take_mac(&rest) {
                    let mac: MacAddr = mac_str.parse().map_err(|_| err("bad MAC".into()))?;
                    toks.push((line_no, Tok::Mac(mac)));
                    i += mac_str.len();
                    continue;
                }
            }
            // Numbers, durations, IPv4.
            if c.is_ascii_digit() {
                let mut j = i;
                while j < chars.len() && chars[j].is_ascii_digit() {
                    j += 1;
                }
                // IPv4?
                if j < chars.len() && chars[j] == '.' {
                    let rest: String = chars[i..].iter().collect();
                    if let Some(ip_str) = take_ipv4(&rest) {
                        let ip: Ipv4Address =
                            ip_str.parse().map_err(|_| err(format!("bad IPv4 '{ip_str}'")))?;
                        toks.push((line_no, Tok::Ip(ip)));
                        i += ip_str.len();
                        continue;
                    }
                }
                let n: u64 = chars[i..j]
                    .iter()
                    .collect::<String>()
                    .parse()
                    .map_err(|_| err("number too large".into()))?;
                // Duration suffix?
                let rest: String = chars[j..].iter().collect();
                let (nanos_per_unit, len) = if rest.starts_with("ns") {
                    (Some(1), 2)
                } else if rest.starts_with("us") {
                    (Some(1_000), 2)
                } else if rest.starts_with("ms") {
                    (Some(1_000_000), 2)
                } else if rest.starts_with('s')
                    && rest.chars().nth(1).map(is_ident_char) != Some(true)
                {
                    (Some(1_000_000_000), 1)
                } else {
                    (None, 0)
                };
                match nanos_per_unit {
                    Some(unit) => {
                        let nanos = n
                            .checked_mul(unit)
                            .ok_or_else(|| err("duration out of range".into()))?;
                        toks.push((line_no, Tok::Dur(Duration::from_nanos(nanos))));
                        i = j + len;
                    }
                    None => {
                        toks.push((line_no, Tok::Num(n)));
                        i = j;
                    }
                }
                continue;
            }
            // Identifiers (field paths, keywords, stage names).
            if is_ident_start(c) {
                let mut j = i;
                while j < chars.len() && is_ident_char(chars[j]) {
                    j += 1;
                }
                toks.push((line_no, Tok::Ident(chars[i..j].iter().collect())));
                i = j;
                continue;
            }
            // Symbols.
            let two: String = chars[i..chars.len().min(i + 2)].iter().collect();
            let sym = match two.as_str() {
                "==" => Some("=="),
                "!=" => Some("!="),
                _ => None,
            };
            if let Some(s) = sym {
                toks.push((line_no, Tok::Sym(s)));
                i += 2;
                continue;
            }
            let one = match c {
                '=' => "=",
                '(' => "(",
                ')' => ")",
                '{' => "{",
                '}' => "}",
                ':' => ":",
                '|' => "|",
                ',' => ",",
                '%' => "%",
                _ => return Err(err(format!("unexpected character '{c}'"))),
            };
            toks.push((line_no, Tok::Sym(one)));
            i += 1;
        }
    }
    Ok(toks)
}

/// If `s` starts with a MAC literal (`xx:xx:xx:xx:xx:xx`), return it.
fn take_mac(s: &str) -> Option<&str> {
    let b = s.as_bytes();
    if b.len() < 17 {
        return None;
    }
    for (i, &c) in b[..17].iter().enumerate() {
        let ok = if i % 3 == 2 { c == b':' } else { c.is_ascii_hexdigit() };
        if !ok {
            return None;
        }
    }
    // Must not continue as an identifier/hex (e.g. a 7th pair).
    if b.len() > 17 && (b[17].is_ascii_hexdigit() || b[17] == b':') {
        return None;
    }
    Some(&s[..17])
}

/// If `s` starts with a dotted-quad IPv4 literal, return it.
fn take_ipv4(s: &str) -> Option<&str> {
    let mut len = 0usize;
    let mut groups = 0;
    let b = s.as_bytes();
    while groups < 4 {
        let start = len;
        while len < b.len() && b[len].is_ascii_digit() {
            len += 1;
        }
        if len == start || len - start > 3 {
            return None;
        }
        groups += 1;
        if groups < 4 {
            if len < b.len() && b[len] == b'.' {
                len += 1;
            } else {
                return None;
            }
        }
    }
    Some(&s[..len])
}

// --------------------------------------------------------------------------
// Field names

/// The (field, surface name) table — total over [`Field::all`].
const FIELD_NAMES: &[(Field, &str)] = &[
    (Field::InPort, "in_port"),
    (Field::OutPort, "out_port"),
    (Field::EthSrc, "eth.src"),
    (Field::EthDst, "eth.dst"),
    (Field::EthType, "eth.type"),
    (Field::ArpOp, "arp.op"),
    (Field::ArpSenderMac, "arp.sender_mac"),
    (Field::ArpSenderIp, "arp.sender_ip"),
    (Field::ArpTargetMac, "arp.target_mac"),
    (Field::ArpTargetIp, "arp.target_ip"),
    (Field::Ipv4Src, "ipv4.src"),
    (Field::Ipv4Dst, "ipv4.dst"),
    (Field::IpProto, "ip.proto"),
    (Field::Ttl, "ttl"),
    (Field::L4Src, "l4.src"),
    (Field::L4Dst, "l4.dst"),
    (Field::TcpFlags, "tcp.flags"),
    (Field::IcmpType, "icmp.type"),
    (Field::DhcpMsgType, "dhcp.msg_type"),
    (Field::DhcpXid, "dhcp.xid"),
    (Field::DhcpChaddr, "dhcp.chaddr"),
    (Field::DhcpYiaddr, "dhcp.yiaddr"),
    (Field::DhcpCiaddr, "dhcp.ciaddr"),
    (Field::DhcpRequestedIp, "dhcp.requested_ip"),
    (Field::DhcpLeaseSecs, "dhcp.lease_secs"),
    (Field::DhcpServerId, "dhcp.server_id"),
    (Field::FtpDataAddr, "ftp.data_addr"),
    (Field::FtpDataPort, "ftp.data_port"),
];

/// The surface name of a field.
pub fn field_name(f: Field) -> &'static str {
    FIELD_NAMES.iter().find(|(ff, _)| *ff == f).map(|(_, n)| *n).expect("total table")
}

/// The field named `s`, if any.
pub fn field_by_name(s: &str) -> Option<Field> {
    FIELD_NAMES.iter().find(|(_, n)| *n == s).map(|(f, _)| *f)
}

// --------------------------------------------------------------------------
// Parser

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
}

impl Parser {
    fn line(&self) -> usize {
        // Errors are raised just after consuming the offending token, so
        // report the line of the most recently consumed token (falling back
        // to the upcoming one at the very start of input).
        self.toks
            .get(self.pos.saturating_sub(1))
            .or_else(|| self.toks.get(self.pos))
            .map(|(l, _)| *l)
            .unwrap_or(1)
    }

    fn err(&self, msg: impl Into<String>) -> DslError {
        DslError { line: self.line(), message: msg.into() }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), DslError> {
        match self.next() {
            Some(Tok::Sym(got)) if got == s => Ok(()),
            Some(got) => Err(self.err(format!("expected '{s}', found {got}"))),
            None => Err(self.err(format!("expected '{s}', found end of input"))),
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), DslError> {
        match self.next() {
            Some(Tok::Ident(w)) if w == kw => Ok(()),
            Some(got) => Err(self.err(format!("expected '{kw}', found {got}"))),
            None => Err(self.err(format!("expected '{kw}', found end of input"))),
        }
    }

    fn try_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(w)) if w == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_str(&mut self) -> Result<String, DslError> {
        match self.next() {
            Some(Tok::Str(s)) => Ok(s),
            Some(got) => Err(self.err(format!("expected string literal, found {got}"))),
            None => Err(self.err("expected string literal, found end of input")),
        }
    }

    fn expect_ident(&mut self) -> Result<String, DslError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(got) => Err(self.err(format!("expected identifier, found {got}"))),
            None => Err(self.err("expected identifier, found end of input")),
        }
    }

    fn expect_num(&mut self) -> Result<u64, DslError> {
        match self.next() {
            Some(Tok::Num(n)) => Ok(n),
            Some(got) => Err(self.err(format!("expected number, found {got}"))),
            None => Err(self.err("expected number, found end of input")),
        }
    }

    fn expect_dur(&mut self) -> Result<Duration, DslError> {
        match self.next() {
            Some(Tok::Dur(d)) => Ok(d),
            Some(got) => Err(self.err(format!("expected duration (e.g. 30s), found {got}"))),
            None => Err(self.err("expected duration, found end of input")),
        }
    }

    fn expect_var(&mut self) -> Result<Var, DslError> {
        match self.next() {
            Some(Tok::Var(v)) => Ok(var(&v)),
            Some(got) => Err(self.err(format!("expected ?variable, found {got}"))),
            None => Err(self.err("expected ?variable, found end of input")),
        }
    }

    fn at_property_keyword(&self) -> bool {
        matches!(self.peek(), Some(Tok::Ident(w)) if w == "property")
    }

    /// Line of the *upcoming* token (for span recording, unlike
    /// [`Parser::line`], which reports the last consumed token for errors).
    fn cur_line(&self) -> usize {
        self.toks.get(self.pos).map(|(l, _)| *l).unwrap_or(1)
    }

    fn property(&mut self) -> Result<(Property, PropertySpans), DslError> {
        let prop_line = self.cur_line();
        self.expect_kw("property")?;
        let name = self.expect_str()?;
        let statement = if self.try_kw("statement") { self.expect_str()? } else { String::new() };
        let mut stages = Vec::new();
        let mut spans = Vec::new();
        while self.peek().is_some() && !self.at_property_keyword() {
            let (stage, span) = self.stage()?;
            stages.push(stage);
            spans.push(span);
        }
        if stages.is_empty() {
            return Err(self.err("property has no stages"));
        }
        let p = Property { name, statement, stages };
        p.validate().map_err(|e| self.err(format!("invalid property: {e}")))?;
        Ok((p, PropertySpans { line: prop_line, stages: spans }))
    }

    fn stage(&mut self) -> Result<(Stage, StageSpan), DslError> {
        let stage_line = self.cur_line();
        let mut span = StageSpan {
            line: stage_line,
            atom_lines: Vec::new(),
            unless_lines: Vec::new(),
            window_line: None,
        };
        if self.try_kw("observe") {
            let name = self.expect_ident()?;
            self.expect_kw("on")?;
            let pattern = self.pattern()?;
            let mut stage = Stage::match_(&name, pattern, Guard::any());
            let within_line = self.cur_line();
            if self.try_kw("within") {
                span.window_line = Some(within_line);
                stage.within = Some(self.window_spec()?);
                if self.try_kw("refresh") {
                    stage.within_refresh = RefreshPolicy::RefreshOnRepeat;
                }
            }
            loop {
                if self.try_kw("end") {
                    break;
                }
                let item_line = self.cur_line();
                if self.try_kw("unless") {
                    span.unless_lines.push(item_line);
                    stage.unless.push(self.unless()?);
                    continue;
                }
                let atom = self.atom()?;
                span.atom_lines.push(item_line);
                match &mut stage.kind {
                    StageKind::Match { guard, .. } => guard.atoms.push(atom),
                    StageKind::Deadline { .. } => unreachable!(),
                }
            }
            Ok((stage, span))
        } else if self.try_kw("deadline") {
            let name = self.expect_ident()?;
            self.expect_kw("after")?;
            let window = self.expect_dur()?;
            // The deadline window is part of the stage header.
            span.window_line = Some(stage_line);
            let refresh = if self.try_kw("refresh") {
                RefreshPolicy::RefreshOnRepeat
            } else {
                RefreshPolicy::NoRefresh
            };
            let mut stage = Stage::deadline(&name, window, refresh);
            loop {
                if self.try_kw("end") {
                    break;
                }
                let item_line = self.cur_line();
                if self.try_kw("unless") {
                    span.unless_lines.push(item_line);
                    stage.unless.push(self.unless()?);
                    continue;
                }
                return Err(self.err("deadline stages take only 'unless' clauses"));
            }
            Ok((stage, span))
        } else {
            Err(self.err("expected 'observe' or 'deadline'"))
        }
    }

    fn window_spec(&mut self) -> Result<WindowSpec, DslError> {
        if self.try_kw("bound") {
            Ok(WindowSpec::BoundSecs(self.expect_var()?))
        } else {
            Ok(WindowSpec::Fixed(self.expect_dur()?))
        }
    }

    fn pattern(&mut self) -> Result<EventPattern, DslError> {
        let kw = self.expect_ident()?;
        match kw.as_str() {
            "arrival" => Ok(EventPattern::Arrival),
            "departure" => {
                let action = if matches!(self.peek(), Some(Tok::Sym("("))) {
                    self.expect_sym("(")?;
                    let a = self.expect_ident()?;
                    self.expect_sym(")")?;
                    match a.as_str() {
                        "any" => ActionPattern::Any,
                        "drop" => ActionPattern::Drop,
                        "forwarded" => ActionPattern::Forwarded,
                        "unicast" => ActionPattern::Unicast,
                        "flood" => ActionPattern::Flood,
                        other => {
                            return Err(self.err(format!("unknown departure action '{other}'")))
                        }
                    }
                } else {
                    ActionPattern::Any
                };
                Ok(EventPattern::Departure(action))
            }
            "oob" => {
                self.expect_sym("(")?;
                let k = self.expect_ident()?;
                let pat = match k.as_str() {
                    "any" => OobPattern::Any,
                    "portdown" => OobPattern::PortDown,
                    "portup" => OobPattern::PortUp,
                    "controller" => {
                        self.expect_sym(":")?;
                        OobPattern::ControllerTag(self.expect_num()?)
                    }
                    other => return Err(self.err(format!("unknown oob kind '{other}'"))),
                };
                self.expect_sym(")")?;
                Ok(EventPattern::OutOfBand(pat))
            }
            other => Err(self.err(format!("unknown event pattern '{other}'"))),
        }
    }

    fn unless(&mut self) -> Result<Unless, DslError> {
        self.expect_kw("on")?;
        let pattern = self.pattern()?;
        self.expect_sym("{")?;
        let mut atoms = Vec::new();
        while !matches!(self.peek(), Some(Tok::Sym("}"))) {
            if self.peek().is_none() {
                return Err(self.err("unterminated unless block"));
            }
            atoms.push(self.atom()?);
        }
        self.expect_sym("}")?;
        Ok(Unless { pattern, guard: Guard::new(atoms) })
    }

    fn field(&mut self) -> Result<Field, DslError> {
        let name = self.expect_ident()?;
        field_by_name(&name).ok_or_else(|| self.err(format!("unknown field '{name}'")))
    }

    fn value(&mut self) -> Result<FieldValue, DslError> {
        match self.next() {
            Some(Tok::Num(n)) => Ok(FieldValue::Uint(n)),
            Some(Tok::Ip(a)) => Ok(FieldValue::Ipv4(a)),
            Some(Tok::Mac(m)) => Ok(FieldValue::Mac(m)),
            Some(got) => Err(self.err(format!("expected a value, found {got}"))),
            None => Err(self.err("expected a value, found end of input")),
        }
    }

    fn atom(&mut self) -> Result<Atom, DslError> {
        // bind ?A = field
        if self.try_kw("bind") {
            let v = self.expect_var()?;
            self.expect_sym("=")?;
            let f = self.field()?;
            return Ok(Atom::Bind(v, f));
        }
        // same packet as N
        if self.try_kw("same") {
            self.expect_kw("packet")?;
            self.expect_kw("as")?;
            let n = self.expect_num()? as usize;
            return Ok(Atom::SamePacket(n));
        }
        // any of: atom | atom | ...
        if self.try_kw("any") {
            self.expect_kw("of")?;
            self.expect_sym(":")?;
            let mut subs = vec![self.atom()?];
            while matches!(self.peek(), Some(Tok::Sym("|"))) {
                self.expect_sym("|")?;
                subs.push(self.atom()?);
            }
            return Ok(Atom::AnyOf(subs));
        }
        // hash(f, g) % m base b != out_port
        if self.try_kw("hash") {
            self.expect_sym("(")?;
            let mut fields = vec![self.field()?];
            while matches!(self.peek(), Some(Tok::Sym(","))) {
                self.expect_sym(",")?;
                fields.push(self.field()?);
            }
            self.expect_sym(")")?;
            self.expect_sym("%")?;
            let modulus = self.expect_num()?;
            self.expect_kw("base")?;
            let base = self.expect_num()?;
            self.expect_sym("!=")?;
            self.expect_kw("out_port")?;
            return Ok(Atom::HashedPortMismatch { fields, modulus, base });
        }
        // rr successor of ?O % m base b != out_port
        if self.try_kw("rr") {
            self.expect_kw("successor")?;
            self.expect_kw("of")?;
            let prev = self.expect_var()?;
            self.expect_sym("%")?;
            let modulus = self.expect_num()?;
            self.expect_kw("base")?;
            let base = self.expect_num()?;
            self.expect_sym("!=")?;
            self.expect_kw("out_port")?;
            return Ok(Atom::RrSuccessorMismatch { prev, modulus, base });
        }
        // field ==/!= (value | ?var)
        let f = self.field()?;
        let op = match self.next() {
            Some(Tok::Sym("==")) => "==",
            Some(Tok::Sym("!=")) => "!=",
            Some(got) => return Err(self.err(format!("expected '==' or '!=', found {got}"))),
            None => return Err(self.err("expected '==' or '!=', found end of input")),
        };
        if let Some(Tok::Var(_)) = self.peek() {
            let v = self.expect_var()?;
            return Ok(if op == "==" { Atom::Bind(v, f) } else { Atom::NeqVar(f, v) });
        }
        let val = self.value()?;
        Ok(if op == "==" { Atom::EqConst(f, val) } else { Atom::NeqConst(f, val) })
    }
}

/// Parse a property from its textual form. Errors if the input holds more
/// than one property (use [`parse_properties`] for files of several).
pub fn parse_property(src: &str) -> Result<Property, DslError> {
    parse_property_spanned(src).map(|(p, _)| p)
}

/// Like [`parse_property`], but also returns the source lines of each
/// construct, for diagnostics that point back into the text.
pub fn parse_property_spanned(src: &str) -> Result<(Property, PropertySpans), DslError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let prop = p.property()?;
    if p.peek().is_some() {
        return Err(p.err("trailing input after the property (use parse_properties)"));
    }
    Ok(prop)
}

/// Parse a file holding one or more properties.
pub fn parse_properties(src: &str) -> Result<Vec<Property>, DslError> {
    parse_properties_spanned(src).map(|ps| ps.into_iter().map(|(p, _)| p).collect())
}

/// Like [`parse_properties`], but with source spans per property.
pub fn parse_properties_spanned(src: &str) -> Result<Vec<(Property, PropertySpans)>, DslError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut out = Vec::new();
    while p.peek().is_some() {
        out.push(p.property()?);
    }
    if out.is_empty() {
        return Err(DslError { line: 1, message: "no properties in input".into() });
    }
    Ok(out)
}

// --------------------------------------------------------------------------
// Pretty printer

fn fmt_value(v: &FieldValue) -> String {
    match v {
        FieldValue::Uint(n) => n.to_string(),
        FieldValue::Ipv4(a) => a.to_string(),
        FieldValue::Mac(m) => m.to_string(),
    }
}

fn fmt_atom(a: &Atom) -> String {
    match a {
        Atom::Bind(v, f) => format!("bind ?{} = {}", v.name(), field_name(*f)),
        Atom::EqConst(f, v) => format!("{} == {}", field_name(*f), fmt_value(v)),
        Atom::NeqConst(f, v) => format!("{} != {}", field_name(*f), fmt_value(v)),
        Atom::NeqVar(f, v) => format!("{} != ?{}", field_name(*f), v.name()),
        Atom::SamePacket(n) => format!("same packet as {n}"),
        Atom::AnyOf(subs) => {
            let parts: Vec<String> = subs.iter().map(fmt_atom).collect();
            format!("any of: {}", parts.join(" | "))
        }
        Atom::HashedPortMismatch { fields, modulus, base } => {
            let names: Vec<&str> = fields.iter().map(|f| field_name(*f)).collect();
            format!("hash({}) % {modulus} base {base} != out_port", names.join(", "))
        }
        Atom::RrSuccessorMismatch { prev, modulus, base } => {
            format!("rr successor of ?{} % {modulus} base {base} != out_port", prev.name())
        }
    }
}

fn fmt_pattern(p: &EventPattern) -> String {
    match p {
        EventPattern::Arrival => "arrival".into(),
        EventPattern::Departure(a) => {
            let a = match a {
                ActionPattern::Any => "any",
                ActionPattern::Drop => "drop",
                ActionPattern::Forwarded => "forwarded",
                ActionPattern::Unicast => "unicast",
                ActionPattern::Flood => "flood",
            };
            format!("departure({a})")
        }
        EventPattern::OutOfBand(o) => {
            let o = match o {
                OobPattern::Any => "any".to_string(),
                OobPattern::PortDown => "portdown".into(),
                OobPattern::PortUp => "portup".into(),
                OobPattern::ControllerTag(t) => format!("controller:{t}"),
            };
            format!("oob({o})")
        }
    }
}

fn fmt_unless(u: &Unless) -> String {
    let atoms: Vec<String> = u.guard.atoms.iter().map(fmt_atom).collect();
    format!("  unless on {} {{ {} }}", fmt_pattern(&u.pattern), atoms.join("  "))
}

/// Render a property to its textual form (an inverse of
/// [`parse_property`]).
pub fn to_dsl(p: &Property) -> String {
    let mut out = String::new();
    out.push_str(&format!("property \"{}\"\n", p.name));
    if !p.statement.is_empty() {
        out.push_str(&format!("statement \"{}\"\n", p.statement));
    }
    for stage in &p.stages {
        out.push('\n');
        match &stage.kind {
            StageKind::Match { pattern, guard } => {
                out.push_str(&format!("observe {} on {}", stage.name, fmt_pattern(pattern)));
                if let Some(w) = &stage.within {
                    match w {
                        WindowSpec::Fixed(d) => out.push_str(&format!(" within {d}")),
                        WindowSpec::BoundSecs(v) => {
                            out.push_str(&format!(" within bound ?{}", v.name()))
                        }
                    }
                    if stage.within_refresh == RefreshPolicy::RefreshOnRepeat {
                        out.push_str(" refresh");
                    }
                }
                out.push('\n');
                for a in &guard.atoms {
                    out.push_str(&format!("  {}\n", fmt_atom(a)));
                }
            }
            StageKind::Deadline { window, refresh } => {
                out.push_str(&format!("deadline {} after {window}", stage.name));
                if *refresh == RefreshPolicy::RefreshOnRepeat {
                    out.push_str(" refresh");
                }
                out.push('\n');
            }
        }
        for u in &stage.unless {
            out.push_str(&fmt_unless(u));
            out.push('\n');
        }
        out.push_str("end\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FW: &str = r#"
# The Sec 2.1 firewall property, third refinement.
property "firewall/return-until-close"
statement "for T seconds after A to B, or until close, B to A is admitted"

observe outbound on arrival
  in_port == 0
  bind ?A = ipv4.src
  bind ?B = ipv4.dst
end

observe return-dropped on departure(drop) within 30s refresh
  ipv4.src == ?B
  ipv4.dst == ?A
  unless on arrival { ipv4.src == ?A  ipv4.dst == ?B  tcp.flags == 17 }
end
"#;

    #[test]
    fn parses_the_firewall_property() {
        let p = parse_property(FW).unwrap();
        assert_eq!(p.name, "firewall/return-until-close");
        assert_eq!(p.stages.len(), 2);
        assert_eq!(p.stages[0].name, "outbound");
        let g = p.stages[0].guard().unwrap();
        assert_eq!(g.atoms.len(), 3);
        assert_eq!(g.atoms[0], Atom::EqConst(Field::InPort, FieldValue::Uint(0)));
        assert_eq!(g.atoms[1], Atom::Bind(var("A"), Field::Ipv4Src));
        assert_eq!(p.stages[1].within, Some(WindowSpec::Fixed(Duration::from_secs(30))));
        assert_eq!(p.stages[1].within_refresh, RefreshPolicy::RefreshOnRepeat);
        assert_eq!(p.stages[1].unless.len(), 1);
        // `field == ?X` parses as unification (same as bind).
        let g2 = p.stages[1].guard().unwrap();
        assert_eq!(g2.atoms[0], Atom::Bind(var("B"), Field::Ipv4Src));
    }

    #[test]
    fn parses_deadlines_and_oob() {
        let src = r#"
property "arp/reply"
observe request on arrival
  arp.op == 1
  bind ?Y = arp.target_ip
end
deadline no-reply after 1s
  unless on departure(forwarded) { arp.op == 2  arp.sender_ip == ?Y }
end
"#;
        let p = parse_property(src).unwrap();
        assert!(matches!(
            p.stages[1].kind,
            StageKind::Deadline { refresh: RefreshPolicy::NoRefresh, .. }
        ));
        assert_eq!(p.stages[1].unless.len(), 1);

        let src2 = r#"
property "x"
observe a on arrival
  bind ?D = eth.src
end
observe down on oob(portdown)
end
"#;
        let p2 = parse_property(src2).unwrap();
        assert_eq!(
            match &p2.stages[1].kind {
                StageKind::Match { pattern, .. } => *pattern,
                _ => panic!(),
            },
            EventPattern::OutOfBand(OobPattern::PortDown)
        );
    }

    #[test]
    fn parses_values_of_every_type() {
        let src = r#"
property "v"
observe a on arrival
  ipv4.src == 10.0.0.1
  eth.src != de:ad:be:ef:00:01
  l4.dst == 443
end
"#;
        let p = parse_property(src).unwrap();
        let g = p.stages[0].guard().unwrap();
        assert_eq!(g.atoms[0], Atom::EqConst(Field::Ipv4Src, Ipv4Address::new(10, 0, 0, 1).into()));
        assert_eq!(
            g.atoms[1],
            Atom::NeqConst(Field::EthSrc, MacAddr::new(0xde, 0xad, 0xbe, 0xef, 0, 1).into())
        );
        assert_eq!(g.atoms[2], Atom::EqConst(Field::L4Dst, FieldValue::Uint(443)));
    }

    #[test]
    fn parses_special_atoms() {
        let src = r#"
property "s"
observe a on arrival
  bind ?A = ipv4.src
end
observe b on departure(unicast)
  same packet as 0
  any of: l4.dst != ?A | ttl == 0
  hash(ipv4.src, l4.src) % 4 base 8 != out_port
  rr successor of ?A % 4 base 8 != out_port
end
"#;
        let p = parse_property(src).unwrap();
        let g = p.stages[1].guard().unwrap();
        assert_eq!(g.atoms[0], Atom::SamePacket(0));
        assert!(matches!(&g.atoms[1], Atom::AnyOf(subs) if subs.len() == 2));
        assert!(matches!(&g.atoms[2], Atom::HashedPortMismatch { modulus: 4, base: 8, .. }));
        assert!(matches!(&g.atoms[3], Atom::RrSuccessorMismatch { modulus: 4, base: 8, .. }));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "property \"x\"\nobserve a on arrival\n  bogus.field == 1\nend\n";
        let e = parse_property(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus.field"), "{e}");

        let e = parse_property("property \"x\"\nobserve a on levitation\nend\n").unwrap_err();
        assert_eq!(e.line, 2);

        let e = parse_property("property \"x\"").unwrap_err();
        assert!(e.message.contains("no stages"));
    }

    #[test]
    fn validation_errors_surface() {
        // Deadline first stage is structurally invalid.
        let src = "property \"x\"\ndeadline d after 1s\nend\n";
        let e = parse_property(src).unwrap_err();
        assert!(e.message.contains("invalid property"), "{e}");
    }

    #[test]
    fn durations_lex_correctly() {
        let src = r#"
property "d"
observe a on arrival
  bind ?A = ipv4.src
end
observe b on arrival within 250ms
  ipv4.src == ?A
end
"#;
        let p = parse_property(src).unwrap();
        assert_eq!(p.stages[1].within, Some(WindowSpec::Fixed(Duration::from_millis(250))));
    }

    /// Each unit's largest literal that fits in `u64` nanoseconds parses;
    /// one more is an error, never a wrapped or panicking multiply.
    #[test]
    fn duration_literals_past_u64_nanoseconds_are_errors() {
        let within = |literal: &str| {
            let src = format!(
                "property \"d\"\nobserve a on arrival\n  bind ?A = ipv4.src\nend\n\
                 observe b on arrival within {literal}\n  ipv4.src == ?A\nend\n"
            );
            parse_property(&src).map(|p| p.stages[1].within.clone())
        };
        for (unit, nanos_per_unit) in [("us", 1_000), ("ms", 1_000_000), ("s", 1_000_000_000)] {
            let max = u64::MAX / nanos_per_unit;
            let fits = Duration::from_nanos(max * nanos_per_unit);
            assert_eq!(within(&format!("{max}{unit}")), Ok(Some(WindowSpec::Fixed(fits))));
            let e = within(&format!("{}{unit}", max + 1)).unwrap_err();
            assert!(e.message.contains("duration out of range"), "{unit}: {e}");
            assert_eq!(e.line, 5);
        }
        let max_ns = Duration::from_nanos(u64::MAX);
        assert_eq!(within(&format!("{}ns", u64::MAX)), Ok(Some(WindowSpec::Fixed(max_ns))));
        let e = within("18446744073709551616ns").unwrap_err();
        assert!(e.message.contains("number too large"), "{e}");
    }

    #[test]
    fn bound_windows() {
        let src = r#"
property "lease"
observe ack on arrival
  bind ?L = dhcp.lease_secs
end
observe reuse on arrival within bound ?L
  bind ?L = dhcp.lease_secs
end
"#;
        let p = parse_property(src).unwrap();
        assert_eq!(p.stages[1].within, Some(WindowSpec::BoundSecs(var("L"))));
    }

    #[test]
    fn round_trip_hand_written() {
        let p = parse_property(FW).unwrap();
        let printed = to_dsl(&p);
        let reparsed = parse_property(&printed).unwrap();
        assert_eq!(p, reparsed, "\n{printed}");
    }

    #[test]
    fn multiple_properties_per_file() {
        let src = r#"
property "a"
observe s on arrival
  bind ?A = ipv4.src
end

property "b"
observe s on arrival
  bind ?B = ipv4.dst
end
"#;
        let props = parse_properties(src).unwrap();
        assert_eq!(props.len(), 2);
        assert_eq!(props[0].name, "a");
        assert_eq!(props[1].name, "b");
        // parse_property refuses multi-property input.
        assert!(parse_property(src).is_err());
        // And empty input is an error.
        assert!(parse_properties(
            "# nothing here
"
        )
        .is_err());
    }

    #[test]
    fn spans_point_at_the_right_lines() {
        // FW starts with a blank line: `property` is on line 3 (after the
        // comment), stage 0 on line 5 of the raw literal... compute from the
        // text instead of hard-coding.
        let line_of =
            |needle: &str| FW.lines().position(|l| l.contains(needle)).expect("needle present") + 1;
        let (p, spans) = parse_property_spanned(FW).unwrap();
        assert_eq!(spans.line, line_of("property \""));
        assert_eq!(spans.stages.len(), p.stages.len());
        assert_eq!(spans.stages[0].line, line_of("observe outbound"));
        assert_eq!(spans.stages[0].atom_lines.len(), 3);
        assert_eq!(spans.stages[0].atom_lines[1], line_of("bind ?A"));
        assert_eq!(spans.stages[0].window_line, None);
        let s1 = &spans.stages[1];
        assert_eq!(s1.line, line_of("observe return-dropped"));
        // `within` sits on the stage header line.
        assert_eq!(s1.window_line, Some(s1.line));
        assert_eq!(s1.unless_lines, vec![line_of("unless on arrival")]);
    }

    #[test]
    fn deadline_spans_carry_a_window_line() {
        let src = "property \"x\"\nobserve a on arrival\n  bind ?A = ipv4.src\nend\ndeadline d after 1s\nend\n";
        let (_, spans) = parse_property_spanned(src).unwrap();
        assert_eq!(spans.stages[1].window_line, Some(5));
    }

    #[test]
    fn field_name_table_is_total_and_injective() {
        use std::collections::HashSet;
        let mut names = HashSet::new();
        for &f in Field::all() {
            let n = field_name(f);
            assert!(names.insert(n), "duplicate name {n}");
            assert_eq!(field_by_name(n), Some(f));
        }
        assert_eq!(field_by_name("nonsense"), None);
    }

    #[test]
    fn mac_and_ip_lexing_disambiguates() {
        // 6-group colon form is a MAC, dotted-quad is an IP, bare digits a
        // number; "10s" is a duration.
        assert!(take_mac("de:ad:be:ef:00:01 rest").is_some());
        assert!(take_mac("de:ad:be:ef:00 rest").is_none());
        assert!(take_mac("de:ad:be:ef:00:01:02").is_none(), "7 groups is not a MAC");
        assert_eq!(take_ipv4("10.0.0.1 =="), Some("10.0.0.1"));
        assert_eq!(take_ipv4("10.0.0"), None);
    }
}
