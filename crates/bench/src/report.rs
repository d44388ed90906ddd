//! The one record shape of the contract runs (E15–E17) and the `repro`
//! output plumbing.
//!
//! A [`Report`] is an experiment name, a few header facts (`nproc` first:
//! every figure in it was taken on that many cores), named columns, typed
//! cells and a per-row `verified` bit. It renders the text table and the
//! JSON document from the same cells, so the two cannot disagree, and
//! every checked-in `BENCH_*.json` is one of these
//! (`tests/bench_records.rs` checks the shape):
//!
//! ```text
//! {"experiment": .., "nproc": .., <facts>, "rows": [{"config": .., <columns>, "verified": ..}]}
//! ```
//!
//! Every `repro` subcommand prints through an [`Emitter`]: `--json` puts
//! one document per experiment on stdout and moves banners and tables to
//! stderr, and a result whose contract failed marks the run failed so
//! `main` exits nonzero. The bit comes from the result itself
//! ([`Report::verified`], or the caller's own), never from re-reading what
//! was printed.

use crate::TextTable;
use swmon_core::json::escape;

/// One typed value: a header fact or a table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free text (a query source, a label).
    Text(String),
    /// An exact count.
    Int(u64),
    /// A measurement, printed to one decimal.
    Real(f64),
    /// Does not apply to this row: `-` in the table, `null` in JSON.
    None,
}

impl Cell {
    /// A rate cell: `count` things in `secs` seconds, rounded down.
    pub fn per_sec(count: usize, secs: f64) -> Cell {
        Cell::Int((count as f64 / secs) as u64)
    }

    fn text(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(n) => n.to_string(),
            Cell::Real(v) => format!("{v:.1}"),
            Cell::None => "-".into(),
        }
    }

    fn json(&self) -> String {
        match self {
            Cell::Text(s) => format!("\"{}\"", escape(s)),
            Cell::Int(n) => n.to_string(),
            // JSON has no NaN or infinity.
            Cell::Real(v) if v.is_finite() => format!("{v:.1}"),
            Cell::Real(_) | Cell::None => "null".into(),
        }
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Self {
        Cell::Int(n)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        Cell::Int(n as u64)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Real(v)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(v: Option<T>) -> Self {
        v.map_or(Cell::None, Into::into)
    }
}

#[derive(Debug, Clone)]
struct Row {
    config: String,
    cells: Vec<Cell>,
    verified: bool,
}

/// An experiment's result: see the module docs for the shape.
#[derive(Debug, Clone)]
pub struct Report {
    experiment: String,
    facts: Vec<(String, Cell)>,
    columns: Vec<String>,
    rows: Vec<Row>,
    note: String,
}

impl Report {
    /// An empty report whose rows carry `columns` between `config` and
    /// `verified`; records the core count it is being taken on.
    pub fn new(experiment: &str, columns: &[&str]) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Report {
            experiment: experiment.to_string(),
            facts: vec![("nproc".to_string(), nproc.into())],
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            note: String::new(),
        }
    }

    /// Add a header fact (one value for the whole run).
    pub fn fact(&mut self, name: &str, value: impl Into<Cell>) {
        self.facts.push((name.to_string(), value.into()));
    }

    /// Add one measured configuration; `verified` is whether its contract
    /// held.
    pub fn row(&mut self, config: &str, cells: Vec<Cell>, verified: bool) {
        assert_eq!(cells.len(), self.columns.len(), "row arity");
        self.rows.push(Row { config: config.to_string(), cells, verified });
    }

    /// Prose printed under the text table (what the rows must satisfy).
    pub fn note(&mut self, text: &str) {
        self.note = text.to_string();
    }

    /// True when every row's contract held.
    pub fn verified(&self) -> bool {
        self.rows.iter().all(|r| r.verified)
    }

    /// The text table, the header facts, then the note.
    pub fn render(&self) -> String {
        let mut header = vec!["configuration"];
        header.extend(self.columns.iter().map(String::as_str));
        header.push("verified");
        let mut t = TextTable::new(&header);
        for r in &self.rows {
            let mut cells = vec![r.config.clone()];
            cells.extend(r.cells.iter().map(Cell::text));
            cells.push(if r.verified { "yes" } else { "NO" }.to_string());
            t.row(cells);
        }
        let facts: Vec<String> =
            self.facts.iter().map(|(k, v)| format!("{k} {}", v.text())).collect();
        format!("{}\n{}: {}.\n{}", t.render(), self.experiment, facts.join(", "), self.note)
    }

    /// The JSON document (what `repro eNN --json > BENCH_x.json` records).
    pub fn to_json(&self) -> String {
        let mut doc = format!("{{\n  \"experiment\": \"{}\",\n", escape(&self.experiment));
        for (name, value) in &self.facts {
            doc.push_str(&format!("  \"{}\": {},\n", escape(name), value.json()));
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let mut row = format!("    {{\"config\": \"{}\"", escape(&r.config));
                for (name, cell) in self.columns.iter().zip(&r.cells) {
                    row.push_str(&format!(", \"{}\": {}", escape(name), cell.json()));
                }
                format!("{row}, \"verified\": {}}}", r.verified)
            })
            .collect();
        format!("{doc}  \"rows\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
    }
}

/// Collects subcommand output and tracks whether anything failed
/// verification.
#[derive(Debug)]
pub struct Emitter {
    json: bool,
    failed: bool,
}

impl Emitter {
    /// An emitter; `json` mirrors the `--json` flag.
    pub fn new(json: bool) -> Self {
        Emitter { json, failed: false }
    }

    /// True when `--json` output was requested.
    pub fn json(&self) -> bool {
        self.json
    }

    /// Print a section banner.
    pub fn section(&self, title: &str) {
        let rule = "=".repeat(78);
        self.text(&format!("\n{rule}\n{title}\n{rule}"));
    }

    /// Print a human-readable body: on stdout, or on stderr under `--json`
    /// (stdout then carries JSON only).
    pub fn text(&self, body: &str) {
        if self.json {
            eprintln!("{body}");
        } else {
            println!("{body}");
        }
    }

    /// Emit a result: the rendering always, the document under `--json`;
    /// `verified: false` fails the run.
    pub fn emit(&mut self, text: &str, json_doc: &str, verified: bool) {
        self.text(text);
        if self.json {
            println!("{json_doc}");
        }
        self.failed |= !verified;
    }

    /// Emit a [`Report`]; any unverified row fails the run.
    pub fn report(&mut self, report: &Report) {
        self.emit(&report.render(), &report.to_json(), report.verified());
    }

    /// Emit a render-only experiment through the generic envelope
    /// `{"experiment": ..., "verified": ..., "text": ...}` so `--json`
    /// holds for every subcommand uniformly.
    pub fn wrap(&mut self, experiment: &str, verified: bool, text: &str) {
        let doc = format!(
            "{{\"experiment\": \"{}\", \"verified\": {verified}, \"text\": \"{}\"}}",
            escape(experiment),
            escape(text)
        );
        self.emit(text, &doc, verified);
    }

    /// Mark the run failed for reasons outside an emitted result (e.g. a
    /// gating lint diagnostic or a query parse error).
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// True when any emitted result failed verification.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// The process exit code: `1` when anything failed, else `0`.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failed)
    }
}

#[cfg(test)]
impl Report {
    /// The numeric cell under `column` in the row whose configuration
    /// contains `config_part`.
    pub(crate) fn num(&self, config_part: &str, column: &str) -> f64 {
        let row = self
            .rows
            .iter()
            .find(|r| r.config.contains(config_part))
            .unwrap_or_else(|| panic!("no row labelled *{config_part}*"));
        let col = self.columns.iter().position(|c| c == column).expect("a declared column");
        match row.cells[col] {
            Cell::Int(n) => n as f64,
            Cell::Real(v) => v,
            ref other => panic!("{column} of {config_part} is not a number: {other:?}"),
        }
    }

    /// Rows in the report.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_analysis::json::{parse, Value};

    fn sample() -> Report {
        let mut r = Report::new("e0-sample", &["swql", "events_per_sec", "rollback_us"]);
        r.fact("events", 40_000usize);
        r.row("plain", vec!["prop(*)".into(), 1_250u64.into(), 2.7465.into()], true);
        r.row("odd \"label\"\u{1}", vec![Cell::None, 7u64.into(), None::<f64>.into()], true);
        r
    }

    #[test]
    fn hostile_labels_round_trip_through_the_json_parser() {
        let doc = parse(&sample().to_json()).expect("a Report is a JSON document");
        assert_eq!(doc.get("experiment").and_then(Value::as_str), Some("e0-sample"));
        assert!(doc.get("nproc").and_then(Value::as_usize).is_some_and(|n| n >= 1));
        assert_eq!(doc.get("events").and_then(Value::as_usize), Some(40_000));
        let rows = doc.get("rows").and_then(Value::as_arr).expect("rows");
        assert_eq!(rows[1].get("config").and_then(Value::as_str), Some("odd \"label\"\u{1}"));
        assert_eq!(rows[0].get("swql").and_then(Value::as_str), Some("prop(*)"));
        assert_eq!(rows[0].get("rollback_us"), Some(&Value::Num(2.7)));
        assert_eq!(rows[1].get("rollback_us"), Some(&Value::Null));
        assert_eq!(rows[1].get("verified"), Some(&Value::Bool(true)));
    }

    #[test]
    fn text_and_json_name_every_row() {
        let r = sample();
        let (txt, json) = (r.render(), r.to_json());
        for needle in ["plain", "odd ", "e0-sample", "events_per_sec", "nproc"] {
            assert!(txt.contains(needle), "{needle} missing from\n{txt}");
            assert!(json.contains(needle), "{needle} missing from\n{json}");
        }
        assert_eq!(r.num("plain", "events_per_sec"), 1_250.0);
    }

    #[test]
    fn one_unverified_row_fails_the_report_and_the_emitter() {
        let mut r = sample();
        assert!(r.verified());
        let mut em = Emitter::new(false);
        em.report(&r);
        assert_eq!(em.exit_code(), 0);

        r.row("broken", vec![Cell::None, 0u64.into(), Cell::None], false);
        assert!(!r.verified());
        assert!(r.render().contains("NO"));
        em.report(&r);
        assert!(em.failed());
        em.report(&sample());
        assert_eq!(em.exit_code(), 1, "failure is sticky");
    }

    #[test]
    fn explicit_bits_and_envelopes_fail_the_emitter_too() {
        let mut em = Emitter::new(true);
        em.emit("ledger", "{\"reconciled\": true}", true);
        em.wrap("e3", true, "plain table");
        assert!(!em.failed());
        em.wrap("e9", false, "detection miss");
        assert!(em.failed());

        let mut em = Emitter::new(false);
        em.emit("ledger", "{\"reconciled\": false}", false);
        assert!(em.failed());
    }
}
