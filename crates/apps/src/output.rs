//! Shared CLI output plumbing for the `repro` / `swmon-*` binaries.
//!
//! Every `repro` subcommand routes its results through an [`Emitter`] so
//! the surface is uniform: `--json` prints one machine-readable document
//! per experiment on stdout for *every* subcommand (experiments without a
//! native JSON emitter get the generic [`Emitter::wrap`] envelope) and
//! moves the human-readable rendering — banners and tables — to stderr,
//! so `repro e16 --json > out.json` captures JSON and nothing else; any
//! emitted document containing `"verified": false`
//! (or `"reconciled": false`) marks the whole run failed so `main` can
//! exit nonzero — the same contract CI's grep gate enforces, now enforced
//! by the binary itself.

use std::fmt::Write as _;

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

    /// Emit an experiment result that has a native JSON form: the
    /// rendering always, the document under `--json`. The document is
    /// scanned for failed verification bits either way.
    pub fn report(&mut self, text: &str, json_doc: &str) {
        self.text(text);
        if self.json {
            println!("{json_doc}");
        }
        if doc_fails(json_doc) {
            self.failed = true;
        }
    }

    /// Emit a render-only experiment through the generic envelope
    /// `{"experiment": ..., "verified": ..., "text": ...}` so `--json`
    /// holds for every subcommand uniformly.
    pub fn wrap(&mut self, experiment: &str, verified: bool, text: &str) {
        self.text(text);
        if self.json {
            println!(
                "{{\"experiment\": \"{}\", \"verified\": {}, \"text\": \"{}\"}}",
                json_escape(experiment),
                verified,
                json_escape(text)
            );
        }
        if !verified {
            self.failed = true;
        }
    }

    /// Mark the run failed for reasons outside a JSON document (e.g. a
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

/// The throughput tax of a treated (instrumented, telemetry-on, …) run
/// versus its bare twin, in percent — THE sign convention every BENCH
/// emitter uses: **positive means the treatment cost throughput**,
/// negative means measurement noise favoured the treated run (the twin
/// runs are identical but for the treatment, so a negative value is never
/// a real speedup). Centralized here so `overhead_pct` fields in
/// `BENCH_*.json` are comparable across experiments; semantics documented
/// in EXPERIMENTS.md ("Overhead sign convention").
pub fn overhead_pct(bare_eps: f64, treated_eps: f64) -> f64 {
    (bare_eps - treated_eps) / bare_eps * 100.0
}

/// True when a JSON document carries a failed verification bit. The
/// emitters in `swmon-bench` print these fields canonically (`": "`
/// separator), so a substring scan is exact, not heuristic.
pub fn doc_fails(doc: &str) -> bool {
    doc.contains("\"verified\": false") || doc.contains("\"reconciled\": false")
}

/// Escape a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_bits_are_detected_and_sticky() {
        let mut em = Emitter::new(false);
        assert_eq!(em.exit_code(), 0);
        em.report("ok", "{\"verified\": true}");
        assert!(!em.failed());
        em.report("bad", "{\"rows\": [{\"verified\": false}]}");
        assert!(em.failed());
        em.report("ok again", "{\"verified\": true}");
        assert_eq!(em.exit_code(), 1, "failure is sticky");

        let mut em = Emitter::new(false);
        em.report("ledger", "{\"reconciled\": false}");
        assert!(em.failed());

        let mut em = Emitter::new(true);
        em.wrap("e3", true, "plain table");
        assert!(!em.failed());
        em.wrap("e9", false, "detection miss");
        assert!(em.failed());
    }

    #[test]
    fn overhead_sign_convention_positive_means_tax() {
        assert!((overhead_pct(100.0, 97.0) - 3.0).abs() < 1e-12, "slower treated run: tax");
        assert!(overhead_pct(100.0, 104.0) < 0.0, "faster treated run: noise, negative");
        assert_eq!(overhead_pct(100.0, 100.0), 0.0);
    }

    #[test]
    fn json_escape_handles_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
