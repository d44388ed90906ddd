//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the program is instrumented: a span is opened and closed
//! by benchmark code, kept in memory, and written out when the run ends.
//! Spans nest by call order on the one feeder thread, so the open span at
//! the time of [`SpanLog::enter`] is the parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant as Wall;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call, e.g. `session.feed`.
    pub name: String,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Which pass of the run the span belongs to.
    pub rep: usize,
}

/// An in-memory span recorder for one workload's traced run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Wall,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { epoch: Wall::now(), spans: Vec::new(), open: Vec::new(), rep: 0 }
    }
}

impl SpanLog {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Later spans belong to pass `rep`.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    /// Open a span under the currently open one.
    pub fn enter(&mut self, name: &str) {
        let start_ns = self.now();
        self.enter_at(name, start_ns);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now();
        self.exit_at(end_ns);
    }

    fn enter_at(&mut self, name: &str, start_ns: u64) {
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: 0,
            parent,
            rep: self.rep,
        });
    }

    fn exit_at(&mut self, end_ns: u64) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = end_ns;
    }

    /// Per span name, the summed self time: each span's duration minus the
    /// durations of its direct children.
    pub fn self_nanos(&self) -> BTreeMap<&str, u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, nanos) in self.spans.iter().zip(own) {
            *by_name.entry(s.name.as_str()).or_insert(0) += nanos;
        }
        by_name
    }

    /// The trace file: every span, then the self-time summary.
    pub fn to_json(&self, workload: &str) -> String {
        assert!(self.open.is_empty(), "trace written with a span still open");
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"workload\": \"{workload}\", \"rep\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.rep
            );
        }
        out.push_str("], \"self_ns\": {");
        let own = self.self_nanos();
        for (i, (name, nanos)) in own.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {nanos}");
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut log = SpanLog::default();
        log.enter_at("pass", 0);
        log.enter_at("feed", 10);
        log.enter_at("publish", 20);
        log.exit_at(50); // publish: 30
        log.exit_at(100); // feed: 90 total, 60 self
        log.enter_at("feed", 100);
        log.exit_at(140); // feed: 40 self
        log.enter_at("finish", 150);
        log.exit_at(170); // finish: 20
        log.exit_at(200); // pass: 200 total, 200 - 90 - 40 - 20 = 50 self
        let own = log.self_nanos();
        assert_eq!(own["publish"], 30);
        assert_eq!(own["feed"], 100);
        assert_eq!(own["finish"], 20);
        assert_eq!(own["pass"], 50);
        // Self times partition the root.
        assert_eq!(own.values().sum::<u64>(), 200);
        assert_eq!(log.spans[2].parent, Some(1));
        assert!(log.to_json("w").contains("\"parent\": null"));
    }
}
