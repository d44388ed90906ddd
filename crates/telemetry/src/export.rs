//! Snapshot export: a frozen metric page rendered as Prometheus text
//! exposition or as a JSON report.
//!
//! Rendering is hand-rolled (the build environment is offline; no serde).
//! The JSON writer escapes strings; names and labels are produced by this
//! workspace, but escaping keeps the output well-formed even if a property
//! name ever carries a quote.

use crate::metrics::{bucket_bound, HistogramSnapshot, BUCKETS};
use std::fmt::Write as _;
use swmon_core::json::escape;

/// A metric identity: name plus `(label, value)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    /// Metric name (Prometheus conventions: `snake_case`, `_total` suffix
    /// for counters).
    pub name: String,
    /// Label pairs, in output order.
    pub labels: Vec<(String, String)>,
}

impl Key {
    /// A label-less key.
    pub fn plain(name: &str) -> Self {
        Key { name: name.to_string(), labels: Vec::new() }
    }

    /// A key with one label.
    pub fn labeled(name: &str, label: &str, value: impl ToString) -> Self {
        Key { name: name.to_string(), labels: vec![(label.to_string(), value.to_string())] }
    }

    fn prometheus(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> =
            self.labels.iter().map(|(k, v)| format!("{k}=\"{}\"", label_escape(v))).collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }

    fn prometheus_with(&self, extra_label: &str, extra_value: &str) -> String {
        let mut labels: Vec<String> =
            self.labels.iter().map(|(k, v)| format!("{k}=\"{}\"", label_escape(v))).collect();
        labels.push(format!("{extra_label}=\"{extra_value}\""));
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// A free-form annotation attached to a snapshot (e.g. what a fault plan
/// did to the monitored traffic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// Annotation name.
    pub label: String,
    /// Annotation value.
    pub value: u64,
}

/// A frozen, renderable metric page.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values.
    pub counters: Vec<(Key, u64)>,
    /// Gauge values.
    pub gauges: Vec<(Key, u64)>,
    /// Histogram summaries.
    pub histograms: Vec<(Key, HistogramSnapshot)>,
    /// Out-of-band annotations (fault-injection activity, run metadata).
    pub annotations: Vec<Annotation>,
}

impl Snapshot {
    /// Append an annotation.
    pub fn annotate(&mut self, label: &str, value: u64) {
        self.annotations.push(Annotation { label: label.to_string(), value });
    }

    /// The value of a counter by name (labels summed), if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        let mut found = false;
        let mut total = 0;
        for (k, v) in &self.counters {
            if k.name == name {
                found = true;
                total += v;
            }
        }
        found.then_some(total)
    }

    /// All distinct metric names on the page (counters, gauges, histograms).
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .counters
            .iter()
            .map(|(k, _)| k.name.as_str())
            .chain(self.gauges.iter().map(|(k, _)| k.name.as_str()))
            .chain(self.histograms.iter().map(|(k, _)| k.name.as_str()))
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Prometheus text exposition (version 0.0.4).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (key, v) in &self.counters {
            let _ = writeln!(out, "{} {}", key.prometheus(), v);
        }
        for (key, v) in &self.gauges {
            let _ = writeln!(out, "{} {}", key.prometheus(), v);
        }
        for (key, h) in &self.histograms {
            let mut cumulative = 0u64;
            for i in 0..BUCKETS {
                if h.buckets[i] == 0 && i != BUCKETS - 1 {
                    continue;
                }
                cumulative += h.buckets[i];
                let le =
                    if i == BUCKETS - 1 { "+Inf".to_string() } else { bucket_bound(i).to_string() };
                let _ = writeln!(
                    out,
                    "{} {}",
                    Key { name: format!("{}_bucket", key.name), labels: key.labels.clone() }
                        .prometheus_with("le", &le),
                    cumulative
                );
            }
            let _ = writeln!(
                out,
                "{} {}",
                Key { name: format!("{}_sum", key.name), labels: key.labels.clone() }.prometheus(),
                h.sum
            );
            let _ = writeln!(
                out,
                "{} {}",
                Key { name: format!("{}_count", key.name), labels: key.labels.clone() }
                    .prometheus(),
                h.count
            );
        }
        for a in &self.annotations {
            let _ = writeln!(
                out,
                "# ANNOTATION {} {}",
                a.label.replace(|c: char| c.is_whitespace(), "_"),
                a.value
            );
        }
        out
    }

    /// The page as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [");
        let mut first = true;
        for (k, v) in &self.counters {
            json_entry(&mut out, &mut first, k, &v.to_string());
        }
        out.push_str("\n  ],\n  \"gauges\": [");
        first = true;
        for (k, v) in &self.gauges {
            json_entry(&mut out, &mut first, k, &v.to_string());
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        first = true;
        for (k, h) in &self.histograms {
            let body = format!(
                "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.1}, \"p50\": {}, \"p99\": {}}}",
                h.count,
                h.sum,
                h.max,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99)
            );
            json_entry(&mut out, &mut first, k, &body);
        }
        out.push_str("\n  ],\n  \"annotations\": {");
        for (i, a) in self.annotations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", escape(&a.label), a.value);
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

fn json_entry(out: &mut String, first: &mut bool, key: &Key, value_json: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let labels: Vec<String> =
        key.labels.iter().map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v))).collect();
    let _ = write!(
        out,
        "\n    {{\"name\": \"{}\", \"labels\": {{{}}}, \"value\": {}}}",
        escape(&key.name),
        labels.join(", "),
        value_json
    );
}

/// Prometheus label-value escaping: the exposition format defines exactly
/// these three escapes (every other character is legal raw). JSON output
/// uses [`swmon_core::json::escape`] instead.
fn label_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn page() -> Snapshot {
        let h = Histogram::new();
        h.record(3);
        h.record(700);
        let mut s = Snapshot {
            counters: vec![
                (Key::plain("swmon_events_in_total"), 10),
                (Key::labeled("swmon_shard_processed_total", "shard", 0), 7),
                (Key::labeled("swmon_shard_processed_total", "shard", 1), 3),
            ],
            gauges: vec![(Key::labeled("swmon_property_live_instances", "property", "fw"), 4)],
            histograms: vec![(Key::plain("swmon_engine_stage_nanos"), h.snapshot())],
            annotations: Vec::new(),
        };
        s.annotate("faults dropped", 2);
        s
    }

    #[test]
    fn prometheus_page_has_counters_labels_and_histogram_series() {
        let text = page().to_prometheus();
        assert!(text.contains("swmon_events_in_total 10"));
        assert!(text.contains("swmon_shard_processed_total{shard=\"0\"} 7"));
        assert!(text.contains("swmon_engine_stage_nanos_bucket{le=\"4\"} 1"));
        assert!(text.contains("swmon_engine_stage_nanos_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("swmon_engine_stage_nanos_sum 703"));
        assert!(text.contains("swmon_engine_stage_nanos_count 2"));
        assert!(text.contains("# ANNOTATION faults_dropped 2"));
    }

    #[test]
    fn json_page_is_structured_and_queryable() {
        let page = page();
        let json = page.to_json();
        assert!(json.contains("\"name\": \"swmon_events_in_total\""));
        assert!(json.contains("\"shard\": \"1\""));
        assert!(json.contains("\"faults dropped\": 2"));
        assert_eq!(page.counter("swmon_shard_processed_total"), Some(10), "labels summed");
        assert_eq!(page.counter("missing"), None);
        assert!(page.names().contains(&"swmon_engine_stage_nanos"));
    }

    #[test]
    fn escaping_keeps_output_well_formed() {
        let s = Snapshot {
            counters: vec![(Key::labeled("m", "p", "a\"b\\c"), 1)],
            ..Default::default()
        };
        assert!(s.to_prometheus().contains("p=\"a\\\"b\\\\c\""));
        assert!(s.to_json().contains("a\\\"b\\\\c"));
    }

    #[test]
    fn json_page_with_control_characters_in_a_label_round_trips() {
        // The DSL's string lexer accepts any character but `"`, so a
        // property — and with it a label — can be named like this.
        let name = "odd\tname\r\u{1}\u{1f}";
        let mut s = Snapshot {
            counters: vec![(Key::labeled("m", "property", name), 1)],
            ..Default::default()
        };
        s.annotate(name, 2);
        let doc = swmon_analysis::json::parse(&s.to_json()).expect("strictly valid JSON");
        let counter = &doc.get("counters").and_then(|c| c.as_arr()).expect("counters")[0];
        let label = counter.get("labels").and_then(|l| l.get("property")).and_then(|v| v.as_str());
        assert_eq!(label, Some(name));
        assert!(doc.get("annotations").and_then(|a| a.get(name)).is_some());
    }
}
