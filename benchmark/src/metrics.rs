//! Every metric the benchmark reports — name, unit, direction and (for
//! end-to-end metrics) regression bound — in one table. `BENCHMARK.json`
//! is generated from it (`swmon-benchmark manifest`), and a run refuses to
//! report a metric the table does not name, so the two cannot drift.

use std::fmt::Write as _;

use crate::workloads::SPECS;

/// Seconds one run measures for, as `BENCHMARK.json` declares it.
pub const RUN_SECONDS: u64 = 30;

/// A metric's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    /// Final name; later changes are measured against it.
    pub name: String,
    /// Unit, in `BENCHMARK.json`'s alphabet.
    pub unit: &'static str,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// End-to-end only: the share of the parent's median the metric may
    /// worsen by before a change counts as a regression.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, higher_is_better: bool) -> Def {
    Def { name: name.to_string(), unit, higher_is_better, bound: None }
}

/// The end-to-end metrics: what a user of the monitor sees. Bounds are
/// max(floor, 2 x the spread seen across ten seeds), capped; see README,
/// "Noise and bounds".
pub fn end_to_end() -> Vec<Def> {
    let e2e = |name, unit, higher, bound| Def { bound: Some(bound), ..def(name, unit, higher) };
    vec![
        e2e("events_per_s", "events/s", true, 0.25),
        e2e("detect_p50_ms", "ms", false, 0.25),
        e2e("detect_p99_ms", "ms", false, 0.15),
        e2e("query_mean_us", "us", false, 0.25),
        e2e("peak_rss_mb", "MB", false, 0.10),
        e2e("setup_s", "s", false, 0.25),
    ]
}

/// `engine.ns_per_ev.<family>.<property>` for a catalog property name.
pub fn engine_metric(property: &str) -> String {
    format!("engine.ns_per_ev.{}", property.replace('/', "."))
}

/// The per-layer metrics, grouped by the module they time or count.
pub fn per_layer() -> Vec<Def> {
    let lower = |name: &str, unit| def(name, unit, false);
    let higher = |name: &str, unit| def(name, unit, true);
    let mut defs = vec![
        // The input itself: exact, and fixed by the seed.
        lower("input.events", "count"),
        lower("input.packets", "count"),
        lower("input.violations_expected", "count"),
        lower("input.fingerprint", "count"),
        lower("bench.gen_s", "s"),
        // packet: Packet::from_bytes + parsed()
        lower("packet.parse_ns_per_pkt", "ns"),
        lower("packet.parse_failed", "count"),
        // switch + sim + apps: Network::run_to_completion
        lower("switch.sim_ns_per_pkt", "ns"),
        lower("switch.events_per_pkt", "events/pkt"),
        // runtime.router: Router::new, masks
        lower("router.route_ns_per_ev", "ns"),
        higher("router.skipped_pct", "%"),
        lower("router.deliveries_per_ev", "1/event"),
        lower("router.dispatch_groups", "count"),
    ];
    // core.engine: Monitor::new / process / advance_to, one loop per property
    defs.extend(swmon_props::catalog().iter().map(|p| lower(&engine_metric(&p.name), "ns")));
    defs.extend([
        lower("engine.sum_ns_per_ev", "ns"),
        lower("engine.violations", "count"),
        lower("engine.live_instances_end", "count"),
        lower("engine.state_bytes_end", "bytes"),
        lower("engine.spawned", "count"),
        lower("engine.advanced", "count"),
        lower("engine.deduplicated", "count"),
        lower("engine.deadlines_fired", "count"),
        lower("engine.evicted", "count"),
        // core.monitorset: MonitorSet::process
        lower("monitorset.ns_per_ev", "ns"),
        higher("monitorset.events_per_s", "events/s"),
        // core.snapshot: Monitor::snapshot / to_bytes / restore
        lower("snapshot.us_at_10pct", "us"),
        lower("snapshot.us_at_end", "us"),
        lower("snapshot.bytes_at_10pct", "bytes"),
        lower("snapshot.bytes_at_end", "bytes"),
        lower("snapshot.restore_us_at_end", "us"),
        // runtime.session: feed, finish, Outcome.stats
        lower("session.feed_ns_per_ev", "ns"),
        lower("session.feed_p99_us", "us"),
        lower("session.feed_max_ms", "ms"),
        lower("session.finish_ms", "ms"),
        lower("session.checkpoints", "count"),
        lower("session.batches", "count"),
        lower("session.deliveries", "count"),
        higher("session.skipped", "count"),
        lower("session.feed_late_p99_us", "us"),
        lower("session.feed_late_max_ms", "ms"),
        higher("detect.samples", "count"),
        lower("detect.at_finish", "count"),
        higher("query.samples", "count"),
        // Demoted from end-to-end: its spread across seeds exceeds any bound.
        lower("query_p99_us", "us"),
        higher("session.telemetry_off_events_per_s", "events/s"),
        lower("telemetry.tax_pct", "%"),
        higher("session.no_sink_events_per_s", "events/s"),
        lower("sink.tax_pct", "%"),
        higher("session.fanned2_events_per_s", "events/s"),
        // runtime.merge: merge::merge
        lower("merge.ns_per_record", "ns"),
        // store: ingest, seal, to_bytes, from_bytes
        lower("store.ingest_ns_per_row", "ns"),
        higher("store.rows_per_publish", "rows"),
        lower("store.segments", "count"),
        lower("store.seal_ms", "ms"),
        lower("store.encoded_bytes", "bytes"),
        lower("store.encode_ms", "ms"),
        lower("store.decode_ms", "ms"),
        // store.swql: parse, Store::query per shape, live and sealed
        lower("swql.parse_us", "us"),
        lower("query.live_point_p50_us", "us"),
        lower("query.live_window_p50_us", "us"),
        lower("query.live_disj_p50_us", "us"),
        lower("query.sealed_point_p50_us", "us"),
        lower("query.sealed_window_p50_us", "us"),
        lower("query.sealed_disj_p50_us", "us"),
        // The ledger: standalone layer costs as shares of the session wall.
        lower("ledger.parse_pct", "%"),
        lower("ledger.route_pct", "%"),
        lower("ledger.engine_pct", "%"),
        lower("ledger.snapshot_pct", "%"),
        lower("ledger.ingest_pct", "%"),
        lower("ledger.merge_seal_pct", "%"),
        lower("ledger.unattributed_pct", "%"),
        lower("trace.overhead_pct", "%"),
    ]);
    defs
}

/// The values one run measured, checked against a table of definitions.
#[derive(Debug)]
pub struct Metrics {
    defs: Vec<Def>,
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set over `defs`.
    pub fn new(defs: Vec<Def>) -> Self {
        let values = vec![None; defs.len()];
        Metrics { defs, values }
    }

    /// Record `name`. Panics on a name the table lacks: that is a bug in
    /// the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the metric table"));
        self.values[i] = Some(value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.defs.iter().position(|d| d.name == name).and_then(|i| self.values[i])
    }

    /// Names the run did not record.
    pub fn missing(&self) -> Vec<&str> {
        self.defs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(d, _)| d.name.as_str())
            .collect()
    }

    /// One `name value unit` line per recorded metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (d, v) in self.defs.iter().zip(&self.values) {
            if let Some(v) = v {
                let _ = writeln!(out, "{:<44} {:>16} {}", d.name, fmt_value(*v), d.unit);
            }
        }
        out
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .defs
            .iter()
            .zip(&self.values)
            .filter_map(|(d, v)| {
                v.map(|v| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        d.name,
                        json_number(v),
                        d.unit
                    )
                })
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() < 1.0 {
        format!("{v:.7}")
    } else {
        format!("{v:.4}")
    }
}

/// A finite JSON number with all the digits measured.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

/// The contents of the root `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, s) in SPECS.iter().enumerate() {
        let sep = if i + 1 == SPECS.len() { "" } else { "," };
        let _ = writeln!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", s.name, s.why);
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let better = |d: &Def| if d.higher_is_better { "higher" } else { "lower" };
    let e2e = end_to_end();
    for (i, d) in e2e.iter().enumerate() {
        let sep = if i + 1 == e2e.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name,
            d.unit,
            better(d),
            d.bound.expect("end-to-end metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, d) in layers.iter().enumerate() {
        let sep = if i + 1 == layers.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name,
            d.unit,
            better(d)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn legal(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn the_table_meets_the_manifest_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{} per-layer metrics", layers.len());
        let mut names = HashSet::new();
        for d in e2e.iter().chain(&layers) {
            assert!(legal(&d.name, "_.-", 64), "name {:?}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{:?}", d.name);
            assert!(legal(d.unit, "_/%.-", 16), "unit {:?} of {}", d.unit, d.name);
            assert!(names.insert(d.name.clone()), "{} is defined twice", d.name);
        }
        assert!(e2e.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(e2e.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
        for s in &SPECS {
            assert!(legal(s.name, "_.-", 64) && names.insert(s.name.to_string()));
            assert!(s.why.len() <= 200 && !s.why.contains(['\n', '"']), "{}", s.why);
        }
        assert_eq!(layers.iter().filter(|d| d.name.starts_with("engine.ns_per_ev.")).count(), 21);
    }

    #[test]
    fn the_checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with `swmon-benchmark manifest`");
    }

    #[test]
    fn metrics_refuse_unknown_names_and_report_missing_ones() {
        let mut m = Metrics::new(end_to_end());
        m.set("events_per_s", 1234.5);
        assert_eq!(m.get("events_per_s"), Some(1234.5));
        assert!(m.missing().contains(&"setup_s"));
        assert!(m
            .to_json()
            .starts_with("{\"events_per_s\": {\"value\": 1234.5, \"unit\": \"events/s\"}"));
        assert!(std::panic::catch_unwind(move || m.set("nope", 1.0)).is_err());
    }
}
