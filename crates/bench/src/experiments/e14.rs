//! **E14 (extension) — single-thread hot-path throughput.** E13 measured
//! how the engine scales *out* (sharding across cores); E14 measures how
//! fast one core has become after the hot-path rework:
//!
//! 1. **Interned bindings** — environments are fixed-capacity inline
//!    arrays of interned variables, so bind/unify are O(1) copies with no
//!    allocation (previously a `BTreeMap<String, _>` clone per guard).
//! 2. **Stage-indexed matching** — per awaiting stage, every guard
//!    supplies one exact-match probe ([`swmon_core::StageKeyPlan`]): a
//!    held variable it re-binds, or the packet identity a
//!    `same packet as N` demands. Instances are posted under the values
//!    they hold, so an event visits only the instances it can possibly
//!    clear or advance instead of every slot. (This workload's two
//!    firewall properties have no identity stage; the catalog-scale
//!    effect of identity probes is measured by `benchmark/` and tabled
//!    in docs/PERF.md.)
//! 3. **Event pre-dispatch** — [`swmon_core::MonitorSet`] skips monitors
//!    whose property cannot react to an event's class at all.
//!
//! The workload and properties are E13's exactly, so rows compare
//! directly against the pre-rework engine's reference throughput on the
//! same trace ([`BASELINE_EVENTS_PER_SEC`]). Every row is differentially
//! verified: its violations must match the per-monitor reference loop
//! byte-for-byte.

use crate::TextTable;
use std::time::Instant as WallInstant;
use swmon_core::{Monitor, MonitorConfig, MonitorSet, Property};
use swmon_runtime::merge::merge;
use swmon_runtime::{reference_records, signature, ViolationRecord};
use swmon_sim::time::{Duration, Instant};
use swmon_sim::trace::NetEvent;

use super::e13;

/// Events/sec of the *pre-rework* engine's reference row on this same
/// 256-flow, 20k-packet workload — the figure `BENCH_runtime.json`
/// recorded before the hot-path rework (PR "sharded multi-core monitor
/// runtime"); the checked-in file has since been regenerated on the
/// reworked engine, so the historical anchor is pinned here. The E14
/// acceptance bar is ≥2× this figure single-threaded.
pub const BASELINE_EVENTS_PER_SEC: f64 = 168_273.0;

/// Timing passes for the MonitorSet row; the fastest pass is reported
/// (the minimum rejects preempted runs). A single pass over the `--quick`
/// workload lasts ~2 ms, which is far too short to time once.
pub const TIMING_PASSES: usize = 7;

/// Each timed pass replays the trace through fresh `MonitorSet`s until at
/// least this many events sit inside the timed region, then divides by
/// the repetition count. At ~2.5M events/sec a pass is ~80 ms of timed
/// work — long enough for the clock and the scheduler — whether the trace
/// is the full 40,000 events (5 replays) or `--quick`'s 4,000 (50).
pub const MIN_TIMED_EVENTS: usize = 200_000;

/// One hot-path measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Configuration label.
    pub config: &'static str,
    /// Wall-clock events per second.
    pub events_per_sec: f64,
    /// Throughput relative to [`BASELINE_EVENTS_PER_SEC`].
    pub speedup_vs_baseline: f64,
    /// Violations found.
    pub violations: usize,
    /// True when the violations matched the reference loop byte-for-byte.
    pub verified: bool,
}

/// The experiment outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Events in the workload trace.
    pub events: usize,
    /// The recorded pre-rework baseline (events/sec).
    pub baseline_events_per_sec: f64,
    /// One row per measured configuration.
    pub rows: Vec<Row>,
}

/// Canonically merged records for a bank of already-run monitors, so
/// MonitorSet output compares against [`reference_records`] signatures.
fn records_of(monitors: &[Monitor]) -> Vec<ViolationRecord> {
    let mut records = Vec::new();
    for (i, m) in monitors.iter().enumerate() {
        for v in m.violations() {
            records.push(ViolationRecord::new(m.property(), i, 0, 0, v.clone()));
        }
    }
    merge(records)
}

/// One timed pass: replay the trace through `reps` fresh `MonitorSet`s
/// (built outside the timed region so only processing counts). Returns
/// per-replay seconds and the last set's canonically merged records —
/// every replay is deterministic and identical, which `verified` checks.
fn time_pass(
    props: &[Property],
    trace: &[NetEvent],
    end: Instant,
    reps: usize,
) -> (f64, Vec<ViolationRecord>) {
    let mut sets: Vec<MonitorSet> =
        (0..reps).map(|_| MonitorSet::from_properties(props.iter().cloned())).collect();
    let t0 = WallInstant::now();
    for set in &mut sets {
        for ev in trace {
            set.process(ev);
        }
        set.advance_to(end);
    }
    let secs = t0.elapsed().as_secs_f64() / reps as f64;
    let last = sets.last().expect("reps >= 1");
    (secs, records_of(last.monitors()))
}

/// The `MonitorSet` row: the fastest of [`TIMING_PASSES`] passes.
fn time_monitorset(
    props: &[Property],
    trace: &[NetEvent],
    end: Instant,
) -> (f64, Vec<ViolationRecord>) {
    let reps = (MIN_TIMED_EVENTS / trace.len().max(1)).max(1);
    (0..TIMING_PASSES)
        .map(|_| time_pass(props, trace, end, reps))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("TIMING_PASSES >= 1")
}

/// Measure the hot path over the E13 workload shape.
pub fn run(flows: u32, packets: u32) -> Outcome {
    let trace = e13::workload(flows, packets);
    let props = e13::properties();
    let cfg = MonitorConfig::default();
    let end = trace.last().map(|e| e.time + Duration::from_secs(120)).unwrap_or(Instant::ZERO);

    // Reference: the E13 measurement loop — every event through every
    // monitor, violations canonically merged. (Also the oracle every other
    // row verifies against.)
    let t0 = WallInstant::now();
    let reference = reference_records(&props, cfg, &trace, end);
    let ref_secs = t0.elapsed().as_secs_f64();
    let ref_sigs: Vec<String> = reference.iter().map(signature).collect();

    let mut rows = Vec::new();
    let mut push = |config, secs: f64, records: &[ViolationRecord]| {
        let eps = trace.len() as f64 / secs;
        rows.push(Row {
            config,
            events_per_sec: eps,
            speedup_vs_baseline: eps / BASELINE_EVENTS_PER_SEC,
            violations: records.len(),
            verified: records.iter().map(signature).collect::<Vec<_>>() == ref_sigs,
        });
    };
    push("per-monitor-loop", ref_secs, &reference);

    // The same monitors behind event-class pre-dispatch. (A standalone
    // `MonitorSet` carries no instrumentation; what telemetry costs a
    // session is the benchmark's `telemetry.tax_pct`.)
    let (set_secs, set_records) = time_monitorset(&props, &trace, end);
    push("monitorset-predispatch", set_secs, &set_records);

    Outcome { events: trace.len(), baseline_events_per_sec: BASELINE_EVENTS_PER_SEC, rows }
}

/// Printable report.
pub fn render(o: &Outcome) -> String {
    let mut t = TextTable::new(&[
        "configuration",
        "events/sec",
        "vs pre-rework baseline",
        "violations",
        "matches reference",
    ]);
    for r in &o.rows {
        t.row(vec![
            r.config.to_string(),
            format!("{:.0}", r.events_per_sec),
            format!("{:.2}x", r.speedup_vs_baseline),
            r.violations.to_string(),
            if r.verified { "yes".into() } else { "NO".into() },
        ]);
    }
    format!(
        "{}\n{} events; baseline {:.0} events/sec is the pre-rework engine's\nreference row on the identical workload (see BASELINE_EVENTS_PER_SEC). See\ndocs/PERF.md for the hot-path layers being measured.",
        t.render(),
        o.events,
        o.baseline_events_per_sec
    )
}

/// The outcome as a JSON document (the `BENCH_hotpath.json` artifact).
pub fn to_json(o: &Outcome) -> String {
    let mut rows = String::new();
    for (i, r) in o.rows.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"config\": \"{}\", \"events_per_sec\": {:.0}, \"speedup_vs_baseline\": {:.2}, \"violations\": {}, \"verified\": {}}}",
            r.config, r.events_per_sec, r.speedup_vs_baseline, r.violations, r.verified
        ));
    }
    format!(
        "{{\n  \"experiment\": \"e14-hotpath\",\n  \"events\": {},\n  \"baseline_events_per_sec\": {:.0},\n  \"rows\": [\n{}\n  ]\n}}\n",
        o.events, o.baseline_events_per_sec, rows
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_verifies_and_agrees_on_violations() {
        let o = run(32, 400);
        assert_eq!(o.rows.len(), 2);
        assert!(o.rows.iter().all(|r| r.verified), "{o:?}");
        let v = o.rows[0].violations;
        assert!(v > 0, "workload must produce violations");
        assert!(o.rows.iter().all(|r| r.violations == v));
    }

    #[test]
    fn render_and_json_mention_every_row() {
        let o = run(16, 120);
        let txt = render(&o);
        assert!(txt.contains("per-monitor-loop"));
        assert!(txt.contains("monitorset-predispatch"));
        let json = to_json(&o);
        assert!(json.contains("\"experiment\": \"e14-hotpath\""));
        assert!(json.contains("\"config\": \"monitorset-predispatch\""));
        assert!(json.contains("baseline_events_per_sec"));
    }
}
