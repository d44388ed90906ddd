//! **`repro stats` — the telemetry page over the full catalog.** Runs the
//! complete 21-property catalog ([`swmon_props::catalog`]) over a faulted
//! workload ([`swmon_workloads::trace::lossy_trace`]) on the supervised
//! runtime with its default (always-on) telemetry, audits live snapshots
//! mid-run, and renders the exported metric page in both exposition
//! formats.
//!
//! The ledger must reconcile literally: every delivery is processed or
//! shed (`delivered == processed + shed`, zero unaccounted loss), and every
//! event is delivered once or skipped, so
//! `events_in == processed + shed + skipped`.
//!
//! Beside the ledger it reports how many monitors an event wakes:
//! `visits_per_event`, the sum of `swmon_property_events_total` (one count
//! per monitor visit) over `swmon_events_in_total` — the spawn index's
//! judge.
//!
//! Every live snapshot taken mid-run must already satisfy
//! `unaccounted_loss() == 0` (see `crates/runtime/src/telemetry.rs` for
//! why that holds by construction). The network fault plan's activity is
//! attached to the page as annotations
//! ([`swmon_telemetry::annotate_faults`]), so the exported report says
//! what the traffic had been through.

use crate::TextTable;
use swmon_runtime::{RuntimeConfig, RuntimeStats, ShardedRuntime};
use swmon_sim::time::{Duration, Instant};
use swmon_sim::FaultLog;
use swmon_telemetry::{annotate_faults, names, Snapshot};
use swmon_workloads::trace::{fault_plan, lossy_trace};

/// The stats run's outcome: final statistics plus the exported page.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Events in the (post-fault) workload trace.
    pub events: usize,
    /// Properties monitored (the full catalog).
    pub properties: usize,
    /// Merged violations found.
    pub violations: usize,
    /// Mid-run live snapshots audited (each must show zero unaccounted
    /// loss).
    pub live_checks: usize,
    /// Final run statistics.
    pub stats: RuntimeStats,
    /// What the fault plan did to the base traffic.
    pub fault_log: FaultLog,
    /// Monitor visits per input event ([`visits_per_event`]).
    pub visits_per_event: f64,
    /// The exported metric page, fault activity annotated.
    pub page: Snapshot,
    /// Whether every counter identity held, and every live snapshot
    /// audited clean.
    pub reconciled: bool,
}

/// The counter identities; false as well if any catalogued counter is
/// missing from the page.
fn reconcile(page: &Snapshot, stats: &RuntimeStats) -> bool {
    let (Some(events_in), Some(skipped), Some(delivered), Some(processed), Some(shed)) = (
        page.counter(names::EVENTS_IN),
        page.counter(names::SKIPPED),
        page.counter(names::SHARD_DELIVERED),
        page.counter(names::SHARD_PROCESSED),
        page.counter(names::SHARD_SHED),
    ) else {
        return false;
    };
    // The page and `stats` are two reads of one ledger (the hub), so there
    // is nothing to cross-check between them; what can fail is the
    // accounting itself: the router-side count against the shard side.
    delivered == processed + shed
        && stats.unaccounted_loss() == 0
        && events_in == processed + shed + skipped
}

/// How many monitors an event wakes: monitor visits, summed over every
/// property's `swmon_property_events_total`, per `swmon_events_in_total`. Zero
/// on a page that counted no input.
pub fn visits_per_event(page: &Snapshot) -> f64 {
    let visits = page.counter(names::PROPERTY_EVENTS).unwrap_or(0);
    match page.counter(names::EVENTS_IN) {
        Some(events) if events > 0 => visits as f64 / events as f64,
        _ => 0.0,
    }
}

/// Run the catalog over a `flows`-flow, `packets`-packet faulted workload,
/// auditing live snapshots along the way.
pub fn run(flows: u32, packets: u32) -> Outcome {
    let props = swmon_props::catalog();
    let properties = props.len();
    let span = Duration::from_micros(2) * u64::from(packets);
    let quarter = Duration::from_nanos(span.as_nanos() / 4);
    let (trace, fault_log) = lossy_trace(flows, packets, 7, &fault_plan(0x57a75, span, quarter));
    let end = trace.last().map(|e| e.time + Duration::from_secs(120)).unwrap_or(Instant::ZERO);

    let rt =
        ShardedRuntime::new(props, RuntimeConfig::default()).expect("catalog properties are valid");
    let mut session = rt.start();
    let mut live_checks = 0;
    let mut live_ok = true;
    for (i, ev) in trace.iter().enumerate() {
        session.feed(ev).expect("no worker faults injected");
        // Audit the live channel at irregular mid-run points.
        if i % 499 == 0 {
            live_ok &= session.live_stats().unaccounted_loss() == 0;
            live_checks += 1;
        }
    }
    let out = session.finish(end).expect("fault-free run cannot fail");

    let mut page = out.telemetry.export();
    annotate_faults(&mut page, &fault_log);
    let reconciled = live_ok && reconcile(&page, &out.stats);
    Outcome {
        visits_per_event: visits_per_event(&page),
        events: trace.len(),
        properties,
        violations: out.records.len(),
        live_checks,
        stats: out.stats,
        fault_log,
        page,
        reconciled,
    }
}

/// Printable report: run summary, then the Prometheus exposition page.
pub fn render(o: &Outcome) -> String {
    let mut t = TextTable::new(&["quantity", "value"]);
    t.row(vec!["events (post-fault)".into(), o.events.to_string()]);
    t.row(vec!["properties monitored".into(), o.properties.to_string()]);
    t.row(vec!["violations".into(), o.violations.to_string()]);
    t.row(vec!["restarts".into(), o.stats.restarts.to_string()]);
    t.row(vec!["shed".into(), o.stats.shed.to_string()]);
    t.row(vec!["visits per event".into(), format!("{:.2}", o.visits_per_event)]);
    t.row(vec!["live snapshots audited".into(), o.live_checks.to_string()]);
    t.row(vec!["counters reconcile".into(), if o.reconciled { "yes".into() } else { "NO".into() }]);
    format!(
        "{}\nReconciliation: events_in == processed + shed + skipped (docs/TELEMETRY.md). \
         Exported page follows.\n\n{}",
        t.render(),
        o.page.to_prometheus()
    )
}

/// The outcome as a JSON document: run metadata wrapping the page.
pub fn to_json(o: &Outcome) -> String {
    format!(
        "{{\n  \"experiment\": \"stats-telemetry-page\",\n  \"events\": {},\n  \
         \"properties\": {},\n  \"violations\": {},\n  \
         \"live_checks\": {},\n  \"visits_per_event\": {:.4},\n  \"reconciled\": {},\n  \
         \"page\": {}}}\n",
        o.events,
        o.properties,
        o.violations,
        o.live_checks,
        o.visits_per_event,
        o.reconciled,
        o.page.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_workloads::trace::multi_flow_trace;

    #[test]
    fn literal_identity_holds_at_one_shard() {
        let o = run(8, 400);
        assert!(o.reconciled, "{:?}", o.stats);
        assert!(o.live_checks > 0);
        assert!(o.violations > 0, "the catalog must find violations in faulted traffic");
        let c = |name| o.page.counter(name).expect("catalogued counter");
        assert_eq!(
            c(names::EVENTS_IN),
            c(names::SHARD_PROCESSED) + c(names::SHARD_SHED) + c(names::SKIPPED)
        );
        assert_eq!(c(names::SHARD_DELIVERED), c(names::SHARD_PROCESSED) + c(names::SHARD_SHED));
        // The fault plan's activity rides along as annotations.
        assert!(o.page.annotations.iter().any(|a| a.label == "fault_input_events"));
        assert!(o.page.annotations.iter().any(|a| a.label == "fault_oob_injected"));
    }

    /// The spawn index's judge: over the TCP catalog workload, an event
    /// wakes at most 7 of the 21 monitors (about 17 before the index: all
    /// the class mask admits).
    #[test]
    fn an_event_wakes_at_most_seven_monitors_on_the_tcp_catalog() {
        let trace = multi_flow_trace(256, 12_500, 0.4, 0.25, Duration::from_micros(2), 13);
        let end = trace.last().unwrap().time + Duration::from_secs(120);
        let rt = ShardedRuntime::new(swmon_props::catalog(), RuntimeConfig::default()).unwrap();
        let out = rt.run(trace.iter(), end).unwrap();
        let visits = visits_per_event(&out.telemetry.export());
        assert!(visits > 0.0 && visits <= 7.0, "{visits:.2} visits per event");
    }

    #[test]
    fn render_and_json_carry_both_expositions() {
        let o = run(8, 200);
        let txt = render(&o);
        assert!(txt.contains("counters reconcile"));
        assert!(txt.contains(names::EVENTS_IN));
        assert!(txt.contains("# ANNOTATION fault_dropped_events"));
        let json = to_json(&o);
        assert!(json.contains("\"experiment\": \"stats-telemetry-page\""));
        assert!(json.contains("\"reconciled\": true"));
        assert!(json.contains("\"visits_per_event\": "));
        assert!(txt.contains("visits per event"));
        assert!(json.contains("\"counters\""));
        assert!(json.contains(names::PROPERTY_EVENTS));
    }
}
