//! The exported metric page is *exactly* the documented catalog
//! ([`swmon_telemetry::names::ALL`]), and its counters reconcile with the
//! run's final statistics. The CI `telemetry-overhead` job runs this test;
//! adding a metric to an exporter without cataloguing it (or vice versa)
//! fails here before it can drift from `docs/TELEMETRY.md`.

use swmon_core::Monitor;
use swmon_props::firewall;
use swmon_runtime::{DeployPlan, RuntimeConfig, ShardedRuntime, TelemetryConfig};
use swmon_sim::time::{Duration, Instant};
use swmon_sim::trace::NetEvent;
use swmon_telemetry::{names, HistogramSnapshot, Snapshot};
use swmon_workloads::trace::multi_flow_trace;

const END: Instant = Instant::from_nanos(u64::MAX / 2);

fn trace() -> Vec<NetEvent> {
    multi_flow_trace(24, 600, 0.4, 0.25, Duration::from_micros(2), 11)
}

fn run_instrumented(telemetry: TelemetryConfig) -> (swmon_runtime::Outcome, usize) {
    let props = vec![
        firewall::return_not_dropped(),
        firewall::return_not_dropped_within(Duration::from_millis(5)),
    ];
    let nprops = props.len();
    // 1200 events: a cadence of 256 has the shard checkpoint.
    let cfg = RuntimeConfig { batch: 8, checkpoint_every: 256, telemetry, ..Default::default() };
    let rt = ShardedRuntime::new(props, cfg).expect("valid properties");
    let out = rt.run(trace().iter(), END).expect("run succeeds");
    (out, nprops)
}

/// The shard's backlog series on `page`.
fn backlog(page: &Snapshot) -> Vec<u64> {
    let gauges = page.gauges.iter().filter(|(k, _)| k.name == names::SHARD_BACKLOG);
    gauges.map(|&(_, v)| v).collect()
}

/// The value of `property`'s series of a per-property metric.
fn of<'a, T>(series: &'a [(swmon_telemetry::Key, T)], name: &str, property: &str) -> &'a T {
    let mut hits = series.iter().filter(|(k, _)| {
        k.name == name && k.labels == [("property".to_string(), property.to_string())]
    });
    let (_, value) = hits.next().unwrap_or_else(|| panic!("no {name} series for {property}"));
    assert!(hits.next().is_none(), "duplicate {name} series for {property}");
    value
}

fn property_names(page: &Snapshot) -> Vec<&str> {
    let events = page.counters.iter().filter(|(k, _)| k.name == names::PROPERTY_EVENTS);
    events.map(|(k, _)| k.labels[0].1.as_str()).collect()
}

#[test]
fn export_covers_exactly_the_documented_catalog() {
    let (out, _) = run_instrumented(TelemetryConfig::default());
    let page = out.telemetry.export();
    let mut exported = page.names();
    exported.sort_unstable();
    let mut catalog: Vec<&str> = names::ALL.to_vec();
    catalog.sort_unstable();
    assert_eq!(exported, catalog, "exported page and documented catalog diverged");
    assert_eq!(catalog.len(), 28);
}

/// `swmon_shard_backlog_events` is what the shard still owes the router; a
/// finished run owes nothing.
#[test]
fn backlog_gauge_is_zero_after_finish() {
    let (out, _) = run_instrumented(TelemetryConfig::default());
    assert_eq!(backlog(&out.telemetry.export()), [0], "one series, drained");
    assert!(out.stats.deliveries > 0);
}

/// How far behind the monitor is, live: the events delivered and staged
/// for a batch not yet dispatched. Fewer than `batch` of them read as the
/// backlog on the live page; the dispatch that applies them, and `finish`,
/// read 0.
#[test]
fn backlog_gauge_counts_staged_events_until_their_dispatch() {
    let props = vec![firewall::return_not_dropped()];
    let batch = 16u64;
    // Staleness parked: only a full block dispatches.
    let cfg = RuntimeConfig { batch: batch as usize, flush_every: 1 << 30, ..Default::default() };
    let rt = ShardedRuntime::new(props, cfg).expect("valid property");
    let mut session = rt.start();
    let mut events = trace().into_iter();
    let mut staged = 0;
    while staged < batch - 1 {
        let ev = events.next().expect("the trace outlasts a batch");
        session.feed(&ev).expect("no faults injected");
        staged = session.live_stats().deliveries;
        assert_eq!(backlog(&session.telemetry().export()), [staged]);
    }
    assert!(staged > 0 && session.live_stats().per_shard[0].processed == 0);
    // The next delivered event fills the block: it is dispatched and the
    // backlog drains.
    while session.live_stats().deliveries == staged {
        session.feed(&events.next().expect("a delivered event")).expect("no faults injected");
    }
    assert_eq!(backlog(&session.telemetry().export()), [0]);
    assert_eq!(session.live_stats().per_shard[0].processed, batch);
    let out = session.finish(END).expect("run succeeds");
    assert_eq!(backlog(&out.telemetry.export()), [0]);
}

#[test]
fn exported_counters_reconcile_with_final_stats() {
    let (out, nprops) = run_instrumented(TelemetryConfig::default());
    let page = out.telemetry.export();
    let counter = |name: &str| page.counter(name).unwrap_or_else(|| panic!("{name} missing"));

    assert_eq!(counter(names::EVENTS_IN), out.stats.events_in);
    assert_eq!(counter(names::DELIVERIES), out.stats.deliveries);
    assert_eq!(counter(names::SKIPPED), out.stats.skipped);
    assert_eq!(counter(names::BATCHES), out.stats.batches);
    // The router-side ledger: every event is delivered once or skipped.
    assert_eq!(counter(names::DELIVERIES), counter(names::EVENTS_IN) - counter(names::SKIPPED));
    // The shard-side ledger: every delivery processed or shed, no loss.
    assert_eq!(
        counter(names::SHARD_DELIVERED),
        counter(names::SHARD_PROCESSED) + counter(names::SHARD_SHED)
    );
    assert_eq!(counter(names::SHARD_DELIVERED), out.stats.deliveries);
    assert_eq!(
        counter(names::SHARD_VIOLATIONS),
        out.stats.per_shard.iter().map(|s| s.violations).sum::<u64>()
    );
    // The checkpoint layer: one timed sample per checkpoint,
    // and they copied something (how little: `tests/checkpoint_cost.rs`).
    assert_eq!(counter(names::SHARD_CHECKPOINTS), out.stats.checkpoints);
    assert!(out.stats.checkpoints > 0);
    let timed = page.histograms.iter().filter(|(k, _)| k.name == names::SHARD_CHECKPOINT_NANOS);
    assert_eq!(timed.map(|(_, h)| h.count).sum::<u64>(), out.stats.checkpoints);
    assert!(counter(names::SHARD_CHECKPOINT_SLOTS) > 0);
    // Engine probes saw every monitor application (per-property fan-out).
    // Equality holds because this run is fault-free: with recoveries the
    // probes also count replays, which the restored MonitorStats do not.
    assert_eq!(counter(names::PROPERTY_EVENTS), out.stats.engine.events);
    // Per-property series carry one sample per property.
    let props_series =
        page.counters.iter().filter(|(k, _)| k.name == names::PROPERTY_EVENTS).count();
    assert_eq!(props_series, nprops);
}

#[test]
fn renders_prometheus_and_json_pages() {
    let (out, _) = run_instrumented(TelemetryConfig::default());
    let page = out.telemetry.export();
    let prom = page.to_prometheus();
    assert!(prom.contains(names::EVENTS_IN));
    assert!(prom.contains("swmon_shard_processed_total{shard=\"0\"}"));
    assert!(prom.contains("swmon_property_stage_nanos_count"));
    let json = page.to_json();
    assert!(json.contains("\"counters\""));
    assert!(json.contains(names::PROPERTY_OCCUPANCY));
}

#[test]
fn telemetry_off_still_reconciles_but_never_times() {
    let (out, _) = run_instrumented(TelemetryConfig::off());
    let page = out.telemetry.export();
    assert_eq!(page.counter(names::EVENTS_IN), Some(out.stats.events_in));
    let sampled = page
        .histograms
        .iter()
        .filter(|(k, _)| {
            k.name == names::PROPERTY_STAGE_NANOS || k.name == names::PROPERTY_OCCUPANCY
        })
        .map(|(_, h)| h.count)
        .sum::<u64>();
    assert_eq!(sampled, 0, "stage_sample_every = 0 must not time");
    // Per-property counts are part of the ledger, not an option.
    assert_eq!(page.counter(names::PROPERTY_EVENTS), Some(out.stats.engine.events));
    assert!(out.stats.engine.events > 0);
    // The counter ledger stays on: it is the live-snapshot substrate.
    assert_eq!(
        page.counter(names::SHARD_DELIVERED),
        Some(
            page.counter(names::SHARD_PROCESSED).unwrap()
                + page.counter(names::SHARD_SHED).unwrap()
        )
    );
}

/// Which applications are wall-timed is a function of the replica's own
/// event count, so the histograms' sizes are exact — a regression to
/// unsampled (or never-sampled) timing fails here, not on a stopwatch.
#[test]
fn stage_timing_cadence_is_exact() {
    let telemetry = TelemetryConfig { stage_sample_every: 8 };
    let (out, _) = run_instrumented(telemetry);
    let page = out.telemetry.export();
    for property in property_names(&page) {
        let events = *of(&page.counters, names::PROPERTY_EVENTS, property);
        assert!(events > 8, "{property} saw {events} events");
        let hist = |name| -> &HistogramSnapshot { of(&page.histograms, name, property) };
        assert_eq!(hist(names::PROPERTY_STAGE_NANOS).count, events.div_ceil(8), "{property}");
        assert_eq!(hist(names::PROPERTY_OCCUPANCY).count, events.div_ceil(8), "{property}");
    }
}

/// Two monitors of one property name report to one live gauge: it is the
/// sum of their state — each holding what a reference monitor over the
/// same trace holds — and a deploy that retires the property retires its
/// state.
#[test]
fn live_gauge_sums_replicas_and_retracts_on_removal() {
    let property = firewall::return_not_dropped();
    let name = property.name.clone();
    let cfg = RuntimeConfig { batch: 8, ..Default::default() };
    let rt = ShardedRuntime::new(vec![property.clone(), property.clone()], cfg)
        .expect("valid properties");
    let live = |page: &Snapshot| *of(&page.gauges, names::PROPERTY_LIVE, &name);

    let mut reference = Monitor::with_defaults(property);
    trace().iter().for_each(|ev| reference.process(ev));
    reference.advance_to(END);
    let held = reference.live_instances() as u64;
    assert!(held > 0, "the trace must leave instances live");
    let out = rt.run(trace().iter(), END).expect("run succeeds");
    assert_eq!(out.stats.per_shard[0].live_instances, 2 * held);
    assert_eq!(live(&out.telemetry.export()), 2 * held);

    let mut session = rt.start();
    for ev in &trace() {
        session.feed(ev).expect("no faults injected");
    }
    let mut both = DeployPlan::remove(name.clone());
    both.actions.extend(DeployPlan::remove(name.clone()).actions);
    session.deploy(&both).expect("removal commits");
    let page = session.finish(END).expect("run succeeds").telemetry.export();
    assert_eq!(live(&page), 0, "a retired property holds no state");
    assert!(*of(&page.counters, names::PROPERTY_EVENTS, &name) > 0, "its count stays");
}

#[test]
fn same_named_properties_share_one_series() {
    let props = vec![firewall::return_not_dropped(), firewall::return_not_dropped()];
    let name = props[0].name.clone();
    let rt = ShardedRuntime::new(props, RuntimeConfig::default()).expect("valid properties");
    let out = rt.run(trace().iter(), END).expect("run succeeds");
    let page = out.telemetry.export();
    assert_eq!(property_names(&page), [name.as_str()]);
    assert_eq!(*of(&page.counters, names::PROPERTY_EVENTS, &name), out.stats.engine.events);
}
