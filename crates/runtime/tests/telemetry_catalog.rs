//! The exported metric page is *exactly* the documented catalog
//! ([`swmon_telemetry::names::ALL`]), and its counters reconcile with the
//! run's final statistics. The CI `telemetry-overhead` job runs this test;
//! adding a metric to an exporter without cataloguing it (or vice versa)
//! fails here before it can drift from `docs/TELEMETRY.md`.

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

fn run_sharded(shards: usize, telemetry: TelemetryConfig) -> (swmon_runtime::Outcome, usize) {
    let props = vec![
        firewall::return_not_dropped(),
        firewall::return_not_dropped_within(Duration::from_millis(5)),
    ];
    let nprops = props.len();
    // 1200 events: a cadence of 256 has every shard checkpoint.
    let cfg =
        RuntimeConfig { shards, batch: 8, checkpoint_every: 256, telemetry, ..Default::default() };
    let rt = ShardedRuntime::new(props, cfg).expect("valid properties");
    let out = rt.run(trace().iter(), END).expect("run succeeds");
    (out, nprops)
}

fn run_instrumented(telemetry: TelemetryConfig) -> (swmon_runtime::Outcome, usize) {
    run_sharded(2, telemetry)
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
    assert_eq!(catalog.len(), 29);
}

/// `swmon_shard_backlog_events` is what a shard still owes the router; a
/// finished run owes nothing.
#[test]
fn backlog_gauge_is_zero_after_finish() {
    let (out, _) = run_instrumented(TelemetryConfig::default());
    let page = out.telemetry.export();
    let backlog: Vec<u64> = page
        .gauges
        .iter()
        .filter(|(k, _)| k.name == names::SHARD_BACKLOG)
        .map(|&(_, v)| v)
        .collect();
    assert_eq!(backlog, [0, 0], "one series per shard, each drained");
    assert!(out.stats.deliveries > 0);
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
    // The router-side ledger: every non-skipped event went to ≥1 shard.
    assert!(counter(names::DELIVERIES) >= counter(names::EVENTS_IN) - counter(names::SKIPPED));
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
    // The checkpoint layer: one timed sample per checkpoint on each shard,
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
fn sampled_timing_and_tracing_fill_their_instruments() {
    let telemetry = TelemetryConfig {
        stage_sample_every: 8,
        trace_every: 50,
        trace_seed: 3,
        trace_capacity: 256,
    };
    let (out, _) = run_instrumented(telemetry);
    let page = out.telemetry.export();
    let nanos = page
        .histograms
        .iter()
        .filter(|(k, _)| k.name == names::PROPERTY_STAGE_NANOS)
        .map(|(_, h)| h.count)
        .sum::<u64>();
    assert!(nanos > 0, "sampled stage timing recorded nothing");
    assert!(!page.spans.is_empty(), "tracing enabled but no spans");
    // Spans follow the deterministic sampling rule.
    assert!(page.spans.iter().all(|s| (s.seq + 3) % 50 == 0), "unsampled seq traced");
    // A traced event's lifecycle is ordered: routed ≤ enqueued ≤ applied.
    for span in &page.spans {
        let routed = page
            .spans
            .iter()
            .find(|s| s.seq == span.seq && s.stage == swmon_telemetry::SpanStage::Routed);
        if let Some(r) = routed {
            assert!(r.nanos <= span.nanos || span.stage == swmon_telemetry::SpanStage::Routed);
        }
    }
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
    assert!(page.spans.is_empty());
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
    let telemetry = TelemetryConfig { stage_sample_every: 8, ..Default::default() };
    let (out, _) = run_sharded(1, telemetry);
    let page = out.telemetry.export();
    for property in property_names(&page) {
        let events = *of(&page.counters, names::PROPERTY_EVENTS, property);
        assert!(events > 8, "{property} saw {events} events");
        let hist = |name| -> &HistogramSnapshot { of(&page.histograms, name, property) };
        assert_eq!(hist(names::PROPERTY_STAGE_NANOS).count, events.div_ceil(8), "{property}");
        assert_eq!(hist(names::PROPERTY_OCCUPANCY).count, events.div_ceil(8), "{property}");
    }
}

/// A hashed property has a replica on every shard; its live gauge is the
/// property's state — the sum over them — and a deploy that retires the
/// property retires its state.
#[test]
fn live_gauge_sums_replicas_and_retracts_on_removal() {
    let property = firewall::return_not_dropped();
    let name = property.name.clone();
    let cfg = RuntimeConfig { shards: 4, batch: 8, ..Default::default() };
    let rt = ShardedRuntime::new(vec![property], cfg).expect("valid property");
    assert_eq!(rt.router().routes().iter().filter(|r| r.is_hashed()).count(), 1);
    let live = |page: &Snapshot| *of(&page.gauges, names::PROPERTY_LIVE, &name);

    let out = rt.run(trace().iter(), END).expect("run succeeds");
    let per_shard: Vec<u64> = out.stats.per_shard.iter().map(|s| s.live_instances).collect();
    assert!(per_shard.iter().filter(|&&n| n > 0).count() > 1, "state on one shard: {per_shard:?}");
    assert_eq!(live(&out.telemetry.export()), per_shard.iter().sum::<u64>());

    let mut session = rt.start();
    for ev in &trace() {
        session.feed(ev).expect("no faults injected");
    }
    session.deploy(&DeployPlan::remove(name.clone())).expect("removal commits");
    // (Shards commit asynchronously; finishing joins them.)
    let page = session.finish(END).expect("run succeeds").telemetry.export();
    assert_eq!(live(&page), 0, "a retired property holds no state");
    assert!(*of(&page.counters, names::PROPERTY_EVENTS, &name) > 0, "its count stays");
}

#[test]
fn same_named_properties_share_one_series() {
    let props = vec![firewall::return_not_dropped(), firewall::return_not_dropped()];
    let name = props[0].name.clone();
    let rt = ShardedRuntime::new(props, RuntimeConfig::with_shards(2)).expect("valid properties");
    let out = rt.run(trace().iter(), END).expect("run succeeds");
    let page = out.telemetry.export();
    assert_eq!(property_names(&page), [name.as_str()]);
    assert_eq!(*of(&page.counters, names::PROPERTY_EVENTS, &name), out.stats.engine.events);
}
