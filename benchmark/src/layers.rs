//! The traced run: time the calls into each layer's public functions over
//! the workload's own input, from here, and build the ledger.
//!
//! Every measurement below is a span opened and closed by this file around
//! a public call (`Packet::parsed`, `Router::masks`, `Monitor::process`,
//! `Session::feed`, `Store::ingest`, ...). The standalone layer costs are
//! then set against the untraced session wall: what they do not explain is
//! `ledger.unattributed_pct` — journal, arena, telemetry and everything
//! else not callable from outside.

use std::sync::{Arc, Mutex};
use std::time::{Duration as WallDuration, Instant as Wall};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swmon_core::{Monitor, MonitorSet, MonitorSnapshot};
use swmon_packet::Packet;
use swmon_runtime::merge::merge;
use swmon_runtime::{
    AdaptiveConfig, Outcome, Router, RuntimeConfig, ShardedRuntime, TelemetryConfig, ViolationSink,
};
use swmon_sim::trace::NetEvent;
use swmon_store::{parse, Store};

use crate::metrics::{engine_metric, per_layer, Metrics};
use crate::session::{
    check_outcome, checked_pass, paced_pass, pinned, QueryPoint, Reference, Tally, SHAPES,
};
use crate::sink::{PublishLog, TimedSink};
use crate::span::SpanLog;
use crate::stats::{median, percentile, sorted};
use crate::workloads::Workload;

/// Events per `session.feed` span: bounds the trace's memory.
const FEED_BLOCK: usize = 1024;
/// Snapshots are timed at this many evenly spaced points of the trace.
const SNAPSHOT_MARKS: usize = 10;

/// The shared span log plus a helper that times a call inside a span.
#[derive(Clone)]
struct Tracer(Arc<Mutex<SpanLog>>);

impl Tracer {
    fn log(&self) -> std::sync::MutexGuard<'_, SpanLog> {
        self.0.lock().expect("span log lock poisoned")
    }

    /// Run `call` inside a span named `name`; also return its nanoseconds.
    fn span<T>(&self, name: &str, call: impl FnOnce() -> T) -> (T, f64) {
        self.log().enter(name);
        let t0 = Wall::now();
        let out = call();
        let nanos = t0.elapsed().as_nanos() as f64;
        self.log().exit();
        (out, nanos)
    }
}

fn median_of(samples: Vec<f64>) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(&sorted(samples))
    }
}

fn per(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// `core.engine`: one loop per property over the events the router
/// delivers to it, parse pre-warmed.
fn engine_loops(
    w: &Workload,
    warm: &[NetEvent],
    masks: &[u64],
    tracer: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
    want_violations: usize,
) -> f64 {
    let cfg = pinned().monitor;
    let end = w.raw.end_after(warm.len());
    let (mut total_ns, mut violations, mut live, mut state) = (0.0, 0, 0, 0);
    for p in swmon_props::catalog() {
        m.set(&engine_metric(&p.name), 0.0);
    }
    for (i, prop) in w.props.iter().enumerate() {
        let name = engine_metric(&prop.name);
        let bit = 1u64 << i;
        let (mut monitor, _) = tracer.span("engine.new", || Monitor::new(prop.clone(), cfg));
        let ((), fed_ns) = tracer.span(&name, || {
            for (ev, mask) in warm.iter().zip(masks) {
                if mask & bit != 0 {
                    monitor.process(ev);
                }
            }
        });
        live += monitor.live_instances();
        state += monitor.state_bytes();
        let ((), settle_ns) = tracer.span("engine.advance_to", || monitor.advance_to(end));
        violations += monitor.violations().len();
        m.set(&name, per(fed_ns + settle_ns, warm.len()));
        total_ns += fed_ns + settle_ns;
    }
    m.set("engine.sum_ns_per_ev", per(total_ns, warm.len()));
    m.set("engine.violations", violations as f64);
    m.set("engine.live_instances_end", live as f64);
    m.set("engine.state_bytes_end", state as f64);
    tally.attempted += 1;
    tally.fail(u64::from(violations != want_violations), || {
        format!("engine loops raised {violations} violations, reference {want_violations}")
    });
    total_ns
}

/// `core.monitorset` over the whole trace, pausing at ten evenly spaced
/// marks to time what a checkpoint does there: `snapshot()` of every
/// monitor. Returns the mean snapshot cost.
fn monitorset_and_snapshots(
    w: &Workload,
    warm: &[NetEvent],
    tracer: &Tracer,
    m: &mut Metrics,
) -> f64 {
    let cfg = pinned().monitor;
    let n = warm.len();
    let mut set = MonitorSet::new();
    for p in &w.props {
        set.add(p.clone(), cfg);
    }
    let snapshot_all = |set: &MonitorSet| -> (Vec<MonitorSnapshot>, f64) {
        // Median of three: one snapshot is a fraction of a millisecond.
        let mut runs: Vec<(Vec<MonitorSnapshot>, f64)> = (0..3)
            .map(|_| {
                tracer.span("snapshot", || set.monitors().iter().map(Monitor::snapshot).collect())
            })
            .collect();
        runs.sort_by(|a, b| a.1.total_cmp(&b.1));
        runs.swap_remove(1)
    };
    let encoded =
        |snaps: &[MonitorSnapshot]| snaps.iter().map(|s| s.to_bytes().len()).sum::<usize>();

    let mut busy_ns = 0.0;
    let mut snapshot_ns = Vec::with_capacity(SNAPSHOT_MARKS);
    let mut from = 0;
    for k in 1..=SNAPSHOT_MARKS {
        let to = k * n / SNAPSHOT_MARKS;
        let ((), ns) = tracer.span("monitorset.process", || {
            for ev in &warm[from..to] {
                set.process(ev);
            }
        });
        busy_ns += ns;
        from = to;
        let (snaps, ns) = snapshot_all(&set);
        snapshot_ns.push(ns);
        if k == 1 {
            m.set("snapshot.us_at_10pct", ns / 1e3);
            m.set("snapshot.bytes_at_10pct", encoded(&snaps) as f64);
        }
        if k == SNAPSHOT_MARKS {
            m.set("snapshot.us_at_end", ns / 1e3);
            m.set("snapshot.bytes_at_end", encoded(&snaps) as f64);
            let mut fresh: Vec<Monitor> =
                w.props.iter().map(|p| Monitor::new(p.clone(), cfg)).collect();
            let (restored, ns) = tracer.span("snapshot.restore", || {
                fresh.iter_mut().zip(&snaps).all(|(mon, snap)| mon.restore(snap).is_ok())
            });
            assert!(restored, "a monitor refused its own snapshot");
            m.set("snapshot.restore_us_at_end", ns / 1e3);
        }
    }
    let ((), ns) = tracer.span("monitorset.advance_to", || set.advance_to(w.raw.end_after(n)));
    busy_ns += ns;
    m.set("monitorset.ns_per_ev", per(busy_ns, n));
    m.set("monitorset.events_per_s", if busy_ns > 0.0 { n as f64 * 1e9 / busy_ns } else { 0.0 });
    snapshot_ns.iter().sum::<f64>() / snapshot_ns.len() as f64
}

/// The traced session pass: the pinned configuration behind a
/// [`TimedSink`], every `feed` timed, one span per [`FEED_BLOCK`] events.
struct TracedPass {
    wall_s: f64,
    feed_ns: Vec<f64>,
    finish_ns: f64,
    outcome: Outcome,
    log: PublishLog,
}

fn traced_pass(
    w: &Workload,
    reference: &Reference,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Option<TracedPass> {
    let events = w.raw.materialize();
    let end = w.raw.end_after(events.len());
    tally.attempted += events.len() as u64;
    let rt = ShardedRuntime::new(w.props.clone(), pinned()).ok()?;
    let mut feed_ns = Vec::with_capacity(events.len());
    let mut failure = None;
    let t0 = Wall::now();
    let sink = Arc::new(TimedSink::new(t0, Some(tracer.0.clone())));
    let store = sink.store();
    let ((finished, finish_ns), _) = tracer.span("session.pass", || {
        let (mut session, _) = tracer.span("session.start", || {
            rt.start_with_sink(Some(sink.clone() as Arc<dyn ViolationSink>))
        });
        for block in events.chunks(FEED_BLOCK) {
            tracer.span("session.feed", || {
                for ev in block {
                    let t = Wall::now();
                    let fed = session.feed(ev);
                    feed_ns.push(t.elapsed().as_nanos() as f64);
                    if let Err(e) = fed {
                        failure.get_or_insert(format!("traced feed: {e}"));
                    }
                }
            });
        }
        tracer.span("session.finish", || session.finish(end))
    });
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(what) = failure {
        tally.fail(1, || what);
        return None;
    }
    match finished {
        Ok(outcome) => {
            check_outcome(tally, "traced", &outcome, &reference.full, Some(&store));
            Some(TracedPass { wall_s, feed_ns, finish_ns, outcome, log: sink.take_log() })
        }
        Err(e) => {
            tally.fail(1, || format!("traced finish: {e}"));
            None
        }
    }
}

/// The four untraced session passes of a round: the pinned configuration,
/// the same without telemetry, the same without a sink, and the fanned
/// two-shard session (the only place a second thread exists). Returns each
/// one's wall seconds.
fn untraced_sessions(w: &Workload, reference: &Reference, tally: &mut Tally) -> Option<[f64; 4]> {
    let fanned = RuntimeConfig {
        shards: 2,
        adaptive: AdaptiveConfig::default(),
        ..RuntimeConfig::default()
    };
    let configs = [
        (pinned(), true),
        (RuntimeConfig { telemetry: TelemetryConfig::off(), ..pinned() }, true),
        (pinned(), false),
        (fanned, true),
    ];
    let mut walls = [0.0; 4];
    for (wall, (cfg, with_sink)) in walls.iter_mut().zip(configs) {
        *wall = checked_pass(w, cfg, with_sink, reference, tally)?.iter().sum();
    }
    Some(walls)
}

/// `runtime.merge` and `store`: replay the traced pass's publications, in
/// the batches observed, into a fresh store; seal, encode, decode. Returns
/// the sealed store and the (ingest, merge + seal) nanoseconds.
fn merge_and_store(
    traced: &TracedPass,
    seed: u64,
    tracer: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> (Store, f64, f64) {
    let merged = &traced.outcome.records;
    let mut shuffled = merged.clone();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6d65_7267);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.random_range(0..=i));
    }
    let (remerged, merge_ns) = tracer.span("merge", || merge(shuffled));
    m.set("merge.ns_per_record", per(merge_ns, merged.len()));

    let store = Store::new();
    let mut ingest_ns = 0.0;
    let mut next = 0;
    for &(rows, _) in &traced.log.batches {
        let batch = &traced.log.records[next..next + rows];
        next += rows;
        ingest_ns += tracer.span("store.ingest", || store.ingest(0, batch)).1;
    }
    let publishes = traced.log.batches.len();
    m.set("store.ingest_ns_per_row", per(ingest_ns, next));
    m.set("store.rows_per_publish", per(next as f64, publishes));
    m.set("store.segments", store.segment_count() as f64);
    let ((), seal_ns) = tracer.span("store.seal", || store.seal(&remerged));
    m.set("store.seal_ms", seal_ns / 1e6);
    let (bytes, encode_ns) = tracer.span("store.to_bytes", || store.to_bytes());
    m.set("store.encoded_bytes", bytes.len() as f64);
    m.set("store.encode_ms", encode_ns / 1e6);
    let (decoded, decode_ns) = tracer.span("store.from_bytes", || Store::from_bytes(&bytes));
    m.set("store.decode_ms", decode_ns / 1e6);
    tally.attempted += 1;
    let intact = decoded.is_ok_and(|d| d.len() == merged.len() as u64) && next == merged.len();
    tally.fail(u64::from(!intact), || "the store did not survive replay + encode + decode".into());
    (store, ingest_ns, merge_ns + seal_ns)
}

/// `store.swql`: parse cost of every planned query, and each shape's
/// latency against the sealed store.
fn swql_sealed(
    store: &Store,
    plan: &[QueryPoint],
    tracer: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let mut parse_us = Vec::new();
    let mut sealed_us: [Vec<f64>; 3] = Default::default();
    for point in plan {
        for (shape, src) in point.swql.iter().enumerate() {
            tally.attempted += 1;
            let (query, ns) = tracer.span("swql.parse", || parse(src));
            parse_us.push(ns / 1e3);
            match query {
                Ok(q) => {
                    sealed_us[shape].push(tracer.span("store.query", || store.query(&q)).1 / 1e3)
                }
                Err(e) => tally.fail(1, || format!("query {src:?}: {}", e.render(src))),
            }
        }
    }
    m.set("swql.parse_us", median_of(parse_us));
    for (shape, samples) in SHAPES.iter().zip(sealed_us) {
        m.set(&format!("query.sealed_{shape}_p50_us"), median_of(samples));
    }
}

/// One round: every layer measured once, back to back, so the ledger's
/// rows and the session wall they are shares of see the same machine.
fn round(
    w: &Workload,
    reference: &Reference,
    plan: &[QueryPoint],
    seed: u64,
    tracer: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Option<()> {
    let n = w.raw.len();

    // runtime.session: four untraced passes, then the traced one.
    let [plain, telemetry_off, no_sink, fanned2] = untraced_sessions(w, reference, tally)?;
    let traced = traced_pass(w, reference, tracer, tally)?;
    let rate = |wall_s: f64| n as f64 / wall_s;
    let tax = |without_s: f64| 100.0 * (plain - without_s) / plain;
    m.set("session.telemetry_off_events_per_s", rate(telemetry_off));
    m.set("telemetry.tax_pct", tax(telemetry_off));
    m.set("session.no_sink_events_per_s", rate(no_sink));
    m.set("sink.tax_pct", tax(no_sink));
    m.set("session.fanned2_events_per_s", rate(fanned2));
    m.set("trace.overhead_pct", 100.0 * (traced.wall_s - plain) / plain);
    let feed_sorted = sorted(traced.feed_ns.clone());
    m.set("session.feed_ns_per_ev", per(feed_sorted.iter().sum(), n));
    m.set("session.feed_p99_us", percentile(&feed_sorted, 0.99).0 / 1e3);
    m.set("session.feed_max_ms", feed_sorted.last().copied().unwrap_or(0.0) / 1e6);
    m.set("session.finish_ms", traced.finish_ns / 1e6);
    let stats = &traced.outcome.stats;
    m.set("session.checkpoints", stats.checkpoints as f64);
    m.set("session.batches", stats.batches as f64);
    m.set("session.deliveries", stats.deliveries as f64);
    m.set("session.skipped", stats.skipped as f64);
    m.set("engine.spawned", stats.engine.spawned as f64);
    m.set("engine.advanced", stats.engine.advanced as f64);
    m.set("engine.deduplicated", stats.engine.deduplicated as f64);
    m.set("engine.deadlines_fired", stats.engine.deadlines_fired as f64);
    m.set("engine.evicted", stats.engine.evicted as f64);

    // packet: from wire bytes to the memoized full-depth parse.
    let bytes = w.raw.packets().to_vec();
    let ((packets, parse_failed), parse_ns) = tracer.span("packet.parse", || {
        let mut failed = 0;
        let packets: Vec<Packet> = bytes
            .into_iter()
            .map(|b| {
                let p = Packet::from_bytes(b);
                failed += usize::from(p.parsed().is_err());
                p
            })
            .collect();
        (packets, failed)
    });
    m.set("packet.parse_ns_per_pkt", per(parse_ns, packets.len()));
    m.set("packet.parse_failed", parse_failed as f64);
    let warm = w.raw.materialize_over(packets.into_iter().map(Arc::new).collect());

    // runtime.router: one mask per event, as `Session::feed` computes it.
    let cfg = pinned();
    let (router, _) = tracer.span("router.new", || Router::new(&w.props, &cfg.monitor, cfg.shards));
    let (masks, route_ns) = tracer.span("router.masks", || {
        let mut out = [0u64];
        warm.iter()
            .map(|ev| {
                router.masks(ev, &mut out);
                out[0]
            })
            .collect::<Vec<u64>>()
    });
    let skipped = masks.iter().filter(|&&mask| mask == 0).count();
    let deliveries: u32 = masks.iter().map(|mask| mask.count_ones()).sum();
    m.set("router.route_ns_per_ev", per(route_ns, n));
    m.set("router.skipped_pct", per(100.0 * skipped as f64, n));
    m.set("router.deliveries_per_ev", per(f64::from(deliveries), n));
    m.set("router.dispatch_groups", router.dispatch_groups() as f64);

    let engine_ns = engine_loops(w, &warm, &masks, tracer, m, tally, reference.full.len());
    let snapshot_mean_ns = monitorset_and_snapshots(w, &warm, tracer, m);
    drop(warm);

    // The paced pass: lateness, sample counts and the live query shapes.
    let events = w.raw.materialize();
    let paced = paced_pass(w, &events, reference, plan, tally)?;
    drop(events);
    let late = sorted(paced.late_us);
    m.set("session.feed_late_p99_us", percentile(&late, 0.99).0);
    m.set("session.feed_late_max_ms", late.last().copied().unwrap_or(0.0) / 1e3);
    m.set("detect.samples", paced.detect_ms.len() as f64);
    m.set("detect.at_finish", paced.at_finish as f64);
    let pooled = sorted(paced.query_us.iter().flatten().copied().collect());
    m.set("query.samples", pooled.len() as f64);
    m.set("query_p99_us", if pooled.is_empty() { 0.0 } else { percentile(&pooled, 0.99).0 });
    for (shape, samples) in SHAPES.iter().zip(paced.query_us) {
        m.set(&format!("query.live_{shape}_p50_us"), median_of(samples));
    }

    let (store, ingest_ns, merge_seal_ns) = merge_and_store(&traced, seed, tracer, m, tally);
    swql_sealed(&store, plan, tracer, m, tally);

    // The ledger: standalone costs as shares of the untraced session wall.
    let snapshots_ns = stats.checkpoints as f64 * snapshot_mean_ns;
    let costs = [parse_ns, route_ns, engine_ns, snapshots_ns, ingest_ns, merge_seal_ns];
    for (row, ns) in LEDGER_ROWS.iter().zip(costs) {
        m.set(row, 100.0 * ns / (plain * 1e9));
    }
    Some(())
}

/// The ledger rows that, with `ledger.unattributed_pct`, sum to 100.
const LEDGER_ROWS: [&str; 6] = [
    "ledger.parse_pct",
    "ledger.route_pct",
    "ledger.engine_pct",
    "ledger.snapshot_pct",
    "ledger.ingest_pct",
    "ledger.merge_seal_pct",
];

/// Measure every layer in rounds until `budget` is used up and report each
/// metric's median over the rounds: this box slows and recovers in spells
/// of ten seconds or so, and a single timing catches one spell. Counts are
/// the same in every round. Returns the spans for the trace file.
pub fn measure(
    w: &Workload,
    reference: &Reference,
    plan: &[QueryPoint],
    seed: u64,
    budget: WallDuration,
    m: &mut Metrics,
    tally: &mut Tally,
) -> SpanLog {
    let deadline = Wall::now() + budget;
    let tracer = Tracer(Arc::new(Mutex::new(SpanLog::default())));
    let mut rounds = Vec::new();
    loop {
        let began = Wall::now();
        tracer.log().set_rep(rounds.len());
        let mut this = Metrics::new(per_layer());
        let done = round(w, reference, plan, seed, &tracer, &mut this, tally);
        if done.is_none() || tally.failed > 0 {
            break;
        }
        rounds.push(this);
        if Wall::now() + began.elapsed() > deadline {
            break;
        }
    }
    for def in per_layer() {
        let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(&def.name)).collect();
        if !values.is_empty() {
            m.set(&def.name, median_of(values));
        }
    }
    if !rounds.is_empty() {
        // switch + sim + apps: the generator's own simulator run.
        let sim_ns = w.sim_nanos.unwrap_or(0) as f64;
        let emitted = if w.sim_nanos.is_some() { w.raw.len() as f64 } else { 0.0 };
        m.set("switch.sim_ns_per_pkt", per(sim_ns, w.injected));
        m.set("switch.events_per_pkt", per(emitted, w.injected));
        let explained: f64 = LEDGER_ROWS.iter().filter_map(|row| m.get(row)).sum();
        m.set("ledger.unattributed_pct", 100.0 - explained);
    }
    Arc::try_unwrap(tracer.0)
        .expect("the sink that shared the span log is gone")
        .into_inner()
        .expect("span log lock poisoned")
}
