//! Detection is a batch behind the input, not a checkpoint — gated on
//! counts, so it holds on any machine.
//!
//! A shard hands its sink what a batch raised as soon as the batch is
//! applied, so a violation's lag — input ticks from its triggering event
//! to the feed whose dispatch published it — is bounded by the batch, or by
//! `flush_every` when batches never fill. The latency was not bought with
//! checkpoints (their count is pinned to what the cadence alone gives), nor
//! with store segments (a publish appends to the open tail). And it is not
//! bought with a clock: which feed publishes what is the same however slow
//! the sink or the source.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use swmon::runtime::{Outcome, RuntimeConfig, ShardedRuntime, ViolationRecord, ViolationSink};
use swmon::sim::Duration;
use swmon::store::StoreSink;
use swmon_workloads::trace::multi_flow_trace;

/// Rows the store's open tail holds before it is frozen (`TAIL_ROWS`,
/// private to `crates/store/src/store.rs`).
const TAIL_ROWS: u64 = 128;
/// Events in the trace below, and the checkpoints the default cadence
/// (every 1024 applied events) takes over them.
const EVENTS: u64 = 12_000;
const CHECKPOINTS: u64 = 11;

/// Notes each record's lag behind the feed that published it, and forwards
/// to a [`StoreSink`].
#[derive(Debug, Default)]
struct Lagging {
    /// Sequence number of the event being fed, set by the test.
    feeding: AtomicU64,
    /// Lag of every event-triggered record, in input ticks.
    lags: Mutex<Vec<u64>>,
    store: StoreSink,
}

impl ViolationSink for Lagging {
    fn publish(&self, _shard: usize, records: &[ViolationRecord]) {
        let now = self.feeding.load(Ordering::Relaxed);
        let triggered = records.iter().filter(|r| r.seq != u64::MAX);
        self.lags.lock().unwrap().extend(triggered.map(|r| now - r.seq));
        self.store.publish(0, records);
    }

    fn seal(&self, merged: &[ViolationRecord]) {
        self.store.seal(merged);
    }
}

/// Keeps `(event being fed, rows)` per publish, sleeping `pause` inside
/// each one — a slow sink, as a store under query load would be.
#[derive(Debug, Default)]
struct Pacing {
    feeding: AtomicU64,
    pause: std::time::Duration,
    publishes: Mutex<Vec<(u64, usize)>>,
}

impl ViolationSink for Pacing {
    fn publish(&self, _shard: usize, records: &[ViolationRecord]) {
        std::thread::sleep(self.pause);
        let at = self.feeding.load(Ordering::Relaxed);
        self.publishes.lock().unwrap().push((at, records.len()));
    }

    fn seal(&self, _merged: &[ViolationRecord]) {}
}

/// The benchmark's pinned session — one shard, driven inline on this
/// thread — over the catalog, with `cfg`'s cadence knobs: `before` runs
/// with each event's index ahead of its feed, `fed` between the last feed
/// and `finish`. Returns the outcome.
fn feed_all(
    cfg: RuntimeConfig,
    sink: Arc<dyn ViolationSink>,
    mut before: impl FnMut(u64),
    fed: impl FnOnce(),
) -> Outcome {
    let rt = ShardedRuntime::new(swmon_props::catalog(), cfg).expect("the catalog is valid");
    let trace = multi_flow_trace(256, 6_000, 0.4, 0.25, Duration::from_micros(2), 13);
    let mut session = rt.start_with_sink(Some(sink));
    for (seq, ev) in trace.iter().enumerate() {
        before(seq as u64);
        session.feed(ev).expect("no faults injected");
    }
    fed();
    let end = trace.last().unwrap().time + Duration::from_secs(120);
    let out = session.finish(end).expect("run succeeds");
    assert_eq!(out.stats.unaccounted_loss(), 0);
    assert_eq!(out.stats.skipped, 0, "the catalog takes every event of this trace");
    out
}

/// [`feed_all`] into a [`Lagging`] sink. Returns the outcome, the lags the
/// sink saw while feeding, and the store's segment count and row count as
/// the last feed left them.
fn run(cfg: RuntimeConfig) -> (Outcome, Vec<u64>, (usize, u64)) {
    let sink = Arc::new(Lagging::default());
    let store = sink.store.store();
    let (mut live, mut lags) = ((0, 0), Vec::new());
    let feeding = |seq| sink.feeding.store(seq, Ordering::Relaxed);
    let out = feed_all(cfg, sink.clone(), feeding, || {
        live = (store.segment_count(), store.len());
        lags = sink.lags.lock().unwrap().clone();
    });
    assert!(store.is_sealed());
    (out, lags, live)
}

#[test]
fn a_violation_is_published_within_its_batch() {
    let cfg = RuntimeConfig::default();
    let batch = cfg.batch as u64;
    assert_eq!(batch, 8, "the default batch: detection within eight events");
    let (out, lags, (segments, rows)) = run(cfg);
    assert!(lags.len() >= 500, "the trace must violate: {} records", lags.len());
    let worst = *lags.iter().max().unwrap();
    assert!(worst <= 7, "a record waited {worst} ticks behind a batch of {batch}");
    assert_eq!(*lags.iter().min().unwrap(), 0, "a batch's last event publishes at once");
    // The shard counts the same lags (to the last event it admitted), the
    // tail batch's — published inside `finish` — included.
    let probe = out.telemetry.shard();
    let counted = probe.publish_lag.snapshot();
    let triggered = out.records.iter().filter(|r| r.seq != u64::MAX).count() as u64;
    assert_eq!(counted.count, triggered);
    assert!(counted.max < batch && counted.sum >= lags.iter().sum(), "{counted:?}");
    // Not bought with checkpoints: the cadence alone — one per 1024 applied
    // events — gives these, as it did when a publish waited for one
    // (the number is pinned on the parent commit).
    assert_eq!(out.stats.checkpoints, out.stats.events_in / 1024);
    assert_eq!((out.stats.events_in, out.stats.checkpoints), (EVENTS, CHECKPOINTS));
    // Nor with segments: 1 500 batches published, and the log is one open
    // tail away from what a single publish of it all would have built.
    assert_eq!(out.stats.batches, 1_500);
    assert_eq!(out.stats.batches, EVENTS.div_ceil(batch));
    assert_eq!(rows as usize, lags.len());
    assert!((segments as u64) <= rows / TAIL_ROWS + 1, "{segments} segments, {rows} rows");
    assert_eq!(probe.store_published.get(), out.records.len() as u64);
}

#[test]
fn a_batch_that_never_fills_publishes_within_flush_every() {
    let cfg = RuntimeConfig { batch: 1 << 20, flush_every: 48, ..RuntimeConfig::default() };
    let (out, lags, _) = run(cfg);
    assert!(lags.len() >= 500, "only the staleness flush publishes: {} records", lags.len());
    let worst = *lags.iter().max().unwrap();
    assert!(worst <= 48, "a record waited {worst} ticks behind a flush every 48");
    assert!(out.telemetry.shard().publish_lag.snapshot().max <= 48);
    // A flush is a dispatch, not a checkpoint: the cadence still decides
    // (22 flushes of 48 are the first to reach 1024 applied events).
    assert_eq!(out.stats.checkpoints, EVENTS / (22 * 48));
}

/// Which feed publishes which rows is a function of the input, not of how
/// long anything took: a sink that sleeps 200 µs per publish, fed by a
/// source that stalls 5 ms before every 101st event (mid-batch, mostly),
/// sees the same publishes, at the same feeds, with the same row counts as
/// an instant sink fed flat out. The benchmark's `Fastest` pools each
/// violation's latency across paced passes and needs exactly this — a
/// dispatch driven by a clock (any flush deadline under 5 ms) fails here
/// before it can abort the benchmark.
#[test]
fn the_publish_stream_does_not_depend_on_the_sink_speed() {
    let publishes = |slow: bool| {
        let pause = std::time::Duration::from_micros(if slow { 200 } else { 0 });
        let sink = Arc::new(Pacing { pause, ..Pacing::default() });
        let before = |seq| {
            sink.feeding.store(seq, Ordering::Relaxed);
            if slow && seq % 101 == 100 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        };
        feed_all(RuntimeConfig::default(), sink.clone(), before, || {});
        let publishes = sink.publishes.lock().unwrap().clone();
        publishes
    };
    let instant = publishes(false);
    assert!(instant.len() >= 100, "{} publishes", instant.len());
    assert_eq!(publishes(true), instant);
}
