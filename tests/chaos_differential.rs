//! Chaos differential: a supervised run whose workers are crashed
//! mid-stream by a deterministic fault schedule must produce the *same
//! merged violation stream, byte-for-byte*, as the fault-free
//! single-threaded reference — over the full 21-property catalog, on a
//! workload already battered by network faults (drops, duplicates,
//! reordering, a switch crash window). And nothing may vanish silently:
//! every delivered event is processed or explicitly shed
//! (`RuntimeStats::unaccounted_loss() == 0`).
//!
//! The same holds for what a live [`ViolationSink`] is handed *while* the
//! shard crashes: its published stream is the fault-free run's, record for
//! record — nothing twice, nothing retracted, nothing altered.

use std::sync::{Arc, Mutex};

use swmon::monitor::{var, Atom, EventPattern, Guard, MonitorConfig, Property, Stage};
use swmon::packet::{Field, Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
use swmon::runtime::{
    reference_records, signature, silence_injected_panics, DeployPlan, FaultPoint, Outcome,
    RuntimeConfig, RuntimeError, RuntimeStats, ShardedRuntime, ViolationRecord, ViolationSink,
    MAX_RESTARTS,
};
use swmon::sim::{
    CrashWindow, Duration, FaultPlan, Instant, NetEvent, PortNo, SwitchId, TraceBuilder,
};
use swmon::store::StoreSink;
use swmon_bench::experiments::crash_schedule;
use swmon_workloads::trace::lossy_trace;

/// The chaos workload: the E13-shaped interleaved trace pushed through a
/// seeded fault plan, with one switch-crash window (whose `PortDown`/
/// `PortUp` out-of-band events some catalog properties react to).
fn chaos_trace() -> (Vec<NetEvent>, Instant) {
    let plan = FaultPlan {
        seed: 0x5eed,
        drop_fraction: 0.03,
        duplicate_fraction: 0.02,
        reorder_fraction: 0.03,
        crashes: vec![CrashWindow {
            switch: SwitchId(0),
            down: Instant::ZERO + Duration::from_micros(400),
            up: Instant::ZERO + Duration::from_micros(700),
            port: PortNo(0),
        }],
    };
    let (trace, log) = lossy_trace(48, 1_200, 7, &plan);
    assert!(log.accounted(), "the fault plan itself must account its edits: {log:?}");
    let end = trace.last().unwrap().time + Duration::from_secs(120);
    (trace, end)
}

/// The headline acceptance check: >= 3 injected worker panics across the
/// catalog deployment, output byte-identical to the fault-free reference,
/// zero silent loss.
#[test]
fn crashed_workers_recover_to_the_reference_output() {
    silence_injected_panics();
    let props = swmon_props::catalog();
    let (trace, end) = chaos_trace();
    let expect: Vec<String> = reference_records(&props, MonitorConfig::default(), &trace, end)
        .iter()
        .map(signature)
        .collect();
    assert!(!expect.is_empty(), "the chaos workload must produce violations");

    let cfg = RuntimeConfig {
        // Small cadence so crashes land between checkpoints and recovery
        // actually replays a journal suffix.
        checkpoint_every: 128,
        inject_faults: crash_schedule(trace.len(), 5),
        ..Default::default()
    };
    let rt = ShardedRuntime::new(props, cfg).expect("catalog properties are valid");
    let out = rt.run(&trace, end).expect("crashes stay within the restart budget");

    assert!(out.stats.restarts >= 3, "schedule must actually fire: {:?}", out.stats);
    assert!(out.stats.replayed > 0, "recovery must replay the journal gap");
    assert_eq!(out.stats.shed, 0, "an adequate journal sheds nothing");
    assert_eq!(out.stats.unaccounted_loss(), 0, "no silent loss: {:?}", out.stats);
    assert_eq!(out.signatures(), expect, "recovered output diverged from the reference");
}

/// Degradation is explicit, never silent: with the journal starved, events
/// are shed, but each one lands in a reported `MonitoringGap`, the
/// delivered/processed/shed ledger balances, and the violations that *are*
/// raised during a gap carry downgraded provenance.
#[test]
fn starved_journal_degrades_explicitly() {
    silence_injected_panics();
    let props = swmon_props::catalog();
    let (trace, end) = chaos_trace();
    // The batch is named: at the default of 8 a 16-item journal checkpoints
    // before it overflows.
    let cfg = RuntimeConfig { batch: 64, journal_limit: 16, ..Default::default() };
    let rt = ShardedRuntime::new(props, cfg).expect("catalog properties are valid");
    let out = rt.run(&trace, end).expect("shedding is not a failure");

    let s = &out.stats;
    assert!(s.shed > 0, "a 16-item journal against 64-item batches must shed");
    assert_eq!(s.unaccounted_loss(), 0, "shed events are accounted, not lost: {s:?}");
    let gap_total: u64 = s.gaps.iter().map(|g| g.shed).sum();
    assert_eq!(gap_total, s.shed, "every shed event is inside a reported gap");
    assert!(s.degraded_violations > 0, "gap-time violations are flagged");
    assert!(
        out.records.iter().any(|r| r.violation.degraded),
        "downgraded provenance must survive the merge"
    );
}

/// A sink that keeps every publish, in arrival order, and forwards to a
/// [`StoreSink`].
#[derive(Debug)]
struct Recording {
    published: Mutex<Vec<ViolationRecord>>,
    store: StoreSink,
}

impl Recording {
    fn new() -> Arc<Self> {
        Arc::new(Recording { published: Mutex::new(Vec::new()), store: StoreSink::new() })
    }

    /// The published stream: `(signature, triggering seq, degraded)`.
    fn stream(&self) -> Vec<(String, u64, bool)> {
        let published = self.published.lock().unwrap();
        published.iter().map(|r| (signature(r), r.seq, r.violation.degraded)).collect()
    }
}

impl ViolationSink for Recording {
    fn publish(&self, shard: usize, records: &[ViolationRecord]) {
        assert!(!records.is_empty(), "an empty publish says nothing");
        assert_eq!(shard, 0, "a session is one partition");
        self.published.lock().unwrap().extend_from_slice(records);
        self.store.publish(shard, records);
    }

    fn seal(&self, merged: &[ViolationRecord]) {
        self.store.seal(merged);
    }
}

/// Run `trace` under `cfg` with a [`Recording`] sink.
fn run_recorded(
    props: &[Property],
    cfg: RuntimeConfig,
    trace: &[NetEvent],
    end: Instant,
) -> (Outcome, Arc<Recording>) {
    let sink = Recording::new();
    let rt = ShardedRuntime::new(props.to_vec(), cfg).expect("valid properties");
    let mut session = rt.start_with_sink(Some(sink.clone() as Arc<dyn ViolationSink>));
    for ev in trace {
        session.feed(ev).expect("crashes stay within the restart budget");
    }
    (session.finish(end).expect("crashes stay within the restart budget"), sink)
}

/// Publication happens at batch cadence, long before a checkpoint covers
/// it, so every crash here lands on a shard whose sink has already seen
/// records the recovery will re-raise. Exactly-once is by log position:
/// the published stream under crashes is the fault-free one —
/// at every batch size, so recovery also rewinds through windows of
/// hundreds of one-item batches (batch 1, checkpoint every 1024) and
/// through a batch the journal bound split (the last run: batches of 64
/// against a 100-item journal shed the tail of every second one).
#[test]
fn published_stream_is_exactly_once_under_crashes() {
    silence_injected_panics();
    let props = swmon_props::catalog();
    let (trace, end) = chaos_trace();
    let mut runs: Vec<(usize, usize, usize)> = Vec::new();
    for batch in [1usize, 8, 64] {
        runs.extend([16, 128, 1024].map(|every| (batch, every, 0)));
    }
    runs.push((64, 128, 100));
    let mut calm_streams = std::collections::HashMap::new();
    for (batch, checkpoint_every, journal_limit) in runs {
        let base = RuntimeConfig { batch, journal_limit, ..Default::default() };
        let shed_split = journal_limit != 0;
        // The fault-free stream to match, at the default cadence — the
        // stream must not depend on it — unless the journal bound lets the
        // cadence decide what is shed.
        let calm_every = if shed_split { checkpoint_every } else { base.checkpoint_every };
        let key = (batch, calm_every, journal_limit);
        let want = calm_streams.entry(key).or_insert_with(|| {
            let calm = RuntimeConfig { checkpoint_every: calm_every, ..base.clone() };
            let stream = run_recorded(&props, calm, &trace, end).1.stream();
            assert!(!stream.is_empty(), "the shard publishes");
            stream
        });
        let cfg = RuntimeConfig {
            checkpoint_every,
            inject_faults: crash_schedule(trace.len(), 7),
            ..base
        };
        let (out, sink) = run_recorded(&props, cfg, &trace, end);
        let at = format!(
            "batch {batch}, checkpoint every {checkpoint_every}, journal limit {journal_limit}"
        );
        assert!(out.stats.restarts >= 3, "{at}: schedule must fire: {:?}", out.stats);
        assert_eq!(out.stats.shed > 0, shed_split, "{at}: {:?}", out.stats);
        assert_eq!(out.stats.unaccounted_loss(), 0, "{at}");
        assert_eq!(&sink.stream(), want, "{at}: the published stream moved");
        let mut published: Vec<String> = sink.stream().into_iter().map(|(sig, _, _)| sig).collect();
        let mut merged = out.signatures();
        published.sort_unstable();
        merged.sort_unstable();
        assert_eq!(published, merged, "{at}: published multiset is not the merged output");
    }
}

/// The one way a replayed record can differ from its published original: a
/// monitoring gap that opened *after* the publish makes the whole replay
/// run degraded. What was published stands — the sink saw a record with
/// full provenance, so that is the record the run keeps.
#[test]
fn what_was_published_stands_when_a_gap_opens_before_the_crash() {
    silence_injected_panics();
    let stage = |n: &str| {
        let guard = Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]);
        Stage::match_(n, EventPattern::Arrival, guard)
    };
    let twice = Property {
        name: "twice".into(),
        statement: String::new(),
        stages: vec![stage("a"), stage("b")],
    };
    // Sources repeat every five arrivals: every arrival from the sixth on
    // raises.
    let mut tb = TraceBuilder::new();
    for i in 0..32u8 {
        tb.advance(Duration::from_micros(1));
        tb.arrive(
            PortNo(1),
            PacketBuilder::tcp(
                MacAddr::new(2, 0, 0, 0, 0, 1),
                MacAddr::new(2, 0, 0, 0, 0, 99),
                Ipv4Address::new(10, 0, 0, i % 5 + 1),
                Ipv4Address::new(10, 0, 0, 99),
                1000,
                80,
                TcpFlags::SYN,
                &[],
            ),
        );
    }
    let trace = tb.build();
    let end = tb.now() + Duration::from_secs(1);
    // Batches of 8 against a 12-item journal: the first batch of a window
    // fits and is published clean (seqs 5-7 raise); the second overflows —
    // half admitted under a gap, half shed — and the journal bound forces
    // the checkpoint that closes the gap.
    let cfg = |inject_faults| RuntimeConfig {
        batch: 8,
        checkpoint_every: 16,
        journal_limit: 12,
        inject_faults,
        ..Default::default()
    };
    let twice = [twice];
    let (calm, calm_sink) = run_recorded(&twice, cfg(vec![]), &trace, end);
    // Seq 9 is inside the overflowing second batch: the replay re-raises
    // seqs 5-7 with the gap already open.
    let (out, sink) = run_recorded(&twice, cfg(vec![FaultPoint { seq: 9 }]), &trace, end);
    assert_eq!(out.stats.restarts, 1);
    assert!(out.stats.shed > 0 && out.stats.unaccounted_loss() == 0, "{:?}", out.stats);
    let stream = &sink.stream();
    let clean: Vec<u64> = stream.iter().filter(|r| !r.2).map(|r| r.1).take(3).collect();
    assert_eq!(clean, [5, 6, 7], "published before the gap, with full provenance: {stream:?}");
    assert!(stream.iter().any(|r| r.2), "the gap did degrade what it covered");
    assert_eq!(sink.stream(), calm_sink.stream(), "re-published, dropped or flipped");
    assert_eq!(out.signatures(), calm.signatures());
    // And the run agrees with its sink about which records are degraded.
    let degraded: Vec<String> =
        out.records.iter().filter(|r| r.violation.degraded).map(signature).collect();
    let store = sink.store.store();
    assert_eq!(store.query_str("degraded()").unwrap().signatures(), degraded);
    assert_eq!(store.query_str("prop(*)").unwrap().signatures(), out.signatures());
}

/// A shard that escalates stays failed. Faults at every seq from 100 on
/// exhaust its restart budget ([`MAX_RESTARTS`]); from the feed that
/// escalates on, every `feed`, `deploy` and `finish` returns that same
/// `ShardFailed` — same restarts, same message — and the shard applies, routes
/// or checkpoints nothing more.
#[test]
fn an_escalated_shard_fails_every_later_call() {
    silence_injected_panics();
    let props = swmon_props::catalog();
    let (trace, log) = lossy_trace(48, 1_200, 7, &FaultPlan::none());
    assert!(log.accounted());
    let end = trace.last().unwrap().time + Duration::from_secs(120);
    let work = |s: &RuntimeStats| (s.events_in, s.batches, s.restarts, s.checkpoints);
    let faults = (100..200).map(|seq| FaultPoint { seq });
    let cfg = RuntimeConfig { inject_faults: faults.collect(), ..Default::default() };
    let rt = ShardedRuntime::new(props.clone(), cfg).expect("catalog properties are valid");
    let mut session = rt.start();
    let mut events = trace.iter();
    let first = events.find_map(|ev| session.feed(ev).err()).expect("the shard escalates");
    let RuntimeError::ShardFailed { restarts, ref message } = first else {
        panic!("not a shard failure: {first}");
    };
    assert_eq!(restarts, MAX_RESTARTS);
    assert!(message.starts_with("injected fault at seq "), "{message}");
    let frozen = session.live_stats();
    let processed = |s: &RuntimeStats| s.processed;
    let same = |err: RuntimeError, call: &str| match err {
        RuntimeError::ShardFailed { restarts: r, message: m } => {
            assert_eq!((r, &m), (restarts, message), "{call}");
        }
        other => panic!("{call}: {other}"),
    };
    let mut later = 0;
    for ev in events {
        same(session.feed(ev).expect_err("a failed session takes no events"), "feed");
        later += 1;
    }
    assert!(later > 1_000, "{later} feeds after the escalation");
    let plan = DeployPlan::remove(props[0].name.clone());
    same(session.deploy(&plan).expect_err("a failed session takes no deploy"), "deploy");
    let now = session.live_stats();
    assert_eq!(work(&now), work(&frozen), "work after the escalation");
    assert_eq!(processed(&now), processed(&frozen));
    same(session.finish(end).expect_err("a failed session has no outcome"), "finish");
}
