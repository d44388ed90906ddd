//! Store integration: the violation store against real runtime sessions
//! over the full 21-property catalog.
//!
//! Three contracts:
//!
//! 1. **Sequence ≡ merge order** — the stable sequence id stamped at merge
//!    time is exactly the record's position in the canonical output, at
//!    every value of the inert `shards` knob (the store's primary key after
//!    seal).
//! 2. **Degraded provenance end-to-end** — in the PR-4 starved-journal
//!    scenario, `Violation::degraded` survives the wire codec and the
//!    store's snapshot/restore round-trip, and the `degraded()` SWQL atom
//!    returns *exactly* the shed-window violations of the merged output.
//! 3. **Live prefix consistency** — mid-run queries against a session's
//!    store see atomic prefixes of the publication stream (every live
//!    match survives into the sealed answer; `unaccounted_loss() == 0`
//!    throughout).

use std::sync::Arc;

use swmon::monitor::wire::{Reader, Writer};
use swmon::runtime::{
    signature, silence_injected_panics, RuntimeConfig, ShardedRuntime, ViolationSink,
};
use swmon::sim::{CrashWindow, Duration, FaultPlan, Instant, NetEvent, PortNo, SwitchId};
use swmon::store::{Store, StoreSink};
use swmon_workloads::trace::lossy_trace;

/// The PR-4 chaos workload (same plan as `chaos_differential.rs`): seeded
/// drops/duplicates/reordering plus one switch crash window.
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

#[test]
fn merge_order_is_sequence_order_at_every_shard_count() {
    let props = swmon_props::catalog();
    let (trace, end) = chaos_trace();
    let mut baseline: Option<Vec<String>> = None;
    // `shards` is inert (a session is one partition): no value of it may
    // move a record. The benchmark's fanned pass sets 2.
    for shards in [1usize, 2] {
        let rt = ShardedRuntime::new(props.clone(), RuntimeConfig { shards, ..Default::default() })
            .expect("catalog properties are valid");
        let out = rt.run(&trace, end).expect("fault-free run succeeds");
        assert!(!out.records.is_empty(), "the chaos workload must produce violations");
        for (i, r) in out.records.iter().enumerate() {
            assert_eq!(
                r.violation.sequence_id(),
                Some(i as u64),
                "shards={shards}: sequence id is the canonical merge position"
            );
        }
        let sigs: Vec<String> = out.signatures();
        match &baseline {
            None => baseline = Some(sigs),
            Some(b) => assert_eq!(&sigs, b, "shards={shards}: merge order is shard-invariant"),
        }
    }
}

#[test]
fn degraded_atom_returns_exactly_the_shed_window_violations() {
    silence_injected_panics();
    let props = swmon_props::catalog();
    let (trace, end) = chaos_trace();
    // The PR-4 load-shedding scenario: a 16-item journal against 64-item
    // batches must shed, downgrading gap-time violations. (The batch is
    // named: at the default of 8 a 16-item journal checkpoints before it
    // overflows.)
    let cfg = RuntimeConfig { batch: 64, journal_limit: 16, ..Default::default() };
    let rt = ShardedRuntime::new(props, cfg).expect("catalog properties are valid");
    let sink = Arc::new(StoreSink::new());
    let store = sink.store();
    let mut session = rt.start_with_sink(Some(sink as Arc<dyn ViolationSink>));
    for ev in &trace {
        session.feed(ev).expect("shedding is not a failure");
    }
    let out = session.finish(end).expect("shedding is not a failure");
    assert!(out.stats.shed > 0, "the starved journal must shed");

    let expect: Vec<String> =
        out.records.iter().filter(|r| r.violation.degraded).map(signature).collect();
    assert!(!expect.is_empty(), "shed windows must downgrade provenance");

    // The degraded flag survives the wire codec...
    let degraded = &out.records.iter().find(|r| r.violation.degraded).unwrap().violation;
    let mut w = Writer::with_capacity(256);
    w.violation(degraded);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    let back = r.violation().expect("violation codec round-trips");
    assert!(back.degraded, "degraded survives snapshot/restore");

    // ...and the degraded() atom returns exactly the shed-window set.
    let got = store.query_str("degraded()").expect("degraded() parses");
    assert!(got.sealed, "finish() seals the store");
    assert_eq!(got.signatures(), expect, "degraded() ≡ the merged records flagged degraded");

    // The whole store round-trips through its snapshot encoding with the
    // same answer.
    let reloaded = Store::from_bytes(&store.to_bytes()).expect("sealed store round-trips");
    assert_eq!(reloaded.query_str("degraded()").expect("parses").signatures(), expect);
}

/// Bounded-staleness regression: with batches far larger than the whole
/// trace, nothing ever dispatches by fullness — before the staleness
/// clock existed, a trickle's violations stayed staged in the session
/// arena until `finish()`, invisible to every live query. Now the
/// `flush_every` clock dispatches the partial block once the oldest staged
/// event is that many fed events old — a dispatch like any other: the
/// shard applies it and publishes what it raised, no checkpoint involved —
/// so even a single staged event becomes visible mid-run.
#[test]
fn stale_trickle_batches_become_visible_without_finish() {
    let props = swmon_props::catalog();
    let (trace, end) = chaos_trace();
    let cfg = RuntimeConfig {
        batch: 1 << 20, // never fills: only the staleness clock can flush
        flush_every: 32,
        ..Default::default()
    };
    let rt = ShardedRuntime::new(props, cfg).expect("catalog properties are valid");
    let sink = Arc::new(StoreSink::new());
    let store = sink.store();
    let mut session = rt.start_with_sink(Some(sink as Arc<dyn ViolationSink>));

    let mut live_total = 0u64;
    for (i, ev) in trace.iter().enumerate() {
        session.feed(ev).expect("fault-free run succeeds");
        if live_total == 0 && i % 64 == 63 {
            live_total = store.query_str("prop(*)").expect("prop(*) parses").total;
        }
    }
    // Shard application is asynchronous: the stale flush has been enqueued
    // by now, but give the workers a moment to apply and publish it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while live_total == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(2));
        live_total = store.query_str("prop(*)").expect("prop(*) parses").total;
    }
    assert!(
        live_total > 0,
        "stale batches must flush to live queries without finish() — \
         with 1M-event batches only the flush_every clock can publish"
    );
    assert_eq!(session.live_stats().unaccounted_loss(), 0);

    let out = session.finish(end).expect("fault-free run succeeds");
    let sealed = store.query_str("prop(*)").expect("prop(*) parses");
    assert!(sealed.sealed);
    assert!(sealed.total >= live_total, "sealed answer contains every live match");
    assert_eq!(sealed.signatures(), out.signatures());
    assert_eq!(out.stats.unaccounted_loss(), 0);
}

#[test]
fn live_queries_see_a_prefix_consistent_snapshot() {
    let props = swmon_props::catalog();
    let (trace, end) = chaos_trace();
    let cfg = RuntimeConfig { checkpoint_every: 128, ..Default::default() };
    let rt = ShardedRuntime::new(props, cfg).expect("catalog properties are valid");
    let sink = Arc::new(StoreSink::new());
    let store = sink.store();
    let mut session = rt.start_with_sink(Some(sink as Arc<dyn ViolationSink>));

    let mut live: Vec<String> = Vec::new();
    let mut last_total = 0u64;
    for (i, ev) in trace.iter().enumerate() {
        session.feed(ev).expect("fault-free run succeeds");
        if i % 300 == 299 {
            let out = store.query_str("prop(*)").expect("prop(*) parses");
            assert!(!out.sealed, "mid-run snapshots are live");
            assert!(out.total >= last_total, "published prefixes only grow");
            last_total = out.total;
            assert_eq!(session.live_stats().unaccounted_loss(), 0);
            live = out.signatures();
        }
    }
    let out = session.finish(end).expect("fault-free run succeeds");
    assert!(store.is_sealed());
    let finals: Vec<String> = out.signatures();
    assert!(!finals.is_empty(), "the chaos workload must produce violations");
    for sig in &live {
        assert!(finals.contains(sig), "every live match survives into the sealed output: {sig}");
    }
    // Sealed prop(*) is byte-identical to the engine's merged output.
    let sealed = store.query_str("prop(*)").expect("prop(*) parses");
    assert_eq!(sealed.signatures(), finals);
}
