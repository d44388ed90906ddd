//! Pinned order and bytes of the violation path: merge, publish, seal and
//! query over live catalog sessions.
//!
//! `identity_pinned` compares *sorted* signatures, so it cannot see a
//! change in the canonical merge order; `store_integration` compares a
//! store's answers with the same run's merge, so it cannot see a change
//! both sides share. This test pins, per trace:
//!
//! - the merged records' signatures, in merged order (unsorted);
//! - the store's bytes halfway through the feed (open tail included) and
//!   after the seal;
//! - `prop(*)` halfway and after the seal, each match with its store key
//!   and discovering shard.
//!
//! Each is an FNV-1a digest, beside a count that says what it covers.
//!
//! **How the pins were captured:** this file was first run on the commit
//! before the merge rendered bindings only on ties (505cd82), with the
//! `assert_eq!` replaced by a `println!` of each row; the table below is
//! that output.

mod common;

use std::sync::Arc;

use swmon::runtime::{signature, RuntimeConfig, RuntimeStats, ShardedRuntime, ViolationSink};
use swmon::sim::{CrashWindow, Duration, FaultPlan, Instant, NetEvent, PortNo, SwitchId};
use swmon::store::{Store, StoreSink};
use swmon_workloads::trace::lossy_trace;

/// One pinned run: `(trace, merged records, digest of their signatures,
/// mid-run store bytes, their digest, mid-run prop(*) matches, their
/// digest, sealed store bytes, their digest, digest of the sealed prop(*)
/// answer)`.
type Pin = (&'static str, usize, u64, usize, u64, usize, u64, usize, u64, u64);

/// Captured at one shard. The rows for four shards went when a session
/// became one partition; these did not move.
#[rustfmt::skip]
const PINNED: &[Pin] = &[
    ("scenario", 313, 0xd92a8d852fd4fdb4, 25678, 0x73dd7fdcc33d086b, 197, 0xd0899ef390380d36, 42704, 0xe67eb20c626baf37, 0x7617003b24a87760),
    ("lossy", 290, 0xd1af1bebfbea2489, 19156, 0x85d52901df4d7f16, 149, 0xf63788b3c5e25bc2, 39643, 0xf78e6aa81e736740, 0xffedc88dcf5a429e),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn digest_lines(lines: impl IntoIterator<Item = String>) -> u64 {
    fnv1a(lines.into_iter().collect::<Vec<_>>().join("\n").as_bytes())
}

/// `prop(*)` on `store`: its match count and the digest of every match as
/// `store_seq shard signature`, in answer order.
fn answer(store: &Store) -> (usize, u64) {
    let out = store.query_str("prop(*)").expect("prop(*) parses");
    let lines =
        out.matches.iter().map(|m| format!("{} {} {}", m.store_seq, m.shard, signature(&m.record)));
    (out.matches.len(), digest_lines(lines))
}

/// The catalog's scenario traffic, and the chaos workload of
/// `store_integration` (seeded drops, duplicates, reordering and one switch
/// crash window), each with the end that drains every deadline.
fn traces() -> Vec<(&'static str, Vec<NetEvent>, Instant)> {
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
    let with_end = |name, trace: Vec<NetEvent>| {
        let end = trace.last().expect("a non-empty trace").time + Duration::from_secs(120);
        (name, trace, end)
    };
    vec![
        with_end("scenario", common::scenario_trace(24, 13)),
        with_end("lossy", lossy_trace(48, 1_200, 7, &plan).0),
    ]
}

/// The one-partition counters the ingress decides, per trace: `events_in`,
/// `skipped`, `deliveries`, `batches`, `checkpoints`, then every
/// `engine.*` field (`events`, `spawned`, `advanced`, `window_expired`,
/// `cleared`, `deduplicated`, `refreshed`, `deadlines_fired`,
/// `stale_effects_dropped`, `evicted`, `out_of_scope`).
type Counters = (&'static str, [u64; 16]);

fn counters(name: &'static str, stats: &RuntimeStats) -> Counters {
    let e = &stats.engine;
    (
        name,
        [
            stats.events_in,
            stats.skipped,
            stats.deliveries,
            stats.batches,
            stats.checkpoints,
            e.events,
            e.spawned,
            e.advanced,
            e.window_expired,
            e.cleared,
            e.deduplicated,
            e.refreshed,
            e.deadlines_fired,
            e.stale_effects_dropped,
            e.evicted,
            e.out_of_scope,
        ],
    )
}

#[rustfmt::skip]
const COUNTERS: &[Counters] = &[
    ("scenario", [1094, 0, 1094, 137, 1, 14782, 3287, 813, 146, 127, 1844, 286, 30, 0, 0, 0]),
    ("lossy", [2104, 1, 2103, 263, 2, 10506, 5569, 1223, 82, 42, 4754, 962, 0, 0, 0, 0]),
];

/// What the ingress filter decides shows in these counters: a property bit
/// set on an event that lacks one of the property's key fields costs a
/// monitor visit (`engine.events`), and an event no property can use is
/// `skipped` instead of delivered. Captured on the last commit that
/// partitioned instance keys across shards (d7bd4f6), at one shard.
#[test]
fn one_partition_counters_are_pinned() {
    let got: Vec<Counters> = traces()
        .into_iter()
        .map(|(name, events, end)| counters(name, &run(name, &events, end).1))
        .collect();
    assert_eq!(got, COUNTERS);
}

fn run(name: &'static str, events: &[NetEvent], end: Instant) -> (Pin, RuntimeStats) {
    let rt = ShardedRuntime::new(swmon_props::catalog(), RuntimeConfig::default())
        .expect("catalog properties are valid");
    let sink = Arc::new(StoreSink::new());
    let store = sink.store();
    let mut session = rt.start_with_sink(Some(sink as Arc<dyn ViolationSink>));
    let (first, second) = events.split_at(events.len() / 2);
    first.iter().for_each(|ev| session.feed(ev).expect("a fault-free run"));
    let mid = store.to_bytes();
    let (mid_matches, mid_answer) = answer(&store);
    second.iter().for_each(|ev| session.feed(ev).expect("a fault-free run"));
    let out = session.finish(end).expect("a fault-free run");
    assert!(store.is_sealed());
    let sealed = store.to_bytes();
    let (sealed_matches, sealed_answer) = answer(&store);
    assert_eq!(sealed_matches, out.records.len(), "the sealed store holds every merged record");
    let pin = (
        name,
        out.records.len(),
        digest_lines(out.signatures()),
        mid.len(),
        fnv1a(&mid),
        mid_matches,
        mid_answer,
        sealed.len(),
        fnv1a(&sealed),
        sealed_answer,
    );
    (pin, out.stats)
}

#[test]
fn merge_order_store_bytes_and_answers_are_pinned() {
    let rows: Vec<Pin> =
        traces().into_iter().map(|(name, events, end)| run(name, &events, end).0).collect();
    assert_eq!(rows, PINNED);
}
