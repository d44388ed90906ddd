//! Pinned order and bytes of the violation path: merge, publish, seal and
//! query over live catalog sessions.
//!
//! `identity_pinned` compares *sorted* signatures, so it cannot see a
//! change in the canonical merge order; `store_integration` compares a
//! store's answers with the same run's merge, so it cannot see a change
//! both sides share. This test pins, per trace and shard count:
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

use swmon::runtime::{signature, RuntimeConfig, ShardedRuntime, ViolationSink};
use swmon::sim::{CrashWindow, Duration, FaultPlan, Instant, NetEvent, PortNo, SwitchId};
use swmon::store::{Store, StoreSink};
use swmon_workloads::trace::lossy_trace;

/// One pinned run: `(trace, shards, merged records, digest of their
/// signatures, mid-run store bytes, their digest, mid-run prop(*) matches,
/// their digest, sealed store bytes, their digest, digest of the sealed
/// prop(*) answer)`.
type Pin = (&'static str, usize, usize, u64, usize, u64, usize, u64, usize, u64, u64);

#[rustfmt::skip]
const PINNED: &[Pin] = &[
    ("scenario", 1, 313, 0xd92a8d852fd4fdb4, 25678, 0x73dd7fdcc33d086b, 197, 0xd0899ef390380d36, 42704, 0xe67eb20c626baf37, 0x7617003b24a87760),
    ("scenario", 4, 313, 0xd92a8d852fd4fdb4, 25678, 0xc42f41ff37142cc6, 197, 0x486fe03f207e6cf9, 42704, 0x27d020b8b58e02be, 0x551e18d030ef8fd7),
    ("lossy", 1, 290, 0xd1af1bebfbea2489, 19156, 0x85d52901df4d7f16, 149, 0xf63788b3c5e25bc2, 39643, 0xf78e6aa81e736740, 0xffedc88dcf5a429e),
    ("lossy", 4, 290, 0xd1af1bebfbea2489, 19156, 0x808743d78de79478, 149, 0x66601ea3f2f752be, 39643, 0x18b4b21a291881b0, 0x07fac9af5aa75d3e),
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

fn run(name: &'static str, events: &[NetEvent], end: Instant, shards: usize) -> Pin {
    let rt =
        ShardedRuntime::new(swmon_props::catalog(), RuntimeConfig { shards, ..Default::default() })
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
    (
        name,
        shards,
        out.records.len(),
        digest_lines(out.signatures()),
        mid.len(),
        fnv1a(&mid),
        mid_matches,
        mid_answer,
        sealed.len(),
        fnv1a(&sealed),
        sealed_answer,
    )
}

#[test]
fn merge_order_store_bytes_and_answers_are_pinned() {
    let mut rows = Vec::new();
    for (name, events, end) in traces() {
        for shards in [1, 4] {
            rows.push(run(name, &events, end, shards));
        }
    }
    assert_eq!(rows, PINNED);
}
