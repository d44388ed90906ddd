//! Differential testing of the sharded runtime: at every shard count the
//! canonically merged violations must be byte-for-byte identical to the
//! single-threaded reference, over the whole property catalog — including
//! deadline (timer) properties, whose firings are discovered while
//! draining timers rather than while processing an event.
//!
//! Also pins the symmetric-key guarantee down at the system level: a
//! firewall/NAT *reply* travels with mirrored header fields, and must
//! still reach the shard holding the instance its *request* spawned.

mod common;

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use swmon::monitor::{Monitor, MonitorConfig, MonitorSet, Property, RouteMode};
use swmon::packet::{Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
use swmon::runtime::merge::merge;

use swmon::runtime::{
    reference_records, signature, AdaptiveConfig, RuntimeConfig, ShardedRuntime, ViolationRecord,
    ViolationSink,
};
use swmon::sim::{Duration, EgressAction, Instant, NetEvent, PortNo, TraceBuilder};
use swmon_props::firewall;

/// Shard counts every differential check sweeps.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The full catalog: all Table 1 rows plus the Sec 2 example properties
/// (the same 21-property deployment `tests/catalog_set.rs` uses).
fn full_catalog() -> Vec<Property> {
    swmon_props::catalog()
}

/// A compact generated event, as in `tests/differential.rs`.
#[derive(Debug, Clone, Copy)]
struct GenEvent {
    pair: u8,
    outbound: bool,
    dropped: bool,
    gap_steps: u8,
}

fn gen_event() -> impl Strategy<Value = GenEvent> {
    (0u8..6, any::<bool>(), any::<bool>(), 1u8..4).prop_map(
        |(pair, outbound, dropped, gap_steps)| GenEvent { pair, outbound, dropped, gap_steps },
    )
}

fn render_trace(events: &[GenEvent], step: Duration) -> Vec<NetEvent> {
    let mut tb = TraceBuilder::new();
    let mut t = Instant::ZERO;
    for e in events {
        let a = Ipv4Address::new(10, 0, 0, e.pair + 1);
        let b = Ipv4Address::new(192, 0, 2, e.pair + 1);
        let (src, dst, in_port) = if e.outbound { (a, b, PortNo(0)) } else { (b, a, PortNo(1)) };
        let pkt = PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, 1),
            MacAddr::new(2, 0, 0, 0, 0, 2),
            src,
            dst,
            4000,
            443,
            TcpFlags::ACK,
            &[],
        );
        t += step * u64::from(e.gap_steps);
        let action = if e.dropped {
            EgressAction::Drop
        } else {
            EgressAction::Output(PortNo(if e.outbound { 1 } else { 0 }))
        };
        tb.at(t).arrive_depart(in_port, pkt, action);
    }
    tb.build()
}

/// The reference output, then the runtime at every shard count, compared
/// as signature vectors (which exclude the non-invariant `seq`).
fn assert_all_shard_counts_match(props: &[Property], trace: &[NetEvent], end: Instant) {
    let reference = reference_records(props, MonitorConfig::default(), trace, end);
    let expect: Vec<String> = reference.iter().map(signature).collect();
    for shards in SHARD_COUNTS {
        let rt = ShardedRuntime::new(props.to_vec(), RuntimeConfig::with_shards(shards))
            .expect("catalog properties are valid");
        let out = rt.run(trace, end).expect("fault-free run cannot fail");
        assert_eq!(
            out.signatures(),
            expect,
            "sharded runtime diverged from the reference at {shards} shards"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The whole catalog, random traces, shard counts 1/2/4/8: merged
    /// output equals the reference byte-for-byte. Windows are cut down so
    /// the trace itself crosses deadline boundaries (timer firings merge
    /// mid-stream, not only at the final flush).
    #[test]
    fn catalog_differential_across_shard_counts(
        events in proptest::collection::vec(gen_event(), 1..40),
    ) {
        let trace = render_trace(&events, Duration::from_micros(50));
        let end = trace.last().unwrap().time + Duration::from_secs(120);
        assert_all_shard_counts_match(&full_catalog(), &trace, end);
    }

    /// Deadline-heavy differential: a short-window variant of the firewall
    /// deadline property, tight spacing, so `within` expiry and deadline
    /// firings interleave with events throughout the trace.
    #[test]
    fn deadline_property_differential(
        events in proptest::collection::vec(gen_event(), 1..60),
        window_us in 20u64..400,
    ) {
        let props = vec![
            firewall::return_not_dropped_within(Duration::from_micros(window_us)),
            swmon_props::arp_proxy::reply_within(Duration::from_micros(window_us)),
        ];
        let trace = render_trace(&events, Duration::from_micros(30));
        let end = trace.last().unwrap().time + Duration::from_secs(1);
        assert_all_shard_counts_match(&props, &trace, end);
    }
}

/// The recorded seed regression (`tests/differential.proptest-regressions`):
/// pair 2 sends an outbound packet that is forwarded, then its reply is
/// dropped. The minimal witness of the firewall property — kept as an
/// explicit test so the case survives any proptest reseeding, and extended
/// to the sharded runtime at every shard count.
#[test]
fn seed_regression_outbound_then_dropped_reply() {
    let events = [
        GenEvent { pair: 2, outbound: true, dropped: false, gap_steps: 1 },
        GenEvent { pair: 2, outbound: false, dropped: true, gap_steps: 1 },
    ];
    let trace = render_trace(&events, Duration::from_micros(100));
    let end = trace.last().unwrap().time + Duration::from_secs(1);
    let props = vec![firewall::return_not_dropped()];

    let reference = reference_records(&props, MonitorConfig::default(), &trace, end);
    assert_eq!(reference.len(), 1, "exactly one violation: the dropped reply");

    assert_all_shard_counts_match(&props, &trace, end);
}

/// Records which thread hands it each publish, per shard.
#[derive(Debug, Default)]
struct ThreadSink(Mutex<Vec<(usize, ThreadId)>>);

impl ViolationSink for ThreadSink {
    fn publish(&self, shard: usize, _records: &[ViolationRecord]) {
        self.0.lock().unwrap().push((shard, std::thread::current().id()));
    }

    fn seal(&self, _merged: &[ViolationRecord]) {}
}

/// Every shard runs on the thread that feeds the session: at 1, 2 and 4
/// shards every publish comes from this test's thread, more than one shard
/// publishes once there are several, and the output matches the reference
/// over the catalog — whatever `AdaptiveConfig` says, since nothing reads
/// it.
#[test]
fn every_shard_publishes_from_the_feeding_thread() {
    let events: Vec<GenEvent> = (0..200usize)
        .map(|i| GenEvent {
            pair: (i / 2 % 6) as u8,
            outbound: i % 2 == 0,
            dropped: i % 2 == 1 && i / 2 % 4 < 2,
            gap_steps: 1 + (i % 3) as u8,
        })
        .collect();
    let trace = render_trace(&events, Duration::from_micros(50));
    let end = trace.last().unwrap().time + Duration::from_secs(120);
    let props = full_catalog();
    let reference = reference_records(&props, MonitorConfig::default(), &trace, end);
    let expect: Vec<String> = reference.iter().map(signature).collect();
    assert!(!expect.is_empty(), "the trace must violate");
    let adaptives = [
        AdaptiveConfig::default(),
        AdaptiveConfig { enabled: true, fan_out_rate: f64::INFINITY },
        AdaptiveConfig { enabled: false, fan_out_rate: 0.0 },
    ];
    let me = std::thread::current().id();
    for shards in [1usize, 2, 4] {
        for adaptive in &adaptives {
            let cfg =
                RuntimeConfig { adaptive: adaptive.clone(), ..RuntimeConfig::with_shards(shards) };
            let rt = ShardedRuntime::new(props.clone(), cfg).expect("catalog properties are valid");
            let sink = Arc::new(ThreadSink::default());
            let mut session = rt.start_with_sink(Some(sink.clone() as Arc<dyn ViolationSink>));
            for ev in &trace {
                session.feed(ev).expect("fault-free run cannot fail");
            }
            let out = session.finish(end).expect("fault-free run cannot fail");
            assert_eq!(out.signatures(), expect, "{shards} shard(s), {adaptive:?}");
            assert_eq!(out.stats.unaccounted_loss(), 0);
            let publishes = sink.0.lock().unwrap().clone();
            assert!(!publishes.is_empty(), "{shards} shard(s), {adaptive:?}: nothing published");
            for &(s, thread) in &publishes {
                assert_eq!(thread, me, "shard {s} of {shards}, {adaptive:?}");
            }
            let publishers: BTreeSet<usize> = publishes.iter().map(|&(s, _)| s).collect();
            assert_eq!(publishers.len() > 1, shards > 1, "{shards} shard(s): {publishers:?}");
        }
    }
}

/// Satellite check (symmetric canonicalization): the firewall property is
/// symmetric-hash routed, and both directions of a flow — mirrored src/dst
/// fields — produce the *same* shard assignment at every shard count.
#[test]
fn firewall_directions_land_on_the_same_shard() {
    let props = vec![firewall::return_not_dropped()];
    for shards in SHARD_COUNTS {
        let rt = ShardedRuntime::new(props.clone(), RuntimeConfig::with_shards(shards)).unwrap();
        let route = &rt.router().routes()[0];
        assert!(
            matches!(route.plan().mode(), RouteMode::HashSymmetric { .. }),
            "firewall key must be symmetric-hashed, got {}",
            route.describe()
        );
        for pair in 0u8..32 {
            let fwd = render_trace(
                &[GenEvent { pair, outbound: true, dropped: false, gap_steps: 1 }],
                Duration::from_micros(10),
            );
            let rev = render_trace(
                &[GenEvent { pair, outbound: false, dropped: true, gap_steps: 1 }],
                Duration::from_micros(10),
            );
            // Events the property can react to (the forwarded outbound
            // departure is class-masked away — it needs no delivery) must
            // all land on one shard, whichever direction they travel.
            let homes: Vec<usize> =
                fwd.iter().chain(&rev).filter_map(|ev| route.shard_for(ev, shards)).collect();
            assert!(
                homes.len() >= 3,
                "pair {pair}: both arrivals and the drop must be deliverable, got {homes:?}"
            );
            assert!(
                homes.windows(2).all(|w| w[0] == w[1]),
                "pair {pair}: request and reply diverged at {shards} shards: {homes:?}"
            );
        }
    }
}

/// Satellite check (system level): a NAT/firewall reply must reach the
/// instance its request spawned under every shard count — if the reply
/// hashed to a different shard, the violation would silently vanish.
#[test]
fn reply_reaches_request_instance_under_every_shard_count() {
    let props = vec![firewall::return_not_dropped(), swmon_props::nat::reverse_translation()];
    // 16 flows, every reply dropped: one firewall violation per flow.
    let events: Vec<GenEvent> = (0u8..16)
        .flat_map(|pair| {
            [
                GenEvent { pair: pair % 6, outbound: true, dropped: false, gap_steps: 1 },
                GenEvent { pair: pair % 6, outbound: false, dropped: true, gap_steps: 1 },
            ]
        })
        .collect();
    let trace = render_trace(&events, Duration::from_micros(20));
    let end = trace.last().unwrap().time + Duration::from_secs(1);

    let reference = reference_records(&props, MonitorConfig::default(), &trace, end);
    assert!(!reference.is_empty(), "dropped replies must violate the firewall property");
    let expect: Vec<String> = reference.iter().map(signature).collect();
    for shards in 1..=8 {
        let rt = ShardedRuntime::new(props.clone(), RuntimeConfig::with_shards(shards)).unwrap();
        let out = rt.run(&trace, end).expect("fault-free run cannot fail");
        assert_eq!(out.signatures(), expect, "lost violations at {shards} shards");
        assert_eq!(out.stats.events_in, trace.len() as u64);
    }
}

/// Satellite check (shard balance): hashed routing of the benchmark
/// workload must actually *spread*. Over `multi_flow_trace`'s 256 flows,
/// every shard's delivered-event count must be within 2× of a perfectly
/// even split at 2, 4, and 8 shards — the E13 `shards=2` throughput dip is
/// not a routing skew (see docs/PERF.md), and this test keeps it that way.
/// Also exercises the per-shard occupancy counter: end-of-trace live
/// instances must sum to the reference monitor's count.
#[test]
fn multi_flow_routing_spreads_within_2x_of_even() {
    let props = vec![firewall::return_not_dropped()];
    let trace = swmon::workloads::trace::multi_flow_trace(
        256,
        4000,
        0.4,
        0.25,
        Duration::from_micros(2),
        13,
    );
    let end = trace.last().unwrap().time + Duration::from_secs(1);
    let mut reference = swmon::monitor::Monitor::with_defaults(firewall::return_not_dropped());
    for ev in &trace {
        reference.process(ev);
    }
    reference.advance_to(end);
    for shards in [2usize, 4, 8] {
        let rt = ShardedRuntime::new(props.clone(), RuntimeConfig::with_shards(shards)).unwrap();
        let out = rt.run(&trace, end).expect("fault-free run cannot fail");
        let per: Vec<u64> = out.stats.per_shard.iter().map(|s| s.events).collect();
        let even = out.stats.deliveries as f64 / shards as f64;
        for (s, &n) in per.iter().enumerate() {
            assert!(
                (n as f64) <= 2.0 * even && (n as f64) >= even / 2.0,
                "shard {s} got {n} of {} deliveries at {shards} shards (even = {even:.0}): {per:?}",
                out.stats.deliveries
            );
        }
        let live: u64 = out.stats.per_shard.iter().map(|s| s.live_instances).sum();
        assert_eq!(live, reference.live_instances() as u64, "occupancy counter diverged");
    }
}

/// The pre-dispatching [`MonitorSet`] — what the benchmark's `monitorset.*`
/// layer times, and which skips idle members an event cannot spawn in —
/// finds exactly what the per-monitor reference loop finds: the whole
/// catalog over the multi-flow TCP workload and over the catalog's
/// scenario traffic, canonically merged and compared by signature. Every
/// 1024 events, each member holds as many live instances as its
/// reference monitor, which sees every event.
#[test]
fn monitor_set_predispatch_matches_the_reference_loop() {
    let props = full_catalog();
    let tcp = swmon::workloads::trace::multi_flow_trace(
        64,
        2_000,
        0.4,
        0.25,
        Duration::from_micros(2),
        13,
    );
    for (name, trace) in [("tcp", tcp), ("apps", common::scenario_trace(48, 13))] {
        let end = trace.last().unwrap().time + Duration::from_secs(120);
        let reference = reference_records(&props, MonitorConfig::default(), &trace, end);
        assert!(!reference.is_empty(), "the {name} workload must produce violations");

        let mut set = MonitorSet::from_properties(props.iter().cloned());
        let mut each: Vec<Monitor> = props.iter().cloned().map(Monitor::with_defaults).collect();
        for (n, ev) in trace.iter().enumerate() {
            set.process(ev);
            each.iter_mut().for_each(|m| m.process(ev));
            if n % 1024 == 1023 {
                let live =
                    |ms: &[Monitor]| ms.iter().map(Monitor::live_instances).collect::<Vec<_>>();
                assert_eq!(live(set.monitors()), live(&each), "{name}: live after event {n}");
            }
        }
        set.advance_to(end);
        let mut records = Vec::new();
        for (i, m) in set.monitors().iter().enumerate() {
            for v in m.violations() {
                records.push(ViolationRecord::new(m.property(), i, 0, 0, v.clone()));
            }
        }
        assert_eq!(
            merge(records).iter().map(signature).collect::<Vec<_>>(),
            reference.iter().map(signature).collect::<Vec<_>>(),
            "{name}"
        );
    }
}

/// The catalog routes non-trivially: some properties hash (exploiting the
/// paper's exact/symmetric instance identification), the wandering ones
/// pin, and nothing is silently dropped by construction.
#[test]
fn catalog_routing_uses_both_hashing_and_pinning() {
    let rt = ShardedRuntime::new(full_catalog(), RuntimeConfig::with_shards(4)).unwrap();
    let hashed = rt.router().routes().iter().filter(|r| r.is_hashed()).count();
    let pinned = rt.router().routes().iter().filter(|r| !r.is_hashed()).count();
    assert!(hashed > 0, "no property hash-routes; routing analysis regressed");
    assert!(pinned > 0, "wandering-key properties must pin");
    assert_eq!(hashed + pinned, rt.properties().len());
}
