//! Differential testing of the supervised runtime: the canonically merged
//! violations must be byte-for-byte identical to the single-threaded
//! reference, over the whole property catalog — including deadline (timer)
//! properties, whose firings are discovered while draining timers rather
//! than while processing an event, and capacity-bounded instance stores,
//! where the ingress filter decides which events reach a full store.

mod common;

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use swmon::monitor::{event_class, Monitor, MonitorConfig, MonitorSet, Property, RoutingPlan};
use swmon::packet::{Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
use swmon::runtime::merge::merge;

use swmon::runtime::{
    reference_records, signature, AdaptiveConfig, RuntimeConfig, ShardedRuntime, ViolationRecord,
    ViolationSink,
};
use swmon::sim::{Duration, EgressAction, Instant, NetEvent, PortNo, TraceBuilder};
use swmon_props::firewall;

/// Values of the inert `RuntimeConfig::shards` the catalog differential
/// sweeps: none may change a byte (the benchmark's fanned pass sets 2).
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

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

/// The reference output under `monitor`, then the runtime under the same
/// monitor configuration with `shards` set to each of `shards`, compared as
/// signature vectors (which exclude the non-invariant `seq`). Returns the
/// last run's outcome.
fn assert_matches_reference(
    props: &[Property],
    monitor: MonitorConfig,
    shards: &[usize],
    trace: &[NetEvent],
    end: Instant,
) -> swmon::runtime::Outcome {
    let reference = reference_records(props, monitor, trace, end);
    let expect: Vec<String> = reference.iter().map(signature).collect();
    let mut last = None;
    for &shards in shards {
        let cfg = RuntimeConfig { shards, monitor, ..Default::default() };
        let rt = ShardedRuntime::new(props.to_vec(), cfg).expect("catalog properties are valid");
        let out = rt.run(trace, end).expect("fault-free run cannot fail");
        assert_eq!(
            out.signatures(),
            expect,
            "runtime diverged from the reference, shards {shards}"
        );
        assert_eq!(out.stats.unaccounted_loss(), 0);
        last = Some(out);
    }
    last.expect("at least one run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The whole catalog, random traces: merged output equals the
    /// reference byte-for-byte, whatever the inert `shards` says. Windows
    /// are cut down so the trace itself crosses deadline boundaries (timer
    /// firings merge mid-stream, not only at the final flush).
    #[test]
    fn catalog_differential_across_shard_counts(
        events in proptest::collection::vec(gen_event(), 1..40),
    ) {
        let trace = render_trace(&events, Duration::from_micros(50));
        let end = trace.last().unwrap().time + Duration::from_secs(120);
        assert_matches_reference(&full_catalog(), MonitorConfig::default(), &SHARD_COUNTS, &trace, end);
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
        assert_matches_reference(&props, MonitorConfig::default(), &[1], &trace, end);
    }
}

/// The catalog over 256 flows against stores bounded at 64 cells, so
/// instances are evicted: the ingress filter skips an event that lacks a
/// property's key field for bounded stores too, and that is sound because
/// such an event can neither spawn nor evict. Unbounded first, as the
/// control.
#[test]
fn catalog_differential_under_a_capacity_bound() {
    let trace = swmon::workloads::trace::multi_flow_trace(
        256,
        2_000,
        0.4,
        0.25,
        Duration::from_micros(2),
        13,
    );
    let end = trace.last().unwrap().time + Duration::from_secs(120);
    let props = full_catalog();
    let free = assert_matches_reference(&props, MonitorConfig::default(), &[1], &trace, end);
    assert_eq!(free.stats.engine.evicted, 0);
    let bounded = MonitorConfig { capacity: Some(64), ..MonitorConfig::default() };
    let out = assert_matches_reference(&props, bounded, &[1], &trace, end);
    assert!(out.stats.engine.evicted > 0, "a 64-cell store must evict over 256 flows");
    // The filter has teeth here: some events reach a property by class but
    // lack one of its key fields.
    let plans: Vec<RoutingPlan> = props.iter().map(RoutingPlan::of).collect();
    let keyless = |ev: &NetEvent| {
        props.iter().zip(&plans).any(|(p, plan)| {
            p.event_class_mask() & event_class(ev) != 0
                && !plan.key_fields().iter().all(|&f| ev.field(f).is_some())
        })
    };
    assert!(trace.iter().any(keyless), "no event lacks a reachable property's key");
}

/// The recorded seed regression (`tests/differential.proptest-regressions`):
/// pair 2 sends an outbound packet that is forwarded, then its reply is
/// dropped. The minimal witness of the firewall property — kept as an
/// explicit test so the case survives any proptest reseeding, and extended
/// to the supervised runtime.
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

    assert_matches_reference(&props, MonitorConfig::default(), &[1], &trace, end);
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

/// The shard runs on the thread that feeds the session: every publish
/// comes from this test's thread and from shard 0, and the output matches
/// the reference over the catalog — whatever `shards` and `AdaptiveConfig`
/// say, since nothing reads them.
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
    for shards in [1usize, 2] {
        for adaptive in &adaptives {
            let cfg = RuntimeConfig { shards, adaptive: adaptive.clone(), ..Default::default() };
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
            for &publisher in &publishes {
                assert_eq!(publisher, (0, me), "{shards} shard(s), {adaptive:?}");
            }
        }
    }
}

/// A NAT/firewall reply travels with mirrored header fields and must still
/// reach the instance its request spawned: the ingress checks a symmetric
/// key's fields in either orientation, so filtering a reply would silently
/// lose the violation. Swept over the inert `shards`, like the catalog.
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
    let out =
        assert_matches_reference(&props, MonitorConfig::default(), &SHARD_COUNTS, &trace, end);
    assert_eq!(out.stats.events_in, trace.len() as u64);
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

/// The catalog's instance identification is non-trivial: some properties
/// have a hashable key (the paper's exact/symmetric identification), the
/// wandering ones none, and the ingress checks one field set per distinct
/// key.
#[test]
fn catalog_routing_uses_both_hashing_and_pinning() {
    let rt = ShardedRuntime::new(full_catalog(), RuntimeConfig::default()).unwrap();
    let plans: Vec<RoutingPlan> = rt.properties().iter().map(RoutingPlan::of).collect();
    let hashed = plans.iter().filter(|p| p.is_hashed()).count();
    let pinned = plans.len() - hashed;
    assert!(hashed > 0, "no property has a hashable key; the analysis regressed");
    assert!(pinned > 0, "wandering-key properties have none");
    let groups = rt.router().dispatch_groups();
    assert!(groups > 0 && groups <= hashed, "{groups} key-field sets for {hashed} keys");
}
