//! Differential verification of the abstract-interpretation facts: an
//! analysis-refined event-class mask (and stage-liveness set) must be
//! *sound* — dropping every event the mask excludes must be invisible in
//! the output. Absint is an analysis-only feature (nothing on the hot path
//! consumes its masks: across the shipped catalog they equal the syntactic
//! ones, see docs/ANALYSIS.md), so the pruning is applied here, on the
//! test side: every check runs the same trace through plain per-monitor
//! loops and through the same monitors fed *only* the events their refined
//! mask admits — the pre-dispatch rule of `MonitorSet::process` with the
//! refined mask swapped in — and demands identical violations.
//!
//! The soundness property being exercised: a refined mask never drops an
//! output-changing event. Random properties are generated with the
//! constructs the analysis reasons about — constant guards, bindings,
//! clearing clauses (including stage-0 clearings, whose event classes the
//! analysis provably drops), deadline windows, and cross-stage constant
//! conflicts.

use proptest::prelude::*;
use swmon::analysis::absint::property_facts;
use swmon::monitor::{
    event_class, ActionPattern, EventPattern, Monitor, Property, PropertyBuilder,
};
use swmon::packet::{Field, Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
use swmon::sim::{
    Duration, EgressAction, Instant, NetEvent, OobEvent, PortNo, SwitchId, TraceBuilder,
};

/// The mask a consumer of the analysis would dispatch on: the refined
/// class mask, or `0` (skip every event) when the final stage is provably
/// dead — a property that can never violate needs no events.
fn refined_mask(p: &Property) -> u8 {
    let facts = property_facts(p);
    assert_eq!(facts.refined_mask & !facts.syntactic_mask, 0, "refinement only removes classes");
    if facts.live_stages.last().copied().unwrap_or(false) {
        facts.refined_mask
    } else {
        0
    }
}

/// Plain per-monitor loops vs. the same monitors fed only the events
/// their refined mask admits, compared per property as rendered
/// violation lists.
fn assert_refined_masks_are_invisible(props: &[Property], trace: &[NetEvent], end: Instant) {
    let masks: Vec<u8> = props.iter().map(refined_mask).collect();
    let mut full: Vec<Monitor> = props.iter().cloned().map(Monitor::with_defaults).collect();
    let mut pruned: Vec<Monitor> = props.iter().cloned().map(Monitor::with_defaults).collect();
    for ev in trace {
        let class = event_class(ev);
        for ((f, p), mask) in full.iter_mut().zip(&mut pruned).zip(&masks) {
            f.process(ev);
            if mask & class != 0 {
                p.process(ev);
            }
        }
    }
    for (f, p) in full.iter_mut().zip(&mut pruned) {
        f.advance_to(end);
        p.advance_to(end);
        let render = |m: &Monitor| -> Vec<String> {
            m.violations().iter().map(|v| format!("{v:?}")).collect()
        };
        assert_eq!(
            render(p),
            render(f),
            "the refined mask changed the violations of {}",
            f.property().name
        );
    }
}

// ---------------------------------------------------------------------------
// Fixed-trace catalog differential
// ---------------------------------------------------------------------------

/// A mixed fixed trace: bidirectional TCP flows under all egress actions,
/// plus out-of-band port events — every event class the masks can carry.
fn mixed_catalog_trace() -> Vec<NetEvent> {
    let mut tb = TraceBuilder::new();
    let m1 = MacAddr::new(2, 0, 0, 0, 0, 1);
    let m2 = MacAddr::new(2, 0, 0, 0, 0, 2);
    for i in 0..60u8 {
        let a = Ipv4Address::new(10, 0, 0, i % 8 + 1);
        let b = Ipv4Address::new(192, 0, 2, i % 8 + 1);
        let (src, dst, port) = if i % 2 == 0 { (a, b, PortNo(0)) } else { (b, a, PortNo(1)) };
        let pkt = PacketBuilder::tcp(m1, m2, src, dst, 4000, 443, TcpFlags::ACK, &[]);
        let action = match i % 5 {
            0 => EgressAction::Drop,
            1 => EgressAction::Flood,
            _ => EgressAction::Output(PortNo(u16::from(1 - i % 2))),
        };
        tb.advance(Duration::from_micros(40)).arrive_depart(port, pkt, action);
        if i % 9 == 0 {
            tb.oob(OobEvent::PortDown(SwitchId(0), PortNo(u16::from(i % 4))));
        }
        if i % 9 == 4 {
            tb.oob(OobEvent::PortUp(SwitchId(0), PortNo(u16::from(i % 4))));
        }
    }
    tb.build()
}

/// The full 21-property catalog over the fixed mixed trace. This is the
/// tier-1 anchor for the analysis's soundness claim.
#[test]
fn catalog_facts_differential_fixed_trace() {
    let props = swmon_props::catalog();
    let trace = mixed_catalog_trace();
    let end = trace.last().unwrap().time + Duration::from_secs(120);
    assert_refined_masks_are_invisible(&props, &trace, end);
}

/// Same catalog over the benchmark workload (256 flows with drops and
/// floods) — the trace the E13/E14 experiments measure on.
#[test]
fn catalog_facts_differential_benchmark_workload() {
    let props = swmon_props::catalog();
    let trace = swmon::workloads::trace::multi_flow_trace(
        128,
        3000,
        0.4,
        0.25,
        Duration::from_micros(3),
        7,
    );
    let end = trace.last().unwrap().time + Duration::from_secs(60);
    assert_refined_masks_are_invisible(&props, &trace, end);
}

/// A property whose mask the analysis *provably tightens* (a stage-0
/// clearing pattern contributes classes no live edge carries): the pruned
/// monitor must still agree with the unpruned one on a trace full of
/// exactly the dropped classes.
#[test]
fn strictly_refined_mask_stays_sound() {
    let p = PropertyBuilder::new("refined", "stage-0 clearing classes are prunable")
        .observe("spawn", EventPattern::Arrival)
        .bind("A", Field::Ipv4Src)
        .unless(EventPattern::Departure(ActionPattern::Flood), vec![])
        .done()
        .observe("again", EventPattern::Arrival)
        .bind("A", Field::Ipv4Src)
        .done()
        .build()
        .unwrap();
    let facts = property_facts(&p);
    assert!(
        facts.refined_mask != facts.syntactic_mask,
        "fixture regressed: the stage-0 flood clearing must be dropped from the mask"
    );
    let props = vec![p];
    let trace = mixed_catalog_trace(); // flood departures throughout
    let end = trace.last().unwrap().time + Duration::from_secs(1);
    assert_refined_masks_are_invisible(&props, &trace, end);
}

// ---------------------------------------------------------------------------
// Satellite 3: soundness proptest over random properties and traces
// ---------------------------------------------------------------------------

/// A compact generated property: 1–3 match stages drawn from a small pool
/// of patterns and guards, optional clearing clauses and deadline windows,
/// and optional constant pins that create cross-stage conflicts (the
/// analysis proves dead tails from those).
#[derive(Debug, Clone)]
struct GenStage {
    pattern: u8,
    bind_src: bool,
    pin_l4dst: Option<u16>,
    unless_pattern: Option<u8>,
    window_us: Option<u16>,
}

#[derive(Debug, Clone)]
struct GenProperty {
    stages: Vec<GenStage>,
}

fn gen_pattern(idx: u8) -> EventPattern {
    match idx % 6 {
        0 => EventPattern::Arrival,
        1 => EventPattern::Departure(ActionPattern::Drop),
        2 => EventPattern::Departure(ActionPattern::Flood),
        3 => EventPattern::Departure(ActionPattern::Unicast),
        4 => EventPattern::Departure(ActionPattern::Forwarded),
        _ => EventPattern::Departure(ActionPattern::Any),
    }
}

fn gen_stage() -> impl Strategy<Value = GenStage> {
    (
        0u8..6,
        any::<bool>(),
        proptest::option::of(prop_oneof![Just(443u16), Just(80), Just(7)]),
        proptest::option::of(0u8..6),
        proptest::option::of(50u16..2000),
    )
        .prop_map(|(pattern, bind_src, pin_l4dst, unless_pattern, window_us)| GenStage {
            pattern,
            bind_src,
            pin_l4dst,
            unless_pattern,
            window_us,
        })
}

fn gen_property() -> impl Strategy<Value = GenProperty> {
    proptest::collection::vec(gen_stage(), 1..4).prop_map(|stages| GenProperty { stages })
}

fn render_property(g: &GenProperty, name: &str) -> Option<Property> {
    let mut b = PropertyBuilder::new(name, "generated");
    for (i, s) in g.stages.iter().enumerate() {
        let mut sb = b.observe(&format!("s{i}"), gen_pattern(s.pattern));
        if s.bind_src {
            sb = sb.bind("A", Field::Ipv4Src);
        }
        if let Some(port) = s.pin_l4dst {
            sb = sb.eq(Field::L4Dst, u64::from(port));
        }
        if let Some(up) = s.unless_pattern {
            sb = sb.unless(gen_pattern(up), vec![]);
        }
        if let Some(us) = s.window_us {
            if i > 0 {
                sb = sb.within(Duration::from_micros(u64::from(us)));
            }
        }
        b = sb.done();
    }
    b.build().ok().filter(|p| p.validate().is_ok())
}

/// A compact generated event (same shape as `tests/runtime_differential.rs`,
/// extended with out-of-band events so OOB mask bits are exercised).
#[derive(Debug, Clone, Copy)]
struct GenEvent {
    pair: u8,
    outbound: bool,
    action: u8,
    oob: Option<bool>,
    gap_steps: u8,
}

fn gen_event() -> impl Strategy<Value = GenEvent> {
    (0u8..6, any::<bool>(), 0u8..4, proptest::option::of(any::<bool>()), 1u8..4).prop_map(
        |(pair, outbound, action, oob, gap_steps)| GenEvent {
            pair,
            outbound,
            action,
            oob,
            gap_steps,
        },
    )
}

fn render_trace(events: &[GenEvent], step: Duration) -> Vec<NetEvent> {
    let mut tb = TraceBuilder::new();
    let mut t = Instant::ZERO;
    for e in events {
        t += step * u64::from(e.gap_steps);
        tb.at(t);
        if let Some(up) = e.oob {
            let ev = if up {
                OobEvent::PortUp(SwitchId(0), PortNo(u16::from(e.pair)))
            } else {
                OobEvent::PortDown(SwitchId(0), PortNo(u16::from(e.pair)))
            };
            tb.oob(ev);
            continue;
        }
        let a = Ipv4Address::new(10, 0, 0, e.pair + 1);
        let b = Ipv4Address::new(192, 0, 2, e.pair + 1);
        let (src, dst, in_port) = if e.outbound { (a, b, PortNo(0)) } else { (b, a, PortNo(1)) };
        let pkt = PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, 1),
            MacAddr::new(2, 0, 0, 0, 0, 2),
            src,
            dst,
            4000,
            if e.pair % 2 == 0 { 443 } else { 80 },
            TcpFlags::ACK,
            &[],
        );
        let action = match e.action {
            0 => EgressAction::Drop,
            1 => EgressAction::Flood,
            _ => EgressAction::Output(PortNo(if e.outbound { 1 } else { 0 })),
        };
        tb.arrive_depart(in_port, pkt, action);
    }
    tb.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness: for random properties and random traces, the
    /// analysis-refined mask never drops an output-changing event — the
    /// mask-pruned set of monitors agrees with the unpruned per-monitor
    /// loops byte-for-byte.
    #[test]
    fn refined_masks_never_change_monitorset_output(
        gens in proptest::collection::vec(gen_property(), 1..4),
        events in proptest::collection::vec(gen_event(), 1..50),
    ) {
        let props: Vec<Property> = gens
            .iter()
            .enumerate()
            .filter_map(|(i, g)| render_property(g, &format!("gen-{i}")))
            .collect();
        prop_assume!(!props.is_empty());
        let trace = render_trace(&events, Duration::from_micros(40));
        prop_assume!(!trace.is_empty());
        let end = trace.last().unwrap().time + Duration::from_secs(1);
        assert_refined_masks_are_invisible(&props, &trace, end);
    }
}
