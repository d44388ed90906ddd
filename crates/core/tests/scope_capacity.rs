//! Integration tests for the two engine extensions: per-switch scope and
//! capacity-bounded (register-array) instance stores.

use swmon_core::{
    var, ActionPattern, EventPattern, Monitor, MonitorConfig, Property, PropertyBuilder,
};
use swmon_packet::{Field, Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
use swmon_sim::{Duration, EgressAction, Instant, NetEvent, PortNo, SwitchId, TraceBuilder};

fn fw() -> Property {
    PropertyBuilder::new("fw", "")
        .observe("out", EventPattern::Arrival)
        .eq(Field::InPort, 0u64) // outbound only: replies must not spawn
        .bind("A", Field::Ipv4Src)
        .bind("B", Field::Ipv4Dst)
        .done()
        .observe("ret-drop", EventPattern::Departure(ActionPattern::Drop))
        .bind("B", Field::Ipv4Src)
        .bind("A", Field::Ipv4Dst)
        .done()
        .build()
        .unwrap()
}

fn pair_events(tb: &mut TraceBuilder, i: u32, drop_reply: bool) {
    let a = Ipv4Address::from_u32(0x0a00_0002 + i);
    let b = Ipv4Address::new(192, 0, 2, 1);
    let m1 = MacAddr::from_u64(0x0200_0000_0000 + u64::from(i));
    let m2 = MacAddr::new(2, 0, 0, 0, 0, 2);
    let out = PacketBuilder::tcp(m1, m2, a, b, 4000, 443, TcpFlags::SYN, &[]);
    tb.arrive_depart(PortNo(0), out, EgressAction::Output(PortNo(1)));
    if drop_reply {
        let back = PacketBuilder::tcp(m2, m1, b, a, 443, 4000, TcpFlags::ACK, &[]);
        tb.advance(Duration::from_micros(1));
        tb.arrive_depart(PortNo(1), back, EgressAction::Drop);
    }
    tb.advance(Duration::from_micros(1));
}

// ---- scope ----------------------------------------------------------------

#[test]
fn scoped_monitor_ignores_other_switches() {
    let cfg = MonitorConfig { scope: Some(SwitchId(1)), ..Default::default() };
    let mut m = Monitor::new(fw(), cfg);
    // A full violating exchange on switch 0 — invisible to the monitor.
    let mut tb = TraceBuilder::new();
    tb.on_switch(SwitchId(0));
    pair_events(&mut tb, 1, true);
    // And another on switch 1 — this one counts.
    tb.on_switch(SwitchId(1));
    pair_events(&mut tb, 2, true);
    for ev in tb.build() {
        m.process(&ev);
    }
    assert_eq!(m.violations().len(), 1);
    assert_eq!(
        m.violations()[0].bindings.as_ref().unwrap().get(&var("A")),
        Some(&Ipv4Address::from_u32(0x0a00_0004).into())
    );
    assert!(m.stats.out_of_scope >= 4, "switch-0 events were skipped");
}

#[test]
fn unscoped_monitor_is_one_big_switch() {
    // The default observes everything — the SNAP-style network-wide view.
    let mut m = Monitor::with_defaults(fw());
    let mut tb = TraceBuilder::new();
    tb.on_switch(SwitchId(0));
    pair_events(&mut tb, 1, true);
    tb.on_switch(SwitchId(7));
    pair_events(&mut tb, 2, true);
    for ev in tb.build() {
        m.process(&ev);
    }
    assert_eq!(m.violations().len(), 2);
    assert_eq!(m.stats.out_of_scope, 0);
}

#[test]
fn cross_switch_observations_do_not_mix_under_scope() {
    // Outbound on switch 0, drop on switch 1: a scoped monitor on either
    // switch sees only half the evidence and stays silent.
    for scope in [SwitchId(0), SwitchId(1)] {
        let cfg = MonitorConfig { scope: Some(scope), ..Default::default() };
        let mut m = Monitor::new(fw(), cfg);
        let mut tb = TraceBuilder::new();
        let a = Ipv4Address::new(10, 0, 0, 5);
        let b = Ipv4Address::new(192, 0, 2, 1);
        let m1 = MacAddr::new(2, 0, 0, 0, 0, 1);
        let m2 = MacAddr::new(2, 0, 0, 0, 0, 2);
        tb.on_switch(SwitchId(0)).arrive_depart(
            PortNo(0),
            PacketBuilder::tcp(m1, m2, a, b, 4000, 443, TcpFlags::SYN, &[]),
            EgressAction::Output(PortNo(1)),
        );
        tb.advance(Duration::from_micros(5));
        tb.on_switch(SwitchId(1)).arrive_depart(
            PortNo(0),
            PacketBuilder::tcp(m2, m1, b, a, 443, 4000, TcpFlags::ACK, &[]),
            EgressAction::Drop,
        );
        for ev in tb.build() {
            m.process(&ev);
        }
        assert!(m.violations().is_empty(), "scope {scope}: half the evidence is elsewhere");
    }
    // The unscoped (network-wide) monitor correlates across switches.
    let mut m = Monitor::with_defaults(fw());
    let mut tb = TraceBuilder::new();
    let a = Ipv4Address::new(10, 0, 0, 5);
    let b = Ipv4Address::new(192, 0, 2, 1);
    let m1 = MacAddr::new(2, 0, 0, 0, 0, 1);
    let m2 = MacAddr::new(2, 0, 0, 0, 0, 2);
    tb.on_switch(SwitchId(0)).arrive_depart(
        PortNo(0),
        PacketBuilder::tcp(m1, m2, a, b, 4000, 443, TcpFlags::SYN, &[]),
        EgressAction::Output(PortNo(1)),
    );
    tb.advance(Duration::from_micros(5));
    tb.on_switch(SwitchId(1)).arrive_depart(
        PortNo(0),
        PacketBuilder::tcp(m2, m1, b, a, 443, 4000, TcpFlags::ACK, &[]),
        EgressAction::Drop,
    );
    for ev in tb.build() {
        m.process(&ev);
    }
    assert_eq!(m.violations().len(), 1);
}

// ---- capacity -------------------------------------------------------------

/// A trace with `n` distinct pairs, each later experiencing a dropped reply.
fn staged_trace(n: u32) -> Vec<NetEvent> {
    let mut tb = TraceBuilder::new();
    for i in 0..n {
        pair_events(&mut tb, i, false);
    }
    tb.at(Instant::ZERO + Duration::from_millis(100));
    for i in 0..n {
        let a = Ipv4Address::from_u32(0x0a00_0002 + i);
        let b = Ipv4Address::new(192, 0, 2, 1);
        let m1 = MacAddr::from_u64(0x0200_0000_0000 + u64::from(i));
        let m2 = MacAddr::new(2, 0, 0, 0, 0, 2);
        let back = PacketBuilder::tcp(m2, m1, b, a, 443, 4000, TcpFlags::ACK, &[]);
        tb.advance(Duration::from_micros(1)).arrive_depart(PortNo(1), back, EgressAction::Drop);
    }
    tb.build()
}

#[test]
fn unbounded_store_detects_everything() {
    let mut m = Monitor::with_defaults(fw());
    for ev in staged_trace(64) {
        m.process(&ev);
    }
    assert_eq!(m.violations().len(), 64);
    assert_eq!(m.stats.evicted, 0);
}

#[test]
fn tiny_store_evicts_and_misses() {
    let cfg = MonitorConfig { capacity: Some(8), ..Default::default() };
    let mut m = Monitor::new(fw(), cfg);
    for ev in staged_trace(64) {
        m.process(&ev);
    }
    // 64 instances into 8 cells: most spawns evicted a predecessor.
    assert!(m.stats.evicted > 40, "evicted {}", m.stats.evicted);
    assert!(m.live_instances() <= 8);
    // Only the survivors' drops are detected — the register-array error
    // mode the paper's scalability concerns imply.
    assert!(m.violations().len() <= 8);
    assert!(!m.violations().is_empty(), "survivors still detect");
}

#[test]
fn detection_rate_grows_with_capacity() {
    let mut last = 0usize;
    for cap in [4usize, 16, 64, 256] {
        let cfg = MonitorConfig { capacity: Some(cap), ..Default::default() };
        let mut m = Monitor::new(fw(), cfg);
        for ev in staged_trace(128) {
            m.process(&ev);
        }
        let detected = m.violations().len();
        assert!(detected >= last, "cap {cap}: {detected} < {last}");
        last = detected;
    }
    assert_eq!(last, 128, "a large enough array detects everything");
}

#[test]
fn capacity_one_keeps_only_the_latest() {
    let cfg = MonitorConfig { capacity: Some(1), ..Default::default() };
    let mut m = Monitor::new(fw(), cfg);
    let mut tb = TraceBuilder::new();
    pair_events(&mut tb, 1, false);
    pair_events(&mut tb, 2, false); // evicts pair 1
                                    // Pair 1's reply drops: missed. Pair 2's: detected.
    let a1 = Ipv4Address::from_u32(0x0a00_0003);
    let a2 = Ipv4Address::from_u32(0x0a00_0004);
    let b = Ipv4Address::new(192, 0, 2, 1);
    let m2 = MacAddr::new(2, 0, 0, 0, 0, 2);
    for (i, a) in [(1u64, a1), (2, a2)] {
        let m1 = MacAddr::from_u64(0x0200_0000_0000 + i);
        tb.advance(Duration::from_micros(1)).arrive_depart(
            PortNo(1),
            PacketBuilder::tcp(m2, m1, b, a, 443, 4000, TcpFlags::ACK, &[]),
            EgressAction::Drop,
        );
    }
    for ev in tb.build() {
        m.process(&ev);
    }
    assert_eq!(m.stats.evicted, 1);
    assert_eq!(m.violations().len(), 1);
    assert_eq!(m.violations()[0].bindings.as_ref().unwrap().get(&var("A")), Some(&a2.into()));
}

#[test]
fn eviction_reclaims_timers_cleanly() {
    // Evicted instances must cancel their window timers (no ghost expiry).
    let mut p = fw();
    p.stages[1].within = Some(swmon_core::property::WindowSpec::Fixed(Duration::from_millis(1)));
    let cfg = MonitorConfig { capacity: Some(2), ..Default::default() };
    let mut m = Monitor::new(p, cfg);
    let mut tb = TraceBuilder::new();
    for i in 0..20 {
        pair_events(&mut tb, i, false);
    }
    for ev in tb.build() {
        m.process(&ev);
    }
    m.advance_to(Instant::ZERO + Duration::from_secs(1));
    assert_eq!(m.live_instances(), 0, "windows expired, evictions cleaned up");
    assert!(m.stats.evicted > 0);
}

#[test]
fn try_new_rejects_invalid_properties() {
    use swmon_core::{MonitorConfig, Property};
    let invalid = Property { name: "x".into(), statement: String::new(), stages: vec![] };
    assert!(Monitor::try_new(invalid, MonitorConfig::default()).is_err());
    assert!(Monitor::try_new(fw(), MonitorConfig::default()).is_ok());
}

#[test]
fn try_new_refuses_a_zero_capacity() {
    let cfg = MonitorConfig { capacity: Some(0), ..Default::default() };
    let err = Monitor::try_new(fw(), cfg).err();
    assert_eq!(err, Some(swmon_core::MonitorError::ZeroCapacity));
    let one = MonitorConfig { capacity: Some(1), ..Default::default() };
    assert!(Monitor::try_new(fw(), one).is_ok());
}

#[test]
#[should_panic(expected = "a capacity-bounded store needs a cell")]
fn new_refuses_a_zero_capacity() {
    Monitor::new(fw(), MonitorConfig { capacity: Some(0), ..Default::default() });
}
