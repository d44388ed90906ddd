//! The four workloads: what each feeds the pipeline and why, the seeded
//! generators, and the input-determinism guard.
//!
//! A generated trace is kept as [`RawTrace`] — wire bytes plus event
//! metadata — and every measured pass rebuilds its `NetEvent`s from those
//! bytes ([`RawTrace::materialize`]), so the program meets each packet with a
//! cold memoized parse, as it would on a wire.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant as Wall;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swmon_apps::{
    ArpProxy, ArpProxyFault, DhcpServer, DhcpServerFault, Firewall, FirewallFault, KnockGate,
    KnockGateFault, LbFault, LbPolicy, LoadBalancer,
};
use swmon_core::Property;
use swmon_packet::{Headers, Ipv4Address, Layer, MacAddr, Packet, PacketBuilder, TcpFlags};
use swmon_props::scenario::{
    DHCP_SERVER_1, FW_TIMEOUT, INSIDE_PORT, KNOCK_SEQ, LB_BACKENDS, LB_BASE_PORT, LB_CLIENT_PORT,
    LB_VIP, OUTSIDE_PORT, PROTECTED_PORT,
};
use swmon_sim::time::{Duration, Instant};
use swmon_sim::trace::{EgressAction, NetEvent, NetEventKind, OobEvent, PacketId, TraceRecorder};
use swmon_sim::{Network, PortNo, SwitchId, TraceBuilder};
use swmon_switch::{AppCtx, AppLogic, AppSwitch, AppTimerCtx};
use swmon_workloads::scenarios::{
    ArpWorkload, DhcpWorkload, FirewallWorkload, FtpWorkload, KnockWorkload, LbWorkload,
};
use swmon_workloads::Schedule;

/// The seed the recorded input fingerprints belong to.
pub const DEFAULT_SEED: u64 = 13;

/// Sim time added after the last event before `finish`, so every pending
/// deadline (the longest is the 60 s firewall window) fires.
const SETTLE: Duration = Duration::from_secs(120);

/// Which properties a workload monitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Props {
    /// The full 21-property `swmon_props::catalog()`.
    Catalog,
    /// The two E13 firewall properties.
    FirewallPair,
}

/// Where a workload's events come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// The benchmark-owned multi-flow TCP generator (E13 shape).
    Tcp {
        /// Concurrent (A,B) address pairs.
        flows: u32,
        /// Packets; each yields an arrival and a departure.
        packets: u32,
    },
    /// Six fault-injected `AppSwitch`es driven by
    /// `swmon_workloads::scenarios` at this scale.
    Apps {
        /// Connections / rounds / clients / flows / knockers / sessions.
        scale: u32,
    },
}

/// The default-seed input this benchmark's numbers are defined over.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// `input.events`.
    pub events: usize,
    /// `input.packets`.
    pub packets: usize,
    /// `input.violations_expected`.
    pub violations: usize,
    /// `input.fingerprint`.
    pub fingerprint: u64,
}

impl std::fmt::Debug for Expected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} events, {} packets, {} violations, fingerprint {:#018x}",
            self.events, self.packets, self.violations, self.fingerprint
        )
    }
}

/// One workload's definition. Sizes are part of every metric's definition:
/// checkpoint cost grows with run length, so `events_per_s` is only
/// comparable at the sizes fixed here.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// The monitored properties.
    pub props: Props,
    /// The event source.
    pub input: Input,
    /// Open-loop rate of the paced pass, events per second.
    pub paced_rate: f64,
    /// The paced pass feeds this many leading events.
    pub paced_events: usize,
    /// Guard values at [`DEFAULT_SEED`]; a mismatch fails the run.
    pub expected: Expected,
}

/// The workloads, in `BENCHMARK.json` order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "catalog-256",
        why: "Full 21-property catalog over 256 TCP flows: the ROADMAP headline; engine and \
              runtime/checkpoint/store share the wall, moderate state.",
        props: Props::Catalog,
        input: Input::Tcp { flows: 256, packets: 12_500 },
        paced_rate: 25_000.0,
        paced_events: 12_500,
        expected: Expected {
            events: 25_000,
            packets: 12_500,
            violations: 3_006,
            fingerprint: 0x882b_26e1_f829_19f1,
        },
    },
    Spec {
        name: "catalog-4k",
        why: "Same catalog, 4096 flows: live instances x16, instance matching dominates; an \
              engine/index gain shows here and a runtime one does not.",
        props: Props::Catalog,
        input: Input::Tcp { flows: 4096, packets: 8_000 },
        paced_rate: 15_000.0,
        paced_events: 12_000,
        expected: Expected {
            events: 16_000,
            packets: 8_000,
            violations: 918,
            fingerprint: 0x7337_7440_fb77_b074,
        },
    },
    Spec {
        name: "pair-256",
        why: "Two indexed firewall properties, longest run: parse, route, journal, checkpoint, \
              telemetry and sink dominate; a runtime gain shows here and an engine one does not.",
        props: Props::FirewallPair,
        input: Input::Tcp { flows: 256, packets: 80_000 },
        paced_rate: 50_000.0,
        paced_events: 30_000,
        expected: Expected {
            events: 160_000,
            packets: 80_000,
            violations: 13_524,
            fingerprint: 0xa037_b4c1_b1e7_86b1,
        },
    },
    Spec {
        name: "mixed-apps",
        why: "Catalog over events emitted by six faulty simulated switches (ARP/DHCP/FTP/LB/knock/\
              firewall): deep parses, many violations per event, heavy publish/ingest/seal/query.",
        props: Props::Catalog,
        input: Input::Apps { scale: 300 },
        paced_rate: 8_000.0,
        paced_events: 5_000,
        expected: Expected {
            events: 9_530,
            packets: 4_465,
            violations: 2_185,
            fingerprint: 0x1bff_6793_757a_4ca4,
        },
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The monitored properties, freshly built.
    pub fn properties(&self) -> Vec<Property> {
        match self.props {
            Props::Catalog => swmon_props::catalog(),
            Props::FirewallPair => vec![
                swmon_props::firewall::return_not_dropped(),
                swmon_props::firewall::return_not_dropped_within(Duration::from_secs(60)),
            ],
        }
    }

    /// The smoke-test version: a quarter of the load, with a paced prefix
    /// still long enough to cross a checkpoint and publish. Never used for
    /// numbers, so the determinism guard does not apply to it.
    pub fn quick(&self) -> Spec {
        let input = match self.input {
            Input::Tcp { flows, packets } => Input::Tcp { flows, packets: packets / 4 },
            Input::Apps { scale } => Input::Apps { scale: scale / 4 },
        };
        Spec { input, paced_events: (self.paced_events / 4).max(2048), ..*self }
    }
}

/// One event of a [`RawTrace`]; `pkt` indexes [`RawTrace::packets`].
#[derive(Debug, Clone, Copy)]
enum RawKind {
    Arrival { switch: SwitchId, port: PortNo, pkt: u32, id: PacketId },
    Departure { switch: SwitchId, pkt: u32, id: PacketId, action: EgressAction },
    OutOfBand(OobEvent),
}

/// A generated trace with its packets reduced to wire bytes. Events that
/// shared one `Arc<Packet>` in the generator's output (an unmodified
/// forward) share one packet index here and one fresh `Arc` after
/// [`RawTrace::materialize`], so the sharing a switch would produce — and
/// with it the number of parses the program pays — is preserved.
#[derive(Debug, Clone)]
pub struct RawTrace {
    packets: Vec<Vec<u8>>,
    events: Vec<(Instant, RawKind)>,
}

impl RawTrace {
    /// Strip `events` down to bytes and metadata.
    pub fn capture(events: &[NetEvent]) -> Self {
        let mut packets = Vec::new();
        let mut seen: HashMap<*const Packet, u32> = HashMap::new();
        let mut index = |pkt: &Arc<Packet>| {
            *seen.entry(Arc::as_ptr(pkt)).or_insert_with(|| {
                packets.push(pkt.bytes().to_vec());
                (packets.len() - 1) as u32
            })
        };
        let raw = events
            .iter()
            .map(|ev| {
                let kind = match &ev.kind {
                    NetEventKind::Arrival { switch, port, pkt, id } => {
                        RawKind::Arrival { switch: *switch, port: *port, pkt: index(pkt), id: *id }
                    }
                    NetEventKind::Departure { switch, pkt, id, action } => RawKind::Departure {
                        switch: *switch,
                        pkt: index(pkt),
                        id: *id,
                        action: *action,
                    },
                    NetEventKind::OutOfBand(o) => RawKind::OutOfBand(*o),
                };
                (ev.time, kind)
            })
            .collect();
        RawTrace { packets, events: raw }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The distinct packets' wire bytes.
    pub fn packets(&self) -> &[Vec<u8>] {
        &self.packets
    }

    /// Sim time of event `i`.
    pub fn time(&self, i: usize) -> Instant {
        self.events[i].0
    }

    /// The instant to `finish` at after feeding the first `n` events.
    pub fn end_after(&self, n: usize) -> Instant {
        match n.checked_sub(1) {
            Some(last) => self.events[last].0 + SETTLE,
            None => Instant::ZERO + SETTLE,
        }
    }

    /// Rebuild events around fresh, never-parsed packets.
    pub fn materialize(&self) -> Vec<NetEvent> {
        let fresh = self.packets.iter().map(|b| Arc::new(Packet::from_bytes(b.clone()))).collect();
        self.materialize_over(fresh)
    }

    /// Rebuild events around the given packets (`packets[i]` stands for
    /// wire bytes `i`); used to hand pre-parsed packets to layer loops.
    pub fn materialize_over(&self, packets: Vec<Arc<Packet>>) -> Vec<NetEvent> {
        assert_eq!(packets.len(), self.packets.len(), "one packet per distinct byte string");
        self.events
            .iter()
            .map(|&(time, kind)| {
                let kind = match kind {
                    RawKind::Arrival { switch, port, pkt, id } => NetEventKind::Arrival {
                        switch,
                        port,
                        pkt: Arc::clone(&packets[pkt as usize]),
                        id,
                    },
                    RawKind::Departure { switch, pkt, id, action } => NetEventKind::Departure {
                        switch,
                        pkt: Arc::clone(&packets[pkt as usize]),
                        id,
                        action,
                    },
                    RawKind::OutOfBand(o) => NetEventKind::OutOfBand(o),
                };
                NetEvent { time, kind }
            })
            .collect()
    }

    /// FNV-1a over every event's time, kind, metadata and packet bytes.
    /// Written out here (not `std`'s hasher) so the value is stable across
    /// toolchains.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for (time, kind) in &self.events {
            h.u64(time.as_nanos());
            match kind {
                RawKind::Arrival { switch, port, pkt, id } => {
                    h.u64(1);
                    h.u64(u64::from(switch.0));
                    h.u64(u64::from(port.0));
                    h.u64(id.0);
                    h.bytes(&self.packets[*pkt as usize]);
                }
                RawKind::Departure { switch, pkt, id, action } => {
                    h.u64(2);
                    h.u64(u64::from(switch.0));
                    h.u64(id.0);
                    match action {
                        EgressAction::Output(p) => h.u64(0x100 + u64::from(p.0)),
                        EgressAction::Flood => h.u64(0x1_0000),
                        EgressAction::Drop => h.u64(0x2_0000),
                    }
                    h.bytes(&self.packets[*pkt as usize]);
                }
                RawKind::OutOfBand(o) => {
                    h.u64(3);
                    let (tag, s, x) = match o {
                        OobEvent::PortDown(s, p) => (0, s.0, u64::from(p.0)),
                        OobEvent::PortUp(s, p) => (1, s.0, u64::from(p.0)),
                        OobEvent::ControllerMsg(s, m) => (2, s.0, *m),
                    };
                    h.u64(tag);
                    h.u64(u64::from(s));
                    h.u64(x);
                }
            }
        }
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A generated workload, ready to be measured.
#[derive(Debug)]
pub struct Workload {
    /// The definition it was generated from.
    pub spec: Spec,
    /// The monitored properties.
    pub props: Vec<Property>,
    /// The trace.
    pub raw: RawTrace,
    /// Packets injected by the generator (`input.packets`).
    pub injected: usize,
    /// Wall seconds spent generating (`bench.gen_s`).
    pub gen_s: f64,
    /// Wall nanoseconds inside `Network::run_to_completion`, for workloads
    /// that go through the switch simulator.
    pub sim_nanos: Option<u64>,
}

/// Generate `spec`'s input from `seed`.
pub fn generate(spec: &Spec, seed: u64) -> Workload {
    let t0 = Wall::now();
    let (events, injected, sim_nanos) = match spec.input {
        Input::Tcp { flows, packets } => (tcp_trace(flows, packets, seed), packets as usize, None),
        Input::Apps { scale } => {
            let (events, injected, nanos) = apps_trace(scale, seed);
            (events, injected, Some(nanos))
        }
    };
    let raw = RawTrace::capture(&events);
    Workload {
        spec: *spec,
        props: spec.properties(),
        raw,
        injected,
        gen_s: t0.elapsed().as_secs_f64(),
        sim_nanos,
    }
}

/// The E13 shape: `packets` packets spread at random over `flows`
/// concurrent (A,B) pairs, 2 us apart; 40% travel B->A and a quarter of
/// those are dropped, each drop completing a firewall violation. Lives here
/// rather than in `crates/workloads` so that crate can change without
/// changing this benchmark's load.
fn tcp_trace(flows: u32, packets: u32, seed: u64) -> Vec<NetEvent> {
    const REPLY_FRACTION: f64 = 0.4;
    const DROP_FRACTION: f64 = 0.25;
    const GAP: Duration = Duration::from_micros(2);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tb = TraceBuilder::new();
    let mut t = Instant::ZERO;
    for _ in 0..packets {
        let i = rng.random_range(0..flows);
        let a = Ipv4Address::from_u32(0x0a00_0002 + i);
        let b = Ipv4Address::from_u32(0xc000_0201 + i);
        let m1 = MacAddr::from_u64(0x0200_0000_0000 + u64::from(i));
        let m2 = MacAddr::from_u64(0x0200_ffff_0000 + u64::from(i));
        if rng.random_bool(REPLY_FRACTION) {
            let back = PacketBuilder::tcp(m2, m1, b, a, 443, 4000, TcpFlags::ACK, &[]);
            let action = if rng.random_bool(DROP_FRACTION) {
                EgressAction::Drop
            } else {
                EgressAction::Output(PortNo(0))
            };
            tb.at(t).arrive_depart(PortNo(1), back, action);
        } else {
            let out = PacketBuilder::tcp(m1, m2, a, b, 4000, 443, TcpFlags::SYN, &[]);
            tb.at(t).arrive_depart(PortNo(0), out, EgressAction::Output(PortNo(1)));
        }
        t += GAP;
    }
    tb.build()
}

/// A transparent two-port forwarder: the FTP property checks the
/// endpoints' behaviour, so the switch only has to carry the traffic.
struct Wire;

impl AppLogic for Wire {
    fn handle(&mut self, ctx: &mut AppCtx<'_, '_>, _headers: &Headers) {
        let out = if ctx.in_port() == PortNo(0) { PortNo(1) } else { PortNo(0) };
        ctx.forward(out);
    }
}

/// Lets one closure attach network functions of different types.
struct Boxed(Box<dyn AppLogic>);

impl AppLogic for Boxed {
    fn handle(&mut self, ctx: &mut AppCtx<'_, '_>, headers: &Headers) {
        self.0.handle(ctx, headers);
    }

    fn on_timer(&mut self, ctx: &mut AppTimerCtx<'_, '_>, token: u64) {
        self.0.on_timer(ctx, token);
    }

    fn on_oob(&mut self, ctx: &mut AppTimerCtx<'_, '_>, ev: OobEvent) {
        self.0.on_oob(ctx, ev);
    }
}

/// Six fault-injected network functions on six switches of one simulated
/// network, each driven by its scenario generator; the recorder sees their
/// events in global time order. Returns the events, the packets injected
/// and the wall nanoseconds the simulator ran.
fn apps_trace(scale: u32, seed: u64) -> (Vec<NetEvent>, usize, u64) {
    let mut net = Network::new();
    let recorder = Rc::new(RefCell::new(TraceRecorder::new()));
    net.add_sink(recorder.clone());
    let mut injected = 0;
    let mut next_switch = 0;
    let mut attach =
        |net: &mut Network, ports, depth, logic: Box<dyn AppLogic>, schedule: Schedule| {
            let switch = AppSwitch::new(SwitchId(next_switch), ports, depth, Boxed(logic));
            next_switch += 1;
            let node = net.add_node(Rc::new(RefCell::new(switch)));
            injected += schedule.len();
            schedule.inject_into(net, node);
        };
    // Distinct, seed-derived streams per scenario.
    let sub = |k: u64| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k);

    attach(
        &mut net,
        2,
        Layer::L4,
        Box::new(Firewall::new(
            INSIDE_PORT,
            OUTSIDE_PORT,
            FW_TIMEOUT,
            FirewallFault::DropsReturnTraffic,
        )),
        FirewallWorkload {
            connections: scale,
            close_prob: 0.3,
            seed: sub(1),
            ..Default::default()
        }
        .build(INSIDE_PORT, OUTSIDE_PORT),
    );
    attach(
        &mut net,
        4,
        Layer::L7,
        Box::new(ArpProxy::new(false, ArpProxyFault::ForwardsKnown)),
        ArpWorkload { rounds: scale, seed: sub(2), ..Default::default() }.build(),
    );
    attach(
        &mut net,
        4,
        Layer::L7,
        Box::new(DhcpServer::new(
            DHCP_SERVER_1,
            Ipv4Address::new(10, 0, 0, 100),
            100,
            3600,
            DhcpServerFault::ReusesActiveLeases,
        )),
        DhcpWorkload { clients: scale, seed: sub(3), ..Default::default() }
            .build(PortNo(0), DHCP_SERVER_1),
    );
    attach(
        &mut net,
        (LB_BASE_PORT + LB_BACKENDS) as u16,
        Layer::L4,
        Box::new(LoadBalancer::new(
            LB_VIP,
            LB_CLIENT_PORT,
            LB_BASE_PORT,
            LB_BACKENDS,
            LbPolicy::RoundRobin,
            LbFault::ForgetsAssignments,
        )),
        LbWorkload { flows: scale, seed: sub(4), ..Default::default() }
            .build(LB_CLIENT_PORT, LB_VIP),
    );
    attach(
        &mut net,
        4,
        Layer::L4,
        Box::new(KnockGate::new(
            &KNOCK_SEQ,
            PROTECTED_PORT,
            PortNo(1),
            KnockGateFault::IgnoresWrongGuesses,
        )),
        KnockWorkload { knockers: scale, seed: sub(5), ..Default::default() }.build(
            PortNo(0),
            &KNOCK_SEQ,
            PROTECTED_PORT,
        ),
    );
    attach(
        &mut net,
        2,
        Layer::L7,
        Box::new(Wire),
        FtpWorkload {
            sessions: scale,
            wrong_port_fraction: 0.2,
            seed: sub(6),
            ..Default::default()
        }
        .build(PortNo(0), PortNo(1)),
    );

    let t0 = Wall::now();
    net.run_to_completion();
    let nanos = t0.elapsed().as_nanos() as u64;
    drop(net);
    let events = std::mem::take(&mut recorder.borrow_mut().events);
    (events, injected, nanos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fingerprint_and_other_seed_differs() {
        for spec in &SPECS {
            let q = spec.quick();
            let a = generate(&q, 5);
            let b = generate(&q, 5);
            let c = generate(&q, 6);
            assert_eq!(a.raw.len(), b.raw.len(), "{}", spec.name);
            assert_eq!(a.raw.fingerprint(), b.raw.fingerprint(), "{}", spec.name);
            assert_ne!(a.raw.fingerprint(), c.raw.fingerprint(), "{}", spec.name);
        }
    }

    #[test]
    fn materialize_preserves_events_and_packet_sharing() {
        let w = generate(&SPECS[3].quick(), 1);
        let events = w.raw.materialize();
        assert_eq!(events.len(), w.raw.len());
        assert_eq!(RawTrace::capture(&events).fingerprint(), w.raw.fingerprint());
        // A forwarded packet's arrival and departure share one `Arc`, so
        // there are fewer packets than packet events.
        let carrying = events.iter().filter(|e| e.packet().is_some()).count();
        assert!(w.raw.packets().len() < carrying);
        assert!(events.windows(2).all(|p| p[0].time <= p[1].time));
    }
}
