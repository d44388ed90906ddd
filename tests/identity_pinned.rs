//! Pinned byte-identity over *translating* traffic.
//!
//! The benchmark's TCP workloads never rewrite a header, so their
//! `reference_records` check cannot see a packet-identity matching bug that
//! only shows when a departure's headers differ from its arrival's. This
//! test runs the 21-property catalog over two traces whose violations hinge
//! on `same packet as N` — a NAT that really translates (distinct `A2/P2`
//! per flow, departures interleaved out of arrival order, some returns
//! mistranslated) and the load-balancer scenario with a balancer that
//! forgets its assignments — and compares the sorted violation signatures
//! against a digest.
//!
//! **How the digests were captured:** this file was first run on the parent
//! commit (72f7db3, where every `same packet as N` stage was a full
//! `Bucket::Scan`) with the `assert_eq!`s replaced by a `println!` of
//! `(count, digest)`; the constants below are that output. The engine
//! change that indexes identity stages must reproduce them exactly.

use std::cell::RefCell;
use std::rc::Rc;
use swmon::monitor::MonitorConfig;
use swmon::packet::{Ipv4Address, Layer, MacAddr, Packet, PacketBuilder, TcpFlags};
use swmon::runtime::{reference_records, signature};
use swmon::sim::trace::TraceRecorder;
use swmon::sim::{Duration, EgressAction, Instant, NetEvent, Network, SwitchId, TraceBuilder};
use swmon::switch::AppSwitch;
use swmon_apps::{LbFault, LbPolicy, LoadBalancer};
use swmon_props::scenario::{
    INSIDE_PORT, LB_BACKENDS, LB_BASE_PORT, LB_CLIENT_PORT, LB_VIP, NAT_PUBLIC_IP, OUTSIDE_PORT,
};
use swmon_workloads::scenarios::LbWorkload;

const SERVER: Ipv4Address = Ipv4Address::new(192, 0, 2, 7);

fn tcp(src: Ipv4Address, sport: u16, dst: Ipv4Address, dport: u16) -> Packet {
    PacketBuilder::tcp(
        MacAddr::new(2, 0, 0, 0, 0, 1),
        MacAddr::new(2, 0, 0, 0, 0, 2),
        src,
        dst,
        sport,
        dport,
        TcpFlags::ACK,
        &[],
    )
}

/// 96 client flows through a translating NAT, in groups of three whose
/// outbound departures leave in reverse arrival order (so the departure
/// right after an arrival is always another packet's). Flow `i` is
/// translated to public port `61000 + i`; its return is reverse-translated
/// correctly, to the wrong port (every 4th), to the wrong address (every
/// 7th), or never arrives (every 5th).
fn nat_trace() -> Vec<NetEvent> {
    let client = |i: u16| Ipv4Address::new(10, 0, (i / 200) as u8, (i % 200) as u8 + 1);
    let mut tb = TraceBuilder::new();
    let flows: Vec<u16> = (0..96).collect();
    for (g, group) in flows.chunks(3).enumerate() {
        tb.at_ms(g as u64 * 4);
        let ids: Vec<_> = group
            .iter()
            .map(|&i| {
                tb.advance(Duration::from_micros(10));
                tb.arrive(INSIDE_PORT, tcp(client(i), 4000 + i, SERVER, 80))
            })
            .collect();
        for (&i, &id) in group.iter().zip(&ids).rev() {
            tb.advance(Duration::from_micros(10));
            let out = tcp(NAT_PUBLIC_IP, 61000 + i, SERVER, 80);
            tb.depart(id, out, EgressAction::Output(OUTSIDE_PORT));
        }
    }
    // Returns, also pairwise interleaved: two arrive, then depart swapped.
    let returning: Vec<u16> = flows.iter().copied().filter(|i| i % 5 != 0).collect();
    for (g, pair) in returning.chunks(2).enumerate() {
        tb.at_ms(1000 + g as u64 * 4);
        let ids: Vec<_> = pair
            .iter()
            .map(|&i| {
                tb.advance(Duration::from_micros(10));
                tb.arrive(OUTSIDE_PORT, tcp(SERVER, 80, NAT_PUBLIC_IP, 61000 + i))
            })
            .collect();
        for (&i, &id) in pair.iter().zip(&ids).rev() {
            let (addr, port) = match i {
                i if i % 4 == 0 => (client(i), 4000 + i + 1),
                i if i % 7 == 0 => (Ipv4Address::new(10, 9, 9, 9), 4000 + i),
                i => (client(i), 4000 + i),
            };
            tb.advance(Duration::from_micros(10));
            tb.depart(id, tcp(SERVER, 80, addr, port), EgressAction::Output(INSIDE_PORT));
        }
    }
    tb.build()
}

/// The load-balancer scenario on a round-robin balancer that re-balances
/// every packet of a flow.
fn lb_trace() -> (Vec<NetEvent>, Instant) {
    let mut net = Network::new();
    let recorder = Rc::new(RefCell::new(TraceRecorder::new()));
    net.add_sink(recorder.clone());
    let node = net.add_node(Rc::new(RefCell::new(AppSwitch::new(
        SwitchId(0),
        (LB_BASE_PORT + LB_BACKENDS) as u16,
        Layer::L4,
        LoadBalancer::new(
            LB_VIP,
            LB_CLIENT_PORT,
            LB_BASE_PORT,
            LB_BACKENDS,
            LbPolicy::RoundRobin,
            LbFault::ForgetsAssignments,
        ),
    ))));
    let schedule = LbWorkload { flows: 120, ..Default::default() }.build(LB_CLIENT_PORT, LB_VIP);
    let end = schedule.end_time();
    schedule.inject_into(&mut net, node);
    net.run_to_completion();
    let events = std::mem::take(&mut recorder.borrow_mut().events);
    (events, end)
}

/// Sorted catalog violation signatures over `events`: how many, and their
/// FNV-1a digest.
fn catalog_digest(events: &[NetEvent], end: Instant) -> (usize, u64) {
    let props = swmon_props::catalog();
    let records = reference_records(&props, MonitorConfig::default(), events, end);
    let mut sigs: Vec<String> = records.iter().map(signature).collect();
    sigs.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in sigs.iter().flat_map(|s| s.bytes().chain([b'\n'])) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (sigs.len(), h)
}

#[test]
fn translating_nat_violations_are_pinned() {
    let events = nat_trace();
    let end = events.last().expect("non-empty").time + Duration::from_secs(120);
    let (count, digest) = catalog_digest(&events, end);
    assert_eq!((count, digest), (27, 0xf473_6582_81d1_d86b));
}

#[test]
fn forgetful_load_balancer_violations_are_pinned() {
    let (events, end) = lb_trace();
    let (count, digest) = catalog_digest(&events, end + Duration::from_secs(120));
    assert_eq!((count, digest), (210, 0xbfec_8fe8_1e36_c0d5));
}
