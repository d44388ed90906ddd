//! Shared trace builders for the root integration tests.

use std::cell::RefCell;
use std::rc::Rc;
use swmon::apps::*;
use swmon::packet::{Headers, Ipv4Address, Layer};
use swmon::props::scenario::*;
use swmon::sim::{NetEvent, Network, PortNo, SwitchId, TraceRecorder};
use swmon::switch::{AppCtx, AppLogic, AppSwitch};
use swmon::workloads::scenarios::*;
use swmon::workloads::Schedule;

/// A transparent two-port forwarder: FTP's property checks the endpoints,
/// not the switch.
struct Wire;

impl AppLogic for Wire {
    fn handle(&mut self, ctx: &mut AppCtx<'_, '_>, _headers: &Headers) {
        let out = if ctx.in_port() == PortNo(0) { PortNo(1) } else { PortNo(0) };
        ctx.forward(out);
    }
}

/// Put `logic` on a new switch `id` of `net` and inject `schedule` into it.
fn attach<L: AppLogic + 'static>(
    net: &mut Network,
    id: u32,
    ports: u16,
    depth: Layer,
    logic: L,
    schedule: Schedule,
) {
    let node =
        net.add_node(Rc::new(RefCell::new(AppSwitch::new(SwitchId(id), ports, depth, logic))));
    schedule.inject_into(net, node);
}

/// The catalog's scenario traffic through its network functions, each
/// with a fault its properties were written to catch: firewall, NAT,
/// learning switch, ARP proxy (with and without the DHCP-preloaded cache),
/// DHCP server, load balancer, knock gate and an FTP wire, one switch
/// each, recorded in global time order. `scale` sizes every scenario.
pub fn scenario_trace(scale: u32, seed: u64) -> Vec<NetEvent> {
    let mut net = Network::new();
    let recorder = Rc::new(RefCell::new(TraceRecorder::new()));
    net.add_sink(recorder.clone());
    let sub = |k: u64| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k);
    let connections = |k| {
        FirewallWorkload { connections: scale, close_prob: 0.3, seed: sub(k), ..Default::default() }
            .build(INSIDE_PORT, OUTSIDE_PORT)
    };

    let firewall =
        Firewall::new(INSIDE_PORT, OUTSIDE_PORT, FW_TIMEOUT, FirewallFault::DropsReturnTraffic);
    attach(&mut net, 0, 2, Layer::L4, firewall, connections(1));
    let nat = Nat::new(INSIDE_PORT, OUTSIDE_PORT, NAT_PUBLIC_IP, NatFault::WrongReversePort);
    attach(&mut net, 1, 2, Layer::L4, nat, connections(2));
    let learning = LearningSwitch::new(LearningSwitchFault::LearnsWrongPort);
    attach(&mut net, 2, 2, Layer::L2, learning, connections(3));
    for (k, preload) in [(4, false), (5, true)] {
        let proxy = ArpProxy::new(preload, ArpProxyFault::ForwardsKnown);
        let rounds = ArpWorkload { rounds: scale, seed: sub(k), ..Default::default() }.build();
        attach(&mut net, k as u32 - 1, 4, Layer::L7, proxy, rounds);
    }
    let dhcp = DhcpServer::new(
        DHCP_SERVER_1,
        Ipv4Address::new(10, 0, 0, 100),
        100,
        3600,
        DhcpServerFault::ReusesActiveLeases,
    );
    let clients = DhcpWorkload { clients: scale, seed: sub(6), ..Default::default() }
        .build(PortNo(0), DHCP_SERVER_1);
    attach(&mut net, 5, 4, Layer::L7, dhcp, clients);
    let lb = LoadBalancer::new(
        LB_VIP,
        LB_CLIENT_PORT,
        LB_BASE_PORT,
        LB_BACKENDS,
        LbPolicy::RoundRobin,
        LbFault::ForgetsAssignments,
    );
    let flows = LbWorkload { flows: scale, seed: sub(7), ..Default::default() }
        .build(LB_CLIENT_PORT, LB_VIP);
    attach(&mut net, 6, (LB_BASE_PORT + LB_BACKENDS) as u16, Layer::L4, lb, flows);
    let gate =
        KnockGate::new(&KNOCK_SEQ, PROTECTED_PORT, PortNo(1), KnockGateFault::IgnoresWrongGuesses);
    let knockers = KnockWorkload { knockers: scale, seed: sub(8), ..Default::default() }.build(
        PortNo(0),
        &KNOCK_SEQ,
        PROTECTED_PORT,
    );
    attach(&mut net, 7, 4, Layer::L4, gate, knockers);
    let sessions = FtpWorkload {
        sessions: scale,
        wrong_port_fraction: 0.2,
        seed: sub(9),
        ..Default::default()
    }
    .build(PortNo(0), PortNo(1));
    attach(&mut net, 8, 2, Layer::L7, Wire, sessions);

    net.run_to_completion();
    drop(net);
    let events = std::mem::take(&mut recorder.borrow_mut().events);
    events
}
