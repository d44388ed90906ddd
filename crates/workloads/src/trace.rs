//! Standalone event-trace generators — feed monitors directly, no network
//! required. Used by the engine/backend benchmarks (E3, E4, E7).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swmon_packet::{Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
use swmon_sim::time::{Duration, Instant};
use swmon_sim::trace::{EgressAction, NetEvent};
use swmon_sim::{CrashWindow, FaultLog, FaultPlan, PortNo, SwitchId, TraceBuilder};

/// A firewall-shaped trace: `pairs` distinct (A,B) address pairs send an
/// outbound packet (spawning one monitor instance each); a fraction of
/// them then experience a dropped reply (completing the violation).
///
/// With `drop_fraction = 0` this is the pure instance-growth workload of
/// experiment E3: after `pairs` packets the monitor holds `pairs` live
/// instances, which is exactly the regime where Varanus's pipeline depth
/// explodes.
pub fn firewall_trace(
    pairs: u32,
    drop_fraction: f64,
    inter_packet: Duration,
    seed: u64,
) -> Vec<NetEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tb = TraceBuilder::new();
    let mut t = Instant::ZERO;
    for i in 0..pairs {
        let a = Ipv4Address::from_u32(0x0a00_0002 + i);
        let b = Ipv4Address::from_u32(0xc000_0201 + (i % 100));
        let m1 = MacAddr::from_u64(0x0200_0000_0000 + u64::from(i));
        let m2 = MacAddr::from_u64(0x0200_ffff_0000 + u64::from(i));
        let out = PacketBuilder::tcp(m1, m2, a, b, 4000, 443, TcpFlags::SYN, &[]);
        tb.at(t).arrive_depart(PortNo(0), out, EgressAction::Output(PortNo(1)));
        t += inter_packet;
        if rng.random_bool(drop_fraction) {
            let back = PacketBuilder::tcp(m2, m1, b, a, 443, 4000, TcpFlags::ACK, &[]);
            tb.at(t).arrive_depart(PortNo(1), back, EgressAction::Drop);
            t += inter_packet;
        }
    }
    tb.build()
}

/// A steady stream of packets from a *fixed* set of `flows` flows —
/// instance count plateaus at `flows` while the packet count grows. Used
/// to measure per-packet cost at a controlled instance population.
pub fn steady_state_trace(
    flows: u32,
    packets: u32,
    inter_packet: Duration,
    seed: u64,
) -> Vec<NetEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tb = TraceBuilder::new();
    let mut t = Instant::ZERO;
    for _ in 0..packets {
        let i = rng.random_range(0..flows);
        let a = Ipv4Address::from_u32(0x0a00_0002 + i);
        let b = Ipv4Address::from_u32(0xc000_0201 + (i % 100));
        let m1 = MacAddr::from_u64(0x0200_0000_0000 + u64::from(i));
        let m2 = MacAddr::from_u64(0x0200_ffff_0000 + u64::from(i));
        let out = PacketBuilder::tcp(m1, m2, a, b, 4000, 443, TcpFlags::ACK, &[]);
        tb.at(t).arrive_depart(PortNo(0), out, EgressAction::Output(PortNo(1)));
        t += inter_packet;
    }
    tb.build()
}

/// A high-volume interleaved workload: `packets` packets spread over
/// `flows` concurrent (A,B) pairs, mixing outbound traffic with replies.
/// A `reply_fraction` of packets travel B→A, and a `drop_fraction` of
/// those replies are dropped (each drop completes a firewall
/// `return-not-dropped` violation for its pair).
///
/// Unlike [`firewall_trace`] — which touches each pair once, in order —
/// this generator revisits flows in random interleaving, so consecutive
/// events almost never share an instance key. That is the regime a
/// sharded runtime needs: many simultaneously-live instances whose events
/// hash to different workers (E13).
pub fn multi_flow_trace(
    flows: u32,
    packets: u32,
    reply_fraction: f64,
    drop_fraction: f64,
    inter_packet: Duration,
    seed: u64,
) -> Vec<NetEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tb = TraceBuilder::new();
    let mut t = Instant::ZERO;
    for _ in 0..packets {
        let i = rng.random_range(0..flows);
        let a = Ipv4Address::from_u32(0x0a00_0002 + i);
        let b = Ipv4Address::from_u32(0xc000_0201 + i);
        let m1 = MacAddr::from_u64(0x0200_0000_0000 + u64::from(i));
        let m2 = MacAddr::from_u64(0x0200_ffff_0000 + u64::from(i));
        if rng.random_bool(reply_fraction) {
            let back = PacketBuilder::tcp(m2, m1, b, a, 443, 4000, TcpFlags::ACK, &[]);
            let action = if rng.random_bool(drop_fraction) {
                EgressAction::Drop
            } else {
                EgressAction::Output(PortNo(0))
            };
            tb.at(t).arrive_depart(PortNo(1), back, action);
        } else {
            let out = PacketBuilder::tcp(m1, m2, a, b, 4000, 443, TcpFlags::SYN, &[]);
            tb.at(t).arrive_depart(PortNo(0), out, EgressAction::Output(PortNo(1)));
        }
        t += inter_packet;
    }
    tb.build()
}

/// The network fault plan the chaos runs push [`lossy_trace`] through:
/// light but non-trivial loss, duplication and reordering under `seed`,
/// plus one crash window on switch 0 that opens a quarter of the way into
/// `span` and lasts `down_for` (its `PortDown`/`PortUp` out-of-band events
/// are themselves monitorable).
pub fn fault_plan(seed: u64, span: Duration, down_for: Duration) -> FaultPlan {
    let down = Instant::ZERO + Duration::from_nanos(span.as_nanos() / 4);
    FaultPlan {
        seed,
        drop_fraction: 0.02,
        duplicate_fraction: 0.01,
        reorder_fraction: 0.02,
        crashes: vec![CrashWindow {
            switch: SwitchId(0),
            down,
            up: down + down_for,
            port: PortNo(0),
        }],
    }
}

/// The E13/E15 interleaved workload with network faults applied: a
/// [`multi_flow_trace`] (reply fraction 0.4, drop fraction 0.25, 2 µs
/// inter-packet — the sharded-runtime benchmark shape) pushed through a
/// seeded [`FaultPlan`]. Returns the faulty trace plus the plan's full
/// [`FaultLog`] accounting, so callers can audit exactly what the network
/// did to the traffic. Used by the `e15` chaos benchmark and the
/// checkpoint/replay property tests.
pub fn lossy_trace(
    flows: u32,
    packets: u32,
    seed: u64,
    plan: &FaultPlan,
) -> (Vec<NetEvent>, FaultLog) {
    let base = multi_flow_trace(flows, packets, 0.4, 0.25, Duration::from_micros(2), seed);
    plan.apply(&base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firewall_trace_shapes() {
        let t = firewall_trace(50, 0.0, Duration::from_micros(10), 1);
        assert_eq!(t.len(), 100, "arrival + departure per pair");
        let t = firewall_trace(50, 1.0, Duration::from_micros(10), 1);
        assert_eq!(t.len(), 200, "plus reply arrival + drop departure");
    }

    #[test]
    fn traces_are_time_ordered_and_deterministic() {
        let t1 = firewall_trace(30, 0.5, Duration::from_micros(10), 42);
        let t2 = firewall_trace(30, 0.5, Duration::from_micros(10), 42);
        assert_eq!(t1.len(), t2.len());
        assert!(t1.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn multi_flow_mixes_directions_and_stays_ordered() {
        let t = multi_flow_trace(64, 500, 0.4, 0.3, Duration::from_micros(2), 7);
        assert_eq!(t.len(), 1_000, "arrival + departure per packet");
        assert!(t.windows(2).all(|w| w[0].time <= w[1].time));
        // Both directions occur: some sources in 10.0.0.0/8, some replies
        // from 192.0.2.0/24 space.
        let srcs: std::collections::HashSet<_> =
            t.iter().filter_map(|e| e.field(swmon_packet::Field::Ipv4Src)).collect();
        assert!(srcs.len() > 64, "outbound and reply directions both present");
        // Deterministic for a fixed seed.
        let t2 = multi_flow_trace(64, 500, 0.4, 0.3, Duration::from_micros(2), 7);
        assert_eq!(t.len(), t2.len());
        assert!(t.iter().zip(&t2).all(|(x, y)| x.time == y.time));
    }

    #[test]
    fn lossy_trace_is_deterministic_and_accounted() {
        let plan = FaultPlan {
            seed: 9,
            drop_fraction: 0.05,
            duplicate_fraction: 0.02,
            reorder_fraction: 0.05,
            crashes: vec![],
        };
        let (t1, log1) = lossy_trace(16, 300, 7, &plan);
        let (t2, log2) = lossy_trace(16, 300, 7, &plan);
        assert_eq!(t1.len(), t2.len());
        assert_eq!(log1, log2);
        assert!(log1.accounted(), "{log1:?}");
        assert!(log1.dropped_events > 0);
        assert!(t1.windows(2).all(|w| w[0].time <= w[1].time));
        // A clean plan is the identity on the base workload.
        let (clean, clean_log) = lossy_trace(16, 300, 7, &FaultPlan::none());
        assert_eq!(clean.len(), 600);
        assert_eq!(clean_log.dropped_events, 0);
    }

    #[test]
    fn steady_state_bounded_flows() {
        let t = steady_state_trace(8, 100, Duration::from_micros(5), 3);
        assert_eq!(t.len(), 200);
        // All sources drawn from the 8-flow pool.
        let srcs: std::collections::HashSet<_> =
            t.iter().filter_map(|e| e.field(swmon_packet::Field::Ipv4Src)).collect();
        assert!(srcs.len() <= 8);
    }
}
