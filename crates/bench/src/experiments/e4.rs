//! **E4 — state-update mechanisms vs. line rate** (Sec 3.3).
//!
//! Paper claim: "even this 'static' Varanus remains an intractable approach
//! so long as it stores and updates its state using OpenFlow rules, which
//! cannot be modified at line rate. A scalable implementation would need to
//! involve more rapid state mechanisms, such as the register-based approach
//! in P4."
//!
//! We report the calibrated per-update cost of every state mechanism and
//! the sustainable update rate it implies, then drive a monitoring workload
//! that updates state on *every packet* (the paper's point about monitors
//! updating state far more often than forwarding programs) through a
//! slow-path and a fast-path backend and compare.

use crate::TextTable;
use swmon_backends::{p4, static_varanus};
use swmon_core::ProvenanceMode;
use swmon_props::firewall;
use swmon_sim::time::Duration;
use swmon_switch::CostModel;
use swmon_workloads::trace::steady_state_trace;

/// Per-mechanism calibrated costs.
#[derive(Debug, Clone)]
pub struct MechanismRow {
    /// Mechanism name.
    pub mechanism: &'static str,
    /// Cost of one state update (ns, simulated).
    pub update_ns: u64,
    /// Updates per second this allows.
    pub updates_per_sec: f64,
    /// Can it keep up with 10 Gbps of 500-byte packets (~2.5 Mpps), with
    /// one update per packet?
    pub line_rate_ok: bool,
}

/// The 2.5 Mpps reference rate (10 Gbps at 500 B/packet).
pub const LINE_RATE_PPS: f64 = 2_500_000.0;

/// Build the calibrated table from the cost model.
pub fn mechanism_rows(cost: &CostModel) -> Vec<MechanismRow> {
    let mk = |mechanism: &'static str, ns: u64| MechanismRow {
        mechanism,
        update_ns: ns,
        updates_per_sec: if ns == 0 { f64::INFINITY } else { 1e9 / ns as f64 },
        line_rate_ok: (if ns == 0 { f64::INFINITY } else { 1e9 / ns as f64 }) >= LINE_RATE_PPS,
    };
    vec![
        mk("register write (P4/POF, SNAP)", cost.register_op.as_nanos()),
        mk("XFSM transition (OpenState)", cost.xfsm_op.as_nanos()),
        mk("learn / flow-mod (FAST, Varanus)", cost.slow_path_update.as_nanos()),
        mk("controller round-trip (OpenFlow)", cost.controller_rtt.as_nanos()),
    ]
}

/// Measured comparison: a workload that updates monitor state on every
/// packet, run through a slow-path and a fast-path backend.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Approach name.
    pub approach: &'static str,
    /// Packets processed.
    pub packets: u64,
    /// State updates performed.
    pub updates: u64,
    /// Total simulated busy time (ns).
    pub busy_ns: u64,
    /// Implied throughput (pps).
    pub implied_pps: f64,
}

/// Run the measured comparison.
pub fn run_measured() -> Vec<MeasuredRow> {
    // Every packet is a *new* flow: every packet spawns an instance, i.e.
    // one state update per packet — the monitoring-heavy regime.
    let trace = new_flow_per_packet_trace();
    let prop = firewall::return_not_dropped();
    let mut out = Vec::new();
    for mech in [static_varanus(), p4()] {
        let mut m =
            mech.compile(&prop, ProvenanceMode::Bindings, CostModel::default()).expect("compiles");
        for ev in &trace {
            m.process(ev);
        }
        out.push(MeasuredRow {
            approach: m.approach,
            packets: m.account.packets,
            updates: m.account.slow_updates + m.account.register_ops,
            busy_ns: m.account.busy.as_nanos(),
            implied_pps: m.account.implied_throughput_pps(),
        });
    }
    out
}

fn new_flow_per_packet_trace() -> Vec<swmon_sim::NetEvent> {
    swmon_workloads::trace::firewall_trace(5_000, 0.0, Duration::from_nanos(400), 4)
}

/// A steady-state variant (fixed flows, repeated packets) for contrast:
/// forwarding programs stop updating once connections are established, but
/// the monitor still matches every packet.
pub fn run_steady() -> Vec<MeasuredRow> {
    let trace = steady_state_trace(64, 20_000, Duration::from_nanos(400), 5);
    let prop = firewall::return_not_dropped();
    let mut out = Vec::new();
    for mech in [static_varanus(), p4()] {
        let mut m =
            mech.compile(&prop, ProvenanceMode::Bindings, CostModel::default()).expect("compiles");
        for ev in &trace {
            m.process(ev);
        }
        out.push(MeasuredRow {
            approach: m.approach,
            packets: m.account.packets,
            updates: m.account.slow_updates + m.account.register_ops,
            busy_ns: m.account.busy.as_nanos(),
            implied_pps: m.account.implied_throughput_pps(),
        });
    }
    out
}

/// Render the full E4 report.
pub fn render() -> String {
    let mut t1 =
        TextTable::new(&["state mechanism", "update cost (ns)", "updates/s", "2.5Mpps line rate?"]);
    for r in mechanism_rows(&CostModel::default()) {
        t1.row(vec![
            r.mechanism.to_string(),
            r.update_ns.to_string(),
            format!("{:.2e}", r.updates_per_sec),
            if r.line_rate_ok { "yes".into() } else { "NO".into() },
        ]);
    }
    let mut t2 =
        TextTable::new(&["approach", "packets", "state updates", "busy (ms, sim)", "implied pps"]);
    for r in run_measured() {
        t2.row(vec![
            r.approach.to_string(),
            r.packets.to_string(),
            r.updates.to_string(),
            format!("{:.2}", r.busy_ns as f64 / 1e6),
            format!("{:.2e}", r.implied_pps),
        ]);
    }
    format!(
        "E4: state-update mechanisms vs. line rate (paper Sec 3.3)\n\n\
         Calibrated per-update costs:\n{}\n\
         Measured: one state update per packet (new-flow storm, 5000 pkts):\n{}",
        t1.render(),
        t2.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_path_cannot_sustain_line_rate_fast_path_can() {
        let rows = mechanism_rows(&CostModel::default());
        let by_name = |n: &str| rows.iter().find(|r| r.mechanism.contains(n)).unwrap();
        assert!(by_name("register").line_rate_ok);
        assert!(!by_name("flow-mod").line_rate_ok, "the paper's central scaling claim");
        assert!(!by_name("controller").line_rate_ok);
        // Three-plus orders of magnitude between fast and slow paths.
        let ratio = by_name("flow-mod").updates_per_sec / by_name("register").updates_per_sec;
        assert!(ratio < 1e-3, "ratio {ratio}");
    }

    #[test]
    fn measured_run_separates_backends_by_orders_of_magnitude() {
        let rows = run_measured();
        let slow = rows.iter().find(|r| r.approach == "Static Varanus").unwrap();
        let fast = rows.iter().find(|r| r.approach == "POF and P4").unwrap();
        assert_eq!(slow.packets, fast.packets);
        assert!(slow.updates > 0 && fast.updates > 0);
        assert!(slow.busy_ns > 50 * fast.busy_ns, "slow {} vs fast {}", slow.busy_ns, fast.busy_ns);
        assert!(fast.implied_pps >= LINE_RATE_PPS);
        assert!(slow.implied_pps < LINE_RATE_PPS);
    }

    #[test]
    fn steady_state_still_updates_per_packet() {
        // Monitoring keeps matching (and the firewall property keeps
        // refreshing instances) even when the flow set is fixed.
        let rows = run_steady();
        for r in rows {
            assert_eq!(r.packets, 40_000, "{}", r.approach); // 20k arrivals + 20k departures
        }
    }

    #[test]
    fn render_is_complete() {
        let s = render();
        assert!(s.contains("register"));
        assert!(s.contains("NO"), "slow path flagged as below line rate:\n{s}");
    }
}
