//! Crash-domain worker state: private `Monitor` replicas plus the shard's
//! violation log — the only copy of everything they have raised.
//!
//! A worker panic — a genuine engine bug or an injected fault — can leave
//! this state torn mid-event, so the supervisor ([`crate::supervisor`])
//! drives it only inside a panic boundary and rebuilds it from the last
//! checkpoint on unwind. Nothing in here touches channels or clocks; it is
//! the purely deterministic part of a shard.

use crate::merge::ViolationRecord;
use swmon_core::{Monitor, MonitorStats};
use swmon_sim::time::Instant;
use swmon_sim::trace::NetEvent;

/// What a worker hands back when it finishes.
#[derive(Debug)]
pub(crate) struct WorkerReport {
    /// Violations found by this shard's monitors, in discovery order.
    pub(crate) records: Vec<ViolationRecord>,
    /// Events this shard processed (batch items). Checkpointed and
    /// restored with the records; read back by the recovery tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) events: u64,
    /// Per-monitor engine counters, keyed by global property index.
    pub(crate) engine: Vec<(usize, MonitorStats)>,
}

/// Sequence number recorded for violations discovered while draining
/// timers at finish (no triggering event exists).
pub(crate) const FLUSH_SEQ: u64 = u64::MAX;

/// The mutable state a shard panic can corrupt: monitor replicas, the
/// record log their violations are moved into, and the applied-event
/// count. The replicas keep no violation history of their own (every
/// violation is taken out as it is raised), so a checkpoint is their live
/// state plus a length of `records`.
pub(crate) struct WorkerState {
    /// Replicas paired with their global property index.
    pub(crate) monitors: Vec<(usize, Monitor)>,
    /// `lut[global]` locates the local replica (`None`: not hosted here).
    pub(crate) lut: Vec<Option<usize>>,
    /// The shard's violation log, in discovery order.
    pub(crate) records: Vec<ViolationRecord>,
    /// Batch items applied.
    pub(crate) events: u64,
    /// Catalog epoch stamped on every record (deploy provenance). Bumped
    /// by the supervisor when a deploy commits.
    pub(crate) epoch: u64,
}

impl WorkerState {
    pub(crate) fn new(monitors: Vec<(usize, Monitor)>, lut: Vec<Option<usize>>) -> Self {
        WorkerState { monitors, lut, records: Vec::new(), events: 0, epoch: 0 }
    }

    /// Run one routed event through every monitor its mask selects and
    /// move any violation it raises into the log. `in_gap`: the supervisor
    /// is currently shedding load, so provenance near this event is
    /// incomplete and the violations are logged degraded.
    pub(crate) fn apply(&mut self, seq: u64, mut mask: u64, ev: &NetEvent, in_gap: bool) {
        self.events += 1;
        while mask != 0 {
            let global = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let Some(local) = self.lut.get(global).copied().flatten() else { continue };
            let (_, m) = &mut self.monitors[local];
            m.process(ev);
            log_raised(&mut self.records, m, global, seq, self.epoch, in_gap);
        }
    }

    /// Advance every monitor to `end`, firing remaining deadlines, and log
    /// what they raise.
    pub(crate) fn finish(&mut self, end: Instant, in_gap: bool) {
        for (global, m) in &mut self.monitors {
            m.advance_to(end);
            log_raised(&mut self.records, m, *global, FLUSH_SEQ, self.epoch, in_gap);
        }
    }

    /// Consume the state into its final report.
    pub(crate) fn into_report(self) -> WorkerReport {
        let engine = self.monitors.iter().map(|(g, m)| (*g, m.stats.clone())).collect();
        WorkerReport { records: self.records, events: self.events, engine }
    }
}

/// Move what `m` has just raised out of it and into `records`.
fn log_raised(
    records: &mut Vec<ViolationRecord>,
    m: &mut Monitor,
    global: usize,
    seq: u64,
    epoch: u64,
    in_gap: bool,
) {
    for mut violation in m.take_violations() {
        if in_gap {
            // Coverage around this violation is incomplete (events were
            // shed); downgrade its provenance rather than present stripped
            // context as authoritative.
            violation.degraded = true;
            violation.history.clear();
        }
        records.push(ViolationRecord::new(m.property(), global, seq, epoch, violation));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use swmon_core::{var, Atom, EventPattern, Guard, MonitorConfig, Property, Stage};
    use swmon_packet::{Field, Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
    use swmon_sim::time::Instant;
    use swmon_sim::trace::{NetEvent, NetEventKind, PacketId, PortNo, SwitchId};

    fn repeat_prop() -> Property {
        let stage = |n: &str| {
            Stage::match_(
                n,
                EventPattern::Arrival,
                Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
            )
        };
        Property {
            name: "twice".into(),
            statement: String::new(),
            stages: vec![stage("a"), stage("b")],
        }
    }

    fn arrival(t: u64, src: u8) -> NetEvent {
        let pkt = Arc::new(PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, src),
            MacAddr::new(2, 0, 0, 0, 0, 99),
            Ipv4Address::new(10, 0, 0, src),
            Ipv4Address::new(10, 0, 0, 99),
            1000,
            80,
            TcpFlags::SYN,
            &[],
        ));
        NetEvent {
            time: Instant::from_nanos(t),
            kind: NetEventKind::Arrival {
                switch: SwitchId(0),
                port: PortNo(1),
                pkt,
                id: PacketId(t),
            },
        }
    }

    #[test]
    fn state_processes_masked_events_and_reports() {
        // Two monitors; global indices 3 and 5. Events masked for 3 only.
        let monitors = vec![
            (3usize, swmon_core::Monitor::new(repeat_prop(), MonitorConfig::default())),
            (5usize, swmon_core::Monitor::new(repeat_prop(), MonitorConfig::default())),
        ];
        let mut lut = vec![None; 64];
        lut[3] = Some(0);
        lut[5] = Some(1);
        let mut state = WorkerState::new(monitors, lut);
        state.apply(0, 1 << 3, &arrival(10, 1), false);
        state.apply(1, 1 << 3, &arrival(20, 1), false);
        state.finish(Instant::from_nanos(100), false);
        assert!(
            state.monitors.iter().all(|(_, m)| m.violations().is_empty()),
            "violations are moved into the log, not copied"
        );
        let report = state.into_report();
        assert_eq!(report.events, 2);
        assert_eq!(report.records.len(), 1, "second same-src arrival completes stage b");
        let r = &report.records[0];
        assert_eq!((r.property, r.seq, r.rank), (3, 1, 1));
        assert_eq!(r.violation.time.as_nanos(), 20);
        assert!(!r.violation.degraded);
        // Monitor 5 saw nothing.
        let stats5 = report.engine.iter().find(|(g, _)| *g == 5).unwrap();
        assert_eq!(stats5.1.events, 0);
    }

    #[test]
    fn gap_violations_are_downgraded() {
        let monitors =
            vec![(0usize, swmon_core::Monitor::new(repeat_prop(), MonitorConfig::default()))];
        let mut state = WorkerState::new(monitors, vec![Some(0)]);
        state.apply(0, 1, &arrival(10, 1), false);
        state.apply(1, 1, &arrival(20, 1), true);
        let report = state.into_report();
        assert!(report.records[0].violation.degraded);
        assert!(report.records[0].violation.history.is_empty());
    }
}
