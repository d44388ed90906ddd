//! Crash-domain worker state: private `Monitor` replicas plus everything
//! they have produced so far.
//!
//! A worker panic — a genuine engine bug or an injected fault — can leave
//! this state torn mid-event, so the supervisor ([`crate::supervisor`])
//! drives it only inside a panic boundary and rebuilds it from the last
//! checkpoint on unwind. Nothing in here touches channels or clocks; it is
//! the purely deterministic part of a shard.

use crate::merge::{kind_rank, ViolationRecord};
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
    /// Instances still live across this shard's monitors at finish.
    pub(crate) live_instances: u64,
    /// Per-monitor engine counters, keyed by global property index.
    pub(crate) engine: Vec<(usize, MonitorStats)>,
}

/// Sequence number recorded for violations discovered while draining
/// timers at finish (no triggering event exists).
pub(crate) const FLUSH_SEQ: u64 = u64::MAX;

/// The mutable state a shard panic can corrupt: monitor replicas, the
/// records harvested from them, and the applied-event count. The
/// supervisor snapshots it at checkpoints and reconstructs it on recovery.
pub(crate) struct WorkerState {
    /// Replicas paired with their global property index.
    pub(crate) monitors: Vec<(usize, Monitor)>,
    /// `lut[global]` locates the local replica (`None`: not hosted here).
    pub(crate) lut: Vec<Option<usize>>,
    /// Harvested violations, in discovery order.
    pub(crate) records: Vec<ViolationRecord>,
    /// Batch items applied.
    pub(crate) events: u64,
    /// Catalog epoch stamped on every harvested record (deploy
    /// provenance). Bumped by the supervisor when a deploy commits.
    pub(crate) epoch: u64,
}

impl WorkerState {
    pub(crate) fn new(monitors: Vec<(usize, Monitor)>, lut: Vec<Option<usize>>) -> Self {
        WorkerState { monitors, lut, records: Vec::new(), events: 0, epoch: 0 }
    }

    /// Run one routed event through every monitor its mask selects and
    /// harvest any new violations. Returns how many of them were marked
    /// degraded (`in_gap`: the supervisor is currently shedding load, so
    /// provenance near this event is incomplete).
    pub(crate) fn apply(&mut self, seq: u64, mut mask: u64, ev: &NetEvent, in_gap: bool) -> u64 {
        self.events += 1;
        let mut degraded = 0;
        while mask != 0 {
            let global = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let Some(local) = self.lut.get(global).copied().flatten() else { continue };
            let (_, m) = &mut self.monitors[local];
            let before = m.violations().len();
            m.process(ev);
            degraded += harvest(&mut self.records, m, global, before, seq, self.epoch, in_gap);
        }
        degraded
    }

    /// Advance every monitor to `end`, firing remaining deadlines, and
    /// harvest. Returns the number of degraded-marked violations.
    pub(crate) fn finish(&mut self, end: Instant, in_gap: bool) -> u64 {
        let mut degraded = 0;
        for i in 0..self.monitors.len() {
            let (global, m) = &mut self.monitors[i];
            let g = *global;
            let before = m.violations().len();
            m.advance_to(end);
            degraded += harvest(&mut self.records, m, g, before, FLUSH_SEQ, self.epoch, in_gap);
        }
        degraded
    }

    /// Consume the state into its final report.
    pub(crate) fn into_report(self) -> WorkerReport {
        let live_instances = self.monitors.iter().map(|(_, m)| m.live_instances() as u64).sum();
        let engine = self.monitors.iter().map(|(g, m)| (*g, m.stats.clone())).collect();
        WorkerReport { records: self.records, events: self.events, live_instances, engine }
    }
}

fn harvest(
    records: &mut Vec<ViolationRecord>,
    m: &Monitor,
    global: usize,
    before: usize,
    seq: u64,
    epoch: u64,
    in_gap: bool,
) -> u64 {
    let vs = m.violations();
    if vs.len() == before {
        return 0;
    }
    let prop = m.property();
    let mut degraded = 0;
    for v in &vs[before..] {
        let mut violation = v.clone();
        if in_gap {
            // Coverage around this violation is incomplete (events were
            // shed); downgrade its provenance rather than present stripped
            // context as authoritative.
            violation.degraded = true;
            violation.history.clear();
            degraded += 1;
        }
        records.push(ViolationRecord {
            seq,
            property: global,
            rank: kind_rank(prop, &v.trigger_stage),
            epoch,
            violation,
        });
    }
    degraded
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
        let degraded = state.apply(1, 1, &arrival(20, 1), true);
        assert_eq!(degraded, 1);
        let report = state.into_report();
        assert!(report.records[0].violation.degraded);
        assert!(report.records[0].violation.history.is_empty());
    }
}
