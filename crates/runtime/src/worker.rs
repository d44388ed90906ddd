//! Crash-domain worker state: private `Monitor` replicas plus the shard's
//! violation log — the only copy of everything they have raised.
//!
//! A worker panic — a genuine engine bug or an injected fault — can leave
//! this state torn mid-event, so the supervisor ([`crate::supervisor`])
//! drives it only inside a panic boundary and rebuilds it from the last
//! checkpoint on unwind. Nothing in here touches channels, and no output
//! depends on its one clock use (sampled wall-timing of `process`); it is
//! the purely deterministic part of a shard.

use crate::batch::ShardLayout;
use crate::merge::{key, ViolationRecord};
use swmon_core::Monitor;
use swmon_sim::time::Instant;
use swmon_sim::trace::NetEvent;

/// Sequence number recorded for violations discovered while draining
/// timers at finish (no triggering event exists).
pub(crate) const FLUSH_SEQ: u64 = u64::MAX;

/// The mutable state a shard panic can corrupt: monitor replicas and the
/// record log their violations are moved into. The replicas keep no
/// violation history of their own (every violation is taken out as it is
/// raised), so a checkpoint is their live state plus a length of
/// `records`.
pub(crate) struct WorkerState {
    /// What the shard hosts: where each property's replica and engine
    /// probe are. Replaced, with `monitors`, when a deploy commits.
    pub(crate) layout: ShardLayout,
    /// Replicas paired with their global property index, in layout order.
    pub(crate) monitors: Vec<(usize, Monitor)>,
    /// The shard's violation log, in discovery order.
    pub(crate) records: Vec<ViolationRecord>,
    /// Log positions this incarnation has raised: `records.len()`, except
    /// while a recovered one replays positions the log kept because a sink
    /// had already seen them — those stand, and their re-raised copies are
    /// dropped (replay is deterministic, so they are the same records).
    pub(crate) logged: usize,
    /// Catalog epoch stamped on every record (deploy provenance). Bumped
    /// by the supervisor when a deploy commits.
    pub(crate) epoch: u64,
}

impl WorkerState {
    pub(crate) fn new(layout: ShardLayout, monitors: Vec<(usize, Monitor)>) -> Self {
        WorkerState { layout, monitors, records: Vec::new(), logged: 0, epoch: 0 }
    }

    /// Run one routed event through every monitor its mask selects that
    /// it can move — a busy replica, or an idle one whose stage 0 the
    /// event may spawn in (the layout's spawn index, consulted at most once
    /// per event) — and move any violation it raises into the log.
    /// `in_gap`: the supervisor is currently shedding load, so provenance
    /// near this event is incomplete and the violations are logged
    /// degraded. The replica's engine probe says which of its applications
    /// to wall-time.
    pub(crate) fn apply(&mut self, seq: u64, mut mask: u64, ev: &NetEvent, in_gap: bool) {
        let mut spawnable = None;
        while mask != 0 {
            let global = mask.trailing_zeros() as usize;
            let rest = mask;
            mask &= mask - 1;
            let Some(local) = self.layout.lut.get(global).copied().flatten() else { continue };
            let (_, m) = &mut self.monitors[local];
            if m.is_idle()
                && *spawnable.get_or_insert_with(|| self.layout.spawn.spawnable(ev, rest))
                    & (1 << global)
                    == 0
            {
                continue;
            }
            let probe = &self.layout.probes[local];
            if probe.samples(m.stats.events) {
                let t0 = std::time::Instant::now();
                m.process(ev);
                probe.stage_nanos.record(t0.elapsed().as_nanos() as u64);
                probe.occupancy.record(m.live_instances() as u64);
            } else {
                m.process(ev);
            }
            self.log_raised(local, seq, in_gap);
        }
    }

    /// Advance every monitor to `end`, firing remaining deadlines, and log
    /// what they raise.
    pub(crate) fn finish(&mut self, end: Instant, in_gap: bool) {
        for local in 0..self.monitors.len() {
            self.monitors[local].1.advance_to(end);
            self.log_raised(local, FLUSH_SEQ, in_gap);
        }
    }

    /// Move what replica `local` has just raised out of it and into the
    /// log, from position `logged` on.
    fn log_raised(&mut self, local: usize, seq: u64, in_gap: bool) {
        let (global, m) = &mut self.monitors[local];
        for mut violation in m.take_violations() {
            if in_gap {
                // Coverage around this violation is incomplete (events were
                // shed); downgrade its provenance rather than present
                // stripped context as authoritative.
                violation.degraded = true;
                violation.history.clear();
            }
            let record = ViolationRecord::new(m.property(), *global, seq, self.epoch, violation);
            match self.records.get(self.logged) {
                // A kept position, raised again by replay. The two can
                // differ only in `degraded`/`history`, when a gap opened
                // after the publish; what the sink saw is what stays.
                Some(kept) => debug_assert_eq!(key(kept), key(&record), "replay diverged"),
                None => self.records.push(record),
            }
            self.logged += 1;
        }
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
    use swmon_telemetry::EngineProbe;

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
        let probes = vec![EngineProbe::new("a", 2), EngineProbe::new("b", 2)];
        let props = vec![(3, repeat_prop()), (5, repeat_prop())];
        let layout = ShardLayout::new(props, lut, probes.clone());
        let mut state = WorkerState::new(layout, monitors);
        state.apply(0, 1 << 3, &arrival(10, 1), false);
        state.apply(1, 1 << 3, &arrival(20, 1), false);
        state.finish(Instant::from_nanos(100), false);
        assert!(
            state.monitors.iter().all(|(_, m)| m.violations().is_empty()),
            "violations are moved into the log, not copied"
        );
        // Every second application is timed; nothing else is written here.
        assert_eq!(probes[0].stage_nanos.snapshot().count, 1);
        assert_eq!(probes[0].occupancy.snapshot().count, 1);
        assert_eq!(probes[1].stage_nanos.snapshot().count, 0);
        assert_eq!(probes[0].events.get(), 0, "counts are the supervisor's to add");
        assert_eq!(state.monitors[0].1.stats.events, 2);
        assert_eq!(state.records.len(), 1, "second same-src arrival completes stage b");
        let r = &state.records[0];
        assert_eq!((r.property, r.seq, r.rank), (3, 1, 1));
        assert_eq!(r.violation.time.as_nanos(), 20);
        assert!(!r.violation.degraded);
        // Monitor 5 saw nothing.
        assert_eq!(state.monitors[1].1.stats.events, 0);
    }

    #[test]
    fn gap_violations_are_downgraded() {
        let monitors =
            vec![(0usize, swmon_core::Monitor::new(repeat_prop(), MonitorConfig::default()))];
        let layout = ShardLayout::new(
            vec![(0, repeat_prop())],
            vec![Some(0)],
            vec![EngineProbe::new("p", 0)],
        );
        let mut state = WorkerState::new(layout, monitors);
        state.apply(0, 1, &arrival(10, 1), false);
        state.apply(1, 1, &arrival(20, 1), true);
        assert!(state.records[0].violation.degraded);
        assert!(state.records[0].violation.history.is_empty());
    }

    #[test]
    fn an_idle_replica_wakes_only_for_an_event_that_may_spawn() {
        // Replica 0 spawns only on port 443; replica 1 on any IPv4 source.
        // Every test arrival goes to port 80.
        let https = Property {
            name: "https".into(),
            statement: String::new(),
            stages: vec![
                Stage::match_(
                    "a",
                    EventPattern::Arrival,
                    Guard::new(vec![Atom::EqConst(Field::L4Dst, 443u64.into())]),
                ),
                repeat_prop().stages[1].clone(),
            ],
        };
        let props = vec![(0, https), (1, repeat_prop())];
        let monitors = props
            .iter()
            .map(|(g, p)| (*g, swmon_core::Monitor::new(p.clone(), MonitorConfig::default())))
            .collect();
        let probes = vec![EngineProbe::new("https", 0), EngineProbe::new("twice", 0)];
        let layout = ShardLayout::new(props, vec![Some(0), Some(1)], probes);
        let mut state = WorkerState::new(layout, monitors);
        state.apply(0, 0b11, &arrival(10, 1), false);
        state.apply(1, 0b11, &arrival(20, 2), false);
        assert_eq!(state.monitors[0].1.stats.events, 0, "idle, and port 80 cannot spawn");
        assert!(state.monitors[0].1.is_idle());
        assert_eq!(state.monitors[1].1.stats.events, 2, "may spawn, then busy");
        assert!(!state.monitors[1].1.is_idle());
    }
}
