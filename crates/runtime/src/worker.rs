//! Crash-domain worker state: the shard's `MonitorSet` — one monitor per
//! catalog property — plus its violation log, the only copy of everything
//! they have raised.
//!
//! A worker panic — a genuine engine bug or an injected fault — can leave
//! this state torn mid-event, so the supervisor ([`crate::supervisor`])
//! drives it only inside a panic boundary and rebuilds it from the last
//! checkpoint on unwind. Nothing in here touches channels, and no output
//! depends on its one clock use (sampled wall-timing of `process`); it is
//! the purely deterministic part of a shard.

use crate::batch::ShardLayout;
use crate::merge::{canonical_cmp, ViolationRecord};
use swmon_core::{Monitor, MonitorSet};
use swmon_sim::time::Instant;
use swmon_sim::trace::NetEvent;

/// Sequence number recorded for violations discovered while draining
/// timers at finish (no triggering event exists).
pub(crate) const FLUSH_SEQ: u64 = u64::MAX;

/// The mutable state a shard panic can corrupt: the monitors and the log
/// their violations are moved into. The monitors keep no violation
/// history of their own (every violation is taken out as it is raised), so
/// a checkpoint is their live state plus a length of the log.
pub(crate) struct WorkerState {
    /// The catalog the shard hosts, with its engine probes. Replaced, with
    /// `set`, when a deploy commits.
    pub(crate) layout: ShardLayout,
    /// One monitor per catalog property, at its catalog position: the
    /// set's visit loop decides which ones an event wakes.
    pub(crate) set: MonitorSet,
    pub(crate) log: ViolationLog,
}

/// The shard's violation log: the only copy of everything its monitors
/// have raised.
pub(crate) struct ViolationLog {
    /// The records, in discovery order.
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
    pub(crate) fn new(layout: ShardLayout, set: MonitorSet) -> Self {
        let log = ViolationLog { records: Vec::new(), logged: 0, epoch: 0 };
        WorkerState { layout, set, log }
    }

    /// Run one staged event through the monitors its mask selects, by the
    /// set's visit loop, wall-timing the applications the monitor's engine
    /// probe samples and moving any violation raised into the log.
    /// `in_gap`: the supervisor is currently shedding load, so provenance
    /// near this event is incomplete and the violations are logged
    /// degraded.
    pub(crate) fn apply(&mut self, seq: u64, mask: u64, ev: &NetEvent, in_gap: bool) {
        let WorkerState { layout, set, log } = self;
        set.process_masked(ev, mask, |i, m| {
            let probe = &layout.probes[i];
            if probe.samples(m.stats.events) {
                let t0 = std::time::Instant::now();
                m.process(ev);
                probe.stage_nanos.record(t0.elapsed().as_nanos() as u64);
                probe.occupancy.record(m.live_instances() as u64);
            } else {
                m.process(ev);
            }
            log.raised(i, m, seq, in_gap);
        });
    }

    /// Advance every monitor to `end`, firing remaining deadlines, and log
    /// what they raise.
    pub(crate) fn finish(&mut self, end: Instant, in_gap: bool) {
        for (i, m) in self.set.monitors_mut().iter_mut().enumerate() {
            m.advance_to(end);
            self.log.raised(i, m, FLUSH_SEQ, in_gap);
        }
    }
}

impl ViolationLog {
    /// Move what property `property`'s monitor `m` has just raised out of
    /// it and into the log, from position `logged` on.
    fn raised(&mut self, property: usize, m: &mut Monitor, seq: u64, in_gap: bool) {
        for mut violation in m.take_violations() {
            if in_gap {
                // Coverage around this violation is incomplete (events were
                // shed); downgrade its provenance rather than present
                // stripped context as authoritative.
                violation.degraded = true;
                violation.history.clear();
            }
            let record = ViolationRecord::new(m.property(), property, seq, self.epoch, violation);
            match self.records.get(self.logged) {
                // A kept position, raised again by replay. The two can
                // differ only in `degraded`/`history`, when a gap opened
                // after the publish; what the sink saw is what stays.
                Some(kept) => debug_assert!(
                    canonical_cmp(kept, &record).is_eq(),
                    "replay diverged: {kept:?} against {record:?}"
                ),
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

    /// A shard state over `props`, property `i` reporting to `probes[i]`.
    fn state(props: Vec<Property>, probes: Vec<Arc<EngineProbe>>) -> WorkerState {
        let mut set = MonitorSet::new();
        for p in &props {
            set.add(p.clone(), MonitorConfig::default());
        }
        WorkerState::new(ShardLayout { props: props.into(), probes }, set)
    }

    #[test]
    fn state_processes_masked_events_and_reports() {
        // Six replicas; events masked for property 3 only. Which replicas
        // an event wakes is the set's loop (`monitorset.rs`); what the
        // state adds is the sampled timing and the log.
        let probes: Vec<_> = (0..6).map(|i| EngineProbe::new(&format!("p{i}"), 2)).collect();
        let mut state = state(vec![repeat_prop(); 6], probes.clone());
        state.apply(0, 1 << 3, &arrival(10, 1), false);
        state.apply(1, 1 << 3, &arrival(20, 1), false);
        state.finish(Instant::from_nanos(100), false);
        assert!(
            state.set.monitors().iter().all(|m| m.violations().is_empty()),
            "violations are moved into the log, not copied"
        );
        // Every second application is timed; nothing else is written here.
        assert_eq!(probes[3].stage_nanos.snapshot().count, 1);
        assert_eq!(probes[3].occupancy.snapshot().count, 1);
        assert_eq!(probes[5].stage_nanos.snapshot().count, 0);
        assert_eq!(probes[3].events.get(), 0, "counts are the supervisor's to add");
        assert_eq!(state.set.monitors()[3].stats.events, 2);
        assert_eq!(state.log.records.len(), 1, "second same-src arrival completes stage b");
        let r = &state.log.records[0];
        assert_eq!((r.property, r.seq, r.rank), (3, 1, 1));
        assert_eq!(r.violation.time.as_nanos(), 20);
        assert!(!r.violation.degraded);
        // Property 5 saw nothing.
        assert_eq!(state.set.monitors()[5].stats.events, 0);
    }

    #[test]
    fn gap_violations_are_downgraded() {
        let mut state = state(vec![repeat_prop()], vec![EngineProbe::new("p", 0)]);
        state.apply(0, 1, &arrival(10, 1), false);
        state.apply(1, 1, &arrival(20, 1), true);
        assert!(state.log.records[0].violation.degraded);
        assert!(state.log.records[0].violation.history.is_empty());
    }
}
