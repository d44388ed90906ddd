//! Versioned, serializable [`Monitor`](crate::Monitor) checkpoints.
//!
//! A [`MonitorSnapshot`] is a faithful image of a monitor's semantic state —
//! instance slots (with interned bindings and per-stage identity tokens),
//! the free-list, the timer wheel with its exact tie-break counters, pending
//! split-mode effects, raised violations and every statistics counter. It is
//! produced by [`Monitor::snapshot`](crate::Monitor::snapshot) and consumed
//! by [`Monitor::restore`](crate::Monitor::restore); the fault-tolerant
//! runtime checkpoints shards with it (`docs/FAULTS.md`).
//!
//! ## Encoding
//!
//! [`MonitorSnapshot::to_bytes`] emits the canonical [`crate::wire`]
//! little-endian binary format (magic `SWMS`, then a `u16` version —
//! currently [`SNAPSHOT_VERSION`]). The format is versioned so a checkpoint
//! written by one build is either read correctly or rejected loudly by
//! another; it is *not* a wire protocol and makes no cross-endianness
//! promises beyond always writing little-endian.
//! [`MonitorSnapshot::from_bytes`] validates structurally (tags, lengths,
//! trailing bytes); semantic validation against the receiving monitor's
//! property happens in `restore`.
//!
//! The generic primitives and the shared codecs (field values, bindings,
//! events, violations) live in [`crate::wire`]; only the engine-private
//! structures (instances, effects, stats) are encoded here.

use crate::engine::{Effect, Instance, MonitorStats, SyncToken, TimerKind};
use crate::violation::Violation;
pub use crate::wire::SnapshotError;
use crate::wire::{Reader, Writer};
use swmon_sim::time::Instant;
use swmon_sim::timer::{TimerEntry, TimerId, TimerWheelSnapshot};
use swmon_sim::trace::PacketId;

/// Current snapshot encoding version. Bump on any layout change.
pub const SNAPSHOT_VERSION: u16 = 1;

const MAGIC: &[u8; 4] = b"SWMS";

/// The one reason byte a `Kill` effect is written with ("cleared by an
/// `unless`"); the layout keeps the byte, decode rejects any other.
const KILL_CLEARED: u8 = 0;

/// A complete, restorable image of one monitor's state.
///
/// Obtain via [`Monitor::snapshot`](crate::Monitor::snapshot); apply via
/// [`Monitor::restore`](crate::Monitor::restore). The derived lookup
/// structures (dedup index, stage buckets, capacity cells) are not part of
/// the snapshot — they are rebuilt deterministically from the slots.
///
/// The `Default` image is of nothing — no property, no state, so no monitor
/// restores from it: a place for
/// [`Monitor::snapshot_into`](crate::Monitor::snapshot_into) to fill.
#[derive(Debug, Clone, Default)]
pub struct MonitorSnapshot {
    pub(crate) property: String,
    pub(crate) stages: usize,
    /// The monitor's slot array, each live instance in a box of its own:
    /// an image that is patched for a whole run grows with the monitor's
    /// state, and growing must move pointers, not instances.
    pub(crate) slots: Vec<Option<Box<Instance>>>,
    pub(crate) free: Vec<usize>,
    pub(crate) timers: TimerWheelSnapshot<(usize, TimerKind)>,
    pub(crate) pending: Vec<(Instant, Effect)>,
    pub(crate) violations: Vec<Violation>,
    pub(crate) now: Instant,
    pub(crate) next_uid: u64,
    pub(crate) stats: MonitorStats,
    /// Set when a monitor brought this image up to date
    /// ([`Monitor::snapshot_into`](crate::Monitor::snapshot_into)): the
    /// moment the two agreed, which that monitor — and any restored from
    /// this image — remembers too, and which makes this image the base its
    /// next sync may patch instead of replace. A clone keeps it (same
    /// state, as good a base; whichever is synced into moves on and leaves
    /// the other stale). Not part of the encoding: a decoded image, like a
    /// fresh [`Monitor::snapshot`](crate::Monitor::snapshot), is nobody's
    /// base.
    pub(crate) synced: Option<SyncToken>,
}

impl MonitorSnapshot {
    /// Name of the property the snapshotted monitor was watching.
    pub fn property(&self) -> &str {
        &self.property
    }

    /// Number of live instances captured.
    pub fn live_instances(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Violations raised up to the snapshot point.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The clock value at the snapshot point.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Serialize to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(256);
        w.magic(MAGIC);
        w.u16(SNAPSHOT_VERSION);
        w.str(&self.property);
        w.u64(self.stages as u64);
        w.u64(self.slots.len() as u64);
        for slot in &self.slots {
            match slot {
                None => w.u8(0),
                Some(inst) => {
                    w.u8(1);
                    write_instance(&mut w, inst);
                }
            }
        }
        w.u64(self.free.len() as u64);
        for &f in &self.free {
            w.u64(f as u64);
        }
        w.u64(self.timers.next_id);
        w.u64(self.timers.next_seq);
        w.u64(self.timers.entries.len() as u64);
        for e in &self.timers.entries {
            w.u64(e.deadline.as_nanos());
            w.u64(e.seq);
            w.u64(e.id.to_raw());
            w.u64(e.generation);
            w.u64(e.payload.0 as u64);
            w.u8(match e.payload.1 {
                TimerKind::WindowExpiry => 0,
                TimerKind::Deadline => 1,
            });
        }
        w.u64(self.pending.len() as u64);
        for (ready, eff) in &self.pending {
            w.u64(ready.as_nanos());
            write_effect(&mut w, eff);
        }
        w.u64(self.violations.len() as u64);
        for v in &self.violations {
            w.violation(v);
        }
        w.u64(self.now.as_nanos());
        w.u64(self.next_uid);
        write_stats(&mut w, &self.stats);
        w.into_bytes()
    }

    /// Parse the versioned binary format back into a snapshot.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        r.expect_header(MAGIC, SNAPSHOT_VERSION)?;
        let property = r.str()?;
        let stages = r.len()?;
        let n_slots = r.count()?;
        let mut slots = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            slots.push(match r.u8()? {
                0 => None,
                1 => Some(Box::new(read_instance(&mut r)?)),
                t => return Err(SnapshotError::BadTag { what: "slot", tag: t }),
            });
        }
        let n_free = r.count()?;
        let mut free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            free.push(r.len()?);
        }
        let next_id = r.u64()?;
        let next_seq = r.u64()?;
        let n_timers = r.count()?;
        let mut entries = Vec::with_capacity(n_timers);
        for _ in 0..n_timers {
            let deadline = Instant::from_nanos(r.u64()?);
            let seq = r.u64()?;
            let id = TimerId::from_raw(r.u64()?);
            let generation = r.u64()?;
            let idx = r.len()?;
            let kind = match r.u8()? {
                0 => TimerKind::WindowExpiry,
                1 => TimerKind::Deadline,
                t => return Err(SnapshotError::BadTag { what: "timer kind", tag: t }),
            };
            entries.push(TimerEntry { deadline, seq, id, generation, payload: (idx, kind) });
        }
        let n_pending = r.count()?;
        let mut pending = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            let ready = Instant::from_nanos(r.u64()?);
            pending.push((ready, read_effect(&mut r)?));
        }
        let n_violations = r.count()?;
        let mut violations = Vec::with_capacity(n_violations);
        for _ in 0..n_violations {
            violations.push(r.violation()?);
        }
        let now = Instant::from_nanos(r.u64()?);
        let next_uid = r.u64()?;
        let stats = read_stats(&mut r)?;
        r.expect_end()?;
        Ok(MonitorSnapshot {
            property,
            stages,
            slots,
            free,
            timers: TimerWheelSnapshot { entries, next_id, next_seq },
            pending,
            violations,
            now,
            next_uid,
            stats,
            synced: None,
        })
    }
}

// ---- engine-private structure codecs -----------------------------------
//
// These encode `pub(crate)` engine types (instances, pending effects, stage
// counters) and so stay here; everything shareable lives in `crate::wire`.

fn write_instance(w: &mut Writer, inst: &Instance) {
    w.u64(inst.uid);
    w.u64(inst.awaiting as u64);
    w.bindings(&inst.bindings);
    w.u64(inst.stage_ids.len() as u64);
    for id in &inst.stage_ids {
        w.opt_u64(id.map(|PacketId(x)| x));
    }
    w.u64(inst.history.len() as u64);
    for ev in &inst.history {
        w.event(ev);
    }
    w.opt_u64(inst.timer.map(TimerId::to_raw));
    w.opt_u64(inst.cell.map(|c| c as u64));
}

fn write_effect(w: &mut Writer, eff: &Effect) {
    match eff {
        Effect::Spawn { obs_time, bindings, stage_id, history } => {
            w.u8(0);
            w.u64(obs_time.as_nanos());
            w.bindings(bindings);
            w.opt_u64(stage_id.map(|PacketId(x)| x));
            w.u64(history.len() as u64);
            for ev in history {
                w.event(ev);
            }
        }
        Effect::Advance { obs_time, idx, uid, expected_stage, bindings, stage_id, event } => {
            w.u8(1);
            w.u64(obs_time.as_nanos());
            w.u64(*idx as u64);
            w.u64(*uid);
            w.u64(*expected_stage as u64);
            w.bindings(bindings);
            w.opt_u64(stage_id.map(|PacketId(x)| x));
            match event {
                None => w.u8(0),
                Some(ev) => {
                    w.u8(1);
                    w.event(ev);
                }
            }
        }
        Effect::Kill { idx, uid, expected_stage } => {
            w.u8(2);
            w.u64(*idx as u64);
            w.u64(*uid);
            w.u64(*expected_stage as u64);
            w.u8(KILL_CLEARED);
        }
    }
}

fn write_stats(w: &mut Writer, s: &MonitorStats) {
    for v in [
        s.events,
        s.spawned,
        s.advanced,
        s.window_expired,
        s.cleared,
        s.deduplicated,
        s.refreshed,
        s.deadlines_fired,
        s.stale_effects_dropped,
        s.evicted,
        s.out_of_scope,
    ] {
        w.u64(v);
    }
}

fn read_instance(r: &mut Reader<'_>) -> Result<Instance, SnapshotError> {
    let uid = r.u64()?;
    let awaiting = r.len()?;
    let bindings = r.bindings()?;
    let n_ids = r.count()?;
    let mut stage_ids = Vec::with_capacity(n_ids);
    for _ in 0..n_ids {
        stage_ids.push(r.opt_u64()?.map(PacketId));
    }
    let n_hist = r.count()?;
    let mut history = Vec::with_capacity(n_hist);
    for _ in 0..n_hist {
        history.push(r.event()?);
    }
    let timer = r.opt_u64()?.map(TimerId::from_raw);
    let cell = match r.opt_u64()? {
        None => None,
        Some(c) => {
            Some(usize::try_from(c).map_err(|_| SnapshotError::Malformed("cell exceeds usize"))?)
        }
    };
    Ok(Instance { uid, awaiting, bindings, stage_ids, history, timer, cell })
}

fn read_effect(r: &mut Reader<'_>) -> Result<Effect, SnapshotError> {
    match r.u8()? {
        0 => {
            let obs_time = Instant::from_nanos(r.u64()?);
            let bindings = r.bindings()?;
            let stage_id = r.opt_u64()?.map(PacketId);
            let n = r.count()?;
            let mut history = Vec::with_capacity(n);
            for _ in 0..n {
                history.push(r.event()?);
            }
            Ok(Effect::Spawn { obs_time, bindings, stage_id, history })
        }
        1 => {
            let obs_time = Instant::from_nanos(r.u64()?);
            let idx = r.len()?;
            let uid = r.u64()?;
            let expected_stage = r.len()?;
            let bindings = r.bindings()?;
            let stage_id = r.opt_u64()?.map(PacketId);
            let event = match r.u8()? {
                0 => None,
                1 => Some(r.event()?),
                t => return Err(SnapshotError::BadTag { what: "option", tag: t }),
            };
            Ok(Effect::Advance { obs_time, idx, uid, expected_stage, bindings, stage_id, event })
        }
        2 => {
            let idx = r.len()?;
            let uid = r.u64()?;
            let expected_stage = r.len()?;
            match r.u8()? {
                KILL_CLEARED => Ok(Effect::Kill { idx, uid, expected_stage }),
                t => Err(SnapshotError::BadTag { what: "kill reason", tag: t }),
            }
        }
        t => Err(SnapshotError::BadTag { what: "effect", tag: t }),
    }
}

fn read_stats(r: &mut Reader<'_>) -> Result<MonitorStats, SnapshotError> {
    Ok(MonitorStats {
        events: r.u64()?,
        spawned: r.u64()?,
        advanced: r.u64()?,
        window_expired: r.u64()?,
        cleared: r.u64()?,
        deduplicated: r.u64()?,
        refreshed: r.u64()?,
        deadlines_fired: r.u64()?,
        stale_effects_dropped: r.u64()?,
        evicted: r.u64()?,
        out_of_scope: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Monitor, MonitorConfig, ProcessingMode};
    use crate::guard::{Atom, Guard};
    use crate::pattern::{ActionPattern, EventPattern};
    use crate::property::{Property, RefreshPolicy, Stage, Unless, WindowSpec};
    use crate::var::var;
    use crate::violation::ProvenanceMode;
    use std::sync::Arc;
    use swmon_packet::{Field, Ipv4Address, MacAddr, Packet, PacketBuilder, TcpFlags};
    use swmon_sim::time::Duration;
    use swmon_sim::trace::{EgressAction, NetEvent, NetEventKind, PortNo, SwitchId};

    fn tcp(src: u8, dst: u8, flags: TcpFlags) -> Arc<Packet> {
        Arc::new(PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, src),
            MacAddr::new(2, 0, 0, 0, 0, dst),
            Ipv4Address::new(10, 0, 0, src),
            Ipv4Address::new(10, 0, 0, dst),
            1000,
            80,
            flags,
            &[],
        ))
    }

    fn at(ms: u64) -> Instant {
        Instant::ZERO + Duration::from_millis(ms)
    }

    fn arrival(t: Instant, src: u8, dst: u8, id: u64) -> NetEvent {
        NetEvent {
            time: t,
            kind: NetEventKind::Arrival {
                switch: SwitchId(0),
                port: PortNo(0),
                pkt: tcp(src, dst, TcpFlags::SYN),
                id: PacketId(id),
            },
        }
    }

    fn dropped(t: Instant, src: u8, dst: u8, id: u64) -> NetEvent {
        NetEvent {
            time: t,
            kind: NetEventKind::Departure {
                switch: SwitchId(0),
                pkt: tcp(src, dst, TcpFlags::ACK),
                id: PacketId(id),
                action: EgressAction::Drop,
            },
        }
    }

    fn fw_timeout() -> Property {
        let mut second = Stage::match_(
            "return-dropped",
            EventPattern::Departure(ActionPattern::Drop),
            Guard::new(vec![
                Atom::Bind(var("B"), Field::Ipv4Src),
                Atom::Bind(var("A"), Field::Ipv4Dst),
            ]),
        );
        second.within = Some(WindowSpec::Fixed(Duration::from_millis(100)));
        second.within_refresh = RefreshPolicy::RefreshOnRepeat;
        second.unless = vec![Unless {
            pattern: EventPattern::Arrival,
            guard: Guard::new(vec![
                Atom::Bind(var("B"), Field::Ipv4Src),
                Atom::Bind(var("A"), Field::Ipv4Dst),
                Atom::EqConst(Field::TcpFlags, u64::from(TcpFlags::FIN.0).into()),
            ]),
        }];
        Property {
            name: "fw-snap".into(),
            statement: "return traffic is not dropped".into(),
            stages: vec![
                Stage::match_(
                    "outbound",
                    EventPattern::Arrival,
                    Guard::new(vec![
                        Atom::Bind(var("A"), Field::Ipv4Src),
                        Atom::Bind(var("B"), Field::Ipv4Dst),
                    ]),
                ),
                second,
            ],
        }
    }

    fn driven_monitor() -> Monitor {
        let mut m = Monitor::new(
            fw_timeout(),
            MonitorConfig { provenance: ProvenanceMode::Full, ..Default::default() },
        );
        for i in 0..40u64 {
            m.process(&arrival(at(i), (i % 9) as u8 + 1, 99, i));
            if i % 5 == 0 {
                m.process(&dropped(at(i) + Duration::from_micros(10), 99, (i % 9) as u8 + 1, i));
            }
        }
        m
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let m = driven_monitor();
        let snap = m.snapshot();
        let bytes = snap.to_bytes();
        let back = MonitorSnapshot::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.property(), snap.property());
        assert_eq!(back.live_instances(), snap.live_instances());
        assert_eq!(back.violations().len(), snap.violations().len());
        assert_eq!(back.now(), snap.now());
        assert_eq!(back.stats, snap.stats);
        assert_eq!(back.free, snap.free);
        assert_eq!(back.next_uid, snap.next_uid);
        assert_eq!(back.timers, snap.timers);
        // Re-encoding the decode is byte-identical (canonical encoding).
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn restore_then_replay_matches_uninterrupted() {
        // Drive two monitors identically; snapshot/restore one mid-stream
        // (through bytes, to exercise the full encoding); suffix replay must
        // match the uninterrupted run exactly.
        let suffix: Vec<NetEvent> = (40..80u64)
            .flat_map(|i| {
                vec![
                    arrival(at(i), (i % 9) as u8 + 1, 99, i),
                    dropped(at(i) + Duration::from_micros(7), 99, (i % 9) as u8 + 1, i),
                ]
            })
            .collect();
        let mut reference = driven_monitor();
        let interrupted = driven_monitor();
        let bytes = interrupted.snapshot().to_bytes();
        drop(interrupted); // the "crashed" incarnation

        // Restore carries state, not configuration: the host must build the
        // replacement monitor with the same config as the crashed one.
        let mut revived = Monitor::new(
            fw_timeout(),
            MonitorConfig { provenance: ProvenanceMode::Full, ..Default::default() },
        );
        revived.restore(&MonitorSnapshot::from_bytes(&bytes).unwrap()).unwrap();
        for ev in &suffix {
            reference.process(ev);
            revived.process(ev);
        }
        reference.advance_to(at(2_000));
        revived.advance_to(at(2_000));
        assert_eq!(reference.stats, revived.stats);
        assert_eq!(reference.live_instances(), revived.live_instances());
        assert_eq!(reference.violations().len(), revived.violations().len());
        for (a, b) in reference.violations().iter().zip(revived.violations()) {
            assert_eq!(a.summary(), b.summary());
            assert_eq!(a.time, b.time);
            assert_eq!(a.bindings, b.bindings);
        }
        // And the final states snapshot identically, byte for byte.
        assert_eq!(reference.snapshot().to_bytes(), revived.snapshot().to_bytes());
    }

    #[test]
    fn restore_rejects_wrong_property() {
        let m = driven_monitor();
        let snap = m.snapshot();
        let other = Property {
            name: "something-else".into(),
            statement: "".into(),
            stages: vec![Stage::match_("only", EventPattern::Arrival, Guard::any())],
        };
        let mut target = Monitor::with_defaults(other);
        let err = target.restore(&snap).unwrap_err();
        assert!(matches!(err, SnapshotError::PropertyMismatch { .. }), "{err}");
    }

    #[test]
    fn decode_rejects_corruption() {
        let bytes = driven_monitor().snapshot().to_bytes();
        assert!(matches!(MonitorSnapshot::from_bytes(&bytes[..3]), Err(SnapshotError::Truncated)));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(MonitorSnapshot::from_bytes(&bad_magic), Err(SnapshotError::BadMagic)));
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xff;
        assert!(matches!(
            MonitorSnapshot::from_bytes(&bad_version),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(MonitorSnapshot::from_bytes(&trailing), Err(SnapshotError::Malformed(_))));
        // Truncation anywhere inside the body is detected, never a panic.
        for cut in (8..bytes.len()).step_by(97) {
            assert!(MonitorSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
    }

    /// Adversarial encoding robustness: arbitrary truncations and bit
    /// flips of a real `SWMS` image must surface as [`SnapshotError`] —
    /// never a panic — and a rejected [`Monitor::restore`] must leave the
    /// target monitor byte-identical to before the attempt (restore
    /// validates before mutating; see its `Malformed` paths). A flip that
    /// happens to decode *and* validate is allowed to restore: the format
    /// cannot distinguish it from a legitimate snapshot, which is exactly
    /// why the runtime journals events rather than trusting checkpoints
    /// blindly (`docs/FAULTS.md`).
    #[test]
    fn corrupted_bytes_never_panic_or_half_apply() {
        use proptest::prelude::*;
        let bytes = driven_monitor().snapshot().to_bytes();
        let len = bytes.len();
        proptest!(|(cut_pm in 0u32..1000, flip_pm in 0u32..1000, bit in 0u32..8)| {
            // Any strict prefix is rejected: either a field is cut short
            // (`Truncated`) or the length headers no longer reconcile.
            let cut = (len * cut_pm as usize / 1000).min(len - 1);
            prop_assert!(MonitorSnapshot::from_bytes(&bytes[..cut]).is_err());

            let mut flipped = bytes.clone();
            let idx = (len * flip_pm as usize / 1000).min(len - 1);
            flipped[idx] ^= 1 << bit;
            if let Ok(snap) = MonitorSnapshot::from_bytes(&flipped) {
                // Decoded structurally — semantic validation is restore's
                // job. Aim at a monitor that already holds state so a
                // half-applied restore would be visible.
                let mut target = driven_monitor();
                let before = target.snapshot().to_bytes();
                if target.restore(&snap).is_err() {
                    prop_assert_eq!(
                        target.snapshot().to_bytes(),
                        before,
                        "a rejected restore must not touch the monitor"
                    );
                }
            }
        });
    }

    /// `bytes` with its one occurrence of `from` overwritten by `to`.
    fn patched(mut bytes: Vec<u8>, from: &[u8], to: &[u8]) -> Vec<u8> {
        assert_eq!(from.len(), to.len());
        let mut hits = (0..=bytes.len() - from.len()).filter(|&i| bytes[i..].starts_with(from));
        let at = hits.next().expect("the pattern occurs");
        assert!(hits.next().is_none(), "the pattern is ambiguous");
        bytes[at..at + to.len()].copy_from_slice(to);
        bytes
    }

    /// Sources 1–4 open; 1 and 2 are violated, which frees their slots.
    /// The violations are taken, so bindings occur in the slots only.
    fn two_live_two_free() -> MonitorSnapshot {
        let mut m = Monitor::with_defaults(fw_timeout());
        for src in 1..=4u8 {
            m.process(&arrival(at(u64::from(src)), src, 99, u64::from(src)));
        }
        m.process(&dropped(at(10), 99, 1, 10));
        m.process(&dropped(at(11), 99, 2, 11));
        assert_eq!(m.take_violations().len(), 2);
        let snap = m.snapshot();
        assert_eq!((snap.live_instances(), snap.free.len()), (2, 2));
        snap
    }

    /// A decoded image `restore` must refuse, leaving `target` as it was.
    fn assert_restore_rejects(bytes: &[u8], reason: &str) {
        let snap = MonitorSnapshot::from_bytes(bytes).expect("structurally valid");
        let mut target = Monitor::with_defaults(fw_timeout());
        target.process(&arrival(at(0), 7, 99, 0));
        let before = target.snapshot().to_bytes();
        match target.restore(&snap) {
            Err(SnapshotError::Malformed(why)) => assert_eq!(why, reason),
            other => panic!("restore returned {other:?}"),
        }
        assert_eq!(target.snapshot().to_bytes(), before, "a rejected restore touched the monitor");
    }

    #[test]
    fn restore_rejects_a_free_list_naming_a_slot_twice() {
        // Listed twice, a slot would go to two spawns, the second
        // overwriting the first's live instance.
        let snap = two_live_two_free();
        let section = |free: &[usize]| {
            let mut w = Writer::with_capacity(64);
            w.u64(free.len() as u64);
            free.iter().for_each(|&f| w.u64(f as u64));
            w.into_bytes()
        };
        let mut twice = snap.free.clone();
        twice[1] = twice[0];
        let bytes = patched(snap.to_bytes(), &section(&snap.free), &section(&twice));
        assert_restore_rejects(&bytes, "free-list names a slot twice");
    }

    #[test]
    fn restore_rejects_two_live_instances_under_one_dedup_key() {
        // The rebuilt index would keep one of them; the other would stay
        // live but unreachable — never deduplicated against, never cleared.
        let snap = two_live_two_free();
        let mut live = snap.slots.iter().flatten();
        let (a, b) = (live.next().unwrap(), live.next().unwrap());
        assert_eq!(a.awaiting, b.awaiting);
        let encoded = |inst: &Instance| {
            let mut w = Writer::with_capacity(64);
            w.bindings(&inst.bindings);
            w.into_bytes()
        };
        let bytes = patched(snap.to_bytes(), &encoded(b), &encoded(a));
        assert_restore_rejects(&bytes, "two live instances share a dedup key");
    }

    #[test]
    fn split_mode_pending_effects_survive_snapshot() {
        let cfg = MonitorConfig {
            provenance: ProvenanceMode::Bindings,
            mode: ProcessingMode::Split { lag: Duration::from_millis(10) },
            ..Default::default()
        };
        let mut reference = Monitor::new(fw_timeout(), cfg);
        reference.process(&arrival(at(0), 1, 2, 0));
        reference.process(&dropped(at(50), 2, 1, 1));
        // Snapshot while both effects are still pending (lag not elapsed).
        let bytes = reference.snapshot().to_bytes();
        let mut revived = Monitor::new(fw_timeout(), cfg);
        revived.restore(&MonitorSnapshot::from_bytes(&bytes).unwrap()).unwrap();
        reference.advance_to(at(1_000));
        revived.advance_to(at(1_000));
        assert_eq!(reference.violations().len(), revived.violations().len());
        assert_eq!(reference.stats, revived.stats);
    }

    #[test]
    fn capacity_bounded_store_restores_cells() {
        let cfg = MonitorConfig { capacity: Some(4), ..Default::default() };
        let mut reference = Monitor::new(fw_timeout(), cfg);
        for i in 0..20u64 {
            reference.process(&arrival(at(i), (i % 11) as u8 + 1, 99, i));
        }
        assert!(reference.stats.evicted > 0, "collisions occurred");
        let bytes = reference.snapshot().to_bytes();
        let mut revived = Monitor::new(fw_timeout(), cfg);
        revived.restore(&MonitorSnapshot::from_bytes(&bytes).unwrap()).unwrap();
        for i in 20..40u64 {
            reference.process(&arrival(at(i), (i % 11) as u8 + 1, 99, i));
            revived.process(&arrival(at(i), (i % 11) as u8 + 1, 99, i));
        }
        assert_eq!(reference.stats, revived.stats, "eviction patterns identical after restore");
        assert_eq!(reference.snapshot().to_bytes(), revived.snapshot().to_bytes());
    }
}
