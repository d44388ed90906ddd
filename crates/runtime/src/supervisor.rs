//! Shard supervision: the journal, panic isolation, checkpoint/replay
//! recovery, and bounded-journal load shedding.
//!
//! The session's one shard is a `Supervisor`, called on the caller thread:
//! `stage` per delivered event, `dispatch` when the staged events are due,
//! `deploy` per deploy barrier, and `finish` at the end of input. Every
//! delivered event is staged once, at the tail of the journal — one flat
//! queue of the events delivered since the last checkpoint — and stays
//! there until the checkpoint that covers it. The supervisor owns the
//! crash-domain [`WorkerState`] and drives it only through `catch_unwind`,
//! so a panic inside it — a genuine engine bug, or a fault injected via
//! [`RuntimeConfig::inject_faults`] — never takes the runtime down. After
//! [`MAX_RESTARTS`] recoveries the next panic escalates a [`ShardFailure`],
//! which the session keeps as its answer to every later call.
//! Recovery rebuilds the monitors from the last checkpoint
//! ([`swmon_core::Monitor::restore`]) and replays the journal, so a
//! recovered run's merged violation output is byte-for-byte identical to a
//! fault-free one.
//!
//! The journal is bounded ([`RuntimeConfig::journal_limit`]). When a
//! delivery burst exceeds it, the overflow is **shed explicitly**: counted
//! in a [`MonitoringGap`], never silently lost, and every
//! violation raised while the gap is open carries downgraded provenance
//! ([`swmon_core::Violation::degraded`]). See `docs/FAULTS.md` for the
//! full fault model.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};

use crate::config::RuntimeConfig;
use crate::merge::ViolationRecord;
use crate::sink::ViolationSink;
use crate::stats::{MonitoringGap, RuntimeStats};
use crate::telemetry::ShardProbe;
use crate::worker::{ShardLayout, WorkerState, FLUSH_SEQ};
use swmon_core::{CatalogEpoch, Monitor, MonitorSet, MonitorSnapshot, Property, PropertyOrigin};
use swmon_sim::time::Instant;
use swmon_sim::trace::NetEvent;

/// How many times a shard may be recovered (checkpoint restore + journal
/// replay); the next panic escalates a [`ShardFailure`].
pub const MAX_RESTARTS: u64 = 8;

/// Message prefix of panics raised by deterministic fault injection.
/// [`silence_injected_panics`] recognises it; anything else is a genuine
/// bug and still reaches the default panic hook.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault";

/// Install a process-wide panic hook that suppresses the stderr noise of
/// *injected* panics (recognised by [`INJECTED_PANIC_PREFIX`]) while
/// delegating every other panic to the previous hook. Idempotent; chaos
/// tests and the `e15` benchmark call this so dozens of intentional shard
/// crashes don't drown real diagnostics.
pub fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|s| s.starts_with(INJECTED_PANIC_PREFIX));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Terminal shard failure: the restart budget ([`MAX_RESTARTS`]) is
/// exhausted, or a checkpoint could not be restored. Reported instead of
/// an outcome; the runtime surfaces it as
/// [`crate::RuntimeError::ShardFailed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Recoveries attempted before giving up.
    pub restarts: u64,
    /// The final panic message (or restore error).
    pub message: String,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard failed after {} restart(s): {}", self.restarts, self.message)
    }
}

/// One journalled event.
#[derive(Debug)]
pub(crate) struct Item {
    /// Global input sequence number (position in the fed trace).
    pub(crate) seq: u64,
    /// Bitmask of property indices the event must run through.
    pub(crate) mask: u64,
    /// The event, cloned once when it was staged.
    pub(crate) ev: NetEvent,
}

/// A consistent restart point: one image per monitor (none before the
/// first checkpoint) — live state only, the monitors hold no violation
/// history — plus how much of the shard's violation log was raised before
/// them. Recovery rewinds the log to `records_len` — keeping what a sink
/// has already seen beyond it — and replay re-raises the rest.
struct Checkpoint {
    snapshots: Vec<MonitorSnapshot>,
    records_len: usize,
}

/// What one monitor's engine probe has been told: the monitor's event
/// count at the last read (rewound with the monitor on recovery, so
/// replays count again) and its current share of the property's gauge.
#[derive(Clone, Copy, Default)]
struct Told {
    events: u64,
    live: u64,
}

/// The shard's supervision state, called directly by the session.
pub(crate) struct Supervisor {
    cfg: RuntimeConfig,
    state: WorkerState,
    checkpoint: Checkpoint,
    /// `told[i]` goes with property `i`'s monitor and the layout's
    /// `probes[i]`.
    told: Vec<Told>,
    /// Remaining injected deploy-prepare failures (chaos testing): each
    /// one makes the next prepare panic inside its catch_unwind boundary.
    inject_deploy: usize,
    /// Events delivered since the last checkpoint, in input order. Between
    /// drives, `journal[journal_pos..]` is what is staged and not yet
    /// dispatched; a drive admits it and applies it, and recovery replays
    /// from 0. Cleared, not freed, at each checkpoint.
    journal: Vec<Item>,
    /// How many journal items the current incarnation has applied.
    journal_pos: usize,
    /// Highest journal position any incarnation reached this window —
    /// applications below it are replays, at or above it first-times.
    high_water: usize,
    /// Input sequence numbers at which to panic, ascending. Consumed
    /// *before* the panic is raised, so replay after recovery does not
    /// re-trigger the fault.
    inject: VecDeque<u64>,
    in_gap: bool,
    open_gap: Option<MonitoringGap>,
    gaps: Vec<MonitoringGap>,
    /// Recoveries still allowed ([`MAX_RESTARTS`] at start) — the budget,
    /// not a statistic.
    restarts_left: u64,
    /// Every count this shard keeps: the supervisor has no private copy.
    probe: Arc<ShardProbe>,
    sink: Option<Arc<dyn ViolationSink>>,
    /// Log positions already handed to the sink: a high-water mark that
    /// recovery never lowers. Replay is deterministic, so a position handed
    /// over once is re-raised identically and dropped — exactly-once holds.
    published: usize,
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor").field("epoch", &self.state.log.epoch).finish_non_exhaustive()
    }
}

impl Supervisor {
    /// A shard hosting `layout` under the initial epoch, counting into
    /// `probe` and publishing what it raises to `sink`, if one is wired.
    /// `cfg` is the normalized configuration in effect.
    pub(crate) fn new(
        layout: ShardLayout,
        cfg: RuntimeConfig,
        probe: Arc<ShardProbe>,
        sink: Option<Arc<dyn ViolationSink>>,
    ) -> Self {
        let set = build_set(&cfg, &layout.props, |_| None).expect("fresh monitors restore nothing");
        let told = vec![Told::default(); set.len()];
        let mut inject: Vec<u64> = cfg.inject_faults.iter().map(|f| f.seq).collect();
        inject.sort_unstable();
        Supervisor {
            inject_deploy: cfg.inject_deploy_faults,
            cfg,
            state: WorkerState::new(layout, set),
            // No images before the first checkpoint: a crash that early
            // rebuilds the monitors fresh, which is what they were.
            checkpoint: Checkpoint { snapshots: Vec::new(), records_len: 0 },
            told,
            journal: Vec::new(),
            journal_pos: 0,
            high_water: 0,
            inject: inject.into(),
            in_gap: false,
            open_gap: None,
            gaps: Vec::new(),
            restarts_left: MAX_RESTARTS,
            probe,
            sink,
            published: 0,
        }
    }

    /// Stage one delivered event at the journal's tail, cloned once (its
    /// packet is shared, not copied). The journal grows as `push` would,
    /// but never past the most it can hold: a checkpoint window's admitted
    /// events plus one dispatch's.
    pub(crate) fn stage(&mut self, seq: u64, mask: u64, ev: &NetEvent) {
        debug_assert!(mask != 0, "fully masked events are filtered before staging");
        let len = self.journal.len();
        if len == self.journal.capacity() {
            let cfg = &self.cfg;
            let most = cfg.journal_limit.min(cfg.checkpoint_every).saturating_add(cfg.batch);
            self.journal.reserve_exact(len.max(cfg.batch).min(most.saturating_sub(len)));
        }
        self.journal.push(Item { seq, mask, ev: ev.clone() });
    }

    /// How many staged events wait for a dispatch.
    pub(crate) fn staged(&self) -> usize {
        self.journal.len() - self.journal_pos
    }

    /// True when the staged events must be dispatched: they fill a batch,
    /// or the oldest is `flush_every` or more input ticks behind `seq_now`
    /// — the bounded-staleness trigger. Input sequence numbers count
    /// filtered feeds too, so it fires even when nothing more is staged.
    pub(crate) fn due(&self, seq_now: u64) -> bool {
        self.journal.get(self.journal_pos).is_some_and(|oldest| {
            self.staged() >= self.cfg.batch
                || seq_now.saturating_sub(oldest.seq) >= self.cfg.flush_every as u64
        })
    }

    /// Admit what is staged: whatever of it lies past the journal bound is
    /// shed, with full gap accounting.
    fn admit(&mut self) {
        if self.staged() == 0 {
            return;
        }
        self.probe.queue_depth.record(self.journal_pos as u64);
        let Some(overflow) = self.journal.get(self.cfg.journal_limit..) else { return };
        if let (Some(first), Some(last)) = (overflow.first(), overflow.last()) {
            let shed = overflow.len() as u64;
            self.probe.shed.add(shed);
            self.in_gap = true;
            let gap = self.open_gap.get_or_insert(MonitoringGap {
                first_seq: first.seq,
                last_seq: first.seq,
                shed: 0,
            });
            gap.last_seq = last.seq;
            gap.shed += shed;
            self.journal.truncate(self.cfg.journal_limit);
        }
    }

    /// Drive what is staged to completion under full supervision — the
    /// journal bound, the panic boundary with checkpoint/replay recovery,
    /// shedding accounting — and publish what it raised before the
    /// checkpoint cadence can stall its visibility.
    pub(crate) fn dispatch(&mut self) -> Result<(), ShardFailure> {
        self.drive(None)?;
        self.publish();
        self.maybe_checkpoint();
        Ok(())
    }

    /// Admit what is staged, then apply everything outstanding inside the
    /// panic boundary; recover and retry on unwind until success or the
    /// restart budget runs out.
    ///
    /// Each attempt is counted from what it moved, whether it completed or
    /// unwound — no per-item counter: the journal cursors advance as each
    /// item's application completes, so `Δhigh_water` items were applied
    /// for the first time and the rest of `Δjournal_pos` were replays;
    /// `in_gap` is fixed for the whole attempt, so inside a gap everything
    /// it added to the log is degraded.
    fn drive(&mut self, finish_at: Option<Instant>) -> Result<(), ShardFailure> {
        self.admit();
        loop {
            let (pos, high, logged) =
                (self.journal_pos, self.high_water, self.state.log.records.len());
            let attempt = panic::catch_unwind(AssertUnwindSafe(|| self.apply_pending(finish_at)));
            let first_time = (self.high_water - high) as u64;
            self.probe.processed.add(first_time);
            let replayed = (self.journal_pos - pos) as u64 - first_time;
            if replayed != 0 {
                self.probe.replayed.add(replayed);
            }
            if self.in_gap {
                self.probe.degraded_violations.add((self.state.log.records.len() - logged) as u64);
            }
            self.read_engines(attempt.is_ok());
            match attempt {
                Ok(()) => return Ok(()),
                Err(payload) => self.recover(payload.as_ref())?,
            }
        }
    }

    /// Add what the monitors did since the last read to their engine
    /// probes: the events each examined (after every attempt — an unwound
    /// one's applications happened, and their replays count again) and,
    /// once an attempt `completed`, the change in its live instances —
    /// each written only if it moved. Gauges skip an unwound attempt's state: it is
    /// torn, and about to be replaced.
    fn read_engines(&mut self, completed: bool) {
        let probes = &self.state.layout.probes;
        let monitors = self.state.set.monitors().iter().zip(probes).zip(&mut self.told);
        let mut live_instances = 0;
        for ((m, probe), told) in monitors {
            if m.stats.events != told.events {
                probe.events.add(m.stats.events - told.events);
                told.events = m.stats.events;
            }
            if completed {
                let live = m.live_instances() as u64;
                if live != told.live {
                    probe.live.add(live as i64 - told.live as i64);
                    told.live = live;
                }
                live_instances += live;
            }
        }
        if completed {
            self.probe.live_instances.set(live_instances);
            self.probe.violations.set(self.state.log.records.len() as u64);
        }
    }

    /// Crash-domain body: journal suffix, then (at end of input) the timer
    /// drain. Anything here may panic; an injection point is consumed
    /// *before* it panics, and the journal cursors move only once an
    /// item's application has completed.
    fn apply_pending(&mut self, finish_at: Option<Instant>) {
        let faults = !self.inject.is_empty();
        for &Item { seq, mask, ref ev } in &self.journal[self.journal_pos..] {
            if faults {
                while self.inject.front().is_some_and(|&s| s < seq) {
                    // Injection point filtered out or shed: never reachable.
                    self.inject.pop_front();
                }
                if self.inject.front() == Some(&seq) {
                    // Consume the injection first so replay does not
                    // re-panic.
                    self.inject.pop_front();
                    panic!("{INJECTED_PANIC_PREFIX} at seq {seq}");
                }
            }
            self.state.apply(seq, mask, ev, self.in_gap);
            self.journal_pos += 1;
            self.high_water = self.high_water.max(self.journal_pos);
        }
        if let Some(end) = finish_at {
            self.state.finish(end, self.in_gap);
        }
    }

    /// Rebuild the crash domain from the last checkpoint and rewind the
    /// journal cursor so `drive` replays the gap. What was published
    /// stands: the log keeps it, and replay's copies of it are dropped.
    fn recover(&mut self, payload: &(dyn Any + Send)) -> Result<(), ShardFailure> {
        let t0 = std::time::Instant::now();
        let fail = |restarts: u64, message: String| ShardFailure { restarts, message };
        let Some(left) = self.restarts_left.checked_sub(1) else {
            return Err(fail(MAX_RESTARTS, panic_message(payload)));
        };
        self.restarts_left = left;
        let snapshots = &self.checkpoint.snapshots;
        self.state.set = build_set(&self.cfg, &self.state.layout.props, |i| snapshots.get(i))
            .map_err(|e| fail(MAX_RESTARTS - left, e))?;
        for (told, m) in self.told.iter_mut().zip(self.state.set.monitors()) {
            told.events = m.stats.events;
        }
        let log = &mut self.state.log;
        log.records.truncate(self.published.max(self.checkpoint.records_len));
        log.logged = self.checkpoint.records_len;
        self.journal_pos = 0;
        self.probe.restarts.inc();
        self.probe.recovery.record(t0.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Checkpoint when the journal is fully applied and either the cadence
    /// is due or the journal hit its bound (draining it re-opens headroom;
    /// this is what closes a monitoring gap).
    fn maybe_checkpoint(&mut self) {
        let due = self.high_water >= self.cfg.checkpoint_every
            || self.journal.len() >= self.cfg.journal_limit;
        if due && self.staged() == 0 {
            self.force_checkpoint();
        }
    }

    /// Take a checkpoint now. Requires a fully applied journal (callers:
    /// `maybe_checkpoint` after its guard, and `deploy` after its full
    /// drain and at its commit).
    ///
    /// The images are brought up to date in place
    /// ([`Monitor::snapshot_into`]): a monitor whose image is the one it
    /// last synced into, or was restored from on recovery, copies the
    /// slots it wrote since; any other pairing — the first checkpoint, a
    /// deploy's new monitor set — is a full copy, decided by the monitor.
    fn force_checkpoint(&mut self) {
        debug_assert_eq!(self.staged(), 0);
        let t0 = std::time::Instant::now();
        let images = &mut self.checkpoint.snapshots;
        images.resize_with(self.state.set.len(), MonitorSnapshot::default);
        let monitors = self.state.set.monitors_mut().iter_mut().zip(images);
        let copied: usize = monitors.map(|(m, image)| m.snapshot_into(image)).sum();
        self.checkpoint.records_len = self.state.log.records.len();
        self.probe.checkpoint_slots.add(copied as u64);
        self.probe.checkpoint.record(t0.elapsed().as_nanos() as u64);
        self.journal.clear();
        self.journal_pos = 0;
        self.high_water = 0;
        self.probe.checkpoints.inc();
        self.gaps.extend(self.open_gap.take());
        self.in_gap = false;
    }

    /// A deploy's barrier, in one call. Quiesce: drain everything
    /// outstanding (a crash here rides the normal supervision path) and
    /// force a checkpoint. Prepare: build `next`'s monitor set from
    /// `layout` *without touching live state*, each retained property
    /// restored from its image in that checkpoint, by reference. Commit:
    /// swap the set in and checkpoint under it, so any later recovery
    /// restores the *new* set; violations logged from here on carry the
    /// new epoch, and the outgoing monitors' shares of their properties'
    /// gauges are retracted (a retired one no longer lives anywhere), the
    /// incoming set's added.
    ///
    /// Returns the quiesce pause in nanoseconds, or `Ok(Err(reason))` if
    /// prepare failed (restore error, panic or injected fault, all caught
    /// at the panic boundary): the shard is then exactly as the quiesce
    /// left it, recovery point included, since prepare copies and takes
    /// nothing out of the checkpoint — rollback is the absence of a commit.
    /// `Err` is a terminal failure of the drain.
    pub(crate) fn deploy(
        &mut self,
        next: &CatalogEpoch,
        layout: ShardLayout,
    ) -> Result<Result<u64, String>, ShardFailure> {
        let t0 = std::time::Instant::now();
        self.drive(None)?;
        self.force_checkpoint();
        let nanos = t0.elapsed().as_nanos() as u64;
        self.probe.quiesce.record(nanos);
        let inject = self.inject_deploy > 0;
        self.inject_deploy = self.inject_deploy.saturating_sub(1);
        let images = &self.checkpoint.snapshots;
        let built = panic::catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("{INJECTED_PANIC_PREFIX} in deploy prepare");
            }
            build_set(&self.cfg, &layout.props, |i| match next.origins()[i] {
                PropertyOrigin::Retained(prev) => Some(&images[prev]),
                PropertyOrigin::Upgraded(_) | PropertyOrigin::Added => None,
            })
        }));
        let set = match built.unwrap_or_else(|payload| Err(panic_message(payload.as_ref()))) {
            Ok(set) => set,
            Err(reason) => return Ok(Err(reason)),
        };
        for (probe, told) in self.state.layout.probes.iter().zip(&self.told) {
            probe.live.add(-(told.live as i64));
        }
        let told = |m: &Monitor| Told { events: m.stats.events, live: 0 };
        self.told = set.monitors().iter().map(told).collect();
        self.state.layout = layout;
        self.state.set = set;
        self.state.log.epoch = next.epoch();
        self.read_engines(true);
        self.force_checkpoint();
        Ok(Ok(nanos))
    }

    /// Hand the log positions past the published mark to the sink, and
    /// count each event-triggered record's lag: input ticks up to the last
    /// event admitted, the end of the dispatch whose publish carries it.
    fn publish(&mut self) {
        let Some(sink) = &self.sink else { return };
        let fresh = &self.state.log.records[self.published..];
        if fresh.is_empty() {
            return;
        }
        let upto = self.journal.last().map_or(0, |r| r.seq);
        for r in fresh.iter().filter(|r| r.seq != FLUSH_SEQ) {
            self.probe.publish_lag.record(upto.saturating_sub(r.seq));
        }
        sink.publish(0, fresh);
        self.probe.store_published.add(fresh.len() as u64);
        self.published = self.state.log.records.len();
    }

    /// End of input: admit and apply what is staged, advance every monitor
    /// to `end` (firing pending deadlines), fold what the probe cannot
    /// carry — the monitoring gaps and each monitor's engine counters —
    /// into `stats`, and hand back the violation log, in discovery order.
    /// The staged tail is applied here rather than by a dispatch of its
    /// own, so it and the timer drain are one publish.
    pub(crate) fn finish(
        mut self,
        end: Instant,
        stats: &mut RuntimeStats,
    ) -> Result<Vec<ViolationRecord>, ShardFailure> {
        self.drive(Some(end))?;
        self.gaps.extend(self.open_gap.take());
        self.publish();
        stats.gaps = self.gaps;
        self.state.set.monitors().iter().for_each(|m| stats.absorb_engine(&m.stats));
        Ok(self.state.log.records)
    }
}

/// The one place a shard's monitors are built — for the initial epoch
/// ([`Supervisor::new`]), after a crash (`recover`) and for a deploy's
/// next epoch (`deploy`): a fresh monitor for every property, property `i` restored
/// from `snapshot_for(i)` when that yields one.
fn build_set<'a>(
    cfg: &RuntimeConfig,
    props: &[Property],
    snapshot_for: impl Fn(usize) -> Option<&'a MonitorSnapshot>,
) -> Result<MonitorSet, String> {
    let mut set = MonitorSet::new();
    for (i, p) in props.iter().enumerate() {
        set.add(p.clone(), cfg.monitor);
        if let Some(snap) = snapshot_for(i) {
            set.monitors_mut()[i]
                .restore(snap)
                .map_err(|e| format!("snapshot restore for property {i} failed: {e}"))?;
        }
    }
    Ok(set)
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "shard panicked with a non-string payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use swmon_core::{var, Atom, EventPattern, Guard, Property, RefreshPolicy, Stage};
    use swmon_packet::{Field, Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
    use swmon_sim::time::Duration;
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

    /// A supervisor over `props`, panicking at the seqs in `inject`, with
    /// its probe: the only place it counts, so the tests read their numbers
    /// there.
    fn supervisor_of(
        props: Vec<Property>,
        cfg: RuntimeConfig,
        inject: Vec<u64>,
        sink: Option<Arc<dyn ViolationSink>>,
    ) -> (Supervisor, Arc<ShardProbe>) {
        let inject_faults = inject.into_iter().map(|seq| crate::FaultPoint { seq }).collect();
        let cfg = RuntimeConfig { inject_faults, ..cfg }.normalized();
        let hub = crate::telemetry::TelemetryHub::new(&cfg.telemetry);
        let layout = ShardLayout {
            probes: props.iter().map(|p| hub.engine(&p.name)).collect(),
            props: props.into(),
        };
        let probe = hub.shard().clone();
        (Supervisor::new(layout, cfg, probe.clone(), sink), probe)
    }

    /// Keeps each publish's records, one inner vector per call.
    #[derive(Debug, Default)]
    struct Recording(std::sync::Mutex<Vec<Vec<ViolationRecord>>>);

    impl Recording {
        fn publishes(&self) -> Vec<Vec<ViolationRecord>> {
            self.0.lock().unwrap().clone()
        }
    }

    impl ViolationSink for Recording {
        fn publish(&self, _shard: usize, records: &[ViolationRecord]) {
            self.0.lock().unwrap().push(records.to_vec());
        }

        fn seal(&self, _merged: &[ViolationRecord]) {}
    }

    /// A supervisor over `props` publishing into a fresh [`Recording`].
    fn recorded(
        props: Vec<Property>,
        cfg: RuntimeConfig,
        inject: Vec<u64>,
    ) -> (Supervisor, Arc<ShardProbe>, Arc<Recording>) {
        let sink = Arc::new(Recording::default());
        let (sup, probe) = supervisor_of(props, cfg, inject, Some(sink.clone()));
        (sup, probe, sink)
    }

    /// A fresh supervisor over [`repeat_prop`], with its probe.
    fn supervised(cfg: RuntimeConfig, inject: Vec<u64>) -> (Supervisor, Arc<ShardProbe>) {
        supervisor_of(vec![repeat_prop()], cfg, inject, None)
    }

    fn test_ev(seq: u64) -> NetEvent {
        arrival(10 * (seq + 1), (seq % 5) as u8 + 1)
    }

    /// Stage `ev(seq)` for every `seq` in `0..n` (mask 1) as
    /// `Session::feed` does, dispatching whenever the staged events are
    /// due, and hand the supervisor to `after` after each dispatch.
    fn feed_each(
        sup: &mut Supervisor,
        n: u64,
        ev: impl Fn(u64) -> NetEvent,
        mut after: impl FnMut(&Supervisor),
    ) -> Result<(), ShardFailure> {
        for seq in 0..n {
            sup.stage(seq, 1, &ev(seq));
            if sup.due(seq + 1) {
                sup.dispatch()?;
                after(sup);
            }
        }
        Ok(())
    }

    /// [`feed_each`] over [`test_ev`], with nothing to check in between.
    fn feed(sup: &mut Supervisor, n: u64) -> Result<(), ShardFailure> {
        feed_each(sup, n, test_ev, |_| {})
    }

    /// The log and the folded stats of a run over `n` events, with the
    /// probe.
    fn run_with(
        cfg: RuntimeConfig,
        inject: Vec<u64>,
        n: u64,
    ) -> (Vec<ViolationRecord>, RuntimeStats, Arc<ShardProbe>) {
        silence_injected_panics();
        let (mut sup, probe) = supervised(cfg, inject);
        feed(&mut sup, n).expect("shard survives");
        let mut stats = RuntimeStats::default();
        let log = sup.finish(Instant::from_nanos(1_000_000), &mut stats);
        (log.expect("shard survives"), stats, probe)
    }

    fn base_cfg() -> RuntimeConfig {
        RuntimeConfig { checkpoint_every: 16, ..Default::default() }
    }

    #[test]
    fn injected_panics_recover_to_identical_output() {
        let (clean, _, clean_probe) = run_with(base_cfg(), vec![], 40);
        let (faulty, _, probe) = run_with(base_cfg(), vec![3, 21, 33], 40);
        assert_eq!(probe.restarts.get(), 3);
        assert!(probe.replayed.get() > 0, "recovery replayed the journal gap");
        assert_eq!(probe.shed.get(), 0);
        assert_eq!(probe.processed.get(), 40, "each item counts once, replays apart");
        let sig =
            |log: &[ViolationRecord]| log.iter().map(crate::merge::signature).collect::<Vec<_>>();
        assert_eq!(sig(&clean), sig(&faulty));
        assert_eq!(clean_probe.processed.get(), probe.processed.get());
    }

    /// Dispatches of 3 for 90 events against a cadence no window reaches,
    /// so all 90 stay journalled; seq 47 (dispatch 15, third item) crashes.
    /// The recovery replays 0..47 once; every other dispatch applies its
    /// own 3 items and nothing before them.
    #[test]
    fn a_crash_inside_batch_k_of_many_resumes_on_the_next_unapplied_item() {
        silence_injected_panics();
        let run = |inject: Vec<u64>| {
            let crash_at = inject.first().copied();
            let cfg = RuntimeConfig { batch: 3, checkpoint_every: 1 << 20, ..Default::default() };
            let (mut sup, probe, sink) = recorded(vec![repeat_prop()], cfg, inject);
            for seq in 0..90 {
                sup.stage(seq, 1, &test_ev(seq));
                if sup.due(seq + 1) {
                    let (replayed, processed) = (probe.replayed.get(), probe.processed.get());
                    sup.dispatch().unwrap();
                    assert_eq!(
                        sup.journal_pos,
                        sup.journal.len(),
                        "dispatch ending at {seq} applied"
                    );
                    assert_eq!(probe.processed.get() - processed, 3, "dispatch ending at {seq}");
                    // The crashing dispatch ends on the crash: everything
                    // before it since the checkpoint (none) is replayed.
                    let replay = if crash_at == Some(seq) { seq } else { 0 };
                    assert_eq!(probe.replayed.get() - replayed, replay, "dispatch ending at {seq}");
                }
            }
            assert_eq!((sup.journal.len(), probe.checkpoints.get()), (90, 0));
            (sink.publishes(), probe)
        };
        let (clean, _) = run(vec![]);
        let (faulty, probe) = run(vec![47]);
        assert_eq!(probe.restarts.get(), 1);
        assert_eq!(probe.processed.get(), 90, "each item applied once, replays apart");
        let sig = |p: &[Vec<ViolationRecord>]| {
            p.iter().flatten().map(crate::merge::signature).collect::<Vec<_>>()
        };
        assert!(clean.len() > 20, "most dispatches raise: {}", clean.len());
        assert_eq!(sig(&faulty), sig(&clean));
    }

    #[test]
    fn restart_budget_escalates_to_failure() {
        silence_injected_panics();
        // One fault more than the budget: seqs 1..=9.
        let inject = (1..=MAX_RESTARTS + 1).collect();
        let (mut sup, probe) = supervised(RuntimeConfig::default(), inject);
        let err = feed(&mut sup, 16).expect_err("the fault past the budget escalates");
        assert_eq!(err.restarts, MAX_RESTARTS);
        assert_eq!(probe.restarts.get(), MAX_RESTARTS, "every recovery in the budget ran");
        assert!(err.message.starts_with(INJECTED_PANIC_PREFIX), "{}", err.message);
        assert!(err.message.ends_with("at seq 9"), "{}", err.message);
    }

    /// Staged items are the journal's undispatched suffix: each keeps its
    /// `seq` and `mask`, in input order, and a dispatch moves the suffix's
    /// start past them.
    #[test]
    fn staged_items_keep_seq_mask_and_input_order() {
        let cfg = RuntimeConfig { batch: 3, ..Default::default() };
        let (mut sup, _) = supervisor_of(vec![repeat_prop(); 3], cfg, vec![], None);
        let staged = |sup: &Supervisor| -> Vec<(u64, u64, u64)> {
            let suffix = &sup.journal[sup.journal_pos..];
            suffix.iter().map(|r| (r.seq, r.mask, r.ev.time.as_nanos())).collect()
        };
        sup.stage(0, 1, &arrival(10, 1));
        sup.stage(1, 2, &arrival(20, 2));
        assert!(!sup.due(2));
        sup.stage(2, 5, &arrival(30, 3));
        assert!(sup.due(3), "the third event fills the batch");
        assert_eq!(staged(&sup), [(0, 1, 10), (1, 2, 20), (2, 5, 30)]);
        sup.dispatch().unwrap();
        assert_eq!((sup.staged(), sup.journal.len()), (0, 3), "dispatched, still journalled");
        sup.stage(7, 1, &arrival(42, 4));
        sup.stage(9, 3, &arrival(43, 5));
        assert_eq!(staged(&sup), [(7, 1, 42), (9, 3, 43)]);
    }

    #[test]
    fn staging_clones_the_event_but_not_its_packet() {
        let (mut sup, _) = supervised(RuntimeConfig::default(), vec![]);
        let fed = arrival(30, 1);
        sup.stage(0, 1, &fed);
        let staged = &sup.journal[0].ev;
        assert_eq!(staged.time, fed.time);
        assert!(Arc::ptr_eq(staged.packet().unwrap(), fed.packet().unwrap()));
    }

    #[test]
    fn staleness_runs_from_the_oldest_undispatched_item() {
        let cfg = RuntimeConfig { batch: 64, flush_every: 8, ..Default::default() };
        let (mut sup, _) = supervised(cfg, vec![]);
        assert!(!sup.due(100), "nothing staged is never stale");
        sup.stage(5, 1, &test_ev(5));
        // Seqs 6..12 were filtered: they never reach the journal, yet
        // they age what is staged.
        assert!(!sup.due(12));
        assert!(sup.due(13), "the oldest item is 8 ticks behind");
        // A later item does not reset the clock.
        sup.stage(12, 1, &test_ev(12));
        assert!(sup.due(13));
        // A dispatch does.
        sup.dispatch().unwrap();
        assert!(!sup.due(1_000));
        sup.stage(1_000, 1, &test_ev(1_000));
        assert!(!sup.due(1_007));
        assert!(sup.due(1_008), "the clock restarts at the next staged item");
    }

    /// The journal is cleared, not freed, at each checkpoint: after the
    /// first window its allocation never moves, and it never holds more
    /// than the bound plus one dispatch — shedding or not.
    #[test]
    fn the_journal_keeps_its_allocation_across_checkpoints() {
        for journal_limit in [0, 12] {
            let cfg = RuntimeConfig { checkpoint_every: 16, journal_limit, ..Default::default() };
            let (mut sup, probe) = supervised(cfg, vec![]);
            let bound = sup.cfg.journal_limit + sup.cfg.batch;
            let mut caps = Vec::new();
            let mut checkpoints = 0;
            feed_each(&mut sup, 1_600, test_ev, |sup| {
                assert!(sup.journal.capacity() <= bound, "{} > {bound}", sup.journal.capacity());
                if probe.checkpoints.get() > checkpoints {
                    checkpoints = probe.checkpoints.get();
                    caps.push(sup.journal.capacity());
                }
            })
            .unwrap();
            assert!(caps.len() >= 100, "{} checkpoints", caps.len());
            assert!(caps.iter().all(|&c| c == caps[0]), "limit {journal_limit}: {caps:?}");
        }
    }

    #[test]
    fn a_staleness_flush_publishes_without_checkpointing() {
        // A partial batch, as a `flush_every` flush dispatches it: seqs 0
        // and 5 share a source, so the second arrival raises.
        let cfg = RuntimeConfig { checkpoint_every: 1 << 20, ..Default::default() };
        let (mut sup, probe, sink) = recorded(vec![repeat_prop()], cfg, vec![]);
        for seq in [0, 5] {
            sup.stage(seq, 1, &test_ev(seq));
        }
        sup.dispatch().unwrap();
        let published = sink.publishes();
        assert_eq!(published.len(), 1, "the flushed dispatch's violation is visible at once");
        assert_eq!(published[0].iter().map(|r| r.seq).collect::<Vec<_>>(), [5]);
        assert_eq!(probe.checkpoints.get(), 0, "a flush is a dispatch, not a checkpoint");
        assert_eq!(probe.store_published.get(), 1);
        let lag = probe.publish_lag.snapshot();
        assert_eq!((lag.count, lag.max), (1, 0), "raised by the dispatch's last event");
    }

    #[test]
    fn recovery_never_lowers_the_published_mark() {
        silence_injected_panics();
        let sig = |published: Vec<Vec<ViolationRecord>>| -> Vec<String> {
            published.iter().flatten().map(crate::merge::signature).collect()
        };
        let run = |inject: Vec<u64>| {
            let (mut sup, probe, sink) = recorded(vec![repeat_prop()], base_cfg(), inject);
            let mut mark = 0;
            feed_each(&mut sup, 40, test_ev, |sup| {
                assert!(sup.published >= mark, "the mark fell from {mark} to {}", sup.published);
                assert_eq!(
                    sup.published,
                    sup.state.log.records.len(),
                    "a dispatch publishes all it raised"
                );
                mark = sup.published;
            })
            .unwrap();
            let end = Instant::from_nanos(1_000_000);
            let out = sup.finish(end, &mut RuntimeStats::default()).expect("finish succeeds");
            let log: Vec<String> = out.iter().map(crate::merge::signature).collect();
            (sig(sink.publishes()), log, probe)
        };
        let (clean, clean_log, _) = run(vec![]);
        assert!(clean.len() >= 30, "most arrivals repeat a source: {}", clean.len());
        assert_eq!(clean, clean_log, "the published stream is the log");
        // Checkpoints fall after seqs 15 and 31. Seq 13 crashes the second
        // dispatch of a window whose first is already published, seq 35 the
        // first dispatch after a checkpoint: replay re-raises what the sink
        // has seen, and none of it is delivered twice or moved.
        let (faulty, faulty_log, probe) = run(vec![13, 35]);
        assert_eq!(probe.restarts.get(), 2);
        assert!(probe.replayed.get() >= 8, "the published dispatch was replayed");
        assert_eq!(faulty, clean);
        assert_eq!(faulty_log, clean_log);
        assert_eq!(probe.store_published.get(), clean.len() as u64);
    }

    #[test]
    fn finish_publishes_once() {
        // `twice` raises on a repeated source; `due` 5 ns after every
        // arrival, which for the last arrivals is after the input ends.
        let due = Property {
            name: "due".into(),
            statement: String::new(),
            stages: vec![
                repeat_prop().stages.remove(0),
                Stage::deadline("late", Duration::from_nanos(5), RefreshPolicy::NoRefresh),
            ],
        };
        let cfg = RuntimeConfig::default();
        let (mut sup, _, sink) = recorded(vec![repeat_prop(), due], cfg, vec![]);
        for seq in 0..12 {
            sup.stage(seq, 0b11, &test_ev(seq));
        }
        let end = Instant::from_nanos(1_000_000);
        let log = sup.finish(end, &mut RuntimeStats::default()).expect("finishes");
        let published = sink.publishes();
        assert_eq!(published.len(), 1, "the staged tail and the timer drain are one publish");
        assert_eq!(published[0].len(), log.len());
        let drained = published[0].iter().filter(|r| r.seq == FLUSH_SEQ).count();
        assert!(drained > 0 && drained < log.len(), "both raised: {drained} of {}", log.len());
    }

    /// What is staged at `finish` is admitted like any dispatch: past the
    /// journal bound it is shed into a gap, not applied.
    #[test]
    fn a_staged_tail_past_the_journal_bound_is_shed_at_finish() {
        let cfg = RuntimeConfig { batch: 64, journal_limit: 4, ..Default::default() };
        let (mut sup, probe) = supervised(cfg, vec![]);
        for seq in 0..10 {
            sup.stage(seq, 1, &test_ev(seq));
        }
        let mut stats = RuntimeStats::default();
        sup.finish(Instant::from_nanos(1_000_000), &mut stats).unwrap();
        assert_eq!((probe.processed.get(), probe.shed.get()), (4, 6));
        assert_eq!(stats.gaps, [MonitoringGap { first_seq: 4, last_seq: 9, shed: 6 }]);
        assert_eq!(probe.queue_depth.snapshot().count, 1, "one admission");
    }

    #[test]
    fn tiny_journal_sheds_explicitly_and_accounts_everything() {
        let cfg = RuntimeConfig { checkpoint_every: 16, journal_limit: 3, ..Default::default() };
        let (_, stats, probe) = run_with(cfg, vec![], 40);
        let shed = probe.shed.get();
        assert!(shed > 0, "bursts beyond the journal bound are shed");
        assert_eq!(40, probe.processed.get() + shed, "no silent loss");
        assert!(!stats.gaps.is_empty());
        let gap_total: u64 = stats.gaps.iter().map(|g| g.shed).sum();
        assert_eq!(gap_total, shed, "every shed event is inside a gap");
    }

    #[test]
    fn unreachable_injection_points_are_skipped() {
        // A seq the shard never sees (shed, or filtered at the ingress)
        // must not wedge later injections.
        let (_, _, probe) = run_with(base_cfg(), vec![100_000], 20);
        assert_eq!(probe.restarts.get(), 0);
        assert_eq!(probe.processed.get(), 20);
    }

    #[test]
    fn a_recovered_replica_keeps_patching_its_checkpoint_image() {
        silence_injected_panics();
        // Every event opens a new flow, a checkpoint every 8: each slot is
        // written in exactly one window and copied by exactly one checkpoint.
        let copied_with = |inject: Vec<u64>| {
            let cfg = RuntimeConfig { checkpoint_every: 8, ..Default::default() };
            let (mut sup, probe) = supervised(cfg, inject);
            feed_each(&mut sup, 96, |seq| arrival(10 * (seq + 1), seq as u8), |_| {}).unwrap();
            assert_eq!(probe.checkpoints.get(), 12);
            assert_eq!(probe.checkpoint.snapshot().count, 12, "one timed sample per checkpoint");
            (probe.checkpoint_slots.get(), probe.restarts.get())
        };
        assert_eq!(copied_with(vec![]), (96, 0));
        // A crash mid-window rebuilds the monitor from its image, and the
        // two stay a pair: the next checkpoint copies that window's 8
        // slots, where an image that had lost its monitor would take all 56.
        assert_eq!(copied_with(vec![50]), (96, 1));
    }

    #[test]
    fn checkpoints_hold_live_state_only() {
        // Source addresses repeat every 5 events (each repeat raises), so
        // a checkpoint every 40 always lands on the same live state.
        let cfg = RuntimeConfig { checkpoint_every: 40, ..Default::default() };
        let (mut sup, probe) = supervised(cfg, vec![]);
        let (mut sizes, mut checkpoints) = (Vec::new(), 0);
        feed_each(&mut sup, 400, test_ev, |sup| {
            if probe.checkpoints.get() > checkpoints {
                checkpoints = probe.checkpoints.get();
                let snaps = &sup.checkpoint.snapshots;
                assert!(snaps.iter().all(|s| s.violations().is_empty()));
                sizes.push(snaps.iter().map(|s| s.to_bytes().len()).sum::<usize>());
            }
        })
        .unwrap();
        assert!(sizes.len() >= 5, "several checkpoints: {sizes:?}");
        let logged = sup.state.log.records.len();
        assert!(logged >= 100, "{logged} violations");
        assert!(
            sizes[sizes.len() - 1] <= sizes[1],
            "a checkpoint's size tracks live state, not run length: {sizes:?}"
        );
    }
}
