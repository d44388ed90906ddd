//! Shard supervision: panic isolation, checkpoint/replay recovery, and
//! bounded-journal load shedding.
//!
//! The session's one shard is a `Supervisor`, called on the caller thread:
//! `apply_batch` per dispatch, the deploy barrier's `quiesce` and
//! `deploy`, and `finish` at the end of input. The supervisor
//! owns the crash-domain [`WorkerState`] and drives it only through
//! `catch_unwind`, so a panic inside it — a genuine engine bug, or a fault
//! injected via [`RuntimeConfig::inject_faults`] — never takes the runtime
//! down. After [`MAX_RESTARTS`] recoveries the next panic escalates a
//! [`ShardFailure`], which the session keeps as its answer to every later
//! call.
//! Recovery rebuilds the monitors from the last checkpoint
//! ([`swmon_core::Monitor::restore`]) and replays the in-memory journal of
//! events delivered since, so a recovered run's merged violation output is
//! byte-for-byte identical to a fault-free one.
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

use crate::batch::{Batch, Item, QuiesceAck, ShardLayout, ShardPrepare};
use crate::config::RuntimeConfig;
use crate::merge::ViolationRecord;
use crate::sink::ViolationSink;
use crate::stats::MonitoringGap;
use crate::telemetry::ShardProbe;
use crate::worker::{WorkerState, FLUSH_SEQ};
use swmon_core::{Monitor, MonitorSet, MonitorSnapshot, MonitorStats, Property};
use swmon_sim::time::Instant;

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

/// Blueprint for building — and after a crash, *re*building — the shard's
/// monitors.
#[derive(Debug)]
pub(crate) struct ShardSpec {
    /// What the shard hosts under the initial epoch.
    pub(crate) layout: ShardLayout,
    /// The runtime configuration in effect (already normalized).
    pub(crate) cfg: RuntimeConfig,
    /// Input sequence numbers at which to panic, ascending. Consumed
    /// supervisor-side *before* the panic is raised, so replay after
    /// recovery does not re-trigger the fault.
    pub(crate) inject: Vec<u64>,
    /// The shard's telemetry probe (shared with the hub).
    pub(crate) probe: Arc<ShardProbe>,
    /// Optional live violation sink: every log position is published to
    /// it exactly once, as its batch completes (see [`crate::sink`]).
    pub(crate) sink: Option<Arc<dyn ViolationSink>>,
}

/// Terminal shard failure: the restart budget ([`MAX_RESTARTS`]) is
/// exhausted, or a checkpoint could not be restored. Reported instead of
/// an outcome; the runtime surfaces it as
/// [`crate::RuntimeError::ShardFailed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// The failing shard.
    pub shard: usize,
    /// Recoveries attempted before giving up.
    pub restarts: u64,
    /// The final panic message (or restore error).
    pub message: String,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} failed after {} restart(s): {}",
            self.shard, self.restarts, self.message
        )
    }
}

/// What a supervised shard hands back on success: the things its
/// [`ShardProbe`] cannot carry. Every count lives in the probe.
#[derive(Debug)]
pub(crate) struct ShardOutcome {
    /// The shard's violation log, in discovery order.
    pub(crate) records: Vec<ViolationRecord>,
    /// Each hosted monitor's final engine counters.
    pub(crate) engine: Vec<MonitorStats>,
    /// Shedding episodes, in input order.
    pub(crate) gaps: Vec<MonitoringGap>,
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

/// The shard's supervision state, called directly by the session. Between
/// a deploy's `quiesce` and its `deploy`, the session calls nothing else
/// on it.
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
    /// Batches delivered since the last checkpoint, in admission order:
    /// admission *moves* each batch in, and recovery replays the same
    /// items. Flat item counters (`journal_len`/`journal_pos`/`high_water`)
    /// index into the concatenation of every batch.
    journal: Vec<Batch>,
    /// Total items across the journal's batches.
    journal_len: usize,
    /// How many journal items the current incarnation has applied.
    journal_pos: usize,
    /// Highest journal position any incarnation reached this window —
    /// applications below it are replays, at or above it first-times.
    high_water: usize,
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
    pub(crate) fn new(spec: ShardSpec) -> Self {
        let set = build_set(&spec.cfg, &spec.layout.props, |_| None)
            .expect("fresh monitors restore nothing");
        let told = vec![Told::default(); set.len()];
        let state = WorkerState::new(spec.layout, set);
        let inject_deploy = spec.cfg.inject_deploy_faults;
        Supervisor {
            cfg: spec.cfg,
            state,
            // No images before the first checkpoint: a crash that early
            // rebuilds the monitors fresh, which is what they were.
            checkpoint: Checkpoint { snapshots: Vec::new(), records_len: 0 },
            told,
            inject_deploy,
            journal: Vec::new(),
            journal_len: 0,
            journal_pos: 0,
            high_water: 0,
            inject: spec.inject.into(),
            in_gap: false,
            open_gap: None,
            gaps: Vec::new(),
            restarts_left: MAX_RESTARTS,
            probe: spec.probe,
            sink: spec.sink,
            published: 0,
        }
    }

    /// Append a batch to the journal. The batch is adopted wholesale —
    /// admission does no per-item work beyond the journal-bound check — and
    /// whatever exceeds the bound is split off and shed with full gap
    /// accounting.
    fn admit(&mut self, mut items: Batch) {
        self.probe.queue_depth.record(self.journal_len as u64);
        let room = self.cfg.journal_limit.saturating_sub(self.journal_len);
        let overflow = if items.len() > room { items.split_off(room) } else { Vec::new() };
        if !items.is_empty() {
            self.journal_len += items.len();
            self.journal.push(items);
        }
        if let (Some(first), Some(last)) = (overflow.first(), overflow.last()) {
            self.probe.shed.add(overflow.len() as u64);
            self.in_gap = true;
            let gap = self.open_gap.get_or_insert(MonitoringGap {
                shard: 0,
                first_seq: first.seq,
                last_seq: first.seq,
                shed: 0,
            });
            gap.last_seq = last.seq;
            gap.shed += overflow.len() as u64;
        }
    }

    /// Admit one sealed batch and drive it to completion under full
    /// supervision — journal, panic boundary with checkpoint/replay
    /// recovery, shedding accounting — and publish what it raised before
    /// the checkpoint cadence can stall its visibility.
    pub(crate) fn apply_batch(&mut self, batch: Batch) -> Result<(), ShardFailure> {
        self.admit(batch);
        self.drive(None)?;
        self.publish();
        self.maybe_checkpoint();
        Ok(())
    }

    /// Apply everything outstanding inside the panic boundary; recover and
    /// retry on unwind until success or the restart budget runs out.
    ///
    /// Each attempt is counted from what it moved, whether it completed or
    /// unwound — no per-item counter: the journal cursors advance as each
    /// item's application completes, so `Δhigh_water` items were applied
    /// for the first time and the rest of `Δjournal_pos` were replays;
    /// `in_gap` is fixed for the whole attempt, so inside a gap everything
    /// it added to the log is degraded.
    fn drive(&mut self, finish_at: Option<Instant>) -> Result<(), ShardFailure> {
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
        let (mut b, mut skip) = self.resume_at();
        while b < self.journal.len() {
            for i in skip..self.journal[b].len() {
                let Item { seq, mask, ref ev } = self.journal[b][i];
                if faults {
                    while self.inject.front().is_some_and(|&s| s < seq) {
                        // Injection point filtered out or shed: never
                        // reachable.
                        self.inject.pop_front();
                    }
                    if self.inject.front() == Some(&seq) {
                        // Consume the injection first so replay does not
                        // re-panic.
                        self.inject.pop_front();
                        panic!("{INJECTED_PANIC_PREFIX}: shard 0 at seq {seq}");
                    }
                }
                self.state.apply(seq, mask, ev, self.in_gap);
                self.journal_pos += 1;
                self.high_water = self.high_water.max(self.journal_pos);
            }
            skip = 0;
            b += 1;
        }
        if let Some(end) = finish_at {
            self.state.finish(end, self.in_gap);
        }
    }

    /// `journal_pos` as `(batch, offset)`, walked back from the tail: the
    /// steady state resumes in the batch just admitted; only replay walks far.
    fn resume_at(&self) -> (usize, usize) {
        let (mut b, mut start) = (self.journal.len(), self.journal_len);
        while start > self.journal_pos {
            b -= 1;
            start -= self.journal[b].len();
        }
        (b, self.journal_pos - start)
    }

    /// Rebuild the crash domain from the last checkpoint and rewind the
    /// journal cursor so `drive` replays the gap. What was published
    /// stands: the log keeps it, and replay's copies of it are dropped.
    fn recover(&mut self, payload: &(dyn Any + Send)) -> Result<(), ShardFailure> {
        let t0 = std::time::Instant::now();
        let fail = |restarts: u64, message: String| ShardFailure { shard: 0, restarts, message };
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
            || self.journal_len >= self.cfg.journal_limit;
        if due && self.journal_pos == self.journal_len {
            self.force_checkpoint();
        }
    }

    /// Take a checkpoint now. Requires a fully applied journal (callers:
    /// `maybe_checkpoint` after its guard, the quiesce barrier after a
    /// full drain, and deploy commit).
    ///
    /// The images are brought up to date in place
    /// ([`Monitor::snapshot_into`]): a monitor whose image is the one it
    /// last synced into, or was restored from on recovery, copies the
    /// slots it wrote since; any other pairing — the first checkpoint, a
    /// deploy's new monitor set — is a full copy, decided by the monitor.
    fn force_checkpoint(&mut self) {
        debug_assert_eq!(self.journal_pos, self.journal_len);
        let t0 = std::time::Instant::now();
        let images = &mut self.checkpoint.snapshots;
        images.resize_with(self.state.set.len(), MonitorSnapshot::default);
        let monitors = self.state.set.monitors_mut().iter_mut().zip(images);
        let copied: usize = monitors.map(|(m, image)| m.snapshot_into(image)).sum();
        self.checkpoint.records_len = self.state.log.records.len();
        self.probe.checkpoint_slots.add(copied as u64);
        self.probe.checkpoint.record(t0.elapsed().as_nanos() as u64);
        self.journal.clear();
        self.journal_len = 0;
        self.journal_pos = 0;
        self.high_water = 0;
        self.probe.checkpoints.inc();
        if let Some(gap) = self.open_gap.take() {
            self.gaps.push(gap);
        }
        self.in_gap = false;
    }

    /// Deploy phase 1: drain everything outstanding (crashing and
    /// recovering here follows the normal supervision path — a deploy
    /// racing a crash window rides on journal replay), force a checkpoint,
    /// and hand the session a copy of its images to carry across.
    pub(crate) fn quiesce(&mut self) -> Result<QuiesceAck, ShardFailure> {
        let t0 = std::time::Instant::now();
        self.drive(None)?;
        self.force_checkpoint();
        let snapshots = self.checkpoint.snapshots.clone();
        let nanos = t0.elapsed().as_nanos() as u64;
        self.probe.quiesce.record(nanos);
        Ok(QuiesceAck { snapshots, quiesce_nanos: nanos })
    }

    /// Deploy phases 2 and 3: build the next epoch's monitor set *without
    /// touching live state* (prepare), then swap it in and checkpoint under
    /// it (commit), so any later recovery restores the *new* set.
    ///
    /// Restores run inside the panic boundary; any failure (restore error,
    /// panic, injected deploy fault) returns before the commit and leaves
    /// the shard exactly as the quiesce checkpoint left it — rollback is
    /// the absence of a commit. On commit, violations logged from here on
    /// carry the new epoch; the outgoing monitors' shares of their
    /// properties' gauges are retracted (a retired one no longer lives
    /// anywhere), the incoming set's added.
    pub(crate) fn deploy(&mut self, prep: ShardPrepare) -> Result<(), String> {
        let inject = self.inject_deploy > 0;
        if inject {
            self.inject_deploy -= 1;
        }
        let ShardPrepare { epoch, layout, adopt } = prep;
        let built = panic::catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("{INJECTED_PANIC_PREFIX}: deploy prepare on shard 0");
            }
            build_set(&self.cfg, &layout.props, |i| adopt.get(i).and_then(Option::as_ref))
        }));
        let set = match built {
            Ok(Ok(set)) => set,
            Ok(Err(e)) => return Err(e),
            Err(payload) => return Err(panic_message(payload.as_ref())),
        };
        for (probe, told) in self.state.layout.probes.iter().zip(&self.told) {
            probe.live.add(-(told.live as i64));
        }
        let told = |m: &Monitor| Told { events: m.stats.events, live: 0 };
        self.told = set.monitors().iter().map(told).collect();
        self.state.layout = layout;
        self.state.set = set;
        self.state.log.epoch = epoch;
        self.read_engines(true);
        self.force_checkpoint();
        Ok(())
    }

    /// Hand the log positions past the published mark to the sink, and
    /// count each event-triggered record's lag: input ticks up to the last
    /// event admitted, the end of the batch whose publish carries it.
    fn publish(&mut self) {
        let Some(sink) = &self.sink else { return };
        let fresh = &self.state.log.records[self.published..];
        if fresh.is_empty() {
            return;
        }
        let upto = self.journal.last().and_then(|b| b.last()).map_or(0, |r| r.seq);
        for r in fresh.iter().filter(|r| r.seq != FLUSH_SEQ) {
            self.probe.publish_lag.record(upto.saturating_sub(r.seq));
        }
        sink.publish(0, fresh);
        self.probe.store_published.add(fresh.len() as u64);
        self.published = self.state.log.records.len();
    }

    /// End of input: apply the arena's tail, advance
    /// every monitor to `end` (firing pending deadlines), and hand back
    /// what the probe cannot carry. The tail is applied here rather than as
    /// a batch of its own, so it and the timer drain are one publish.
    pub(crate) fn finish(
        mut self,
        tail: Option<Batch>,
        end: Instant,
    ) -> Result<ShardOutcome, ShardFailure> {
        tail.into_iter().for_each(|batch| self.admit(batch));
        self.drive(Some(end))?;
        if let Some(gap) = self.open_gap.take() {
            self.gaps.push(gap);
        }
        self.publish();
        let engine = self.state.set.monitors().iter().map(|m| m.stats.clone()).collect();
        Ok(ShardOutcome { records: self.state.log.records, engine, gaps: self.gaps })
    }
}

/// The one place a shard's monitors are built — for the initial epoch
/// ([`Supervisor::new`]), after a crash (`recover`) and for a staged epoch
/// (`prepare`): a fresh monitor for every property, property `i` restored
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
    use crate::batch::Arena;
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

    /// A one-shard spec. Its probe (`spec.probe`) is the only place the
    /// supervisor counts, so the tests read their numbers there.
    fn spec(cfg: RuntimeConfig, inject: Vec<u64>) -> ShardSpec {
        spec_of(vec![repeat_prop()], cfg, inject)
    }

    fn spec_of(props: Vec<Property>, cfg: RuntimeConfig, inject: Vec<u64>) -> ShardSpec {
        let cfg = cfg.normalized();
        let hub = crate::telemetry::TelemetryHub::new(&cfg.telemetry);
        ShardSpec {
            layout: ShardLayout {
                probes: props.iter().map(|p| hub.engine(&p.name)).collect(),
                props: props.into(),
            },
            cfg,
            inject,
            probe: hub.shard().clone(),
            sink: None,
        }
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

    /// A supervisor over `spec` publishing into a fresh [`Recording`].
    fn recorded(mut spec: ShardSpec) -> (Supervisor, Arc<ShardProbe>, Arc<Recording>) {
        let sink = Arc::new(Recording::default());
        spec.sink = Some(sink.clone());
        let probe = spec.probe.clone();
        (Supervisor::new(spec), probe, sink)
    }

    /// A fresh supervisor over [`spec`], with its probe.
    fn supervised(cfg: RuntimeConfig, inject: Vec<u64>) -> (Supervisor, Arc<ShardProbe>) {
        let spec = spec(cfg, inject);
        let probe = spec.probe.clone();
        (Supervisor::new(spec), probe)
    }

    fn test_ev(seq: u64) -> NetEvent {
        arrival(10 * (seq + 1), (seq % 5) as u8 + 1)
    }

    /// Batches of up to 8 events each.
    fn batches(n: u64) -> Vec<Batch> {
        batches_of(n, test_ev)
    }

    fn batches_of(n: u64, ev: impl Fn(u64) -> NetEvent) -> Vec<Batch> {
        let mut out = Vec::new();
        let mut arena = Arena::new(8);
        for seq in 0..n {
            if arena.push(seq, &ev(seq), 1) {
                out.extend(arena.seal());
            }
        }
        out.extend(arena.seal());
        out
    }

    fn run_with(cfg: RuntimeConfig, inject: Vec<u64>, n: u64) -> (ShardOutcome, Arc<ShardProbe>) {
        silence_injected_panics();
        let (mut sup, probe) = supervised(cfg, inject);
        for batch in batches(n) {
            sup.apply_batch(batch).expect("shard survives");
        }
        (sup.finish(None, Instant::from_nanos(1_000_000)).expect("shard survives"), probe)
    }

    fn base_cfg() -> RuntimeConfig {
        RuntimeConfig { checkpoint_every: 16, ..Default::default() }
    }

    #[test]
    fn injected_panics_recover_to_identical_output() {
        let (clean, clean_probe) = run_with(base_cfg(), vec![], 40);
        let (faulty, probe) = run_with(base_cfg(), vec![3, 21, 33], 40);
        assert_eq!(probe.restarts.get(), 3);
        assert!(probe.replayed.get() > 0, "recovery replayed the journal gap");
        assert_eq!(probe.shed.get(), 0);
        assert_eq!(probe.processed.get(), 40, "each item counts once, replays apart");
        let sig =
            |o: &ShardOutcome| o.records.iter().map(crate::merge::signature).collect::<Vec<_>>();
        assert_eq!(sig(&clean), sig(&faulty));
        assert_eq!(clean_probe.processed.get(), probe.processed.get());
    }

    /// Batches of 3 for 90 events against a cadence no window reaches, so
    /// all 30 stay journalled; seq 47 (batch 15, third item) crashes. The
    /// recovery replays 0..47 once; every drive around it resumes on the
    /// next unapplied item, without walking the batches before it.
    #[test]
    fn a_crash_inside_batch_k_of_many_resumes_on_the_next_unapplied_item() {
        silence_injected_panics();
        let run = |inject: Vec<u64>| {
            let crash_at = inject.first().copied();
            let cfg = RuntimeConfig { checkpoint_every: 1 << 20, ..Default::default() };
            let (mut sup, probe, sink) = recorded(spec(cfg, inject));
            let mut arena = Arena::new(3);
            for seq in 0..90 {
                if arena.push(seq, &test_ev(seq), 1) {
                    let batch = arena.seal().unwrap();
                    let replayed = probe.replayed.get();
                    sup.apply_batch(batch).unwrap();
                    assert_eq!(sup.journal_pos, sup.journal_len, "batch ending at {seq} applied");
                    assert_eq!(sup.resume_at(), (sup.journal.len(), 0));
                    // The crashing batch ends on the crash: everything
                    // before it since the checkpoint (none) is replayed.
                    let replay = if crash_at == Some(seq) { seq } else { 0 };
                    assert_eq!(probe.replayed.get() - replayed, replay, "batch ending at {seq}");
                }
            }
            assert_eq!((sup.journal.len(), probe.checkpoints.get()), (30, 0));
            (sink.publishes(), probe)
        };
        let (clean, _) = run(vec![]);
        let (faulty, probe) = run(vec![47]);
        assert_eq!(probe.restarts.get(), 1);
        assert_eq!(probe.processed.get(), 90, "each item applied once, replays apart");
        let sig = |p: &[Vec<ViolationRecord>]| {
            p.iter().flatten().map(crate::merge::signature).collect::<Vec<_>>()
        };
        assert!(clean.len() > 20, "most batches raise: {}", clean.len());
        assert_eq!(sig(&faulty), sig(&clean));
    }

    /// `resume_at` walks back from the tail to the same `(batch, offset)`
    /// a walk forward from batch 0 finds, for every cursor position.
    #[test]
    fn the_cursor_is_found_from_the_tail() {
        let (mut sup, _) = supervised(RuntimeConfig::default(), vec![]);
        let mut seq = 0;
        for size in [1, 3, 1, 8, 2, 5] {
            let mut arena = Arena::new(size);
            for _ in 0..size {
                let _ = arena.push(seq, &test_ev(seq), 1);
                seq += 1;
            }
            sup.admit(arena.seal().unwrap());
        }
        assert_eq!(sup.journal_len, 20);
        let mut forward = Vec::new();
        for (b, batch) in sup.journal.iter().enumerate() {
            forward.extend((0..batch.len()).map(|i| (b, i)));
        }
        forward.push((sup.journal.len(), 0));
        for (pos, want) in forward.into_iter().enumerate() {
            sup.journal_pos = pos;
            assert_eq!(sup.resume_at(), want, "cursor {pos}");
        }
    }

    #[test]
    fn restart_budget_escalates_to_failure() {
        silence_injected_panics();
        // One fault more than the budget: seqs 1..=9.
        let inject = (1..=MAX_RESTARTS + 1).collect();
        let (mut sup, probe) = supervised(RuntimeConfig::default(), inject);
        let err = batches(16)
            .into_iter()
            .find_map(|batch| sup.apply_batch(batch).err())
            .expect("the fault past the budget escalates");
        assert_eq!(err.shard, 0);
        assert_eq!(err.restarts, MAX_RESTARTS);
        assert_eq!(probe.restarts.get(), MAX_RESTARTS, "every recovery in the budget ran");
        assert!(err.message.starts_with(INJECTED_PANIC_PREFIX), "{}", err.message);
        assert!(err.message.ends_with("at seq 9"), "{}", err.message);
    }

    #[test]
    fn a_staleness_flush_publishes_without_checkpointing() {
        // A partial block, as a `flush_every` flush dispatches it: seqs 0
        // and 5 share a source, so the second arrival raises.
        let mut arena = Arena::new(64);
        for seq in [0, 5] {
            let _ = arena.push(seq, &test_ev(seq), 1);
        }
        let cfg = RuntimeConfig { checkpoint_every: 1 << 20, ..Default::default() };
        let (mut sup, probe, sink) = recorded(spec(cfg, vec![]));
        sup.apply_batch(arena.seal().unwrap()).unwrap();
        let published = sink.publishes();
        assert_eq!(published.len(), 1, "the flushed batch's violation is visible at once");
        assert_eq!(published[0].iter().map(|r| r.seq).collect::<Vec<_>>(), [5]);
        assert_eq!(probe.checkpoints.get(), 0, "a flush is a dispatch, not a checkpoint");
        assert_eq!(probe.store_published.get(), 1);
        let lag = probe.publish_lag.snapshot();
        assert_eq!((lag.count, lag.max), (1, 0), "raised by the batch's last event");
    }

    #[test]
    fn recovery_never_lowers_the_published_mark() {
        silence_injected_panics();
        let sig = |published: Vec<Vec<ViolationRecord>>| -> Vec<String> {
            published.iter().flatten().map(crate::merge::signature).collect()
        };
        let run = |inject: Vec<u64>| {
            let (mut sup, probe, sink) = recorded(spec(base_cfg(), inject));
            let mut mark = 0;
            for batch in batches(40) {
                sup.apply_batch(batch).unwrap();
                assert!(sup.published >= mark, "the mark fell from {mark} to {}", sup.published);
                assert_eq!(
                    sup.published,
                    sup.state.log.records.len(),
                    "a batch publishes all it raised"
                );
                mark = sup.published;
            }
            let out = sup.finish(None, Instant::from_nanos(1_000_000)).expect("finish succeeds");
            let log: Vec<String> = out.records.iter().map(crate::merge::signature).collect();
            (sig(sink.publishes()), log, probe)
        };
        let (clean, clean_log, _) = run(vec![]);
        assert!(clean.len() >= 30, "most arrivals repeat a source: {}", clean.len());
        assert_eq!(clean, clean_log, "the published stream is the log");
        // Checkpoints fall after seqs 15 and 31. Seq 13 crashes the second
        // batch of a window whose first batch is already published, seq 35
        // the first batch after a checkpoint: replay re-raises what the
        // sink has seen, and none of it is delivered twice or moved.
        let (faulty, faulty_log, probe) = run(vec![13, 35]);
        assert_eq!(probe.restarts.get(), 2);
        assert!(probe.replayed.get() >= 8, "the published batch was replayed");
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
        let (sup, _, sink) = recorded(spec_of(vec![repeat_prop(), due], cfg, vec![]));
        let mut arena = Arena::new(64);
        for seq in 0..12 {
            let _ = arena.push(seq, &test_ev(seq), 0b11);
        }
        let out =
            sup.finish(arena.seal(), Instant::from_nanos(1_000_000)).expect("finish succeeds");
        let log = out.records;
        let published = sink.publishes();
        assert_eq!(published.len(), 1, "the tail batch and the timer drain are one publish");
        assert_eq!(published[0].len(), log.len());
        let drained = published[0].iter().filter(|r| r.seq == FLUSH_SEQ).count();
        assert!(drained > 0 && drained < log.len(), "both raised: {drained} of {}", log.len());
    }

    #[test]
    fn tiny_journal_sheds_explicitly_and_accounts_everything() {
        let cfg = RuntimeConfig { checkpoint_every: 16, journal_limit: 3, ..Default::default() };
        let (out, probe) = run_with(cfg, vec![], 40);
        let shed = probe.shed.get();
        assert!(shed > 0, "bursts beyond the journal bound are shed");
        assert_eq!(40, probe.processed.get() + shed, "no silent loss");
        assert!(!out.gaps.is_empty());
        let gap_total: u64 = out.gaps.iter().map(|g| g.shed).sum();
        assert_eq!(gap_total, shed, "every shed event is inside a gap");
    }

    #[test]
    fn unreachable_injection_points_are_skipped() {
        // A seq the shard never sees (shed, or filtered at the ingress)
        // must not wedge later injections.
        let (_, probe) = run_with(base_cfg(), vec![100_000], 20);
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
            for batch in batches_of(96, |seq| arrival(10 * (seq + 1), seq as u8)) {
                sup.apply_batch(batch).unwrap();
            }
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
        let mut sizes = Vec::new();
        for batch in batches(400) {
            let before = probe.checkpoints.get();
            sup.apply_batch(batch).unwrap();
            if probe.checkpoints.get() > before {
                let snaps = &sup.checkpoint.snapshots;
                assert!(snaps.iter().all(|s| s.violations().is_empty()));
                sizes.push(snaps.iter().map(|s| s.to_bytes().len()).sum::<usize>());
            }
        }
        assert!(sizes.len() >= 5, "several checkpoints: {sizes:?}");
        let logged = sup.state.log.records.len();
        assert!(logged >= 100, "{logged} violations");
        assert!(
            sizes[sizes.len() - 1] <= sizes[1],
            "a checkpoint's size tracks live state, not run length: {sizes:?}"
        );
    }
}
