//! Shard supervision: panic isolation, checkpoint/replay recovery, and
//! bounded-journal load shedding.
//!
//! A shard is a `Supervisor` interpreting `Msg` commands through
//! `Supervisor::handle` — the only interpreter of the shard protocol.
//! A *remote* shard's worker thread runs `run_loop` (`recv` + `handle`);
//! a *local* shard is handed the same messages by the session on the
//! caller thread. One supervision implementation, one command path, two
//! transports. The supervisor owns the crash-domain
//! [`WorkerState`] and drives it only through `catch_unwind`, so a worker
//! panic — a genuine engine bug, or a fault injected via
//! [`RuntimeConfig::inject_faults`] — never takes the runtime down.
//! Recovery rebuilds the monitors from the last checkpoint
//! ([`swmon_core::Monitor::restore`]) and replays the in-memory journal of
//! events delivered since, so a recovered run's merged violation output is
//! byte-for-byte identical to a fault-free one.
//!
//! The journal is bounded ([`RuntimeConfig::journal_limit`]). When a
//! delivery burst exceeds it, the overflow is **shed explicitly**: counted
//! in a per-shard [`MonitoringGap`], never silently lost, and every
//! violation raised while the gap is open carries downgraded provenance
//! ([`swmon_core::Violation::degraded`]). See `docs/FAULTS.md` for the
//! full fault model.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};

use crate::batch::{Batch, EventBlock, ItemRef, Msg, QuiesceAck, ShardLayout, ShardPrepare};
use crate::config::RuntimeConfig;
use crate::ring;
use crate::sink::ViolationSink;
use crate::stats::MonitoringGap;
use crate::telemetry::ShardProbe;
use crate::worker::{WorkerReport, WorkerState};
use swmon_core::{Monitor, MonitorSnapshot, Property, SharedRecorder};
use swmon_sim::time::Instant;
use swmon_telemetry::{EngineProbe, SpanStage, SpanTracer};

/// Message prefix of panics raised by deterministic fault injection.
/// [`silence_injected_panics`] recognises it; anything else is a genuine
/// bug and still reaches the default panic hook.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault";

/// Install a process-wide panic hook that suppresses the stderr noise of
/// *injected* panics (recognised by [`INJECTED_PANIC_PREFIX`]) while
/// delegating every other panic to the previous hook. Idempotent; chaos
/// tests and the `e15` benchmark call this so dozens of intentional worker
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

/// Blueprint for building — and after a crash, *re*building — one shard's
/// monitor replicas.
#[derive(Debug)]
pub(crate) struct ShardSpec {
    /// This shard's index.
    pub(crate) shard: usize,
    /// What the shard hosts under the initial epoch.
    pub(crate) layout: ShardLayout,
    /// The runtime configuration in effect (already normalized).
    pub(crate) cfg: RuntimeConfig,
    /// Input sequence numbers at which to panic, ascending. Consumed
    /// supervisor-side *before* the panic is raised, so replay after
    /// recovery does not re-trigger the fault.
    pub(crate) inject: Vec<u64>,
    /// This shard's telemetry probe (shared with the hub).
    pub(crate) probe: Arc<ShardProbe>,
    /// The hub's per-property engine probes, indexed by the layout's
    /// probe indices. Attached to every replica when
    /// [`crate::TelemetryConfig::engine`] is on, and re-attached after
    /// recovery.
    pub(crate) engines: Vec<Arc<EngineProbe>>,
    /// The run's span tracer (disabled unless configured).
    pub(crate) tracer: Arc<SpanTracer>,
    /// Optional live violation sink: checkpoint-stable records are
    /// published to it exactly once (see [`crate::sink`]).
    pub(crate) sink: Option<Arc<dyn ViolationSink>>,
}

/// Terminal shard failure: the restart budget
/// ([`RuntimeConfig::max_restarts`]) is exhausted, or a checkpoint could
/// not be restored. Reported instead of an outcome; the runtime surfaces
/// it as [`crate::RuntimeError::ShardFailed`].
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

/// What a supervised shard hands back on success.
#[derive(Debug)]
pub(crate) struct ShardOutcome {
    /// The worker's report (records, engine counters, occupancy).
    pub(crate) report: WorkerReport,
    /// Items received from the router. The session keeps its own delivery
    /// count; this side of the ledger is read by the supervision tests
    /// (`delivered == processed + shed`).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) delivered: u64,
    /// Items applied to the monitors exactly once.
    pub(crate) processed: u64,
    /// Items explicitly shed because the journal bound was hit.
    pub(crate) shed: u64,
    /// Recoveries performed.
    pub(crate) restarts: u64,
    /// Checkpoints taken.
    pub(crate) checkpoints: u64,
    /// Journal items re-applied during recoveries.
    pub(crate) replayed: u64,
    /// Violations raised inside a monitoring gap (downgraded provenance).
    pub(crate) degraded_violations: u64,
    /// Wall-clock nanoseconds spent restoring checkpoints (replay time is
    /// indistinguishable from normal processing and excluded).
    pub(crate) recovery_nanos: u64,
    /// Shedding episodes, in input order.
    pub(crate) gaps: Vec<MonitoringGap>,
}

/// A consistent restart point: monitor snapshots plus how much of the
/// worker's output they already account for.
struct Checkpoint {
    snapshots: Vec<MonitorSnapshot>,
    records_len: usize,
    events: u64,
}

/// What the shard's driver does after [`Supervisor::handle`] returns.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Keep feeding messages.
    Continue,
    /// `Finish` was handled: timers are drained, collect the outcome
    /// ([`Supervisor::into_outcome`]).
    Finished,
    /// `Retire` was handled: the journal is drained, hand the supervisor
    /// back to the session.
    Retired,
}

/// How a remote shard's receive loop ended.
#[derive(Debug)]
pub(crate) enum LoopExit {
    /// Normal end of input: the shard's final outcome.
    Finished(ShardOutcome),
    /// Adaptive fan-in ([`Msg::Retire`]): the journal is drained and the
    /// supervisor returns intact for the session to keep driving locally.
    Retired(Box<Supervisor>),
}

/// A remote shard's worker thread: `recv` + [`Supervisor::handle`].
pub(crate) fn run_loop(
    rx: ring::Receiver<Msg>,
    mut sup: Supervisor,
) -> Result<LoopExit, ShardFailure> {
    while let Some(msg) = rx.recv() {
        match sup.handle(msg)? {
            Flow::Continue => {}
            Flow::Finished => break,
            Flow::Retired => return Ok(LoopExit::Retired(Box::new(sup))),
        }
    }
    // Reached by `Finish`, or by the session hanging up without one
    // (dropped mid-stream). Either way nothing is outstanding: every
    // admitted batch was driven to completion by the `handle` call that
    // admitted it.
    Ok(LoopExit::Finished(sup.into_outcome()))
}

/// One admitted dispatch round in the journal: the shared event slab plus
/// the accepted [`ItemRef`] selection over it. Admission *moves* the
/// batch's vectors in wholesale — no per-item pushes, no per-item `Arc`
/// traffic — and recovery replays the same refs against the same slab.
#[derive(Debug)]
struct JournalBatch {
    block: Arc<EventBlock>,
    items: Vec<ItemRef>,
}

/// High-water marks of what [`Supervisor`] has already pushed into the
/// hub's shared counters (see `Supervisor::probe_sync`).
#[derive(Debug, Default)]
struct ProbeCursor {
    processed: u64,
    replayed: u64,
    degraded: u64,
}

/// A deploy's staged next-epoch shard configuration: built during prepare
/// without touching live state, swapped in atomically at commit, dropped
/// at abort.
struct PendingEpoch {
    epoch: u64,
    layout: ShardLayout,
    monitors: Vec<(usize, Monitor)>,
}

/// One shard's supervision state, driven one [`Msg`] at a time through
/// [`Supervisor::handle`] — by its own worker thread ([`run_loop`]) while
/// the shard is remote, by the session on the caller thread while it is
/// local. Adaptive transitions move the same value between the two
/// without copying monitors or records.
pub(crate) struct Supervisor {
    shard: usize,
    props: Vec<(usize, Property)>,
    cfg: RuntimeConfig,
    state: WorkerState,
    checkpoint: Checkpoint,
    /// Staged next epoch between a deploy's prepare and commit/abort.
    pending: Option<PendingEpoch>,
    /// `probe_lut[local]` is the hub engine-probe index attached to the
    /// local replica ([`ShardLayout::probes`]); rewritten at deploy commit
    /// (the hub's probe catalog is fixed at session start, so properties
    /// added later have no probe).
    probe_lut: Vec<Option<usize>>,
    /// Remaining injected deploy-prepare failures (chaos testing): each
    /// one makes the next prepare panic inside its catch_unwind boundary.
    inject_deploy: usize,
    /// Batches delivered since the last checkpoint, in admission order.
    /// Flat item counters (`journal_len`/`journal_pos`/`high_water`) index
    /// into the concatenation of every batch's `items`.
    journal: Vec<JournalBatch>,
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
    delivered: u64,
    processed: u64,
    shed: u64,
    restarts: u64,
    checkpoints: u64,
    replayed: u64,
    /// How much of `processed`/`replayed`/`degraded_violations` has been
    /// mirrored into the hub probe counters. The authoritative ledger is
    /// the plain fields (advanced item-by-item inside the crash domain);
    /// the shared atomics are brought up to date in one `add` per drive,
    /// keeping the per-item hot path free of atomic traffic while staying
    /// exact across panics and replays.
    probe_sync: ProbeCursor,
    degraded_violations: u64,
    recovery_nanos: u64,
    probe: Arc<ShardProbe>,
    engines: Vec<Arc<EngineProbe>>,
    tracer: Arc<SpanTracer>,
    sink: Option<Arc<dyn ViolationSink>>,
    /// Records already handed to the sink. Publication happens only at
    /// checkpoints, and recovery truncates records back to the checkpoint,
    /// so everything below this mark is crash-stable — exactly-once holds.
    published: usize,
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor").field("shard", &self.shard).finish_non_exhaustive()
    }
}

impl Supervisor {
    pub(crate) fn new(spec: ShardSpec) -> Self {
        let ShardLayout { props, lut, probes } = spec.layout;
        let monitors = build_monitors(&spec.cfg, &spec.engines, &props, &probes, |_, _| None)
            .expect("fresh monitors restore nothing");
        let snapshots = monitors.iter().map(|(_, m)| m.snapshot()).collect();
        let state = WorkerState::new(monitors, lut);
        let inject_deploy =
            spec.cfg.inject_deploy_faults.iter().filter(|&&s| s == spec.shard).count();
        Supervisor {
            shard: spec.shard,
            props,
            cfg: spec.cfg,
            state,
            checkpoint: Checkpoint { snapshots, records_len: 0, events: 0 },
            pending: None,
            probe_lut: probes,
            inject_deploy,
            journal: Vec::new(),
            journal_len: 0,
            journal_pos: 0,
            high_water: 0,
            inject: spec.inject.into(),
            in_gap: false,
            open_gap: None,
            gaps: Vec::new(),
            delivered: 0,
            processed: 0,
            shed: 0,
            restarts: 0,
            checkpoints: 0,
            replayed: 0,
            probe_sync: ProbeCursor::default(),
            degraded_violations: 0,
            recovery_nanos: 0,
            probe: spec.probe,
            engines: spec.engines,
            tracer: spec.tracer,
            sink: spec.sink,
            published: 0,
        }
    }

    /// Append a batch to the journal. The batch's slab handle and item
    /// vector are adopted wholesale — admission does no per-item work
    /// beyond the journal-bound check (and span stamps when tracing) —
    /// and whatever exceeds the bound is split off and shed with full
    /// gap accounting.
    fn admit(&mut self, batch: Batch) {
        self.probe.queue_depth.record(self.journal_len as u64);
        let Batch { block, mut items, .. } = batch;
        self.delivered += items.len() as u64;
        self.probe.delivered.add(items.len() as u64);
        let room = self.cfg.journal_limit.saturating_sub(self.journal_len);
        let overflow = if items.len() > room { items.split_off(room) } else { Vec::new() };
        if !items.is_empty() {
            if self.tracer.enabled() {
                for r in &items {
                    self.tracer.record(r.seq, SpanStage::Admitted, Some(self.shard));
                }
            }
            self.journal_len += items.len();
            self.journal.push(JournalBatch { block, items });
        }
        if let (Some(first), Some(last)) = (overflow.first(), overflow.last()) {
            self.shed += overflow.len() as u64;
            self.probe.shed.add(overflow.len() as u64);
            self.in_gap = true;
            let gap = self.open_gap.get_or_insert(MonitoringGap {
                shard: self.shard,
                first_seq: first.seq,
                last_seq: first.seq,
                shed: 0,
            });
            gap.last_seq = last.seq;
            gap.shed += overflow.len() as u64;
        }
    }

    /// Interpret one shard command — the only `match` over [`Msg`] in the
    /// crate. Deploy messages run the quiesce/prepare/commit barrier
    /// in-line: the session sends nothing else between `Quiesce` and the
    /// closing `Commit`/`Abort`.
    pub(crate) fn handle(&mut self, msg: Msg) -> Result<Flow, ShardFailure> {
        match msg {
            Msg::Events(batch) => self.apply_batch(batch)?,
            Msg::Finish(end) => {
                self.drive(Some(end))?;
                return Ok(Flow::Finished);
            }
            Msg::Quiesce { reply } => {
                let ack = self.quiesce()?;
                // A closed reply channel means the session died mid-deploy;
                // the subsequent hangup ends the loop normally.
                let _ = reply.send(ack);
            }
            Msg::Prepare { prep, reply } => {
                let _ = reply.send(self.prepare(*prep));
            }
            Msg::Commit { epoch } => self.commit(epoch),
            Msg::Abort => self.abort(),
            Msg::Retire => {
                self.drive(None)?;
                return Ok(Flow::Retired);
            }
        }
        Ok(Flow::Continue)
    }

    /// Admit one sealed batch and drive it to completion under full
    /// supervision — journal, panic boundary with checkpoint/replay
    /// recovery, shedding accounting, checkpoint cadence.
    fn apply_batch(&mut self, batch: Batch) -> Result<(), ShardFailure> {
        let force = batch.checkpoint;
        self.admit(batch);
        self.drive(None)?;
        if force {
            // Bounded-staleness flush: make this batch's output
            // crash-stable (and sink-visible) immediately.
            self.force_checkpoint();
        } else {
            self.maybe_checkpoint();
        }
        Ok(())
    }

    /// Apply everything outstanding inside the panic boundary; recover and
    /// retry on unwind until success or the restart budget runs out.
    fn drive(&mut self, finish_at: Option<Instant>) -> Result<(), ShardFailure> {
        loop {
            match panic::catch_unwind(AssertUnwindSafe(|| self.apply_pending(finish_at))) {
                Ok(()) => {
                    self.sync_probe();
                    return Ok(());
                }
                Err(payload) => {
                    self.sync_probe();
                    self.recover(payload.as_ref())?;
                }
            }
        }
    }

    /// Mirror the crash-domain ledger into the hub's shared counters —
    /// one `add` per counter per drive instead of per item. The plain
    /// fields advance before each risky step, so the deltas are exact
    /// even when a panic cuts `apply_pending` short.
    fn sync_probe(&mut self) {
        let c = &mut self.probe_sync;
        if self.processed > c.processed {
            self.probe.processed.add(self.processed - c.processed);
            c.processed = self.processed;
        }
        if self.replayed > c.replayed {
            self.probe.replayed.add(self.replayed - c.replayed);
            c.replayed = self.replayed;
        }
        if self.degraded_violations > c.degraded {
            self.probe.degraded_violations.add(self.degraded_violations - c.degraded);
            c.degraded = self.degraded_violations;
        }
    }

    /// Crash-domain body: journal suffix, then (at end of input) the timer
    /// drain. Anything here may panic; all bookkeeping that must survive a
    /// panic is advanced *before* the risky step.
    fn apply_pending(&mut self, finish_at: Option<Instant>) {
        let tracing = self.tracer.enabled();
        let faults = !self.inject.is_empty();
        // Locate the flat cursor inside the batch list (replay resets it
        // to 0; the steady state resumes at the tail batch).
        let mut skip = self.journal_pos;
        let mut b = 0;
        while b < self.journal.len() && skip >= self.journal[b].items.len() {
            skip -= self.journal[b].items.len();
            b += 1;
        }
        while b < self.journal.len() {
            for i in skip..self.journal[b].items.len() {
                let ItemRef { seq, mask, idx } = self.journal[b].items[i];
                if faults {
                    while self.inject.front().is_some_and(|&s| s < seq) {
                        // Injection point routed elsewhere or shed: never
                        // reachable.
                        self.inject.pop_front();
                    }
                    if self.inject.front() == Some(&seq) {
                        // Consume the injection first so replay does not
                        // re-panic.
                        self.inject.pop_front();
                        panic!("{INJECTED_PANIC_PREFIX}: shard {} at seq {}", self.shard, seq);
                    }
                }
                let ev = &self.journal[b].block.events()[idx as usize];
                let degraded = self.state.apply(seq, mask, ev, self.in_gap);
                self.degraded_violations += degraded;
                let flat = self.journal_pos;
                self.journal_pos = flat + 1;
                if flat >= self.high_water {
                    self.high_water = flat + 1;
                    self.processed += 1;
                } else {
                    self.replayed += 1;
                }
                if tracing {
                    self.tracer.record(seq, SpanStage::Applied, Some(self.shard));
                }
            }
            skip = 0;
            b += 1;
        }
        if let Some(end) = finish_at {
            let degraded = self.state.finish(end, self.in_gap);
            self.degraded_violations += degraded;
        }
        self.probe.violations.set(self.state.records.len() as u64);
        self.probe
            .live_instances
            .set(self.state.monitors.iter().map(|(_, m)| m.live_instances() as u64).sum());
    }

    /// Rebuild the crash domain from the last checkpoint and rewind the
    /// journal cursor so `drive` replays the gap.
    fn recover(&mut self, payload: &(dyn Any + Send)) -> Result<(), ShardFailure> {
        let t0 = std::time::Instant::now();
        self.restarts += 1;
        let fail =
            |restarts: u64, message: String| ShardFailure { shard: self.shard, restarts, message };
        if self.restarts > self.cfg.max_restarts as u64 {
            return Err(fail(self.restarts - 1, panic_message(payload)));
        }
        let snapshots = &self.checkpoint.snapshots;
        self.state.monitors =
            build_monitors(&self.cfg, &self.engines, &self.props, &self.probe_lut, |local, _| {
                snapshots.get(local)
            })
            .map_err(|e| fail(self.restarts, e))?;
        self.state.records.truncate(self.checkpoint.records_len);
        self.state.events = self.checkpoint.events;
        self.journal_pos = 0;
        let nanos = t0.elapsed().as_nanos() as u64;
        self.recovery_nanos += nanos;
        self.probe.restarts.inc();
        self.probe.recovery_nanos.add(nanos);
        self.probe.recovery.record(nanos);
        Ok(())
    }

    /// Checkpoint when the journal is fully applied and either the cadence
    /// is due or the journal hit its bound (draining it re-opens headroom;
    /// this is what closes a monitoring gap).
    fn maybe_checkpoint(&mut self) {
        if self.journal_pos < self.journal_len {
            return;
        }
        let due = self.high_water >= self.cfg.checkpoint_every
            || self.journal_len >= self.cfg.journal_limit;
        if !due {
            return;
        }
        self.force_checkpoint();
    }

    /// Take a checkpoint now. Requires a fully applied journal (callers:
    /// `maybe_checkpoint` after its guard, the quiesce barrier after a
    /// full drain, and deploy commit).
    fn force_checkpoint(&mut self) {
        debug_assert_eq!(self.journal_pos, self.journal_len);
        self.checkpoint = Checkpoint {
            snapshots: self.state.monitors.iter().map(|(_, m)| m.snapshot()).collect(),
            records_len: self.state.records.len(),
            events: self.state.events,
        };
        self.journal.clear();
        self.journal_len = 0;
        self.journal_pos = 0;
        self.high_water = 0;
        self.checkpoints += 1;
        self.probe.checkpoints.inc();
        if let Some(gap) = self.open_gap.take() {
            self.gaps.push(gap);
        }
        self.in_gap = false;
        // The records below the new checkpoint mark are now crash-stable
        // (recovery can no longer truncate past them): safe to publish.
        self.publish_stable(self.checkpoint.records_len);
    }

    /// Deploy phase 1: drain everything outstanding (crashing and
    /// recovering here follows the normal supervision path — a deploy
    /// racing a crash window rides on journal replay), force a checkpoint
    /// so the shard's output is crash-stable, and snapshot every hosted
    /// monitor for the session to re-route.
    fn quiesce(&mut self) -> Result<QuiesceAck, ShardFailure> {
        let t0 = std::time::Instant::now();
        self.drive(None)?;
        self.force_checkpoint();
        let snapshots: Vec<(usize, MonitorSnapshot)> =
            self.state.monitors.iter().map(|(g, m)| (*g, m.snapshot())).collect();
        let nanos = t0.elapsed().as_nanos() as u64;
        self.probe.quiesce.record(nanos);
        Ok(QuiesceAck { snapshots, quiesce_nanos: nanos })
    }

    /// Deploy phase 2: build the next epoch's monitor set from the staged
    /// configuration *without touching live state*. Restores run inside
    /// the panic boundary; any failure (restore error, panic, injected
    /// deploy fault) leaves the shard exactly as the quiesce checkpoint
    /// left it — rollback is the absence of a commit.
    fn prepare(&mut self, prep: ShardPrepare) -> Result<(), String> {
        let inject = self.inject_deploy > 0;
        if inject {
            self.inject_deploy -= 1;
        }
        let shard = self.shard;
        let ShardPrepare { epoch, layout, adopt } = prep;
        let built = panic::catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("{INJECTED_PANIC_PREFIX}: deploy prepare on shard {shard}");
            }
            build_monitors(&self.cfg, &self.engines, &layout.props, &layout.probes, |_, g| {
                adopt.iter().find(|(ag, _)| *ag == g).map(|(_, snap)| snap)
            })
        }));
        match built {
            Ok(Ok(monitors)) => {
                self.pending = Some(PendingEpoch { epoch, layout, monitors });
                Ok(())
            }
            Ok(Err(e)) => Err(e),
            Err(payload) => Err(panic_message(payload.as_ref())),
        }
    }

    /// Deploy phase 3a: swap the staged epoch in and checkpoint under it,
    /// so any later recovery restores the *new* monitor set. Violations
    /// harvested from here on carry the new epoch.
    fn commit(&mut self, epoch: u64) {
        let Some(pending) = self.pending.take() else {
            debug_assert!(false, "commit without a staged prepare");
            return;
        };
        debug_assert_eq!(pending.epoch, epoch);
        self.props = pending.layout.props;
        self.probe_lut = pending.layout.probes;
        self.state.monitors = pending.monitors;
        self.state.lut = pending.layout.lut;
        self.state.epoch = epoch;
        self.force_checkpoint();
    }

    /// Deploy phase 3b: drop the staged epoch. Nothing was mutated during
    /// prepare, so the shard is byte-identical to one that never saw the
    /// deploy.
    fn abort(&mut self) {
        self.pending = None;
    }

    /// Hand records `[published, upto)` to the sink, exactly once.
    fn publish_stable(&mut self, upto: usize) {
        let Some(sink) = &self.sink else { return };
        if upto <= self.published {
            return;
        }
        let fresh = &self.state.records[self.published..upto];
        sink.publish(self.shard, fresh);
        self.probe.store_published.add(fresh.len() as u64);
        self.published = upto;
    }

    pub(crate) fn into_outcome(mut self) -> ShardOutcome {
        if let Some(gap) = self.open_gap.take() {
            self.gaps.push(gap);
        }
        // End of input: every remaining record is final, publish the tail.
        self.publish_stable(self.state.records.len());
        ShardOutcome {
            report: self.state.into_report(),
            delivered: self.delivered,
            processed: self.processed,
            shed: self.shed,
            restarts: self.restarts,
            checkpoints: self.checkpoints,
            replayed: self.replayed,
            degraded_violations: self.degraded_violations,
            recovery_nanos: self.recovery_nanos,
            gaps: self.gaps,
        }
    }
}

/// The one place a shard's monitors are built — for the initial epoch
/// ([`Supervisor::new`]), after a crash (`recover`) and for a staged epoch
/// (`prepare`): a fresh replica per hosted property, restored from
/// `snapshot_for(local, global)` when that yields one, then — with engine
/// telemetry on — attached to its hub probe (`probe_lut[local]`; `None`
/// for properties the fixed-at-start probe catalog does not cover).
fn build_monitors<'a>(
    cfg: &RuntimeConfig,
    engines: &[Arc<EngineProbe>],
    props: &[(usize, Property)],
    probe_lut: &[Option<usize>],
    snapshot_for: impl Fn(usize, usize) -> Option<&'a MonitorSnapshot>,
) -> Result<Vec<(usize, Monitor)>, String> {
    let mut monitors = Vec::with_capacity(props.len());
    for (local, (g, p)) in props.iter().enumerate() {
        let mut m = Monitor::new(p.clone(), cfg.monitor);
        if let Some(snap) = snapshot_for(local, *g) {
            m.restore(snap)
                .map_err(|e| format!("snapshot restore for property {g} failed: {e}"))?;
        }
        if cfg.telemetry.engine {
            if let Some(probe) =
                probe_lut.get(local).copied().flatten().and_then(|i| engines.get(i))
            {
                let rec: SharedRecorder = probe.clone();
                m.set_recorder(Some(rec));
            }
        }
        monitors.push((*g, m));
    }
    Ok(monitors)
}

pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "worker panicked with a non-string payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Arena;
    use std::sync::Arc;
    use swmon_core::{var, Atom, EventPattern, Guard, Property, Stage};
    use swmon_packet::{Field, Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
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

    fn spec(cfg: RuntimeConfig, inject: Vec<u64>) -> ShardSpec {
        let cfg = cfg.normalized();
        let hub = crate::telemetry::TelemetryHub::new(1, &["twice"], &cfg.telemetry, 0, 1);
        ShardSpec {
            shard: 0,
            layout: ShardLayout {
                props: vec![(0, repeat_prop())],
                lut: vec![Some(0)],
                probes: vec![Some(0)],
            },
            cfg,
            inject,
            probe: hub.shard(0).clone(),
            engines: hub.engines().to_vec(),
            tracer: hub.tracer().clone(),
            sink: None,
        }
    }

    fn test_ev(seq: u64) -> NetEvent {
        arrival(10 * (seq + 1), (seq % 5) as u8 + 1)
    }

    /// Zero-copy batches of up to 8 events each, all destined to shard 0.
    fn batches(n: u64) -> Vec<Batch> {
        let mut out = Vec::new();
        let mut arena = Arena::new(1, 8);
        for seq in 0..n {
            if arena.push(seq, &test_ev(seq), &[1]) {
                out.extend(arena.seal(false).into_iter().map(|(_, b)| b));
            }
        }
        out.extend(arena.seal(false).into_iter().map(|(_, b)| b));
        out
    }

    fn finish_outcome(exit: LoopExit) -> ShardOutcome {
        match exit {
            LoopExit::Finished(outcome) => outcome,
            LoopExit::Retired(_) => panic!("no retire was sent"),
        }
    }

    fn run_with(cfg: RuntimeConfig, inject: Vec<u64>, n: u64) -> ShardOutcome {
        silence_injected_panics();
        let (tx, rx) = ring::channel(64);
        for batch in batches(n) {
            tx.send(Msg::Events(batch)).map_err(|_| "ring closed").unwrap();
        }
        tx.send(Msg::Finish(Instant::from_nanos(1_000_000))).map_err(|_| "ring closed").unwrap();
        drop(tx);
        finish_outcome(run_loop(rx, Supervisor::new(spec(cfg, inject))).expect("shard survives"))
    }

    fn base_cfg() -> RuntimeConfig {
        RuntimeConfig { shards: 1, checkpoint_every: 16, ..Default::default() }
    }

    #[test]
    fn injected_panics_recover_to_identical_output() {
        let clean = run_with(base_cfg(), vec![], 40);
        let faulty = run_with(base_cfg(), vec![3, 21, 33], 40);
        assert_eq!(faulty.restarts, 3);
        assert!(faulty.replayed > 0, "recovery replayed the journal gap");
        assert_eq!(faulty.shed, 0);
        assert_eq!(faulty.processed, faulty.delivered);
        let sig = |o: &ShardOutcome| {
            o.report.records.iter().map(crate::merge::signature).collect::<Vec<_>>()
        };
        assert_eq!(sig(&clean), sig(&faulty));
        assert_eq!(clean.report.events, faulty.report.events);
    }

    #[test]
    fn restart_budget_escalates_to_failure() {
        silence_injected_panics();
        let (tx, rx) = ring::channel(64);
        for batch in batches(8) {
            tx.send(Msg::Events(batch)).map_err(|_| "ring closed").unwrap();
        }
        tx.send(Msg::Finish(Instant::from_nanos(1_000))).map_err(|_| "ring closed").unwrap();
        drop(tx);
        let cfg = RuntimeConfig { shards: 1, max_restarts: 0, ..Default::default() };
        let err = run_loop(rx, Supervisor::new(spec(cfg.normalized(), vec![2]))).unwrap_err();
        assert_eq!(err.shard, 0);
        assert_eq!(err.restarts, 0);
        assert!(err.message.starts_with(INJECTED_PANIC_PREFIX), "{}", err.message);
    }

    #[test]
    fn retire_hands_the_supervisor_back_intact() {
        let (tx, rx) = ring::channel(64);
        for batch in batches(16) {
            tx.send(Msg::Events(batch)).map_err(|_| "ring closed").unwrap();
        }
        tx.send(Msg::Retire).map_err(|_| "ring closed").unwrap();
        drop(tx);
        let exit = run_loop(rx, Supervisor::new(spec(base_cfg(), vec![]))).unwrap();
        let LoopExit::Retired(mut sup) = exit else { panic!("expected a retired supervisor") };
        // The journal is drained; the session continues locally on the
        // same supervisor without losing anything already applied.
        let mut arena = Arena::new(1, 8);
        for seq in 16..24 {
            let _ = arena.push(seq, &test_ev(seq), &[1]);
        }
        for (_, batch) in arena.seal(false) {
            assert_eq!(sup.handle(Msg::Events(batch)).unwrap(), Flow::Continue);
        }
        assert_eq!(
            sup.handle(Msg::Finish(Instant::from_nanos(1_000_000))).unwrap(),
            Flow::Finished
        );
        let out = sup.into_outcome();
        assert_eq!(out.delivered, 24);
        assert_eq!(out.processed, 24);
        assert_eq!(out.shed, 0);
        // Matches a fully fanned run of the same input byte for byte.
        let fanned = run_with(base_cfg(), vec![], 24);
        let sig = |o: &ShardOutcome| {
            o.report.records.iter().map(crate::merge::signature).collect::<Vec<_>>()
        };
        assert_eq!(sig(&out), sig(&fanned));
    }

    #[test]
    fn checkpoint_batches_force_an_immediate_checkpoint() {
        let (tx, rx) = ring::channel(8);
        // One tiny batch flagged `checkpoint` (a bounded-staleness flush):
        // far below the cadence, yet the shard must checkpoint right away.
        let mut arena = Arena::new(1, 64);
        let _ = arena.push(0, &test_ev(0), &[1]);
        for (_, batch) in arena.seal(true) {
            tx.send(Msg::Events(batch)).map_err(|_| "ring closed").unwrap();
        }
        tx.send(Msg::Finish(Instant::from_nanos(1_000_000))).map_err(|_| "ring closed").unwrap();
        drop(tx);
        let cfg = RuntimeConfig { shards: 1, checkpoint_every: 1 << 20, ..Default::default() };
        let out = finish_outcome(
            run_loop(rx, Supervisor::new(spec(cfg, vec![]))).expect("shard survives"),
        );
        assert_eq!(out.checkpoints, 1, "staleness flush checkpointed below the cadence");
        assert_eq!(out.processed, 1);
    }

    #[test]
    fn tiny_journal_sheds_explicitly_and_accounts_everything() {
        let cfg = RuntimeConfig {
            shards: 1,
            checkpoint_every: 16,
            journal_limit: 3,
            ..Default::default()
        };
        let out = run_with(cfg, vec![], 40);
        assert!(out.shed > 0, "bursts beyond the journal bound are shed");
        assert_eq!(out.delivered, out.processed + out.shed, "no silent loss");
        assert!(!out.gaps.is_empty());
        let gap_total: u64 = out.gaps.iter().map(|g| g.shed).sum();
        assert_eq!(gap_total, out.shed, "every shed event is inside a gap");
    }

    #[test]
    fn unreachable_injection_points_are_skipped() {
        // Seq 7 never reaches the shard's journal front cleanly if shed or
        // routed elsewhere; stale fronts must not wedge later injections.
        let out = run_with(base_cfg(), vec![100_000], 20);
        assert_eq!(out.restarts, 0);
        assert_eq!(out.processed, 20);
    }
}
