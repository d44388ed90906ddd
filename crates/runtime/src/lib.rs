#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # swmon-runtime — supervised monitor runtime on the caller thread
//!
//! Runs the reference engine ([`swmon_core::Monitor`]) for a catalog of
//! properties as one supervised partition (the *shard*), driven on the
//! thread that feeds the session.
//!
//! ## Ingress
//!
//! Filtering happens **before** staging ([`Router`]): the catalog's
//! [`swmon_core::SpawnIndex::reachable`] answer, with a property's bit
//! cleared when the event lacks one of its instance-key fields
//! ([`swmon_core::RoutingPlan::key_fields`]), so an event that provably
//! cannot affect any monitor never reaches the shard. The shard holds one
//! monitor per property, at its catalog position, in a
//! [`swmon_core::MonitorSet`] whose one visit loop decides which monitors
//! an event wakes. Each deliverable event is staged once, beside its
//! `(seq, mask)`, at the tail of the shard's journal. Events are **never
//! dropped** past the filter, because a dropped event would forge a
//! negative observation (deadline properties fire on the *absence* of
//! traffic).
//!
//! ## One thread
//!
//! The session calls the shard's supervisor directly: a dispatch applies
//! what is staged before the `feed` that made it due returns, and a
//! deploy and `finish` are one call each (`docs/RUNTIME.md`, "One
//! thread", has the measurements behind this). The supervisor and the
//! runtime stay `Send` (asserted below). Violations are merged
//! deterministically ([`merge`]), so the output is byte-for-byte equal to
//! the single-threaded reference.
//!
//! ## Fault tolerance
//!
//! The shard is *supervised* ([`supervisor`]): panics are caught at a
//! panic boundary, the shard's monitors are restored from their last
//! checkpoint ([`swmon_core::Monitor::snapshot`]), and the delivery gap is
//! replayed from a bounded in-memory journal — so a run that survives
//! crashes produces output byte-for-byte identical to a fault-free one.
//! When the journal bound is exceeded, load is shed **explicitly** and
//! accounted in [`MonitoringGap`]s; nothing is ever lost silently
//! ([`RuntimeStats::unaccounted_loss`] is the audited invariant). A shard
//! that exhausts its restart budget fails the session for good: every
//! later call returns the same [`RuntimeError::ShardFailed`]. See
//! `docs/FAULTS.md` for the full fault model and recovery protocol.

pub mod config;
pub mod merge;
pub mod router;
pub mod sink;
pub mod stats;
pub mod supervisor;
pub mod telemetry;
mod worker;

pub use config::{AdaptiveConfig, FaultPoint, RuntimeConfig, TelemetryConfig};
pub use merge::{name_signature, signature, ViolationRecord};
pub use router::Router;
pub use sink::ViolationSink;
pub use stats::{MonitoringGap, RuntimeStats};
pub use supervisor::{silence_injected_panics, ShardFailure, INJECTED_PANIC_PREFIX, MAX_RESTARTS};
pub use swmon_core::{
    CatalogEpoch, DeployAction, DeployError, DeployPlan, PropertyOrigin, MAX_PROPERTIES,
};
pub use telemetry::{ShardProbe, TelemetryHub};

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use supervisor::Supervisor;
use swmon_core::{Monitor, Property, PropertyError, Violation};
use swmon_sim::time::Instant;
use swmon_sim::trace::NetEvent;
use worker::ShardLayout;

/// Construction-time and run-time runtime failures.
#[derive(Debug)]
pub enum RuntimeError {
    /// A property failed structural validation.
    Invalid {
        /// Position of the offending property.
        index: usize,
        /// The underlying validation error.
        source: PropertyError,
    },
    /// More than [`MAX_PROPERTIES`] properties were supplied.
    TooManyProperties(usize),
    /// The monitor configuration bounds each instance store to zero cells
    /// (`capacity: Some(0)`), which can hold no instance.
    ZeroCapacity,
    /// The shard exhausted its restart budget (or failed to restore a
    /// checkpoint) and was escalated by its supervisor. Terminal: the
    /// session returns this same error from every later call.
    ShardFailed {
        /// Recoveries attempted before giving up.
        restarts: u64,
        /// The final panic message or restore error.
        message: String,
    },
    /// A [`Session::deploy`] was rejected and rolled back atomically; the
    /// session continues running under `epoch` exactly as if the plan had
    /// never been submitted. This is the only **recoverable** runtime
    /// error: feeding and further deploys remain valid.
    DeployRejected {
        /// The epoch still in effect after the rollback.
        epoch: u64,
        /// Why the plan was rejected (catalog validation or the shard's
        /// prepare failure).
        reason: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Invalid { index, source } => {
                write!(f, "property {index} is invalid: {source}")
            }
            RuntimeError::TooManyProperties(n) => {
                write!(f, "{n} properties exceed the runtime limit of {MAX_PROPERTIES}")
            }
            RuntimeError::ZeroCapacity => write!(f, "a capacity-bounded store needs a cell"),
            RuntimeError::ShardFailed { restarts, message } => {
                write!(f, "shard failed after {restarts} restart(s): {message}")
            }
            RuntimeError::DeployRejected { epoch, reason } => {
                write!(f, "deploy rejected (still at epoch {epoch}): {reason}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ShardFailure> for RuntimeError {
    fn from(f: ShardFailure) -> Self {
        RuntimeError::ShardFailed { restarts: f.restarts, message: f.message }
    }
}

/// The result of one runtime run.
#[derive(Debug)]
pub struct Outcome {
    /// Canonically merged violation records (see [`merge`]).
    pub records: Vec<ViolationRecord>,
    /// Activity counters.
    pub stats: RuntimeStats,
    /// The run's telemetry hub, for metric-page export
    /// ([`TelemetryHub::export`]) after the run.
    pub telemetry: Arc<TelemetryHub>,
}

impl Outcome {
    /// The merged violations, in canonical order.
    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.records.iter().map(|r| &r.violation)
    }

    /// Comparison-friendly signatures of the merged records.
    pub fn signatures(&self) -> Vec<String> {
        self.records.iter().map(signature).collect()
    }
}

/// A set of properties plus the ingress filter to run them supervised.
#[derive(Debug)]
pub struct ShardedRuntime {
    /// Shared with every session's shard layout: starting a session copies
    /// no property.
    props: Arc<[Property]>,
    cfg: RuntimeConfig,
    router: Router,
}

impl ShardedRuntime {
    /// Validate `props` and derive their ingress filter.
    pub fn new(props: Vec<Property>, cfg: RuntimeConfig) -> Result<Self, RuntimeError> {
        if props.len() > MAX_PROPERTIES {
            return Err(RuntimeError::TooManyProperties(props.len()));
        }
        if cfg.monitor.capacity == Some(0) {
            return Err(RuntimeError::ZeroCapacity);
        }
        for (index, p) in props.iter().enumerate() {
            p.validate().map_err(|source| RuntimeError::Invalid { index, source })?;
        }
        let cfg = cfg.normalized();
        let router = Router::new(&props, &cfg.monitor, 1);
        Ok(ShardedRuntime { props: props.into(), cfg, router })
    }

    /// The monitored properties, in catalog order.
    pub fn properties(&self) -> &[Property] {
        &self.props
    }

    /// The configuration in effect (after clamping).
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// The ingress filter.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Start a streaming session: one supervised shard, driven on the
    /// caller thread.
    pub fn start(&self) -> Session<'_> {
        self.start_with_sink(None)
    }

    /// Like [`ShardedRuntime::start`], but wire a live [`ViolationSink`]:
    /// the shard publishes what a batch raised as soon as the batch is
    /// applied (exactly once, crashes included), and [`Session::finish`]
    /// seals it with the canonically merged records. See the [`sink`]
    /// module for the delivery contract.
    pub fn start_with_sink(&self, sink: Option<Arc<dyn ViolationSink>>) -> Session<'_> {
        let hub = TelemetryHub::new(&self.cfg.telemetry);
        let probes = self.props.iter().map(|p| hub.engine(&p.name)).collect();
        let layout = ShardLayout { props: self.props.clone(), probes };
        let shard = Supervisor::new(layout, self.cfg.clone(), hub.shard().clone(), sink.clone());
        Session {
            rt: self,
            catalog: CatalogEpoch::initial(self.props.to_vec()),
            router: self.router.clone(),
            shard,
            seq: 0,
            routed: Routed::default(),
            hub,
            sink,
            failed: None,
        }
    }

    /// One-shot convenience: feed `events` (must be in non-decreasing time
    /// order, as the engine requires), then finish at `end`.
    pub fn run<'a, I>(&self, events: I, end: Instant) -> Result<Outcome, RuntimeError>
    where
        I: IntoIterator<Item = &'a NetEvent>,
    {
        let mut session = self.start();
        for ev in events {
            session.feed(ev)?;
        }
        session.finish(end)
    }
}

/// Summary of one committed [`Session::deploy`].
#[derive(Debug, Clone)]
pub struct DeployOutcome {
    /// The epoch now in effect.
    pub epoch: u64,
    /// The shard's quiesce pause in wall-clock nanoseconds (journal drain
    /// + forced checkpoint).
    pub quiesce_nanos: u64,
    /// Properties carried across with their instance state intact.
    pub retained: usize,
    /// Properties replaced in place (fresh state).
    pub upgraded: usize,
    /// Properties newly added (fresh state).
    pub added: usize,
    /// Properties retired (their monitors were dropped at the barrier;
    /// violations already raised are kept).
    pub removed: usize,
}

/// What the router has counted since it last added to the
/// [`TelemetryHub`] — the hub holds the only running totals.
///
/// `feed` bumps these plain cells (a delivery is `events_in − skipped`,
/// so it has none); every dispatch, and every live read
/// ([`Session::live_stats`], [`Session::telemetry`]), adds them to the
/// hub's atomics and zeroes them: a few atomic RMWs per batch instead of
/// several per event on the inline hot path, and a live read is never
/// staler than the last `feed`. `Cell` (not `&mut`) because the live read
/// goes through `&self`.
#[derive(Debug, Default)]
struct Routed {
    events_in: Cell<u64>,
    skipped: Cell<u64>,
}

impl Routed {
    fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }

    fn add_to(&self, hub: &TelemetryHub) {
        hub.events_in.add(self.events_in.take());
        hub.skipped.add(self.skipped.take());
    }
}

/// A live run: feed events, then call [`Session::finish`]. The shard is
/// driven on the thread that calls the session, so dropping one mid-stream
/// just drops its shard.
#[derive(Debug)]
pub struct Session<'rt> {
    rt: &'rt ShardedRuntime,
    /// The property set currently in effect. Starts as epoch 0 over
    /// [`ShardedRuntime::properties`]; every committed [`Session::deploy`]
    /// replaces it. (The runtime's own catalog never changes — it describes
    /// what sessions *start* with.)
    catalog: CatalogEpoch,
    /// The ingress filter for the current epoch (rebuilt at every
    /// committed deploy).
    router: Router,
    /// The shard: each delivered event is staged in its journal, and
    /// dispatched a batch at a time, so the supervision cost amortizes over
    /// the batch.
    shard: Supervisor,
    seq: u64,
    routed: Routed,
    hub: Arc<TelemetryHub>,
    sink: Option<Arc<dyn ViolationSink>>,
    /// The terminal shard failure. Once set, every `feed`, `deploy` and
    /// `finish` returns it, and no further work reaches the shard.
    failed: Option<ShardFailure>,
}

/// Compile-time audit, beside `swmon_core`'s: no thread moves a shard
/// today, so nothing else would notice a shard or a runtime that could no
/// longer be moved to one.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Supervisor>();
    assert_send::<ShardedRuntime>();
};

impl Session<'_> {
    /// The run's live telemetry hub, brought up to the last `feed` (its
    /// router-side counts otherwise move at dispatch). Cheap to clone out;
    /// stays valid (and live — every dispatch writes to it) for the whole
    /// session.
    pub fn telemetry(&self) -> &Arc<TelemetryHub> {
        self.routed.add_to(&self.hub);
        &self.hub
    }

    /// A consistent *live* snapshot of the run's statistics, mid-stream:
    /// `unaccounted_loss() == 0` holds on every snapshot, and every counter
    /// is monotone towards the final [`Outcome::stats`] — which is the same
    /// read of the same hub (see [`telemetry`] module docs).
    pub fn live_stats(&self) -> RuntimeStats {
        self.routed.add_to(&self.hub);
        self.hub.live_stats()
    }

    /// The latched shard failure, if it has escalated.
    fn healthy(&self) -> Result<(), RuntimeError> {
        self.failed.as_ref().map_or(Ok(()), |f| Err(f.clone().into()))
    }

    /// Keep a shard's terminal failure: the session answers with it from
    /// here on.
    fn latch<T>(&mut self, result: Result<T, ShardFailure>) -> Result<T, RuntimeError> {
        result.map_err(|f| {
            self.failed = Some(f.clone());
            f.into()
        })
    }

    /// Filter and stage one event. An event no property can use
    /// ([`Router`]) is dropped *here* — before any staging. A full or stale
    /// batch is applied before this returns. Fails if the shard's
    /// supervisor has escalated a terminal failure, now or on an earlier
    /// call.
    pub fn feed(&mut self, ev: &NetEvent) -> Result<(), RuntimeError> {
        self.healthy()?;
        let seq = self.seq;
        self.seq += 1;
        Routed::bump(&self.routed.events_in);
        let mask = self.router.mask(ev);
        // Pre-staging filtering: an event that provably cannot affect any
        // monitor never enters the journal.
        if mask == 0 {
            Routed::bump(&self.routed.skipped);
        } else {
            self.shard.stage(seq, mask, ev);
        }
        // Full, or stale: the oldest staged event has waited `flush_every`
        // input ticks — filtered ones count — so a trickle's violations
        // become sink-visible without waiting for a full batch, the next
        // delivered event, or `finish()`.
        if self.shard.due(self.seq) {
            self.dispatch()?;
        }
        Ok(())
    }

    /// Apply what is staged, as one batch. Also the deploy barrier's
    /// tail-flush: after it returns, every fed event has been counted in
    /// the hub — before its batch is applied, so the shard never shows
    /// more processed than delivered — and applied.
    fn dispatch(&mut self) -> Result<(), RuntimeError> {
        self.routed.add_to(&self.hub);
        if self.shard.staged() > 0 {
            self.hub.batches.inc();
            let applied = self.shard.dispatch();
            self.latch(applied)?;
        }
        Ok(())
    }

    /// The property catalog currently in effect (epoch 0 until a deploy
    /// commits).
    pub fn catalog(&self) -> &CatalogEpoch {
        &self.catalog
    }

    /// The epoch currently in effect.
    pub fn epoch(&self) -> u64 {
        self.catalog.epoch()
    }

    /// Hot-deploy a property change onto the **running** session: add,
    /// remove, or upgrade properties without dropping a single event.
    ///
    /// The protocol is a quiesce barrier with all-or-nothing activation
    /// (see `docs/DEPLOY.md`):
    ///
    /// 1. **Validate** — [`CatalogEpoch::apply`] derives the next epoch;
    ///    any structural rejection happens before the shard is touched.
    /// 2. **Quiesce** — the shard drains its journal (crashing and
    ///    recovering here rides the normal supervision path) and forces a
    ///    checkpoint.
    /// 3. **Prepare** — the shard builds the next epoch's monitor set off
    ///    to the side, restoring retained properties from that checkpoint's
    ///    images in place. Any failure — including a panic while preparing
    ///    — aborts the plan, and the checkpoint stays the recovery point.
    /// 4. **Commit** — the staged set is swapped in and the session
    ///    resumes under the new epoch; violations raised from here on carry
    ///    it as provenance.
    ///
    /// On `Err(`[`RuntimeError::DeployRejected`]`)` the session keeps
    /// running under the prior epoch, byte-identical to one that never saw
    /// the plan; any other error is a terminal shard failure, as from
    /// [`Session::feed`].
    pub fn deploy(&mut self, plan: &DeployPlan) -> Result<DeployOutcome, RuntimeError> {
        self.healthy()?;
        let prior = self.catalog.epoch();
        let next = match self.catalog.apply(plan) {
            Ok(next) => next,
            Err(e) => return Err(self.reject(prior, e.to_string())),
        };
        if next.properties().len() > MAX_PROPERTIES {
            let n = next.properties().len();
            return Err(self.reject(
                prior,
                format!("{n} properties exceed the runtime limit of {MAX_PROPERTIES}"),
            ));
        }
        // Everything fed so far must reach the shard before the barrier,
        // so the differential "deploy at k" cut is exact.
        self.dispatch()?;
        let registered = self.hub.engines().len();
        let layout = ShardLayout {
            probes: next.properties().iter().map(|p| self.hub.engine(&p.name)).collect(),
            props: next.properties().into(),
        };
        let deployed = self.shard.deploy(&next, layout);
        if !matches!(deployed, Ok(Ok(_))) {
            // No monitor reported to the probes this deploy registered.
            self.hub.engines().truncate(registered);
        }
        let quiesce_nanos = match self.latch(deployed)? {
            Ok(nanos) => nanos,
            // No live state was mutated, so rollback is the absence of a
            // commit.
            Err(reason) => return Err(self.reject(prior, format!("prepare failed: {reason}"))),
        };
        let (mut retained, mut upgraded, mut added) = (0, 0, 0);
        for origin in next.origins() {
            match origin {
                PropertyOrigin::Retained(_) => retained += 1,
                PropertyOrigin::Upgraded(_) => upgraded += 1,
                PropertyOrigin::Added => added += 1,
            }
        }
        let removed = self.catalog.properties().len() - retained - upgraded;
        let epoch = next.epoch();
        self.router = Router::new(next.properties(), &self.rt.cfg.monitor, 1);
        self.catalog = next;
        self.hub.deploys_applied.inc();
        self.hub.property_set_epoch.set(epoch);
        Ok(DeployOutcome { epoch, quiesce_nanos, retained, upgraded, added, removed })
    }

    /// Account a rolled-back deploy and build its recoverable error.
    fn reject(&self, epoch: u64, reason: String) -> RuntimeError {
        self.hub.deploys_rolled_back.inc();
        RuntimeError::DeployRejected { epoch, reason }
    }

    /// Apply the staged tail, advance every monitor to `end` (firing any
    /// remaining deadlines), collect the shard, and merge.
    pub fn finish(self, end: Instant) -> Result<Outcome, RuntimeError> {
        self.healthy()?;
        // The shard finishes with what is staged, so that tail and the
        // timer drain reach the sink as one publish.
        self.routed.add_to(&self.hub);
        self.hub.batches.add((self.shard.staged() > 0) as u64);
        // The shard folds in what the hub cannot carry; once it has
        // stopped counting, the hub is final.
        let mut stats = RuntimeStats::default();
        let log = self.shard.finish(end, &mut stats)?;
        self.hub.read_into(&mut stats, false);
        let records = merge::merge(log);
        if let Some(sink) = &self.sink {
            sink.seal(&records);
            self.hub.store_sealed.add(records.len() as u64);
        }
        Ok(Outcome { records, stats, telemetry: self.hub.clone() })
    }
}

/// Run the single-threaded reference over the same inputs and return its
/// violations as canonically merged records. The differential contract:
/// under any recoverable fault schedule, [`ShardedRuntime::run`] produces
/// records with exactly these signatures.
pub fn reference_records(
    props: &[Property],
    cfg: swmon_core::MonitorConfig,
    events: &[NetEvent],
    end: Instant,
) -> Vec<ViolationRecord> {
    let mut monitors: Vec<Monitor> = props.iter().map(|p| Monitor::new(p.clone(), cfg)).collect();
    for ev in events {
        for m in &mut monitors {
            m.process(ev);
        }
    }
    let mut records = Vec::new();
    for (i, m) in monitors.iter_mut().enumerate() {
        m.advance_to(end);
        for v in m.violations() {
            records.push(ViolationRecord::new(m.property(), i, 0, 0, v.clone()));
        }
    }
    merge::merge(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_core::{var, Atom, EventPattern, Guard, MonitorConfig, Stage};
    use swmon_packet::Field;

    fn repeat_prop(name: &str, field: Field) -> Property {
        let stage = |n: &str| {
            Stage::match_(n, EventPattern::Arrival, Guard::new(vec![Atom::Bind(var("A"), field)]))
        };
        Property {
            name: name.into(),
            statement: String::new(),
            stages: vec![stage("a"), stage("b")],
        }
    }

    fn arrival_from(i: u64) -> NetEvent {
        use swmon_packet::{Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
        use swmon_sim::trace::{NetEventKind, PacketId, PortNo, SwitchId};
        let pkt = Arc::new(PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, 1),
            MacAddr::new(2, 0, 0, 0, 0, 2),
            Ipv4Address::new(10, 0, 0, (i % 7) as u8 + 1),
            Ipv4Address::new(10, 0, 0, 99),
            1000,
            80,
            TcpFlags::SYN,
            &[],
        ));
        NetEvent {
            time: Instant::from_nanos(i),
            kind: NetEventKind::Arrival {
                switch: SwitchId(0),
                port: PortNo(0),
                pkt,
                id: PacketId(i),
            },
        }
    }

    #[test]
    fn rejects_invalid_and_oversized_property_sets() {
        let bad = Property { name: "empty".into(), statement: String::new(), stages: vec![] };
        let err = ShardedRuntime::new(vec![bad], RuntimeConfig::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::Invalid { index: 0, .. }), "{err}");

        let many: Vec<Property> =
            (0..65).map(|i| repeat_prop(&format!("p{i}"), Field::Ipv4Src)).collect();
        let err = ShardedRuntime::new(many, RuntimeConfig::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::TooManyProperties(65)), "{err}");
    }

    #[test]
    fn a_zero_capacity_is_refused_before_any_event() {
        let props = vec![repeat_prop("p", Field::Ipv4Src)];
        let bounded = |capacity| RuntimeConfig {
            monitor: MonitorConfig { capacity: Some(capacity), ..Default::default() },
            ..RuntimeConfig::default()
        };
        let err = ShardedRuntime::new(props.clone(), bounded(0)).unwrap_err();
        assert!(matches!(err, RuntimeError::ZeroCapacity), "{err}");
        let rt = ShardedRuntime::new(props, bounded(1)).expect("one cell is a store");
        let events: Vec<NetEvent> = (0..20).map(arrival_from).collect();
        let out = rt.run(&events, Instant::from_nanos(1_000)).unwrap();
        assert_eq!(out.stats.unaccounted_loss(), 0);
    }

    #[test]
    fn empty_run_produces_no_records() {
        let rt =
            ShardedRuntime::new(vec![repeat_prop("p", Field::Ipv4Src)], RuntimeConfig::default())
                .unwrap();
        let out = rt.run(std::iter::empty(), Instant::from_nanos(1_000)).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.stats.events_in, 0);
        assert_eq!(out.stats.unaccounted_loss(), 0);
        let cfg = MonitorConfig::default();
        assert!(reference_records(rt.properties(), cfg, &[], Instant::from_nanos(1_000)).is_empty());
    }

    #[test]
    fn dropping_a_session_mid_stream_is_clean() {
        let rt = ShardedRuntime::new(
            vec![repeat_prop("p", Field::Ipv4Src)],
            RuntimeConfig { batch: 1, ..Default::default() },
        )
        .unwrap();
        let mut session = rt.start();
        for i in 0..1024 {
            session.feed(&arrival_from(i)).unwrap();
        }
        // No finish: the shard simply drops with the session.
        drop(session);
    }

    /// Counts what it is handed before the seal.
    #[derive(Debug, Default)]
    struct Published(std::sync::atomic::AtomicUsize);

    impl ViolationSink for Published {
        fn publish(&self, _shard: usize, records: &[ViolationRecord]) {
            self.0.fetch_add(records.len(), std::sync::atomic::Ordering::Relaxed);
        }

        fn seal(&self, _merged: &[ViolationRecord]) {}
    }

    #[test]
    fn the_staleness_flush_fires_on_filtered_events() {
        use swmon_sim::trace::{NetEventKind, OobEvent, PortNo, SwitchId};
        let cfg = RuntimeConfig { batch: 64, flush_every: 4, ..Default::default() };
        let rt = ShardedRuntime::new(vec![repeat_prop("p", Field::Ipv4Src)], cfg).unwrap();
        let sink = Arc::new(Published::default());
        let mut session = rt.start_with_sink(Some(sink.clone() as Arc<dyn ViolationSink>));
        // Two arrivals from one source: the second raises, and both stay
        // staged for a batch of 64.
        for i in [0, 7] {
            session.feed(&arrival_from(i)).unwrap();
        }
        // `flush_every` events the property's class mask filters out.
        for t in 10..14 {
            let down = OobEvent::PortDown(SwitchId(0), PortNo(1));
            let ev = NetEvent { time: Instant::from_nanos(t), kind: NetEventKind::OutOfBand(down) };
            session.feed(&ev).unwrap();
        }
        assert_eq!(session.live_stats().skipped, 4, "the property masks every link event");
        let seen = sink.0.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(seen, 1, "the staged violation is published before `finish`");
        let out = session.finish(Instant::from_nanos(1_000)).unwrap();
        assert_eq!(out.records.len(), 1);
    }
}
