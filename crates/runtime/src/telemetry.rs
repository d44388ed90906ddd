//! The runtime's telemetry hub: the run's one statistics ledger. The
//! router and the shard count *only* here, in shared atomics readable at
//! any moment from outside the run.
//!
//! Every view is a read of these atomics:
//! [`Session::live_stats`](crate::Session::live_stats) mid-run,
//! [`Outcome::stats`](crate::Outcome::stats) at the end (the same
//! reader, plus the monitoring gaps and summed engine counters the
//! finished shard folds in), and [`TelemetryHub::export`] for the full metric
//! page ([`swmon_telemetry::Snapshot`]) behind `repro stats`. There is no
//! second copy for them to disagree with.
//!
//! ## Live and final reads
//!
//! Counters are independent `Relaxed` atomics, so a reader can observe one
//! counter a moment staler than another. The router side of the audit is
//! `deliveries = events_in − skipped`, written by the session and never by
//! the shard; the shard side is `processed + shed`. The two reads differ
//! in exactly one field, [`RuntimeStats::backlog`]:
//!
//! - a **live** read sets it to the deliveries not yet applied, the same
//!   saturating difference the exported `swmon_shard_backlog_events` gauge
//!   shows, so [`RuntimeStats::unaccounted_loss`] is zero on every live
//!   snapshot whose shard has not applied more than was delivered
//!   (deliveries staged but not yet applied are not "lost");
//! - the **final** read sets it to 0, so the audit is two-sided: a
//!   delivery the shard neither processed nor shed shows up as loss.
//!
//! Every counter but the backlog is monotone — a live snapshot is
//! component-wise ≤ the final one, and equal to it once the run has
//! finished loss-free.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::config::TelemetryConfig;
use crate::stats::RuntimeStats;
use swmon_telemetry::{names, Counter, EngineProbe, Gauge, Histogram, Key, Snapshot};

/// The shard's counters. Written by its supervisor, which keeps no
/// private copy of any of them.
#[derive(Debug, Default)]
pub struct ShardProbe {
    /// Items applied to the monitors exactly once.
    pub processed: Counter,
    /// Items explicitly shed (journal bound hit).
    pub shed: Counter,
    /// Crash recoveries performed.
    pub restarts: Counter,
    /// Checkpoints taken.
    pub checkpoints: Counter,
    /// Per-checkpoint wall time, nanoseconds: bringing every hosted
    /// monitor's image up to date. One sample per checkpoint.
    pub checkpoint: Histogram,
    /// Instance slots copied into checkpoint images — what the checkpoints
    /// cost, in the unit the engine's spawn/advance/clear counters use.
    pub checkpoint_slots: Counter,
    /// Journal items re-applied during recoveries.
    pub replayed: Counter,
    /// Violations raised with downgraded provenance.
    pub degraded_violations: Counter,
    /// Violations reported so far (monotone across recoveries: replay
    /// re-discovers, it never un-discovers).
    pub violations: Gauge,
    /// Live instances across the shard's monitors, as of the last batch.
    pub live_instances: Gauge,
    /// Recovery-journal depth observed at each batch admission.
    pub queue_depth: Histogram,
    /// Per-recovery checkpoint-restore latency, nanoseconds. Its sum is
    /// [`RuntimeStats::recovery_nanos`].
    pub recovery: Histogram,
    /// Per-deploy quiesce pause, nanoseconds (journal drain + forced
    /// checkpoint). Empty until a deploy quiesces. Its sum is
    /// [`RuntimeStats::quiesce_nanos`].
    pub quiesce: Histogram,
    /// Violation records published to the live store sink
    /// ([`crate::sink::ViolationSink`]). Zero when no sink is wired.
    pub store_published: Counter,
    /// How far behind the input each published record was, in input ticks:
    /// its triggering `seq` to the last `seq` the shard had admitted.
    /// Counted, never timed; the timer drain's records (no `seq`) skipped.
    pub publish_lag: Histogram,
}

/// All shared instrumentation for one run: router counters, the shard's
/// probe and per-property engine probes.
#[derive(Debug)]
pub struct TelemetryHub {
    /// Events fed to the router.
    pub events_in: Counter,
    /// Events delivered nowhere.
    pub skipped: Counter,
    /// Batches dispatched to the shard.
    pub batches: Counter,
    /// Canonically merged records handed to the store sink at seal time.
    /// Zero when no sink is wired (or until the session finishes).
    pub store_sealed: Counter,
    /// The catalog epoch in effect: 0 at session start, set to the
    /// committed epoch by every applied [`crate::Session::deploy`].
    pub property_set_epoch: Gauge,
    /// Deploy plans committed.
    pub deploys_applied: Counter,
    /// Deploy plans rolled back (validation rejection or aborted prepare).
    pub deploys_rolled_back: Counter,
    shard: Arc<ShardProbe>,
    /// One probe per property *name*, in first-request order. Locked only
    /// on cold paths: session start, deploy, export.
    engines: Mutex<Vec<Arc<EngineProbe>>>,
    stage_sample_every: u64,
}

impl TelemetryHub {
    /// Build the hub.
    pub(crate) fn new(cfg: &TelemetryConfig) -> Arc<Self> {
        Arc::new(TelemetryHub {
            events_in: Counter::new(),
            skipped: Counter::new(),
            batches: Counter::new(),
            store_sealed: Counter::new(),
            property_set_epoch: Gauge::new(),
            deploys_applied: Counter::new(),
            deploys_rolled_back: Counter::new(),
            shard: Arc::new(ShardProbe::default()),
            engines: Mutex::new(Vec::new()),
            stage_sample_every: cfg.stage_sample_every,
        })
    }

    /// The shard's probe.
    pub fn shard(&self) -> &Arc<ShardProbe> {
        &self.shard
    }

    /// The registered engine probes. (A rolled-back deploy truncates the
    /// ones it registered; no replica ever reported to them.)
    pub(crate) fn engines(&self) -> MutexGuard<'_, Vec<Arc<EngineProbe>>> {
        self.engines.lock().expect("no holder of the probe registry can panic")
    }

    /// The engine probe for the property called `name`, registered on
    /// first request: a property's monitor in every epoch, and every
    /// property sharing its name, reports to one series.
    pub(crate) fn engine(&self, name: &str) -> Arc<EngineProbe> {
        let mut engines = self.engines();
        if let Some(probe) = engines.iter().find(|p| p.name() == name) {
            return probe.clone();
        }
        engines.push(EngineProbe::new(name, self.stage_sample_every));
        engines[engines.len() - 1].clone()
    }

    /// A live [`RuntimeStats`] built from the shared atomics. Satisfies
    /// `unaccounted_loss() == 0` at any moment and is component-wise
    /// monotone towards the final stats, `backlog` apart (see module
    /// docs). Monitoring-gap episodes are supervisor-private until the run
    /// finishes, so `gaps` is empty here; the shed *count* is live.
    /// Router-side counts are as of the session's last dispatch (or
    /// [`Session::live_stats`](crate::Session::live_stats) call).
    pub fn live_stats(&self) -> RuntimeStats {
        let mut stats = RuntimeStats::default();
        self.read_into(&mut stats, true);
        stats
    }

    /// The one [`RuntimeStats`] reader: every field but the two the hub
    /// cannot carry (`gaps`, `engine`), which a finished shard folds in
    /// itself. `live` picks the backlog: the deliveries not yet applied,
    /// or none — the final read, whose audit is two-sided.
    pub(crate) fn read_into(&self, stats: &mut RuntimeStats, live: bool) {
        let probe = &self.shard;
        // The shard side first, as a delivery is counted before it is
        // applied.
        let (processed, shed) = (probe.processed.get(), probe.shed.get());
        stats.events_in = self.events_in.get();
        stats.skipped = self.skipped.get();
        stats.deliveries = stats.events_in.saturating_sub(stats.skipped);
        stats.processed = processed;
        stats.shed = shed;
        stats.backlog = if live { stats.deliveries.saturating_sub(processed + shed) } else { 0 };
        stats.violations = probe.violations.get();
        stats.live_instances = probe.live_instances.get();
        stats.batches = self.batches.get();
        stats.restarts = probe.restarts.get();
        stats.checkpoints = probe.checkpoints.get();
        stats.replayed = probe.replayed.get();
        stats.degraded_violations = probe.degraded_violations.get();
        stats.recovery_nanos = probe.recovery.snapshot().sum;
        stats.property_set_epoch = self.property_set_epoch.get();
        stats.deploys_applied = self.deploys_applied.get();
        stats.deploys_rolled_back = self.deploys_rolled_back.get();
        stats.quiesce_nanos = probe.quiesce.snapshot().sum;
        // `stats.engine` is not the hub's: engine probes count every
        // monitor application *including recovery replays*, while the
        // final MonitorStats are checkpoint-restored and count each event
        // once — folding probes in here would break monotonicity towards
        // the final stats. Per-property engine activity lives on the
        // exported page ([`TelemetryHub::export`]) instead.
    }

    /// Freeze the full metric page. Every name on it comes from
    /// [`swmon_telemetry::names`]; the catalog test keeps that closed.
    pub fn export(&self) -> Snapshot {
        let mut page = Snapshot::default();
        let probe = &self.shard;
        // Deliveries are the router side, `events_in − skipped`; the
        // backlog (delivered events staged for a batch not yet dispatched)
        // is that less the shard side, read first, as a delivery is
        // counted before it is applied.
        let (processed, shed) = (probe.processed.get(), probe.shed.get());
        let (events_in, skipped) = (self.events_in.get(), self.skipped.get());
        let delivered = events_in.saturating_sub(skipped);
        page.counters.push((Key::plain(names::EVENTS_IN), events_in));
        page.counters.push((Key::plain(names::DELIVERIES), delivered));
        page.counters.push((Key::plain(names::SKIPPED), skipped));
        page.counters.push((Key::plain(names::BATCHES), self.batches.get()));
        page.counters.push((Key::plain(names::STORE_SEALED), self.store_sealed.get()));
        page.gauges.push((Key::plain(names::PROPERTY_SET_EPOCH), self.property_set_epoch.get()));
        page.counters.push((Key::plain(names::DEPLOYS_APPLIED), self.deploys_applied.get()));
        page.counters
            .push((Key::plain(names::DEPLOYS_ROLLED_BACK), self.deploys_rolled_back.get()));
        let c = |name: &str, v: u64| (Key::labeled(name, "shard", 0), v);
        page.counters.push(c(names::SHARD_DELIVERED, delivered));
        page.counters.push(c(names::SHARD_PROCESSED, processed));
        page.counters.push(c(names::SHARD_SHED, shed));
        page.gauges.push(c(names::SHARD_BACKLOG, delivered.saturating_sub(processed + shed)));
        page.counters.push(c(names::SHARD_RESTARTS, probe.restarts.get()));
        page.counters.push(c(names::SHARD_CHECKPOINTS, probe.checkpoints.get()));
        page.counters.push(c(names::SHARD_CHECKPOINT_SLOTS, probe.checkpoint_slots.get()));
        page.counters.push(c(names::SHARD_REPLAYED, probe.replayed.get()));
        page.counters.push(c(names::SHARD_DEGRADED, probe.degraded_violations.get()));
        page.counters.push(c(names::SHARD_VIOLATIONS, probe.violations.get()));
        page.counters.push(c(names::SHARD_STORE_PUBLISHED, probe.store_published.get()));
        for (name, histogram) in [
            (names::SHARD_QUEUE_DEPTH, &probe.queue_depth),
            (names::SHARD_CHECKPOINT_NANOS, &probe.checkpoint),
            (names::SHARD_RECOVERY_NANOS, &probe.recovery),
            (names::SHARD_QUIESCE_NANOS, &probe.quiesce),
            (names::SHARD_PUBLISH_LAG, &probe.publish_lag),
        ] {
            page.histograms.push((Key::labeled(name, "shard", 0), histogram.snapshot()));
        }
        for engine in self.engines().iter() {
            let k = |name: &str| Key::labeled(name, "property", engine.name());
            page.counters.push((k(names::PROPERTY_EVENTS), engine.events.get()));
            page.gauges.push((k(names::PROPERTY_LIVE), engine.live.get()));
            page.histograms.push((k(names::PROPERTY_STAGE_NANOS), engine.stage_nanos.snapshot()));
            page.histograms.push((k(names::PROPERTY_OCCUPANCY), engine.occupancy.snapshot()));
        }
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> Arc<TelemetryHub> {
        let h = TelemetryHub::new(&TelemetryConfig::default());
        h.engine("fw");
        h.engine("dhcp");
        h
    }

    #[test]
    fn live_stats_reconcile_by_construction() {
        let h = hub();
        h.events_in.add(10);
        h.skipped.add(1);
        h.shard().processed.add(7);
        h.shard().shed.add(2);
        let live = h.live_stats();
        assert_eq!(live.unaccounted_loss(), 0);
        assert_eq!((live.deliveries, live.processed, live.shed, live.backlog), (9, 7, 2, 0));
    }

    #[test]
    fn final_stats_audit_against_the_router_side_count() {
        // Twelve events in, two skipped: the router sent the shard ten
        // items, and it accounts for nine.
        let h = hub();
        h.events_in.add(12);
        h.skipped.add(2);
        h.shard().processed.add(7);
        h.shard().shed.add(2);
        // Mid-run the tenth may simply be staged: the live view never
        // calls it lost, it is the backlog.
        let live = h.live_stats();
        assert_eq!((live.deliveries, live.backlog, live.unaccounted_loss()), (10, 1, 0));
        // At the end it is lost — the final audit is not `x == x`.
        let mut fin = RuntimeStats::default();
        h.read_into(&mut fin, false);
        assert_eq!((fin.deliveries, fin.backlog, fin.unaccounted_loss()), (10, 0, 1));
        // The exported gauge is the live backlog.
        let page = h.export();
        let backlog: Vec<u64> = page
            .gauges
            .iter()
            .filter(|(k, _)| k.name == names::SHARD_BACKLOG)
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(backlog, [live.backlog]);
        assert_eq!(page.counter(names::DELIVERIES), Some(10));
        assert_eq!(page.counter(names::SHARD_DELIVERED), Some(10));
    }

    #[test]
    fn export_covers_exactly_the_catalog() {
        let h = hub();
        h.shard().queue_depth.record(3);
        let page = h.export();
        let mut exported = page.names();
        exported.sort_unstable();
        let mut catalog: Vec<&str> = names::ALL.to_vec();
        catalog.sort_unstable();
        assert_eq!(exported, catalog);
    }

    #[test]
    fn disabled_engine_layer_never_times() {
        let h = TelemetryHub::new(&TelemetryConfig::off());
        assert!(!h.engine("fw").samples(0));
    }

    #[test]
    fn engine_probes_are_one_per_name() {
        let h = hub();
        assert!(Arc::ptr_eq(&h.engine("fw"), &h.engine("fw")));
        assert!(!Arc::ptr_eq(&h.engine("fw"), &h.engine("nat")));
        let page = h.export();
        let series = page.counters.iter().filter(|(k, _)| k.name == names::PROPERTY_EVENTS);
        assert_eq!(series.count(), 3);
    }
}
