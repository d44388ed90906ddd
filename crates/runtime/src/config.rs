//! Runtime configuration.

use swmon_core::MonitorConfig;

/// A deterministic fault-injection point: the supervised shard panics
/// when it is about to apply the event with input sequence number `seq`.
/// Used by chaos tests and the `e15` benchmark to prove the recovery path;
/// injection is consumed before the panic is raised, so replay after
/// recovery proceeds normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    /// The input sequence number (position in the fed trace) to crash at.
    /// Points at events the ingress filtered out are skipped.
    pub seq: u64,
}

/// Observability knobs (see `docs/TELEMETRY.md`). The counter layer is
/// unconditional: it is the run's one statistics ledger —
/// [`crate::RuntimeStats`] and the per-property counts are read from it —
/// on shared atomics so a live snapshot can be taken mid-run.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Wall-time every N-th event per monitor replica into the property's
    /// stage-time and occupancy histograms (`0` disables timing).
    pub stage_sample_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { stage_sample_every: 64 }
    }
}

impl TelemetryConfig {
    /// Everything off that can be off — the bare-throughput configuration
    /// the overhead benchmarks compare against.
    pub fn off() -> Self {
        TelemetryConfig { stage_sample_every: 0 }
    }
}

/// Inert: every session runs on the caller thread, and no code reads
/// either field. They exist only because the
/// frozen end-to-end benchmark constructs them (`benchmark/src/session.rs`,
/// `pinned()`; `benchmark/src/layers.rs`, `untraced_sessions`), and go
/// with those lines.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Inert.
    pub enabled: bool,
    /// Inert.
    pub fan_out_rate: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig { enabled: false, fan_out_rate: 500_000.0 }
    }
}

/// Tuning knobs for the runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Inert: a session is one supervised partition, driven on the caller
    /// thread, whatever this says (docs/RUNTIME.md, "One thread"). No code
    /// reads it; it exists only because the frozen end-to-end benchmark
    /// constructs it (`benchmark/src/session.rs`, `pinned()`;
    /// `benchmark/src/layers.rs`, `untraced_sessions` and the router
    /// layer), and goes with those lines.
    pub shards: usize,
    /// Events per dispatch: the session stages this many delivered events
    /// before handing them to the shard. The shard publishes what a batch
    /// raised as it completes, so `batch` ÷ the input rate is the detection
    /// floor (default 8, where dispatch cost starts to show: docs/PERF.md).
    pub batch: usize,
    /// Bounded-staleness flush, in input ticks, checked on every fed event
    /// (class-filtered ones too): when the oldest staged event is this many
    /// fed events old, the partial block is dispatched like a full one, so
    /// `flush_every` ÷ the input rate is the detection floor of a trickle
    /// that never fills a batch. `0` means *auto*: `4 * batch`.
    pub flush_every: usize,
    /// Inert (see [`AdaptiveConfig`]).
    pub adaptive: AdaptiveConfig,
    /// Configuration applied to every monitor.
    pub monitor: MonitorConfig,
    /// Checkpoint cadence: a shard snapshots its monitors
    /// ([`swmon_core::Monitor::snapshot`]) after applying this many events
    /// since the last checkpoint, bounding both replay work after a crash
    /// and the recovery journal's footprint — recovery cost only: when a
    /// sink sees a violation no longer depends on it. Clamped to at least 1.
    pub checkpoint_every: usize,
    /// Upper bound on the shard's recovery journal (events retained
    /// since the last checkpoint for crash replay). `0` means *auto*:
    /// `checkpoint_every + batch`, which guarantees no shedding in normal
    /// operation. Setting it below the auto value trades coverage for
    /// memory: delivery bursts beyond the bound are shed **explicitly** —
    /// counted in a [`crate::MonitoringGap`], with violations raised
    /// during the gap carrying downgraded provenance (`docs/FAULTS.md`).
    pub journal_limit: usize,
    /// Deterministic shard-crash schedule, for chaos testing. Empty in
    /// production use.
    pub inject_faults: Vec<FaultPoint>,
    /// Deterministic deploy-prepare failures, for chaos testing: the first
    /// this many `Session::deploy` prepare phases panic (inside the shard's
    /// panic boundary), forcing each of those deploys to roll back. 0 in
    /// production use.
    pub inject_deploy_faults: usize,
    /// Observability configuration (see [`TelemetryConfig`]).
    pub telemetry: TelemetryConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            shards: 1,
            batch: 8,
            flush_every: 0,
            adaptive: AdaptiveConfig::default(),
            monitor: MonitorConfig::default(),
            checkpoint_every: 1024,
            journal_limit: 0,
            inject_faults: Vec::new(),
            inject_deploy_faults: 0,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// The values actually used (clamped to sane minima; `journal_limit`
    /// auto resolved).
    pub(crate) fn normalized(&self) -> RuntimeConfig {
        let batch = self.batch.max(1);
        let checkpoint_every = self.checkpoint_every.max(1);
        RuntimeConfig {
            shards: self.shards,
            batch,
            flush_every: if self.flush_every == 0 { 4 * batch } else { self.flush_every },
            adaptive: self.adaptive.clone(),
            monitor: self.monitor,
            checkpoint_every,
            journal_limit: if self.journal_limit == 0 {
                checkpoint_every + batch
            } else {
                self.journal_limit
            },
            inject_faults: self.inject_faults.clone(),
            inject_deploy_faults: self.inject_deploy_faults,
            telemetry: self.telemetry.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_values_are_clamped() {
        let cfg = RuntimeConfig { batch: 0, checkpoint_every: 0, ..Default::default() };
        let n = cfg.normalized();
        assert_eq!((n.batch, n.checkpoint_every), (1, 1));
    }

    #[test]
    fn journal_limit_auto_resolves_to_no_shed_bound() {
        let n =
            RuntimeConfig { checkpoint_every: 100, batch: 8, ..Default::default() }.normalized();
        assert_eq!(n.journal_limit, 108);
        let explicit = RuntimeConfig { journal_limit: 5, ..Default::default() }.normalized();
        assert_eq!(explicit.journal_limit, 5, "explicit bounds are honoured verbatim");
    }

    #[test]
    fn flush_every_auto_tracks_the_batch_size() {
        let n = RuntimeConfig { batch: 16, ..Default::default() }.normalized();
        assert_eq!(n.flush_every, 64);
        let n = RuntimeConfig::default().normalized();
        assert_eq!((n.batch, n.flush_every), (8, 32), "the defaults: detection within 8 events");
        let explicit = RuntimeConfig { flush_every: 7, ..Default::default() }.normalized();
        assert_eq!(explicit.flush_every, 7);
    }
}
