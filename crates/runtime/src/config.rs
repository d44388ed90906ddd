//! Runtime configuration.

use swmon_core::MonitorConfig;

/// A deterministic fault-injection point: the supervised worker for
/// `shard` panics when it is about to apply the event with input sequence
/// number `seq`. Used by chaos tests and the `e15` benchmark to prove the
/// recovery path; injection is consumed before the panic is raised, so
/// replay after recovery proceeds normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    /// The shard whose worker should crash.
    pub shard: usize,
    /// The input sequence number (position in the fed trace) to crash at.
    /// Points at events never delivered to `shard` are skipped.
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

/// Inert: a session's threading is fixed by [`RuntimeConfig::shards`]
/// alone, and no code reads either field. They exist only because the
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

/// Tuning knobs for the sharded runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of shards, which fixes the session's threading at start: one
    /// shard is driven inline on the caller thread (no worker, no
    /// hand-off); N > 1 shards each run on a worker thread of their own
    /// from session start to `finish`. No session changes mode. Clamped to
    /// at least 1.
    pub shards: usize,
    /// Events per dispatch: the session stages this many delivered events
    /// before handing each shard its share. A shard publishes what a batch
    /// raised as it completes, so `batch` ÷ the input rate is the detection
    /// floor (default 8, where dispatch cost starts to show: docs/PERF.md).
    pub batch: usize,
    /// Bounded-staleness flush, in input ticks, checked on every fed event
    /// (class-filtered ones too): when the oldest staged event is this many
    /// fed events old, the partial block is dispatched like a full one, so
    /// `flush_every` ÷ the input rate is the detection floor of a shard
    /// whose share never fills a batch. `0` means *auto*: `4 * batch`.
    pub flush_every: usize,
    /// Inert (see [`AdaptiveConfig`]).
    pub adaptive: AdaptiveConfig,
    /// Configuration applied to every per-worker monitor replica.
    pub monitor: MonitorConfig,
    /// Checkpoint cadence: a shard snapshots its monitors
    /// ([`swmon_core::Monitor::snapshot`]) after applying this many events
    /// since the last checkpoint, bounding both replay work after a crash
    /// and the recovery journal's footprint — recovery cost only: when a
    /// sink sees a violation no longer depends on it. Clamped to at least 1.
    pub checkpoint_every: usize,
    /// Upper bound on the per-shard recovery journal (events retained
    /// since the last checkpoint for crash replay). `0` means *auto*:
    /// `checkpoint_every + batch`, which guarantees no shedding in normal
    /// operation. Setting it below the auto value trades coverage for
    /// memory: delivery bursts beyond the bound are shed **explicitly** —
    /// counted in a [`crate::MonitoringGap`], with violations raised
    /// during the gap carrying downgraded provenance (`docs/FAULTS.md`).
    pub journal_limit: usize,
    /// How many times a shard may be recovered (checkpoint restore +
    /// journal replay) before the runtime gives up and reports
    /// [`crate::RuntimeError::ShardFailed`]. `0` disables recovery: the
    /// first worker panic is terminal.
    pub max_restarts: usize,
    /// Deterministic worker-crash schedule, for chaos testing. Empty in
    /// production use.
    pub inject_faults: Vec<FaultPoint>,
    /// Deterministic deploy-prepare failures, for chaos testing: each
    /// listed shard index makes one `Session::deploy` prepare phase panic
    /// on that shard (inside its panic boundary), forcing the deploy to
    /// roll back. A shard listed twice fails two prepares. Empty in
    /// production use.
    pub inject_deploy_faults: Vec<usize>,
    /// Observability configuration (see [`TelemetryConfig`]).
    pub telemetry: TelemetryConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            shards: std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            batch: 8,
            flush_every: 0,
            adaptive: AdaptiveConfig::default(),
            monitor: MonitorConfig::default(),
            checkpoint_every: 1024,
            journal_limit: 0,
            max_restarts: 8,
            inject_faults: Vec::new(),
            inject_deploy_faults: Vec::new(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// The default configuration with an explicit shard count.
    pub fn with_shards(shards: usize) -> Self {
        RuntimeConfig { shards, ..Self::default() }
    }

    /// The values actually used (clamped to sane minima; `journal_limit`
    /// auto resolved).
    pub(crate) fn normalized(&self) -> RuntimeConfig {
        let batch = self.batch.max(1);
        let checkpoint_every = self.checkpoint_every.max(1);
        RuntimeConfig {
            shards: self.shards.max(1),
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
            max_restarts: self.max_restarts,
            inject_faults: self.inject_faults.clone(),
            inject_deploy_faults: self.inject_deploy_faults.clone(),
            telemetry: self.telemetry.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_values_are_clamped() {
        let cfg = RuntimeConfig { shards: 0, batch: 0, ..Default::default() };
        let n = cfg.normalized();
        assert_eq!((n.shards, n.batch), (1, 1));
        assert!(RuntimeConfig::default().shards >= 1);
        assert_eq!(RuntimeConfig::with_shards(4).shards, 4);
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
