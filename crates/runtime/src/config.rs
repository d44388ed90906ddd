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
    /// Span-trace every N-th input sequence number through the runtime's
    /// stages (`0` — the default — disables tracing entirely).
    pub trace_every: u64,
    /// Sampling offset: sequence `s` is traced iff
    /// `(s + trace_seed) % trace_every == 0`. Deterministic, so traces of
    /// two runs over the same input are comparable.
    pub trace_seed: u64,
    /// Maximum retained span records.
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            stage_sample_every: 64,
            trace_every: 0,
            trace_seed: 0,
            trace_capacity: 512,
        }
    }
}

impl TelemetryConfig {
    /// Everything off that can be off — the bare-throughput configuration
    /// the overhead benchmarks compare against.
    pub fn off() -> Self {
        TelemetryConfig { stage_sample_every: 0, ..Self::default() }
    }
}

/// Adaptive ingress ([`crate::Session`]): start inline — the sharded
/// layout driven single-threaded on the caller thread, no hand-off cost —
/// fan out to worker threads under sustained ingest pressure, and fold
/// back when load drops. Transitions preserve byte-identical violation
/// output (differentially tested at every transition point).
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Enable adaptive transitions. Off by default: the session fans out
    /// at start and stays fanned, the pre-adaptive behaviour.
    pub enabled: bool,
    /// Events per ingest-rate estimation window. The rate heuristic is
    /// consulted only at window boundaries, so a run shorter than one
    /// window never transitions on its own.
    pub window: u64,
    /// Ingest rate (events/second) at or above which an inline session
    /// fans out. Fan-out additionally requires more than one hardware
    /// thread — on a single core the hand-off can only cost.
    pub fan_out_rate: f64,
    /// Ingest rate (events/second) below which a fanned session folds
    /// back inline.
    pub fan_in_rate: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            enabled: false,
            window: 4096,
            fan_out_rate: 500_000.0,
            fan_in_rate: 50_000.0,
        }
    }
}

impl AdaptiveConfig {
    /// Adaptive mode with the default thresholds.
    pub fn on() -> Self {
        AdaptiveConfig { enabled: true, ..Self::default() }
    }
}

/// Tuning knobs for the sharded runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads (shards). Clamped to at least 1.
    pub shards: usize,
    /// Events per dispatch: the session stages this many delivered events
    /// before handing each shard its share. A shard publishes what a batch
    /// raised as it completes, so `batch` ÷ the input rate is the detection
    /// floor (default 8, where dispatch cost starts to show: docs/PERF.md).
    pub batch: usize,
    /// Hand-off lane capacity, in batches. When a worker falls behind,
    /// the session *blocks* here — events are never dropped, because a
    /// silently dropped event would forge a negative observation
    /// (Feature 7 deadlines fire on absence of events).
    pub queue: usize,
    /// Bounded-staleness flush, in input ticks, checked on every fed event
    /// (class-filtered ones too): when the oldest staged event is this many
    /// fed events old, the partial block is dispatched like a full one, so
    /// `flush_every` ÷ the input rate is the detection floor of a shard
    /// whose share never fills a batch. `0` means *auto*: `4 * batch`.
    pub flush_every: usize,
    /// Adaptive ingress (see [`AdaptiveConfig`]).
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
            queue: 64,
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
            queue: self.queue.max(1),
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
        let cfg = RuntimeConfig { shards: 0, batch: 0, queue: 0, ..Default::default() };
        let n = cfg.normalized();
        assert_eq!((n.shards, n.batch, n.queue), (1, 1, 1));
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
        assert!(!RuntimeConfig::default().adaptive.enabled, "adaptive ingress is opt-in");
        assert!(AdaptiveConfig::on().enabled);
    }
}
