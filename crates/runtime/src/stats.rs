//! Runtime activity counters.

use swmon_core::MonitorStats;

/// One contiguous episode of explicit load shedding on a shard: the
/// recovery journal hit its bound ([`crate::RuntimeConfig::journal_limit`])
/// and the overflow was dropped *with accounting* rather than silently.
/// Violations raised while a gap was open carry downgraded provenance
/// ([`swmon_core::Violation::degraded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitoringGap {
    /// The shard that shed.
    pub shard: usize,
    /// Input sequence number of the first shed event.
    pub first_seq: u64,
    /// Input sequence number of the last shed event.
    pub last_seq: u64,
    /// Events shed in this episode.
    pub shed: u64,
}

/// Per-shard activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Events delivered to this shard (each counted once, however many of
    /// the shard's monitors examined it).
    pub events: u64,
    /// Violations this shard's monitors reported.
    pub violations: u64,
    /// Instances still live on this shard when it finished — the occupancy
    /// the shard carried to end-of-trace. Uneven values explain throughput
    /// dips that delivery counts alone hide: a shard hosting most of the
    /// live instances does most of the matching work per delivery.
    pub live_instances: u64,
    /// Events applied to this shard's monitors exactly once.
    pub processed: u64,
    /// Events explicitly shed (journal bound hit; see [`MonitoringGap`]).
    pub shed: u64,
    /// Crash recoveries this shard performed.
    pub restarts: u64,
}

/// Counters describing one runtime run.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Events fed to the router.
    pub events_in: u64,
    /// Event deliveries across all shards (an event delivered to two
    /// shards counts twice).
    pub deliveries: u64,
    /// Events that matched no property's key fields and were delivered
    /// nowhere (provably unable to affect any monitor).
    pub skipped: u64,
    /// Channel messages sent.
    pub batches: u64,
    /// Properties routed by instance-key hash.
    pub hashed_properties: usize,
    /// Properties pinned to a single worker.
    pub pinned_properties: usize,
    /// Worker crash recoveries across all shards.
    pub restarts: u64,
    /// Checkpoints taken across all shards.
    pub checkpoints: u64,
    /// Journal items re-applied during recoveries.
    pub replayed: u64,
    /// Events explicitly shed across all shards.
    pub shed: u64,
    /// Violations raised with downgraded provenance (inside a gap).
    pub degraded_violations: u64,
    /// Wall-clock nanoseconds spent restoring checkpoints.
    pub recovery_nanos: u64,
    /// The catalog epoch in effect ([`swmon_core::CatalogEpoch`]): 0 until
    /// a [`crate::Session::deploy`] commits, then the committed epoch.
    pub property_set_epoch: u64,
    /// Deploy plans applied (committed on every shard).
    pub deploys_applied: u64,
    /// Deploy plans rolled back (rejected at validation or aborted after a
    /// failed prepare; the fleet continued under the prior epoch).
    pub deploys_rolled_back: u64,
    /// Wall-clock nanoseconds shards spent quiesced for deploys (journal
    /// drain + forced checkpoint + a copy of its images), summed across shards.
    pub quiesce_nanos: u64,
    /// Adaptive-ingress inline→fanned transitions this run (the initial
    /// fan-out of a non-adaptive session is not counted).
    pub fan_outs: u64,
    /// Adaptive-ingress fanned→inline transitions this run.
    pub fan_ins: u64,
    /// Shedding episodes across all shards.
    pub gaps: Vec<MonitoringGap>,
    /// Per-shard breakdown.
    pub per_shard: Vec<ShardStats>,
    /// Aggregated engine counters, summed over every worker replica.
    pub engine: MonitorStats,
}

impl RuntimeStats {
    /// Fold one worker monitor's counters into the aggregate.
    pub(crate) fn absorb_engine(&mut self, s: &MonitorStats) {
        let e = &mut self.engine;
        e.events += s.events;
        e.spawned += s.spawned;
        e.advanced += s.advanced;
        e.window_expired += s.window_expired;
        e.cleared += s.cleared;
        e.deduplicated += s.deduplicated;
        e.refreshed += s.refreshed;
        e.deadlines_fired += s.deadlines_fired;
        e.stale_effects_dropped += s.stale_effects_dropped;
        e.evicted += s.evicted;
        e.out_of_scope += s.out_of_scope;
    }

    /// Events whose fate is unexplained: delivered to a shard but neither
    /// processed nor explicitly shed (or the reverse — processed more than
    /// delivered). The fault-tolerance contract is that this is **always
    /// zero**; the `e15` chaos benchmark and the chaos-smoke CI job fail
    /// on any other value.
    pub fn unaccounted_loss(&self) -> u64 {
        self.per_shard.iter().map(|s| s.events.abs_diff(s.processed + s.shed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters() {
        let mut r = RuntimeStats::default();
        let s = MonitorStats { events: 3, spawned: 2, ..Default::default() };
        r.absorb_engine(&s);
        r.absorb_engine(&s);
        assert_eq!(r.engine.events, 6);
        assert_eq!(r.engine.spawned, 4);
    }

    #[test]
    fn unaccounted_loss_detects_both_directions() {
        let mut r = RuntimeStats {
            per_shard: vec![
                ShardStats { events: 10, processed: 7, shed: 3, ..Default::default() },
                ShardStats { events: 10, processed: 8, shed: 0, ..Default::default() },
                ShardStats { events: 10, processed: 11, shed: 0, ..Default::default() },
            ],
            ..Default::default()
        };
        assert_eq!(r.unaccounted_loss(), 3);
        r.per_shard.truncate(1);
        assert_eq!(r.unaccounted_loss(), 0);
    }
}
