//! The exported metric catalog.
//!
//! Every metric the runtime exports is named here, and [`ALL`] is the
//! closed list the catalog test (and the `telemetry-overhead` CI job)
//! checks the exported page against — a metric added to an exporter but
//! not to the catalog, or vice versa, is a test failure, so the catalog in
//! `docs/TELEMETRY.md` cannot silently drift from the code.

/// Events fed to the router.
pub const EVENTS_IN: &str = "swmon_events_in_total";
/// Events delivered to the shard (`events_in - skipped`).
pub const DELIVERIES: &str = "swmon_deliveries_total";
/// Events that matched no property and were delivered nowhere.
pub const SKIPPED: &str = "swmon_skipped_total";
/// Batches handed to the shard.
pub const BATCHES: &str = "swmon_batches_total";

/// Per-shard: items received from the router (`events_in - skipped`). Label: `shard`.
pub const SHARD_DELIVERED: &str = "swmon_shard_delivered_total";
/// Per-shard: items applied to monitors exactly once. Label: `shard`.
pub const SHARD_PROCESSED: &str = "swmon_shard_processed_total";
/// Per-shard: items explicitly shed (journal bound). Label: `shard`.
pub const SHARD_SHED: &str = "swmon_shard_shed_total";
/// Per-shard: crash recoveries performed. Label: `shard`.
pub const SHARD_RESTARTS: &str = "swmon_shard_restarts_total";
/// Per-shard: checkpoints taken. Label: `shard`.
pub const SHARD_CHECKPOINTS: &str = "swmon_shard_checkpoints_total";
/// Per-shard wall time of each checkpoint in nanoseconds (histogram):
/// bringing every hosted monitor's image up to date. Label: `shard`.
pub const SHARD_CHECKPOINT_NANOS: &str = "swmon_shard_checkpoint_nanos";
/// Per-shard: instance slots copied into checkpoint images. Label: `shard`.
pub const SHARD_CHECKPOINT_SLOTS: &str = "swmon_shard_checkpoint_slots_total";
/// Per-shard: journal items re-applied during recoveries. Label: `shard`.
pub const SHARD_REPLAYED: &str = "swmon_shard_replayed_total";
/// Per-shard: violations raised with downgraded provenance. Label: `shard`.
pub const SHARD_DEGRADED: &str = "swmon_shard_degraded_violations_total";
/// Per-shard: violations reported. Label: `shard`.
pub const SHARD_VIOLATIONS: &str = "swmon_shard_violations_total";
/// Per-shard recovery-journal depth at admission (histogram). Label: `shard`.
pub const SHARD_QUEUE_DEPTH: &str = "swmon_shard_queue_depth";
/// Per-shard checkpoint-restore latency in nanoseconds (histogram).
/// Label: `shard`.
pub const SHARD_RECOVERY_NANOS: &str = "swmon_shard_recovery_nanos";
/// Per-shard: violation records published to the live violation store
/// sink, each as the batch that raised it completed. Label: `shard`.
pub const SHARD_STORE_PUBLISHED: &str = "swmon_shard_store_published_total";
/// Per-shard: how far behind the input each published violation was, in
/// input ticks — its triggering event's sequence number to the last one the
/// shard had admitted when the publish began (histogram). Label: `shard`.
pub const SHARD_PUBLISH_LAG: &str = "swmon_shard_publish_lag_events";
/// Per-shard: items the router has counted for the shard that it has
/// neither applied nor shed — `delivered − processed − shed`, computed at
/// export from those three counters (gauge). Label: `shard`.
pub const SHARD_BACKLOG: &str = "swmon_shard_backlog_events";
/// Canonically merged records handed to the violation store at seal time.
pub const STORE_SEALED: &str = "swmon_store_sealed_total";

/// The catalog epoch in effect: 0 at session start, bumped by every
/// committed live deploy (`Session::deploy`).
pub const PROPERTY_SET_EPOCH: &str = "swmon_property_set_epoch";
/// Deploy plans committed.
pub const DEPLOYS_APPLIED: &str = "swmon_deploys_applied_total";
/// Deploy plans rolled back (validation rejection or aborted prepare);
/// the session continued under the prior epoch.
pub const DEPLOYS_ROLLED_BACK: &str = "swmon_deploys_rolled_back_total";
/// The shard's quiesce pause during deploys, in nanoseconds (histogram):
/// journal drain + forced checkpoint. Label: `shard`.
pub const SHARD_QUIESCE_NANOS: &str = "swmon_shard_quiesce_nanos";

/// Per-property: in-scope events examined, replays included (equal to
/// `stats.engine.events` on a fault-free run). Label: `property`.
pub const PROPERTY_EVENTS: &str = "swmon_property_events_total";
/// Per-property: live instances — sum over the monitors of that name, as
/// of the shard's last batch. Label: `property`.
pub const PROPERTY_LIVE: &str = "swmon_property_live_instances";
/// Per-property sampled engine-stage wall time in nanoseconds (histogram).
/// Label: `property`.
pub const PROPERTY_STAGE_NANOS: &str = "swmon_property_stage_nanos";
/// Per-property sampled instance-store occupancy (histogram).
/// Label: `property`.
pub const PROPERTY_OCCUPANCY: &str = "swmon_property_occupancy";

/// The complete exported catalog.
pub const ALL: &[&str] = &[
    EVENTS_IN,
    DELIVERIES,
    SKIPPED,
    BATCHES,
    SHARD_DELIVERED,
    SHARD_PROCESSED,
    SHARD_SHED,
    SHARD_RESTARTS,
    SHARD_CHECKPOINTS,
    SHARD_CHECKPOINT_NANOS,
    SHARD_CHECKPOINT_SLOTS,
    SHARD_REPLAYED,
    SHARD_DEGRADED,
    SHARD_VIOLATIONS,
    SHARD_QUEUE_DEPTH,
    SHARD_RECOVERY_NANOS,
    SHARD_STORE_PUBLISHED,
    SHARD_PUBLISH_LAG,
    SHARD_BACKLOG,
    STORE_SEALED,
    PROPERTY_SET_EPOCH,
    DEPLOYS_APPLIED,
    DEPLOYS_ROLLED_BACK,
    SHARD_QUIESCE_NANOS,
    PROPERTY_EVENTS,
    PROPERTY_LIVE,
    PROPERTY_STAGE_NANOS,
    PROPERTY_OCCUPANCY,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_duplicate_free_and_prometheus_shaped() {
        let mut seen = std::collections::HashSet::new();
        for name in ALL {
            assert!(seen.insert(name), "duplicate catalog entry {name}");
            assert!(name.starts_with("swmon_"), "{name} misses the namespace prefix");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name} is not snake_case"
            );
        }
        assert_eq!(ALL.len(), 28);
    }
}
