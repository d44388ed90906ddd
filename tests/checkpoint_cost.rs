//! A checkpoint costs what was written since the last one, not what is
//! live — gated on a count, so it holds on any machine.
//!
//! The shard keeps one image per monitor and each checkpoint has the
//! monitor patch it (`Monitor::snapshot_into`); `ShardProbe::checkpoint_slots`
//! counts the instance slots that copies. Rebuilding every image from
//! scratch — what checkpoints did before — copies every live instance every
//! time, which on the full catalog over thousands of flows is several times
//! more. This is the catalog-scale regime of the benchmark's `catalog-4k`
//! workload, where that rebuild was a third of the session's wall time
//! (docs/PERF.md).

use swmon::runtime::{RuntimeConfig, ShardedRuntime};
use swmon::sim::Duration;
use swmon_workloads::trace::multi_flow_trace;

#[test]
fn checkpoints_copy_what_changed_not_what_is_live() {
    // One shard, driven inline on this thread (the benchmark's pinned
    // configuration), so the gauges read after a `feed` are the ones the
    // checkpoint inside that `feed` saw.
    let cfg = RuntimeConfig::default();
    let rt = ShardedRuntime::new(swmon_props::catalog(), cfg).expect("the catalog is valid");
    let trace = multi_flow_trace(2048, 6_000, 0.4, 0.25, Duration::from_micros(2), 13);

    let mut session = rt.start();
    let (mut checkpoints, mut live_at_checkpoints, mut live_peak) = (0, 0, 0);
    for ev in &trace {
        session.feed(ev).expect("no faults injected");
        let stats = session.live_stats();
        if stats.checkpoints > checkpoints {
            checkpoints = stats.checkpoints;
            live_at_checkpoints += stats.live_instances;
            live_peak = live_peak.max(stats.live_instances);
        }
    }
    // No settle time: the windows still open stay open, so the engine
    // counters below are (all but) the writes the checkpoints saw.
    let out = session.finish(trace.last().unwrap().time).expect("run succeeds");
    assert_eq!(out.stats.unaccounted_loss(), 0);
    assert!(checkpoints >= 10, "{checkpoints} checkpoints");
    assert!(live_peak >= 10_000, "state should dwarf a window's writes: peak {live_peak}");

    let copied = out.telemetry.shard().checkpoint_slots.get();
    assert!(copied > 0);
    // Every copy answers for a write: a spawn, an advance or a removal.
    // (A slot never outnumbers the spawns that made it, which covers the
    // full first image and every fallback to one.)
    let e = &out.stats.engine;
    let writes = e.spawned + e.advanced + e.cleared + e.window_expired + e.evicted;
    assert!(copied <= writes, "copied {copied} slots for {writes} writes");
    // And against what rebuilding the images copies — every live instance,
    // at every checkpoint — it is a fraction.
    assert!(
        2 * copied < live_at_checkpoints,
        "copied {copied} slots; from-scratch images copy {live_at_checkpoints}"
    );
}
