//! Live-snapshot consistency: a [`Session::live_stats`] taken at any
//! moment of a run must (a) satisfy the no-silent-loss audit
//! (`unaccounted_loss() == 0`) and (b) be component-wise monotone towards
//! the final [`Outcome::stats`] — a dashboard polling a live run must never
//! show a number the finished run walks back. Once the run has finished
//! the two are one read of one ledger: (c) `out.stats` equals
//! `out.telemetry.live_stats()` field for field.

use proptest::prelude::*;
use swmon_props::firewall;
use swmon_runtime::{
    DeployPlan, Outcome, RuntimeConfig, RuntimeError, RuntimeStats, ShardedRuntime,
};
use swmon_sim::time::{Duration, Instant};
use swmon_telemetry::{names, Snapshot};
use swmon_workloads::trace::multi_flow_trace;

fn runtime(batch: usize) -> ShardedRuntime {
    let props = vec![
        firewall::return_not_dropped(),
        firewall::return_not_dropped_within(Duration::from_millis(5)),
    ];
    let cfg = RuntimeConfig { batch, checkpoint_every: 64, ..Default::default() };
    ShardedRuntime::new(props, cfg).expect("valid properties")
}

/// `a` must be component-wise ≤ `b` on every monotone counter.
fn assert_monotone(a: &RuntimeStats, b: &RuntimeStats, when: &str) {
    let pairs = [
        (a.events_in, b.events_in, "events_in"),
        (a.deliveries, b.deliveries, "deliveries"),
        (a.skipped, b.skipped, "skipped"),
        (a.batches, b.batches, "batches"),
        (a.restarts, b.restarts, "restarts"),
        (a.checkpoints, b.checkpoints, "checkpoints"),
        (a.replayed, b.replayed, "replayed"),
        (a.shed, b.shed, "shed"),
        (a.degraded_violations, b.degraded_violations, "degraded_violations"),
        (a.recovery_nanos, b.recovery_nanos, "recovery_nanos"),
    ];
    for (x, y, name) in pairs {
        assert!(x <= y, "{when}: {name} regressed: live {x} > final {y}");
    }
    assert_eq!(a.per_shard.len(), b.per_shard.len());
    for (s, (live, fin)) in a.per_shard.iter().zip(&b.per_shard).enumerate() {
        assert!(live.events <= fin.events, "{when}: shard {s} events");
        assert!(live.processed <= fin.processed, "{when}: shard {s} processed");
        assert!(live.shed <= fin.shed, "{when}: shard {s} shed");
        assert!(live.violations <= fin.violations, "{when}: shard {s} violations");
        assert!(live.restarts <= fin.restarts, "{when}: shard {s} restarts");
    }
}

/// The finished run's stats are the hub's live view plus the two things
/// the hub cannot carry (`gaps`, `engine`). `events` is the one field the
/// two reads fill from different counters — router-side for the final,
/// `processed + shed` for the live — so equality here is also the
/// no-silent-loss audit.
fn assert_final_equals_live(out: &Outcome) {
    let mut live = out.telemetry.live_stats();
    live.gaps = out.stats.gaps.clone();
    live.engine = out.stats.engine.clone();
    assert_eq!(format!("{live:#?}"), format!("{:#?}", out.stats));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn live_snapshots_reconcile_and_stay_monotone(
        batch in prop_oneof![Just(1usize), Just(4), Just(16)],
        packets in 200u32..800,
        seed in 0u64..1_000,
    ) {
        let rt = runtime(batch);
        let events = multi_flow_trace(32, packets, 0.4, 0.25, Duration::from_micros(2), seed);
        let mut session = rt.start();
        let mut snapshots = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            session.feed(ev).expect("no faults injected");
            // Sample mid-run at irregular points, including early and late.
            if i % 97 == 0 || i + 1 == events.len() / 2 {
                snapshots.push(session.live_stats());
            }
        }
        snapshots.push(session.live_stats());
        let out = session.finish(Instant::from_nanos(u64::MAX / 2)).expect("run succeeds");

        prop_assert_eq!(out.stats.unaccounted_loss(), 0);
        assert_final_equals_live(&out);
        for (i, snap) in snapshots.iter().enumerate() {
            prop_assert_eq!(snap.unaccounted_loss(), 0, "snapshot {} leaks", i);
            assert_monotone(snap, &out.stats, &format!("snapshot {i}"));
        }
        // Snapshots are monotone among themselves too (they were taken in
        // program order).
        for w in snapshots.windows(2) {
            assert_monotone(&w[0], &w[1], "successive snapshots");
        }
        // The final live view agrees with the final stats on the router
        // ledger, which the session thread owns.
        let last = session_final(&snapshots);
        prop_assert_eq!(last.events_in, out.stats.events_in);
        prop_assert_eq!(last.deliveries, out.stats.deliveries);
        prop_assert_eq!(last.skipped, out.stats.skipped);
    }
}

fn session_final(snapshots: &[RuntimeStats]) -> &RuntimeStats {
    snapshots.last().expect("at least one snapshot")
}

/// `property`'s value in a per-property series, if the page has one.
fn of<'a, T>(series: &'a [(swmon_telemetry::Key, T)], name: &str, property: &str) -> Option<&'a T> {
    let label = [("property".to_string(), property.to_string())];
    let mut hits = series.iter().filter(|(k, _)| k.name == name && k.labels == label);
    let hit = hits.next().map(|(_, value)| value);
    assert!(hits.next().is_none(), "duplicate {name} series for {property}");
    hit
}

fn events_of(page: &Snapshot, property: &str) -> Option<u64> {
    of(&page.counters, names::PROPERTY_EVENTS, property).copied()
}

#[test]
fn live_stats_track_recoveries_under_injected_faults() {
    swmon_runtime::silence_injected_panics();
    let props = vec![firewall::return_not_dropped()];
    let cfg = RuntimeConfig {
        batch: 2,
        checkpoint_every: 32,
        // A seq the ingress filters out is skipped, so inject on pairs:
        // at least one of each pair is an event the property can use.
        inject_faults: [40, 41, 90, 91].map(|seq| swmon_runtime::FaultPoint { seq }).to_vec(),
        ..Default::default()
    };
    let name = props[0].name.clone();
    let end = Instant::from_nanos(u64::MAX / 2);
    let events = multi_flow_trace(16, 400, 0.4, 0.25, Duration::from_micros(2), 5);
    let fault_free = RuntimeConfig { inject_faults: Vec::new(), ..cfg.clone() };
    let fault_free = ShardedRuntime::new(props.clone(), fault_free).expect("valid");
    let fault_free = fault_free.run(events.iter(), end).expect("nothing to recover from");

    let rt = ShardedRuntime::new(props, cfg).expect("valid");
    let mut session = rt.start();
    let mut examined = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        session.feed(ev).expect("recoverable faults only");
        if i % 23 == 0 {
            examined.extend(events_of(&session.telemetry().export(), &name));
        }
    }
    // Every mid-run view reconciles even while the shard crashes and replays.
    let mid = session.live_stats();
    assert_eq!(mid.unaccounted_loss(), 0);
    let out = session.finish(end).expect("recovers");
    assert!(out.stats.restarts >= 1, "at least one injected fault fired");
    assert_monotone(&mid, &out.stats, "mid-run under faults");
    assert_eq!(out.stats.unaccounted_loss(), 0);
    assert!(out.stats.replayed > 0 && out.stats.recovery_nanos > 0, "{:?}", out.stats);
    assert_final_equals_live(&out);
    // The property's exported count never walks back across a recovery,
    // and ends on every application: each event once, plus the replays.
    let page = out.telemetry.export();
    examined.extend(events_of(&page, &name));
    assert!(examined.windows(2).all(|w| w[0] <= w[1]), "count regressed: {examined:?}");
    assert_eq!(examined.last(), Some(&(out.stats.engine.events + out.stats.replayed)));
    // Its live gauge is the state it holds, however it got there.
    let live = |page: &Snapshot| of(&page.gauges, names::PROPERTY_LIVE, &name).copied();
    assert_eq!(live(&page), live(&fault_free.telemetry.export()));
    assert!(live(&page) > Some(0));
}

#[test]
fn final_stats_equal_the_live_view_across_deploys() {
    swmon_runtime::silence_injected_panics();
    let cfg = RuntimeConfig {
        batch: 4,
        checkpoint_every: 64,
        // The first prepare panics: that deploy rolls back.
        inject_deploy_faults: 1,
        ..Default::default()
    };
    let rt = ShardedRuntime::new(vec![firewall::return_not_dropped()], cfg).expect("valid");
    let events = multi_flow_trace(16, 400, 0.4, 0.25, Duration::from_micros(2), 9);
    let plan = DeployPlan::add(firewall::return_not_dropped_within(Duration::from_millis(5)));
    let mut session = rt.start();
    for (i, ev) in events.iter().enumerate() {
        session.feed(ev).expect("no worker faults injected");
        if i == 100 {
            let err = session.deploy(&plan).expect_err("injected prepare fault");
            assert!(matches!(err, RuntimeError::DeployRejected { epoch: 0, .. }), "{err}");
        }
        if i == 200 {
            assert_eq!(session.deploy(&plan).expect("second attempt commits").epoch, 1);
        }
    }
    let out = session.finish(Instant::from_nanos(u64::MAX / 2)).expect("run succeeds");
    let stats = &out.stats;
    assert_eq!((stats.deploys_rolled_back, stats.deploys_applied), (1, 1));
    assert_eq!(stats.property_set_epoch, 1);
    assert!(stats.quiesce_nanos > 0, "both deploys quiesced the shard");
    assert_eq!(stats.unaccounted_loss(), 0);
    assert_final_equals_live(&out);
}

/// A property shipped by `Session::deploy` is as observable as one the
/// session started with: its series appear with the commit (not with a
/// rolled-back attempt), and an upgrade continues the series it replaces.
#[test]
fn hot_deployed_properties_are_observable() {
    swmon_runtime::silence_injected_panics();
    let cfg = RuntimeConfig {
        batch: 4,
        checkpoint_every: 64,
        // The first prepare panics: that deploy rolls back.
        inject_deploy_faults: 1,
        ..Default::default()
    };
    let original = firewall::return_not_dropped();
    let added = firewall::return_not_dropped_within(Duration::from_millis(5));
    let rt = ShardedRuntime::new(vec![original.clone()], cfg).expect("valid");
    let events = multi_flow_trace(16, 600, 0.4, 0.25, Duration::from_micros(2), 9);
    let mut session = rt.start();
    let mut before_upgrade = 0;
    for (i, ev) in events.iter().enumerate() {
        session.feed(ev).expect("no worker faults injected");
        if i == 100 {
            session.deploy(&DeployPlan::add(added.clone())).expect_err("injected prepare fault");
            let page = session.telemetry().export();
            assert_eq!(events_of(&page, &added.name), None, "a rolled-back deploy adds no series");
        }
        if i == 200 {
            session.deploy(&DeployPlan::add(added.clone())).expect("second attempt commits");
        }
        if i == 400 {
            let plan = DeployPlan::upgrade(original.name.clone(), original.clone());
            assert_eq!(session.deploy(&plan).expect("upgrade commits").upgraded, 1);
            // The deploy's quiesce applied everything fed so far under the
            // old epoch, and the fresh monitors have seen nothing: the
            // count read here is complete.
            before_upgrade = events_of(&session.telemetry().export(), &original.name).unwrap();
        }
    }
    let out = session.finish(Instant::from_nanos(u64::MAX / 2)).expect("run succeeds");
    let page = out.telemetry.export();
    assert!(events_of(&page, &added.name) > Some(0), "the added property counts");
    let timed = of(&page.histograms, names::PROPERTY_STAGE_NANOS, &added.name);
    assert!(timed.is_some_and(|h| h.count > 0), "the added property is timed");
    assert!(before_upgrade > 0);
    assert!(events_of(&page, &original.name) > Some(before_upgrade), "the series continues");
    assert_final_equals_live(&out);
}
