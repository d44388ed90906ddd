//! Deploy chaos: live deploys racing injected worker crashes.
//!
//! The quiesce/prepare/commit protocol (`docs/DEPLOY.md`) must hold not
//! just on a healthy session but *while* the supervision layer is crash-
//! restarting the shard around it. Three layers of adversity are combined
//! here: the workload is battered by network faults (drops, duplicates,
//! reorders, a switch-crash window), the deploy points are placed by
//! [`DeploySchedule::around_crash_windows`] to bracket that outage, and
//! `inject_faults` panics the shard mid-stream — `>= 3` crashes racing the
//! deploys. The contracts under all of it:
//!
//! * the merged output equals the compositional deploy oracle
//!   (`tests/deploy_differential.rs`), byte-identical per signature;
//! * `RuntimeStats::unaccounted_loss() == 0` — crashes and deploys may
//!   reshuffle work, but nothing vanishes silently;
//! * a deploy whose prepare phase dies (injected via
//!   `inject_deploy_faults`) rolls the session back: it
//!   finishes byte-identical to one that never attempted the plan, and a
//!   retry of the same plan then succeeds.

use swmon::monitor::{MonitorConfig, Property};
use swmon::runtime::{
    name_signature, reference_records, silence_injected_panics, DeployPlan, RuntimeConfig,
    RuntimeError, ShardedRuntime, ViolationRecord,
};
use swmon::sim::{
    CrashWindow, DeploySchedule, Duration, FaultPlan, Instant, NetEvent, PortNo, SwitchId,
};
use swmon_bench::experiments::crash_schedule;
use swmon_props::firewall;
use swmon_workloads::trace::lossy_trace;

/// The match-only property removed mid-chaos (see
/// `tests/deploy_differential.rs` on why removal differentials avoid
/// deadline-bearing properties).
const VICTIM: &str = "firewall/return-not-dropped";

fn renamed(p: Property, name: &str) -> Property {
    Property { name: name.into(), ..p }
}

/// The chaos workload of `tests/chaos_differential.rs`: the E13-shaped
/// interleaved trace through a seeded fault plan with one switch-crash
/// window, plus the deploy schedule bracketing that window.
fn chaos_setup() -> (Vec<NetEvent>, Instant, DeploySchedule) {
    let crashes = vec![CrashWindow {
        switch: SwitchId(0),
        down: Instant::ZERO + Duration::from_micros(400),
        up: Instant::ZERO + Duration::from_micros(700),
        port: PortNo(0),
    }];
    let plan = FaultPlan {
        seed: 0x5eed,
        drop_fraction: 0.03,
        duplicate_fraction: 0.02,
        reorder_fraction: 0.03,
        crashes: crashes.clone(),
    };
    let (trace, log) = lossy_trace(48, 1_200, 7, &plan);
    assert!(log.accounted(), "the fault plan itself must account its edits: {log:?}");
    let end = trace.last().unwrap().time + Duration::from_secs(120);
    let schedule = DeploySchedule::around_crash_windows(&crashes, Duration::from_micros(100));
    assert_eq!(schedule.points.len(), 3, "before / during / after the outage");
    (trace, end, schedule)
}

/// Sorted index-blind signatures ([`name_signature`]), as in
/// `tests/deploy_differential.rs`.
fn sorted_sigs(records: &[ViolationRecord]) -> Vec<String> {
    let mut v: Vec<String> = records.iter().map(name_signature).collect();
    v.sort();
    v
}

fn reference_sigs(props: &[Property], events: &[NetEvent], end: Instant) -> Vec<String> {
    sorted_sigs(&reference_records(props, MonitorConfig::default(), events, end))
}

/// The headline check: three deploys (add, remove, upgrade) bracketing a
/// switch outage, with five worker panics injected across the shards —
/// output equals the compositional oracle, and the delivered/processed/
/// shed ledger balances exactly.
#[test]
fn deploys_racing_crashes_match_the_oracle_with_zero_loss() {
    silence_injected_panics();
    let (trace, end, schedule) = chaos_setup();
    let parts = schedule.split(&trace);
    let offsets: Vec<usize> = parts
        .iter()
        .scan(0usize, |acc, p| {
            *acc += p.len();
            Some(*acc)
        })
        .collect();
    for p in &parts {
        assert!(!p.is_empty(), "every deploy point lands strictly inside the trace");
    }

    let hot_a1 = renamed(firewall::return_not_dropped(), "firewall/hot-a1");
    let hot_a2 =
        renamed(firewall::return_not_dropped_within(Duration::from_micros(200)), "firewall/hot-a2");
    let plans = [
        DeployPlan::add(hot_a1.clone()),
        DeployPlan::remove(VICTIM),
        DeployPlan::upgrade("firewall/hot-a1", hot_a2.clone()),
    ];

    // Compositional oracle: survivors over the whole trace, the victim up
    // to its removal, hot-a1 over its add..upgrade window, hot-a2 (fresh
    // state) over the final suffix.
    let survivors: Vec<Property> =
        swmon_props::catalog().into_iter().filter(|p| p.name != VICTIM).collect();
    let mut expect = reference_sigs(&survivors, &trace, end);
    expect.extend(reference_sigs(&[firewall::return_not_dropped()], &trace[..offsets[1]], end));
    expect.extend(reference_sigs(
        std::slice::from_ref(&hot_a1),
        &trace[offsets[0]..offsets[2]],
        end,
    ));
    expect.extend(reference_sigs(std::slice::from_ref(&hot_a2), &trace[offsets[2]..], end));
    expect.sort();

    let cfg = RuntimeConfig {
        checkpoint_every: 128,
        inject_faults: crash_schedule(trace.len(), 5),
        ..Default::default()
    };
    let rt = ShardedRuntime::new(swmon_props::catalog(), cfg).expect("catalog is valid");
    let mut session = rt.start();
    for (k, part) in parts.iter().enumerate() {
        if k > 0 {
            let outcome = session.deploy(&plans[k - 1]).expect("a valid plan deploys");
            assert_eq!(outcome.epoch, k as u64);
        }
        for ev in *part {
            session.feed(ev).expect("crashes stay within the restart budget");
        }
    }
    let out = session.finish(end).expect("crashes stay within the restart budget");

    assert!(out.stats.restarts >= 3, "schedule must actually fire: {:?}", out.stats);
    assert!(out.stats.replayed > 0, "recovery must replay the journal gap");
    assert_eq!(out.stats.shed, 0, "an adequate journal sheds nothing");
    assert_eq!(out.stats.unaccounted_loss(), 0, "no silent loss: {:?}", out.stats);
    assert_eq!(out.stats.deploys_applied, 3);
    assert_eq!(out.stats.property_set_epoch, 3);
    assert!(out.stats.quiesce_nanos > 0, "three barriers must cost something");
    assert_eq!(
        sorted_sigs(&out.records),
        expect,
        "deploys racing crashes diverged from the compositional oracle"
    );
    // Provenance: the final property set's hot-a2 only ever raised under
    // the last epoch.
    assert!(out
        .records
        .iter()
        .filter(|r| r.violation.property == hot_a2.name)
        .all(|r| r.epoch == 3));
}

/// A prepare-phase crash rejects the deploy and rolls the session back: it
/// finishes byte-identical to one that never attempted the plan — while
/// ordinary shard crashes rage on.
#[test]
fn failed_prepare_rolls_back_byte_identical() {
    silence_injected_panics();
    let (trace, end, schedule) = chaos_setup();
    let k = trace.partition_point(|e| e.time < schedule.points[1]);
    let expect = reference_sigs(&swmon_props::catalog(), &trace, end);

    let cfg = RuntimeConfig {
        checkpoint_every: 128,
        inject_faults: crash_schedule(trace.len(), 4),
        inject_deploy_faults: 1,
        ..Default::default()
    };
    let rt = ShardedRuntime::new(swmon_props::catalog(), cfg).expect("catalog is valid");
    let mut session = rt.start();
    for ev in &trace[..k] {
        session.feed(ev).expect("crashes stay within the restart budget");
    }
    let plan = DeployPlan::add(renamed(firewall::return_not_dropped(), "firewall/hot-add"));
    let err = session.deploy(&plan).unwrap_err();
    match &err {
        RuntimeError::DeployRejected { epoch: 0, reason } => {
            assert!(reason.contains("shard 0"), "the failing shard is named: {reason}");
        }
        other => panic!("a prepare crash must reject, not kill the session: {other}"),
    }
    assert_eq!(session.epoch(), 0, "rollback leaves the epoch untouched");
    for ev in &trace[k..] {
        session.feed(ev).expect("crashes stay within the restart budget");
    }
    let out = session.finish(end).expect("the session outlives the rollback");
    assert!(out.stats.restarts >= 3, "shard crashes must fire alongside the rollback");
    assert_eq!(out.stats.unaccounted_loss(), 0);
    assert_eq!(out.stats.deploys_applied, 0);
    assert_eq!(out.stats.deploys_rolled_back, 1);
    assert!(out.records.iter().all(|r| r.epoch == 0), "no record claims a committed epoch");
    assert_eq!(
        sorted_sigs(&out.records),
        expect,
        "a rolled-back deploy must be invisible in the output"
    );
}

/// After a rolled-back deploy, retrying the *same* plan succeeds (the
/// injected fault is consumed) and the session lands on the composed
/// oracle for the retry's actual deploy point.
#[test]
fn retry_after_rollback_succeeds() {
    silence_injected_panics();
    let (trace, end, _) = chaos_setup();
    let third = trace.len() / 3;
    let added = renamed(firewall::return_not_dropped(), "firewall/hot-add");
    let mut expect = reference_sigs(&swmon_props::catalog(), &trace, end);
    expect.extend(reference_sigs(std::slice::from_ref(&added), &trace[2 * third..], end));
    expect.sort();

    let cfg =
        RuntimeConfig { checkpoint_every: 128, inject_deploy_faults: 1, ..Default::default() };
    let rt = ShardedRuntime::new(swmon_props::catalog(), cfg).expect("catalog is valid");
    let mut session = rt.start();
    let plan = DeployPlan::add(added.clone());
    for ev in &trace[..third] {
        session.feed(ev).unwrap();
    }
    assert!(session.deploy(&plan).is_err(), "the first attempt hits the injected fault");
    for ev in &trace[third..2 * third] {
        session.feed(ev).unwrap();
    }
    let outcome = session.deploy(&plan).expect("the injected fault was consumed");
    assert_eq!(outcome.epoch, 1);
    assert_eq!(outcome.added, 1);
    for ev in &trace[2 * third..] {
        session.feed(ev).unwrap();
    }
    let out = session.finish(end).unwrap();
    assert_eq!(out.stats.deploys_rolled_back, 1);
    assert_eq!(out.stats.deploys_applied, 1);
    assert_eq!(out.stats.unaccounted_loss(), 0);
    assert_eq!(sorted_sigs(&out.records), expect, "the retry deploys at its own point");
}
