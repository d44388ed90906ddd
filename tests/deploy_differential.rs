//! Deploy differential: a session that hot-deploys a catalog change at
//! event `k` must be equivalent to runs that never deployed at all —
//! composably, per property origin:
//!
//! * **retained** properties carry state across the barrier, so their
//!   violations equal a fresh run over the *whole* trace;
//! * **added** (and upgraded-to) properties start fresh, so their
//!   violations equal a fresh run over the *suffix* alone;
//! * **removed** (and upgraded-from) properties stop at the barrier, so
//!   their violations equal a fresh run over the *prefix* alone.
//!
//! The oracle is checked over the full 21-property catalog, with a
//! proptest sweep over deploy points.
//! Comparisons use an index-normalized signature (property *name*, not
//! position): a removal shifts the indices of everything behind it, which
//! is exactly why `ViolationRecord::epoch` — not the index — is the
//! durable provenance (`docs/DEPLOY.md`).
//!
//! Removed/upgraded-from properties in these differentials are
//! deliberately match-only (no `within` deadlines): a pending deadline at
//! the barrier is dropped with the monitor — a removal forfeits it by
//! design, and a fresh prefix run, which drains its timers at the end,
//! is no oracle for that sliver of behaviour.

use proptest::prelude::*;
use swmon::monitor::{Monitor, MonitorConfig, Property};
use swmon::packet::{Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
use swmon::runtime::{
    name_signature, reference_records, DeployPlan, Outcome, RuntimeConfig, RuntimeError,
    ShardedRuntime, ViolationRecord,
};
use swmon::sim::{Duration, EgressAction, Instant, NetEvent, PortNo, TraceBuilder};
use swmon_props::firewall;

/// The property removed/upgraded in these tests: match-only (see module
/// docs for why the barrier semantics of deadline properties have no
/// prefix-run oracle under removal).
const VICTIM: &str = "firewall/return-not-dropped";

fn full_catalog() -> Vec<Property> {
    swmon_props::catalog()
}

/// A property under a fresh name, so added/upgraded-to versions never
/// collide with their catalog siblings.
fn renamed(p: Property, name: &str) -> Property {
    Property { name: name.into(), ..p }
}

/// The hot-added property of most tests: a short-window firewall variant,
/// deadline-bearing on purpose — fresh monitors must schedule and fire
/// timers entirely within the suffix.
fn incoming() -> Property {
    renamed(
        firewall::return_not_dropped_within(Duration::from_micros(150)),
        "firewall/return-not-dropped-hotfix",
    )
}

/// A compact generated event, as in `tests/runtime_differential.rs`.
#[derive(Debug, Clone, Copy)]
struct GenEvent {
    pair: u8,
    outbound: bool,
    dropped: bool,
    gap_steps: u8,
}

fn gen_event() -> impl Strategy<Value = GenEvent> {
    (0u8..6, any::<bool>(), any::<bool>(), 1u8..4).prop_map(
        |(pair, outbound, dropped, gap_steps)| GenEvent { pair, outbound, dropped, gap_steps },
    )
}

fn render_trace(events: &[GenEvent], step: Duration) -> Vec<NetEvent> {
    let mut tb = TraceBuilder::new();
    let mut t = Instant::ZERO;
    for e in events {
        let a = Ipv4Address::new(10, 0, 0, e.pair + 1);
        let b = Ipv4Address::new(192, 0, 2, e.pair + 1);
        let (src, dst, in_port) = if e.outbound { (a, b, PortNo(0)) } else { (b, a, PortNo(1)) };
        let pkt = PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, 1),
            MacAddr::new(2, 0, 0, 0, 0, 2),
            src,
            dst,
            4000,
            443,
            TcpFlags::ACK,
            &[],
        );
        t += step * u64::from(e.gap_steps);
        let action = if e.dropped {
            EgressAction::Drop
        } else {
            EgressAction::Output(PortNo(if e.outbound { 1 } else { 0 }))
        };
        tb.at(t).arrive_depart(in_port, pkt, action);
    }
    tb.build()
}

/// A deterministic trace rich in firewall traffic (forwarded requests,
/// dropped replies) for the non-proptest differentials.
fn fixed_trace(n: usize) -> (Vec<NetEvent>, Instant) {
    // Request/reply pairs per flow: even events are outbound requests,
    // odd events the matching reply — dropped half the time, so firewall
    // violations occur throughout the trace (prefix and suffix alike).
    let events: Vec<GenEvent> = (0..n)
        .map(|i| {
            let flow = i / 2;
            GenEvent {
                pair: (flow % 6) as u8,
                outbound: i % 2 == 0,
                dropped: i % 2 == 1 && flow % 4 < 2,
                gap_steps: 1 + (i % 3) as u8,
            }
        })
        .collect();
    let trace = render_trace(&events, Duration::from_micros(50));
    let end = trace.last().unwrap().time + Duration::from_secs(120);
    (trace, end)
}

/// Sorted index-blind signatures ([`name_signature`]): the comparison
/// form that survives the index shifts a removal causes.
fn sorted_sigs(records: &[ViolationRecord]) -> Vec<String> {
    let mut v: Vec<String> = records.iter().map(name_signature).collect();
    v.sort();
    v
}

fn reference_sigs(props: &[Property], events: &[NetEvent], end: Instant) -> Vec<String> {
    sorted_sigs(&reference_records(props, MonitorConfig::default(), events, end))
}

/// Run a session that feeds the prefix, deploys `plan`, feeds the suffix.
fn run_with_deploy(
    props: Vec<Property>,
    prefix: &[NetEvent],
    plan: &DeployPlan,
    suffix: &[NetEvent],
    end: Instant,
) -> Outcome {
    let rt =
        ShardedRuntime::new(props, RuntimeConfig::default()).expect("catalog properties are valid");
    let mut session = rt.start();
    for ev in prefix {
        session.feed(ev).expect("fault-free feed");
    }
    let outcome = session.deploy(plan).expect("a valid plan deploys");
    assert_eq!(outcome.epoch, 1);
    assert!(outcome.quiesce_nanos > 0, "the shard acks the barrier");
    for ev in suffix {
        session.feed(ev).expect("fault-free feed");
    }
    session.finish(end).expect("fault-free finish")
}

/// Hot **add** at the midpoint: retained catalog ≡ full run; the added
/// deadline property ≡ a fresh run over the suffix alone.
#[test]
fn hot_add_matches_full_run_plus_fresh_suffix_run() {
    let (trace, end) = fixed_trace(160);
    let k = trace.len() / 2;
    let added = incoming();
    let mut expect = reference_sigs(&full_catalog(), &trace, end);
    expect.extend(reference_sigs(std::slice::from_ref(&added), &trace[k..], end));
    expect.sort();

    let plan = DeployPlan::add(added.clone());
    let out = run_with_deploy(full_catalog(), &trace[..k], &plan, &trace[k..], end);
    assert_eq!(sorted_sigs(&out.records), expect, "hot add diverged from the compositional oracle");
    // Epoch provenance: everything the hot-added property raised was raised
    // under epoch 1, and both epochs appear in the output.
    assert!(out
        .records
        .iter()
        .filter(|r| r.violation.property == added.name)
        .all(|r| r.epoch == 1));
    assert!(out.records.iter().any(|r| r.epoch == 0), "prefix violations keep epoch 0");
    assert_eq!(out.stats.deploys_applied, 1);
    assert_eq!(out.stats.property_set_epoch, 1);
    assert_eq!(out.stats.unaccounted_loss(), 0);
}

/// Hot **remove** at the midpoint: the survivors ≡ full run; the removed
/// property ≡ a fresh run over the prefix alone — violations it already
/// raised are retained, everything after the barrier is gone.
#[test]
fn hot_remove_matches_survivors_plus_prefix_run() {
    let (trace, end) = fixed_trace(160);
    let k = trace.len() / 2;
    let survivors: Vec<Property> =
        full_catalog().into_iter().filter(|p| p.name != VICTIM).collect();
    assert_eq!(survivors.len(), full_catalog().len() - 1, "the victim is in the catalog");
    let removed = vec![firewall::return_not_dropped()];
    let mut expect = reference_sigs(&survivors, &trace, end);
    expect.extend(reference_sigs(&removed, &trace[..k], end));
    expect.sort();

    let out =
        run_with_deploy(full_catalog(), &trace[..k], &DeployPlan::remove(VICTIM), &trace[k..], end);
    assert_eq!(
        sorted_sigs(&out.records),
        expect,
        "hot remove diverged from the compositional oracle"
    );
    assert!(
        out.records.iter().filter(|r| r.violation.property == VICTIM).all(|r| r.epoch == 0),
        "the removed property only ever raised under epoch 0"
    );
    assert_eq!(out.stats.unaccounted_loss(), 0);
    assert_retained_state_carries_over(&trace[..k]);
}

/// Removing [`VICTIM`] after `prefix` shifts every survivor behind it to a
/// new catalog position: each one's instances must arrive at its new
/// position — a survivor restored from the wrong position's image would
/// hold another property's count, or none. Liveness at the barrier is read
/// off a reference monitor; after the deploy, off the session's
/// per-property gauge.
fn assert_retained_state_carries_over(prefix: &[NetEvent]) {
    let catalog = full_catalog();
    let rt = ShardedRuntime::new(catalog.clone(), RuntimeConfig::default()).unwrap();
    let mut session = rt.start();
    prefix.iter().for_each(|ev| session.feed(ev).expect("fault-free feed"));
    session.deploy(&DeployPlan::remove(VICTIM)).expect("a valid plan deploys");
    let page = session.telemetry().export();
    let live_now = |name: &str| {
        let labels = [("property".to_string(), name.to_string())];
        let mut gauges = page.gauges.iter();
        let series =
            gauges.find(|(k, _)| k.name == "swmon_property_live_instances" && k.labels == labels);
        series.map_or(0, |(_, live)| *live)
    };
    let victim = catalog.iter().position(|p| p.name == VICTIM).expect("the victim is listed");
    let mut shifted = 0;
    for p in &catalog[victim + 1..] {
        let mut reference = Monitor::with_defaults(p.clone());
        prefix.iter().for_each(|ev| reference.process(ev));
        let live = reference.live_instances() as u64;
        shifted += usize::from(live > 0);
        assert_eq!(live_now(&p.name), live, "{} lost its state across the shift", p.name);
    }
    assert!(shifted > 0, "no property behind the victim holds live instances at the barrier");
}

/// Hot **upgrade** at the midpoint: old version ≡ prefix run, new version
/// (fresh state, deadline-bearing) ≡ suffix run, everyone else ≡ full run.
#[test]
fn hot_upgrade_runs_the_new_version_fresh_over_the_suffix() {
    let (trace, end) = fixed_trace(160);
    let k = trace.len() / 2;
    let new_version = incoming();
    let rest: Vec<Property> = full_catalog().into_iter().filter(|p| p.name != VICTIM).collect();
    let mut expect = reference_sigs(&rest, &trace, end);
    expect.extend(reference_sigs(&[firewall::return_not_dropped()], &trace[..k], end));
    expect.extend(reference_sigs(std::slice::from_ref(&new_version), &trace[k..], end));
    expect.sort();

    let plan = DeployPlan::upgrade(VICTIM, new_version);
    let out = run_with_deploy(full_catalog(), &trace[..k], &plan, &trace[k..], end);
    assert_eq!(
        sorted_sigs(&out.records),
        expect,
        "hot upgrade diverged from the compositional oracle"
    );
}

/// A deploy issued while batches are still staged in the session arena
/// loses nothing: the barrier's first act is a dispatch, so every
/// pre-deploy event reaches the shard before quiesce. Batches here are
/// larger than the trace and the staleness clock is parked, so *all*
/// prefix events are pending at the deploy point — the worst case.
#[test]
fn deploy_with_pending_batches_loses_no_events() {
    let (trace, end) = fixed_trace(160);
    let k = trace.len() / 3 + 1; // deliberately off any batch boundary
    let added = incoming();
    let mut expect = reference_sigs(&full_catalog(), &trace, end);
    expect.extend(reference_sigs(std::slice::from_ref(&added), &trace[k..], end));
    expect.sort();

    let cfg = RuntimeConfig {
        batch: 4096,          // never fills mid-run
        flush_every: 1 << 30, // staleness clock never fires
        ..RuntimeConfig::default()
    };
    let rt = ShardedRuntime::new(full_catalog(), cfg).expect("catalog properties are valid");
    let mut session = rt.start();
    for ev in &trace[..k] {
        session.feed(ev).expect("fault-free feed");
    }
    let outcome = session.deploy(&DeployPlan::add(added.clone())).expect("add deploys");
    assert_eq!(outcome.epoch, 1);
    for ev in &trace[k..] {
        session.feed(ev).expect("fault-free feed");
    }
    let out = session.finish(end).expect("fault-free finish");
    assert_eq!(
        sorted_sigs(&out.records),
        expect,
        "a deploy over pending batches lost or reordered events"
    );
    assert_eq!(out.stats.unaccounted_loss(), 0);
}

/// A rejected plan is a no-op: the session stays on its epoch and the
/// final output is byte-identical to a session that never submitted it.
#[test]
fn rejected_plan_leaves_the_session_byte_identical() {
    let (trace, end) = fixed_trace(120);
    let k = trace.len() / 2;
    let baseline = {
        let rt = ShardedRuntime::new(full_catalog(), RuntimeConfig::default()).unwrap();
        rt.run(&trace, end).expect("fault-free run")
    };

    let rt = ShardedRuntime::new(full_catalog(), RuntimeConfig::default()).unwrap();
    let mut session = rt.start();
    for ev in &trace[..k] {
        session.feed(ev).unwrap();
    }
    let err = session.deploy(&DeployPlan::remove("no/such/property")).unwrap_err();
    assert!(
        matches!(err, RuntimeError::DeployRejected { epoch: 0, .. }),
        "a bad plan is rejected, not fatal: {err}"
    );
    assert_eq!(session.epoch(), 0, "rejection leaves the epoch untouched");
    for ev in &trace[k..] {
        session.feed(ev).unwrap();
    }
    let out = session.finish(end).expect("the session outlives the rejection");
    assert_eq!(out.signatures(), baseline.signatures(), "rollback must be byte-identical");
    assert_eq!(out.stats.deploys_applied, 0);
    assert_eq!(out.stats.deploys_rolled_back, 1);
    assert!(out.records.iter().all(|r| r.epoch == 0));
}

/// Epochs are monotone across successive deploys, and each record carries
/// the epoch it was raised under.
#[test]
fn successive_deploys_bump_the_epoch_monotonically() {
    let (trace, end) = fixed_trace(120);
    let third = trace.len() / 3;
    let rt = ShardedRuntime::new(full_catalog(), RuntimeConfig::default()).unwrap();
    let mut session = rt.start();
    assert_eq!(session.epoch(), 0);
    for ev in &trace[..third] {
        session.feed(ev).unwrap();
    }
    session.deploy(&DeployPlan::add(incoming())).expect("add deploys");
    assert_eq!(session.epoch(), 1);
    for ev in &trace[third..2 * third] {
        session.feed(ev).unwrap();
    }
    let outcome =
        session.deploy(&DeployPlan::remove("firewall/return-not-dropped-hotfix")).unwrap();
    assert_eq!(outcome.epoch, 2);
    assert_eq!(outcome.removed, 1);
    assert_eq!(session.epoch(), 2);
    for ev in &trace[2 * third..] {
        session.feed(ev).unwrap();
    }
    let out = session.finish(end).unwrap();
    assert_eq!(out.stats.deploys_applied, 2);
    assert_eq!(out.stats.property_set_epoch, 2);
    assert!(out.records.iter().all(|r| r.epoch <= 2));
}

/// CI smoke variant (deploy-smoke job): the hot-add differential on a
/// smaller trace. Must stay fast.
#[test]
fn smoke_hot_add_differential() {
    let (trace, end) = fixed_trace(60);
    let k = trace.len() / 2;
    let added = incoming();
    let mut expect = reference_sigs(&full_catalog(), &trace, end);
    expect.extend(reference_sigs(std::slice::from_ref(&added), &trace[k..], end));
    expect.sort();
    let plan = DeployPlan::add(added);
    let out = run_with_deploy(full_catalog(), &trace[..k], &plan, &trace[k..], end);
    assert_eq!(sorted_sigs(&out.records), expect, "smoke diverged");
    assert_eq!(out.stats.unaccounted_loss(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The deploy point is adversarial: wherever the barrier lands in a
    /// random trace — including before the first and after the last event
    /// — the hot-add compositional oracle holds.
    #[test]
    fn hot_add_differential_over_random_deploy_points(
        events in proptest::collection::vec(gen_event(), 2..32),
        split_pct in 0u32..=100,
    ) {
        let trace = render_trace(&events, Duration::from_micros(50));
        let end = trace.last().unwrap().time + Duration::from_secs(120);
        let k = (trace.len() * split_pct as usize / 100).min(trace.len());
        let added = incoming();
        let mut expect = reference_sigs(&full_catalog(), &trace, end);
        expect.extend(reference_sigs(std::slice::from_ref(&added), &trace[k..], end));
        expect.sort();
        let plan = DeployPlan::add(added);
        let out = run_with_deploy(full_catalog(), &trace[..k], &plan, &trace[k..], end);
        prop_assert_eq!(
            sorted_sigs(&out.records),
            expect,
            "deploy at {}/{} diverged", k, trace.len()
        );
    }
}
