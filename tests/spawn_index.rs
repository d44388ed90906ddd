//! The spawn index is sound: on every event of the catalog's scenario
//! traffic, the multi-flow TCP trace and its faulted (lossy) variant,
//! whenever a catalog property's stage 0 would spawn — its pattern matches
//! and its guard holds — the index names that property, both as
//! `reachable` and as `spawnable`. Skipping an idle monitor the index does
//! not name is then exact (`crates/core/src/spawn.rs`). The same index is
//! the router's one class-mask table: its masks are checked against a
//! per-property rule computed without it.

mod common;

use swmon::monitor::{
    event_class, Bindings, MonitorConfig, Property, Route, RoutingPlan, SpawnIndex, StageKind,
};
use swmon::runtime::Router;
use swmon::sim::{Duration, NetEvent};
use swmon::workloads::trace::{fault_plan, lossy_trace, multi_flow_trace};

/// Would `ev` spawn an instance of `p`?
fn spawns(p: &Property, ev: &NetEvent) -> bool {
    match &p.stages[0].kind {
        StageKind::Match { pattern, guard } => {
            pattern.matches(ev) && guard.eval(ev, &Bindings::new(), &[]).is_some()
        }
        StageKind::Deadline { .. } => false,
    }
}

fn traces() -> Vec<(&'static str, Vec<NetEvent>)> {
    let span = Duration::from_micros(2) * 4_000;
    let plan = fault_plan(0x5eed, span, Duration::from_nanos(span.as_nanos() / 4));
    vec![
        ("scenarios", common::scenario_trace(48, 13)),
        ("multi-flow", multi_flow_trace(64, 4_000, 0.4, 0.25, Duration::from_micros(2), 13)),
        ("lossy", lossy_trace(64, 4_000, 7, &plan).0),
    ]
}

#[test]
fn every_spawning_event_is_spawnable() {
    let props = swmon::props::catalog();
    let index = SpawnIndex::new(props.iter().enumerate());
    let mut spawned = vec![0usize; props.len()];
    for (name, trace) in traces() {
        for (n, ev) in trace.iter().enumerate() {
            let (reach, spawn) = (index.reachable(ev), index.spawnable(ev, u64::MAX));
            assert_eq!(spawn & !reach, 0, "{name} event {n}: spawnable outside reach");
            for (i, p) in props.iter().enumerate().filter(|(_, p)| spawns(p, ev)) {
                assert_ne!(spawn & (1 << i), 0, "{name} event {n} spawns {} unnamed", p.name);
                spawned[i] += 1;
            }
        }
    }
    // The check has teeth only where spawns happen: every property spawns.
    for (p, count) in props.iter().zip(&spawned) {
        assert!(*count > 0, "{} never spawned on the test traces", p.name);
    }
}

/// The router's masks follow one class-mask table, the catalog's spawn
/// index: checked against a rule computed per property, with no index. An
/// event reaches property `p` when its class is in `p`'s patterns' mask
/// and, unless `p` is pinned by its capacity-bounded store, it carries
/// `p`'s key fields; each such property is delivered on exactly one
/// shard, a pinned one on its home.
#[test]
fn router_masks_follow_one_class_mask_table() {
    let props = swmon::props::catalog();
    let plans: Vec<RoutingPlan> = props.iter().map(RoutingPlan::of).collect();
    let bounded = MonitorConfig { capacity: Some(64), ..Default::default() };
    let mut keyless = 0;
    for cfg in [MonitorConfig::default(), bounded] {
        for shards in [1, 4] {
            let router = Router::new(&props, &cfg, shards);
            let mut masks = vec![0u64; shards];
            for (name, trace) in traces() {
                for (n, ev) in trace.iter().enumerate() {
                    router.masks(ev, &mut masks);
                    let mut want = 0u64;
                    for (i, (p, plan)) in props.iter().zip(&plans).enumerate() {
                        let reached = p.event_class_mask() & event_class(ev) != 0;
                        let keyed = plan.route(ev) != Route::Skip;
                        keyless += usize::from(reached && !keyed);
                        want |= u64::from(reached && (keyed || cfg.capacity.is_some())) << i;
                    }
                    let at = format!("{name} event {n}, {shards} shards, {cfg:?}");
                    assert_eq!(masks.iter().fold(0, |all, m| all | m), want, "{at}");
                    for (i, route) in router.routes().iter().enumerate() {
                        if want >> i & 1 == 0 {
                            continue;
                        }
                        let on: Vec<usize> =
                            (0..shards).filter(|&s| masks[s] >> i & 1 != 0).collect();
                        assert_eq!(on.len(), 1, "{at}: property {i} on shards {on:?}");
                        if let Some(home) = route.home_shard() {
                            assert_eq!(on, [home], "{at}: pinned property {i} off its home");
                        }
                    }
                }
            }
        }
    }
    // The key rule has teeth: some reached events lack a property's key.
    assert!(keyless > 0);
}
