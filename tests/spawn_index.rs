//! The spawn index is sound: on every event of the catalog's scenario
//! traffic, the multi-flow TCP trace and its faulted (lossy) variant,
//! whenever a catalog property's stage 0 would spawn — its pattern matches
//! and its guard holds — the index names that property, both as
//! `reachable` and as `spawnable`. Skipping an idle monitor the index does
//! not name is then exact (`crates/core/src/spawn.rs`).

mod common;

use swmon::monitor::{Bindings, Property, SpawnIndex, StageKind};
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
