//! **E17 (extension) — cost of live property deployment.** The deploy
//! plane (`docs/DEPLOY.md`) trades a quiesce barrier for the ability to
//! change the property set without restarting the session. This
//! experiment prices that trade over the full 21-property catalog on the
//! `multi_flow_trace` workload:
//!
//! * **quiesce pause** — p50/p99 of the shard's drain+checkpoint+
//!   snapshot barrier, across every deploy of the row;
//! * **throughput dip** — events/s of a session performing three
//!   mid-stream deploys versus its no-deploy twin, in percent of the twin
//!   (positive = deploys cost throughput; one run each, so small values
//!   of either sign are noise);
//! * **rollback latency** — wall time for a deploy whose prepare phase
//!   dies to reject and roll the session back.
//!
//! Every row is differentially verified. Deploy rows check the
//! compositional oracle of `tests/deploy_differential.rs` — retained
//! properties byte-identical to a full fresh run, hot-added properties
//! byte-identical to a fresh run over their post-deploy suffix (compared
//! via [`swmon_runtime::name_signature`]) — plus zero unaccounted loss;
//! the rollback row must be byte-identical to a session that never
//! attempted the plan. `"verified": false` anywhere fails `repro`.

use super::crash_schedule;
use crate::report::{Cell, Report};
use std::time::Instant as WallInstant;
use swmon_core::{MonitorConfig, Property};
use swmon_props::firewall;
use swmon_runtime::{
    name_signature, reference_records, signature, silence_injected_panics, DeployPlan,
    RuntimeConfig, RuntimeError, ShardedRuntime, ViolationRecord,
};
use swmon_sim::time::{Duration, Instant};
use swmon_sim::trace::NetEvent;

/// Deploys performed by the deploy rows.
pub const DEPLOYS: usize = 3;

/// What every row reports. `deploys` / `rollbacks` are deploys committed /
/// rejected and rolled back; the quiesce columns are the shard's pause
/// across the row's deploys; `rollback_us` is the wall time of the
/// rejected deploy; `dip_pct` is the throughput dip versus the no-deploy
/// twin; `unaccounted` must be 0 everywhere.
const COLUMNS: [&str; 10] = [
    "events_per_sec",
    "violations",
    "deploys",
    "rollbacks",
    "quiesce_p50_us",
    "quiesce_p99_us",
    "rollback_us",
    "dip_pct",
    "restarts",
    "unaccounted",
];

/// A supervised session's cells: throughput and final stats, plus what
/// only some rows have (quiesce pauses in nanoseconds, a rollback time, a
/// baseline events/s to report the dip against).
fn session_cells(
    out: &swmon_runtime::Outcome,
    secs: f64,
    mut quiesce: Vec<u64>,
    rollback_us: Option<f64>,
    baseline_eps: Option<f64>,
) -> Vec<Cell> {
    let s = &out.stats;
    let eps = s.events_in as f64 / secs;
    quiesce.sort_unstable();
    vec![
        Cell::Int(eps as u64),
        out.records.len().into(),
        s.deploys_applied.into(),
        s.deploys_rolled_back.into(),
        quantile_us(&quiesce, 0.50),
        quantile_us(&quiesce, 0.99),
        rollback_us.into(),
        baseline_eps.map(|base| (base - eps) / base * 100.0).into(),
        s.restarts.into(),
        s.unaccounted_loss().into(),
    ]
}

/// The hot-added properties: match-only firewall variants under fresh
/// names (deadline-free, so the compositional oracle is exact — see
/// `tests/deploy_differential.rs` module docs).
fn hot_prop(i: usize) -> Property {
    Property { name: format!("firewall/hot-add-{i}"), ..firewall::return_not_dropped() }
}

fn sorted_name_sigs(records: &[ViolationRecord]) -> Vec<String> {
    let mut v: Vec<String> = records.iter().map(name_signature).collect();
    v.sort();
    v
}

/// `q`-th quantile (nearest-rank) of a sorted sample of nanoseconds, in
/// microseconds; no sample (a row without deploys), no cell.
fn quantile_us(sorted: &[u64], q: f64) -> Cell {
    if sorted.is_empty() {
        return Cell::None;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    (sorted[idx] as f64 / 1_000.0).into()
}

/// Feed the trace with `DEPLOYS` evenly spaced hot-adds; returns the row
/// ingredients. The compositional oracle is threaded in by the caller.
struct DeployRun {
    out: swmon_runtime::Outcome,
    secs: f64,
    quiesce: Vec<u64>,
    deploy_points: Vec<usize>,
}

fn run_with_deploys(rt: &ShardedRuntime, trace: &[NetEvent], end: Instant) -> DeployRun {
    let deploy_points: Vec<usize> =
        (1..=DEPLOYS).map(|i| trace.len() * i / (DEPLOYS + 1)).collect();
    let t0 = WallInstant::now();
    let mut session = rt.start();
    let mut quiesce = Vec::new();
    let mut next = 0;
    for (i, ev) in trace.iter().enumerate() {
        if next < deploy_points.len() && i == deploy_points[next] {
            let outcome =
                session.deploy(&DeployPlan::add(hot_prop(next))).expect("a valid hot-add deploys");
            quiesce.push(outcome.quiesce_nanos);
            next += 1;
        }
        session.feed(ev).expect("within the restart budget");
    }
    let out = session.finish(end).expect("within the restart budget");
    let secs = t0.elapsed().as_secs_f64();
    DeployRun { out, secs, quiesce, deploy_points }
}

/// The compositional oracle for a `run_with_deploys` session: the whole
/// initial catalog over the full trace, plus each hot-added property over
/// its own post-deploy suffix.
fn deploy_oracle(
    props: &[Property],
    cfg: MonitorConfig,
    trace: &[NetEvent],
    end: Instant,
    deploy_points: &[usize],
) -> Vec<String> {
    let mut expect = sorted_name_sigs(&reference_records(props, cfg, trace, end));
    for (i, &k) in deploy_points.iter().enumerate() {
        expect.extend(sorted_name_sigs(&reference_records(&[hot_prop(i)], cfg, &trace[k..], end)));
    }
    expect.sort();
    expect
}

/// Run the deploy benchmark over a `flows`-flow, `packets`-packet
/// workload (`multi_flow_trace`, the shape `tests/runtime_differential.rs`
/// sweeps).
pub fn run(flows: u32, packets: u32) -> Report {
    silence_injected_panics();
    let props = swmon_props::catalog();
    let trace = swmon_workloads::trace::multi_flow_trace(
        flows,
        packets,
        0.4,
        0.25,
        Duration::from_micros(2),
        13,
    );
    let end = trace.last().map(|e| e.time + Duration::from_secs(120)).unwrap_or(Instant::ZERO);

    let mut report = Report::new("e17-deploy", &COLUMNS);
    report.fact("events", trace.len());
    report.note(&format!(
        "Deploy rows hot-add {DEPLOYS} properties mid-stream and must match the compositional\n\
         oracle (full run for the retained catalog, suffix run for each hot-added property);\n\
         the rollback row must be byte-identical to a session that never attempted its plan\n\
         (docs/DEPLOY.md)."
    ));

    // Reference row: the single-threaded loop, no runtime and no deploys.
    let t0 = WallInstant::now();
    let reference = reference_records(&props, MonitorConfig::default(), &trace, end);
    let ref_secs = t0.elapsed().as_secs_f64();
    let ref_sigs: Vec<String> = reference.iter().map(signature).collect();
    let mut cells = vec![Cell::per_sec(trace.len(), ref_secs), reference.len().into()];
    cells.resize(COLUMNS.len(), Cell::None);
    report.row("reference (1 thread)", cells, true);

    let base_cfg = RuntimeConfig { checkpoint_every: 256, ..Default::default() };

    // No-deploy twin: the baseline the dip is measured against.
    let twin =
        ShardedRuntime::new(props.clone(), base_cfg.clone()).expect("catalog properties are valid");
    let t0 = WallInstant::now();
    let twin_out = twin.run(&trace, end).expect("fault-free run cannot fail");
    let twin_secs = t0.elapsed().as_secs_f64();
    let baseline_eps = trace.len() as f64 / twin_secs;
    report.row(
        "supervised, no deploy",
        session_cells(&twin_out, twin_secs, Vec::new(), None, None),
        twin_out.stats.unaccounted_loss() == 0 && twin_out.signatures() == ref_sigs,
    );

    // `DEPLOYS` mid-stream hot-adds on a session configured by `cfg`, checked
    // against the compositional oracle; the row counts only if at least
    // `min_restarts` injected crashes really fired.
    let mut deploy_row = |label: &str, cfg: RuntimeConfig, min_restarts: u64| {
        let rt = ShardedRuntime::new(props.clone(), cfg).expect("catalog properties are valid");
        let run = run_with_deploys(&rt, &trace, end);
        let expect =
            deploy_oracle(&props, MonitorConfig::default(), &trace, end, &run.deploy_points);
        let s = &run.out.stats;
        let verified = s.unaccounted_loss() == 0
            && s.deploys_applied == DEPLOYS as u64
            && s.restarts >= min_restarts
            && sorted_name_sigs(&run.out.records) == expect;
        report.row(
            label,
            session_cells(&run.out, run.secs, run.quiesce, None, Some(baseline_eps)),
            verified,
        );
    };
    // On a healthy session, then racing five injected shard crashes.
    deploy_row(&format!("{DEPLOYS} live deploys (hot add)"), base_cfg.clone(), 0);
    let crashes = crash_schedule(trace.len(), 5);
    deploy_row(
        &format!("{DEPLOYS} deploys racing {} crashes", crashes.len()),
        RuntimeConfig { inject_faults: crashes, ..base_cfg.clone() },
        3,
    );

    // Rejected deploy: the prepare phase dies; the session must roll back
    // and finish byte-identical to never having attempted the plan.
    let faulty = ShardedRuntime::new(props, RuntimeConfig { inject_deploy_faults: 1, ..base_cfg })
        .expect("catalog properties are valid");
    let k = trace.len() / 2;
    let t0 = WallInstant::now();
    let mut session = faulty.start();
    for ev in &trace[..k] {
        session.feed(ev).expect("fault-free feed");
    }
    let r0 = WallInstant::now();
    let err = session.deploy(&DeployPlan::add(hot_prop(0))).expect_err("the prepare fault fires");
    let rollback_us = r0.elapsed().as_secs_f64() * 1e6;
    let rejected = matches!(err, RuntimeError::DeployRejected { epoch: 0, .. });
    for ev in &trace[k..] {
        session.feed(ev).expect("fault-free feed");
    }
    let out = session.finish(end).expect("the session outlives the rollback");
    let secs = t0.elapsed().as_secs_f64();
    report.row(
        "rejected deploy (rollback)",
        session_cells(&out, secs, Vec::new(), Some(rollback_us), None),
        rejected
            && out.stats.unaccounted_loss() == 0
            && out.stats.deploys_applied == 0
            && out.stats.deploys_rolled_back == 1
            && out.signatures() == ref_sigs,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_verifies_at_smoke_scale() {
        let r = run(24, 600);
        assert_eq!(r.len(), 5);
        assert!(r.verified(), "{r:?}");
        for config in ["no deploy", "live deploys", "racing", "rejected"] {
            assert_eq!(r.num(config, "unaccounted"), 0.0, "{r:?}");
        }
        assert_eq!(r.num("live deploys", "deploys"), DEPLOYS as f64);
        assert!(r.num("live deploys", "quiesce_p99_us") >= r.num("live deploys", "quiesce_p50_us"));
        assert!(r.num("live deploys", "quiesce_p50_us") > 0.0, "a barrier costs something: {r:?}");
        assert!(r.num("live deploys", "dip_pct").is_finite());
        assert!(r.num("racing", "restarts") >= 3.0, "{r:?}");
        assert_eq!(r.num("rejected", "rollbacks"), 1.0);
        assert_eq!(r.num("rejected", "deploys"), 0.0);
        assert!(r.num("rejected", "rollback_us") > 0.0);
    }

    #[test]
    fn render_and_json_carry_the_contract_fields() {
        let r = run(16, 300);
        let txt = r.render();
        assert!(txt.contains("quiesce_p99_us"));
        assert!(txt.contains("rejected deploy (rollback)"));
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"e17-deploy\""));
        assert!(json.contains("\"quiesce_p99_us\""));
        assert!(json.contains("\"rollback_us\""));
        assert!(json.contains("\"unaccounted\": 0"));
    }
}
