//! **E15 (extension) — fault-tolerant runtime under chaos.** The paper's
//! monitors watch for *network* faults; this experiment asks what happens
//! when the *monitoring infrastructure itself* fails. A seeded
//! [`swmon_sim::FaultPlan`] batters the workload (drops, duplicates,
//! reorders, a switch crash window), and a deterministic crash schedule
//! ([`swmon_runtime::FaultPoint`]) crashes the supervised shard mid-stream.
//!
//! Three contracts are measured and verified:
//!
//! 1. **Recovery fidelity** — with crashes injected mid-stream, the
//!    merged violation output is *byte-for-byte identical* to the
//!    fault-free single-threaded reference over the full 21-property
//!    catalog, and every delivered event is accounted
//!    ([`swmon_runtime::RuntimeStats::unaccounted_loss`] `== 0`).
//! 2. **Recovery cost** — checkpoint-restore latency and under-fault
//!    throughput, reported per row (the `BENCH_faults.json` baseline).
//! 3. **Graceful degradation** — with the recovery journal deliberately
//!    starved, the runtime sheds load *explicitly*: for that row
//!    `verified` means the accounting contract holds (`delivered ==
//!    processed + shed`, every shed event inside a reported
//!    [`swmon_runtime::MonitoringGap`], zero unaccounted loss) — its
//!    output intentionally differs from the reference, which is the point.

use super::crash_schedule;
use crate::report::{Cell, Report};
use std::time::Instant as WallInstant;
use swmon_core::MonitorConfig;
use swmon_runtime::{
    reference_records, signature, silence_injected_panics, RuntimeConfig, ShardedRuntime,
};
use swmon_sim::time::{Duration, Instant};
use swmon_workloads::trace::{fault_plan, lossy_trace};

/// What every row reports. `recovery_us_mean` is checkpoint-restore
/// latency per recovery; `unaccounted` — events neither processed nor
/// explicitly shed, the zero-silent-loss invariant — must be 0 in every
/// row.
const COLUMNS: [&str; 8] = [
    "events_per_sec",
    "violations",
    "restarts",
    "replayed",
    "recovery_us_mean",
    "shed",
    "degraded",
    "unaccounted",
];

/// Run the chaos benchmark over a `flows`-flow, `packets`-packet workload.
pub fn run(flows: u32, packets: u32) -> Report {
    silence_injected_panics();
    let props = swmon_props::catalog();
    let span = Duration::from_micros(2) * u64::from(packets);
    let tenth = Duration::from_nanos(span.as_nanos() / 10);
    let (trace, l) = lossy_trace(flows, packets, 13, &fault_plan(0xfa117, span, tenth));
    let end = trace.last().map(|e| e.time + Duration::from_secs(120)).unwrap_or(Instant::ZERO);

    let mut report = Report::new("e15-fault-tolerance", &COLUMNS);
    report.fact("events", trace.len());
    report.fact("fault_dropped", l.dropped_events);
    report.fact("fault_duplicated", l.duplicated_events);
    report.fact("fault_reordered_units", l.reordered_units);
    report.fact("fault_crash_lost", l.crash_lost_events);
    report.fact("fault_oob_injected", l.oob_injected);
    report.note(
        "Events are counted after the network fault plan. Recovery rows must match the\n\
         fault-free reference byte-for-byte; the degraded row must account every shed event\n\
         (docs/FAULTS.md).",
    );

    let t0 = WallInstant::now();
    let reference = reference_records(&props, MonitorConfig::default(), &trace, end);
    let ref_secs = t0.elapsed().as_secs_f64();
    let ref_sigs: Vec<String> = reference.iter().map(signature).collect();
    // No runtime under the reference loop: its recovery and accounting
    // columns do not apply.
    let mut cells = vec![Cell::per_sec(trace.len(), ref_secs), reference.len().into()];
    cells.resize(COLUMNS.len(), Cell::None);
    report.row("reference (1 thread)", cells, true);

    let base_cfg = RuntimeConfig {
        // Small enough that crash recovery replays a measurable journal
        // even in --quick runs.
        checkpoint_every: 256,
        ..Default::default()
    };
    // One supervised configuration per row. `min_restarts` is how many
    // injected crashes must really have fired for the row to count.
    let mut supervised = |label: &str, cfg: RuntimeConfig, min_restarts: u64| {
        let rt = ShardedRuntime::new(props.clone(), cfg).expect("catalog properties are valid");
        let t0 = WallInstant::now();
        let out = rt.run(&trace, end).expect("supervised run survives its fault schedule");
        let secs = t0.elapsed().as_secs_f64();
        let s = &out.stats;
        let gap_shed: u64 = s.gaps.iter().map(|g| g.shed).sum();
        let accounting_holds = s.unaccounted_loss() == 0 && gap_shed == s.shed;
        let contract = if s.shed == 0 {
            // Recovery rows: byte-for-byte identity with the reference.
            out.signatures() == ref_sigs
        } else {
            // Degraded row: loss is intentional; the contract is accounting.
            s.degraded_violations > 0
        };
        let recovery_us_mean = if s.restarts == 0 {
            0.0
        } else {
            s.recovery_nanos as f64 / s.restarts as f64 / 1_000.0
        };
        report.row(
            label,
            vec![
                Cell::per_sec(trace.len(), secs),
                out.records.len().into(),
                s.restarts.into(),
                s.replayed.into(),
                recovery_us_mean.into(),
                s.shed.into(),
                s.degraded_violations.into(),
                s.unaccounted_loss().into(),
            ],
            accounting_holds && contract && s.restarts >= min_restarts,
        );
    };
    supervised("supervised, fault-free", base_cfg.clone(), 0);
    let crashes = crash_schedule(trace.len(), 5);
    // The headline claim needs real crashes: at least 3 must have fired.
    supervised(
        &format!("supervised, {} crashes", crashes.len()),
        RuntimeConfig { inject_faults: crashes, ..base_cfg.clone() },
        3,
    );
    // Bursts of 64 against a 24-item journal: at the default batch of 8 it
    // would checkpoint before overflowing, and the row would shed nothing.
    let starved = RuntimeConfig { batch: 64, journal_limit: 24, ..base_cfg };
    supervised("degraded (journal=24)", starved, 0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_verifies_at_smoke_scale() {
        let r = run(24, 600);
        assert_eq!(r.len(), 4);
        assert!(r.verified(), "{r:?}");
        for config in ["fault-free", "crashes", "degraded"] {
            assert_eq!(r.num(config, "unaccounted"), 0.0, "{r:?}");
        }
        assert!(r.num("crashes", "restarts") >= 3.0, "{r:?}");
        assert!(r.num("crashes", "replayed") > 0.0);
        assert!(r.num("crashes", "recovery_us_mean") > 0.0);
        assert!(r.num("degraded", "shed") > 0.0, "{r:?}");
        assert!(r.num("degraded", "degraded") > 0.0, "{r:?}");
    }

    #[test]
    fn render_and_json_carry_the_contract_fields() {
        let r = run(16, 300);
        let txt = r.render();
        assert!(txt.contains("reference (1 thread)"));
        assert!(txt.contains("crashes"));
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"e15-fault-tolerance\""));
        assert!(json.contains("\"unaccounted\": 0"));
        assert!(json.contains("\"fault_dropped\""));
    }
}
