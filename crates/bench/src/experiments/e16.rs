//! **E16 (extension) — the violation store under load.** Three contracts,
//! one per store layer (see docs/STORE.md):
//!
//! 1. **Ingest throughput** — a synthetic stream of over a million
//!    violations is batch-ingested through [`swmon_store::Store::ingest`];
//!    the rate and the p50/p99 latency of a point, a range, and a
//!    disjunctive SWQL query against the live (unsealed) store are
//!    reported, each query count verified against an index-free reference
//!    scan of the same generated stream (the `BENCH_store.json` baseline).
//! 2. **Differential fidelity** — a sharded session over the full
//!    21-property catalog runs with a [`swmon_store::StoreSink`]; after
//!    seal, `prop(*)` must return *byte-for-byte* the engine's merged
//!    output (identical signature vectors, store sequence ≡ merge
//!    sequence), and the store must survive an encode/validate/decode
//!    round-trip with the same answer.
//! 3. **Live consistency** — a mid-run query against the same session
//!    must observe a prefix-consistent snapshot: every live match appears
//!    in the final sealed output and the runtime's
//!    `unaccounted_loss() == 0` audit is undisturbed by publication.

use crate::report::{Cell, Report};
use std::sync::Arc;
use std::time::Instant as WallInstant;
use swmon_core::{var, Bindings, Violation};
use swmon_packet::FieldValue;
use swmon_runtime::{RuntimeConfig, ShardedRuntime, ViolationRecord, ViolationSink};
use swmon_sim::time::{Duration, Instant};
use swmon_store::{Store, StoreSink};
use swmon_workloads::trace::{fault_plan, lossy_trace};

/// Synthetic rows ingested at full scale (the headline claim is ≥ 1M).
pub const SYNTHETIC_ROWS: u64 = 1_000_000;
/// Rows per ingest batch (one store segment each).
const BATCH: u64 = 4_096;
/// Shards the synthetic stream round-robins batches across.
const SYNTH_SHARDS: u64 = 8;
/// Nanoseconds between consecutive synthetic violations.
const TICK_NS: u64 = 1_000;

/// What every row reports. The three timed queries fill `p50_us` /
/// `p99_us` (verified: the match count equals an index-free reference
/// scan); the live catalog-session row fills `unaccounted` instead.
const COLUMNS: [&str; 5] = ["swql", "matches", "p50_us", "p99_us", "unaccounted"];

/// The `i`-th synthetic violation. `props` are the catalog property names
/// (reused so the synthetic stream exercises realistic name cardinality).
fn synthetic(i: u64, props: &[String]) -> ViolationRecord {
    let pi = (i % props.len() as u64) as usize;
    let bindings = Bindings::new()
        .bind(var("PORT"), FieldValue::Uint(i % 4_096))
        .bind(var("SRC"), FieldValue::Uint(i % 251));
    ViolationRecord {
        seq: i,
        property: pi,
        rank: 1,
        epoch: 0,
        violation: Violation {
            property: props[pi].clone(),
            time: Instant::from_nanos(i * TICK_NS),
            trigger_stage: "bench".into(),
            bindings: Some(bindings),
            history: vec![],
            degraded: i.is_multiple_of(101),
            merge_seq: None,
        },
    }
}

/// p50/p99 (microseconds) of a sorted latency sample.
fn percentiles(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    (at(0.50), at(0.99))
}

/// Time `iters` executions of `swql` against `store` and add its row,
/// verified when the match count equals `expected`.
fn measure(
    report: &mut Report,
    store: &Store,
    kind: &str,
    swql: &str,
    expected: u64,
    iters: usize,
) {
    let mut samples = Vec::with_capacity(iters);
    let mut matches = 0u64;
    for _ in 0..iters {
        let t0 = WallInstant::now();
        let out = store.query_str(swql).expect("benchmark queries parse");
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        matches = out.matches.len() as u64;
    }
    let (p50_us, p99_us) = percentiles(samples);
    report.row(
        kind,
        vec![swql.into(), matches.into(), p50_us.into(), p99_us.into(), Cell::None],
        matches == expected,
    );
}

/// Run the store benchmark: `synthetic_rows` generated violations for the
/// ingest/query half, a `flows`-flow `packets`-packet catalog session for
/// the differential and live halves.
pub fn run(flows: u32, packets: u32, synthetic_rows: u64) -> Report {
    let mut report = Report::new("e16-violation-store", &COLUMNS);
    let props = swmon_props::catalog();
    let names: Vec<String> = props.iter().map(|p| p.name.clone()).collect();

    // ---- 1. Synthetic ingest + query latency --------------------------
    let store = Store::new();
    let mut ingest_nanos = 0u128;
    let mut ingested = 0u64;
    let mut batch_no = 0u64;
    while ingested < synthetic_rows {
        let n = BATCH.min(synthetic_rows - ingested);
        let rows: Vec<ViolationRecord> =
            (ingested..ingested + n).map(|i| synthetic(i, &names)).collect();
        let t0 = WallInstant::now();
        store.ingest((batch_no % SYNTH_SHARDS) as u32, &rows);
        ingest_nanos += t0.elapsed().as_nanos();
        ingested += n;
        batch_no += 1;
    }

    // Reference counts by an index-free scan of the same generated stream.
    let point_prop = names[0].as_str();
    let window =
        (synthetic_rows / 2 * TICK_NS, (synthetic_rows / 2 + synthetic_rows / 100) * TICK_NS);
    let mut expect_point = 0u64;
    let mut expect_range = 0u64;
    let mut expect_disj = 0u64;
    for i in 0..synthetic_rows {
        let is_point = i.is_multiple_of(names.len() as u64) && i % 4_096 == 443;
        let t = i * TICK_NS;
        let in_window = window.0 <= t && t <= window.1;
        expect_point += u64::from(is_point);
        expect_range += u64::from(in_window);
        expect_disj += u64::from(in_window && i % names.len() as u64 == 1 || i.is_multiple_of(101));
    }
    let iters = if synthetic_rows >= SYNTHETIC_ROWS { 64 } else { 16 };
    report.fact("synthetic_rows", ingested);
    report.fact("segments", store.segment_count());
    report.fact("ingest_per_sec", Cell::per_sec(ingested as usize, ingest_nanos as f64 / 1e9));
    let queries = [
        ("point", format!("prop({point_prop}), bind(PORT, 443)"), expect_point),
        ("range", format!("window({}, {})", window.0, window.1), expect_range),
        (
            "disjunctive",
            format!("prop({}), window({}, {}) or degraded()", names[1], window.0, window.1),
            expect_disj,
        ),
    ];
    for (kind, swql, expected) in &queries {
        measure(&mut report, &store, kind, swql, *expected, iters);
    }
    drop(store);

    // ---- 2 + 3. Catalog session with a live StoreSink -----------------
    let span = Duration::from_micros(2) * u64::from(packets);
    let quarter = Duration::from_nanos(span.as_nanos() / 4);
    let (trace, _fault_log) = lossy_trace(flows, packets, 13, &fault_plan(0x570fe, span, quarter));
    let end = trace.last().map(|e| e.time + Duration::from_secs(120)).unwrap_or(Instant::ZERO);
    let rt = ShardedRuntime::new(
        props,
        RuntimeConfig { shards: 4, checkpoint_every: 256, ..Default::default() },
    )
    .expect("catalog properties are valid");
    let sink = Arc::new(StoreSink::new());
    let live = sink.store();
    let mut session = rt.start_with_sink(Some(sink as Arc<dyn ViolationSink>));

    let probe_at = trace.len() * 3 / 5;
    let mut live_rows = 0u64;
    let mut live_unaccounted = 0u64;
    let mut live_sigs: Vec<String> = Vec::new();
    for (i, ev) in trace.iter().enumerate() {
        session.feed(ev).expect("catalog session accepts the trace");
        if i == probe_at {
            // The mid-run query: one atomic read of the published prefix.
            let out = live.query_str("prop(*)").expect("prop(*) parses");
            assert!(!out.sealed, "probe must run before seal");
            live_rows = out.total;
            live_unaccounted = session.live_stats().unaccounted_loss();
            live_sigs = out.signatures();
        }
    }
    let out = session.finish(end).expect("catalog session finishes");
    let final_sigs: Vec<String> = out.signatures();

    // Live contract: prefix-consistent (every mid-run match survives into
    // the sealed canonical output) with zero unaccounted loss.
    let live_verified = live_unaccounted == 0 && live_sigs.iter().all(|s| final_sigs.contains(s));

    // Differential contract: sealed prop(*) byte-identical to the merge,
    // store sequence ≡ merge sequence, round-trip stable.
    let sealed = live.query_str("prop(*)").expect("prop(*) parses");
    let mut differential_verified = live.is_sealed()
        && sealed.sealed
        && sealed.signatures() == final_sigs
        && sealed.matches.iter().enumerate().all(|(i, m)| {
            m.store_seq == i as u64 && m.record.violation.sequence_id() == Some(i as u64)
        });
    let bytes = live.to_bytes();
    let reloaded = Store::from_bytes(&bytes).expect("sealed store round-trips");
    differential_verified = differential_verified
        && reloaded.query_str("prop(*)").expect("prop(*) parses").signatures() == final_sigs;

    report.fact("catalog_events", trace.len());
    report.fact("catalog_violations", out.records.len());
    report.fact("encoded_bytes", bytes.len());
    report.row(
        "live: mid-run snapshot is a prefix of the sealed output",
        vec!["prop(*)".into(), live_rows.into(), Cell::None, Cell::None, live_unaccounted.into()],
        live_verified,
    );
    report.row(
        "differential: sealed store equals the merge, and round-trips",
        vec!["prop(*)".into(), sealed.total.into(), Cell::None, Cell::None, Cell::None],
        differential_verified,
    );
    report.note(
        "Query rows: latency over the synthetic ingest, match counts verified against an\n\
         index-free reference scan. Session rows: the full catalog under a live StoreSink\n\
         (docs/STORE.md).",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_contract_holds_at_smoke_scale() {
        let r = run(24, 800, 20_000);
        assert_eq!(r.len(), 5);
        assert!(r.verified(), "{r:?}");
        assert_eq!(r.num("live", "unaccounted"), 0.0);
        assert!(r.num("differential", "matches") > 0.0, "catalog workload must violate");
        assert!(r.num("live", "matches") <= r.num("differential", "matches"));
        assert!(r.num("range", "matches") > 0.0, "{r:?}");
        assert!(r.num("point", "p99_us") >= r.num("point", "p50_us"));
    }

    #[test]
    fn render_and_json_carry_the_contract_fields() {
        let r = run(16, 400, 10_000);
        let txt = r.render();
        assert!(txt.contains("disjunctive"));
        assert!(txt.contains("sealed store equals the merge"));
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"e16-violation-store\""));
        assert!(json.contains("\"synthetic_rows\": 10000"));
        assert!(
            json.contains("\"segments\": 3"),
            "multiple segments exercise cross-segment planning"
        );
        assert!(json.contains("\"p99_us\""));
        assert!(json.ends_with("}\n"));
    }
}
