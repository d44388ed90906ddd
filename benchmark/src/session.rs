//! Driving the real pipeline: the pinned session configuration, the
//! closed-loop (throughput) pass, the open-loop (paced) pass with its live
//! queries, and the checks every pass's output must meet.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant as Wall;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swmon_core::{Property, Var};
use swmon_packet::FieldValue;
use swmon_runtime::{
    reference_records, signature, AdaptiveConfig, Outcome, RuntimeConfig, ShardedRuntime,
    ViolationRecord, ViolationSink,
};
use swmon_sim::time::Instant;
use swmon_sim::trace::NetEvent;
use swmon_store::{Store, StoreSink};

use crate::sink::{PublishLog, TimedSink};
use crate::workloads::{RawTrace, Workload};

/// Live queries are issued at this many evenly spaced event indices of a
/// paced pass, three queries each.
pub const QUERY_POINTS: usize = 64;
/// Each live query runs this many times back to back and its fastest run is
/// its latency: the feeder's own work between two query points evicts the
/// store from the core's caches, and how long the refill takes is the
/// neighbours' doing (README, "Noise and bounds").
const QUERY_REPEATS: usize = 3;
/// The narrow window query spans the sim time of this many trailing events
/// (two checkpoint intervals, so it always holds published rows).
const NARROW_EVENTS: usize = 2048;
/// The disjunctive query's window, likewise.
const WIDE_EVENTS: usize = 8192;

/// The one session configuration every workload runs: the shipped defaults
/// (batch 64, checkpoint every 1024 events, telemetry on) on one shard,
/// driven inline on the feeder thread. Inline is the only mode where layer
/// costs can sum to wall time, and the only one that repeats within a tenth
/// on a shared two-core box (README, "Why inline").
pub fn pinned() -> RuntimeConfig {
    RuntimeConfig {
        shards: 1,
        adaptive: AdaptiveConfig {
            enabled: true,
            fan_out_rate: f64::INFINITY,
            ..AdaptiveConfig::default()
        },
        ..RuntimeConfig::default()
    }
}

/// Operations attempted and failed, as the benchmark contract counts them.
#[derive(Debug, Default)]
pub struct Tally {
    /// Events fed + queries issued + reference violations expected.
    pub attempted: u64,
    /// Errors, wrong query counts, wrong or missing violations, lost events.
    pub failed: u64,
    /// One line per kind of failure seen, for the human reading the output.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count `n` failed operations.
    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            self.notes.push(what());
        }
    }
}

/// What a workload's output must equal, computed once, outside all timers.
#[derive(Debug)]
pub struct Reference {
    /// Signatures of `reference_records` over the whole trace.
    pub full: Vec<String>,
    /// The records and signatures over the paced prefix.
    pub paced: Vec<ViolationRecord>,
    /// Signatures of `paced`.
    pub paced_sigs: Vec<String>,
}

impl Reference {
    /// Run the single-threaded reference loop over the trace and over its
    /// paced prefix.
    pub fn compute(w: &Workload) -> Self {
        let events = w.raw.materialize();
        let cfg = pinned().monitor;
        let sigs = |records: &[ViolationRecord]| records.iter().map(signature).collect();
        let n = w.spec.paced_events.min(events.len());
        let paced = reference_records(&w.props, cfg, &events[..n], w.raw.end_after(n));
        let full = if n == events.len() {
            sigs(&paced)
        } else {
            sigs(&reference_records(&w.props, cfg, &events, w.raw.end_after(events.len())))
        };
        Reference { full, paced_sigs: sigs(&paced), paced }
    }
}

/// How many signatures are missing from or extra to `want` (as multisets).
fn signature_diff(got: &[String], want: &[String]) -> u64 {
    if got == want {
        return 0;
    }
    let mut balance: HashMap<&str, i64> = HashMap::new();
    for s in want {
        *balance.entry(s).or_default() += 1;
    }
    for s in got {
        *balance.entry(s).or_default() -= 1;
    }
    // Same multiset in another order is still wrong: the merge is canonical.
    balance.values().map(|b| b.unsigned_abs()).sum::<u64>().max(1)
}

/// Check one finished pass: violations equal the reference, nothing was
/// lost, and (with a store) the sealed store holds exactly the merged rows.
pub fn check_outcome(
    tally: &mut Tally,
    pass: &str,
    outcome: &Outcome,
    want: &[String],
    store: Option<&Store>,
) {
    tally.attempted += want.len() as u64;
    let diff = signature_diff(&outcome.signatures(), want);
    tally.fail(diff, || format!("{pass}: {diff} violation(s) differ from reference_records"));
    let lost = outcome.stats.unaccounted_loss();
    tally.fail(lost, || format!("{pass}: unaccounted_loss = {lost}"));
    if let Some(store) = store {
        tally.attempted += 1;
        let rows = store.query_str("prop(*)").map(|o| o.matches.len());
        let ok = store.is_sealed() && rows.as_ref().ok() == Some(&outcome.records.len());
        tally.fail(u64::from(!ok), || {
            format!("{pass}: sealed prop(*) gave {rows:?}, merged {}", outcome.records.len())
        });
    }
}

/// A closed-loop pass is timed in steps of this many events (a multiple of
/// the session's batch of 64, a quarter of its checkpoint interval).
pub const STEP_EVENTS: usize = 64;

/// One closed-loop pass: feed every event, then `finish`. Returns the wall
/// seconds of each step — `start_with_sink` and the first [`STEP_EVENTS`]
/// feeds, every further [`STEP_EVENTS`] feeds, and `finish` returning (store
/// sealed) — which are back to back, so their sum is the wall of the pass.
fn closed_loop(
    props: &[Property],
    cfg: RuntimeConfig,
    sink: Option<Arc<dyn ViolationSink>>,
    events: &[NetEvent],
    end: Instant,
    tally: &mut Tally,
) -> Option<(Vec<f64>, Outcome)> {
    tally.attempted += events.len() as u64;
    let rt = match ShardedRuntime::new(props.to_vec(), cfg) {
        Ok(rt) => rt,
        Err(e) => {
            tally.fail(1, || format!("ShardedRuntime::new: {e}"));
            return None;
        }
    };
    let mut steps_s = Vec::with_capacity(events.len() / STEP_EVENTS + 2);
    let mut mark = Wall::now();
    let mut step = |steps_s: &mut Vec<f64>| {
        let now = Wall::now();
        steps_s.push((now - mark).as_secs_f64());
        mark = now;
    };
    let mut session = rt.start_with_sink(sink);
    for chunk in events.chunks(STEP_EVENTS) {
        for ev in chunk {
            if let Err(e) = session.feed(ev) {
                tally.fail(1, || format!("feed: {e}"));
                return None;
            }
        }
        step(&mut steps_s);
    }
    match session.finish(end) {
        Ok(outcome) => {
            step(&mut steps_s);
            Some((steps_s, outcome))
        }
        Err(e) => {
            tally.fail(1, || format!("finish: {e}"));
            None
        }
    }
}

/// One closed-loop pass over `w`'s whole trace — fresh events, a fresh
/// `StoreSink` if asked for — with its output checked. Returns the wall
/// seconds of its steps (see [`closed_loop`]); their sum is its wall.
pub fn checked_pass(
    w: &Workload,
    cfg: RuntimeConfig,
    with_sink: bool,
    reference: &Reference,
    tally: &mut Tally,
) -> Option<Vec<f64>> {
    let events = w.raw.materialize();
    let sink = with_sink.then(|| Arc::new(StoreSink::new()));
    let store = sink.as_ref().map(|s| s.store());
    let sink = sink.map(|s| s as Arc<dyn ViolationSink>);
    let end = w.raw.end_after(events.len());
    let (steps_s, outcome) = closed_loop(&w.props, cfg, sink, &events, end, tally)?;
    check_outcome(tally, "closed loop", &outcome, &reference.full, store.as_deref());
    Some(steps_s)
}

/// One conjunctive branch of a benchmark query, in a form the index-free
/// checker evaluates without the store's code.
#[derive(Debug, Clone, Default, PartialEq)]
struct Conj {
    prop: Option<String>,
    bind: Option<(Var, FieldValue)>,
    window: Option<(u64, u64)>,
    degraded: bool,
}

impl Conj {
    fn holds(&self, r: &ViolationRecord) -> bool {
        let v = &r.violation;
        let t = v.time.as_nanos();
        self.prop.as_ref().is_none_or(|p| *p == v.property)
            && self.bind.as_ref().is_none_or(|(var, val)| {
                v.bindings.as_ref().is_some_and(|b| b.get(var) == Some(val))
            })
            && self.window.is_none_or(|(a, b)| a <= t && t <= b)
            && (!self.degraded || v.degraded)
    }

    fn swql(&self) -> String {
        let mut atoms = Vec::new();
        if let Some(p) = &self.prop {
            atoms.push(format!("prop({p})"));
        }
        if let Some((var, val)) = &self.bind {
            atoms.push(format!("bind({}, {val})", var.name()));
        }
        if let Some((a, b)) = self.window {
            atoms.push(format!("window({a}, {b})"));
        }
        if self.degraded {
            atoms.push("degraded()".to_string());
        }
        atoms.join(", ")
    }
}

/// The three query shapes, in the order samples are kept.
pub const SHAPES: [&str; 3] = ["point", "window", "disj"];

/// The three queries issued at one event index.
#[derive(Debug, Clone)]
pub struct QueryPoint {
    /// Issue after feeding the event with this index.
    pub at: usize,
    queries: [Vec<Conj>; 3],
    /// The SWQL source of each shape, rendered once so the feeder thread
    /// formats nothing between feeds.
    pub swql: [String; 3],
}

impl QueryPoint {
    fn new(at: usize, queries: [Vec<Conj>; 3]) -> Self {
        let swql = queries
            .each_ref()
            .map(|branches| branches.iter().map(Conj::swql).collect::<Vec<_>>().join(" or "));
        QueryPoint { at, queries, swql }
    }

    /// How many of `records` each query matches, by a plain scan.
    fn counts(&self, records: &[ViolationRecord]) -> [usize; 3] {
        self.queries
            .each_ref()
            .map(|branches| records.iter().filter(|r| branches.iter().any(|c| c.holds(r))).count())
    }
}

/// Draw the query set for a paced pass over the first `n` events: a point
/// query `prop(P), bind(V, x)`, a narrow `window(..)`, and a disjunctive
/// `prop(Q), window(..) or degraded()`, with P, V, x and Q taken from
/// seeded draws over the violations the prefix is known to raise, and the
/// windows trailing the sim time of the event the query follows.
pub fn query_plan(
    raw: &RawTrace,
    n: usize,
    reference: &[ViolationRecord],
    seed: u64,
) -> Vec<QueryPoint> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5157_4c51);
    let points = QUERY_POINTS.min(n);
    let draw = |rng: &mut SmallRng| {
        (!reference.is_empty()).then(|| &reference[rng.random_range(0..reference.len())].violation)
    };
    (0..points)
        .map(|k| {
            let at = (k + 1) * n / (points + 1);
            let hi = raw.time(at).as_nanos();
            let trailing = |events: usize| (raw.time(at.saturating_sub(events)).as_nanos(), hi);
            let point = draw(&mut rng).map_or_else(Conj::default, |v| {
                let binds: Vec<_> = v.bindings.iter().flat_map(|b| b.iter()).collect();
                let bind = (!binds.is_empty()).then(|| {
                    let (var, val) = binds[rng.random_range(0..binds.len())];
                    (*var, *val)
                });
                Conj { prop: Some(v.property.clone()), bind, ..Conj::default() }
            });
            let narrow = Conj { window: Some(trailing(NARROW_EVENTS)), ..Conj::default() };
            let wide = Conj {
                prop: draw(&mut rng).map(|v| v.property.clone()),
                window: Some(trailing(WIDE_EVENTS)),
                ..Conj::default()
            };
            let degraded = Conj { degraded: true, ..Conj::default() };
            QueryPoint::new(at, [vec![point], vec![narrow], vec![wide, degraded]])
        })
        .collect()
}

/// What one paced pass measured.
#[derive(Debug, Default)]
pub struct Paced {
    /// Due-time -> published latency of each violation published while
    /// feeding, milliseconds.
    pub detect_ms: Vec<f64>,
    /// Violations that surfaced only in `finish` (not timed).
    pub at_finish: usize,
    /// Live query latencies per shape ([`SHAPES`] order), microseconds.
    pub query_us: [Vec<f64>; 3],
    /// How late each `feed` began after its event's due time, microseconds.
    pub late_us: Vec<f64>,
}

impl Paced {
    /// Pool another pass's samples into this one.
    pub fn absorb(&mut self, other: Paced) {
        self.detect_ms.extend(other.detect_ms);
        self.at_finish += other.at_finish;
        for (mine, theirs) in self.query_us.iter_mut().zip(other.query_us) {
            mine.extend(theirs);
        }
        self.late_us.extend(other.late_us);
    }
}

/// The index of the first event at or after sim time `t` — the event whose
/// arrival lets the monitor know a violation at `t` (for a timeout, the
/// first event at or after the deadline).
pub fn revealing_event(times: &[Instant], t: Instant) -> Option<usize> {
    let i = times.partition_point(|&x| x < t);
    (i < times.len()).then_some(i)
}

/// Detection latency of every record published while feeding: from the
/// due time of its revealing event (`index * period_ns` after the start)
/// to the return of the `publish` call that carried it. Records published
/// after the feeder stopped, or revealed by no fed event, are counted as
/// surfacing at finish.
pub fn detect_latencies(times: &[Instant], period_ns: f64, log: &PublishLog) -> (Vec<f64>, usize) {
    let fed = log.fed_len.unwrap_or(log.records.len());
    let mut detect_ms = Vec::with_capacity(fed);
    let mut at_finish = log.records.len() - fed;
    let mut next = 0;
    for &(rows, done_ns) in &log.batches {
        for r in &log.records[next..(next + rows).min(fed)] {
            match revealing_event(times, r.violation.time) {
                Some(i) => detect_ms.push((done_ns as f64 - i as f64 * period_ns) / 1e6),
                None => at_finish += 1,
            }
        }
        next += rows;
    }
    (detect_ms, at_finish)
}

/// One open-loop pass over the first `spec.paced_events` events at
/// `spec.paced_rate`: spin to each event's due time on the feeder thread,
/// feed it, and at the planned indices run the live queries against the
/// store. Checks the final output and every query count.
pub fn paced_pass(
    w: &Workload,
    events: &[NetEvent],
    reference: &Reference,
    plan: &[QueryPoint],
    tally: &mut Tally,
) -> Option<Paced> {
    let n = w.spec.paced_events.min(events.len());
    let events = &events[..n];
    let period_ns = 1e9 / w.spec.paced_rate;
    tally.attempted += n as u64;
    let rt = match ShardedRuntime::new(w.props.clone(), pinned()) {
        Ok(rt) => rt,
        Err(e) => {
            tally.fail(1, || format!("ShardedRuntime::new: {e}"));
            return None;
        }
    };
    let mut out = Paced { late_us: Vec::with_capacity(n), ..Paced::default() };
    // (plan index, records published when it ran, the counts it got)
    let mut answers: Vec<(usize, usize, [usize; 3])> = Vec::with_capacity(plan.len());
    let mut plan_iter = plan.iter().enumerate().peekable();

    let start = Wall::now();
    let sink = Arc::new(TimedSink::new(start, None));
    let store = sink.store();
    let mut session = rt.start_with_sink(Some(sink.clone() as Arc<dyn ViolationSink>));
    for (i, ev) in events.iter().enumerate() {
        let due = (i as f64 * period_ns) as u64;
        let mut now = start.elapsed().as_nanos() as u64;
        while now < due {
            std::hint::spin_loop();
            now = start.elapsed().as_nanos() as u64;
        }
        out.late_us.push((now - due) as f64 / 1e3);
        if let Err(e) = session.feed(ev) {
            tally.fail(1, || format!("paced feed: {e}"));
            return None;
        }
        if let Some((k, point)) = plan_iter.next_if(|(_, p)| p.at == i) {
            let mut got = [0; 3];
            for (shape, src) in point.swql.iter().enumerate() {
                let mut fastest_us = f64::INFINITY;
                for _ in 0..QUERY_REPEATS {
                    tally.attempted += 1;
                    let t0 = Wall::now();
                    let answer = store.query_str(src);
                    fastest_us = fastest_us.min(t0.elapsed().as_nanos() as f64 / 1e3);
                    match answer {
                        Ok(a) => got[shape] = a.matches.len(),
                        Err(e) => tally.fail(1, || format!("query {src:?}: {}", e.render(src))),
                    }
                }
                out.query_us[shape].push(fastest_us);
            }
            answers.push((k, sink.published(), got));
        }
    }
    sink.mark_fed();
    let outcome = match session.finish(w.raw.end_after(n)) {
        Ok(o) => o,
        Err(e) => {
            tally.fail(1, || format!("paced finish: {e}"));
            return None;
        }
    };

    // Everything below is checking, outside the pass.
    check_outcome(tally, "paced", &outcome, &reference.paced_sigs, Some(&store));
    let log = sink.take_log();
    let wrong = answers
        .iter()
        .map(|&(k, published, got)| {
            let want = plan[k].counts(&log.records[..published]);
            got.iter().zip(want).filter(|(g, w)| **g != *w).count() as u64
        })
        .sum();
    tally.fail(wrong, || format!("{wrong} live query count(s) differ from the index-free scan"));
    let times: Vec<Instant> = (0..n).map(|i| w.raw.time(i)).collect();
    (out.detect_ms, out.at_finish) = detect_latencies(&times, period_ns, &log);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_core::Violation;

    fn record(t: u64) -> ViolationRecord {
        ViolationRecord {
            seq: 0,
            property: 0,
            rank: 0,
            epoch: 0,
            violation: Violation {
                property: "p".into(),
                time: Instant::from_nanos(t),
                trigger_stage: "s".into(),
                bindings: None,
                history: vec![],
                degraded: false,
                merge_seq: None,
            },
        }
    }

    #[test]
    fn a_timeout_maps_to_the_first_event_at_or_after_its_deadline() {
        let times: Vec<Instant> = [0, 10, 10, 40, 90].map(Instant::from_nanos).to_vec();
        // A match-stage violation carries its event's time: the first of
        // the simultaneous events reveals it.
        assert_eq!(revealing_event(&times, Instant::from_nanos(10)), Some(1));
        // A deadline at t=25 fires when the event at t=40 advances the clock.
        assert_eq!(revealing_event(&times, Instant::from_nanos(25)), Some(3));
        // A deadline beyond the last event fires only in `finish`.
        assert_eq!(revealing_event(&times, Instant::from_nanos(91)), None);
    }

    #[test]
    fn latency_runs_from_the_due_time_to_the_publish_return() {
        let times: Vec<Instant> = [0, 10, 10, 40, 90].map(Instant::from_nanos).to_vec();
        // 1 ms between due times. First publish (returning at 3.5 ms)
        // carries the t=10 match and the t=25 timeout; the second, after
        // the feeder stopped, carries one more.
        let log = PublishLog {
            records: vec![record(10), record(25), record(95), record(40)],
            batches: vec![(3, 3_500_000), (1, 9_000_000)],
            fed_len: Some(3),
        };
        let (ms, at_finish) = detect_latencies(&times, 1e6, &log);
        // Revealed by event 1 (due 1 ms) and event 3 (due 3 ms).
        assert_eq!(ms, vec![2.5, 0.5]);
        // t=95 has no revealing event; the last record came after feeding.
        assert_eq!(at_finish, 2);
    }

    #[test]
    fn index_free_counts_follow_the_swql_text() {
        let point = QueryPoint::new(
            0,
            [
                vec![Conj { prop: Some("p".into()), ..Conj::default() }],
                vec![Conj { window: Some((20, 40)), ..Conj::default() }],
                vec![
                    Conj { prop: Some("q".into()), window: Some((0, 99)), ..Conj::default() },
                    Conj { degraded: true, ..Conj::default() },
                ],
            ],
        );
        assert_eq!(
            point.swql,
            ["prop(p)", "window(20, 40)", "prop(q), window(0, 99) or degraded()"]
        );
        let mut degraded = record(50);
        degraded.violation.degraded = true;
        let records = [record(10), record(25), degraded];
        assert_eq!(point.counts(&records), [3, 1, 1]);
        // The store agrees with the scan.
        let store = Store::new();
        store.ingest(0, &records);
        for (src, want) in point.swql.iter().zip(point.counts(&records)) {
            assert_eq!(store.query_str(src).unwrap().matches.len(), want, "{src}");
        }
    }

    #[test]
    fn signature_diff_counts_missing_and_extra() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(signature_diff(&s(&["a", "b"]), &s(&["a", "b"])), 0);
        assert_eq!(signature_diff(&s(&["a"]), &s(&["a", "b"])), 1);
        assert_eq!(signature_diff(&s(&["a", "c", "c"]), &s(&["a", "b"])), 3);
        assert_eq!(signature_diff(&s(&["b", "a"]), &s(&["a", "b"])), 1);
    }
}
