//! The `repro query` subcommand: run the full 21-property catalog over a
//! faulted workload with a live [`swmon_store::StoreSink`], execute a
//! user-supplied SWQL query against the store, and cross-check the sealed
//! store against the engine's merged output.
//!
//! `--follow` streams matches as the shard publishes them mid-run (each poll is
//! one prefix-consistent snapshot), then prints the sealed answer. Either
//! way the run ends with a differential check — sealed `prop(*)` must be
//! byte-identical to the session's merged violations — whose failure
//! (like a query parse error) makes the subcommand exit nonzero.

use std::collections::HashSet;
use std::sync::Arc;

use crate::report::Emitter;
use swmon_core::json::escape;
use swmon_runtime::{RuntimeConfig, ShardedRuntime, ViolationSink};
use swmon_sim::time::{Duration, Instant};
use swmon_store::{parse, StoreSink};
use swmon_workloads::trace::{fault_plan, lossy_trace};

/// Events between `--follow` polls of the live store.
const POLL_EVERY: usize = 2_048;

/// Execute `src` over a `flows`-flow, `packets`-packet catalog session.
/// Prints through `em`; marks it failed on parse errors, a failed
/// differential check, or nonzero unaccounted loss.
pub fn run(src: &str, flows: u32, packets: u32, follow: bool, em: &mut Emitter) {
    // Parse up front so a bad query fails before the workload runs.
    let query = match parse(src) {
        Ok(q) => q,
        Err(e) => {
            if em.json() {
                println!("{}", e.to_json());
            } else {
                print!("{}", e.render(src));
            }
            em.fail();
            return;
        }
    };

    let props = swmon_props::catalog();
    // Post-parse validation: `prop(name)` outside the monitored catalog is
    // legal but matches nothing — surface the SQ007 warnings next to the
    // answer instead of letting the empty result pass silently.
    let warnings = swmon_store::validate_properties(&query, props.iter().map(|p| p.name.as_str()));
    if !em.json() {
        for w in &warnings {
            print!("{}", w.render(src));
        }
    }
    let span = Duration::from_micros(2) * u64::from(packets);
    let quarter = Duration::from_nanos(span.as_nanos() / 4);
    let (trace, _) = lossy_trace(flows, packets, 13, &fault_plan(0x570fe, span, quarter));
    let end = trace.last().map(|e| e.time + Duration::from_secs(120)).unwrap_or(Instant::ZERO);
    let cfg = RuntimeConfig { checkpoint_every: 256, ..Default::default() };
    let rt = ShardedRuntime::new(props, cfg).expect("catalog properties are valid");
    let sink = Arc::new(StoreSink::new());
    let store = sink.store();
    let mut session = rt.start_with_sink(Some(sink as Arc<dyn ViolationSink>));

    let mut seen: HashSet<u64> = HashSet::new();
    let mut live_unaccounted = 0u64;
    for (i, ev) in trace.iter().enumerate() {
        session.feed(ev).expect("catalog session accepts the trace");
        if follow && i % POLL_EVERY == POLL_EVERY - 1 {
            // One prefix-consistent snapshot per poll; print what's new.
            let out = store.query(&query);
            live_unaccounted = live_unaccounted.max(session.live_stats().unaccounted_loss());
            for m in &out.matches {
                if seen.insert(m.store_seq) && !em.json() {
                    println!(
                        "live #{:<6} shard {:>2}  {}",
                        m.store_seq,
                        m.shard,
                        m.record.violation.summary()
                    );
                }
            }
        }
    }
    let outcome = session.finish(end).expect("catalog session finishes");

    // The sealed answer, plus the differential gate: sealed prop(*) must be
    // byte-identical to the engine's merged output.
    let out = store.query(&query);
    let differential =
        store.query_str("prop(*)").expect("prop(*) parses").signatures() == outcome.signatures();
    let verified = differential && live_unaccounted == 0;

    if em.json() {
        let warn_json: Vec<String> = warnings.iter().map(|w| w.to_json()).collect();
        println!(
            "{{\n  \"experiment\": \"query\",\n  \"swql\": \"{}\",\n  \"warnings\": [{}],\n  \
             \"events\": {},\n  \"merged_violations\": {},\n  \"differential_verified\": {},\n  \
             \"verified\": {},\n  \"result\": {}\n}}",
            escape(src),
            warn_json.join(","),
            trace.len(),
            outcome.records.len(),
            differential,
            verified,
            indent_tail(&out.to_json()),
        );
    } else {
        print!("{}", out.render());
        println!(
            "catalog session: {} events, {} merged violations; sealed prop(*) \
             byte-identical to the merge: {}",
            trace.len(),
            outcome.records.len(),
            if differential { "yes" } else { "NO" },
        );
    }
    if !verified {
        em.fail();
    }
}

/// Re-indent a nested JSON document's continuation lines by two spaces so
/// it composes into the wrapper object.
fn indent_tail(doc: &str) -> String {
    doc.trim_end().replace('\n', "\n  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_fail_the_emitter() {
        let mut em = Emitter::new(true);
        run("frobnicate(3)", 4, 50, false, &mut em);
        assert!(em.failed());
    }

    #[test]
    fn a_valid_query_verifies_at_smoke_scale() {
        let mut em = Emitter::new(false);
        run("degraded() or prop(*), shard(0)", 8, 300, true, &mut em);
        assert!(!em.failed());
    }

    #[test]
    fn unknown_property_names_warn_but_do_not_fail() {
        // `prop` with a name outside the catalog is SQ007: a warning beside
        // the (empty) answer, never a nonzero exit.
        let mut em = Emitter::new(true);
        run("prop(no-such/property)", 4, 50, false, &mut em);
        assert!(!em.failed(), "SQ007 must not gate");
    }
}
