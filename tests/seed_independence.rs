//! A monitor's output does not depend on its hash seeds.
//!
//! The engine's hot maps (the dedup index, the stage postings and the timer
//! wheel's live set) are `FoldMap`s, and every map draws its own seed when
//! it is built, so two monitors of one property never hash alike. Nothing
//! may iterate those maps in hash order. If something did, the two monitors
//! below would diverge: each property of the catalog runs twice over one
//! `catalog-256`-shaped trace, and at five checkpoints both runs must hold
//! byte-identical snapshots and identical violations.

use swmon::monitor::Monitor;
use swmon::sim::{Duration, NetEvent};
use swmon_workloads::trace::multi_flow_trace;

/// What an outside observer sees of a monitor: its snapshot encoding and
/// its violations, rendered.
fn observed(m: &Monitor) -> (Vec<u8>, Vec<String>) {
    (m.snapshot().to_bytes(), m.violations().iter().map(|v| v.summary()).collect())
}

#[test]
fn two_monitors_of_one_property_agree_whatever_their_seeds() {
    // The benchmark's catalog-256 shape (256 flows, 40% replies, a quarter
    // of them dropped, 2 us apart), at half its length.
    let trace: Vec<NetEvent> =
        multi_flow_trace(256, 6_000, 0.4, 0.25, Duration::from_micros(2), 13);
    let end = trace.last().expect("a non-empty trace").time + Duration::from_secs(120);
    let mut raised = 0;
    for property in swmon_props::catalog() {
        let name = property.name.clone();
        let mut a = Monitor::with_defaults(property.clone());
        let mut b = Monitor::with_defaults(property);
        let mut fed = 0;
        for k in 1..=5 {
            let upto = trace.len() * k / 5;
            for ev in &trace[fed..upto] {
                a.process(ev);
                b.process(ev);
            }
            fed = upto;
            if k == 5 {
                // Fire every deadline still pending.
                a.advance_to(end);
                b.advance_to(end);
            }
            assert!(observed(&a) == observed(&b), "{name}: the runs differ at checkpoint {k}");
        }
        raised += a.violations().len();
    }
    assert!(raised > 0, "the trace raises violations, so their order is exercised");
}
