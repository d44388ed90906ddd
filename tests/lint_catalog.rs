//! The 21-property catalog must be lint-clean: zero Error/Warning
//! diagnostics (the CI gate), and the Perf/Note findings that *do* fire
//! are pinned here as an annotated allowlist — every expected lint is
//! intentional and explained, and nothing unexpected may appear.

use std::collections::BTreeSet;
use swmon::analysis::{Code, Severity};
use swmon::monitor::{Atom, Guard};
use swmon_bench::lint;

/// Properties the router pins to a single shard (SW008). All intentional:
/// the load-balancer and flush properties key on egress metadata or
/// out-of-band events, the DHCP/ARP families have wandering identity, and
/// the ARP-proxy properties carry no stable re-bound variable.
const EXPECTED_PINNED: [&str; 14] = [
    "arp-proxy/known-not-forwarded",
    "arp-proxy/reply-within-T",
    "arp-proxy/unknown-forwarded",
    "dhcp-arp/no-unfounded-direct-reply",
    "dhcp-arp/preload-cache",
    "dhcp/no-lease-overlap",
    "dhcp/no-reuse-before-expiry",
    "lb/new-flow-hashed-port",
    "lb/new-flow-round-robin",
    "lb/stable-assignment",
    "learning-switch/correct-port",
    "learning-switch/flush-on-link-down",
    "learning-switch/no-flood-after-learn",
    "nat/reverse-translation",
];

/// (property, stage) pairs whose matching falls back to a full instance
/// scan (SW007). Intentional: each has a guard with no exact-match probe —
/// the round-robin stage awaits "the next new flow, whoever sends it" and
/// the flush stage an out-of-band link-down that carries no fields. Every
/// `same packet as N` stage is keyed on the packet id and must not appear;
/// nor does `arp-proxy/unknown-forwarded` stage 1, whose two clearings
/// each have a probe ("the request itself is forwarded" by packet id, "the
/// proxy answers" by the held `?Y`).
const EXPECTED_FULL_SCAN: [(&str, usize); 2] =
    [("lb/new-flow-round-robin", 2), ("learning-switch/flush-on-link-down", 1)];

#[test]
fn catalog_has_no_gating_diagnostics() {
    let diags = lint::run(&lint::catalog_targets());
    let gating: Vec<_> = diags.iter().filter(|d| d.severity.is_gating()).collect();
    assert!(gating.is_empty(), "catalog must be Error/Warning-free:\n{gating:#?}");
}

#[test]
fn catalog_perf_lints_match_the_annotated_allowlist() {
    let diags = lint::run(&lint::catalog_targets());

    let pinned: BTreeSet<&str> = diags
        .iter()
        .filter(|d| d.code == Code::RoutingPin)
        .map(|d| d.locus.property.as_str())
        .collect();
    let expected_pinned: BTreeSet<&str> = EXPECTED_PINNED.into_iter().collect();
    assert_eq!(pinned, expected_pinned, "SW008 pins drifted from the annotated set");

    let scans: BTreeSet<(&str, usize)> = diags
        .iter()
        .filter(|d| d.code == Code::FullScanFallback)
        .map(|d| (d.locus.property.as_str(), d.locus.stage.expect("SW007 has a stage")))
        .collect();
    let expected_scans: BTreeSet<(&str, usize)> = EXPECTED_FULL_SCAN.into_iter().collect();
    assert_eq!(scans, expected_scans, "SW007 full scans drifted from the annotated set");

    // The lint follows the engine: a stage whose every guard (advance and
    // clearings) carries a top-level `same packet as N` has a probe per
    // guard, so it is indexed and SW007 must stay silent on it.
    let catalog = swmon_props::catalog();
    for (name, stage) in scans {
        let prop = catalog.iter().find(|p| p.name == name).expect("locus names a property");
        let st = &prop.stages[stage];
        let identity = |g: &Guard| g.atoms.iter().any(|a| matches!(a, Atom::SamePacket(_)));
        let mut guards = st.guard().into_iter().chain(st.unless.iter().map(|u| &u.guard));
        assert!(!guards.all(identity), "SW007 on identity-probed stage {name}/{stage}");
    }
}

#[test]
fn every_catalog_property_gets_exactly_one_feasibility_note() {
    // No surveyed approach hosts every feature (the paper's Table 2
    // finding), so each of the 21 properties draws exactly one aggregated
    // SW009 note — and nothing severer than Note from that pass.
    let targets = lint::catalog_targets();
    let diags = lint::run(&targets);
    let notes: Vec<_> = diags.iter().filter(|d| d.code == Code::BackendGap).collect();
    assert_eq!(notes.len(), targets.len());
    assert!(notes.iter().all(|d| d.severity == Severity::Note));
}

#[test]
fn json_and_pretty_reports_agree_on_the_gate() {
    let diags = lint::run(&lint::catalog_targets());
    assert!(!lint::gating(&diags));
    let report = lint::render_json(&diags);
    let back = swmon::analysis::json::diags_from_json(&report).expect("report parses");
    assert_eq!(diags, back);
    let pretty = lint::render_pretty(&diags);
    assert!(pretty.contains("0 error(s), 0 warning(s)"), "{pretty}");
}
