//! The defect corpus: one deliberately broken property per diagnostic
//! code, each asserting its intended code fires exactly once — the
//! linter's precision contract. A final test round-trips the whole
//! corpus's diagnostics through the JSON report format.

use swmon_analysis::json::{diags_from_json, diags_to_json};
use swmon_analysis::{analyze, Capabilities, Cell, Code, Diagnostic, FieldAccess, Severity};
use swmon_core::property::WindowSpec;
use swmon_core::{
    var, ActionPattern, Atom, EventPattern, Guard, Property, ProvenanceMode, RefreshPolicy, Stage,
};
use swmon_packet::{Field, FieldValue};
use swmon_sim::time::Duration;

fn prop(name: &str, stages: Vec<Stage>) -> Property {
    Property { name: name.into(), statement: String::new(), stages }
}

fn spawn_stage() -> Stage {
    Stage::match_(
        "spawn",
        EventPattern::Arrival,
        Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
    )
}

/// Guard that re-binds the spawn variable — keeps later stages keyed so the
/// fixture fires only its intended code.
fn keyed_guard(extra: Vec<Atom>) -> Guard {
    let mut atoms = vec![Atom::Bind(var("A"), Field::Ipv4Src)];
    atoms.extend(extra);
    Guard::new(atoms)
}

fn count(diags: &[Diagnostic], code: Code) -> usize {
    diags.iter().filter(|d| d.code == code).count()
}

fn assert_fires_once(p: &Property, code: Code, severity: Severity) -> Vec<Diagnostic> {
    let diags = analyze(p);
    assert_eq!(count(&diags, code), 1, "{code:?} should fire exactly once: {diags:#?}");
    let d = diags.iter().find(|d| d.code == code).unwrap();
    assert_eq!(d.severity, severity, "{code:?} severity: {diags:#?}");
    diags
}

/// SW000 — a window on the spawn stage is structurally invalid.
fn fx_structural() -> Property {
    let mut s = spawn_stage();
    s.within = Some(WindowSpec::Fixed(Duration::from_secs(1)));
    prop("fx/sw000-window-on-spawn", vec![s])
}

/// SW001 — a guard reads `?Z` which nothing ever binds.
fn fx_unbound() -> Property {
    prop(
        "fx/sw001-unbound-read",
        vec![
            spawn_stage(),
            Stage::match_(
                "compare",
                EventPattern::Arrival,
                keyed_guard(vec![Atom::NeqVar(Field::Ipv4Dst, var("Z"))]),
            ),
        ],
    )
}

/// SW002 — one conjunction demands l4.dst == 80 and == 443.
fn fx_unsat() -> Property {
    prop(
        "fx/sw002-unsat-guard",
        vec![Stage::match_(
            "spawn",
            EventPattern::Arrival,
            Guard::new(vec![
                Atom::Bind(var("A"), Field::Ipv4Src),
                Atom::EqConst(Field::L4Dst, FieldValue::Uint(80)),
                Atom::EqConst(Field::L4Dst, FieldValue::Uint(443)),
            ]),
        )],
    )
}

/// SW003 — `?A` bound at ipv4.src and ipv4.dst in the same guard: only
/// self-addressed packets can match.
fn fx_mirror() -> Property {
    prop(
        "fx/sw003-mirror-conflict",
        vec![Stage::match_(
            "spawn",
            EventPattern::Arrival,
            Guard::new(vec![
                Atom::Bind(var("A"), Field::Ipv4Src),
                Atom::Bind(var("A"), Field::Ipv4Dst),
            ]),
        )],
    )
}

/// SW004 — stage 1 can never fire (unsat guard), so stage 2 is unreachable.
fn fx_unreachable() -> Property {
    prop(
        "fx/sw004-unreachable",
        vec![
            spawn_stage(),
            Stage::match_(
                "blocked",
                EventPattern::Arrival,
                keyed_guard(vec![
                    Atom::EqConst(Field::L4Dst, FieldValue::Uint(80)),
                    Atom::EqConst(Field::L4Dst, FieldValue::Uint(443)),
                ]),
            ),
            Stage::match_("after", EventPattern::Arrival, keyed_guard(vec![])),
        ],
    )
}

/// SW005 — refresh-on-repeat right after a deadline stage: deadlines fire
/// once, so there is no repeat to refresh on.
fn fx_dead_refresh() -> Property {
    let mut tail = Stage::match_("tail", EventPattern::Arrival, keyed_guard(vec![]));
    tail.within = Some(WindowSpec::Fixed(Duration::from_secs(5)));
    tail.within_refresh = RefreshPolicy::RefreshOnRepeat;
    prop(
        "fx/sw005-dead-refresh",
        vec![
            spawn_stage(),
            Stage::deadline("wait", Duration::from_secs(1), RefreshPolicy::NoRefresh),
            tail,
        ],
    )
}

/// SW006 — a deadline-only property observes no event class at all.
fn fx_inert() -> Property {
    prop(
        "fx/sw006-inert",
        vec![Stage::deadline("only", Duration::from_secs(1), RefreshPolicy::NoRefresh)],
    )
}

/// SW007 — stage 1 has a guard but neither re-binds a held variable nor
/// constrains packet identity, so matching scans every awaiting instance.
fn fx_full_scan() -> Property {
    prop(
        "fx/sw007-full-scan",
        vec![
            spawn_stage(),
            Stage::match_(
                "scan",
                EventPattern::Arrival,
                Guard::new(vec![Atom::EqConst(Field::L4Dst, FieldValue::Uint(80))]),
            ),
        ],
    )
}

/// No SW007 — stage 1 re-binds nothing, but `same packet as 0` at the top
/// level of its guard is an exact match on the recorded packet id: keyed.
fn fx_identity_keyed() -> Property {
    prop(
        "fx/sw007-identity-keyed",
        vec![
            spawn_stage(),
            Stage::match_(
                "same-packet-dropped",
                EventPattern::Departure(ActionPattern::Drop),
                Guard::new(vec![Atom::SamePacket(0)]),
            ),
        ],
    )
}

/// SW007 — the only identity atom sits inside an any-of, and a disjunct
/// need not hold for the guard to succeed: not a probe, still a scan.
fn fx_identity_in_anyof() -> Property {
    prop(
        "fx/sw007-identity-in-anyof",
        vec![
            spawn_stage(),
            Stage::match_(
                "same-packet-or-port-80",
                EventPattern::Departure(ActionPattern::Drop),
                Guard::new(vec![Atom::AnyOf(vec![
                    Atom::SamePacket(0),
                    Atom::EqConst(Field::L4Dst, FieldValue::Uint(80)),
                ])]),
            ),
        ],
    )
}

/// SW008 — wandering identity (dhcp.yiaddr → arp.target_ip) has no field
/// stable across guards, so the property pins to one shard.
fn fx_pinned() -> Property {
    prop(
        "fx/sw008-pinned",
        vec![
            Stage::match_(
                "offer",
                EventPattern::Arrival,
                Guard::new(vec![Atom::Bind(var("A"), Field::DhcpYiaddr)]),
            ),
            Stage::match_(
                "who-has",
                EventPattern::Arrival,
                Guard::new(vec![Atom::Bind(var("A"), Field::ArpTargetIp)]),
            ),
        ],
    )
}

/// SW009 — a drop-observing property checked against a capability profile
/// that supports nothing.
fn fx_backend_gap() -> Property {
    prop(
        "fx/sw009-backend-gap",
        vec![
            spawn_stage(),
            Stage::match_(
                "dropped",
                EventPattern::Departure(ActionPattern::Drop),
                keyed_guard(vec![]),
            ),
        ],
    )
}

fn inert_caps() -> Capabilities {
    Capabilities {
        name: "inert",
        state_mechanism: "-",
        update_datapath: "—",
        processing_mode: "",
        event_history: Cell::No,
        identity: Cell::No,
        field_access: FieldAccess::Fixed,
        negative_match: Cell::No,
        rule_timeouts: Cell::No,
        timeout_actions: Cell::No,
        symmetric_match: Cell::No,
        wandering_match: Cell::No,
        out_of_band: Cell::No,
        full_provenance: Cell::No,
        drop_detection: false,
        egress_metadata: false,
    }
}

#[test]
fn sw000_structural_failure_fires_once() {
    assert_fires_once(&fx_structural(), Code::Structural, Severity::Error);
}

#[test]
fn sw001_unbound_read_fires_once() {
    let diags = assert_fires_once(&fx_unbound(), Code::UnboundVar, Severity::Error);
    let d = diags.iter().find(|d| d.code == Code::UnboundVar).unwrap();
    assert!(d.message.contains('Z'), "{d:#?}");
}

#[test]
fn sw002_unsat_guard_fires_once() {
    assert_fires_once(&fx_unsat(), Code::UnsatGuard, Severity::Error);
}

#[test]
fn sw003_mirror_conflict_fires_once() {
    assert_fires_once(&fx_mirror(), Code::MirrorConflict, Severity::Warning);
}

#[test]
fn sw004_unreachable_stage_fires_once() {
    let diags = assert_fires_once(&fx_unreachable(), Code::UnreachableStage, Severity::Warning);
    let d = diags.iter().find(|d| d.code == Code::UnreachableStage).unwrap();
    assert_eq!(d.locus.stage, Some(2), "points at the stage after the block: {d:#?}");
}

#[test]
fn sw005_dead_refresh_fires_once() {
    assert_fires_once(&fx_dead_refresh(), Code::DeadTimeout, Severity::Warning);
}

#[test]
fn sw006_inert_property_fires_once() {
    assert_fires_once(&fx_inert(), Code::EmptyEventMask, Severity::Error);
}

#[test]
fn sw007_full_scan_fires_once() {
    assert_fires_once(&fx_full_scan(), Code::FullScanFallback, Severity::Perf);
}

#[test]
fn sw007_is_silent_on_an_identity_keyed_stage() {
    let diags = analyze(&fx_identity_keyed());
    assert_eq!(count(&diags, Code::FullScanFallback), 0, "{diags:#?}");
}

#[test]
fn sw007_fires_when_identity_is_only_inside_an_anyof() {
    let diags = assert_fires_once(&fx_identity_in_anyof(), Code::FullScanFallback, Severity::Perf);
    let d = diags.iter().find(|d| d.code == Code::FullScanFallback).unwrap();
    assert!(d.suggestion.as_deref().is_some_and(|s| s.contains("same packet as N")), "{d:#?}");
}

#[test]
fn sw008_routing_pin_fires_once() {
    assert_fires_once(&fx_pinned(), Code::RoutingPin, Severity::Perf);
}

#[test]
fn sw009_backend_gap_fires_once() {
    let p = fx_backend_gap();
    let diags = swmon_analysis::analyze_full(&p, None, &[inert_caps()], ProvenanceMode::Bindings);
    assert_eq!(count(&diags, Code::BackendGap), 1, "{diags:#?}");
    let d = diags.iter().find(|d| d.code == Code::BackendGap).unwrap();
    assert_eq!(d.severity, Severity::Note);
    assert!(d.message.contains("1 of 1"), "{d:#?}");
}

/// Every fixture above, in code order. `tests/lint_pinned.rs` at the
/// workspace root pins the diagnostics of each.
pub fn corpus() -> Vec<Property> {
    vec![
        fx_structural(),
        fx_unbound(),
        fx_unsat(),
        fx_mirror(),
        fx_unreachable(),
        fx_dead_refresh(),
        fx_inert(),
        fx_full_scan(),
        fx_identity_keyed(),
        fx_identity_in_anyof(),
        fx_pinned(),
        fx_backend_gap(),
    ]
}

#[test]
fn corpus_diagnostics_round_trip_through_json() {
    let mut all = Vec::new();
    for p in corpus() {
        all.extend(analyze(&p));
    }
    all.extend(swmon_analysis::analyze_full(
        &fx_backend_gap(),
        None,
        &[inert_caps()],
        ProvenanceMode::Bindings,
    ));
    assert!(!all.is_empty());
    let json = diags_to_json(&all);
    let back = diags_from_json(&json).expect("report parses");
    assert_eq!(all, back, "JSON report must round-trip losslessly");
}
