//! Pinned linter output.
//!
//! The ordered `(code, severity, stage, position)` tuples the linter emits
//! for the defect corpus (`crates/analysis/tests/fixtures.rs`), for a
//! handful of corner properties the random strategy cannot draw (out-of-
//! width constants, cross-stage conflicts, round-robin reads, `within
//! bound`), and for the 21-property catalog — plus one digest over the
//! same tuples for 512 properties drawn from `proptest_lint.rs`'s strategy
//! under a fixed seed.
//!
//! **How the expectations were captured:** this file was first run on the
//! parent commit (8c93ed0, where SW001/2/4/5 came from the syntactic passes
//! and SW010/12/13 from the CFG fixpoint) with each `assert_eq!` replaced
//! by a `println!` of its left-hand side; the constants below are that
//! output. The single stage walk that replaced both must reproduce them
//! exactly.

#[path = "../crates/analysis/tests/fixtures.rs"]
mod fixtures;
#[path = "../crates/analysis/tests/proptest_lint.rs"]
mod proptest_lint;

use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use swmon::analysis::{analyze, Diagnostic};
use swmon::monitor::property::WindowSpec;
use swmon::monitor::{
    var, ActionPattern, Atom, EventPattern, Guard, OobPattern, Property, RefreshPolicy, Stage,
    Unless,
};
use swmon::packet::{Field, FieldValue, Ipv4Address};
use swmon::sim::Duration;
use swmon_bench::lint;

/// One line per diagnostic: `code severity stage position`.
fn tuples(diags: &[Diagnostic]) -> Vec<String> {
    diags
        .iter()
        .map(|d| {
            let stage = d.locus.stage.map_or("-".to_string(), |s| s.to_string());
            format!("{} {} {stage} {}", d.code, d.severity, d.locus.position.render())
        })
        .collect()
}

fn u(n: u64) -> FieldValue {
    FieldValue::Uint(n)
}

fn arrival(name: &str, atoms: Vec<Atom>) -> Stage {
    Stage::match_(name, EventPattern::Arrival, Guard::new(atoms))
}

fn prop(name: &str, stages: Vec<Stage>) -> Property {
    Property { name: name.into(), statement: String::new(), stages }
}

/// `l4.dst == 80; bind ?P = l4.dst` — a spawn stage that pins `?P` to 80.
fn spawn_p80() -> Stage {
    arrival("spawn", vec![Atom::EqConst(Field::L4Dst, u(80)), Atom::Bind(var("P"), Field::L4Dst)])
}

/// Properties exercising every reason the guard evaluator can give, in
/// places where the codes interact (a proven-dead stage ahead of a
/// syntactically blocked one, findings on stages nothing can reach).
fn corners() -> Vec<Property> {
    let a_src = || Atom::Bind(var("A"), Field::Ipv4Src);
    let conflict =
        || vec![a_src(), Atom::EqConst(Field::L4Dst, u(80)), Atom::EqConst(Field::L4Dst, u(443))];

    let mut windowed = arrival("windowed", vec![a_src()]);
    windowed.within = Some(WindowSpec::BoundSecs(var("W")));
    let mut cleared = arrival("cleared", vec![a_src()]);
    cleared.unless = vec![
        Unless { pattern: EventPattern::Departure(ActionPattern::Any), guard: Guard::any() },
        Unless {
            pattern: EventPattern::Departure(ActionPattern::Drop),
            guard: Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Dst)]),
        },
        Unless {
            pattern: EventPattern::Arrival,
            guard: Guard::new(vec![
                Atom::NeqVar(Field::Ipv4Dst, var("Z")),
                Atom::EqConst(Field::Ttl, u(7)),
                Atom::NeqConst(Field::Ttl, u(7)),
                Atom::Bind(var("A"), Field::Ipv4Src),
                Atom::Bind(var("A"), Field::Ipv4Dst),
            ]),
        },
    ];
    let mut spawn_with_clearing = arrival("spawn", vec![a_src()]);
    spawn_with_clearing.unless = vec![Unless {
        pattern: EventPattern::OutOfBand(OobPattern::Any),
        guard: Guard::new(vec![Atom::NeqVar(Field::Ipv4Dst, var("A"))]),
    }];
    let mut late_window = arrival("late", vec![a_src()]);
    late_window.within = Some(WindowSpec::Fixed(Duration::from_secs(2)));

    vec![
        prop(
            "corner/width-then-conflict",
            vec![
                arrival("spawn", vec![a_src()]),
                arrival("wide", vec![a_src(), Atom::EqConst(Field::Ttl, u(300))]),
                arrival("blocked", conflict()),
                Stage::deadline("after", Duration::from_secs(1), RefreshPolicy::NoRefresh),
                late_window,
            ],
        ),
        prop(
            "corner/cross-stage-constant",
            vec![
                spawn_p80(),
                arrival(
                    "rebind",
                    vec![Atom::EqConst(Field::L4Src, u(443)), Atom::Bind(var("P"), Field::L4Src)],
                ),
                arrival("tail", vec![Atom::Bind(var("P"), Field::L4Dst)]),
            ],
        ),
        prop(
            "corner/cross-kind-rebind",
            vec![spawn_p80(), arrival("rebind", vec![Atom::Bind(var("P"), Field::Ipv4Src)])],
        ),
        prop(
            "corner/pinned-through-variable",
            vec![
                spawn_p80(),
                arrival(
                    "excluded",
                    vec![Atom::Bind(var("P"), Field::L4Dst), Atom::NeqConst(Field::L4Dst, u(80))],
                ),
                arrival(
                    "same",
                    vec![Atom::EqConst(Field::L4Src, u(80)), Atom::NeqVar(Field::L4Src, var("P"))],
                ),
            ],
        ),
        prop(
            "corner/bind-and-exclude",
            vec![
                arrival("spawn", vec![a_src()]),
                arrival("both", vec![a_src(), Atom::NeqVar(Field::Ipv4Src, var("A"))]),
                Stage::match_(
                    "tail",
                    EventPattern::OutOfBand(OobPattern::PortDown),
                    Guard::new(vec![a_src()]),
                ),
            ],
        ),
        prop(
            "corner/exclude-then-pin",
            vec![arrival(
                "spawn",
                vec![
                    a_src(),
                    Atom::NeqConst(Field::L4Dst, u(80)),
                    Atom::EqConst(Field::L4Dst, u(443)),
                    Atom::EqConst(Field::L4Dst, u(80)),
                ],
            )],
        ),
        prop(
            "corner/mistyped-constant",
            vec![arrival(
                "spawn",
                vec![
                    a_src(),
                    Atom::EqConst(Field::L4Dst, FieldValue::Ipv4(Ipv4Address::new(10, 0, 0, 1))),
                    Atom::EqConst(Field::L4Dst, u(80)),
                ],
            )],
        ),
        prop(
            "corner/dead-disjunction",
            vec![
                arrival("spawn", vec![a_src()]),
                arrival(
                    "either",
                    vec![
                        a_src(),
                        Atom::EqConst(Field::L4Dst, u(80)),
                        Atom::AnyOf(vec![
                            Atom::EqConst(Field::L4Dst, u(443)),
                            Atom::EqConst(Field::Ttl, u(999)),
                        ]),
                    ],
                ),
                arrival("tail", vec![a_src()]),
            ],
        ),
        prop(
            "corner/unbound-reads",
            vec![
                arrival("spawn", vec![a_src()]),
                arrival(
                    "disjuncts",
                    vec![
                        a_src(),
                        Atom::AnyOf(vec![
                            Atom::NeqVar(Field::Ipv4Dst, var("Z")),
                            Atom::AnyOf(vec![
                                Atom::RrSuccessorMismatch { prev: var("Y"), modulus: 4, base: 1 },
                                Atom::Bind(var("Q"), Field::L4Src),
                            ]),
                        ]),
                        Atom::NeqVar(Field::L4Src, var("Q")),
                    ],
                ),
                windowed,
                arrival(
                    "rr",
                    vec![
                        a_src(),
                        Atom::RrSuccessorMismatch { prev: var("Y"), modulus: 4, base: 1 },
                    ],
                ),
            ],
        ),
        prop(
            "corner/read-before-bind",
            vec![
                arrival("spawn", vec![a_src()]),
                arrival(
                    "ordered",
                    vec![
                        a_src(),
                        Atom::NeqVar(Field::L4Src, var("B")),
                        Atom::Bind(var("B"), Field::L4Src),
                    ],
                ),
                arrival("tail", vec![a_src()]),
            ],
        ),
        prop("corner/clearings", vec![spawn_with_clearing, cleared]),
    ]
}

/// FNV-1a over the tuple lines of every drawn property, each list closed by
/// a newline so `[a b] []` and `[a] [b]` differ.
fn drawn_digest(seed: u64, count: usize) -> (usize, u64) {
    let strategy = proptest_lint::gen_property();
    let mut rng = TestRng::seed_from_u64(seed);
    let (mut total, mut h) = (0usize, 0xcbf2_9ce4_8422_2325u64);
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for _ in 0..count {
        let p = proptest_lint::build(&strategy.generate(&mut rng));
        for line in tuples(&analyze(&p)) {
            total += 1;
            eat(line.as_bytes());
            eat(b";");
        }
        eat(b"\n");
    }
    (total, h)
}

/// Expected tuples per fixture and corner property, in corpus order.
#[rustfmt::skip]
const PROPERTIES: &[(&str, &[&str])] = &[
    ("fx/sw000-window-on-spawn", &[
        "SW000 error 0 stage",
        "SW013 note - property",
    ]),
    ("fx/sw001-unbound-read", &[
        "SW001 error 1 guard atom 1",
        "SW012 warning 1 stage",
        "SW013 note - property",
    ]),
    ("fx/sw002-unsat-guard", &[
        "SW002 error 0 guard atom 2",
        "SW010 note - property",
    ]),
    ("fx/sw003-mirror-conflict", &[
        "SW003 warning 0 guard atom 1",
        "SW008 perf - property",
    ]),
    ("fx/sw004-unreachable", &[
        "SW002 error 1 guard atom 2",
        "SW004 warning 2 stage",
        "SW013 note - property",
    ]),
    ("fx/sw005-dead-refresh", &[
        "SW005 warning 2 window",
        "SW013 note - property",
    ]),
    ("fx/sw006-inert", &[
        "SW000 error 0 stage",
        "SW006 error - property",
        "SW008 perf - property",
    ]),
    ("fx/sw007-full-scan", &[
        "SW007 perf 1 stage",
        "SW008 perf - property",
    ]),
    ("fx/sw007-identity-keyed", &[
        "SW008 perf - property",
    ]),
    ("fx/sw007-identity-in-anyof", &[
        "SW007 perf 1 stage",
        "SW008 perf - property",
    ]),
    ("fx/sw008-pinned", &[
        "SW008 perf - property",
    ]),
    ("fx/sw009-backend-gap", &[
        "SW013 note - property",
    ]),
    ("corner/width-then-conflict", &[
        "SW002 error 2 guard atom 2",
        "SW004 warning 3 stage",
        "SW004 warning 4 stage",
        "SW005 warning 3 window",
        "SW005 warning 4 window",
        "SW012 warning 1 stage",
        "SW013 note - property",
    ]),
    ("corner/cross-stage-constant", &[
        "SW012 warning 1 stage",
        "SW008 perf - property",
        "SW013 note - property",
    ]),
    ("corner/cross-kind-rebind", &[
        "SW012 warning 1 stage",
        "SW008 perf - property",
        "SW013 note - property",
    ]),
    ("corner/pinned-through-variable", &[
        "SW012 warning 1 stage",
        "SW007 perf 2 stage",
        "SW008 perf - property",
        "SW013 note - property",
    ]),
    ("corner/bind-and-exclude", &[
        "SW002 error 1 guard atom 1",
        "SW004 warning 2 stage",
        "SW013 note - property",
    ]),
    ("corner/exclude-then-pin", &[
        "SW002 error 0 guard atom 3",
        "SW010 note - property",
    ]),
    ("corner/mistyped-constant", &[
        "SW002 error 0 guard atom 1",
        "SW010 note - property",
    ]),
    ("corner/dead-disjunction", &[
        "SW012 warning 1 stage",
        "SW013 note - property",
    ]),
    ("corner/unbound-reads", &[
        "SW001 error 1 guard atom 2",
        "SW001 error 2 window",
        "SW001 error 3 guard atom 1",
        "SW001 warning 1 guard atom 1",
        "SW001 warning 1 guard atom 1",
        "SW004 warning 2 stage",
        "SW004 warning 3 stage",
        "SW005 warning 2 window",
        "SW012 warning 1 stage",
        "SW013 note - property",
    ]),
    ("corner/read-before-bind", &[
        "SW001 error 1 guard atom 1",
        "SW002 error 1 guard atom 2",
        "SW004 warning 2 stage",
        "SW013 note - property",
    ]),
    ("corner/clearings", &[
        "SW001 warning 0 unless clause 0",
        "SW001 warning 1 unless clause 2",
        "SW002 warning 1 unless clause 2",
        "SW003 warning 1 unless clause 2",
        "SW004 warning 0 unless clause 0",
        "SW011 warning 1 unless clause 1",
        "SW007 perf 1 stage",
        "SW008 perf - property",
        "SW010 note - property",
    ]),
];

/// Expected tuples over the catalog, as `property: tuple`, in catalog
/// order (`analyze_full`, so the `SW009` backend notes are in).
#[rustfmt::skip]
const CATALOG: &[&str] = &[
    "arp-proxy/known-not-forwarded: SW008 perf - property",
    "arp-proxy/known-not-forwarded: SW009 note - property",
    "arp-proxy/unknown-forwarded: SW008 perf - property",
    "arp-proxy/unknown-forwarded: SW009 note - property",
    "port-knock/wrong-guess-invalidates: SW009 note - property",
    "port-knock/wrong-guess-invalidates: SW013 note - property",
    "port-knock/valid-sequence-opens: SW009 note - property",
    "port-knock/valid-sequence-opens: SW013 note - property",
    "lb/new-flow-hashed-port: SW008 perf - property",
    "lb/new-flow-hashed-port: SW009 note - property",
    "lb/new-flow-round-robin: SW007 perf 2 stage",
    "lb/new-flow-round-robin: SW008 perf - property",
    "lb/new-flow-round-robin: SW009 note - property",
    "lb/stable-assignment: SW008 perf - property",
    "lb/stable-assignment: SW009 note - property",
    "ftp/data-port-matches-control: SW009 note - property",
    "ftp/data-port-matches-control: SW013 note - property",
    "dhcp/reply-within-T: SW009 note - property",
    "dhcp/no-reuse-before-expiry: SW008 perf - property",
    "dhcp/no-reuse-before-expiry: SW009 note - property",
    "dhcp/no-lease-overlap: SW008 perf - property",
    "dhcp/no-lease-overlap: SW009 note - property",
    "dhcp-arp/preload-cache: SW008 perf - property",
    "dhcp-arp/preload-cache: SW009 note - property",
    "dhcp-arp/no-unfounded-direct-reply: SW008 perf - property",
    "dhcp-arp/no-unfounded-direct-reply: SW009 note - property",
    "firewall/return-not-dropped: SW009 note - property",
    "firewall/return-not-dropped: SW013 note - property",
    "firewall/return-not-dropped-within-T: SW009 note - property",
    "firewall/return-not-dropped-within-T: SW013 note - property",
    "firewall/return-until-close: SW009 note - property",
    "firewall/return-until-close: SW013 note - property",
    "nat/reverse-translation: SW008 perf - property",
    "nat/reverse-translation: SW009 note - property",
    "learning-switch/no-flood-after-learn: SW008 perf - property",
    "learning-switch/no-flood-after-learn: SW009 note - property",
    "learning-switch/correct-port: SW008 perf - property",
    "learning-switch/correct-port: SW009 note - property",
    "learning-switch/flush-on-link-down: SW007 perf 1 stage",
    "learning-switch/flush-on-link-down: SW008 perf - property",
    "learning-switch/flush-on-link-down: SW009 note - property",
    "arp-proxy/reply-within-T: SW008 perf - property",
    "arp-proxy/reply-within-T: SW009 note - property",
];

/// `(diagnostics, digest)` of 512 draws under seed `0x11a7`.
const DRAWN: (usize, u64) = (3624, 11398650463845066417);

#[test]
fn fixtures_and_corners_keep_their_diagnostics() {
    let corpus: Vec<Property> = fixtures::corpus().into_iter().chain(corners()).collect();
    assert_eq!(corpus.len(), PROPERTIES.len(), "a fixture was added or removed: re-pin it");
    for (p, (name, expected)) in corpus.iter().zip(PROPERTIES) {
        assert_eq!(p.name, *name);
        assert_eq!(tuples(&analyze(p)), *expected, "{name}");
    }
}

#[test]
fn catalog_keeps_its_diagnostics() {
    let diags = lint::run(&lint::catalog_targets());
    let got: Vec<String> = diags
        .iter()
        .zip(tuples(&diags))
        .map(|(d, t)| format!("{}: {t}", d.locus.property))
        .collect();
    assert_eq!(got, CATALOG);
}

#[test]
fn drawn_properties_keep_their_digest() {
    assert_eq!(drawn_digest(0x11a7, 512), DRAWN);
}
