//! Property-based robustness tests: over arbitrary (including degenerate
//! and structurally invalid) properties, the linter must never panic, must
//! be deterministic, and its JSON report must round-trip losslessly.

use proptest::prelude::*;
use swmon_analysis::{analyze, json, Summary};
use swmon_core::property::WindowSpec;
use swmon_core::{
    var, ActionPattern, Atom, EventPattern, Guard, Property, RefreshPolicy, Stage, Unless,
};
use swmon_packet::Field;
use swmon_sim::time::Duration;

/// Fields drawn by the generator — a deliberate mix of mirrored pairs
/// (ipv4/l4 src+dst), MAC-kind, and wandering-identity fields, so the
/// mirror, routing, and type-kind passes all get exercised.
const FIELDS: [Field; 7] = [
    Field::Ipv4Src,
    Field::Ipv4Dst,
    Field::L4Src,
    Field::L4Dst,
    Field::EthSrc,
    Field::DhcpYiaddr,
    Field::ArpTargetIp,
];

#[derive(Debug, Clone)]
enum GenAtom {
    Bind(u8, usize),
    EqConst(usize, u8),
    NeqConst(usize, u8),
    NeqVar(usize, u8),
    AnyOf(Vec<(usize, u8)>),
}

fn gen_atom() -> impl Strategy<Value = GenAtom> {
    prop_oneof![
        (0u8..3, 0usize..FIELDS.len()).prop_map(|(v, f)| GenAtom::Bind(v, f)),
        (0usize..FIELDS.len(), 0u8..4).prop_map(|(f, c)| GenAtom::EqConst(f, c)),
        (0usize..FIELDS.len(), 0u8..4).prop_map(|(f, c)| GenAtom::NeqConst(f, c)),
        (0usize..FIELDS.len(), 0u8..3).prop_map(|(f, v)| GenAtom::NeqVar(f, v)),
        proptest::collection::vec((0usize..FIELDS.len(), 0u8..4), 1..3).prop_map(GenAtom::AnyOf),
    ]
}

#[derive(Debug, Clone)]
pub struct GenStage {
    kind: u8, // 0 = arrival match, 1 = departure match, 2 = deadline
    atoms: Vec<GenAtom>,
    unless: Option<Vec<GenAtom>>,
    within_secs: Option<u8>,
    refresh: bool,
}

fn gen_stage() -> impl Strategy<Value = GenStage> {
    (
        0u8..3,
        proptest::collection::vec(gen_atom(), 0..4),
        proptest::option::of(proptest::collection::vec(gen_atom(), 1..3)),
        proptest::option::of(1u8..5),
        any::<bool>(),
    )
        .prop_map(|(kind, atoms, unless, within_secs, refresh)| GenStage {
            kind,
            atoms,
            unless,
            within_secs,
            refresh,
        })
}

/// No structural clamping at all: stage 0 may be a deadline, carry a
/// window, or have clearings. The linter has to cope (that is the point).
pub fn gen_property() -> impl Strategy<Value = Vec<GenStage>> {
    proptest::collection::vec(gen_stage(), 1..5)
}

fn to_atom(a: &GenAtom) -> Atom {
    match a {
        GenAtom::Bind(v, f) => Atom::Bind(var(&format!("v{v}")), FIELDS[*f]),
        GenAtom::EqConst(f, c) => Atom::EqConst(FIELDS[*f], u64::from(*c).into()),
        GenAtom::NeqConst(f, c) => Atom::NeqConst(FIELDS[*f], u64::from(*c).into()),
        GenAtom::NeqVar(f, v) => Atom::NeqVar(FIELDS[*f], var(&format!("v{v}"))),
        GenAtom::AnyOf(alts) => Atom::AnyOf(
            alts.iter().map(|(f, c)| Atom::EqConst(FIELDS[*f], u64::from(*c).into())).collect(),
        ),
    }
}

pub fn build(stages: &[GenStage]) -> Property {
    let built: Vec<Stage> = stages
        .iter()
        .enumerate()
        .map(|(i, gs)| {
            let guard = Guard::new(gs.atoms.iter().map(to_atom).collect());
            let mut st = match gs.kind {
                0 => Stage::match_(&format!("s{i}"), EventPattern::Arrival, guard),
                1 => Stage::match_(
                    &format!("s{i}"),
                    EventPattern::Departure(ActionPattern::Any),
                    guard,
                ),
                _ => Stage::deadline(
                    &format!("s{i}"),
                    Duration::from_secs(1),
                    if gs.refresh {
                        RefreshPolicy::RefreshOnRepeat
                    } else {
                        RefreshPolicy::NoRefresh
                    },
                ),
            };
            if let Some(u) = &gs.unless {
                st.unless.push(Unless {
                    pattern: EventPattern::Arrival,
                    guard: Guard::new(u.iter().map(to_atom).collect()),
                });
            }
            if let Some(secs) = gs.within_secs {
                st.within = Some(WindowSpec::Fixed(Duration::from_secs(u64::from(secs))));
                if gs.refresh {
                    st.within_refresh = RefreshPolicy::RefreshOnRepeat;
                }
            }
            st
        })
        .collect();
    Property { name: "gen/prop".into(), statement: String::new(), stages: built }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The linter must never panic, whatever the property's shape, and its
    /// summary must account for every diagnostic.
    #[test]
    fn lint_never_panics(stages in gen_property()) {
        let p = build(&stages);
        let diags = analyze(&p);
        let s = Summary::of(&diags);
        prop_assert_eq!(s.total(), diags.len());
    }

    /// Linting the same property twice yields identical diagnostics in
    /// identical order.
    #[test]
    fn lint_is_deterministic(stages in gen_property()) {
        let p = build(&stages);
        prop_assert_eq!(analyze(&p), analyze(&p));
    }

    /// The JSON report parses back to exactly the diagnostics that
    /// produced it.
    #[test]
    fn json_report_round_trips(stages in gen_property()) {
        let p = build(&stages);
        let diags = analyze(&p);
        let report = json::diags_to_json(&diags);
        let back = json::diags_from_json(&report).expect("report parses");
        prop_assert_eq!(diags, back);
    }
}
