//! Differential testing of the engine against an independent brute-force
//! oracle.
//!
//! The oracle reimplements the documented instance semantics for timer-free
//! linear properties as obviously-correct map manipulation: monitor state
//! is a map from `(stage, bindings)` to the packet ids that instance
//! recorded (one entry per key = the engine's deduplication, and inserting
//! only into a vacant key = "the incumbent wins"); each event first clears,
//! then advances, then spawns. Guards are evaluated by the oracle's own
//! few-line interpreter, so it shares neither the engine's instance
//! indexes nor `Guard::eval`. Proptest then drives both implementations
//! with random properties over random traces and demands identical
//! violation multisets.
//!
//! Packet identity (Feature 5) is in the alphabet: `SamePacket(i)` atoms on
//! advance and clearing guards, over traces where a packet's departure is
//! immediate, rewritten, a drop, delayed behind later packets' departures,
//! or missing altogether — the cases a `packet id → instances` index must
//! get right and a header-only comparison cannot.

use proptest::prelude::*;
use std::collections::BTreeMap;
use swmon_core::{
    var, ActionPattern, Atom, Bindings, EventPattern, Guard, Monitor, Property, Stage, Unless,
};
use swmon_packet::{Field, Ipv4Address, MacAddr, Packet, PacketBuilder, TcpFlags};
use swmon_sim::{Duration, EgressAction, Instant, NetEvent, PacketId, PortNo, TraceBuilder};

// ---------------------------------------------------------------------------
// Random property and trace generation over a tiny alphabet.

/// Fields the generator draws from (all present in every trace packet).
const FIELDS: [Field; 4] = [Field::Ipv4Src, Field::Ipv4Dst, Field::L4Src, Field::L4Dst];

#[derive(Debug, Clone)]
enum GenAtom {
    Bind(u8, usize),    // var index, field index
    EqConst(usize, u8), // field index, small value
    NeqVar(usize, u8),  // field index, var index
    SamePacket(u8),     // raw stage reference, reduced to an earlier stage
}

fn gen_atom() -> impl Strategy<Value = GenAtom> {
    prop_oneof![
        (0u8..3, 0usize..FIELDS.len()).prop_map(|(v, f)| GenAtom::Bind(v, f)),
        (0usize..FIELDS.len(), 1u8..4).prop_map(|(f, c)| GenAtom::EqConst(f, c)),
        (0usize..FIELDS.len(), 0u8..3).prop_map(|(f, v)| GenAtom::NeqVar(f, v)),
        (0u8..6).prop_map(GenAtom::SamePacket),
    ]
}

/// What a stage (or a clearing) observes.
#[derive(Debug, Clone, Copy)]
enum Obs {
    Arrival,
    /// Any departure, drops included.
    Departure,
    /// Forwarded departures only: a dropped packet never satisfies it.
    Forwarded,
}

fn gen_obs() -> impl Strategy<Value = Obs> {
    prop_oneof![Just(Obs::Arrival), Just(Obs::Departure), Just(Obs::Forwarded)]
}

#[derive(Debug, Clone)]
struct GenStage {
    obs: Obs,
    atoms: Vec<GenAtom>,
    unless: Option<(Obs, Vec<GenAtom>)>,
}

fn gen_stage() -> impl Strategy<Value = GenStage> {
    (
        gen_obs(),
        proptest::collection::vec(gen_atom(), 0..3),
        proptest::option::of((gen_obs(), proptest::collection::vec(gen_atom(), 1..3))),
    )
        .prop_map(|(obs, atoms, unless)| GenStage { obs, atoms, unless })
}

fn gen_property() -> impl Strategy<Value = Vec<GenStage>> {
    proptest::collection::vec(gen_stage(), 2..4).prop_map(|mut stages| {
        // Stage 0 must be a Match; keep it simple: no unless on stage 0
        // (no obligation before any observation).
        stages[0].unless = None;
        stages
    })
}

/// The guard for `atoms` on stage `stage`. An identity atom must refer to
/// an earlier stage: its raw reference is reduced modulo `stage`, and
/// dropped on stage 0, which has no earlier stage.
fn atoms_to_guard(atoms: &[GenAtom], stage: usize) -> Guard {
    Guard::new(
        atoms
            .iter()
            .filter_map(|a| match a {
                GenAtom::Bind(v, f) => Some(Atom::Bind(var(&format!("v{v}")), FIELDS[*f])),
                GenAtom::EqConst(f, c) => {
                    Some(Atom::EqConst(FIELDS[*f], const_value(FIELDS[*f], *c)))
                }
                GenAtom::NeqVar(f, v) => Some(Atom::NeqVar(FIELDS[*f], var(&format!("v{v}")))),
                GenAtom::SamePacket(r) => {
                    (stage > 0).then(|| Atom::SamePacket(usize::from(*r) % stage))
                }
            })
            .collect(),
    )
}

/// The value the generator's small constant `c` denotes in field `f` —
/// must agree with how traces are built.
fn const_value(f: Field, c: u8) -> swmon_packet::FieldValue {
    match f {
        Field::Ipv4Src | Field::Ipv4Dst => Ipv4Address::new(10, 0, 0, c).into(),
        _ => u64::from(1000 + u16::from(c)).into(),
    }
}

fn pattern(obs: Obs) -> EventPattern {
    match obs {
        Obs::Arrival => EventPattern::Arrival,
        Obs::Departure => EventPattern::Departure(ActionPattern::Any),
        Obs::Forwarded => EventPattern::Departure(ActionPattern::Forwarded),
    }
}

fn build_property(stages: &[GenStage]) -> Property {
    let built: Vec<Stage> = stages
        .iter()
        .enumerate()
        .map(|(i, gs)| {
            let mut st =
                Stage::match_(&format!("s{i}"), pattern(gs.obs), atoms_to_guard(&gs.atoms, i));
            if let Some((obs, atoms)) = &gs.unless {
                st.unless.push(Unless { pattern: pattern(*obs), guard: atoms_to_guard(atoms, i) });
            }
            st
        })
        .collect();
    Property { name: "oracle".into(), statement: String::new(), stages: built }
}

/// What the switch does with a packet after it arrives.
#[derive(Debug, Clone, Copy)]
enum Fate {
    /// Forwarded at once, headers intact.
    Forward,
    /// Forwarded at once with a rewritten source (a NAT-style translation:
    /// only the packet id ties the departure to its arrival).
    Rewrite,
    /// Departs at once — as a drop.
    Drop,
    /// Forwarded only after this many later packets have arrived, so other
    /// packets' departures overtake it.
    Delay(u8),
    /// Never departs.
    Vanish,
}

fn gen_fate() -> impl Strategy<Value = Fate> {
    prop_oneof![
        Just(Fate::Forward),
        Just(Fate::Forward),
        Just(Fate::Rewrite),
        Just(Fate::Drop),
        (1u8..4).prop_map(Fate::Delay),
        Just(Fate::Vanish),
    ]
}

/// One generated trace packet: small src/dst/sport/dport indices, and what
/// becomes of it.
#[derive(Debug, Clone, Copy)]
struct GenEvent {
    src: u8,
    dst: u8,
    sport: u8,
    dport: u8,
    fate: Fate,
}

fn gen_trace() -> impl Strategy<Value = Vec<GenEvent>> {
    proptest::collection::vec(
        (1u8..4, 1u8..4, 1u8..4, 1u8..4, gen_fate())
            .prop_map(|(src, dst, sport, dport, fate)| GenEvent { src, dst, sport, dport, fate }),
        1..40,
    )
}

fn packet(src: u8, e: &GenEvent) -> Packet {
    PacketBuilder::tcp(
        MacAddr::new(2, 0, 0, 0, 0, src),
        MacAddr::new(2, 0, 0, 0, 0, e.dst),
        Ipv4Address::new(10, 0, 0, src),
        Ipv4Address::new(10, 0, 0, e.dst),
        1000 + u16::from(e.sport),
        1000 + u16::from(e.dport),
        TcpFlags::ACK,
        &[],
    )
}

fn render(events: &[GenEvent]) -> Vec<NetEvent> {
    let tick = Duration::from_micros(1);
    let out = EgressAction::Output(PortNo(1));
    let mut tb = TraceBuilder::new();
    // Delayed packets: (arrivals still to wait for, id, packet).
    let mut held: Vec<(u8, PacketId, Packet)> = Vec::new();
    for e in events {
        let id = tb.advance(tick).arrive(PortNo(0), packet(e.src, e));
        match e.fate {
            Fate::Forward => drop(tb.advance(tick).depart(id, packet(e.src, e), out)),
            Fate::Rewrite => drop(tb.advance(tick).depart(id, packet(e.src % 3 + 1, e), out)),
            Fate::Drop => drop(tb.advance(tick).depart(id, packet(e.src, e), EgressAction::Drop)),
            Fate::Delay(n) => held.push((n + 1, id, packet(e.src, e))),
            Fate::Vanish => {}
        }
        for h in &mut held {
            h.0 -= 1;
        }
        for (_, id, pkt) in held.iter().filter(|h| h.0 == 0) {
            tb.advance(tick).depart(*id, pkt.clone(), out);
        }
        held.retain(|h| h.0 > 0);
    }
    // Packets still held when the trace ends never depart.
    tb.build()
}

// ---------------------------------------------------------------------------
// The oracle.

/// The packet ids an instance recorded, one per completed stage.
type StageIds = Vec<Option<PacketId>>;

/// The oracle's own guard interpreter over the generated atom alphabet:
/// the extended environment when every atom holds for `ev`.
fn holds(guard: &Guard, ev: &NetEvent, env: &Bindings, ids: &StageIds) -> Option<Bindings> {
    let mut env = *env;
    for atom in &guard.atoms {
        match atom {
            Atom::Bind(v, f) => env.unify(v, ev.field(*f)?).then_some(())?,
            Atom::EqConst(f, want) => (ev.field(*f)? == *want).then_some(())?,
            Atom::NeqVar(f, v) => (ev.field(*f)? != *env.get(v)?).then_some(())?,
            Atom::SamePacket(stage) => {
                let recorded = (*ids.get(*stage)?)?;
                (ev.packet_id()? == recorded).then_some(())?
            }
            other => unreachable!("atom outside the generated alphabet: {other:?}"),
        }
    }
    Some(env)
}

fn oracle(property: &Property, trace: &[NetEvent]) -> Vec<Bindings> {
    use swmon_core::StageKind;
    let mut live: BTreeMap<(usize, Bindings), StageIds> = BTreeMap::new();
    let mut violations = Vec::new();
    let n = property.stages.len();
    for ev in trace {
        // 1. Clearings.
        live.retain(|(stage, env), ids| {
            !property.stages[*stage]
                .unless
                .iter()
                .any(|u| u.pattern.matches(ev) && holds(&u.guard, ev, env, ids).is_some())
        });
        // 2. Advances (one stage per event per instance): every mover
        //    leaves its key first, then each lands — dissolving into an
        //    incumbent that stayed put, which keeps its own recorded ids.
        let mut movers = Vec::new();
        for ((stage, env), ids) in &live {
            if let StageKind::Match { pattern, guard } = &property.stages[*stage].kind {
                if pattern.matches(ev) {
                    if let Some(env2) = holds(guard, ev, env, ids) {
                        movers.push(((*stage, *env), env2));
                    }
                }
            }
        }
        let movers: Vec<_> = movers
            .into_iter()
            .map(|(key, env2)| {
                let mut ids = live.remove(&key).expect("mover is live");
                ids.push(ev.packet_id());
                (key.0 + 1, env2, ids)
            })
            .collect();
        for (stage, env2, ids) in movers {
            if stage == n {
                violations.push(env2);
            } else {
                live.entry((stage, env2)).or_insert(ids);
            }
        }
        // 3. Spawns.
        if let StageKind::Match { pattern, guard } = &property.stages[0].kind {
            if pattern.matches(ev) {
                if let Some(env) = holds(guard, ev, &Bindings::new(), &Vec::new()) {
                    if n == 1 {
                        violations.push(env);
                    } else {
                        live.entry((1, env)).or_insert_with(|| vec![ev.packet_id()]);
                    }
                }
            }
        }
    }
    violations
}

fn engine(property: &Property, trace: &[NetEvent]) -> Vec<Bindings> {
    let mut m = Monitor::with_defaults(property.clone());
    for ev in trace {
        m.process(ev);
    }
    m.advance_to(Instant::ZERO + Duration::from_secs(1));
    m.violations().iter().filter_map(|v| v.bindings).collect()
}

fn sorted(mut v: Vec<Bindings>) -> Vec<Bindings> {
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The engine and the brute-force oracle agree on violation multisets
    /// for arbitrary timer-free linear properties over arbitrary traces.
    #[test]
    fn engine_matches_oracle(stages in gen_property(), events in gen_trace()) {
        let property = build_property(&stages);
        prop_assume!(property.validate().is_ok());
        let trace = render(&events);
        let got = sorted(engine(&property, &trace));
        let want = sorted(oracle(&property, &trace));
        prop_assert_eq!(got, want, "\nproperty: {:#?}", property);
    }

    /// Single-stage properties: every matching event is a violation.
    #[test]
    fn single_stage_counts_matches(events in gen_trace(), c in 1u8..4) {
        let property = Property {
            name: "one".into(),
            statement: String::new(),
            stages: vec![Stage::match_(
                "only",
                EventPattern::Arrival,
                Guard::new(vec![Atom::EqConst(Field::Ipv4Src, const_value(Field::Ipv4Src, c))]),
            )],
        };
        let trace = render(&events);
        let got = engine(&property, &trace).len();
        let expect = events.iter().filter(|e| e.src == c).count();
        prop_assert_eq!(got, expect);
    }
}

/// Regression: an advance that extends bindings used to leave a stale
/// index entry (computed post-assignment), making later identical spawns
/// dissolve into a dead slot; and same-event chained advances used to
/// dissolve movers into incumbents that were themselves advancing away.
#[test]
fn regression_stale_index_and_same_event_chains() {
    let stages = vec![
        GenStage { obs: Obs::Departure, atoms: vec![], unless: None },
        GenStage { obs: Obs::Departure, atoms: vec![GenAtom::Bind(0, 0)], unless: None },
    ];
    let property = build_property(&stages);
    let events = vec![GenEvent { src: 1, dst: 1, sport: 1, dport: 1, fate: Fate::Forward }; 3];
    let trace = render(&events);
    let mut m = Monitor::with_defaults(property.clone());
    for ev in &trace {
        m.process(ev);
    }
    assert_eq!(m.violations().len(), 2);
    assert_eq!(m.violations().len(), oracle(&property, &trace).len());
}

/// Deterministic anchor for identity: "the packet that arrived departs"
/// (any action), cleared if that same packet is *forwarded* first with its
/// source rewritten to 10.0.0.2 — so stage 1 is keyed on packet identity
/// for both its guards. Packet 1 departs late, behind packet 2's drop;
/// packet 3 never departs; packet 4 is rewritten on the way out.
#[test]
fn identity_anchor_delayed_dropped_missing_and_rewritten_departures() {
    let stages = vec![
        GenStage { obs: Obs::Arrival, atoms: vec![GenAtom::Bind(0, 0)], unless: None },
        GenStage {
            obs: Obs::Departure,
            atoms: vec![GenAtom::SamePacket(0)],
            unless: Some((Obs::Forwarded, vec![GenAtom::SamePacket(0), GenAtom::EqConst(0, 2)])),
        },
    ];
    let property = build_property(&stages);
    let at = |src, fate| GenEvent { src, dst: 1, sport: 1, dport: 1, fate };
    let events = vec![
        at(1, Fate::Delay(1)), // violation, once packet 2 is through
        at(2, Fate::Drop),     // violation: a drop is not the clearing
        at(3, Fate::Vanish),   // waits forever
        at(1, Fate::Rewrite),  // cleared: forwarded with source 10.0.0.2
    ];
    let trace = render(&events);
    let want = sorted(oracle(&property, &trace));
    assert_eq!(want.len(), 2);
    assert_eq!(sorted(engine(&property, &trace)), want);
}
