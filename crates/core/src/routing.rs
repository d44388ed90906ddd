//! Instance-identification analysis — which event fields name a
//! property's instance (the paper's Feature 8, Sec 3.3).
//!
//! A hash-indexed register array can only hold a property's instances if
//! every event that can touch one instance carries its key at fixed field
//! positions. This module derives, per property, a [`RoutingPlan`] that is
//! *provably* consistent with the reference engine's semantics:
//!
//! * **Hash-exact** — some set of stage-0 binder variables is re-bound by
//!   *every* later match/clearing guard against the *same* field. Any event
//!   that can spawn, advance, clear, or refresh an instance therefore
//!   carries the instance's key values at fixed field positions.
//! * **Hash-symmetric** — later guards re-bind the key variables against
//!   the *mirror* fields (src↔dst), the paper's symmetric instance
//!   identification: a request and its reply carry the same key with its
//!   fields swapped, and `perm` says how.
//! * **Pinned** — anything else (wandering identification, `Guard::any()`
//!   clearings, out-of-band observations, guards that reference a key
//!   variable only negatively): no field position names the instance.
//!
//! A missing key field is also meaningful: if an event lacks one, it cannot
//! satisfy any guard of the property (every guard binds every key variable,
//! and [`crate::guard::Atom::Bind`] fails on a missing field), so it can
//! neither spawn, advance, clear nor evict an instance, and the runtime's
//! ingress need not deliver it ([`RoutingPlan::key_fields`]).
//!
//! Only *top-level* `Bind` atoms count as binders: bindings made inside an
//! `AnyOf` disjunct are discarded by guard evaluation, so they do not pin
//! the event's field to the instance's value.

use crate::features::mirror_field;
use crate::guard::{Atom, Guard};
use crate::property::{Property, Stage, StageKind};
use crate::var::{Bindings, Var};
use std::collections::BTreeMap;
use swmon_packet::{Field, FieldValue};
use swmon_sim::trace::{NetEvent, PacketId};

/// Why no field position names a property's instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinReason {
    /// No stage-0 binder variable is re-bound by every later guard (this
    /// covers `Guard::any()` clearings, out-of-band stages — whose events
    /// carry no fields — and negative-only key references).
    NoStableKey,
    /// A guard re-binds some key variables at their original fields and
    /// others at mirrors; neither orientation covers the whole key.
    MixedOrientation,
    /// A key variable's field mirrors to a field that no other key
    /// variable occupies, so the canonical (order-independent) form of the
    /// key cannot be computed from a single event.
    UnpairedMirror,
}

impl std::fmt::Display for PinReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PinReason::NoStableKey => write!(f, "no binder is stable across all guards"),
            PinReason::MixedOrientation => {
                write!(f, "a guard mixes original and mirrored key fields")
            }
            PinReason::UnpairedMirror => write!(f, "a mirrored key field has no partner"),
        }
    }
}

/// How one property's instances are identified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteMode {
    /// The values at `fields` (one per key variable, in canonical variable
    /// order) name the instance.
    HashExact {
        /// Extraction positions, ordered by key variable name.
        fields: Vec<Field>,
    },
    /// The values at `fields` name the instance in either orientation:
    /// a reply carries the request's key permuted by `perm`.
    HashSymmetric {
        /// Extraction positions, ordered by key variable name.
        fields: Vec<Field>,
        /// `perm[i]` is the index whose field is the mirror of
        /// `fields[i]` (self for unmirrored fields).
        perm: Vec<usize>,
    },
    /// No field position names the instance.
    Pinned(PinReason),
}

/// The derived instance identification of one property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingPlan {
    mode: RouteMode,
}

/// The widest key classified as hashable: no property in (or out of) the
/// catalog binds more than a 4-tuple, and a wider one is classified
/// pinned, which is always sound.
const MAX_KEY_FIELDS: usize = 8;

impl RoutingPlan {
    /// Analyse `property` and derive its routing plan.
    pub fn of(property: &Property) -> RoutingPlan {
        RoutingPlan { mode: Self::derive(property) }
    }

    /// The derived mode.
    pub fn mode(&self) -> &RouteMode {
        &self.mode
    }

    /// True if some field position names this property's instances.
    pub fn is_hashed(&self) -> bool {
        !matches!(self.mode, RouteMode::Pinned(_))
    }

    /// The fields every event that can touch an instance carries (empty
    /// when pinned): an event lacking one of them cannot satisfy any guard
    /// of the property.
    pub fn key_fields(&self) -> &[Field] {
        match &self.mode {
            RouteMode::HashExact { fields } | RouteMode::HashSymmetric { fields, .. } => fields,
            RouteMode::Pinned(_) => &[],
        }
    }

    fn derive(property: &Property) -> RouteMode {
        // Stage-0 binders, dropping any variable bound at two different
        // fields (its extraction position would be ambiguous). BTreeMap
        // gives a canonical variable order.
        let Some(first) = property.stages.first() else {
            return RouteMode::Pinned(PinReason::NoStableKey);
        };
        let Some(spawn_guard) = first.guard() else {
            return RouteMode::Pinned(PinReason::NoStableKey);
        };
        let mut f0: BTreeMap<&Var, Option<Field>> = BTreeMap::new();
        for (v, f) in spawn_guard.binders() {
            match f0.get(v) {
                None => {
                    f0.insert(v, Some(f));
                }
                Some(Some(prev)) if *prev != f => {
                    f0.insert(v, None); // ambiguous: disqualify
                }
                Some(_) => {}
            }
        }
        let f0: BTreeMap<&Var, Field> =
            f0.into_iter().filter_map(|(v, f)| f.map(|f| (v, f))).collect();

        // Guards an awaiting instance can be matched against: later stages'
        // match guards and their clearings. Stage 0's own `unless` list is
        // dead code (instances never *await* stage 0) and is ignored.
        let mut guards: Vec<&Guard> = Vec::new();
        for stage in &property.stages[1..] {
            if let StageKind::Match { guard, .. } = &stage.kind {
                guards.push(guard);
            }
            for u in &stage.unless {
                guards.push(&u.guard);
            }
        }

        let binds = |g: &Guard, v: &Var, f: Field| g.binders().any(|(gv, gf)| gv == v && gf == f);

        // Exact: variables every guard re-binds at the stage-0 field.
        let exact: Vec<(&Var, Field)> = f0
            .iter()
            .filter(|(v, f)| guards.iter().all(|g| binds(g, v, **f)))
            .map(|(v, f)| (*v, *f))
            .collect();
        if !exact.is_empty() && exact.len() <= MAX_KEY_FIELDS {
            return RouteMode::HashExact { fields: exact.into_iter().map(|(_, f)| f).collect() };
        }
        if exact.len() > MAX_KEY_FIELDS {
            return RouteMode::Pinned(PinReason::NoStableKey);
        }

        // Symmetric: variables every guard re-binds at the stage-0 field or
        // its mirror.
        let morf = |f: Field| mirror_field(f).unwrap_or(f);
        let cand: Vec<(&Var, Field)> = f0
            .iter()
            .filter(|(v, f)| guards.iter().all(|g| binds(g, v, **f) || binds(g, v, morf(**f))))
            .map(|(v, f)| (*v, *f))
            .collect();
        if cand.is_empty() || cand.len() > MAX_KEY_FIELDS {
            return RouteMode::Pinned(PinReason::NoStableKey);
        }
        let fields: Vec<Field> = cand.iter().map(|(_, f)| *f).collect();
        // Distinct extraction positions, or the mirror permutation below
        // would be ill-defined.
        let mut uniq = fields.clone();
        uniq.sort_unstable();
        uniq.dedup();
        if uniq.len() != fields.len() {
            return RouteMode::Pinned(PinReason::NoStableKey);
        }
        // Each guard must use one orientation for the *whole* key: all
        // original fields, or all mirrored. A mixed guard would make the
        // canonical form unsound.
        for g in &guards {
            let all_orig = cand.iter().all(|(v, f)| binds(g, v, *f));
            let all_mirr = cand.iter().all(|(v, f)| binds(g, v, morf(*f)));
            if !all_orig && !all_mirr {
                return RouteMode::Pinned(PinReason::MixedOrientation);
            }
        }
        // Mirror pairing: the mirrored tuple must be a permutation of the
        // extracted tuple, so both forms are computable from one event.
        let mut perm = Vec::with_capacity(fields.len());
        for &f in &fields {
            match mirror_field(f) {
                None => perm.push(perm.len()),
                Some(mf) => match fields.iter().position(|&other| other == mf) {
                    Some(j) => perm.push(j),
                    None => return RouteMode::Pinned(PinReason::UnpairedMirror),
                },
            }
        }
        RouteMode::HashSymmetric { fields, perm }
    }
}

/// Where an event carries the value that identifies the instances one
/// guard can match — the guard's exact-match lookup.
///
/// Soundness (what lets the engine consult an index instead of scanning),
/// per probe kind:
///
/// * `Var(v, f)` — `v` is *definitely bound* in every instance awaiting the
///   stage (it is a top-level binder of some earlier match stage, and a
///   guard only succeeds if all its top-level binds unify), and the guard
///   top-level-binds `v` at `f`: it succeeds only when `ev.field(f)` equals
///   the instance's value of `v`.
/// * `Packet(i)` — the guard has a top-level [`Atom::SamePacket`]`(i)`: it
///   succeeds only when `ev.packet_id()` equals the instance's recorded
///   `stage_ids[i]` (and never for an instance that recorded none).
///
/// Either way an event that can satisfy the guard for some instance carries
/// that instance's value where the probe reads it, so a `value → instances`
/// lookup finds every instance the guard could match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The guard re-binds the held variable at this field.
    Var(Var, Field),
    /// The guard demands the packet observed at this (0-based) stage.
    Packet(usize),
}

impl Probe {
    /// True when both probes read the same per-instance value (the same
    /// variable, at whatever field, or the same stage's packet identity),
    /// so one posting per instance serves both.
    pub fn same_source(&self, other: &Probe) -> bool {
        match (self, other) {
            (Probe::Var(a, _), Probe::Var(b, _)) => a == b,
            (Probe::Packet(i), Probe::Packet(j)) => i == j,
            _ => false,
        }
    }

    /// The value `ev` is looked up under; `None` when the event lacks it,
    /// in which case the probed guard cannot match any instance.
    pub fn event_value(&self, ev: &NetEvent) -> Option<FieldValue> {
        match self {
            Probe::Var(_, f) => ev.field(*f),
            Probe::Packet(_) => ev.packet_id().map(|id| FieldValue::Uint(id.0)),
        }
    }

    /// The value an instance holding `env` and `stage_ids` is posted under;
    /// `None` when it holds none (the variable is — defensively — unbound,
    /// or the stage recorded no packet: a deadline or out-of-band stage).
    pub fn instance_value(
        &self,
        env: &Bindings,
        stage_ids: &[Option<PacketId>],
    ) -> Option<FieldValue> {
        match self {
            Probe::Var(v, _) => env.get(v).copied(),
            Probe::Packet(i) => {
                stage_ids.get(*i).copied().flatten().map(|id| FieldValue::Uint(id.0))
            }
        }
    }
}

/// One [`Probe`] per guard an event could satisfy at one awaiting stage:
/// the advance guard and each clearing guard. An instance is posted under
/// the value of every distinct probe source, and an event looks up only the
/// probes of the guards whose pattern it matches, so the union of the
/// lookups covers every instance the event can clear or advance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageKey {
    /// Probe of the stage's match guard (`None` for deadline stages, which
    /// have no advance guard).
    pub advance: Option<Probe>,
    /// Per clearing guard (in `unless` order), its probe.
    pub unless: Vec<Probe>,
    /// One probe per distinct source, in guard order.
    sources: Vec<Probe>,
}

impl StageKey {
    fn new(advance: Option<Probe>, unless: Vec<Probe>) -> StageKey {
        let mut sources: Vec<Probe> = Vec::new();
        for p in advance.iter().chain(&unless) {
            if !sources.iter().any(|q| q.same_source(p)) {
                sources.push(*p);
            }
        }
        StageKey { advance, unless, sources }
    }

    /// One probe per distinct source — what an awaiting instance is posted
    /// under (for a `Var` source the field is whichever guard came first
    /// and is irrelevant to the posting).
    pub fn sources(&self) -> &[Probe] {
        &self.sources
    }
}

/// Per-stage instance-index keys for one property: `key(s)` describes how
/// to find instances awaiting stage `s` from an event, or `None` when some
/// guard of the stage has no probe and the engine must fall back to a
/// scan. Correctness never depends on a key existing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageKeyPlan {
    /// `keys[s]` for awaiting-stage `s`; `keys[0]` is always `None`
    /// (instances never await stage 0).
    keys: Vec<Option<StageKey>>,
}

impl StageKeyPlan {
    /// Derive per-stage keys for `property`.
    pub fn of(property: &Property) -> StageKeyPlan {
        let mut keys: Vec<Option<StageKey>> = vec![None];
        // Variables definitely bound by every instance awaiting the current
        // stage: top-level binders of all earlier match stages. (Deadline
        // stages bind nothing; guard success implies all its binds held.)
        let mut bound: std::collections::BTreeSet<Var> = std::collections::BTreeSet::new();
        if let Some(g) = property.stages.first().and_then(Stage::guard) {
            bound.extend(g.binders().map(|(v, _)| *v));
        }
        for stage in property.stages.iter().skip(1) {
            keys.push(Self::stage_key(stage, &bound));
            if let StageKind::Match { guard, .. } = &stage.kind {
                bound.extend(guard.binders().map(|(v, _)| *v));
            }
        }
        StageKeyPlan { keys }
    }

    /// The probes `guard` could be looked up by, most selective first: its
    /// top-level identity atoms, then the held variables it re-binds in
    /// canonical (name) order. Atoms inside an `AnyOf` never count — a
    /// disjunct need not hold for the guard to succeed.
    fn probes_of<'a>(
        guard: &'a Guard,
        bound: &'a std::collections::BTreeSet<Var>,
    ) -> impl Iterator<Item = Probe> + 'a {
        let packets = guard.atoms.iter().filter_map(|a| match a {
            Atom::SamePacket(i) => Some(Probe::Packet(*i)),
            _ => None,
        });
        let vars = bound.iter().filter_map(|v| {
            guard.binders().find(|(gv, _)| *gv == v).map(|(_, f)| Probe::Var(*v, f))
        });
        packets.chain(vars)
    }

    fn stage_key(stage: &Stage, bound: &std::collections::BTreeSet<Var>) -> Option<StageKey> {
        // The guards an event could satisfy at this stage, advance first.
        let guards = || stage.guard().into_iter().chain(stage.unless.iter().map(|u| &u.guard));
        // A deadline stage with no clearings has no event guard at all:
        // nothing to key on (and nothing to look up — pattern pre-checks
        // already skip every event).
        let first = guards().next()?;
        // Prefer one source every guard can be probed by (one posting per
        // instance); otherwise each guard takes its own most selective.
        let shared = Self::probes_of(first, bound)
            .find(|p| guards().all(|g| Self::probes_of(g, bound).any(|q| q.same_source(p))));
        let pick = |g: &Guard| {
            Self::probes_of(g, bound).find(|q| shared.is_none_or(|p| q.same_source(&p)))
        };
        let advance = match stage.guard() {
            Some(g) => Some(pick(g)?),
            None => None,
        };
        let unless = stage.unless.iter().map(|u| pick(&u.guard)).collect::<Option<_>>()?;
        Some(StageKey::new(advance, unless))
    }

    /// The key for instances awaiting stage `s`, if the stage is keyable.
    pub fn key(&self, s: usize) -> Option<&StageKey> {
        self.keys.get(s).and_then(Option::as_ref)
    }

    /// Number of stages covered (equals the property's stage count).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no stage is keyable.
    pub fn is_empty(&self) -> bool {
        self.keys.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::Atom;
    use crate::pattern::{ActionPattern, EventPattern};
    use crate::property::{RefreshPolicy, Stage, Unless};
    use crate::var::var;
    use std::sync::Arc;
    use swmon_packet::{Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
    use swmon_sim::time::{Duration, Instant};
    use swmon_sim::trace::{NetEventKind, PortNo, SwitchId};

    fn prop(stages: Vec<Stage>) -> Property {
        Property { name: "p".into(), statement: String::new(), stages }
    }

    fn bind_stage(name: &str, binds: &[(&str, Field)]) -> Stage {
        Stage::match_(
            name,
            EventPattern::Arrival,
            Guard::new(binds.iter().map(|(v, f)| Atom::Bind(var(v), *f)).collect()),
        )
    }

    fn tcp_event(src: u8, dst: u8, sport: u16, dport: u16) -> NetEvent {
        let pkt = Arc::new(PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, src),
            MacAddr::new(2, 0, 0, 0, 0, dst),
            Ipv4Address::new(10, 0, 0, src),
            Ipv4Address::new(10, 0, 0, dst),
            sport,
            dport,
            TcpFlags::SYN,
            &[],
        ));
        NetEvent {
            time: Instant::ZERO,
            kind: NetEventKind::Arrival {
                switch: SwitchId(0),
                port: PortNo(1),
                pkt,
                id: PacketId(0),
            },
        }
    }

    #[test]
    fn exact_property_hashes_fixed_fields() {
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src), ("B", Field::Ipv4Dst)]),
            bind_stage("b", &[("A", Field::Ipv4Src), ("B", Field::Ipv4Dst)]),
        ]);
        let plan = RoutingPlan::of(&p);
        assert!(plan.is_hashed());
        assert_eq!(
            plan.mode(),
            &RouteMode::HashExact { fields: vec![Field::Ipv4Src, Field::Ipv4Dst] }
        );
        assert_eq!(plan.key_fields(), [Field::Ipv4Src, Field::Ipv4Dst]);
    }

    #[test]
    fn symmetric_property_canonicalizes_direction() {
        let p = prop(vec![
            bind_stage("req", &[("A", Field::Ipv4Src), ("B", Field::Ipv4Dst)]),
            bind_stage("rep", &[("B", Field::Ipv4Src), ("A", Field::Ipv4Dst)]),
        ]);
        let plan = RoutingPlan::of(&p);
        // The reply carries the request's key with its two fields swapped.
        assert_eq!(
            plan.mode(),
            &RouteMode::HashSymmetric {
                fields: vec![Field::Ipv4Src, Field::Ipv4Dst],
                perm: vec![1, 0]
            }
        );
        assert_eq!(plan.key_fields(), [Field::Ipv4Src, Field::Ipv4Dst]);
    }

    #[test]
    fn four_tuple_symmetric_key_pairs_l3_and_l4() {
        let p = prop(vec![
            bind_stage(
                "req",
                &[
                    ("A", Field::Ipv4Src),
                    ("B", Field::Ipv4Dst),
                    ("P", Field::L4Src),
                    ("Q", Field::L4Dst),
                ],
            ),
            bind_stage(
                "rep",
                &[
                    ("B", Field::Ipv4Src),
                    ("A", Field::Ipv4Dst),
                    ("Q", Field::L4Src),
                    ("P", Field::L4Dst),
                ],
            ),
        ]);
        let plan = RoutingPlan::of(&p);
        // L3 pairs with L3 and L4 with L4: swapping only the addresses is a
        // different bidirectional flow.
        let RouteMode::HashSymmetric { fields, perm } = plan.mode() else {
            panic!("not symmetric: {:?}", plan.mode());
        };
        assert_eq!(fields, &[Field::Ipv4Src, Field::Ipv4Dst, Field::L4Src, Field::L4Dst]);
        assert_eq!(perm, &[1, 0, 3, 2]);
    }

    #[test]
    fn single_var_symmetric_is_pinned() {
        // A is bound at Src, matched at Dst: from one event the router
        // cannot tell which endpoint is the instance key.
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            bind_stage("b", &[("A", Field::Ipv4Dst)]),
        ]);
        assert_eq!(RoutingPlan::of(&p).mode(), &RouteMode::Pinned(PinReason::UnpairedMirror));
    }

    #[test]
    fn any_guard_clearing_pins() {
        let mut d = Stage::deadline("d", Duration::from_secs(1), RefreshPolicy::NoRefresh);
        d.unless = vec![Unless {
            pattern: EventPattern::Departure(ActionPattern::Forwarded),
            guard: Guard::any(),
        }];
        let p = prop(vec![bind_stage("a", &[("A", Field::Ipv4Src)]), d]);
        assert_eq!(RoutingPlan::of(&p).mode(), &RouteMode::Pinned(PinReason::NoStableKey));
    }

    #[test]
    fn wandering_property_is_pinned() {
        let p = prop(vec![
            bind_stage("a", &[("L", Field::DhcpYiaddr)]),
            bind_stage("b", &[("L", Field::ArpTargetIp)]),
        ]);
        assert_eq!(RoutingPlan::of(&p).mode(), &RouteMode::Pinned(PinReason::NoStableKey));
    }

    #[test]
    fn negative_only_reference_pins() {
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            Stage::match_(
                "b",
                EventPattern::Arrival,
                Guard::new(vec![Atom::NeqVar(Field::Ipv4Src, var("A"))]),
            ),
        ]);
        assert_eq!(RoutingPlan::of(&p).mode(), &RouteMode::Pinned(PinReason::NoStableKey));
    }

    #[test]
    fn mixed_orientation_pins() {
        // B wanders to an unrelated field, but A stays put: the key simply
        // shrinks to A.
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src), ("B", Field::Ipv4Dst)]),
            bind_stage("b", &[("A", Field::Ipv4Src), ("B", Field::L4Src)]),
        ]);
        assert_eq!(
            RoutingPlan::of(&p).mode(),
            &RouteMode::HashExact { fields: vec![Field::Ipv4Src] }
        );
        // Stage 1 fully mirrors the pair, but stage 2 mirrors only A while
        // keeping B: no single orientation covers stage 2's key use, and no
        // variable is exact-stable across both stages.
        let q = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src), ("B", Field::Ipv4Dst)]),
            bind_stage("b", &[("A", Field::Ipv4Dst), ("B", Field::Ipv4Src)]),
            bind_stage("c", &[("A", Field::Ipv4Dst), ("B", Field::Ipv4Dst)]),
        ]);
        assert_eq!(RoutingPlan::of(&q).mode(), &RouteMode::Pinned(PinReason::MixedOrientation));
    }

    #[test]
    fn missing_key_field_skips() {
        // Key over DHCP fields; a plain TCP packet cannot match any guard.
        let p = prop(vec![
            bind_stage("a", &[("X", Field::DhcpXid)]),
            bind_stage("b", &[("X", Field::DhcpXid)]),
        ]);
        let plan = RoutingPlan::of(&p);
        assert!(plan.is_hashed());
        assert_eq!(plan.key_fields(), [Field::DhcpXid]);
        assert_eq!(tcp_event(1, 2, 10, 20).field(Field::DhcpXid), None);
        assert!(RoutingPlan::of(&prop(vec![bind_stage("a", &[])])).key_fields().is_empty());
    }

    #[test]
    fn anyof_binds_do_not_count() {
        // The only stage-1 reference to A lives inside a disjunction, whose
        // bindings are discarded: not a stable key.
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            Stage::match_(
                "b",
                EventPattern::Arrival,
                Guard::new(vec![Atom::AnyOf(vec![
                    Atom::Bind(var("A"), Field::Ipv4Src),
                    Atom::EqConst(Field::L4Dst, 80u16.into()),
                ])]),
            ),
        ]);
        assert_eq!(RoutingPlan::of(&p).mode(), &RouteMode::Pinned(PinReason::NoStableKey));
    }

    #[test]
    fn pin_reasons_display() {
        for r in [PinReason::NoStableKey, PinReason::MixedOrientation, PinReason::UnpairedMirror] {
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn single_stage_property_uses_spawn_binders() {
        let p = prop(vec![bind_stage("only", &[("A", Field::Ipv4Src)])]);
        assert_eq!(
            RoutingPlan::of(&p).mode(),
            &RouteMode::HashExact { fields: vec![Field::Ipv4Src] }
        );
    }

    #[test]
    fn stage_keys_pick_smallest_covering_binder() {
        // Both A and B are bound at spawn and re-bound at stage 1; the
        // plan must pick A (canonical name order) and record both the
        // advance field and the clearing field.
        let mut s1 = bind_stage("b", &[("A", Field::Ipv4Dst), ("B", Field::Ipv4Src)]);
        s1.unless = vec![Unless {
            pattern: EventPattern::Departure(ActionPattern::Drop),
            guard: Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
        }];
        let p = prop(vec![bind_stage("a", &[("A", Field::Ipv4Src), ("B", Field::Ipv4Dst)]), s1]);
        let plan = StageKeyPlan::of(&p);
        assert_eq!(plan.len(), 2);
        assert!(plan.key(0).is_none(), "instances never await stage 0");
        let k = plan.key(1).expect("stage 1 is keyable");
        assert_eq!(k.advance, Some(Probe::Var(var("A"), Field::Ipv4Dst)));
        assert_eq!(k.unless, vec![Probe::Var(var("A"), Field::Ipv4Src)]);
        assert_eq!(k.sources().len(), 1, "one shared source: one posting per instance");
        assert!(!plan.is_empty());
    }

    #[test]
    fn stage_keys_fall_back_when_a_guard_misses_the_var() {
        // Stage 1's clearing guard does not re-bind A (or anything bound),
        // so a keyed index could miss clearings: the stage must scan.
        let mut s1 = bind_stage("b", &[("A", Field::Ipv4Src)]);
        s1.unless = vec![Unless {
            pattern: EventPattern::Departure(ActionPattern::Forwarded),
            guard: Guard::any(),
        }];
        let p = prop(vec![bind_stage("a", &[("A", Field::Ipv4Src)]), s1]);
        let plan = StageKeyPlan::of(&p);
        assert!(plan.key(1).is_none());
        assert!(plan.is_empty());
    }

    #[test]
    fn stage_keys_handle_deadline_stages() {
        // A deadline stage with a keyed clearing: advances come from the
        // clock (no advance field) but clearings are still keyable.
        let mut d = Stage::deadline("d", Duration::from_secs(1), RefreshPolicy::NoRefresh);
        d.unless = vec![Unless {
            pattern: EventPattern::Departure(ActionPattern::Forwarded),
            guard: Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Dst)]),
        }];
        let p = prop(vec![bind_stage("a", &[("A", Field::Ipv4Src)]), d]);
        let plan = StageKeyPlan::of(&p);
        let k = plan.key(1).expect("deadline clearing is keyable");
        assert_eq!(k.advance, None);
        assert_eq!(k.unless, vec![Probe::Var(var("A"), Field::Ipv4Dst)]);

        // A bare deadline (no clearings) has no event guards at all: there
        // is nothing to key on, and nothing a key would be consulted for.
        let bare = Stage::deadline("d", Duration::from_secs(1), RefreshPolicy::NoRefresh);
        let q = prop(vec![bind_stage("a", &[("A", Field::Ipv4Src)]), bare]);
        assert!(StageKeyPlan::of(&q).key(1).is_none());
    }

    #[test]
    fn stage_keys_ignore_anyof_binds() {
        // The only re-bind of A at stage 1 is inside a disjunct, whose
        // bindings are discarded: an index on A would miss advances.
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            Stage::match_(
                "b",
                EventPattern::Arrival,
                Guard::new(vec![Atom::AnyOf(vec![
                    Atom::Bind(var("A"), Field::Ipv4Src),
                    Atom::EqConst(Field::L4Dst, 80u16.into()),
                ])]),
            ),
        ]);
        assert!(StageKeyPlan::of(&p).key(1).is_none());
    }

    /// A forwarded-departure stage demanding the packet seen at stage `i`.
    fn same_packet_stage(name: &str, i: usize, binds: &[(&str, Field)]) -> Stage {
        let mut atoms = vec![Atom::SamePacket(i)];
        atoms.extend(binds.iter().map(|(v, f)| Atom::Bind(var(v), *f)));
        Stage::match_(name, EventPattern::Departure(ActionPattern::Forwarded), Guard::new(atoms))
    }

    fn unless_binding(v: &str, f: Field) -> Unless {
        Unless { pattern: EventPattern::Arrival, guard: Guard::new(vec![Atom::Bind(var(v), f)]) }
    }

    #[test]
    fn stage_keys_index_identity_stages() {
        // The NAT shape: "the same packet departs, translated". The guard
        // re-binds nothing held (A2 is new), but `SamePacket(0)` is an
        // exact match on the recorded packet id.
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            same_packet_stage("b", 0, &[("A2", Field::Ipv4Src)]),
        ]);
        let plan = StageKeyPlan::of(&p);
        let k = plan.key(1).expect("identity stage is keyable");
        assert_eq!(k.advance, Some(Probe::Packet(0)));
        assert!(k.unless.is_empty());
        assert_eq!(k.sources(), [Probe::Packet(0)]);
    }

    #[test]
    fn stage_keys_mix_identity_and_variable_probes() {
        // The lb/new-flow-hashed-port shape: advance by packet identity,
        // clearings by the held client address in either direction. No
        // source is shared, so each guard keeps its own probe and an
        // instance is posted under both sources.
        let mut s1 = same_packet_stage("assigned", 0, &[]);
        s1.unless = vec![unless_binding("A", Field::Ipv4Src), unless_binding("A", Field::Ipv4Dst)];
        let p = prop(vec![bind_stage("new-flow", &[("A", Field::Ipv4Src)]), s1]);
        let plan = StageKeyPlan::of(&p);
        let k = plan.key(1).expect("every guard has a probe");
        assert_eq!(k.advance, Some(Probe::Packet(0)));
        assert_eq!(
            k.unless,
            vec![Probe::Var(var("A"), Field::Ipv4Src), Probe::Var(var("A"), Field::Ipv4Dst)]
        );
        assert_eq!(k.sources(), [Probe::Packet(0), Probe::Var(var("A"), Field::Ipv4Src)]);
    }

    #[test]
    fn stage_keys_allow_different_identities_per_guard() {
        // Advance demands stage 1's packet, the clearing stage 0's: two
        // sources, each sound for its own guard.
        let mut s2 = same_packet_stage("c", 1, &[]);
        s2.unless = vec![Unless {
            pattern: EventPattern::Departure(ActionPattern::Drop),
            guard: Guard::new(vec![Atom::SamePacket(0)]),
        }];
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            bind_stage("b", &[("A", Field::Ipv4Src)]),
            s2,
        ]);
        let plan = StageKeyPlan::of(&p);
        let k = plan.key(2).expect("both guards carry an identity probe");
        assert_eq!(k.advance, Some(Probe::Packet(1)));
        assert_eq!(k.unless, vec![Probe::Packet(0)]);
        assert_eq!(k.sources().len(), 2);
    }

    #[test]
    fn stage_keys_prefer_a_source_every_guard_shares() {
        // The advance guard could be probed by identity, but the clearing
        // only by A — and the advance re-binds A too: one shared source
        // means one posting per instance.
        let mut s1 = same_packet_stage("b", 0, &[("A", Field::Ipv4Dst)]);
        s1.unless = vec![unless_binding("A", Field::Ipv4Src)];
        let p = prop(vec![bind_stage("a", &[("A", Field::Ipv4Src)]), s1]);
        let plan = StageKeyPlan::of(&p);
        let k = plan.key(1).expect("keyable");
        assert_eq!(k.advance, Some(Probe::Var(var("A"), Field::Ipv4Dst)));
        assert_eq!(k.sources().len(), 1);
    }

    #[test]
    fn stage_keys_ignore_anyof_identity() {
        // `SamePacket` inside a disjunct need not hold for the guard to
        // succeed: an index on the packet id would miss the other branch.
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            Stage::match_(
                "b",
                EventPattern::Departure(ActionPattern::Forwarded),
                Guard::new(vec![Atom::AnyOf(vec![
                    Atom::SamePacket(0),
                    Atom::EqConst(Field::L4Dst, 80u16.into()),
                ])]),
            ),
        ]);
        assert!(StageKeyPlan::of(&p).key(1).is_none());
    }

    #[test]
    fn stage_keys_use_later_stage_binders() {
        // B is only bound at stage 1, but instances awaiting stage 2 have
        // passed stage 1, so B is definitely bound there and usable.
        let p = prop(vec![
            bind_stage("a", &[("A", Field::Ipv4Src)]),
            bind_stage("b", &[("B", Field::DhcpXid)]),
            bind_stage("c", &[("B", Field::DhcpXid)]),
        ]);
        let plan = StageKeyPlan::of(&p);
        let k = plan.key(2).expect("stage 2 keys on B");
        assert_eq!(k.advance, Some(Probe::Var(var("B"), Field::DhcpXid)));
    }
}
