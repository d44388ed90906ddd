//! Guards: per-observation predicates with variable binding.
//!
//! A guard is a conjunction of [`Atom`]s evaluated against one event under
//! the instance's current [`Bindings`]. Atoms realise the paper's semantic
//! features directly:
//!
//! * [`Atom::Bind`] / unification — Feature 2 (event history carried as
//!   bound values) and Feature 8 (instances are identified by bindings);
//! * [`Atom::NeqVar`] / [`Atom::NeqConst`] — Feature 6 (negative match);
//! * [`Atom::SamePacket`] — Feature 5 (packet identity across arrival and
//!   departure, available only on-switch).

use crate::var::{Bindings, Var};
use swmon_packet::{Field, FieldValue, Layer};
use swmon_sim::trace::NetEvent;
use swmon_sim::PacketId;

/// One conjunct of a guard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Atom {
    /// Unify the field's value with a variable: binds on first use, must
    /// equal the bound value afterwards.
    Bind(Var, Field),
    /// The field must equal a constant.
    EqConst(Field, FieldValue),
    /// The field must differ from a constant (negative match).
    NeqConst(Field, FieldValue),
    /// The field must differ from an already-bound variable (negative
    /// match, Feature 6). Fails if the variable is unbound.
    NeqVar(Field, Var),
    /// The event's packet-identity token must equal the token recorded at
    /// observation stage `stage` (0-based). Feature 5.
    SamePacket(usize),
    /// Disjunction: at least one sub-atom must hold. Sub-atoms are evaluated
    /// for satisfaction only — bindings made inside a disjunct are
    /// discarded (use top-level `Bind` for binding). Needed for guards like
    /// the NAT property's "A″ ≠ A **or** P″ ≠ P".
    AnyOf(Vec<Atom>),
    /// The departure's output port differs from `base + hash(fields) % modulus`
    /// — the FAST-style check that a hash-assigned load balancer picked the
    /// right backend. Uses the same FNV the dataplane hash unit uses.
    HashedPortMismatch {
        /// Fields hashed to select the backend.
        fields: Vec<Field>,
        /// Number of backends.
        modulus: u64,
        /// Port number of backend 0.
        base: u64,
    },
    /// The departure's output port is not the round-robin successor of the
    /// port bound in `prev`: `out != base + ((prev - base + 1) % modulus)`.
    RrSuccessorMismatch {
        /// Variable holding the previously assigned port.
        prev: Var,
        /// Number of backends.
        modulus: u64,
        /// Port number of backend 0.
        base: u64,
    },
}

impl Atom {
    /// The field this atom reads, if any (compound atoms report `None`; use
    /// [`Atom::required_depth`] for depth analysis).
    pub fn field(&self) -> Option<Field> {
        match self {
            Atom::Bind(_, f) | Atom::EqConst(f, _) | Atom::NeqConst(f, _) | Atom::NeqVar(f, _) => {
                Some(*f)
            }
            Atom::SamePacket(_)
            | Atom::AnyOf(_)
            | Atom::HashedPortMismatch { .. }
            | Atom::RrSuccessorMismatch { .. } => None,
        }
    }

    /// The parser depth needed to evaluate this atom.
    pub fn required_depth(&self) -> Layer {
        match self {
            Atom::AnyOf(subs) => subs.iter().map(Atom::required_depth).max().unwrap_or(Layer::L2),
            Atom::HashedPortMismatch { fields, .. } => {
                fields.iter().map(|f| f.layer()).max().unwrap_or(Layer::L2)
            }
            _ => self.field().map(|f| f.layer()).unwrap_or(Layer::L2),
        }
    }

    /// True if this atom (or any sub-atom) performs negative matching.
    pub fn is_negative(&self) -> bool {
        match self {
            Atom::NeqConst(..) | Atom::NeqVar(..) => true,
            Atom::AnyOf(subs) => subs.iter().any(Atom::is_negative),
            _ => false,
        }
    }

    /// True if this atom (or any sub-atom) uses packet identity.
    pub fn is_identity(&self) -> bool {
        match self {
            Atom::SamePacket(_) => true,
            Atom::AnyOf(subs) => subs.iter().any(Atom::is_identity),
            _ => false,
        }
    }

    /// Would this atom succeed under `env`? The one definition of every
    /// atom's semantics: [`Guard::eval`] calls it for every atom but a
    /// top-level `Bind`, which it unifies instead. Bindings a `Bind` would
    /// make here are discarded (disjunct bindings never escape), which is
    /// exactly the semantics of evaluating the atom in a throwaway
    /// environment — without cloning one.
    fn satisfied(&self, ev: &NetEvent, env: &Bindings, stage_ids: &[Option<PacketId>]) -> bool {
        match self {
            Atom::Bind(v, f) => match ev.field(*f) {
                Some(val) => env.get(v).is_none_or(|bound| *bound == val),
                None => false,
            },
            Atom::EqConst(f, want) => ev.field(*f) == Some(*want),
            Atom::NeqConst(f, want) => ev.field(*f).is_some_and(|val| val != *want),
            Atom::NeqVar(f, v) => match (ev.field(*f), env.get(v)) {
                (Some(val), Some(bound)) => val != *bound,
                _ => false,
            },
            Atom::SamePacket(stage) => {
                let want = stage_ids.get(*stage).copied().flatten();
                want.is_some() && ev.packet_id() == want
            }
            Atom::AnyOf(subs) => subs.iter().any(|sub| sub.satisfied(ev, env, stage_ids)),
            Atom::HashedPortMismatch { fields, modulus, base } => {
                let Some(out) = ev.field(Field::OutPort).and_then(|v| v.as_uint()) else {
                    return false;
                };
                let h = swmon_packet::field::values_hash(fields.iter().map(|&f| ev.field(f)));
                out != *base + (h % (*modulus).max(1))
            }
            Atom::RrSuccessorMismatch { prev, modulus, base } => {
                let Some(out) = ev.field(Field::OutPort).and_then(|v| v.as_uint()) else {
                    return false;
                };
                let Some(prev_port) = env.get(prev).and_then(|v| v.as_uint()) else {
                    return false;
                };
                let m = (*modulus).max(1);
                out != base + ((prev_port.saturating_sub(*base) + 1) % m)
            }
        }
    }
}

/// A conjunction of atoms. The empty guard always matches.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Guard {
    /// The conjuncts, evaluated left to right (so a `Bind` can feed a later
    /// `NeqVar` in the same guard).
    pub atoms: Vec<Atom>,
}

impl Guard {
    /// The always-true guard.
    pub fn any() -> Self {
        Guard::default()
    }

    /// A guard from atoms.
    pub fn new(atoms: Vec<Atom>) -> Self {
        Guard { atoms }
    }

    /// Evaluate against `ev` under `env`, with `stage_ids` the identity
    /// tokens recorded at each completed observation stage.
    ///
    /// Returns the (possibly extended) environment on success.
    pub fn eval(
        &self,
        ev: &NetEvent,
        env: &Bindings,
        stage_ids: &[Option<PacketId>],
    ) -> Option<Bindings> {
        let mut env = *env;
        for atom in &self.atoms {
            let holds = match atom {
                // The one atom whose effect outlives it: a binding.
                Atom::Bind(v, f) => ev.field(*f).is_some_and(|val| env.unify(v, val)),
                _ => atom.satisfied(ev, &env, stage_ids),
            };
            if !holds {
                return None;
            }
        }
        Some(env)
    }

    /// The deepest parser layer this guard needs.
    pub fn required_depth(&self) -> Layer {
        self.atoms.iter().map(Atom::required_depth).max().unwrap_or(Layer::L2)
    }

    /// True if any atom performs negative matching.
    pub fn has_negative_match(&self) -> bool {
        self.atoms.iter().any(Atom::is_negative)
    }

    /// True if any atom uses packet identity.
    pub fn uses_identity(&self) -> bool {
        self.atoms.iter().any(Atom::is_identity)
    }

    /// True if any atom reads egress metadata (the output port).
    pub fn reads_out_port(&self) -> bool {
        fn reads(a: &Atom) -> bool {
            match a {
                Atom::HashedPortMismatch { .. } | Atom::RrSuccessorMismatch { .. } => true,
                Atom::AnyOf(subs) => subs.iter().any(reads),
                _ => a.field() == Some(Field::OutPort),
            }
        }
        self.atoms.iter().any(reads)
    }

    /// Variables bound (via `Bind`) by this guard, with their source fields.
    pub fn binders(&self) -> impl Iterator<Item = (&Var, Field)> {
        self.atoms.iter().filter_map(|a| match a {
            Atom::Bind(v, f) => Some((v, *f)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::var;
    use std::sync::Arc;
    use swmon_packet::{Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
    use swmon_sim::time::Instant;
    use swmon_sim::trace::{EgressAction, NetEventKind, PortNo, SwitchId};

    fn arrival(src: u8, dst: u8, id: u64) -> NetEvent {
        let pkt = Arc::new(PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, src),
            MacAddr::new(2, 0, 0, 0, 0, dst),
            Ipv4Address::new(10, 0, 0, src),
            Ipv4Address::new(10, 0, 0, dst),
            1000,
            80,
            TcpFlags::SYN,
            &[],
        ));
        NetEvent {
            time: Instant::ZERO,
            kind: NetEventKind::Arrival {
                switch: SwitchId(0),
                port: PortNo(1),
                pkt,
                id: PacketId(id),
            },
        }
    }

    fn departure(src: u8, dst: u8, id: u64) -> NetEvent {
        let pkt = Arc::new(PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, src),
            MacAddr::new(2, 0, 0, 0, 0, dst),
            Ipv4Address::new(10, 0, 0, src),
            Ipv4Address::new(10, 0, 0, dst),
            1000,
            80,
            TcpFlags::SYN,
            &[],
        ));
        NetEvent {
            time: Instant::ZERO,
            kind: NetEventKind::Departure {
                switch: SwitchId(0),
                pkt,
                id: PacketId(id),
                action: EgressAction::Drop,
            },
        }
    }

    #[test]
    fn bind_then_match_across_events() {
        // Stage 1 guard: bind A=src, B=dst.
        let g1 = Guard::new(vec![
            Atom::Bind(var("A"), Field::Ipv4Src),
            Atom::Bind(var("B"), Field::Ipv4Dst),
        ]);
        let env = g1.eval(&arrival(1, 2, 0), &Bindings::new(), &[]).unwrap();
        assert_eq!(env.get(&var("A")), Some(&Ipv4Address::new(10, 0, 0, 1).into()));

        // Stage 2 guard (symmetric): src must be B, dst must be A.
        let g2 = Guard::new(vec![
            Atom::Bind(var("B"), Field::Ipv4Src),
            Atom::Bind(var("A"), Field::Ipv4Dst),
        ]);
        assert!(g2.eval(&arrival(2, 1, 1), &env, &[]).is_some(), "B→A matches");
        assert!(g2.eval(&arrival(3, 1, 2), &env, &[]).is_none(), "C→A does not");
        assert!(g2.eval(&arrival(2, 3, 3), &env, &[]).is_none(), "B→C does not");
    }

    #[test]
    fn eq_and_neq_const() {
        let g = Guard::new(vec![
            Atom::EqConst(Field::L4Dst, 80u16.into()),
            Atom::NeqConst(Field::Ipv4Src, Ipv4Address::new(10, 0, 0, 9).into()),
        ]);
        assert!(g.eval(&arrival(1, 2, 0), &Bindings::new(), &[]).is_some());
        assert!(g.eval(&arrival(9, 2, 0), &Bindings::new(), &[]).is_none());
    }

    #[test]
    fn neq_var_negative_match() {
        let env = Bindings::new().bind(var("P"), Ipv4Address::new(10, 0, 0, 2).into());
        let g = Guard::new(vec![Atom::NeqVar(Field::Ipv4Dst, var("P"))]);
        assert!(g.eval(&arrival(1, 3, 0), &env, &[]).is_some(), "dst != P matches");
        assert!(g.eval(&arrival(1, 2, 0), &env, &[]).is_none(), "dst == P fails");
        // Unbound variable: negative match cannot be decided, guard fails.
        let g2 = Guard::new(vec![Atom::NeqVar(Field::Ipv4Dst, var("Q"))]);
        assert!(g2.eval(&arrival(1, 3, 0), &env, &[]).is_none());
    }

    #[test]
    fn same_packet_identity() {
        let g = Guard::new(vec![Atom::SamePacket(0)]);
        let ids = [Some(PacketId(7))];
        assert!(g.eval(&departure(1, 2, 7), &Bindings::new(), &ids).is_some());
        assert!(g.eval(&departure(1, 2, 8), &Bindings::new(), &ids).is_none());
        // Stage without a recorded id (e.g. an OOB stage): cannot match.
        assert!(g.eval(&departure(1, 2, 7), &Bindings::new(), &[None]).is_none());
        assert!(g.eval(&departure(1, 2, 7), &Bindings::new(), &[]).is_none());
    }

    #[test]
    fn missing_field_fails_guard() {
        // Guard over a DHCP field against a plain TCP packet.
        let g = Guard::new(vec![Atom::Bind(var("Y"), Field::DhcpYiaddr)]);
        assert!(g.eval(&arrival(1, 2, 0), &Bindings::new(), &[]).is_none());
    }

    #[test]
    fn binds_within_one_guard_feed_later_atoms() {
        // Bind A=src then require dst != A: matches unless src == dst.
        let g = Guard::new(vec![
            Atom::Bind(var("A"), Field::Ipv4Src),
            Atom::NeqVar(Field::Ipv4Dst, var("A")),
        ]);
        assert!(g.eval(&arrival(1, 2, 0), &Bindings::new(), &[]).is_some());
        assert!(g.eval(&arrival(1, 1, 0), &Bindings::new(), &[]).is_none());
    }

    #[test]
    fn structural_queries() {
        let g = Guard::new(vec![
            Atom::Bind(var("A"), Field::Ipv4Src),
            Atom::NeqVar(Field::Ipv4Dst, var("A")),
            Atom::SamePacket(0),
            Atom::EqConst(Field::DhcpMsgType, 5u8.into()),
        ]);
        assert!(g.has_negative_match());
        assert!(g.uses_identity());
        assert_eq!(g.required_depth(), Layer::L7);
        let binders: Vec<_> = g.binders().collect();
        assert_eq!(binders, vec![(&var("A"), Field::Ipv4Src)]);
        assert!(!Guard::any().has_negative_match());
        assert_eq!(Guard::any().required_depth(), Layer::L2);
    }

    #[test]
    fn failed_guard_leaves_env_unchanged() {
        let env = Bindings::new().bind(var("A"), Ipv4Address::new(10, 0, 0, 1).into());
        let g = Guard::new(vec![
            Atom::Bind(var("B"), Field::Ipv4Dst),
            Atom::EqConst(Field::L4Dst, 443u16.into()), // will fail (port is 80)
        ]);
        assert!(g.eval(&arrival(1, 2, 0), &env, &[]).is_none());
        assert_eq!(env.len(), 1, "caller's environment is untouched");
    }
}
