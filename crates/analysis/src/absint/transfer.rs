//! The guard evaluator: one abstract evaluation of a guard over an
//! [`AbsEnv`], returning the post-state and *every* reason an atom of the
//! guard can never hold.
//!
//! [`eval`] is the only place the analysis decides whether a guard is
//! satisfiable, which variables it reads unbound, and what it binds. The
//! guard lints (`SW001`, `SW002`, `SW004`, `SW005`, `SW012`) render its
//! [`Finding`]s — [`Reason::code`] says which lint owns a reason — and the
//! proven facts ([`super::facts`]) read [`Eval::refuted`] and the
//! post-state off the same evaluation.
//!
//! Mirrors of the reference semantics that matter for soundness: `AnyOf`
//! bindings are discarded (the disjunction only contributes
//! satisfiability), negative atoms (`NeqVar`, `NeqConst`) never bind, a
//! read of an unbound variable always fails, and a guard's atoms constrain
//! *one* event, so constraints on the same field accumulate by meet within
//! a single evaluation.

use super::domain::AbsValue;
use super::env::AbsEnv;
use super::fields::{field_kind, field_top, value_kind};
use crate::diag::Code;
use std::collections::BTreeMap;
use swmon_core::{Atom, Guard, Var};
use swmon_packet::{Field, FieldValue};

/// Why an atom can never hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reason {
    /// `field == value` where the value's type can never be the field's.
    TypeMismatch(Field, FieldValue),
    /// `field == later` after `field == earlier` in the same guard, as
    /// `(field, earlier, later)`.
    ConstConflict(Field, FieldValue, FieldValue),
    /// `field == value` and `field != value` in the same guard.
    EqAndNeq(Field, FieldValue),
    /// `bind ?var = field` and `field != ?var` in the same guard.
    BindAndNeq(Var, Field),
    /// `field == value` where the value does not fit the field's width.
    OutOfWidth,
    /// The atom contradicts a value fixed elsewhere — typically by an
    /// earlier stage, through a variable bound at a pinned field.
    ValueConflict,
    /// No disjunct of an `any of:` can hold.
    DeadDisjunction,
    /// A negative match or round-robin check reads a variable that nothing
    /// has bound by then.
    UnboundRead {
        /// The variable read.
        var: Var,
        /// True for `rr successor of ?var`, false for `field != ?var`.
        round_robin: bool,
        /// True when the read sits inside an `any of:` disjunct, where it
        /// kills only that disjunct.
        in_disjunct: bool,
    },
}

impl Reason {
    /// The lint that reports this reason: contradictions visible inside one
    /// guard are `SW002`, those that need the value domain (widths, what
    /// earlier stages bound) are `SW012`, unbound reads are `SW001`.
    pub fn code(&self) -> Code {
        match self {
            Reason::TypeMismatch(..)
            | Reason::ConstConflict(..)
            | Reason::EqAndNeq(..)
            | Reason::BindAndNeq(..) => Code::UnsatGuard,
            Reason::OutOfWidth | Reason::ValueConflict | Reason::DeadDisjunction => {
                Code::PrunableStage
            }
            Reason::UnboundRead { .. } => Code::UnboundVar,
        }
    }

    /// True when the reason proves the whole guard unsatisfiable in the
    /// value domain. A dead disjunct leaves the others standing, and
    /// `BindAndNeq` relates a field to a variable, which the domain (values
    /// per variable, values per field) cannot express — it is reported, and
    /// the facts conservatively keep the stage live.
    pub fn refutes(&self) -> bool {
        !matches!(self, Reason::BindAndNeq(..) | Reason::UnboundRead { in_disjunct: true, .. })
    }
}

/// One reason, attached to the top-level atom it was found at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Index of the atom in the guard (for a contradicting pair, the later
    /// one; for a disjunct, the enclosing `any of:`).
    pub atom: usize,
    /// Why the atom cannot hold.
    pub reason: Reason,
}

/// The outcome of evaluating one guard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eval {
    /// The input environment plus every top-level `Bind` of the guard, each
    /// holding the meet of what was known about the variable and about the
    /// field: an over-approximation of the post-state. Once the guard is
    /// [`Eval::refuted`] there is no post-state, and only *which* variables
    /// are bound is meaningful — what the lints of later stages check
    /// their reads against.
    pub env: AbsEnv,
    /// Every finding, in atom order.
    pub findings: Vec<Finding>,
}

impl Eval {
    /// True when no event can satisfy the guard for any instance state the
    /// input environment describes.
    pub fn refuted(&self) -> bool {
        self.findings.iter().any(|f| f.reason.refutes())
    }

    /// The findings the lint `code` renders.
    pub fn findings_for(&self, code: Code) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.reason.code() == code)
    }
}

/// What the current event's fields are known to hold, given the atoms
/// processed so far.
type FieldCons = BTreeMap<Field, AbsValue>;

fn constraint(fields: &FieldCons, f: Field) -> AbsValue {
    fields.get(&f).copied().unwrap_or_else(|| field_top(f))
}

/// The contradiction between two atoms of one conjunction, if any.
fn clash(earlier: &Atom, later: &Atom) -> Option<Reason> {
    match (earlier, later) {
        (Atom::EqConst(f1, v1), Atom::EqConst(f2, v2)) if f1 == f2 && v1 != v2 => {
            Some(Reason::ConstConflict(*f1, *v1, *v2))
        }
        (Atom::EqConst(f1, v1), Atom::NeqConst(f2, v2))
        | (Atom::NeqConst(f2, v2), Atom::EqConst(f1, v1))
            if f1 == f2 && v1 == v2 =>
        {
            Some(Reason::EqAndNeq(*f1, *v1))
        }
        (Atom::Bind(v1, f1), Atom::NeqVar(f2, v2)) | (Atom::NeqVar(f2, v2), Atom::Bind(v1, f1))
            if f1 == f2 && v1 == v2 =>
        {
            Some(Reason::BindAndNeq(*v1, *f1))
        }
        _ => None,
    }
}

/// Evaluate `guard` abstractly in `env`.
///
/// Precondition (holds along a property's stages, where instance state is
/// exactly the top-level binders of earlier match stages): `env` contains
/// **every** variable that can possibly be bound at this point. That is
/// what licenses refuting a read of a variable absent from `env` — the
/// engine rejects reads of unbound variables, so the atom always fails.
pub fn eval(env: &AbsEnv, guard: &Guard) -> Eval {
    let mut env = env.clone();
    let mut fields = FieldCons::new();
    let mut findings = Vec::new();

    // Equality constants first: conjunction order does not affect
    // satisfiability, and seeding the field constraints up front lets a
    // later `Bind` pick up `field == const` knowledge atom order would
    // otherwise hide.
    let (consts, rest): (Vec<_>, Vec<_>) =
        guard.atoms.iter().enumerate().partition(|(_, a)| matches!(a, Atom::EqConst(..)));
    for (i, atom) in consts.into_iter().chain(rest) {
        let mut reasons = Vec::new();
        // What the value domain has against the atom, beyond unbound reads.
        let failure = match atom {
            Atom::EqConst(f, v) if field_kind(*f) != value_kind(v) => {
                Some(Reason::TypeMismatch(*f, *v))
            }
            Atom::EqConst(f, v) => {
                let met = constraint(&fields, *f).meet(AbsValue::Const(*v));
                if !met.is_bottom() {
                    fields.insert(*f, met);
                    None
                } else if field_top(*f).admits(v) {
                    Some(Reason::ValueConflict)
                } else {
                    Some(Reason::OutOfWidth)
                }
            }
            Atom::Bind(v, f) => {
                let known = env.get(v);
                // Unification across kinds never succeeds.
                let kinds_agree =
                    !matches!(known, AbsValue::Const(c) if value_kind(&c) != field_kind(*f));
                let met = constraint(&fields, *f).meet(known);
                if kinds_agree && !met.is_bottom() {
                    fields.insert(*f, met);
                    env.bind(*v, met);
                    None
                } else {
                    env.bind(*v, known);
                    Some(Reason::ValueConflict)
                }
            }
            Atom::AnyOf(_) => (!can_hold(atom, &env, &fields, false, &mut reasons))
                .then_some(Reason::DeadDisjunction),
            _ => (!can_hold(atom, &env, &fields, false, &mut reasons))
                .then_some(Reason::ValueConflict),
        };
        // A mistyped constant is its own contradiction; anything else may
        // also contradict an earlier atom, and then that pair is the
        // explanation.
        if !matches!(failure, Some(Reason::TypeMismatch(..))) {
            reasons.extend(guard.atoms[..i].iter().find_map(|earlier| clash(earlier, atom)));
        }
        if let Some(reason) = failure {
            if !reasons.iter().any(Reason::refutes) {
                reasons.push(reason);
            }
        }
        findings.extend(reasons.into_iter().map(|reason| Finding { atom: i, reason }));
    }
    findings.sort_by_key(|f| f.atom);
    Eval { env, findings }
}

/// Whether `atom` can hold for some event given what is known — for the
/// atoms that neither bind nor constrain: negative, round-robin and
/// identity atoms, and (recursively) the disjuncts of an `any of:`, whose
/// effects evaluation discards. Reads of unbound variables go to `reads`;
/// every disjunct is visited, so each one is reported.
fn can_hold(
    atom: &Atom,
    env: &AbsEnv,
    fields: &FieldCons,
    in_disjunct: bool,
    reads: &mut Vec<Reason>,
) -> bool {
    let mut bound = |var: &Var, round_robin: bool| {
        if !env.is_bound(var) {
            reads.push(Reason::UnboundRead { var: *var, round_robin, in_disjunct });
        }
        env.is_bound(var)
    };
    match atom {
        Atom::EqConst(f, v) => {
            field_kind(*f) == value_kind(v)
                && !constraint(fields, *f).meet(AbsValue::Const(*v)).is_bottom()
        }
        Atom::Bind(v, f) => !constraint(fields, *f).meet(env.get(v)).is_bottom(),
        Atom::NeqConst(f, v) => constraint(fields, *f) != AbsValue::Const(*v),
        // Refutable only when both sides are pinned to the same constant.
        Atom::NeqVar(f, v) => {
            bound(v, false)
                && !matches!(
                    (constraint(fields, *f), env.get(v)),
                    (AbsValue::Const(a), AbsValue::Const(b)) if a == b
                )
        }
        Atom::RrSuccessorMismatch { prev, .. } => bound(prev, true),
        Atom::AnyOf(subs) => {
            let live = subs.iter().filter(|sub| can_hold(sub, env, fields, true, reads)).count();
            subs.is_empty() || live > 0
        }
        // Identity and arithmetic atoms: no value-domain knowledge.
        Atom::SamePacket(_) | Atom::HashedPortMismatch { .. } => true,
    }
}

/// True when `sub`'s constraint set is implied by `sup`'s: every event (and
/// instance state) satisfying `sup` also satisfies `sub`. Syntactic and
/// conservative — used for dominated-transition detection (`SW011`), where
/// a false negative only costs a missed lint.
pub fn implies(sup: &Guard, sub: &Guard) -> bool {
    sub.atoms.iter().all(|a| sup.atoms.contains(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_core::var;
    use swmon_packet::{FieldValue, Ipv4Address};

    fn u(n: u64) -> FieldValue {
        FieldValue::Uint(n)
    }

    #[test]
    fn constant_conflicts_are_refuted() {
        let g = Guard::new(vec![
            Atom::EqConst(Field::L4Dst, u(80)),
            Atom::EqConst(Field::L4Dst, u(443)),
        ]);
        assert!(eval(&AbsEnv::new(), &g).refuted());
        let ok = Guard::new(vec![Atom::EqConst(Field::L4Dst, u(80))]);
        assert!(!eval(&AbsEnv::new(), &ok).refuted());
    }

    #[test]
    fn out_of_range_and_mistyped_constants_are_refuted() {
        let too_big = Guard::new(vec![Atom::EqConst(Field::Ttl, u(300))]);
        assert!(eval(&AbsEnv::new(), &too_big).refuted(), "TTL is 8 bits");
        let mistyped = Guard::new(vec![Atom::EqConst(
            Field::L4Dst,
            FieldValue::Ipv4(Ipv4Address::new(10, 0, 0, 1)),
        )]);
        assert!(eval(&AbsEnv::new(), &mistyped).refuted());
    }

    #[test]
    fn binds_propagate_constants_into_the_environment() {
        let g = Guard::new(vec![
            Atom::EqConst(Field::L4Dst, u(80)),
            Atom::Bind(var("P"), Field::L4Dst),
        ]);
        let out = eval(&AbsEnv::new(), &g);
        assert!(out.findings.is_empty(), "satisfiable: {out:?}");
        assert_eq!(out.env.get(&var("P")), AbsValue::Const(u(80)));
        // Order must not matter: the bind before the constant learns the same.
        let g2 = Guard::new(vec![
            Atom::Bind(var("P"), Field::L4Dst),
            Atom::EqConst(Field::L4Dst, u(80)),
        ]);
        let out2 = eval(&AbsEnv::new(), &g2);
        assert!(out2.findings.is_empty(), "satisfiable: {out2:?}");
        assert_eq!(out2.env.get(&var("P")), AbsValue::Const(u(80)));
    }

    #[test]
    fn cross_stage_constant_conflict_is_refuted() {
        // Stage 1 bound P from a port pinned to 80; a later guard re-binds
        // P at a field pinned to 443 — unification can never succeed.
        let mut env = AbsEnv::new();
        env.bind(var("P"), AbsValue::Const(u(80)));
        let g = Guard::new(vec![
            Atom::EqConst(Field::L4Src, u(443)),
            Atom::Bind(var("P"), Field::L4Src),
        ]);
        assert!(eval(&env, &g).refuted());
        // And re-binding a Uint-valued variable at an address field fails.
        let addr = Guard::new(vec![Atom::Bind(var("P"), Field::Ipv4Src)]);
        assert!(eval(&env, &addr).refuted());
    }

    #[test]
    fn neq_atoms_refute_only_pinned_equalities() {
        let dead = Guard::new(vec![
            Atom::EqConst(Field::L4Dst, u(80)),
            Atom::NeqConst(Field::L4Dst, u(80)),
        ]);
        assert!(eval(&AbsEnv::new(), &dead).refuted());
        let mut env = AbsEnv::new();
        env.bind(var("A"), AbsValue::Const(u(80)));
        let dead2 = Guard::new(vec![
            Atom::EqConst(Field::L4Dst, u(80)),
            Atom::NeqVar(Field::L4Dst, var("A")),
        ]);
        assert!(eval(&env, &dead2).refuted());
        let live = Guard::new(vec![Atom::NeqVar(Field::L4Dst, var("A"))]);
        assert!(!eval(&env, &live).refuted(), "field unpinned: satisfiable");
    }

    #[test]
    fn anyof_needs_one_feasible_disjunct_and_discards_bindings() {
        let one_live = Guard::new(vec![
            Atom::EqConst(Field::L4Dst, u(80)),
            Atom::AnyOf(vec![
                Atom::EqConst(Field::L4Dst, u(443)), // dead under the conjunct
                Atom::Bind(var("Z"), Field::Ipv4Src),
            ]),
        ]);
        let out = eval(&AbsEnv::new(), &one_live);
        assert!(!out.refuted(), "second disjunct lives");
        assert!(!out.env.is_bound(&var("Z")), "disjunct bindings are discarded");
        let all_dead = Guard::new(vec![
            Atom::EqConst(Field::L4Dst, u(80)),
            Atom::AnyOf(vec![
                Atom::EqConst(Field::L4Dst, u(443)),
                Atom::EqConst(Field::Ttl, u(999)),
            ]),
        ]);
        assert!(eval(&AbsEnv::new(), &all_dead).refuted());
    }

    #[test]
    fn findings_name_the_later_atom_and_the_reason() {
        let (a, z) = (var("A"), var("Z"));
        let g = Guard::new(vec![
            Atom::NeqConst(Field::L4Dst, u(80)),
            Atom::EqConst(Field::L4Dst, u(443)),
            // Clashes with atoms 0 and 1; the earliest partner explains it.
            Atom::EqConst(Field::L4Dst, u(80)),
            Atom::EqConst(Field::Ttl, u(300)),
            Atom::Bind(a, Field::Ipv4Src),
            Atom::NeqVar(Field::Ipv4Src, a),
            Atom::AnyOf(vec![Atom::NeqVar(Field::Ipv4Dst, z)]),
            Atom::NeqVar(Field::Ipv4Dst, z),
        ]);
        let unbound = |in_disjunct| Reason::UnboundRead { var: z, round_robin: false, in_disjunct };
        let got: Vec<_> =
            eval(&AbsEnv::new(), &g).findings.into_iter().map(|f| (f.atom, f.reason)).collect();
        assert_eq!(
            got,
            vec![
                (2, Reason::EqAndNeq(Field::L4Dst, u(80))),
                (3, Reason::OutOfWidth),
                (5, Reason::BindAndNeq(a, Field::Ipv4Src)),
                (6, unbound(true)),
                (6, Reason::DeadDisjunction),
                (7, unbound(false)),
            ]
        );
        // A bind-and-exclude pair is reported, but it relates a field to a
        // variable, which the value domain cannot refute.
        let pair = Guard::new(vec![Atom::Bind(a, Field::Ipv4Src), Atom::NeqVar(Field::Ipv4Src, a)]);
        let out = eval(&AbsEnv::new(), &pair);
        assert_eq!(out.findings.len(), 1);
        assert!(!out.refuted());
    }

    #[test]
    fn implication_is_superset_of_atoms() {
        let narrow = Guard::new(vec![
            Atom::EqConst(Field::L4Dst, u(80)),
            Atom::Bind(var("A"), Field::Ipv4Src),
        ]);
        let wide = Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]);
        assert!(implies(&narrow, &wide), "narrow ⇒ wide");
        assert!(!implies(&wide, &narrow));
        assert!(implies(&wide, &Guard::any()), "anything implies the empty guard");
    }
}
