//! The stage walk: one forward pass over a property's stages.
//!
//! Properties are chains — stage `s` can only be completed while awaiting
//! stage `s`, and completion moves to stage `s + 1` — so there is no graph
//! to build and nothing to iterate to a fixpoint: the environment of an
//! instance awaiting stage `s` is the environment awaiting `s - 1` pushed
//! through stage `s - 1`'s advance guard (a deadline stage passes it on
//! unchanged). [`walk`] carries that environment down the chain and
//! evaluates each advance guard and each `unless` guard exactly once, in
//! it. Everything else in the crate — the guard lints and the proven
//! [`super::PropertyFacts`] — reads the result.

use super::env::AbsEnv;
use super::transfer::{eval, Eval};
use swmon_core::Property;

/// One stage of a [`Walk`].
#[derive(Debug, Clone)]
pub struct StageWalk {
    /// What an instance awaiting this stage has bound. Past
    /// [`Walk::dead_from`] no instance gets here, and only which variables
    /// are bound is meaningful (see [`Eval::env`]).
    pub env: AbsEnv,
    /// The advance guard evaluated in `env`; its `env` is the next stage's.
    /// A deadline stage has no guard: no findings, `env` unchanged.
    pub advance: Eval,
    /// Each `unless` guard evaluated in `env`, in clause order.
    pub unless: Vec<Eval>,
}

/// The abstract evaluation of a whole property.
#[derive(Debug, Clone)]
pub struct Walk {
    /// Per-stage evaluations, in stage order.
    pub stages: Vec<StageWalk>,
    /// The first stage whose advance guard is refuted — it and every stage
    /// after it can never be completed. `stages.len()` when there is none.
    pub dead_from: usize,
}

/// Walk `property`'s stages.
pub fn walk(property: &Property) -> Walk {
    let mut env = AbsEnv::new();
    let mut stages = Vec::with_capacity(property.stages.len());
    for stage in &property.stages {
        let advance = match stage.guard() {
            Some(guard) => eval(&env, guard),
            None => Eval { env: env.clone(), findings: Vec::new() },
        };
        let unless = stage.unless.iter().map(|u| eval(&env, &u.guard)).collect();
        let next = advance.env.clone();
        stages.push(StageWalk { env, advance, unless });
        env = next;
    }
    let dead_from = stages.iter().position(|s| s.advance.refuted()).unwrap_or(stages.len());
    Walk { stages, dead_from }
}

#[cfg(test)]
mod tests {
    use super::super::domain::AbsValue;
    use super::*;
    use swmon_core::{var, Atom, EventPattern, Guard, Stage};
    use swmon_packet::{Field, FieldValue};

    fn prop(stages: Vec<Stage>) -> Property {
        Property { name: "t".into(), statement: String::new(), stages }
    }

    fn stage(name: &str, atoms: Vec<Atom>) -> Stage {
        Stage::match_(name, EventPattern::Arrival, Guard::new(atoms))
    }

    #[test]
    fn environments_accumulate_along_the_chain() {
        let p = prop(vec![
            stage(
                "a",
                vec![
                    Atom::EqConst(Field::L4Dst, FieldValue::Uint(80)),
                    Atom::Bind(var("P"), Field::L4Dst),
                ],
            ),
            stage("b", vec![Atom::Bind(var("Q"), Field::L4Src)]),
        ]);
        let w = walk(&p);
        assert_eq!(w.dead_from, 2, "every stage can be completed");
        let at1 = &w.stages[1].env;
        assert_eq!(at1.get(&var("P")), AbsValue::Const(FieldValue::Uint(80)));
        assert!(!at1.is_bound(&var("Q")), "Q binds at stage 1, not before");
        assert!(w.stages[1].advance.env.is_bound(&var("Q")));
        assert!(w.stages.iter().all(|s| s.advance.findings.is_empty()));
    }

    #[test]
    fn a_refuted_guard_kills_the_tail_but_the_walk_goes_on() {
        let p = prop(vec![
            stage(
                "a",
                vec![
                    Atom::EqConst(Field::L4Dst, FieldValue::Uint(80)),
                    Atom::Bind(var("P"), Field::L4Dst),
                ],
            ),
            // Re-binding P at a field pinned to 443 can never unify.
            stage(
                "b",
                vec![
                    Atom::EqConst(Field::L4Src, FieldValue::Uint(443)),
                    Atom::Bind(var("P"), Field::L4Src),
                    Atom::Bind(var("Q"), Field::Ipv4Src),
                ],
            ),
            stage("c", vec![Atom::NeqVar(Field::Ipv4Dst, var("Q"))]),
        ]);
        let w = walk(&p);
        assert_eq!(w.dead_from, 1, "spawn succeeds, the advance is refuted");
        // Stage 2 is still evaluated, against what stage 1 would have
        // bound: its read of Q is not a finding.
        assert!(w.stages[2].env.is_bound(&var("Q")));
        assert!(w.stages[2].advance.findings.is_empty());
    }

    #[test]
    fn unsatisfiable_spawn_is_dead_from_the_start() {
        let p = prop(vec![
            stage("a", vec![Atom::EqConst(Field::Ttl, FieldValue::Uint(300))]),
            stage("b", vec![]),
        ]);
        assert_eq!(walk(&p).dead_from, 0);
    }
}
