//! The abstract environment: what is known about an instance's bound
//! variables at one program point (= awaiting one stage).
//!
//! A variable present in the map is *definitely bound* at the point, and
//! its [`AbsValue`] over-approximates the values it can hold. A variable
//! absent from the map may or may not be bound — nothing is assumed about
//! it (reads come back [`AbsValue::Top`]).

use super::domain::AbsValue;
use std::collections::BTreeMap;
use swmon_core::Var;

/// Per-point abstract state over bound variables. `BTreeMap` keeps
/// iteration (and thus every derived fact and diagnostic) deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbsEnv {
    vars: BTreeMap<Var, AbsValue>,
}

impl AbsEnv {
    /// The empty environment: nothing bound, nothing known.
    pub fn new() -> AbsEnv {
        AbsEnv::default()
    }

    /// What is known about `v` ([`AbsValue::Top`] when absent).
    pub fn get(&self, v: &Var) -> AbsValue {
        self.vars.get(v).copied().unwrap_or(AbsValue::Top)
    }

    /// True when `v` is definitely bound at this point.
    pub fn is_bound(&self, v: &Var) -> bool {
        self.vars.contains_key(v)
    }

    /// Record that `v` is now bound, with `value` over-approximating the
    /// binding. Re-binding (unification) intersects with prior knowledge.
    /// Returns the resulting abstraction (callers check for `Bottom`).
    pub fn bind(&mut self, v: Var, value: AbsValue) -> AbsValue {
        let merged = self.get(&v).meet(value);
        self.vars.insert(v, merged);
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_core::var;
    use swmon_packet::FieldValue;

    fn u(n: u64) -> AbsValue {
        AbsValue::Const(FieldValue::Uint(n))
    }

    #[test]
    fn binding_unifies_with_prior_knowledge() {
        let mut env = AbsEnv::new();
        assert!(!env.is_bound(&var("A")));
        assert_eq!(env.get(&var("A")), AbsValue::Top);
        assert_eq!(env.bind(var("A"), u(80)), u(80));
        assert_eq!(env.bind(var("A"), AbsValue::Range(0, 100)), u(80), "meet refines");
        assert_eq!(env.bind(var("A"), u(443)), AbsValue::Bottom, "contradiction");
    }
}
