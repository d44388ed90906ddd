//! Synthesis: packaging what the stage [`walk`] proved about a property.
//!
//! [`property_facts`] walks the stages and derives:
//!
//! * the **refined event-class mask** — the OR of the classes of the
//!   event-driven reactions that can happen: the spawn, each advance out of
//!   a reachable stage, each clearing of a reachable stage whose guard is
//!   not refuted there. Sound because every reaction of the engine to an
//!   event (spawn, advance, clear) is one of those, and refresh classes are
//!   covered by the reaction that completed the refreshed stage. Clock-
//!   driven reactions (deadlines, window expiry) carry no class, and
//!   *stage-0 clearings* are left out: no instance ever awaits stage 0, so
//!   the engine never evaluates them;
//! * **stage liveness** — stage `s` can be completed iff no advance guard
//!   up to and including its own is refuted (the chain has no other way
//!   in);
//! * the **spawn-cardinality bound** — for each routing key, how many
//!   distinct spawn-binding tuples can exist: the product over spawn
//!   binders of 1 (the binder's field is part of the routing key, so it is
//!   fixed per key) or the binder's abstract cardinality after the spawn
//!   guard. `None` = unbounded;
//! * the intrinsic [`ResourceEstimate`].
//!
//! The facts are analysis-only: they feed `repro analyze`, lints
//! `SW010`–`SW015` and the per-backend resource table. Nothing on the hot
//! path consumes them — across the shipped catalog the refined mask equals
//! the syntactic one on every property (docs/ANALYSIS.md), so there is
//! nothing to prune.

use super::resources::ResourceEstimate;
use super::walk::{walk, Walk};
use std::collections::{BTreeMap, BTreeSet};
use swmon_core::{Property, RouteMode, RoutingPlan, StageKind};
use swmon_packet::Field;

/// Everything the abstract interpreter proved about one property.
#[derive(Debug, Clone)]
pub struct PropertyFacts {
    /// The syntactic event-class mask ([`Property::event_class_mask`]).
    pub syntactic_mask: u8,
    /// The proven mask — always a subset of the syntactic one.
    pub refined_mask: u8,
    /// `live_stages[s]`: stage `s` can be completed by some trace.
    pub live_stages: Vec<bool>,
    /// Upper bound on distinct spawn-binding tuples per routing key
    /// (`None` = unbounded).
    pub spawn_cardinality: Option<u64>,
    /// Intrinsic per-instance state cost.
    pub estimate: ResourceEstimate,
}

/// Run the analysis for `property`. The property should be structurally
/// valid ([`Property::validate`]); on a property with no stages the result
/// is the trivial all-dead bundle.
pub fn property_facts(property: &Property) -> PropertyFacts {
    PropertyFacts::of(property, &walk(property))
}

impl PropertyFacts {
    /// Derive the facts from `walk`, the walk of `property`.
    pub fn of(property: &Property, walk: &Walk) -> PropertyFacts {
        let mut refined_mask = 0u8;
        // Stages `0..=dead_from` are the ones an instance can await (the
        // spawn stage is "awaited" by the empty pre-spawn state), and only
        // those before `dead_from` can be advanced out of.
        let awaited = property.stages.iter().zip(&walk.stages).take(walk.dead_from + 1);
        for (s, (stage, at)) in awaited.enumerate() {
            match &stage.kind {
                StageKind::Match { pattern, .. } if s < walk.dead_from => {
                    refined_mask |= pattern.class_mask();
                }
                _ => {}
            }
            if s > 0 {
                for (u, clearing) in stage.unless.iter().zip(&at.unless) {
                    if !clearing.refuted() {
                        refined_mask |= u.pattern.class_mask();
                    }
                }
            }
        }
        PropertyFacts {
            syntactic_mask: property.event_class_mask(),
            refined_mask,
            live_stages: (0..property.stages.len()).map(|s| s < walk.dead_from).collect(),
            spawn_cardinality: spawn_cardinality(property, walk),
            estimate: ResourceEstimate::of(property),
        }
    }

    /// True when the mask proves strictly fewer classes than the syntax.
    pub fn mask_is_refined(&self) -> bool {
        self.refined_mask != self.syntactic_mask
    }
}

/// The per-routing-key bound on distinct spawn-binding tuples.
fn spawn_cardinality(property: &Property, walk: &Walk) -> Option<u64> {
    if walk.dead_from == 0 {
        return Some(0); // the spawn guard is unsatisfiable: no instances at all
    }
    let env = &walk.stages[0].advance.env;
    let key_fields: BTreeSet<Field> = match RoutingPlan::of(property).mode() {
        RouteMode::HashExact { fields } | RouteMode::HashSymmetric { fields, .. } => {
            fields.iter().copied().collect()
        }
        RouteMode::Pinned(_) => BTreeSet::new(),
    };
    // A variable bound (anywhere in the spawn guard) from a routing-key
    // field is fixed per key: factor 1.
    let mut keyed: BTreeMap<_, bool> = BTreeMap::new();
    let spawn_guard = property.stages.first().and_then(|s| s.guard())?;
    for (v, f) in spawn_guard.binders() {
        *keyed.entry(*v).or_insert(false) |= key_fields.contains(&f);
    }
    let mut product: u64 = 1;
    for (v, is_keyed) in keyed {
        if is_keyed {
            continue;
        }
        product = product.checked_mul(env.get(&v).cardinality()?)?;
    }
    Some(product)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_core::{var, Atom, EventPattern, Guard, Stage, Unless};
    use swmon_packet::{Field, FieldValue};

    fn prop(stages: Vec<Stage>) -> Property {
        Property { name: "t".into(), statement: String::new(), stages }
    }

    fn fw() -> Property {
        prop(vec![
            Stage::match_(
                "out",
                EventPattern::Arrival,
                Guard::new(vec![
                    Atom::Bind(var("A"), Field::Ipv4Src),
                    Atom::Bind(var("B"), Field::Ipv4Dst),
                ]),
            ),
            Stage::match_(
                "back",
                EventPattern::Departure(swmon_core::ActionPattern::Drop),
                Guard::new(vec![
                    Atom::Bind(var("B"), Field::Ipv4Src),
                    Atom::Bind(var("A"), Field::Ipv4Dst),
                ]),
            ),
        ])
    }

    #[test]
    fn clean_property_keeps_its_syntactic_mask_and_full_liveness() {
        let p = fw();
        let f = property_facts(&p);
        assert_eq!(f.refined_mask, f.syntactic_mask);
        assert!(!f.mask_is_refined());
        assert_eq!(f.live_stages, vec![true, true]);
        // Both binders are routing-key fields: exactly one tuple per key.
        assert_eq!(f.spawn_cardinality, Some(1));
    }

    #[test]
    fn stage_zero_clearings_are_dropped_from_the_mask() {
        let mut p = fw();
        p.stages[0].unless = vec![Unless {
            pattern: EventPattern::OutOfBand(swmon_core::OobPattern::Any),
            guard: Guard::any(),
        }];
        let f = property_facts(&p);
        assert_ne!(f.syntactic_mask & 0b111_0000, 0, "syntax mentions OOB classes");
        assert_eq!(f.refined_mask & 0b111_0000, 0, "no instance awaits stage 0");
        assert!(f.mask_is_refined());
        assert_eq!(f.live_stages, vec![true, true], "liveness is untouched");
        assert_eq!(f.refined_mask & !f.syntactic_mask, 0, "refinement only removes classes");
    }

    #[test]
    fn dead_tail_kills_liveness_and_its_classes() {
        let mut p = fw();
        // An impossible third stage: TTL can never be 300.
        p.stages.push(Stage::match_(
            "never",
            EventPattern::OutOfBand(swmon_core::OobPattern::PortDown),
            Guard::new(vec![Atom::EqConst(Field::Ttl, FieldValue::Uint(300))]),
        ));
        let f = property_facts(&p);
        assert_eq!(f.live_stages, vec![true, true, false]);
        assert_eq!(f.refined_mask & (1 << 4), 0, "the dead stage's class is dropped");
    }

    #[test]
    fn cardinality_counts_free_binders_via_their_abstract_values() {
        // One keyed binder (part of the routing key) and one constrained
        // free binder: TcpFlags is 8 bits → 256 values.
        let p = prop(vec![
            Stage::match_(
                "a",
                EventPattern::Arrival,
                Guard::new(vec![
                    Atom::Bind(var("A"), Field::Ipv4Src),
                    Atom::Bind(var("F"), Field::TcpFlags),
                ]),
            ),
            Stage::match_(
                "b",
                EventPattern::Arrival,
                Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
            ),
        ]);
        let f = property_facts(&p);
        assert_eq!(f.spawn_cardinality, Some(256));
        // Pinning the flags to one constant collapses the bound to 1.
        let mut pinned = p.clone();
        if let swmon_core::StageKind::Match { guard, .. } = &mut pinned.stages[0].kind {
            guard.atoms.insert(0, Atom::EqConst(Field::TcpFlags, FieldValue::Uint(2)));
        }
        assert_eq!(property_facts(&pinned).spawn_cardinality, Some(1));
        // An unkeyed MAC binder is unbounded.
        let mut free = p.clone();
        if let swmon_core::StageKind::Match { guard, .. } = &mut free.stages[0].kind {
            guard.atoms.push(Atom::Bind(var("M"), Field::EthSrc));
        }
        assert_eq!(property_facts(&free).spawn_cardinality, None);
    }

    #[test]
    fn unsatisfiable_spawn_means_zero_instances() {
        let p = prop(vec![
            Stage::match_(
                "a",
                EventPattern::Arrival,
                Guard::new(vec![Atom::EqConst(Field::Ttl, FieldValue::Uint(300))]),
            ),
            Stage::match_("b", EventPattern::Arrival, Guard::any()),
        ]);
        let f = property_facts(&p);
        assert_eq!(f.spawn_cardinality, Some(0));
        assert_eq!(f.live_stages, vec![false, false]);
    }
}
