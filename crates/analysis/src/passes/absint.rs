//! `SW010`–`SW013` — findings proven by the abstract interpreter.
//!
//! This pass derives the [`PropertyFacts`] from the context's stage walk
//! and reports what they prove beyond the per-guard lints:
//!
//! * `SW010` (Note) — the refined event-class mask is *strictly* tighter
//!   than the syntactic one: the property's text names event classes
//!   that provably cannot affect it;
//! * `SW011` (Warning) — a clearing clause is dominated by an earlier one
//!   on the same stage: every event the later clause clears, the earlier
//!   clause already clears, so the later clause never fires uniquely;
//! * `SW012` (Warning) — a stage the abstract interpretation proves can
//!   never be completed, where `SW002` has nothing to say (only what
//!   needs the value domain: cross-stage constant conflicts, out-of-range
//!   constants under field widths, definitely-unbound negative reads);
//! * `SW013` (Note) — a finite upper bound on distinct spawn-binding
//!   tuples per routing key, i.e. a provable cap on instance cardinality.

use super::Ctx;
use crate::absint::PropertyFacts;
use crate::diag::{Code, Diagnostic, Position, Severity};
use swmon_core::{ActionPattern, EventPattern, OobPattern};

/// True when every event matching `narrow` also matches `wide`.
fn pattern_covers(wide: &EventPattern, narrow: &EventPattern) -> bool {
    use EventPattern::*;
    match (wide, narrow) {
        (Arrival, Arrival) => true,
        (Departure(w), Departure(n)) => {
            w == n
                || matches!(w, ActionPattern::Any)
                || (matches!(w, ActionPattern::Forwarded)
                    && matches!(n, ActionPattern::Unicast | ActionPattern::Flood))
        }
        (OutOfBand(w), OutOfBand(n)) => w == n || matches!(w, OobPattern::Any),
        _ => false,
    }
}

/// Run the abstract-interpretation lints.
pub fn check(ctx: &Ctx<'_>) -> Vec<Diagnostic> {
    if ctx.prop.stages.is_empty() {
        return Vec::new(); // SW000 owns this; nothing to interpret
    }
    let facts = PropertyFacts::of(ctx.prop, &ctx.walk);
    let mut out = Vec::new();
    refined_mask(ctx, &facts, &mut out);
    dominated_clearings(ctx, &mut out);
    prunable_stage(ctx, &mut out);
    cardinality(ctx, &facts, &mut out);
    out
}

fn refined_mask(ctx: &Ctx<'_>, facts: &PropertyFacts, out: &mut Vec<Diagnostic>) {
    if !facts.mask_is_refined() {
        return;
    }
    let dropped = (facts.syntactic_mask & !facts.refined_mask).count_ones();
    out.push(Diagnostic {
        code: Code::RefinedMask,
        severity: Severity::Note,
        locus: ctx.prop_locus(),
        message: format!(
            "abstract interpretation tightens the event-class mask from {:#09b} to {:#09b}: \
             {dropped} event class(es) provably cannot affect this property",
            facts.syntactic_mask, facts.refined_mask
        ),
        suggestion: Some(
            "delete the clause that names those classes (typically a spawn-stage `unless`, \
             which nothing ever awaits) so the property's own mask is the proven one"
                .into(),
        ),
    });
}

fn dominated_clearings(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    for (s, stage) in ctx.prop.stages.iter().enumerate().skip(1) {
        for (j, later) in stage.unless.iter().enumerate() {
            let Some(i) = stage.unless[..j].iter().position(|earlier| {
                pattern_covers(&earlier.pattern, &later.pattern)
                    && crate::absint::transfer::implies(&later.guard, &earlier.guard)
            }) else {
                continue;
            };
            out.push(Diagnostic {
                code: Code::GuardSubsumption,
                severity: Severity::Warning,
                locus: ctx.locus(s, Position::Unless { clause: j }),
                message: format!(
                    "clearing clause {j} is dominated by clause {i}: every event it clears, \
                     clause {i} already clears"
                ),
                suggestion: Some(format!(
                    "remove clause {j}, or make it match something clause {i} does not"
                )),
            });
        }
    }
}

fn prunable_stage(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    // The first dead stage is the cause and the rest are consequences, so
    // report exactly one finding — unless the cause is a contradiction
    // inside the guard, which SW002 reports (as an Error, no less).
    let s = ctx.walk.dead_from;
    let Some(at) = ctx.walk.stages.get(s) else { return };
    if at.advance.findings_for(Code::UnsatGuard).next().is_some() {
        return;
    }
    out.push(Diagnostic {
        code: Code::PrunableStage,
        severity: Severity::Warning,
        locus: ctx.locus(s, Position::Stage),
        message: format!(
            "abstract interpretation proves this stage can never be completed (its guard is \
             unsatisfiable under the values earlier stages can bind); stages {s}..{} are dead \
             and the property can never raise a violation",
            ctx.prop.stages.len() - 1
        ),
        suggestion: Some(
            "fix the guard's constraints, or drop the property — the engine may skip every \
             event for it"
                .into(),
        ),
    });
}

fn cardinality(ctx: &Ctx<'_>, facts: &PropertyFacts, out: &mut Vec<Diagnostic>) {
    // Only a *finite* bound is worth a note, and only for a property that
    // can actually spawn (a dead property already gets SW002/SW012).
    let Some(bound) = facts.spawn_cardinality else { return };
    if bound == 0 {
        return;
    }
    out.push(Diagnostic {
        code: Code::CardinalityBound,
        severity: Severity::Note,
        locus: ctx.prop_locus(),
        message: format!(
            "at most {bound} distinct spawn-binding tuple(s) can exist per routing key: \
             instance storage per key is provably bounded"
        ),
        suggestion: None,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_core::{var, Atom, Guard, Property, Stage, Unless};
    use swmon_packet::{Field, FieldValue};

    fn analyze(p: &Property) -> Vec<Diagnostic> {
        check(&Ctx::new(p, None))
    }

    fn two_stage(second_guard: Guard) -> Property {
        Property {
            name: "t".into(),
            statement: String::new(),
            stages: vec![
                Stage::match_(
                    "a",
                    EventPattern::Arrival,
                    Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
                ),
                Stage::match_("b", EventPattern::Arrival, second_guard),
            ],
        }
    }

    #[test]
    fn clean_property_yields_a_cardinality_note_at_most() {
        let p = two_stage(Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]));
        let diags = analyze(&p);
        assert!(diags.iter().all(|d| d.code == Code::CardinalityBound), "{diags:#?}");
    }

    #[test]
    fn stage_zero_clearings_trigger_the_refined_mask_note() {
        let mut p = two_stage(Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]));
        p.stages[0].unless =
            vec![Unless { pattern: EventPattern::OutOfBand(OobPattern::Any), guard: Guard::any() }];
        let diags = analyze(&p);
        assert!(diags.iter().any(|d| d.code == Code::RefinedMask), "{diags:#?}");
    }

    #[test]
    fn dominated_clearing_is_flagged() {
        let mut p = two_stage(Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]));
        p.stages[1].unless = vec![
            Unless { pattern: EventPattern::Departure(ActionPattern::Any), guard: Guard::any() },
            Unless {
                pattern: EventPattern::Departure(ActionPattern::Drop),
                guard: Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Dst)]),
            },
        ];
        let diags = analyze(&p);
        let d = diags.iter().find(|d| d.code == Code::GuardSubsumption).expect("flagged");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.locus.position, Position::Unless { clause: 1 });
        // Reversed order: the broad clause comes second and is NOT covered
        // by the narrow one.
        p.stages[1].unless.reverse();
        let diags = analyze(&p);
        assert!(diags.iter().all(|d| d.code != Code::GuardSubsumption), "{diags:#?}");
    }

    #[test]
    fn cross_stage_conflict_is_new_knowledge_and_flagged_once() {
        // Stage 0 pins A to port 80; stage 1 re-binds A at a field pinned
        // to 443. Each guard alone is satisfiable (SW002 stays silent) but
        // the conjunction across stages is not.
        let p = Property {
            name: "t".into(),
            statement: String::new(),
            stages: vec![
                Stage::match_(
                    "a",
                    EventPattern::Arrival,
                    Guard::new(vec![
                        Atom::EqConst(Field::L4Dst, FieldValue::Uint(80)),
                        Atom::Bind(var("P"), Field::L4Dst),
                    ]),
                ),
                Stage::match_(
                    "b",
                    EventPattern::Arrival,
                    Guard::new(vec![
                        Atom::EqConst(Field::L4Src, FieldValue::Uint(443)),
                        Atom::Bind(var("P"), Field::L4Src),
                    ]),
                ),
                Stage::match_("c", EventPattern::Arrival, Guard::any()),
            ],
        };
        let prunable: Vec<_> =
            analyze(&p).into_iter().filter(|d| d.code == Code::PrunableStage).collect();
        assert_eq!(prunable.len(), 1, "one finding for the first dead stage");
        assert_eq!(prunable[0].locus.stage, Some(1));
    }

    #[test]
    fn syntactically_unsat_guards_stay_with_sw002() {
        let p = two_stage(Guard::new(vec![
            Atom::EqConst(Field::L4Dst, FieldValue::Uint(80)),
            Atom::EqConst(Field::L4Dst, FieldValue::Uint(443)),
        ]));
        assert!(
            analyze(&p).iter().all(|d| d.code != Code::PrunableStage),
            "SW002 already owns in-guard contradictions"
        );
    }

    #[test]
    fn pattern_coverage_lattice() {
        use ActionPattern::*;
        let dep = EventPattern::Departure;
        assert!(pattern_covers(&dep(Any), &dep(Drop)));
        assert!(pattern_covers(&dep(Forwarded), &dep(Unicast)));
        assert!(pattern_covers(&dep(Forwarded), &dep(Flood)));
        assert!(!pattern_covers(&dep(Forwarded), &dep(Drop)));
        assert!(!pattern_covers(&dep(Unicast), &dep(Forwarded)));
        assert!(!pattern_covers(&EventPattern::Arrival, &dep(Any)));
        assert!(pattern_covers(
            &EventPattern::OutOfBand(OobPattern::Any),
            &EventPattern::OutOfBand(OobPattern::ControllerTag(3))
        ));
        assert!(!pattern_covers(
            &EventPattern::OutOfBand(OobPattern::ControllerTag(3)),
            &EventPattern::OutOfBand(OobPattern::Any)
        ));
    }
}
