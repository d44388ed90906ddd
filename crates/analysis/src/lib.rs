#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # swmon-analysis — static analysis of monitoring properties
//!
//! The paper's core contribution is a *requirements analysis*: which
//! semantic features a property needs (Table 1) and which switch
//! approaches can host it (Table 2). That is exactly the shape of a static
//! analyzer, and this crate runs it at authoring time: a pass pipeline
//! over the compiled [`Property`] IR that emits structured
//! [`Diagnostic`]s with stable codes:
//!
//! | code | severity | finding |
//! |---|---|---|
//! | `SW000` | Error | structural validation failure |
//! | `SW001` | Error/Warning | guard, clearing, or window reads an unbound variable |
//! | `SW002` | Error/Warning | unsatisfiable guard conjunction |
//! | `SW003` | Warning | variable bound at a field and its mirror in one guard |
//! | `SW004` | Warning | unreachable stage / dead clearing |
//! | `SW005` | Warning | timeout that can never arm or refresh |
//! | `SW006` | Error | empty event-class mask (inert property) |
//! | `SW007` | Perf | stage matching falls back to a full instance scan |
//! | `SW008` | Perf | no hashable instance key |
//! | `SW009` | Note | backend approaches that cannot host the property |
//! | `SW010` | Note | abstract interpretation tightened the event-class mask |
//! | `SW011` | Warning | a clearing clause is dominated by an earlier one |
//! | `SW012` | Warning | a stage provably can never be completed (dead tail) |
//! | `SW013` | Note | finite bound on spawn-binding tuples per routing key |
//! | `SW014` | Note | per-backend resource estimate (state bits, registers, entries) |
//! | `SW015` | Note | estimated resources exceed a backend's nominal budget |
//!
//! `SW000`–`SW013` come from the property-local pass pipeline; `SW014` and
//! `SW015` are emitted by `swmon-backends` (`resource_diagnostics`), which
//! owns the per-mechanism storage disciplines.
//!
//! Entry points: [`analyze`] for a bare property, [`analyze_spanned`] when
//! DSL source spans are available, [`analyze_full`] to also run the
//! backend-feasibility lint against capability profiles. Output renders as
//! pretty text ([`Diagnostic::render`]) or JSON ([`json::diags_to_json`],
//! which round-trips through [`json::diags_from_json`]).
//!
//! The [`feasibility`] module is the single source of truth for
//! feature-vs-capability gap checking, shared with `swmon-backends`
//! (which re-exports it) and the Table 2 generator.

pub mod absint;
pub mod diag;
pub mod feasibility;
pub mod json;
pub mod passes;

pub use diag::{Code, Diagnostic, Locus, Position, Severity, Summary};
pub use feasibility::{feature_gaps, Capabilities, Cell, FieldAccess, Gap};

use passes::Ctx;
use swmon_core::{Property, PropertySpans, ProvenanceMode};

/// Lint one property. Runs every property-local pass (everything except
/// backend feasibility, which needs capability profiles — see
/// [`analyze_full`]).
pub fn analyze(property: &Property) -> Vec<Diagnostic> {
    analyze_spanned(property, None)
}

/// Lint one property with optional DSL source spans; diagnostics then carry
/// 1-based source lines (see [`swmon_core::parse_property_spanned`]).
pub fn analyze_spanned(property: &Property, spans: Option<&PropertySpans>) -> Vec<Diagnostic> {
    let ctx = Ctx::new(property, spans);
    passes::run(&ctx)
}

/// Lint one property including the `SW009` backend-feasibility pass
/// against the given capability profiles at the given provenance level.
pub fn analyze_full(
    property: &Property,
    spans: Option<&PropertySpans>,
    profiles: &[Capabilities],
    provenance: ProvenanceMode,
) -> Vec<Diagnostic> {
    let ctx = Ctx::new(property, spans);
    let mut out = passes::run(&ctx);
    out.extend(passes::backend::check(&ctx, profiles, provenance));
    passes::sort(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_core::{var, Atom, EventPattern, Guard, Property, Stage};
    use swmon_packet::Field;

    #[test]
    fn clean_property_yields_no_gating_diagnostics() {
        let p = Property {
            name: "clean".into(),
            statement: String::new(),
            stages: vec![
                Stage::match_(
                    "a",
                    EventPattern::Arrival,
                    Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
                ),
                Stage::match_(
                    "b",
                    EventPattern::Arrival,
                    Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
                ),
            ],
        };
        let diags = analyze(&p);
        assert!(!Summary::of(&diags).gating(), "{diags:#?}");
    }

    #[test]
    fn analysis_is_deterministic() {
        let p = Property {
            name: "p".into(),
            statement: String::new(),
            stages: vec![Stage::match_(
                "a",
                EventPattern::Arrival,
                Guard::new(vec![Atom::NeqVar(Field::Ipv4Src, var("Z"))]),
            )],
        };
        assert_eq!(analyze(&p), analyze(&p));
    }
}
