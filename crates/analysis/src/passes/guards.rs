//! `SW001` unbound reads, `SW002` unsatisfiable guards and `SW003`
//! mirror-symmetry conflicts — the per-guard lints.
//!
//! The guard evaluator ([`crate::absint::transfer::eval`]) finds what is
//! wrong with a guard; this pass words it, once per guard site (a match
//! stage's advance guard, or one `unless` clause).
//!
//! **`SW001`.** Guard evaluation is left-to-right and
//! [`swmon_core::Atom::NeqVar`] *fails* when its variable is unbound (a
//! negative match against nothing is unsatisfiable, not vacuously true). So
//! a read of a variable that no earlier observation definitely binds is at
//! best a dead atom and at worst a never-firing property:
//!
//! * a read in a stage's advance guard (top-level `!= ?v` or
//!   `rr successor of ?v`) makes the stage unmatchable — **Error**;
//! * a read inside an `any of:` disjunct kills only that disjunct, and a
//!   read in an `unless` guard kills only the clearing — **Warning**;
//! * a `within bound ?v` window whose variable is unbound never arms, so
//!   the instance never expires — **Error**.
//!
//! "Definitely bound" means: a top-level `Bind` of an earlier match
//! stage's guard, or a top-level `Bind` earlier in the same guard. Bindings
//! made inside `any of:` disjuncts are discarded by evaluation and never
//! count.
//!
//! **`SW002`.** A guard is a conjunction, so two top-level atoms that
//! constrain one field incompatibly make the whole guard unsatisfiable;
//! the first such pair per guard is reported:
//!
//! * `f == a` and `f == b` with `a != b`;
//! * `f == a` and `f != a`;
//! * `bind ?v = f` together with `f != ?v` (after the bind, the field
//!   *equals* the binding by definition);
//! * `f == value` where the value's type can never be the field's type
//!   (e.g. a MAC constant compared against an IPv4 field).
//!
//! **`SW003`** is the subtler symmetry bug: one guard binding the same
//! variable at a field *and* at its directional mirror (`ipv4.src` and
//! `ipv4.dst`). Unification forces both fields equal, so only
//! self-addressed packets match — almost always a misspelling of the
//! symmetric pattern, which puts the mirrored bind in a *later* stage.

use super::Ctx;
use crate::absint::{field_kind, value_kind, Eval, Reason};
use crate::diag::{Code, Diagnostic, Position, Severity};
use swmon_core::features::mirror_field;
use swmon_core::property::WindowSpec;
use swmon_core::{Atom, Guard};
use swmon_packet::Field;

/// Run the per-guard lints.
pub fn check(ctx: &Ctx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (s, (stage, at)) in ctx.prop.stages.iter().zip(&ctx.walk.stages).enumerate() {
        if let Some(guard) = stage.guard() {
            lint_guard(ctx, s, None, guard, &at.advance, &mut out);
        }
        for (c, (u, clearing)) in stage.unless.iter().zip(&at.unless).enumerate() {
            lint_guard(ctx, s, Some(c), &u.guard, clearing, &mut out);
        }
        if let Some(WindowSpec::BoundSecs(v)) = &stage.within {
            if !at.env.is_bound(v) {
                out.push(Diagnostic {
                    code: Code::UnboundVar,
                    severity: Severity::Error,
                    locus: ctx.locus(s, Position::Window),
                    message: format!(
                        "window `within bound ?{}` reads ?{0}, which no earlier stage binds; \
                         the window never arms and the instance never expires",
                        v.name()
                    ),
                    suggestion: Some(format!("bind ?{} in an earlier stage", v.name())),
                });
            }
        }
    }
    out
}

/// Lint one guard of stage `s` — its advance guard (`clause: None`) or
/// `unless` clause `clause` — from its evaluation.
fn lint_guard(
    ctx: &Ctx<'_>,
    s: usize,
    clause: Option<usize>,
    guard: &Guard,
    eval: &Eval,
    out: &mut Vec<Diagnostic>,
) {
    // A finding points at its atom in an advance guard, at the whole clause
    // in a clearing; what fails is an Error there and a Warning here.
    let position = |atom: usize| match clause {
        None => Position::Guard { atom },
        Some(clause) => Position::Unless { clause },
    };
    let (severity, never_matches, unsat_means, mirror_help) = match clause {
        None => (
            Severity::Error,
            "the guard can never match, so the stage never advances",
            "the stage can never advance",
            "for symmetric (request/reply) matching, bind the variable at the mirrored field in \
             a later stage, not alongside the original",
        ),
        Some(_) => (
            Severity::Warning,
            "the clearing can never match, so it never discharges the obligation",
            "the clearing can never fire",
            "bind the variable at one orientation per guard (src/dst are mirrors)",
        ),
    };
    for f in &eval.findings {
        let Reason::UnboundRead { var, round_robin, in_disjunct } = &f.reason else { continue };
        let v = var.name();
        let (severity, message) = if *in_disjunct {
            let kills = "the disjunct can never hold";
            (Severity::Warning, format!("disjunct reads ?{v} before anything binds it; {kills}"))
        } else if *round_robin {
            let what = format!("round-robin check reads ?{v} before anything binds it");
            (severity, format!("{what}; {never_matches}"))
        } else {
            let what = format!("negative match against ?{v} reads it before anything binds it");
            (severity, format!("{what}; {never_matches}"))
        };
        out.push(Diagnostic {
            code: Code::UnboundVar,
            severity,
            locus: ctx.locus(s, position(f.atom)),
            message,
            suggestion: Some(format!(
                "bind ?{v} with a top-level `bind` in an earlier stage (disjunct bindings are \
                 discarded)"
            )),
        });
    }
    if let Some((atom, message, suggestion)) = unsat(eval) {
        out.push(Diagnostic {
            code: Code::UnsatGuard,
            severity,
            locus: ctx.locus(s, position(atom)),
            message: format!("{message}; {unsat_means}"),
            suggestion: Some(suggestion.into()),
        });
    }
    for (atom, message) in mirror_conflicts(guard) {
        out.push(Diagnostic {
            code: Code::MirrorConflict,
            severity: Severity::Warning,
            locus: ctx.locus(s, position(atom)),
            message,
            suggestion: Some(mirror_help.into()),
        });
    }
}

/// The guard's first in-guard contradiction, worded:
/// `(index of the later conflicting atom, message, suggestion)`.
fn unsat(eval: &Eval) -> Option<(usize, String, &'static str)> {
    let name = swmon_core::dsl::field_name;
    let contradictory = "remove one of the contradictory constraints";
    let finding = eval.findings_for(Code::UnsatGuard).next()?;
    let (message, suggestion) = match &finding.reason {
        Reason::TypeMismatch(f, v) => (
            format!(
                "`{} == {}` compares a {:?}-valued field against a {:?} constant, which can \
                 never be equal",
                name(*f),
                v,
                field_kind(*f),
                value_kind(v)
            ),
            "use a constant of the field's type",
        ),
        Reason::ConstConflict(f, earlier, later) => (
            format!("`{} == {}` contradicts earlier `{0} == {}`", name(*f), later, earlier),
            contradictory,
        ),
        Reason::EqAndNeq(f, v) => {
            (format!("`{} == {}` and `{0} != {1}` cannot both hold", name(*f), v), contradictory)
        }
        Reason::BindAndNeq(v, f) => (
            format!(
                "`bind ?{} = {}` forces the field equal to ?{0}, so `{1} != ?{0}` in the same \
                 guard can never hold",
                v.name(),
                name(*f)
            ),
            contradictory,
        ),
        other => unreachable!("{other:?} is not an SW002 reason"),
    };
    Some((finding.atom, message, suggestion))
}

/// Same-guard binds of one variable at a field and its mirror:
/// `(index of the later bind, message)` per conflicting pair.
fn mirror_conflicts(guard: &Guard) -> Vec<(usize, String)> {
    let name = swmon_core::dsl::field_name;
    let mut out = Vec::new();
    let binds: Vec<(usize, _, Field)> = guard
        .atoms
        .iter()
        .enumerate()
        .filter_map(|(i, a)| match a {
            Atom::Bind(v, f) => Some((i, *v, *f)),
            _ => None,
        })
        .collect();
    for (k, &(_, v1, f1)) in binds.iter().enumerate() {
        for &(j, v2, f2) in &binds[k + 1..] {
            if v1 == v2 && mirror_field(f1) == Some(f2) {
                out.push((
                    j,
                    format!(
                        "?{} is bound at {} and at its mirror {} in one guard; unification \
                         forces the two fields equal, so only self-addressed packets match",
                        v1.name(),
                        name(f1),
                        name(f2)
                    ),
                ));
            }
        }
    }
    out
}
