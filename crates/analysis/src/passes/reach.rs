//! `SW004` unreachable stages and `SW005` dead timeouts.
//!
//! Stages execute strictly in order, so a match stage whose advance guard
//! can never succeed — the walk found an unsatisfiable conjunction
//! (`SW002`) or a top-level read of a never-bound variable (`SW001`) in it
//! — blocks every stage after it. Deadline stages never block: time always passes. A clearing
//! on the spawn stage is also unreachable (instances never *await* stage
//! 0, so its `unless` list is dead code).
//!
//! A timeout is dead when it can never do its job:
//!
//! * any `within` window or deadline on an unreachable stage;
//! * a `refresh` policy on a stage that follows a deadline — refresh
//!   triggers on *repeats of the previous observation*, and a deadline has
//!   no observation event to repeat.

use super::Ctx;
use crate::absint::Reason;
use crate::diag::{Code, Diagnostic, Position, Severity};
use swmon_core::{RefreshPolicy, StageKind};

/// Run the reachability checks.
pub fn check(ctx: &Ctx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Dead `unless` on the spawn stage.
    if let Some(first) = ctx.prop.stages.first() {
        for (c, _) in first.unless.iter().enumerate() {
            out.push(Diagnostic {
                code: Code::UnreachableStage,
                severity: Severity::Warning,
                locus: ctx.locus(0, Position::Unless { clause: c }),
                message: "clearing on the spawn stage can never run: instances never await \
                          stage 0"
                    .into(),
                suggestion: Some("move the clearing to the stage it should guard".into()),
            });
        }
    }

    // The first stage whose advance guard carries an Error finding — a
    // contradiction inside the guard, else a top-level unbound read —
    // blocks every stage after it. (A stage only the value domain proves
    // dead is `SW012`'s to report.)
    let blocker = ctx.walk.stages.iter().enumerate().find_map(|(s, at)| {
        if at.advance.findings_for(Code::UnsatGuard).next().is_some() {
            return Some((s, "its guard is unsatisfiable"));
        }
        let unbound = |r: &Reason| matches!(r, Reason::UnboundRead { in_disjunct: false, .. });
        at.advance
            .findings
            .iter()
            .any(|f| unbound(&f.reason))
            .then_some((s, "its guard reads a variable nothing binds"))
    });

    let mut unreachable = vec![false; ctx.prop.stages.len()];
    if let Some((b, why)) = blocker {
        for (s, dead) in unreachable.iter_mut().enumerate().skip(b + 1) {
            *dead = true;
            out.push(Diagnostic {
                code: Code::UnreachableStage,
                severity: Severity::Warning,
                locus: ctx.locus(s, Position::Stage),
                message: format!(
                    "no instance can reach this stage: stage {b} (\"{}\") never advances because \
                     {why}",
                    stage_name(ctx, b)
                ),
                suggestion: Some(format!("fix stage {b} or remove the stages after it")),
            });
        }
    }

    // Dead timeouts.
    for (s, stage) in ctx.prop.stages.iter().enumerate() {
        let is_deadline = matches!(stage.kind, StageKind::Deadline { .. });
        if unreachable[s] && (stage.within.is_some() || is_deadline) {
            out.push(Diagnostic {
                code: Code::DeadTimeout,
                severity: Severity::Warning,
                locus: ctx.locus(s, Position::Window),
                message: if is_deadline {
                    "this deadline can never arm: the stage is unreachable".into()
                } else {
                    "this window can never arm: the stage is unreachable".into()
                },
                suggestion: None,
            });
        }
        // Refresh with nothing to repeat: the previous stage is a deadline,
        // which produces no observation event.
        let refreshes = match &stage.kind {
            StageKind::Deadline { refresh, .. } => *refresh == RefreshPolicy::RefreshOnRepeat,
            StageKind::Match { .. } => {
                stage.within.is_some() && stage.within_refresh == RefreshPolicy::RefreshOnRepeat
            }
        };
        if refreshes && s > 0 {
            if let StageKind::Deadline { .. } = ctx.prop.stages[s - 1].kind {
                out.push(Diagnostic {
                    code: Code::DeadTimeout,
                    severity: Severity::Warning,
                    locus: ctx.locus(s, Position::Window),
                    message: format!(
                        "`refresh` can never trigger: the previous stage (\"{}\") is a deadline, \
                         and refresh fires on repeats of the previous *observation*",
                        stage_name(ctx, s - 1)
                    ),
                    suggestion: Some("drop `refresh`, or refresh from a match stage".into()),
                });
            }
        }
    }
    out
}

fn stage_name(ctx: &Ctx<'_>, s: usize) -> String {
    ctx.prop.stages.get(s).map(|st| st.name.clone()).unwrap_or_default()
}
