//! `SW007` full-scan fallback and `SW008` routing pin — the Perf lints.
//!
//! These productize the engine's own planning analyses: if
//! [`StageKeyPlan`] finds a guard with no probe (neither a re-bound held
//! variable nor a `same packet as N`) on a stage that matches events, the
//! engine falls back to scanning every instance awaiting that stage on
//! every candidate event; if [`RoutingPlan`] finds no field position that
//! names the property's instances, a hash-indexed register array (Sec 3.3)
//! cannot index them. Both are correct on the reference engine and both
//! deserve to be *reported* at authoring time rather than discovered
//! later.

use super::Ctx;
use crate::diag::{Code, Diagnostic, Position, Severity};
use swmon_core::{RouteMode, RoutingPlan, StageKeyPlan, StageKind};

/// Run the performance lints.
pub fn check(ctx: &Ctx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    let keys = StageKeyPlan::of(ctx.prop);
    for (s, stage) in ctx.prop.stages.iter().enumerate().skip(1) {
        // A stage examines events if it has an advance guard (match stages)
        // or clearings; a bare deadline is driven purely by time and needs
        // no lookup key.
        let examines_events =
            matches!(stage.kind, StageKind::Match { .. }) || !stage.unless.is_empty();
        if examines_events && keys.key(s).is_none() {
            out.push(Diagnostic {
                code: Code::FullScanFallback,
                severity: Severity::Perf,
                locus: ctx.locus(s, Position::Stage),
                message: "some guard of this stage neither re-binds a variable the awaiting \
                          instances definitely hold nor constrains `same packet as N`, so \
                          matching falls back to scanning every awaiting instance per event"
                    .into(),
                suggestion: Some(
                    "have every guard of the stage (advance and clearings) re-bind a held \
                     variable at a fixed field or constrain `same packet as N`, at the top \
                     level of the guard (not inside an any-of)"
                        .into(),
                ),
            });
        }
    }

    if let RouteMode::Pinned(reason) = RoutingPlan::of(ctx.prop).mode() {
        out.push(Diagnostic {
            code: Code::RoutingPin,
            severity: Severity::Perf,
            locus: ctx.prop_locus(),
            message: format!(
                "no hashable instance key ({reason}): a hash-indexed register array (Sec 3.3) \
                 cannot index its instances"
            ),
            suggestion: Some(
                "re-bind a spawn-stage variable in every later guard at the same field (or its \
                 mirror) to make the property hashable"
                    .into(),
            ),
        });
    }
    out
}
