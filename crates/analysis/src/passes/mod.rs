//! The lint pass pipeline.
//!
//! Each pass is a function from the shared [`Ctx`] to a list of
//! [`Diagnostic`]s. [`Ctx::new`] walks the property's stages once
//! ([`crate::absint::walk()`]); the guard passes ([`guards`], [`reach`],
//! [`absint`]) render that walk's findings and never evaluate a
//! guard themselves. Passes are pure and order-independent; the
//! orchestrator ([`run`]) executes them in code order and the result is
//! sorted into a deterministic presentation order (severity, then code,
//! then stage).

pub mod absint;
pub mod backend;
pub mod guards;
pub mod perf;
pub mod reach;
pub mod structural;

use crate::absint::{walk, Walk};
use crate::diag::{Diagnostic, Locus, Position};
use swmon_core::{Property, PropertySpans};

/// Shared, precomputed analysis context handed to every pass.
pub struct Ctx<'a> {
    /// The property under analysis.
    pub prop: &'a Property,
    /// Source spans, when the property came from DSL text.
    pub spans: Option<&'a PropertySpans>,
    /// The abstract evaluation of every guard of `prop`, stage by stage.
    pub walk: Walk,
}

impl<'a> Ctx<'a> {
    /// Build the context for `prop`: one walk down its stages.
    pub fn new(prop: &'a Property, spans: Option<&'a PropertySpans>) -> Ctx<'a> {
        Ctx { prop, spans, walk: walk(prop) }
    }

    /// A locus at `position` of stage `s`, with the stage name and (when
    /// spans are available) the source line filled in.
    pub fn locus(&self, s: usize, position: Position) -> Locus {
        let line = self.spans.and_then(|sp| {
            let stage = sp.stages.get(s)?;
            match &position {
                Position::Property => Some(sp.line),
                Position::Stage => Some(stage.line),
                Position::Guard { atom } => {
                    stage.atom_lines.get(*atom).copied().or(Some(stage.line))
                }
                Position::Unless { clause } => {
                    stage.unless_lines.get(*clause).copied().or(Some(stage.line))
                }
                Position::Window => stage.window_line.or(Some(stage.line)),
            }
        });
        Locus {
            property: self.prop.name.clone(),
            stage: Some(s),
            stage_name: self.prop.stages.get(s).map(|st| st.name.clone()),
            position,
            line,
        }
    }

    /// A whole-property locus.
    pub fn prop_locus(&self) -> Locus {
        Locus {
            property: self.prop.name.clone(),
            stage: None,
            stage_name: None,
            position: Position::Property,
            line: self.spans.map(|sp| sp.line),
        }
    }
}

/// Run every property-local pass over `ctx` and sort the findings.
pub fn run(ctx: &Ctx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(structural::check(ctx));
    out.extend(guards::check(ctx));
    out.extend(reach::check(ctx));
    out.extend(perf::check(ctx));
    out.extend(absint::check(ctx));
    sort(&mut out);
    out
}

/// Deterministic presentation order: severity, code, stage, position,
/// message.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.severity, a.code, a.locus.stage, &a.locus.position, &a.message).cmp(&(
            b.severity,
            b.code,
            b.locus.stage,
            &b.locus.position,
            &b.message,
        ))
    });
}
