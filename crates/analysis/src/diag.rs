//! Diagnostics: stable codes, severities, loci, and rendering.
//!
//! Every finding of the analyzer is a [`Diagnostic`]: a stable [`Code`]
//! (`SW000`…`SW009`), a [`Severity`], a [`Locus`] pinpointing where in the
//! property the problem lives (stage index, guard atom, clearing clause,
//! window — plus a source line when the property came from a DSL file),
//! a human-readable message, and an optional suggestion. Diagnostics render
//! both as pretty text ([`Diagnostic::render`]) and as JSON
//! ([`crate::json`]).

use std::fmt;

/// The stable diagnostic codes, one per analysis pass finding.
///
/// Codes are append-only: a published code never changes meaning, so CI
/// gates and suppression lists stay valid across releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// `SW000` — structural validation failure ([`swmon_core::PropertyError`]).
    Structural,
    /// `SW001` — a guard, clearing, or window reads a variable that no
    /// earlier observation definitely binds.
    UnboundVar,
    /// `SW002` — a guard carries contradictory constraints on one field and
    /// can never be satisfied.
    UnsatGuard,
    /// `SW003` — one guard binds the same variable at a field and at its
    /// directional mirror: only self-addressed packets can match.
    MirrorConflict,
    /// `SW004` — no satisfiable path reaches this stage.
    UnreachableStage,
    /// `SW005` — a timeout that can never do its job: a window or deadline
    /// on a stage no instance can await, or a refresh that can never
    /// trigger.
    DeadTimeout,
    /// `SW006` — the property's event-class mask is empty: no event can
    /// spawn, advance, clear, or refresh anything.
    EmptyEventMask,
    /// `SW007` — instances awaiting this stage can only be found by a full
    /// scan: no bound variable is re-bound by every guard of the stage.
    FullScanFallback,
    /// `SW008` — no hashable instance key: a hash-indexed register array
    /// (Sec 3.3) cannot index the property's instances.
    RoutingPin,
    /// `SW009` — one or more surveyed switch approaches cannot host this
    /// property (Table 2 as a lint).
    BackendGap,
    /// `SW010` — abstract interpretation proved an event-class mask strictly
    /// tighter than the syntactic one: events in the dropped classes can
    /// never change the property's output.
    RefinedMask,
    /// `SW011` — a guard (or clearing) is subsumed by another on the same
    /// stage: every event it accepts is already accepted by the dominating
    /// guard, so the transition is dead weight.
    GuardSubsumption,
    /// `SW012` — abstract interpretation proved a stage unreachable under
    /// the interval/constant domains (strictly stronger than the syntactic
    /// `SW004` check); the engine may prune it.
    PrunableStage,
    /// `SW013` — a finite bound on the live-instance population per routing
    /// key, derived from constant-propagated spawn-guard constraints.
    CardinalityBound,
    /// `SW014` — per-backend resource estimate: state bits per instance,
    /// registers, and flow-table entries the property needs on a surveyed
    /// approach (Table 2, quantitatively).
    ResourceEstimate,
    /// `SW015` — the property's estimated state exceeds a surveyed
    /// approach's resource budget even though every feature is supported:
    /// feasible in kind, infeasible in size.
    ResourceOverflow,
}

impl Code {
    /// The stable textual code, e.g. `"SW002"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::Structural => "SW000",
            Code::UnboundVar => "SW001",
            Code::UnsatGuard => "SW002",
            Code::MirrorConflict => "SW003",
            Code::UnreachableStage => "SW004",
            Code::DeadTimeout => "SW005",
            Code::EmptyEventMask => "SW006",
            Code::FullScanFallback => "SW007",
            Code::RoutingPin => "SW008",
            Code::BackendGap => "SW009",
            Code::RefinedMask => "SW010",
            Code::GuardSubsumption => "SW011",
            Code::PrunableStage => "SW012",
            Code::CardinalityBound => "SW013",
            Code::ResourceEstimate => "SW014",
            Code::ResourceOverflow => "SW015",
        }
    }

    /// Parse a textual code back into a [`Code`].
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// Every defined code, in numeric order.
    pub const ALL: [Code; 16] = [
        Code::Structural,
        Code::UnboundVar,
        Code::UnsatGuard,
        Code::MirrorConflict,
        Code::UnreachableStage,
        Code::DeadTimeout,
        Code::EmptyEventMask,
        Code::FullScanFallback,
        Code::RoutingPin,
        Code::BackendGap,
        Code::RefinedMask,
        Code::GuardSubsumption,
        Code::PrunableStage,
        Code::CardinalityBound,
        Code::ResourceEstimate,
        Code::ResourceOverflow,
    ];
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a finding is. Ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The property is broken: it cannot do what it says (never fires,
    /// never spawns, structurally invalid).
    Error,
    /// The property runs but part of it is dead or suspicious.
    Warning,
    /// Correct but slow: the engine or runtime falls back to an
    /// unindexed/unsharded path.
    Perf,
    /// Informational (e.g. which backends cannot host the property).
    Note,
}

impl Severity {
    /// The lowercase name used in text and JSON output.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Perf => "perf",
            Severity::Note => "note",
        }
    }

    /// Parse the lowercase name back.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "error" => Some(Severity::Error),
            "warning" => Some(Severity::Warning),
            "perf" => Some(Severity::Perf),
            "note" => Some(Severity::Note),
            _ => None,
        }
    }

    /// True for the severities the CI gate fails on.
    pub fn is_gating(&self) -> bool {
        matches!(self, Severity::Error | Severity::Warning)
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where inside a stage a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Position {
    /// The property as a whole (no single stage is at fault).
    Property,
    /// The stage itself (its kind or placement).
    Stage,
    /// Atom `atom` (0-based) of the stage's advance guard.
    Guard {
        /// Index into the guard's atom list.
        atom: usize,
    },
    /// Clearing clause `clause` (0-based, in `unless` order).
    Unless {
        /// Index into the stage's `unless` list.
        clause: usize,
    },
    /// The stage's `within` window or deadline.
    Window,
}

impl Position {
    /// Compact rendering, e.g. `"guard atom 1"`.
    pub fn render(&self) -> String {
        match self {
            Position::Property => "property".to_string(),
            Position::Stage => "stage".to_string(),
            Position::Guard { atom } => format!("guard atom {atom}"),
            Position::Unless { clause } => format!("unless clause {clause}"),
            Position::Window => "window".to_string(),
        }
    }
}

/// What a diagnostic is about: the property, a stage, and a position inside
/// the stage — plus a 1-based source line when the property was parsed from
/// DSL text with span tracking ([`swmon_core::parse_property_spanned`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Locus {
    /// Name of the property the finding is in.
    pub property: String,
    /// Stage index (0-based), when the finding is stage-local.
    pub stage: Option<usize>,
    /// The stage's human-readable name, when stage-local.
    pub stage_name: Option<String>,
    /// Where inside the stage.
    pub position: Position,
    /// 1-based DSL source line, when spans were available.
    pub line: Option<usize>,
}

impl Locus {
    /// A whole-property locus.
    pub fn property(name: &str) -> Locus {
        Locus {
            property: name.to_string(),
            stage: None,
            stage_name: None,
            position: Position::Property,
            line: None,
        }
    }

    /// Render as `prop/name, stage 2 ("return-dropped"), guard atom 1`.
    pub fn render(&self) -> String {
        let mut out = self.property.clone();
        if let Some(s) = self.stage {
            out.push_str(&format!(", stage {s}"));
            if let Some(n) = &self.stage_name {
                out.push_str(&format!(" (\"{n}\")"));
            }
        }
        if !matches!(self.position, Position::Property | Position::Stage) {
            out.push_str(&format!(", {}", self.position.render()));
        }
        if let Some(l) = self.line {
            out.push_str(&format!(" [line {l}]"));
        }
        out
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`SW000`…).
    pub code: Code,
    /// How bad it is.
    pub severity: Severity,
    /// Where it is.
    pub locus: Locus,
    /// What is wrong, in one sentence.
    pub message: String,
    /// How to fix it, when the analyzer has a concrete suggestion.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Pretty multi-line rendering, `rustc`-style:
    ///
    /// ```text
    /// error[SW002]: guard can never be satisfied: l4.dst == 80 contradicts l4.dst == 443
    ///   --> bad/ports, stage 0 ("spawn"), guard atom 1
    ///   help: remove one of the contradictory constraints
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}[{}]: {}\n  --> {}",
            self.severity,
            self.code,
            self.message,
            self.locus.render()
        );
        if let Some(s) = &self.suggestion {
            out.push_str(&format!("\n  help: {s}"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Counts by severity over a diagnostic list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Summary {
    /// Number of [`Severity::Error`] findings.
    pub errors: usize,
    /// Number of [`Severity::Warning`] findings.
    pub warnings: usize,
    /// Number of [`Severity::Perf`] findings.
    pub perf: usize,
    /// Number of [`Severity::Note`] findings.
    pub notes: usize,
}

impl Summary {
    /// Tally `diags`.
    pub fn of(diags: &[Diagnostic]) -> Summary {
        let mut s = Summary::default();
        for d in diags {
            match d.severity {
                Severity::Error => s.errors += 1,
                Severity::Warning => s.warnings += 1,
                Severity::Perf => s.perf += 1,
                Severity::Note => s.notes += 1,
            }
        }
        s
    }

    /// True if the CI gate should fail (any Error or Warning).
    pub fn gating(&self) -> bool {
        self.errors > 0 || self.warnings > 0
    }

    /// Total findings.
    pub fn total(&self) -> usize {
        self.errors + self.warnings + self.perf + self.notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert_eq!(Code::parse(c.as_str()), Some(c));
        }
        assert_eq!(Code::parse("SW999"), None);
    }

    #[test]
    fn severities_round_trip() {
        for s in [Severity::Error, Severity::Warning, Severity::Perf, Severity::Note] {
            assert_eq!(Severity::parse(s.as_str()), Some(s));
        }
        assert!(Severity::Error.is_gating());
        assert!(Severity::Warning.is_gating());
        assert!(!Severity::Perf.is_gating());
        assert!(!Severity::Note.is_gating());
    }

    #[test]
    fn rendering_includes_code_locus_and_help() {
        let d = Diagnostic {
            code: Code::UnsatGuard,
            severity: Severity::Error,
            locus: Locus {
                property: "p".into(),
                stage: Some(1),
                stage_name: Some("reply".into()),
                position: Position::Guard { atom: 2 },
                line: Some(14),
            },
            message: "guard can never be satisfied".into(),
            suggestion: Some("remove one constraint".into()),
        };
        let r = d.render();
        assert!(r.contains("error[SW002]"), "{r}");
        assert!(r.contains("stage 1 (\"reply\")"), "{r}");
        assert!(r.contains("guard atom 2"), "{r}");
        assert!(r.contains("[line 14]"), "{r}");
        assert!(r.contains("help: remove"), "{r}");
    }

    #[test]
    fn summary_counts_and_gates() {
        let mk = |sev| Diagnostic {
            code: Code::RoutingPin,
            severity: sev,
            locus: Locus::property("p"),
            message: String::new(),
            suggestion: None,
        };
        let s = Summary::of(&[mk(Severity::Perf), mk(Severity::Note), mk(Severity::Perf)]);
        assert_eq!((s.errors, s.warnings, s.perf, s.notes), (0, 0, 2, 1));
        assert!(!s.gating());
        assert_eq!(s.total(), 3);
        assert!(Summary::of(&[mk(Severity::Warning)]).gating());
    }
}
