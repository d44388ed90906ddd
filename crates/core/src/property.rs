//! Properties: sequences of observations that, completed, witness a
//! violation.
//!
//! Following the paper's convention, a property is written as the *negative
//! trace*: "we define a property as a sequence of observations that, when
//! completed, witness a violation". The engine hunts for completions.
//!
//! A [`Stage`] is either an event observation ([`StageKind::Match`]) or a
//! pure time observation ([`StageKind::Deadline`], the paper's *negative
//! observation* / timeout action, Feature 7). Stages carry:
//!
//! * `within` — a window since the previous observation; expiry *kills* the
//!   instance (Feature 3 timeouts), with an explicit refresh policy
//!   (Sec 2.1: "separate timers for each A, B pair, reset whenever a new
//!   A→B packet is seen");
//! * `unless` — clearing observations that discharge the pending obligation
//!   and kill the instance (Feature 4, the "until" construct).

use crate::guard::Guard;
use crate::pattern::EventPattern;
use crate::var::{Var, VarTable, MAX_VARS};
use swmon_packet::FieldValue;
use swmon_sim::time::Duration;

/// The length of a `within` window: a constant, or a value read from a
/// bound variable (in seconds) — e.g. a DHCP lease duration taken from the
/// packet that started the instance.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowSpec {
    /// A fixed window.
    Fixed(Duration),
    /// A window of `var` seconds, where `var` must be bound to an integer
    /// by the time the window is armed. If unbound (a property bug), no
    /// window is armed and the instance never expires.
    BoundSecs(Var),
}

impl WindowSpec {
    /// Resolve to a duration, reading a bound variable's value from
    /// `value` (`None` when unbound).
    pub fn resolve(&self, value: impl FnOnce(&Var) -> Option<FieldValue>) -> Option<Duration> {
        match self {
            WindowSpec::Fixed(d) => Some(*d),
            WindowSpec::BoundSecs(v) => {
                value(v).and_then(|fv| fv.as_uint()).map(Duration::from_secs)
            }
        }
    }
}

/// Whether re-observing the *previous* stage (same bindings) resets a
/// pending window.
///
/// The distinction is the Sec 2.3 subtlety: for positive windows (firewall
/// timeout) refresh is wanted; for negative observations (ARP "reply within
/// T"), refreshing on repeated requests would let a never-answered request
/// stream every T−1 seconds evade detection forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshPolicy {
    /// Repeats do not move the deadline.
    #[default]
    NoRefresh,
    /// A repeat of the previous observation (same bindings) resets the
    /// window.
    RefreshOnRepeat,
}

/// What a stage waits for.
#[derive(Debug, Clone, PartialEq)]
pub enum StageKind {
    /// Wait for an event matching `pattern` and `guard`.
    Match {
        /// Event kind filter.
        pattern: EventPattern,
        /// Value predicate / binder.
        guard: Guard,
    },
    /// Wait for `window` to elapse since the previous observation without
    /// the instance being cleared — a negative observation (Feature 7).
    Deadline {
        /// The window length.
        window: Duration,
        /// Whether repeats of the previous observation reset the clock.
        refresh: RefreshPolicy,
    },
}

/// A clearing observation: while an instance waits at a stage, an event
/// matching one of these discharges the obligation and kills the instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Unless {
    /// Event kind filter.
    pub pattern: EventPattern,
    /// Value predicate evaluated under the instance's bindings.
    pub guard: Guard,
}

/// One observation stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Human-readable label used in violation reports.
    pub name: String,
    /// What the stage waits for.
    pub kind: StageKind,
    /// For `Match` stages: the observation must occur within this window of
    /// the previous observation, or the instance dies (Feature 3).
    pub within: Option<WindowSpec>,
    /// Refresh policy for `within`.
    pub within_refresh: RefreshPolicy,
    /// Clearing observations (Feature 4 obligations).
    pub unless: Vec<Unless>,
}

impl Stage {
    /// A match stage with no window and no clearings.
    pub fn match_(name: &str, pattern: EventPattern, guard: Guard) -> Self {
        Stage {
            name: name.to_string(),
            kind: StageKind::Match { pattern, guard },
            within: None,
            within_refresh: RefreshPolicy::default(),
            unless: Vec::new(),
        }
    }

    /// A deadline (negative-observation) stage.
    pub fn deadline(name: &str, window: Duration, refresh: RefreshPolicy) -> Self {
        Stage {
            name: name.to_string(),
            kind: StageKind::Deadline { window, refresh },
            within: None,
            within_refresh: RefreshPolicy::default(),
            unless: Vec::new(),
        }
    }

    /// The guard, for match stages.
    pub fn guard(&self) -> Option<&Guard> {
        match &self.kind {
            StageKind::Match { guard, .. } => Some(guard),
            StageKind::Deadline { .. } => None,
        }
    }
}

/// A complete property.
#[derive(Debug, Clone, PartialEq)]
pub struct Property {
    /// Name used in reports (e.g. `"stateful-fw/return-not-dropped"`).
    pub name: String,
    /// Prose statement of the *positive* property being checked.
    pub statement: String,
    /// The violation-witnessing observation sequence. `stages[0]` spawns
    /// instances; completing the last stage raises a violation.
    pub stages: Vec<Stage>,
}

/// Structural errors detected by [`Property::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyError {
    /// A property needs at least one stage.
    NoStages,
    /// The first stage must be a `Match` (something has to spawn instances).
    FirstStageNotMatch,
    /// The first stage cannot carry a `within` window (there is no previous
    /// observation to measure from).
    FirstStageHasWindow,
    /// A `SamePacket(i)` atom refers to stage `i`, which must be an earlier
    /// stage.
    BadIdentityRef {
        /// The stage holding the atom.
        stage: usize,
        /// The stage it refers to.
        refers_to: usize,
    },
    /// A `Deadline` stage cannot also carry a `within` window.
    DeadlineWithWindow(usize),
    /// The property binds more distinct variables than an inline
    /// environment can hold ([`MAX_VARS`]).
    TooManyVariables {
        /// Distinct top-level binder variables found.
        count: usize,
        /// The inline-environment capacity.
        max: usize,
    },
}

impl std::fmt::Display for PropertyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PropertyError::NoStages => write!(f, "property has no stages"),
            PropertyError::FirstStageNotMatch => {
                write!(f, "first stage must be a Match observation")
            }
            PropertyError::FirstStageHasWindow => {
                write!(f, "first stage cannot have a `within` window")
            }
            PropertyError::BadIdentityRef { stage, refers_to } => {
                write!(f, "stage {stage} SamePacket refers to non-earlier stage {refers_to}")
            }
            PropertyError::DeadlineWithWindow(s) => {
                write!(f, "deadline stage {s} cannot also carry a `within` window")
            }
            PropertyError::TooManyVariables { count, max } => {
                write!(f, "property binds {count} distinct variables; the limit is {max}")
            }
        }
    }
}

impl std::error::Error for PropertyError {}

impl Property {
    /// Check structural well-formedness.
    pub fn validate(&self) -> Result<(), PropertyError> {
        self.checked_var_table().map(drop)
    }

    /// [`Property::validate`], handing back the variable table it checked.
    pub(crate) fn checked_var_table(&self) -> Result<VarTable, PropertyError> {
        if self.stages.is_empty() {
            return Err(PropertyError::NoStages);
        }
        if !matches!(self.stages[0].kind, StageKind::Match { .. }) {
            return Err(PropertyError::FirstStageNotMatch);
        }
        if self.stages[0].within.is_some() {
            return Err(PropertyError::FirstStageHasWindow);
        }
        for (i, stage) in self.stages.iter().enumerate() {
            if matches!(stage.kind, StageKind::Deadline { .. }) && stage.within.is_some() {
                return Err(PropertyError::DeadlineWithWindow(i));
            }
            let guards = stage.guard().into_iter().chain(stage.unless.iter().map(|u| &u.guard));
            for guard in guards {
                for atom in &guard.atoms {
                    if let crate::guard::Atom::SamePacket(r) = atom {
                        if *r >= i {
                            return Err(PropertyError::BadIdentityRef { stage: i, refers_to: *r });
                        }
                    }
                }
            }
        }
        let vars = self.var_table();
        if vars.len() > MAX_VARS {
            return Err(PropertyError::TooManyVariables { count: vars.len(), max: MAX_VARS });
        }
        Ok(vars)
    }

    /// Number of observation stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The property's binder-variable interner: every variable bound by a
    /// top-level `Bind` atom of any stage or clearing guard, numbered
    /// densely in canonical (name) order. Stable across clones and DSL
    /// round-trips — the assignment depends only on the name set.
    pub fn var_table(&self) -> VarTable {
        VarTable::from_vars(self.guards().flat_map(|g| g.binders().map(|(v, _)| *v)))
    }

    /// Every guard of the property: each match stage's guard followed by
    /// its clearing guards, in stage order.
    pub fn guards(&self) -> impl Iterator<Item = &Guard> {
        self.stages
            .iter()
            .flat_map(|s| s.guard().into_iter().chain(s.unless.iter().map(|u| &u.guard)))
    }

    /// Bitmask of [`crate::pattern::event_class`] bits any pattern of the
    /// property (stage observations and clearings) can match. An event
    /// whose class bit is outside this mask cannot spawn, advance, clear,
    /// or refresh any instance — a monitor may skip it entirely.
    pub fn event_class_mask(&self) -> u8 {
        let mut mask = 0u8;
        for stage in &self.stages {
            if let StageKind::Match { pattern, .. } = &stage.kind {
                mask |= pattern.class_mask();
            }
            for u in &stage.unless {
                mask |= u.pattern.class_mask();
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::Atom;
    use crate::pattern::ActionPattern;
    use crate::var::var;
    use swmon_packet::Field;

    fn fw_property() -> Property {
        Property {
            name: "fw".into(),
            statement: "return traffic is not dropped".into(),
            stages: vec![
                Stage::match_(
                    "outbound",
                    EventPattern::Arrival,
                    Guard::new(vec![
                        Atom::Bind(var("A"), Field::Ipv4Src),
                        Atom::Bind(var("B"), Field::Ipv4Dst),
                    ]),
                ),
                Stage::match_(
                    "return-dropped",
                    EventPattern::Departure(ActionPattern::Drop),
                    Guard::new(vec![
                        Atom::Bind(var("B"), Field::Ipv4Src),
                        Atom::Bind(var("A"), Field::Ipv4Dst),
                    ]),
                ),
            ],
        }
    }

    #[test]
    fn valid_property_passes() {
        assert_eq!(fw_property().validate(), Ok(()));
        assert_eq!(fw_property().num_stages(), 2);
    }

    #[test]
    fn empty_property_rejected() {
        let p = Property { name: "x".into(), statement: String::new(), stages: vec![] };
        assert_eq!(p.validate(), Err(PropertyError::NoStages));
    }

    #[test]
    fn deadline_first_stage_rejected() {
        let p = Property {
            name: "x".into(),
            statement: String::new(),
            stages: vec![Stage::deadline("d", Duration::from_secs(1), RefreshPolicy::NoRefresh)],
        };
        assert_eq!(p.validate(), Err(PropertyError::FirstStageNotMatch));
    }

    #[test]
    fn first_stage_window_rejected() {
        let mut p = fw_property();
        p.stages[0].within = Some(WindowSpec::Fixed(Duration::from_secs(1)));
        assert_eq!(p.validate(), Err(PropertyError::FirstStageHasWindow));
    }

    #[test]
    fn identity_must_refer_backwards() {
        let mut p = fw_property();
        p.stages[1].kind = StageKind::Match {
            pattern: EventPattern::Departure(ActionPattern::Drop),
            guard: Guard::new(vec![Atom::SamePacket(1)]),
        };
        assert_eq!(p.validate(), Err(PropertyError::BadIdentityRef { stage: 1, refers_to: 1 }));
        p.stages[1].kind = StageKind::Match {
            pattern: EventPattern::Departure(ActionPattern::Drop),
            guard: Guard::new(vec![Atom::SamePacket(0)]),
        };
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn deadline_with_window_rejected() {
        let mut p = fw_property();
        let mut d = Stage::deadline("d", Duration::from_secs(1), RefreshPolicy::NoRefresh);
        d.within = Some(WindowSpec::Fixed(Duration::from_secs(2)));
        p.stages.push(d);
        assert_eq!(p.validate(), Err(PropertyError::DeadlineWithWindow(2)));
    }

    #[test]
    fn errors_display() {
        assert!(PropertyError::NoStages.to_string().contains("no stages"));
        assert!(PropertyError::BadIdentityRef { stage: 2, refers_to: 3 }
            .to_string()
            .contains("stage 2"));
        assert!(PropertyError::TooManyVariables { count: 9, max: 8 }.to_string().contains("9"));
    }

    #[test]
    fn too_many_variables_rejected() {
        let atoms: Vec<Atom> = (0..=crate::var::MAX_VARS)
            .map(|i| Atom::Bind(var(&format!("X{i}")), Field::Ipv4Src))
            .collect();
        let p = Property {
            name: "wide".into(),
            statement: String::new(),
            stages: vec![Stage::match_("s", EventPattern::Arrival, Guard::new(atoms))],
        };
        assert_eq!(
            p.validate(),
            Err(PropertyError::TooManyVariables {
                count: crate::var::MAX_VARS + 1,
                max: crate::var::MAX_VARS
            })
        );
    }

    #[test]
    fn var_table_is_stable_across_clone_and_dsl_round_trip() {
        // VarId assignment depends only on the property's variable names,
        // so it must survive cloning and serializing through the DSL.
        let p = fw_property();
        let t = p.var_table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.id(&var("A")), Some(crate::var::VarId(0)));
        assert_eq!(t.id(&var("B")), Some(crate::var::VarId(1)));
        assert_eq!(p.clone().var_table(), t, "clone preserves ids");
        let round = crate::dsl::parse_property(&crate::dsl::to_dsl(&p)).expect("round-trips");
        assert_eq!(round.var_table(), t, "DSL round-trip preserves ids");
        for v in t.iter() {
            assert_eq!(round.var_table().id(&v), t.id(&v));
        }
    }

    #[test]
    fn event_class_mask_covers_stage_and_unless_patterns() {
        let mut p = fw_property();
        // Arrival spawn + Drop departure stage.
        assert_eq!(p.event_class_mask(), (1 << 0) | (1 << 1));
        p.stages[1].unless = vec![Unless {
            pattern: EventPattern::Departure(ActionPattern::Forwarded),
            guard: Guard::any(),
        }];
        assert_eq!(p.event_class_mask(), (1 << 0) | (1 << 1) | (1 << 2) | (1 << 3));
    }
}
