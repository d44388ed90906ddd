//! Index selection: pick the most selective access path per branch.
//!
//! SWQL branches are conjunctions, so any one atom can drive the scan and
//! the rest become per-row predicates. The planner costs each atom by the
//! exact number of candidate rows its index would yield across the
//! store's segments (posting-list lengths — the indexes are exact, so
//! these are true cardinalities, not estimates in the statistics sense)
//! and drives from the cheapest. `prop(*)` indexes nothing and costs the
//! full store; `window` costs the rows of time-overlapping segments. The
//! store's open tail has no index, so every driver walks all of it and
//! every atom's cost includes its rows — the counts stay exact.
//! Ties keep the earliest atom, so plans are deterministic.

use std::fmt;

use swmon_core::Var;

use crate::segment::{Check, Segment};
use crate::swql::{Atom, Query};

/// The access path chosen to enumerate a branch's candidate rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Driver {
    /// Walk every row (a branch of only `prop(*)` atoms).
    FullScan,
    /// The property posting list.
    Prop(String),
    /// The interned binding-value posting list.
    Bind(String, swmon_packet::FieldValue),
    /// Rows of segments overlapping the inclusive time range.
    Window(u64, u64),
    /// The degraded-provenance list.
    Degraded,
    /// The per-shard posting list.
    Shard(u32),
    /// The per-epoch posting list (deploy provenance).
    Epoch(u64),
}

impl fmt::Display for Driver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Driver::FullScan => write!(f, "full scan"),
            Driver::Prop(p) => write!(f, "prop({p})"),
            Driver::Bind(v, val) => write!(f, "bind({v}, {val})"),
            Driver::Window(a, b) => write!(f, "window({a}, {b})"),
            Driver::Degraded => write!(f, "degraded()"),
            Driver::Shard(s) => write!(f, "shard({s})"),
            Driver::Epoch(e) => write!(f, "epoch({e})"),
        }
    }
}

/// The plan for one conjunctive branch.
#[derive(Debug, Clone)]
pub struct BranchPlan {
    /// The chosen access path.
    pub driver: Driver,
    /// Exact candidate-row count the driver will enumerate.
    pub candidates: u64,
    /// Every atom of the branch, applied as a predicate to each candidate
    /// (the driver's atom included — window drivers overshoot segment
    /// granularity, and rechecking the rest is cheap and uniform).
    pub predicates: Vec<Atom>,
}

/// The full query plan, one entry per branch.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Per-branch plans, in query order.
    pub branches: Vec<BranchPlan>,
}

impl Plan {
    /// A one-line-per-branch human-readable explanation.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for (i, b) in self.branches.iter().enumerate() {
            out.push_str(&format!(
                "branch {i}: drive {} ({} candidate row{}), {} predicate{}\n",
                b.driver,
                b.candidates,
                if b.candidates == 1 { "" } else { "s" },
                b.predicates.len(),
                if b.predicates.len() == 1 { "" } else { "s" },
            ));
        }
        out
    }
}

/// The rows of `seg` that `driver` enumerates: its postings there, or
/// `None` for every row. `var` is a `bind` driver's variable, if anything
/// has interned it. The planner counts what the executor walks.
pub(crate) fn candidates<'s>(
    seg: &'s Segment,
    driver: &Driver,
    var: Option<Var>,
) -> Option<&'s [u32]> {
    match driver {
        Driver::FullScan => None,
        Driver::Window(a, b) if seg.overlaps(*a, *b) => None,
        Driver::Window(..) => Some(&[]),
        Driver::Prop(p) => Some(seg.prop_rows(p)),
        Driver::Bind(_, val) => Some(var.map_or(&[][..], |v| seg.bind_rows(v, val))),
        Driver::Degraded => Some(seg.degraded_rows()),
        Driver::Shard(s) => Some(seg.shard_rows(*s)),
        Driver::Epoch(e) => Some(seg.epoch_rows(*e)),
    }
}

/// The access path that drives a branch from `atom`.
fn driver(atom: &Atom) -> Driver {
    match atom.clone() {
        Atom::Prop(None) => Driver::FullScan,
        Atom::Prop(Some(p)) => Driver::Prop(p),
        Atom::Bind(v, val) => Driver::Bind(v, val),
        Atom::Window(a, b) => Driver::Window(a, b),
        Atom::Degraded => Driver::Degraded,
        Atom::Shard(s) => Driver::Shard(s),
        Atom::Epoch(e) => Driver::Epoch(e),
    }
}

/// Exact candidate-row count of driving the branch from `atom`: what its
/// index yields across `segments`, plus the `tail` rows every driver walks.
fn cost(atom: &Atom, segments: &[Segment], tail: u64) -> u64 {
    let (driver, var) = (driver(atom), Check::new(atom).var());
    let rows = |seg: &Segment| candidates(seg, &driver, var).map_or(seg.len(), <[u32]>::len);
    tail + segments.iter().map(|seg| rows(seg) as u64).sum::<u64>()
}

/// Plan `query` against the given segment set and an open tail of `tail`
/// unindexed rows.
pub fn plan(query: &Query, segments: &[Segment], tail: u64) -> Plan {
    let branches = query
        .branches
        .iter()
        .map(|branch| {
            let costed: Vec<(u64, &Atom)> =
                branch.atoms.iter().map(|(a, _)| (cost(a, segments, tail), a)).collect();
            let (candidates, cheapest) =
                costed.iter().min_by_key(|(c, _)| *c).expect("a branch has at least one atom");
            BranchPlan {
                driver: driver(cheapest),
                candidates: *candidates,
                predicates: branch.atoms.iter().map(|(a, _)| a.clone()).collect(),
            }
        })
        .collect();
    Plan { branches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Row;
    use crate::swql::parse;
    use swmon_core::{var, Bindings, Violation};
    use swmon_packet::FieldValue;
    use swmon_runtime::ViolationRecord;
    use swmon_sim::time::Instant;

    fn seg(rows: Vec<(u64, &str, u64, u64, bool)>) -> Segment {
        Segment::build(
            rows.into_iter()
                .map(|(seq, prop, t, port, degraded)| {
                    let record = ViolationRecord {
                        seq,
                        property: 0,
                        rank: 1,
                        epoch: seq % 2,
                        violation: Violation {
                            property: prop.to_string(),
                            time: Instant::from_nanos(t),
                            trigger_stage: "s".into(),
                            bindings: Some(Bindings::new().bind(var("A"), FieldValue::Uint(port))),
                            history: vec![],
                            degraded,
                            merge_seq: Some(seq),
                        },
                    };
                    Row::new(seq, (seq % 2) as u32, record)
                })
                .collect(),
        )
    }

    #[test]
    fn picks_the_most_selective_index() {
        let segs = vec![seg(vec![
            (0, "fw", 10, 80, false),
            (1, "fw", 20, 80, false),
            (2, "fw", 30, 80, true),
            (3, "dhcp", 40, 443, false),
        ])];
        // degraded() has 1 posting, prop(fw) has 3: degraded drives.
        let q = parse("prop(fw), degraded()").unwrap();
        let p = plan(&q, &segs, 0);
        assert_eq!(p.branches[0].driver, Driver::Degraded);
        assert_eq!(p.branches[0].candidates, 1);
        assert_eq!(p.branches[0].predicates.len(), 2);
        // bind(A, 443) has 1 posting, beats prop(fw)'s 3.
        let q = parse("prop(fw), bind(A, 443)").unwrap();
        let p = plan(&q, &segs, 0);
        assert!(matches!(p.branches[0].driver, Driver::Bind(_, _)), "{:?}", p.branches[0]);
        let explain = p.explain();
        assert!(explain.contains("branch 0: drive bind(A, 443)"), "{explain}");
    }

    #[test]
    fn star_alone_is_a_full_scan_and_window_prunes_segments() {
        let segs = vec![
            seg(vec![(0, "fw", 10, 80, false), (1, "fw", 20, 80, false)]),
            seg(vec![(2, "fw", 1_000, 80, false)]),
        ];
        let q = parse("prop(*)").unwrap();
        let p = plan(&q, &segs, 0);
        assert_eq!(p.branches[0].driver, Driver::FullScan);
        assert_eq!(p.branches[0].candidates, 3);
        // The window only overlaps the first segment.
        let q = parse("prop(*), window(0, 100)").unwrap();
        let p = plan(&q, &segs, 0);
        assert_eq!(p.branches[0].driver, Driver::Window(0, 100));
        assert_eq!(p.branches[0].candidates, 2);
    }

    #[test]
    fn each_branch_plans_independently() {
        let segs = vec![seg(vec![(0, "fw", 10, 80, false), (1, "dhcp", 20, 443, true)])];
        let q = parse("prop(fw) or degraded()").unwrap();
        let p = plan(&q, &segs, 0);
        assert_eq!(p.branches.len(), 2);
        assert_eq!(p.branches[0].driver, Driver::Prop("fw".into()));
        assert_eq!(p.branches[1].driver, Driver::Degraded);
    }
}
