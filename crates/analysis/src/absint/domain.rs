//! The value lattice: constant propagation refined by unsigned intervals.
//!
//! One [`AbsValue`] over-approximates the set of concrete
//! [`FieldValue`]s a field or bound variable may take:
//!
//! ```text
//!                Top
//!            /         \
//!     Range(l,h)     Const(Mac | Ipv4)    (Range only for Uint payloads)
//!         |
//!     Const(Uint)
//!            \         /
//!              Bottom
//! ```
//!
//! The only lattice operation is [`AbsValue::meet`]: a property is a chain
//! of stages, so knowledge only ever *accumulates* along it (a guard
//! intersects what it demands with what is already known) and no two paths
//! ever merge — there is nothing to join.

use swmon_packet::FieldValue;

/// An over-approximation of the values one slot can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsValue {
    /// No value: unreachable code, or a contradiction.
    Bottom,
    /// Exactly this value (constant propagation).
    Const(FieldValue),
    /// Any unsigned payload in `lo..=hi`. Only [`FieldValue::Uint`] values
    /// are abstracted by ranges; MAC/IPv4 constants stay `Const`.
    Range(u64, u64),
    /// Anything.
    Top,
}

impl AbsValue {
    /// The greatest lower bound — used by guard transfer to intersect a
    /// constraint with what is already known. `Bottom` means the
    /// constraint is unsatisfiable.
    pub fn meet(self, other: AbsValue) -> AbsValue {
        use AbsValue::*;
        match (self, other) {
            (Bottom, _) | (_, Bottom) => Bottom,
            (Top, x) | (x, Top) => x,
            (Const(a), Const(b)) => {
                if a == b {
                    Const(a)
                } else {
                    Bottom
                }
            }
            (Range(l1, h1), Range(l2, h2)) => {
                let (l, h) = (l1.max(l2), h1.min(h2));
                if l > h {
                    Bottom
                } else if l == h {
                    Const(FieldValue::Uint(l))
                } else {
                    Range(l, h)
                }
            }
            (Range(l, h), Const(FieldValue::Uint(c)))
            | (Const(FieldValue::Uint(c)), Range(l, h)) => {
                if (l..=h).contains(&c) {
                    Const(FieldValue::Uint(c))
                } else {
                    Bottom
                }
            }
            // A non-Uint constant can never lie in a Uint range.
            (Range(..), Const(_)) | (Const(_), Range(..)) => Bottom,
        }
    }

    /// True when the abstraction admits no concrete value.
    pub fn is_bottom(&self) -> bool {
        matches!(self, AbsValue::Bottom)
    }

    /// True when `v` is among the values this abstraction admits.
    pub fn admits(&self, v: &FieldValue) -> bool {
        match self {
            AbsValue::Bottom => false,
            AbsValue::Top => true,
            AbsValue::Const(c) => c == v,
            AbsValue::Range(l, h) => matches!(v, FieldValue::Uint(n) if (*l..=*h).contains(n)),
        }
    }

    /// Number of concrete values admitted, if finite and representable.
    pub fn cardinality(&self) -> Option<u64> {
        match self {
            AbsValue::Bottom => Some(0),
            AbsValue::Const(_) => Some(1),
            AbsValue::Range(l, h) => h.checked_sub(*l).and_then(|d| d.checked_add(1)),
            AbsValue::Top => None,
        }
    }

    /// Compact rendering for diagnostics (`⊥`, `= 80`, `∈ [80, 443]`, `⊤`).
    pub fn describe(&self) -> String {
        match self {
            AbsValue::Bottom => "⊥".into(),
            AbsValue::Top => "⊤".into(),
            AbsValue::Const(FieldValue::Uint(n)) => format!("= {n}"),
            AbsValue::Const(FieldValue::Ipv4(a)) => format!("= {a}"),
            AbsValue::Const(FieldValue::Mac(m)) => format!("= {m}"),
            AbsValue::Range(l, h) => format!("∈ [{l}, {h}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_packet::{Ipv4Address, MacAddr};

    fn u(n: u64) -> AbsValue {
        AbsValue::Const(FieldValue::Uint(n))
    }

    #[test]
    fn meet_is_commutative_idempotent_and_absorbs_top() {
        let samples = [
            AbsValue::Bottom,
            u(80),
            u(443),
            AbsValue::Const(FieldValue::Ipv4(Ipv4Address::new(10, 0, 0, 1))),
            AbsValue::Const(FieldValue::Mac(MacAddr::new(2, 0, 0, 0, 0, 1))),
            AbsValue::Range(10, 20),
            AbsValue::Top,
        ];
        for a in samples {
            assert_eq!(a.meet(AbsValue::Top), a);
            assert_eq!(a.meet(AbsValue::Bottom), AbsValue::Bottom);
            assert_eq!(a.meet(a), a, "idempotent");
            for b in samples {
                assert_eq!(a.meet(b), b.meet(a), "commutative");
                // A meet admits only what both operands admit — spot-check
                // with 80.
                let v = FieldValue::Uint(80);
                assert_eq!(a.meet(b).admits(&v), a.admits(&v) && b.admits(&v));
            }
        }
    }

    #[test]
    fn uint_constants_and_ranges_meet_to_their_intersection() {
        assert_eq!(u(80).meet(u(443)), AbsValue::Bottom);
        assert_eq!(
            AbsValue::Range(10, 100).meet(AbsValue::Range(50, 200)),
            AbsValue::Range(50, 100)
        );
        assert_eq!(AbsValue::Range(10, 20).meet(AbsValue::Range(30, 40)), AbsValue::Bottom);
        assert_eq!(AbsValue::Range(10, 20).meet(u(15)), u(15));
        assert_eq!(AbsValue::Range(10, 20).meet(u(25)), AbsValue::Bottom);
        // Meets that pinch a range to one point re-constantify.
        assert_eq!(AbsValue::Range(10, 20).meet(AbsValue::Range(20, 30)), u(20));
    }

    #[test]
    fn cross_kind_values_meet_to_bottom() {
        let ip = AbsValue::Const(FieldValue::Ipv4(Ipv4Address::new(10, 0, 0, 1)));
        assert_eq!(ip.meet(u(80)), AbsValue::Bottom);
        assert_eq!(ip.meet(AbsValue::Range(0, 9)), AbsValue::Bottom);
    }

    #[test]
    fn cardinality_counts_admitted_values() {
        assert_eq!(AbsValue::Bottom.cardinality(), Some(0));
        assert_eq!(u(80).cardinality(), Some(1));
        assert_eq!(AbsValue::Range(10, 12).cardinality(), Some(3));
        assert_eq!(AbsValue::Range(0, u64::MAX).cardinality(), None, "would overflow");
        assert_eq!(AbsValue::Top.cardinality(), None);
    }

    #[test]
    fn describe_is_total() {
        for v in [AbsValue::Bottom, AbsValue::Top, u(8), AbsValue::Range(1, 2)] {
            assert!(!v.describe().is_empty());
        }
    }
}
