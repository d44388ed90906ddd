//! Deterministic violation merge.
//!
//! The shard tags a violation with the input sequence number of its
//! triggering event, but a *timer* firing gets whichever event advanced
//! its monitor's clock — none in the single-threaded reference. The merge
//! therefore orders records by a canonical key derived only from data
//! every run over the same input agrees on:
//!
//! `(time, property position, timer-before-event rank, stage, bindings)`
//!
//! The bindings compare as `Display` renders them ([`rendered`]). They are
//! the one component that has to be formatted, so the merge sorts on the
//! other four ([`head`]), borrowed, and renders only records that tie on
//! those.
//!
//! Timer (deadline) firings sort before event-triggered violations at the
//! same instant because the engine's `process` advances timers *before*
//! applying the event. Sorting the single-threaded reference output by the
//! same key yields a byte-for-byte identical sequence — the property the
//! differential tests enforce.

use std::cmp::Ordering;

use swmon_core::{Property, StageKind, Violation};

/// A violation plus the metadata needed to order it canonically.
#[derive(Debug, Clone)]
pub struct ViolationRecord {
    /// Position of the triggering event in the fed trace. Deadline firings
    /// discovered while draining timers at finish carry `u64::MAX`.
    /// Observability metadata only — deliberately *not* part of the merge
    /// key (see module docs).
    pub seq: u64,
    /// Position of the property in the runtime's property list.
    pub property: usize,
    /// 0 for deadline (timer) firings, 1 for event-triggered violations.
    pub rank: u8,
    /// Deploy provenance: the catalog epoch
    /// ([`swmon_core::CatalogEpoch`]) in effect when the violation was
    /// raised. `0` for a session that never deployed (and for the
    /// single-threaded reference). Like `seq`, observability metadata —
    /// not part of the merge key or [`signature`], so differential
    /// comparisons across deploy histories still work.
    pub epoch: u64,
    /// The violation itself.
    pub violation: Violation,
}

impl ViolationRecord {
    /// The one place a [`Violation`] becomes a record: `violation` was
    /// raised by `property`, which sits at `index` in the catalog, on the
    /// event at `seq` under catalog `epoch`. The rank is derived here
    /// ([`kind_rank`]), so every producer orders timers before events the
    /// same way.
    pub fn new(
        property: &Property,
        index: usize,
        seq: u64,
        epoch: u64,
        violation: Violation,
    ) -> Self {
        let rank = kind_rank(property, &violation.trigger_stage);
        ViolationRecord { seq, property: index, rank, epoch, violation }
    }
}

/// 0 if `trigger_stage` names a deadline stage of `property`, else 1.
pub fn kind_rank(property: &Property, trigger_stage: &str) -> u8 {
    for stage in &property.stages {
        if stage.name == trigger_stage {
            return match stage.kind {
                StageKind::Deadline { .. } => 0,
                StageKind::Match { .. } => 1,
            };
        }
    }
    1
}

/// The components of a record's canonical position that need no
/// formatting, borrowed: time, property position, timer-before-event rank,
/// stage.
pub fn head(r: &ViolationRecord) -> (u64, usize, u8, &str) {
    (r.violation.time.as_nanos(), r.property, r.rank, &r.violation.trigger_stage)
}

/// The last component of a record's canonical position: its bindings as
/// `Display` renders them (empty when it has none). Text order is not value
/// order (`10.0.0.10` sorts before `10.0.0.9`), so nothing cheaper stands
/// in for it; it is formatted only to break a tie on the [`head`].
pub fn rendered(r: &ViolationRecord) -> String {
    r.violation.bindings.as_ref().map_or_else(String::new, |b| b.to_string())
}

/// The canonical order of two records: by [`head`], then by [`rendered`]
/// bindings, which are formatted only when the heads tie. `swmon-store`
/// orders its rows by the same two parts (keeping a row's rendering once a
/// tie has needed it), so any *subset* of records it returns is ordered
/// exactly as a full [`merge`] orders it.
pub fn canonical_cmp(a: &ViolationRecord, b: &ViolationRecord) -> Ordering {
    head(a).cmp(&head(b)).then_with(|| rendered(a).cmp(&rendered(b)))
}

/// Stable-sort records, each with its position, into the canonical order
/// ([`canonical_cmp`]): by head, then each run of records that tie on it by
/// their rendered bindings, each rendered once. A record that ties with no
/// other is never formatted.
fn sort_canonical(order: &mut [(u32, &ViolationRecord)]) {
    order.sort_by(|(_, a), (_, b)| head(a).cmp(&head(b)));
    let mut start = 0;
    while start < order.len() {
        let first = head(order[start].1);
        let run = order[start..].iter().take_while(|(_, r)| head(r) == first).count();
        if run > 1 {
            order[start..start + run].sort_by_cached_key(|(_, r)| rendered(r));
        }
        start += run;
    }
}

/// Sort records into the canonical order and stamp each violation with its
/// stable merge-time sequence id ([`Violation::merge_seq`]): the position
/// in this order. Deterministic for any order of the same record
/// multiset, so the ids are stable too.
pub fn merge(mut records: Vec<ViolationRecord>) -> Vec<ViolationRecord> {
    // References are sorted, not records: a record is a few hundred
    // bytes, and this way each moves once.
    let mut order: Vec<(u32, &ViolationRecord)> = (0..).zip(&records).collect();
    sort_canonical(&mut order);
    let mut from: Vec<u32> = order.into_iter().map(|(i, _)| i).collect();
    // Position `k` takes the record at `from[k]`; one that an earlier swap
    // moved is found by following `from` (as `sort_by_cached_key` does).
    for k in 0..from.len() {
        let mut i = from[k];
        while (i as usize) < k {
            i = from[i as usize];
        }
        from[k] = i;
        if i as usize != k {
            records.swap(k, i as usize);
        }
    }
    for (i, r) in records.iter_mut().enumerate() {
        r.violation.merge_seq = Some(i as u64);
    }
    records
}

/// A stable, comparison-friendly rendering of a record (excluding `seq`,
/// which is not shard-count-invariant). Two runs produced the same
/// violations iff their signature vectors are equal.
pub fn signature(r: &ViolationRecord) -> String {
    let (t, p, rank, stage) = head(r);
    format!(
        "t={t}ns p{p} r{rank} {}/{stage} {} hist={}",
        r.violation.property,
        rendered(r),
        r.violation.history.len()
    )
}

/// Like [`signature`], but keyed by property *name* instead of catalog
/// position — the cross-epoch comparison form. A deploy that removes a
/// property shifts the index of everything behind it, so differential
/// comparisons across deploy histories (`tests/deploy_differential.rs`,
/// `repro e17`) compare *sorted* vectors of these: names are unique per
/// catalog, so equal sorted vectors still mean equal violation multisets.
pub fn name_signature(r: &ViolationRecord) -> String {
    let (t, _, rank, stage) = head(r);
    format!(
        "t={t}ns r{rank} {}/{stage} {} hist={}",
        r.violation.property,
        rendered(r),
        r.violation.history.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use swmon_core::{var, Atom, Bindings, EventPattern, Guard, Property, RefreshPolicy, Stage};
    use swmon_packet::{Field, FieldValue, Ipv4Address};
    use swmon_sim::time::{Duration, Instant};

    /// The canonical key by its definition: every component owned, the
    /// bindings always rendered.
    fn key(r: &ViolationRecord) -> (u64, usize, u8, String, String) {
        let (time, property, rank, stage) = head(r);
        (time, property, rank, stage.to_string(), rendered(r))
    }

    /// The oracle [`merge`] must agree with: a stable sort on [`key`].
    fn oracle(mut records: Vec<ViolationRecord>) -> Vec<ViolationRecord> {
        records.sort_by_cached_key(key);
        records
    }

    /// A record whose heads collide often and whose bindings render in an
    /// order other than their values': addresses `10.0.0.9` and
    /// `10.0.0.10`, ports 9, 10 and 100. `seq` tells equal keys apart.
    fn drawn(
        seq: u64,
        head: (u64, usize, u8, bool),
        bound: Option<(u8, u8, bool)>,
    ) -> ViolationRecord {
        let (t, property, rank, late) = head;
        let bindings = bound.map(|(host, port, with_port)| {
            let host = FieldValue::Ipv4(Ipv4Address::new(10, 0, 0, [1, 9, 10, 100][host as usize]));
            let b = Bindings::new().bind(var("A"), host);
            if with_port {
                b.bind(var("P"), FieldValue::Uint([9, 10, 100][port as usize]))
            } else {
                b
            }
        });
        ViolationRecord {
            seq,
            property,
            rank,
            epoch: 0,
            violation: Violation {
                property: format!("p{property}"),
                time: Instant::from_nanos(t),
                trigger_stage: if late { "t".into() } else { "s".into() },
                bindings,
                history: vec![],
                degraded: false,
                merge_seq: None,
            },
        }
    }

    fn identity(records: &[ViolationRecord]) -> Vec<(u64, String)> {
        records.iter().map(|r| (r.seq, signature(r))).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn merge_orders_as_the_rendered_key_oracle(
            drawn_records in proptest::collection::vec(
                (
                    (0u64..3, 0usize..2, 0u8..2, any::<bool>()),
                    proptest::option::of((0u8..4, 0u8..3, any::<bool>())),
                ),
                0..48,
            )
        ) {
            let records: Vec<ViolationRecord> = drawn_records
                .iter()
                .enumerate()
                .map(|(i, &(head, bound))| drawn(i as u64, head, bound))
                .collect();
            let merged = merge(records.clone());
            prop_assert_eq!(identity(&merged), identity(&oracle(records.clone())));
            for (i, r) in merged.iter().enumerate() {
                prop_assert_eq!(r.violation.merge_seq, Some(i as u64));
            }
            // The comparator alone, as a query sorts its answer.
            let mut sorted = records;
            sorted.sort_by(canonical_cmp);
            prop_assert_eq!(identity(&sorted), identity(&merged));
        }
    }

    #[test]
    fn ties_order_by_rendered_bindings_not_values() {
        let at = |host, port| drawn(0, (5, 0, 1, false), Some((host, port, true)));
        // 10.0.0.10 renders before 10.0.0.9; port 10 before port 9.
        let merged = merge(vec![at(1, 0), at(2, 0), at(1, 1)]);
        let hosts: Vec<String> = merged.iter().map(rendered).collect();
        assert_eq!(hosts, ["{?A=10.0.0.10, ?P=9}", "{?A=10.0.0.9, ?P=10}", "{?A=10.0.0.9, ?P=9}"]);
    }

    fn mk(t: u64, property: usize, rank: u8, port: u16) -> ViolationRecord {
        let mut b = Bindings::default();
        b = b.bind(var("P"), FieldValue::Uint(port as u64));
        ViolationRecord {
            seq: 0,
            property,
            rank,
            epoch: 0,
            violation: Violation {
                property: format!("p{property}"),
                time: Instant::from_nanos(t),
                trigger_stage: "s".into(),
                bindings: Some(b),
                history: vec![],
                degraded: false,
                merge_seq: None,
            },
        }
    }

    #[test]
    fn canonical_order_is_time_property_rank_bindings() {
        let recs =
            vec![mk(5, 1, 1, 9), mk(5, 0, 1, 9), mk(5, 0, 0, 9), mk(3, 2, 1, 9), mk(5, 0, 1, 4)];
        let merged = merge(recs);
        let sigs: Vec<String> = merged.iter().map(signature).collect();
        // t=3 first; then at t=5: property 0 timer, property 0 events by
        // bindings, property 1 last.
        assert_eq!(merged[0].violation.time.as_nanos(), 3);
        assert_eq!((merged[1].property, merged[1].rank), (0, 0));
        assert!(sigs[2] < sigs[3], "events ordered by bindings string");
        assert_eq!(merged[4].property, 1);
    }

    #[test]
    fn merge_is_permutation_invariant() {
        let a = vec![mk(1, 0, 1, 1), mk(2, 1, 0, 2), mk(2, 0, 1, 3)];
        let mut b = a.clone();
        b.reverse();
        let sa: Vec<String> = merge(a).iter().map(signature).collect();
        let sb: Vec<String> = merge(b).iter().map(signature).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn name_signature_is_index_blind() {
        let a = mk(5, 0, 1, 9);
        let mut b = mk(5, 3, 1, 9);
        b.violation.property = "p0".into();
        assert_ne!(signature(&a), signature(&b), "positional signatures differ");
        assert_eq!(name_signature(&a), name_signature(&b), "name signatures agree");
    }

    #[test]
    fn kind_rank_distinguishes_deadlines() {
        let p = Property {
            name: "r".into(),
            statement: String::new(),
            stages: vec![
                Stage::match_(
                    "evt",
                    EventPattern::Arrival,
                    Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
                ),
                Stage::deadline("due", Duration::from_nanos(10), RefreshPolicy::NoRefresh),
            ],
        };
        assert_eq!(kind_rank(&p, "due"), 0);
        assert_eq!(kind_rank(&p, "evt"), 1);
        assert_eq!(kind_rank(&p, "unknown"), 1);
    }
}
