//! Deterministic violation merge.
//!
//! Workers report violations tagged with the input sequence number of the
//! triggering event, but attribution of *timer* firings to sequence numbers
//! depends on which events a shard happened to see — it is not stable
//! across shard counts. The merge therefore orders records by a canonical
//! key derived only from shard-count-independent data:
//!
//! `(time, property position, timer-before-event rank, stage, bindings)`
//!
//! Timer (deadline) firings sort before event-triggered violations at the
//! same instant because the engine's `process` advances timers *before*
//! applying the event. Sorting the single-threaded reference output by the
//! same key yields a byte-for-byte identical sequence — the property the
//! differential tests enforce.

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

/// The canonical merge key of a record. `swmon-store` orders its rows by
/// the same five components, borrowed (its `Row::order`), so any *subset*
/// of records it returns is ordered exactly as a full [`merge`] orders it.
pub(crate) fn key(r: &ViolationRecord) -> (u64, usize, u8, String, String) {
    (
        r.violation.time.as_nanos(),
        r.property,
        r.rank,
        r.violation.trigger_stage.clone(),
        match &r.violation.bindings {
            Some(b) => b.to_string(),
            None => String::new(),
        },
    )
}

/// Sort records into the canonical order and stamp each violation with its
/// stable merge-time sequence id ([`Violation::merge_seq`]): the position
/// in this order. Deterministic for any interleaving of the same record
/// multiset — i.e. for any shard count — so the ids are stable too.
pub fn merge(mut records: Vec<ViolationRecord>) -> Vec<ViolationRecord> {
    records.sort_by_cached_key(key);
    for (i, r) in records.iter_mut().enumerate() {
        r.violation.merge_seq = Some(i as u64);
    }
    records
}

/// A stable, comparison-friendly rendering of a record (excluding `seq`,
/// which is not shard-count-invariant). Two runs produced the same
/// violations iff their signature vectors are equal.
pub fn signature(r: &ViolationRecord) -> String {
    let (t, p, rank, stage, bindings) = key(r);
    format!(
        "t={t}ns p{p} r{rank} {}/{stage} {bindings} hist={}",
        r.violation.property,
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
    let (t, _, rank, stage, bindings) = key(r);
    format!(
        "t={t}ns r{rank} {}/{stage} {bindings} hist={}",
        r.violation.property,
        r.violation.history.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_core::{var, Atom, Bindings, EventPattern, Guard, Property, RefreshPolicy, Stage};
    use swmon_packet::{Field, FieldValue};
    use swmon_sim::time::{Duration, Instant};

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
