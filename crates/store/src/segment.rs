//! Immutable indexed segments — the store's unit of encoding, and of
//! indexing; no longer of ingest.
//!
//! A publish appends to the store's open tail ([`crate::store`]); a full
//! tail is frozen into one [`Segment`]: a row vector plus secondary
//! indexes built once at construction and never mutated. The indexes are
//! *derived* data — the byte encoding frames only the rows
//! (under the `SWVS` magic, via the canonical [`swmon_core::wire`]
//! framing) and rebuilds the indexes on decode, so a segment that
//! round-trips through bytes is structurally identical to one built
//! directly.
//!
//! Binding values are indexed by `(VarId, FieldValue)` against the
//! segment's own [`VarTable`] — the interned representation from
//! `swmon_core`, not a re-stringified form — so a `bind(A, 10.0.0.7)`
//! probe is one binary search of a flat postings index, not a scan of
//! `Display` output.

use std::collections::HashMap;

use swmon_core::wire::{Reader, SnapshotError, Writer};
use swmon_core::{Var, VarId, VarTable};
use swmon_packet::FieldValue;
use swmon_runtime::ViolationRecord;

use crate::swql::Atom;

/// A query atom made ready to test rows: a `bind` atom's variable is
/// looked up once, when the check is made, and never interned. A name
/// nothing has interned is bound by no row, so the atom matches none.
#[derive(Debug, Clone, Copy)]
pub struct Check<'q> {
    atom: &'q Atom,
    var: Option<Var>,
}

impl<'q> Check<'q> {
    /// The check for `atom`.
    pub fn new(atom: &'q Atom) -> Self {
        let var = match atom {
            Atom::Bind(name, _) => Var::lookup(name),
            _ => None,
        };
        Check { atom, var }
    }

    /// The variable a `bind` atom names, when some row may bind it.
    pub fn var(&self) -> Option<Var> {
        self.var
    }
}

/// Magic of the segment byte encoding (`SWMS`-family framing).
pub const SEGMENT_MAGIC: &[u8; 4] = b"SWVS";
/// Current segment format version. Version 2 added per-row deploy
/// provenance (the catalog epoch the violation was raised under).
pub const SEGMENT_VERSION: u16 = 2;

/// Shard provenance marker for rows whose originating shard is unknown
/// (e.g. a sealed store rebuilt from merged records that were never
/// published live).
pub const NO_SHARD: u32 = u32::MAX;

/// One stored violation: the store's primary key, its provenance, and the
/// record itself. Built by [`Row::new`], which renders the one expensive
/// component of the row's canonical position once.
#[derive(Debug, Clone)]
pub struct Row {
    /// The store's primary key. Before seal: ingest order (prefix of the
    /// live publication stream). After seal: the violation's canonical
    /// [`swmon_core::Violation::merge_seq`].
    pub store_seq: u64,
    /// The shard that discovered the violation ([`NO_SHARD`] if unknown).
    pub shard: u32,
    /// The violation plus its canonical-merge metadata.
    pub record: ViolationRecord,
    /// The bindings as the canonical merge renders them — the last
    /// component of its key, and the only one that has to be formatted.
    pub(crate) key: Box<str>,
}

impl Row {
    /// A row for `record`, found by `shard`, under primary key `store_seq`.
    pub fn new(store_seq: u64, shard: u32, record: ViolationRecord) -> Self {
        let key = record.violation.bindings.as_ref().map(|b| b.to_string()).unwrap_or_default();
        Row { store_seq, shard, record, key: key.into() }
    }

    /// The row's position in the canonical merge order — the components of
    /// [`swmon_runtime::merge`]'s key, borrowed — made total by the primary
    /// key. Sorting rows by it orders them as the merge orders their
    /// records, without formatting or cloning anything.
    pub(crate) fn order(&self) -> (u64, usize, u8, &str, &str, u64) {
        let (time, property, rank, stage) = head(&self.record);
        (time, property, rank, stage, &self.key, self.store_seq)
    }
}

/// The components of a record's canonical merge key that need no
/// formatting: time, property position, timer-before-event rank, stage.
pub(crate) fn head(r: &ViolationRecord) -> (u64, usize, u8, &str) {
    (r.violation.time.as_nanos(), r.property, r.rank, &r.violation.trigger_stage)
}

/// An immutable batch of rows with secondary indexes.
#[derive(Debug)]
pub struct Segment {
    rows: Vec<Row>,
    /// Inclusive violation-time range; `(u64::MAX, 0)` when empty.
    min_time: u64,
    max_time: u64,
    /// Binder variables appearing in this segment's rows, interned.
    vars: VarTable,
    /// Property name → row positions, sorted by name.
    props: Vec<(String, Vec<u32>)>,
    /// Interned binding value → postings range, sorted by key. Kept flat
    /// (one key vector + one postings vector) rather than as a map of
    /// per-key `Vec`s: a high-cardinality segment would otherwise retain
    /// thousands of small allocations, which degrades every later
    /// `Segment::build` in a long-lived store (allocator pressure grows
    /// with the number of live blocks, not bytes).
    bind_keys: Vec<((VarId, FieldValue), u32, u32)>,
    bind_postings: Vec<u32>,
    /// Shard → row positions, sorted by shard.
    shards: Vec<(u32, Vec<u32>)>,
    /// Catalog epoch → row positions, sorted by epoch (deploy provenance).
    epochs: Vec<(u64, Vec<u32>)>,
    /// Rows with degraded provenance.
    degraded: Vec<u32>,
}

impl Segment {
    /// Build a segment (and all its indexes) from `rows`.
    pub fn build(rows: Vec<Row>) -> Self {
        let mut min_time = u64::MAX;
        let mut max_time = 0u64;
        let vars = VarTable::from_vars(
            rows.iter()
                .filter_map(|r| r.record.violation.bindings.as_ref())
                .flat_map(|b| b.iter().map(|(v, _)| *v)),
        );
        let mut props: HashMap<&str, Vec<u32>> = HashMap::new();
        let mut pairs: Vec<((VarId, FieldValue), u32)> = Vec::new();
        let mut shards: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut epochs: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut degraded = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let i = i as u32;
            let v = &row.record.violation;
            let t = v.time.as_nanos();
            min_time = min_time.min(t);
            max_time = max_time.max(t);
            props.entry(v.property.as_str()).or_default().push(i);
            if let Some(b) = &v.bindings {
                for (bv, val) in b.iter() {
                    let id = vars.id(bv).expect("segment VarTable covers its own rows");
                    pairs.push(((id, *val), i));
                }
            }
            shards.entry(row.shard).or_default().push(i);
            epochs.entry(row.record.epoch).or_default().push(i);
            if v.degraded {
                degraded.push(i);
            }
        }
        // Row positions are pushed in increasing order, so the full
        // (key, position) sort leaves each key's postings run sorted.
        pairs.sort_unstable();
        let mut bind_keys: Vec<((VarId, FieldValue), u32, u32)> = Vec::new();
        let bind_postings: Vec<u32> = pairs.iter().map(|&(_, i)| i).collect();
        for (at, &(key, _)) in pairs.iter().enumerate() {
            match bind_keys.last_mut() {
                Some((k, _, end)) if *k == key => *end += 1,
                _ => bind_keys.push((key, at as u32, at as u32 + 1)),
            }
        }
        let mut props: Vec<(String, Vec<u32>)> =
            props.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        props.sort_by(|a, b| a.0.cmp(&b.0));
        let mut shards: Vec<(u32, Vec<u32>)> = shards.into_iter().collect();
        shards.sort_by_key(|(s, _)| *s);
        let mut epochs: Vec<(u64, Vec<u32>)> = epochs.into_iter().collect();
        epochs.sort_by_key(|(e, _)| *e);
        Segment {
            rows,
            min_time,
            max_time,
            vars,
            props,
            bind_keys,
            bind_postings,
            shards,
            epochs,
            degraded,
        }
    }

    /// The rows, in store-sequence order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The rows, for the seal to take their rendered bindings out of just
    /// before it drops the segment (nothing indexed may change).
    pub(crate) fn rows_mut(&mut self) -> &mut [Row] {
        &mut self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Smallest violation time (nanoseconds) in the segment.
    pub fn min_time(&self) -> u64 {
        self.min_time
    }

    /// Largest violation time (nanoseconds) in the segment.
    pub fn max_time(&self) -> u64 {
        self.max_time
    }

    /// True when some row's time may fall within the inclusive `[a, b]`
    /// window (range check on the segment's bounds; rows still need the
    /// exact predicate).
    pub fn overlaps(&self, a: u64, b: u64) -> bool {
        !self.rows.is_empty() && self.min_time <= b && a <= self.max_time
    }

    /// Row positions of violations of property `name`.
    pub fn prop_rows(&self, name: &str) -> &[u32] {
        match self.props.binary_search_by(|(p, _)| p.as_str().cmp(name)) {
            Ok(i) => &self.props[i].1,
            Err(_) => &[],
        }
    }

    /// Row positions whose bindings map variable `v` to `value`
    /// (interned-index probe: binary search of the flat key vector).
    pub fn bind_rows(&self, v: Var, value: &FieldValue) -> &[u32] {
        let Some(id) = self.vars.id(&v) else { return &[] };
        match self.bind_keys.binary_search_by_key(&(id, *value), |&(k, _, _)| k) {
            Ok(i) => {
                let (_, start, end) = self.bind_keys[i];
                &self.bind_postings[start as usize..end as usize]
            }
            Err(_) => &[],
        }
    }

    /// Row positions discovered by shard `s`.
    pub fn shard_rows(&self, s: u32) -> &[u32] {
        match self.shards.binary_search_by_key(&s, |(k, _)| *k) {
            Ok(i) => &self.shards[i].1,
            Err(_) => &[],
        }
    }

    /// Row positions raised under catalog epoch `e` (deploy provenance).
    pub fn epoch_rows(&self, e: u64) -> &[u32] {
        match self.epochs.binary_search_by_key(&e, |(k, _)| *k) {
            Ok(i) => &self.epochs[i].1,
            Err(_) => &[],
        }
    }

    /// Row positions with degraded provenance.
    pub fn degraded_rows(&self) -> &[u32] {
        &self.degraded
    }

    /// True when `row` satisfies `check`'s atom (the exact per-row
    /// predicate the executor applies after index-driven candidate
    /// selection).
    pub fn row_matches(row: &Row, check: &Check<'_>) -> bool {
        let v = &row.record.violation;
        match check.atom {
            Atom::Prop(None) => true,
            Atom::Prop(Some(name)) => v.property == *name,
            Atom::Bind(_, value) => {
                let bound = v.bindings.as_ref().zip(check.var);
                bound.is_some_and(|(b, var)| b.get(&var) == Some(value))
            }
            Atom::Window(a, b) => {
                let t = v.time.as_nanos();
                *a <= t && t <= *b
            }
            Atom::Degraded => v.degraded,
            Atom::Shard(s) => row.shard == *s,
            Atom::Epoch(e) => row.record.epoch == *e,
        }
    }

    /// Encode the segment's rows under the `SWVS` magic. Indexes are not
    /// framed — [`Segment::from_bytes`] rebuilds them.
    pub fn to_bytes(&self) -> Vec<u8> {
        Self::encode(&self.rows)
    }

    /// The `SWVS` framing of `rows`: what a segment built from them would
    /// encode to (the store frames its open tail this way, unindexed).
    pub(crate) fn encode(rows: &[Row]) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + rows.len() * 96);
        w.magic(SEGMENT_MAGIC);
        w.u16(SEGMENT_VERSION);
        w.u64(rows.len() as u64);
        for row in rows {
            w.u64(row.store_seq);
            w.u32(row.shard);
            w.u64(row.record.seq);
            w.u64(row.record.property as u64);
            w.u8(row.record.rank);
            w.u64(row.record.epoch);
            // The violation codec deliberately omits merge_seq (positional
            // metadata); the store persists it beside the payload.
            w.opt_u64(row.record.violation.merge_seq);
            w.violation(&row.record.violation);
        }
        w.into_bytes()
    }

    /// Decode and validate a segment written by [`Segment::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        let seg = Self::read(&mut r)?;
        r.expect_end()?;
        Ok(seg)
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        r.expect_header(SEGMENT_MAGIC, SEGMENT_VERSION)?;
        let n = r.count()?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let store_seq = r.u64()?;
            let shard = r.u32()?;
            let seq = r.u64()?;
            let property = r.len()?;
            let rank = r.u8()?;
            let epoch = r.u64()?;
            let merge_seq = r.opt_u64()?;
            let mut violation = r.violation()?;
            violation.merge_seq = merge_seq;
            let record = ViolationRecord { seq, property, rank, epoch, violation };
            rows.push(Row::new(store_seq, shard, record));
        }
        Ok(Segment::build(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_core::{var, Bindings, Violation};
    use swmon_sim::time::Instant;

    fn row(seq: u64, shard: u32, prop: &str, t: u64, port: u64, degraded: bool) -> Row {
        let b = Bindings::new().bind(var("A"), FieldValue::Uint(port));
        Row::new(
            seq,
            shard,
            ViolationRecord {
                seq,
                property: 3,
                rank: 1,
                // Deploy provenance mirrors the shard in these fixtures so
                // the epoch index has two distinct keys to exercise.
                epoch: shard as u64,
                violation: Violation {
                    property: prop.to_string(),
                    time: Instant::from_nanos(t),
                    trigger_stage: "s".into(),
                    bindings: Some(b),
                    history: vec![],
                    degraded,
                    merge_seq: Some(seq),
                },
            },
        )
    }

    fn sample() -> Segment {
        Segment::build(vec![
            row(0, 0, "fw", 10, 80, false),
            row(1, 1, "fw", 20, 443, true),
            row(2, 0, "dhcp", 30, 80, false),
        ])
    }

    #[test]
    fn indexes_cover_every_dimension() {
        let s = sample();
        assert_eq!(s.prop_rows("fw"), &[0, 1]);
        assert_eq!(s.prop_rows("dhcp"), &[2]);
        assert!(s.prop_rows("nat").is_empty());
        assert_eq!(s.bind_rows(var("A"), &FieldValue::Uint(80)), &[0, 2]);
        assert!(s.bind_rows(var("A"), &FieldValue::Uint(22)).is_empty());
        assert!(s.bind_rows(var("Z"), &FieldValue::Uint(80)).is_empty());
        assert_eq!(s.shard_rows(0), &[0, 2]);
        assert_eq!(s.shard_rows(1), &[1]);
        assert_eq!(s.epoch_rows(0), &[0, 2]);
        assert_eq!(s.epoch_rows(1), &[1]);
        assert!(s.epoch_rows(9).is_empty());
        assert!(Segment::row_matches(&s.rows()[1], &Check::new(&Atom::Epoch(1))));
        assert!(!Segment::row_matches(&s.rows()[0], &Check::new(&Atom::Epoch(1))));
        assert_eq!(s.degraded_rows(), &[1]);
        assert_eq!((s.min_time(), s.max_time()), (10, 30));
        assert!(s.overlaps(15, 25));
        assert!(!s.overlaps(31, 99));
    }

    #[test]
    fn bytes_round_trip_rebuilds_identical_indexes() {
        let s = sample();
        let bytes = s.to_bytes();
        let back = Segment::from_bytes(&bytes).expect("valid segment");
        assert_eq!(back.len(), s.len());
        assert_eq!(back.prop_rows("fw"), s.prop_rows("fw"));
        assert_eq!(back.degraded_rows(), s.degraded_rows());
        assert_eq!(
            back.bind_rows(var("A"), &FieldValue::Uint(443)),
            s.bind_rows(var("A"), &FieldValue::Uint(443))
        );
        assert_eq!(back.rows()[1].record.violation.merge_seq, Some(1));
        assert!(back.rows()[1].record.violation.degraded, "provenance survives the framing");
        assert_eq!(back.rows()[1].record.epoch, 1, "deploy provenance survives the framing");
        assert_eq!(back.epoch_rows(1), s.epoch_rows(1));
        // Canonical re-encode: byte-for-byte stable.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn corrupted_bytes_are_rejected_before_use() {
        let bytes = sample().to_bytes();
        assert_eq!(Segment::from_bytes(&bytes[..5]).unwrap_err(), SnapshotError::Truncated);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(Segment::from_bytes(&bad).unwrap_err(), SnapshotError::BadMagic);
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(Segment::from_bytes(&trailing).unwrap_err(), SnapshotError::Malformed(_)));
    }
}
