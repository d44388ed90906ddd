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

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::OnceLock;

use swmon_core::wire::{Reader, SnapshotError, Writer};
use swmon_core::{Var, VarId, VarTable};
use swmon_packet::{FieldValue, Ipv4Address, MacAddr};
use swmon_runtime::merge::{head, rendered};
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
/// record itself. Made by [`Row::new`], which formats nothing: the row's
/// bindings are rendered only when a sort finds it tied with another row
/// on the rest of its canonical position, and kept from then on.
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
    /// The bindings as the canonical merge renders them
    /// ([`swmon_runtime::merge::rendered`]), once a tie has needed them.
    pub(crate) key: OnceLock<Box<str>>,
}

impl Row {
    /// A row for `record`, found by `shard`, under primary key `store_seq`.
    pub fn new(store_seq: u64, shard: u32, record: ViolationRecord) -> Self {
        Row { store_seq, shard, record, key: OnceLock::new() }
    }

    /// The rows' order in the canonical merge ([`swmon_runtime::merge`]),
    /// made total by the primary key. A row is rendered, once, only when
    /// its head ties another's.
    pub(crate) fn canonical_cmp(&self, other: &Row) -> Ordering {
        (head(&self.record).cmp(&head(&other.record)))
            .then_with(|| self.rendered().cmp(other.rendered()))
            .then(self.store_seq.cmp(&other.store_seq))
    }

    fn rendered(&self) -> &str {
        self.key.get_or_init(|| rendered(&self.record).into())
    }
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

/// File `row` under `key` in `index`, a short list searched front to back.
fn post<K: PartialEq>(index: &mut Vec<(K, Vec<u32>)>, key: K, row: u32) {
    match index.iter().position(|(k, _)| *k == key) {
        Some(at) => index[at].1.push(row),
        None => index.push((key, vec![row])),
    }
}

/// The rows filed under `key` in `index`, sorted by key.
fn rows_of<'a, K: Borrow<Q>, Q: Ord + ?Sized>(index: &'a [(K, Vec<u32>)], key: &Q) -> &'a [u32] {
    index.binary_search_by(|(k, _)| k.borrow().cmp(key)).map_or(&[], |i| &index[i].1)
}

/// Variables a build looks up by handle before it looks them up by name.
const FEW_VARS: usize = 32;

/// Where a [`pack`]ed binding keeps its variable.
const VAR_SHIFT: u32 = 98;

/// One binding as an integer that orders as `((VarId, FieldValue),
/// position)`: the variable in bits 98.., the value's variant (in
/// declaration order) in bits 96..98, its payload in 32..96 (MAC and IPv4
/// big-endian, so they order as their octets), the row's position in 0..32.
fn pack(id: VarId, value: &FieldValue, position: u32) -> u128 {
    let (variant, payload) = match *value {
        FieldValue::Mac(m) => (0u128, m.to_u64()),
        FieldValue::Ipv4(a) => (1, u64::from(a.to_u32())),
        FieldValue::Uint(v) => (2, v),
    };
    u128::from(id.0) << VAR_SHIFT | variant << 96 | u128::from(payload) << 32 | u128::from(position)
}

/// The `(VarId, FieldValue)` key of a [`pack`]ed occurrence.
fn unpack(p: u128) -> (VarId, FieldValue) {
    let payload = (p >> 32) as u64;
    let value = match (p >> 96) & 3 {
        0 => FieldValue::Mac(MacAddr::from_u64(payload)),
        1 => FieldValue::Ipv4(Ipv4Address::from_u32(payload as u32)),
        _ => FieldValue::Uint(payload),
    };
    (VarId((p >> VAR_SHIFT) as u16), value)
}

impl Segment {
    /// Build a segment (and all its indexes) from `rows`.
    pub fn build(rows: Vec<Row>) -> Self {
        let mut min_time = u64::MAX;
        let mut max_time = 0u64;
        let mut props: Vec<(&str, Vec<u32>)> = Vec::new();
        // Variables as first seen, and every binding packed under its
        // variable's place in that list. A variable is found by handle (a
        // pointer compare) among the first few, which is all a catalog
        // binds, else by name, so a crafted segment binding thousands of
        // names still builds in one linear pass.
        let mut vars: Vec<Var> = Vec::new();
        let mut many: HashMap<Var, usize> = HashMap::new();
        let mut packed: Vec<u128> = Vec::new();
        let mut shards: Vec<(u32, Vec<u32>)> = Vec::new();
        let mut epochs: Vec<(u64, Vec<u32>)> = Vec::new();
        let mut degraded = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let i = i as u32;
            let v = &row.record.violation;
            let t = v.time.as_nanos();
            min_time = min_time.min(t);
            max_time = max_time.max(t);
            post(&mut props, v.property.as_str(), i);
            for (bv, val) in v.bindings.iter().flat_map(|b| b.iter()) {
                let seen = match vars.iter().take(FEW_VARS).position(|known| known == bv) {
                    Some(k) => k,
                    None => *many.entry(*bv).or_insert_with(|| {
                        vars.push(*bv);
                        vars.len() - 1
                    }),
                };
                packed.push(pack(VarId(seen as u16), val, i));
            }
            post(&mut shards, row.shard, i);
            post(&mut epochs, row.record.epoch, i);
            if v.degraded {
                degraded.push(i);
            }
        }
        // Only the distinct variables are sorted by name, into the
        // segment's `VarTable` numbering, and each binding is renumbered to
        // match.
        let mut by_name: Vec<usize> = (0..vars.len()).collect();
        by_name.sort_unstable_by_key(|&k| vars[k]);
        let mut id = vec![0u128; vars.len()];
        for (rank, &k) in by_name.iter().enumerate() {
            id[k] = rank as u128;
        }
        for p in &mut packed {
            *p = id[(*p >> VAR_SHIFT) as usize] << VAR_SHIFT | *p & ((1 << VAR_SHIFT) - 1);
        }
        // Each binding sorts as `((VarId, FieldValue), position)` would, so
        // each key's postings run comes out in row order.
        packed.sort_unstable();
        let mut bind_keys: Vec<((VarId, FieldValue), u32, u32)> = Vec::new();
        let bind_postings: Vec<u32> = packed.iter().map(|&p| p as u32).collect();
        for (at, &p) in packed.iter().enumerate() {
            match bind_keys.last_mut() {
                Some((k, _, end)) if *k == unpack(p) => *end += 1,
                _ => bind_keys.push((unpack(p), at as u32, at as u32 + 1)),
            }
        }
        props.sort_unstable_by_key(|(name, _)| *name);
        let props = props.into_iter().map(|(name, rows)| (name.to_string(), rows)).collect();
        shards.sort_unstable_by_key(|(s, _)| *s);
        epochs.sort_unstable_by_key(|(e, _)| *e);
        Segment {
            rows,
            min_time,
            max_time,
            vars: VarTable::from_vars(vars),
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

    /// The rows, for the seal to move their records out of just before it
    /// drops the segment (nothing indexed may change).
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
        rows_of(&self.props, name)
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
        rows_of(&self.shards, &s)
    }

    /// Row positions raised under catalog epoch `e` (deploy provenance).
    pub fn epoch_rows(&self, e: u64) -> &[u32] {
        rows_of(&self.epochs, &e)
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

    /// Rows binding up to four variables, interned out of name order, to
    /// values of every kind, edge values included (addresses whose octets
    /// order differently read from either end); a property name under two
    /// catalog positions.
    fn mixed_rows(n: u64) -> Vec<Row> {
        let names = ["Zeta", "A", "Mid", "B"];
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |bound: u64| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (lcg >> 33) % bound
        };
        (0..n)
            .map(|i| {
                let mut b = Bindings::new();
                for name in names {
                    let value = match draw(5) {
                        0 => continue,
                        1 => FieldValue::Mac(MacAddr::from_u64(draw(3) << 40 | draw(4))),
                        2 => FieldValue::Ipv4(Ipv4Address::from_u32(
                            [0x0a00_0009, 0x0a00_000a, 0x0a00_00ff, 0x0b00_0001, 0x09ff_0000]
                                [draw(5) as usize],
                        )),
                        _ => FieldValue::Uint([0, 9, 10, u64::MAX][draw(4) as usize]),
                    };
                    b = b.bind(var(name), value);
                }
                let mut r = row(i, (i % 3) as u32, ["fw", "nat"][draw(2) as usize], i, 0, false);
                r.record.violation.bindings = (draw(6) > 0).then_some(b);
                r.record.property = draw(2) as usize;
                r
            })
            .collect()
    }

    /// The bind index by its definition: every binding sorted as
    /// `((VarId, FieldValue), row)`.
    #[allow(clippy::type_complexity)]
    fn tuple_sorted(rows: &[Row]) -> (VarTable, Vec<((VarId, FieldValue), u32, u32)>, Vec<u32>) {
        let bound = || rows.iter().filter_map(|r| r.record.violation.bindings.as_ref());
        let vars = VarTable::from_vars(bound().flat_map(|b| b.iter().map(|(v, _)| *v)));
        let mut pairs: Vec<((VarId, FieldValue), u32)> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            for (v, val) in row.record.violation.bindings.iter().flat_map(|b| b.iter()) {
                pairs.push(((vars.id(v).unwrap(), *val), i as u32));
            }
        }
        pairs.sort_unstable();
        let mut keys: Vec<((VarId, FieldValue), u32, u32)> = Vec::new();
        for (at, &(key, _)) in pairs.iter().enumerate() {
            match keys.last_mut() {
                Some((k, _, end)) if *k == key => *end += 1,
                _ => keys.push((key, at as u32, at as u32 + 1)),
            }
        }
        (vars, keys, pairs.iter().map(|&(_, i)| i).collect())
    }

    #[test]
    fn packed_postings_equal_the_tuple_sort() {
        let rows = mixed_rows(600);
        let seg = Segment::build(rows.clone());
        assert_eq!(
            (seg.vars.clone(), seg.bind_keys.clone(), seg.bind_postings.clone()),
            tuple_sorted(&rows)
        );
        // Each property name is one entry, its rows in order.
        let fw: Vec<u32> =
            (0..600).filter(|&i| rows[i as usize].record.violation.property == "fw").collect();
        assert_eq!(seg.prop_rows("fw"), fw);
        assert_eq!(seg.props.iter().map(|(p, _)| p.as_str()).collect::<Vec<_>>(), ["fw", "nat"]);
        let shard = |s: u32| (0..600).filter(|i| i % 3 == s).collect::<Vec<u32>>();
        assert_eq!(seg.shards, (0..3).map(|s| (s, shard(s))).collect::<Vec<_>>());
    }

    #[test]
    fn many_variable_names_index_as_few_do() {
        // More names than a build looks up by handle, bound in an order
        // unrelated to their names; some rows repeat earlier names.
        let rows: Vec<Row> = (0..300u64)
            .map(|i| {
                let mut r = row(i, 0, "fw", i, 0, false);
                let b = Bindings::new()
                    .bind(var(&format!("Many{}", (i * 37) % 101)), FieldValue::Uint(i % 5))
                    .bind(var(&format!("More{}", (i * 11) % 53)), FieldValue::Uint(i % 3));
                r.record.violation.bindings = Some(b);
                r
            })
            .collect();
        let seg = Segment::build(rows.clone());
        assert!(seg.vars.len() > FEW_VARS);
        assert_eq!(
            (seg.vars.clone(), seg.bind_keys.clone(), seg.bind_postings.clone()),
            tuple_sorted(&rows)
        );
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
