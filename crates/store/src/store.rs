//! The store: an append-only log — frozen, indexed segments and one open
//! tail — a canonical-order query executor, and the whole-store byte
//! encoding.
//!
//! ## An open tail
//!
//! The runtime publishes after every batch, a handful of rows at a time,
//! so an ingest must cost a lock and a push, not a set of indexes: it
//! appends to an unindexed tail that every query scans in full, and a tail
//! that has grown to [`TAIL_ROWS`] is frozen into an indexed [`Segment`].
//!
//! ## Prefix consistency for live queries
//!
//! All mutable state sits behind one `RwLock`: an ingest batch becomes
//! visible atomically (appended under the write lock), and a query takes
//! the read lock exactly once, so every answer reflects a *prefix* of the
//! publication stream — never half a batch. Because what the runtime has
//! published stands across crashes (see [`swmon_runtime::sink`]), nothing
//! a query returned can later be retracted.
//!
//! ## Canonical order
//!
//! Query results are sorted by [`Row::order`] — the components of the key
//! the runtime's deterministic merge uses — so a query over a sealed store
//! returns violations in the same order the engine's merged `Vec` holds
//! them, and a live query returns the canonical ordering of the
//! published-so-far subset.

use std::sync::RwLock;

use swmon_core::json::escape;
use swmon_core::wire::{Reader, SnapshotError, Writer};
use swmon_runtime::{signature, ViolationRecord};

use crate::plan::{plan, Driver, Plan};
use crate::segment::{head, Row, Segment, NO_SHARD};
use crate::swql::{parse, Query, QueryError};

/// Magic of the whole-store byte encoding (a framed list of `SWVS`
/// segments).
pub const STORE_MAGIC: &[u8; 4] = b"SWVL";
/// Current store format version.
pub const STORE_VERSION: u16 = 1;

/// Rows per segment when a seal rebuilds the log canonically: large enough
/// to amortize per-segment index overhead, small enough that `window`
/// queries can skip whole segments.
const SEAL_SEGMENT_ROWS: usize = 65_536;

/// Rows the open tail holds before it is frozen into a segment: a scan
/// this long costs a query less than the indexes would cost each publish
/// (docs/PERF.md, PR 21, has the 64 / 128 / 256 trial).
const TAIL_ROWS: usize = 128;

#[derive(Debug, Default)]
struct Inner {
    /// Frozen segments, oldest first.
    segments: Vec<Segment>,
    /// The newest rows, unindexed. Always empty once sealed.
    tail: Vec<Row>,
    next_seq: u64,
    sealed: bool,
}

impl Inner {
    /// The rows of segment `si`; the open tail counts as the last one.
    fn rows(&self, si: usize) -> &[Row] {
        self.segments.get(si).map_or(&self.tail, Segment::rows)
    }

    fn len(&self) -> u64 {
        self.segments.iter().map(|s| s.len() as u64).sum::<u64>() + self.tail.len() as u64
    }

    fn segment_count(&self) -> usize {
        self.segments.len() + usize::from(!self.tail.is_empty())
    }
}

/// The indexed violation store. Shareable across threads (`&self` API,
/// one internal `RwLock`); see the module docs for the consistency model.
#[derive(Debug, Default)]
pub struct Store {
    inner: RwLock<Inner>,
}

/// One query result row.
#[derive(Debug, Clone)]
pub struct QueryMatch {
    /// The store primary key ([`Row::store_seq`]).
    pub store_seq: u64,
    /// Discovering shard ([`NO_SHARD`] if unknown).
    pub shard: u32,
    /// The violation record.
    pub record: ViolationRecord,
}

/// A query answer: the matches (canonical order) plus execution metadata.
#[derive(Debug)]
pub struct QueryOutput {
    /// Matching rows in canonical merge order.
    pub matches: Vec<QueryMatch>,
    /// Candidate rows the executor actually visited.
    pub scanned: u64,
    /// Total rows in the store snapshot the query ran against.
    pub total: u64,
    /// Whether that snapshot was sealed (final) or a live prefix.
    pub sealed: bool,
    /// The chosen plan (for `--json` output and tests).
    pub plan: Plan,
}

impl QueryOutput {
    /// Canonical signatures of the matches, comparable against
    /// [`swmon_runtime::Outcome::signatures`].
    pub fn signatures(&self) -> Vec<String> {
        self.matches.iter().map(|m| signature(&m.record)).collect()
    }

    /// Human-readable rendering: one line per match, then a footer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.matches {
            let shard = if m.shard == NO_SHARD { "-".to_string() } else { m.shard.to_string() };
            out.push_str(&format!(
                "#{:<6} shard {:>2}  {}\n",
                m.store_seq,
                shard,
                m.record.violation.summary()
            ));
        }
        out.push_str(&format!(
            "{} match(es) of {} stored violation(s), {} row(s) scanned, {} snapshot\n",
            self.matches.len(),
            self.total,
            self.scanned,
            if self.sealed { "sealed" } else { "live" },
        ));
        out
    }

    /// The answer as a JSON document (stable field order).
    pub fn to_json(&self) -> String {
        let mut rows = String::new();
        for (i, m) in self.matches.iter().enumerate() {
            if i > 0 {
                rows.push_str(",\n");
            }
            let shard = if m.shard == NO_SHARD { "null".into() } else { m.shard.to_string() };
            rows.push_str(&format!(
                "    {{\"seq\": {}, \"shard\": {}, \"degraded\": {}, \"signature\": \"{}\"}}",
                m.store_seq,
                shard,
                m.record.violation.degraded,
                escape(&signature(&m.record)),
            ));
        }
        format!(
            "{{\n  \"matches\": {},\n  \"total\": {},\n  \"scanned\": {},\n  \
             \"sealed\": {},\n  \"plan\": \"{}\",\n  \"rows\": [\n{}\n  ]\n}}",
            self.matches.len(),
            self.total,
            self.scanned,
            self.sealed,
            escape(self.plan.explain().trim_end()),
            rows
        )
    }
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Append one batch of records discovered by `shard`. The batch
    /// becomes visible atomically. No-op on an empty batch or a sealed
    /// store (sealing is terminal).
    pub fn ingest(&self, shard: u32, records: &[ViolationRecord]) {
        if records.is_empty() {
            return;
        }
        let mut inner = self.inner.write().expect("store lock poisoned");
        if inner.sealed {
            debug_assert!(false, "ingest into a sealed store");
            return;
        }
        let base = inner.next_seq;
        inner.next_seq += records.len() as u64;
        let rows = records.iter().zip(base..).map(|(r, seq)| Row::new(seq, shard, r.clone()));
        inner.tail.extend(rows);
        if inner.tail.len() >= TAIL_ROWS {
            let mut full = std::mem::replace(&mut inner.tail, Vec::with_capacity(TAIL_ROWS));
            // The publish that overshot the capacity doubled it.
            full.shrink_to_fit();
            inner.segments.push(Segment::build(full));
        }
    }

    /// Replace the live log with the canonical merged output — `merged` is
    /// [`swmon_runtime::merge`]'s, in its order: rows are re-keyed by
    /// [`swmon_core::Violation::merge_seq`] and re-chunked into
    /// time-ordered segments. The live rows, sorted the same way, are
    /// merge-joined with it on the merge key itself (time, property, rank,
    /// stage, equal bindings), so each row's shard provenance and rendered
    /// bindings carry over and nothing is formatted twice; publication is
    /// exactly-once, so every record finds its row whenever the run
    /// published live. A record the log lacks is a fresh row from
    /// [`NO_SHARD`].
    pub fn seal(&self, merged: &[ViolationRecord]) {
        let mut inner = self.inner.write().expect("store lock poisoned");
        let Inner { segments, tail, .. } = &mut *inner;
        // Sorted by reference: a row is several hundred bytes, and all the
        // join takes from it is its shard and its rendered bindings.
        let mut live: Vec<&mut Row> =
            segments.iter_mut().flat_map(Segment::rows_mut).chain(tail.iter_mut()).collect();
        live.sort_unstable_by(|a, b| a.order().cmp(&b.order()));
        let mut at = 0;
        let mut rows = merged.iter().enumerate().map(|(i, rec)| {
            let store_seq = rec.violation.merge_seq.unwrap_or(i as u64);
            while live.get(at).is_some_and(|row| head(&row.record) < head(rec)) {
                at += 1;
            }
            // Both sides order the rows sharing a head by their rendered
            // bindings, so the record's row is the first of the run unless
            // the log holds rows `merged` lacks.
            let mut run = live[at..].iter().take_while(|row| head(&row.record) == head(rec));
            match run.position(|row| row.record.violation.bindings == rec.violation.bindings) {
                Some(k) => {
                    at += k + 1;
                    let row = &mut *live[at - 1];
                    let key = std::mem::take(&mut row.key);
                    Row { store_seq, shard: row.shard, record: rec.clone(), key }
                }
                None => Row::new(store_seq, NO_SHARD, rec.clone()),
            }
        });
        let sealed = std::iter::from_fn(|| {
            let chunk: Vec<Row> = rows.by_ref().take(SEAL_SEGMENT_ROWS).collect();
            (!chunk.is_empty()).then(|| Segment::build(chunk))
        })
        .collect();
        inner.segments = sealed;
        inner.tail = Vec::new();
        inner.next_seq = merged.len() as u64;
        inner.sealed = true;
    }

    /// Total stored rows.
    pub fn len(&self) -> u64 {
        self.inner.read().expect("store lock poisoned").len()
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once [`Store::seal`] has run.
    pub fn is_sealed(&self) -> bool {
        self.inner.read().expect("store lock poisoned").sealed
    }

    /// Segments [`Store::to_bytes`] would frame: the frozen ones, plus the
    /// open tail while it holds rows. A live store of `n` rows has at most
    /// `n / TAIL_ROWS + 1`, however many publishes brought them.
    pub fn segment_count(&self) -> usize {
        self.inner.read().expect("store lock poisoned").segment_count()
    }

    /// Execute a parsed query against a prefix-consistent snapshot.
    pub fn query(&self, q: &Query) -> QueryOutput {
        let inner = self.inner.read().expect("store lock poisoned");
        let segments = &inner.segments;
        let the_plan = plan(q, segments, inner.tail.len() as u64);
        let mut hits: Vec<(usize, u32)> = Vec::new();
        let mut scanned = 0u64;
        for (branch, bplan) in q.branches.iter().zip(&the_plan.branches) {
            let mut consider = |seg_idx: usize, row_idx: u32| {
                scanned += 1;
                let row = &inner.rows(seg_idx)[row_idx as usize];
                if branch.atoms.iter().all(|(a, _)| Segment::row_matches(row, a)) {
                    hits.push((seg_idx, row_idx));
                }
            };
            match &bplan.driver {
                Driver::FullScan => {
                    for (si, seg) in segments.iter().enumerate() {
                        for ri in 0..seg.len() as u32 {
                            consider(si, ri);
                        }
                    }
                }
                Driver::Prop(p) => {
                    for (si, seg) in segments.iter().enumerate() {
                        for &ri in seg.prop_rows(p) {
                            consider(si, ri);
                        }
                    }
                }
                Driver::Bind(v, val) => {
                    for (si, seg) in segments.iter().enumerate() {
                        for &ri in seg.bind_rows(v, val) {
                            consider(si, ri);
                        }
                    }
                }
                Driver::Window(a, b) => {
                    for (si, seg) in segments.iter().enumerate() {
                        if !seg.overlaps(*a, *b) {
                            continue;
                        }
                        for ri in 0..seg.len() as u32 {
                            consider(si, ri);
                        }
                    }
                }
                Driver::Degraded => {
                    for (si, seg) in segments.iter().enumerate() {
                        for &ri in seg.degraded_rows() {
                            consider(si, ri);
                        }
                    }
                }
                Driver::Shard(s) => {
                    for (si, seg) in segments.iter().enumerate() {
                        for &ri in seg.shard_rows(*s) {
                            consider(si, ri);
                        }
                    }
                }
                Driver::Epoch(e) => {
                    for (si, seg) in segments.iter().enumerate() {
                        for &ri in seg.epoch_rows(*e) {
                            consider(si, ri);
                        }
                    }
                }
            }
            // The open tail has no index: every driver walks all of it.
            for ri in 0..inner.tail.len() as u32 {
                consider(segments.len(), ri);
            }
        }
        // Dedup across branches, then impose the canonical merge order —
        // on borrowed rows, so only the answer is cloned.
        hits.sort_unstable();
        hits.dedup();
        let mut rows: Vec<&Row> =
            hits.into_iter().map(|(si, ri)| &inner.rows(si)[ri as usize]).collect();
        rows.sort_unstable_by(|a, b| a.order().cmp(&b.order()));
        let matches = rows
            .into_iter()
            .map(|row| QueryMatch {
                store_seq: row.store_seq,
                shard: row.shard,
                record: row.record.clone(),
            })
            .collect();
        let total = inner.len();
        QueryOutput { matches, scanned, total, sealed: inner.sealed, plan: the_plan }
    }

    /// Parse and execute an SWQL source string.
    pub fn query_str(&self, src: &str) -> Result<QueryOutput, QueryError> {
        Ok(self.query(&parse(src)?))
    }

    /// Encode the whole store: a framed list of segments under the `SWVL`
    /// magic, a non-empty tail framed as the last of them (it decodes as a
    /// frozen segment, which answers the same).
    pub fn to_bytes(&self) -> Vec<u8> {
        let inner = self.inner.read().expect("store lock poisoned");
        let mut w = Writer::with_capacity(4096);
        w.magic(STORE_MAGIC);
        w.u16(STORE_VERSION);
        w.u64(inner.next_seq);
        w.bool(inner.sealed);
        w.u64(inner.segment_count() as u64);
        let tail = (!inner.tail.is_empty()).then(|| Segment::encode(&inner.tail));
        for bytes in inner.segments.iter().map(Segment::to_bytes).chain(tail) {
            w.u64(bytes.len() as u64);
            w.raw(&bytes);
        }
        w.into_bytes()
    }

    /// Decode a store written by [`Store::to_bytes`], validating before
    /// anything is constructed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        r.expect_header(STORE_MAGIC, STORE_VERSION)?;
        let next_seq = r.u64()?;
        let sealed = r.bool()?;
        let n = r.count()?;
        let mut segments = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.len()?;
            segments.push(Segment::from_bytes(r.take(len)?)?);
        }
        r.expect_end()?;
        Ok(Store { inner: RwLock::new(Inner { segments, tail: Vec::new(), next_seq, sealed }) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_core::{var, Bindings, Violation};
    use swmon_packet::FieldValue;
    use swmon_runtime::merge::merge;
    use swmon_sim::time::Instant;

    fn rec(prop: &str, t: u64, port: u64, degraded: bool) -> ViolationRecord {
        ViolationRecord {
            seq: 0,
            property: 0,
            rank: 1,
            epoch: 0,
            violation: Violation {
                property: prop.to_string(),
                time: Instant::from_nanos(t),
                trigger_stage: "s".into(),
                bindings: Some(Bindings::new().bind(var("A"), FieldValue::Uint(port))),
                history: vec![],
                degraded,
                merge_seq: None,
            },
        }
    }

    fn seeded() -> Store {
        let s = Store::new();
        // Deliberately out of canonical (time) order across shards.
        s.ingest(1, &[rec("fw", 30, 443, false), rec("fw", 10, 80, true)]);
        s.ingest(0, &[rec("dhcp", 20, 80, false)]);
        s
    }

    #[test]
    fn queries_answer_in_canonical_order() {
        let s = seeded();
        assert_eq!(s.len(), 3);
        assert_eq!(s.segment_count(), 1, "two small publishes share the open tail");
        let out = s.query_str("prop(*)").unwrap();
        assert!(!out.sealed);
        let times: Vec<u64> =
            out.matches.iter().map(|m| m.record.violation.time.as_nanos()).collect();
        assert_eq!(times, vec![10, 20, 30], "canonical (time-major) order, not ingest order");
    }

    #[test]
    fn atoms_and_disjunction_select_the_right_rows() {
        let s = seeded();
        assert_eq!(s.query_str("prop(fw)").unwrap().matches.len(), 2);
        assert_eq!(s.query_str("prop(fw), bind(A, 443)").unwrap().matches.len(), 1);
        assert_eq!(s.query_str("degraded()").unwrap().matches.len(), 1);
        assert_eq!(s.query_str("shard(0)").unwrap().matches.len(), 1);
        assert_eq!(s.query_str("window(15, 25)").unwrap().matches.len(), 1);
        // Union dedups: both branches match the degraded fw row.
        let out = s.query_str("degraded() or prop(fw)").unwrap();
        assert_eq!(out.matches.len(), 2);
        assert_eq!(s.query_str("prop(nat-consistent)").unwrap().matches.len(), 0);
    }

    #[test]
    fn seal_rekeys_by_merge_seq_and_keeps_provenance() {
        let s = seeded();
        let mut merged: Vec<ViolationRecord> =
            vec![rec("fw", 10, 80, true), rec("dhcp", 20, 80, false), rec("fw", 30, 443, false)];
        for (i, r) in merged.iter_mut().enumerate() {
            r.violation.merge_seq = Some(i as u64);
        }
        s.seal(&merged);
        assert!(s.is_sealed());
        let out = s.query_str("prop(*)").unwrap();
        let seqs: Vec<u64> = out.matches.iter().map(|m| m.store_seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "primary key is the merge sequence id");
        // Shard provenance recovered by signature matching.
        assert_eq!(out.matches[0].shard, 1);
        assert_eq!(out.matches[1].shard, 0);
        assert_eq!(out.matches[2].shard, 1);
        assert_eq!(s.query_str("degraded()").unwrap().matches.len(), 1);
        assert_eq!(s.segment_count(), 1, "the tail is folded into the sealed log");

        // Published only in part: the rows the log lacks — before, between
        // and after the ones it has, one sharing a head with a live row —
        // are fresh rows from no shard; the rest keep theirs.
        let s = seeded();
        let merged = merge(vec![
            rec("fw", 5, 1, false),
            rec("fw", 10, 80, true),
            rec("fw", 10, 90, true),
            rec("dhcp", 20, 80, false),
            rec("fw", 30, 443, false),
            rec("fw", 40, 2, false),
        ]);
        s.seal(&merged);
        let out = s.query_str("prop(*)").unwrap();
        assert_eq!(out.signatures(), merged.iter().map(signature).collect::<Vec<_>>());
        let shards: Vec<u32> = out.matches.iter().map(|m| m.shard).collect();
        assert_eq!(shards, vec![NO_SHARD, 1, NO_SHARD, 0, 1, NO_SHARD]);
        assert_eq!(out.matches.iter().map(|m| m.store_seq).collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5]);
        assert_eq!(s.query_str("shard(1)").unwrap().matches.len(), 2);

        // Never published into: every row is from no shard.
        let s = Store::new();
        s.seal(&merged);
        let out = s.query_str("prop(*)").unwrap();
        assert_eq!(out.matches.len(), 6);
        assert!(out.matches.iter().all(|m| m.shard == NO_SHARD));
    }

    /// `n` records out of time order, over three properties, every fifth
    /// one degraded. Heads repeat (same time and property, different
    /// bindings), and from 300 on so do whole keys.
    fn stream(n: u64) -> Vec<ViolationRecord> {
        let props = ["fw", "dhcp", "nat"];
        (0..n)
            .map(|i| {
                let mut r = rec(props[(i % 3) as usize], (i * 7919) % 25, 80 + i % 4, i % 5 == 0);
                r.property = (i % 3) as usize;
                r.seq = i;
                r
            })
            .collect()
    }

    /// Everything a query answers with, in answer order.
    fn answers(s: &Store, src: &str) -> Vec<(u64, u32, String)> {
        let out = s.query_str(src).unwrap();
        let planned: u64 = out.plan.branches.iter().map(|b| b.candidates).sum();
        assert_eq!(out.scanned, planned, "{src}: the plan's counts are exact");
        out.matches.iter().map(|m| (m.store_seq, m.shard, signature(&m.record))).collect()
    }

    const QUERIES: [&str; 7] = [
        "prop(*)",
        "prop(fw), bind(A, 83)",
        "window(5, 11)",
        "prop(nat), window(0, 15) or degraded()",
        "degraded(), shard(2)",
        "bind(A, 81)",
        "epoch(0), prop(dhcp)",
    ];

    #[test]
    fn any_split_into_publishes_answers_like_one_segment() {
        let records = stream(700);
        let merged = merge(records.clone());
        // The reference: one publish of everything is one `Segment::build`.
        let whole = Store::new();
        whole.ingest(2, &records);
        assert_eq!(whole.segment_count(), 1);
        let sealed_whole = Store::new();
        sealed_whole.ingest(2, &records);
        sealed_whole.seal(&merged);
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..12 {
            let split = Store::new();
            let mut rest = &records[..];
            while !rest.is_empty() {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let (publish, later) =
                    rest.split_at(rest.len().min(1 + (lcg >> 33) as usize % 300));
                split.ingest(2, publish);
                rest = later;
            }
            assert_eq!(split.len(), 700);
            assert!(split.segment_count() <= 700 / TAIL_ROWS + 1, "{}", split.segment_count());
            for q in QUERIES {
                assert_eq!(answers(&split, q), answers(&whole, q), "live {q}");
            }
            split.seal(&merged);
            for q in QUERIES {
                assert_eq!(answers(&split, q), answers(&sealed_whole, q), "sealed {q}");
            }
        }
    }

    #[test]
    fn the_tail_is_costed_under_every_atom_and_round_trips() {
        // 128 rows freeze into a segment; 40 more stay in the open tail.
        let records = stream(168);
        let s = Store::new();
        s.ingest(0, &records[..128]);
        s.ingest(1, &records[128..]);
        assert_eq!(s.segment_count(), 2);
        let indexed = Store::new();
        indexed.ingest(0, &records[..128]);
        let plan = |st: &Store, src: &str| st.query_str(src).unwrap().plan.branches[0].clone();
        for atom in ["prop(*)", "prop(fw)", "bind(A, 83)", "degraded()", "shard(1)", "epoch(0)"] {
            let (with_tail, without) = (plan(&s, atom), plan(&indexed, atom));
            assert_eq!(with_tail.candidates, without.candidates + 40, "{atom}");
            assert_eq!(with_tail.driver, without.driver, "{atom}");
        }
        // Two atoms whose indexes are empty tie on the tail's 40 rows; the
        // earlier one drives, as it would without a tail.
        for (src, driver) in
            [("shard(9), epoch(7)", Driver::Shard(9)), ("epoch(7), shard(9)", Driver::Epoch(7))]
        {
            let out = s.query_str(src).unwrap();
            assert_eq!(out.plan.branches[0].driver, driver, "{src}");
            assert_eq!((out.scanned, out.matches.len()), (40, 0), "{src}");
        }
        // Mid-tail, the encoding frames the tail as a last segment, and
        // the decoded store answers everything the same.
        let back = Store::from_bytes(&s.to_bytes()).expect("valid store");
        assert_eq!((back.len(), back.segment_count()), (168, 2));
        for q in QUERIES {
            assert_eq!(answers(&back, q), answers(&s, q), "{q}");
        }
        // And keeps ingesting where the original would.
        back.ingest(3, &records[..1]);
        assert_eq!(back.query_str("shard(3)").unwrap().matches[0].store_seq, 168);
    }

    #[test]
    fn store_bytes_round_trip() {
        let s = seeded();
        let bytes = s.to_bytes();
        let back = Store::from_bytes(&bytes).expect("valid store");
        assert_eq!(back.len(), s.len());
        assert_eq!(back.is_sealed(), s.is_sealed());
        assert_eq!(
            back.query_str("prop(*)").unwrap().signatures(),
            s.query_str("prop(*)").unwrap().signatures()
        );
        let mut bad = bytes.clone();
        bad[1] = b'X';
        assert_eq!(Store::from_bytes(&bad).unwrap_err(), SnapshotError::BadMagic);
        assert_eq!(Store::from_bytes(&bytes[..9]).unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn render_and_json_summarize_the_answer() {
        let s = seeded();
        let out = s.query_str("degraded()").unwrap();
        let txt = out.render();
        assert!(txt.contains("[degraded provenance]"), "{txt}");
        assert!(txt.contains("1 match(es) of 3 stored violation(s)"), "{txt}");
        let json = out.to_json();
        assert!(json.contains("\"matches\": 1"), "{json}");
        assert!(json.contains("\"sealed\": false"), "{json}");
        assert!(json.contains("\"degraded\": true"), "{json}");
    }
}
