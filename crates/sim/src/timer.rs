//! A deterministic timer wheel.
//!
//! Both the switch (rule idle/hard timeouts) and the monitor engine
//! (per-instance `within` windows, timeout actions — the paper's Features 3
//! and 7) need many concurrently armed, individually cancellable and
//! *refreshable* timers. Expiry order is total and deterministic: by
//! deadline, then by arming sequence number.

use crate::time::Instant;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use swmon_packet::FoldMap;

/// Handle to an armed timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(u64);

impl TimerId {
    /// The raw id value, for serialized checkpoint encodings.
    pub fn to_raw(self) -> u64 {
        self.0
    }

    /// Rebuild an id from [`TimerId::to_raw`]. Only meaningful together with
    /// a [`TimerWheelSnapshot`] restore that re-establishes the wheel's
    /// counters; a fabricated id simply never matches a live timer.
    pub fn from_raw(raw: u64) -> Self {
        TimerId(raw)
    }
}

/// One live timer inside a [`TimerWheelSnapshot`].
///
/// Every field of the wheel's internal ordering tuple is preserved verbatim
/// — deadline, heap tie-break sequence, id and generation — so that a
/// restored wheel fires in exactly the order the original would have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerEntry<T> {
    /// Absolute deadline.
    pub deadline: Instant,
    /// Heap tie-break sequence of the entry's latest arming/refresh.
    pub seq: u64,
    /// The timer's handle.
    pub id: TimerId,
    /// Refresh generation (0 for a never-refreshed timer).
    pub generation: u64,
    /// The payload.
    pub payload: T,
}

/// A faithful image of a [`TimerWheel`]'s live state.
///
/// Tombstoned heap entries (cancelled or superseded by refresh) are *not*
/// captured: they are semantically invisible — they only ever get skipped —
/// so dropping them cannot change the firing order of live timers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerWheelSnapshot<T> {
    /// Live timers, sorted by heap sequence (arming order).
    pub entries: Vec<TimerEntry<T>>,
    /// Value the next [`TimerWheel::schedule`] call will use for its id.
    pub next_id: u64,
    /// Value the next heap push will use for deadline tie-breaking.
    pub next_seq: u64,
}

/// The image of a never-used wheel.
impl<T> Default for TimerWheelSnapshot<T> {
    fn default() -> Self {
        TimerWheelSnapshot { entries: Vec::new(), next_id: 0, next_seq: 0 }
    }
}

/// A set of armed timers, each carrying a payload of type `T`.
///
/// Cancellation and refresh are O(log n) amortised: superseded heap entries
/// are tombstoned and skipped lazily on pop. Everything a wheel returns —
/// firing order, ids, snapshots — is a function of the calls made on it,
/// never of the per-wheel hash seed.
#[derive(Debug)]
pub struct TimerWheel<T> {
    heap: BinaryHeap<Reverse<(Instant, u64, TimerId, u64)>>,
    /// Live timers by id, each with its current arming — the one heap
    /// entry that speaks for it — so a snapshot is this map's values and
    /// never walks the heap's tombstones. An id missing here is cancelled;
    /// a heap entry whose generation disagrees is stale (superseded by a
    /// refresh). Probed on every `next_deadline`, so it is a [`FoldMap`]
    /// with its own seed. Nothing iterates it in hash order (`snapshot`
    /// sorts by `seq`), so the seed never reaches an output.
    live: FoldMap<TimerId, TimerEntry<T>>,
    next_id: u64,
    seq: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel.
    pub fn new() -> Self {
        TimerWheel { heap: BinaryHeap::new(), live: FoldMap::default(), next_id: 0, seq: 0 }
    }

    /// Number of live (armed, not yet fired or cancelled) timers.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Arm a timer to fire at `deadline` with `payload`.
    pub fn schedule(&mut self, deadline: Instant, payload: T) -> TimerId {
        let id = TimerId(self.next_id);
        self.next_id += 1;
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((deadline, seq, id, 0)));
        self.live.insert(id, TimerEntry { deadline, seq, id, generation: 0, payload });
        id
    }

    /// Cancel a timer, returning its payload if it was still live.
    pub fn cancel(&mut self, id: TimerId) -> Option<T> {
        self.live.remove(&id).map(|a| a.payload)
    }

    /// Move a live timer's deadline (the paper's Feature 3 "reset whenever a
    /// new packet is seen"). Returns false if the timer is no longer live.
    /// A refreshed timer takes a fresh arming position for same-deadline
    /// tie-breaking, even when the deadline is unchanged.
    pub fn refresh(&mut self, id: TimerId, new_deadline: Instant) -> bool {
        let Some(armed) = self.live.get_mut(&id) else { return false };
        armed.deadline = new_deadline;
        armed.generation += 1;
        armed.seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((new_deadline, armed.seq, id, armed.generation)));
        true
    }

    /// The payload of a live timer.
    pub fn get(&self, id: TimerId) -> Option<&T> {
        self.live.get(&id).map(|a| &a.payload)
    }

    /// The current deadline of a live timer.
    pub fn deadline(&self, id: TimerId) -> Option<Instant> {
        self.live.get(&id).map(|a| a.deadline)
    }

    /// Whether heap entry `(id, gen)` is `id`'s current arming (not
    /// cancelled, not superseded by a refresh).
    fn is_current(&self, id: TimerId, gen: u64) -> bool {
        self.live.get(&id).is_some_and(|a| a.generation == gen)
    }

    /// The earliest live deadline, if any — what an event loop should sleep
    /// until.
    pub fn next_deadline(&mut self) -> Option<Instant> {
        loop {
            let &Reverse((deadline, _, id, gen)) = self.heap.peek()?;
            if self.is_current(id, gen) {
                return Some(deadline);
            }
            self.heap.pop(); // stale or cancelled entry
        }
    }

    /// Pop the next timer whose deadline is `<= now`, in deterministic order.
    pub fn pop_due(&mut self, now: Instant) -> Option<(TimerId, Instant, T)> {
        loop {
            let &Reverse((deadline, _, id, gen)) = self.heap.peek()?;
            let current = self.is_current(id, gen);
            // The earliest entry may be stale; for pop we must check
            // liveness before deciding nothing is due.
            if current && deadline > now {
                return None;
            }
            self.heap.pop();
            if current {
                let armed = self.live.remove(&id).expect("checked live");
                return Some((id, deadline, armed.payload));
            }
            // cancelled or refreshed; skip tombstone
        }
    }

    /// Drain every timer due at or before `now`.
    pub fn drain_due(&mut self, now: Instant) -> Vec<(TimerId, Instant, T)> {
        let mut out = Vec::new();
        while let Some(e) = self.pop_due(now) {
            out.push(e);
        }
        out
    }
}

impl<T: Clone> TimerWheel<T> {
    /// Capture the wheel's live state for checkpointing.
    ///
    /// The snapshot keeps the exact `(deadline, seq, id, generation)` tuple
    /// of every live timer plus both counters, so a [`TimerWheel::restore`]d
    /// wheel is behaviourally indistinguishable from the original: the same
    /// pops in the same order, and identical ids/tie-breaks for timers armed
    /// *after* the restore. Costs the live timers, not the heap: tombstones
    /// are never visited.
    pub fn snapshot(&self) -> TimerWheelSnapshot<T> {
        let mut image = TimerWheelSnapshot::default();
        self.snapshot_into(&mut image);
        image
    }

    /// Make `image` equal [`TimerWheel::snapshot`], reusing its allocation:
    /// a checkpoint taken every pass rewrites one entry list in place
    /// instead of building a new one beside the old.
    pub fn snapshot_into(&self, image: &mut TimerWheelSnapshot<T>) {
        image.entries.clear();
        image.entries.extend(self.live.values().cloned());
        image.entries.sort_unstable_by_key(|e| e.seq);
        (image.next_id, image.next_seq) = (self.next_id, self.seq);
    }

    /// Rebuild a wheel from a [`TimerWheelSnapshot`].
    pub fn restore(snap: &TimerWheelSnapshot<T>) -> Self {
        let mut heap = BinaryHeap::with_capacity(snap.entries.len());
        let mut live = FoldMap::with_capacity_and_hasher(snap.entries.len(), Default::default());
        for e in &snap.entries {
            heap.push(Reverse((e.deadline, e.seq, e.id, e.generation)));
            live.insert(e.id, e.clone());
        }
        TimerWheel { heap, live, next_id: snap.next_id, seq: snap.next_seq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn at(ms: u64) -> Instant {
        Instant::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimerWheel::new();
        w.schedule(at(30), "c");
        w.schedule(at(10), "a");
        w.schedule(at(20), "b");
        let fired: Vec<_> = w.drain_due(at(100)).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(fired, vec!["a", "b", "c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn simultaneous_deadlines_fire_in_arming_order() {
        let mut w = TimerWheel::new();
        for name in ["first", "second", "third"] {
            w.schedule(at(5), name);
        }
        let fired: Vec<_> = w.drain_due(at(5)).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(fired, vec!["first", "second", "third"]);
    }

    #[test]
    fn not_due_yet_stays_armed() {
        let mut w = TimerWheel::new();
        w.schedule(at(50), ());
        assert!(w.pop_due(at(49)).is_none());
        assert_eq!(w.len(), 1);
        assert!(w.pop_due(at(50)).is_some());
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut w = TimerWheel::new();
        let a = w.schedule(at(10), "a");
        w.schedule(at(20), "b");
        assert_eq!(w.cancel(a), Some("a"));
        assert_eq!(w.cancel(a), None, "double cancel is None");
        let fired: Vec<_> = w.drain_due(at(100)).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(fired, vec!["b"]);
    }

    #[test]
    fn refresh_moves_deadline_later() {
        let mut w = TimerWheel::new();
        let id = w.schedule(at(10), "x");
        assert!(w.refresh(id, at(40)));
        assert!(w.pop_due(at(30)).is_none(), "old deadline is stale");
        let (fired_id, deadline, p) = w.pop_due(at(40)).unwrap();
        assert_eq!((fired_id, deadline, p), (id, at(40), "x"));
    }

    #[test]
    fn refresh_can_move_deadline_earlier() {
        let mut w = TimerWheel::new();
        let id = w.schedule(at(100), "x");
        assert!(w.refresh(id, at(5)));
        let (fired, _, _) = w.pop_due(at(5)).unwrap();
        assert_eq!(fired, id);
        assert!(w.pop_due(at(200)).is_none(), "stale later entry must not re-fire");
    }

    #[test]
    fn refresh_after_cancel_fails() {
        let mut w = TimerWheel::<()>::new();
        let id = w.schedule(at(10), ());
        w.cancel(id);
        assert!(!w.refresh(id, at(20)));
    }

    #[test]
    fn next_deadline_skips_tombstones() {
        let mut w = TimerWheel::new();
        let a = w.schedule(at(10), ());
        w.schedule(at(20), ());
        w.cancel(a);
        assert_eq!(w.next_deadline(), Some(at(20)));
    }

    #[test]
    fn deadline_and_get_reflect_refresh() {
        let mut w = TimerWheel::new();
        let id = w.schedule(at(10), 42);
        assert_eq!(w.deadline(id), Some(at(10)));
        assert_eq!(w.get(id), Some(&42));
        w.refresh(id, at(99));
        assert_eq!(w.deadline(id), Some(at(99)));
    }

    #[test]
    fn many_refreshes_then_fire_once() {
        let mut w = TimerWheel::new();
        let id = w.schedule(at(10), ());
        for i in 1..100u64 {
            w.refresh(id, at(10 + i));
        }
        let all = w.drain_due(at(1000));
        assert_eq!(all.len(), 1, "a refreshed timer fires exactly once");
        assert_eq!(all[0].1, at(109));
    }

    #[test]
    fn snapshot_restore_preserves_firing_order_and_counters() {
        let mut w = TimerWheel::new();
        let a = w.schedule(at(10), "a");
        let b = w.schedule(at(10), "b"); // same deadline: arming order decides
        w.schedule(at(5), "c");
        w.refresh(a, at(10)); // same deadline, later tie-break: now fires after b
        let d = w.schedule(at(20), "d");
        w.cancel(d); // leaves a tombstone in the heap

        let snap = w.snapshot();
        assert_eq!(snap.entries.len(), 3, "tombstones are not captured");
        let mut restored = TimerWheel::restore(&snap);

        let original: Vec<_> = w.drain_due(at(100));
        let recovered: Vec<_> = restored.drain_due(at(100));
        assert_eq!(original, recovered);
        assert_eq!(original.iter().map(|&(_, _, p)| p).collect::<Vec<_>>(), vec!["c", "b", "a"]);

        // Counters survive: the next schedule gets the id the original wheel
        // would have handed out (a,b,c,d consumed raw ids 0..4).
        let mut w2 = TimerWheel::restore(&snap);
        assert_eq!(w2.schedule(at(1), "x"), TimerId::from_raw(b.to_raw() + 3));
    }

    #[test]
    fn an_image_rewritten_in_place_equals_a_fresh_snapshot() {
        // One image, rewritten after each step, keeps its allocation and
        // always equals a snapshot taken from scratch.
        let mut w = TimerWheel::new();
        let mut image = TimerWheelSnapshot::default();
        let ids: Vec<TimerId> = (0..40u64).map(|i| w.schedule(at(i % 9), i)).collect();
        w.snapshot_into(&mut image);
        assert_eq!(image, w.snapshot());
        let block = image.entries.as_ptr();
        for (i, &id) in ids.iter().enumerate().step_by(3) {
            if i % 2 == 0 {
                w.cancel(id);
            } else {
                w.refresh(id, at(50 + i as u64));
            }
            w.snapshot_into(&mut image);
            assert_eq!(image, w.snapshot(), "after step {i}");
        }
        w.drain_due(at(8));
        w.snapshot_into(&mut image);
        assert_eq!(image, w.snapshot());
        assert_eq!(image.entries.as_ptr(), block, "the entry list was reallocated");
    }

    #[test]
    fn snapshot_of_empty_wheel_roundtrips() {
        let w = TimerWheel::<u32>::new();
        let snap = w.snapshot();
        assert!(snap.entries.is_empty());
        let mut r = TimerWheel::restore(&snap);
        assert!(r.is_empty());
        assert!(r.pop_due(at(1_000)).is_none());
    }

    #[test]
    fn restore_then_mutate_matches_uninterrupted() {
        // Drive two wheels with the same operations, snapshotting/restoring
        // one of them halfway; both must fire identically afterwards.
        let mut reference = TimerWheel::new();
        let mut subject = TimerWheel::new();
        let mut ids = (Vec::new(), Vec::new());
        for i in 0..50u64 {
            ids.0.push(reference.schedule(at(i % 7), i));
            ids.1.push(subject.schedule(at(i % 7), i));
        }
        for i in (0..50).step_by(3) {
            reference.refresh(ids.0[i], at(40 + i as u64));
            subject.refresh(ids.1[i], at(40 + i as u64));
        }
        let mut subject = TimerWheel::restore(&subject.snapshot());
        for i in (0..50).step_by(7) {
            reference.cancel(ids.0[i]);
            subject.cancel(ids.1[i]);
        }
        reference.schedule(at(3), 999);
        subject.schedule(at(3), 999);
        let a: Vec<_> = reference.drain_due(at(500)).into_iter().map(|(_, d, p)| (d, p)).collect();
        let b: Vec<_> = subject.drain_due(at(500)).into_iter().map(|(_, d, p)| (d, p)).collect();
        assert_eq!(a, b);
    }

    // Differential property test: the wheel behaves like a naive sorted list.
    #[test]
    fn differential_against_naive_model() {
        use proptest::prelude::*;
        proptest!(|(ops in proptest::collection::vec((0u8..4, 0u64..64), 1..200))| {
            let mut wheel = TimerWheel::new();
            let mut model: Vec<(Instant, u64, TimerId)> = Vec::new(); // (deadline, seq, id)
            let mut ids: Vec<TimerId> = Vec::new();
            let mut seq = 0u64;
            let mut now = Instant::ZERO;
            for (op, arg) in ops {
                match op {
                    0 => { // schedule
                        let dl = now + Duration::from_millis(arg);
                        let id = wheel.schedule(dl, ());
                        model.push((dl, seq, id));
                        seq += 1;
                        ids.push(id);
                    }
                    1 => { // cancel arbitrary
                        if !ids.is_empty() {
                            let id = ids[arg as usize % ids.len()];
                            let in_model = model.iter().any(|&(_, _, i)| i == id);
                            let cancelled = wheel.cancel(id).is_some();
                            prop_assert_eq!(cancelled, in_model);
                            model.retain(|&(_, _, i)| i != id);
                        }
                    }
                    2 => { // refresh arbitrary
                        if !ids.is_empty() {
                            let id = ids[arg as usize % ids.len()];
                            let dl = now + Duration::from_millis(arg + 1);
                            let ok = wheel.refresh(id, dl);
                            let in_model = model.iter().any(|&(_, _, i)| i == id);
                            prop_assert_eq!(ok, in_model);
                            if in_model {
                                // refresh keeps original sequence position for
                                // same-deadline ties? No: re-push means a new
                                // heap entry, so ties break by the *new* seq.
                                model.retain(|&(_, _, i)| i != id);
                                model.push((dl, seq, id));
                            }
                            seq += 1;
                        }
                    }
                    _ => { // advance time and drain
                        now += Duration::from_millis(arg);
                        let mut due: Vec<_> =
                            model.iter().copied().filter(|&(d, _, _)| d <= now).collect();
                        due.sort();
                        model.retain(|&(d, _, _)| d > now);
                        let fired: Vec<TimerId> =
                            wheel.drain_due(now).into_iter().map(|(i, _, _)| i).collect();
                        let expect: Vec<TimerId> = due.into_iter().map(|(_, _, i)| i).collect();
                        prop_assert_eq!(fired, expect);
                    }
                }
            }
        });
    }
}
