//! Batch hand-off between the session and its shard.
//!
//! Events are staged **once** in an [`Arena`], each beside its input
//! sequence number and the bitmask of properties it must run through; a
//! sealed [`Batch`] moves that vector to the shard, whose journal owns it
//! until the next checkpoint.

use std::sync::Arc;
use swmon_core::{MonitorSnapshot, Property};
use swmon_sim::trace::NetEvent;
use swmon_telemetry::EngineProbe;

/// One staged event.
#[derive(Debug)]
pub(crate) struct Item {
    /// Global input sequence number (position in the fed trace).
    pub(crate) seq: u64,
    /// Bitmask of property indices the event must run through.
    pub(crate) mask: u64,
    /// The event, cloned once when it was staged.
    pub(crate) ev: NetEvent,
}

/// The unit of session→shard hand-off: staged events, in input order.
pub(crate) type Batch = Vec<Item>;

/// Stages each delivered event once until the block is worth dispatching
/// ([`Arena::seal`]).
///
/// The caller filters *before* staging: an event whose mask is zero never
/// enters the arena, so the shard never sees it.
#[derive(Debug)]
pub(crate) struct Arena {
    items: Batch,
    capacity: usize,
    /// Sequence number of the oldest staged event (bounded-staleness
    /// clock); `None` while empty.
    first_seq: Option<u64>,
}

impl Arena {
    /// An arena sealing blocks of up to `capacity` events.
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Arena { items: Vec::with_capacity(capacity), capacity, first_seq: None }
    }

    /// Stage one event (cloned exactly once, into the block). Returns
    /// `true` when the block is full and must be sealed.
    #[must_use]
    pub(crate) fn push(&mut self, seq: u64, ev: &NetEvent, mask: u64) -> bool {
        debug_assert!(mask != 0, "fully masked events are filtered pre-arena");
        self.items.push(Item { seq, mask, ev: ev.clone() });
        self.first_seq.get_or_insert(seq);
        self.items.len() >= self.capacity
    }

    /// True when the oldest staged event is `limit` or more input ticks
    /// behind `seq_now` — the bounded-staleness trigger. Uses input
    /// sequence numbers, so it fires even when every later event was
    /// class-filtered before the arena.
    pub(crate) fn stale(&self, seq_now: u64, limit: u64) -> bool {
        self.first_seq.is_some_and(|first| seq_now.saturating_sub(first) >= limit)
    }

    /// Seal the block, if anything is staged; what replaces it is
    /// pre-sized for a full block.
    pub(crate) fn seal(&mut self) -> Option<Batch> {
        if self.items.is_empty() {
            return None;
        }
        self.first_seq = None;
        Some(std::mem::replace(&mut self.items, Vec::with_capacity(self.capacity)))
    }
}

/// What a quiesced shard reports back to the deploying session: a copy
/// of the images of the checkpoint it forced once the journal was fully
/// drained — a consistent snapshot of every monitor, and the one the shard
/// itself would recover from.
#[derive(Debug)]
pub(crate) struct QuiesceAck {
    /// One image per property, at its *current* (pre-deploy) catalog
    /// position.
    pub(crate) snapshots: Vec<MonitorSnapshot>,
    /// Wall-clock nanoseconds the shard spent quiescing (journal drain +
    /// forced checkpoint + a copy of its images).
    pub(crate) quiesce_nanos: u64,
}

/// A catalog epoch as the shard hosts it: one monitor per property at its
/// catalog position, and where that monitor's engine probe is. Built by
/// the session for the initial epoch and for every deploy; the supervisor
/// builds its monitors from it.
#[derive(Debug)]
pub(crate) struct ShardLayout {
    /// The catalog, in property order, shared with the runtime.
    pub(crate) props: Arc<[Property]>,
    /// `probes[i]` is property `i`'s engine probe: the hub's one probe for
    /// the property's name, whichever epoch introduced it.
    pub(crate) probes: Vec<Arc<EngineProbe>>,
}

/// The new shard configuration staged by a deploy's prepare phase. Built
/// by the session from the next [`swmon_core::CatalogEpoch`] and the
/// quiesce snapshots; the supervisor constructs the new monitor set from
/// it **without mutating live state**, so a failed prepare rolls back for
/// free.
#[derive(Debug)]
pub(crate) struct ShardPrepare {
    /// The epoch this preparation targets.
    pub(crate) epoch: u64,
    /// The catalog under the new epoch (new property positions).
    pub(crate) layout: ShardLayout,
    /// `adopt[i]`: the image to restore new property `i` from. Retained
    /// properties carry their instance state across the deploy from the
    /// quiesce images; everything else starts fresh.
    pub(crate) adopt: Vec<Option<MonitorSnapshot>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_packet::{Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
    use swmon_sim::time::Instant;
    use swmon_sim::trace::{NetEventKind, PacketId, PortNo, SwitchId};

    fn ev(t: u64) -> NetEvent {
        let pkt = Arc::new(PacketBuilder::tcp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Address::UNSPECIFIED,
            Ipv4Address::UNSPECIFIED,
            1,
            2,
            TcpFlags::SYN,
            &[],
        ));
        NetEvent {
            time: Instant::from_nanos(t),
            kind: NetEventKind::Arrival {
                switch: SwitchId(0),
                port: PortNo(0),
                pkt,
                id: PacketId(t),
            },
        }
    }

    #[test]
    fn arena_stages_each_event_once() {
        let mut arena = Arena::new(3);
        assert!(!arena.push(0, &ev(10), 1));
        assert!(!arena.push(1, &ev(20), 2));
        let fed = ev(30);
        assert!(arena.push(2, &fed, 5), "third event fills the block");
        let sealed = arena.seal().expect("three staged events");
        assert!(arena.seal().is_none(), "sealing empties the arena");
        let staged: Vec<_> = sealed.iter().map(|r| (r.seq, r.mask, r.ev.time.as_nanos())).collect();
        assert_eq!(staged, [(0, 1, 10), (1, 2, 20), (2, 5, 30)]);
        // Staging clones the event, never its packet.
        assert!(Arc::ptr_eq(sealed[2].ev.packet().unwrap(), fed.packet().unwrap()));
    }

    #[test]
    fn staleness_clock_tracks_the_oldest_staged_event() {
        let mut arena = Arena::new(64);
        assert!(!arena.stale(100, 8), "empty arena is never stale");
        let _ = arena.push(5, &ev(10), 1);
        assert!(!arena.stale(12, 8));
        assert!(arena.stale(13, 8), "oldest item is 8 ticks behind");
        // Later pushes do not reset the clock.
        let _ = arena.push(12, &ev(20), 2);
        assert!(arena.stale(13, 8));
        // Sealing does.
        assert_eq!(arena.seal().map(|b| b.len()), Some(2));
        assert!(!arena.stale(1_000, 8));
    }

    #[test]
    fn sealed_refs_carry_seq_mask_and_slab_slot() {
        let mut arena = Arena::new(4);
        let _ = arena.push(7, &ev(42), 1);
        let _ = arena.push(9, &ev(43), 3);
        let batch = arena.seal().unwrap();
        // A staged event's slot in the block is its position in input order.
        let r = &batch[1];
        assert_eq!((r.seq, r.mask), (9, 3));
        assert_eq!(r.ev.time, ev(43).time);
    }
}
