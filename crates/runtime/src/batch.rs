//! Zero-copy batch hand-off between the session and its shards.
//!
//! Events are staged **once** in an [`Arena`] block; each destination
//! shard receives a [`Batch`] — an `Arc` handle onto the shared
//! [`EventBlock`] plus the `(seq, mask, index)` triples ([`ItemRef`])
//! selecting the events that shard must run. An event fed to an N-shard
//! session is cloned exactly once (into the block), never per shard.

use std::sync::Arc;
use swmon_core::{MonitorSnapshot, Property, SpawnIndex};
use swmon_sim::trace::NetEvent;
use swmon_telemetry::EngineProbe;

/// An immutable slab of events shared by every shard of one dispatch
/// round.
#[derive(Debug)]
pub(crate) struct EventBlock {
    events: Vec<NetEvent>,
}

impl EventBlock {
    /// The staged events, in input order.
    pub(crate) fn events(&self) -> &[NetEvent] {
        &self.events
    }
}

/// One routed event inside a [`Batch`]: a handle into the shared block,
/// never a copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ItemRef {
    /// Global input sequence number (position in the fed trace).
    pub(crate) seq: u64,
    /// Bitmask of property indices this shard must run the event through.
    pub(crate) mask: u64,
    /// Index of the event in the batch's [`EventBlock`].
    pub(crate) idx: u32,
}

/// The unit of session→shard hand-off: a shared event slab and this
/// shard's selection over it.
#[derive(Debug)]
pub(crate) struct Batch {
    /// The shared event slab.
    pub(crate) block: Arc<EventBlock>,
    /// This shard's selection, in global sequence order.
    pub(crate) items: Vec<ItemRef>,
}

/// Stages each fed event once and accumulates per-shard [`ItemRef`]
/// selections until the block is worth dispatching ([`Arena::seal`]).
///
/// The caller routes — and class-mask-filters — *before* staging: an
/// event whose masks are all zero never enters the arena, so no shard
/// ever sees it.
#[derive(Debug)]
pub(crate) struct Arena {
    events: Vec<NetEvent>,
    pending: Vec<Vec<ItemRef>>,
    capacity: usize,
    /// Sequence number of the oldest staged event (bounded-staleness
    /// clock); `None` while empty.
    first_seq: Option<u64>,
}

impl Arena {
    /// An arena for `shards` shards sealing blocks of up to `capacity`
    /// events.
    pub(crate) fn new(shards: usize, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Arena {
            events: Vec::with_capacity(capacity),
            pending: (0..shards).map(|_| Vec::with_capacity(capacity)).collect(),
            capacity,
            first_seq: None,
        }
    }

    /// Stage one event for every shard with a non-zero mask (the event is
    /// cloned exactly once, into the block). Returns `true` when the
    /// block is full and must be sealed.
    #[must_use]
    pub(crate) fn push(&mut self, seq: u64, ev: &NetEvent, masks: &[u64]) -> bool {
        debug_assert!(masks.iter().any(|&m| m != 0), "fully masked events are filtered pre-arena");
        let idx = self.events.len() as u32;
        self.events.push(ev.clone());
        self.first_seq.get_or_insert(seq);
        for (shard, &mask) in masks.iter().enumerate() {
            if mask != 0 {
                self.pending[shard].push(ItemRef { seq, mask, idx });
            }
        }
        self.events.len() >= self.capacity
    }

    /// True when the oldest staged event is `limit` or more input ticks
    /// behind `seq_now` — the bounded-staleness trigger. Uses input
    /// sequence numbers, so it fires even when every later event was
    /// class-filtered before the arena.
    pub(crate) fn stale(&self, seq_now: u64, limit: u64) -> bool {
        self.first_seq.is_some_and(|first| seq_now.saturating_sub(first) >= limit)
    }

    /// Seal the block: one `Arc` of the slab shared across one [`Batch`]
    /// per shard that has staged items, in shard order; what replaces a
    /// handed-over selection is pre-sized for a full block.
    pub(crate) fn seal(&mut self) -> Vec<(usize, Batch)> {
        if self.events.is_empty() {
            return Vec::new();
        }
        let block = Arc::new(EventBlock {
            events: std::mem::replace(&mut self.events, Vec::with_capacity(self.capacity)),
        });
        self.first_seq = None;
        self.pending
            .iter_mut()
            .enumerate()
            .filter(|(_, items)| !items.is_empty())
            .map(|(shard, items)| {
                let items = std::mem::replace(items, Vec::with_capacity(self.capacity));
                (shard, Batch { block: block.clone(), items })
            })
            .collect()
    }
}

/// What a quiesced shard reports back to the deploying session: a copy
/// of the images of the checkpoint it forced once the journal was fully
/// drained — a consistent snapshot of every hosted monitor, and the one
/// the shard itself would recover from.
#[derive(Debug)]
pub(crate) struct QuiesceAck {
    /// `(global property index, image)` for every monitor this shard
    /// hosts, under the *current* (pre-deploy) epoch's indexing.
    pub(crate) snapshots: Vec<(usize, MonitorSnapshot)>,
    /// Wall-clock nanoseconds the shard spent quiescing (journal drain +
    /// forced checkpoint + a copy of its images).
    pub(crate) quiesce_nanos: u64,
}

/// One shard's slice of a catalog epoch: what it hosts and how to find
/// it. Built by the session (`shard_layout`) for the initial epoch and for
/// every deploy; the supervisor builds its monitors from it.
#[derive(Debug)]
pub(crate) struct ShardLayout {
    /// `(global property index, property)` pairs hosted on this shard.
    pub(crate) props: Vec<(usize, Property)>,
    /// `lut[global]` locates the local replica (`None`: not hosted here).
    pub(crate) lut: Vec<Option<usize>>,
    /// `probes[local]` is the local replica's engine probe: the hub's one
    /// probe for the property's name, whichever epoch introduced it.
    pub(crate) probes: Vec<Arc<EngineProbe>>,
    /// The hosted properties' spawn index, at their global bit positions
    /// (the router's masks): which idle replicas an event can move.
    pub(crate) spawn: SpawnIndex,
}

impl ShardLayout {
    /// A layout hosting `props`, with its spawn index built over them.
    pub(crate) fn new(
        props: Vec<(usize, Property)>,
        lut: Vec<Option<usize>>,
        probes: Vec<Arc<EngineProbe>>,
    ) -> Self {
        let spawn = SpawnIndex::new(props.iter().map(|(g, p)| (*g, p)));
        ShardLayout { props, lut, probes, spawn }
    }
}

/// The new shard configuration staged by a deploy's prepare phase. Built
/// by the session from the next [`swmon_core::CatalogEpoch`] and the
/// quiesce snapshots; the supervisor constructs the new monitor set from
/// it **without mutating live state**, so an abort rolls back for free.
#[derive(Debug)]
pub(crate) struct ShardPrepare {
    /// The epoch this preparation targets.
    pub(crate) epoch: u64,
    /// What this shard hosts under the new epoch (new global indices).
    pub(crate) layout: ShardLayout,
    /// Snapshots to restore into the new monitor set, keyed by **new**
    /// global index: retained properties carry their instance state across
    /// the deploy (re-homed here when a pinned property's shard mapping
    /// changed). Added/upgraded properties are absent — they start fresh.
    pub(crate) adopt: Vec<(usize, MonitorSnapshot)>,
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
    fn arena_shares_one_block_across_shards() {
        let mut arena = Arena::new(3, 3);
        assert!(!arena.push(0, &ev(10), &[1, 0, 4]));
        assert!(!arena.push(1, &ev(20), &[0, 2, 0]));
        assert!(arena.push(2, &ev(30), &[1, 2, 4]), "third event fills the block");
        let sealed = arena.seal();
        assert!(arena.seal().is_empty(), "sealing empties the arena");
        // Shards 0, 1, 2 all staged something.
        assert_eq!(sealed.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![0, 1, 2]);
        // One slab, shared: 3 batch handles + the local `block` binding.
        let block = sealed[0].1.block.clone();
        assert_eq!(Arc::strong_count(&block), 4);
        assert_eq!(block.events().len(), 3);
        // Shard 0 selected events 0 and 2; refs resolve into the slab.
        let items = &sealed[0].1.items;
        assert_eq!(items.iter().map(|r| (r.seq, r.idx)).collect::<Vec<_>>(), vec![(0, 0), (2, 2)]);
        assert_eq!(items.iter().map(|r| r.mask).collect::<Vec<_>>(), vec![1, 1]);
        // Refs resolve into the slab without copying the event.
        assert_eq!(block.events()[items[1].idx as usize].time.as_nanos(), 30);
    }

    #[test]
    fn staleness_clock_tracks_the_oldest_staged_event() {
        let mut arena = Arena::new(2, 64);
        assert!(!arena.stale(100, 8), "empty arena is never stale");
        let _ = arena.push(5, &ev(10), &[1, 0]);
        assert!(!arena.stale(12, 8));
        assert!(arena.stale(13, 8), "oldest item is 8 ticks behind");
        // Later pushes do not reset the clock.
        let _ = arena.push(12, &ev(20), &[0, 1]);
        assert!(arena.stale(13, 8));
        // Sealing does.
        assert_eq!(arena.seal().len(), 2);
        assert!(!arena.stale(1_000, 8));
    }

    #[test]
    fn sealed_refs_carry_seq_mask_and_slab_slot() {
        let mut arena = Arena::new(1, 4);
        let _ = arena.push(7, &ev(42), &[1]);
        let (_, batch) = arena.seal().pop().unwrap();
        let r = batch.items[0];
        assert_eq!((r.seq, r.mask, r.idx), (7, 1, 0));
        assert_eq!(batch.block.events()[r.idx as usize].time, ev(42).time);
    }
}
