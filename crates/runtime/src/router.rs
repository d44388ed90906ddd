//! Event → shard dispatch.

use crate::shardkey::PropertyRoute;
use swmon_core::{MonitorConfig, Property, MAX_PROPERTIES};
use swmon_sim::trace::NetEvent;

/// Properties whose routes resolve identically for every event, dispatched
/// with a single `shard_for` evaluation. `route` is a clone of the first
/// member's route; `members` is the property bitmask the group contributes
/// to the winning shard.
#[derive(Debug, Clone)]
struct DispatchGroup {
    route: PropertyRoute,
    members: u64,
}

/// Computes, for each event, the set of shards that must see it and which
/// properties each shard runs it through.
///
/// Routes that provably dispatch identically (equal plans and class masks —
/// e.g. several properties keyed on the same flow fields) are grouped, so
/// the per-event routing cost is one hash per *distinct* dispatch rule,
/// not one per property.
#[derive(Debug, Clone)]
pub struct Router {
    routes: Vec<PropertyRoute>,
    groups: Vec<DispatchGroup>,
    shards: usize,
}

fn group(routes: &[PropertyRoute]) -> Vec<DispatchGroup> {
    let mut groups: Vec<DispatchGroup> = Vec::new();
    for (i, route) in routes.iter().enumerate() {
        match groups.iter_mut().find(|g| g.route.same_dispatch(route)) {
            Some(g) => g.members |= 1u64 << i,
            None => groups.push(DispatchGroup { route: route.clone(), members: 1u64 << i }),
        }
    }
    groups
}

impl Router {
    /// Derive placements for `props` across `shards` shards (0 is
    /// taken as 1, as in [`Router::from_routes`]).
    ///
    /// # Panics
    /// If `props.len() > MAX_PROPERTIES` (checked earlier by the runtime
    /// constructor, which reports it as an error).
    pub fn new(props: &[Property], cfg: &MonitorConfig, shards: usize) -> Router {
        assert!(props.len() <= MAX_PROPERTIES);
        let shards = shards.max(1);
        let routes = props
            .iter()
            .enumerate()
            .map(|(i, p)| PropertyRoute::for_property(i, p, cfg, shards))
            .collect::<Vec<_>>();
        let groups = group(&routes);
        Router { routes, groups, shards }
    }

    /// Assemble a router from pre-built placements (live deployment builds
    /// the next epoch's routes one property at a time, carrying retained
    /// placements across via [`PropertyRoute::reindexed`]).
    ///
    /// # Panics
    /// If `routes.len() > MAX_PROPERTIES`.
    pub fn from_routes(routes: Vec<PropertyRoute>, shards: usize) -> Router {
        assert!(routes.len() <= MAX_PROPERTIES);
        let groups = group(&routes);
        Router { routes, groups, shards: shards.max(1) }
    }

    /// Per-property placements, in property order.
    pub fn routes(&self) -> &[PropertyRoute] {
        &self.routes
    }

    /// The shard count this router was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Fill `out[s]` with the bitmask of properties shard `s` must run
    /// `ev` through. `out.len()` must equal `shards()`; previous contents
    /// are overwritten.
    pub fn masks(&self, ev: &NetEvent, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.shards);
        out.fill(0);
        for g in &self.groups {
            if let Some(s) = g.route.shard_for(ev, self.shards) {
                out[s] |= g.members;
            }
        }
    }

    /// Distinct dispatch rules (grouped identical routes count once).
    pub fn dispatch_groups(&self) -> usize {
        self.groups.len()
    }

    /// Global property indices that can ever reach shard `s`.
    pub fn properties_on(&self, s: usize) -> Vec<usize> {
        self.routes.iter().enumerate().filter(|(_, r)| r.reaches(s)).map(|(i, _)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use swmon_core::{var, Atom, EventPattern, Guard, Stage};
    use swmon_packet::{Field, Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
    use swmon_sim::time::Instant;
    use swmon_sim::trace::{NetEventKind, PacketId, PortNo, SwitchId};

    fn two_stage(binds: &[(&str, Field)], binds2: &[(&str, Field)]) -> Property {
        let stage = |name: &str, binds: &[(&str, Field)]| {
            Stage::match_(
                name,
                EventPattern::Arrival,
                Guard::new(binds.iter().map(|(v, f)| Atom::Bind(var(v), *f)).collect()),
            )
        };
        Property {
            name: "p".into(),
            statement: String::new(),
            stages: vec![stage("a", binds), stage("b", binds2)],
        }
    }

    fn arrival(src: u8, dst: u8) -> NetEvent {
        let pkt = Arc::new(PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, src),
            MacAddr::new(2, 0, 0, 0, 0, dst),
            Ipv4Address::new(10, 0, 0, src),
            Ipv4Address::new(10, 0, 0, dst),
            1000,
            80,
            TcpFlags::SYN,
            &[],
        ));
        NetEvent {
            time: Instant::ZERO,
            kind: NetEventKind::Arrival {
                switch: SwitchId(0),
                port: PortNo(1),
                pkt,
                id: PacketId(7),
            },
        }
    }

    #[test]
    fn masks_partition_properties_across_shards() {
        // Property 0: exact on Ipv4Src (hashed). Property 1: wandering
        // key (src then dst with no mirror pairing on MACs? use differing
        // vars) — exact on Ipv4Dst. Both hashed, different key fields.
        let p0 = two_stage(&[("A", Field::Ipv4Src)], &[("A", Field::Ipv4Src)]);
        let p1 = two_stage(&[("B", Field::Ipv4Dst)], &[("B", Field::Ipv4Dst)]);
        let props = vec![p0, p1];
        let router = Router::new(&props, &MonitorConfig::default(), 4);
        assert!(router.routes()[0].is_hashed());
        assert!(router.routes()[1].is_hashed());

        let ev = arrival(1, 2);
        let mut masks = vec![0u64; 4];
        router.masks(&ev, &mut masks);
        // Every property lands on exactly one shard.
        let mut seen0 = 0;
        let mut seen1 = 0;
        for m in &masks {
            if m & 1 != 0 {
                seen0 += 1;
            }
            if m & 2 != 0 {
                seen1 += 1;
            }
        }
        assert_eq!((seen0, seen1), (1, 1));

        // Same flow, same shard — deterministic.
        let mut again = vec![0u64; 4];
        router.masks(&arrival(1, 2), &mut again);
        assert_eq!(masks, again);
    }

    #[test]
    fn class_masked_events_need_no_delivery() {
        // Both properties observe only arrivals; a departure's class bit
        // misses their masks, so the router delivers it nowhere — even for
        // the pinned (capacity-bounded) placement.
        use swmon_sim::trace::EgressAction;
        let p0 = two_stage(&[("A", Field::Ipv4Src)], &[("A", Field::Ipv4Src)]);
        let p1 = two_stage(&[("B", Field::Ipv4Dst)], &[("B", Field::Ipv4Dst)]);
        let departure = NetEvent {
            time: Instant::ZERO,
            kind: NetEventKind::Departure {
                switch: SwitchId(0),
                pkt: Arc::new(PacketBuilder::tcp(
                    MacAddr::new(2, 0, 0, 0, 0, 1),
                    MacAddr::new(2, 0, 0, 0, 0, 2),
                    Ipv4Address::new(10, 0, 0, 1),
                    Ipv4Address::new(10, 0, 0, 2),
                    1000,
                    80,
                    TcpFlags::SYN,
                    &[],
                )),
                id: PacketId(7),
                action: EgressAction::Output(PortNo(2)),
            },
        };
        for cfg in
            [MonitorConfig::default(), MonitorConfig { capacity: Some(4), ..Default::default() }]
        {
            let router = Router::new(&[p0.clone(), p1.clone()], &cfg, 4);
            let mut masks = vec![u64::MAX; 4];
            router.masks(&departure, &mut masks);
            assert_eq!(masks, vec![0u64; 4]);
            let mut arr = vec![0u64; 4];
            router.masks(&arrival(1, 2), &mut arr);
            assert_ne!(arr, vec![0u64; 4], "arrivals still route");
        }
    }

    #[test]
    fn identical_dispatch_rules_group_without_changing_masks() {
        // Two hashed properties on the same key field: one dispatch group,
        // one shard_for evaluation per event. A third on a different key
        // stays separate.
        let p0 = two_stage(&[("A", Field::Ipv4Src)], &[("A", Field::Ipv4Src)]);
        let p1 = two_stage(&[("X", Field::Ipv4Src)], &[("X", Field::Ipv4Src)]);
        let p2 = two_stage(&[("B", Field::Ipv4Dst)], &[("B", Field::Ipv4Dst)]);
        let cfg = MonitorConfig::default();
        let grouped = Router::new(&[p0.clone(), p1.clone(), p2.clone()], &cfg, 4);
        assert_eq!(grouped.dispatch_groups(), 2);

        // Grouped masks equal the per-route reference on every event.
        for (src, dst) in [(1, 2), (3, 9), (7, 7), (42, 1)] {
            let ev = arrival(src, dst);
            let mut got = vec![0u64; 4];
            grouped.masks(&ev, &mut got);
            let mut want = vec![0u64; 4];
            for (i, route) in grouped.routes().iter().enumerate() {
                if let Some(s) = route.shard_for(&ev, 4) {
                    want[s] |= 1u64 << i;
                }
            }
            assert_eq!(got, want);
        }

        // Pinned placements with different home shards must not group.
        let bounded = MonitorConfig { capacity: Some(4), ..Default::default() };
        let pinned = Router::new(&[p0, p1], &bounded, 4);
        assert_eq!(pinned.dispatch_groups(), 2, "pin homes differ: shard 0 vs shard 1");
    }

    #[test]
    fn zero_shards_route_like_one() {
        // One hashed and one pinned placement: a hashed route used to
        // divide by zero in `shard_for`, a pinned one to index `out[0]` of
        // an empty slice.
        let p0 = two_stage(&[("A", Field::Ipv4Src)], &[("A", Field::Ipv4Src)]);
        let p1 = two_stage(&[("B", Field::Ipv4Dst)], &[("B", Field::Ipv4Dst)]);
        let bounded = MonitorConfig { capacity: Some(4), ..Default::default() };
        for cfg in [MonitorConfig::default(), bounded] {
            let zero = Router::new(&[p0.clone(), p1.clone()], &cfg, 0);
            let one = Router::new(&[p0.clone(), p1.clone()], &cfg, 1);
            assert_eq!(zero.shards(), 1);
            let (mut got, mut want) = ([0u64], [0u64]);
            zero.masks(&arrival(1, 2), &mut got);
            one.masks(&arrival(1, 2), &mut want);
            assert_eq!(got, want);
            assert_eq!(got, [0b11]);
        }
    }

    #[test]
    fn properties_on_lists_hashed_everywhere_and_pinned_once() {
        let p0 = two_stage(&[("A", Field::Ipv4Src)], &[("A", Field::Ipv4Src)]);
        let p1 = two_stage(&[("B", Field::Ipv4Dst)], &[("B", Field::Ipv4Dst)]);
        let props = vec![p0, p1];
        let bounded = MonitorConfig { capacity: Some(4), ..Default::default() };
        let router = Router::new(&props, &bounded, 3);
        // Capacity forces both properties onto their home shards.
        assert_eq!(router.properties_on(0), vec![0]);
        assert_eq!(router.properties_on(1), vec![1]);
        assert!(router.properties_on(2).is_empty());
    }
}
