//! The ingress filter: which properties an event can affect.

use swmon_core::{MonitorConfig, Property, RoutingPlan, SpawnIndex, MAX_PROPERTIES};
use swmon_packet::Field;
use swmon_sim::trace::NetEvent;

/// Properties whose instances are named by the same set of fields: an
/// event lacking one of `fields` can touch an instance of none of
/// `members`.
#[derive(Debug, Clone)]
struct KeyCheck {
    /// Sorted and deduplicated.
    fields: Vec<Field>,
    members: u64,
}

/// Computes, for each event, the properties it must be run through.
///
/// The answer starts from the catalog's [`SpawnIndex::reachable`] — the
/// properties whose patterns the event's class can satisfy — and clears a
/// property's bit when the event lacks one of its instance-key fields
/// ([`RoutingPlan::key_fields`]): every guard of such a property binds
/// every key field, so the event can neither spawn, advance, clear nor
/// evict one of its instances. Properties sharing a key-field set are
/// checked once, so the per-event cost is one presence test per distinct
/// set, and no hash.
#[derive(Debug, Clone)]
pub struct Router {
    /// The catalog's spawn index, property `i` at bit `i`.
    index: SpawnIndex,
    keys: Vec<KeyCheck>,
}

impl Router {
    /// The filter for `props`. `cfg` and `shards` are not read: a session
    /// is one partition whatever the configuration (kept for callers that
    /// still pass them).
    ///
    /// # Panics
    /// If `props.len() > MAX_PROPERTIES` (checked earlier by the runtime
    /// constructor, which reports it as an error).
    pub fn new(props: &[Property], _cfg: &MonitorConfig, _shards: usize) -> Router {
        assert!(props.len() <= MAX_PROPERTIES);
        let mut keys: Vec<KeyCheck> = Vec::new();
        for (i, p) in props.iter().enumerate() {
            let mut fields = RoutingPlan::of(p).key_fields().to_vec();
            if fields.is_empty() {
                continue;
            }
            fields.sort_unstable();
            fields.dedup();
            match keys.iter_mut().find(|k| k.fields == fields) {
                Some(k) => k.members |= 1u64 << i,
                None => keys.push(KeyCheck { fields, members: 1u64 << i }),
            }
        }
        Router { index: SpawnIndex::new(props.iter().enumerate()), keys }
    }

    /// Write to `out[0]` the bitmask of properties `ev` must be run
    /// through (see [`Router`]); 0 when it can affect none.
    pub fn masks(&self, ev: &NetEvent, out: &mut [u64]) {
        out[0] = self.mask(ev);
    }

    /// The bitmask of properties `ev` must be run through.
    pub(crate) fn mask(&self, ev: &NetEvent) -> u64 {
        let mut mask = self.index.reachable(ev);
        for k in &self.keys {
            if k.members & mask != 0 && !k.fields.iter().all(|&f| ev.field(f).is_some()) {
                mask &= !k.members;
            }
        }
        mask
    }

    /// Distinct key-field sets checked per event.
    pub fn dispatch_groups(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use swmon_core::{var, Atom, EventPattern, Guard, Stage};
    use swmon_packet::{Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
    use swmon_sim::time::Instant;
    use swmon_sim::trace::{EgressAction, NetEventKind, OobEvent, PacketId, PortNo, SwitchId};

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

    fn tcp(src: u8, dst: u8) -> Arc<swmon_packet::Packet> {
        Arc::new(PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, src),
            MacAddr::new(2, 0, 0, 0, 0, dst),
            Ipv4Address::new(10, 0, 0, src),
            Ipv4Address::new(10, 0, 0, dst),
            1000,
            80,
            TcpFlags::SYN,
            &[],
        ))
    }

    fn arrival(src: u8, dst: u8) -> NetEvent {
        let kind = NetEventKind::Arrival {
            switch: SwitchId(0),
            port: PortNo(1),
            pkt: tcp(src, dst),
            id: PacketId(7),
        };
        NetEvent { time: Instant::ZERO, kind }
    }

    fn mask(router: &Router, ev: &NetEvent) -> u64 {
        let mut out = [u64::MAX];
        router.masks(ev, &mut out);
        assert_eq!(out[0], router.mask(ev));
        out[0]
    }

    #[test]
    fn class_masked_events_need_no_delivery() {
        // Both properties observe only arrivals; a departure's class bit
        // misses their masks, so the router delivers it nowhere — under a
        // capacity bound too.
        let p0 = two_stage(&[("A", Field::Ipv4Src)], &[("A", Field::Ipv4Src)]);
        let p1 = two_stage(&[("B", Field::Ipv4Dst)], &[("B", Field::Ipv4Dst)]);
        let departure = NetEvent {
            time: Instant::ZERO,
            kind: NetEventKind::Departure {
                switch: SwitchId(0),
                pkt: tcp(1, 2),
                id: PacketId(7),
                action: EgressAction::Output(PortNo(2)),
            },
        };
        for cfg in
            [MonitorConfig::default(), MonitorConfig { capacity: Some(4), ..Default::default() }]
        {
            let router = Router::new(&[p0.clone(), p1.clone()], &cfg, 4);
            assert_eq!(mask(&router, &departure), 0);
            assert_eq!(mask(&router, &arrival(1, 2)), 0b11, "arrivals still route");
        }
    }

    #[test]
    fn identical_dispatch_rules_group_without_changing_masks() {
        // Two properties keyed on the same field are one check; a third on
        // a different key stays separate, and a keyless one needs none. A
        // symmetric key is the same field set as the exact one over it.
        let p0 = two_stage(&[("A", Field::Ipv4Src)], &[("A", Field::Ipv4Src)]);
        let p1 = two_stage(&[("X", Field::Ipv4Src)], &[("X", Field::Ipv4Src)]);
        let p2 = two_stage(&[("B", Field::Ipv4Dst)], &[("B", Field::Ipv4Dst)]);
        let keyless = two_stage(&[], &[]);
        let cfg = MonitorConfig::default();
        let grouped = Router::new(&[p0.clone(), p1, p2, keyless], &cfg, 1);
        assert_eq!(grouped.dispatch_groups(), 2);
        for (src, dst) in [(1, 2), (3, 9), (7, 7), (42, 1)] {
            assert_eq!(mask(&grouped, &arrival(src, dst)), 0b1111);
        }
        let pair = |a: Field, b: Field| two_stage(&[("A", a), ("B", b)], &[("A", a), ("B", b)]);
        let exact = pair(Field::Ipv4Src, Field::Ipv4Dst);
        let symmetric = two_stage(
            &[("A", Field::Ipv4Src), ("B", Field::Ipv4Dst)],
            &[("B", Field::Ipv4Src), ("A", Field::Ipv4Dst)],
        );
        let reversed = pair(Field::Ipv4Dst, Field::Ipv4Src);
        assert_eq!(Router::new(&[exact, symmetric, reversed, p0], &cfg, 1).dispatch_groups(), 2);
    }

    #[test]
    fn events_lacking_a_key_field_are_filtered_per_property() {
        // A link event carries no packet: a keyless property observing it
        // still sees it, a keyed one cannot — whatever the capacity bound.
        let keyed = Stage::match_(
            "a",
            EventPattern::OutOfBand(swmon_core::OobPattern::PortDown),
            Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
        );
        let bare = Stage::match_(
            "a",
            EventPattern::OutOfBand(swmon_core::OobPattern::PortDown),
            Guard::new(vec![]),
        );
        let oob = |stage: Stage| Property {
            name: "link".into(),
            statement: String::new(),
            stages: vec![stage.clone(), stage],
        };
        let down = NetEvent {
            time: Instant::ZERO,
            kind: NetEventKind::OutOfBand(OobEvent::PortDown(SwitchId(0), PortNo(1))),
        };
        let cfg = MonitorConfig { capacity: Some(4), ..Default::default() };
        let router = Router::new(&[oob(keyed), oob(bare)], &cfg, 1);
        assert_eq!(mask(&router, &down), 0b10);

        let by_xid = two_stage(&[("X", Field::DhcpXid)], &[("X", Field::DhcpXid)]);
        let router = Router::new(&[by_xid], &cfg, 1);
        assert_eq!(mask(&router, &arrival(1, 2)), 0, "a TCP packet carries no DHCP xid");
        let by_src = two_stage(&[("A", Field::Ipv4Src)], &[("A", Field::Ipv4Src)]);
        let router = Router::new(&[by_src], &cfg, 1);
        assert_eq!(mask(&router, &arrival(1, 2)), 1);
    }

    #[test]
    fn zero_shards_route_like_one() {
        // `shards` is not read: 0, 1 and 8 build the same filter.
        let p0 = two_stage(&[("A", Field::Ipv4Src)], &[("A", Field::Ipv4Src)]);
        let p1 = two_stage(&[("B", Field::Ipv4Dst)], &[("B", Field::Ipv4Dst)]);
        let cfg = MonitorConfig::default();
        for shards in [0, 1, 8] {
            let router = Router::new(&[p0.clone(), p1.clone()], &cfg, shards);
            assert_eq!(mask(&router, &arrival(1, 2)), 0b11, "{shards} shards");
        }
    }
}
