//! [`SpawnIndex`]: which monitors of a bank an event can move.
//!
//! A monitor with no live instance and no pending effect (an *idle* one,
//! [`crate::Monitor::is_idle`]) can react to an event only by spawning in
//! its stage 0. Skipping it on any other event changes nothing it would
//! report: every instance bucket is empty, so no instance is gathered; the
//! spawn guard fails; its clock catch-up, made on its next delivered
//! event, fires only stale timers; and merge keys carry no `seq`. That is
//! the argument of class-mask pre-dispatch carried one step further, from
//! "the event's class misses every pattern" to "the event cannot spawn and
//! there is nothing else to move".
//!
//! The index is one match program over many properties, in the shape of a
//! shared match table keyed by a discriminating header field: each
//! property contributes one necessary condition of its stage-0 guard, and
//! the conditions are grouped by field, so an event reads each
//! discriminating field at most once however many properties test it.
//! Every answer is a superset; the engine still evaluates the full guard.

use crate::guard::Atom;
use crate::pattern::{event_class, EVENT_CLASSES};
use crate::property::{Property, StageKind};
use swmon_packet::{Field, FieldValue, Layer};
use swmon_sim::trace::NetEvent;

/// Most properties one [`SpawnIndex`] — and so one [`crate::MonitorSet`]
/// or one sharded runtime — covers: each is a bit of a `u64`.
pub const MAX_PROPERTIES: usize = 64;

/// One discriminating field and the properties whose spawn reads it.
#[derive(Debug, Clone)]
struct FieldTest {
    field: Field,
    /// Every property tested on this field.
    members: u64,
    /// Properties whose spawn needs only the field to be present.
    present: u64,
    /// Properties whose spawn needs the field to equal a value; each value
    /// appears once.
    eq: Vec<(FieldValue, u64)>,
}

/// Cross-property dispatch index over up to [`MAX_PROPERTIES`] properties,
/// each at the bit position it was inserted under.
#[derive(Debug, Clone, Default)]
pub struct SpawnIndex {
    /// `reach[c]`: properties with any pattern in event class `c`.
    reach: [u64; EVENT_CLASSES],
    /// `spawn[c]`: properties whose stage-0 pattern admits class `c`.
    spawn: [u64; EVENT_CLASSES],
    /// Properties whose stage 0 offers no discriminating condition.
    open: u64,
    tests: Vec<FieldTest>,
}

/// A stage-0 condition every spawning event satisfies: the first constant
/// comparison, else the presence of the deepest bound field. `None` when
/// the guard has neither above L2 — Ethernet and metadata fields are
/// present on every parsed frame and would discriminate nothing.
fn discriminator(p: &Property) -> Option<(Field, Option<FieldValue>)> {
    let StageKind::Match { guard, .. } = &p.stages.first()?.kind else { return None };
    let eq = guard.atoms.iter().find_map(|a| match a {
        Atom::EqConst(f, v) => Some((*f, Some(*v))),
        _ => None,
    });
    eq.or_else(|| {
        let bound = guard.atoms.iter().filter_map(|a| match a {
            Atom::Bind(_, f) if f.layer() > Layer::L2 => Some(*f),
            _ => None,
        });
        bound.max_by_key(|f| f.layer()).map(|f| (f, None))
    })
}

fn class_of(ev: &NetEvent) -> usize {
    event_class(ev).trailing_zeros() as usize
}

impl SpawnIndex {
    /// The index over `props`, each paired with its bit position.
    ///
    /// # Panics
    /// If a position is `MAX_PROPERTIES` or more.
    pub fn new<'a>(props: impl IntoIterator<Item = (usize, &'a Property)>) -> Self {
        let mut index = SpawnIndex::default();
        for (bit, p) in props {
            index.insert(bit, p);
        }
        index
    }

    /// Add `p` at bit position `bit`.
    ///
    /// # Panics
    /// If `bit` is `MAX_PROPERTIES` or more.
    pub fn insert(&mut self, bit: usize, p: &Property) {
        assert!(bit < MAX_PROPERTIES, "property index {bit} exceeds the limit of {MAX_PROPERTIES}");
        let member = 1u64 << bit;
        let reach = p.event_class_mask();
        let spawn = match &p.stages[0].kind {
            StageKind::Match { pattern, .. } => pattern.class_mask(),
            StageKind::Deadline { .. } => 0,
        };
        for c in 0..EVENT_CLASSES {
            if reach & (1 << c) != 0 {
                self.reach[c] |= member;
            }
            if spawn & (1 << c) != 0 {
                self.spawn[c] |= member;
            }
        }
        let Some((field, value)) = discriminator(p) else {
            self.open |= member;
            return;
        };
        let i = self.tests.iter().position(|t| t.field == field).unwrap_or_else(|| {
            self.tests.push(FieldTest { field, members: 0, present: 0, eq: Vec::new() });
            self.tests.len() - 1
        });
        let test = &mut self.tests[i];
        test.members |= member;
        match value {
            None => test.present |= member,
            Some(v) => match test.eq.iter_mut().find(|(w, _)| *w == v) {
                Some((_, bits)) => *bits |= member,
                None => test.eq.push((v, member)),
            },
        }
    }

    /// Properties with some pattern — stage or clearing — that `ev`'s
    /// event class can satisfy: those outside it cannot react to `ev` at
    /// all.
    #[inline]
    pub fn reachable(&self, ev: &NetEvent) -> u64 {
        self.reach[class_of(ev)]
    }

    /// The properties among `among` in which `ev` may spawn: its class
    /// admits their stage-0 pattern and it satisfies their discriminating
    /// condition. A superset of those whose stage-0 guard holds; fields
    /// tested only for properties outside `among` are not read.
    pub fn spawnable(&self, ev: &NetEvent, among: u64) -> u64 {
        let want = among & self.spawn[class_of(ev)];
        let tested = want & !self.open;
        let mut out = want & self.open;
        for t in self.tests.iter().filter(|t| t.members & tested != 0) {
            let Some(v) = ev.field(t.field) else { continue };
            out |= t.present & tested;
            if let Some((_, bits)) = t.eq.iter().find(|(w, _)| *w == v) {
                out |= bits & tested;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PropertyBuilder;
    use crate::pattern::{ActionPattern, EventPattern};
    use std::sync::Arc;
    use swmon_packet::{Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
    use swmon_sim::time::Instant;
    use swmon_sim::trace::{EgressAction, NetEventKind, PacketId, PortNo, SwitchId};

    fn knock(port: u64) -> Property {
        PropertyBuilder::new(&format!("knock-{port}"), "")
            .observe("k", EventPattern::Arrival)
            .bind("S", Field::Ipv4Src)
            .eq(Field::L4Dst, port)
            .done()
            .observe("open", EventPattern::Departure(ActionPattern::Drop))
            .bind("S", Field::Ipv4Src)
            .done()
            .build()
            .unwrap()
    }

    fn learn() -> Property {
        PropertyBuilder::new("learn", "")
            .observe("learn", EventPattern::Arrival)
            .bind("D", Field::EthSrc)
            .done()
            .observe("flood", EventPattern::Departure(ActionPattern::Flood))
            .bind("D", Field::EthDst)
            .done()
            .build()
            .unwrap()
    }

    fn tcp_arrival(dport: u16) -> NetEvent {
        let pkt = PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, 1),
            MacAddr::new(2, 0, 0, 0, 0, 2),
            Ipv4Address::new(10, 0, 0, 1),
            Ipv4Address::new(10, 0, 0, 2),
            1000,
            dport,
            TcpFlags::SYN,
            &[],
        );
        NetEvent {
            time: Instant::ZERO,
            kind: NetEventKind::Arrival {
                switch: SwitchId(0),
                port: PortNo(1),
                pkt: Arc::new(pkt),
                id: PacketId(0),
            },
        }
    }

    #[test]
    fn equal_fields_share_one_test_and_values_select_members() {
        let (a, b, c) = (knock(7001), knock(7002), knock(7001));
        let index = SpawnIndex::new([(0, &a), (1, &b), (5, &c), (9, &learn())]);
        assert_eq!(index.tests.len(), 1, "both knock ports test l4.dst once");
        assert_eq!(index.open, 1 << 9, "an L2-only spawn is open");
        assert_eq!(index.spawnable(&tcp_arrival(7001), u64::MAX), 1 | (1 << 5) | (1 << 9));
        assert_eq!(index.spawnable(&tcp_arrival(7002), u64::MAX), (1 << 1) | (1 << 9));
        assert_eq!(index.spawnable(&tcp_arrival(80), u64::MAX), 1 << 9);
        assert_eq!(index.spawnable(&tcp_arrival(7001), 1 << 1), 0, "outside `among`");
    }

    #[test]
    fn classes_gate_both_answers() {
        let index = SpawnIndex::new([(0, &knock(7001)), (1, &learn())]);
        let mut drop = tcp_arrival(7001);
        let NetEventKind::Arrival { pkt, id, switch, .. } = drop.kind else { unreachable!() };
        drop.kind = NetEventKind::Departure { switch, pkt, id, action: EgressAction::Drop };
        assert_eq!(index.reachable(&drop), 1, "only the knock property observes drops");
        assert_eq!(index.spawnable(&drop, u64::MAX), 0, "no stage 0 is a drop");
        assert_eq!(index.reachable(&tcp_arrival(1)), 0b11);
    }

    #[test]
    #[should_panic(expected = "exceeds the limit")]
    fn bit_positions_stop_at_the_cap() {
        SpawnIndex::new([(MAX_PROPERTIES, &learn())]);
    }
}
