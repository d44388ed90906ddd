//! [`MonitorSet`]: run many property monitors as one event sink.
//!
//! A deployment monitors a whole catalog of properties at once — the paper's
//! Table 1 is thirteen of them. `MonitorSet` fans each event out to every
//! member monitor (each with its own configuration), aggregates violations
//! in detection order, and sums the state footprint — the number an
//! operator sizing switch memory actually needs.

use crate::engine::{Monitor, MonitorConfig};
use crate::property::Property;
use crate::spawn::SpawnIndex;
use crate::violation::Violation;
use swmon_sim::time::Instant;
use swmon_sim::trace::{EventSink, NetEvent};

/// A bank of monitors driven by one event stream.
#[derive(Default)]
pub struct MonitorSet {
    monitors: Vec<Monitor>,
    /// The members' spawn index, member `i` at bit `i`: an event visits a
    /// member only if its class reaches one of the member's patterns and
    /// the member is busy or the event may spawn in it (pre-dispatch, see
    /// [`crate::spawn`]). Timers are unaffected — they fire from the clock,
    /// which [`Monitor::process`] and [`MonitorSet::advance_to`] still
    /// advance on delivered events.
    index: SpawnIndex,
}

impl MonitorSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a property with its own configuration.
    ///
    /// # Panics
    /// If the set already holds [`crate::MAX_PROPERTIES`] members: each is one bit
    /// of the spawn index, which asserts the cap.
    pub fn add(&mut self, property: Property, cfg: MonitorConfig) -> &mut Self {
        self.index.insert(self.monitors.len(), &property);
        self.monitors.push(Monitor::new(property, cfg));
        self
    }

    /// Add a property with the default configuration.
    pub fn add_default(&mut self, property: Property) -> &mut Self {
        self.add(property, MonitorConfig::default())
    }

    /// Build from an iterator of properties (default configuration).
    pub fn from_properties(props: impl IntoIterator<Item = Property>) -> Self {
        let mut set = Self::new();
        for p in props {
            set.add_default(p);
        }
        set
    }

    /// Number of member monitors.
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// True when no monitors are registered.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }

    /// The member monitors, for per-property inspection.
    pub fn monitors(&self) -> &[Monitor] {
        &self.monitors
    }

    /// The member monitors, mutably: the spawn index reads only their
    /// properties, which a monitor never changes.
    pub fn monitors_mut(&mut self) -> &mut [Monitor] {
        &mut self.monitors
    }

    /// Process one event through every monitor it can move: one whose
    /// property can react to its event class and that is busy, or idle
    /// with a stage 0 the event may spawn in. Results are identical to
    /// unconditional fan-out: a skipped member would have produced no
    /// effects (its clock catches up — with timers firing at their own
    /// deadlines — on its next delivered event or
    /// [`MonitorSet::advance_to`]).
    pub fn process(&mut self, ev: &NetEvent) {
        self.process_masked(ev, u64::MAX, |_, m| m.process(ev));
    }

    /// The one visit loop: hand `visit` each member among `among` (bit
    /// `i` is member `i`) that `ev` can move, in member order — reachable
    /// by its class, and busy or with a stage 0 `ev` may spawn in (the
    /// index is asked that at most once per event). `visit` does the
    /// delivery, so a caller can time it or collect what it raised.
    pub fn process_masked(
        &mut self,
        ev: &NetEvent,
        among: u64,
        mut visit: impl FnMut(usize, &mut Monitor),
    ) {
        let mut mask = among & self.index.reachable(ev);
        let mut spawnable = None;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            let m = &mut self.monitors[i];
            if !m.is_idle()
                || *spawnable.get_or_insert_with(|| self.index.spawnable(ev, mask)) & (1 << i) != 0
            {
                visit(i, m);
            }
            mask &= mask - 1;
        }
    }

    /// Advance every monitor's clock (flush deadlines at end of trace).
    pub fn advance_to(&mut self, t: Instant) {
        for m in &mut self.monitors {
            m.advance_to(t);
        }
    }

    /// All violations across the set, sorted by detection time (stable by
    /// member order for simultaneous detections).
    pub fn violations(&self) -> Vec<&Violation> {
        let mut all: Vec<&Violation> =
            self.monitors.iter().flat_map(|m| m.violations().iter()).collect();
        all.sort_by_key(|v| v.time);
        all
    }

    /// Violation count per property name.
    pub fn counts(&self) -> Vec<(&str, usize)> {
        self.monitors.iter().map(|m| (m.property().name.as_str(), m.violations().len())).collect()
    }

    /// Total live instances across the set.
    pub fn live_instances(&self) -> usize {
        self.monitors.iter().map(Monitor::live_instances).sum()
    }

    /// Total approximate state bytes across the set — what the whole
    /// catalog costs the switch.
    pub fn state_bytes(&self) -> usize {
        self.monitors.iter().map(Monitor::state_bytes).sum()
    }
}

impl EventSink for MonitorSet {
    fn on_event(&mut self, ev: &NetEvent) {
        self.process(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PropertyBuilder;
    use crate::pattern::{ActionPattern, EventPattern};
    use swmon_packet::{Field, Ipv4Address, MacAddr, PacketBuilder, TcpFlags};
    use swmon_sim::{Duration, EgressAction, PortNo, TraceBuilder};

    fn fw() -> Property {
        PropertyBuilder::new("fw", "")
            .observe("out", EventPattern::Arrival)
            .eq(Field::InPort, 0u64)
            .bind("A", Field::Ipv4Src)
            .bind("B", Field::Ipv4Dst)
            .done()
            .observe("drop", EventPattern::Departure(ActionPattern::Drop))
            .bind("B", Field::Ipv4Src)
            .bind("A", Field::Ipv4Dst)
            .done()
            .build()
            .unwrap()
    }

    fn floods() -> Property {
        PropertyBuilder::new("no-floods", "")
            .observe("flooded", EventPattern::Departure(ActionPattern::Flood))
            .done()
            .build()
            .unwrap()
    }

    /// Spawns only on an arrival to port 443.
    fn https() -> Property {
        PropertyBuilder::new("https", "")
            .observe("hello", EventPattern::Arrival)
            .eq(Field::L4Dst, 443u64)
            .bind("A", Field::Ipv4Src)
            .done()
            .observe("drop", EventPattern::Departure(ActionPattern::Drop))
            .bind("A", Field::Ipv4Dst)
            .done()
            .build()
            .unwrap()
    }

    #[test]
    fn set_runs_all_members_and_aggregates() {
        let mut set = MonitorSet::from_properties([fw(), floods()]);
        assert_eq!(set.len(), 2);
        let mut tb = TraceBuilder::new();
        let a = Ipv4Address::new(10, 0, 0, 1);
        let b = Ipv4Address::new(192, 0, 2, 1);
        let m1 = MacAddr::new(2, 0, 0, 0, 0, 1);
        let m2 = MacAddr::new(2, 0, 0, 0, 0, 2);
        // A flood (hits "no-floods") then a firewall violation.
        tb.arrive_depart(
            PortNo(0),
            PacketBuilder::tcp(m1, m2, a, b, 1, 2, TcpFlags::SYN, &[]),
            EgressAction::Flood,
        );
        tb.advance(Duration::from_millis(1)).arrive_depart(
            PortNo(1),
            PacketBuilder::tcp(m2, m1, b, a, 2, 1, TcpFlags::ACK, &[]),
            EgressAction::Drop,
        );
        for ev in tb.build() {
            set.process(&ev);
        }
        let counts = set.counts();
        assert_eq!(counts, vec![("fw", 1), ("no-floods", 1)]);
        // Aggregated, time-ordered: the flood fired first.
        let all = set.violations();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].property, "no-floods");
        assert_eq!(all[1].property, "fw");
        assert!(set.state_bytes() > 0 || set.live_instances() == 0);
    }

    #[test]
    fn the_visit_loop_hands_over_members_among_the_mask_in_order() {
        // A flooded arrival to port 443: the arrival may spawn in both
        // copies of fw and in https, the flood in no-floods.
        let mut set = MonitorSet::from_properties([fw(), floods(), https(), fw()]);
        let mut tb = TraceBuilder::new();
        let (m1, m2) = (MacAddr::new(2, 0, 0, 0, 0, 1), MacAddr::new(2, 0, 0, 0, 0, 2));
        let (a, b) = (Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(192, 0, 2, 1));
        tb.arrive_depart(
            PortNo(0),
            PacketBuilder::tcp(m1, m2, a, b, 1, 443, TcpFlags::SYN, &[]),
            EgressAction::Flood,
        );
        let trace = tb.build();
        let mut visits = |among: u64| {
            let mut seen = Vec::new();
            for ev in &trace {
                set.process_masked(ev, among, |i, m| {
                    seen.push(i);
                    m.process(ev);
                });
            }
            seen
        };
        assert_eq!(visits(u64::MAX), [0, 2, 3, 1], "arrival: 0, 2, 3; flood: 1");
        assert_eq!(visits(0b1010), [3, 1], "members outside `among` are never visited");
        assert_eq!(visits(0), Vec::<usize>::new());
    }

    #[test]
    fn quiet_trace_raises_nothing_and_state_stays_bounded() {
        // Fifty forwarded flows through a two-property set. (The run over
        // the real catalog is `tests/catalog_set.rs` at the workspace root.)
        let mut set = MonitorSet::from_properties(vec![fw(), floods()]);
        let mut tb = TraceBuilder::new();
        for i in 0..50u8 {
            let p = PacketBuilder::tcp(
                MacAddr::new(2, 0, 0, 0, 0, i),
                MacAddr::new(2, 0, 0, 0, 0, 99),
                Ipv4Address::new(10, 0, 3, i),
                Ipv4Address::new(10, 0, 3, 99),
                5000,
                80,
                TcpFlags::ACK,
                &[],
            );
            tb.advance(Duration::from_millis(1)).arrive_depart(
                PortNo(0),
                p,
                EgressAction::Output(PortNo(1)),
            );
        }
        for ev in tb.build() {
            set.process(&ev);
        }
        set.advance_to(swmon_sim::Instant::ZERO + Duration::from_secs(60));
        // Plain forwarded TCP violates neither property, and holds at most
        // one instance per flow.
        assert!(set.violations().is_empty(), "{:?}", set.counts());
        assert!(set.live_instances() <= 50, "{}", set.live_instances());
    }

    #[test]
    fn pre_dispatch_skips_events_without_changing_results() {
        // fw only reacts to arrivals and drops; no-floods only to floods;
        // https reacts to arrivals and drops too, but spawns only on port
        // 443, which no event goes to. Feed a mixed trace through the
        // pre-dispatching set and through plain per-monitor loops;
        // violations must be identical while the set demonstrably skipped
        // deliveries.
        let trace = {
            let mut tb = TraceBuilder::new();
            let m1 = MacAddr::new(2, 0, 0, 0, 0, 1);
            let m2 = MacAddr::new(2, 0, 0, 0, 0, 2);
            for i in 0..20u8 {
                let a = Ipv4Address::new(10, 0, 0, i);
                let b = Ipv4Address::new(192, 0, 2, 1);
                let action = match i % 3 {
                    0 => EgressAction::Output(PortNo(1)),
                    1 => EgressAction::Flood,
                    _ => EgressAction::Drop,
                };
                tb.advance(Duration::from_millis(1)).arrive_depart(
                    PortNo(0),
                    PacketBuilder::tcp(m1, m2, a, b, 1, 2, TcpFlags::SYN, &[]),
                    action,
                );
                tb.advance(Duration::from_millis(1)).arrive_depart(
                    PortNo(1),
                    PacketBuilder::tcp(m2, m1, b, a, 2, 1, TcpFlags::ACK, &[]),
                    EgressAction::Drop,
                );
            }
            tb.build()
        };
        let mut set = MonitorSet::from_properties([fw(), floods(), https()]);
        let mut alone: Vec<Monitor> =
            [fw(), floods(), https()].into_iter().map(Monitor::with_defaults).collect();
        for ev in &trace {
            set.process(ev);
            alone.iter_mut().for_each(|m| m.process(ev));
        }
        let mut want: Vec<_> = alone
            .iter()
            .flat_map(|m| m.violations())
            .map(|v| (v.time, v.property.clone()))
            .collect();
        let mut got: Vec<_> =
            set.violations().iter().map(|v| (v.time, v.property.clone())).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        // The floods monitor must have been skipped for every non-flood
        // event (arrivals, drops, unicast outputs all miss its mask).
        let skipped = set.monitors()[1].stats.events;
        assert!(
            skipped < alone[1].stats.events,
            "pre-dispatch delivered everything: {skipped} vs {}",
            alone[1].stats.events
        );
        // The https monitor stayed idle, and an idle monitor wakes only for
        // an event that may spawn in it: it examined nothing.
        assert!(alone[2].stats.events > 0, "its class reaches arrivals and drops");
        assert!(set.monitors()[2].is_idle());
        assert_eq!(set.monitors()[2].stats.events, 0, "idle, and port 2 cannot spawn");
    }
}
