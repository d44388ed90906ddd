//! Per-property shard placement.
//!
//! Wraps [`swmon_core::RoutingPlan`] with the runtime-level decisions the
//! core analysis cannot make on its own: which shard a pinned property
//! lives on, and configuration-driven pin overrides (a capacity-bounded
//! instance store models one shared register array, so its eviction
//! behaviour depends on the *whole* instance population — splitting it
//! across shards would change which incumbents get evicted).

use swmon_core::{event_class, MonitorConfig, Property, Route, RouteMode, RoutingPlan};
use swmon_sim::trace::NetEvent;

/// Why a property bypasses hash routing even though its plan allows it.
pub const PIN_CAPACITY: &str = "capacity-bounded instance store is shared state";

/// A property's placement policy within a fixed shard count.
#[derive(Debug, Clone)]
pub struct PropertyRoute {
    plan: RoutingPlan,
    /// Shard that hosts this property's single replica when not hashed.
    pinned_shard: usize,
    /// Set when the runtime configuration forces pinning regardless of the
    /// derived plan.
    pin_override: Option<&'static str>,
    /// [`Property::event_class_mask`] of the routed property: an event
    /// whose [`event_class`] bit misses this mask cannot match any of the
    /// property's patterns, so it needs no delivery at all (pre-dispatch).
    class_mask: u8,
}

impl PropertyRoute {
    /// Placement for `property`, at position `index` under `cfg`, across
    /// `shards` shards: the routing plan and the event-class pre-dispatch
    /// mask are both derived from the property. Pinned properties are
    /// spread round-robin.
    pub fn for_property(
        index: usize,
        property: &Property,
        cfg: &MonitorConfig,
        shards: usize,
    ) -> Self {
        PropertyRoute {
            plan: RoutingPlan::of(property),
            pinned_shard: index % shards.max(1),
            pin_override: cfg.capacity.map(|_| PIN_CAPACITY),
            class_mask: property.event_class_mask(),
        }
    }

    /// This placement carried to a new property index (live deployment
    /// compacts or extends the catalog, shifting indices). The derived
    /// plan, pre-dispatch mask, and pin override are index-independent and
    /// survive verbatim, but a pinned property's home shard is
    /// `index % shards`, so re-indexing may move it (its instance store is
    /// re-homed by the deploy's snapshot hand-off; see `docs/DEPLOY.md`).
    pub fn reindexed(&self, index: usize, shards: usize) -> Self {
        PropertyRoute { pinned_shard: index % shards.max(1), ..self.clone() }
    }

    /// The event-class bits this property can react to.
    pub fn class_mask(&self) -> u8 {
        self.class_mask
    }

    /// The derived routing plan.
    pub fn plan(&self) -> &RoutingPlan {
        &self.plan
    }

    /// True when events spread across shards by instance-key hash.
    pub fn is_hashed(&self) -> bool {
        self.pin_override.is_none() && self.plan.is_hashed()
    }

    /// The forced-pin reason, if any.
    pub fn pin_override(&self) -> Option<&'static str> {
        self.pin_override
    }

    /// The single shard hosting this property, or `None` if hashed.
    pub fn home_shard(&self) -> Option<usize> {
        if self.is_hashed() {
            None
        } else {
            Some(self.pinned_shard)
        }
    }

    /// Which shard must see `ev` for this property, if any. `None` means
    /// the event provably cannot affect any of the property's instances —
    /// its class misses every pattern, or it is missing a key field, so no
    /// guard of the property can match.
    pub fn shard_for(&self, ev: &NetEvent, shards: usize) -> Option<usize> {
        if self.class_mask & event_class(ev) == 0 {
            return None;
        }
        if self.pin_override.is_some() {
            return Some(self.pinned_shard);
        }
        match self.plan.route(ev) {
            Route::Hash(k) => Some((disperse(k) % shards as u64) as usize),
            Route::Pinned => Some(self.pinned_shard),
            Route::Skip => None,
        }
    }

    /// True if this property can ever deliver events to shard `s`.
    pub fn reaches(&self, s: usize) -> bool {
        self.is_hashed() || self.pinned_shard == s
    }

    /// True when `self` and `other` resolve [`PropertyRoute::shard_for`]
    /// identically for **every** event — the router then dispatches them
    /// as one group, computing the shard once. Requires equal class masks
    /// (same pre-dispatch filtering); pin-overridden routes must share the
    /// pinned shard (their plan is never consulted); otherwise the plans
    /// must be equal, and pinned outcomes (`Route::Pinned`) must land on
    /// the same shard.
    pub(crate) fn same_dispatch(&self, other: &PropertyRoute) -> bool {
        if self.class_mask != other.class_mask {
            return false;
        }
        match (self.pin_override, other.pin_override) {
            (Some(_), Some(_)) => self.pinned_shard == other.pinned_shard,
            (None, None) => {
                self.plan == other.plan
                    && (self.plan.is_hashed() || self.pinned_shard == other.pinned_shard)
            }
            _ => false,
        }
    }

    /// Human-readable placement description (for docs/stats dumps).
    pub fn describe(&self) -> String {
        if let Some(why) = self.pin_override {
            return format!("pinned(shard {}): {}", self.pinned_shard, why);
        }
        match self.plan.mode() {
            RouteMode::HashExact { fields } => format!("hash-exact{fields:?}"),
            RouteMode::HashSymmetric { fields, .. } => format!("hash-symmetric{fields:?}"),
            RouteMode::Pinned(reason) => format!("pinned(shard {}): {}", self.pinned_shard, reason),
        }
    }
}

/// Finalizing mixer (splitmix64) applied to the instance-key hash before
/// the shard modulus. FNV-1a folded over whole `u64` key words has weak
/// low-bit dispersion — the output's parity is a XOR of input parities, so
/// structured address pairs (e.g. consecutive A/B offsets in a workload)
/// can leave half of a power-of-two shard set idle. The mixer is a
/// bijection, so equal keys still land together; it only spreads them.
fn disperse(mut k: u64) -> u64 {
    k ^= k >> 30;
    k = k.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    k ^= k >> 27;
    k = k.wrapping_mul(0x94d0_49bb_1331_11eb);
    k ^ (k >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swmon_core::{var, Atom, EventPattern, Guard, Property, Stage};
    use swmon_packet::Field;

    fn exact_prop() -> Property {
        Property {
            name: "p".into(),
            statement: String::new(),
            stages: vec![
                Stage::match_(
                    "a",
                    EventPattern::Arrival,
                    Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
                ),
                Stage::match_(
                    "b",
                    EventPattern::Arrival,
                    Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
                ),
            ],
        }
    }

    #[test]
    fn capacity_override_pins_even_hashable_properties() {
        let prop = exact_prop();
        assert!(RoutingPlan::of(&prop).is_hashed());
        let free = MonitorConfig::default();
        let bounded = MonitorConfig { capacity: Some(8), ..Default::default() };
        let hashed = PropertyRoute::for_property(3, &prop, &free, 4);
        assert!(hashed.is_hashed());
        assert_eq!(hashed.home_shard(), None);
        let pinned = PropertyRoute::for_property(3, &prop, &bounded, 4);
        assert!(!pinned.is_hashed());
        assert_eq!(pinned.home_shard(), Some(3));
        assert_eq!(pinned.pin_override(), Some(PIN_CAPACITY));
        assert!(pinned.describe().contains("shared state"));
    }

    #[test]
    fn pinned_properties_spread_round_robin() {
        let prop = exact_prop();
        let bounded = MonitorConfig { capacity: Some(8), ..Default::default() };
        let r5 = PropertyRoute::for_property(5, &prop, &bounded, 4);
        assert_eq!(r5.home_shard(), Some(1));
        assert!(r5.reaches(1) && !r5.reaches(0));
        let hashed = PropertyRoute::for_property(5, &prop, &MonitorConfig::default(), 4);
        assert!(hashed.reaches(0) && hashed.reaches(3));
    }
}
