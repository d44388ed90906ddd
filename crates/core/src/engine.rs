//! The reference monitor engine.
//!
//! [`Monitor`] evaluates one [`Property`] over a switch event stream. It is
//! the *semantics oracle* of the workspace: every backend compilation in
//! `swmon-backends` is differential-tested against it.
//!
//! ## Instance lifecycle (Feature 8)
//!
//! Monitor state is a set of **instances** — partially completed attempts to
//! witness a violation. An event matching stage 0 spawns an instance; an
//! instance waiting at stage *k* advances when an event satisfies stage *k*'s
//! pattern and guard under its bindings; completing the final stage raises a
//! [`Violation`]. One event may advance *many* instances (multiple match) and
//! may simultaneously clear others — both orderings are fixed and
//! documented below.
//!
//! ## Event-processing order
//!
//! For an event at time *t*:
//! 1. all timers with deadline ≤ *t* fire first (a reply arriving exactly at
//!    the deadline is late);
//! 2. **clearings** run (`unless`, Feature 4) — an event that both clears
//!    and advances an instance clears it;
//! 3. **advances** run over the surviving instances (at most one stage per
//!    event per instance — observations are distinct events);
//! 4. **spawning** runs last (an event never advances the instance it
//!    spawned).
//!
//! ## Deduplication and refresh (Features 3, 7)
//!
//! Instances are keyed by `(awaiting stage, bindings)`, a key stored once,
//! in the instance: the [`DedupIndex`] holds slot numbers, not keys. A
//! spawn or advance that collides with a live instance is dropped; if the
//! incumbent's stage policy is [`RefreshPolicy::RefreshOnRepeat`] its
//! window restarts. This one rule encodes both the firewall's "reset
//! whenever a new A→B packet is seen" and the ARP proxy's
//! (T−1)-second-storm subtlety (a `NoRefresh` deadline keeps ticking
//! through repeats).
//!
//! ## Side-effect control (Feature 9)
//!
//! [`ProcessingMode::Inline`] applies state changes immediately.
//! [`ProcessingMode::Split`] matches events against *current* state but
//! applies mutations after `lag` — the paper's "state might lag behind any
//! packets issued in response, leading to monitor errors". Lagged advances
//! are re-validated at application time; races therefore produce exactly the
//! missed/duplicated observations the paper warns about, which experiment E6
//! quantifies.

use crate::property::{Property, PropertyError, RefreshPolicy, Stage, StageKind, WindowSpec};
use crate::routing::{Probe, StageKey, StageKeyPlan};
use crate::slots::{Slot, SlotStore, UNBOUND};
use crate::var::{Bindings, MAX_VARS};
use crate::violation::{ProvenanceMode, Violation};
use std::collections::hash_map::Entry;
use std::hash::{BuildHasher, Hash, Hasher};
use swmon_packet::{FieldValue, FoldMap};
use swmon_sim::time::{Duration, Instant};
use swmon_sim::timer::{TimerId, TimerWheel};
use swmon_sim::trace::{EventSink, NetEvent};
use swmon_sim::PacketId;

/// When monitor state updates take effect (Feature 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessingMode {
    /// Updates apply before the next event is examined.
    Inline,
    /// Updates apply `lag` after the event that caused them.
    Split {
        /// The state-update latency.
        lag: Duration,
    },
}

/// Monitor configuration.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Provenance retention (Feature 10).
    pub provenance: ProvenanceMode,
    /// Side-effect mode (Feature 9).
    pub mode: ProcessingMode,
    /// Restrict the monitor to one switch's events. `None` observes the
    /// whole network — the "one big switch" view the paper criticises SNAP
    /// for imposing; per-switch scope is what an on-switch monitor
    /// naturally has.
    pub scope: Option<swmon_sim::SwitchId>,
    /// Bound the instance store to this many hash-indexed cells, modelling
    /// register-array state (P4/SNAP/FAST): a spawn whose cell is occupied
    /// by a different live instance *evicts* the incumbent, silently losing
    /// its partial observation history — the monitor error mode register
    /// architectures trade for line-rate state. `None` is unbounded.
    pub capacity: Option<usize>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            provenance: ProvenanceMode::Bindings,
            mode: ProcessingMode::Inline,
            scope: None,
            capacity: None,
        }
    }
}

/// Why [`Monitor::try_new`] refused to build a monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorError {
    /// The property failed [`Property::validate`].
    Property(PropertyError),
    /// [`MonitorConfig::capacity`] is `Some(0)`: a register array with no
    /// cell can hold no instance.
    ZeroCapacity,
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::Property(e) => write!(f, "{e}"),
            MonitorError::ZeroCapacity => write!(f, "a capacity-bounded store needs a cell"),
        }
    }
}

impl std::error::Error for MonitorError {}

/// Counters describing what the monitor has done.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Events examined.
    pub events: u64,
    /// Instances spawned.
    pub spawned: u64,
    /// Stage advances performed.
    pub advanced: u64,
    /// Instances killed by `within` expiry (Feature 3).
    pub window_expired: u64,
    /// Instances cleared by `unless` observations (Feature 4).
    pub cleared: u64,
    /// Spawns/advances dropped as duplicates of a live instance.
    pub deduplicated: u64,
    /// Deduplications that also refreshed the incumbent's window.
    pub refreshed: u64,
    /// Deadline stages that fired (negative observations, Feature 7).
    pub deadlines_fired: u64,
    /// Split-mode effects dropped because re-validation failed (the paper's
    /// "monitor errors" under split processing).
    pub stale_effects_dropped: u64,
    /// Instances evicted by hash-cell collisions in a capacity-bounded
    /// store (register-array modelling).
    pub evicted: u64,
    /// Events ignored because they concern a switch outside the monitor's
    /// scope.
    pub out_of_scope: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerKind {
    /// A `within` window expired: kill the instance.
    WindowExpiry,
    /// A `Deadline` stage matured: advance the instance.
    Deadline,
}

/// One live instance. Its bound values and the stage ids it has recorded
/// are not here but in plain rows beside its slot ([`crate::slots`]): the
/// value row holds one cell per variable of the property, and `bound` says
/// which of them the instance has bound so far.
#[derive(Debug)]
pub(crate) struct Instance {
    /// Unique incarnation id, so deferred (split-mode) effects can never be
    /// mis-applied to a different instance that reused the slot.
    pub(crate) uid: u64,
    /// Index of the stage this instance waits to satisfy.
    pub(crate) awaiting: usize,
    /// Bit `i` set when cell `i` of the slot's value row holds a binding.
    pub(crate) bound: u8,
    /// Advancing events, kept only in `Full` provenance mode.
    pub(crate) history: Vec<NetEvent>,
    pub(crate) timer: Option<TimerId>,
    /// The hash cell this instance occupies in a capacity-bounded store.
    pub(crate) cell: Option<usize>,
}

// A live slot's size, without its rows; see docs/PERF.md, "An instance
// holds only its property's variables".
const _: () = assert!(size_of::<Option<Instance>>() <= 80);

/// Hand-written for `clone_from`: a checkpoint image is patched slot by
/// slot ([`Monitor::snapshot_into`]), and overwriting an image's instance
/// in place reuses its `history` allocation.
impl Clone for Instance {
    fn clone(&self) -> Self {
        Instance {
            uid: self.uid,
            awaiting: self.awaiting,
            bound: self.bound,
            history: self.history.clone(),
            timer: self.timer,
            cell: self.cell,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Instance { uid, awaiting, bound, history, timer, cell } = source;
        (self.uid, self.awaiting, self.bound) = (*uid, *awaiting, *bound);
        self.history.clone_from(history);
        (self.timer, self.cell) = (*timer, *cell);
    }
}

/// The slots filed under one dedup hash or one probe value: almost
/// always one, held inline; a second spills the set to the heap, and a
/// set shrunk back to one is inline again.
#[derive(Debug)]
enum Slots {
    One(usize),
    Many(Vec<usize>),
}

impl Slots {
    fn as_slice(&self) -> &[usize] {
        match self {
            Slots::One(idx) => std::slice::from_ref(idx),
            Slots::Many(v) => v,
        }
    }
}

/// File slot `idx` under `key`.
fn file<K: Hash + Eq>(map: &mut FoldMap<K, Slots>, key: K, idx: usize) {
    map.entry(key)
        .and_modify(|filed| match filed {
            Slots::One(first) => *filed = Slots::Many(vec![*first, idx]),
            Slots::Many(v) => v.push(idx),
        })
        .or_insert(Slots::One(idx));
}

/// Take one filing of slot `idx` out from under `key`, dropping the entry
/// once none is left. False when `idx` was not filed there.
fn unfile<K: Hash + Eq>(map: &mut FoldMap<K, Slots>, key: K, idx: usize) -> bool {
    let Entry::Occupied(mut e) = map.entry(key) else { return false };
    match e.get_mut() {
        Slots::One(only) if *only == idx => {
            e.remove();
        }
        Slots::One(_) => return false,
        Slots::Many(v) => {
            let Some(pos) = v.iter().position(|&i| i == idx) else { return false };
            v.swap_remove(pos);
            if let [only] = v[..] {
                *e.get_mut() = Slots::One(only);
            }
        }
    }
    true
}

/// An instance's dedup key: the stage it awaits and its bindings, as a
/// value row of its property's variables and the mask of the cells bound.
/// An unbound cell holds [`UNBOUND`], so equal masks and equal rows are
/// equal bindings.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key<'a> {
    stage: usize,
    bound: u8,
    row: &'a [FieldValue],
}

impl<'a> Key<'a> {
    #[inline]
    fn of(slot: &Slot<'a>) -> Self {
        Key { stage: slot.inst.awaiting, bound: slot.inst.bound, row: slot.row }
    }

    /// The key of the instance in slot `idx`, if any.
    #[inline]
    fn at(slots: &'a SlotStore, idx: usize) -> Option<Self> {
        let (inst, row) = slots.row(idx)?;
        Some(Key { stage: inst.awaiting, bound: inst.bound, row })
    }
}

/// The dedup index: every live instance's slot, filed under a hash of its
/// [`Key`]. It keeps no key of its own — the slot's instance and value row
/// are the key — so a lookup confirms each slot filed under the hash
/// against that slot's key. Two keys under one 64-bit hash share an entry
/// and are told apart that way.
///
/// The hash reads the stage and each bound value, one word each
/// ([`FieldValue::to_u64_key`]), under the map's own seed; it skips the
/// names. Bindings that differ only in their names therefore collide, and
/// the comparison keeps them apart. This is not the [`Bindings`] `Hash`
/// stream, which the capacity store's cell hash folds
/// ([`Monitor::bindings_hash`]) and which stays as it is.
#[derive(Debug, Default)]
struct DedupIndex {
    map: FoldMap<u64, Slots>,
    /// Slots filed: the live instances.
    len: usize,
}

impl DedupIndex {
    /// The hash an instance of key `key` is filed under.
    #[inline]
    fn hash(&self, key: Key<'_>) -> u64 {
        let mut state = self.map.hasher().build_hasher();
        state.write_usize(key.stage);
        for (col, value) in key.row.iter().enumerate() {
            if (key.bound >> col) & 1 == 1 {
                state.write_u64(value.to_u64_key());
            }
        }
        state.finish()
    }

    /// The live slot of key `key`, filed under `hash`.
    #[inline]
    fn get(&self, hash: u64, key: Key<'_>, slots: &SlotStore) -> Option<usize> {
        let filed = self.map.get(&hash)?.as_slice();
        filed.iter().copied().find(|&idx| Key::at(slots, idx) == Some(key))
    }

    fn insert(&mut self, hash: u64, idx: usize) {
        file(&mut self.map, hash, idx);
        self.len += 1;
    }

    fn remove(&mut self, hash: u64, idx: usize) {
        if unfile(&mut self.map, hash, idx) {
            self.len -= 1;
        }
    }

    /// Unfile the live slot `idx`, under the key it was filed with.
    fn remove_slot(&mut self, slots: &SlotStore, idx: usize) {
        if let Some(key) = Key::at(slots, idx) {
            self.remove(self.hash(key), idx);
        }
    }
}

/// A value stage postings are keyed by, hashed as the one word
/// [`FieldValue::to_u64_key`].
#[derive(Debug, PartialEq, Eq)]
struct Posted(FieldValue);

impl Hash for Posted {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.to_u64_key());
    }
}

/// Names one moment at which a monitor and a checkpoint image held the
/// same state: minted whenever [`Monitor::snapshot_into`] brings an image
/// up to date, and written to both sides. Never serialized and only ever
/// compared for equality, so its value cannot reach any output.
pub(crate) type SyncToken = std::num::NonZeroU64;

/// The deadline `window` after `at`, saturating at the latest
/// representable instant: the DSL accepts windows longer than what is left
/// of the clock, and such a deadline simply never comes.
fn deadline_after(at: Instant, window: Duration) -> Instant {
    at.checked_add(window).unwrap_or(Instant::from_nanos(u64::MAX))
}

fn mint_sync_token() -> SyncToken {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // Relaxed: the counter only has to hand out distinct values.
    SyncToken::new(NEXT.fetch_add(1, Ordering::Relaxed)).expect("a u64 counter does not wrap")
}

/// The slots a monitor has written since it agreed with an image.
#[derive(Debug)]
struct Writes {
    /// The agreement the writes are relative to: they patch the image
    /// carrying the same token, and no other.
    since: SyncToken,
    /// Slots written since, in write order, repeats included.
    slots: Vec<usize>,
}

/// Deferred state mutation (split mode). Each carries the *observation*
/// time of the event that caused it: violations and windows are anchored to
/// when the observation occurred, not when the lagged update lands — split
/// mode delays visibility, it does not rewrite history.
#[derive(Debug, Clone)]
pub(crate) enum Effect {
    Spawn {
        obs_time: Instant,
        bindings: Bindings,
        stage_id: Option<PacketId>,
        history: Vec<NetEvent>,
    },
    Advance {
        obs_time: Instant,
        idx: usize,
        uid: u64,
        expected_stage: usize,
        bindings: Bindings,
        stage_id: Option<PacketId>,
        event: Option<NetEvent>,
    },
    /// An `unless` observation cleared the instance (Feature 4).
    Kill { idx: usize, uid: u64, expected_stage: usize },
}

/// Secondary index over the instances awaiting one stage.
///
/// Stages with a derived [`StageKey`] get a `Keyed` bucket: a map from
/// probe value to the slots posted under it — an instance is posted under
/// the value it holds for each distinct probe source (a held variable's
/// binding, or the packet identity recorded at a stage) — plus a `rest`
/// overflow list (scanned unconditionally) for any instance that holds no
/// value for some source. Stages where some guard has no probe get a plain
/// `Scan` list. Either way the bucket holds exactly the live instances
/// awaiting that stage.
#[derive(Debug)]
enum Bucket {
    /// `map[value]` = slots holding `value` for some probe source. All
    /// sources share the one map: a lookup that collides across sources
    /// only adds candidates, which guard evaluation then rejects.
    Keyed { map: FoldMap<Posted, Slots>, rest: Vec<usize> },
    /// All awaiting slots, scanned for every relevant event.
    Scan(Vec<usize>),
}

/// One empty bucket per stage of a property planned as `stage_keys`.
fn empty_buckets(stages: usize, stage_keys: &StageKeyPlan) -> Vec<Bucket> {
    (0..stages)
        .map(|s| match stage_keys.key(s) {
            Some(_) => Bucket::Keyed { map: FoldMap::default(), rest: Vec::new() },
            None => Bucket::Scan(Vec::new()),
        })
        .collect()
}

/// The values `slot` is posted under in a bucket keyed by `key` — one per
/// probe source — or `None` when it holds no value for some source and
/// belongs in `rest`: a `Var` source reads the instance's binding, a
/// `Packet` source the id recorded at that stage (none for a deadline or
/// out-of-band stage). Pure in the instance's awaited stage, the bindings
/// held on entering it and its stage ids — none of which change while it
/// awaits — so insert and remove agree. (Two sources holding the same
/// value post the slot twice under it and remove it twice; candidates are
/// deduplicated anyway.)
fn postings<'a>(key: &'a StageKey, slot: Slot<'a>) -> Option<impl Iterator<Item = Posted> + 'a> {
    let value = move |p: &Probe| match p {
        Probe::Var(v, _) => slot.get(v).copied(),
        Probe::Packet(i) => slot.ids.get(*i).copied().flatten().map(|id| FieldValue::Uint(id.0)),
    };
    let sources = key.sources();
    sources.iter().all(|p| value(p).is_some()).then(|| sources.iter().filter_map(value).map(Posted))
}

/// The reference monitor for one property.
pub struct Monitor {
    property: Property,
    cfg: MonitorConfig,
    /// Live instances with their stage ids, in chunks that never move.
    slots: SlotStore,
    free: Vec<usize>,
    index: DedupIndex,
    timers: TimerWheel<(usize, TimerKind)>,
    pending: Vec<(Instant, Effect)>,
    /// Occupancy of the bounded store: cell -> slot index. Empty until an
    /// instance first takes a cell.
    cells: Vec<Option<usize>>,
    /// Which instance-matching key (if any) each stage supports.
    stage_keys: StageKeyPlan,
    /// Per-awaiting-stage instance index; `buckets[0]` is always empty
    /// (instances never await stage 0).
    buckets: Vec<Bucket>,
    /// Reusable effect buffer (avoids a per-event allocation).
    scratch_effects: Vec<Effect>,
    /// Reusable candidate-slot buffer for the keyed lookup path.
    scratch_candidates: Vec<usize>,
    violations: Vec<Violation>,
    now: Instant,
    next_uid: u64,
    /// Slot writes since this monitor last agreed with a checkpoint image
    /// ([`Monitor::snapshot_into`], [`Monitor::restore`]). `None` while no
    /// image is in step — nobody checkpoints this monitor, or the list
    /// outgrew the slot array and was dropped — and then a write records
    /// nothing and the next sync copies everything.
    writes: Option<Writes>,
    /// Activity counters.
    pub stats: MonitorStats,
}

impl Monitor {
    /// Build a monitor, rejecting structurally invalid properties and a
    /// zero [`MonitorConfig::capacity`].
    pub fn try_new(property: Property, cfg: MonitorConfig) -> Result<Self, MonitorError> {
        property.validate().map_err(MonitorError::Property)?;
        if cfg.capacity == Some(0) {
            return Err(MonitorError::ZeroCapacity);
        }
        Ok(Self::new(property, cfg))
    }

    /// Build a monitor for `property`.
    ///
    /// # Panics
    ///
    /// Panics if the property fails [`Property::validate`] or
    /// `cfg.capacity` is `Some(0)`; use [`Monitor::try_new`] for untrusted
    /// (e.g. DSL-loaded) input.
    pub fn new(property: Property, cfg: MonitorConfig) -> Self {
        let vars = property.checked_var_table().expect("property must be well-formed");
        assert_ne!(cfg.capacity, Some(0), "a capacity-bounded store needs a cell");
        let stage_keys = StageKeyPlan::of(&property);
        let buckets = empty_buckets(property.stages.len(), &stage_keys);
        // An instance records one id per stage it completes before the
        // last, which raises.
        let slots = SlotStore::new(property.stages.len() - 1, vars.into_boxed());
        Monitor {
            property,
            cfg,
            slots,
            free: Vec::new(),
            index: DedupIndex::default(),
            timers: TimerWheel::new(),
            pending: Vec::new(),
            cells: Vec::new(),
            stage_keys,
            buckets,
            scratch_effects: Vec::new(),
            scratch_candidates: Vec::new(),
            violations: Vec::new(),
            now: Instant::ZERO,
            next_uid: 0,
            writes: None,
            stats: MonitorStats::default(),
        }
    }

    /// Convenience: default configuration.
    pub fn with_defaults(property: Property) -> Self {
        Self::new(property, MonitorConfig::default())
    }

    /// The monitored property.
    pub fn property(&self) -> &Property {
        &self.property
    }

    /// Violations detected since the last [`Monitor::take_violations`], in
    /// detection order; never taken ⇒ since construction. The monitor owns
    /// this history until a caller takes it.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Move the violations detected since the last take out of the
    /// monitor, in detection order; the caller owns them from here on and
    /// [`Monitor::violations`] / [`Monitor::snapshot`] no longer carry
    /// them. The sharded runtime drains every replica this way after each
    /// event, so its checkpoints hold live state only.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Number of live instances (the paper's scalability metric: Varanus
    /// pipeline depth equals this).
    pub fn live_instances(&self) -> usize {
        self.index.len
    }

    /// True when the monitor holds no live instance and no pending
    /// split-mode effect: then only an event that spawns in stage 0 can
    /// change what it reports (see [`crate::spawn`]). Read fresh at each
    /// decision, so no restore, recovery or deploy can leave it stale.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.index.len == 0 && self.pending.is_empty()
    }

    /// Approximate bytes of monitor state (bindings + retained provenance).
    pub fn state_bytes(&self) -> usize {
        self.slots
            .live()
            .map(|(_, slot)| {
                slot.bindings().approx_bytes()
                    + slot
                        .inst
                        .history
                        .iter()
                        .map(|e| e.packet().map(|p| p.len()).unwrap_or(8))
                        .sum::<usize>()
                    + slot.ids.len() * 9
            })
            .sum()
    }

    /// `(values, stage ids)` per slot of each chunk the live store has
    /// allocated, measured from the allocation: a value row holds one cell
    /// per variable of the property, an id row one per stage but the last.
    #[doc(hidden)]
    pub fn slot_row_widths(&self) -> Vec<(usize, Option<usize>)> {
        self.slots.row_widths()
    }

    /// Advance the clock to `t`, firing due timers (and, in split mode,
    /// applying matured effects). Call at end-of-trace to flush deadlines.
    pub fn advance_to(&mut self, t: Instant) {
        // Interleave matured split-effects and timers in time order.
        loop {
            let next_effect =
                self.pending.iter().map(|(ready, _)| *ready).min().filter(|&r| r <= t);
            let next_timer = self.timers.next_deadline().filter(|&d| d <= t);
            match (next_effect, next_timer) {
                (None, None) => break,
                (Some(e), Some(d)) if e <= d => self.apply_matured_effects(e),
                (Some(e), None) => self.apply_matured_effects(e),
                (_, Some(_)) => {
                    let (id, deadline, (idx, kind)) =
                        self.timers.pop_due(t).expect("deadline checked");
                    self.fire_timer(id, deadline, idx, kind);
                }
            }
        }
        if t > self.now {
            self.now = t;
        }
    }

    fn apply_matured_effects(&mut self, upto: Instant) {
        // Apply in readiness order, stably.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= upto {
                let (_, eff) = self.pending.remove(i);
                self.apply_effect(eff);
            } else {
                i += 1;
            }
        }
        if upto > self.now {
            self.now = upto;
        }
    }

    fn fire_timer(&mut self, fired: TimerId, deadline: Instant, idx: usize, kind: TimerKind) {
        if deadline > self.now {
            self.now = deadline;
        }
        let Some(inst) = self.slots.get_mut(idx) else {
            return;
        };
        if inst.timer != Some(fired) {
            return; // stale timer from an earlier stage of this slot
        }
        inst.timer = None;
        match kind {
            TimerKind::WindowExpiry => {
                self.stats.window_expired += 1;
                self.remove_instance(idx);
            }
            TimerKind::Deadline => {
                self.stats.deadlines_fired += 1;
                self.advance_instance(idx, None, deadline);
            }
        }
    }

    /// Process one event. Events must be fed in nondecreasing time order.
    pub fn process(&mut self, ev: &NetEvent) {
        self.advance_to(ev.time);
        if let Some(scope) = self.cfg.scope {
            if ev.switch() != Some(scope) {
                self.stats.out_of_scope += 1;
                return;
            }
        }
        self.stats.events += 1;

        let lag = match self.cfg.mode {
            ProcessingMode::Inline => None,
            ProcessingMode::Split { lag } => Some(lag),
        };

        // Phase 1+2: gather the instances this event could clear or
        // advance, then evaluate their guards against the *currently
        // visible* state.
        let mut effects = std::mem::take(&mut self.scratch_effects);
        let mut cands = std::mem::take(&mut self.scratch_candidates);
        debug_assert!(effects.is_empty() && cands.is_empty());
        self.gather_candidates(ev, &mut cands);
        for &idx in &cands {
            let Some(slot) = self.slots.entry(idx) else { continue };
            let (inst, ids, held) = (slot.inst, slot.ids, slot.bindings());
            let stage = &self.property.stages[inst.awaiting];
            // Clearings first.
            let cleared = stage
                .unless
                .iter()
                .any(|u| u.pattern.matches(ev) && u.guard.eval(ev, &held, ids).is_some());
            if cleared {
                effects.push(Effect::Kill { idx, uid: inst.uid, expected_stage: inst.awaiting });
                continue;
            }
            // Advances.
            if let StageKind::Match { pattern, guard } = &stage.kind {
                if pattern.matches(ev) {
                    if let Some(env) = guard.eval(ev, &held, ids) {
                        let event =
                            (self.cfg.provenance == ProvenanceMode::Full).then(|| ev.clone());
                        effects.push(Effect::Advance {
                            obs_time: ev.time,
                            idx,
                            uid: inst.uid,
                            expected_stage: inst.awaiting,
                            bindings: env,
                            stage_id: ev.packet_id(),
                            event,
                        });
                    }
                }
            }
        }
        cands.clear();
        self.scratch_candidates = cands;

        // Phase 4: spawning.
        let stage0 = &self.property.stages[0];
        if let StageKind::Match { pattern, guard } = &stage0.kind {
            if pattern.matches(ev) {
                if let Some(env) = guard.eval(ev, &Bindings::new(), &[]) {
                    let history = match self.cfg.provenance {
                        ProvenanceMode::Full => vec![ev.clone()],
                        _ => Vec::new(),
                    };
                    effects.push(Effect::Spawn {
                        obs_time: ev.time,
                        bindings: env,
                        stage_id: ev.packet_id(),
                        history,
                    });
                }
            }
        }

        // Apply with simultaneous-evaluation semantics: clearings first,
        // then advances from the *highest* awaited stage downward (an
        // instance vacates its key before a lower instance moves into it —
        // otherwise the mover would wrongly dissolve into an incumbent that
        // is itself advancing away on this very event), spawns last.
        effects.sort_by_key(|e| match e {
            Effect::Kill { .. } => (0usize, 0usize),
            Effect::Advance { expected_stage, .. } => (1, usize::MAX - expected_stage),
            Effect::Spawn { .. } => (2, 0),
        });
        match lag {
            None => {
                for eff in effects.drain(..) {
                    self.apply_effect(eff);
                }
            }
            Some(lag) => {
                let ready = ev.time + lag;
                for eff in effects.drain(..) {
                    self.pending.push((ready, eff));
                }
            }
        }
        self.scratch_effects = effects;
    }

    /// Append to `cands` the slots of every instance `ev` could clear or
    /// advance. Stages whose patterns all miss the event are skipped
    /// outright; keyed stages look up only the probes of the guards whose
    /// pattern the event matches (plus the `rest` list), scan stages
    /// contribute every awaiting slot. The result is in ascending slot
    /// order without duplicates — exactly the order a full scan would
    /// visit — so the effect sequence, and with it every downstream
    /// ordering (violations, slot reuse, dedup outcomes), does not depend
    /// on which stages are keyed.
    fn gather_candidates(&self, ev: &NetEvent, cands: &mut Vec<usize>) {
        for s in 1..self.property.stages.len() {
            let stage = &self.property.stages[s];
            let adv_hit =
                matches!(&stage.kind, StageKind::Match { pattern, .. } if pattern.matches(ev));
            let clear_hit = stage.unless.iter().any(|u| u.pattern.matches(ev));
            if !adv_hit && !clear_hit {
                continue;
            }
            match &self.buckets[s] {
                Bucket::Scan(v) => cands.extend_from_slice(v),
                Bucket::Keyed { map, rest } => {
                    cands.extend_from_slice(rest);
                    let key = self.stage_keys.key(s).expect("keyed bucket has a stage key");
                    let mut look_up = |probe: &Probe| {
                        if let Some(v) = probe.event_value(ev).and_then(|x| map.get(&Posted(x))) {
                            cands.extend_from_slice(v.as_slice());
                        }
                    };
                    if adv_hit {
                        key.advance.iter().for_each(&mut look_up);
                    }
                    for (u, probe) in stage.unless.iter().zip(&key.unless) {
                        if u.pattern.matches(ev) {
                            look_up(probe);
                        }
                    }
                }
            }
        }
        cands.sort_unstable();
        cands.dedup();
    }

    fn apply_effect(&mut self, eff: Effect) {
        match eff {
            Effect::Spawn { obs_time, bindings, stage_id, history } => {
                self.spawn(obs_time, bindings, stage_id, history);
            }
            Effect::Advance { obs_time, idx, uid, expected_stage, bindings, stage_id, event } => {
                let valid = self
                    .slots
                    .get(idx)
                    .is_some_and(|i| i.uid == uid && i.awaiting == expected_stage);
                if !valid {
                    self.stats.stale_effects_dropped += 1;
                    return;
                }
                // Unindex under the *original* bindings before the advance
                // extends them — computing the old key after assignment
                // would leave a stale index entry that swallows future
                // spawns via deduplication.
                self.index.remove_slot(&self.slots, idx);
                let packed = self.slots.bind(idx, &bindings);
                debug_assert!(packed, "a guard binds only its property's variables");
                if self.cfg.provenance == ProvenanceMode::Full {
                    if let (Some(ev), Some(inst)) = (event, self.slots.get_mut(idx)) {
                        inst.history.push(ev);
                    }
                }
                self.advance_instance_unindexed(idx, stage_id, obs_time);
            }
            Effect::Kill { idx, uid, expected_stage } => {
                let valid = self
                    .slots
                    .get(idx)
                    .is_some_and(|i| i.uid == uid && i.awaiting == expected_stage);
                if !valid {
                    self.stats.stale_effects_dropped += 1;
                    return;
                }
                self.stats.cleared += 1;
                self.remove_instance(idx);
            }
        }
    }

    /// Spawn a new instance awaiting stage 1 (or raise a violation for
    /// single-stage properties).
    fn spawn(
        &mut self,
        at: Instant,
        bindings: Bindings,
        stage_id: Option<PacketId>,
        history: Vec<NetEvent>,
    ) {
        self.stats.spawned += 1;
        if self.property.stages.len() == 1 {
            self.raise(at, &bindings, &history, 0);
            return;
        }
        let mut row = [UNBOUND; MAX_VARS];
        let row = &mut row[..self.slots.cols().len()];
        let bound = bindings.pack(self.slots.cols(), row);
        debug_assert!(bound.is_some(), "a guard binds only its property's variables");
        let key = Key { stage: 1, bound: bound.unwrap_or(0), row };
        let hash = self.index.hash(key);
        if let Some(incumbent) = self.index.get(hash, key, &self.slots) {
            self.dedup_against(incumbent, at);
            return;
        }
        // Capacity-bounded (register-array) store: the spawn lands in a
        // hash cell; a different live incumbent there is evicted.
        let cell = self.cfg.capacity.map(|cap| {
            let h = Self::bindings_hash(&bindings);
            (h % cap as u64) as usize
        });
        if let Some(c) = cell {
            // The register array is allocated by the first spawn that
            // needs it, so an idle replica holds none.
            if self.cells.is_empty() {
                self.cells = vec![None; self.cfg.capacity.unwrap_or(0)];
            }
            if let Some(victim) = self.cells[c] {
                self.stats.evicted += 1;
                self.remove_instance(victim);
            }
        }
        let idx = self.free.pop().unwrap_or_else(|| self.slots.push_empty());
        self.wrote(idx);
        let uid = self.next_uid;
        self.next_uid += 1;
        let inst = Instance { uid, awaiting: 1, bound: key.bound, history, timer: None, cell };
        self.slots.put(idx, inst, stage_id, row);
        if let Some(c) = cell {
            self.cells[c] = Some(idx);
        }
        self.index.insert(hash, idx);
        self.arm_stage_timer(idx, at);
        self.bucket_insert(idx);
    }

    /// Add slot `idx` to the bucket of the stage it now awaits.
    fn bucket_insert(&mut self, idx: usize) {
        let slot = self.slots.entry(idx).expect("live instance");
        match &mut self.buckets[slot.inst.awaiting] {
            Bucket::Scan(v) => v.push(idx),
            Bucket::Keyed { map, rest } => {
                let key = self.stage_keys.key(slot.inst.awaiting).expect("keyed bucket has a key");
                match postings(key, slot) {
                    Some(vals) => vals.for_each(|val| file(map, val, idx)),
                    None => rest.push(idx),
                }
            }
        }
    }

    /// Remove slot `idx` from its awaiting stage's bucket. Callers must do
    /// this while the instance still awaits the stage it was inserted
    /// under (binding *extension* is fine: existing values never change,
    /// only new variables are added, and recorded stage ids are immutable).
    fn bucket_remove(&mut self, idx: usize) {
        let Some(slot) = self.slots.entry(idx) else { return };
        fn evict(v: &mut Vec<usize>, idx: usize) {
            if let Some(pos) = v.iter().position(|&i| i == idx) {
                v.swap_remove(pos);
            }
        }
        match &mut self.buckets[slot.inst.awaiting] {
            Bucket::Scan(v) => evict(v, idx),
            Bucket::Keyed { map, rest } => {
                let key = self.stage_keys.key(slot.inst.awaiting).expect("keyed bucket has a key");
                match postings(key, slot) {
                    Some(vals) => vals.for_each(|val| {
                        unfile(map, val, idx);
                    }),
                    None => evict(rest, idx),
                }
            }
        }
    }

    /// Note that slot `idx` changes, for the next
    /// [`Monitor::snapshot_into`]. Every slot mutation goes through one of
    /// three callers — `spawn`, `advance_instance_unindexed`,
    /// `remove_instance` — and a dedup that only refreshes a timer writes
    /// no slot. A list longer than the slot array would cost more to
    /// replay than the full copy it saves, so it is dropped instead: the
    /// memory held is O(slots) however rarely anyone syncs.
    #[inline]
    fn wrote(&mut self, idx: usize) {
        if let Some(writes) = &mut self.writes {
            if writes.slots.len() < self.slots.len() {
                writes.slots.push(idx);
            } else {
                self.writes = None;
            }
        }
    }

    /// Stable hash of a binding environment (the flow key a register
    /// architecture would index with).
    fn bindings_hash(b: &Bindings) -> u64 {
        use std::hash::{Hash, Hasher};
        // FxHash-style stable hasher over the canonical binding order.
        struct Fnv(u64);
        impl Hasher for Fnv {
            fn finish(&self) -> u64 {
                self.0
            }
            fn write(&mut self, bytes: &[u8]) {
                for &x in bytes {
                    self.0 ^= u64::from(x);
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        b.hash(&mut h);
        h.finish()
    }

    /// Handle a duplicate spawn/advance landing on `incumbent`.
    fn dedup_against(&mut self, incumbent: usize, at: Instant) {
        self.stats.deduplicated += 1;
        let Some(inst) = self.slots.get(incumbent) else {
            return;
        };
        let stage = &self.property.stages[inst.awaiting];
        let (policy, window) = match &stage.kind {
            StageKind::Deadline { window, refresh } => (*refresh, Some(*window)),
            StageKind::Match { .. } => (
                stage.within_refresh,
                stage.within.as_ref().and_then(|w| {
                    w.resolve(|v| self.slots.entry(incumbent).and_then(|s| s.get(v).copied()))
                }),
            ),
        };
        if policy == RefreshPolicy::RefreshOnRepeat {
            if let (Some(w), Some(t)) = (window, inst.timer) {
                if self.timers.refresh(t, deadline_after(at, w)) {
                    self.stats.refreshed += 1;
                }
            }
        }
    }

    /// Move instance `idx` past its awaited stage (having just observed it
    /// at `at`); raise a violation if that was the last stage. The caller
    /// must not have changed the bindings since indexing (timer paths);
    /// advances that extend bindings go through
    /// [`Monitor::advance_instance_unindexed`].
    fn advance_instance(&mut self, idx: usize, stage_id: Option<PacketId>, at: Instant) {
        self.index.remove_slot(&self.slots, idx);
        self.advance_instance_unindexed(idx, stage_id, at);
    }

    /// As [`Monitor::advance_instance`], for callers that already removed
    /// the instance's index entry (under its pre-advance bindings).
    fn advance_instance_unindexed(&mut self, idx: usize, stage_id: Option<PacketId>, at: Instant) {
        // Leave the old stage's bucket before `awaiting` moves. An advance
        // may already have *extended* the bindings, but the key variable's
        // value is immutable once bound, so the bucket lookup still lands.
        self.bucket_remove(idx);
        self.wrote(idx);
        let done = {
            let inst = self.slots.advance(idx, stage_id);
            if let Some(t) = inst.timer.take() {
                self.timers.cancel(t);
            }
            self.stats.advanced += 1;
            inst.awaiting == self.property.stages.len()
        };
        if done {
            let bindings = self.slots.entry(idx).expect("live instance").bindings();
            let inst = self.slots.take(idx).expect("live instance");
            if let Some(c) = inst.cell {
                if self.cells[c] == Some(idx) {
                    self.cells[c] = None;
                }
            }
            self.free.push(idx);
            let trigger = self.property.stages.len() - 1;
            self.raise(at, &bindings, &inst.history, trigger);
            return;
        }
        // Dedup at the new position.
        let key = Key::at(&self.slots, idx).expect("live instance");
        let hash = self.index.hash(key);
        if let Some(incumbent) = self.index.get(hash, key, &self.slots) {
            // The incumbent wins; this instance dissolves into it.
            self.dedup_against(incumbent, at);
            if let Some(inst) = self.slots.take(idx) {
                if let Some(c) = inst.cell {
                    if self.cells[c] == Some(idx) {
                        self.cells[c] = None;
                    }
                }
                if let Some(t) = inst.timer {
                    self.timers.cancel(t);
                }
            }
            self.free.push(idx);
            return;
        }
        self.index.insert(hash, idx);
        self.arm_stage_timer(idx, at);
        self.bucket_insert(idx);
    }

    /// Arm the timer appropriate to the stage instance `idx` now awaits,
    /// measured from observation time `at`.
    fn arm_stage_timer(&mut self, idx: usize, at: Instant) {
        let slot = self.slots.entry(idx).expect("live");
        let stage: &Stage = &self.property.stages[slot.inst.awaiting];
        let timer = match &stage.kind {
            StageKind::Deadline { window, .. } => {
                Some(self.timers.schedule(deadline_after(at, *window), (idx, TimerKind::Deadline)))
            }
            StageKind::Match { .. } => stage
                .within
                .as_ref()
                .and_then(|w: &WindowSpec| w.resolve(|v| slot.get(v).copied()))
                .map(|w| {
                    self.timers.schedule(deadline_after(at, w), (idx, TimerKind::WindowExpiry))
                }),
        };
        self.slots.get_mut(idx).expect("live").timer = timer;
    }

    fn remove_instance(&mut self, idx: usize) {
        self.bucket_remove(idx);
        self.index.remove_slot(&self.slots, idx);
        if let Some(inst) = self.slots.take(idx) {
            self.wrote(idx);
            if let Some(t) = inst.timer {
                self.timers.cancel(t);
            }
            if let Some(c) = inst.cell {
                if self.cells[c] == Some(idx) {
                    self.cells[c] = None;
                }
            }
            self.free.push(idx);
        }
    }

    fn raise(&mut self, at: Instant, bindings: &Bindings, history: &[NetEvent], trigger: usize) {
        let bindings_out = match self.cfg.provenance {
            ProvenanceMode::None => None,
            _ => Some(*bindings),
        };
        let history_out = match self.cfg.provenance {
            ProvenanceMode::Full => history.to_vec(),
            _ => Vec::new(),
        };
        self.violations.push(Violation {
            property: self.property.name.clone(),
            time: at,
            trigger_stage: self.property.stages[trigger].name.clone(),
            bindings: bindings_out,
            history: history_out,
            degraded: false,
            merge_seq: None,
        });
    }

    // ---- checkpoint/restore (fault tolerance) --------------------------

    /// Capture the monitor's complete semantic state as a
    /// [`MonitorSnapshot`](crate::snapshot::MonitorSnapshot).
    ///
    /// The snapshot records everything order-bearing verbatim: the slot
    /// array (slot indices are tie-breakers for effect ordering), the
    /// free-list (it decides which slot the next spawn reuses), the timer
    /// wheel's exact heap entries and counters, pending split-mode effects,
    /// the uid counter, and the violations already raised. Derived
    /// structures — the dedup index, stage buckets and capacity cells —
    /// are *not* serialized: they are pure functions of the live slots and
    /// are rebuilt on restore (candidate slots are sorted and deduplicated
    /// before evaluation, so bucket-internal order is not semantics-bearing).
    pub fn snapshot(&self) -> crate::snapshot::MonitorSnapshot {
        let mut image = crate::snapshot::MonitorSnapshot::default();
        self.write_image(&mut image, None);
        image
    }

    /// Bring `image` up to this monitor's current state, at the cost of
    /// what changed rather than what is live; afterwards `image` equals
    /// [`Monitor::snapshot`] byte for byte. Returns the slots copied.
    ///
    /// When `image` is the one this monitor last synced into (or was last
    /// restored from), only the slots written since are copied, plus the
    /// small whole-value fields. Any other image — a fresh or decoded one,
    /// another monitor's, one synced by someone else since — is overwritten
    /// whole, as [`Monitor::snapshot`] would build it. Which it is, is
    /// decided by a private identity on both sides, never by the caller: a
    /// wrong base costs a full copy, it cannot produce a wrong image.
    /// Either way the copy is in place and reuses `image`'s allocations.
    ///
    /// This is how the sharded runtime keeps its checkpoints; a monitor
    /// that is never synced tracks nothing.
    pub fn snapshot_into(&mut self, image: &mut crate::snapshot::MonitorSnapshot) -> usize {
        let written = match self.writes.take() {
            Some(Writes { since, mut slots }) if image.synced == Some(since) => {
                slots.sort_unstable();
                slots.dedup();
                Some(slots)
            }
            _ => None,
        };
        self.write_image(image, written.as_deref());
        // Heavy, and compiled out of release builds: every checkpoint any
        // debug-build test takes checks the patched image against a fresh one.
        debug_assert_eq!(image.to_bytes(), self.snapshot().to_bytes());
        let copied = written.as_ref().map_or(self.slots.len(), Vec::len);
        let since = mint_sync_token();
        image.synced = Some(since);
        let mut slots = written.unwrap_or_default();
        slots.clear();
        self.writes = Some(Writes { since, slots });
        copied
    }

    /// Make `image` equal this monitor's state, nobody's base. Given
    /// `written`, `image` holds an earlier state of this monitor from which
    /// only those slots have changed; without it nothing is assumed of
    /// `image` and every slot is copied.
    fn write_image(&self, image: &mut crate::snapshot::MonitorSnapshot, written: Option<&[usize]>) {
        // In place: the image's chunks are reused, and so is the history
        // of a slot live on both sides.
        match written {
            Some(written) => image.slots.copy_some(&self.slots, written),
            None => {
                image.property.clone_from(&self.property.name);
                image.stages = self.property.stages.len();
                image.slots.copy_all(&self.slots);
                image.defect = None;
            }
        }
        image.free.clone_from(&self.free);
        self.timers.snapshot_into(&mut image.timers);
        image.pending.clone_from(&self.pending);
        image.violations.clone_from(&self.violations);
        image.now = self.now;
        image.next_uid = self.next_uid;
        image.stats = self.stats.clone();
        image.synced = None;
    }

    /// Replace this monitor's state with `snap`, previously taken from a
    /// monitor of the *same property* (name and stage count are checked)
    /// and an equal capacity configuration.
    ///
    /// Restore is deterministic: feeding the restored monitor the same
    /// event suffix produces byte-identical violations, stats and timer
    /// behaviour to the uninterrupted original — the property the runtime's
    /// checkpoint/replay recovery depends on (see `docs/FAULTS.md`).
    ///
    /// On error the monitor is left unchanged.
    pub fn restore(
        &mut self,
        snap: &crate::snapshot::MonitorSnapshot,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        if snap.property != self.property.name || snap.stages != self.property.stages.len() {
            return Err(SnapshotError::PropertyMismatch {
                expected: format!("{} ({} stages)", self.property.name, self.property.stages.len()),
                found: format!("{} ({} stages)", snap.property, snap.stages),
            });
        }
        // Validate before mutating, so a bad snapshot cannot half-apply.
        if let Some(why) = snap.defect {
            return Err(SnapshotError::Malformed(why));
        }
        let capacity = self.cfg.capacity.unwrap_or(0);
        for (_, slot) in snap.slots.live() {
            let inst = slot.inst;
            if inst.awaiting == 0 || inst.awaiting >= self.property.stages.len() {
                return Err(SnapshotError::Malformed("instance awaits an out-of-range stage"));
            }
            if let Some(c) = inst.cell {
                if c >= capacity {
                    return Err(SnapshotError::Malformed("instance cell exceeds store capacity"));
                }
            }
        }
        // A pending spawn or advance lands its bindings in a row of the
        // property's variables, which has no cell for any other.
        let foreign = |env: &Bindings| env.iter().any(|(v, _)| !self.slots.cols().contains(v));
        for (_, eff) in &snap.pending {
            if let Effect::Spawn { bindings, .. } | Effect::Advance { bindings, .. } = eff {
                if foreign(bindings) {
                    return Err(SnapshotError::Malformed(
                        "pending effect binds a variable its property does not",
                    ));
                }
            }
        }
        let mut listed = vec![false; snap.slots.len()];
        for &f in &snap.free {
            if f >= snap.slots.len() || snap.slots.get(f).is_some() {
                return Err(SnapshotError::Malformed("free-list entry is not an empty slot"));
            }
            // Listed twice, the slot would be handed to two spawns and the
            // second would overwrite the first's live instance.
            if std::mem::replace(&mut listed[f], true) {
                return Err(SnapshotError::Malformed("free-list names a slot twice"));
            }
        }
        // The dedup index holds one slot per key; a second would stay live
        // but unreachable. The index reads its keys from the slots, so they
        // come first; `self` is untouched until both are built. Every
        // instance awaits a stage below the last, so its ids fit a row; its
        // bindings fit only if each names a variable of the property.
        let slots = self
            .slots
            .repack(&snap.slots)
            .ok_or(SnapshotError::Malformed("instance binds a variable its property does not"))?;
        let live = slots.len() - snap.free.len();
        let map = FoldMap::with_capacity_and_hasher(live, self.index.map.hasher().clone());
        let mut index = DedupIndex { map, len: 0 };
        for (idx, slot) in slots.live() {
            let key = Key::of(&slot);
            let hash = index.hash(key);
            if index.get(hash, key, &slots).is_some() {
                return Err(SnapshotError::Malformed("two live instances share a dedup key"));
            }
            index.insert(hash, idx);
        }

        self.slots = slots;
        self.free = snap.free.clone();
        self.timers = TimerWheel::restore(&snap.timers);
        self.pending = snap.pending.clone();
        self.violations = snap.violations.clone();
        self.now = snap.now;
        self.next_uid = snap.next_uid;
        self.stats = snap.stats.clone();
        self.scratch_effects.clear();
        self.scratch_candidates.clear();
        // Equal to the image now, so whatever it is a base for, so is this.
        self.writes = snap.synced.map(|since| Writes { since, slots: Vec::new() });

        // Rebuild the derived structures from the live slots.
        self.index = index;
        self.cells = Vec::new();
        self.buckets = empty_buckets(self.property.stages.len(), &self.stage_keys);
        for idx in 0..self.slots.len() {
            let Some(cell) = self.slots.get(idx).map(|inst| inst.cell) else { continue };
            if let Some(c) = cell {
                if self.cells.is_empty() {
                    self.cells = vec![None; capacity];
                }
                self.cells[c] = Some(idx);
            }
            self.bucket_insert(idx);
        }
        Ok(())
    }
}

impl EventSink for Monitor {
    fn on_event(&mut self, ev: &NetEvent) {
        self.process(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{Atom, Guard};
    use crate::pattern::{ActionPattern, EventPattern, OobPattern};
    use crate::property::{Stage, Unless};
    use crate::var::var;
    use std::sync::Arc;
    use swmon_packet::{Field, Ipv4Address, MacAddr, Packet, PacketBuilder, TcpFlags};
    use swmon_sim::trace::{EgressAction, NetEventKind, OobEvent, PortNo, SwitchId};

    // ---- event helpers -------------------------------------------------

    fn tcp(src: u8, dst: u8, flags: TcpFlags) -> Arc<Packet> {
        Arc::new(PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, src),
            MacAddr::new(2, 0, 0, 0, 0, dst),
            Ipv4Address::new(10, 0, 0, src),
            Ipv4Address::new(10, 0, 0, dst),
            1000,
            80,
            flags,
            &[],
        ))
    }

    fn at(ms: u64) -> Instant {
        Instant::ZERO + Duration::from_millis(ms)
    }

    fn arrival(t: Instant, src: u8, dst: u8, id: u64) -> NetEvent {
        NetEvent {
            time: t,
            kind: NetEventKind::Arrival {
                switch: SwitchId(0),
                port: PortNo(0),
                pkt: tcp(src, dst, TcpFlags::SYN),
                id: PacketId(id),
            },
        }
    }

    fn arrival_flags(t: Instant, src: u8, dst: u8, id: u64, flags: TcpFlags) -> NetEvent {
        NetEvent {
            time: t,
            kind: NetEventKind::Arrival {
                switch: SwitchId(0),
                port: PortNo(0),
                pkt: tcp(src, dst, flags),
                id: PacketId(id),
            },
        }
    }

    fn dropped(t: Instant, src: u8, dst: u8, id: u64) -> NetEvent {
        NetEvent {
            time: t,
            kind: NetEventKind::Departure {
                switch: SwitchId(0),
                pkt: tcp(src, dst, TcpFlags::ACK),
                id: PacketId(id),
                action: EgressAction::Drop,
            },
        }
    }

    fn forwarded(t: Instant, src: u8, dst: u8, id: u64) -> NetEvent {
        NetEvent {
            time: t,
            kind: NetEventKind::Departure {
                switch: SwitchId(0),
                pkt: tcp(src, dst, TcpFlags::ACK),
                id: PacketId(id),
                action: EgressAction::Output(PortNo(1)),
            },
        }
    }

    // ---- properties ----------------------------------------------------

    /// Sec 2.1 basic: A→B seen, then B→A dropped = violation.
    fn fw_basic() -> Property {
        Property {
            name: "fw-basic".into(),
            statement: "return traffic is not dropped".into(),
            stages: vec![
                Stage::match_(
                    "outbound",
                    EventPattern::Arrival,
                    Guard::new(vec![
                        Atom::Bind(var("A"), Field::Ipv4Src),
                        Atom::Bind(var("B"), Field::Ipv4Dst),
                    ]),
                ),
                Stage::match_(
                    "return-dropped",
                    EventPattern::Departure(ActionPattern::Drop),
                    Guard::new(vec![
                        Atom::Bind(var("B"), Field::Ipv4Src),
                        Atom::Bind(var("A"), Field::Ipv4Dst),
                    ]),
                ),
            ],
        }
    }

    /// Sec 2.1 with timeout: the drop only counts within T of the last A→B.
    fn fw_timeout(t: Duration) -> Property {
        let mut p = fw_basic();
        p.name = "fw-timeout".into();
        p.stages[1].within = Some(crate::property::WindowSpec::Fixed(t));
        p.stages[1].within_refresh = RefreshPolicy::RefreshOnRepeat;
        p
    }

    /// Sec 2.3 style: request seen, no reply within T = violation.
    fn reply_deadline(t: Duration, refresh: RefreshPolicy) -> Property {
        let mut deadline = Stage::deadline("no-reply-within-T", t, refresh);
        deadline.unless = vec![Unless {
            pattern: EventPattern::Departure(ActionPattern::Forwarded),
            guard: Guard::new(vec![
                Atom::Bind(var("A"), Field::Ipv4Dst), // reply goes back to A
            ]),
        }];
        Property {
            name: "reply-deadline".into(),
            statement: "every request is answered within T".into(),
            stages: vec![
                Stage::match_(
                    "request",
                    EventPattern::Arrival,
                    Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
                ),
                deadline,
            ],
        }
    }

    // ---- tests -----------------------------------------------------------

    #[test]
    fn detects_basic_firewall_violation() {
        let mut m = Monitor::with_defaults(fw_basic());
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&dropped(at(5), 2, 1, 1));
        assert_eq!(m.violations().len(), 1);
        let v = &m.violations()[0];
        assert_eq!(v.trigger_stage, "return-dropped");
        assert_eq!(v.time, at(5));
        let b = v.bindings.as_ref().unwrap();
        assert_eq!(b.get(&var("A")), Some(&Ipv4Address::new(10, 0, 0, 1).into()));
    }

    #[test]
    fn unrelated_drop_is_no_violation() {
        let mut m = Monitor::with_defaults(fw_basic());
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&dropped(at(5), 3, 1, 1)); // C→A, not B→A
        m.process(&dropped(at(6), 2, 3, 2)); // B→C
        assert!(m.violations().is_empty());
        assert_eq!(m.live_instances(), 1, "drops do not match the arrival stage 0");
    }

    #[test]
    fn separate_instances_per_pair() {
        let mut m = Monitor::with_defaults(fw_basic());
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&arrival(at(1), 3, 4, 1));
        assert_eq!(m.live_instances(), 2);
        m.process(&dropped(at(2), 4, 3, 2));
        assert_eq!(m.violations().len(), 1, "only the (3,4) instance fires");
        assert_eq!(
            m.violations()[0].bindings.as_ref().unwrap().get(&var("A")),
            Some(&Ipv4Address::new(10, 0, 0, 3).into())
        );
        assert_eq!(m.live_instances(), 1, "the (1,2) instance survives");
    }

    #[test]
    fn window_expiry_kills_instance() {
        let t = Duration::from_millis(100);
        let mut m = Monitor::with_defaults(fw_timeout(t));
        m.process(&arrival(at(0), 1, 2, 0));
        // Drop at 150ms: after the window; timer fired at 100ms killed it.
        m.process(&dropped(at(150), 2, 1, 1));
        assert!(m.violations().is_empty());
        assert_eq!(m.stats.window_expired, 1);
        assert_eq!(m.live_instances(), 0);
    }

    #[test]
    fn drop_exactly_at_window_boundary_is_late() {
        let t = Duration::from_millis(100);
        let mut m = Monitor::with_defaults(fw_timeout(t));
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&dropped(at(100), 2, 1, 1));
        assert!(m.violations().is_empty(), "timers fire before same-instant events");
    }

    #[test]
    fn repeated_outbound_refreshes_firewall_window() {
        let t = Duration::from_millis(100);
        let mut m = Monitor::with_defaults(fw_timeout(t));
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&arrival(at(80), 1, 2, 1)); // refresh
        m.process(&dropped(at(150), 2, 1, 2)); // within 100 of the refresh
        assert_eq!(m.violations().len(), 1, "window measured from the latest A→B");
        assert_eq!(m.stats.refreshed, 1);
        assert_eq!(m.stats.deduplicated, 1);
    }

    #[test]
    fn obligation_cleared_by_connection_close() {
        // fw with obligation: a FIN in either direction clears the instance.
        // The opening observation must exclude closing packets, otherwise
        // the FIN itself would re-establish the connection it closes.
        let mut p = fw_basic();
        if let StageKind::Match { guard, .. } = &mut p.stages[0].kind {
            guard.atoms.push(Atom::NeqConst(Field::TcpFlags, u64::from(TcpFlags::FIN.0).into()));
        }
        p.stages[1].unless = vec![
            Unless {
                pattern: EventPattern::Arrival,
                guard: Guard::new(vec![
                    Atom::Bind(var("A"), Field::Ipv4Src),
                    Atom::Bind(var("B"), Field::Ipv4Dst),
                    Atom::EqConst(Field::TcpFlags, u64::from(TcpFlags::FIN.0).into()),
                ]),
            },
            Unless {
                pattern: EventPattern::Arrival,
                guard: Guard::new(vec![
                    Atom::Bind(var("B"), Field::Ipv4Src),
                    Atom::Bind(var("A"), Field::Ipv4Dst),
                    Atom::EqConst(Field::TcpFlags, u64::from(TcpFlags::FIN.0).into()),
                ]),
            },
        ];
        let mut m = Monitor::with_defaults(p);
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&arrival_flags(at(10), 1, 2, 1, TcpFlags::FIN)); // close
        m.process(&dropped(at(20), 2, 1, 2)); // drop after close: fine
        assert!(m.violations().is_empty());
        assert_eq!(m.stats.cleared, 1);
    }

    #[test]
    fn deadline_fires_when_no_reply() {
        let t = Duration::from_secs(1);
        let mut m = Monitor::with_defaults(reply_deadline(t, RefreshPolicy::NoRefresh));
        m.process(&arrival(at(0), 1, 2, 0));
        m.advance_to(at(2000));
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.violations()[0].time, at(1000), "violation at the deadline itself");
        assert_eq!(m.stats.deadlines_fired, 1);
    }

    #[test]
    fn deadline_cleared_by_reply() {
        let t = Duration::from_secs(1);
        let mut m = Monitor::with_defaults(reply_deadline(t, RefreshPolicy::NoRefresh));
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&forwarded(at(500), 2, 1, 1)); // reply to A within T
        m.advance_to(at(5000));
        assert!(m.violations().is_empty());
        assert_eq!(m.stats.cleared, 1);
    }

    #[test]
    fn sec23_subtlety_no_refresh_catches_request_storm() {
        // Requests every T−1; never answered. NoRefresh must fire at T.
        let t = Duration::from_millis(1000);
        let mut m = Monitor::with_defaults(reply_deadline(t, RefreshPolicy::NoRefresh));
        for i in 0..5u64 {
            m.process(&arrival(at(i * 999), 1, 2, i));
        }
        m.advance_to(at(10_000));
        assert!(!m.violations().is_empty(), "NoRefresh detects the never-answered stream");
        assert_eq!(m.violations()[0].time, at(1000));
    }

    #[test]
    fn sec23_subtlety_refresh_on_repeat_misses_request_storm() {
        // The same storm with the naive refresh policy is never detected
        // while the storm lasts — the paper's Feature 7 warning.
        let t = Duration::from_millis(1000);
        let mut m = Monitor::with_defaults(reply_deadline(t, RefreshPolicy::RefreshOnRepeat));
        for i in 0..5u64 {
            m.process(&arrival(at(i * 999), 1, 2, i));
        }
        // Inside the storm: no violation yet (each repeat pushed the deadline).
        m.advance_to(at(4 * 999 + 999));
        assert!(m.violations().is_empty(), "refresh-on-repeat suppresses detection");
        // Only once the storm stops does the deadline finally fire.
        m.advance_to(at(20_000));
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.violations()[0].time, at(4 * 999 + 1000));
    }

    #[test]
    fn packet_identity_links_arrival_to_departure() {
        // "An arrival that is then dropped" — requires Feature 5.
        let p = Property {
            name: "arrived-then-dropped".into(),
            statement: "no arriving packet to port 80 is dropped".into(),
            stages: vec![
                Stage::match_(
                    "arrive",
                    EventPattern::Arrival,
                    Guard::new(vec![Atom::EqConst(Field::L4Dst, 80u16.into())]),
                ),
                Stage::match_(
                    "same-packet-dropped",
                    EventPattern::Departure(ActionPattern::Drop),
                    Guard::new(vec![Atom::SamePacket(0)]),
                ),
            ],
        };
        let mut m = Monitor::with_defaults(p);
        m.process(&arrival(at(0), 1, 2, 77));
        m.process(&dropped(at(1), 9, 9, 78)); // different packet dropped
        assert!(m.violations().is_empty());
        m.process(&dropped(at(2), 1, 2, 77)); // the same packet dropped
        assert_eq!(m.violations().len(), 1);
    }

    /// "The packet that arrived (from `A`) is forwarded": stage 1 is keyed
    /// on packet identity alone.
    fn arrived_then_forwarded() -> Property {
        Property {
            name: "arrived-then-forwarded".into(),
            statement: String::new(),
            stages: vec![
                Stage::match_(
                    "arrive",
                    EventPattern::Arrival,
                    Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
                ),
                Stage::match_(
                    "same-packet-forwarded",
                    EventPattern::Departure(ActionPattern::Forwarded),
                    Guard::new(vec![Atom::SamePacket(0)]),
                ),
            ],
        }
    }

    fn candidates(m: &Monitor, ev: &NetEvent) -> Vec<usize> {
        let mut cands = Vec::new();
        m.gather_candidates(ev, &mut cands);
        cands
    }

    /// (distinct posted values, `rest` length) of stage `s`'s keyed bucket.
    fn keyed_sizes(m: &Monitor, s: usize) -> (usize, usize) {
        match &m.buckets[s] {
            Bucket::Keyed { map, rest } => (map.len(), rest.len()),
            Bucket::Scan(_) => panic!("stage {s} is not keyed"),
        }
    }

    #[test]
    fn identity_stage_gathers_only_the_matching_instance() {
        let mut m = Monitor::with_defaults(arrived_then_forwarded());
        for i in 0..40u8 {
            m.process(&arrival(at(u64::from(i)), i + 1, 200, 1000 + u64::from(i)));
        }
        assert_eq!(m.live_instances(), 40);
        assert_eq!(keyed_sizes(&m, 1), (40, 0));
        // Someone else's packet leaves: nothing to examine.
        assert!(candidates(&m, &forwarded(at(50), 7, 200, 9999)).is_empty());
        // Packet 1006 leaves — with rewritten headers, which identity
        // ignores: exactly the instance that recorded it.
        let hit = candidates(&m, &forwarded(at(50), 99, 98, 1006));
        assert_eq!(hit.len(), 1);
        assert_eq!(m.slots.entry(hit[0]).unwrap().ids, [Some(PacketId(1006))]);
        // A drop of that packet does not match the stage's pattern at all.
        assert!(candidates(&m, &dropped(at(50), 7, 200, 1006)).is_empty());

        m.process(&forwarded(at(50), 99, 98, 1006));
        assert_eq!(m.violations().len(), 1);
        assert_eq!(keyed_sizes(&m, 1), (39, 0), "the advanced instance left its posting");
    }

    #[test]
    fn mixed_probes_post_under_both_sources_and_unpost_both() {
        // The lb/new-flow-hashed-port shape: advance by identity, clearing
        // by the held address. Only SYNs spawn, so the closing FIN does not.
        let mut p = arrived_then_forwarded();
        if let StageKind::Match { guard, .. } = &mut p.stages[0].kind {
            guard.atoms.push(Atom::EqConst(Field::TcpFlags, u64::from(TcpFlags::SYN.0).into()));
        }
        p.stages[1].unless = vec![Unless {
            pattern: EventPattern::Arrival,
            guard: Guard::new(vec![
                Atom::Bind(var("A"), Field::Ipv4Src),
                Atom::EqConst(Field::TcpFlags, u64::from(TcpFlags::FIN.0).into()),
            ]),
        }];
        let mut m = Monitor::with_defaults(p);
        m.process(&arrival(at(0), 1, 2, 10));
        m.process(&arrival(at(1), 3, 2, 11));
        assert_eq!(keyed_sizes(&m, 1), (4, 0), "two instances, two sources each");
        // Found by packet id on a departure, by address on an arrival.
        assert_eq!(candidates(&m, &forwarded(at(2), 9, 9, 11)).len(), 1);
        assert_eq!(candidates(&m, &arrival_flags(at(2), 1, 9, 12, TcpFlags::FIN)).len(), 1);
        assert!(candidates(&m, &arrival_flags(at(2), 8, 9, 13, TcpFlags::FIN)).is_empty());
        // The close clears instance A=1; both of its postings go.
        m.process(&arrival_flags(at(2), 1, 9, 12, TcpFlags::FIN));
        assert_eq!(m.stats.cleared, 1);
        assert_eq!(keyed_sizes(&m, 1), (2, 0));
        m.process(&forwarded(at(3), 3, 2, 11));
        assert_eq!(m.violations().len(), 1);
        assert_eq!(keyed_sizes(&m, 1), (0, 0));
    }

    #[test]
    fn sources_holding_the_same_value_share_a_posting_cleanly() {
        // Sources share one map, so a packet id can equal a held integer:
        // here the destination port (80) and packet id 80. The slot sits
        // twice under the one value, is gathered once, and leaves whole.
        let mut p = arrived_then_forwarded();
        if let StageKind::Match { guard, .. } = &mut p.stages[0].kind {
            guard.atoms = vec![Atom::Bind(var("Q"), Field::L4Dst)];
        }
        p.stages[1].unless = vec![Unless {
            pattern: EventPattern::Departure(ActionPattern::Drop),
            guard: Guard::new(vec![Atom::Bind(var("Q"), Field::L4Dst)]),
        }];
        let mut m = Monitor::with_defaults(p);
        m.process(&arrival(at(0), 1, 2, 80));
        assert_eq!(keyed_sizes(&m, 1), (1, 0));
        assert_eq!(candidates(&m, &forwarded(at(1), 1, 2, 80)).len(), 1);
        m.process(&dropped(at(1), 1, 2, 7)); // any drop to port 80 clears
        assert_eq!(m.stats.cleared, 1);
        assert_eq!(keyed_sizes(&m, 1), (0, 0));
        assert_eq!(m.live_instances(), 0);
    }

    #[test]
    fn instance_without_a_recorded_packet_waits_in_rest() {
        // Stage 1 is a deadline, so `stage_ids[1]` is `None`: an instance
        // awaiting "same packet as 1" has no value to be posted under. It
        // can never advance, but it must stay visible and leave cleanly.
        let mut p = arrived_then_forwarded();
        p.stages.insert(
            1,
            Stage::deadline("quiet", Duration::from_millis(10), RefreshPolicy::NoRefresh),
        );
        p.stages[2].kind = StageKind::Match {
            pattern: EventPattern::Departure(ActionPattern::Forwarded),
            guard: Guard::new(vec![Atom::SamePacket(1)]),
        };
        p.stages[2].within = Some(WindowSpec::Fixed(Duration::from_millis(100)));
        let mut m = Monitor::with_defaults(p);
        m.process(&arrival(at(0), 1, 2, 10));
        m.advance_to(at(20)); // the deadline fires: now awaiting stage 2
        assert_eq!(m.stats.deadlines_fired, 1);
        assert_eq!(keyed_sizes(&m, 2), (0, 1));
        assert_eq!(candidates(&m, &forwarded(at(21), 1, 2, 10)).len(), 1, "rest is always scanned");
        m.process(&forwarded(at(21), 1, 2, 10));
        assert!(m.violations().is_empty(), "no recorded packet: the guard cannot hold");
        // Snapshot/restore rebuilds `rest` as well as the postings.
        let snap = m.snapshot();
        m.restore(&snap).unwrap();
        assert_eq!(keyed_sizes(&m, 2), (0, 1));
        m.advance_to(at(500)); // the window expires
        assert_eq!(m.stats.window_expired, 1);
        assert_eq!(m.live_instances(), 0);
        assert_eq!(keyed_sizes(&m, 2), (0, 0));
    }

    // ---- checkpoint images (`snapshot_into`) ----------------------------

    /// Sync `m` into `image`; the result must equal a fresh snapshot.
    /// (Debug builds assert that inside `snapshot_into` too; this holds in
    /// release as well.) Returns the slots copied.
    fn synced(m: &mut Monitor, image: &mut crate::snapshot::MonitorSnapshot) -> usize {
        let copied = m.snapshot_into(image);
        assert_eq!(image.to_bytes(), m.snapshot().to_bytes());
        copied
    }

    #[test]
    fn a_sync_copies_the_slots_written_since_the_last_one() {
        let mut m = Monitor::with_defaults(fw_timeout(Duration::from_millis(100)));
        let mut image = Default::default();
        for i in 0..40u8 {
            m.process(&arrival(at(u64::from(i)), i + 1, 200, u64::from(i)));
        }
        assert_eq!(synced(&mut m, &mut image), 40, "nobody's base yet: a full copy");
        assert_eq!(synced(&mut m, &mut image), 0, "nothing written since");
        // A repeat only refreshes the incumbent's timer: no slot changes,
        // yet the image's timer section must.
        m.process(&arrival(at(50), 3, 200, 50));
        assert_eq!(m.stats.refreshed, 1);
        assert_eq!(synced(&mut m, &mut image), 0);
        // One violation (slot freed), one new flow into that slot, one
        // expiry sweep: the same slot written twice still copies once.
        m.process(&dropped(at(51), 200, 7, 51));
        m.process(&arrival(at(52), 99, 200, 52));
        assert_eq!(synced(&mut m, &mut image), 1);
        m.advance_to(at(149)); // every window but the refreshed and the new one
        assert_eq!(m.stats.window_expired, 38);
        assert_eq!(synced(&mut m, &mut image), 38);
        assert_eq!(image.live_instances(), 2);
    }

    #[test]
    fn a_never_synced_monitor_holds_no_write_list() {
        // `MonitorSet`, the reference loop and every standalone user: a
        // monitor nobody checkpoints must not pay for checkpointing.
        let mut m = Monitor::with_defaults(fw_basic());
        for i in 0..50_000u64 {
            let host = (i % 251) as u8;
            m.process(&arrival(at(i), host, 252, 2 * i));
            m.process(&dropped(at(i), 252, host, 2 * i + 1));
        }
        assert_eq!(m.stats.events, 100_000);
        assert_eq!((m.stats.spawned, m.stats.advanced), (50_000, 50_000));
        assert!(m.writes.is_none());
        // Nor does taking from-scratch snapshots start one.
        let _ = m.snapshot();
        m.process(&arrival(at(50_000), 1, 252, 0));
        assert!(m.writes.is_none());
    }

    #[test]
    fn a_write_list_never_outgrows_the_slots() {
        // One flow opened and violated over and over between syncs: the
        // list would grow with the run, so it is dropped and the next sync
        // copies everything — all one slot of it.
        let mut m = Monitor::with_defaults(fw_basic());
        let mut image = Default::default();
        m.process(&arrival(at(0), 1, 2, 0));
        assert_eq!(synced(&mut m, &mut image), 1);
        for i in 1..1000u64 {
            m.process(&dropped(at(i), 2, 1, 2 * i));
            m.process(&arrival(at(i), 1, 2, 2 * i + 1));
            if let Some(writes) = &m.writes {
                assert!(writes.slots.len() <= m.slots.len());
            }
        }
        assert!(m.writes.is_none(), "dropped, not grown");
        assert_eq!(synced(&mut m, &mut image), 1);
        assert!(m.writes.is_some(), "a sync starts the next list");
    }

    #[test]
    fn a_live_instance_stays_put_while_the_store_grows() {
        // Slot 0 is spawned first; 1 999 more spawns take the store through
        // twelve more chunks, and neither the instance nor its rows move.
        let mut m = Monitor::with_defaults(fw_basic());
        let flow = |i: u64| Bindings::new().bind(var("A"), FieldValue::Uint(i));
        m.spawn(at(0), flow(0), Some(PacketId(0)), Vec::new());
        let first = m.slots.entry(0).expect("spawned");
        let first: (*const Instance, *const Option<PacketId>, *const FieldValue) =
            (first.inst, first.ids.as_ptr(), first.row.as_ptr());
        for i in 1..2_000 {
            m.spawn(at(0), flow(i), Some(PacketId(i)), Vec::new());
        }
        assert_eq!((m.live_instances(), m.slots.len()), (2_000, 2_000));
        let now = m.slots.entry(0).expect("still live");
        assert!(std::ptr::eq(first.0, now.inst), "the instance moved");
        assert!(std::ptr::eq(first.1, now.ids.as_ptr()), "its stage ids moved");
        assert!(std::ptr::eq(first.2, now.row.as_ptr()), "its values moved");
        assert_eq!(now.ids, [Some(PacketId(0))]);
        assert_eq!(now.bindings(), flow(0));
    }

    #[test]
    fn an_image_patched_while_the_store_grows_equals_a_fresh_snapshot() {
        // Each round opens 300 flows, so the store and the image gain
        // chunks between syncs, and violates every third flow opened so far,
        // freeing slots the next round reuses. Every sync after the first
        // patches the image; `synced` compares it with a fresh snapshot
        // byte for byte, in release builds too.
        let mut m = Monitor::with_defaults(fw_basic());
        let mut image = Default::default();
        let host = |f: u64| ((f % 250) as u8 + 1, (f / 250) as u8 + 1);
        let mut copied = Vec::new();
        for round in 0..8u64 {
            for f in round * 300..(round + 1) * 300 {
                let (a, b) = host(f);
                m.process(&arrival(at(f), a, b, 2 * f));
            }
            for f in (0..(round + 1) * 300).step_by(3) {
                let (a, b) = host(f);
                m.process(&dropped(at((round + 1) * 300), b, a, 2 * f + 1));
            }
            copied.push((synced(&mut m, &mut image), m.slots.len()));
        }
        assert!(m.slots.len() > 1_000, "the store grew past several chunks");
        assert!(copied[1..].iter().all(|&(n, len)| n < len), "each later sync patched: {copied:?}");
        assert_eq!(image.live_instances(), m.live_instances());
    }

    #[test]
    fn an_idle_replica_holds_no_register_array() {
        // A shard builds a replica of every property; under a bounded store
        // only a replica that spawns pays for the cells.
        let cfg = MonitorConfig { capacity: Some(1 << 20), ..Default::default() };
        let mut m = Monitor::new(fw_basic(), cfg);
        assert_eq!((m.cells.capacity(), m.slots.len()), (0, 0));
        let mut replica = Monitor::new(fw_basic(), cfg);
        replica.restore(&m.snapshot()).expect("an idle image restores");
        assert_eq!(replica.cells.capacity(), 0, "restoring an idle image allocates none");
        m.process(&arrival(at(0), 1, 2, 0));
        assert_eq!(m.cells.len(), 1 << 20, "the first spawn allocates the array");
        replica.restore(&m.snapshot()).expect("a live image restores");
        assert_eq!(replica.cells.len(), 1 << 20);
    }

    #[test]
    fn only_the_image_last_synced_into_is_patched() {
        let mut m = Monitor::with_defaults(fw_basic());
        let mut other = Monitor::with_defaults(fw_basic());
        let (mut image, mut foreign) = Default::default();
        for i in 0..10u8 {
            m.process(&arrival(at(u64::from(i)), i + 1, 200, u64::from(i)));
            other.process(&arrival(at(u64::from(i)), i + 101, 200, u64::from(i)));
        }
        assert_eq!(synced(&mut m, &mut image), 10);
        assert_eq!(synced(&mut other, &mut foreign), 10);
        m.process(&dropped(at(20), 200, 4, 20));
        // Another monitor's image, a decoded one, a from-scratch one: none
        // is this monitor's base, each is replaced whole.
        assert_eq!(synced(&mut m, &mut foreign), 10);
        m.process(&dropped(at(21), 200, 5, 21));
        let mut decoded =
            crate::snapshot::MonitorSnapshot::from_bytes(&foreign.to_bytes()).unwrap();
        assert_eq!(synced(&mut m, &mut decoded), 10);
        let mut scratch = m.snapshot();
        assert_eq!(synced(&mut m, &mut scratch), 10);
        // `image` fell behind while the others were synced: stale, so whole.
        assert_eq!(synced(&mut m, &mut image), 10);
        m.process(&dropped(at(22), 200, 6, 22));
        assert_eq!(synced(&mut m, &mut image), 1, "and from here on it is the base again");
        // A monitor restored from an image continues from it.
        let mut revived = Monitor::with_defaults(fw_basic());
        revived.restore(&image).unwrap();
        revived.process(&dropped(at(23), 200, 7, 23));
        assert_eq!(synced(&mut revived, &mut image), 1);
        // Which leaves the original behind in turn.
        assert_eq!(synced(&mut m, &mut image), 10);
    }

    #[test]
    fn out_of_band_event_advances_all_matching_instances() {
        // Multiple match: a port-down event advances one instance per
        // learned address (learning-switch example from Sec 2.4).
        let p = Property {
            name: "link-down-multi".into(),
            statement: "link-down clears learned destinations".into(),
            stages: vec![
                Stage::match_(
                    "learn",
                    EventPattern::Arrival,
                    Guard::new(vec![Atom::Bind(var("D"), Field::EthSrc)]),
                ),
                Stage::match_(
                    "link-down",
                    EventPattern::OutOfBand(OobPattern::PortDown),
                    Guard::any(),
                ),
                Stage::match_(
                    "still-unicast",
                    EventPattern::Departure(ActionPattern::Unicast),
                    Guard::new(vec![Atom::Bind(var("D"), Field::EthDst)]),
                ),
            ],
        };
        let mut m = Monitor::with_defaults(p);
        m.process(&arrival(at(0), 1, 9, 0)); // learns D=...01
        m.process(&arrival(at(1), 2, 9, 1)); // learns D=...02
        assert_eq!(m.live_instances(), 2);
        m.process(&NetEvent {
            time: at(2),
            kind: NetEventKind::OutOfBand(OobEvent::PortDown(SwitchId(0), PortNo(3))),
        });
        // Both instances advanced by the single OOB event.
        assert_eq!(m.stats.advanced, 2);
        // Unicast to D=...01 after the link-down: violation for that D only.
        m.process(&forwarded(at(3), 9, 1, 2));
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn one_stage_property_fires_immediately() {
        let p = Property {
            name: "no-telnet".into(),
            statement: "no packet to port 23 is seen".into(),
            stages: vec![Stage::match_(
                "telnet",
                EventPattern::Arrival,
                Guard::new(vec![Atom::EqConst(Field::L4Dst, 80u16.into())]),
            )],
        };
        let mut m = Monitor::with_defaults(p);
        m.process(&arrival(at(0), 1, 2, 0));
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.live_instances(), 0);
    }

    #[test]
    fn duplicate_spawns_dedup() {
        let mut m = Monitor::with_defaults(fw_basic());
        for i in 0..10 {
            m.process(&arrival(at(i), 1, 2, i));
        }
        assert_eq!(m.live_instances(), 1);
        assert_eq!(m.stats.deduplicated, 9);
        // Still exactly one violation for the pair.
        m.process(&dropped(at(100), 2, 1, 99));
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn equal_values_under_different_names_are_different_instances() {
        // The dedup hash reads values, not names: {?A=1} and {?B=1} hash
        // alike under one map's seed, and the slot comparison must still
        // keep them apart — before a checkpoint and after a restore.
        let a = Bindings::new().bind(var("A"), FieldValue::Uint(1));
        let b = Bindings::new().bind(var("B"), FieldValue::Uint(1));
        let mut m = Monitor::with_defaults(fw_basic());
        let (mut row_a, mut row_b) = ([UNBOUND; 2], [UNBOUND; 2]);
        let key_a =
            Key { stage: 1, bound: a.pack(m.slots.cols(), &mut row_a).unwrap(), row: &row_a };
        let key_b =
            Key { stage: 1, bound: b.pack(m.slots.cols(), &mut row_b).unwrap(), row: &row_b };
        assert_eq!(m.index.hash(key_a), m.index.hash(key_b));
        assert_ne!(a, b);
        assert_ne!(key_a, key_b);
        m.spawn(at(0), a, None, Vec::new());
        m.spawn(at(1), b, None, Vec::new());
        assert_eq!((m.live_instances(), m.stats.deduplicated), (2, 0), "no dedup across names");
        let mut revived = Monitor::with_defaults(fw_basic());
        revived.restore(&m.snapshot()).expect("two keys under one hash are two keys");
        for m in [&mut m, &mut revived] {
            m.spawn(at(2), a, None, Vec::new());
            let live_and_deduplicated = (m.live_instances(), m.stats.deduplicated);
            assert_eq!(live_and_deduplicated, (2, 1), "same name and value do");
        }
    }

    #[test]
    fn the_dedup_index_tells_apart_keys_filed_under_one_hash() {
        // 64-bit collisions do not happen on real traces, so file four
        // keys under one hash by hand: two stages, three environments, two
        // of which — {?A=1} and {?A=1, ?B=0} — differ only in which cells
        // of an equal row are bound.
        let a = Bindings::new().bind(var("A"), FieldValue::Uint(1));
        let b = Bindings::new().bind(var("A"), FieldValue::Uint(2));
        let a0 = a.bind(var("B"), UNBOUND);
        let keys = [(1, a), (1, b), (2, a), (1, a0)];
        let cols = [var("A"), var("B")];
        let pack = |env: Bindings| {
            let mut row = [UNBOUND; 2];
            (env.pack(&cols, &mut row).expect("both variables have a column"), row)
        };
        let mut slots = SlotStore::new(2, cols.into());
        for (awaiting, bindings) in keys {
            let idx = slots.push_empty();
            let (bound, row) = pack(bindings);
            let inst = Instance {
                uid: 0,
                awaiting: 1,
                bound,
                history: Vec::new(),
                timer: None,
                cell: None,
            };
            slots.put(idx, inst, None, &row);
            (1..awaiting).for_each(|_| _ = slots.advance(idx, None));
        }
        const HASH: u64 = 0x5eed;
        let find = |index: &DedupIndex, (stage, bindings): (usize, Bindings)| {
            let (bound, row) = pack(bindings);
            index.get(HASH, Key { stage, bound, row: &row }, &slots)
        };
        let found = |index: &DedupIndex| keys.map(|key| find(index, key));
        let mut index = DedupIndex::default();
        for (idx, &key) in keys.iter().enumerate() {
            assert_eq!(find(&index, key), None, "key {idx} is not filed yet");
            index.insert(HASH, idx);
        }
        assert_eq!(found(&index), [Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!((index.len, find(&index, (2, b))), (4, None), "an unfiled key stays unfound");
        index.remove(HASH, 0);
        assert_eq!(found(&index), [None, Some(1), Some(2), Some(3)]);
        index.remove(HASH, 0);
        assert_eq!(index.len, 3, "removing an unfiled slot changes nothing");
        index.remove(HASH, 3);
        index.remove(HASH, 2);
        index.remove(HASH, 1);
        assert_eq!((index.len, index.map.len()), (0, 0), "the last removal drops the entry");
    }

    #[test]
    fn provenance_modes_control_report_content() {
        for (mode, expect_bindings, expect_history) in [
            (ProvenanceMode::None, false, false),
            (ProvenanceMode::Bindings, true, false),
            (ProvenanceMode::Full, true, true),
        ] {
            let mut m = Monitor::new(
                fw_basic(),
                MonitorConfig {
                    provenance: mode,
                    mode: ProcessingMode::Inline,
                    ..Default::default()
                },
            );
            m.process(&arrival(at(0), 1, 2, 0));
            m.process(&dropped(at(1), 2, 1, 1));
            let v = &m.violations()[0];
            assert_eq!(v.bindings.is_some(), expect_bindings, "{mode:?}");
            assert_eq!(!v.history.is_empty(), expect_history, "{mode:?}");
            if expect_history {
                assert_eq!(v.history.len(), 2, "spawn + trigger events retained");
            }
        }
    }

    #[test]
    fn full_provenance_costs_memory() {
        let mk = |mode| {
            let mut m = Monitor::new(
                fw_basic(),
                MonitorConfig {
                    provenance: mode,
                    mode: ProcessingMode::Inline,
                    ..Default::default()
                },
            );
            for i in 0..50 {
                m.process(&arrival(at(i), (i % 20) as u8, 99, i));
            }
            m.state_bytes()
        };
        let none = mk(ProvenanceMode::None);
        let full = mk(ProvenanceMode::Full);
        assert!(full > none * 2, "full provenance retains packets: {full} vs {none}");
    }

    #[test]
    fn split_mode_misses_fast_violation() {
        // The drop lands 1ms after the outbound packet, but state updates
        // lag by 10ms: the monitor misses the violation entirely.
        let cfg = MonitorConfig {
            provenance: ProvenanceMode::Bindings,
            mode: ProcessingMode::Split { lag: Duration::from_millis(10) },
            ..Default::default()
        };
        let mut m = Monitor::new(fw_basic(), cfg);
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&dropped(at(1), 2, 1, 1)); // spawn not yet applied
        m.advance_to(at(1000));
        assert!(m.violations().is_empty(), "split mode: state lagged, violation missed");

        // Same trace inline: detected.
        let mut m = Monitor::with_defaults(fw_basic());
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&dropped(at(1), 2, 1, 1));
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn split_mode_catches_slow_violation() {
        let cfg = MonitorConfig {
            provenance: ProvenanceMode::Bindings,
            mode: ProcessingMode::Split { lag: Duration::from_millis(10) },
            ..Default::default()
        };
        let mut m = Monitor::new(fw_basic(), cfg);
        m.process(&arrival(at(0), 1, 2, 0));
        m.process(&dropped(at(50), 2, 1, 1)); // well past the lag
        m.advance_to(at(1000));
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn stale_split_effects_are_dropped_not_crashed() {
        // Two quick drops race the advance: the second's effect is stale.
        let cfg = MonitorConfig {
            provenance: ProvenanceMode::Bindings,
            mode: ProcessingMode::Split { lag: Duration::from_millis(10) },
            ..Default::default()
        };
        let mut m = Monitor::new(fw_basic(), cfg);
        m.process(&arrival(at(0), 1, 2, 0));
        m.advance_to(at(20)); // spawn applied
        m.process(&dropped(at(21), 2, 1, 1));
        m.process(&dropped(at(22), 2, 1, 2)); // matches same instance pre-advance
        m.advance_to(at(1000));
        // The first lagged advance completes the instance; the second is
        // detected as stale at application time and dropped, not crashed.
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.stats.stale_effects_dropped, 1);
    }

    #[test]
    fn determinism_same_trace_same_results() {
        let trace: Vec<NetEvent> = (0..200u64)
            .map(|i| {
                if i % 3 == 0 {
                    arrival(at(i), (i % 7) as u8, ((i + 1) % 7) as u8, i)
                } else {
                    dropped(at(i), (i % 7) as u8, ((i + 1) % 7) as u8, i)
                }
            })
            .collect();
        let run = || {
            let mut m = Monitor::with_defaults(fw_timeout(Duration::from_millis(50)));
            for ev in &trace {
                m.process(ev);
            }
            m.advance_to(at(1000));
            (m.violations().len(), m.stats.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn live_instances_and_state_bytes_track_growth() {
        let mut m = Monitor::with_defaults(fw_basic());
        assert_eq!(m.state_bytes(), 0);
        for i in 0..100u64 {
            m.process(&arrival(at(i), (i % 50) as u8 + 1, 200, i));
        }
        assert_eq!(m.live_instances(), 50);
        assert!(m.state_bytes() > 0);
    }

    /// The longest `within` the DSL accepts in seconds ends 0.71 s before
    /// the clock runs out: armed any later, its deadline saturates at the
    /// last representable instant instead of overflowing, and never comes.
    #[test]
    fn a_window_past_the_end_of_the_clock_never_expires() {
        let src = r#"
property "far"
observe a on arrival
  bind ?A = ipv4.src
end
observe b on departure(drop) within 18446744073s
  ipv4.src == ?A
end
"#;
        let mut m = Monitor::with_defaults(crate::dsl::parse_property(src).unwrap());
        m.process(&arrival(at(1_000), 1, 9, 0));
        m.process(&arrival(at(2_000), 2, 9, 1));
        m.advance_to(Instant::from_nanos(u64::MAX - 1));
        assert_eq!(m.live_instances(), 2);
        assert_eq!(m.stats.window_expired, 0);
        assert!(m.violations().is_empty());
    }
}
