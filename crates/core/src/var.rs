//! Binder variables and environments.
//!
//! A property's observations share data through *variables*: the first
//! observation binds `A` and `B` from a packet's fields, later observations
//! match (or negatively match) against them. The set of live bindings is an
//! instance's identity — the paper's Feature 8 notes that "an instance
//! consists of a set of header values matching previously seen
//! observations".
//!
//! ## Hot-path representation
//!
//! Variable names are interned once (at property-construction time) into a
//! process-wide table that hands each name one leaked handle, so a [`Var`]
//! is a single pointer (8 bytes) and two variables are equal exactly when
//! their handles are. [`Bindings`] is a fixed-capacity inline environment
//! kept sorted by variable name, its handles and values in two side-by-side
//! arrays (200 bytes, against 264 for an array of `(name, value)` pairs of
//! a 16-byte `&str`; see docs/PERF.md, "An instance is stored once"). `bind`
//! and clone are O(capacity) stack copies with zero heap allocation, and
//! `unify` extends an environment in place — a guard evaluation copies its
//! instance's environment once, however many variables it binds. This is
//! the single hottest data structure in the workspace.
//!
//! A live instance does not hold a [`Bindings`]: its slot holds a packed
//! row of its property's own variables ([`crate::slots`]), and
//! `Bindings::pack` / `Bindings::unpack` convert between the two where a
//! guard, a violation or an encoder needs the environment (see
//! docs/PERF.md, "An instance holds only its property's variables").
//!
//! The canonical (name-sorted) order is load-bearing: equality, ordering,
//! hashing, and `Display` must be byte-for-byte identical to the original
//! `BTreeMap<Var, FieldValue>` form. Instance dedup compares with `Eq`, and
//! violation output prints with `Display`. Of the hashes, only the
//! capacity-store cell hash derives from [`Bindings`]' `Hash` stream; the
//! engine's dedup index hashes the awaited stage and the bound values
//! alone.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard, OnceLock};
use swmon_packet::FieldValue;

/// Most distinct binder variables one property may use (the catalog's
/// richest properties bind six). [`crate::property::Property::validate`]
/// rejects properties exceeding this, so the engine never hits the limit at
/// event time.
pub const MAX_VARS: usize = 8;

/// The interner: each name seen so far, with the one handle it was given.
/// It only ever grows (names are tiny and come from property definitions
/// and decoded records, not events), so leaking is the correct lifetime.
fn table() -> MutexGuard<'static, HashMap<&'static str, Var>> {
    static TABLE: OnceLock<Mutex<HashMap<&'static str, Var>>> = OnceLock::new();
    TABLE.get_or_init(Default::default).lock().expect("interner poisoned")
}

/// A named binder variable: `Copy`, one pointer wide. Every `Var` of one
/// name shares the handle the interner leaked for it.
#[derive(Debug, Clone, Copy)]
pub struct Var(&'static &'static str);

// One word: see docs/PERF.md, "An instance is stored once".
const _: () = assert!(size_of::<Var>() == 8);

impl Var {
    /// The variable's name (without the `?` sigil).
    #[inline]
    pub fn name(&self) -> &'static str {
        self.0
    }

    /// The variable named `name`, if anything has interned it; never
    /// interns. `None` means no property or decoded record binds that
    /// name, so no environment can hold it.
    pub fn lookup(name: &str) -> Option<Var> {
        table().get(name).copied()
    }
}

impl PartialEq for Var {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // One handle per name, and only the interner makes handles.
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Var {}

impl PartialOrd for Var {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Var {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name().cmp(other.name())
    }
}

impl Hash for Var {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Same byte stream as the former `Var(String)` derive (str hash).
        self.name().hash(state);
    }
}

/// Shorthand constructor: `var("A")`, interning `name` on first use.
pub fn var(name: &str) -> Var {
    let mut t = table();
    if let Some(&v) = t.get(name) {
        return v;
    }
    let name: &'static str = Box::leak(name.into());
    let v = Var(Box::leak(Box::new(name)));
    t.insert(name, v);
    v
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.name())
    }
}

/// A dense per-property variable number, assigned in canonical (name-sorted)
/// order by [`VarTable`]. Stable across `Property` clones and DSL
/// round-trips because it depends only on the set of names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u16);

/// A property's binder-variable interner: every top-level `Bind` variable,
/// numbered densely in name order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarTable {
    vars: Vec<Var>,
}

impl VarTable {
    /// Build from any iterator of variables (duplicates collapse; order is
    /// canonicalized by name).
    pub fn from_vars(vars: impl IntoIterator<Item = Var>) -> Self {
        let mut vars: Vec<Var> = vars.into_iter().collect();
        vars.sort_unstable();
        vars.dedup();
        VarTable { vars }
    }

    /// The dense id of `v`, if it is in the table.
    pub fn id(&self, v: &Var) -> Option<VarId> {
        self.vars.binary_search(v).ok().map(|i| VarId(i as u16))
    }

    /// The variable numbered `id`.
    pub fn get(&self, id: VarId) -> Option<Var> {
        self.vars.get(id.0 as usize).copied()
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True when the property binds no variables.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Variables in id order.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        self.vars.iter().copied()
    }

    /// The variables in id order, as one allocation.
    pub(crate) fn into_boxed(self) -> Box<[Var]> {
        self.vars.into_boxed_slice()
    }
}

/// An immutable-by-convention environment of variable bindings.
///
/// Kept sorted by variable name so that environments have a canonical form:
/// two instances with the same bindings compare equal, hash equal, and print
/// identically — which is what instance deduplication keys on. Stored
/// inline, no heap: the first `len` entries of `vars` name the bound
/// variables and the same entries of `vals` hold their values; the rest
/// are `None` and a filler value that nothing reads.
#[derive(Clone, Copy)]
pub struct Bindings {
    len: u8,
    vars: [Option<Var>; MAX_VARS],
    vals: [FieldValue; MAX_VARS],
}

// See docs/PERF.md, "An instance is stored once".
const _: () = assert!(size_of::<Bindings>() <= 200);

impl Default for Bindings {
    #[inline]
    fn default() -> Self {
        Bindings { len: 0, vars: [None; MAX_VARS], vals: [FieldValue::Uint(0); MAX_VARS] }
    }
}

impl Bindings {
    /// The empty environment.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn entries(&self) -> impl Iterator<Item = (&Var, &FieldValue)> {
        let n = self.len as usize;
        self.vars[..n].iter().map(|v| v.as_ref().expect("slot within len")).zip(&self.vals[..n])
    }

    /// Value of `v`, if bound.
    #[inline]
    pub fn get(&self, v: &Var) -> Option<&FieldValue> {
        let n = self.len as usize;
        self.vars[..n].iter().position(|bv| *bv == Some(*v)).map(|i| &self.vals[i])
    }

    /// True if `v` is bound.
    #[inline]
    pub fn is_bound(&self, v: &Var) -> bool {
        self.get(v).is_some()
    }

    /// A copy with `v` bound to `val`. Panics if `v` is already bound to a
    /// different value — guards must unify, not overwrite (see
    /// [`Bindings::unify`]) — or if the environment already holds
    /// [`MAX_VARS`] other variables (validated properties cannot trigger
    /// this).
    pub fn bind(&self, v: Var, val: FieldValue) -> Bindings {
        let mut out = *self;
        out.bind_in_place(v, val);
        out
    }

    fn bind_in_place(&mut self, v: Var, val: FieldValue) {
        let n = self.len as usize;
        let mut i = 0;
        while i < n {
            let bv = self.vars[i].expect("slot within len");
            match bv.name().cmp(v.name()) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Equal => {
                    assert_eq!(self.vals[i], val, "rebinding {v} to a different value");
                    return;
                }
                std::cmp::Ordering::Greater => break,
            }
        }
        assert!(n < MAX_VARS, "environment capacity ({MAX_VARS} variables) exceeded binding {v}");
        self.vars.copy_within(i..n, i + 1);
        self.vals.copy_within(i..n, i + 1);
        self.vars[i] = Some(v);
        self.vals[i] = val;
        self.len += 1;
    }

    /// Unification, in place: if `v` is unbound, bind it; if bound,
    /// succeed only when the values agree. Returns false on a conflict,
    /// and then leaves `self` untouched.
    #[inline]
    pub fn unify(&mut self, v: &Var, val: FieldValue) -> bool {
        match self.get(v) {
            Some(existing) => *existing == val,
            None => {
                self.bind_in_place(*v, val);
                true
            }
        }
    }

    /// Number of bound variables.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if nothing is bound.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate bindings in canonical (name) order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &FieldValue)> {
        self.entries()
    }

    /// Approximate memory footprint, for provenance/state accounting.
    pub fn approx_bytes(&self) -> usize {
        self.entries().map(|(k, _)| k.name().len() + 16).sum()
    }

    /// Lay this environment out on `cols`, a name-ordered list of distinct
    /// variables: each bound variable's value goes to the cell of `row`
    /// under its column, and bit `i` of the returned mask marks cell `i`
    /// bound. Other cells are left as they are. `None`, with `row` partly
    /// written, when a bound variable has no column.
    #[inline]
    pub(crate) fn pack(&self, cols: &[Var], row: &mut [FieldValue]) -> Option<u8> {
        let (mut mask, mut col) = (0, 0);
        for i in 0..self.len as usize {
            // Both sides are in name order, so the columns are walked once.
            while cols.get(col)? != self.vars[i].as_ref()? {
                col += 1;
            }
            row[col] = self.vals[i];
            mask |= 1 << col;
            col += 1;
        }
        Some(mask)
    }

    /// The environment a row packed by [`Bindings::pack`] holds: for each
    /// bit `i` set in `mask`, `cols[i]` bound to `row[i]`.
    #[inline]
    pub(crate) fn unpack(cols: &[Var], mask: u8, row: &[FieldValue]) -> Bindings {
        let mut out = Bindings::new();
        for (col, (v, val)) in cols.iter().zip(row).enumerate() {
            if (mask >> col) & 1 == 1 {
                out.vars[out.len as usize] = Some(*v);
                out.vals[out.len as usize] = *val;
                out.len += 1;
            }
        }
        out
    }
}

// A row's bound cells are one bit each of a `u8` mask.
const _: () = assert!(MAX_VARS <= u8::BITS as usize);

impl PartialEq for Bindings {
    fn eq(&self, other: &Self) -> bool {
        let n = self.len as usize;
        self.len == other.len
            && self.vars[..n] == other.vars[..n]
            && self.vals[..n] == other.vals[..n]
    }
}

impl Eq for Bindings {}

impl PartialOrd for Bindings {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bindings {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lexicographic over (name, value) pairs in canonical order —
        // identical to the former `BTreeMap` derived ordering.
        self.entries().cmp(other.entries())
    }
}

impl Hash for Bindings {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Byte-for-byte the stream the former `BTreeMap<Var, FieldValue>`
        // derive emitted: a usize length prefix, then each (key, value) in
        // name order. The capacity-bounded store's cell hash folds this
        // stream, so changing it would change eviction behaviour.
        state.write_usize(self.len as usize);
        for (v, val) in self.entries() {
            v.hash(state);
            val.hash(state);
        }
    }
}

impl fmt::Debug for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bindings ")?;
        f.debug_map().entries(self.entries()).finish()
    }
}

impl fmt::Display for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.entries().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_binds_fresh_variables() {
        let mut env = Bindings::new();
        assert!(env.unify(&var("A"), FieldValue::Uint(1)));
        assert_eq!(env.get(&var("A")), Some(&FieldValue::Uint(1)));
        assert!(env.is_bound(&var("A")));
        assert!(!env.is_bound(&var("B")));
        assert_eq!(env.len(), 1);
    }

    #[test]
    fn unify_checks_existing_bindings() {
        let mut env = Bindings::new().bind(var("A"), FieldValue::Uint(1));
        assert!(env.unify(&var("A"), FieldValue::Uint(1)));
        assert!(!env.unify(&var("A"), FieldValue::Uint(2)));
        assert_eq!(env.get(&var("A")), Some(&FieldValue::Uint(1)));
    }

    #[test]
    fn environments_are_canonical() {
        let e1 =
            Bindings::new().bind(var("B"), FieldValue::Uint(2)).bind(var("A"), FieldValue::Uint(1));
        let e2 =
            Bindings::new().bind(var("A"), FieldValue::Uint(1)).bind(var("B"), FieldValue::Uint(2));
        assert_eq!(e1, e2, "insertion order is irrelevant");
        assert_eq!(e1.to_string(), "{?A=1, ?B=2}");
    }

    #[test]
    #[should_panic(expected = "rebinding")]
    fn bind_rejects_conflicting_rebind() {
        let env = Bindings::new().bind(var("A"), FieldValue::Uint(1));
        let _ = env.bind(var("A"), FieldValue::Uint(2));
    }

    #[test]
    fn unify_leaves_original_untouched() {
        // In place, but only on success: a conflict changes nothing.
        let env = Bindings::new().bind(var("B"), FieldValue::Uint(2));
        let mut tried = env;
        assert!(!tried.unify(&var("B"), FieldValue::Uint(3)));
        assert_eq!(tried, env, "a failed unify does not mutate");
        assert!(tried.unify(&var("A"), FieldValue::Uint(1)));
        assert_eq!(tried.to_string(), "{?A=1, ?B=2}");
        assert_eq!(env.len(), 1, "unifying a copy leaves the original alone");
    }

    #[test]
    fn rebinding_same_value_is_idempotent() {
        let env = Bindings::new().bind(var("A"), FieldValue::Uint(1));
        let env = env.bind(var("A"), FieldValue::Uint(1));
        assert_eq!(env.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn bind_past_capacity_panics() {
        let mut env = Bindings::new();
        for i in 0..=MAX_VARS {
            env = env.bind(var(&format!("V{i}")), FieldValue::Uint(i as u64));
        }
    }

    #[test]
    fn hash_matches_btreemap_derive_stream() {
        // The capacity-store cell hash (engine::bindings_hash) depends on
        // this exact stream; pin it against an inline re-derivation.
        use std::collections::BTreeMap;
        struct Capture(Vec<u8>);
        impl Hasher for Capture {
            fn finish(&self) -> u64 {
                0
            }
            fn write(&mut self, bytes: &[u8]) {
                self.0.extend_from_slice(bytes);
            }
        }
        let env =
            Bindings::new().bind(var("B"), FieldValue::Uint(7)).bind(var("A"), FieldValue::Uint(3));
        let mut got = Capture(Vec::new());
        env.hash(&mut got);
        let mut map: BTreeMap<String, FieldValue> = BTreeMap::new();
        map.insert("A".into(), FieldValue::Uint(3));
        map.insert("B".into(), FieldValue::Uint(7));
        let mut want = Capture(Vec::new());
        map.hash(&mut want);
        assert_eq!(got.0, want.0, "Bindings::hash must emit the BTreeMap stream");
    }

    #[test]
    fn ordering_is_lexicographic_like_btreemap() {
        let a = Bindings::new().bind(var("A"), FieldValue::Uint(1));
        let ab =
            Bindings::new().bind(var("A"), FieldValue::Uint(1)).bind(var("B"), FieldValue::Uint(2));
        let b = Bindings::new().bind(var("B"), FieldValue::Uint(0));
        assert!(a < ab, "prefix orders first");
        assert!(a < b, "name order dominates");
        assert!(Bindings::new() < a);
    }

    /// The byte stream `env`'s `Hash` emits.
    fn hash_stream(env: &Bindings) -> Vec<u8> {
        struct Capture(Vec<u8>);
        impl Hasher for Capture {
            fn finish(&self) -> u64 {
                0
            }
            fn write(&mut self, bytes: &[u8]) {
                self.0.extend_from_slice(bytes);
            }
        }
        let mut out = Capture(Vec::new());
        env.hash(&mut out);
        out.0
    }

    #[test]
    fn a_packed_row_unpacks_to_the_environment_it_came_from() {
        use proptest::prelude::*;
        // A table of up to eight of ten names, an environment binding any
        // subset of it in any order, and a row that held something before.
        const NAMES: [&str; 10] = ["A", "A2", "B", "P", "P2", "Q", "mac", "port", "x", "zz"];
        let picks =
            proptest::collection::vec((any::<bool>(), any::<bool>(), 0u8..3, any::<u64>()), 10);
        let stale = proptest::collection::vec(any::<u64>(), MAX_VARS);
        proptest!(|(picks in picks, stale in stale)| {
            let in_table = |i: usize| picks[i].0;
            let names = (0..NAMES.len()).filter(|&i| in_table(i)).take(MAX_VARS);
            let cols: Vec<Var> = VarTable::from_vars(names.map(|i| var(NAMES[i]))).iter().collect();
            let value = |kind: u8, x: u64| match kind {
                0 => FieldValue::Uint(x),
                1 => FieldValue::Ipv4(swmon_packet::Ipv4Address::from_u32(x as u32)),
                _ => FieldValue::Mac(swmon_packet::MacAddr::from_u64(x & 0xffff_ffff_ffff)),
            };
            // Bound in the order of the drawn numbers, not the table's.
            let mut order: Vec<usize> = (0..cols.len()).collect();
            order.sort_by_key(|&i| picks[i].3);
            let mut env = Bindings::new();
            for i in order {
                let (_, bind, kind, x) = picks[i];
                if bind {
                    env = env.bind(cols[i], value(kind, x));
                }
            }
            let mut row: Vec<FieldValue> = stale[..cols.len()].iter().map(|&x| FieldValue::Uint(x)).collect();
            let mask = env.pack(&cols, &mut row).expect("every variable has a column");
            prop_assert_eq!(mask.count_ones() as usize, env.len());
            let back = Bindings::unpack(&cols, mask, &row);
            prop_assert_eq!(back, env);
            prop_assert_eq!(back.cmp(&env), std::cmp::Ordering::Equal);
            prop_assert_eq!(hash_stream(&back), hash_stream(&env));
            prop_assert_eq!(back.approx_bytes(), env.approx_bytes());
            prop_assert_eq!(back.to_string(), env.to_string());
            // A variable without a column does not pack.
            if let Some(&missing) = cols.first().filter(|_| !env.is_empty()) {
                let others: Vec<Var> = cols.iter().copied().filter(|&c| c != missing).collect();
                prop_assert_eq!(env.pack(&others, &mut row).is_some(), !env.is_bound(&missing));
            }
        });
    }

    #[test]
    fn var_table_assigns_dense_ids_in_name_order() {
        let t = VarTable::from_vars([var("B"), var("A"), var("B"), var("C")]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.id(&var("A")), Some(VarId(0)));
        assert_eq!(t.id(&var("B")), Some(VarId(1)));
        assert_eq!(t.id(&var("C")), Some(VarId(2)));
        assert_eq!(t.id(&var("Z")), None);
        assert_eq!(t.get(VarId(1)), Some(var("B")));
        let names: Vec<&str> = t.iter().map(|v| v.name()).collect();
        assert_eq!(names, ["A", "B", "C"]);
    }

    #[test]
    fn lookup_finds_interned_names_and_interns_none() {
        assert_eq!(Var::lookup("LookedUpBeforeInterning"), None);
        assert_eq!(Var::lookup("LookedUpBeforeInterning"), None, "a miss interns nothing");
        let v = var("LookedUpAfterInterning");
        assert_eq!(Var::lookup("LookedUpAfterInterning"), Some(v));
        assert!(std::ptr::eq(Var::lookup("LookedUpAfterInterning").unwrap().name(), v.name()));
    }

    #[test]
    fn interned_vars_share_storage() {
        let a1 = var("SameName");
        let a2 = var("SameName");
        assert!(std::ptr::eq(a1.name(), a2.name()), "same name interns to one allocation");
        assert_eq!(a1, a2);
    }
}
