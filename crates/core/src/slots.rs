//! A monitor's instance slots, in chunks that never move.
//!
//! [`Monitor`](crate::Monitor) keeps its live instances here, and its
//! checkpoint image ([`MonitorSnapshot`](crate::snapshot::MonitorSnapshot))
//! keeps its copies the same way. Slot `i` sits at a fixed offset of a fixed
//! chunk: the first chunk holds 8 slots, each later one as many as all
//! before it, up to 256 a chunk. Growing adds a chunk and never moves a
//! live instance, so the slack is at most one chunk.
//!
//! Next to its instance, each slot owns two plain rows, so an instance
//! holds no heap of its own and no cell it cannot use:
//!
//! - a row of stage ids, the packet identity observed at each completed
//!   stage. A monitor's rows are `stages − 1` wide, one per stage an
//!   instance can complete before it raises; an instance awaiting stage `k`
//!   has completed `k` stages, and its ids are the first `k` of its row.
//! - a row of bound values, one cell per *column*: a monitor's columns are
//!   its property's variables ([`Property::var_table`], in name order), so
//!   a row is as wide as the property binds, never [`MAX_VARS`]. The
//!   instance's `bound` mask says which cells hold a binding; the rest hold
//!   [`UNBOUND`]. [`Slot::bindings`] unpacks a row into a [`Bindings`] where
//!   one is needed.
//!
//! A decoded image's chunk is laid out from its own bytes instead: its
//! columns are the variables its instances bind, and its stage-id rows are
//! ragged, each as long as encoded, so what a chunk holds is bounded by
//! what it encodes. [`SlotStore::repack`] lays such slots onto a monitor's
//! layout.
//!
//! [`Property::var_table`]: crate::Property::var_table
//! [`MAX_VARS`]: crate::MAX_VARS

use crate::engine::Instance;
use crate::var::{Bindings, Var, MAX_VARS};
use swmon_packet::FieldValue;
use swmon_sim::PacketId;

/// Slots in chunk 0 (and chunk 1).
const FIRST: usize = 8;
/// Slots in every chunk from the seventh on.
const CAP: usize = 256;

/// The packet identity observed at one completed stage: `None` for a
/// deadline stage or an out-of-band event.
pub(crate) type StageId = Option<PacketId>;

/// What a value cell holds while its column is unbound, so two rows holding
/// the same bindings are equal cell for cell.
pub(crate) const UNBOUND: FieldValue = FieldValue::Uint(0);

// Rows hold plain values: a slot's ids and values need no drop, so dropping
// or overwriting an instance frees nothing for them.
const _: () = assert!(!std::mem::needs_drop::<StageId>() && !std::mem::needs_drop::<FieldValue>());

/// The chunk slot `idx` lives in, and its offset there. Chunks 0–5 start at
/// 0, 8, 16, 32, 64 and 128; every later chunk holds [`CAP`] slots.
#[inline]
fn locate(idx: usize) -> (usize, usize) {
    if idx < FIRST {
        (0, idx)
    } else if idx < CAP {
        let top = idx.ilog2() as usize; // 3..=7
        (top - 2, idx - (1 << top))
    } else {
        (idx / CAP + 5, idx % CAP)
    }
}

/// Slots in chunk `c`.
fn chunk_len(c: usize) -> usize {
    match c {
        0 => FIRST,
        c => (FIRST << (c - 1).min(5)).min(CAP),
    }
}

/// A chunk's stage-id rows.
#[derive(Debug, Clone)]
enum Ids {
    /// `stride` ids per slot, slot by slot: a monitor's layout.
    Rows { stride: usize, ids: Box<[StageId]> },
    /// A decoded chunk's rows, each as long as encoded: slot `off`'s ids
    /// end at `ends[off]`, where the next slot's begin.
    Ragged { ends: Box<[usize]>, ids: Box<[StageId]> },
}

#[derive(Debug, Clone)]
struct Chunk {
    /// The variables of the value rows' cells, in name order.
    cols: Box<[Var]>,
    insts: Box<[Option<Instance>]>,
    ids: Ids,
    /// `insts.len()` rows of `cols.len()` values, slot by slot.
    vals: Box<[FieldValue]>,
}

impl Chunk {
    fn new(len: usize, stride: usize, cols: &[Var]) -> Self {
        Chunk {
            cols: cols.into(),
            insts: (0..len).map(|_| None).collect(),
            ids: Ids::Rows { stride, ids: vec![None; len * stride].into_boxed_slice() },
            vals: vec![UNBOUND; len * cols.len()].into_boxed_slice(),
        }
    }

    /// Whether `other`'s slots copy into this chunk's cell for cell.
    fn same_layout(&self, other: &Chunk) -> bool {
        let stride = |c: &Chunk| match c.ids {
            Ids::Rows { stride, .. } => Some(stride),
            Ids::Ragged { .. } => None,
        };
        stride(self).is_some() && stride(self) == stride(other) && self.cols == other.cols
    }

    /// The stage ids `inst`, in slot `off`, has recorded.
    #[inline]
    fn ids(&self, off: usize, inst: &Instance) -> &[StageId] {
        match &self.ids {
            Ids::Rows { stride, ids } => &ids[off * stride..][..inst.awaiting.min(*stride)],
            Ids::Ragged { ends, ids } => &ids[off.checked_sub(1).map_or(0, |p| ends[p])..ends[off]],
        }
    }

    /// Slot `off`'s value row.
    #[inline]
    fn row(&self, off: usize) -> &[FieldValue] {
        let width = self.cols.len();
        &self.vals[off * width..][..width]
    }

    /// Slot `off`, if it holds an instance.
    #[inline]
    fn slot(&self, off: usize) -> Option<Slot<'_>> {
        let inst = self.insts[off].as_ref()?;
        Some(Slot { inst, ids: self.ids(off, inst), cols: &self.cols, row: self.row(off) })
    }
}

/// A live slot: its instance, the stage ids it has recorded and its value
/// row, whose cells are the variables `cols`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot<'a> {
    pub(crate) inst: &'a Instance,
    pub(crate) ids: &'a [StageId],
    pub(crate) cols: &'a [Var],
    pub(crate) row: &'a [FieldValue],
}

impl Slot<'_> {
    /// The value bound to `v`, if any.
    #[inline]
    pub(crate) fn get(&self, v: &Var) -> Option<&FieldValue> {
        let col = self.cols.iter().position(|c| c == v)?;
        ((self.inst.bound >> col) & 1 == 1).then(|| &self.row[col])
    }

    /// The instance's environment, unpacked.
    pub(crate) fn bindings(&self) -> Bindings {
        Bindings::unpack(self.cols, self.inst.bound, self.row)
    }
}

/// Instance slots `0..len`, each empty or holding one instance with its
/// stage ids and bound values. Slots past `len` are empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotStore {
    /// Stage ids per slot of every chunk this store allocates.
    stride: usize,
    /// The value columns of every chunk this store allocates.
    cols: Box<[Var]>,
    len: usize,
    chunks: Vec<Chunk>,
}

impl SlotStore {
    /// An empty store whose slots hold `stride` stage ids and one value per
    /// variable of `cols`, which is in name order. Allocates nothing until
    /// the first slot is pushed.
    pub(crate) fn new(stride: usize, cols: Box<[Var]>) -> Self {
        debug_assert!(cols.len() <= MAX_VARS && cols.is_sorted());
        SlotStore { stride, cols, len: 0, chunks: Vec::new() }
    }

    /// The variables of this store's value rows, in name order.
    #[inline]
    pub(crate) fn cols(&self) -> &[Var] {
        &self.cols
    }

    /// Slots in use, live or free.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Where slot `idx` lives, if it is in use.
    #[inline]
    fn position(&self, idx: usize) -> Option<(usize, usize)> {
        (idx < self.len).then(|| locate(idx))
    }

    /// The instance in slot `idx`, if any; `None` past the end too.
    #[inline]
    pub(crate) fn get(&self, idx: usize) -> Option<&Instance> {
        let (c, off) = self.position(idx)?;
        self.chunks[c].insts[off].as_ref()
    }

    /// As [`SlotStore::get`], mutably.
    #[inline]
    pub(crate) fn get_mut(&mut self, idx: usize) -> Option<&mut Instance> {
        let (c, off) = self.position(idx)?;
        self.chunks[c].insts[off].as_mut()
    }

    /// The instance in slot `idx` and its value row, if any.
    #[inline]
    pub(crate) fn row(&self, idx: usize) -> Option<(&Instance, &[FieldValue])> {
        let (c, off) = self.position(idx)?;
        let chunk = &self.chunks[c];
        Some((chunk.insts[off].as_ref()?, chunk.row(off)))
    }

    /// Slot `idx`, if it holds an instance.
    #[inline]
    pub(crate) fn entry(&self, idx: usize) -> Option<Slot<'_>> {
        let (c, off) = self.position(idx)?;
        self.chunks[c].slot(off)
    }

    /// Every live slot in order, with its number.
    pub(crate) fn live(&self) -> impl Iterator<Item = (usize, Slot<'_>)> {
        let mut start = 0;
        self.chunks.iter().flat_map(move |chunk| {
            let base = start;
            start += chunk.insts.len();
            (0..chunk.insts.len()).filter_map(move |off| Some((base + off, chunk.slot(off)?)))
        })
    }

    /// Put `inst` in the empty slot `idx`, its recorded ids `[first]` and
    /// its value row `row`, a row of this store's columns.
    pub(crate) fn put(&mut self, idx: usize, inst: Instance, first: StageId, row: &[FieldValue]) {
        let (c, off) = locate(idx);
        let chunk = &mut self.chunks[c];
        debug_assert!(idx < self.len && chunk.insts[off].is_none() && inst.awaiting == 1);
        if let Ids::Rows { stride, ids } = &mut chunk.ids {
            if *stride > 0 {
                ids[off * *stride] = first;
            }
        }
        let width = chunk.cols.len();
        chunk.vals[off * width..][..width].copy_from_slice(row);
        chunk.insts[off] = Some(inst);
    }

    /// Make the instance in slot `idx` hold the bindings `env`, in its
    /// value row. False, and the row partly written, when a variable of
    /// `env` has no column.
    pub(crate) fn bind(&mut self, idx: usize, env: &Bindings) -> bool {
        let (c, off) = locate(idx);
        let chunk = &mut self.chunks[c];
        let width = chunk.cols.len();
        let row = &mut chunk.vals[off * width..][..width];
        row.fill(UNBOUND);
        let Some(mask) = env.pack(&chunk.cols, row) else { return false };
        chunk.insts[off].as_mut().expect("live instance").bound = mask;
        true
    }

    /// Record `id` as the stage the instance in slot `idx` just completed
    /// and move it on to the next. The id of the last stage is not kept:
    /// an instance that completes it raises and leaves its slot.
    pub(crate) fn advance(&mut self, idx: usize, id: StageId) -> &mut Instance {
        let (c, off) = locate(idx);
        let chunk = &mut self.chunks[c];
        let inst = chunk.insts[off].as_mut().expect("live instance");
        if let Ids::Rows { stride, ids } = &mut chunk.ids {
            if inst.awaiting < *stride {
                ids[off * *stride + inst.awaiting] = id;
            }
        }
        inst.awaiting += 1;
        inst
    }

    /// Empty slot `idx`, returning what it held.
    pub(crate) fn take(&mut self, idx: usize) -> Option<Instance> {
        let (c, off) = self.position(idx)?;
        self.chunks[c].insts[off].take()
    }

    /// Append an empty slot and return its number, adding a chunk when
    /// the last one is full.
    pub(crate) fn push_empty(&mut self) -> usize {
        let idx = self.len;
        self.grow_to(idx + 1);
        idx
    }

    /// Extend the store with empty slots up to `len` slots.
    fn grow_to(&mut self, len: usize) {
        if len > self.len {
            let last = locate(len - 1).0;
            while self.chunks.len() <= last {
                let len = chunk_len(self.chunks.len());
                self.chunks.push(Chunk::new(len, self.stride, &self.cols));
            }
            self.len = len;
        }
    }

    /// Make this store equal `from`, slot for slot. A chunk of the same
    /// layout is overwritten in place: a slot live on both sides keeps its
    /// allocations, and only the ids an instance has recorded are copied.
    pub(crate) fn copy_all(&mut self, from: &SlotStore) {
        self.stride = from.stride;
        self.cols.clone_from(&from.cols);
        self.len = from.len;
        self.chunks.truncate(from.chunks.len());
        for (c, src) in from.chunks.iter().enumerate() {
            match self.chunks.get_mut(c) {
                Some(dst) if dst.same_layout(src) => {
                    (0..src.insts.len()).for_each(|off| copy_slot(dst, src, off))
                }
                Some(dst) => *dst = src.clone(),
                None => self.chunks.push(src.clone()),
            }
        }
    }

    /// Copy slots `idxs` of `from`, a store of this store's layout at least
    /// as long as this one, after growing this store to its length.
    pub(crate) fn copy_some(&mut self, from: &SlotStore, idxs: &[usize]) {
        debug_assert!(
            self.stride == from.stride && self.cols == from.cols,
            "an image patched by a monitor of its layout"
        );
        self.grow_to(from.len);
        for &idx in idxs {
            let (c, off) = locate(idx);
            copy_slot(&mut self.chunks[c], &from.chunks[c], off);
        }
    }

    /// A store of this store's layout holding `from`'s slots, each instance
    /// with its recorded ids and its bindings laid onto this store's
    /// columns. `None` when an instance binds a variable that has no
    /// column here. The caller has checked that every live instance of
    /// `from` records at most this store's stride of ids.
    pub(crate) fn repack(&self, from: &SlotStore) -> Option<SlotStore> {
        let mut to = SlotStore::new(self.stride, self.cols.clone());
        to.grow_to(from.len);
        let mut row = [UNBOUND; MAX_VARS];
        let row = &mut row[..to.cols.len()];
        for (idx, slot) in from.live() {
            row.fill(UNBOUND);
            let mut inst = slot.inst.clone();
            inst.bound = slot.bindings().pack(&to.cols, row)?;
            let (c, off) = locate(idx);
            let chunk = &mut to.chunks[c];
            if let Ids::Rows { stride, ids } = &mut chunk.ids {
                ids[off * *stride..][..slot.ids.len()].copy_from_slice(slot.ids);
            }
            chunk.vals[off * row.len()..][..row.len()].copy_from_slice(row);
            chunk.insts[off] = Some(inst);
        }
        Some(to)
    }

    /// Decode `n` slots, one `read` each: `read` appends the stage ids of
    /// the instance it returns (if any), with its bindings, to the buffer
    /// it is given. A chunk holds each slot's ids as encoded, and its
    /// columns are the variables its instances bind. Also returns why
    /// `restore` must refuse the store: a chunk whose instances bind more
    /// than [`MAX_VARS`] variables, of which it then keeps none.
    pub(crate) fn decode<E>(
        n: usize,
        mut read: impl FnMut(&mut Vec<StageId>) -> Result<Option<(Instance, Bindings)>, E>,
    ) -> Result<(SlotStore, Option<&'static str>), E> {
        let mut store = SlotStore::default();
        let mut defect = None;
        let (mut staged, mut ids, mut ends) = (Vec::new(), Vec::new(), Vec::new());
        while store.len < n {
            let len = chunk_len(store.chunks.len());
            for _ in 0..len.min(n - store.len) {
                staged.push(read(&mut ids)?);
                ends.push(ids.len());
            }
            let mut cols: Vec<Var> =
                staged.iter().flatten().flat_map(|(_, env)| env.iter().map(|(v, _)| *v)).collect();
            cols.sort_unstable();
            cols.dedup();
            if cols.len() > MAX_VARS {
                defect.get_or_insert("instances of one chunk bind more variables than a row holds");
                cols.clear();
            }
            let width = cols.len();
            let mut vals = vec![UNBOUND; len * width].into_boxed_slice();
            let mut insts: Box<[Option<Instance>]> = (0..len).map(|_| None).collect();
            for (off, slot) in staged.drain(..).enumerate() {
                if let Some((mut inst, env)) = slot {
                    inst.bound = env.pack(&cols, &mut vals[off * width..][..width]).unwrap_or(0);
                    insts[off] = Some(inst);
                }
            }
            let last = ends.last().copied().unwrap_or(0);
            ends.resize(len, last);
            let ids = Ids::Ragged {
                ends: std::mem::take(&mut ends).into(),
                ids: std::mem::take(&mut ids).into(),
            };
            store.chunks.push(Chunk { cols: cols.into(), insts, ids, vals });
            store.len += len.min(n - store.len);
        }
        Ok((store, defect))
    }
}

/// Copy slot `off` of `src` into `dst`, a chunk of its layout.
fn copy_slot(dst: &mut Chunk, src: &Chunk, off: usize) {
    dst.insts[off].clone_from(&src.insts[off]);
    if let Some(inst) = &src.insts[off] {
        let ids = src.ids(off, inst);
        if let Ids::Rows { stride, ids: to } = &mut dst.ids {
            to[off * *stride..][..ids.len()].copy_from_slice(ids);
        }
        let width = dst.cols.len();
        dst.vals[off * width..][..width].copy_from_slice(src.row(off));
    }
}

impl SlotStore {
    /// `(values, stage ids)` per slot of each allocated chunk, measured
    /// from what the chunk allocated; `None` ids for a ragged chunk.
    pub(crate) fn row_widths(&self) -> Vec<(usize, Option<usize>)> {
        self.chunks
            .iter()
            .map(|c| {
                let ids = match &c.ids {
                    Ids::Rows { ids, .. } => Some(ids.len() / c.insts.len()),
                    Ids::Ragged { .. } => None,
                };
                (c.vals.len() / c.insts.len(), ids)
            })
            .collect()
    }
}

#[cfg(test)]
impl SlotStore {
    /// The longest stage-id row any chunk holds.
    pub(crate) fn widest(&self) -> usize {
        self.live().map(|(_, slot)| slot.ids.len()).max().unwrap_or(0)
    }

    /// Bytes the chunks allocated: slots, rows and columns.
    pub(crate) fn held_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| {
                let ids = match &c.ids {
                    Ids::Rows { ids, .. } => size_of_val(&**ids),
                    Ids::Ragged { ends, ids } => size_of_val(&**ends) + size_of_val(&**ids),
                };
                size_of_val(&*c.insts) + ids + size_of_val(&*c.vals) + size_of_val(&*c.cols)
            })
            .sum::<usize>()
            + self.chunks.capacity() * size_of::<Chunk>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_map_onto_chunks_without_gaps() {
        let mut next = 0;
        for c in 0..12 {
            for off in 0..chunk_len(c) {
                assert_eq!(locate(next), (c, off), "slot {next}");
                next += 1;
            }
        }
        assert_eq!((0..8).map(chunk_len).collect::<Vec<_>>(), [8, 8, 16, 32, 64, 128, 256, 256]);
    }
}
