//! A monitor's instance slots, in chunks that never move.
//!
//! [`Monitor`](crate::Monitor) keeps its live instances here, and its
//! checkpoint image ([`MonitorSnapshot`](crate::snapshot::MonitorSnapshot))
//! keeps its copies the same way. Slot `i` sits at a fixed offset of a fixed
//! chunk: the first chunk holds 8 slots, each later one as many as all
//! before it, up to 256 a chunk. Growing adds a chunk and never moves a
//! live instance, so the slack is at most one chunk.
//!
//! Each slot also owns a row of `stride` stage ids — the packet identity
//! observed at each completed stage — next to the instance, so an instance
//! holds no heap of its own: a monitor's rows are `stages − 1` wide, one per
//! stage an instance can complete before it raises. An instance awaiting
//! stage `k` has completed `k` stages, and its ids are the first `k` of its
//! row.

use crate::engine::Instance;
use swmon_sim::PacketId;

/// Slots in chunk 0 (and chunk 1).
const FIRST: usize = 8;
/// Slots in every chunk from the seventh on.
const CAP: usize = 256;

/// The packet identity observed at one completed stage: `None` for a
/// deadline stage or an out-of-band event.
type StageId = Option<PacketId>;

// Stage-id rows hold plain values: a slot's ids need no drop, so dropping
// or overwriting an instance frees nothing for them.
const _: () = assert!(!std::mem::needs_drop::<StageId>());

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

#[derive(Debug, Clone)]
struct Chunk {
    /// Stage ids per slot. A monitor's chunks all have its stride; a
    /// decoded image's chunk is as wide as its widest instance.
    stride: usize,
    insts: Box<[Option<Instance>]>,
    /// `insts.len()` rows of `stride` ids, slot by slot.
    ids: Box<[StageId]>,
}

impl Chunk {
    fn new(len: usize, stride: usize) -> Self {
        Chunk {
            stride,
            insts: (0..len).map(|_| None).collect(),
            ids: vec![None; len * stride].into_boxed_slice(),
        }
    }

    /// The stage ids `inst`, in slot `off`, has recorded.
    #[inline]
    fn ids(&self, off: usize, inst: &Instance) -> &[StageId] {
        let row = &self.ids[off * self.stride..(off + 1) * self.stride];
        &row[..inst.awaiting.min(self.stride)]
    }
}

/// Instance slots `0..len`, each empty or holding one instance with its
/// stage ids. Slots past `len` are empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotStore {
    /// Stage ids per slot of every chunk this store allocates.
    stride: usize,
    len: usize,
    chunks: Vec<Chunk>,
}

impl SlotStore {
    /// An empty store whose slots hold `stride` stage ids each. Allocates
    /// nothing until the first slot is pushed.
    pub(crate) fn new(stride: usize) -> Self {
        SlotStore { stride, len: 0, chunks: Vec::new() }
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

    /// The instance in slot `idx` and the stage ids it has recorded.
    #[inline]
    pub(crate) fn entry(&self, idx: usize) -> Option<(&Instance, &[StageId])> {
        let (c, off) = self.position(idx)?;
        let chunk = &self.chunks[c];
        chunk.insts[off].as_ref().map(|inst| (inst, chunk.ids(off, inst)))
    }

    /// Every live slot in order, with its instance and stage ids.
    pub(crate) fn live(&self) -> impl Iterator<Item = (usize, &Instance, &[StageId])> {
        let mut start = 0;
        self.chunks.iter().flat_map(move |chunk| {
            let base = start;
            start += chunk.insts.len();
            chunk.insts.iter().enumerate().filter_map(move |(off, slot)| {
                slot.as_ref().map(|inst| (base + off, inst, chunk.ids(off, inst)))
            })
        })
    }

    /// Put `inst` in the empty slot `idx`, its recorded ids `[first]`.
    pub(crate) fn put(&mut self, idx: usize, inst: Instance, first: StageId) {
        let (c, off) = locate(idx);
        let chunk = &mut self.chunks[c];
        debug_assert!(idx < self.len && chunk.insts[off].is_none() && inst.awaiting == 1);
        if chunk.stride > 0 {
            chunk.ids[off * chunk.stride] = first;
        }
        chunk.insts[off] = Some(inst);
    }

    /// Record `id` as the stage the instance in slot `idx` just completed
    /// and move it on to the next. The id of the last stage is not kept:
    /// an instance that completes it raises and leaves its slot.
    pub(crate) fn advance(&mut self, idx: usize, id: StageId) -> &mut Instance {
        let (c, off) = locate(idx);
        let chunk = &mut self.chunks[c];
        let inst = chunk.insts[off].as_mut().expect("live instance");
        if inst.awaiting < chunk.stride {
            chunk.ids[off * chunk.stride + inst.awaiting] = id;
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
                self.chunks.push(Chunk::new(chunk_len(self.chunks.len()), self.stride));
            }
            self.len = len;
        }
    }

    /// Make this store equal `from`, slot for slot. A chunk of the same
    /// stride is overwritten in place: a slot live on both sides keeps its
    /// allocations, and only the ids an instance has recorded are copied.
    pub(crate) fn copy_all(&mut self, from: &SlotStore) {
        self.stride = from.stride;
        self.len = from.len;
        self.chunks.truncate(from.chunks.len());
        for (c, src) in from.chunks.iter().enumerate() {
            match self.chunks.get_mut(c) {
                Some(dst) if dst.stride == src.stride => {
                    (0..src.insts.len()).for_each(|off| copy_slot(dst, src, off))
                }
                Some(dst) => *dst = src.clone(),
                None => self.chunks.push(src.clone()),
            }
        }
    }

    /// Copy slots `idxs` of `from`, a store of this store's stride at
    /// least as long as this one, after growing this store to its length.
    pub(crate) fn copy_some(&mut self, from: &SlotStore, idxs: &[usize]) {
        debug_assert_eq!(self.stride, from.stride, "an image patched by a monitor of its stride");
        self.grow_to(from.len);
        for &idx in idxs {
            let (c, off) = locate(idx);
            copy_slot(&mut self.chunks[c], &from.chunks[c], off);
        }
    }

    /// A store of `stride` holding `from`'s slots, each instance with its
    /// recorded ids. The caller has checked that every live instance of
    /// `from` records at most `stride` ids.
    pub(crate) fn restride(from: &SlotStore, stride: usize) -> SlotStore {
        let mut to = SlotStore::new(stride);
        to.grow_to(from.len);
        for (c, src) in from.chunks.iter().enumerate() {
            (0..src.insts.len()).for_each(|off| copy_slot(&mut to.chunks[c], src, off));
        }
        to
    }

    /// Decode `n` slots, one `read` each: `read` appends the stage ids of
    /// the instance it returns (if any) to the buffer it is given. Each
    /// chunk is as wide as its widest instance, so `read` bounds what the
    /// store holds by bounding how many ids it leaves for one instance.
    pub(crate) fn decode<E>(
        n: usize,
        mut read: impl FnMut(&mut Vec<StageId>) -> Result<Option<Instance>, E>,
    ) -> Result<SlotStore, E> {
        let mut store = SlotStore::default();
        let (mut staged, mut ids) = (Vec::new(), Vec::new());
        while store.len < n {
            let c = store.chunks.len();
            let len = chunk_len(c).min(n - store.len);
            for _ in 0..len {
                let start = ids.len();
                let inst = read(&mut ids)?;
                staged.push((inst, start..ids.len()));
            }
            let stride = staged.iter().map(|(_, row)| row.len()).max().unwrap_or(0);
            let mut chunk = Chunk::new(chunk_len(c), stride);
            for (off, (inst, row)) in staged.drain(..).enumerate() {
                chunk.ids[off * stride..][..row.len()].copy_from_slice(&ids[row]);
                chunk.insts[off] = inst;
            }
            ids.clear();
            store.chunks.push(chunk);
            store.len += len;
        }
        Ok(store)
    }
}

/// Copy slot `off` of `src` into `dst`, a chunk at least as wide as what
/// the slot's instance has recorded.
fn copy_slot(dst: &mut Chunk, src: &Chunk, off: usize) {
    dst.insts[off].clone_from(&src.insts[off]);
    if let Some(inst) = &src.insts[off] {
        let ids = src.ids(off, inst);
        dst.ids[off * dst.stride..(off + 1) * dst.stride][..ids.len()].copy_from_slice(ids);
    }
}

#[cfg(test)]
impl SlotStore {
    /// The widest row any chunk holds.
    pub(crate) fn widest(&self) -> usize {
        self.chunks.iter().map(|c| c.stride).max().unwrap_or(0)
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
