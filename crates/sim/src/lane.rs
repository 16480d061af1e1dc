//! Lane state: thread contexts, inbox, scratchpad.
//!
//! A lane is a 2 GHz MIMD engine executing events one at a time (events are
//! atomic, §2.1.1). Thread contexts hold state that persists across events;
//! the scratchpad is lane-private memory accessed at 1 cycle per word. The
//! inbox holds no messages itself: a waiting message stays in the slot of
//! the shard's action slab it was written to, and the inbox is a list of
//! those slot ids threaded through the shard's link array (see
//! `calendar.rs`), so queueing a message on a lane moves no payload.
//!
//! Lanes are instantiated lazily in bulk (a 1024-node machine has 2M of
//! them), so every container here starts unallocated. Thread contexts and
//! scratchpad words live in dense, slab-indexed vectors — hardware thread
//! ids and word offsets are small dense integers, so the engine's hot path
//! indexes instead of hashing.

use std::any::{Any, TypeId};
use std::num::NonZeroU16;

use crate::calendar::IdList;
use crate::ids::{EventWord, ThreadId};

/// Object-safe view of a software thread state: any `Any + Send + Clone`
/// value qualifies via the blanket impl. The `Clone` requirement is what
/// makes whole-machine snapshots (`Engine::snapshot`) possible — a thread
/// state that cannot be cloned cannot be checkpointed. `type_label` names
/// the concrete type in snapshot-codec errors.
pub trait SimState: Any + Send {
    fn clone_state(&self) -> Box<dyn SimState>;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn type_label(&self) -> &'static str;
}

impl<T: Any + Send + Clone> SimState for T {
    fn clone_state(&self) -> Box<dyn SimState> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn type_label(&self) -> &'static str {
        std::any::type_name::<T>()
    }
}

/// A live thread's state: entry `idx` of its shard's slab for type slot
/// `ty - 1`. Slab indices never leave the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateRef {
    ty: NonZeroU16,
    idx: u32,
}

/// Entries per chunk: chunks never move, so a slab grows without copying
/// (a doubling `Vec` per type peaked 5 MB higher on a 16-node torus `fig9 tc`).
const CHUNK: usize = 64;

/// One shard's thread states of one type; freed entries are reset and reused LIFO.
#[derive(Clone, Default)]
struct Slab<S> {
    chunks: Vec<Vec<S>>,
    free: Vec<u32>,
}

/// A [`Slab`] with its type erased, downcast once per access.
pub(crate) trait StateStore: Any + Send {
    fn get(&self, idx: u32) -> &dyn SimState;
    /// Reset entry `idx` to the default (its fields drop now) and free it.
    fn free(&mut self, idx: u32);
    fn clone_store(&self) -> Box<dyn StateStore>;
}

impl<S: Default + Send + Clone + 'static> StateStore for Slab<S> {
    fn get(&self, idx: u32) -> &dyn SimState {
        &self.chunks[idx as usize / CHUNK][idx as usize % CHUNK]
    }
    fn free(&mut self, idx: u32) {
        self.chunks[idx as usize / CHUNK][idx as usize % CHUNK] = S::default();
        self.free.push(idx);
    }
    fn clone_store(&self) -> Box<dyn StateStore> {
        Box::new(self.clone())
    }
}

impl dyn StateStore {
    fn slab<S: 'static>(&mut self) -> &mut Slab<S> {
        (self as &mut dyn Any).downcast_mut().expect("slab holds its own type")
    }

    pub(crate) fn entry<S: 'static>(&mut self, h: StateRef) -> &mut S {
        &mut self.slab::<S>().chunks[h.idx as usize / CHUNK][h.idx as usize % CHUNK]
    }
}

/// One shard's thread states: a slab per state type in first-use order,
/// `None` while `EventCtx::with_state` lends from it.
#[derive(Default)]
pub(crate) struct ThreadStates(Vec<(TypeId, Option<Box<dyn StateStore>>)>);

impl Clone for ThreadStates {
    fn clone(&self) -> ThreadStates {
        ThreadStates(self.0.iter().map(|(t, s)| (*t, s.as_ref().map(|s| s.clone_store()))).collect())
    }
}

impl ThreadStates {
    /// Slot `slot`'s slab, or an empty stand-in while it is lent out.
    fn store<S: Default + Send + Clone + 'static>(&mut self, slot: usize) -> &mut Box<dyn StateStore> {
        self.0[slot].1.get_or_insert_with(|| Box::<Slab<S>>::default())
    }

    /// `*cur` if it is an `S`; else a default `S` (a freed entry when the
    /// slab has one) replaces it, and it is freed.
    pub(crate) fn ensure<S: Default + Send + Clone + 'static>(&mut self, cur: &mut Option<StateRef>) -> StateRef {
        let t = TypeId::of::<S>();
        match *cur {
            Some(h) if self.0[usize::from(h.ty.get() - 1)].0 == t => return h,
            Some(h) => self.free(h),
            None => {}
        }
        let slot = self.0.iter().position(|s| s.0 == t).unwrap_or_else(|| {
            self.0.push((t, None));
            self.0.len() - 1
        });
        let slab = self.store::<S>(slot).slab::<S>();
        let idx = slab.free.pop().unwrap_or_else(|| {
            if slab.chunks.last().is_none_or(|c| c.len() == CHUNK) {
                slab.chunks.push(Vec::with_capacity(CHUNK));
            }
            let n = slab.chunks.len() - 1;
            slab.chunks[n].push(S::default());
            (n * CHUNK + slab.chunks[n].len() - 1) as u32
        });
        *cur.insert(StateRef { ty: NonZeroU16::new(slot as u16 + 1).expect("under 65 535 state types"), idx })
    }

    pub(crate) fn get(&self, h: StateRef) -> &dyn SimState {
        self.0[usize::from(h.ty.get() - 1)].1.as_ref().expect("slab attached").get(h.idx)
    }

    pub(crate) fn get_mut<S: Default + Send + Clone + 'static>(&mut self, h: StateRef) -> &mut S {
        self.store::<S>(usize::from(h.ty.get() - 1)).entry(h)
    }

    pub(crate) fn free(&mut self, h: StateRef) {
        if let Some(slab) = &mut self.0[usize::from(h.ty.get() - 1)].1 {
            slab.free(h.idx);
        }
    }

    pub(crate) fn detach(&mut self, h: StateRef) -> Box<dyn StateStore> {
        self.0[usize::from(h.ty.get() - 1)].1.take().expect("slab attached")
    }

    /// Take back `h`'s slab and free `left`, the state its thread got
    /// meanwhile (unless the stand-in held it).
    pub(crate) fn attach(&mut self, h: StateRef, slab: Box<dyn StateStore>, left: Option<StateRef>) {
        self.0[usize::from(h.ty.get() - 1)].1 = Some(slab);
        if let Some(l) = left.filter(|l| l.ty != h.ty) {
            self.free(l);
        }
    }

    /// (live, free) entries of `S`'s slab.
    #[cfg(test)]
    pub(crate) fn entries<S: Default + Send + Clone + 'static>(&mut self) -> (usize, usize) {
        let slot = self.0.iter().position(|s| s.0 == TypeId::of::<S>()).expect("a slab of S");
        let slab = self.store::<S>(slot).slab::<S>();
        let held: usize = slab.chunks.iter().map(Vec::len).sum();
        (held - slab.free.len(), slab.free.len())
    }
}

/// One hardware thread-context slot of the slab. `gen` counts how many
/// times the slot has been recycled, so a stale `ThreadId` held across a
/// dealloc/realloc can be detected (debug assertions; the ABA guard of the
/// slab).
#[derive(Clone, Default)]
pub(crate) struct ThreadSlot {
    pub(crate) live: bool,
    pub(crate) gen: u32,
    /// Label of the event that allocated this context (the thread's
    /// "creating label" — the protocol probe groups lifecycle accounting
    /// by it, since `ThreadType` names collide under the generic
    /// `udweave::event` registrar).
    pub(crate) created_by: u16,
    /// Where the application state is, set at the handler's first access.
    pub(crate) state: Option<StateRef>,
}

/// The lane's thread-context table: a slab indexed directly by `ThreadId`
/// with a rotating allocation cursor and per-slot generation counters.
///
/// The allocation scan is observably identical to the historical
/// `HashMap`-backed table: the cursor rotates over `0..max_threads`,
/// skips `ThreadId::NEW` (`u16::MAX`) and live slots, and hands out the
/// first free id — so the sequence of allocated thread ids (visible in
/// traces and event words) is byte-for-byte unchanged.
#[derive(Clone, Default)]
pub struct ThreadTable {
    pub(crate) slots: Vec<ThreadSlot>,
    pub(crate) live: usize,
    /// Next candidate thread id for the allocation scan. Part of the
    /// observable allocation order, so snapshots must preserve it exactly
    /// (alongside each slot's generation counter).
    pub(crate) next_tid: u16,
}

impl ThreadTable {
    /// Number of live thread contexts.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    #[inline]
    pub fn contains(&self, tid: ThreadId) -> bool {
        self.slots.get(tid.0 as usize).is_some_and(|s| s.live)
    }

    /// Recycle count of the slot behind `tid` (0 for never-used slots).
    /// Debug aid: a cached `ThreadId` is stale once this moves.
    #[inline]
    pub fn generation(&self, tid: ThreadId) -> u32 {
        self.slots.get(tid.0 as usize).map_or(0, |s| s.gen)
    }

    /// Label of the event that allocated the context behind `tid`
    /// (0 for never-used slots; meaningless for dead ids).
    #[inline]
    pub fn created_by(&self, tid: ThreadId) -> u16 {
        self.slots.get(tid.0 as usize).map_or(0, |s| s.created_by)
    }

    /// Stamp the creating label of a live slot (engine-side, right after
    /// a NEW-addressed message allocates it).
    #[inline]
    pub fn set_created_by(&mut self, tid: ThreadId, label: u16) {
        if let Some(s) = self.slots.get_mut(tid.0 as usize) {
            s.created_by = label;
        }
    }

    /// Creating labels of all live contexts (probe leak sweep at exit).
    pub fn live_created_by(&self) -> impl Iterator<Item = u16> + '_ {
        self.slots.iter().filter(|s| s.live).map(|s| s.created_by)
    }

    /// Mutable access to a live thread's state handle; `None` for dead ids.
    #[inline]
    pub fn state_mut(&mut self, tid: ThreadId) -> Option<&mut Option<StateRef>> {
        match self.slots.get_mut(tid.0 as usize) {
            Some(s) if s.live => Some(&mut s.state),
            _ => None,
        }
    }

    fn alloc(&mut self, max_threads: u16) -> Option<ThreadId> {
        if self.live >= max_threads as usize {
            return None;
        }
        // Scan from the rotating cursor; table is below capacity so this
        // terminates. ThreadId::NEW (u16::MAX) is never allocated.
        loop {
            let tid = self.next_tid;
            self.next_tid = if self.next_tid >= max_threads - 1 {
                0
            } else {
                self.next_tid + 1
            };
            if tid == ThreadId::NEW.0 {
                continue;
            }
            let i = tid as usize;
            if i >= self.slots.len() {
                self.slots.resize_with(i + 1, ThreadSlot::default);
            }
            let s = &mut self.slots[i];
            if !s.live {
                s.live = true;
                s.state = None;
                self.live += 1;
                return Some(ThreadId(tid));
            }
        }
    }

    fn dealloc(&mut self, tid: ThreadId) {
        if let Some(s) = self.slots.get_mut(tid.0 as usize) {
            if s.live {
                s.live = false;
                s.state = None;
                s.gen = s.gen.wrapping_add(1);
                self.live -= 1;
            }
        }
    }
}

/// Per-lane scratchpad: word-addressed, lazily grown so that millions of
/// idle lanes cost nothing. Capacity is enforced against `spm_words` by
/// the engine; reads past the touched region return zero (uninitialized
/// memory reads as zero, as before).
#[derive(Clone, Default)]
pub struct Scratchpad {
    pub(crate) words: Vec<u64>,
    /// High-water mark of touched words (for spMalloc accounting/stats).
    pub high_water: u32,
}

impl Scratchpad {
    #[inline]
    pub fn read(&self, off: u32) -> u64 {
        self.words.get(off as usize).copied().unwrap_or(0)
    }

    #[inline]
    pub fn write(&mut self, off: u32, v: u64) {
        self.high_water = self.high_water.max(off + 1);
        let i = off as usize;
        if i >= self.words.len() {
            if v == 0 {
                // Zero is what an ungrown word already reads as.
                return;
            }
            self.words.resize(i + 1, 0);
        }
        self.words[i] = v;
    }

    /// Number of words currently holding a non-zero value.
    pub fn touched(&self) -> usize {
        self.words.iter().filter(|&&w| w != 0).count()
    }
}

/// One lane of the machine.
#[derive(Clone, Default)]
pub struct Lane {
    /// Messages waiting to execute on this lane, FIFO, as the ids of the
    /// shard's slab slots that hold them.
    pub(crate) inbox: IdList,
    /// Live thread contexts.
    pub threads: ThreadTable,
    /// Messages (slot ids, as in `inbox`) that arrived targeting NEW
    /// threads while the context table was full; one returns to the front
    /// of the inbox each time a thread deallocates.
    pub(crate) parked: IdList,
    /// Simulation time until which the lane is executing.
    pub free_at: u64,
    /// Whether a LaneRun action is already scheduled.
    pub scheduled: bool,
    pub spm: Scratchpad,
    /// spMalloc bump pointer (word index).
    pub spm_brk: u32,
    /// Busy cycles accumulated (stats).
    pub busy: u64,
    /// Events executed on this lane (stats).
    pub events: u64,
}

impl Lane {
    /// Allocate a fresh thread context; `None` when all hardware contexts
    /// are in use (the message parks until one frees).
    pub fn alloc_thread(&mut self, max_threads: u16) -> Option<ThreadId> {
        self.threads.alloc(max_threads)
    }

    pub fn dealloc_thread(&mut self, tid: ThreadId) {
        self.threads.dealloc(tid);
    }

    /// Resolve the destination thread of a message, allocating when the
    /// word names a NEW thread. Returns `None` if the context table is full.
    pub fn resolve_thread(&mut self, dst: EventWord, max_threads: u16) -> Option<ThreadId> {
        if dst.tid() == ThreadId::NEW {
            self.alloc_thread(max_threads)
        } else {
            debug_assert!(
                self.threads.contains(dst.tid()),
                "message to dead thread {:?}",
                dst
            );
            Some(dst.tid())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EventLabel, NetworkId};

    #[test]
    fn thread_alloc_and_dealloc() {
        let mut lane = Lane::default();
        let a = lane.alloc_thread(4).unwrap();
        let b = lane.alloc_thread(4).unwrap();
        assert_ne!(a, b);
        lane.dealloc_thread(a);
        assert_eq!(lane.threads.len(), 1);
        // Freed slot becomes reusable.
        let c = lane.alloc_thread(2).unwrap();
        assert_eq!(lane.threads.len(), 2);
        let _ = c;
        assert!(lane.alloc_thread(2).is_none(), "table full");
    }

    #[test]
    fn resolve_new_vs_existing() {
        let mut lane = Lane::default();
        let w = EventWord::new(NetworkId(0), EventLabel(1));
        let t = lane.resolve_thread(w, 8).unwrap();
        let w2 = EventWord::with_thread(NetworkId(0), t, EventLabel(2));
        assert_eq!(lane.resolve_thread(w2, 8), Some(t));
        assert_eq!(lane.threads.len(), 1);
    }

    #[test]
    fn alloc_scan_matches_historical_rotating_order() {
        // The slab must hand out the exact id sequence the HashMap-backed
        // table did: rotating cursor, first free id wins after a dealloc.
        let mut lane = Lane::default();
        let ids: Vec<u16> = (0..4).map(|_| lane.alloc_thread(8).unwrap().0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        lane.dealloc_thread(ThreadId(1));
        // Cursor is at 4: 4..7 allocate before wrapping back to the hole.
        let more: Vec<u16> = (0..5).map(|_| lane.alloc_thread(8).unwrap().0).collect();
        assert_eq!(more, vec![4, 5, 6, 7, 1]);
        assert!(lane.alloc_thread(8).is_none(), "table full");
    }

    #[test]
    fn generation_counts_slot_recycling() {
        let mut lane = Lane::default();
        let a = lane.alloc_thread(1).unwrap();
        assert_eq!(lane.threads.generation(a), 0);
        lane.dealloc_thread(a);
        assert_eq!(lane.threads.generation(a), 1, "dealloc bumps the slot gen");
        let b = lane.alloc_thread(1).unwrap();
        assert_eq!(a, b, "slot is recycled under a new generation");
        assert_eq!(lane.threads.generation(b), 1);
        assert!(lane.threads.contains(b));
    }

    #[test]
    fn dead_thread_state_is_inaccessible() {
        let mut lane = Lane::default();
        let a = lane.alloc_thread(4).unwrap();
        let h = ThreadStates::default().ensure::<u64>(lane.threads.state_mut(a).unwrap());
        assert_eq!(*lane.threads.state_mut(a).unwrap(), Some(h));
        lane.dealloc_thread(a);
        assert!(lane.threads.state_mut(a).is_none(), "a dead id reaches no handle");
        assert!(lane.threads.slots[a.0 as usize].state.is_none(), "a dead slot holds none");
    }

    #[test]
    fn scratchpad_rw() {
        let mut s = Scratchpad::default();
        assert_eq!(s.read(100), 0, "uninitialized scratchpad reads zero");
        s.write(100, 42);
        assert_eq!(s.read(100), 42);
        s.write(100, 0);
        assert_eq!(s.read(100), 0);
        assert_eq!(s.high_water, 101);
    }

    #[test]
    fn scratchpad_touched_counts_nonzero_words() {
        let mut s = Scratchpad::default();
        s.write(3, 1);
        s.write(9, 2);
        assert_eq!(s.touched(), 2);
        s.write(3, 0);
        assert_eq!(s.touched(), 1);
        // A zero write past the touched region must not grow the backing.
        s.write(4000, 0);
        assert_eq!(s.touched(), 1);
        assert_eq!(s.high_water, 4001);
    }

    #[test]
    fn tid_never_collides_with_new_sentinel() {
        let mut lane = Lane::default();
        // With max_threads = u16::MAX, the allocator must skip 0xFFFF.
        for _ in 0..100 {
            let t = lane.alloc_thread(u16::MAX).unwrap();
            assert_ne!(t, ThreadId::NEW);
        }
    }
}
