//! The engine's pending-event store: an id-linked calendar queue tuned for
//! the Table-2 cost model.
//!
//! # Why not a binary heap
//!
//! Every simulated event costs a handful of cycles (Table 2: dispatch 2,
//! send 2, yield 1) and every latency in the machine is one of a small set
//! of constants (intra-accel 4, intra-node 30, DRAM 200, inter-node 1000),
//! stretched by NIC and DRAM-channel queueing into a backlog of a few
//! thousand to a few tens of thousands of ticks. A `BinaryHeap` pays
//! `O(log n)` moves per entry for what is structurally a near-FIFO
//! workload over a bounded time window.
//!
//! # Design
//!
//! A pending entry is a bare `u32` **id**, unique among pending entries
//! (debug-asserted). The queue owns one link array ([`Links`]) indexed by
//! id; every list in the store — a bucket, the same-tick fast lane, and the
//! engine's own lists over the same ids (slab freelist, lane inboxes) — is
//! an [`IdList`] `(head, tail)` pair threaded through it. An id is in at
//! most one list at a time, so one `u32` per id links them all and no list
//! owns a heap block.
//!
//! - A ring of **width-1 buckets** covers the absolute time window
//!   `[base, base + width)`. Bucket `time & (width - 1)` holds the entries
//!   for exactly one tick, so a bucket is plain FIFO in push order — which
//!   equals `(time, seq)` order because sequence stamps increase
//!   monotonically. Enqueue and dequeue are O(1) plus a three-level
//!   occupancy-bitmap scan to find the next occupied tick.
//! - The ring is **self-sizing**: it starts at [`MIN_RING_BUCKETS`] and
//!   doubles when a push lands beyond it, up to [`MAX_RING_BUCKETS`].
//!   Growing re-seats the `(head, tail)` pairs by `time & mask`; no entry
//!   is touched. A shard whose backlog never exceeds 2048 ticks pays for
//!   2048 pairs (16 KiB); one with a 20 000-tick DRAM-channel backlog
//!   grows to 32 768 once and stays there.
//! - A **same-tick fast lane** (`cur`) takes entries scheduled for exactly
//!   the tick currently being drained — the dominant case for lane
//!   re-dispatch — bypassing slot arithmetic and bitmap updates entirely.
//!   Fast-lane entries drain after the current tick's bucket (they carry
//!   larger sequence stamps by construction).
//! - An **overflow rung** (a binary heap ordered by `(time, seq)`) holds
//!   only entries at least [`MAX_RING_BUCKETS`] ticks out (long
//!   `send_event_after` timers) or, defensively, behind `base`. When the
//!   ring drains, the queue *rebases*: the ring window moves to the
//!   earliest rung time and every rung entry inside the new window
//!   migrates into its bucket, in `(time, seq)` order.
//!
//! # Determinism
//!
//! The queue dequeues in exactly the order a `BinaryHeap` over
//! `(time, seq)` would, where `seq` is the global push counter:
//!
//! - within one bucket, FIFO order *is* seq order (stamps are monotone);
//! - the fast lane only receives entries for the in-drain tick, after its
//!   bucket stopped receiving pushes, so bucket-then-fast-lane is seq
//!   order;
//! - growing the ring moves whole buckets, never entries, and each bucket
//!   still holds one tick, so growth is invisible to pop order;
//! - a rung entry for tick `t` always predates (has a smaller stamp than)
//!   any ring entry for `t`. The rung threshold is the fixed cap, not the
//!   current width: a push goes to the rung iff `t >= base + cap` at push
//!   time, and to the ring iff `t < base + cap`. `base` only moves
//!   forward and the cap never changes, so once some push for `t` took
//!   the ring every later push for `t` does too — all rung entries for
//!   `t` were pushed before all ring entries for `t`. Draining rung before
//!   ring on a time tie, and migrating in heap order, therefore preserves
//!   global order whatever width the ring has reached.
//!
//! `tests/tests/properties.rs` holds differential property tests that
//! replay randomized `(time, id)` streams — across every growth boundary,
//! the rung, and ring wraparound — against a reference `BinaryHeap`.
//!
//! In the engine an id below the shard's lane count *is* a pending
//! `LaneRun` for that lane; ids above name slots of the shard's action
//! slab (see `engine/core.rs`). Queue operations never move action data.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};

/// Initial ring width in ticks. Power of two; covers every one-hop future
/// under the default cost model (up to `2 × inter_node_latency`), so a
/// machine without a queueing backlog never grows its rings.
pub const MIN_RING_BUCKETS: usize = 2048;

/// Widest the ring grows, in ticks. Power of two, at most `64³` (three
/// bitmap levels). Only entries at least this far ahead of the queue's
/// clock take the overflow rung.
pub const MAX_RING_BUCKETS: usize = 65_536;

/// End-of-list link, and the "empty" head of an [`IdList`]. Never an id.
const NIL: u32 = u32::MAX;

/// Link value of an id that is in no list. Never an id.
const UNLINKED: u32 = u32::MAX - 1;

/// A FIFO of ids threaded through a [`Links`] array: 8 bytes, no heap
/// block. `tail` is meaningful only while `head != NIL`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IdList {
    head: u32,
    tail: u32,
}

impl Default for IdList {
    fn default() -> IdList {
        IdList { head: NIL, tail: NIL }
    }
}

impl IdList {
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// The `next` link of every id, shared by all lists over those ids. The
/// one invariant — an id is in at most one list — is what lets a single
/// word per id serve the calendar, the freelist and the lane inboxes; it
/// is debug-asserted on every insertion and checked on snapshot decode.
#[derive(Clone, Default)]
pub(crate) struct Links(Vec<u32>);

impl Links {
    /// Make `id` addressable (as [`UNLINKED`]).
    #[inline]
    pub(crate) fn ensure(&mut self, id: u32) {
        debug_assert!(id < UNLINKED, "id {id} collides with a list sentinel");
        if id as usize >= self.0.len() {
            self.0.resize(id as usize + 1, UNLINKED);
        }
    }

    #[inline]
    fn claim(&mut self, id: u32, next: u32) {
        debug_assert_eq!(self.0[id as usize], UNLINKED, "id {id} is already in a list");
        self.0[id as usize] = next;
    }

    /// Take `id` out of whatever holds it without a list: the rung.
    #[inline]
    fn release(&mut self, id: u32) {
        self.0[id as usize] = UNLINKED;
    }

    #[inline]
    pub(crate) fn push_back(&mut self, list: &mut IdList, id: u32) {
        self.claim(id, NIL);
        if list.head == NIL {
            list.head = id;
        } else {
            self.0[list.tail as usize] = id;
        }
        list.tail = id;
    }

    #[inline]
    pub(crate) fn push_front(&mut self, list: &mut IdList, id: u32) {
        self.claim(id, list.head);
        if list.head == NIL {
            list.tail = id;
        }
        list.head = id;
    }

    #[inline]
    pub(crate) fn pop_front(&mut self, list: &mut IdList) -> Option<u32> {
        let id = list.head;
        if id == NIL {
            return None;
        }
        list.head = std::mem::replace(&mut self.0[id as usize], UNLINKED);
        Some(id)
    }

    /// The ids of `list`, front to back.
    pub(crate) fn iter(&self, list: &IdList) -> impl Iterator<Item = u32> + '_ {
        let mut at = list.head;
        std::iter::from_fn(move || {
            let id = at;
            if id == NIL {
                return None;
            }
            at = self.0[id as usize];
            Some(id)
        })
    }

    /// Is `id` in some list (or parked in the overflow rung)?
    pub(crate) fn is_linked(&self, id: u32) -> bool {
        self.0.get(id as usize).is_some_and(|&l| l != UNLINKED)
    }

    /// Append a decoded id, rejecting one that is out of range or already
    /// in a list — a duplicate would close a cycle, i.e. a hang.
    fn link_decoded(&mut self, list: &mut IdList, id: u32) -> Result<(), SnapshotError> {
        match self.0.get(id as usize) {
            None => Err(SnapshotError::Format(format!(
                "pending id {id} out of range ({} ids)",
                self.0.len()
            ))),
            Some(&UNLINKED) => {
                self.push_back(list, id);
                Ok(())
            }
            Some(_) => Err(SnapshotError::Format(format!("pending id {id} appears twice"))),
        }
    }

    /// Write `list` front to back, [`NIL`]-terminated, straight from the
    /// list walk.
    pub(crate) fn save_list(&self, list: &IdList, w: &mut SnapWriter) {
        for id in self.iter(list) {
            w.u32(id);
        }
        w.u32(NIL);
    }

    /// Rebuild a list from [`Links::save_list`] bytes.
    pub(crate) fn load_list(&mut self, r: &mut SnapReader<'_>) -> Result<IdList, SnapshotError> {
        let mut list = IdList::default();
        loop {
            match r.u32()? {
                NIL => return Ok(list),
                id => self.link_decoded(&mut list, id)?,
            }
        }
    }
}

/// Three-level occupancy bitmap over the ring: bit `i` of level 0 is set
/// iff bucket `i` is non-empty; a bit of level `k + 1` is set iff the
/// corresponding level-`k` word is non-zero. Finding the next occupied
/// bucket reads at most five words at any width up to `64³`.
#[derive(Clone)]
struct Occupancy {
    l0: Vec<u64>,
    l1: Vec<u64>,
    l2: u64,
}

impl Occupancy {
    fn new(width: usize) -> Occupancy {
        debug_assert!(width.is_power_of_two() && (64..=64 * 64 * 64).contains(&width));
        Occupancy {
            l0: vec![0; width / 64],
            l1: vec![0; (width / 64).div_ceil(64)],
            l2: 0,
        }
    }

    #[inline]
    fn set(&mut self, idx: usize) {
        let w = idx / 64;
        self.l0[w] |= 1 << (idx % 64);
        self.l1[w / 64] |= 1 << (w % 64);
        self.l2 |= 1 << (w / 64);
    }

    #[inline]
    fn clear(&mut self, idx: usize) {
        let w = idx / 64;
        self.l0[w] &= !(1 << (idx % 64));
        if self.l0[w] == 0 {
            self.l1[w / 64] &= !(1 << (w % 64));
            if self.l1[w / 64] == 0 {
                self.l2 &= !(1 << (w / 64));
            }
        }
    }

    /// First set bit at index `>= start`, descending through the
    /// summaries instead of walking level-0 words.
    fn next_at_or_after(&self, start: usize) -> Option<usize> {
        let first_in = |w: usize| w * 64 + self.l0[w].trailing_zeros() as usize;
        let w = start / 64;
        let bits = self.l0[w] & (!0 << (start % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        let w = w + 1;
        if w == self.l0.len() {
            return None;
        }
        let s = w / 64;
        let bits = self.l1[s] & (!0 << (w % 64));
        if bits != 0 {
            return Some(first_in(s * 64 + bits.trailing_zeros() as usize));
        }
        let s = s + 1;
        if s == self.l1.len() {
            return None;
        }
        let bits = self.l2 & (!0 << s);
        if bits == 0 {
            return None;
        }
        let s = bits.trailing_zeros() as usize;
        Some(first_in(s * 64 + self.l1[s].trailing_zeros() as usize))
    }
}

/// A calendar queue over `(time, id)` entries, dequeuing in
/// `(time, push-order)` order. See the module docs for the design.
#[derive(Clone)]
pub struct CalendarQueue {
    links: Links,
    /// One `(head, tail)` pair per tick of the window; length is the
    /// current width (a power of two).
    ring: Vec<IdList>,
    occ: Occupancy,
    /// Absolute time of the tick currently at the head of the ring; the
    /// ring covers `[base, base + ring.len())`.
    base: u64,
    /// Same-tick fast lane: entries for exactly `base`, pushed while that
    /// tick is being drained.
    cur: IdList,
    /// Entries at least [`MAX_RING_BUCKETS`] ticks out (and, defensively,
    /// past-time ones) as `(time, seq, id)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Global push stamp; FIFO-within-a-tick follows from its monotonicity.
    seq: u64,
    len: usize,
    /// Host-side diagnostic: pushes that took the overflow rung. Not
    /// serialized.
    rung_pushes: u64,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl CalendarQueue {
    pub fn new() -> CalendarQueue {
        CalendarQueue::with_width(MIN_RING_BUCKETS)
    }

    fn with_width(width: usize) -> CalendarQueue {
        CalendarQueue {
            links: Links::default(),
            ring: vec![IdList::default(); width],
            occ: Occupancy::new(width),
            base: 0,
            cur: IdList::default(),
            overflow: BinaryHeap::new(),
            seq: 0,
            len: 0,
            rung_pushes: 0,
        }
    }

    /// Logical pending entries (ring + fast lane + overflow).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current ring width in ticks (host-side diagnostic).
    pub fn ring_width(&self) -> usize {
        self.ring.len()
    }

    /// Pushes that took the overflow rung so far (host-side diagnostic).
    pub fn rung_pushes(&self) -> u64 {
        self.rung_pushes
    }

    /// The link array, for the engine's own lists over the same ids.
    #[inline]
    pub(crate) fn links_mut(&mut self) -> &mut Links {
        &mut self.links
    }

    pub(crate) fn links(&self) -> &Links {
        &self.links
    }

    #[inline]
    fn mask(&self) -> usize {
        self.ring.len() - 1
    }

    #[inline]
    fn base_idx(&self) -> usize {
        (self.base as usize) & self.mask()
    }

    /// Schedule `id` at absolute `time`. `id` must not be pending already.
    pub fn push(&mut self, time: u64, id: u32) {
        self.seq += 1;
        self.len += 1;
        self.links.ensure(id);
        // A time behind `base` wraps to a huge distance and takes the rung
        // (the engine treats a past-time pop as a hard causality error;
        // the rung reproduces heap order for it).
        let dist = time.wrapping_sub(self.base);
        if dist == 0 {
            // Same-tick fast lane: no slot arithmetic, no bitmap.
            self.links.push_back(&mut self.cur, id);
        } else if dist < MAX_RING_BUCKETS as u64 {
            if dist >= self.ring.len() as u64 {
                self.grow(dist as usize);
            }
            self.seat(time, id);
        } else {
            self.rung_pushes += 1;
            self.links.claim(id, NIL);
            self.overflow.push(Reverse((time, self.seq, id)));
        }
    }

    /// Append `id` to the bucket of `time`, a tick inside the ring window
    /// other than `base`'s fast-lane case.
    #[inline]
    fn seat(&mut self, time: u64, id: u32) {
        let idx = (time as usize) & self.mask();
        if self.ring[idx].is_empty() {
            self.occ.set(idx);
        }
        self.links.push_back(&mut self.ring[idx], id);
    }

    /// Widen the ring to the power of two that covers distance `dist`,
    /// re-seating each occupied bucket's `(head, tail)` pair at its tick's
    /// slot in the wider ring.
    #[cold]
    fn grow(&mut self, dist: usize) {
        let width = (dist + 1).next_power_of_two();
        debug_assert!(width > self.ring.len() && width <= MAX_RING_BUCKETS);
        let mut ring = vec![IdList::default(); width];
        let mut occ = Occupancy::new(width);
        for (dist, idx) in self.occupied() {
            let seat = (self.base + dist as u64) as usize & (width - 1);
            ring[seat] = self.ring[idx];
            occ.set(seat);
        }
        self.ring = ring;
        self.occ = occ;
    }

    /// Occupied buckets in time order, as `(distance from the base slot,
    /// idx)`: the bitmap walked cyclically from the base slot.
    fn occupied(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (base_idx, width) = (self.base_idx(), self.ring.len());
        // Two legs: [base_idx, width), then [0, base_idx).
        let (mut at, mut end) = (base_idx, width);
        std::iter::from_fn(move || loop {
            let found = if at < end {
                self.occ.next_at_or_after(at).filter(|&idx| idx < end)
            } else {
                None
            };
            match found {
                Some(idx) => {
                    at = idx + 1;
                    return Some((idx.wrapping_sub(base_idx) & (width - 1), idx));
                }
                None if end == width && base_idx != 0 => (at, end) = (0, base_idx),
                None => return None,
            }
        })
    }

    /// First occupied ring slot at cyclic distance `>= 1` from the base
    /// slot, as `(absolute_time, idx)`. Caller guarantees the base bucket
    /// is empty.
    fn scan_ring(&self) -> Option<(u64, usize)> {
        let base_idx = self.base_idx();
        let start = (base_idx + 1) & self.mask();
        let idx = self
            .occ
            .next_at_or_after(start)
            .or_else(|| self.occ.next_at_or_after(0))?;
        let dist = idx.wrapping_sub(base_idx) & self.mask();
        Some((self.base + dist as u64, idx))
    }

    /// Head of the ring side as `(time, idx)`: the base tick (bucket, then
    /// fast lane) if it has entries, else the next occupied bucket.
    #[inline]
    fn ring_head(&self) -> Option<(u64, usize)> {
        let base_idx = self.base_idx();
        if !self.ring[base_idx].is_empty() || !self.cur.is_empty() {
            Some((self.base, base_idx))
        } else {
            self.scan_ring()
        }
    }

    /// Earliest pending `(time)` without dequeuing, `None` when empty.
    pub fn peek_time(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let ring = self.ring_head().map(|(t, _)| t);
        let rung = self.overflow.peek().map(|Reverse((t, _, _))| *t);
        let best = match (ring, rung) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        debug_assert!(best.is_some(), "non-empty queue must have a head");
        best
    }

    /// Dequeue the earliest entry (FIFO within a tick).
    pub fn pop(&mut self) -> Option<(u64, u32)> {
        self.pop_if_before(u64::MAX)
    }

    /// Dequeue the earliest entry only if its time is `< limit` —
    /// the engine's window-horizon check fused into a single scan.
    pub fn pop_if_before(&mut self, limit: u64) -> Option<(u64, u32)> {
        if self.len == 0 {
            return None;
        }
        let mut head = self.ring_head();
        // On a time tie the rung entry wins: it was pushed while its tick
        // was still beyond the cap, i.e. earlier.
        if let Some(&Reverse((t, _, id))) = self.overflow.peek() {
            if head.is_none_or(|(rt, _)| t <= rt) {
                if t >= limit {
                    return None;
                }
                if head.is_some() {
                    self.overflow.pop();
                    self.links.release(id);
                    self.len -= 1;
                    return Some((t, id));
                }
                // Ring is empty: rebase the window onto the rung head and
                // migrate everything now in-window, then pop from the ring
                // (keeps same-tick FIFO for later pushes at these times).
                self.rebase(t);
                head = Some((t, self.base_idx()));
            }
        }
        let (t, idx) = head.expect("non-empty queue must have a head");
        if t >= limit {
            return None;
        }
        // Advancing the window makes the fast lane serve tick `t`; it is
        // empty whenever `t` is past the base tick.
        self.base = t;
        let id = match self.links.pop_front(&mut self.ring[idx]) {
            Some(id) => {
                if self.ring[idx].is_empty() {
                    self.occ.clear(idx);
                }
                id
            }
            None => self
                .links
                .pop_front(&mut self.cur)
                .expect("ring head names a non-empty bucket or fast lane"),
        };
        self.len -= 1;
        Some((t, id))
    }

    /// Move the ring window to start at `t0` and migrate every rung entry
    /// inside `[t0, t0 + width)` into its bucket, in `(time, seq)` order.
    /// Caller guarantees the ring is empty.
    fn rebase(&mut self, t0: u64) {
        debug_assert!(self.occ.l2 == 0 && self.cur.is_empty());
        self.base = t0;
        let lim = t0.saturating_add(self.ring.len() as u64);
        while let Some(&Reverse((t, _, id))) = self.overflow.peek() {
            if t >= lim {
                break;
            }
            self.overflow.pop();
            self.links.release(id);
            if t == t0 {
                self.links.push_back(&mut self.cur, id);
            } else {
                self.seat(t, id);
            }
        }
    }

    /// Serialize the queue into a snapshot body. The encoding is *exact*
    /// for everything observable — and for the structure itself, so a
    /// restored queue re-encodes byte-identically whatever happens next:
    /// `base`, the global `seq` stamp, the ring width reached, the
    /// fast-lane entries, every occupied bucket keyed by its cyclic
    /// distance from the base slot, and the overflow rung **with its
    /// original `(time, seq)` stamps** — a rung entry restored without its
    /// push stamp would lose a time-tie against a ring entry it
    /// historically beats (see the module docs on determinism). Lists are
    /// written straight from the list walk, `u32::MAX`-terminated.
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        w.u64(self.base);
        w.u64(self.seq);
        w.u64(self.len as u64);
        w.u32(self.ring.len() as u32);
        self.links.save_list(&self.cur, w);
        for (dist, idx) in self.occupied() {
            w.u32(dist as u32);
            self.links.save_list(&self.ring[idx], w);
        }
        w.u32(NIL);
        // Rung in heap (time, seq) order for a canonical byte stream.
        let mut over: Vec<(u64, u64, u32)> =
            self.overflow.iter().map(|Reverse(e)| *e).collect();
        over.sort_unstable();
        w.u64(over.len() as u64);
        for (t, s, id) in over {
            w.u64(t);
            w.u64(s);
            w.u32(id);
        }
    }

    /// Rebuild a queue from [`CalendarQueue::save`] bytes over the id
    /// space `0..ids`, reconstructing the occupancy bitmaps. Corrupt input
    /// — including an id that is out of range or pending twice — yields a
    /// clean error.
    pub(crate) fn load(r: &mut SnapReader<'_>, ids: u32) -> Result<CalendarQueue, SnapshotError> {
        let base = r.u64()?;
        let seq = r.u64()?;
        let want_len = r.u64()?;
        let width = r.u32()? as usize;
        if !width.is_power_of_two() || !(MIN_RING_BUCKETS..=MAX_RING_BUCKETS).contains(&width) {
            return Err(SnapshotError::Format(format!("calendar ring width {width}")));
        }
        let mut q = CalendarQueue::with_width(width);
        (q.base, q.seq) = (base, seq);
        q.links.0.resize(ids as usize, UNLINKED);
        q.cur = q.links.load_list(r)?;
        let base_idx = q.base_idx();
        let mut min_dist = 0;
        loop {
            let dist = r.u32()?;
            if dist == NIL {
                break;
            }
            if dist < min_dist || dist as usize >= width {
                return Err(SnapshotError::Format(format!(
                    "calendar bucket distance {dist} out of order or out of ring"
                )));
            }
            min_dist = dist + 1;
            let idx = (base_idx + dist as usize) & q.mask();
            q.ring[idx] = q.links.load_list(r)?;
            if q.ring[idx].is_empty() {
                return Err(SnapshotError::Format("empty calendar bucket".into()));
            }
            q.occ.set(idx);
        }
        for _ in 0..r.len(20)? {
            let t = r.u64()?;
            let s = r.u64()?;
            let id = r.u32()?;
            // Mark the id pending through a throw-away list.
            q.links.link_decoded(&mut IdList::default(), id)?;
            q.overflow.push(Reverse((t, s, id)));
        }
        // `q.links` was created above, so what is linked is what was read.
        q.len = q.links.0.iter().filter(|&&l| l != UNLINKED).count();
        if q.len as u64 != want_len {
            return Err(SnapshotError::Format(format!(
                "calendar length mismatch: counted {}, header says {want_len}",
                q.len
            )));
        }
        Ok(q)
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    const MIN: u64 = MIN_RING_BUCKETS as u64;
    const CAP: u64 = MAX_RING_BUCKETS as u64;

    /// Reference model: the old engine's ordering, `BinaryHeap` over
    /// `(time, seq)`.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl Reference {
        fn push(&mut self, t: u64, p: u32) {
            self.seq += 1;
            self.heap.push(Reverse((t, self.seq, p)));
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            self.heap.pop().map(|Reverse((t, _, p))| (t, p))
        }
    }

    #[test]
    fn fifo_within_a_tick() {
        let mut q = CalendarQueue::new();
        q.push(5, 1);
        q.push(5, 2);
        q.push(3, 3);
        q.push(5, 4);
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), Some((5, 4)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn same_tick_fast_lane_preserves_order() {
        let mut q = CalendarQueue::new();
        q.push(10, 1);
        q.push(10, 2);
        assert_eq!(q.pop(), Some((10, 1))); // base is now 10
        q.push(10, 3); // fast lane
        q.push(11, 4);
        q.push(10, 5); // fast lane
        assert_eq!(q.pop(), Some((10, 2))); // bucket before fast lane
        assert_eq!(q.pop(), Some((10, 3)));
        assert_eq!(q.pop(), Some((10, 5)));
        assert_eq!(q.pop(), Some((11, 4)));
    }

    #[test]
    fn a_popped_id_can_be_pushed_again() {
        let mut q = CalendarQueue::new();
        q.push(4, 9);
        assert_eq!(q.pop(), Some((4, 9)));
        q.push(4, 9); // fast lane
        q.push(6, 3);
        assert_eq!(q.pop(), Some((4, 9)));
        q.push(CAP * 2, 9); // rung
        assert_eq!(q.pop(), Some((6, 3)));
        assert_eq!(q.pop(), Some((CAP * 2, 9)));
        q.push(CAP * 2 + 1, 9);
        assert_eq!(q.pop(), Some((CAP * 2 + 1, 9)));
        assert!(q.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already in a list")]
    fn pushing_a_pending_id_panics_in_debug() {
        let mut q = CalendarQueue::new();
        q.push(5, 1);
        q.push(9, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already in a list")]
    fn pushing_an_id_parked_in_the_rung_panics_in_debug() {
        let mut q = CalendarQueue::new();
        q.push(CAP + 5, 1);
        q.push(9, 1);
    }

    #[test]
    fn ring_grows_to_cover_a_push_and_no_further() {
        let mut q = CalendarQueue::new();
        q.push(MIN - 1, 0);
        assert_eq!(q.ring_width(), MIN_RING_BUCKETS, "distance width-1 fits");
        q.push(MIN, 1);
        assert_eq!(q.ring_width(), 2 * MIN_RING_BUCKETS, "distance width doubles once");
        q.push(5 * MIN, 2);
        assert_eq!(q.ring_width(), 8 * MIN_RING_BUCKETS, "one re-seat covers several doublings");
        q.push(CAP - 1, 3);
        assert_eq!(q.ring_width(), MAX_RING_BUCKETS);
        assert_eq!(q.rung_pushes(), 0);
        q.push(CAP, 4);
        assert_eq!((q.ring_width(), q.rung_pushes()), (MAX_RING_BUCKETS, 1));
        for want in [(MIN - 1, 0), (MIN, 1), (5 * MIN, 2), (CAP - 1, 3), (CAP, 4)] {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.ring_width(), MAX_RING_BUCKETS, "the ring never shrinks");
    }

    #[test]
    fn growth_keeps_bucket_fifo_and_wrapped_buckets() {
        // Advance the window so occupied buckets straddle the wrap point,
        // then grow: each bucket must land on its own tick's slot with
        // its FIFO intact, and later pushes at those ticks append.
        let mut q = CalendarQueue::new();
        q.push(MIN - 10, 0);
        assert_eq!(q.pop(), Some((MIN - 10, 0))); // base = MIN - 10
        q.push(MIN - 5, 1);
        q.push(MIN + 20, 2); // wraps to slot 20
        q.push(MIN + 20, 3);
        q.push(MIN - 10, 4); // fast lane
        q.push(4 * MIN, 5); // grows to 4 * MIN
        assert_eq!(q.ring_width(), 4 * MIN_RING_BUCKETS);
        q.push(MIN + 20, 6);
        q.push(MIN - 5, 7);
        let want = [
            (MIN - 10, 4),
            (MIN - 5, 1),
            (MIN - 5, 7),
            (MIN + 20, 2),
            (MIN + 20, 3),
            (MIN + 20, 6),
            (4 * MIN, 5),
        ];
        for w in want {
            assert_eq!(q.pop(), Some(w));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_goes_to_overflow_and_comes_back() {
        let mut q = CalendarQueue::new();
        let far = 10 + 10 * CAP;
        q.push(far, 1);
        q.push(2, 2);
        q.push(far, 3);
        q.push(far + 1, 4);
        assert_eq!(q.rung_pushes(), 3);
        assert_eq!(q.pop(), Some((2, 2)));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, 1)));
        // Post-rebase push at the same tick lands behind the migrated one.
        q.push(far, 5);
        assert_eq!(q.pop(), Some((far, 3)));
        assert_eq!(q.pop(), Some((far, 5)));
        assert_eq!(q.pop(), Some((far + 1, 4)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_wins_time_ties_against_ring() {
        let mut q = CalendarQueue::new();
        let t = CAP + 100; // beyond the cap from the initial window
        q.push(t, 1); // -> rung (pushed first)
        // Advance the window so `t` becomes coverable by the ring.
        q.push(200, 0);
        assert_eq!(q.pop(), Some((200, 0))); // base = 200, t now within the cap
        q.push(t, 2); // -> ring, growing it (pushed second)
        assert_eq!(q.ring_width(), MAX_RING_BUCKETS);
        assert_eq!(q.pop(), Some((t, 1)), "older rung entry first");
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn pop_if_before_respects_horizon() {
        let mut q = CalendarQueue::new();
        q.push(7, 1);
        q.push(9, 2);
        assert_eq!(q.pop_if_before(7), None);
        assert_eq!(q.pop_if_before(8), Some((7, 1)));
        assert_eq!(q.pop_if_before(8), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_if_before(u64::MAX), Some((9, 2)));
    }

    fn bytes_of(q: &CalendarQueue) -> Vec<u8> {
        let mut w = SnapWriter::new();
        q.save(&mut w);
        w.into_bytes()
    }

    fn roundtrip(q: &CalendarQueue) -> CalendarQueue {
        let bytes = bytes_of(q);
        let mut r = SnapReader::new(&bytes);
        let q2 = CalendarQueue::load(&mut r, 64).expect("valid calendar bytes");
        r.finish().unwrap();
        q2
    }

    #[test]
    fn save_load_preserves_order_and_reserializes_identically() {
        let mut q = CalendarQueue::new();
        q.push(10, 1);
        q.push(10, 2);
        assert_eq!(q.pop(), Some((10, 1))); // base = 10, fast lane active
        q.push(10, 3); // fast lane
        q.push(500, 4); // ring
        let far = 10 + 7 * CAP;
        q.push(far, 5); // rung
        q.push(far, 6); // rung, later stamp

        let mut q2 = roundtrip(&q);
        // Re-serialize: byte-identical (canonical encoding).
        assert_eq!(bytes_of(&q), bytes_of(&q2));
        // Identical dequeue stream, including the rung time-tie rule.
        q2.push(far, 7); // post-restore push at the rung tick
        q.push(far, 7);
        loop {
            let (a, b) = (q.pop(), q2.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn save_load_round_trips_a_grown_ring_byte_identically() {
        let mut q = CalendarQueue::new();
        q.push(MIN - 3, 0);
        assert_eq!(q.pop(), Some((MIN - 3, 0))); // base near the wrap point
        q.push(MIN - 3, 1); // fast lane
        q.push(MIN + 7, 2);
        q.push(MIN + 7, 3);
        q.push(9 * MIN, 4); // grows to 16 * MIN
        q.push(2 * CAP, 5); // rung
        assert_eq!(q.ring_width(), 16 * MIN_RING_BUCKETS);

        let mut q2 = roundtrip(&q);
        assert_eq!(q2.ring_width(), q.ring_width(), "the width reached is part of the state");
        assert_eq!(bytes_of(&q), bytes_of(&q2));
        // The two keep re-encoding identically as they run on.
        for step in 0..3 {
            assert_eq!(q.pop(), q2.pop());
            q.push(12 * MIN + step, 10 + step as u32);
            q2.push(12 * MIN + step, 10 + step as u32);
            assert_eq!(bytes_of(&q), bytes_of(&q2));
        }
        while let Some(e) = q.pop() {
            assert_eq!(q2.pop(), Some(e));
        }
        assert!(q2.is_empty());
    }

    #[test]
    fn save_load_mid_overflow_keeps_tie_order() {
        // A rung entry restored without its stamp would lose the time-tie
        // against a ring entry pushed later; assert the stamp survives the
        // round trip.
        let mut q = CalendarQueue::new();
        let t = CAP + 100;
        q.push(t, 1); // rung (older)
        q.push(200, 0);
        assert_eq!(q.pop(), Some((200, 0))); // base = 200; t now within the cap
        let mut q2 = roundtrip(&q);
        q2.push(t, 2); // ring (younger)
        assert_eq!(q2.pop(), Some((t, 1)), "rung stamp must win the tie");
        assert_eq!(q2.pop(), Some((t, 2)));
        assert_eq!(q2.pop(), None);
    }

    #[test]
    fn load_rejects_corrupt_bytes() {
        let mut q = CalendarQueue::new();
        q.push(3, 1);
        q.push(5000, 2);
        q.push(3 * CAP, 3);
        let bytes = bytes_of(&q);
        // Truncation at every prefix either errors or fails the trailing
        // check — never panics.
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            match CalendarQueue::load(&mut r, 64) {
                Ok(_) => assert!(r.finish().is_err(), "cut {cut} accepted"),
                Err(SnapshotError::Format(_)) => {}
                Err(e) => panic!("unexpected error kind at cut {cut}: {e}"),
            }
        }
        // A corrupted length field is caught by the len/consistency check.
        let mut bad = bytes.clone();
        bad[16] ^= 0x7; // low byte of `len`
        assert!(CalendarQueue::load(&mut SnapReader::new(&bad), 64).is_err());
        // A width that is not a reachable power of two is refused before
        // anything is allocated for it.
        for width in [0u32, 1024, 3000, 2 * MAX_RING_BUCKETS as u32, u32::MAX] {
            let mut bad = bytes.clone();
            bad[24..28].copy_from_slice(&width.to_le_bytes());
            assert!(CalendarQueue::load(&mut SnapReader::new(&bad), 64).is_err(), "width {width}");
        }
    }

    #[test]
    fn load_rejects_untrustworthy_ids() {
        // Hand-encode bodies (base 0, initial width): fast lane, buckets
        // as (distance, ids), rung as (time, seq, id).
        type Bucket<'a> = (u32, &'a [u32]);
        fn encode(cur: &[u32], buckets: &[Bucket<'_>], rung: &[(u64, u64, u32)]) -> Vec<u8> {
            let n = cur.len() + buckets.iter().map(|b| b.1.len()).sum::<usize>() + rung.len();
            let mut w = SnapWriter::new();
            w.u64(0);
            w.u64(100);
            w.u64(n as u64);
            w.u32(MIN_RING_BUCKETS as u32);
            let list = |w: &mut SnapWriter, ids: &[u32]| {
                for id in ids {
                    w.u32(*id);
                }
                w.u32(NIL);
            };
            list(&mut w, cur);
            for (dist, ids) in buckets {
                w.u32(*dist);
                list(&mut w, ids);
            }
            w.u32(NIL);
            w.u64(rung.len() as u64);
            for &(t, s, id) in rung {
                w.u64(t);
                w.u64(s);
                w.u32(id);
            }
            w.into_bytes()
        }
        let load = |bytes: &[u8], ids| {
            let mut r = SnapReader::new(bytes);
            CalendarQueue::load(&mut r, ids).and_then(|q| r.finish().map(|()| q))
        };
        let err = |bytes: &[u8], ids| match load(bytes, ids) {
            Err(SnapshotError::Format(m)) => m,
            Err(e) => panic!("unexpected error kind: {e}"),
            Ok(_) => panic!("accepted"),
        };
        let far = 3 * CAP;
        let good = encode(&[0], &[(3, &[1, 2]), (40, &[4])], &[(far, 7, 5)]);
        let mut q = load(&good, 6).unwrap();
        assert_eq!(bytes_of(&q), good, "the hand encoding is the canonical one");
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, [(0, 0), (3, 1), (3, 2), (40, 4), (far, 5)]);
        // Out of range: the id space is too small for ids 4 and 5.
        assert!(err(&good, 4).contains("out of range"));
        assert!(err(&good, 5).contains("out of range"));
        // Duplicates: within a bucket (a would-be cycle), across buckets,
        // fast lane vs ring, ring vs rung.
        for bad in [
            encode(&[0], &[(3, &[1, 1]), (40, &[4])], &[(far, 7, 5)]),
            encode(&[0], &[(3, &[1, 2]), (40, &[1])], &[(far, 7, 5)]),
            encode(&[2], &[(3, &[1, 2]), (40, &[4])], &[(far, 7, 5)]),
            encode(&[0], &[(3, &[1, 2]), (40, &[4])], &[(far, 7, 4)]),
        ] {
            assert!(err(&bad, 6).contains("appears twice"));
        }
        // Buckets out of order, repeated, or beyond the ring.
        for bad in [
            encode(&[], &[(40, &[4]), (3, &[1])], &[]),
            encode(&[], &[(3, &[1]), (3, &[4])], &[]),
            encode(&[], &[(MIN_RING_BUCKETS as u32, &[1])], &[]),
            encode(&[], &[(3, &[])], &[]),
        ] {
            assert!(err(&bad, 6).contains("bucket"));
        }
    }

    #[test]
    fn wraparound_across_many_ring_revolutions() {
        // Differential check across many ring revolutions with mixed
        // same-tick, near-future, ring-growing and rung pushes.
        let mut q = CalendarQueue::new();
        let mut r = Reference::default();
        let mut x = 0x243F_6A88_85A3_08D3u64; // deterministic LCG-ish walk
        let mut now = 0u64;
        let mut next_p = 0u32;
        for step in 0..40_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r1 = (x >> 33) % 100;
            if r1 < 60 {
                let delay = match (x >> 13) % 6 {
                    0 => 0,
                    1 => 1 + (x >> 23) % 40,
                    2 => 200,
                    3 => 1000 + (x >> 23) % 1500,
                    4 => 3000 + (x >> 23) % 20_000, // grows the ring
                    _ => CAP / 2 + (x >> 23) % CAP, // either side of the cap: ring or rung
                };
                q.push(now + delay, next_p);
                r.push(now + delay, next_p);
                next_p += 1;
            } else {
                let (a, b) = (q.pop(), r.pop());
                assert_eq!(a, b, "diverged at step {step}");
                if let Some((t, _)) = a {
                    now = t;
                }
            }
            assert_eq!(q.len(), r.heap.len());
        }
        assert!(q.rung_pushes() > 0 && q.ring_width() == MAX_RING_BUCKETS);
        loop {
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
