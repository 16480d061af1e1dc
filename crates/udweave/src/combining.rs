//! The combining cache: software fetch-and-add (§4.1 footnote 1, Table 5's
//! "Combining Cache (fetch&add)" — 232 LoC in UDWeave).
//!
//! UpDown has no hardware fetch-and-add; the library caches accumulation
//! targets in the lane's scratchpad and flushes combined deltas to DRAM.
//! Atomicity holds because (a) events are atomic within a lane and (b) the
//! Hash reduce binding sends every update for a given key to the same lane.
//!
//! Layout: a direct-mapped table of `slots` entries, 2 words each:
//! `[tag (dram address, 0 = empty), accumulated value bits]`.
//!
//! Table accesses use the atomic-class scratchpad accessors: concurrent
//! events hitting one lane's cache are serialized by the lane and the
//! accumulation commutes, so the race probe treats them as ordered rather
//! than racing (see `docs/udrace.md`).

use crate::spmalloc::{sp_malloc, SpSlice};
use updown_sim::{EventCtx, VAddr};

/// Value kind stored in a cache (determines the flush operation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    U64,
    F64,
}

/// A lane-local combining cache. Copyable: the struct is just a descriptor
/// of the scratchpad region (like a pointer in the UDWeave version).
#[derive(Clone, Copy, Debug)]
pub struct CombiningCache {
    table: SpSlice,
    slots: u32,
    kind: Kind,
}

impl CombiningCache {
    /// Allocate a cache with `slots` entries from this lane's scratchpad.
    pub fn new(ctx: &mut EventCtx<'_>, slots: u32, kind: Kind) -> CombiningCache {
        assert!(slots.is_power_of_two(), "slot count must be a power of 2");
        let table = sp_malloc(ctx, slots * 2);
        CombiningCache { table, slots, kind }
    }

    #[inline]
    fn slot_of(&self, va: VAddr) -> u32 {
        // Word-granular addresses; a cheap multiplicative hash avoids
        // pathological striding over the direct-mapped table.
        let h = (va.0 >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 40) as u32) & (self.slots - 1)
    }

    /// Accumulate `delta` (f64) toward DRAM cell `va`. Evicts a conflicting
    /// entry with a memory-side add.
    pub fn add_f64(&self, ctx: &mut EventCtx<'_>, va: VAddr, delta: f64) {
        debug_assert_eq!(self.kind, Kind::F64);
        let s = self.slot_of(va);
        let tag = self.table.get_atomic(ctx, s * 2);
        if tag == va.0 {
            ctx.bump("combining.hit", 1);
            let cur = self.table.get_f64_atomic(ctx, s * 2 + 1);
            self.table.set_f64_atomic(ctx, s * 2 + 1, cur + delta);
        } else {
            ctx.bump("combining.miss", 1);
            if tag != 0 {
                ctx.bump("combining.evict", 1);
                let old = self.table.get_f64_atomic(ctx, s * 2 + 1);
                ctx.dram_fetch_add_f64(VAddr(tag), old, None, None);
            }
            self.table.set_atomic(ctx, s * 2, va.0);
            self.table.set_f64_atomic(ctx, s * 2 + 1, delta);
        }
    }

    /// Accumulate `delta` (u64) toward DRAM cell `va`.
    pub fn add_u64(&self, ctx: &mut EventCtx<'_>, va: VAddr, delta: u64) {
        debug_assert_eq!(self.kind, Kind::U64);
        let s = self.slot_of(va);
        let tag = self.table.get_atomic(ctx, s * 2);
        if tag == va.0 {
            ctx.bump("combining.hit", 1);
            let cur = self.table.get_atomic(ctx, s * 2 + 1);
            self.table.set_atomic(ctx, s * 2 + 1, cur.wrapping_add(delta));
        } else {
            ctx.bump("combining.miss", 1);
            if tag != 0 {
                ctx.bump("combining.evict", 1);
                let old = self.table.get_atomic(ctx, s * 2 + 1);
                ctx.dram_fetch_add_u64(VAddr(tag), old, None, None);
            }
            self.table.set_atomic(ctx, s * 2, va.0);
            self.table.set_atomic(ctx, s * 2 + 1, delta);
        }
    }

    /// Read out and clear all resident entries (scratchpad loads/stores
    /// charged); the caller issues its own flush operations — used when
    /// the flush must be acknowledged before dependent reads.
    pub fn drain(&self, ctx: &mut EventCtx<'_>) -> Vec<(VAddr, u64)> {
        let mut out = Vec::new();
        for s in 0..self.slots {
            let tag = self.table.get_atomic(ctx, s * 2);
            if tag != 0 {
                let bits = self.table.get_atomic(ctx, s * 2 + 1);
                out.push((VAddr(tag), bits));
                self.table.set_atomic(ctx, s * 2, 0);
                self.table.set_atomic(ctx, s * 2 + 1, 0);
            }
        }
        out
    }

    /// Flush all resident entries to DRAM and clear the cache.
    pub fn flush(&self, ctx: &mut EventCtx<'_>) {
        for s in 0..self.slots {
            let tag = self.table.get_atomic(ctx, s * 2);
            if tag != 0 {
                let bits = self.table.get_atomic(ctx, s * 2 + 1);
                match self.kind {
                    Kind::F64 => {
                        ctx.dram_fetch_add_f64(VAddr(tag), f64::from_bits(bits), None, None)
                    }
                    Kind::U64 => ctx.dram_fetch_add_u64(VAddr(tag), bits, None, None),
                }
                self.table.set_atomic(ctx, s * 2, 0);
                self.table.set_atomic(ctx, s * 2 + 1, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::simple_event;
    use updown_sim::{Engine, EventWord, MachineConfig, NetworkId};

    #[test]
    fn combines_and_flushes_f64() {
        let mut eng = Engine::new(MachineConfig::small(1, 1, 1));
        let base = eng.mem_mut().alloc(1 << 12, 0, 1, 4096).unwrap();
        let go = simple_event(&mut eng, "go", move |ctx| {
            let c = CombiningCache::new(ctx, 8, Kind::F64);
            // Many adds to 3 distinct cells.
            for i in 0..30u64 {
                c.add_f64(ctx, VAddr(ctx.arg(0)).word(i % 3), 1.0);
            }
            c.flush(ctx);
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), go), [base.0], EventWord::IGNORE);
        let r = eng.run();
        for i in 0..3 {
            assert_eq!(eng.mem().read_f64(base.word(i)).unwrap(), 10.0);
        }
        // The whole point: far fewer DRAM writes than adds.
        assert!(r.stats.dram_writes <= 8, "combining reduced memory traffic");
        // 3 distinct cells -> 3 cold misses, the other 27 adds hit.
        assert_eq!(r.custom.get("combining.hit"), Some(&27));
        assert_eq!(r.custom.get("combining.miss"), Some(&3));
    }

    #[test]
    fn eviction_preserves_totals_u64() {
        let mut eng = Engine::new(MachineConfig::small(1, 1, 1));
        let base = eng.mem_mut().alloc(1 << 14, 0, 1, 4096).unwrap();
        let n_cells = 64u64; // more cells than the 4-slot cache -> evictions
        let go = simple_event(&mut eng, "go", move |ctx| {
            let c = CombiningCache::new(ctx, 4, Kind::U64);
            for rep in 0..3u64 {
                for i in 0..n_cells {
                    c.add_u64(ctx, VAddr(ctx.arg(0)).word(i), rep + 1);
                }
            }
            c.flush(ctx);
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), go), [base.0], EventWord::IGNORE);
        eng.run();
        for i in 0..n_cells {
            assert_eq!(
                eng.mem().read_u64(base.word(i)).unwrap(),
                6,
                "cell {i} lost updates across evictions"
            );
        }
    }
}
