//! SHMEM library (Table 5: "SHMEM (put/get, reductions)", 1,914 LoC of
//! UDWeave in the paper; \[38\]): symmetric data objects over UpDown's
//! translation-supported data placement.
//!
//! A [`SymmetricHeap`] is one DRAMmalloc allocation laid out contiguously
//! per node, so the *same offset* names a cell in every PE's (node's)
//! partition — the classic SHMEM symmetric address property, realized here
//! by a single translation descriptor rather than per-PE base tables.
//!
//! `put`/`get` are one-sided: they complete without any code running on
//! the target PE. Reductions read every PE's cell and combine.

use updown_sim::{Engine, EventCtx, EventLabel, MemError, VAddr};

use crate::{dram_malloc_layout, Layout};

/// A symmetric heap across the first `pes` nodes of the machine.
#[derive(Clone, Copy, Debug)]
pub struct SymmetricHeap {
    base: VAddr,
    pub pes: u32,
    /// Words per PE partition.
    pub words_per_pe: u64,
}

impl SymmetricHeap {
    /// Allocate `words_per_pe` 8-byte words on each of `pes` nodes.
    /// The per-PE partition size must land on a power-of-two byte count of
    /// at least one hardware block (it is the DRAMmalloc block size).
    pub fn create(eng: &mut Engine, pes: u32, words_per_pe: u64) -> Result<SymmetricHeap, MemError> {
        let bytes_per_pe = (words_per_pe * 8).next_power_of_two().max(4096);
        let words_per_pe = bytes_per_pe / 8;
        let layout = Layout::window(0, pes, bytes_per_pe);
        let base = dram_malloc_layout(eng, bytes_per_pe * pes as u64, layout)?;
        Ok(SymmetricHeap {
            base,
            pes,
            words_per_pe,
        })
    }

    /// The symmetric address of word `off` on PE `pe`.
    #[inline]
    pub fn addr(&self, pe: u32, off: u64) -> VAddr {
        debug_assert!(pe < self.pes, "PE {pe} out of {}", self.pes);
        debug_assert!(off < self.words_per_pe, "offset {off} out of partition");
        self.base.word(pe as u64 * self.words_per_pe + off)
    }

    /// `shmem_put`: one-sided write of `words` at `off` on PE `pe`;
    /// optional local completion ack.
    pub fn put(
        &self,
        ctx: &mut EventCtx<'_>,
        pe: u32,
        off: u64,
        words: &[u64],
        ack: Option<EventLabel>,
    ) {
        ctx.send_dram_write(self.addr(pe, off), words, ack);
    }

    /// `shmem_get`: one-sided read of `n` words at `off` on PE `pe`; the
    /// data arrives at `ret` on this thread.
    pub fn get(&self, ctx: &mut EventCtx<'_>, pe: u32, off: u64, n: usize, ret: EventLabel) {
        ctx.send_dram_read(self.addr(pe, off), n, ret);
    }

    /// `shmem_get` with a tag word appended to the response (distinguish
    /// concurrent gets).
    pub fn get_tagged(
        &self,
        ctx: &mut EventCtx<'_>,
        pe: u32,
        off: u64,
        n: usize,
        ret: EventLabel,
        tag: u64,
    ) {
        ctx.send_dram_read_tagged(self.addr(pe, off), n, ret, tag);
    }

    /// Atomic add into a symmetric cell (one-sided).
    pub fn add_u64(&self, ctx: &mut EventCtx<'_>, pe: u32, off: u64, delta: u64) {
        ctx.dram_fetch_add_u64(self.addr(pe, off), delta, None, None);
    }

    /// Host-side access for setup/verification.
    pub fn host_read(&self, eng: &Engine, pe: u32, off: u64) -> u64 {
        eng.mem().read_u64(self.addr(pe, off)).expect("shmem read")
    }

    pub fn host_write(&self, eng: &mut Engine, pe: u32, off: u64, v: u64) {
        eng.mem_mut()
            .write_u64(self.addr(pe, off), v)
            .expect("shmem write");
    }
}

/// Reduction operators for [`install_reduce`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    SumU64 = 0,
    MaxU64 = 1,
    SumF64 = 2,
}

/// State of an in-flight symmetric reduction.
#[derive(Clone, Default)]
struct RedSt {
    op: u64,
    pending: u32,
    acc_bits: u64,
    reply_raw: u64,
}

updown_sim::snap_state!(RedSt, "shmem.reduce", { op, pending, acc_bits, reply_raw });

/// Install the `shmem_reduce` event: send `[base, words_per_pe, pes, off,
/// op]` to it (any lane) with a continuation; the continuation receives
/// the combined value over `cell[off]` of every PE. Returns the label.
///
/// This is the library-side "reduction" of Table 5: a gather over the
/// symmetric address space, not a tree (PE counts are node counts, small).
pub fn install_reduce(eng: &mut Engine) -> EventLabel {
    eng.register_state_codec::<RedSt>();
    let gather = eng.register(
        "shmem::reduce_gather",
        std::sync::Arc::new(move |ctx: &mut EventCtx<'_>| {
            let v = ctx.arg(0);
            // Manual typed-state dance (registered without the ThreadType
            // helper to keep this crate's deps minimal).
            let (pending, acc, reply_raw) = {
                let st = ctx.state_mut::<RedSt>();
                st.pending -= 1;
                st.acc_bits = match st.op {
                    0 => st.acc_bits.wrapping_add(v),
                    1 => st.acc_bits.max(v),
                    2 => (f64::from_bits(st.acc_bits) + f64::from_bits(v)).to_bits(),
                    _ => unreachable!(),
                };
                (st.pending, st.acc_bits, st.reply_raw)
            };
            ctx.charge(2);
            if pending == 0 {
                let reply = updown_sim::EventWord::from_raw(reply_raw);
                if !reply.is_ignore() {
                    ctx.send_event(reply, [acc], updown_sim::EventWord::IGNORE);
                }
                ctx.yield_terminate();
            }
        }),
    );
    eng.register(
        "shmem::reduce",
        std::sync::Arc::new(move |ctx: &mut EventCtx<'_>| {
            let heap = SymmetricHeap {
                base: VAddr(ctx.arg(0)),
                words_per_pe: ctx.arg(1),
                pes: ctx.arg(2) as u32,
            };
            let off = ctx.arg(3);
            let op = ctx.arg(4);
            let reply_raw = ctx.cont().raw();
            {
                let st = ctx.state_mut::<RedSt>();
                *st = RedSt {
                    op,
                    pending: heap.pes,
                    acc_bits: 0,
                    reply_raw,
                };
            }
            for pe in 0..heap.pes {
                heap.get(ctx, pe, off, 1, gather);
            }
        }),
    )
}

/// Arguments for a reduction start message.
pub fn reduce_args(heap: &SymmetricHeap, off: u64, op: ReduceOp) -> Vec<u64> {
    vec![
        heap.base.0,
        heap.words_per_pe,
        heap.pes as u64,
        off,
        op as u64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::sync::Arc;
    use updown_sim::{EventWord, MachineConfig, NetworkId};

    fn eng(nodes: u32) -> Engine {
        Engine::new(MachineConfig::small(nodes, 1, 4))
    }

    #[test]
    fn symmetric_addresses_land_on_their_pe() {
        let mut e = eng(4);
        let h = SymmetricHeap::create(&mut e, 4, 100).unwrap();
        for pe in 0..4 {
            let a = h.addr(pe, 5);
            assert_eq!(e.mem().owner_node(a).unwrap(), pe, "PE {pe} owns its cell");
        }
    }

    #[test]
    fn put_get_roundtrip_one_sided() {
        let mut e = eng(2);
        let h = SymmetricHeap::create(&mut e, 2, 64).unwrap();
        let got: Arc<Mutex<u64>> = Arc::default();
        let g2 = got.clone();
        let on_get = e.register(
            "on_get",
            Arc::new(move |ctx: &mut EventCtx| {
                *g2.lock().unwrap() = ctx.arg(0);
                ctx.stop();
            }),
        );
        let phase2 = e.register(
            "phase2",
            Arc::new(move |ctx: &mut EventCtx| {
                h.get(ctx, 1, 7, 1, on_get);
            }),
        );
        let go = e.register(
            "go",
            Arc::new(move |ctx: &mut EventCtx| {
                h.put(ctx, 1, 7, &[1234], None);
                let me = ctx.self_event(phase2);
                ctx.send_event_after(5000, me, [], EventWord::IGNORE);
            }),
        );
        e.send(EventWord::new(NetworkId(0), go), [], EventWord::IGNORE);
        e.run();
        assert_eq!(*got.lock().unwrap(), 1234);
        assert_eq!(h.host_read(&e, 1, 7), 1234);
    }

    #[test]
    fn sum_reduction_across_pes() {
        let mut e = eng(4);
        let h = SymmetricHeap::create(&mut e, 4, 16).unwrap();
        for pe in 0..4 {
            h.host_write(&mut e, pe, 3, (pe as u64 + 1) * 10);
        }
        let reduce = install_reduce(&mut e);
        let out: Arc<Mutex<u64>> = Arc::default();
        let o2 = out.clone();
        let fin = e.register(
            "fin",
            Arc::new(move |ctx: &mut EventCtx| {
                *o2.lock().unwrap() = ctx.arg(0);
                ctx.stop();
            }),
        );
        let args = reduce_args(&h, 3, ReduceOp::SumU64);
        let cont = EventWord::new(NetworkId(0), fin);
        e.send(EventWord::new(NetworkId(2), reduce), args, cont);
        e.run();
        assert_eq!(*out.lock().unwrap(), 10 + 20 + 30 + 40);
    }

    #[test]
    fn max_reduction() {
        let mut e = eng(2);
        let h = SymmetricHeap::create(&mut e, 2, 16).unwrap();
        h.host_write(&mut e, 0, 0, 17);
        h.host_write(&mut e, 1, 0, 99);
        let reduce = install_reduce(&mut e);
        let out: Arc<Mutex<u64>> = Arc::default();
        let o2 = out.clone();
        let fin = e.register(
            "fin",
            Arc::new(move |ctx: &mut EventCtx| {
                *o2.lock().unwrap() = ctx.arg(0);
                ctx.stop();
            }),
        );
        e.send(
            EventWord::new(NetworkId(0), reduce),
            reduce_args(&h, 0, ReduceOp::MaxU64),
            EventWord::new(NetworkId(0), fin),
        );
        e.run();
        assert_eq!(*out.lock().unwrap(), 99);
    }

    #[test]
    fn atomic_add_accumulates() {
        let mut e = eng(2);
        let h = SymmetricHeap::create(&mut e, 2, 16).unwrap();
        let go = e.register(
            "go",
            Arc::new(move |ctx: &mut EventCtx| {
                for _ in 0..5 {
                    h.add_u64(ctx, 1, 2, 3);
                }
                ctx.yield_terminate();
            }),
        );
        e.send(EventWord::new(NetworkId(0), go), [], EventWord::IGNORE);
        e.run();
        assert_eq!(h.host_read(&e, 1, 2), 15);
    }
}
