//! Global address space: translation descriptors (swizzle masks), backing
//! storage, and the per-node memory channel timing model.
//!
//! §2.4 of the paper: every allocation carries a single translation
//! descriptor encoding a block-cyclic layout `(1stNode, NRNodes, BS)`. The
//! hardware converts a virtual address into a physical node number (PNN) and
//! an offset with no software overhead. `NRNodes` and `BS` are powers of two
//! so the swizzle is pure bit manipulation.
//!
//! Data is stored virtually-contiguously per allocation (placement affects
//! *timing*, not contents), which is exactly the observable behaviour of a
//! flat shared address space.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

use crate::snapshot::{SnapField, SnapReader, SnapWriter, SnapshotError};

/// A virtual address in the UpDown global address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub u64);

impl VAddr {
    #[inline]
    pub fn offset(self, bytes: u64) -> VAddr {
        VAddr(self.0 + bytes)
    }

    /// Offset by a number of 8-byte words.
    #[inline]
    pub fn word(self, idx: u64) -> VAddr {
        VAddr(self.0 + idx * 8)
    }

    pub const NULL: VAddr = VAddr(0);

    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VAddr({:#x})", self.0)
    }
}

/// Errors from allocation or translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// `NRNodes` or `BS` not a power of two, or `BS` below the hardware
    /// minimum (4 KiB in hardware; configurable for scaled-down tests).
    BadLayout(String),
    /// Access outside any live allocation.
    Fault(VAddr),
    /// Allocation would exceed the requested node span.
    OutOfRange(String),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::BadLayout(s) => write!(f, "bad layout: {s}"),
            MemError::Fault(a) => write!(f, "memory fault at {a:?}"),
            MemError::OutOfRange(s) => write!(f, "out of range: {s}"),
        }
    }
}

impl std::error::Error for MemError {}

/// The hardware translation descriptor ("swizzle mask"): block-cyclic layout
/// of one virtual region over `nr_nodes` physical node memories starting at
/// `first_node`, in blocks of `block_size` bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranslationDescriptor {
    pub base: VAddr,
    pub size: u64,
    pub first_node: u32,
    pub nr_nodes: u32,
    pub block_size: u64,
}

impl TranslationDescriptor {
    /// Validate the power-of-two constraints from §2.4.
    pub fn validate(&self, min_block: u64) -> Result<(), MemError> {
        if !self.nr_nodes.is_power_of_two() {
            return Err(MemError::BadLayout(format!(
                "NRNodes must be a power of 2, got {}",
                self.nr_nodes
            )));
        }
        if !self.block_size.is_power_of_two() || self.block_size < min_block {
            return Err(MemError::BadLayout(format!(
                "BS must be a power of 2 >= {min_block}, got {}",
                self.block_size
            )));
        }
        Ok(())
    }

    /// Physical node number for a virtual address within this region.
    #[inline]
    pub fn pnn(&self, va: VAddr) -> u32 {
        debug_assert!(va.0 >= self.base.0 && va.0 < self.base.0 + self.size);
        let off = va.0 - self.base.0;
        let block = off / self.block_size;
        self.first_node + (block as u32 & (self.nr_nodes - 1))
    }

    /// Offset within the owning node's physical memory, counted within this
    /// region's footprint on that node.
    #[inline]
    pub fn node_offset(&self, va: VAddr) -> u64 {
        let off = va.0 - self.base.0;
        let block = off / self.block_size;
        (block / self.nr_nodes as u64) * self.block_size + (off & (self.block_size - 1))
    }

    /// Bytes of this region resident on a given node.
    pub fn bytes_on_node(&self, node: u32) -> u64 {
        if node < self.first_node || node >= self.first_node + self.nr_nodes {
            return 0;
        }
        let k = (node - self.first_node) as u64;
        let full_blocks = self.size / self.block_size;
        let rem = self.size % self.block_size;
        let n = self.nr_nodes as u64;
        let mut bytes = (full_blocks / n) * self.block_size;
        let extra = full_blocks % n;
        if k < extra {
            bytes += self.block_size;
        } else if k == extra && rem > 0 {
            bytes += rem;
        }
        bytes
    }
}

struct Allocation {
    desc: TranslationDescriptor,
    /// Backing storage, banked per owning node (dense [`node_offset`]
    /// indexing within each bank). Banks carry their own locks so shards
    /// apply memory-side effects concurrently with zero contention as long
    /// as they touch their own node's data — which the engine guarantees by
    /// applying every timed operation on the owner shard.
    banks: Vec<Mutex<Vec<u8>>>,
    live: bool,
}

impl Allocation {
    #[inline]
    fn bank(&self, node: u32) -> &Mutex<Vec<u8>> {
        &self.banks[(node - self.desc.first_node) as usize]
    }
}

/// Simulated global memory: all live allocations plus the swizzle index.
///
/// Reads/writes here are *functional* (host-visible contents). Timing is
/// modeled separately by [`MemChannels`] when accesses are issued from lanes
/// through the engine. Content access takes `&self` (per-bank interior
/// mutability) so the parallel scheduler can share one `GlobalMemory`
/// across shard threads; the allocation table itself only changes through
/// `&mut self` (host-side `alloc`/`free` between runs).
pub struct GlobalMemory {
    allocs: Vec<Allocation>,
    /// base VA -> allocation index, for translation lookup.
    index: BTreeMap<u64, usize>,
    cursor: u64,
    /// Minimum block size enforced by `validate` (4096 in hardware).
    pub min_block: u64,
    nodes: u32,
}

/// Allocations start at a non-zero base so `VAddr(0)` can act as NULL.
const VA_BASE: u64 = 0x1000_0000;
/// Guard gap between allocations to catch overruns.
const VA_GAP: u64 = 0x1_0000;
/// Words moved per translation by the word-slice accessors: one hardware
/// DRAM transaction (at most 8 words), staged through a stack buffer.
const SPAN_WORDS: usize = 8;

impl GlobalMemory {
    pub fn new(nodes: u32) -> GlobalMemory {
        GlobalMemory {
            allocs: Vec::new(),
            index: BTreeMap::new(),
            cursor: VA_BASE,
            min_block: 4096,
            nodes,
        }
    }

    /// Number of nodes in the machine (for layout validation).
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Core allocation primitive used by the DRAMmalloc library:
    /// `(size, 1stNode, NRNodes, BS)`.
    pub fn alloc(
        &mut self,
        size: u64,
        first_node: u32,
        nr_nodes: u32,
        block_size: u64,
    ) -> Result<VAddr, MemError> {
        if size == 0 {
            return Err(MemError::BadLayout("zero-size allocation".into()));
        }
        if first_node + nr_nodes > self.nodes {
            return Err(MemError::OutOfRange(format!(
                "nodes [{first_node}, {}) exceed machine of {} nodes",
                first_node + nr_nodes,
                self.nodes
            )));
        }
        let base = VAddr(self.cursor);
        let desc = TranslationDescriptor {
            base,
            size,
            first_node,
            nr_nodes,
            block_size,
        };
        desc.validate(self.min_block)?;
        self.cursor += size + VA_GAP;
        // Round the cursor so every allocation base is block-aligned enough
        // for the next descriptor's arithmetic to stay simple.
        self.cursor = (self.cursor + 63) & !63;
        let id = self.allocs.len();
        let banks = (first_node..first_node + nr_nodes)
            .map(|n| Mutex::new(vec![0u8; desc.bytes_on_node(n) as usize]))
            .collect();
        self.allocs.push(Allocation {
            desc,
            banks,
            live: true,
        });
        self.index.insert(base.0, id);
        Ok(base)
    }

    /// Release an allocation. The VA range faults afterwards.
    pub fn free(&mut self, base: VAddr) -> Result<(), MemError> {
        let id = *self.index.get(&base.0).ok_or(MemError::Fault(base))?;
        if !self.allocs[id].live {
            return Err(MemError::Fault(base));
        }
        self.allocs[id].live = false;
        self.allocs[id].banks = Vec::new();
        self.index.remove(&base.0);
        Ok(())
    }

    #[inline]
    fn find(&self, va: VAddr) -> Result<usize, MemError> {
        let (_, &id) = self
            .index
            .range(..=va.0)
            .next_back()
            .ok_or(MemError::Fault(va))?;
        let a = &self.allocs[id];
        if va.0 < a.desc.base.0 + a.desc.size && a.live {
            Ok(id)
        } else {
            Err(MemError::Fault(va))
        }
    }

    /// Descriptor covering an address (hardware translation lookup).
    pub fn descriptor(&self, va: VAddr) -> Result<TranslationDescriptor, MemError> {
        Ok(self.allocs[self.find(va)?].desc)
    }

    /// Owning physical node of an address.
    #[inline]
    pub fn owner_node(&self, va: VAddr) -> Result<u32, MemError> {
        let id = self.find(va)?;
        Ok(self.allocs[id].desc.pnn(va))
    }

    /// Walk the banked storage covering `[va, va+len)`, calling `f` with
    /// each in-block slice and its offset into the access. Spans at most one
    /// allocation; each chunk is visited under its bank's lock.
    fn with_span(
        &self,
        va: VAddr,
        len: usize,
        mut f: impl FnMut(&mut [u8], usize),
    ) -> Result<(), MemError> {
        let id = self.find(va)?;
        let a = &self.allocs[id];
        let off = va.0 - a.desc.base.0;
        if off + len as u64 > a.desc.size {
            return Err(MemError::Fault(VAddr(va.0 + len as u64)));
        }
        let mut done = 0usize;
        while done < len {
            let cur = va.offset(done as u64);
            let in_block =
                (a.desc.block_size - ((cur.0 - a.desc.base.0) % a.desc.block_size)) as usize;
            let n = (len - done).min(in_block);
            let boff = a.desc.node_offset(cur) as usize;
            let mut bank = a.bank(a.desc.pnn(cur)).lock().unwrap();
            f(&mut bank[boff..boff + n], done);
            done += n;
        }
        Ok(())
    }

    pub fn read_bytes(&self, va: VAddr, out: &mut [u8]) -> Result<(), MemError> {
        self.with_span(va, out.len(), |chunk, done| {
            out[done..done + chunk.len()].copy_from_slice(chunk);
        })
    }

    pub fn write_bytes(&self, va: VAddr, data: &[u8]) -> Result<(), MemError> {
        self.with_span(va, data.len(), |chunk, done| {
            chunk.copy_from_slice(&data[done..done + chunk.len()]);
        })
    }

    pub fn read_u64(&self, va: VAddr) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read_bytes(va, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    pub fn write_u64(&self, va: VAddr, v: u64) -> Result<(), MemError> {
        self.write_bytes(va, &v.to_le_bytes())
    }

    pub fn read_f64(&self, va: VAddr) -> Result<f64, MemError> {
        Ok(f64::from_bits(self.read_u64(va)?))
    }

    pub fn write_f64(&self, va: VAddr, v: f64) -> Result<(), MemError> {
        self.write_u64(va, v.to_bits())
    }

    /// Read `n` consecutive u64 words.
    pub fn read_words(&self, va: VAddr, n: usize) -> Result<Vec<u64>, MemError> {
        let mut out = vec![0; n];
        self.read_words_into(va, &mut out)?;
        Ok(out)
    }

    /// Fill `out` with consecutive u64 words: one translation and one bank
    /// lock per in-block run of up to [`SPAN_WORDS`] words.
    pub fn read_words_into(&self, va: VAddr, out: &mut [u64]) -> Result<(), MemError> {
        let mut bytes = [0u8; SPAN_WORDS * 8];
        for (i, words) in out.chunks_mut(SPAN_WORDS).enumerate() {
            let at = va.word((i * SPAN_WORDS) as u64);
            let bytes = &mut bytes[..words.len() * 8];
            self.read_bytes(at, bytes)
                .map_err(|_| self.word_fault(at, words.len()))?;
            for (w, b) in words.iter_mut().zip(bytes.chunks_exact(8)) {
                *w = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
            }
        }
        Ok(())
    }

    /// Write consecutive u64 words, translated and locked as in
    /// [`Self::read_words_into`]. On a fault, words before the faulting
    /// span are already written.
    pub fn write_words(&self, va: VAddr, words: &[u64]) -> Result<(), MemError> {
        let mut bytes = [0u8; SPAN_WORDS * 8];
        for (i, words) in words.chunks(SPAN_WORDS).enumerate() {
            let at = va.word((i * SPAN_WORDS) as u64);
            let bytes = &mut bytes[..words.len() * 8];
            for (w, b) in words.iter().zip(bytes.chunks_exact_mut(8)) {
                b.copy_from_slice(&w.to_le_bytes());
            }
            self.write_bytes(at, bytes)
                .map_err(|_| self.word_fault(at, words.len()))?;
        }
        Ok(())
    }

    /// The fault of a span access that failed, named as word-granular
    /// hardware would: by the first word not wholly inside the allocation.
    fn word_fault(&self, va: VAddr, n: usize) -> MemError {
        (0..n as u64)
            .find_map(|i| self.with_span(va.word(i), 8, |_, _| {}).err())
            .expect("a faulting span has a faulting word")
    }

    /// Atomic read-modify-write under the owning bank's lock (the engine
    /// additionally serializes timed accesses on the owner shard, making
    /// the application order deterministic).
    pub fn fetch_add_u64(&self, va: VAddr, delta: u64) -> Result<u64, MemError> {
        self.rmw_u64(va, |old| old.wrapping_add(delta))
    }

    pub fn fetch_add_f64(&self, va: VAddr, delta: f64) -> Result<f64, MemError> {
        let old = self.rmw_u64(va, |bits| (f64::from_bits(bits) + delta).to_bits())?;
        Ok(f64::from_bits(old))
    }

    fn rmw_u64(&self, va: VAddr, f: impl Fn(u64) -> u64) -> Result<u64, MemError> {
        let mut old = 0u64;
        let mut buf: Option<[u8; 8]> = None;
        self.with_span(va, 8, |chunk, done| {
            if chunk.len() == 8 && done == 0 {
                // Fast path: the word lives in one bank; update in place.
                let prev = u64::from_le_bytes(chunk.try_into().unwrap());
                old = prev;
                chunk.copy_from_slice(&f(prev).to_le_bytes());
            } else {
                // Block-straddling word: collect first, write back below.
                let b = buf.get_or_insert([0u8; 8]);
                b[done..done + chunk.len()].copy_from_slice(chunk);
            }
        })?;
        if let Some(b) = buf {
            let prev = u64::from_le_bytes(b);
            old = prev;
            self.write_u64(va, f(prev))?;
        }
        Ok(old)
    }

    /// Total bytes currently allocated (live).
    pub fn live_bytes(&self) -> u64 {
        self.allocs
            .iter()
            .filter(|a| a.live)
            .map(|a| a.desc.size)
            .sum()
    }

    /// Number of live translation descriptors (the paper notes typical
    /// programs need only 2–4).
    pub fn live_descriptors(&self) -> usize {
        self.allocs.iter().filter(|a| a.live).count()
    }

    /// Deep copy of all memory contents plus the allocation-table shape,
    /// for snapshots. The engine only snapshots at window boundaries, where
    /// no lane holds a bank lock, so taking every lock in order is safe.
    pub(crate) fn image(&self) -> MemoryImage {
        MemoryImage {
            cursor: self.cursor,
            allocs: self
                .allocs
                .iter()
                .map(|a| AllocImage {
                    desc: a.desc,
                    live: a.live,
                    banks: a
                        .banks
                        .iter()
                        .map(|b| b.lock().unwrap().clone())
                        .collect(),
                })
                .collect(),
        }
    }

    /// Overwrite memory contents from an image. The allocation table must
    /// match the image exactly (same descriptors, same liveness): restore
    /// targets a machine that was driven through the same host-side
    /// `alloc`/`free` sequence, so a mismatch means the snapshot belongs to
    /// a different workload and is rejected rather than patched around.
    /// Takes `&self` — banks carry their own locks, so the engine can
    /// restore through the shared handle without tearing down shards.
    pub(crate) fn restore_image(&self, img: &MemoryImage) -> Result<(), SnapshotError> {
        if img.allocs.len() != self.allocs.len() {
            return Err(SnapshotError::Incompatible(format!(
                "allocation count mismatch: snapshot has {}, machine has {}",
                img.allocs.len(),
                self.allocs.len()
            )));
        }
        for (i, (cur, img_a)) in self.allocs.iter().zip(&img.allocs).enumerate() {
            if cur.desc != img_a.desc || cur.live != img_a.live {
                return Err(SnapshotError::Incompatible(format!(
                    "allocation {i} descriptor/liveness mismatch"
                )));
            }
            if cur.banks.len() != img_a.banks.len() {
                return Err(SnapshotError::Incompatible(format!(
                    "allocation {i} bank count mismatch"
                )));
            }
        }
        for (cur, img_a) in self.allocs.iter().zip(&img.allocs) {
            for (bank, img_b) in cur.banks.iter().zip(&img_a.banks) {
                let mut b = bank.lock().unwrap();
                if b.len() != img_b.len() {
                    return Err(SnapshotError::Incompatible(
                        "bank size mismatch".to_string(),
                    ));
                }
                b.copy_from_slice(img_b);
            }
        }
        Ok(())
    }
}

/// Snapshot of global-memory contents: one byte vector per bank, plus the
/// descriptor table needed to validate compatibility on restore.
#[derive(Clone, Debug)]
pub(crate) struct MemoryImage {
    cursor: u64,
    allocs: Vec<AllocImage>,
}

#[derive(Clone, Debug)]
struct AllocImage {
    desc: TranslationDescriptor,
    live: bool,
    banks: Vec<Vec<u8>>,
}

impl MemoryImage {
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        w.u64(self.cursor);
        w.usize(self.allocs.len());
        for a in &self.allocs {
            w.u64(a.desc.base.0);
            w.u64(a.desc.size);
            w.u32(a.desc.first_node);
            w.u32(a.desc.nr_nodes);
            w.u64(a.desc.block_size);
            w.bool(a.live);
            w.usize(a.banks.len());
            for b in &a.banks {
                w.bytes(b);
            }
        }
    }

    pub(crate) fn load(r: &mut SnapReader<'_>) -> Result<MemoryImage, SnapshotError> {
        let cursor = r.u64()?;
        let nallocs = r.len(32)?;
        let mut allocs = Vec::with_capacity(nallocs);
        for _ in 0..nallocs {
            let desc = TranslationDescriptor {
                base: VAddr(r.u64()?),
                size: r.u64()?,
                first_node: r.u32()?,
                nr_nodes: r.u32()?,
                block_size: r.u64()?,
            };
            let live = r.bool()?;
            let nbanks = r.len(8)?;
            let mut banks = Vec::with_capacity(nbanks);
            for _ in 0..nbanks {
                banks.push(r.bytes()?.to_vec());
            }
            allocs.push(AllocImage { desc, live, banks });
        }
        Ok(MemoryImage { cursor, allocs })
    }
}

/// Per-node DRAM channel timing: FIFO service at the configured bandwidth
/// plus fixed access latency. `service` returns the completion time of a
/// request arriving at `arrival` transferring `bytes`.
#[derive(Clone)]
pub struct MemChannels {
    /// Pipeline occupancy in *byte-units*: one cycle of channel time equals
    /// `bytes_per_cycle` units, so accesses much smaller than the per-cycle
    /// bandwidth coexist in one cycle (HBM stacks serve many 64-byte
    /// accesses per cycle) while sustained demand beyond the bandwidth
    /// queues — the contention that drives Figure 12.
    busy_units: Vec<u64>,
    bytes_per_cycle: u64,
    latency: u64,
    granularity: u64,
    /// Total bytes served per node (stats).
    pub served_bytes: Vec<u64>,
}

impl MemChannels {
    pub fn new(nodes: u32, cfg: &crate::config::MemoryConfig) -> MemChannels {
        MemChannels {
            busy_units: vec![0; nodes as usize],
            bytes_per_cycle: cfg.node_bytes_per_cycle.max(1),
            latency: cfg.dram_latency,
            granularity: cfg.access_granularity.max(1),
            served_bytes: vec![0; nodes as usize],
        }
    }

    /// Schedule a transfer on `node`'s channel.
    pub fn service(&mut self, node: u32, arrival: u64, bytes: u64) -> u64 {
        let n = node as usize;
        let bytes = bytes.max(1).div_ceil(self.granularity) * self.granularity;
        let start_units = (arrival * self.bytes_per_cycle).max(self.busy_units[n]);
        self.busy_units[n] = start_units + bytes;
        self.served_bytes[n] += bytes;
        self.busy_units[n].div_ceil(self.bytes_per_cycle) + self.latency
    }

    /// Current backlog on a node's channel relative to `now`, in cycles.
    pub fn backlog(&self, node: u32, now: u64) -> u64 {
        self.busy_units[node as usize]
            .div_ceil(self.bytes_per_cycle)
            .saturating_sub(now)
    }

    /// Snapshot the mutable timing state (occupancy + served counters). The
    /// fixed rate parameters come from config and are not serialized.
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        self.busy_units.put(w);
        self.served_bytes.put(w);
    }

    pub(crate) fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let busy = Vec::<u64>::take(r)?;
        let served = Vec::<u64>::take(r)?;
        if busy.len() != self.busy_units.len() || served.len() != self.served_bytes.len() {
            return Err(SnapshotError::Incompatible(
                "memory-channel node count mismatch".to_string(),
            ));
        }
        self.busy_units = busy;
        self.served_bytes = served;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(size: u64, first: u32, nr: u32, bs: u64) -> TranslationDescriptor {
        TranslationDescriptor {
            base: VAddr(VA_BASE),
            size,
            first_node: first,
            nr_nodes: nr,
            block_size: bs,
        }
    }

    #[test]
    fn block_cyclic_pnn() {
        // Table 1 row 2 style: cyclic over 4 nodes in 4 KiB blocks.
        let d = desc(64 * 4096, 0, 4, 4096);
        assert_eq!(d.pnn(VAddr(VA_BASE)), 0);
        assert_eq!(d.pnn(VAddr(VA_BASE + 4095)), 0);
        assert_eq!(d.pnn(VAddr(VA_BASE + 4096)), 1);
        assert_eq!(d.pnn(VAddr(VA_BASE + 4 * 4096)), 0);
        assert_eq!(d.pnn(VAddr(VA_BASE + 7 * 4096 + 12)), 3);
    }

    #[test]
    fn contiguous_regions_per_node() {
        // Table 1 row 3 style: one contiguous region per node.
        let per_node = 1 << 20;
        let d = desc(4 * per_node, 0, 4, per_node);
        for n in 0..4u64 {
            let a = VAddr(VA_BASE + n * per_node);
            assert_eq!(d.pnn(a), n as u32);
            assert_eq!(d.pnn(VAddr(a.0 + per_node - 1)), n as u32);
        }
    }

    #[test]
    fn node_offset_is_dense() {
        let d = desc(8 * 4096, 0, 2, 4096);
        // Blocks 0,2,4,6 on node 0 at offsets 0,4096,8192,12288.
        assert_eq!(d.node_offset(VAddr(VA_BASE)), 0);
        assert_eq!(d.node_offset(VAddr(VA_BASE + 2 * 4096)), 4096);
        assert_eq!(d.node_offset(VAddr(VA_BASE + 2 * 4096 + 17)), 4096 + 17);
        assert_eq!(d.node_offset(VAddr(VA_BASE + 6 * 4096)), 3 * 4096);
    }

    #[test]
    fn bytes_on_node_balance() {
        let d = desc(10 * 4096 + 100, 2, 4, 4096);
        let total: u64 = (0..8).map(|n| d.bytes_on_node(n)).sum();
        assert_eq!(total, d.size);
        assert_eq!(d.bytes_on_node(0), 0);
        assert_eq!(d.bytes_on_node(2), 3 * 4096); // blocks 0,4,8
        assert_eq!(d.bytes_on_node(4), 2 * 4096 + 100); // blocks 2,6 + tail
    }

    #[test]
    fn layout_validation() {
        let mut m = GlobalMemory::new(4);
        assert!(m.alloc(4096, 0, 3, 4096).is_err(), "NRNodes not pow2");
        assert!(m.alloc(4096, 0, 2, 1000).is_err(), "BS not pow2");
        assert!(m.alloc(4096, 0, 2, 2048).is_err(), "BS below min");
        assert!(m.alloc(4096, 2, 4, 4096).is_err(), "span exceeds machine");
        assert!(m.alloc(4096, 0, 4, 4096).is_ok());
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = GlobalMemory::new(2);
        let a = m.alloc(1 << 16, 0, 2, 4096).unwrap();
        m.write_u64(a.word(10), 0xdead_beef).unwrap();
        assert_eq!(m.read_u64(a.word(10)).unwrap(), 0xdead_beef);
        m.write_f64(a.word(11), 0.85).unwrap();
        assert_eq!(m.read_f64(a.word(11)).unwrap(), 0.85);
        let ws = m.read_words(a.word(10), 2).unwrap();
        assert_eq!(ws[0], 0xdead_beef);
    }

    #[test]
    fn oob_and_null_fault() {
        let mut m = GlobalMemory::new(1);
        let a = m.alloc(4096, 0, 1, 4096).unwrap();
        assert!(m.read_u64(VAddr(a.0 + 4096)).is_err());
        assert!(m.read_u64(VAddr::NULL).is_err());
        assert!(m.read_u64(VAddr(1)).is_err());
    }

    #[test]
    fn free_faults_after() {
        let mut m = GlobalMemory::new(1);
        let a = m.alloc(4096, 0, 1, 4096).unwrap();
        m.write_u64(a, 1).unwrap();
        m.free(a).unwrap();
        assert!(m.read_u64(a).is_err());
        assert!(m.free(a).is_err());
        assert_eq!(m.live_descriptors(), 0);
    }

    #[test]
    fn two_allocations_are_disjoint() {
        let mut m = GlobalMemory::new(2);
        let a = m.alloc(4096, 0, 1, 4096).unwrap();
        let b = m.alloc(4096, 1, 1, 4096).unwrap();
        m.write_u64(a, 7).unwrap();
        m.write_u64(b, 9).unwrap();
        assert_eq!(m.read_u64(a).unwrap(), 7);
        assert_eq!(m.read_u64(b).unwrap(), 9);
        assert_eq!(m.owner_node(a).unwrap(), 0);
        assert_eq!(m.owner_node(b).unwrap(), 1);
    }

    #[test]
    fn channel_serializes_at_bandwidth() {
        let cfg = crate::config::MemoryConfig {
            dram_latency: 100,
            node_bytes_per_cycle: 64,
            access_granularity: 64,
        };
        let mut ch = MemChannels::new(2, &cfg);
        let t1 = ch.service(0, 0, 64); // 1 cycle xfer + 100
        let t2 = ch.service(0, 0, 64); // queued behind first
        assert_eq!(t1, 101);
        assert_eq!(t2, 102);
        // Other node independent.
        assert_eq!(ch.service(1, 0, 64), 101);
        assert_eq!(ch.backlog(0, 0), 2);
    }

    #[test]
    fn channel_pipelines_small_accesses() {
        // 4096 B/cycle: 64 sixty-four-byte accesses fit in one cycle.
        let cfg = crate::config::MemoryConfig {
            dram_latency: 100,
            node_bytes_per_cycle: 4096,
            access_granularity: 64,
        };
        let mut ch = MemChannels::new(1, &cfg);
        for _ in 0..64 {
            assert_eq!(ch.service(0, 0, 64), 101, "all within the first cycle");
        }
        // The 65th spills into the next cycle.
        assert_eq!(ch.service(0, 0, 64), 102);
    }

    #[test]
    fn fetch_add() {
        let mut m = GlobalMemory::new(1);
        let a = m.alloc(64, 0, 1, 4096).unwrap();
        assert_eq!(m.fetch_add_u64(a, 5).unwrap(), 0);
        assert_eq!(m.fetch_add_u64(a, 3).unwrap(), 5);
        assert_eq!(m.read_u64(a).unwrap(), 8);
    }

    /// The reference the span accessors must match: one translation per word.
    fn read_word_by_word(m: &GlobalMemory, va: VAddr, n: usize) -> Result<Vec<u64>, MemError> {
        (0..n as u64).map(|i| m.read_u64(va.word(i))).collect()
    }

    #[test]
    fn word_spans_match_word_by_word_access() {
        let size = 3 * 4096u64;
        let fill = |m: &GlobalMemory, a: VAddr| {
            for off in (0..size).step_by(8) {
                m.write_u64(a.offset(off), off ^ 0x5a5a_0000).unwrap();
            }
        };
        // (first byte offset, words): inside a block, straddling the node
        // boundary (word-aligned and not), the allocation's last word, and
        // a host-sized span longer than one transaction.
        let cases = [
            (16, 8),
            (4096 - 24, 8),
            (4096 - 12, 3),
            (size - 8, 1),
            (size - 64, 8),
            (4096 - 40, 21),
        ];
        for (off, n) in cases {
            let mut m = GlobalMemory::new(2);
            let a = m.alloc(size, 0, 2, 4096).unwrap();
            fill(&m, a);
            let va = a.offset(off);
            let want = read_word_by_word(&m, va, n).unwrap();
            assert_eq!(m.read_words(va, n).unwrap(), want, "read +{off} x{n}");

            let data: Vec<u64> = (0..n as u64).map(|i| i + 1000).collect();
            m.write_words(va, &data).unwrap();
            assert_eq!(read_word_by_word(&m, va, n).unwrap(), data, "write +{off} x{n}");
            // Neighbours on both sides are untouched.
            let mut twin = GlobalMemory::new(2);
            let b = twin.alloc(size, 0, 2, 4096).unwrap();
            fill(&twin, b);
            for (i, w) in data.iter().enumerate() {
                twin.write_u64(b.offset(off).word(i as u64), *w).unwrap();
            }
            assert_eq!(
                m.read_words(a, (size / 8) as usize).unwrap(),
                read_word_by_word(&twin, b, (size / 8) as usize).unwrap(),
                "image +{off} x{n}"
            );
        }
    }

    #[test]
    fn word_spans_fault_like_word_by_word_access() {
        let mut m = GlobalMemory::new(2);
        let size = 2 * 4096u64;
        let a = m.alloc(size, 0, 2, 4096).unwrap();
        // One word past the end; a span running off the end (aligned, and
        // with its last word half outside); wholly outside; NULL.
        let cases = [
            (a.offset(size), 1),
            (a.offset(size - 16), 3),
            (a.offset(size - 20), 8),
            (a.offset(size + 64), 2),
            (VAddr::NULL, 4),
        ];
        for (va, n) in cases {
            let want = read_word_by_word(&m, va, n).unwrap_err();
            assert_eq!(m.read_words(va, n).unwrap_err(), want, "read {va:?} x{n}");
            assert_eq!(m.write_words(va, &vec![7; n]).unwrap_err(), want, "write {va:?} x{n}");
        }
        assert_eq!(
            m.read_words(a.offset(size), 1),
            Err(MemError::Fault(a.offset(size)))
        );
    }

    #[test]
    fn null_vaddr_faults_everywhere() {
        let mut m = GlobalMemory::new(2);
        let _a = m.alloc(4096, 0, 2, 4096).unwrap();
        assert!(VAddr::NULL.is_null());
        assert!(!VAddr(VA_BASE).is_null());
        assert_eq!(m.read_u64(VAddr::NULL), Err(MemError::Fault(VAddr::NULL)));
        assert_eq!(m.owner_node(VAddr::NULL), Err(MemError::Fault(VAddr::NULL)));
        assert_eq!(m.descriptor(VAddr::NULL), Err(MemError::Fault(VAddr::NULL)));
        // word() on NULL stays in the unmapped low range and still faults.
        assert_eq!(
            m.read_u64(VAddr::NULL.word(3)),
            Err(MemError::Fault(VAddr(24)))
        );
    }

    #[test]
    fn block_cyclic_wraps_at_nr_nodes_boundary() {
        // 8 blocks over 4 nodes starting at node 2: block k lives on
        // node 2 + (k mod 4); the swizzle wraps back to first_node at
        // block NRNodes, NOT to node 0.
        let d = desc(8 * 4096, 2, 4, 4096);
        for blk in 0..8u64 {
            let va = VAddr(VA_BASE + blk * 4096);
            assert_eq!(d.pnn(va), 2 + (blk as u32 & 3), "block {blk}");
        }
        // First byte past the wrap point maps to first_node again, one
        // block deep into that node's contiguous region.
        let wrap = VAddr(VA_BASE + 4 * 4096);
        assert_eq!(d.pnn(wrap), 2);
        assert_eq!(d.node_offset(wrap), 4096);
    }

    #[test]
    fn block_boundary_is_exclusive_at_bs() {
        let d = desc(4 * 4096, 0, 2, 4096);
        // Last byte of block 0 and first byte of block 1 straddle nodes.
        let last = VAddr(VA_BASE + 4095);
        let first = VAddr(VA_BASE + 4096);
        assert_eq!(d.pnn(last), 0);
        assert_eq!(d.pnn(first), 1);
        assert_eq!(d.node_offset(last), 4095);
        assert_eq!(d.node_offset(first), 0, "new block starts dense on its node");
        // Offsets within a block are dense across the wrap back to node 0.
        let wrapped = VAddr(VA_BASE + 2 * 4096 + 7);
        assert_eq!(d.pnn(wrapped), 0);
        assert_eq!(d.node_offset(wrapped), 4096 + 7);
    }

    #[test]
    fn single_node_span_never_wraps() {
        let d = desc(16 * 4096, 3, 1, 4096);
        for blk in [0u64, 1, 7, 15] {
            let va = VAddr(VA_BASE + blk * 4096 + 13);
            assert_eq!(d.pnn(va), 3);
            assert_eq!(d.node_offset(va), blk * 4096 + 13);
        }
        assert_eq!(d.bytes_on_node(3), 16 * 4096);
        assert_eq!(d.bytes_on_node(2), 0);
    }

    #[test]
    fn out_of_allocation_translation_errors() {
        let mut m = GlobalMemory::new(2);
        let a = m.alloc(8192, 0, 2, 4096).unwrap();
        let b = m.alloc(4096, 0, 1, 4096).unwrap();
        // Below the VA base: no allocation can own it.
        assert_eq!(
            m.descriptor(VAddr(VA_BASE - 8)),
            Err(MemError::Fault(VAddr(VA_BASE - 8)))
        );
        // One byte past the end of `a` lands in the guard gap before `b`.
        let past = VAddr(a.0 + 8192);
        assert!(past.0 < b.0, "gap must separate allocations");
        assert_eq!(m.descriptor(past), Err(MemError::Fault(past)));
        assert_eq!(m.owner_node(past), Err(MemError::Fault(past)));
        // Interior addresses of both allocations still translate.
        assert!(m.descriptor(VAddr(a.0 + 8191)).is_ok());
        assert!(m.descriptor(b).is_ok());
        // After free, the stale descriptor no longer translates.
        m.free(b).unwrap();
        assert_eq!(m.descriptor(b), Err(MemError::Fault(b)));
    }
}
