//! Global address space: translation descriptors (swizzle masks), backing
//! storage, and the per-node memory channel timing model.
//!
//! §2.4 of the paper: every allocation carries a single translation
//! descriptor encoding a block-cyclic layout `(1stNode, NRNodes, BS)`. The
//! hardware converts a virtual address into a physical node number (PNN) and
//! an offset with no software overhead. `NRNodes` and `BS` are powers of two
//! so the swizzle is pure bit manipulation.
//!
//! Each allocation's bytes live in one `Bank` per owning node. A bank is
//! sparse: it backs the 256-byte pages a program has written and reads
//! every other byte as zero, so host memory follows what a run touches,
//! not what it allocates (`docs/perf.md`, "Where `ingest_pm`'s memory
//! goes"). Placement affects *timing*, not contents, which is exactly the
//! observable behaviour of a flat shared address space.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Mutex;

use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};

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

    /// Bytes of this region resident on a given node. A descriptor whose
    /// node span runs past `u32::MAX` is an error, not a wrapped span.
    pub fn bytes_on_node(&self, node: u32) -> Result<u64, MemError> {
        let end = self.end_node()?;
        if node < self.first_node || node >= end {
            return Ok(0);
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
        Ok(bytes)
    }

    /// One past the last node of the span, `first_node + nr_nodes`.
    fn end_node(&self) -> Result<u32, MemError> {
        self.first_node.checked_add(self.nr_nodes).ok_or_else(|| {
            MemError::OutOfRange(format!(
                "node span {} + {} overflows a node number",
                self.first_node, self.nr_nodes
            ))
        })
    }
}

/// Bytes per page of a [`Bank`]: the unit it backs on first write.
const PAGE_SHIFT: u32 = 8;
const PAGE: usize = 1 << PAGE_SHIFT;
/// Pages per pool chunk of a bank of 64 KiB or more; a smaller bank's
/// chunk is its own length rounded up to a power of two pages.
const CHUNK_PAGES: usize = 256;

type Page = [u8; PAGE];

/// One node's share of an allocation, addressed by [`node_offset`]. Only
/// the pages a write has touched are backed; every other byte reads as
/// zero. A bank no write has touched owns no heap memory at all.
///
/// [`node_offset`]: TranslationDescriptor::node_offset
struct Bank {
    len: usize,
    /// Per page: 0 if never written, else 1 + the page's index in the pool.
    /// Empty until the first write, then a zeroed allocation, so an
    /// untouched stretch of it is not resident either.
    table: Box<[u32]>,
    /// The pool, in write order: chunks of `1 << chunk_shift` pages, the
    /// last one cut to the pages the bank can still need. The first chunk
    /// is held apart so a one-chunk bank costs two allocations, not three.
    first: Box<[Page]>,
    more: Vec<Box<[Page]>>,
    chunk_shift: u32,
    /// Pages handed out of the pool.
    backed: u32,
}

impl Bank {
    fn new(len: usize) -> Bank {
        let pages = len.div_ceil(PAGE);
        Bank {
            len,
            table: Box::default(),
            first: Box::default(),
            more: Vec::new(),
            chunk_shift: pages.next_power_of_two().min(CHUNK_PAGES).trailing_zeros(),
            backed: 0,
        }
    }

    /// The pool page behind a table entry, as `(chunk, index in chunk)`.
    #[inline]
    fn locate(&self, slot: u32) -> (usize, usize) {
        let i = (slot - 1) as usize;
        (i >> self.chunk_shift, i & ((1 << self.chunk_shift) - 1))
    }

    /// A written page by its table entry.
    #[inline]
    fn page(&self, slot: u32) -> &Page {
        match self.locate(slot) {
            (0, i) => &self.first[i],
            (c, i) => &self.more[c - 1][i],
        }
    }

    /// Page `p`, backed from the pool if this is its first write.
    #[inline]
    fn page_mut(&mut self, p: usize) -> &mut Page {
        let slot = match self.table.get(p) {
            Some(&slot) if slot != 0 => slot,
            _ => self.back(p),
        };
        match self.locate(slot) {
            (0, i) => &mut self.first[i],
            (c, i) => &mut self.more[c - 1][i],
        }
    }

    #[cold]
    fn back(&mut self, p: usize) -> u32 {
        let pages = self.len.div_ceil(PAGE);
        if self.table.is_empty() {
            self.table = vec![0; pages].into_boxed_slice();
        }
        let i = self.backed as usize;
        let per_chunk = 1 << self.chunk_shift;
        if i & (per_chunk - 1) == 0 {
            let chunk = vec![[0; PAGE]; per_chunk.min(pages - i)].into_boxed_slice();
            if i == 0 {
                self.first = chunk;
            } else {
                self.more.reserve_exact(pages.div_ceil(per_chunk) - 1);
                self.more.push(chunk);
            }
        }
        self.backed += 1;
        self.table[p] = self.backed;
        self.backed
    }

    fn read(&self, mut off: usize, mut out: &mut [u8]) {
        while !out.is_empty() {
            let o = off & (PAGE - 1);
            let n = out.len().min(PAGE - o);
            let (run, rest) = std::mem::take(&mut out).split_at_mut(n);
            match self.table.get(off >> PAGE_SHIFT) {
                Some(&slot) if slot != 0 => run.copy_from_slice(&self.page(slot)[o..o + run.len()]),
                _ => run.fill(0),
            }
            (off, out) = (off + run.len(), rest);
        }
    }

    fn write(&mut self, mut off: usize, mut data: &[u8]) {
        while !data.is_empty() {
            let o = off & (PAGE - 1);
            let (run, rest) = data.split_at(data.len().min(PAGE - o));
            self.page_mut(off >> PAGE_SHIFT)[o..o + run.len()].copy_from_slice(run);
            (off, data) = (off + run.len(), rest);
        }
    }

    /// Replace the word at `off` with `f(old)` and return `old`.
    #[inline]
    fn rmw_u64(&mut self, off: usize, f: impl Fn(u64) -> u64) -> u64 {
        let o = off & (PAGE - 1);
        if o <= PAGE - 8 {
            let word: &mut [u8; 8] = (&mut self.page_mut(off >> PAGE_SHIFT)[o..o + 8])
                .try_into()
                .expect("8-byte word");
            let old = u64::from_le_bytes(*word);
            *word = f(old).to_le_bytes();
            return old;
        }
        let mut word = [0u8; 8];
        self.read(off, &mut word);
        let old = u64::from_le_bytes(word);
        self.write(off, &f(old).to_le_bytes());
        old
    }

    /// The written pages, copied in page order.
    fn image(&self) -> BankImage {
        let mut pages = Vec::with_capacity(self.backed as usize);
        for (p, &slot) in self.table.iter().enumerate() {
            if slot != 0 {
                pages.push((p as u32, *self.page(slot)));
            }
        }
        BankImage {
            len: self.len,
            pages,
        }
    }

    /// Take the contents of `img`. Pages backed here but absent from the
    /// image are zeroed, not released: a rewind keeps the pool it has.
    fn restore(&mut self, img: &BankImage) {
        self.first.fill([0; PAGE]);
        for chunk in &mut self.more {
            chunk.fill([0; PAGE]);
        }
        for (p, page) in &img.pages {
            *self.page_mut(*p as usize) = *page;
        }
    }
}

/// A bank's contents in a [`MemoryImage`]: its written pages, in page
/// order, each with its page number.
struct BankImage {
    len: usize,
    pages: Vec<(u32, Page)>,
}

impl BankImage {
    /// The bank's dense bytes, length-prefixed: unwritten pages as zeros.
    fn save(&self, w: &mut SnapWriter) {
        w.bytes_with(self.len, |dense| {
            for (p, page) in &self.pages {
                let at = (*p as usize) << PAGE_SHIFT;
                let n = PAGE.min(self.len - at);
                dense[at..at + n].copy_from_slice(&page[..n]);
            }
        });
    }

    /// The image of dense bank bytes, keeping none of their all-zero pages.
    fn load(dense: &[u8]) -> BankImage {
        let pages = dense
            .chunks(PAGE)
            .enumerate()
            .filter(|(_, bytes)| bytes.iter().any(|&b| b != 0))
            .map(|(p, bytes)| {
                let mut page = [0; PAGE];
                page[..bytes.len()].copy_from_slice(bytes);
                (p as u32, page)
            })
            .collect();
        BankImage {
            len: dense.len(),
            pages,
        }
    }
}

struct Allocation {
    desc: TranslationDescriptor,
    /// Backing storage, one bank per owning node. Banks carry their own
    /// locks so shards apply memory-side effects concurrently with zero
    /// contention as long as they touch their own node's data — which the
    /// engine guarantees by applying every timed operation on the owner
    /// shard.
    banks: Vec<Mutex<Bank>>,
    live: bool,
}

impl Allocation {
    #[inline]
    fn bank(&self, node: u32) -> &Mutex<Bank> {
        &self.banks[(node - self.desc.first_node) as usize]
    }
}

/// Simulated global memory: all live allocations plus the swizzle index.
///
/// Reads/writes here are *functional* (host-visible contents). Timing is
/// modeled separately by [`MemChannel`] when accesses are issued from lanes
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
        let base = VAddr(self.cursor);
        let desc = TranslationDescriptor {
            base,
            size,
            first_node,
            nr_nodes,
            block_size,
        };
        let end_node = desc.end_node()?;
        if end_node > self.nodes {
            return Err(MemError::OutOfRange(format!(
                "nodes [{first_node}, {end_node}) exceed machine of {} nodes",
                self.nodes
            )));
        }
        desc.validate(self.min_block)?;
        // The next base: past this allocation and its guard gap, rounded so
        // every allocation base is block-aligned enough for the next
        // descriptor's arithmetic to stay simple.
        let cursor = size
            .checked_add(VA_GAP + 63)
            .and_then(|span| self.cursor.checked_add(span))
            .map(|end| end & !63)
            .ok_or_else(|| {
                MemError::OutOfRange(format!(
                    "{size} bytes at {base:?} run past the end of the address space"
                ))
            })?;
        let bank_len = |n| -> Result<usize, MemError> {
            let bytes = desc.bytes_on_node(n)?;
            // A page-table entry is a u32 and 0 means "never written".
            usize::try_from(bytes)
                .ok()
                .filter(|_| bytes.div_ceil(PAGE as u64) < u32::MAX as u64)
                .ok_or_else(|| {
                    MemError::OutOfRange(format!("{bytes} bytes on node {n} exceed a bank"))
                })
        };
        let banks = (first_node..end_node)
            .map(|n| Ok(Mutex::new(Bank::new(bank_len(n)?))))
            .collect::<Result<_, MemError>>()?;
        self.cursor = cursor;
        let id = self.allocs.len();
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
    /// each in-block run: its bank, its offset in the bank, and its range
    /// within the access. Spans at most one allocation; each run is visited
    /// under its bank's lock.
    fn with_span(
        &self,
        va: VAddr,
        len: usize,
        mut f: impl FnMut(&mut Bank, usize, Range<usize>),
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
            f(&mut a.bank(a.desc.pnn(cur)).lock().unwrap(), boff, done..done + n);
            done += n;
        }
        Ok(())
    }

    pub fn read_bytes(&self, va: VAddr, out: &mut [u8]) -> Result<(), MemError> {
        self.with_span(va, out.len(), |bank, off, run| bank.read(off, &mut out[run]))
    }

    pub fn write_bytes(&self, va: VAddr, data: &[u8]) -> Result<(), MemError> {
        self.with_span(va, data.len(), |bank, off, run| bank.write(off, &data[run]))
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
    /// lock per in-block run of up to `SPAN_WORDS` words.
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
            .find_map(|i| self.with_span(va.word(i), 8, |_, _, _| {}).err())
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
        let mut old = None;
        self.with_span(va, 8, |bank, off, run| {
            // The word lives in one bank: update it in place.
            if run.len() == 8 {
                old = Some(bank.rmw_u64(off, &f));
            }
        })?;
        if let Some(old) = old {
            return Ok(old);
        }
        // A word straddling two blocks: read both halves, write back.
        let old = self.read_u64(va)?;
        self.write_u64(va, f(old))?;
        Ok(old)
    }


    /// Number of live translation descriptors (the paper notes typical
    /// programs need only 2–4).
    pub fn live_descriptors(&self) -> usize {
        self.allocs.iter().filter(|a| a.live).count()
    }

    /// Copy of all memory contents plus the allocation-table shape, for
    /// snapshots. Only written pages are copied: the image is as sparse as
    /// the memory (the on-disk codec still writes every byte). The engine
    /// only snapshots at window boundaries, where no lane holds a bank
    /// lock, so taking every lock in order is safe.
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
                        .map(|b| b.lock().unwrap().image())
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
            let mut banks = cur.banks.iter().zip(&img_a.banks);
            if banks.any(|(b, img_b)| b.lock().unwrap().len != img_b.len) {
                return Err(SnapshotError::Incompatible(format!(
                    "allocation {i} bank size mismatch"
                )));
            }
        }
        for (cur, img_a) in self.allocs.iter().zip(&img.allocs) {
            for (bank, img_b) in cur.banks.iter().zip(&img_a.banks) {
                bank.lock().unwrap().restore(img_b);
            }
        }
        Ok(())
    }
}

/// Snapshot of global-memory contents: the written pages of every bank,
/// plus the descriptor table needed to validate compatibility on restore.
pub(crate) struct MemoryImage {
    cursor: u64,
    allocs: Vec<AllocImage>,
}

struct AllocImage {
    desc: TranslationDescriptor,
    live: bool,
    banks: Vec<BankImage>,
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
                b.save(w);
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
                banks.push(BankImage::load(r.bytes()?));
            }
            allocs.push(AllocImage { desc, live, banks });
        }
        Ok(MemoryImage { cursor, allocs })
    }
}

/// One node's DRAM channel timing: FIFO service at the configured
/// bandwidth plus fixed access latency. `service` returns the completion
/// time of a request arriving at `arrival` transferring `bytes`.
#[derive(Clone)]
pub struct MemChannel {
    /// Pipeline occupancy in *byte-units*: one cycle of channel time equals
    /// `bytes_per_cycle` units, so accesses much smaller than the per-cycle
    /// bandwidth coexist in one cycle (HBM stacks serve many 64-byte
    /// accesses per cycle) while sustained demand beyond the bandwidth
    /// queues — the contention that drives Figure 12.
    busy_units: u64,
    bytes_per_cycle: u64,
    latency: u64,
    granularity: u64,
    /// Total bytes served (stats).
    pub served_bytes: u64,
}

impl MemChannel {
    pub fn new(cfg: &crate::config::MemoryConfig) -> MemChannel {
        MemChannel {
            busy_units: 0,
            bytes_per_cycle: cfg.node_bytes_per_cycle.max(1),
            latency: cfg.dram_latency,
            granularity: cfg.access_granularity.max(1),
            served_bytes: 0,
        }
    }

    /// Schedule a transfer on the channel.
    pub fn service(&mut self, arrival: u64, bytes: u64) -> u64 {
        let bytes = bytes.max(1).div_ceil(self.granularity) * self.granularity;
        let start_units = (arrival * self.bytes_per_cycle).max(self.busy_units);
        self.busy_units = start_units + bytes;
        self.served_bytes += bytes;
        self.busy_units.div_ceil(self.bytes_per_cycle) + self.latency
    }

    /// Snapshot the mutable timing state (occupancy + served counter). The
    /// fixed rate parameters come from config and are not serialized. Each
    /// value is written as a one-element list, the layout of the per-node
    /// vectors this struct once held.
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        for v in [self.busy_units, self.served_bytes] {
            w.usize(1);
            w.u64(v);
        }
    }

    pub(crate) fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let mut one = || match r.usize()? {
            1 => r.u64(),
            _ => Err(SnapshotError::Incompatible("memory-channel node count mismatch".to_string())),
        };
        (self.busy_units, self.served_bytes) = (one()?, one()?);
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
        let total: u64 = (0..8).map(|n| d.bytes_on_node(n).unwrap()).sum();
        assert_eq!(total, d.size);
        assert_eq!(d.bytes_on_node(0).unwrap(), 0);
        assert_eq!(d.bytes_on_node(2).unwrap(), 3 * 4096); // blocks 0,4,8
        assert_eq!(d.bytes_on_node(4).unwrap(), 2 * 4096 + 100); // blocks 2,6 + tail
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
        let mut ch = MemChannel::new(&cfg);
        let t1 = ch.service(0, 64); // 1 cycle xfer + 100
        let t2 = ch.service(0, 64); // queued behind first
        assert_eq!(t1, 101);
        assert_eq!(t2, 102);
        assert_eq!(ch.served_bytes, 128);
    }

    #[test]
    fn channel_pipelines_small_accesses() {
        // 4096 B/cycle: 64 sixty-four-byte accesses fit in one cycle.
        let cfg = crate::config::MemoryConfig {
            dram_latency: 100,
            node_bytes_per_cycle: 4096,
            access_granularity: 64,
        };
        let mut ch = MemChannel::new(&cfg);
        for _ in 0..64 {
            assert_eq!(ch.service(0, 64), 101, "all within the first cycle");
        }
        // The 65th spills into the next cycle.
        assert_eq!(ch.service(0, 64), 102);
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
        assert_eq!(d.bytes_on_node(3).unwrap(), 16 * 4096);
        assert_eq!(d.bytes_on_node(2).unwrap(), 0);
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

    #[test]
    fn node_span_and_address_space_overflow_are_errors() {
        let mut m = GlobalMemory::new(4);
        assert!(matches!(
            m.alloc(64, u32::MAX, 1, 4096),
            Err(MemError::OutOfRange(_))
        ));
        assert!(matches!(
            m.alloc(u64::MAX - VA_BASE - 8, 0, 1, 4096),
            Err(MemError::OutOfRange(_))
        ));
        // Past what a bank's u32 page table can index.
        assert!(matches!(
            m.alloc(1 << 41, 0, 1, 4096),
            Err(MemError::OutOfRange(_))
        ));
        // A refused allocation leaves the address space as it was.
        assert_eq!(m.alloc(4096, 0, 1, 4096), Ok(VAddr(VA_BASE)));
        let d = TranslationDescriptor {
            first_node: u32::MAX - 1,
            ..desc(4096, 0, 2, 4096)
        };
        assert!(matches!(d.bytes_on_node(0), Err(MemError::OutOfRange(_))));
        assert!(matches!(d.bytes_on_node(u32::MAX), Err(MemError::OutOfRange(_))));
    }

    /// Bytes of the pages written in all banks, whole pages.
    fn backed_bytes(m: &GlobalMemory) -> u64 {
        let banks = m.allocs.iter().flat_map(|a| &a.banks);
        banks.map(|b| b.lock().unwrap().backed as u64 * PAGE as u64).sum()
    }

    /// Pages reserved by a bank's pool, handed out or not.
    fn reserved_pages(m: &GlobalMemory, va: VAddr) -> usize {
        let a = &m.allocs[m.find(va).unwrap()];
        let bank = a.bank(a.desc.pnn(va)).lock().unwrap();
        bank.first.len() + bank.more.iter().map(|c| c.len()).sum::<usize>()
    }

    #[test]
    fn banks_back_only_the_pages_a_program_writes() {
        let mut m = GlobalMemory::new(8);
        let a = m.alloc(1 << 30, 0, 8, 4096).unwrap();
        assert_eq!(backed_bytes(&m), 0, "untouched");

        let mut buf = vec![0xffu8; 1 << 20];
        m.read_bytes(a.offset(12_345), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        for off in (0..1u64 << 30).step_by(1 << 16) {
            assert_eq!(m.read_u64(a.offset(off)).unwrap(), 0);
        }
        assert_eq!(m.read_words(a.offset((1 << 30) - 64), 8).unwrap(), [0; 8]);
        assert_eq!(backed_bytes(&m), 0, "read");

        let at = a.offset(5 * 4096 + 512);
        m.write_u64(at, 7).unwrap();
        assert_eq!(backed_bytes(&m), PAGE as u64, "one word written");
        assert_eq!(reserved_pages(&m, at), CHUNK_PAGES, "one 64 KiB chunk");
        m.fetch_add_u64(at.word(1), 1).unwrap();
        assert_eq!(backed_bytes(&m), PAGE as u64, "same page");

        let small = m.alloc(100, 3, 1, 4096).unwrap();
        m.write_bytes(small, &[1; 100]).unwrap();
        m.fetch_add_u64(small.offset(92), 1).unwrap();
        assert_eq!(reserved_pages(&m, small), 1, "a 100-byte bank");
        assert_eq!(backed_bytes(&m), 2 * PAGE as u64);
    }
}
