#![forbid(unsafe_code)]
//! # drammalloc
//!
//! The DRAMmalloc user API from §2.4 of the paper: allocate a contiguous
//! virtual address region laid out block-cyclically across distributed
//! physical node memories.
//!
//! ```text
//! void* DRAMmalloc(size, 1stNode, NRNodes, BS)
//! ```
//!
//! - `size`  — total number of bytes to allocate
//! - `1stNode` — node on which the allocation starts
//! - `NRNodes` — node count for the cyclic distribution (power of 2)
//! - `BS`    — block size of the distribution (power of 2, ≥ 4 KiB)
//!
//! Each call produces a single hardware translation descriptor (swizzle
//! mask); typical programs need only 2–4 descriptors. The canonical
//! layouts of Table 1 are provided as constructors on [`Layout`].
//!
//! The allocator sits over [`updown_sim::GlobalMemory`]; the simulator's
//! translation hardware uses the descriptor for timing (which node's DRAM
//! channel serves each access), which is how a one-parameter layout change
//! produces the Figure 12 performance effects.

pub mod shmem;

use updown_sim::{Engine, GlobalMemory, MemError, VAddr};

/// Hardware minimum block size (4 KiB interleaving granularity, §2.4).
pub const MIN_BLOCK: u64 = 4096;

/// A DRAMmalloc layout: everything but the size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    pub first_node: u32,
    pub nr_nodes: u32,
    pub block_size: u64,
}

impl Layout {
    /// Cyclic over `nr_nodes` nodes starting at node 0, 4 KiB blocks —
    /// Table 1 rows 1–2: maximum-bandwidth default spreading.
    pub fn cyclic(nr_nodes: u32) -> Layout {
        Layout {
            first_node: 0,
            nr_nodes,
            block_size: MIN_BLOCK,
        }
    }

    /// Cyclic with an explicit block size — the PR/BFS graph layout in the
    /// paper uses 32 KiB blocks: `DRAMmalloc(size, 0, NRnodes, 32KB)`.
    pub fn cyclic_bs(nr_nodes: u32, block_size: u64) -> Layout {
        Layout {
            first_node: 0,
            nr_nodes,
            block_size,
        }
    }

    /// One contiguous region per node — Table 1 row 3 and the BFS frontier
    /// layout: `DRAMmalloc(size, 0, NRnodes, size/NRnodes)`.
    ///
    /// `size` must be divisible into a power-of-two per-node block.
    pub fn contiguous_per_node(size: u64, nr_nodes: u32) -> Layout {
        let per_node = size / nr_nodes as u64;
        Layout {
            first_node: 0,
            nr_nodes,
            block_size: per_node,
        }
    }

    /// General form: cyclic over `[first_node, first_node + nr_nodes)`
    /// in `block_size` blocks — Table 1 row 4.
    pub fn window(first_node: u32, nr_nodes: u32, block_size: u64) -> Layout {
        Layout {
            first_node,
            nr_nodes,
            block_size,
        }
    }
}

/// `DRAMmalloc(size, 1stNode, NRNodes, BS)` against an engine's global
/// memory. Returns the base virtual address of the region.
pub fn dram_malloc(
    eng: &mut Engine,
    size: u64,
    first_node: u32,
    nr_nodes: u32,
    block_size: u64,
) -> Result<VAddr, MemError> {
    eng.mem_mut().alloc(size, first_node, nr_nodes, block_size)
}

/// Allocate with a [`Layout`].
pub fn dram_malloc_layout(eng: &mut Engine, size: u64, l: Layout) -> Result<VAddr, MemError> {
    dram_malloc(eng, size, l.first_node, l.nr_nodes, l.block_size)
}

/// `DRAMfree`.
pub fn dram_free(eng: &mut Engine, base: VAddr) -> Result<(), MemError> {
    eng.mem_mut().free(base)
}

/// A typed region handle: base address plus element accounting, the usual
/// way applications hold DRAMmalloc results (vertex arrays, neighbor
/// lists, frontiers).
#[derive(Clone, Copy, Debug)]
pub struct Region {
    pub base: VAddr,
    pub bytes: u64,
}

impl Region {
    /// Allocate `words` 8-byte words with the given layout.
    pub fn alloc_words(eng: &mut Engine, words: u64, l: Layout) -> Result<Region, MemError> {
        let bytes = words * 8;
        Ok(Region {
            base: dram_malloc_layout(eng, bytes, l)?,
            bytes,
        })
    }

    #[inline]
    pub fn words(&self) -> u64 {
        self.bytes / 8
    }

    /// Address of word `i`.
    #[inline]
    pub fn word(&self, i: u64) -> VAddr {
        debug_assert!(i < self.words(), "word {i} out of {}", self.words());
        self.base.word(i)
    }

    /// Host-side bulk initialization (TOP-core load phase, untimed).
    pub fn write_all(&self, mem: &mut GlobalMemory, words: &[u64]) -> Result<(), MemError> {
        assert!(words.len() as u64 <= self.words());
        mem.write_words(self.base, words)
    }

    /// Host-side bulk read-back.
    pub fn read_all(&self, mem: &GlobalMemory) -> Result<Vec<u64>, MemError> {
        mem.read_words(self.base, self.words() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use updown_sim::{MachineConfig, TranslationDescriptor};

    fn eng(nodes: u32) -> Engine {
        Engine::new(MachineConfig::small(nodes, 1, 2))
    }

    /// Table 1 of the paper, scaled to machines that fit a unit test: the
    /// four canonical layouts translate as documented.
    #[test]
    fn table1_layouts() {
        // Row style 1/2: cyclic over the machine in 4 KiB blocks.
        let mut e = eng(16);
        let a = dram_malloc_layout(&mut e, 64 * 4096, Layout::cyclic(16)).unwrap();
        let d: TranslationDescriptor = e.mem().descriptor(a).unwrap();
        for b in 0..64u64 {
            assert_eq!(d.pnn(VAddr(a.0 + b * 4096)), (b % 16) as u32);
        }

        // Row 3: contiguous 4 GiB per node, scaled to 64 KiB per node.
        let mut e = eng(4);
        let size = 4 * 65536;
        let a = dram_malloc_layout(&mut e, size, Layout::contiguous_per_node(size, 4)).unwrap();
        let d = e.mem().descriptor(a).unwrap();
        for n in 0..4u64 {
            assert_eq!(d.pnn(VAddr(a.0 + n * 65536)), n as u32);
            assert_eq!(d.pnn(VAddr(a.0 + n * 65536 + 65535)), n as u32);
        }

        // Row 4: cyclic across the middle nodes in 1 MiB blocks, scaled:
        // middle 4 of 8 nodes, 8 KiB blocks, each node gets size/4.
        let mut e = eng(8);
        let size = 32 * 8192;
        let a = dram_malloc_layout(&mut e, size, Layout::window(2, 4, 8192)).unwrap();
        let d = e.mem().descriptor(a).unwrap();
        for b in 0..32u64 {
            let pnn = d.pnn(VAddr(a.0 + b * 8192));
            assert_eq!(pnn, 2 + (b % 4) as u32);
        }
        for n in 2..6 {
            assert_eq!(d.bytes_on_node(n).unwrap(), size / 4, "each node gets 8 blocks");
        }
    }

    #[test]
    fn paper_formula_examples() {
        // The PR/BFS allocation: DRAMmalloc(size, 0, NRnodes, 32KB).
        let mut e = eng(8);
        let a = dram_malloc(&mut e, 1 << 20, 0, 8, 32 * 1024).unwrap();
        let d = e.mem().descriptor(a).unwrap();
        assert_eq!(d.block_size, 32768);
        // 32 blocks over 8 nodes -> 4 blocks/node.
        for n in 0..8 {
            assert_eq!(d.bytes_on_node(n).unwrap(), 4 * 32768);
        }
    }

    #[test]
    fn min_block_enforced() {
        let mut e = eng(2);
        assert!(dram_malloc(&mut e, 8192, 0, 2, 2048).is_err());
        assert!(dram_malloc(&mut e, 8192, 0, 2, 4096).is_ok());
    }

    #[test]
    fn region_word_accounting() {
        let mut e = eng(2);
        let r = Region::alloc_words(&mut e, 100, Layout::cyclic(2)).unwrap();
        assert_eq!(r.words(), 100);
        r.write_all(e.mem_mut(), &(0..100).collect::<Vec<u64>>()).unwrap();
        let back = r.read_all(e.mem()).unwrap();
        assert_eq!(back[99], 99);
        assert_eq!(e.mem().read_u64(r.word(42)).unwrap(), 42);
    }

    #[test]
    fn free_releases_descriptor() {
        let mut e = eng(2);
        let a = dram_malloc(&mut e, 8192, 0, 2, 4096).unwrap();
        assert_eq!(e.mem().live_descriptors(), 1);
        dram_free(&mut e, a).unwrap();
        assert_eq!(e.mem().live_descriptors(), 0);
    }
}
