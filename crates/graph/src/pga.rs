//! The Parallel Graph Abstraction (PGA, Table 5: "Uses two SHT's"): a
//! streaming-updatable property graph built from a vertex table and an edge
//! table, with scalable atomic inserts — the structure the ingestion
//! pipeline (§5.2.4) populates and Partial Match queries.

use drammalloc::Layout;
use udweave::LaneSet;
use updown_sim::{Engine, EventCtx, EventWord};

use crate::sht::{ShtId, ShtLib};

/// Packed vertex value: `[type:16 | payload:48]`.
#[inline]
pub fn pack_vertex(vtype: u16, payload: u64) -> u64 {
    ((vtype as u64) << 48) | (payload & 0xFFFF_FFFF_FFFF)
}

#[inline]
pub fn vertex_type(packed: u64) -> u16 {
    (packed >> 48) as u16
}

/// Edge key: a mix of (src, dst, type) — unique per typed edge.
#[inline]
pub fn edge_key(src: u64, dst: u64, etype: u16) -> u64 {
    // Combine with two rounds of the splitmix finalizer to avoid (src,dst)
    // symmetry collisions.
    kvmsr::key_hash(src ^ kvmsr::key_hash(dst ^ ((etype as u64) << 40)))
}

/// A property graph over two scalable hash tables.
#[derive(Clone, Copy, Debug)]
pub struct Pga {
    pub vertices: ShtId,
    pub edges: ShtId,
}

impl Pga {
    /// Create the two tables over `set`. `vertex_bl`/`edge_bl` are buckets
    /// per lane, `vertex_eb`/`edge_eb` entries per bucket — the same knobs
    /// as the artifact's ingestion configuration files.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        eng: &mut Engine,
        lib: &ShtLib,
        set: LaneSet,
        vertex_bl: u32,
        vertex_eb: u32,
        edge_bl: u32,
        edge_eb: u32,
        layout: Layout,
    ) -> Pga {
        let vertices = lib.create(eng, set, vertex_bl, vertex_eb, layout);
        let edges = lib.create(eng, set, edge_bl, edge_eb, layout);
        Pga { vertices, edges }
    }

    /// Insert a typed vertex (idempotent). Reply `[existed, packed]`.
    pub fn add_vertex(
        &self,
        ctx: &mut EventCtx<'_>,
        lib: &ShtLib,
        vid: u64,
        vtype: u16,
        cont: EventWord,
    ) {
        lib.insert(ctx, self.vertices, vid, pack_vertex(vtype, 0), cont);
    }

    /// Insert a typed edge (idempotent). Reply `[existed, value]`. The
    /// stored value packs the edge type and the low bits of src for
    /// diagnostics.
    pub fn add_edge(
        &self,
        ctx: &mut EventCtx<'_>,
        lib: &ShtLib,
        src: u64,
        dst: u64,
        etype: u16,
        cont: EventWord,
    ) {
        let key = edge_key(src, dst, etype);
        lib.insert(ctx, self.edges, key, pack_vertex(etype, src), cont);
    }

    /// Host-side sizes.
    pub fn counts(&self, eng: &Engine, lib: &ShtLib) -> (usize, usize) {
        (lib.len(eng, self.vertices), lib.len(eng, self.edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udweave::simple_event;
    use updown_sim::{MachineConfig, NetworkId};

    #[test]
    fn pack_roundtrip() {
        let p = pack_vertex(7, 123);
        assert_eq!(vertex_type(p), 7);
        assert_eq!(p & 0xFFFF_FFFF_FFFF, 123);
    }

    #[test]
    fn edge_keys_distinguish_direction_and_type() {
        assert_ne!(edge_key(1, 2, 0), edge_key(2, 1, 0));
        assert_ne!(edge_key(1, 2, 0), edge_key(1, 2, 1));
        assert_eq!(edge_key(5, 9, 3), edge_key(5, 9, 3));
    }

    #[test]
    fn streaming_inserts_dedup() {
        let mut eng = Engine::new(MachineConfig::small(2, 1, 4));
        let lib = ShtLib::install(&mut eng);
        let set = LaneSet::new(NetworkId(0), 8);
        let pga = Pga::create(&mut eng, &lib, set, 32, 8, 32, 8, Layout::cyclic(2));
        let go = simple_event(&mut eng, "go", move |ctx| {
            for i in 0..20u64 {
                pga.add_vertex(ctx, &lib, i % 10, 1, EventWord::IGNORE);
                pga.add_edge(ctx, &lib, i % 10, (i + 1) % 10, 2, EventWord::IGNORE);
            }
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), go), [], EventWord::IGNORE);
        eng.run();
        let (nv, ne) = pga.counts(&eng, &lib);
        assert_eq!(nv, 10, "duplicate vertices deduped");
        assert_eq!(ne, 10, "duplicate edges deduped");
    }
}
