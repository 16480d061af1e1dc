//! Triangle Counting on KVMSR+UDWeave (§4.3).
//!
//! `kv_map` runs on every vertex `x`, streams its neighbor list, and emits
//! one tuple per edge pair `<x, y>` with `x > y` (no double counting).
//! `kv_reduce` tasks — Hash-bound on a combination of the vertex names —
//! intersect the two neighbor lists by *streaming both* from DRAM
//! (the paper's second TC version, §4.3.3: more memory bandwidth, better
//! load balance; the scratchpad-reuse variant is `TcVariant::SpdReuse`).
//!
//! Every x>y pair contributes |N(x) ∩ N(y)| to a global counter; on an
//! undirected simple graph that total is exactly 3× the triangle count.

use drammalloc::{Layout, Region};
use kvmsr::{JobSpec, Kvmsr, MapBinding, MapTask, Outcome};
use udweave::LaneSet;
use updown_graph::{Csr, DeviceCsr};
use updown_sim::{ChromeTrace, Engine, EventWord, MachineConfig, NetworkId, Metrics, VAddr};

/// Which reduce implementation to use (the §4.3.3 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcVariant {
    /// Stream both neighbor lists from DRAM (paper's final version).
    DualStream,
    /// Load the smaller list into scratchpad, then stream the larger one
    /// against it (paper's early version: captures reuse, limits balance).
    SpdReuse,
}

#[derive(Clone, Debug)]
pub struct TcConfig {
    pub machine: MachineConfig,
    pub mem_nodes: Option<u32>,
    pub variant: TcVariant,
    /// Map binding: Block (default) or PBMW (robust to skew, §4.3.3).
    pub map_binding: MapBinding,
    /// Record an event trace; the result carries the Chrome-trace JSON.
    pub trace: bool,
}

impl TcConfig {
    pub fn new(nodes: u32) -> TcConfig {
        TcConfig {
            machine: MachineConfig::with_nodes(nodes),
            mem_nodes: None,
            variant: TcVariant::DualStream,
            map_binding: MapBinding::Block,
            trace: false,
        }
    }
}

pub struct TcResult {
    pub triangles: u64,
    pub final_tick: u64,
    pub pairs: u64,
    pub report: Metrics,
    /// The recorded Chrome trace, present when the config asked for one;
    /// rendered only when written (`ChromeTrace::write_to`).
    pub trace_json: Option<ChromeTrace>,
}

#[derive(Clone, Default)]
struct TcMapSt {
    task: Option<MapTask>,
    x: u64,
    deg: u64,
    loaded: u64,
}

/// Prefetch depth per side for the streamed intersection: enough chunks in
/// flight to cover remote DRAM latency instead of one round trip per chunk.
const TC_PREFETCH: u64 = 4;

/// Reduce-side intersection state: chunks stream with prefetch and are
/// reassembled in order (responses can arrive out of order), merging as
/// data becomes contiguous.
#[derive(Clone, Default)]
struct TcRedSt {
    job: u32,
    deg: [u64; 2],
    nl: [u64; 2],
    /// Next word offset to request, per side.
    fetched: [u64; 2],
    /// Requests in flight, per side.
    inflight: [u32; 2],
    /// Next expected in-order offset, per side.
    expected: [u64; 2],
    /// Out-of-order chunks awaiting reassembly: offset -> words.
    stash: [std::collections::BTreeMap<u64, Vec<u64>>; 2],
    buf: [std::collections::VecDeque<u64>; 2],
    recs_pending: u32,
    count: u64,
    /// Intersection result known; draining remaining in-flight responses
    /// before the thread can retire.
    done: bool,
    spd_list: Vec<u64>, // SpdReuse: the cached smaller list
}

updown_sim::snap_state!(TcMapSt, "tc.map", { task, x, deg, loaded });
updown_sim::snap_state!(TcRedSt, "tc.reduce", {
    job, deg, nl, fetched, inflight, expected, stash, buf, recs_pending,
    count, done, spd_list,
});

/// The udspec declaration of the TC protocol: the KVMSR base plus the
/// map-side streaming, both reduce-side intersection variants, and the
/// host driver events (docs/udspec.md).
pub fn spec() -> udweave::ProgramSpec {
    let mut spec = kvmsr::spec();
    spec.event_mut("kvmsr::kv_map")
        .resumes("thread::tc_map::returnRec");
    spec.event_mut("kvmsr::kv_reduce")
        .resumes("thread::tc_reduce::returnRec");
    {
        let m = spec.thread("thread::tc_map");
        m.event("returnRec")
            .args(2, 2)
            .on("kvmsr::kv_map")
            .resumes("thread::tc_map::returnRead")
            .send("kvmsr_launcher::task_done", |s| {
                s.args(1, 1).conditional();
            })
            .terminates();
        m.event("returnRead")
            .args(1, 8)
            .on("kvmsr::kv_map")
            .send("kvmsr::kv_reduce", |s| {
                s.args(2, 2).to_new().conditional().fanout_unbounded();
            })
            .send("kvmsr_launcher::task_done", |s| {
                s.args(1, 1).conditional();
            })
            .terminates();
    }
    {
        let r = spec.thread("thread::tc_reduce");
        r.event("returnRec")
            .args(3, 3)
            .on("kvmsr::kv_reduce")
            .resumes("thread::tc_reduce::returnChunk")
            .resumes("thread::tc_reduce::loadSpd")
            .terminates();
        r.event("returnChunk")
            .args(2, 9)
            .on("kvmsr::kv_reduce")
            .resumes("thread::tc_reduce::returnChunk")
            .terminates();
        r.event("loadSpd")
            .args(2, 9)
            .on("kvmsr::kv_reduce")
            .resumes("thread::tc_reduce::loadSpd")
            .resumes("thread::tc_reduce::streamVsSpd")
            .terminates();
        r.event("streamVsSpd")
            .args(2, 9)
            .on("kvmsr::kv_reduce")
            .resumes("thread::tc_reduce::streamVsSpd")
            .terminates();
    }
    {
        let d = spec.thread("main_master");
        d.event("init_tc")
            .args(0, 0)
            .from_host()
            .live_per_lane(1)
            .send("kvmsr_master::start", |s| {
                s.args(3, 3).to_new().with_cont();
            })
            .terminates();
        d.event("tc_launcher_done").args(2, 2).terminates();
    }
    // The job's completion reply spawns the driver's done handler as a
    // fresh thread; declare the edge on every master event that can
    // finish the run so the static flow graph reaches it.
    for ev in ["maps_done", "poll_result", "epilogue_done"] {
        spec.event_mut(&format!("kvmsr_master::{ev}"))
            .send("main_master::tc_launcher_done", |s| {
                s.args(2, 2).to_new().conditional();
            });
    }
    spec
}

/// Workload descriptor for `udcost` (docs/analysis.md): predicted event
/// counts for [`run_tc`] on this exact graph and config.
///
/// Map-side counts are exact (one streamed read chunk per 8 neighbors,
/// one reduce pair per edge `y < x`). Reduce-side chunk counts depend on
/// where the streaming intersection early-exits; we approximate the merge
/// as consuming `min(deg x, deg y)` entries per side, clipped by the
/// prefetch depth over-fetch — exact would require replaying every merge.
pub fn workload(g: &Csr, cfg: &TcConfig) -> udweave::Workload {
    let mc = &cfg.machine;
    let n = g.n() as f64;
    let mut return_read = 0.0;
    let mut pairs = 0.0;
    let mut dual_chunks = 0.0;
    let mut load_spd = 0.0;
    let mut stream_spd = 0.0;
    for x in 0..g.n() {
        let dx = g.degree(x) as f64;
        if dx > 0.0 {
            return_read += (dx / 8.0).ceil();
        }
        for &y in g.neigh(x) {
            if y >= x {
                continue;
            }
            pairs += 1.0;
            let dy = g.degree(y) as f64;
            let (lo, hi) = if dx < dy { (dx, dy) } else { (dy, dx) };
            let budget = (lo / 8.0).ceil() + TC_PREFETCH as f64;
            dual_chunks += budget.min((dx / 8.0).ceil()) + budget.min((dy / 8.0).ceil());
            load_spd += (lo / 8.0).ceil();
            stream_spd += (hi / 8.0).ceil();
        }
    }

    let mut w = udweave::Workload::new();
    kvmsr::skeleton_workload(&mut w, mc, 1.0, n, 1.0);
    w.count("thread::tc_map::returnRec", n)
        .count("thread::tc_map::returnRead", return_read)
        .count("kvmsr::kv_reduce", pairs)
        .count("thread::tc_reduce::returnRec", 2.0 * pairs)
        .count("main_master::init_tc", 1.0)
        .count("main_master::tc_launcher_done", 1.0);
    match cfg.variant {
        TcVariant::DualStream => {
            w.count("thread::tc_reduce::returnChunk", dual_chunks)
                .count("thread::tc_reduce::loadSpd", 0.0)
                .count("thread::tc_reduce::streamVsSpd", 0.0);
        }
        TcVariant::SpdReuse => {
            w.count("thread::tc_reduce::returnChunk", 0.0)
                .count("thread::tc_reduce::loadSpd", load_spd)
                .count("thread::tc_reduce::streamVsSpd", stream_spd);
        }
    }
    w
}

/// Count triangles of an undirected, deduplicated, neighbor-sorted CSR.
pub fn run_tc(g: &Csr, cfg: &TcConfig) -> TcResult {
    let mc = &cfg.machine;
    let mut eng = Engine::new(mc.clone());
    if cfg.trace {
        eng.enable_event_trace();
    }
    let mem_nodes = cfg.mem_nodes.unwrap_or(mc.nodes).min(mc.nodes);
    let layout = Layout::cyclic_bs(mem_nodes, crate::GRAPH_BLOCK_BYTES);

    let n = g.n() as u64;
    let dcsr = DeviceCsr::load(&mut eng, g, 2, layout, layout, |_v, deg, nl| {
        vec![deg as u64, nl.0]
    });
    let total = Region::alloc_words(&mut eng, 1, Layout::cyclic(1)).expect("total");

    let rt = Kvmsr::install(&mut eng);
    let set = LaneSet::all(mc);
    let variant = cfg.variant;

    // ---- reduce-side events -------------------------------------------------
    let red_fin = move |ctx: &mut updown_sim::EventCtx<'_>, st: &mut TcRedSt| {
        if st.count > 0 {
            ctx.dram_fetch_add_u64(total.base, st.count, None, None);
        }
        rt.reduce_done(ctx, kvmsr::JobId(st.job));
        ctx.yield_terminate();
    };

    // Merge whatever is buffered; returns true if the intersection is
    // complete (a drained side has no more data).
    fn merge(st: &mut TcRedSt, ctx: &mut updown_sim::EventCtx<'_>) -> bool {
        let mut popped = 0u64;
        while let (Some(&a), Some(&b)) = (st.buf[0].front(), st.buf[1].front()) {
            match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    st.buf[0].pop_front();
                }
                std::cmp::Ordering::Greater => {
                    st.buf[1].pop_front();
                }
                std::cmp::Ordering::Equal => {
                    st.count += 1;
                    st.buf[0].pop_front();
                    st.buf[1].pop_front();
                }
            }
            popped += 1;
        }
        ctx.charge(2 * popped + 1);
        (st.buf[0].is_empty() && st.fetched[0] == st.deg[0] && st.inflight[0] == 0)
            || (st.buf[1].is_empty() && st.fetched[1] == st.deg[1] && st.inflight[1] == 0)
    }

    /// Top up a side's pipeline to the prefetch depth. Chunk responses
    /// carry `side | offset << 1` tags for in-order reassembly.
    fn request_next(
        st: &mut TcRedSt,
        ctx: &mut updown_sim::EventCtx<'_>,
        side: usize,
        ret: updown_sim::EventLabel,
    ) {
        while st.fetched[side] < st.deg[side] && (st.inflight[side] as u64) < TC_PREFETCH {
            st.inflight[side] += 1;
            let off = st.fetched[side];
            let k = (st.deg[side] - off).min(8);
            ctx.send_dram_read_tagged(
                VAddr(st.nl[side]).word(off),
                k as usize,
                ret,
                (off << 1) | side as u64,
            );
            st.fetched[side] += k;
        }
    }

    let red_chunk = udweave::event::<TcRedSt>(&mut eng, "tc_reduce::returnChunk", move |ctx, st| {
        let args = ctx.args();
        let tag = args[args.len() - 1];
        let side = (tag & 1) as usize;
        let off = tag >> 1;
        st.inflight[side] -= 1;
        let words = &args[..args.len() - 1];
        // An in-order chunk goes straight to the merge buffer; an early
        // one waits in the stash until the prefix before it has drained.
        if off == st.expected[side] {
            st.expected[side] += words.len() as u64;
            st.buf[side].extend(words);
        } else {
            st.stash[side].insert(off, words.to_vec());
        }
        while let Some(w) = st.stash[side].remove(&st.expected[side]) {
            st.expected[side] += w.len() as u64;
            st.buf[side].extend(w);
        }
        if !st.done && merge(st, ctx) {
            st.done = true;
        }
        if st.done {
            // Count settled; wait out any prefetched responses.
            if st.inflight[0] == 0 && st.inflight[1] == 0 {
                red_fin(ctx, st);
            }
            return;
        }
        let me = ctx.cur_evw().label();
        request_next(st, ctx, 0, me);
        request_next(st, ctx, 1, me);
    });

    // SpdReuse: the smaller list is already in scratchpad (st.spd_list);
    // stream the larger one against it.
    let red_stream_spd = udweave::event::<TcRedSt>(&mut eng, "tc_reduce::streamVsSpd", move |ctx, st| {
        // Probe order does not matter against the cached list, so no
        // reassembly needed — just count in-flight chunks.
        let n = ctx.args().len() - 1; // last arg is the tag
        st.inflight[0] -= 1;
        for i in 0..n {
            // Binary search over the scratchpad copy (charged per probe).
            let w = ctx.arg(i);
            if st.spd_list.binary_search(&w).is_ok() {
                st.count += 1;
            }
        }
        let probes = n as u64 * (st.spd_list.len().max(2) as u64).ilog2() as u64;
        ctx.charge(probes + 2);
        let me = ctx.cur_evw().label();
        while st.fetched[0] < st.deg[0] && (st.inflight[0] as u64) < TC_PREFETCH {
            let k = (st.deg[0] - st.fetched[0]).min(8);
            ctx.send_dram_read_tagged(VAddr(st.nl[0]).word(st.fetched[0]), k as usize, me, 0);
            st.fetched[0] += k;
            st.inflight[0] += 1;
        }
        if st.fetched[0] == st.deg[0] && st.inflight[0] == 0 {
            red_fin(ctx, st);
        }
    });

    let red_load_spd = udweave::event::<TcRedSt>(&mut eng, "tc_reduce::loadSpd", move |ctx, st| {
        let n = ctx.args().len() - 1;
        for i in 0..n {
            st.spd_list.push(ctx.arg(i));
        }
        ctx.charge(n as u64); // spd stores
        st.fetched[1] += n as u64;
        if st.fetched[1] < st.deg[1] {
            let k = (st.deg[1] - st.fetched[1]).min(8);
            let me = ctx.cur_evw().label();
            ctx.send_dram_read_tagged(VAddr(st.nl[1]).word(st.fetched[1]), k as usize, me, 1);
        } else {
            // Smaller list cached; stream the larger side (pipelined).
            if st.deg[0] == 0 || st.spd_list.is_empty() {
                red_fin(ctx, st);
                return;
            }
            while st.fetched[0] < st.deg[0] && (st.inflight[0] as u64) < TC_PREFETCH {
                let k = (st.deg[0] - st.fetched[0]).min(8);
                ctx.send_dram_read_tagged(
                    VAddr(st.nl[0]).word(st.fetched[0]),
                    k as usize,
                    red_stream_spd,
                    0,
                );
                st.fetched[0] += k;
                st.inflight[0] += 1;
            }
        }
    });

    let red_rec = udweave::event::<TcRedSt>(&mut eng, "tc_reduce::returnRec", move |ctx, st| {
        let side = ctx.arg(2) as usize;
        st.deg[side] = ctx.arg(0);
        st.nl[side] = ctx.arg(1);
        st.recs_pending -= 1;
        if st.recs_pending > 0 {
            return;
        }
        if st.deg[0] == 0 || st.deg[1] == 0 {
            red_fin(ctx, st);
            return;
        }
        match variant {
            TcVariant::DualStream => {
                // Fill both pipelines; merge proceeds on arrivals.
                request_next(st, ctx, 0, red_chunk);
                request_next(st, ctx, 1, red_chunk);
            }
            TcVariant::SpdReuse => {
                // Ensure side 1 is the smaller list (swap if needed).
                if st.deg[0] < st.deg[1] {
                    st.deg.swap(0, 1);
                    st.nl.swap(0, 1);
                }
                let k = st.deg[1].min(8);
                ctx.send_dram_read_tagged(VAddr(st.nl[1]).word(0), k as usize, red_load_spd, 1);
            }
        }
    });

    // ---- map-side events ---------------------------------------------------
    let map_nl = udweave::event::<TcMapSt>(&mut eng, "tc_map::returnRead", move |ctx, st| {
        let mut task = st.task.expect("nl before map");
        let nargs = ctx.args().len();
        for i in 0..nargs {
            let y = ctx.arg(i);
            if y < st.x {
                let key = (st.x << 32) | y;
                rt.emit(ctx, &mut task, key, &[]);
            }
        }
        ctx.charge(nargs as u64);
        st.loaded += nargs as u64;
        st.task = Some(task);
        if st.loaded == st.deg {
            rt.map_done(ctx, &task);
            ctx.yield_terminate();
        }
    });
    let map_rec = udweave::event::<TcMapSt>(&mut eng, "tc_map::returnRec", move |ctx, st| {
        st.deg = ctx.arg(0);
        let nl_va = ctx.arg(1);
        if st.deg == 0 {
            let task = st.task.expect("rec before map");
            rt.map_done(ctx, &task);
            ctx.yield_terminate();
            return;
        }
        let mut off = 0u64;
        while off < st.deg {
            let k = (st.deg - off).min(8);
            ctx.send_dram_read(VAddr(nl_va).word(off), k as usize, map_nl);
            off += k;
        }
    });

    let job = rt.define_job(
        &mut eng,
        JobSpec::new("tc", set, move |ctx, task, _rt| {
            let st = ctx.state_mut::<TcMapSt>();
            st.task = Some(*task);
            st.x = task.key;
            ctx.send_dram_read(dcsr.vertex(task.key), 2, map_rec);
            Outcome::Async
        })
        .map_binding(cfg.map_binding)
        .with_reduce(move |ctx, task, _vals, _rt| {
            let st = ctx.state_mut::<TcRedSt>();
            st.job = task.job.0;
            st.recs_pending = 2;
            let x = task.key >> 32;
            let y = task.key & 0xFFFF_FFFF;
            ctx.send_dram_read_tagged(dcsr.vertex(x), 2, red_rec, 0);
            ctx.send_dram_read_tagged(dcsr.vertex(y), 2, red_rec, 1);
            Outcome::Async
        }),
    );

    // ---- driver -----------------------------------------------------------
    // Read back after the run: the pair count, written on the driver's shard.
    let pairs = eng.shard_slot::<u64>();
    let done = udweave::simple_event(&mut eng, "main_master::tc_launcher_done", move |ctx| {
        *ctx.shard_state(pairs) = ctx.arg(1);
        ctx.stop();
        ctx.yield_terminate();
    });
    let init = udweave::simple_event(&mut eng, "main_master::init_tc", move |ctx| {
        let cont = EventWord::new(ctx.nwid(), done);
        rt.start_from(ctx, job, n, 0, cont);
        ctx.yield_terminate();
    });

    eng.send(EventWord::new(NetworkId(0), init), [], EventWord::IGNORE);
    let report = eng.run();

    let raw = eng.mem().read_u64(total.base).unwrap();
    assert_eq!(raw % 3, 0, "pair-intersection total must be 3 × triangles");
    let pairs_out = eng.shard_states(pairs).sum();
    let trace_json = cfg.trace.then(|| eng.take_chrome_trace());
    TcResult {
        triangles: raw / 3,
        final_tick: report.final_tick,
        pairs: pairs_out,
        report,
        trace_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use updown_graph::algorithms;
    use updown_graph::generators::{erdos_renyi, rmat, RmatParams};
    use updown_graph::preprocess::dedup_sort;
    use updown_graph::EdgeList;

    fn undirected(el: EdgeList) -> Csr {
        let mut g = Csr::from_edges(&dedup_sort(el.symmetrize()));
        g.sort_neighbors();
        g
    }

    fn check(g: &Csr, machine: MachineConfig, variant: TcVariant) -> TcResult {
        let mut cfg = TcConfig::new(1);
        cfg.machine = machine;
        cfg.variant = variant;
        let res = run_tc(g, &cfg);
        assert_eq!(res.triangles, algorithms::triangle_count(g));
        res
    }

    #[test]
    fn known_small_graph() {
        let g = undirected(EdgeList::new(
            4,
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)],
        ));
        let r = check(&g, MachineConfig::small(1, 2, 4), TcVariant::DualStream);
        assert_eq!(r.triangles, 2);
    }

    #[test]
    fn rmat_dual_stream() {
        let g = undirected(rmat(7, RmatParams::default(), 6));
        check(&g, MachineConfig::small(2, 2, 8), TcVariant::DualStream);
    }

    #[test]
    fn rmat_spd_reuse_matches() {
        let g = undirected(rmat(7, RmatParams::default(), 6));
        check(&g, MachineConfig::small(2, 2, 8), TcVariant::SpdReuse);
    }

    #[test]
    fn er_with_pbmw_binding() {
        let g = undirected(erdos_renyi(7, 6, 4));
        let mut cfg = TcConfig::new(1);
        cfg.machine = MachineConfig::small(1, 2, 16);
        cfg.map_binding = MapBinding::Pbmw { chunk: 4 };
        let res = run_tc(&g, &cfg);
        assert_eq!(res.triangles, algorithms::triangle_count(&g));
    }

    #[test]
    fn triangle_free_graph() {
        // Bipartite: no triangles.
        let el = EdgeList::new(6, vec![(0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5)]);
        let g = undirected(el);
        let r = check(&g, MachineConfig::small(1, 1, 8), TcVariant::DualStream);
        assert_eq!(r.triangles, 0);
    }
}
