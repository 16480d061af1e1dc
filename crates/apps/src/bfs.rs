//! Push-based Breadth-First Search on KVMSR+UDWeave (§4.2).
//!
//! Departures from PageRank's flat data parallelism, as in the paper:
//!
//! - The frontier lives in per-accelerator segments allocated with the
//!   contiguous-per-node DRAMmalloc layout (§4.2.1), double-buffered
//!   across rounds.
//! - Each round is one KVMSR invocation whose keys are *accelerators*
//!   (32 per node): the `kv_map` task for accelerator `a` is a local
//!   master that reads its frontier section and distributes chunk
//!   subtasks over the accelerator's 64 lanes (master-worker, §4.2.2).
//! - Workers expand vertices (record read, neighbor-list chunk reads) and
//!   emit `<neighbor, round>` tuples into the intermediate map
//!   (`emit_uncounted`; counts are reported back to the master task).
//! - `kv_reduce` tasks, Hash-bound for balance, mark unvisited vertices,
//!   write their distance, and append them to the *local* accelerator's
//!   next-round frontier segment.
//! - A driver thread chains rounds until no vertex was added.

use std::collections::{BTreeMap, BTreeSet};

use drammalloc::{Layout, Region};
use kvmsr::{JobSpec, Kvmsr, MapTask, Outcome};
use udweave::LaneSet;
use updown_graph::{Csr, DeviceCsr};
use updown_sim::{ChromeTrace, Engine, EventLabel, EventWord, MachineConfig, NetworkId, Metrics, VAddr};

#[derive(Clone, Debug)]
pub struct BfsConfig {
    pub machine: MachineConfig,
    /// Memory nodes for the graph arrays (Figure 12 sweep).
    pub mem_nodes: Option<u32>,
    pub root: u32,
    /// Record an event trace; the result carries the Chrome-trace JSON.
    pub trace: bool,
}

impl BfsConfig {
    pub fn new(nodes: u32, root: u32) -> BfsConfig {
        BfsConfig {
            machine: MachineConfig::with_nodes(nodes),
            mem_nodes: None,
            root,
            trace: false,
        }
    }
}

pub struct BfsResult {
    /// Distance per vertex (u64::MAX = unreached).
    pub dist: Vec<u64>,
    pub rounds: u32,
    /// Tick at which each round's KVMSR invocation completed.
    pub round_ticks: Vec<u64>,
    pub final_tick: u64,
    pub traversed_edges: u64,
    pub report: Metrics,
    /// The recorded Chrome trace, present when the config asked for one;
    /// rendered only when written (`ChromeTrace::write_to`).
    pub trace_json: Option<ChromeTrace>,
}

impl BfsResult {
    /// Giga-traversed-edges per second.
    pub fn gteps(&self, cfg: &MachineConfig) -> f64 {
        self.traversed_edges as f64 / cfg.ticks_to_seconds(self.final_tick) / 1e9
    }
}

#[derive(Clone, Default)]
struct MasterSt {
    task: Option<MapTask>,
    pending_workers: u32,
}

#[derive(Clone)]

struct WorkerSt {
    ack: EventWord,
    round: u64,
    emits: u64,
    ids_loaded: bool,
    pending_recs: u32,
    expected_nl: u64,
    loaded_nl: u64,
}

impl Default for WorkerSt {
    fn default() -> Self {
        WorkerSt {
            ack: EventWord::IGNORE,
            round: 0,
            emits: 0,
            ids_loaded: false,
            pending_recs: 0,
            expected_nl: 0,
            loaded_nl: 0,
        }
    }
}

impl WorkerSt {
    fn finished(&self) -> bool {
        self.ids_loaded && self.pending_recs == 0 && self.loaded_nl == self.expected_nl
    }
}

#[derive(Clone, Default)]
struct DriverSt {
    round: u64,
    traversed: u64,
}

/// What BFS keeps per shard. Reduces are Hash-bound, so a vertex is only
/// ever probed on its reduce lane's shard; frontier cursors are per
/// accelerator, which is why the unit is the shard and not the lane.
#[derive(Clone, Default)]
struct BfsShard {
    visited: BTreeSet<u64>,
    /// (round, accelerator) -> next free slot of that frontier segment.
    cursors: BTreeMap<(u64, u32), u64>,
    /// The driver's read-back accumulators (shard 0 only).
    round_ticks: Vec<u64>,
    traversed: u64,
}

/// Ids the handlers need before they exist: the job is defined after the
/// worker that emits into it, the round-start event after the event that
/// loops back to it.
#[derive(Clone, Default)]
struct BfsIds {
    job: Option<kvmsr::JobId>,
    round_start: Option<EventLabel>,
}

updown_sim::snap_state!(MasterSt, "bfs.master", { task, pending_workers });
updown_sim::snap_state!(WorkerSt, "bfs.worker", { ack, round, emits, ids_loaded, pending_recs, expected_nl, loaded_nl });
updown_sim::snap_state!(DriverSt, "bfs.driver", { round, traversed });

/// The udspec declaration of the BFS protocol: the KVMSR base plus the
/// accelerator-master, chunk-worker, reduce-ack, and round-driver
/// handlers (docs/udspec.md).
pub fn spec() -> udweave::ProgramSpec {
    let mut spec = kvmsr::spec();
    spec.event_mut("kvmsr::kv_map")
        .resumes("thread::bfs_master::returnCount");
    spec.event_mut("kvmsr::kv_reduce")
        .resumes("thread::bfs_reduce::writeAck");
    {
        let m = spec.thread("thread::bfs_master");
        m.event("returnCount")
            .args(1, 1)
            .on("kvmsr::kv_map")
            .send("thread::bfs_worker::start", |s| {
                s.args(3, 3).to_new().with_cont().conditional().fanout_unbounded();
            })
            .send("kvmsr_launcher::task_done", |s| {
                s.args(1, 1).conditional();
            })
            .terminates();
        m.event("worker_ack")
            .args(1, 1)
            .on("kvmsr::kv_map")
            .send("kvmsr_launcher::task_done", |s| {
                s.args(1, 1).conditional();
            })
            .terminates();
    }
    {
        let w = spec.thread("thread::bfs_worker");
        // Chunk workers fan out per frontier chunk; admission is bounded
        // only by the frontier size, so the declared bound is unbounded.
        w.event("start")
            .args(3, 3)
            .live_unbounded()
            .resumes("thread::bfs_worker::returnIds");
        w.event("returnIds")
            .args(1, 8)
            .on("thread::bfs_worker::start")
            .resumes("thread::bfs_worker::returnRec")
            .replies()
            .terminates();
        w.event("returnRec")
            .args(2, 2)
            .on("thread::bfs_worker::start")
            .resumes("thread::bfs_worker::returnNl")
            .replies()
            .terminates();
        w.event("returnNl")
            .args(1, 8)
            .on("thread::bfs_worker::start")
            .send("kvmsr::kv_reduce", |s| {
                s.args(3, 3).to_new().conditional().fanout_unbounded();
            })
            .replies()
            .terminates();
    }
    spec.thread("thread::bfs_reduce")
        .event("writeAck")
        .args(1, 2)
        .on("kvmsr::kv_reduce")
        .terminates();
    {
        let d = spec.thread("main_master");
        d.event("init")
            .args(0, 0)
            .from_host()
            .live_per_lane(1)
            .send("kvmsr_master::start", |s| {
                s.args(3, 3).to_new().with_cont();
            });
        d.event("map_launcher_done")
            .args(2, 2)
            .on("main_master::init")
            .resumes("main_master::reduce_launcher_done");
        d.event("reduce_launcher_done")
            .args(1, 1)
            .on("main_master::init")
            .send("main_master::init", |s| {
                s.args(0, 0).conditional().ordered();
            })
            .terminates();
    }
    spec
}

/// Workload descriptor for `udcost` (docs/analysis.md): predicted event
/// counts for [`run_bfs`] on this exact graph and config.
///
/// A host-side BFS gives the per-level frontiers; each level is one
/// KVMSR round over `n_accels` keys. The per-accelerator frontier
/// counts are reproduced exactly — reduce placement is Hash-bound, so a
/// vertex's frontier segment is `hash(v) % lanes / lanes_per_accel` —
/// which fixes the chunk-worker fan-out per round.
pub fn workload(g: &Csr, cfg: &BfsConfig) -> udweave::Workload {
    let mc = &cfg.machine;
    let set = LaneSet::all(mc);
    let lanes_per_accel = mc.lanes_per_accel;
    let n_accels = (mc.nodes * mc.accels_per_node) as usize;
    let levels = updown_graph::algorithms::bfs(g, cfg.root);
    let deepest = levels.iter().filter(|&&l| l != u64::MAX).max().copied().unwrap_or(0);
    // Round r scans frontier r; the run stops after the round that adds
    // nothing, so the deepest level's round still executes.
    let rounds = deepest + 1;

    // Per-(round, accel) frontier occupancy. The root is seeded into
    // accelerator 0; every later vertex lands on its reduce lane's accel.
    let mut cnt = vec![0u64; rounds as usize * n_accels];
    let mut reached = 0u64;
    let mut return_nl = 0.0;
    let mut scanned = 0.0;
    for v in 0..g.n() {
        let l = levels[v as usize];
        if l == u64::MAX {
            continue;
        }
        reached += 1;
        let deg = g.degree(v) as f64;
        scanned += deg;
        return_nl += (deg / 8.0).ceil();
        let accel = if l == 0 {
            0
        } else {
            kvmsr::ReduceBinding::Hash.lane_for(v as u64, &set).0 / lanes_per_accel
        };
        cnt[l as usize * n_accels + accel as usize] += 1;
    }
    let chunks: f64 = cnt.iter().map(|&c| (c as f64 / 8.0).ceil()).sum();

    let mut w = udweave::Workload::new();
    let r = rounds as f64;
    kvmsr::skeleton_workload(&mut w, mc, r, r * n_accels as f64, r);
    w.count("thread::bfs_master::returnCount", r * n_accels as f64)
        .count("thread::bfs_master::worker_ack", chunks)
        .count("thread::bfs_worker::start", chunks)
        .count("thread::bfs_worker::returnIds", chunks)
        .count("thread::bfs_worker::returnRec", reached as f64)
        .count("thread::bfs_worker::returnNl", return_nl)
        .count("kvmsr::kv_reduce", scanned)
        .count("thread::bfs_reduce::writeAck", 3.0 * (reached.saturating_sub(1)) as f64)
        .count("main_master::init", r)
        .count("main_master::map_launcher_done", r)
        .count("main_master::reduce_launcher_done", r);
    w
}

/// Run BFS over an unsplit CSR (directed expansion along out-edges).
pub fn run_bfs(g: &Csr, cfg: &BfsConfig) -> BfsResult {
    let mc = &cfg.machine;
    let mut eng = Engine::new(mc.clone());
    if cfg.trace {
        eng.enable_event_trace();
    }
    let nodes = mc.nodes;
    let mem_nodes = cfg.mem_nodes.unwrap_or(nodes).min(nodes);
    let graph_layout = Layout::cyclic_bs(mem_nodes, crate::GRAPH_BLOCK_BYTES);

    let n = g.n() as u64;
    let n_accels = nodes * mc.accels_per_node;
    let lanes_per_accel = mc.lanes_per_accel;

    let dcsr = DeviceCsr::load(&mut eng, g, 2, graph_layout, graph_layout, |_v, deg, nl| {
        vec![deg as u64, nl.0]
    });
    let dist = Region::alloc_words(&mut eng, n, graph_layout).expect("dist");

    // Frontier segments: per accelerator, double buffered. Capacity is a
    // power of two so the contiguous-per-node layout stays block-aligned.
    let cap = (4 * n / n_accels as u64 + 64).next_power_of_two();
    let seg_words = n_accels as u64 * cap;
    let per_node_bytes = seg_words * 8 / nodes as u64;
    let frontier_layout = if per_node_bytes >= 4096 && per_node_bytes.is_power_of_two() {
        Layout::contiguous_per_node(seg_words * 8, nodes)
    } else {
        Layout::cyclic(nodes.min(mem_nodes))
    };
    let seg = [
        Region::alloc_words(&mut eng, seg_words, frontier_layout).expect("seg0"),
        Region::alloc_words(&mut eng, seg_words, frontier_layout).expect("seg1"),
    ];
    let counts_layout = Layout::cyclic(1);
    let counts = [
        Region::alloc_words(&mut eng, n_accels as u64, counts_layout).expect("cnt0"),
        Region::alloc_words(&mut eng, n_accels as u64, counts_layout).expect("cnt1"),
    ];
    let added = Region::alloc_words(&mut eng, 2, counts_layout).expect("added");

    // Seed: root in accelerator 0's parity-0 segment.
    {
        let mem = eng.mem_mut();
        for v in 0..n {
            mem.write_u64(dist.word(v), u64::MAX).unwrap();
        }
        mem.write_u64(dist.word(cfg.root as u64), 0).unwrap();
        mem.write_u64(seg[0].base, cfg.root as u64).unwrap();
        mem.write_u64(counts[0].base, 1).unwrap();
    }

    let rt = Kvmsr::install(&mut eng);
    let set = LaneSet::all(mc);

    let shard = eng.shard_slot::<BfsShard>();
    let ids = eng.table(BfsIds::default());
    // The root counts as visited where its reduce tuples would land.
    let root_lane = kvmsr::ReduceBinding::Hash.lane_for(cfg.root as u64, &set);
    eng.shard_state_mut(shard, mc.node_of(root_lane))
        .visited
        .insert(cfg.root as u64);

    // ---- worker thread ---------------------------------------------------
    let w_nl_label = udweave::event::<WorkerSt>(&mut eng, "bfs_worker::returnNl", move |ctx, st| {
        let nargs = ctx.args().len();
        let round = st.round;
        let job = ctx.table(ids).job.expect("bound before the run");
        for i in 0..nargs {
            let d = ctx.arg(i);
            rt.emit_uncounted(ctx, job, d, &[round]);
        }
        st.emits += nargs as u64;
        st.loaded_nl += nargs as u64;
        ctx.charge(nargs as u64);
        if st.finished() {
            let ack = st.ack;
            let emits = st.emits;
            ctx.send_event(ack, [emits], EventWord::IGNORE);
            ctx.yield_terminate();
        }
    });

    let w_rec = udweave::event::<WorkerSt>(&mut eng, "bfs_worker::returnRec", move |ctx, st| {
        let deg = ctx.arg(0);
        let nl_va = ctx.arg(1);
        st.pending_recs -= 1;
        st.expected_nl += deg;
        ctx.charge(2);
        let mut off = 0u64;
        while off < deg {
            let k = (deg - off).min(8);
            ctx.send_dram_read(VAddr(nl_va).word(off), k as usize, w_nl_label);
            off += k;
        }
        if st.finished() {
            let ack = st.ack;
            let emits = st.emits;
            ctx.send_event(ack, [emits], EventWord::IGNORE);
            ctx.yield_terminate();
        }
    });

    let w_ids = udweave::event::<WorkerSt>(&mut eng, "bfs_worker::returnIds", move |ctx, st| {
        let nargs = ctx.args().len();
        st.ids_loaded = true;
        st.pending_recs += nargs as u32;
        ctx.charge(nargs as u64);
        for i in 0..nargs {
            let v = ctx.arg(i);
            ctx.send_dram_read(dcsr.vertex(v), 2, w_rec);
        }
        if st.finished() {
            let ack = st.ack;
            let emits = st.emits;
            ctx.send_event(ack, [emits], EventWord::IGNORE);
            ctx.yield_terminate();
        }
    });

    let bfs_worker = udweave::event::<WorkerSt>(&mut eng, "bfs_worker::start", move |ctx, st| {
        st.ack = ctx.cont();
        st.round = ctx.arg(2);
        let chunk_va = VAddr(ctx.arg(0));
        let len = ctx.arg(1) as usize;
        ctx.send_dram_read(chunk_va, len, w_ids);
    });

    // ---- accel-master map task + ack ---------------------------------------
    let master_ack = udweave::event::<MasterSt>(&mut eng, "bfs_master::worker_ack", move |ctx, st| {
        let emits = ctx.arg(0);
        let task = st.task.as_mut().expect("ack before start");
        task.add_external_emits(emits);
        st.pending_workers -= 1;
        ctx.charge(2);
        if st.pending_workers == 0 {
            let task = *task;
            rt.map_done(ctx, &task);
            ctx.yield_terminate();
        }
    });
    let master_cnt = udweave::event::<MasterSt>(&mut eng, "bfs_master::returnCount", move |ctx, st| {
        let cnt = ctx.arg(0);
        let task = st.task.expect("count before start");
        let a = task.key as u32; // accelerator index
        let parity = (task.arg & 1) as usize;
        if cnt == 0 {
            rt.map_done(ctx, &task);
            ctx.yield_terminate();
            return;
        }
        // Clear for reuse as the round+2 "next" counter.
        ctx.send_dram_write(counts[parity].word(a as u64), &[0], None);
        // Distribute chunk subtasks over this accelerator's lanes.
        let seg_base = a as u64 * cap;
        let mut off = 0u64;
        let mut c = 0u32;
        while off < cnt {
            let k = (cnt - off).min(8);
            let lane = NetworkId(a * lanes_per_accel + (c % lanes_per_accel));
            let w = EventWord::new(lane, bfs_worker);
            let ack = ctx.self_event(master_ack);
            ctx.send_event(
                w,
                [seg[parity].word(seg_base + off).0, k, task.arg],
                ack,
            );
            st.pending_workers += 1;
            off += k;
            c += 1;
        }
        ctx.charge(cnt.div_ceil(8) * 2);
    });

    // Reduce effects that later phases *read* (frontier entries, their
    // counts, the added counter) are acknowledged before the reduce task
    // retires — otherwise the next round's count/frontier reads can pass
    // in-flight remote writes.
    #[derive(Clone, Default)]
    struct RedSt {
        pending: u32,
        job: u32,
    }
    updown_sim::snap_state!(RedSt, "bfs.reduce", { pending, job });
    let red_ack = udweave::event::<RedSt>(&mut eng, "bfs_reduce::writeAck", move |ctx, st| {
        st.pending -= 1;
        ctx.charge(1);
        if st.pending == 0 {
            rt.reduce_done(ctx, kvmsr::JobId(st.job));
            ctx.yield_terminate();
        }
    });
    let bfs_job = rt.define_job(
        &mut eng,
        JobSpec::new("bfs_round", set, move |ctx, task, _rt| {
            ctx.state_mut::<MasterSt>().task = Some(*task);
            let a = task.key;
            let parity = (task.arg & 1) as usize;
            ctx.send_dram_read(counts[parity].word(a), 1, master_cnt);
            Outcome::Async
        })
        .with_reduce(move |ctx, task, vals, _rt| {
            let d = task.key;
            let round = vals[0];
            ctx.charge(2); // visited probe
            if !ctx.shard_state(shard).visited.insert(d) {
                return Outcome::Done;
            }
            let next_parity = ((round + 1) & 1) as usize;
            ctx.send_dram_write(dist.word(d), &[round + 1], None);
            // Append to this lane's accelerator-local next frontier.
            let my_accel = ctx.nwid().0 / lanes_per_accel;
            let e = ctx.shard_state(shard).cursors.entry((round + 1, my_accel)).or_insert(0);
            let slot = *e;
            *e += 1;
            assert!(slot < cap, "frontier segment overflow (cap {cap})");
            ctx.charge(2);
            {
                let st = ctx.state_mut::<RedSt>();
                st.pending = 3;
                st.job = task.job.0;
            }
            ctx.send_dram_write_tagged(
                seg[next_parity].word(my_accel as u64 * cap + slot),
                &[d],
                red_ack,
                0,
            );
            ctx.dram_fetch_add_u64(
                counts[next_parity].word(my_accel as u64),
                1,
                Some(red_ack),
                None,
            );
            ctx.dram_fetch_add_u64(added.word(next_parity as u64), 1, Some(red_ack), None);
            Outcome::Async
        }),
    );
    eng.table_mut(ids).job = Some(bfs_job);

    // ---- round driver ----------------------------------------------------
    let mut driver = udweave::ThreadType::<DriverSt>::new("main_master");
    let added_ret = driver.event(&mut eng, "reduce_launcher_done", move |ctx, st| {
        let new_added = ctx.arg(0);
        let now = ctx.now();
        let sh = ctx.shard_state(shard);
        sh.round_ticks.push(now);
        if new_added == 0 {
            sh.traversed = st.traversed;
            ctx.stop();
            ctx.yield_terminate();
            return;
        }
        // Reset the cell before it is reused two rounds later.
        let parity = (st.round + 1) & 1;
        ctx.send_dram_write(added.word(parity), &[0], None);
        st.round += 1;
        let rs = ctx.table(ids).round_start.expect("bound before the run");
        let me = ctx.self_event(rs);
        ctx.send_event(me, [], EventWord::IGNORE);
    });
    let job_done = driver.event(&mut eng, "map_launcher_done", move |ctx, st| {
        st.traversed += ctx.arg(1);
        // How many vertices did round r add to the next frontier?
        let next_parity = (st.round + 1) & 1;
        ctx.send_dram_read(added.word(next_parity), 1, added_ret);
    });
    let round_start = driver.event(&mut eng, "init", move |ctx, st| {
        let cont = ctx.self_event(job_done);
        rt.start_from(ctx, bfs_job, n_accels as u64, st.round, cont);
    });
    eng.table_mut(ids).round_start = Some(round_start);

    eng.send(
        EventWord::new(NetworkId(0), round_start),
        [],
        EventWord::IGNORE,
    );
    let report = eng.run();

    let mem = eng.mem();
    let dist_out: Vec<u64> = (0..n).map(|v| mem.read_u64(dist.word(v)).unwrap()).collect();
    // Only the driver's shard wrote these; the fold is the general rule.
    let round_ticks_out: Vec<u64> =
        eng.shard_states(shard).flat_map(|s| s.round_ticks.iter().copied()).collect();
    let traversed_out = eng.shard_states(shard).map(|s| s.traversed).sum();
    let trace_json = cfg.trace.then(|| eng.take_chrome_trace());
    BfsResult {
        dist: dist_out,
        rounds: round_ticks_out.len() as u32,
        round_ticks: round_ticks_out,
        final_tick: report.final_tick,
        traversed_edges: traversed_out,
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

    fn check(g: &Csr, root: u32, machine: MachineConfig) -> BfsResult {
        let mut cfg = BfsConfig::new(1, root);
        cfg.machine = machine;
        let res = run_bfs(g, &cfg);
        let oracle = algorithms::bfs(g, root);
        assert_eq!(res.dist, oracle, "BFS distances mismatch");
        res
    }

    #[test]
    fn line_graph() {
        let g = Csr::from_edges(&EdgeList::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]));
        let r = check(&g, 0, MachineConfig::small(1, 2, 4));
        assert_eq!(r.rounds, 5, "4 expansion rounds + 1 empty round");
        assert_eq!(r.traversed_edges, 4);
    }

    #[test]
    fn matches_oracle_rmat() {
        let g = Csr::from_edges(&dedup_sort(rmat(7, RmatParams::default(), 3).symmetrize()));
        check(&g, 0, MachineConfig::small(2, 2, 8));
    }

    #[test]
    fn matches_oracle_er_multi_node() {
        let g = Csr::from_edges(&dedup_sort(erdos_renyi(8, 4, 9).symmetrize()));
        check(&g, 5, MachineConfig::small(4, 2, 8));
    }

    #[test]
    fn unreachable_vertices_stay_max() {
        let g = Csr::from_edges(&EdgeList::new(5, vec![(0, 1), (1, 2)]));
        let r = check(&g, 0, MachineConfig::small(1, 1, 4));
        assert_eq!(r.dist[3], u64::MAX);
        assert_eq!(r.dist[4], u64::MAX);
    }
}
