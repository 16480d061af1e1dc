//! Push-based PageRank on KVMSR+UDWeave (§4.1, Listing 3).
//!
//! - The graph is vertex-split to a maximum degree (512 in the paper) and
//!   shuffled; one `kv_map` task runs per *sub-vertex*.
//! - `kv_map` reads its sub-vertex record and the root's current value,
//!   then streams its neighbor slice from DRAM in chunks of eight,
//!   emitting `<neighbor, contribution>` tuples from the `returnRead`
//!   event — exactly the structure of Listing 3.
//! - `kv_reduce` accumulates contributions with an atomic fetch-and-add
//!   (optionally through the scratchpad combining cache, §4.1 fn. 1).
//!
//! Two splitting regimes are supported (see `preprocess`):
//!
//! - **out-split** (`split`): reduce keys are original vertices. Hot
//!   in-degree vertices serialize on one reduce lane — fine for mildly
//!   skewed graphs.
//! - **in/out-split** (`split_in_out`, the paper's transformation to a
//!   bounded max degree): reduce keys are *sub-vertices*, spreading a
//!   hub's updates over many lanes; an extra per-iteration KVMSR
//!   aggregates the sub-cells into each root's total.
//!
//! The stored arrays keep the "raw sum" `S`; `pr = (1-d)/n + d·S` is
//! applied on read, avoiding an extra finalize sweep.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use drammalloc::{Layout, Region};
use kvmsr::{JobSpec, Kvmsr, MapTask, Outcome};
use udweave::{CombiningCache, Kind, LaneSet};
use updown_graph::preprocess::SplitGraph;
use updown_graph::DeviceSplit;
use updown_sim::{Engine, EventLabel, EventWord, MachineConfig, NetworkId, Metrics, VAddr};

/// PageRank configuration.
#[derive(Clone, Debug)]
pub struct PrConfig {
    pub machine: MachineConfig,
    /// Memory nodes available to DRAMmalloc (the Figure 12 sweep); `None`
    /// uses all nodes.
    pub mem_nodes: Option<u32>,
    pub iterations: u32,
    pub damping: f64,
    /// Use the scratchpad combining cache in `kv_reduce` instead of direct
    /// memory-side fetch-and-add (ablation).
    pub combining: bool,
    /// DRAMmalloc block size for the graph arrays (32 KiB in §4.1.1).
    pub block_size: u64,
    /// Record an event trace; the result carries the Chrome-trace JSON.
    pub trace: bool,
}

impl PrConfig {
    pub fn new(nodes: u32) -> PrConfig {
        PrConfig {
            machine: MachineConfig::with_nodes(nodes),
            mem_nodes: None,
            iterations: 2,
            damping: 0.85,
            combining: false,
            block_size: 32 * 1024,
            trace: false,
        }
    }
}

/// Result of a simulated PageRank run.
pub struct PrResult {
    /// PageRank values per original vertex (in the split graph's id space).
    pub values: Vec<f64>,
    /// Tick at which each iteration completed.
    pub iter_ticks: Vec<u64>,
    pub final_tick: u64,
    pub report: Metrics,
    /// Edge updates (emits) per iteration.
    pub updates_per_iter: u64,
    /// Chrome-trace JSON, present when the config asked for a trace.
    pub trace_json: Option<String>,
}

impl PrResult {
    /// Giga-updates per second at the configured clock.
    pub fn gups(&self, cfg: &MachineConfig) -> f64 {
        let secs = cfg.ticks_to_seconds(self.final_tick);
        (self.updates_per_iter as f64 * self.iter_ticks.len() as f64) / secs / 1e9
    }
}

#[derive(Clone, Default)]
struct PrMapSt {
    task: Option<MapTask>,
    slice_deg: u32,
    loaded: u32,
    contrib: f64,
    nl_va: u64,
    orig_deg: u64,
    root: u64,
}

#[derive(Clone, Default)]
struct RedSt {
    job: u32,
}

#[derive(Clone, Default)]
struct EpiSt {
    pending: u32,
    done_raw: u64,
}

#[derive(Clone, Default)]
struct AggSt {
    task: Option<MapTask>,
    pending: u32,
    sum: f64,
}

#[derive(Clone, Default)]
struct DriverSt {
    iter: u32,
}

/// What PageRank keeps per shard: the driver's read-back accumulators
/// (shard 0 only) and each reduce lane's combining-cache descriptor.
#[derive(Clone, Default)]
struct PrShard {
    iter_ticks: Vec<u64>,
    emitted: u64,
    reduce_cache: BTreeMap<u32, CombiningCache>,
}

/// PageRank's program table.
#[derive(Default)]
struct PrTable {
    /// Current iteration: a broadcast register, written by the driver
    /// between two jobs and read by every lane during them. Every read
    /// is in a job started after the store and finished before the next
    /// one (message-ordered), so it sees the same value at every thread
    /// count.
    cur_iter: std::sync::atomic::AtomicU32, // det-lint: allow — one writer, reads message-ordered after it
    /// `pr_driver::zero_done`, which the driver body it follows must name.
    zero_done: Option<EventLabel>,
}

impl Clone for PrTable {
    fn clone(&self) -> PrTable {
        PrTable {
            cur_iter: self.cur_iter.load(Ordering::Relaxed).into(),
            zero_done: self.zero_done,
        }
    }
}

updown_sim::snap_state!(PrMapSt, "pr.map", { task, slice_deg, loaded, contrib, nl_va, orig_deg, root });
updown_sim::snap_state!(RedSt, "pr.reduce", { job });
updown_sim::snap_state!(EpiSt, "pr.epilogue", { pending, done_raw });
updown_sim::snap_state!(AggSt, "pr.agg", { task, pending, sum });
updown_sim::snap_state!(DriverSt, "pr.driver", { iter });

/// The udspec declaration of the PageRank protocol: the KVMSR base plus
/// the worker, reduce-ack, flush, aggregation, and driver handlers
/// (docs/udspec.md).
pub fn spec() -> udweave::ProgramSpec {
    let mut spec = kvmsr::spec();
    {
        let km = spec.event_mut("kvmsr::kv_map");
        km.resumes("thread::PageRankWorker::returnRecord");
        km.resumes("thread::pr_agg::returnFs");
    }
    {
        // Combining-cache variant: 256 two-word slots per reduce lane.
        let kr = spec.event_mut("kvmsr::kv_reduce");
        kr.resumes("thread::pr_reduce::addAck");
        kr.spm_per_lane(512);
    }
    spec.event_mut("kvmsr::epilogue")
        .resumes("thread::pr_flush::ack");
    {
        let w = spec.thread("thread::PageRankWorker");
        w.event("returnRecord")
            .args(4, 4)
            .on("kvmsr::kv_map")
            .resumes("thread::PageRankWorker::returnPr")
            .send("kvmsr_launcher::task_done", |s| {
                s.args(1, 1).conditional();
            })
            .terminates();
        w.event("returnPr")
            .args(1, 1)
            .on("kvmsr::kv_map")
            .resumes("thread::PageRankWorker::returnRead");
        w.event("returnRead")
            .args(1, 8)
            .on("kvmsr::kv_map")
            .send("kvmsr::kv_reduce", |s| {
                s.args(3, 3).to_new().conditional().fanout_unbounded();
            })
            .send("kvmsr_launcher::task_done", |s| {
                s.args(1, 1).conditional();
            })
            .terminates();
    }
    spec.thread("thread::pr_reduce")
        .event("addAck")
        .args(1, 2)
        .on("kvmsr::kv_reduce")
        .terminates();
    spec.thread("thread::pr_flush")
        .event("ack")
        .args(1, 2)
        .on("kvmsr::epilogue")
        .replies()
        .terminates();
    {
        let agg = spec.thread("thread::pr_agg");
        agg.event("returnFs")
            .args(2, 2)
            .on("kvmsr::kv_map")
            .resumes("thread::pr_agg::returnCells");
        agg.event("returnCells")
            .args(1, 8)
            .on("kvmsr::kv_map")
            .send("kvmsr_launcher::task_done", |s| {
                s.args(1, 1).conditional();
            })
            .terminates();
    }
    {
        let d = spec.thread("pr_driver");
        d.event("updown_init")
            .args(0, 0)
            .from_host()
            .live_per_lane(1)
            .send("kvmsr_master::start", |s| {
                s.args(3, 3).to_new().with_cont();
            });
        d.event("zero_done")
            .args(2, 2)
            .on("pr_driver::updown_init")
            .send("kvmsr_master::start", |s| {
                s.args(3, 3).to_new().with_cont();
            });
        d.event("iter_done")
            .args(2, 2)
            .on("pr_driver::updown_init")
            .send("kvmsr_master::start", |s| {
                s.args(3, 3).to_new().with_cont().conditional();
            })
            .terminates();
        d.event("agg_done")
            .args(2, 2)
            .on("pr_driver::updown_init")
            .send("kvmsr_master::start", |s| {
                s.args(3, 3).to_new().with_cont().conditional();
            })
            .terminates();
    }
    spec
}

/// Predicted workload facts for `udcost` (docs/analysis.md): absolute
/// per-event execution counts and per-node work weights computed from the
/// split graph and machine shape alone — host arithmetic, zero simulation
/// ticks. The formulas mirror the `run_pagerank` driver: per iteration
/// one zero job over the accumulation cells, one map job over the
/// sub-vertices, and (in the in/out-split regime) one aggregation job
/// over the roots, all on the KVMSR skeleton (per-lane launch/epilogue,
/// tree collectives, two poll rounds).
pub fn workload(sg: &SplitGraph, cfg: &PrConfig) -> udweave::Workload {
    assert!(cfg.iterations >= 1, "PageRank needs iterations >= 1: with 0 the driver never stops");
    let iters = cfg.iterations as f64;
    let lanes = cfg.machine.total_lanes() as u64;
    let nodes = cfg.machine.nodes.max(1);
    let n = sg.n_orig as u64;
    let n_sub = sg.n_sub() as u64;
    let use_subs = sg.targets_are_subs;
    let n_acc = if use_subs { n_sub } else { n };
    let edges = sg.neighbors.len() as u64;
    // Per-map-task read traffic: one record read, then (for sub-vertices
    // with neighbors) one source read plus the neighbor list in 8-word
    // chunks; each neighbor becomes one emitted kv_reduce message.
    let mut nz = 0u64;
    let mut read_chunks = 0u64;
    for s in 0..sg.n_sub() {
        let d = sg.sub_degree(s) as u64;
        if d > 0 {
            nz += 1;
            read_chunks += d.div_ceil(8);
        }
    }
    // Aggregation job: per root one first_sub read, then the sub cells in
    // 8-word chunks.
    let mut agg_chunks = 0u64;
    if use_subs {
        for v in 0..n as usize {
            let subs = (sg.first_sub[v + 1] - sg.first_sub[v]) as u64;
            agg_chunks += subs.div_ceil(8).max(1);
        }
    }
    let jobs = if use_subs { 3.0 } else { 2.0 }; // zero + map (+ agg) per iter
    let keys_per_iter = n_acc + n_sub + if use_subs { n } else { 0 };

    let mut w = udweave::Workload::new();
    // Driver events, then the shared KVMSR skeleton (launch/tree/poll
    // formulas live with the runtime they describe), then the per-iter
    // reduce stream.
    w.count("pr_driver::updown_init", 1.0)
        .count("pr_driver::zero_done", iters)
        .count("pr_driver::iter_done", iters)
        .count("pr_driver::agg_done", if use_subs { iters } else { 0.0 });
    kvmsr::skeleton_workload(
        &mut w,
        &cfg.machine,
        jobs * iters,
        iters * keys_per_iter as f64,
        iters,
    );
    w.count("kvmsr::kv_reduce", iters * edges as f64);
    // Map-side worker chain and reduce-side acknowledgements.
    w.count("thread::PageRankWorker::returnRecord", iters * n_sub as f64)
        .count("thread::PageRankWorker::returnPr", iters * nz as f64)
        .count(
            "thread::PageRankWorker::returnRead",
            iters * read_chunks as f64,
        );
    if cfg.combining {
        // Combining cache: one flush ack per distinct cached cell.
        let cached = n_acc.min(256 * lanes);
        w.count("thread::pr_reduce::addAck", 0.0)
            .count("thread::pr_flush::ack", iters * cached as f64);
    } else {
        w.count("thread::pr_reduce::addAck", iters * edges as f64)
            .count("thread::pr_flush::ack", 0.0);
    }
    w.count(
        "thread::pr_agg::returnFs",
        if use_subs { iters * n as f64 } else { 0.0 },
    )
    .count(
        "thread::pr_agg::returnCells",
        if use_subs { iters * agg_chunks as f64 } else { 0.0 },
    );

    // Mean emit fan-out of the one data-dependent spawn edge.
    w.fanout(
        "thread::PageRankWorker::returnRead",
        "kvmsr::kv_reduce",
        edges as f64 / read_chunks.max(1) as f64,
    );
    // Task completion notifications target the task's own launcher lane.
    w.local("thread::PageRankWorker::returnRecord", "kvmsr_launcher::task_done")
        .local("thread::PageRankWorker::returnRead", "kvmsr_launcher::task_done")
        .local("thread::pr_agg::returnCells", "kvmsr_launcher::task_done");

    // Per-node weights: per-lane skeleton work and hash-bound reduces
    // spread uniformly; map tasks follow the Block key partition, so the
    // per-key worker chain lands on the key's block lane.
    let uniform = jobs * 3.0 * lanes as f64            // launch + relay
        + jobs * 2.0 * (2 * lanes - 1) as f64          // gather
        + 3.0 * lanes as f64                           // epilogue + 2 polls
        + edges as f64 * if cfg.combining { 1.0 } else { 2.0 };
    let mut weights = vec![uniform / nodes as f64; nodes as usize];
    let lanes_per_node = cfg.machine.lanes_per_node().max(1) as u64;
    let mut add_block = |keys: u64, per_key: &dyn Fn(u64) -> f64| {
        if keys == 0 {
            return;
        }
        let share = keys.div_ceil(lanes).max(1);
        for (i, wt) in weights.iter_mut().enumerate() {
            let lane_lo = i as u64 * lanes_per_node;
            let lane_hi = lane_lo + lanes_per_node;
            let key_lo = (lane_lo * share).min(keys);
            let key_hi = (lane_hi * share).min(keys);
            for k in key_lo..key_hi {
                *wt += per_key(k);
            }
        }
    };
    // zero job: kv_map + task_done per cell.
    add_block(n_acc, &|_| 2.0);
    // map job: kv_map + task_done + record, plus the per-degree chain.
    add_block(n_sub, &|k| {
        let d = sg.sub_degree(k as u32) as f64;
        3.0 + if d > 0.0 { 1.0 + (d / 8.0).ceil() } else { 0.0 }
    });
    // aggregation job: kv_map + task_done + first_sub + cell chunks.
    if use_subs {
        add_block(n, &|k| {
            let v = k as usize;
            let subs = (sg.first_sub[v + 1] - sg.first_sub[v]) as f64;
            3.0 + (subs / 8.0).ceil().max(1.0)
        });
    }
    w.weights(weights);
    w
}

/// Run PageRank over a pre-split graph (either splitting regime).
pub fn run_pagerank(sg: &SplitGraph, cfg: &PrConfig) -> PrResult {
    assert!(cfg.iterations >= 1, "PageRank needs iterations >= 1: with 0 the driver never stops");
    let mut eng = Engine::new(cfg.machine.clone());
    if cfg.trace {
        eng.enable_event_trace();
    }
    let nodes = cfg.machine.nodes;
    let mem_nodes = cfg.mem_nodes.unwrap_or(nodes).min(nodes);
    let layout = Layout::cyclic_bs(mem_nodes, cfg.block_size);

    let n = sg.n_orig as u64;
    let use_subs = sg.targets_are_subs;
    let dsg = DeviceSplit::load(
        &mut eng,
        sg,
        4,
        layout,
        layout,
        |_s, root, sdeg, odeg, nl_va| vec![root as u64, sdeg as u64, odeg as u64, nl_va.0],
    );
    // Accumulation cells: per-sub in the in/out-split regime, per-root in
    // the legacy regime. Double buffered across iterations.
    let n_acc = if use_subs { dsg.n_sub } else { n };
    let arrays = [
        Region::alloc_words(&mut eng, n_acc, layout).expect("S0"),
        Region::alloc_words(&mut eng, n_acc, layout).expect("S1"),
    ];
    // Per-root totals (the aggregation target); the legacy regime reads
    // the accumulation array directly instead.
    let totals = Region::alloc_words(&mut eng, n, layout).expect("totals");
    // first_sub index for the aggregation job.
    let fs = Region::alloc_words(&mut eng, n + 1, layout).expect("first_sub");

    let damping = cfg.damping;
    let base = (1.0 - damping) / n as f64;
    let s0 = (1.0 / n as f64 - base) / damping;
    {
        let mem = eng.mem_mut();
        for v in 0..n {
            mem.write_f64(totals.word(v), s0).unwrap();
            if !use_subs {
                mem.write_f64(arrays[0].word(v), s0).unwrap();
            }
        }
        for v in 0..=n {
            mem.write_u64(fs.word(v), sg.first_sub[v as usize] as u64)
                .unwrap();
        }
    }

    let rt = Kvmsr::install(&mut eng);
    let set = LaneSet::all(&cfg.machine);

    let shard = eng.shard_slot::<PrShard>();
    let table = eng.table(PrTable::default());
    let parity = move |ctx: &updown_sim::EventCtx<'_>| {
        (ctx.table(table).cur_iter.load(Ordering::Relaxed) % 2) as usize
    };

    // ---- the kv_map / returnRead structure of Listing 3 -----------------
    let ret_nl = udweave::event::<PrMapSt>(&mut eng, "PageRankWorker::returnRead", move |ctx, st| {
        let mut task = st.task.expect("returnRead before kv_map");
        let nargs = ctx.args().len();
        let contrib = st.contrib.to_bits();
        for i in 0..nargs {
            let dst = ctx.arg(i);
            rt.emit(ctx, &mut task, dst, &[contrib]);
        }
        ctx.charge(nargs as u64);
        st.loaded += nargs as u32;
        st.task = Some(task);
        if st.loaded == st.slice_deg {
            rt.map_done(ctx, &task);
            ctx.yield_terminate();
        }
    });
    let ret_s = udweave::event::<PrMapSt>(&mut eng, "PageRankWorker::returnPr", move |ctx, st| {
        let s_val = ctx.argf(0);
        st.contrib = (base + damping * s_val) / st.orig_deg as f64;
        ctx.charge(4); // fp math
        let mut off = 0u32;
        while off < st.slice_deg {
            let k = (st.slice_deg - off).min(8);
            ctx.send_dram_read(VAddr(st.nl_va).word(off as u64), k as usize, ret_nl);
            off += k;
        }
    });
    let ret_rec = udweave::event::<PrMapSt>(&mut eng, "PageRankWorker::returnRecord", move |ctx, st| {
        st.root = ctx.arg(0);
        st.slice_deg = ctx.arg(1) as u32;
        st.orig_deg = ctx.arg(2);
        st.nl_va = ctx.arg(3);
        if st.slice_deg == 0 || st.orig_deg == 0 {
            let task = st.task.expect("record before kv_map");
            rt.map_done(ctx, &task);
            ctx.yield_terminate();
            return;
        }
        // Read the root's total from the previous iteration.
        let src = if use_subs {
            totals.word(st.root)
        } else {
            arrays[parity(ctx)].word(st.root)
        };
        ctx.send_dram_read(src, 1, ret_s);
    });

    // kv_reduce: accumulate into the next array (key = sub or root id).
    let combining = cfg.combining;
    // Acked flush: the epilogue completes only after every drained entry's
    // fetch-and-add has been serviced, so the aggregate job (or the next
    // iteration) cannot read a cell that is still missing cached updates.
    // Direct (non-combining) reduces ack their fetch-and-add so the
    // aggregate job / next iteration can never read past an in-flight
    // remote update.
    let red_ack = udweave::event::<RedSt>(&mut eng, "pr_reduce::addAck", move |ctx, st| {
        ctx.charge(1);
        rt.reduce_done(ctx, kvmsr::JobId(st.job));
        ctx.yield_terminate();
    });
    let flush_ack = udweave::event::<EpiSt>(&mut eng, "pr_flush::ack", move |ctx, st| {
        st.pending -= 1;
        ctx.charge(1);
        if st.pending == 0 {
            let done = EventWord::from_raw(st.done_raw);
            ctx.send_event(done, [0u64, 0], EventWord::IGNORE);
            ctx.yield_terminate();
        }
    });
    let map_job = rt.define_job(
        &mut eng,
        JobSpec::new("pagerank", set, move |ctx, task, _rt| {
            let s = task.key;
            ctx.state_mut::<PrMapSt>().task = Some(*task);
            ctx.send_dram_read(dsg.sub(s), 4, ret_rec);
            Outcome::Async
        })
        .with_reduce(move |ctx, task, vals, _rt| {
            let next = arrays[1 - parity(ctx)];
            let va = next.word(task.key);
            let delta = f64::from_bits(vals[0]);
            ctx.charge(1);
            if combining {
                let lane = ctx.nwid().0;
                let cache = match ctx.shard_state(shard).reduce_cache.get(&lane) {
                    Some(c) => *c,
                    None => {
                        let c = CombiningCache::new(ctx, 256, Kind::F64);
                        ctx.shard_state(shard).reduce_cache.insert(lane, c);
                        c
                    }
                };
                cache.add_f64(ctx, va, delta);
                Outcome::Done
            } else {
                ctx.state_mut::<RedSt>().job = task.job.0;
                ctx.dram_fetch_add_f64(va, delta, Some(red_ack), None);
                Outcome::Async
            }
        })
        .epilogue(move |ctx, done| {
            if !combining {
                return Outcome::Done;
            }
            let lane = ctx.nwid().0;
            let cache = ctx.shard_state(shard).reduce_cache.get(&lane).copied();
            let entries = match cache {
                Some(c) => c.drain(ctx),
                None => Vec::new(),
            };
            if entries.is_empty() {
                return Outcome::Done;
            }
            let st = ctx.state_mut::<EpiSt>();
            st.pending = entries.len() as u32;
            st.done_raw = done.raw();
            for (va, bits) in entries {
                ctx.dram_fetch_add_f64(va, f64::from_bits(bits), Some(flush_ack), None);
            }
            Outcome::Async
        }),
    );
    // Zero the accumulation target before each sweep.
    let zero_job = kvmsr::define_do_all(&mut eng, &rt, "pagerank_zero", set, move |ctx, key, _arg| {
        let next = arrays[1 - parity(ctx)];
        ctx.send_dram_write(next.word(key), &[0f64.to_bits()], None);
    });
    // In/out-split regime: sum each root's sub-cells into `totals`.
    let agg_cells = udweave::event::<AggSt>(&mut eng, "pr_agg::returnCells", move |ctx, st| {
        let nargs = ctx.args().len();
        for i in 0..nargs {
            st.sum += ctx.argf(i);
        }
        ctx.charge(nargs as u64 + 1);
        st.pending -= 1;
        if st.pending == 0 {
            let task = st.task.expect("cells before map");
            ctx.send_dram_write(totals.word(task.key), &[st.sum.to_bits()], None);
            rt.map_done(ctx, &task);
            ctx.yield_terminate();
        }
    });
    let agg_fs = udweave::event::<AggSt>(&mut eng, "pr_agg::returnFs", move |ctx, st| {
        let a = ctx.arg(0);
        let b = ctx.arg(1);
        debug_assert!(b > a, "every vertex has at least one sub");
        // cur_iter has not advanced yet: the freshly accumulated array
        // is 1 - parity.
        let acc = arrays[1 - parity(ctx)];
        let mut off = a;
        while off < b {
            let k = (b - off).min(8);
            st.pending += 1;
            ctx.send_dram_read(acc.word(off), k as usize, agg_cells);
            off += k;
        }
    });
    let agg_job = rt.define_job(
        &mut eng,
        JobSpec::new("pagerank_aggregate", set, move |ctx, task, _rt| {
            ctx.state_mut::<AggSt>().task = Some(*task);
            ctx.send_dram_read(fs.word(task.key), 2, agg_fs);
            Outcome::Async
        }),
    );

    // ---- iteration driver -------------------------------------------------
    let iters = cfg.iterations;
    let n_sub = dsg.n_sub;
    let mut driver = udweave::ThreadType::<DriverSt>::new("pr_driver");
    let iter_done_body = move |ctx: &mut updown_sim::EventCtx<'_>, st: &mut DriverSt| {
        let now = ctx.now();
        ctx.shard_state(shard).iter_ticks.push(now);
        st.iter += 1;
        ctx.table(table).cur_iter.store(st.iter, Ordering::Relaxed);
        if st.iter == iters {
            ctx.stop();
            ctx.yield_terminate();
        } else {
            let zd = ctx.table(table).zero_done.expect("bound before the run");
            let cont = ctx.self_event(zd);
            rt.start_from(ctx, zero_job, n_acc, 0, cont);
        }
    };
    let agg_done_l = driver.event(&mut eng, "agg_done", iter_done_body);
    let map_done_l = driver.event(&mut eng, "iter_done", move |ctx, st| {
        ctx.shard_state(shard).emitted = ctx.arg(1);
        if use_subs {
            let cont = ctx.self_event(agg_done_l);
            rt.start_from(ctx, agg_job, n, 0, cont);
        } else {
            iter_done_body(ctx, st);
        }
    });
    let zero_done_l = driver.event(&mut eng, "zero_done", move |ctx, _st| {
        let cont = ctx.self_event(map_done_l);
        rt.start_from(ctx, map_job, n_sub, 0, cont);
    });
    eng.table_mut(table).zero_done = Some(zero_done_l);
    let init_l = driver.event(&mut eng, "updown_init", move |ctx, _st| {
        let cont = ctx.self_event(zero_done_l);
        rt.start_from(ctx, zero_job, n_acc, 0, cont);
    });

    eng.send(EventWord::new(NetworkId(0), init_l), [], EventWord::IGNORE);
    let report = eng.run();

    // Read back: pr(v) = base + d * S_total(v).
    let mem = eng.mem();
    let values: Vec<f64> = if use_subs {
        (0..n)
            .map(|v| base + damping * mem.read_f64(totals.word(v)).unwrap())
            .collect()
    } else {
        let final_parity = (iters % 2) as usize;
        (0..n)
            .map(|v| base + damping * mem.read_f64(arrays[final_parity].word(v)).unwrap())
            .collect()
    };
    // Only the driver's shard wrote these; the fold is the general rule.
    let iter_ticks_out: Vec<u64> =
        eng.shard_states(shard).flat_map(|s| s.iter_ticks.iter().copied()).collect();
    let emitted_out = eng.shard_states(shard).map(|s| s.emitted).max().unwrap_or(0);
    let trace_json = cfg.trace.then(|| eng.chrome_trace_json());
    PrResult {
        values,
        iter_ticks: iter_ticks_out,
        final_tick: report.final_tick,
        report,
        updates_per_iter: emitted_out,
        trace_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use updown_graph::algorithms;
    use updown_graph::generators::{erdos_renyi, rmat, RmatParams};
    use updown_graph::preprocess::{dedup_sort, split, split_in_out};
    use updown_graph::Csr;

    fn check_result(res: &PrResult, g: &Csr, iters: u32, damping: f64) {
        let oracle = algorithms::pagerank(g, iters, damping);
        for (v, &ov) in oracle.iter().enumerate() {
            assert!(
                (res.values[v] - ov).abs() < 1e-9,
                "v{} sim={} oracle={}",
                v,
                res.values[v],
                oracle[v]
            );
        }
        assert_eq!(res.iter_ticks.len(), iters as usize);
    }

    fn check_vs_oracle(g: &Csr, max_deg: u32, iters: u32, machine: MachineConfig, combining: bool) {
        let mut cfg = PrConfig::new(1);
        cfg.machine = machine;
        cfg.iterations = iters;
        cfg.combining = combining;
        // Both splitting regimes must agree with the oracle.
        let res = run_pagerank(&split(g, max_deg), &cfg);
        check_result(&res, g, iters, cfg.damping);
        let res = run_pagerank(&split_in_out(g, max_deg), &cfg);
        check_result(&res, g, iters, cfg.damping);
    }

    #[test]
    fn matches_oracle_small_rmat() {
        let g = Csr::from_edges(&dedup_sort(rmat(7, RmatParams::default(), 1)));
        check_vs_oracle(&g, 8, 2, MachineConfig::small(2, 2, 8), false);
    }

    #[test]
    fn matches_oracle_er_three_iters() {
        let g = Csr::from_edges(&dedup_sort(erdos_renyi(7, 8, 2)));
        check_vs_oracle(&g, 16, 3, MachineConfig::small(1, 2, 16), false);
    }

    #[test]
    fn combining_cache_variant_matches() {
        let g = Csr::from_edges(&dedup_sort(rmat(7, RmatParams::default(), 5)));
        check_vs_oracle(&g, 8, 2, MachineConfig::small(2, 2, 8), true);
    }

    #[test]
    fn in_out_split_bounds_reduce_hotspots() {
        // A star graph: every vertex points at vertex 0 (in-degree n-1).
        let n = 257u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (v, 0)).chain([(0, 1)]).collect();
        let g = Csr::from_edges(&updown_graph::EdgeList::new(n, edges));
        let sg = split_in_out(&g, 16);
        // Vertex 0 must have ceil(256/16) = 16 subs.
        assert_eq!(sg.subs_of(0).len(), 16);
        // No sub id appears more than ~16 times as a target.
        let mut counts = std::collections::HashMap::new();
        for &t in &sg.neighbors {
            *counts.entry(t).or_insert(0u32) += 1;
        }
        assert!(counts.values().all(|&c| c <= 16));
        // And the distributed run is still exact.
        let mut cfg = PrConfig::new(1);
        cfg.machine = MachineConfig::small(2, 2, 8);
        cfg.iterations = 2;
        let res = run_pagerank(&sg, &cfg);
        check_result(&res, &g, 2, cfg.damping);
    }

    #[test]
    #[should_panic(expected = "PageRank needs iterations >= 1")]
    fn zero_iterations_is_refused_not_a_hang() {
        let g = Csr::from_edges(&dedup_sort(rmat(5, RmatParams::default(), 1)));
        let mut cfg = PrConfig::new(1);
        cfg.machine = MachineConfig::small(1, 1, 4);
        cfg.iterations = 0;
        run_pagerank(&split_in_out(&g, 8), &cfg);
    }

    #[test]
    fn more_nodes_scale() {
        let g = Csr::from_edges(&dedup_sort(rmat(12, RmatParams::default(), 4)));
        let sg = split_in_out(&g, 32);
        let t = |nodes: u32| {
            let mut cfg = PrConfig::new(nodes);
            cfg.machine = MachineConfig::small(nodes, 2, 8);
            cfg.iterations = 1;
            run_pagerank(&sg, &cfg).final_tick
        };
        let t1 = t(1);
        let t8 = t(8);
        assert!(
            t8 * 2 < t1,
            "8 nodes ({t8}) should be well over 2x faster than 1 ({t1})"
        );
    }
}
