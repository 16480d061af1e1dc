//! Design-choice ablations called out in DESIGN.md §5, reported in
//! *simulated ticks* (printed) with host wall time measured alongside:
//!
//! 1. PR reduce: direct fetch-and-add vs combining cache.
//! 2. TC reduce: dual-stream vs scratchpad-reuse (§4.3.3).
//! 3. Map binding under skew: Block vs Cyclic vs PBMW (§2.3/§4.3.3).
//! 4. KVMSR in-flight window sweep.

use bench::timing::bench_host;

use kvmsr::{JobSpec, Kvmsr, MapBinding, Outcome};
use udweave::{simple_event, LaneSet};
use updown_apps::pagerank::{run_pagerank, PrConfig};
use updown_apps::tc::{run_tc, TcConfig, TcVariant};
use updown_graph::generators::{rmat, RmatParams};
use updown_graph::preprocess::{dedup_sort, split_in_out};
use updown_graph::Csr;
use updown_sim::{Engine, EventWord, MachineConfig, NetworkId};

fn pr_ticks(combining: bool) -> u64 {
    let g = Csr::from_edges(&dedup_sort(rmat(11, RmatParams::default(), 9)));
    let sg = split_in_out(&g, 64);
    let mut cfg = PrConfig::new(2);
    cfg.machine = MachineConfig::small(2, 4, 16);
    cfg.iterations = 1;
    cfg.combining = combining;
    run_pagerank(&sg, &cfg).final_tick
}

fn tc_ticks(variant: TcVariant) -> u64 {
    let mut g = Csr::from_edges(&dedup_sort(rmat(9, RmatParams::default(), 9).symmetrize()));
    g.sort_neighbors();
    let mut cfg = TcConfig::new(1);
    cfg.machine = MachineConfig::small(1, 4, 16);
    cfg.variant = variant;
    run_tc(&g, &cfg).final_tick
}

fn skew_job_ticks(binding: MapBinding, window: u32) -> u64 {
    let mut eng = Engine::new(MachineConfig::small(1, 4, 16));
    let rt = Kvmsr::install(&mut eng);
    let set = LaneSet::all(eng.config());
    let job = rt.define_job(
        &mut eng,
        JobSpec::new("skew", set, move |ctx, task, _rt| {
            // The first block of keys is 50x more expensive.
            ctx.charge(if task.key < 512 { 2000 } else { 40 });
            Outcome::Done
        })
        .map_binding(binding)
        .window(window),
    );
    let done = eng.shard_slot::<bool>();
    let fin = simple_event(&mut eng, "fin", move |ctx| {
        *ctx.shard_state(done) = true;
        ctx.stop();
    });
    let (evw, args) = rt.start_msg(&eng, job, 8192, 0);
    eng.send(evw, args, EventWord::new(NetworkId(0), fin));
    let r = eng.run();
    assert!(eng.shard_states(done).any(|&d| d));
    r.final_tick
}

/// Window ablation needs a latency-bound job: each map chains a remote
/// DRAM read, so in-flight depth controls latency hiding.
fn window_job_ticks(window: u32) -> u64 {
    use drammalloc::{Layout, Region};
    use kvmsr::MapTask;
    #[derive(Clone, Default)]
    struct St {
        task: Option<MapTask>,
    }
    updown_sim::snap_state!(St, "ablation.window", { task });
    let mut eng = Engine::new(MachineConfig::small(4, 2, 8));
    let data = Region::alloc_words(&mut eng, 8192, Layout::cyclic_bs(4, 32 * 1024)).unwrap();
    let rt = Kvmsr::install(&mut eng);
    let ret = udweave::event::<St>(&mut eng, "ret", move |ctx, st| {
        let t = st.task.unwrap();
        rt.map_done(ctx, &t);
        ctx.yield_terminate();
    });
    let set = LaneSet::all(eng.config());
    let job = rt.define_job(
        &mut eng,
        JobSpec::new("mem", set, move |ctx, task, _rt| {
            ctx.state_mut::<St>().task = Some(*task);
            ctx.send_dram_read(data.word(task.key % 8192), 1, ret);
            Outcome::Async
        })
        .window(window),
    );
    let done = eng.shard_slot::<bool>();
    let fin = simple_event(&mut eng, "fin", move |ctx| {
        *ctx.shard_state(done) = true;
        ctx.stop();
    });
    let (evw, args) = rt.start_msg(&eng, job, 8192, 0);
    eng.send(evw, args, EventWord::new(NetworkId(0), fin));
    let r = eng.run();
    assert!(eng.shard_states(done).any(|&d| d));
    r.final_tick
}

fn main() {
    println!("\n--- ablation: PR reduce accumulation (simulated ticks) ---");
    let direct = pr_ticks(false);
    let combining = pr_ticks(true);
    println!("  direct fetch-add: {direct}");
    println!("  combining cache:  {combining}");

    println!("--- ablation: TC reduce variant (simulated ticks) ---");
    let dual = tc_ticks(TcVariant::DualStream);
    let spd = tc_ticks(TcVariant::SpdReuse);
    println!("  dual-stream: {dual}");
    println!("  spd-reuse:   {spd}");

    println!("--- ablation: map binding under 50x key skew (simulated ticks) ---");
    for (name, b) in [
        ("Block", MapBinding::Block),
        ("Cyclic", MapBinding::Cyclic),
        ("PBMW/16", MapBinding::Pbmw { chunk: 16 }),
        ("PBMW/4", MapBinding::Pbmw { chunk: 4 }),
    ] {
        println!("  {name:>8}: {}", skew_job_ticks(b, 64));
    }

    println!("--- ablation: in-flight window, latency-bound job (simulated ticks) ---");
    for w in [1u32, 4, 16, 64, 256] {
        println!("  window {w:>3}: {}", window_job_ticks(w));
    }

    bench_host("ablation_skew_block", 10, || {
        skew_job_ticks(MapBinding::Block, 64)
    });
    bench_host("ablation_skew_pbmw", 10, || {
        skew_job_ticks(MapBinding::Pbmw { chunk: 16 }, 64)
    });
}
