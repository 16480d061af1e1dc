//! Library abstraction micro-benchmarks: KVMSR launch overhead vs lane
//! count, SHT operation throughput, combining cache, and the collective
//! tree.

use bench::timing::bench_host;

use drammalloc::Layout;
use kvmsr::{JobSpec, Kvmsr, Outcome};
use udweave::{simple_event, LaneSet, TreeComm};
use updown_sim::{Engine, EventWord, MachineConfig, NetworkId};

/// Simulated ticks to launch-and-retire an empty KVMSR job over `lanes`.
fn kvmsr_launch_ticks(lanes: u32) -> u64 {
    let mut eng = Engine::new(MachineConfig::small(lanes.div_ceil(128).max(1), 4, 32));
    let rt = Kvmsr::install(&mut eng);
    let set = LaneSet::new(NetworkId(0), lanes);
    let job = rt.define_job(&mut eng, JobSpec::new("empty", set, |_c, _t, _r| Outcome::Done));
    let fin = simple_event(&mut eng, "fin", |ctx| ctx.stop());
    let (evw, args) = rt.start_msg(&eng, job, 0, 0);
    eng.send(evw, args, EventWord::new(NetworkId(0), fin));
    eng.run().final_tick
}

fn sht_insert_run(n: u64) -> usize {
    let mut eng = Engine::new(MachineConfig::small(1, 2, 8));
    let lib = updown_graph::ShtLib::install(&mut eng);
    let set = LaneSet::all(eng.config());
    let sht = lib.create(&mut eng, set, 64, 16, Layout::cyclic(1));
    let go = simple_event(&mut eng, "go", move |ctx| {
        for k in 0..n {
            lib.insert(ctx, sht, k * 7 + 1, k, EventWord::IGNORE);
        }
        ctx.yield_terminate();
    });
    eng.send(EventWord::new(NetworkId(0), go), [], EventWord::IGNORE);
    eng.run();
    lib.len(&eng, sht)
}

fn tree_broadcast_ticks(lanes: u32) -> u64 {
    let mut eng = Engine::new(MachineConfig::small(lanes.div_ceil(128).max(1), 4, 32));
    let user = simple_event(&mut eng, "user", |ctx| {
        ctx.send_reply([1u64, 0]);
        ctx.yield_terminate();
    });
    let tree = TreeComm::install(&mut eng, "t", 8);
    let set = LaneSet::new(NetworkId(0), lanes);
    let done = eng.shard_slot::<bool>();
    let fin = simple_event(&mut eng, "fin", move |ctx| {
        *ctx.shard_state(done) = true;
        ctx.stop();
    });
    let kick = simple_event(&mut eng, "kick", move |ctx| {
        let args = tree.start_args(set, user, &[]);
        let cont = EventWord::new(ctx.nwid(), fin);
        ctx.send_event(tree.start_evw(set), args, cont);
        ctx.yield_terminate();
    });
    eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
    let r = eng.run();
    assert!(eng.shard_states(done).any(|&d| d));
    r.final_tick
}

fn main() {
    // Report the simulated launch-overhead curve once (this is the
    // interesting number; the host-time loops below measure sim speed).
    println!("\nKVMSR empty-job launch overhead (simulated ticks):");
    for lanes in [16u32, 128, 1024, 4096] {
        println!("  {lanes:>6} lanes: {:>8}", kvmsr_launch_ticks(lanes));
    }
    println!("Collective tree broadcast+ack (simulated ticks):");
    for lanes in [16u32, 128, 1024, 4096] {
        println!("  {lanes:>6} lanes: {:>8}", tree_broadcast_ticks(lanes));
    }

    for lanes in [16u32, 1024] {
        bench_host(&format!("kvmsr_launch/{lanes}_lanes"), 10, || {
            kvmsr_launch_ticks(lanes)
        });
    }
    bench_host("sht_insert_512", 10, || {
        let n = sht_insert_run(512);
        assert_eq!(n, 512);
        n
    });
}
