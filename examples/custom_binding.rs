//! Computation binding is orthogonal to the program (Figure 1): the same
//! skewed KVMSR job runs under Block, Cyclic, PBMW, and a custom
//! application binding, and only the completion time changes.
//!
//! `cargo run --release --example custom_binding`

use std::sync::Arc;

use kvmsr::{JobSpec, Kvmsr, MapBinding, Outcome, ReduceBinding};
use udweave::prelude::*;
use updown_sim::{Engine, MachineConfig};

fn run(map_binding: MapBinding, label: &str) {
    let mut eng = Engine::new(MachineConfig::small(1, 4, 16));
    let rt = Kvmsr::install(&mut eng);
    let set = LaneSet::all(eng.config());
    // Skewed work: the first 1/16th of keys is 50x as expensive — the
    // situation PBMW exists for (§4.3.3).
    let job = rt.define_job(
        &mut eng,
        JobSpec::new("skewed", set, move |ctx, task, rt| {
            let cost = if task.key < 256 { 2000 } else { 40 };
            ctx.charge(cost);
            rt.emit(ctx, task, task.key % 97, &[1]);
            Outcome::Done
        })
        .map_binding(map_binding)
        // The paper's pseudocode: LaneID = hash(key) % NRLanes + 1stLane.
        .reduce_binding(ReduceBinding::Custom(Arc::new(|key, set| {
            set.lane((kvmsr::key_hash(key) % set.count as u64) as u32)
        })))
        .with_reduce(|ctx, _t, _v, _rt| {
            ctx.charge(5);
            Outcome::Done
        }),
    );
    let done = eng.shard_slot::<u64>();
    let fin = simple_event(&mut eng, "fin", move |ctx| {
        *ctx.shard_state(done) = ctx.arg(0);
        ctx.stop();
    });
    let (evw, args) = rt.start_msg(&eng, job, 4096, 0);
    eng.send(evw, args, EventWord::new(NetworkId(0), fin));
    let r = eng.run();
    assert_eq!(eng.shard_states(done).sum::<u64>(), 4096);
    println!("{label:>28}: {:>10} ticks", r.final_tick);
}

fn main() {
    println!("same program, four computation bindings (4096 skewed keys, 1024 lanes):\n");
    run(MapBinding::Block, "Block (paper default)");
    run(MapBinding::Cyclic, "Cyclic");
    run(MapBinding::Pbmw { chunk: 16 }, "PBMW chunk=16");
    run(MapBinding::Pbmw { chunk: 4 }, "PBMW chunk=4");
}
