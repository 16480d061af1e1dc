//! Quickstart: the Listing-2 call-return composition plus a tiny KVMSR
//! histogram — the "hello world" of KVMSR+UDWeave.
//!
//! Run with: `cargo run --release --example quickstart`

use kvmsr::{JobSpec, Kvmsr, Outcome};
use udweave::prelude::*;
use updown_sim::{Engine, EventLabel, MachineConfig, TraceEvent};

fn main() {
    // A 2-node machine, 32 accelerators x 64 lanes each.
    let mut eng = Engine::new(MachineConfig::with_nodes(2));
    eng.enable_event_trace();

    // ---- Listing 2: explicit continuations -----------------------------
    // e1 calls e2 on the next lane with continuation e3; e2 replies, which
    // runs e3 back in e1's thread.
    let e3 = simple_event(&mut eng, "e3", |ctx| ctx.yield_terminate());
    let e2 = simple_event(&mut eng, "e2", |ctx| {
        ctx.send_reply([]);
        ctx.yield_terminate();
    });
    let e1 = simple_event(&mut eng, "e1", move |ctx| {
        let evw = evw_new(ctx.nwid().next(), e2);
        let ct = ctx.self_event(e3);
        ctx.send_event(evw, [0, 1], ct);
    });
    eng.send(evw_new(NetworkId(0), e1), [], IGNRCONT);
    eng.run();
    // The event trace records each executed event as one `Exec` row: its
    // handler, lane, thread and busy span in ticks.
    for ev in eng.event_trace() {
        if let TraceEvent::Exec { lane, label, tid, start, end } = *ev {
            let name = eng.event_name(EventLabel(label));
            println!("{name}: lane {lane}, thread {tid}, ticks {start}..{end}");
        }
    }

    // ---- a 4096-key histogram over the whole machine --------------------
    let hist = eng
        .mem_mut()
        .alloc(16 * 8, 0, 2, 4096)
        .expect("histogram cells");
    let rt = Kvmsr::install(&mut eng);
    let set = LaneSet::all(eng.config());
    let job = rt.define_job(
        &mut eng,
        JobSpec::new("histogram", set, move |ctx, task, rt| {
            rt.emit(ctx, task, task.key % 16, &[1]);
            Outcome::Done
        })
        .with_reduce(move |ctx, task, vals, _rt| {
            ctx.dram_fetch_add_u64(VAddr(hist.0).word(task.key), vals[0], None, None);
            Outcome::Done
        }),
    );
    // Shard state: the engine keeps one value per node and lends it to the
    // handler as `&mut`; the host reads it back, in node order, after the run.
    let done = eng.shard_slot::<bool>();
    let fin = simple_event(&mut eng, "done", move |ctx| {
        *ctx.shard_state(done) = true;
        ctx.stop();
    });
    let (evw, args) = rt.start_msg(&eng, job, 4096, 0);
    eng.send(evw, args, EventWord::new(NetworkId(0), fin));
    let report = eng.run();

    assert!(eng.shard_states(done).any(|&d| d));
    println!("\nhistogram over {} lanes:", eng.config().total_lanes());
    for b in 0..16u64 {
        let v = eng.mem().read_u64(VAddr(hist.0).word(b)).unwrap();
        assert_eq!(v, 256);
        println!("  bucket {b:2}: {v}");
    }
    println!(
        "\nsimulated {} events in {} ticks ({:.3} ms of machine time)",
        report.stats.events_executed,
        report.final_tick,
        eng.config().ticks_to_seconds(report.final_tick) * 1e3
    );
}
