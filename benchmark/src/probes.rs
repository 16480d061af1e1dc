//! Layer probes: small drivers over one layer's public API, in the style
//! of `crates/bench/benches/engine_micro.rs`. Each reports the median of
//! [`ITERS`] iterations as host nanoseconds per operation. They run once
//! per traced sample, outside the timed region, and do not depend on the
//! workload or the seed: a probe that moves between two commits means the
//! layer's code moved.

use crate::spans::Spans;
use crate::stats::median;
use crate::Layer;
use std::hint::black_box;
use std::sync::Arc;
use updown_graph::preprocess::SplitGraph;
use updown_graph::DeviceSplit;
use updown_sim::{
    CalendarQueue, Engine, EventCtx, EventWord, Fabric, MachineConfig, NetworkConfig, NetworkId,
    Nics, TopologyKind, TranslationDescriptor, VAddr,
};

/// Iterations per probe; the reported figure is their median.
pub const ITERS: usize = 15;
/// Iterations at `cargo test` size.
pub const TINY_ITERS: usize = 3;

/// Median over `iters` calls of `f`, which returns (operations, seconds
/// spent on them), as nanoseconds per operation.
fn probe(
    spans: &mut Spans,
    iters: usize,
    name: &'static str,
    mut f: impl FnMut() -> (u64, f64),
) -> f64 {
    spans.begin(name);
    let per_op: Vec<f64> = (0..iters)
        .map(|_| {
            let (ops, secs) = f();
            secs * 1e9 / ops.max(1) as f64
        })
        .collect();
    spans.end();
    median(&per_op)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

/// `CalendarQueue` churn: a standing population of entries, each pop
/// followed by a push at a delay drawn from a menu that spans the
/// same-tick path, the ring, and (5000 > the 2048-slot ring) the overflow
/// rung. One operation = one pop + one push.
fn calendar_churn() -> (u64, f64) {
    const POPULATION: u32 = 4096;
    const OPS: u64 = 200_000;
    const MENU: [u64; 8] = [0, 1, 2, 7, 30, 200, 1000, 5000];
    let mut q = CalendarQueue::new();
    for i in 0..POPULATION {
        q.push(u64::from(i % 64), i);
    }
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let ((), secs) = timed(|| {
        for _ in 0..OPS {
            let (t, payload) = q.pop().expect("population never drains");
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.push(t + MENU[(rng >> 61) as usize], payload);
        }
    });
    black_box(q.len());
    (OPS, secs)
}

/// Trivial-handler dispatch: short-lived events sprayed round-robin over
/// 16 lanes of one node, each touching thread state and two scratchpad
/// words. One operation = one event.
fn lane_dispatch() -> (u64, f64) {
    const LANES: u32 = 16;
    const MSGS: u32 = 16384;
    let mut eng = Engine::new(MachineConfig::small(1, 1, LANES));
    let work = eng.register(
        "work",
        Arc::new(|ctx: &mut EventCtx| {
            let x = ctx.arg(0);
            let st = ctx.state_mut::<u64>();
            *st = st.wrapping_add(x);
            let off = (x % 64) as u32;
            let old = ctx.spm_read(off);
            ctx.spm_write(off, old.wrapping_add(x));
            ctx.yield_terminate();
        }),
    );
    let spray = eng.register(
        "spray",
        Arc::new(move |ctx: &mut EventCtx| {
            for i in 0..MSGS {
                ctx.send_event(
                    EventWord::new(NetworkId(i % LANES), work),
                    [u64::from(i) + 1],
                    EventWord::IGNORE,
                );
            }
            ctx.yield_terminate();
        }),
    );
    eng.send(EventWord::new(NetworkId(0), spray), [], EventWord::IGNORE);
    let (m, secs) = timed(|| eng.run());
    (m.stats.events_executed, secs)
}

/// One handler sending 4096 messages to empty sinks on 64 lanes: the
/// schedule-out path with no handler body. One operation = one event.
fn fanout() -> (u64, f64) {
    const LANES: u32 = 64;
    const MSGS: u32 = 4096;
    let mut eng = Engine::new(MachineConfig::small(1, 1, LANES));
    let sink = eng.register("sink", Arc::new(|ctx: &mut EventCtx| ctx.yield_terminate()));
    let fan = eng.register(
        "fan",
        Arc::new(move |ctx: &mut EventCtx| {
            for i in 0..MSGS {
                ctx.send_event(
                    EventWord::new(NetworkId(i % LANES), sink),
                    [u64::from(i)],
                    EventWord::IGNORE,
                );
            }
            ctx.yield_terminate();
        }),
    );
    eng.send(EventWord::new(NetworkId(0), fan), [], EventWord::IGNORE);
    let (m, secs) = timed(|| eng.run());
    (m.stats.events_executed, secs)
}

/// 16-node ping-pong: every hop crosses the inter-node latency, so each
/// lands in a later conservative window and rides mailbox exchange and
/// merge. One operation = one window on one shard.
fn window_pingpong() -> (u64, f64) {
    const NODES: u32 = 16;
    const LANES_PER_NODE: u32 = 4;
    const BALLS: u32 = 16;
    const HOPS: u64 = 512;
    let total = NODES * LANES_PER_NODE;
    let mut eng = Engine::new(MachineConfig::small(NODES, 1, LANES_PER_NODE));
    let bounce = eng.register(
        "bounce",
        Arc::new(move |ctx: &mut EventCtx| {
            let remaining = ctx.arg(0);
            if remaining > 0 {
                let next = (ctx.nwid().0 + LANES_PER_NODE) % total;
                let dst = EventWord::new(NetworkId(next), ctx.cur_evw().label());
                ctx.send_event(dst, [remaining - 1], EventWord::IGNORE);
            }
            ctx.yield_terminate();
        }),
    );
    for b in 0..BALLS {
        eng.send(
            EventWord::new(NetworkId(b * LANES_PER_NODE % total), bounce),
            [HOPS],
            EventWord::IGNORE,
        );
    }
    let (m, secs) = timed(|| eng.run());
    (m.stats.windows * u64::from(NODES), secs)
}

/// Block-cyclic address translation. One operation = one `pnn` lookup.
fn translate() -> (u64, f64) {
    const OPS: u64 = 1_000_000;
    let d = TranslationDescriptor {
        base: VAddr(0x1000_0000),
        size: 1 << 30,
        first_node: 0,
        nr_nodes: 64,
        block_size: 32 * 1024,
    };
    let (acc, secs) = timed(|| {
        let (mut x, mut acc) = (0u64, 0u32);
        for _ in 0..OPS {
            x = x.wrapping_add(0x9E37_79B9);
            acc = acc.wrapping_add(black_box(d.pnn(VAddr(d.base.0 + (x % d.size)))));
        }
        acc
    });
    black_box(acc);
    (OPS, secs)
}

/// DRAM transaction pipeline: one thread issues 2048 one-word reads over
/// two nodes and counts the responses. One operation = one read.
fn dram_pipeline() -> (u64, f64) {
    const READS: u64 = 2048;
    let mut eng = Engine::new(MachineConfig::small(2, 1, 8));
    let data = eng
        .mem_mut()
        .alloc(READS * 8 + 64, 0, 2, 4096)
        .expect("probe allocation fits the default memory");
    let ret = udweave::event::<u64>(&mut eng, "ret", move |ctx, got| {
        *got += 1;
        if *got == READS {
            ctx.yield_terminate();
        }
    });
    let go = eng.register(
        "go",
        Arc::new(move |ctx: &mut EventCtx| {
            for i in 0..READS {
                ctx.send_dram_read(VAddr(data.0).word(i), 1, ret);
            }
        }),
    );
    eng.send(EventWord::new(NetworkId(0), go), [], EventWord::IGNORE);
    let (m, secs) = timed(|| eng.run());
    (m.stats.dram_reads, secs)
}

/// `Fabric::transit` over every ordered node pair of a 64-node network,
/// eight sweeps. One operation = one message's route walk.
fn fabric_transit(kind: TopologyKind) -> (u64, f64) {
    const NODES: u32 = 64;
    const SWEEPS: u64 = 8;
    let net = NetworkConfig::default();
    let topo = kind.build(NODES, &net);
    let mut fabric = Fabric::new(topo.links().len(), net.link_stat_window);
    let (arrive, secs) = timed(|| {
        let mut arrive = 0u64;
        for sweep in 0..SWEEPS {
            for src in 0..NODES {
                for dst in 0..NODES {
                    if src != dst {
                        arrive = arrive.wrapping_add(fabric.transit(
                            topo.as_ref(),
                            sweep * 64 + u64::from(src),
                            src,
                            dst,
                            64,
                        ));
                    }
                }
            }
        }
        arrive
    });
    black_box(arrive);
    (SWEEPS * u64::from(NODES * (NODES - 1)), secs)
}

/// NIC injection serialization. One operation = one `Nics::inject`.
fn nic_inject() -> (u64, f64) {
    const NODES: u32 = 64;
    const OPS: u64 = 1_000_000;
    let mut nics = Nics::new(NODES, &NetworkConfig::default());
    let (depart, secs) = timed(|| {
        let mut depart = 0u64;
        for i in 0..OPS {
            depart = depart.wrapping_add(nics.inject((i % u64::from(NODES)) as u32, i / 8, 72));
        }
        depart
    });
    black_box(depart);
    (OPS, secs)
}

/// `DeviceSplit::load` of `sg` into a fresh engine of `machine`, with the
/// record layout PageRank uses. Seconds per load (median), so that
/// `apps.pr.wall_s - graph.device_load_s` bounds `Engine::run`.
pub fn device_load(
    spans: &mut Spans,
    iters: usize,
    sg: &SplitGraph,
    machine: &MachineConfig,
) -> f64 {
    let layout = drammalloc_layout(machine.nodes);
    probe(spans, iters, "probe.graph.device_load", || {
        let mut eng = Engine::new(machine.clone());
        let (dsg, secs) = timed(|| {
            DeviceSplit::load(
                &mut eng,
                sg,
                4,
                layout,
                layout,
                |_s, root, sdeg, odeg, nl| {
                    vec![u64::from(root), u64::from(sdeg), u64::from(odeg), nl.0]
                },
            )
        });
        black_box(dsg.n_sub);
        (1, secs)
    }) / 1e9
}

fn drammalloc_layout(nodes: u32) -> drammalloc::Layout {
    drammalloc::Layout::cyclic_bs(nodes, 32 * 1024)
}

/// Run every workload-independent probe and record it under its
/// per-layer metric name.
pub fn run_all(spans: &mut Spans, iters: usize, layer: &mut Layer) {
    spans.begin("probes");
    layer.insert(
        "sim.calendar.ns_per_op",
        probe(spans, iters, "probe.sim.calendar", calendar_churn),
    );
    layer.insert(
        "sim.lane.dispatch_ns",
        probe(spans, iters, "probe.sim.lane.dispatch", lane_dispatch),
    );
    layer.insert(
        "sim.lane.fanout_ns",
        probe(spans, iters, "probe.sim.lane.fanout", fanout),
    );
    layer.insert(
        "sim.engine.window_ns",
        probe(spans, iters, "probe.sim.engine.window", window_pingpong),
    );
    layer.insert(
        "sim.memory.translate_ns",
        probe(spans, iters, "probe.sim.memory.translate", translate),
    );
    layer.insert(
        "sim.memory.dram_ns_per_access",
        probe(spans, iters, "probe.sim.memory.dram", dram_pipeline),
    );
    for (name, span, kind) in [
        (
            "sim.network.transit_ns.uniform",
            "probe.sim.network.uniform",
            TopologyKind::Uniform,
        ),
        (
            "sim.network.transit_ns.torus",
            "probe.sim.network.torus",
            TopologyKind::Torus,
        ),
        (
            "sim.network.transit_ns.dragonfly",
            "probe.sim.network.dragonfly",
            TopologyKind::Dragonfly,
        ),
        (
            "sim.network.transit_ns.polar",
            "probe.sim.network.polar",
            TopologyKind::Polar,
        ),
    ] {
        layer.insert(name, probe(spans, iters, span, || fabric_transit(kind)));
    }
    layer.insert(
        "sim.network.nic_inject_ns",
        probe(spans, iters, "probe.sim.network.nic", nic_inject),
    );
    spans.end();
}
