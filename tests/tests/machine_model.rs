//! Machine-model behavioral tests: contention, latency tiers, scratchpad
//! sharing, backpressure — the physics the figures depend on.

use std::sync::Mutex;
use std::sync::Arc;

use udweave::prelude::*;
use updown_sim::{Engine, MachineConfig, MemoryConfig};

fn fanout_reads(nodes: u32, mem_nodes: u32, reads: u64, bw: u64) -> u64 {
    let mut cfg = MachineConfig::small(nodes, 2, 8);
    cfg.mem = MemoryConfig {
        dram_latency: 200,
        node_bytes_per_cycle: bw,
    };
    let lanes = cfg.total_lanes();
    let mut eng = Engine::new(cfg);
    let data = eng
        .mem_mut()
        .alloc(reads * 8 + 64, 0, mem_nodes, 4096)
        .unwrap();
    let per_lane = reads / lanes as u64;
    // The issuing thread stays alive until all of its responses arrive.
    let ret = udweave::event::<u64>(&mut eng, "ret", move |ctx, got| {
        *got += 1;
        if *got == per_lane {
            ctx.yield_terminate();
        }
    });
    let go = simple_event(&mut eng, "go", move |ctx| {
        let base = ctx.arg(0);
        for i in 0..per_lane {
            ctx.send_dram_read(VAddr(data.0).word(base + i), 1, ret);
        }
    });
    let kick = simple_event(&mut eng, "kick", move |ctx| {
        for l in 0..lanes {
            ctx.send_event(evw_new(NetworkId(l), go), [l as u64 * per_lane], IGNRCONT);
        }
        ctx.yield_terminate();
    });
    eng.send(evw_new(NetworkId(0), kick), [], IGNRCONT);
    eng.run().final_tick
}

#[test]
fn wider_striping_relieves_channel_contention() {
    // Same access stream, 1 vs 4 memory nodes under tight bandwidth:
    // the Figure 12 mechanism in isolation.
    let narrow = fanout_reads(4, 1, 20000, 64);
    let wide = fanout_reads(4, 4, 20000, 64);
    assert!(
        wide * 2 < narrow,
        "4-way striping ({wide}) should be well under half of 1-way ({narrow})"
    );
}

#[test]
fn latency_tiers_order() {
    // One message at each tier; completion times must order
    // intra-accel < intra-node < inter-node.
    fn one_hop(dst_pick: impl Fn(&MachineConfig) -> NetworkId + Send + Sync + 'static) -> u64 {
        let mut eng = Engine::new(MachineConfig::small(2, 2, 4));
        let sink = simple_event(&mut eng, "sink", |ctx| ctx.yield_terminate());
        let go = simple_event(&mut eng, "go", move |ctx| {
            let dst = dst_pick(ctx.config());
            ctx.send_event(evw_new(dst, sink), [], IGNRCONT);
            ctx.yield_terminate();
        });
        eng.send(evw_new(NetworkId(0), go), [], IGNRCONT);
        eng.run().final_tick
    }
    let same_accel = one_hop(|_| NetworkId(1));
    let same_node = one_hop(|cfg| cfg.nwid(0, 1, 0));
    let cross_node = one_hop(|cfg| cfg.nwid(1, 0, 0));
    assert!(same_accel < same_node && same_node < cross_node);
}

#[test]
fn nic_contention_slows_bursts() {
    // A burst of inter-node messages beyond the injection bandwidth takes
    // longer than the same count under a fat NIC.
    fn burst(nic_bw: u64) -> u64 {
        let mut cfg = MachineConfig::small(2, 2, 8);
        cfg.net.nic_bytes_per_cycle = nic_bw;
        let lanes_per_node = cfg.lanes_per_node();
        let mut eng = Engine::new(cfg);
        let sink = simple_event(&mut eng, "sink", |ctx| ctx.yield_terminate());
        let go = simple_event(&mut eng, "go", move |ctx| {
            for i in 0..2000u32 {
                let dst = NetworkId(lanes_per_node + (i % lanes_per_node));
                ctx.send_event(evw_new(dst, sink), [i as u64], IGNRCONT);
            }
            ctx.yield_terminate();
        });
        eng.send(evw_new(NetworkId(0), go), [], IGNRCONT);
        eng.run().final_tick
    }
    let thin = burst(72); // 1 message per cycle
    let fat = burst(72 * 64);
    assert!(thin > fat + 1000, "thin NIC ({thin}) must queue vs fat ({fat})");
}

#[test]
fn scratchpad_is_lane_shared_across_threads() {
    // Two threads on the same lane see the same scratchpad (it is lane
    // memory, not thread memory).
    let mut eng = Engine::new(MachineConfig::small(1, 1, 2));
    let seen: Arc<Mutex<u64>> = Arc::default();
    let s2 = seen.clone();
    let reader = simple_event(&mut eng, "reader", move |ctx| {
        *s2.lock().unwrap() = ctx.spm_read(5);
        ctx.yield_terminate();
    });
    let writer = simple_event(&mut eng, "writer", move |ctx| {
        ctx.spm_write(5, 77);
        // New thread, same lane.
        ctx.send_event(evw_new(ctx.nwid(), reader), [], IGNRCONT);
        ctx.yield_terminate();
    });
    eng.send(evw_new(NetworkId(0), writer), [], IGNRCONT);
    eng.run();
    assert_eq!(*seen.lock().unwrap(), 77);
}

#[test]
fn delayed_sends_fire_in_order() {
    let mut eng = Engine::new(MachineConfig::small(1, 1, 2));
    let order: Arc<Mutex<Vec<u64>>> = Arc::default();
    let o2 = order.clone();
    let mark = simple_event(&mut eng, "mark", move |ctx| {
        o2.lock().unwrap().push(ctx.arg(0));
        ctx.yield_terminate();
    });
    let go = simple_event(&mut eng, "go", move |ctx| {
        ctx.send_event_after(500, evw_new(ctx.nwid(), mark), [2u64], IGNRCONT);
        ctx.send_event_after(100, evw_new(ctx.nwid(), mark), [1u64], IGNRCONT);
        ctx.send_event_after(900, evw_new(ctx.nwid(), mark), [3u64], IGNRCONT);
        ctx.yield_terminate();
    });
    eng.send(evw_new(NetworkId(0), go), [], IGNRCONT);
    eng.run();
    assert_eq!(&*order.lock().unwrap(), &[1, 2, 3]);
}

#[test]
fn event_limit_is_a_hard_stop() {
    let mut eng = Engine::new(MachineConfig::small(1, 1, 1));
    let spin = simple_event(&mut eng, "spin", move |ctx| {
        let me = ctx.cur_evw();
        ctx.send_event(me, [], IGNRCONT);
    });
    eng.set_event_limit(123);
    eng.send(evw_new(NetworkId(0), spin), [], IGNRCONT);
    let r = eng.run();
    assert_eq!(r.stats.events_executed, 123);
}

#[test]
fn memory_free_and_realloc() {
    let mut eng = Engine::new(MachineConfig::small(2, 1, 2));
    let a = eng.mem_mut().alloc(8192, 0, 2, 4096).unwrap();
    eng.mem_mut().write_u64(a, 42).unwrap();
    drammalloc::dram_free(&mut eng, a).unwrap();
    let b = eng.mem_mut().alloc(8192, 0, 2, 4096).unwrap();
    assert_ne!(a.0, b.0, "fresh VA space (no stale aliasing)");
    assert!(eng.mem().read_u64(a).is_err(), "freed region faults");
    assert_eq!(eng.mem().read_u64(b).unwrap(), 0, "new region zeroed");
}

#[test]
fn utilization_and_stats_consistency() {
    let mut eng = Engine::new(MachineConfig::small(1, 2, 8));
    let sink = simple_event(&mut eng, "sink", |ctx| {
        ctx.charge(50);
        ctx.yield_terminate();
    });
    let go = simple_event(&mut eng, "go", move |ctx| {
        for i in 0..16u32 {
            ctx.send_event(evw_new(NetworkId(i), sink), [], IGNRCONT);
        }
        ctx.yield_terminate();
    });
    eng.send(evw_new(NetworkId(0), go), [], IGNRCONT);
    let r = eng.run();
    assert_eq!(r.stats.events_executed, 17);
    assert_eq!(r.active_lanes, 16);
    assert_eq!(r.stats.threads_created, 17);
    assert_eq!(r.stats.threads_terminated, 17);
    assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
    assert_eq!(
        r.stats.total_msgs(),
        16,
        "16 sends (host injection not counted)"
    );
}

#[test]
fn thread_backpressure_preserves_all_work() {
    // 200 creations onto a 4-context lane: parking must not lose any.
    let mut cfg = MachineConfig::small(1, 1, 2);
    cfg.max_threads_per_lane = 4;
    let mut eng = Engine::new(cfg);
    let count: Arc<Mutex<u64>> = Arc::default();
    let c2 = count.clone();
    // Two-phase threads hold their context alive long enough that the
    // 4-slot table fills and later creations park.
    let fin = simple_event(&mut eng, "fin", move |ctx| {
        *c2.lock().unwrap() += 1;
        ctx.yield_terminate();
    });
    let work = simple_event(&mut eng, "work", move |ctx| {
        let me = ctx.self_event(fin);
        ctx.send_event_after(200, me, [], IGNRCONT);
    });
    let go = simple_event(&mut eng, "go", move |ctx| {
        for i in 0..200u64 {
            ctx.send_event(evw_new(NetworkId(1), work), [i], IGNRCONT);
        }
        ctx.yield_terminate();
    });
    eng.send(evw_new(NetworkId(0), go), [], IGNRCONT);
    let r = eng.run();
    assert_eq!(*count.lock().unwrap(), 200);
    assert!(r.stats.thread_table_stalls > 0, "parking exercised");
}
