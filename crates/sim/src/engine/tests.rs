use super::*;
use crate::config::MachineConfig;
use std::sync::{Arc, Mutex};
use super::core::{MemOp, MemResp, XEntry};
use crate::memory::VAddr;
use crate::snapshot::SnapshotError;

fn tiny() -> MachineConfig {
    MachineConfig::small(2, 2, 4)
}

/// A handler that bumps its shard's counter, charges that many cycles
/// (so timing depends on the state) and bounces to the other node until
/// the counter reaches `hops`.
fn register_bounce(eng: &mut Engine, slot: ShardSlot<u64>, hops: u64) -> EventLabel {
    let lanes_per_node = eng.config().lanes_per_node();
    let total = eng.config().total_lanes();
    eng.register(
        "bounce",
        Arc::new(move |ctx: &mut EventCtx| {
            let n = ctx.shard_state(slot);
            *n += 1;
            let n = *n;
            ctx.charge(n);
            if n < hops {
                let there = NetworkId((ctx.nwid().0 + lanes_per_node) % total);
                ctx.send_event(EventWord::new(there, ctx.cur_evw().label()), [], EventWord::IGNORE);
            }
            ctx.yield_terminate();
        }),
    )
}

#[test]
fn shard_state_and_program_table_rewind_with_restore() {
    let mut eng = Engine::new(tiny());
    let slot = eng.shard_slot::<u64>();
    let table = eng.table(vec![1u64]);
    *eng.shard_state_mut(slot, 1) = 7;
    let snap = eng.snapshot();
    *eng.shard_state_mut(slot, 1) = 99;
    *eng.shard_state_mut(slot, 0) = 5;
    eng.table_mut(table).push(2);
    eng.restore(&snap).unwrap();
    assert_eq!(eng.shard_state(slot, 1), Some(&7), "shard state must rewind");
    assert_eq!(eng.shard_state(slot, 0), None, "an untouched shard rewinds to untouched");
    assert_eq!(eng.table_ref(table), &[1], "program table must rewind");
}

#[test]
fn slot_declared_after_a_snapshot_is_incompatible() {
    let mut eng = Engine::new(tiny());
    let snap = eng.snapshot();
    eng.shard_slot::<u64>();
    assert!(matches!(eng.restore(&snap), Err(SnapshotError::Incompatible(_))));

    let mut eng = Engine::new(tiny());
    let snap = eng.snapshot();
    eng.table(0u64);
    assert!(matches!(eng.restore(&snap), Err(SnapshotError::Incompatible(_))));
}

#[test]
fn replay_shard_carries_shard_state() {
    let check = crate::ReplayCheck::new();
    let mut cfg = tiny();
    cfg.replay = Some(check.clone());
    let mut eng = Engine::new(cfg);
    let slot = eng.shard_slot::<u64>();
    let bounce = register_bounce(&mut eng, slot, 6);
    eng.send(EventWord::new(NetworkId(0), bounce), [], EventWord::IGNORE);
    eng.send(EventWord::new(NetworkId(eng.config().lanes_per_node()), bounce), [], EventWord::IGNORE);
    eng.run();
    // Both shards replayed alone from the recorded start, where the slot
    // was untouched, and reproduced their streams.
    let reports = check.reports();
    assert_eq!(reports.len(), 1, "one scheduler invocation, one verdict");
    assert_eq!(reports[0].shards, 2);
    assert!(reports[0].events >= 12, "vacuous recording: {:?}", reports[0]);
    assert_eq!(reports[0].mismatches, Vec::<String>::new());
    // Replay put the end-of-run state back.
    assert_eq!(eng.shard_states(slot).copied().collect::<Vec<_>>(), [6, 6]);
}

#[test]
fn shard_state_read_back_order_is_the_same_at_every_thread_count() {
    let fold = |threads: u32| {
        let mut cfg = MachineConfig::small(8, 1, 4);
        cfg.threads = threads;
        let mut eng = Engine::new(cfg);
        let slot = eng.shard_slot::<Vec<(u64, u32)>>();
        let note = eng.register(
            "note",
            Arc::new(move |ctx: &mut EventCtx| {
                let entry = (ctx.now(), ctx.nwid().0);
                ctx.shard_state(slot).push(entry);
                if ctx.arg(0) > 0 {
                    let next = NetworkId((ctx.nwid().0 * 5 + 3) % 32);
                    ctx.send_event(EventWord::new(next, ctx.cur_evw().label()), [ctx.arg(0) - 1], EventWord::IGNORE);
                }
                ctx.yield_terminate();
            }),
        );
        for l in 0..32 {
            eng.send(EventWord::new(NetworkId(l), note), [6], EventWord::IGNORE);
        }
        eng.run();
        eng.shard_states(slot).flatten().copied().collect::<Vec<_>>()
    };
    let want = fold(1);
    assert_eq!(want.len(), 32 * 7);
    for threads in [2, 4, 7] {
        assert_eq!(fold(threads), want, "threads = {threads}");
    }
}

#[test]
fn call_return_composition() {
    // Listing 2 of the paper: e1 -> e2 (new thread, next lane) -> e3 (back).
    let mut eng = Engine::new(tiny());
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::default();

    let l3 = {
        let log = log.clone();
        eng.register(
            "e3",
            Arc::new(move |ctx: &mut EventCtx| {
                log.lock().unwrap().push("e3");
                ctx.yield_terminate();
            }),
        )
    };
    let l2 = {
        let log = log.clone();
        eng.register(
            "e2",
            Arc::new(move |ctx: &mut EventCtx| {
                log.lock().unwrap().push("e2");
                assert_eq!(ctx.args(), &[0, 1]);
                ctx.send_reply([]);
                ctx.yield_terminate();
            }),
        )
    };
    let l1 = {
        let log = log.clone();
        eng.register(
            "e1",
            Arc::new(move |ctx: &mut EventCtx| {
                log.lock().unwrap().push("e1");
                let evw = EventWord::new(ctx.nwid().next(), l2);
                let ct = ctx.self_event(l3);
                ctx.send_event(evw, [0, 1], ct);
            }),
        )
    };

    eng.send(EventWord::new(NetworkId(0), l1), [], EventWord::IGNORE);
    let report = eng.run();
    assert_eq!(&*log.lock().unwrap(), &["e1", "e2", "e3"]);
    assert_eq!(report.stats.events_executed, 3);
    assert_eq!(report.stats.threads_created, 2);
    assert_eq!(report.stats.threads_terminated, 2);
}

#[test]
fn cost_model_exact() {
    // One event: dispatch(2) + send_msg(2) + yield(1) = 5 cycles busy.
    let mut eng = Engine::new(tiny());
    let sink = eng.register("sink", Arc::new(|ctx: &mut EventCtx| ctx.yield_terminate()));
    let l1 = eng.register(
        "one_send",
        Arc::new(move |ctx: &mut EventCtx| {
            let w = EventWord::new(ctx.nwid().next(), sink);
            ctx.send_event(w, [], EventWord::IGNORE);
            ctx.yield_terminate();
        }),
    );
    eng.send(EventWord::new(NetworkId(0), l1), [], EventWord::IGNORE);
    let r = eng.run();
    // Event 1: starts t=0, cost = 2 (dispatch) + 2 (send) + 1 (dealloc) = 5.
    // Message departs t=5, intra-accel latency 4, arrives t=9.
    // Event 2: cost 2 + 1 = 3, finishes t=12.
    assert_eq!(r.final_tick, 12);
    assert_eq!(r.total_busy, 5 + 3);
}

#[test]
fn inter_node_latency_applies() {
    let cfg = tiny();
    let lanes_per_node = cfg.lanes_per_node();
    let mut eng = Engine::new(cfg);
    let sink = eng.register("sink", Arc::new(|ctx: &mut EventCtx| ctx.yield_terminate()));
    let l1 = eng.register(
        "cross",
        Arc::new(move |ctx: &mut EventCtx| {
            let w = EventWord::new(NetworkId(lanes_per_node), sink); // node 1
            ctx.send_event(w, [], EventWord::IGNORE);
            ctx.yield_terminate();
        }),
    );
    eng.send(EventWord::new(NetworkId(0), l1), [], EventWord::IGNORE);
    let r = eng.run();
    // depart t=5 via NIC (72 bytes / 2048 per cycle -> 1 cycle) = 6,
    // + 1000 latency = arrives 1006, runs 3 cycles.
    assert_eq!(r.final_tick, 1009);
    assert_eq!(r.stats.msgs_inter_node, 1);
}

#[test]
fn dram_read_roundtrip_with_latency() {
    let mut eng = Engine::new(tiny());
    eng.mem_mut().min_block = 64;
    let a = eng.mem_mut().alloc(4096, 0, 1, 4096).unwrap();
    eng.mem_mut().write_words(a, &[10, 20, 30]).unwrap();

    let got: Arc<Mutex<Vec<u64>>> = Arc::default();
    let got2 = got.clone();
    let ret = eng.register(
        "ret",
        Arc::new(move |ctx: &mut EventCtx| {
            got2.lock().unwrap().extend_from_slice(ctx.args());
            ctx.yield_terminate();
        }),
    );
    let start = eng.register(
        "start",
        Arc::new(move |ctx: &mut EventCtx| {
            let a = VAddr(ctx.arg(0));
            ctx.send_dram_read(a, 3, ret);
        }),
    );
    eng.send(EventWord::new(NetworkId(0), start), [a.0], EventWord::IGNORE);
    let r = eng.run();
    assert_eq!(&*got.lock().unwrap(), &[10, 20, 30]);
    // Issue done t = 2+2+1 = 5; request hop 30; channel: 64B at 4700B/cy
    // = 1 cycle + 200 latency => served at 5+30+1+200 = 236; return hop 30
    // => arrives 266; handler runs 3 cycles (2+1).
    assert_eq!(r.final_tick, 269);
    assert_eq!(r.stats.dram_reads, 1);
}

#[test]
fn calendar_payload_sizes_are_pinned() {
    use std::mem::size_of;
    // The calendar arena holds one `Option<Action>` per pending entry and
    // the exchange one `XEntry` per cross-shard entry; both sizes feed
    // straight into peak RSS (docs/perf.md). A `Message` is one 64-byte
    // UpDown message, and no observer data rides in either record.
    assert_eq!(size_of::<Message>(), 64);
    // A write's words ride inline in its `MemOp` (up to four of them);
    // the request's owner is the shard that holds it, not a field.
    assert!(size_of::<MemOp>() <= 72);
    assert!(size_of::<Action>() <= 80);
    assert_eq!(size_of::<Option<Action>>(), size_of::<Action>());
    assert!(size_of::<XEntry>() <= 88);
}

#[test]
fn thread_slot_size_is_pinned() {
    // Every lane's thread table grows to `max_threads_per_lane` slots
    // with its rotating id cursor; a slot holds a handle into its
    // shard's state slab, not a boxed state.
    assert!(std::mem::size_of::<crate::lane::ThreadSlot>() <= 16);
}

/// Pause with a spilled (6-operand) message and a tagged 8-word DRAM
/// reply (9 operands) in flight. The serialized snapshot is pinned as
/// its FNV-1a hash — the `updown-snapshot/v2` layout must not move
/// unnoticed — and restoring it must re-encode and resume identically.
#[test]
fn long_operands_in_flight_snapshot_in_the_v2_layout() {
    type Seen = Arc<Mutex<Vec<Vec<u64>>>>;
    fn build() -> (Engine, Seen) {
        let mut eng = Engine::new(tiny());
        let va = eng.mem_mut().alloc(4096, 0, 1, 4096).unwrap();
        eng.mem_mut()
            .write_words(va, &[11, 12, 13, 14, 15, 16, 17, 18])
            .unwrap();
        let seen: Seen = Arc::default();
        let seen2 = seen.clone();
        let sink = eng.register(
            "sink",
            Arc::new(move |ctx: &mut EventCtx| {
                seen2.lock().unwrap().push(ctx.args().to_vec());
                ctx.yield_terminate();
            }),
        );
        let tick = eng.register(
            "tick",
            Arc::new(|ctx: &mut EventCtx| match ctx.arg(0) {
                0 => ctx.yield_terminate(),
                n => ctx.send_event(ctx.cur_evw(), [n - 1], EventWord::IGNORE),
            }),
        );
        let kick = eng.register(
            "kick",
            Arc::new(move |ctx: &mut EventCtx| {
                let far = EventWord::new(NetworkId(1), sink);
                ctx.send_event_after(100_000, far, [1, 2, 3, 4, 5, 6], EventWord::IGNORE);
                ctx.send_dram_read_tagged(va, 8, sink, 0x7A6);
                ctx.send_event(EventWord::new(NetworkId(2), tick), [200], EventWord::IGNORE);
            }),
        );
        eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
        (eng, seen)
    }
    fn in_flight(eng: &Engine) -> (bool, bool) {
        let pending = || eng.shards.iter().flat_map(|c| c.arena.slots.iter().flatten());
        (
            pending().any(|a| matches!(a, Action::Deliver(m) if m.args.len() == 6)),
            pending().any(|a| {
                matches!(a, Action::MemDone { resp: MemResp { reply: Some(m), .. }, .. }
                    if m.args.len() == 9)
            }),
        )
    }

    let (mut eng, seen) = (1..400)
        .map(|limit| {
            let (mut eng, seen) = build();
            eng.set_event_limit(limit);
            eng.run();
            (eng, seen)
        })
        .find(|(eng, _)| in_flight(eng) == (true, true))
        .expect("some pause point has both payloads in flight");
    let bytes = eng.snapshot_bytes().unwrap();
    assert_eq!(
        snapshot::fnv1a(&bytes),
        0x03DE_A260_FC74_9550,
        "updown-snapshot/v2 bytes moved"
    );

    let (mut eng2, seen2) = build();
    eng2.restore_snapshot_bytes(&bytes).unwrap();
    assert_eq!(in_flight(&eng2), (true, true));
    assert_eq!(eng2.snapshot_bytes().unwrap(), bytes);

    eng.set_event_limit(u64::MAX);
    eng2.set_event_limit(u64::MAX);
    assert_eq!(eng.run().to_json(), eng2.run().to_json());
    let want = vec![
        vec![11, 12, 13, 14, 15, 16, 17, 18, 0x7A6],
        vec![1, 2, 3, 4, 5, 6],
    ];
    assert_eq!(*seen.lock().unwrap(), want);
    assert_eq!(*seen2.lock().unwrap(), want);
}

/// Pause with three DRAM requests in flight at their owner, node 1: a
/// 1-word plain write, a 2-word acked and tagged write, and an acked
/// `fetch_add`. The snapshot is pinned by FNV-1a — the value was produced
/// by the encoder of a request that carried its owner as a field and its
/// write words in a heap block, so dropping both moved no byte — and it
/// round-trips and resumes identically. The same body with one request's
/// recorded owner, or a reply word, patched is refused as `Format`.
#[test]
fn dram_requests_in_flight_snapshot_in_the_v2_layout() {
    type Seen = Arc<Mutex<Vec<Vec<u64>>>>;
    fn build() -> (Engine, Seen, VAddr) {
        let mut eng = Engine::new(tiny());
        let va = eng.mem_mut().alloc(4096, 1, 1, 4096).unwrap();
        eng.mem_mut().write_words(va.word(3), &[40]).unwrap();
        let seen: Seen = Arc::default();
        let seen2 = seen.clone();
        let sink = eng.register(
            "sink",
            Arc::new(move |ctx: &mut EventCtx| {
                let mut seen = seen2.lock().unwrap();
                seen.push(ctx.args().to_vec());
                if seen.len() == 2 {
                    ctx.yield_terminate();
                }
            }),
        );
        let kick = eng.register(
            "kick",
            Arc::new(move |ctx: &mut EventCtx| {
                ctx.send_dram_write(va, &[0x1111], None);
                ctx.send_dram_write_tagged(va.word(1), &[0x2222, 0x3333], sink, 0x7A6);
                ctx.dram_fetch_add_u64(va.word(3), 2, Some(sink), None);
            }),
        );
        eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
        (eng, seen, va)
    }
    let requests = |eng: &Engine| eng.shards[1].arena.slots.iter().flatten().filter(|a| matches!(a, Action::Mem { .. })).count();

    let (mut eng, seen, va) = (1..200)
        .map(|limit| {
            let (mut eng, seen, va) = build();
            eng.set_event_limit(limit);
            eng.run();
            (eng, seen, va)
        })
        .find(|(eng, ..)| requests(eng) == 3)
        .expect("some pause point has all three requests at their owner");
    let bytes = eng.snapshot_bytes().unwrap();
    assert_eq!(
        snapshot::fnv1a(&bytes),
        0x835B_4125_F236_6DAA,
        "updown-snapshot/v2 bytes moved"
    );

    let (mut eng2, seen2, _) = build();
    eng2.restore_snapshot_bytes(&bytes).unwrap();
    assert_eq!(requests(&eng2), 3);
    assert_eq!(eng2.snapshot_bytes().unwrap(), bytes);
    eng.set_event_limit(u64::MAX);
    eng2.set_event_limit(u64::MAX);
    assert_eq!(eng.run().to_json(), eng2.run().to_json());
    let want = vec![vec![40], vec![va.word(1).0, 0x7A6]];
    for (e, s) in [(&eng, &seen), (&eng2, &seen2)] {
        let mut got = s.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, want);
        let mut words = [0; 4];
        e.mem().read_words_into(va, &mut words).unwrap();
        assert_eq!(words, [0x1111, 0x2222, 0x3333, 42]);
    }

    // The acked write's record: its words, its ack (`Some`), its tag
    // (`Some`), the issuing node, then the owner.
    let (header, body) = snapshot::unframe(&bytes).unwrap();
    let words: Vec<u8> = [2u64, 0x2222, 0x3333].iter().flat_map(|w| w.to_le_bytes()).collect();
    let at = body.windows(words.len()).position(|w| w == words).expect("the 2-word write") + words.len();
    let (ack, owner) = (at + 1, at + 9 + 9 + 4);
    assert_eq!((body[at], body[at + 9]), (1, 1), "snapshot layout moved");
    assert_eq!(body[owner..owner + 4], 1u32.to_le_bytes(), "snapshot layout moved");
    let refused = |patch: &dyn Fn(&mut Vec<u8>)| {
        let mut b = body.to_vec();
        patch(&mut b);
        let (mut victim, ..) = build();
        match victim.restore_snapshot_bytes(&snapshot::frame(&header, &b)) {
            Err(SnapshotError::Format(m)) => m,
            other => panic!("expected a Format error, got {other:?}"),
        }
    };
    let m = refused(&|b| b[owner..owner + 4].copy_from_slice(&0u32.to_le_bytes()));
    assert!(m.contains("shard 1 holds a DRAM request owned by node 0"), "{m}");
    let m = refused(&|b| b[ack..ack + 8].copy_from_slice(&u64::MAX.to_le_bytes()));
    assert!(m.contains("reply word of IGNORE"), "{m}");
}

#[test]
fn dram_write_and_ack() {
    let mut eng = Engine::new(tiny());
    let a = eng.mem_mut().alloc(4096, 0, 1, 4096).unwrap();
    let acked: Arc<Mutex<u32>> = Arc::default();
    let acked2 = acked.clone();
    let ack = eng.register(
        "ack",
        Arc::new(move |ctx: &mut EventCtx| {
            *acked2.lock().unwrap() += 1;
            ctx.yield_terminate();
        }),
    );
    let start = eng.register(
        "start",
        Arc::new(move |ctx: &mut EventCtx| {
            let a = VAddr(ctx.arg(0));
            ctx.send_dram_write(a.word(2), &[99], Some(ack));
        }),
    );
    eng.send(EventWord::new(NetworkId(0), start), [a.0], EventWord::IGNORE);
    eng.run();
    assert_eq!(*acked.lock().unwrap(), 1);
    assert_eq!(eng.mem().read_u64(a.word(2)).unwrap(), 99);
}

/// One handler issues every DRAM request kind — a 3-word read, a 2-word
/// write, a u64 and an f64 fetch-and-add — against memory on its own node
/// and, in a second run, on the other node. Pins the per-kind counters,
/// the bytes the owner's channel served, the replies and the final tick.
#[test]
fn every_dram_request_kind_counts_its_bytes_local_and_remote() {
    for (owner, remote, final_tick) in [(0, 0, 284), (1, 4, 2226)] {
        let mut eng = Engine::new(tiny());
        let a = eng.mem_mut().alloc(4096, owner, 1, 4096).unwrap();
        eng.mem_mut().write_words(a, &[10, 20, 30]).unwrap();
        eng.mem_mut().write_u64(a.word(6), 100).unwrap();
        eng.mem_mut().write_f64(a.word(7), 1.5).unwrap();
        let replies: Arc<Mutex<Vec<Vec<u64>>>> = Arc::default();
        let replies2 = replies.clone();
        let ret = eng.register(
            "ret",
            Arc::new(move |ctx: &mut EventCtx| {
                replies2.lock().unwrap().push(ctx.args().to_vec());
                let n = ctx.state_mut::<u64>();
                *n += 1;
                if *n == 4 {
                    ctx.yield_terminate();
                }
            }),
        );
        let go = eng.register(
            "go",
            Arc::new(move |ctx: &mut EventCtx| {
                let a = VAddr(ctx.arg(0));
                ctx.send_dram_read_tagged(a, 3, ret, 1);
                ctx.send_dram_write_tagged(a.word(4), &[7, 8], ret, 2);
                ctx.dram_fetch_add_u64(a.word(6), 5, Some(ret), Some(3));
                ctx.dram_fetch_add_f64(a.word(7), 2.25, Some(ret), Some(4));
            }),
        );
        eng.send(EventWord::new(NetworkId(0), go), [a.0], EventWord::IGNORE);
        let m = eng.run();
        let s = &m.stats;
        assert_eq!((s.dram_reads, s.dram_read_bytes), (1, 24), "owner {owner}");
        assert_eq!((s.dram_writes, s.dram_write_bytes), (3, 32), "owner {owner}");
        assert_eq!(s.dram_remote_accesses, remote, "owner {owner}");
        let served: Vec<u64> = m.nodes.iter().map(|n| n.dram_served_bytes).collect();
        let mut want = vec![0, 0];
        want[owner as usize] = 4 * 64;
        assert_eq!(served, want, "owner {owner}: one 64-byte access per request");
        let mut got = replies.lock().unwrap().clone();
        let mut want = vec![vec![10, 20, 30, 1], vec![a.word(4).0, 2], vec![100, 3], vec![1.5f64.to_bits(), 4]];
        got.sort();
        want.sort();
        assert_eq!(got, want, "owner {owner}");
        assert_eq!(eng.mem().read_u64(a.word(5)).unwrap(), 8);
        assert_eq!(eng.mem().read_u64(a.word(6)).unwrap(), 105);
        assert_eq!(eng.mem().read_f64(a.word(7)).unwrap(), 3.75);
        assert_eq!(m.final_tick, final_tick, "owner {owner}");
    }
}

#[test]
fn thread_state_persists_across_events() {
    #[derive(Clone, Default)]
    struct Acc {
        sum: u64,
        n: u64,
    }
    let mut eng = Engine::new(tiny());
    let done: Arc<Mutex<u64>> = Arc::default();
    let done2 = done.clone();
    // The thread accumulates across three events of itself, self-sending
    // follow-ups (same thread context, state preserved by yield).
    let step = eng.register(
        "step",
        Arc::new(move |ctx: &mut EventCtx| {
            let v = ctx.arg(0);
            let acc = ctx.state_mut::<Acc>();
            acc.sum += v;
            acc.n += 1;
            if acc.n == 3 {
                let sum = acc.sum;
                *done2.lock().unwrap() = sum;
                ctx.yield_terminate();
            } else {
                let me = ctx.cur_evw();
                ctx.send_event(me, [v + 1], EventWord::IGNORE);
            }
        }),
    );
    eng.send(EventWord::new(NetworkId(1), step), [5], EventWord::IGNORE);
    eng.run();
    assert_eq!(*done.lock().unwrap(), 5 + 6 + 7);
}

#[test]
fn lane_serializes_events() {
    // Two messages to the same lane: second starts after first ends.
    let mut eng = Engine::new(tiny());
    let times: Arc<Mutex<Vec<u64>>> = Arc::default();
    let t2 = times.clone();
    let busy = eng.register(
        "busy",
        Arc::new(move |ctx: &mut EventCtx| {
            t2.lock().unwrap().push(ctx.now());
            ctx.charge(100);
            ctx.yield_terminate();
        }),
    );
    let kick = eng.register(
        "kick",
        Arc::new(move |ctx: &mut EventCtx| {
            let w = EventWord::new(NetworkId(2), busy);
            ctx.send_event(w, [], EventWord::IGNORE);
            ctx.send_event(w, [], EventWord::IGNORE);
            ctx.yield_terminate();
        }),
    );
    eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
    eng.run();
    let ts = times.lock().unwrap();
    assert_eq!(ts.len(), 2);
    // First event takes 2 + 100 + 1 = 103 cycles.
    assert_eq!(ts[1] - ts[0], 103);
}

#[test]
fn stop_halts_simulation() {
    let mut eng = Engine::new(tiny());
    let spin = eng.register(
        "spin",
        Arc::new(move |ctx: &mut EventCtx| {
            let me = ctx.cur_evw();
            if ctx.now() > 10_000 {
                ctx.stop();
            } else {
                ctx.send_event(me, [], EventWord::IGNORE);
            }
        }),
    );
    eng.send(EventWord::new(NetworkId(0), spin), [], EventWord::IGNORE);
    let r = eng.run();
    assert!(r.final_tick > 10_000);
    assert!(r.final_tick < 20_000);
}

#[test]
fn event_limit_guards_runaway() {
    let mut eng = Engine::new(tiny());
    let spin = eng.register(
        "spin",
        Arc::new(move |ctx: &mut EventCtx| {
            let me = ctx.cur_evw();
            ctx.send_event(me, [], EventWord::IGNORE);
        }),
    );
    eng.set_event_limit(50);
    eng.send(EventWord::new(NetworkId(0), spin), [], EventWord::IGNORE);
    let r = eng.run();
    assert_eq!(r.stats.events_executed, 50);
}

#[test]
fn thread_table_full_parks_and_resumes() {
    let mut cfg = tiny();
    cfg.max_threads_per_lane = 2;
    let mut eng = Engine::new(cfg);
    let ran: Arc<Mutex<u32>> = Arc::default();
    let ran2 = ran.clone();
    // Each hold thread waits for a poke before terminating.
    let poke = eng.register(
        "poke",
        Arc::new(move |ctx: &mut EventCtx| {
            *ran2.lock().unwrap() += 1;
            ctx.yield_terminate();
        }),
    );
    let hold = eng.register(
        "hold",
        Arc::new(move |ctx: &mut EventCtx| {
            // Self-poke after a while: second event of same thread.
            let me = ctx.self_event(poke);
            ctx.charge(50);
            ctx.send_event(me, [], EventWord::IGNORE);
        }),
    );
    let kick = eng.register(
        "kick",
        Arc::new(move |ctx: &mut EventCtx| {
            let w = EventWord::new(NetworkId(1), hold);
            for _ in 0..4 {
                ctx.send_event(w, [], EventWord::IGNORE);
            }
            ctx.yield_terminate();
        }),
    );
    eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
    let r = eng.run();
    assert_eq!(*ran.lock().unwrap(), 4, "all four threads eventually ran");
    assert!(r.stats.thread_table_stalls > 0);
}

#[test]
fn determinism() {
    fn run_once() -> (u64, u64) {
        let mut eng = Engine::new(tiny());
        let sink = eng.register("sink", Arc::new(|ctx: &mut EventCtx| ctx.yield_terminate()));
        let fan = eng.register(
            "fan",
            Arc::new(move |ctx: &mut EventCtx| {
                let n = ctx.config().total_lanes();
                for i in 0..n {
                    ctx.send_event(
                        EventWord::new(NetworkId(i), sink),
                        [i as u64],
                        EventWord::IGNORE,
                    );
                }
                ctx.yield_terminate();
            }),
        );
        eng.send(EventWord::new(NetworkId(0), fan), [], EventWord::IGNORE);
        let r = eng.run();
        (r.final_tick, r.stats.events_executed)
    }
    assert_eq!(run_once(), run_once());
}

#[test]
fn fetch_add_f64_returns_old() {
    let mut eng = Engine::new(tiny());
    let a = eng.mem_mut().alloc(4096, 0, 1, 4096).unwrap();
    eng.mem_mut().write_f64(a, 1.5).unwrap();
    let old: Arc<Mutex<f64>> = Arc::default();
    let old2 = old.clone();
    let ret = eng.register(
        "ret",
        Arc::new(move |ctx: &mut EventCtx| {
            *old2.lock().unwrap() = ctx.argf(0);
            ctx.yield_terminate();
        }),
    );
    let go = eng.register(
        "go",
        Arc::new(move |ctx: &mut EventCtx| {
            ctx.dram_fetch_add_f64(VAddr(ctx.arg(0)), 2.25, Some(ret), None);
        }),
    );
    eng.send(EventWord::new(NetworkId(0), go), [a.0], EventWord::IGNORE);
    eng.run();
    assert_eq!(*old.lock().unwrap(), 1.5);
    assert_eq!(eng.mem().read_f64(a).unwrap(), 3.75);
}

#[test]
fn peak_calendar_counts_logical_pending_entries() {
    // Part 1: exact peak for a known program. The kick event posts
    // three timers landing in all three physical structures of the
    // bucketed calendar: same-window ring, near-future ring, and the
    // far-future overflow rung. All three count while pending.
    let mut eng = Engine::new(tiny());
    let sink = eng.register("sink", Arc::new(|ctx: &mut EventCtx| ctx.yield_terminate()));
    let kick = eng.register(
        "kick",
        Arc::new(move |ctx: &mut EventCtx| {
            let w = EventWord::new(ctx.nwid().next(), sink);
            ctx.send_event_after(0, w, [], EventWord::IGNORE);
            ctx.send_event_after(10, w, [], EventWord::IGNORE);
            ctx.send_event_after(5000, w, [], EventWord::IGNORE);
            ctx.yield_terminate();
        }),
    );
    eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
    let r = eng.run();
    // Peak: the three Deliver entries pending together after the kick
    // (deliveries arrive at distinct ticks; a LaneRun replaces each
    // popped Deliver, never exceeding three).
    assert_eq!(r.stats.peak_calendar, 3);

    // Part 2: parked messages and inbox backlogs are NOT calendar
    // entries. Three creations race to a lane with one hardware
    // context: two park, yet the peak stays the same three Delivers.
    let mut cfg = tiny();
    cfg.max_threads_per_lane = 1;
    let mut eng = Engine::new(cfg);
    let hold = eng.register("hold", Arc::new(|_: &mut EventCtx| {}));
    let kick = eng.register(
        "kick",
        Arc::new(move |ctx: &mut EventCtx| {
            let w = EventWord::new(ctx.nwid().next(), hold);
            for _ in 0..3 {
                ctx.send_event(w, [], EventWord::IGNORE);
            }
            ctx.yield_terminate();
        }),
    );
    eng.send(EventWord::new(NetworkId(0), kick), [], EventWord::IGNORE);
    let r = eng.run();
    assert_eq!(r.stats.thread_table_stalls, 2, "two creations parked");
    assert_eq!(
        r.stats.peak_calendar, 3,
        "parked/inbox messages must not count as calendar entries"
    );
}

/// A program touching every traced subsystem — fan-out messages
/// (local + remote), DRAM write/read, phases, custom and sampled
/// counters — run with and without the event trace.
fn observed_run(traced: bool) -> Engine {
    let mut eng = Engine::new(tiny());
    if traced {
        eng.enable_event_trace();
    }
    let a = eng.mem_mut().alloc(4096, 0, 1, 4096).unwrap();
    let sink = eng.register("sink", Arc::new(|ctx: &mut EventCtx| ctx.yield_terminate()));
    // DRAM responses come back to the issuing thread: count both
    // (write ack + read data) before terminating.
    let fin = eng.register(
        "fin",
        Arc::new(|ctx: &mut EventCtx| {
            let n = ctx.state_mut::<u64>();
            *n += 1;
            if *n == 2 {
                ctx.trace_counter_add("inflight", -1);
                ctx.phase_end("io");
                ctx.yield_terminate();
            }
        }),
    );
    let go = eng.register(
        "go",
        Arc::new(move |ctx: &mut EventCtx| {
            ctx.phase_begin("io");
            ctx.bump("kicks", 1);
            ctx.trace_counter_add("inflight", 1);
            let n = ctx.config().total_lanes();
            for i in 0..n {
                ctx.send_event(
                    EventWord::new(NetworkId(i), sink),
                    [i as u64],
                    EventWord::IGNORE,
                );
            }
            ctx.send_dram_write(VAddr(a.0), &[7], Some(fin));
            ctx.send_dram_read(VAddr(a.0), 1, fin);
        }),
    );
    eng.send(EventWord::new(NetworkId(0), go), [], EventWord::IGNORE);
    eng.run();
    eng
}

#[test]
fn event_trace_has_zero_observer_effect() {
    let off = observed_run(false);
    let on = observed_run(true);
    assert!(off.event_trace().is_empty());
    assert!(!on.event_trace().is_empty());
    // Byte-identical metrics: same ticks, counters (`peak_calendar`
    // included), phases, custom.
    assert_eq!(off.metrics().to_json(), on.metrics().to_json());
}

#[test]
fn event_trace_covers_all_subsystems() {
    let eng = observed_run(true);
    let evs = eng.event_trace();
    let mut execs = 0;
    let mut msgs = 0;
    let mut drams = 0;
    let mut counters = 0;
    let mut links = 0;
    for e in evs {
        match e {
            TraceEvent::Exec { start, end, .. } => {
                assert!(start <= end);
                execs += 1;
            }
            TraceEvent::MsgTransit { depart, arrive, .. } => {
                assert!(depart < arrive);
                msgs += 1;
            }
            TraceEvent::Dram { .. } => drams += 1,
            TraceEvent::Counter { .. } => counters += 1,
            TraceEvent::Link { .. } => links += 1,
        }
    }
    // go + 16 sinks + dram ack + dram data, at least.
    assert!(execs >= 18, "execs = {execs}");
    assert!(msgs >= 16, "msgs = {msgs}");
    assert_eq!(drams, 6, "2 transactions x 3 stages");
    assert_eq!(counters, 2);
    assert!(links >= 1, "cross-node traffic records link traversals");
    let phases = eng.merged_phases();
    assert_eq!(phases.len(), 1);
    assert!(!phases[0].is_open());
}

/// Taking the trace moves the recording out whole: it renders, streamed
/// or in memory, the bytes the engine's own export gave, and the engine's
/// trace starts over empty.
#[test]
fn a_taken_trace_renders_the_engines_export() {
    let mut eng = observed_run(true);
    let doc = eng.chrome_trace_json();
    let recorded = eng.event_trace().len();
    let trace = eng.take_chrome_trace();
    assert!(eng.event_trace().is_empty());
    assert_eq!(trace.events.len(), recorded);
    assert_eq!(trace.to_json(), doc);
    let mut streamed = Vec::new();
    trace.write_to(&mut streamed).unwrap();
    assert!(streamed == doc.as_bytes());
}

/// A 4-node program exercising cross-node messages, remote DRAM, and
/// phases; used to compare thread counts.
fn scheduler_probe(threads: u32) -> (String, u64, u64) {
    let mut cfg = MachineConfig::small(4, 2, 4);
    cfg.threads = threads;
    let lanes_per_node = cfg.lanes_per_node();
    let mut eng = Engine::new(cfg);
    let a = eng.mem_mut().alloc(1 << 14, 0, 4, 4096).unwrap();
    let bounce = eng.register(
        "bounce",
        Arc::new(move |ctx: &mut EventCtx| {
            let hops = ctx.arg(0);
            // A chain opens a span where it starts; its last hop lands one
            // node over and closes the span that node's own chain opened.
            if hops == 12 {
                ctx.phase_begin("bounce");
            }
            if hops == 0 {
                ctx.phase_end("bounce");
            }
            ctx.dram_fetch_add_u64(VAddr(ctx.arg(1)).word(hops % 64), 1, None, None);
            if hops > 0 {
                let next = (ctx.nwid().0 + lanes_per_node + 1)
                    % ctx.config().total_lanes();
                let w = EventWord::new(NetworkId(next), ctx.msg.dst.label());
                ctx.send_event(w, [hops - 1, ctx.arg(1)], EventWord::IGNORE);
            }
            ctx.yield_terminate();
        }),
    );
    for l in 0..4 {
        eng.send(
            EventWord::new(NetworkId(l * lanes_per_node), bounce),
            [12, a.0],
            EventWord::IGNORE,
        );
    }
    let m = eng.run();
    let phases = eng.merged_phases();
    assert_eq!(phases.len(), 4);
    assert!(phases.iter().all(|p| !p.is_open()), "every chain closes a span");
    let sum: u64 = (0..64)
        .map(|i| eng.mem().read_u64(a.word(i)).unwrap())
        .sum();
    (eng.metrics().to_json(), m.final_tick, sum)
}

#[test]
fn parallel_is_byte_identical_to_sequential() {
    let seq = scheduler_probe(1);
    for threads in [2, 3, 4, 7] {
        let par = scheduler_probe(threads);
        assert_eq!(seq, par, "threads={threads} diverged from sequential");
    }
    // 4 initial sends x 13 bounce events each.
    assert_eq!(seq.2, 4 * 13);
}

#[test]
fn windows_counter_reported() {
    let (json, _, _) = scheduler_probe(2);
    assert!(json.contains("\"windows\":"));
    let m: crate::json::JsonValue = crate::json::JsonValue::parse(&json).unwrap();
    let w = m.get("counters").unwrap().get("windows").unwrap().as_u64().unwrap();
    assert!(w > 0, "cross-node run must take at least one window");
}

/// One shard ticks through many windows while three sit idle: idle
/// shards do not let windows share a barrier round.
#[test]
fn every_window_is_a_barrier_round() {
    let mut cfg = MachineConfig::small(4, 1, 2);
    cfg.threads = 2;
    let mut eng = Engine::new(cfg);
    let gap = 3 * eng.lookahead();
    let tick = eng.register(
        "tick",
        Arc::new(move |ctx: &mut EventCtx| {
            if ctx.arg(0) > 0 {
                ctx.send_event_after(gap, ctx.msg.dst, [ctx.arg(0) - 1], EventWord::IGNORE);
            }
            ctx.yield_terminate();
        }),
    );
    eng.send(EventWord::new(NetworkId(0), tick), [20], EventWord::IGNORE);
    let m = eng.run();
    assert_eq!(m.stats.events_executed, 21);
    assert!(m.stats.windows >= 21, "each tick lands in a window of its own");
    assert_eq!(m.stats.windows, m.host_sched.barrier_rounds);
    assert_eq!(m.host_sched.batched_windows, 0);
}

#[test]
fn message_conservation_on_completed_run() {
    let (json, _, _) = scheduler_probe(3);
    let m = crate::json::JsonValue::parse(&json).unwrap();
    let c = m.get("counters").unwrap();
    let total = c.get("total_msgs").unwrap().as_u64().unwrap();
    let delivered = c.get("msgs_delivered").unwrap().as_u64().unwrap();
    let dropped = c.get("msgs_dropped").unwrap().as_u64().unwrap();
    assert_eq!(total, delivered + dropped);
    assert_eq!(dropped, 0, "completed run drops nothing");
}

#[test]
#[should_panic(expected = "time went backwards")]
fn time_went_backwards_is_a_hard_error() {
    let mut eng = Engine::new(tiny());
    let sink = eng.register("sink", Arc::new(|ctx: &mut EventCtx| ctx.yield_terminate()));
    eng.send(EventWord::new(NetworkId(0), sink), [], EventWord::IGNORE);
    // A pending entry at t=0 with the clock forced ahead of it must be
    // rejected as a causality violation, not silently reordered.
    eng.force_clock_for_test(1_000_000);
    eng.run();
}

/// Under `replay`, `Engine::run` replays each checkpoint segment before it
/// settles the entries the segment left in the exchange. Here every event
/// sends to another node, so every pause has entries in flight; a replayed
/// window that touched the exchange would lose them, and the run would end
/// differently from the same run without replay.
#[test]
fn replay_across_checkpoint_pauses_leaves_entries_in_flight_alone() {
    let run = |replay: Option<crate::ReplayCheck>| {
        let mut cfg = MachineConfig::small(4, 2, 4);
        cfg.checkpoint_every = 3;
        cfg.replay = replay;
        let lanes_per_node = cfg.lanes_per_node();
        let mut eng = Engine::new(cfg);
        let hop = eng.register(
            "hop",
            Arc::new(move |ctx: &mut EventCtx| {
                let left = ctx.arg(0);
                if left > 0 {
                    let next = (ctx.nwid().0 + lanes_per_node + 1) % ctx.config().total_lanes();
                    let w = EventWord::new(NetworkId(next), ctx.cur_evw().label());
                    ctx.send_event(w, [left - 1], EventWord::IGNORE);
                }
                ctx.yield_terminate();
            }),
        );
        for node in 0..4 {
            let lane = NetworkId(node * lanes_per_node + node);
            eng.send(EventWord::new(lane, hop), [30], EventWord::IGNORE);
        }
        eng.run().to_json()
    };
    let check = crate::ReplayCheck::new();
    let bare = run(None);
    assert_eq!(run(Some(check.clone())), bare, "replay changed the run");
    let reports = check.reports();
    assert!(reports.len() >= 8, "too few checkpoint segments: {}", reports.len());
    for r in &reports {
        assert_eq!((r.shards, r.mismatches.as_slice()), (4, &[] as &[String]));
    }
    assert_eq!(reports.iter().map(|r| r.events).sum::<u64>(), 4 * 31);
}

/// 64 shards in a ring, each sending only to the next one: the exchange
/// allocates buffers for those 64 pairs and no other, and the metrics are
/// the same at one and two threads.
#[test]
fn ring_traffic_allocates_only_the_pairs_that_send() {
    const SHARDS: u32 = 64;
    let run = |threads: u32| {
        let mut cfg = MachineConfig::small(SHARDS, 1, 2);
        cfg.threads = threads;
        let lanes_per_node = cfg.lanes_per_node();
        let mut eng = Engine::new(cfg);
        let hop = eng.register(
            "hop",
            Arc::new(move |ctx: &mut EventCtx| {
                let left = ctx.arg(0);
                if left > 0 {
                    let next = (ctx.node() + 1) % SHARDS * lanes_per_node;
                    let w = EventWord::new(NetworkId(next), ctx.cur_evw().label());
                    ctx.send_event(w, [left - 1], EventWord::IGNORE);
                }
                ctx.yield_terminate();
            }),
        );
        for node in 0..SHARDS {
            eng.send(EventWord::new(NetworkId(node * lanes_per_node), hop), [5], EventWord::IGNORE);
        }
        let json = eng.run().to_json();
        (json, eng.exchange.pairs().collect::<Vec<_>>())
    };
    let (json, pairs) = run(1);
    let ring: Vec<(usize, usize)> = (0..SHARDS as usize).map(|s| (s, (s + 1) % SHARDS as usize)).collect();
    assert_eq!(pairs, ring, "allocated pairs are the active ones");
    assert!(json.contains(&format!("\"events_executed\":{}", SHARDS * 6)), "{json}");
    assert_eq!(run(2), (json, pairs), "threads = 2");
}

/// Table 2 in tier-1: the lane cycles charged for each operation equal
/// both its [`OP_COSTS`](crate::config::OP_COSTS) entry and the paper's
/// value — thread create 0, yield 1, yield_terminate 1, scratchpad access
/// 1, `send_event` 2, DRAM request 2, event dispatch 2.
#[test]
fn lane_operations_charge_table_2() {
    use crate::config::OP_COSTS as C;
    // Busy cycles of a run that executes `first` on a new thread of lane
    // 0, and `then` where `first` sends to it (given its label and a
    // DRAM word).
    fn busy(first: fn(&mut EventCtx, EventLabel, VAddr), then: fn(&mut EventCtx)) -> u64 {
        let mut eng = Engine::new(MachineConfig::small(1, 1, 2));
        let va = eng.mem_mut().alloc(4096, 0, 1, 4096).unwrap();
        let then = eng.register("then", Arc::new(then));
        let first = eng.register("first", Arc::new(move |ctx: &mut EventCtx| first(ctx, then, va)));
        eng.send(EventWord::new(NetworkId(0), first), [], EventWord::IGNORE);
        eng.run().total_busy
    }
    let (yields, terminates) = (busy(|_, _, _| {}, |_| {}), busy(|ctx, _, _| ctx.yield_terminate(), |_| {}));
    let spm = busy(
        |ctx, _, _| {
            ctx.spm_write(0, 7);
            ctx.spm_read(0);
            ctx.yield_terminate();
        },
        |_| {},
    );
    // A send to a new thread on the other lane, which terminates it.
    let send = busy(
        |ctx, then, _| {
            ctx.send_event(EventWord::new(NetworkId(1), then), [], EventWord::IGNORE);
            ctx.yield_terminate();
        },
        |ctx| ctx.yield_terminate(),
    );
    // The reply of a DRAM read runs on the issuing thread, which exists.
    let dram = busy(
        |ctx, then, va| ctx.send_dram_read(va, 1, then),
        |ctx| ctx.yield_terminate(),
    );
    // The paper column sums Table 2's nonzero terms: thread creation
    // costs 0 and a scratchpad access 1.
    let charged = [
        ("yield", yields, C.event_dispatch + C.thread_create + C.yield_, 2 + 1),
        ("yield_terminate", terminates, C.event_dispatch + C.thread_create + C.thread_dealloc, 2 + 1),
        ("scratchpad", spm, terminates + 2 * C.spd_access, 3 + 2),
        ("send_event", send, 2 * terminates + C.send_msg, 2 * 3 + 2),
        ("DRAM read", dram, yields + C.send_dram + C.event_dispatch + C.thread_dealloc, 3 + 2 + 2 + 1),
    ];
    for (probe, cycles, table, paper) in charged {
        assert_eq!(cycles, table, "{probe} against OP_COSTS");
        assert_eq!(cycles, paper, "{probe} against Table 2");
    }
}

/// A restore whose checkpoint boundaries skip the snapshot's window is
/// refused by a panic whose payload is a `SnapshotError` naming the
/// window, which `repro` reports as exit 2. (`repro` refuses such a
/// cadence before any run; a library caller reaches this.)
#[test]
fn a_restore_whose_boundaries_skip_the_snapshot_window_is_refused() {
    let path = std::env::temp_dir().join(format!("engine-tests-{}.skip.snap", std::process::id()));
    let run = |every: u64, restore: bool| {
        let mut cfg = tiny();
        cfg.checkpoint_every = every;
        let slot = if restore { &mut cfg.restore_path } else { &mut cfg.checkpoint_path };
        *slot = Some(path.clone());
        let mut eng = Engine::new(cfg);
        let counter = eng.shard_slot::<u64>();
        let bounce = register_bounce(&mut eng, counter, 40);
        eng.send(EventWord::new(NetworkId(0), bounce), [], EventWord::IGNORE);
        eng.run()
    };
    assert!(run(8, false).stats.windows > 9);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(3, true)))
        .expect_err("boundaries at windows 3, 6, 9 skip window 8");
    match payload.downcast_ref::<SnapshotError>() {
        Some(SnapshotError::Incompatible(m)) => {
            assert!(m.contains("(every 3 windows) skipped over the snapshot's window 8"), "{m}")
        }
        _ => panic!("the payload is not a SnapshotError"),
    }
    std::fs::remove_file(&path).unwrap();
}

/// A run recycles its five-to-nine-word payloads through the thread's
/// block list and leaves the list empty when it returns.
#[test]
fn a_run_recycles_payload_blocks_and_releases_them_at_the_end() {
    use crate::message::tests::pooled;
    let mut eng = Engine::new(tiny());
    let most = Arc::new(Mutex::new(0));
    let seen = most.clone();
    let relay = eng.register(
        "relay",
        Arc::new(move |ctx: &mut EventCtx| {
            let mut m = seen.lock().unwrap();
            *m = (*m).max(pooled());
            if ctx.arg(0) > 0 {
                let args = [ctx.arg(0) - 1, 1, 2, 3, 4, 5, 6, 7];
                ctx.send_event(EventWord::new(ctx.nwid(), ctx.cur_evw().label()), args, EventWord::IGNORE);
            }
            ctx.yield_terminate();
        }),
    );
    eng.send(EventWord::new(NetworkId(0), relay), [20, 1, 2, 3, 4, 5, 6, 7], EventWord::IGNORE);
    eng.run();
    assert!(*most.lock().unwrap() >= 1, "a delivered payload's block went back to the list");
    assert_eq!(pooled(), 0, "the run released the list");
}

#[derive(Clone, Default, PartialEq, Debug)]
struct Filled {
    words: Vec<u64>,
    n: u64,
}

#[derive(Clone, Default, PartialEq, Debug)]
struct Tally {
    hits: u32,
}

/// Per thread: its `arg(0)`, whether its state started at the default,
/// and the address of its state.
type ThreadLog = Arc<Mutex<Vec<(u64, bool, usize)>>>;

/// One thread per event on lane 0: an even `arg(0)` lends a `Filled`
/// through `with_state`, an odd one a `Tally` through `state_mut`; each
/// notes whether its state started at the default and where its box
/// lives, fills the state, starts the next thread and terminates.
fn alternating_threads(eng: &mut Engine) -> (EventLabel, ThreadLog) {
    let log: ThreadLog = Arc::default();
    let seen = log.clone();
    let label = eng.register(
        "alternate",
        Arc::new(move |ctx: &mut EventCtx| {
            let k = ctx.arg(0);
            let (fresh, at) = if k.is_multiple_of(2) {
                ctx.with_state(|_, st: &mut Filled| {
                    let fresh = *st == Filled::default();
                    st.words.extend([k; 5]);
                    st.n = k;
                    (fresh, st as *const Filled as usize)
                })
            } else {
                let st = ctx.state_mut::<Tally>();
                let fresh = *st == Tally::default();
                st.hits = k as u32;
                (fresh, st as *const Tally as usize)
            };
            seen.lock().unwrap().push((k, fresh, at));
            if k > 0 {
                ctx.send_event(EventWord::new(ctx.nwid(), ctx.cur_evw().label()), [k - 1], EventWord::IGNORE);
            }
            ctx.yield_terminate();
        }),
    );
    (label, log)
}

/// A thread that takes over a terminated thread's box reads only the
/// defaults, and two state types on one lane each get their own box back.
#[test]
fn recycled_thread_state_starts_at_default_and_keeps_its_type() {
    let mut eng = Engine::new(tiny());
    let (alternate, log) = alternating_threads(&mut eng);
    eng.send(EventWord::new(NetworkId(0), alternate), [9], EventWord::IGNORE);
    let m = eng.run();
    assert_eq!(m.stats.threads_created, 10);
    let log = log.lock().unwrap();
    assert_eq!(log.iter().map(|e| e.0).collect::<Vec<_>>(), (0..10).rev().collect::<Vec<_>>());
    assert!(log.iter().all(|e| e.1), "a thread started from a used state: {log:?}");
    let boxes = |parity: u64| {
        let mut at: Vec<usize> = log.iter().filter(|e| e.0 % 2 == parity).map(|e| e.2).collect();
        at.dedup();
        at
    };
    let (filled, tally) = (boxes(0), boxes(1));
    assert_eq!(filled.len(), 1, "every Filled thread reuses the first Filled box");
    assert_eq!(tally.len(), 1, "every Tally thread reuses the first Tally box");
    assert_ne!(filled, tally);
    let slabs = &mut eng.shards[0].thread_states;
    assert_eq!((slabs.entries::<Filled>(), slabs.entries::<Tally>()), ((0, 1), (0, 1)), "a slab per type");
}

/// A thread holds one slab entry of its state type for its life; a
/// second burst of as many live threads on the shard reuses the first
/// burst's entries and adds none.
#[test]
fn a_second_burst_of_live_threads_adds_no_slab_entries() {
    let mut eng = Engine::new(tiny());
    let hold = eng.register(
        "hold",
        Arc::new(|ctx: &mut EventCtx| {
            let held = ctx.state_mut::<Tally>();
            if held.hits == 0 {
                held.hits = 1;
                let me = ctx.cur_evw();
                ctx.send_event_after(10_000, me, [], EventWord::IGNORE);
            } else {
                ctx.yield_terminate();
            }
        }),
    );
    let threads = 96;
    let lanes = eng.config().lanes_per_node();
    let burst = |eng: &mut Engine| {
        for i in 0..threads {
            eng.send(EventWord::new(NetworkId(i % lanes), hold), [], EventWord::IGNORE);
        }
        eng.run().stats.threads_terminated
    };
    assert_eq!(burst(&mut eng), u64::from(threads));
    let first = eng.shards[0].thread_states.entries::<Tally>();
    assert_eq!(first, (0, threads as usize), "every thread of the burst was live at once");
    burst(&mut eng);
    assert_eq!(eng.shards[0].thread_states.entries::<Tally>(), first);
}

/// A thread that moves from `with_state::<Filled>` to `with_state::<Tally>`
/// frees its `Filled` entry and reads `Tally`'s default; the next thread
/// takes that entry over reset, its words dropped.
#[test]
fn a_thread_that_switches_state_type_frees_its_old_entry() {
    type Log = Arc<Mutex<Vec<(bool, bool, [(usize, usize); 2])>>>;
    let mut eng = Engine::new(tiny());
    let log: Log = Arc::default();
    let seen = log.clone();
    let switch = eng.register(
        "switch",
        Arc::new(move |ctx: &mut EventCtx| {
            let filled = ctx.with_state(|_, st: &mut Filled| {
                let fresh = *st == Filled::default() && st.words.capacity() == 0;
                st.words.extend([7; 5]);
                fresh
            });
            let tally = ctx.with_state(|_, st: &mut Tally| {
                let fresh = *st == Tally::default();
                st.hits += 1;
                fresh
            });
            let slabs = &mut ctx.shard.thread_states;
            let entries = [slabs.entries::<Filled>(), slabs.entries::<Tally>()];
            seen.lock().unwrap().push((filled, tally, entries));
            if ctx.arg(0) > 0 {
                ctx.send_event(EventWord::new(ctx.nwid(), ctx.cur_evw().label()), [0], EventWord::IGNORE);
            }
            ctx.yield_terminate();
        }),
    );
    eng.send(EventWord::new(NetworkId(0), switch), [1], EventWord::IGNORE);
    eng.run();
    let after_switch = (true, true, [(0, 1), (1, 0)]);
    assert_eq!(*log.lock().unwrap(), [after_switch, after_switch]);
    let slabs = &mut eng.shards[0].thread_states;
    assert_eq!((slabs.entries::<Filled>(), slabs.entries::<Tally>()), ((0, 1), (0, 1)));
}

/// Paused with typed thread states live on both shards, a run survives an
/// in-memory snapshot, a rewind and a decode with identical
/// `updown-snapshot/v2` bytes, and a rewound or decoded run's metrics are
/// those of the run that went on from the pause.
#[test]
fn live_thread_states_survive_snapshot_restore_and_encode() {
    let build = || {
        let mut eng = Engine::new(tiny());
        let step = eng.register(
            "step",
            Arc::new(|ctx: &mut EventCtx| {
                let n = ctx.with_state(|ctx, n: &mut u64| {
                    *n += 1;
                    ctx.charge(*n);
                    *n
                });
                if n < 3 {
                    let me = ctx.cur_evw();
                    ctx.send_event_after(500, me, [], EventWord::IGNORE);
                } else {
                    ctx.yield_terminate();
                }
            }),
        );
        for i in 0..24 {
            eng.send(EventWord::new(NetworkId(i % eng.config().total_lanes()), step), [], EventWord::IGNORE);
        }
        eng
    };
    let mut eng = build();
    eng.set_event_limit(30);
    eng.run();
    let live = |eng: &mut Engine| eng.shards.iter_mut().map(|c| c.thread_states.entries::<u64>().0).collect::<Vec<_>>();
    assert!(live(&mut eng).iter().all(|&n| n > 0), "vacuous: a shard holds no live state");
    let (snap, bytes) = (eng.snapshot(), eng.snapshot_bytes().unwrap());
    eng.set_event_limit(u64::MAX);
    let want = eng.run().to_json();
    eng.restore(&snap).unwrap();
    assert_eq!(eng.snapshot_bytes().unwrap(), bytes, "a rewind carries the live states");
    let mut decoded = build();
    decoded.restore_snapshot_bytes(&bytes).unwrap();
    assert_eq!(live(&mut decoded), live(&mut eng));
    assert_eq!(decoded.snapshot_bytes().unwrap(), bytes, "a decode carries the live states");
    decoded.set_event_limit(u64::MAX);
    assert_eq!(eng.run().to_json(), want, "a rewound run reads as an unrewound one");
    assert_eq!(decoded.run().to_json(), want);
}
