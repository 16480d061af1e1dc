//! Randomized property tests on the core invariants: translation
//! coverage, split preservation, KVMSR delivery, SHT-vs-HashMap
//! equivalence, sort correctness, block-parse partitioning, the linked
//! calendar queue's equivalence with a `(time, seq)` binary heap, sparse
//! global memory's equivalence with a dense byte vector, and the
//! engine's causality / clock-monotonicity / message-conservation laws
//! (exercised on both the sequential and the parallel engine).
//!
//! Each property is exercised over a deterministic sweep of seeded random
//! cases (xoshiro256++ from `updown_graph::rng`), so failures reproduce
//! exactly without an external property-testing framework.

use std::sync::Mutex;
use std::sync::Arc;

use kvmsr::{JobSpec, Kvmsr, Outcome};
use udweave::LaneSet;
use updown_graph::preprocess::{dedup_sort, split, split_in_out};
use updown_graph::rng::Rng;
use updown_graph::{Csr, EdgeList};
use updown_sim::{Engine, EventWord, MachineConfig, NetworkId, TranslationDescriptor, VAddr};

const CASES: u64 = 24;

fn random_edges(rng: &mut Rng, max_n: u32, max_m: usize) -> EdgeList {
    let n = 2 + rng.below_u32(max_n - 2);
    let m = rng.below_usize(max_m);
    let edges = (0..m)
        .map(|_| (rng.below_u32(n), rng.below_u32(n)))
        .collect();
    EdgeList::new(n, edges)
}

/// Every byte of a region maps to exactly one node, and per-node byte
/// counts sum to the region size.
#[test]
fn swizzle_partitions_address_space() {
    let mut rng = Rng::seed_from_u64(0x5117);
    for _ in 0..CASES {
        let size_blocks = 1 + rng.below_u64(63);
        let tail = rng.below_u64(4096);
        let first = rng.below_u32(4);
        let nr = 1u32 << rng.below_u32(3);
        let bs = 1u64 << (12 + rng.below_u64(3));
        let size = size_blocks * bs + tail;
        let d = TranslationDescriptor {
            base: VAddr(0x1000_0000),
            size,
            first_node: first,
            nr_nodes: nr,
            block_size: bs,
        };
        let total: u64 = (0..first + nr).map(|n| d.bytes_on_node(n).unwrap()).sum();
        assert_eq!(total, size);
        // Probe addresses: pnn within range, node_offset under footprint.
        for probe in [0, size / 3, size / 2, size - 1] {
            let va = VAddr(d.base.0 + probe);
            let node = d.pnn(va);
            assert!(node >= first && node < first + nr);
            assert!(d.node_offset(va) < d.bytes_on_node(node).unwrap());
        }
    }
}

/// Vertex splitting (both regimes) preserves the multiset of edges.
#[test]
fn splits_preserve_edges() {
    let mut rng = Rng::seed_from_u64(0x5217);
    for _ in 0..CASES {
        let el = random_edges(&mut rng, 64, 400);
        let max_deg = 1 + rng.below_u32(15);
        let g = Csr::from_edges(&dedup_sort(el));
        let mut orig: Vec<(u32, u32)> = (0..g.n())
            .flat_map(|v| g.neigh(v).iter().map(move |&d| (v, d)))
            .collect();
        orig.sort_unstable();

        let sg = split(&g, max_deg);
        assert!(sg.max_sub_degree() <= max_deg);
        let mut back: Vec<(u32, u32)> = (0..sg.n_sub())
            .flat_map(|s| {
                let r = sg.sub_root[s as usize];
                sg.sub_neigh(s)
                    .iter()
                    .map(move |&d| (r, d))
                    .collect::<Vec<_>>()
            })
            .collect();
        back.sort_unstable();
        assert_eq!(back, orig);

        let sg2 = split_in_out(&g, max_deg);
        assert!(sg2.max_sub_degree() <= max_deg);
        let mut back2: Vec<(u32, u32)> = (0..sg2.n_sub())
            .flat_map(|s| {
                let r = sg2.sub_root[s as usize];
                sg2.sub_neigh(s)
                    .iter()
                    .map(|&t| (r, sg2.sub_root[t as usize]))
                    .collect::<Vec<_>>()
            })
            .collect();
        back2.sort_unstable();
        assert_eq!(back2, orig);
    }
}

/// A KVMSR map/reduce job delivers every emitted tuple exactly once,
/// for arbitrary key counts and fan-outs.
#[test]
fn kvmsr_delivers_exactly_once() {
    let mut rng = Rng::seed_from_u64(0x5317);
    for _ in 0..CASES {
        let keys = rng.below_u64(300);
        let fanout = rng.below_u64(5);
        let mut eng = Engine::new(MachineConfig::small(2, 2, 4));
        let rt = Kvmsr::install(&mut eng);
        let set = LaneSet::all(eng.config());
        let seen: Arc<Mutex<std::collections::BTreeMap<u64, u64>>> = Arc::default();
        let seen2 = seen.clone();
        let job = rt.define_job(
            &mut eng,
            JobSpec::new("p", set, move |ctx, task, rt| {
                for i in 0..fanout {
                    rt.emit(ctx, task, task.key * 16 + i, &[task.key]);
                }
                ctx.charge(2);
                Outcome::Done
            })
            .with_reduce(move |_ctx, task, vals, _rt| {
                let mut s = seen2.lock().unwrap();
                *s.entry(task.key).or_insert(0) += 1;
                assert_eq!(vals[0], task.key / 16);
                Outcome::Done
            }),
        );
        let done: Arc<Mutex<Option<(u64, u64)>>> = Arc::default();
        let d2 = done.clone();
        let fin = udweave::simple_event(&mut eng, "fin", move |ctx| {
            *d2.lock().unwrap() = Some((ctx.arg(0), ctx.arg(1)));
            ctx.stop();
        });
        let (evw, args) = rt.start_msg(&eng, job, keys, 0);
        eng.send(evw, args, EventWord::new(NetworkId(0), fin));
        eng.run();
        let (processed, emitted) = done.lock().unwrap().expect("job completed");
        assert_eq!(processed, keys);
        assert_eq!(emitted, keys * fanout);
        let s = seen.lock().unwrap();
        assert_eq!(s.len() as u64, keys * fanout);
        assert!(s.values().all(|&c| c == 1));
    }
}

/// The device SHT behaves exactly like a HashMap under a random
/// serialized op sequence, and its DRAM image matches.
#[test]
fn sht_matches_hashmap() {
    let mut rng = Rng::seed_from_u64(0x5417);
    for _ in 0..CASES {
        use updown_graph::{ShtLib, ShtOp};
        let n_ops = 1 + rng.below_usize(59);
        let ops: Vec<(u8, u64, u64)> = (0..n_ops)
            .map(|_| {
                (
                    rng.below_u64(4) as u8,
                    rng.below_u64(40),
                    1 + rng.below_u64(99),
                )
            })
            .collect();
        let mut eng = Engine::new(MachineConfig::small(1, 2, 4));
        let lib = ShtLib::install(&mut eng);
        let set = LaneSet::all(eng.config());
        let sht = lib.create(&mut eng, set, 8, 16, drammalloc::Layout::cyclic(1));
        // Serialize ops through a chain: each op's reply triggers the next.
        let ops = Arc::new(ops);
        let idx: Arc<Mutex<usize>> = Arc::default();
        let ops2 = ops.clone();
        let step_l: Arc<Mutex<updown_sim::EventLabel>> =
            Arc::new(Mutex::new(updown_sim::EventLabel(0)));
        let sl = step_l.clone();
        let step = udweave::simple_event(&mut eng, "step", move |ctx| {
            let mut i = idx.lock().unwrap();
            if *i >= ops2.len() {
                ctx.stop();
                ctx.yield_terminate();
                return;
            }
            let (op, k, v) = ops2[*i];
            *i += 1;
            let op = match op {
                0 => ShtOp::Get,
                1 => ShtOp::PutIfAbsent,
                2 => ShtOp::Put,
                _ => ShtOp::FetchOr,
            };
            let next = EventWord::new(ctx.nwid(), *sl.lock().unwrap());
            lib.op(ctx, sht, op, k, v, next);
            ctx.yield_terminate();
        });
        *step_l.lock().unwrap() = step;
        eng.send(EventWord::new(NetworkId(0), step), [], EventWord::IGNORE);
        eng.run();
        // Model.
        let mut model = std::collections::BTreeMap::new();
        for &(op, k, v) in ops.iter() {
            match op {
                0 => {}
                1 => {
                    model.entry(k).or_insert(v);
                }
                2 => {
                    model.insert(k, v);
                }
                _ => {
                    *model.entry(k).or_insert(0) |= v;
                }
            }
        }
        for (&k, &v) in &model {
            assert_eq!(lib.host_get(&eng, sht, k), Some(v));
        }
        assert_eq!(lib.len(&eng, sht), model.len());
        let dram = lib.dump_from_dram(&eng, sht);
        assert_eq!(dram, model);
    }
}

/// The KVMSR bucket sort sorts arbitrary inputs.
#[test]
fn global_sort_sorts() {
    let mut rng = Rng::seed_from_u64(0x5517);
    for _ in 0..CASES {
        use kvmsr::sort::{install_sort, read_sorted, SortPlan};
        let len = 1 + rng.below_usize(199);
        let vals: Vec<u64> = (0..len).map(|_| rng.below_u64(5000)).collect();
        let mut eng = Engine::new(MachineConfig::small(1, 2, 8));
        let n = vals.len() as u64;
        let input = eng.mem_mut().alloc(n * 8, 0, 1, 4096).unwrap();
        let buckets = 8u64;
        let cap = n.max(8);
        let seg = eng.mem_mut().alloc(buckets * cap * 8, 0, 1, 4096).unwrap();
        let lens = eng.mem_mut().alloc(buckets * 8, 0, 1, 4096).unwrap();
        eng.mem_mut().write_words(input, &vals).unwrap();
        let rt = Kvmsr::install(&mut eng);
        let plan = SortPlan {
            input,
            seg_data: seg,
            seg_len_base: lens,
            buckets,
            segment_cap: cap,
            max_value: 5000,
        };
        let set = LaneSet::all(eng.config());
        let job = install_sort(&mut eng, &rt, set, plan);
        let fin = udweave::simple_event(&mut eng, "fin", |ctx| ctx.stop());
        let (evw, args) = rt.start_msg(&eng, job, n, 0);
        eng.send(evw, args, EventWord::new(NetworkId(0), fin));
        eng.run();
        let got = read_sorted(eng.mem(), &plan);
        let mut expect = vals.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }
}

/// Causality and per-shard clock monotonicity over random machines and
/// random message cascades, on both engines: an event never executes
/// before its send time plus the network's minimum latency for the hop it
/// took, and each node's observed clock never decreases.
#[test]
fn engine_causality_and_clock_monotonicity() {
    let mut rng = Rng::seed_from_u64(0x5717);
    for case in 0..CASES / 2 {
        let nodes = 1 + rng.below_u32(4);
        let accels = 1 + rng.below_u32(2);
        let lanes = 1 + rng.below_u32(4);
        let threads = [1u32, 2, 4][rng.below_usize(3)];
        let mut cfg = MachineConfig::small(nodes, accels, lanes);
        cfg.threads = threads;
        let inter = cfg.net.inter_node_latency;
        let mut eng = Engine::new(cfg);
        let total_lanes = eng.config().total_lanes();

        // Per-node sequence of observed clocks, in execution order.
        let clocks: Arc<Mutex<std::collections::BTreeMap<u32, Vec<u64>>>> = Arc::default();
        let c2 = clocks.clone();
        // args: [sent_at, cross_node (0/1), hops_left, rng_state]
        let hop_l: Arc<Mutex<updown_sim::EventLabel>> =
            Arc::new(Mutex::new(updown_sim::EventLabel(0)));
        let hl = hop_l.clone();
        let hop = udweave::simple_event(&mut eng, "hop", move |ctx| {
            let sent_at = ctx.arg(0);
            let cross = ctx.arg(1) != 0;
            let hops_left = ctx.arg(2);
            let floor = sent_at + if cross { inter } else { 0 };
            assert!(
                ctx.now() >= floor,
                "causality: event at t={} but sent at t={sent_at} (cross={cross})",
                ctx.now()
            );
            c2.lock()
                .unwrap()
                .entry(ctx.node())
                .or_default()
                .push(ctx.now());
            if hops_left > 0 {
                let mut r = Rng::seed_from_u64(ctx.arg(3));
                let dst = NetworkId(r.below_u32(total_lanes));
                let delay = r.below_u64(40);
                let cross_next = ctx.config().node_of(dst) != ctx.node();
                let args = [
                    ctx.now() + delay,
                    cross_next as u64,
                    hops_left - 1,
                    r.below_u64(u64::MAX),
                ];
                let l = *hl.lock().unwrap();
                ctx.send_event_after(delay, EventWord::new(dst, l), args, EventWord::IGNORE);
            }
            ctx.yield_terminate();
        });
        *hop_l.lock().unwrap() = hop;

        for i in 0..4u64 {
            let lane = NetworkId(((case * 7 + i) % total_lanes as u64) as u32);
            eng.send(
                EventWord::new(lane, hop),
                [0, 0, 6, 0x9E37 ^ (case << 8 | i)],
                EventWord::IGNORE,
            );
        }
        eng.run();
        for (node, seq) in clocks.lock().unwrap().iter() {
            assert!(
                seq.windows(2).all(|w| w[0] <= w[1]),
                "node {node} clock went backwards: {seq:?}"
            );
        }
    }
}

/// Message conservation over random machines, on both engines: every sent
/// message is either delivered or accounted as dropped at drain, whether
/// the run completes or is stopped mid-flight.
#[test]
fn engine_message_conservation() {
    let mut rng = Rng::seed_from_u64(0x5817);
    for case in 0..CASES / 2 {
        let nodes = 1 + rng.below_u32(4);
        let threads = [1u32, 3][rng.below_usize(2)];
        let stop_early = case % 3 == 0;
        let mut cfg = MachineConfig::small(nodes, 2, 2);
        cfg.threads = threads;
        let mut eng = Engine::new(cfg);
        let total_lanes = eng.config().total_lanes();
        let fanout = 1 + rng.below_u64(3);

        // args: [depth, rng_state]; each event fans out to `fanout` lanes.
        let cascade_l: Arc<Mutex<updown_sim::EventLabel>> =
            Arc::new(Mutex::new(updown_sim::EventLabel(0)));
        let cl = cascade_l.clone();
        let cascade = udweave::simple_event(&mut eng, "cascade", move |ctx| {
            let depth = ctx.arg(0);
            if stop_early && depth == 2 {
                ctx.stop();
            }
            if depth > 0 {
                let mut r = Rng::seed_from_u64(ctx.arg(1));
                let l = *cl.lock().unwrap();
                for _ in 0..fanout {
                    let dst = NetworkId(r.below_u32(total_lanes));
                    ctx.send_event(
                        EventWord::new(dst, l),
                        [depth - 1, r.below_u64(u64::MAX)],
                        EventWord::IGNORE,
                    );
                }
            }
            ctx.yield_terminate();
        });
        *cascade_l.lock().unwrap() = cascade;

        eng.send(
            EventWord::new(NetworkId(0), cascade),
            [4, 0xABCD ^ case],
            EventWord::IGNORE,
        );
        let m = eng.run();
        let c = &m.stats;
        assert_eq!(
            c.total_msgs(),
            c.msgs_delivered + c.msgs_dropped,
            "conservation: case {case} (stop_early={stop_early})"
        );
        if !stop_early {
            assert_eq!(c.msgs_dropped, 0, "completed run drops nothing");
        }
    }
}

/// A `CalendarQueue` run in lock-step with the reference it must equal: a
/// `BinaryHeap` over `(time, global push stamp)`. Ids are handed out the
/// way the engine does it — a few "lane" ids `0..LANES`, each pending at
/// most once, and "slot" ids above them recycled LIFO — so they are unique
/// among pending entries, as the queue requires.
struct CalendarPair {
    q: updown_sim::CalendarQueue,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>>,
    seq: u64,
    lane_pending: [bool; CalendarPair::LANES as usize],
    free_slots: Vec<u32>,
    next_slot: u32,
}

impl CalendarPair {
    const LANES: u32 = 8;

    fn new() -> CalendarPair {
        CalendarPair {
            q: updown_sim::CalendarQueue::new(),
            heap: Default::default(),
            seq: 0,
            lane_pending: [false; Self::LANES as usize],
            free_slots: Vec::new(),
            next_slot: Self::LANES,
        }
    }

    /// Push at `t`: an idle lane's id one time in four, else a slot id.
    fn push(&mut self, rng: &mut Rng, t: u64) {
        let lane = rng.below_u32(4 * Self::LANES);
        let id = if lane < Self::LANES && !self.lane_pending[lane as usize] {
            self.lane_pending[lane as usize] = true;
            lane
        } else {
            self.free_slots.pop().unwrap_or_else(|| {
                self.next_slot += 1;
                self.next_slot - 1
            })
        };
        self.seq += 1;
        self.q.push(t, id);
        self.heap.push(std::cmp::Reverse((t, self.seq, id)));
    }

    /// Pop below `horizon` on both sides; they must agree.
    fn pop_if_before(&mut self, horizon: u64, what: &str) -> Option<(u64, u32)> {
        let expect = match self.heap.peek() {
            Some(&std::cmp::Reverse((t, _, id))) if t < horizon => {
                self.heap.pop();
                Some((t, id))
            }
            _ => None,
        };
        let got = self.q.pop_if_before(horizon);
        assert_eq!(got, expect, "{what}");
        if let Some((_, id)) = got {
            match self.lane_pending.get_mut(id as usize) {
                Some(pending) => *pending = false,
                None => self.free_slots.push(id),
            }
        }
        got
    }

    fn check_shape(&self, what: &str) {
        assert_eq!(self.q.len(), self.heap.len(), "{what}: length");
        assert_eq!(
            self.q.peek_time(),
            self.heap.peek().map(|std::cmp::Reverse((t, _, _))| *t),
            "{what}: peek"
        );
    }
}

/// The engine's calendar queue dequeues in exactly the
/// `(time, push-order)` sequence of a reference `BinaryHeap`, across
/// randomized workloads that exercise the same-tick fast lane, every
/// ring-growth boundary, ring wraparound before and after growth, the
/// overflow rung beyond the cap, and rebase/migration after full drains —
/// with lane ids and recycled slot ids mixed as in the engine.
#[test]
fn calendar_queue_matches_binaryheap_reference() {
    use updown_sim::calendar::MAX_RING_BUCKETS;
    let cap = MAX_RING_BUCKETS as u64;

    let mut rng = Rng::seed_from_u64(0x5917);
    for case in 0..CASES {
        let mut pair = CalendarPair::new();
        let mut now = 0u64; // last popped time: pushes never go behind it
        let steps = 500 + rng.below_usize(4000);
        for step in 0..steps {
            if pair.heap.is_empty() || rng.below_u64(100) < 55 {
                // Delay menu: heavy on the same-tick and near-future
                // cases; the exact edges of the current width and of the
                // cap (one short of growing / of the rung, and the first
                // distance that does); jumps far past the cap that force
                // a rebase. Bursts land several entries on one tick, so
                // same-tick FIFO is checked across whatever the burst's
                // first push did to the ring.
                let width = pair.q.ring_width() as u64;
                let delay = match rng.below_u64(14) {
                    0..=2 => 0,
                    3 | 4 => 1 + rng.below_u64(30),
                    5 => 200,
                    6 => 1000 + rng.below_u64(1024),
                    7 => width - 1,
                    8 => width,
                    9 => cap - 1,
                    10 => cap,
                    11 => 10 * cap + rng.below_u64(100_000),
                    12 => rng.below_u64(2 * width),
                    _ => rng.below_u64(2 * cap),
                };
                for _ in 0..1 + rng.below_u64(3) {
                    pair.push(&mut rng, now + delay);
                }
            } else if let Some((t, _)) =
                pair.pop_if_before(u64::MAX, &format!("case {case} step {step}"))
            {
                assert!(t >= now, "case {case}: time went backwards");
                now = t;
            }
            pair.check_shape(&format!("case {case} step {step}"));
        }
        // Full drain must agree to the last entry (exercises rebase and
        // rung migration ordering on the tail).
        while pair.pop_if_before(u64::MAX, &format!("case {case} drain")).is_some() {}
        assert!(pair.q.is_empty());
        assert!(
            pair.q.ring_width() <= MAX_RING_BUCKETS,
            "case {case}: ring grew past its cap"
        );
    }
}

/// `pop_if_before` (the engine's fused horizon check) never returns an
/// entry at or past the horizon, never skips one before it, and leaves
/// the queue state identical to the reference when the window advances —
/// the access pattern of the conservative window loop, with windows that
/// straddle a growing ring and the rung.
#[test]
fn calendar_queue_horizon_windows_match_reference() {
    use updown_sim::calendar::MAX_RING_BUCKETS;
    let cap = MAX_RING_BUCKETS as u64;

    let mut rng = Rng::seed_from_u64(0x5A17);
    for case in 0..CASES {
        let mut pair = CalendarPair::new();
        let mut floor = 0u64;
        let lookahead = 1 + rng.below_u64(2000);
        for _round in 0..60 {
            // Sprinkle entries around the current window, like a shard
            // scheduling effects during execution.
            for _ in 0..rng.below_usize(40) {
                let width = pair.q.ring_width() as u64;
                let delay = match rng.below_u64(6) {
                    0 => rng.below_u64(lookahead.max(2)),
                    1 => lookahead + rng.below_u64(1000),
                    2 => rng.below_u64(50),
                    3 => width - 1 + rng.below_u64(2), // last fit / first growth
                    4 => cap - 1 + rng.below_u64(2),   // last ring tick / first rung tick
                    _ => cap * 3 + rng.below_u64(9_000),
                };
                pair.push(&mut rng, floor + delay);
            }
            let horizon = floor.saturating_add(lookahead);
            // Drain the window on both structures.
            while pair
                .pop_if_before(horizon, &format!("case {case} window at floor {floor}"))
                .is_some()
            {}
            pair.check_shape(&format!("case {case} after window at floor {floor}"));
            // Next window floor: earliest pending anywhere.
            floor = pair.q.peek_time().unwrap_or(floor + lookahead);
        }
    }
}

/// The first offset at which memory from `base` differs from `dense`.
fn first_difference(mem: &updown_sim::GlobalMemory, base: VAddr, dense: &[u8]) -> Option<usize> {
    let mut got = vec![0u8; dense.len()];
    mem.read_bytes(base, &mut got).unwrap();
    got.iter().zip(dense).position(|(g, d)| g != d)
}

/// Global memory run in lock-step with the reference it must equal: one
/// dense `Vec<u8>` over the allocation. Reads, writes of 1–600 bytes
/// (random data and all-zero data) and `fetch_add`s land at offsets that
/// straddle a bank page (256 B), a pool chunk (64 KiB) and a swizzle
/// block (64 B to 64 KiB), on 1, 2 or 4 nodes. The sparse banks must
/// read what the dense copy holds, and both snapshot tiers must bring the
/// same contents back: `snapshot` → `restore` after scribbling, and
/// `snapshot_bytes` → `restore_snapshot_bytes` → `snapshot_bytes` with
/// the same bytes.
#[test]
fn sparse_memory_matches_dense_reference() {
    let mut rng = Rng::seed_from_u64(0x5B17);
    for case in 0..CASES {
        let nodes = 1u32 << rng.below_u32(3);
        let bs = 64u64 << (2 * rng.below_u64(6));
        let size = (1 << 18) + rng.below_u64(1 << 19);
        let machine = || {
            let mut eng = Engine::new(MachineConfig::small(nodes, 1, 1));
            eng.mem_mut().min_block = 64;
            let a = eng.mem_mut().alloc(size, 0, nodes, bs).unwrap();
            (eng, a)
        };
        let (mut eng, a) = machine();
        let mut dense = vec![0u8; size as usize];
        let step = |rng: &mut Rng, mem: &updown_sim::GlobalMemory, dense: &mut [u8]| {
            let op = rng.below_u32(4);
            let len = if op == 3 { 8 } else { 1 + rng.below_usize(600) };
            let edge = [256, 1 << 16, bs, 1][rng.below_usize(4)];
            let at = (rng.below_u64(size) / edge * edge + rng.below_u64(16))
                .saturating_sub(rng.below_u64(len as u64 + 1))
                .min(size - len as u64);
            let (va, run) = (a.offset(at), at as usize..at as usize + len);
            match op {
                0 => {
                    let mut got = vec![0xa5; len];
                    mem.read_bytes(va, &mut got).unwrap();
                    assert_eq!(got, dense[run], "case {case}: read {len} at {at}");
                }
                1 | 2 => {
                    let data: Vec<u8> = (0..len)
                        .map(|_| if op == 1 { rng.next_u64() as u8 } else { 0 })
                        .collect();
                    mem.write_bytes(va, &data).unwrap();
                    dense[run].copy_from_slice(&data);
                }
                _ => {
                    let delta = rng.next_u64();
                    let old = u64::from_le_bytes(dense[run.clone()].try_into().unwrap());
                    assert_eq!(
                        mem.fetch_add_u64(va, delta).unwrap(),
                        old,
                        "case {case}: fetch_add at {at}"
                    );
                    dense[run].copy_from_slice(&old.wrapping_add(delta).to_le_bytes());
                }
            }
        };
        for _ in 0..2000 {
            step(&mut rng, eng.mem(), &mut dense);
        }
        assert_eq!(first_difference(eng.mem(), a, &dense), None, "case {case}");

        let snap = eng.snapshot();
        let mut scribbled = dense.clone();
        for _ in 0..200 {
            step(&mut rng, eng.mem(), &mut scribbled);
        }
        eng.restore(&snap).unwrap();
        assert_eq!(first_difference(eng.mem(), a, &dense), None, "case {case}: restore");

        let bytes = eng.snapshot_bytes().unwrap();
        let (mut fresh, b) = machine();
        fresh.restore_snapshot_bytes(&bytes).unwrap();
        assert_eq!(first_difference(fresh.mem(), b, &dense), None, "case {case}: load");
        assert!(fresh.snapshot_bytes().unwrap() == bytes, "case {case}: save after load");
    }
}

/// parse_block partitions any byte stream: blocks concatenate to the
/// full parse for every block size.
#[test]
fn block_parse_partitions() {
    let mut rng = Rng::seed_from_u64(0x5617);
    for _ in 0..CASES {
        use updown_apps::ingest::tform::{parse_block, Transducer};
        let n_recs = rng.below_usize(60);
        let recs: Vec<(u64, u64, u64)> = (0..n_recs)
            .map(|_| (rng.below_u64(500), rng.below_u64(500), 1 + rng.below_u64(4)))
            .collect();
        let bs = 3 + rng.below_usize(197);
        let mut csv = String::new();
        for (a, b, t) in &recs {
            csv.push_str(&format!("E,{a},{b},{t}\n"));
        }
        let bytes = csv.as_bytes();
        let full = Transducer::parse_all(bytes);
        let mut got = Vec::new();
        let mut start = 0;
        while start < bytes.len() {
            let end = (start + bs).min(bytes.len());
            got.extend(parse_block(bytes, start, end));
            start = end;
        }
        assert_eq!(got, full);
    }
}

// ---------------------------------------------------------------------------
// Runtime sanitizer: zero observer effect + deterministic diagnostics
// ---------------------------------------------------------------------------

/// The sanitizer's contract has two halves, and both are load-bearing for
/// `udcheck`:
///
/// 1. **Zero observer effect.** Attaching a [`ProtocolProbe`] — which arms
///    the sanitizer — must leave the simulated run byte-identical on clean
///    programs: same metrics JSON, same final tick, at every thread count. Otherwise "run the app under udcheck" would analyze a
///    different program than the one that ships.
/// 2. **Deterministic diagnostics.** Each injected protocol misuse must
///    produce the same diagnostic sites at 1 thread and at 4 threads, so a
///    violation found in CI reproduces exactly on a laptop.
mod sanitizer {
    use std::sync::{Arc, Mutex};

    use udcheck::apps::case;
    use udcheck::{render_race_document, Finding, RaceAnalysis, Severity, SpecAnalysis};
    use updown_sim::{
        DiagKind, Diagnostic, Engine, EventLabel, EventWord, MachineConfig, NetworkId,
        ProgramSpec, ProtocolProbe, RaceProbe,
    };

    fn machine(nodes: u32, threads: u32) -> MachineConfig {
        let mut m = MachineConfig::small(nodes, 2, 8);
        m.threads = threads;
        m
    }

    /// PageRank (ends via `ctx.stop()`) and partial match (drains
    /// naturally — exercises the leak sweep), each at its first
    /// conformance seed.
    const APPS: [(&str, u64); 2] = [("pagerank", 10), ("partial_match", 7)];

    /// `app`'s conformance case with the given probes attached; returns
    /// the full metrics document + final tick.
    fn run(
        app: &str,
        seed: u64,
        threads: u32,
        probe: Option<ProtocolProbe>,
        race: Option<RaceProbe>,
    ) -> (String, u64) {
        let mut m = machine(2, threads);
        m.probe = probe;
        m.race = race;
        let out = case(app, seed, m).run();
        (out.metrics().to_json(), out.metrics().final_tick)
    }

    /// Probe recording and the sanitizer it arms leave clean programs
    /// byte-identical, sequential and parallel, stopped and drained.
    #[test]
    fn probe_and_sanitizer_have_zero_observer_effect() {
        for (app, seed) in APPS {
            for threads in [1u32, 4] {
                let probe = ProtocolProbe::new();
                let probed = run(app, seed, threads, Some(probe.clone()), None);
                assert_eq!(
                    run(app, seed, threads, None, None),
                    probed,
                    "{app}: probe perturbed the run (threads={threads})"
                );
                assert!(
                    probe.snapshot().diagnostics.is_empty(),
                    "{app}: clean app produced diagnostics"
                );
            }
        }
    }

    /// The race probe also has zero observer effect: the metrics JSON of
    /// a raced run is byte-identical to the bare run at every thread
    /// count, and the clean apps stay race-free.
    #[test]
    fn race_probe_has_zero_observer_effect() {
        for (app, seed) in APPS {
            for threads in [1u32, 4] {
                let base = run(app, seed, threads, None, None);
                let race = RaceProbe::new();
                let r = run(app, seed, threads, None, Some(race.clone()));
                assert_eq!(base, r, "{app}: race probe perturbed the run (threads={threads})");
                let snap = race.snapshot();
                assert!(snap.is_clean(), "{app}: clean app raced: {:?}", snap.sites);
                assert!(snap.accesses > 0, "{app}: race probe saw no accesses");
            }
        }
    }

    /// Run an ad-hoc program with a probe attached (the sanitizer armed)
    /// and return its diagnostics. `build` registers handlers and injects
    /// host messages.
    fn diags_at(threads: u32, build: impl Fn(&mut Engine)) -> Vec<Diagnostic> {
        let probe = ProtocolProbe::new();
        let mut cfg = machine(2, threads);
        cfg.probe = Some(probe.clone());
        let mut eng = Engine::new(cfg);
        build(&mut eng);
        eng.run();
        probe.diagnostics()
    }

    fn kinds(diags: &[Diagnostic]) -> Vec<DiagKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    #[test]
    fn double_terminate_is_diagnosed_deterministically() {
        let fixture = |eng: &mut Engine| {
            let l = udweave::simple_event(eng, "fixture::double", |ctx| {
                ctx.yield_terminate();
                ctx.yield_terminate();
            });
            eng.send(EventWord::new(NetworkId(0), l), [0u64; 0], EventWord::IGNORE);
        };
        let d1 = diags_at(1, fixture);
        assert_eq!(kinds(&d1), vec![DiagKind::DoubleTerminate]);
        assert_eq!(d1[0].handler, "fixture::double");
        assert_eq!(d1[0].count, 1);
        assert_eq!(d1, diags_at(4, fixture), "diagnostic diverged across thread counts");
    }

    /// A handler that schedules a message to its own thread, then
    /// terminates it: by the time the message arrives the context is dead.
    fn dead_thread_fixture(eng: &mut Engine) {
        let late = udweave::simple_event(eng, "fixture::late", |_ctx| {});
        let first = udweave::simple_event(eng, "fixture::first", move |ctx| {
            let dst = ctx.self_event(late);
            ctx.send_event_after(50, dst, [0u64; 0], EventWord::IGNORE);
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(NetworkId(0), first), [0u64; 0], EventWord::IGNORE);
    }

    #[test]
    fn send_to_dead_thread_is_diagnosed_deterministically() {
        let d1 = diags_at(1, dead_thread_fixture);
        assert_eq!(kinds(&d1), vec![DiagKind::SendToDeadThread]);
        assert_eq!(d1[0].handler, "fixture::late");
        assert_eq!(d1, diags_at(4, dead_thread_fixture));
    }

    /// Attaching a probe is all it takes to arm the sanitizer, also next
    /// to a race probe (the `repro race` configuration) or for spec
    /// enforcement (`repro spec --enforce`, which checks the report after the
    /// run): the dead-thread send is a diagnostic, not a panic, and it
    /// fails that tool's verdict.
    #[test]
    fn an_attached_probe_alone_diagnoses_a_send_to_a_dead_thread() {
        let sanitizer_error = |findings: &[Finding]| {
            findings.iter().any(|f| {
                f.check == "sanitizer"
                    && f.severity == Severity::Error
                    && f.subject == "fixture::late"
                    && f.message.starts_with("send-to-dead-thread: ")
            })
        };

        let (probe, race) = (ProtocolProbe::new(), RaceProbe::new());
        let mut cfg = machine(2, 1);
        cfg.probe = Some(probe.clone());
        cfg.race = Some(race.clone());
        let mut eng = Engine::new(cfg);
        dead_thread_fixture(&mut eng);
        let m = eng.run();
        assert_eq!(kinds(&probe.diagnostics()), vec![DiagKind::SendToDeadThread]);
        assert_eq!(m.stats.msgs_dropped, 1);
        assert!(race.snapshot().is_clean(), "no race, only a protocol violation");
        let a = RaceAnalysis::with_flow("fixture", &race, &probe);
        assert!(!a.is_clean() && sanitizer_error(&a.findings), "{:?}", a.findings);
        assert!(render_race_document(&[a]).contains("\"clean\":false"));

        let probe = ProtocolProbe::new();
        let mut cfg = machine(2, 1);
        cfg.probe = Some(probe.clone());
        let mut eng = Engine::new(cfg.clone());
        dead_thread_fixture(&mut eng);
        eng.run();
        let mut a = SpecAnalysis::of("fixture", &ProgramSpec::new(), &cfg);
        assert!(a.is_clean(), "an empty spec has no static finding");
        a.enforce(&probe, &cfg);
        let enforced = a.enforced.as_deref().unwrap_or_default();
        assert!(!a.is_clean() && sanitizer_error(enforced), "{enforced:?}");
    }

    #[test]
    fn scratchpad_leak_at_exit_is_diagnosed_deterministically() {
        let fixture = |eng: &mut Engine| {
            let l = udweave::simple_event(eng, "fixture::leaky", |ctx| {
                let _ = ctx.spm_alloc(16);
                // No yield_terminate: the thread (and its 16 words) leak.
            });
            eng.send(EventWord::new(NetworkId(0), l), [0u64; 0], EventWord::IGNORE);
        };
        let d1 = diags_at(1, fixture);
        let mut ks = kinds(&d1);
        ks.sort_by_key(|k| format!("{k:?}"));
        assert_eq!(
            ks,
            vec![DiagKind::ScratchpadLeakAtExit, DiagKind::ThreadLeakAtExit]
        );
        assert_eq!(d1, diags_at(4, fixture));
    }

    #[test]
    fn operand_out_of_range_reads_zero_and_is_diagnosed() {
        let seen: Arc<Mutex<Vec<u64>>> = Arc::default();
        let seen2 = seen.clone();
        let fixture = move |eng: &mut Engine| {
            let s = seen2.clone();
            let l = udweave::simple_event(eng, "fixture::oob", move |ctx| {
                // The message carries 1 operand; indices 3 and 5 are out
                // of range, and 3 is read twice.
                s.lock().unwrap().extend([ctx.arg(3), ctx.arg(5), ctx.arg(3)]);
                ctx.yield_terminate();
            });
            eng.send(EventWord::new(NetworkId(0), l), [7u64], EventWord::IGNORE);
        };
        let d1 = diags_at(1, &fixture);
        assert_eq!(kinds(&d1), vec![DiagKind::OperandOutOfRange; 2]);
        assert_eq!(d1[0].handler, "fixture::oob");
        // One site per index, each with its count and its own detail.
        let sites: Vec<(&str, u64)> = d1.iter().map(|d| (d.detail.as_str(), d.count)).collect();
        assert_eq!(
            sites,
            [
                ("'fixture::oob' reads operand 3 of a 1-operand message", 2),
                ("'fixture::oob' reads operand 5 of a 1-operand message", 1),
            ]
        );
        assert_eq!(d1, diags_at(4, &fixture));
        // The tolerated read returns 0 — never garbage.
        assert!(seen.lock().unwrap().iter().all(|&v| v == 0));
    }

    #[test]
    fn send_to_unregistered_label_is_diagnosed_deterministically() {
        let fixture = |eng: &mut Engine| {
            let l = udweave::simple_event(eng, "fixture::src", |ctx| {
                ctx.send_event(
                    EventWord::new(NetworkId(0), EventLabel(999)),
                    [0u64; 0],
                    EventWord::IGNORE,
                );
                ctx.yield_terminate();
            });
            eng.send(EventWord::new(NetworkId(0), l), [0u64; 0], EventWord::IGNORE);
        };
        // One violation, up to two sites (send-time at the source handler,
        // drop-time at the unregistered destination).
        let d1 = diags_at(1, fixture);
        assert!(!d1.is_empty());
        assert!(kinds(&d1).iter().all(|&k| k == DiagKind::SendUnregistered));
        assert_eq!(d1, diags_at(4, fixture));
    }

    #[test]
    fn unconsumed_continuation_is_diagnosed_deterministically() {
        let fixture = |eng: &mut Engine| {
            let reply = udweave::simple_event(eng, "fixture::reply", |_ctx| {});
            let sink = udweave::simple_event(eng, "fixture::sink", |ctx| {
                // Terminates without ever reading ctx.cont(): the caller's
                // continuation is silently lost.
                ctx.yield_terminate();
            });
            eng.send(
                EventWord::new(NetworkId(0), sink),
                [0u64; 0],
                EventWord::new(NetworkId(0), reply),
            );
        };
        let d1 = diags_at(1, fixture);
        assert_eq!(kinds(&d1), vec![DiagKind::UnconsumedContinuation]);
        assert_eq!(d1[0].handler, "fixture::sink");
        assert_eq!(d1, diags_at(4, fixture));
    }
}
