//! Scheduler conformance: the worker/shard shape matrix must be
//! **byte-identical** to the one-worker run — the thread count selects
//! how shards are executed, never what they compute.
//!
//! Shapes covered: threads > shards, threads == shards, a single shard,
//! and thread counts that don't divide the shard count. The merged
//! *event order* is pinned by the chrome-trace export (one span per
//! executed event, in merge order), not just the aggregate counters.

use std::sync::{Arc, Mutex};

use udcheck::apps::{case, Case};
use updown_sim::{Engine, EventWord, MachineConfig, NetworkId};

fn machine(nodes: u32, threads: u32) -> MachineConfig {
    let mut m = MachineConfig::small(nodes, 2, 8);
    m.threads = threads;
    m
}

/// PageRank's conformance case on `nodes`: fingerprint (rank bits +
/// per-iteration ticks), metrics JSON, final tick.
fn pr_cell(nodes: u32, threads: u32) -> (String, String, u64) {
    let out = case("pagerank", 10, machine(nodes, threads)).run();
    (out.fingerprint(), out.metrics().to_json(), out.metrics().final_tick)
}

/// The shape matrix: every cell must match the one-worker run for its
/// shard count, byte for byte. (The "modes" are the ways a thread count
/// can relate to the shard count; there is one scheduling policy.)
#[test]
fn edge_shapes_conform_across_scheduler_modes() {
    // (shards, threads): threads > shards, ==, single shard, non-divisor.
    let shapes: &[(u32, u32)] = &[
        (1, 1),
        (1, 4), // threads > the single shard
        (2, 7), // threads > shards, odd worker count
        (4, 4), // threads == shards
        (4, 3), // non-divisor home ranges (2,1,1)
        (8, 3), // non-divisor home ranges (3,3,2)
    ];
    let mut baselines: std::collections::BTreeMap<u32, (String, String, u64)> =
        Default::default();
    for &(nodes, threads) in shapes {
        let base = baselines
            .entry(nodes)
            .or_insert_with(|| pr_cell(nodes, 1))
            .clone();
        let cell = pr_cell(nodes, threads);
        let label = format!("nodes={nodes} threads={threads}");
        assert_eq!(base.0, cell.0, "{label}: application result diverged");
        assert_eq!(base.1, cell.1, "{label}: metrics JSON diverged");
        assert_eq!(base.2, cell.2, "{label}: final tick diverged");
    }
}

/// `Counters::windows` for conformance-scale PageRank is pinned: it is
/// serialized into the metrics JSON, so no change to how windows are
/// scheduled may move it.
#[test]
fn pagerank_window_counts_are_pinned() {
    for (nodes, windows) in [(1u32, 14u64), (4, 47)] {
        for threads in [1u32, 3] {
            let (_, json, _) = pr_cell(nodes, threads);
            let m = updown_sim::json::JsonValue::parse(&json).unwrap();
            let got = m.get("counters").unwrap().get("windows").unwrap().as_u64();
            assert_eq!(got, Some(windows), "nodes={nodes} threads={threads}");
        }
    }
}

/// Merged **event order** under work-stealing: a randomized cross-shard
/// message cascade is traced, and the chrome-trace export (one lane `X`
/// row per executed event, in the merged order the engine observed them)
/// must be byte-identical at every thread count, whichever worker claimed
/// which shard. This pins the ordering claim directly, not via aggregate
/// counters; the row count is checked against `events_executed` so an
/// untraced run cannot pass as an empty trace.
#[test]
fn stealing_never_changes_merged_event_order() {
    use updown_graph::rng::Rng;

    let traced = |threads: u32, seed: u64| -> (String, String) {
        let mut cfg = machine(4, threads);
        cfg.net.inter_node_latency = 40; // wide windows: several events per shard per window
        let mut eng = Engine::new(cfg);
        eng.enable_event_trace();
        let total_lanes = eng.config().total_lanes();
        let hop_l: Arc<Mutex<updown_sim::EventLabel>> =
            Arc::new(Mutex::new(updown_sim::EventLabel(0)));
        let hl = hop_l.clone();
        // args: [depth, rng_state]; every event fans out to two lanes
        // anywhere on the machine with a pseudo-random (but seeded, so
        // deterministic) delay — heavy cross-shard traffic.
        let hop = udweave::simple_event(&mut eng, "order::hop", move |ctx| {
            let depth = ctx.arg(0);
            if depth > 0 {
                let mut r = Rng::seed_from_u64(ctx.arg(1));
                let l = *hl.lock().unwrap();
                for _ in 0..2 {
                    let dst = NetworkId(r.below_u32(total_lanes));
                    let delay = r.below_u64(90);
                    ctx.send_event_after(
                        delay,
                        EventWord::new(dst, l),
                        [depth - 1, r.below_u64(u64::MAX)],
                        EventWord::IGNORE,
                    );
                }
            }
            ctx.yield_terminate();
        });
        *hop_l.lock().unwrap() = hop;
        for i in 0..3u64 {
            eng.send(
                EventWord::new(NetworkId((i as u32 * 37) % total_lanes), hop),
                [7, seed ^ (i << 16)],
                EventWord::IGNORE,
            );
        }
        let m = eng.run();
        let trace = eng.chrome_trace_json();
        let rows = trace.matches(r#""cat":"lane","ph":"X""#).count() as u64;
        assert_eq!(rows, m.stats.events_executed, "threads={threads}: one lane row per event");
        (trace, m.to_json())
    };

    for seed in [0x11u64, 0x2222] {
        let (base_trace, base_json) = traced(1, seed);
        for &threads in &[2u32, 4, 7] {
            let (trace, json) = traced(threads, seed);
            let label = format!("seed={seed:#x} threads={threads}");
            assert_eq!(base_trace, trace, "{label}: merged event order diverged");
            assert_eq!(base_json, json, "{label}: metrics diverged");
        }
    }
}

/// Pausing every N windows changes neither the bytes nor the window
/// count: a cadence of 1 pauses after every window, 3 and 11 land
/// mid-iteration, 8 is the `--checkpoint` default.
#[test]
fn checkpoint_cadence_changes_neither_bytes_nor_windows() {
    let run = |every: u64| -> (String, u64, u64) {
        let mut m = machine(2, 2);
        m.checkpoint_every = every;
        let mut c = case("pagerank", 21, m);
        if let Case::Pagerank(_, _, cfg) = &mut c {
            cfg.iterations = 1;
        }
        let out = c.run();
        let m = out.metrics();
        (m.to_json(), m.final_tick, m.stats.windows)
    };
    let base = run(0);
    assert!(base.2 > 11, "the run must span several pauses at every cadence");
    for every in [1u64, 3, 8, 11] {
        assert_eq!(base, run(every), "checkpoint_every={every} diverged");
    }
}
