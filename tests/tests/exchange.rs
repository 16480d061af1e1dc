//! The cross-shard exchange order. At every window boundary each shard's
//! entries for another shard enter the destination calendar grouped by
//! source shard, in source-shard order, each group in the order its
//! source sent it. Here every shard sends bursts of unequal size (some
//! pairs empty) to one lane on every other shard in the same window, so
//! same-tick arrivals from many sources queue on that lane in exactly the
//! merge order; each destination logs what it ran. The logs are pinned by
//! FNV at the values the sort-based per-destination mailbox produced, and
//! are the same at one, two and four host threads — also when event-limit
//! stops and checkpoint pauses end scheduler invocations with entries in
//! flight, at both round parities.

use std::sync::Arc;

use integration_tests::fnv1a;
use updown_apps::pagerank::{run_pagerank, PrConfig};
use updown_graph::generators::{rmat, RmatParams};
use updown_graph::preprocess::{dedup_sort, split_in_out};
use updown_graph::Csr;
use updown_sim::{Engine, EventCtx, EventWord, MachineConfig, NetworkId, ReplayCheck};

/// Burst rounds after the first; every shard fires all of them.
const ROUNDS: u64 = 5;

/// Messages shard `src` sends shard `dst` in burst round `r`: 0 to 6,
/// zero for about one pair in four.
fn burst(src: u32, dst: u32, r: u64) -> u64 {
    ((src as u64 * 7 + dst as u64 * 13 + r * 5) % 8).saturating_sub(2)
}

/// How an experiment drives the engine to the end.
#[derive(Clone, Copy, Debug)]
enum Drive {
    /// One `run()`.
    Plain,
    /// `run()` under an event limit raised by this step until it drains.
    EventLimit(u64),
    /// One `run()` that pauses every this many windows.
    Checkpoint(u64),
}

/// Each destination shard's log of `(tick, source, index, round)` per
/// received message, and the parities of the last round of every
/// invocation an event limit ended.
fn exchange_logs(nodes: u32, threads: u32, drive: Drive) -> (Vec<Vec<u64>>, Vec<u64>) {
    let mut m = MachineConfig::small(nodes, 1, 4);
    m.threads = threads;
    if let Drive::Checkpoint(every) = drive {
        m.checkpoint_every = every;
    }
    let lanes = m.lanes_per_node();
    let mut eng = Engine::new(m);
    let log = eng.shard_slot::<Vec<u64>>();
    let recv = eng.register(
        "recv",
        Arc::new(move |ctx: &mut EventCtx| {
            let entry = [ctx.now(), ctx.arg(0), ctx.arg(1), ctx.arg(2)];
            ctx.shard_state(log).extend(entry);
            ctx.yield_terminate();
        }),
    );
    let sink = eng.register("sink", Arc::new(|ctx: &mut EventCtx| ctx.yield_terminate()));
    let burst_l = eng.register(
        "burst",
        Arc::new(move |ctx: &mut EventCtx| {
            let src = ctx.node();
            let r = ctx.arg(0);
            // Every shard sends the same number of messages per round, so
            // all bursts of a round end at the same tick; what a pair does
            // not use goes to a local sink.
            let mut sent = 0;
            for k in 0..6 {
                for dst in (0..nodes).filter(|&d| d != src) {
                    if k < burst(src, dst, r) {
                        let to = EventWord::new(NetworkId(dst * lanes), recv);
                        ctx.send_event(to, [src as u64, k, r], EventWord::IGNORE);
                        sent += 1;
                    }
                }
            }
            let local = EventWord::new(NetworkId(src * lanes + 2), sink);
            for _ in sent..6 * (nodes as u64 - 1) {
                ctx.send_event(local, [], EventWord::IGNORE);
            }
            if r < ROUNDS {
                let again = EventWord::new(ctx.nwid(), ctx.cur_evw().label());
                ctx.send_event_after(300 + 170 * r, again, [r + 1], EventWord::IGNORE);
            }
            ctx.yield_terminate();
        }),
    );
    for s in 0..nodes {
        eng.send(
            EventWord::new(NetworkId(s * lanes + 1), burst_l),
            [0],
            EventWord::IGNORE,
        );
    }
    let mut parities = Vec::new();
    match drive {
        Drive::Plain | Drive::Checkpoint(_) => {
            eng.run();
        }
        Drive::EventLimit(step) => {
            let (mut limit, mut windows) = (step, 0);
            loop {
                eng.set_event_limit(limit);
                let m = eng.run();
                if m.stats.events_executed < limit {
                    break;
                }
                parities.push((m.stats.windows - windows) % 2);
                windows = m.stats.windows;
                limit += step;
            }
        }
    }
    let logs = (0..nodes)
        .map(|s| eng.shard_state(log, s).cloned().unwrap_or_default())
        .collect();
    (logs, parities)
}

fn digest(logs: &[Vec<u64>]) -> u64 {
    let mut bytes = Vec::new();
    for log in logs {
        bytes.extend((log.len() as u64).to_le_bytes());
        for w in log {
            bytes.extend(w.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

fn check(nodes: u32, drive: Drive, pin: u64) {
    let (want, parities) = exchange_logs(nodes, 1, drive);
    let received: usize = want.iter().map(|l| l.len() / 4).sum();
    assert!(
        received > nodes as usize * 20,
        "{nodes} shards {drive:?}: only {received} messages"
    );
    assert!(
        want.iter().all(|l| !l.is_empty()),
        "{nodes} shards {drive:?}: a shard received nothing"
    );
    if let Drive::EventLimit(_) = drive {
        assert!(
            parities.contains(&0) && parities.contains(&1),
            "{nodes} shards {drive:?}: stops at only one round parity: {parities:?}"
        );
    }
    assert_eq!(
        digest(&want),
        pin,
        "{nodes} shards {drive:?}: delivery order moved, hash {:#018X}",
        digest(&want)
    );
    for threads in [2, 4] {
        let (got, _) = exchange_logs(nodes, threads, drive);
        for (dst, (a, b)) in want.iter().zip(&got).enumerate() {
            assert_eq!(
                a, b,
                "{nodes} shards {drive:?} threads={threads}: destination {dst}"
            );
        }
    }
}

#[test]
fn four_shards_merge_bursts_in_source_order() {
    check(4, Drive::Plain, 0xE9EA_549B_6C43_6F83);
    check(4, Drive::EventLimit(23), 0xCFD1_8760_0B03_0027);
    check(4, Drive::Checkpoint(2), 0xE9EA_549B_6C43_6F83);
    check(4, Drive::Checkpoint(3), 0xE9EA_549B_6C43_6F83);
}

#[test]
fn sixteen_shards_merge_bursts_in_source_order() {
    check(16, Drive::Plain, 0x45FD_4563_C189_5311);
    check(16, Drive::EventLimit(211), 0x45FD_4563_C189_5311);
    check(16, Drive::Checkpoint(2), 0x45FD_4563_C189_5311);
    check(16, Drive::Checkpoint(3), 0x45FD_4563_C189_5311);
}

/// Record a 16-shard PageRank and replay every shard in isolation from
/// its recorded inject schedule: no shard diverges.
#[test]
fn a_recorded_sixteen_shard_pagerank_replays_without_divergence() {
    let g = Csr::from_edges(&dedup_sort(rmat(8, RmatParams::default(), 10)));
    let check = ReplayCheck::new();
    let mut cfg = PrConfig::new(16);
    cfg.machine = MachineConfig::small(16, 2, 8);
    cfg.machine.threads = 2;
    cfg.machine.replay = Some(check.clone());
    cfg.iterations = 2;
    run_pagerank(&split_in_out(&g, 64), &cfg);
    let reports = check.reports();
    assert_eq!(reports.len(), 1, "one run, one recording");
    let r = &reports[0];
    assert_eq!(r.shards, 16);
    assert!(r.events > 1000 && r.rounds > 10, "vacuous recording: {r:?}");
    assert!(r.ok(), "replay diverged: {:?}", r.mismatches);
}
