//! End-to-end tests of the `udrace` happens-before race detector: seeded
//! engine-level races (write-write and read-write, DRAM and scratchpad)
//! are flagged, synchronized patterns (fetch-and-add barriers, message
//! chains) are not, every application is race-free at conformance scale,
//! the `udrace/v1` document is byte-identical at 1/2/4 worker threads and
//! pinned to the bytes the map-clock detector produced, a seed sweep finds
//! nothing but the known SHT bucket-straddle site, and the documents that
//! report that site are pinned too.

use integration_tests::fnv1a;
use udcheck::apps::{race_app, ALL_APPS};
use udcheck::{render_race_document, RaceAnalysis};
use updown_sim::{
    Engine, EventWord, MachineConfig, NetworkId, RaceKind, RaceProbe, RaceSpace, VAddr,
};

/// Tiny machine with the race probe armed.
fn machine(nodes: u32, threads: u32, race: &RaceProbe) -> MachineConfig {
    let mut m = MachineConfig::small(nodes, 2, 4);
    m.threads = threads;
    m.race = Some(race.clone());
    m
}

fn lane(eng: &Engine, node: u32, idx: u32) -> NetworkId {
    NetworkId(node * eng.config().lanes_per_node() + idx)
}

/// Two host-spawned map-style tasks on different lanes write the same
/// DRAM word with no reduce (or any other ordering) between them: a
/// write-write race, flagged identically at any thread count.
#[test]
fn seeded_dram_write_write_race_is_flagged() {
    for threads in [1, 4] {
        let race = RaceProbe::new();
        let mut eng = Engine::new(machine(2, threads, &race));
        let va = eng.mem_mut().alloc(64, 0, 1, 4096).unwrap();
        let w = udweave::simple_event(&mut eng, "seeded::writer", move |ctx| {
            ctx.send_dram_write(va, &[ctx.arg(0)], None);
            ctx.yield_terminate();
        });
        eng.send(EventWord::new(lane(&eng, 0, 0), w), [1], EventWord::IGNORE);
        eng.send(EventWord::new(lane(&eng, 1, 0), w), [2], EventWord::IGNORE);
        eng.run();
        let r = race.snapshot();
        assert!(!r.is_clean(), "threads={threads}: race must be flagged");
        assert_eq!(r.sites.len(), 1);
        assert_eq!(r.sites[0].kind, RaceKind::WriteWrite);
        assert_eq!(r.sites[0].space, RaceSpace::Dram);
        assert_eq!(r.sites[0].prior, "seeded::writer");
        assert_eq!(r.sites[0].current, "seeded::writer");
    }
}

/// A host-spawned writer and a host-spawned reader touch the same DRAM
/// word with no ordering path: a read-write race.
#[test]
fn seeded_dram_read_write_race_is_flagged() {
    let race = RaceProbe::new();
    let mut eng = Engine::new(machine(2, 1, &race));
    let va = eng.mem_mut().alloc(64, 0, 1, 4096).unwrap();
    let fin = udweave::simple_event(&mut eng, "seeded::read_done", |ctx| {
        ctx.yield_terminate();
    });
    let w = udweave::simple_event(&mut eng, "seeded::writer", move |ctx| {
        ctx.send_dram_write(va, &[7], None);
        ctx.yield_terminate();
    });
    let r = udweave::simple_event(&mut eng, "seeded::reader", move |ctx| {
        ctx.send_dram_read(va, 1, fin);
    });
    eng.send(EventWord::new(lane(&eng, 0, 0), w), [], EventWord::IGNORE);
    eng.send(EventWord::new(lane(&eng, 1, 0), r), [], EventWord::IGNORE);
    eng.run();
    let rep = race.snapshot();
    assert!(!rep.is_clean());
    assert!(rep.sites.iter().any(|s| s.kind == RaceKind::ReadWrite));
}

/// Two host-spawned events on the same lane write one scratchpad word:
/// lane serialization alone is not an ordering edge, so this is flagged.
#[test]
fn seeded_spm_write_write_race_is_flagged() {
    let race = RaceProbe::new();
    let mut eng = Engine::new(machine(1, 1, &race));
    let w = udweave::simple_event(&mut eng, "seeded::spm_writer", |ctx| {
        ctx.spm_write(2, ctx.arg(0));
        ctx.yield_terminate();
    });
    eng.send(EventWord::new(lane(&eng, 0, 1), w), [1], EventWord::IGNORE);
    eng.send(EventWord::new(lane(&eng, 0, 1), w), [2], EventWord::IGNORE);
    eng.run();
    let r = race.snapshot();
    assert!(!r.is_clean());
    assert_eq!(r.sites[0].space, RaceSpace::Spm);
    assert_eq!(r.sites[0].kind, RaceKind::WriteWrite);
}

/// Concurrent fetch-and-adds to one word order rather than race, and the
/// add's reply carries the acquired clock: the last arrival at a
/// fetch-add barrier may read every earlier worker's data write.
#[test]
fn fetch_add_barrier_is_ordered_not_racing() {
    for threads in [1, 4] {
        let race = RaceProbe::new();
        let mut eng = Engine::new(machine(2, threads, &race));
        let va = eng.mem_mut().alloc(64, 0, 1, 4096).unwrap();
        let data = move |i: u64| VAddr(va.0 + 8 * i);
        let counter = VAddr(va.0 + 32);
        let fin = udweave::simple_event(&mut eng, "barrier::collect", |ctx| {
            assert_eq!(ctx.arg(0) + ctx.arg(1), 100 + 101);
            ctx.yield_terminate();
        });
        let joined = udweave::simple_event(&mut eng, "barrier::joined", move |ctx| {
            // arg(0) = counter value before our add; the last arrival
            // reads both workers' data words.
            if ctx.arg(0) == 1 {
                ctx.send_dram_read(data(0), 2, fin);
            } else {
                ctx.yield_terminate();
            }
        });
        let w = udweave::simple_event(&mut eng, "barrier::worker", move |ctx| {
            let i = ctx.arg(0);
            ctx.send_dram_write(data(i), &[100 + i], None);
            ctx.dram_fetch_add_u64(counter, 1, Some(joined), None);
        });
        eng.send(EventWord::new(lane(&eng, 0, 0), w), [0], EventWord::IGNORE);
        eng.send(EventWord::new(lane(&eng, 1, 0), w), [1], EventWord::IGNORE);
        eng.run();
        let r = race.snapshot();
        assert!(
            r.is_clean(),
            "threads={threads}: barrier must order the read: {:?}",
            r.sites
        );
        assert!(r.accesses > 0);
    }
}

/// All five applications are race-free at conformance scale, at one and
/// at four worker threads.
#[test]
fn all_apps_are_race_free_at_conformance_scale() {
    for threads in [1, 4] {
        for app in ALL_APPS {
            let r = race_app(app, threads, 10).report;
            assert!(
                r.is_clean(),
                "{app} threads={threads}: race sites:\n{:#?}",
                r.sites
            );
            assert!(r.accesses > 0, "{app}: probe saw no accesses");
        }
    }
}

/// The rendered `udrace/v1` document for pagerank + ingest is
/// byte-identical at 1, 2 and 4 worker threads (the other apps are
/// covered by the CI byte-compare over the full document).
#[test]
fn udrace_document_is_byte_identical_across_thread_counts() {
    let doc = |threads: u32| {
        let analyses: Vec<RaceAnalysis> = ["pagerank", "ingest"]
            .iter()
            .map(|app| race_app(app, threads, 10))
            .collect();
        render_race_document(&analyses)
    };
    let d1 = doc(1);
    assert_eq!(d1, doc(2), "threads 1 vs 2");
    assert_eq!(d1, doc(4), "threads 1 vs 4");
    assert!(d1.contains("\"schema\":\"udrace/v1\""));
}

/// The full `udrace/v1` document over all five apps at seed 10 hashes to
/// the value this same test produced with the `BTreeMap`-clock detector
/// (commit a87c478) — the flat-clock detector is held to the old
/// detector's bytes, not to its own — and is the same at one and at four
/// worker threads.
#[test]
fn udrace_document_bytes_are_those_of_the_tree_clock_detector() {
    for threads in [1, 4] {
        let analyses: Vec<RaceAnalysis> =
            ALL_APPS.iter().map(|app| race_app(app, threads, 10)).collect();
        let doc = render_race_document(&analyses);
        assert_eq!(
            fnv1a(doc.as_bytes()),
            GOLDEN_FULL,
            "threads={threads}: document moved:\n{doc}"
        );
    }
}
const GOLDEN_FULL: u64 = 0x536E_9A13_D479_A379;

/// partial_match's document at each seed that reports the SHT straddle,
/// at one and at four worker threads. The goldens above are clean
/// documents; these carry a site, so an ordering answer that moved would
/// move its `count`, `first_tick` or `detail` and fail here. Hashes of
/// the one-worker documents at commit f461ff1, before the probe skipped
/// any clock work. Four workers give the same bytes because word state
/// sees shards in shard order; at f461ff1 seeds 34 and 313 sometimes came
/// out clean at four workers, depending on which shard reached the probe
/// first.
#[test]
fn partial_match_straddle_documents_keep_their_bytes() {
    for (seed, golden) in STRADDLE_GOLDENS {
        for threads in [1, 4] {
            let doc = render_race_document(&[race_app("partial_match", threads, seed)]);
            assert_eq!(
                fnv1a(doc.as_bytes()),
                golden,
                "seed {seed} threads={threads}: document moved:\n{doc}"
            );
        }
    }
}
const STRADDLE_GOLDENS: [(u64, u64); 4] = [
    (2, 0x21B3_2025_AEA2_F702),
    (34, 0x7ED2_DC02_AB20_C70D),
    (35, 0x6520_14D8_F753_9A78),
    (313, 0xBA40_2E61_B008_E011),
];

/// partial_match at seeds 1..=40 and at 313: the only site udrace ever
/// reports is the SHT bucket line straddling a block (ROADMAP item 8) —
/// `sht::op_fin`'s slot write against the next `sht::op`'s bucket-line
/// read — and seed 313 does report it. Not fixed here; this keeps the
/// sweep honest until it is, and fails on any second finding.
#[test]
fn partial_match_seed_sweep_reports_only_the_sht_straddle() {
    let mut reported = Vec::new();
    for seed in (1..=40).chain([313]) {
        let a = race_app("partial_match", 1, seed);
        assert_eq!(a.report.sites_truncated, 0, "seed {seed}");
        for s in &a.report.sites {
            // Either access may be served first.
            let mut pair = [s.prior.as_str(), s.current.as_str()];
            pair.sort_unstable();
            assert_eq!(
                (s.space, s.kind, pair),
                (
                    RaceSpace::Dram,
                    RaceKind::ReadWrite,
                    ["thread::sht::op", "thread::sht::op_fin"]
                ),
                "seed {seed}: a site other than the known straddle: {s:?}"
            );
            assert!(
                s.detail.starts_with("dram word 0x100db000:"),
                "seed {seed}: {}",
                s.detail
            );
        }
        if !a.is_clean() {
            reported.push(seed);
        }
    }
    assert_eq!(reported, [2, 34, 35, 313], "seeds reporting the straddle");
}
