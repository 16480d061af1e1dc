//! Thread-count conformance: a run on several host threads must be
//! **byte-identical** to the one-worker run — not "statistically
//! equivalent", identical.
//!
//! Every application runs across a seed x node-count x thread-count
//! matrix; each cell asserts three things:
//!
//! 1. the application-level result (ranks, distances, triangle counts,
//!    graph shape, match counts) is identical,
//! 2. the full `updown-metrics/v1` JSON document is identical byte for
//!    byte — every counter, per-node table, hot-lane list, and phase span,
//! 3. the final simulated tick is identical.
//!
//! Thread counts deliberately include 7 (odd, > shard count on small
//! machines) to exercise uneven home ranges. A repeat-run check per
//! thread count also pins determinism across invocations.

use updown_apps::bfs::{run_bfs, BfsConfig};
use updown_apps::ingest::{datagen, run_ingest, IngestConfig};
use updown_apps::pagerank::{run_pagerank, PrConfig};
use updown_apps::partial_match::{run_partial_match, PmConfig};
use updown_apps::tc::{run_tc, TcConfig};
use updown_graph::generators::{rmat, RmatParams};
use updown_graph::preprocess::{dedup_sort, split_in_out};
use updown_graph::Csr;
use updown_sim::MachineConfig;

/// Thread counts compared against the one-worker baseline.
const THREADS: &[u32] = &[2, 4, 7];

fn machine(nodes: u32, threads: u32) -> MachineConfig {
    let mut m = MachineConfig::small(nodes, 2, 8);
    m.threads = threads;
    m
}

/// Run `sim` at 1 thread (twice — repeat-run determinism) and at every
/// count in [`THREADS`], asserting (result fingerprint, metrics JSON,
/// final tick) are identical everywhere. `label` names the failing cell.
fn assert_conformance(label: &str, sim: impl Fn(u32) -> (String, String, u64)) {
    let (fp, json, tick) = sim(1);
    let (fp2, json2, tick2) = sim(1);
    assert_eq!(fp, fp2, "{label}: sequential repeat diverged (result)");
    assert_eq!(json, json2, "{label}: sequential repeat diverged (metrics)");
    assert_eq!(tick, tick2, "{label}: sequential repeat diverged (tick)");
    for &t in THREADS {
        let (pfp, pjson, ptick) = sim(t);
        assert_eq!(fp, pfp, "{label} threads={t}: application result diverged");
        assert_eq!(json, pjson, "{label} threads={t}: metrics JSON diverged");
        assert_eq!(tick, ptick, "{label} threads={t}: final tick diverged");
        let (pfp2, pjson2, _) = sim(t);
        assert_eq!(pfp, pfp2, "{label} threads={t}: parallel repeat diverged");
        assert_eq!(pjson, pjson2, "{label} threads={t}: parallel repeat diverged");
    }
}

#[test]
fn pagerank_conforms_across_engines() {
    for seed in [10u64, 21] {
        for nodes in [2u32, 4] {
            let g = Csr::from_edges(&dedup_sort(rmat(8, RmatParams::default(), seed)));
            let sg = split_in_out(&g, 64);
            assert_conformance(&format!("pr seed={seed} nodes={nodes}"), |threads| {
                let mut cfg = PrConfig::new(nodes);
                cfg.machine = machine(nodes, threads);
                cfg.iterations = 2;
                let r = run_pagerank(&sg, &cfg);
                let fp = format!(
                    "{:?} {:?}",
                    r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    r.iter_ticks
                );
                (fp, r.report.to_json(), r.final_tick)
            });
        }
    }
}

#[test]
fn bfs_conforms_across_engines() {
    for seed in [11u64, 22] {
        for nodes in [2u32, 4] {
            let g = Csr::from_edges(&dedup_sort(
                rmat(8, RmatParams::default(), seed).symmetrize(),
            ));
            assert_conformance(&format!("bfs seed={seed} nodes={nodes}"), |threads| {
                let mut cfg = BfsConfig::new(nodes, 0);
                cfg.machine = machine(nodes, threads);
                let r = run_bfs(&g, &cfg);
                let fp = format!(
                    "{:?} {} {:?} {}",
                    r.dist, r.rounds, r.round_ticks, r.traversed_edges
                );
                (fp, r.report.to_json(), r.final_tick)
            });
        }
    }
}

#[test]
fn tc_conforms_across_engines() {
    for seed in [12u64, 23] {
        let mut g = Csr::from_edges(&dedup_sort(
            rmat(7, RmatParams::default(), seed).symmetrize(),
        ));
        g.sort_neighbors();
        assert_conformance(&format!("tc seed={seed}"), |threads| {
            let mut cfg = TcConfig::new(2);
            cfg.machine = machine(2, threads);
            let r = run_tc(&g, &cfg);
            (
                format!("{} {}", r.triangles, r.pairs),
                r.report.to_json(),
                r.final_tick,
            )
        });
    }
}

#[test]
fn ingestion_conforms_across_engines() {
    for seed in [5u64, 6] {
        let ds = datagen::generate(250, 120, seed);
        assert_conformance(&format!("ingest seed={seed}"), |threads| {
            let mut cfg = IngestConfig::new(2);
            cfg.machine = machine(2, threads);
            let r = run_ingest(&ds, &cfg);
            let fp = format!(
                "{} {} {} {} {}",
                r.vertices, r.edges, r.n_records, r.phase1_tick, r.phase2_tick
            );
            (fp, r.report.to_json(), r.final_tick)
        });
    }
}

#[test]
fn partial_match_conforms_across_engines() {
    for seed in [7u64, 8] {
        let ds = datagen::generate(200, 60, seed);
        assert_conformance(&format!("pm seed={seed}"), |threads| {
            let mut cfg = PmConfig::new(8, vec![1, 2]);
            cfg.machine = machine(2, threads);
            cfg.batch = 16;
            cfg.interval = 200;
            cfg.feeders = 2;
            let r = run_partial_match(&ds.records, &cfg);
            let fp = format!("{} {:?}", r.matches, r.latencies);
            (fp, r.report.to_json(), r.final_tick)
        });
    }
}

/// Seed matrix: different seeds must produce *different* runs (the matrix
/// isn't vacuous), while each (seed, engine) cell stays deterministic —
/// the repeat-run halves of [`assert_conformance`] above pin the latter.
#[test]
fn seed_matrix_is_not_vacuous() {
    let tick_for = |seed: u64| {
        let g = Csr::from_edges(&dedup_sort(rmat(8, RmatParams::default(), seed)));
        let sg = split_in_out(&g, 64);
        let mut cfg = PrConfig::new(2);
        cfg.machine = machine(2, 1);
        cfg.iterations = 1;
        run_pagerank(&sg, &cfg).final_tick
    };
    assert_ne!(
        tick_for(10),
        tick_for(21),
        "different seeds should exercise different schedules"
    );
}
