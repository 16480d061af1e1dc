//! Differential testing: every application's *simulated* result must equal
//! an independent host-side baseline computed on the same generated input
//! — the simulator and the baselines share no code beyond the graph types.
//!
//! Three seeds per application; the simulator side runs on the parallel
//! engine (threads = 3) so this doubles as an end-to-end check that the
//! parallel engine computes correct application answers, not merely
//! engine-level identical ones.

use udcheck::apps::{case, Case, Outcome};
use updown_apps::baseline;
use updown_apps::ingest::{datagen, expected_graph, run_ingest, IngestConfig};
use updown_apps::pagerank::DAMPING;
use updown_apps::partial_match::{run_partial_match, sequential_matches, PmConfig};
use updown_sim::MachineConfig;

const SEEDS: &[u64] = &[101, 202, 303];

fn machine(nodes: u32) -> MachineConfig {
    let mut m = MachineConfig::small(nodes, 2, 8);
    m.threads = 3;
    m
}

#[test]
fn pagerank_matches_host_baseline() {
    for &seed in SEEDS {
        let c = case("pagerank", seed, machine(2));
        let (Case::Pagerank(g, _, cfg), Outcome::Pagerank(sim)) = (&c, c.run()) else {
            unreachable!("a pagerank case runs pagerank")
        };
        let host = baseline::pagerank_parallel(g, cfg.iterations, DAMPING, 2);
        assert_eq!(sim.values.len(), host.len(), "seed {seed}");
        for (v, (&s, &h)) in sim.values.iter().zip(&host).enumerate() {
            assert!(
                (s - h).abs() < 1e-9,
                "seed {seed} vertex {v}: sim {s} vs host {h}"
            );
        }
    }
}

/// The conformance case from root 1 instead of 0.
#[test]
fn bfs_matches_host_baseline() {
    for &seed in SEEDS {
        let mut c = case("bfs", seed, machine(2));
        let Case::Bfs(_, cfg) = &mut c else { unreachable!() };
        cfg.root = 1;
        let (Case::Bfs(g, _), Outcome::Bfs(sim)) = (&c, c.run()) else {
            unreachable!("a bfs case runs bfs")
        };
        assert_eq!(sim.dist, baseline::bfs_parallel(g, 1, 2), "seed {seed}");
    }
}

#[test]
fn tc_matches_host_baseline() {
    for &seed in SEEDS {
        let c = case("tc", seed, machine(2));
        let (Case::Tc(g, _), Outcome::Tc(sim)) = (&c, c.run()) else {
            unreachable!("a tc case runs tc")
        };
        assert_eq!(sim.triangles, baseline::tc_parallel(g, 2), "seed {seed}");
    }
}

#[test]
fn ingestion_matches_expected_graph() {
    for &seed in SEEDS {
        let ds = datagen::generate(300, 140, seed);
        let mut cfg = IngestConfig::new(2);
        cfg.machine = machine(2);
        let sim = run_ingest(&ds, &cfg);
        let (ev, ee) = expected_graph(&ds.records);
        assert_eq!((sim.vertices, sim.edges), (ev, ee), "seed {seed}");
    }
}

#[test]
fn partial_match_matches_sequential_matcher() {
    for &seed in SEEDS {
        let ds = datagen::generate(150, 60, seed);
        let pattern = vec![1u16, 2];
        let mut cfg = PmConfig::new(8, pattern.clone());
        cfg.machine = machine(2);
        // The sequential matcher sees one record at a time; serialize the
        // stream (single feeder, one record per batch, an interval longer
        // than per-record latency) so in-flight races can't reorder
        // pattern-state updates relative to it.
        cfg.batch = 1;
        cfg.interval = 40_000;
        cfg.feeders = 1;
        let sim = run_partial_match(&ds.records, &cfg);
        assert_eq!(
            sim.matches,
            sequential_matches(&ds.records, &pattern),
            "seed {seed}"
        );
    }
}
