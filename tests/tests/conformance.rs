//! Thread-count conformance: a run on several host threads must be
//! **byte-identical** to the one-worker run — not "statistically
//! equivalent", identical.
//!
//! Every application runs its conformance case (`udcheck::apps::case`)
//! across a seed x node-count x thread-count matrix; each cell asserts
//! three things:
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

use udcheck::apps::case;
use updown_sim::MachineConfig;

/// Thread counts compared against the one-worker baseline.
const THREADS: &[u32] = &[2, 4, 7];

/// Each app's two conformance seeds.
const SEEDS: [(&str, [u64; 2]); 5] = [
    ("pagerank", [10, 21]),
    ("bfs", [11, 22]),
    ("tc", [12, 23]),
    ("ingest", [5, 6]),
    ("partial_match", [7, 8]),
];

fn machine(nodes: u32, threads: u32) -> MachineConfig {
    let mut m = MachineConfig::small(nodes, 2, 8);
    m.threads = threads;
    m
}

/// (result fingerprint, metrics JSON, final tick) of `app`'s case.
fn cell(app: &str, seed: u64, nodes: u32, threads: u32) -> (String, String, u64) {
    let out = case(app, seed, machine(nodes, threads)).run();
    (out.fingerprint(), out.metrics().to_json(), out.metrics().final_tick)
}

/// Run `app`'s case at both its seeds on each of `nodes`, at 1 thread
/// (twice — repeat-run determinism) and at every count in [`THREADS`],
/// asserting (result fingerprint, metrics JSON, final tick) are identical
/// everywhere.
fn assert_conformance(app: &str, nodes: &[u32]) {
    let (_, seeds) = SEEDS.iter().find(|(a, _)| *a == app).expect("an app with seeds");
    for &seed in seeds {
        for &n in nodes {
            let label = format!("{app} seed={seed} nodes={n}");
            let (fp, json, tick) = cell(app, seed, n, 1);
            let (fp2, json2, tick2) = cell(app, seed, n, 1);
            assert_eq!(fp, fp2, "{label}: sequential repeat diverged (result)");
            assert_eq!(json, json2, "{label}: sequential repeat diverged (metrics)");
            assert_eq!(tick, tick2, "{label}: sequential repeat diverged (tick)");
            for &t in THREADS {
                let (pfp, pjson, ptick) = cell(app, seed, n, t);
                assert_eq!(fp, pfp, "{label} threads={t}: application result diverged");
                assert_eq!(json, pjson, "{label} threads={t}: metrics JSON diverged");
                assert_eq!(tick, ptick, "{label} threads={t}: final tick diverged");
                let (pfp2, pjson2, _) = cell(app, seed, n, t);
                assert_eq!(pfp, pfp2, "{label} threads={t}: parallel repeat diverged");
                assert_eq!(pjson, pjson2, "{label} threads={t}: parallel repeat diverged");
            }
        }
    }
}

#[test]
fn pagerank_conforms_across_engines() {
    assert_conformance("pagerank", &[2, 4]);
}

#[test]
fn bfs_conforms_across_engines() {
    assert_conformance("bfs", &[2, 4]);
}

#[test]
fn tc_conforms_across_engines() {
    assert_conformance("tc", &[2]);
}

#[test]
fn ingestion_conforms_across_engines() {
    assert_conformance("ingest", &[2]);
}

#[test]
fn partial_match_conforms_across_engines() {
    assert_conformance("partial_match", &[2]);
}

/// Seed matrix: for every app, its two seeds must produce *different* runs
/// (the matrix isn't vacuous), while each (seed, engine) cell stays
/// deterministic — the repeat-run halves of [`assert_conformance`] pin the
/// latter.
#[test]
fn seed_matrix_is_not_vacuous() {
    for (app, [a, b]) in SEEDS {
        let (fp_a, _, tick_a) = cell(app, a, 2, 1);
        let (fp_b, _, tick_b) = cell(app, b, 2, 1);
        assert_ne!(tick_a, tick_b, "{app}: seeds {a} and {b} end at the same tick");
        assert_ne!(fp_a, fp_b, "{app}: seeds {a} and {b} give the same result");
    }
}
