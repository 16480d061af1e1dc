//! Sweep helpers shared by `repro` (the figure-regeneration binary) and
//! the analysis tools: scaled-down machine shapes, the graph menu standing
//! in for the paper's inputs, Figure 9's per-app input pipelines, and
//! speedup arithmetic.
//!
//! Scaling note (see DESIGN.md §1): the paper simulates full 2048-lane
//! nodes against billion-edge graphs. To keep host runtimes in minutes we
//! default to reduced nodes (`accels × lanes` below) and s11–s14 graphs;
//! `--full` on `repro` raises both. Strong-scaling *shape* depends on
//! keys-per-lane and skew, which these settings preserve. The machine,
//! menu and input constructors live here (not in the bench crate) so `ud
//! cost --figure9` predicts the very run `repro fig9` exports without
//! depending on the bench crate.

use updown_graph::generators::{erdos_renyi, forest_fire, rmat, RmatParams};
use updown_graph::preprocess::{dedup_sort, shuffle_ids, split_in_out};
use updown_graph::{Csr, EdgeList, SplitGraph};
use updown_sim::{MachineConfig, TopologyKind};

/// Accelerators per node in scaled-down benches.
pub const BENCH_ACCELS: u32 = 4;
/// Lanes per accelerator in scaled-down benches.
pub const BENCH_LANES: u32 = 32;

/// A scaled-down UpDown machine with `nodes` nodes (128 lanes/node).
///
/// Per-node memory and NIC bandwidth scale with the lane count so the
/// bandwidth-per-lane ratio matches the full 2048-lane node — otherwise a
/// shrunken node is never bandwidth-bound and placement effects
/// (Figure 12) vanish.
pub fn bench_machine(nodes: u32) -> MachineConfig {
    MachineConfig::builder()
        .nodes(nodes)
        .accels_per_node(BENCH_ACCELS)
        .lanes_per_accel(BENCH_LANES)
        .scaled_bandwidth()
        .build()
}

/// Most nodes a bench machine can have: lane ids are 32-bit.
pub const MAX_BENCH_NODES: u32 = u32::MAX / (BENCH_ACCELS * BENCH_LANES);
/// `--scale` shifts [`graph_menu_seeded`] can build: from −8 down every
/// graph already sits at the s6 floor, and above 14 the menu's ForestFire
/// s14 leaves what its generator accepts (R-MAT's `1..=31` is wider).
pub const SCALE_SHIFTS: std::ops::RangeInclusive<i32> = -31..=14;

/// Check `--nodes` / `--scale` as given on a command line, before
/// [`bench_machine`] or [`graph_menu_seeded`] would assert on them. The
/// error names the flag and the value.
pub fn check_bench_args(nodes: u32, scale_shift: i32) -> Result<(), String> {
    if !(1..=MAX_BENCH_NODES).contains(&nodes) {
        return Err(format!("--nodes {nodes}: expects 1..={MAX_BENCH_NODES}"));
    }
    if !SCALE_SHIFTS.contains(&scale_shift) {
        let (lo, hi) = (SCALE_SHIFTS.start(), SCALE_SHIFTS.end());
        return Err(format!("--scale {scale_shift}: expects {lo}..={hi}"));
    }
    Ok(())
}

/// Check an *absolute* R-MAT `--scale` (`repro fig12`, `baseline`, `par`)
/// before [`rmat`] would assert on it.
pub fn check_rmat_scale(scale: u32) -> Result<(), String> {
    if !(1..=31).contains(&scale) {
        return Err(format!("--scale {scale}: expects 1..=31"));
    }
    Ok(())
}

/// [`bench_machine`] with the simulator's window loop on `threads` host
/// threads. Simulated results are byte-identical for every value — it
/// only changes host wall-clock (see docs/parallel-engine.md).
pub fn bench_machine_threads(nodes: u32, threads: u32) -> MachineConfig {
    let mut cfg = bench_machine(nodes);
    cfg.threads = threads.max(1);
    cfg
}

/// [`bench_machine_threads`] on a selected system-network topology (see
/// docs/network.md). `uniform` reproduces [`bench_machine_threads`]
/// exactly; routed topologies change cross-node transit times and
/// surface per-link congestion in the metrics JSON.
pub fn bench_machine_topo(nodes: u32, threads: u32, topology: TopologyKind) -> MachineConfig {
    let mut cfg = bench_machine_threads(nodes, threads);
    cfg.net.topology = topology;
    cfg
}

/// The graph menu used across Figure 9 (names echo the paper's inputs),
/// with a `--seed` offset folded into every generator.
pub fn graph_menu_seeded(scale_shift: i32, seed: u64) -> Vec<(String, EdgeList)> {
    let s = |base: u32| (base as i32 + scale_shift).max(6) as u32;
    vec![
        (
            format!("RMAT s{}", s(14)),
            rmat(s(14), RmatParams::default(), 48 ^ seed),
        ),
        (
            format!("Erdos-Renyi s{}", s(14)),
            erdos_renyi(s(14), 16, 48 ^ seed),
        ),
        (
            format!("ForestFire s{}", s(14)),
            forest_fire(s(14), 0.4, 48 ^ seed),
        ),
        // A deliberately small graph: the soc-livej role in the paper's
        // plots — strong scaling saturates early.
        (
            format!("small s{}", s(11)),
            rmat(s(11), RmatParams::default(), 7 ^ seed),
        ),
    ]
}

/// Directed CSR after `tsv`-style preprocessing.
pub fn prepared(el: &EdgeList) -> Csr {
    Csr::from_edges(&dedup_sort(el.clone()))
}

/// Undirected sorted CSR (TC input).
pub fn prepared_undirected(el: &EdgeList) -> Csr {
    let mut g = Csr::from_edges(&dedup_sort(el.clone().symmetrize()));
    g.sort_neighbors();
    g
}

/// Figure 9's PageRank inputs: each menu graph with its vertex ids
/// shuffled and its high-degree vertices split at 512.
pub fn figure9_pr_inputs(scale_shift: i32, seed: u64) -> impl Iterator<Item = (String, SplitGraph)> {
    graph_menu_seeded(scale_shift, seed).into_iter().map(|(name, el)| {
        let (shuffled, _) = shuffle_ids(&el, 7);
        (name, split_in_out(&Csr::from_edges(&shuffled), 512))
    })
}

/// Figure 9's BFS inputs: each menu graph symmetrized.
pub fn figure9_bfs_inputs(scale_shift: i32, seed: u64) -> impl Iterator<Item = (String, Csr)> {
    let menu = graph_menu_seeded(scale_shift, seed).into_iter();
    menu.map(|(name, el)| (name, prepared(&el.symmetrize())))
}

/// Figure 9's TC inputs: the menu three scales below PR and BFS (TC is
/// intersection-heavy; the paper likewise uses s25 for TC against s28
/// elsewhere), undirected and sorted.
pub fn figure9_tc_inputs(scale_shift: i32, seed: u64) -> impl Iterator<Item = (String, Csr)> {
    let menu = graph_menu_seeded(scale_shift - 3, seed).into_iter();
    menu.map(|(name, el)| (name, prepared_undirected(&el)))
}

/// Node-count sweep: 1..=max by powers of two.
pub fn node_sweep(max: u32) -> Vec<u32> {
    let mut v = vec![];
    let mut n = 1;
    while n <= max {
        v.push(n);
        n *= 2;
    }
    v
}

/// Speedups relative to the first entry (the paper's Tables 8–12 format).
pub fn speedups(ticks: &[u64]) -> Vec<f64> {
    if ticks.is_empty() {
        return Vec::new();
    }
    let base = ticks[0] as f64;
    ticks.iter().map(|&t| base / t as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_math() {
        assert_eq!(speedups(&[100, 50, 25]), vec![1.0, 2.0, 4.0]);
        assert!(speedups(&[]).is_empty());
    }

    #[test]
    fn bandwidth_scales_with_lanes() {
        let cfg = bench_machine(4);
        let full = MachineConfig::default();
        let ratio_full = full.mem.node_bytes_per_cycle as f64 / full.lanes_per_node() as f64;
        let ratio_bench = cfg.mem.node_bytes_per_cycle as f64 / cfg.lanes_per_node() as f64;
        assert!((ratio_full - ratio_bench).abs() / ratio_full < 0.05);
    }

    #[test]
    fn sweep_is_powers_of_two() {
        assert_eq!(node_sweep(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(node_sweep(1), vec![1]);
    }

    #[test]
    fn hostile_nodes_and_scale_are_refused_by_name() {
        assert!(check_bench_args(1, 0).is_ok());
        assert!(check_bench_args(MAX_BENCH_NODES, *SCALE_SHIFTS.end()).is_ok());
        assert!(check_bench_args(0, 0).unwrap_err().starts_with("--nodes 0:"));
        let e = check_bench_args(MAX_BENCH_NODES + 1, 0).unwrap_err();
        assert!(e.starts_with("--nodes 33554432:"), "{e}");
        assert!(check_bench_args(4, 40).unwrap_err().starts_with("--scale 40:"));
        assert!(check_bench_args(4, i32::MIN).unwrap_err().starts_with("--scale -2147483648:"));
        assert!(check_rmat_scale(1).is_ok() && check_rmat_scale(31).is_ok());
        assert!(check_rmat_scale(0).unwrap_err().starts_with("--scale 0:"));
        assert!(check_rmat_scale(99).unwrap_err().starts_with("--scale 99:"));
        // The top of the range is what the menu's generators still accept.
        let s = |base: i32| (base + SCALE_SHIFTS.end()) as u32;
        assert!(s(14) <= 28, "ForestFire takes 1..=28, R-MAT and Erdos-Renyi 1..=31");
    }

    #[test]
    fn menu_has_four_graphs() {
        let m = graph_menu_seeded(-4, 0);
        assert_eq!(m.len(), 4);
        assert!(m[0].0.starts_with("RMAT"));
    }
}
