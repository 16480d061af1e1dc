//! Sweep helpers shared by the figure-regeneration binaries and the
//! analysis tools: scaled-down machine shapes, the graph menu standing in
//! for the paper's inputs, speedup arithmetic, and artifact-style table
//! printing.
//!
//! Scaling note (see DESIGN.md §1): the paper simulates full 2048-lane
//! nodes against billion-edge graphs. To keep host runtimes in minutes we
//! default to reduced nodes (`accels × lanes` below) and s11–s14 graphs;
//! `--full` on the bench bins raises both. Strong-scaling *shape* depends
//! on keys-per-lane and skew, which these settings preserve. The machine
//! and menu constructors live here (not in the bench crate, which
//! re-exports them) so `ud cost --figure9` can reconstruct a bench run's
//! exact inputs without depending on the bench crate.

use updown_graph::generators::{erdos_renyi, forest_fire, rmat, RmatParams};
use updown_graph::preprocess::dedup_sort;
use updown_graph::{Csr, EdgeList};
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

/// Check an *absolute* R-MAT `--scale` (`figure12`, `baseline_compare`)
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

/// The graph menu used across Figure 9 (names echo the paper's inputs).
pub fn graph_menu(scale_shift: i32) -> Vec<(String, EdgeList)> {
    graph_menu_seeded(scale_shift, 0)
}

/// [`graph_menu`] with a `--seed` offset folded into every generator.
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

/// A labelled series of (x, ticks) measurements.
#[derive(Clone, Debug)]
pub struct Series {
    pub label: String,
    pub points: Vec<(String, u64)>,
}

impl Series {
    pub fn new(label: &str) -> Series {
        Series {
            label: label.to_string(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: impl ToString, ticks: u64) {
        self.points.push((x.to_string(), ticks));
    }

    pub fn speedups(&self) -> Vec<f64> {
        speedups(&self.points.iter().map(|p| p.1).collect::<Vec<_>>())
    }
}

/// Print a speedup table: rows = x values, one column per series — the
/// layout of the paper's raw-data tables.
pub fn print_speedup_table(title: &str, x_label: &str, series: &[Series]) {
    println!("\n=== {title} ===");
    print!("{x_label:>12}");
    for s in series {
        print!(" {:>14}", s.label);
    }
    println!();
    let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    let sp: Vec<Vec<f64>> = series.iter().map(|s| s.speedups()).collect();
    // Row-major print over column-major data: index, don't iterate.
    #[allow(clippy::needless_range_loop)]
    for r in 0..rows {
        let x = series
            .iter()
            .find(|s| s.points.len() > r)
            .map(|s| s.points[r].0.clone())
            .unwrap_or_default();
        print!("{x:>12}");
        for (si, s) in series.iter().enumerate() {
            if r < s.points.len() {
                print!(" {:>14.2}", sp[si][r]);
            } else {
                print!(" {:>14}", "—");
            }
        }
        println!();
    }
}

/// Print absolute ticks alongside speedups for one series.
pub fn print_series_detail(title: &str, s: &Series, clock_ghz: f64) {
    println!("\n--- {title}: {} ---", s.label);
    println!("{:>12} {:>14} {:>12} {:>10}", "x", "ticks", "time(ms)", "speedup");
    for ((x, t), sp) in s.points.iter().zip(s.speedups()) {
        println!(
            "{:>12} {:>14} {:>12.4} {:>10.2}",
            x,
            t,
            *t as f64 / (clock_ghz * 1e9) * 1e3,
            sp
        );
    }
}

/// Geometric mean (for summarizing speedup rows).
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
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
    fn gmean_basics() {
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn series_accumulates() {
        let mut s = Series::new("rmat");
        s.push(1, 1000);
        s.push(2, 400);
        assert_eq!(s.speedups(), vec![1.0, 2.5]);
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
        let m = graph_menu(-4);
        assert_eq!(m.len(), 4);
        assert!(m[0].0.starts_with("RMAT"));
    }
}
