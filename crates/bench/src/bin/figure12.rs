#![forbid(unsafe_code)]
//! Figure 12: the performance impact of the `NRnodes` parameter in the
//! graph structure's `DRAMmalloc()` call — a single number change sweeps
//! memory parallelism with compute fixed.
//!
//! ```text
//! cargo run --release -p bench --bin figure12 -- [--nodes 64] [--seed 0]
//!     [--threads 1] [--topology uniform] [--full] [--sanitize] [--race] [--spec]
//!     [--trace out.trace.json]
//!     [--metrics-json out.metrics.json]
//! ```
//!
//! Here `--scale` is the absolute RMAT scale (not a shift as elsewhere).

use bench::{Cli, Exporter, Gates, bench_machine_topo, prepared};
use updown_apps::bfs::{run_bfs, BfsConfig};
use updown_apps::pagerank::{run_pagerank, PrConfig};
use updown_graph::generators::{rmat, RmatParams};
use updown_graph::preprocess::split_and_shuffle;

fn main() {
    let cli = Cli::parse();
    let full = cli.has("full");
    let (compute_nodes, scale) =
        bench::cli::nodes_and_rmat_scale(&cli, 64, if full { 17 } else { 16 });
    if compute_nodes < 2 {
        bench::cli::usage_error(&format!(
            "--nodes {compute_nodes}: expects at least 2 (the sweep starts at 2 memory nodes)"
        ));
    }
    let seed: u64 = cli.get("seed", 0);
    let threads: u32 = cli.get("threads", 1).max(1);
    let topology = bench::cli::parse_topology(&cli);
    let mut gates = Gates::from_cli(&cli);
    let mut ex = Exporter::from_cli(&cli);
    cli.reject_unknown();

    let el = rmat(scale, RmatParams::default(), 48 ^ seed);
    let (sg, _) = split_and_shuffle(&el, 512, 7);
    let g = prepared(&el.clone().symmetrize());

    println!(
        "Figure 12 reproduction — DRAMmalloc NRnodes sweep at {compute_nodes} compute nodes \
         (RMAT s{scale})"
    );
    println!(
        "\n{:>10} {:>14} {:>10} {:>14} {:>10}",
        "mem nodes", "PR ticks", "PR gain", "BFS ticks", "BFS gain"
    );
    let mut pr_base = 0u64;
    let mut bfs_base = 0u64;
    let mut mem = 2u32;
    while mem <= compute_nodes {
        let mut pc = PrConfig::new(compute_nodes);
        pc.machine = bench_machine_topo(compute_nodes, threads, topology);
        gates.arm(&format!("pr mem_nodes={mem}"), &updown_apps::pagerank::spec(), &mut pc.machine);
        pc.mem_nodes = Some(mem);
        pc.iterations = 1;
        pc.trace = ex.want_trace();
        let pr = run_pagerank(&sg, &pc);
        ex.export(&format!("pr mem_nodes={mem}"), &pr.report, pr.trace_json.as_deref());

        let mut bc = BfsConfig::new(compute_nodes, 0);
        bc.machine = bench_machine_topo(compute_nodes, threads, topology);
        gates.arm(&format!("bfs mem_nodes={mem}"), &updown_apps::bfs::spec(), &mut bc.machine);
        bc.mem_nodes = Some(mem);
        let bfs = run_bfs(&g, &bc);

        if pr_base == 0 {
            pr_base = pr.final_tick;
            bfs_base = bfs.final_tick;
        }
        println!(
            "{:>10} {:>14} {:>10.2} {:>14} {:>10.2}",
            mem,
            pr.final_tick,
            pr_base as f64 / pr.final_tick as f64,
            bfs.final_tick,
            bfs_base as f64 / bfs.final_tick as f64
        );
        mem *= 2;
    }
    println!(
        "\n(the paper: PR improves up to ~4x as striping widens 2 -> 64 nodes, \
         tapering as memory stops being the bottleneck; BFS shows the same \
         trend less pronounced)"
    );
    gates.exit_if_dirty();
}
