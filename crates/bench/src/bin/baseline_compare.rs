#![forbid(unsafe_code)]
//! The absolute-performance comparison (§5.2.1/§5.2.2 flavor): simulated
//! UpDown rates vs a measured host-CPU baseline on the same graph.
//!
//! The paper compares against Perlmutter (PR: 12,188x) and a 4096-GPU EOS
//! cluster (BFS); here the stand-in comparator is this host's CPU running
//! the multithreaded baselines in `updown_apps::baseline`. The claim shape
//! to reproduce: the (simulated) fine-grained machine exceeds a
//! conventional processor by orders of magnitude on irregular graph rates.
//!
//! ```text
//! cargo run --release -p bench --bin baseline_compare -- [--scale 14]
//!     [--nodes 16] [--seed 0] [--threads 1] [--topology uniform] [--sanitize] [--race] [--spec]
//!     [--trace out.trace.json]
//!     [--metrics-json out.metrics.json]
//! ```
//!
//! Here `--scale` is the absolute RMAT scale (not a shift as elsewhere).

use bench::{Cli, Exporter, Gates, bench_machine, bench_machine_topo};
use updown_apps::baseline;
use updown_apps::bfs::{run_bfs, BfsConfig};
use updown_apps::pagerank::{run_pagerank, PrConfig};
use updown_apps::tc::{run_tc, TcConfig};
use updown_graph::generators::{rmat, RmatParams};
use updown_graph::preprocess::{dedup_sort, split_in_out};
use updown_graph::{algorithms, Csr};

fn main() {
    let cli = Cli::parse();
    let (nodes, scale) = bench::cli::nodes_and_rmat_scale(&cli, 16, 14);
    let seed: u64 = cli.get("seed", 0);
    let sim_threads: u32 = cli.get("threads", 1).max(1);
    let topology = bench::cli::parse_topology(&cli);
    let mut gates = Gates::from_cli(&cli);
    let mut ex = Exporter::from_cli(&cli);
    cli.reject_unknown();
    let threads = std::thread::available_parallelism().map(|x| x.get()).unwrap_or(4);

    let el = dedup_sort(rmat(scale, RmatParams::default(), 48 ^ seed));
    let g = Csr::from_edges(&el);
    let mut gu = Csr::from_edges(&dedup_sort(el.clone().symmetrize()));
    gu.sort_neighbors();
    println!(
        "RMAT s{scale}: n = {}, m = {} (directed) / {} (sym); host threads = {threads}",
        g.n(),
        g.m(),
        gu.m()
    );
    println!(
        "simulated machine: {nodes} nodes x {} lanes\n",
        bench_machine(1).lanes_per_node()
    );
    println!(
        "{:<10} {:>16} {:>16} {:>10}",
        "kernel", "UpDown (sim)", "host CPU", "ratio"
    );

    // ---- PageRank: giga-updates/second ---------------------------------
    let sg = split_in_out(&g, 512);
    let mut pc = PrConfig::new(nodes);
    pc.machine = bench_machine_topo(nodes, sim_threads, topology);
    gates.arm("pr", &updown_apps::pagerank::spec(), &mut pc.machine);
    pc.iterations = 2;
    pc.trace = ex.want_trace();
    let pr = run_pagerank(&sg, &pc);
    ex.export("pr", &pr.report, pr.trace_json.as_deref());
    let ud_gups = pr.gups(&pc.machine);
    let (host_pr, host_secs) = baseline::time(|| baseline::pagerank_parallel(&g, 2, 0.85, threads));
    // Validate both against each other.
    let oracle = algorithms::pagerank(&g, 2, 0.85);
    for v in 0..g.n() as usize {
        assert!((pr.values[v] - oracle[v]).abs() < 1e-9);
        assert!((host_pr[v] - oracle[v]).abs() < 1e-9);
    }
    let host_gups = (g.m() as f64 * 2.0) / host_secs / 1e9;
    println!(
        "{:<10} {:>12.2} GUPS {:>12.3} GUPS {:>9.0}x",
        "PR",
        ud_gups,
        host_gups,
        ud_gups / host_gups
    );

    // ---- BFS: giga-traversed-edges/second --------------------------------
    let mut bc = BfsConfig::new(nodes, 0);
    bc.machine = bench_machine_topo(nodes, sim_threads, topology);
    gates.arm("bfs", &updown_apps::bfs::spec(), &mut bc.machine);
    let bfs = run_bfs(&gu, &bc);
    assert_eq!(bfs.dist, algorithms::bfs(&gu, 0));
    let ud_gteps = bfs.gteps(&bc.machine);
    let (host_dist, host_secs) = baseline::time(|| baseline::bfs_parallel(&gu, 0, threads));
    assert_eq!(host_dist, algorithms::bfs(&gu, 0));
    let host_gteps = bfs.traversed_edges as f64 / host_secs / 1e9;
    println!(
        "{:<10} {:>11.2} GTEPS {:>11.3} GTEPS {:>9.0}x",
        "BFS",
        ud_gteps,
        host_gteps,
        ud_gteps / host_gteps
    );

    // ---- TC: edges/second ---------------------------------------------------
    let mut tcfg = TcConfig::new(nodes);
    tcfg.machine = bench_machine_topo(nodes, sim_threads, topology);
    gates.arm("tc", &updown_apps::tc::spec(), &mut tcfg.machine);
    let tc = run_tc(&gu, &tcfg);
    let ud_eps = gu.m() as f64 / tcfg.machine.ticks_to_seconds(tc.final_tick) / 1e9;
    let (host_tc, host_secs) = baseline::time(|| baseline::tc_parallel(&gu, threads));
    assert_eq!(tc.triangles, host_tc);
    let host_eps = gu.m() as f64 / host_secs / 1e9;
    println!(
        "{:<10} {:>11.2} GEPS  {:>11.3} GEPS  {:>9.0}x",
        "TC",
        ud_eps,
        host_eps,
        ud_eps / host_eps
    );
    println!(
        "\n(the simulated machine is {nodes} nodes of 1/16-scale; the paper's full\n\
         512-node runs report 39,617 GUPS (PR) and 35,700 GTEPS (BFS) vs\n\
         Perlmutter/EOS — the shape to reproduce is the orders-of-magnitude gap)"
    );
    gates.exit_if_dirty();
}
