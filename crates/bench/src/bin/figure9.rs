#![forbid(unsafe_code)]
//! Figure 9 (+ raw-data Tables 8/9/10): strong-scaling of PageRank, BFS,
//! and Triangle Counting across node counts and graphs.
//!
//! ```text
//! cargo run --release -p bench --bin figure9 -- [pr|bfs|tc|all]
//!     [--nodes 32] [--min-nodes 1] [--scale 0] [--seed 0] [--iters 2] [--threads 1]
//!     [--topology uniform] [--full]
//!     [--sanitize] [--race] [--spec] [--trace out.trace.json] [--metrics-json out.metrics.json]
//! ```
//!
//! `--full` raises the sweep to 256 nodes (TC: 1024) and the graphs by two
//! scales — closer to the paper, at many minutes of host time. `--trace`
//! and `--metrics-json` export the first simulated run of the sweep as a
//! Chrome trace / metrics document (see docs/observability.md).

use bench::{Cli, Exporter, Gates, StdOpts, graph_menu_seeded, node_sweep, prepared, prepared_undirected};
use updown_apps::bfs::{run_bfs, BfsConfig};
use updown_apps::harness::{print_speedup_table, Series};
use updown_apps::pagerank::{run_pagerank, PrConfig};
use updown_apps::tc::{run_tc, TcConfig};

fn pr_sweep(
    opts: &StdOpts,
    nodes: &[u32],
    iters: u32,
    ex: &mut Exporter,
    gates: &mut Gates,
) -> Vec<Series> {
    let mut out = Vec::new();
    for (name, el) in graph_menu_seeded(opts.scale_shift, opts.seed) {
        let (sh, _) = updown_graph::preprocess::shuffle_ids(&el, 7);
        let sg = updown_graph::preprocess::split_in_out(&updown_graph::Csr::from_edges(&sh), 512);
        let mut s = Series::new(&name);
        for &n in nodes {
            let mut cfg = PrConfig::new(n);
            cfg.machine = opts.machine(n);
            gates.arm(&format!("pr {name} nodes={n}"), &updown_apps::pagerank::spec(), &mut cfg.machine);
            cfg.iterations = iters;
            cfg.trace = ex.want_trace();
            let t0 = std::time::Instant::now();
            let r = run_pagerank(&sg, &cfg);
            let secs = t0.elapsed().as_secs_f64();
            ex.export(&format!("pr {name} nodes={n}"), &r.report, r.trace_json.as_deref());
            eprintln!(
                "  pr {name} nodes={n}: {} ticks ({:.2} GUPS, {} host)",
                r.final_tick,
                r.gups(&cfg.machine),
                bench::cli::host_rate(r.report.stats.events_executed, secs)
            );
            s.push(n, r.final_tick);
        }
        out.push(s);
    }
    out
}

fn bfs_sweep(
    opts: &StdOpts,
    nodes: &[u32],
    ex: &mut Exporter,
    gates: &mut Gates,
) -> Vec<Series> {
    let mut out = Vec::new();
    for (name, el) in graph_menu_seeded(opts.scale_shift, opts.seed) {
        let g = prepared(&el.clone().symmetrize());
        let mut s = Series::new(&name);
        for &n in nodes {
            let mut cfg = BfsConfig::new(n, 0);
            cfg.machine = opts.machine(n);
            gates.arm(&format!("bfs {name} nodes={n}"), &updown_apps::bfs::spec(), &mut cfg.machine);
            cfg.trace = ex.want_trace();
            let t0 = std::time::Instant::now();
            let r = run_bfs(&g, &cfg);
            let secs = t0.elapsed().as_secs_f64();
            ex.export(&format!("bfs {name} nodes={n}"), &r.report, r.trace_json.as_deref());
            eprintln!(
                "  bfs {name} nodes={n}: {} ticks, {} rounds, {:.2} GTEPS, {} host",
                r.final_tick,
                r.rounds,
                r.gteps(&cfg.machine),
                bench::cli::host_rate(r.report.stats.events_executed, secs)
            );
            s.push(n, r.final_tick);
        }
        out.push(s);
    }
    out
}

fn tc_sweep(
    opts: &StdOpts,
    nodes: &[u32],
    ex: &mut Exporter,
    gates: &mut Gates,
) -> Vec<Series> {
    let mut out = Vec::new();
    // TC is intersection-heavy: drop the graphs three scales relative to
    // PR/BFS (the paper similarly uses s25 for TC vs s28 elsewhere).
    for (name, el) in graph_menu_seeded(opts.scale_shift - 3, opts.seed) {
        let g = prepared_undirected(&el);
        let mut s = Series::new(&name);
        let mut triangles = None;
        for &n in nodes {
            let mut cfg = TcConfig::new(n);
            cfg.machine = opts.machine(n);
            gates.arm(&format!("tc {name} nodes={n}"), &updown_apps::tc::spec(), &mut cfg.machine);
            cfg.trace = ex.want_trace();
            let t0 = std::time::Instant::now();
            let r = run_tc(&g, &cfg);
            let secs = t0.elapsed().as_secs_f64();
            ex.export(&format!("tc {name} nodes={n}"), &r.report, r.trace_json.as_deref());
            match triangles {
                None => triangles = Some(r.triangles),
                Some(t) => assert_eq!(t, r.triangles, "count must not depend on machine"),
            }
            eprintln!(
                "  tc {name} nodes={n}: {} ticks ({} triangles, {} host)",
                r.final_tick,
                r.triangles,
                bench::cli::host_rate(r.report.stats.events_executed, secs)
            );
            s.push(n, r.final_tick);
        }
        out.push(s);
    }
    out
}

fn main() {
    let cli = Cli::parse();
    let which = cli
        .positional
        .first()
        .cloned()
        .unwrap_or_else(|| "all".into());
    let opts = StdOpts::parse(&cli, (32, 256), (1, 3));
    let iters = bench::cli::pagerank_iters(&cli, 2);
    // `--min-nodes` trims the small end of the sweep (CI smoke uses it to
    // export a run that actually has cross-node fabric traffic).
    let min_nodes: u32 = cli.get("min-nodes", 1);
    let nodes: Vec<u32> = node_sweep(opts.max_nodes)
        .into_iter()
        .filter(|&n| n >= min_nodes)
        .collect();
    let mut gates = Gates::from_cli(&cli);
    let mut ex = Exporter::from_cli(&cli);
    cli.reject_unknown();

    println!("Figure 9 reproduction — strong scaling on the UpDown simulator");
    println!(
        "machine: {} accels x {} lanes per node; topology {}; sweep {:?}",
        bench::BENCH_ACCELS,
        bench::BENCH_LANES,
        opts.topology,
        nodes
    );

    if which == "pr" || which == "all" {
        let series = pr_sweep(&opts, &nodes, iters, &mut ex, &mut gates);
        print_speedup_table(
            "Figure 9 (left) / Table 8: PageRank speedup",
            "nodes",
            &series,
        );
    }
    if which == "bfs" || which == "all" {
        let series = bfs_sweep(&opts, &nodes, &mut ex, &mut gates);
        print_speedup_table(
            "Figure 9 (center) / Table 9: BFS speedup",
            "nodes",
            &series,
        );
    }
    if which == "tc" || which == "all" {
        let tc_nodes: Vec<u32> = node_sweep(if opts.full { 1024 } else { opts.max_nodes })
            .into_iter()
            .filter(|&n| n >= min_nodes)
            .collect();
        let series = tc_sweep(&opts, &tc_nodes, &mut ex, &mut gates);
        print_speedup_table(
            "Figure 9 (right) / Table 10: TC speedup",
            "nodes",
            &series,
        );
    }
    gates.exit_if_dirty();
}
