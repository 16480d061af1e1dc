#![forbid(unsafe_code)]
//! `repro` regenerates the paper's evaluation on the simulator: Figures
//! 9–12, Tables 1, 5 and 8–12, the §5.2 host baseline and the host-thread
//! speedup of the window loop. It also analyzes the same programs: `check`,
//! `race`, `spec` and `cost` (docs/analysis.md). Stdout is deterministic.

use std::cell::Cell;
use std::path::Path;

use bench::cli::{pagerank_iters, usage_error, write_or_exit, Cli, Scale, StdOpts, Surface};
use bench::sweep::{Job, Sweep};
use bench::table::Table;
use bench::timing::fmt_rate;
use drammalloc::{dram_malloc_layout, Layout};
use udcheck::apps::{canon_app, check_app, conformance_machine, race_app, spec_app, workload_for, ALL_APPS};
use udcheck::spec::{spm_blowup_fixture, wait_cycle_fixture};
use udcheck::{analyze_cost, calibrate, document, CostReport, Report, SpecAnalysis};
use updown_apps::baseline;
use updown_apps::bfs::{run_bfs, BfsConfig};
use updown_apps::harness::{
    bench_machine, bench_machine_topo, figure9_bfs_inputs, figure9_pr_inputs, figure9_tc_inputs,
    node_sweep, prepared, prepared_undirected, BENCH_ACCELS, BENCH_LANES,
};
use updown_apps::ingest::{datagen, run_ingest, IngestConfig};
use updown_apps::pagerank::{run_pagerank, PrConfig, DAMPING};
use updown_apps::partial_match::{run_partial_match, sequential_matches, PmConfig};
use updown_apps::tc::{run_tc, TcConfig};
use updown_graph::generators::{rmat, RmatParams};
use updown_graph::preprocess::{dedup_sort, split_and_shuffle, split_in_out};
use updown_graph::{algorithms, Csr};
use updown_sim::json::JsonWriter;
use updown_sim::{Engine, MachineConfig, VAddr};

const USAGE: &str = "\
usage: repro fig9 [pr|bfs|tc|all] [--nodes 32] [--min-nodes 1] [--scale 1] [--iters 2]
       repro fig10 [--nodes 32] [--base-records 60000]
       repro fig11 [--records 150000]
       repro fig12 [--nodes 64] [--scale 16]
       repro table1 | table5
       repro baseline [--nodes 16] [--scale 14]
       repro par [--nodes 64] [--scale 13] [--iters 1] [--threads 1,2,4] [--min-speedup F] [--json-out PATH]
       repro check|race|spec|cost [APPS...] [--threads 1] [--seed 10] [--json] [--out PATH]
       repro check [--dot]
       repro spec [--enforce] [--fixture wait-cycle|spm-blowup] [--dot]
       repro cost [--figure9 pr|bfs|tc] [--nodes 4] [--scale 0] [--iters 2] [--topology T]
                  [--calibrate METRICS.json [--tolerance 2]]
fig9-fig12, baseline and par: [--seed 0] [--topology uniform|polar|torus|dragonfly] [--sanitize] [--race]
  [--spec] [--replay] [--checkpoint PATH] [--checkpoint-every N] [--restore PATH]
fig9-fig12 and baseline: [--threads 1] [--trace PATH] [--metrics-json PATH] (export the first run)
fig9-fig12: [--full] (paper-sized defaults: many minutes of host time)
--scale shifts fig9's and cost --figure9's graph menu; it is an absolute R-MAT scale for fig12, baseline and par
APPS: pagerank|pr bfs tc ingest partial_match|pm (default: all five); --dot prints Graphviz graphs,
  and with --out PATH also writes one .dot file per report next to PATH; exit 1 on an unclean report";

/// A subcommand with its flags read, ready to run.
type Run = Box<dyn FnOnce(&mut Sweep)>;

/// A subcommand: the shared flags it reads, and a function reading its own.
struct Sub {
    name: &'static str,
    reads: Surface,
    parse: fn(&Cli, StdOpts) -> Run,
}

/// The figures read every shared flag (`--nodes` and `--scale` per figure); table1 and table5 none.
#[rustfmt::skip]
const FIG: Surface = Surface {
    nodes: None, scale: Scale::None, full: true, seed: Some(0), topology: true, threads: true, gates: true, export: true,
};
#[rustfmt::skip]
const NO_FLAGS: Surface = Surface { full: false, seed: None, topology: false, threads: false, gates: false, export: false, ..FIG };
/// The analyzers read `--seed` (10 by default) and `--threads`.
const ANALYZER: Surface = Surface { seed: Some(10), threads: true, ..NO_FLAGS };

#[rustfmt::skip]
const SUBS: [Sub; 12] = [
    Sub { name: "fig9", reads: Surface { nodes: Some([32, 256]), scale: Scale::Shift([1, 3]), ..FIG }, parse: fig9 },
    Sub { name: "fig10", reads: Surface { nodes: Some([32, 256]), ..FIG }, parse: fig10 },
    Sub { name: "fig11", reads: FIG, parse: fig11 },
    Sub { name: "fig12", reads: Surface { nodes: Some([64, 64]), scale: Scale::Rmat([16, 17]), ..FIG }, parse: fig12 },
    Sub { name: "table1", reads: NO_FLAGS, parse: |_, _| Box::new(|_: &mut Sweep| table1()) },
    Sub { name: "table5", reads: NO_FLAGS, parse: |_, _| Box::new(|_: &mut Sweep| table5()) },
    Sub { name: "baseline", reads: Surface { nodes: Some([16, 16]), scale: Scale::Rmat([14, 14]), full: false, ..FIG },
          parse: |_, o| Box::new(move |sw: &mut Sweep| baseline(&o, sw)) },
    Sub { name: "par", reads: Surface { nodes: Some([64, 64]), scale: Scale::Rmat([13, 13]), seed: Some(0), topology: true, gates: true, ..NO_FLAGS },
          parse: par },
    Sub { name: "check", reads: ANALYZER, parse: check },
    Sub { name: "race", reads: ANALYZER, parse: race },
    Sub { name: "spec", reads: ANALYZER, parse: spec },
    Sub { name: "cost", reads: Surface { nodes: Some([4, 4]), scale: Scale::Shift([0, 0]), topology: true, ..ANALYZER }, parse: cost },
];

fn main() {
    let cli = Cli::from_args(std::env::args().skip(1));
    let Some(sub) = cli.arg(0).and_then(|name| SUBS.iter().find(|s| s.name == name)) else {
        usage_error(USAGE);
    };
    let opts = StdOpts::parse(&cli, &sub.reads);
    let mut sweep = Sweep::from_cli(&cli, &sub.reads);
    let run = (sub.parse)(&cli, opts);
    cli.reject_unknown();
    run(&mut sweep);
    sweep.finish();
}

/// Print Tables 8–11's layout: `app` on each input at each of `nodes`,
/// as speedups over the first node count.
fn speedup_table<G, J: Job>(
    sw: &mut Sweep,
    title: &str,
    app: &str,
    inputs: impl Iterator<Item = (String, G)>,
    nodes: &[u32],
    job: impl Fn(u32) -> J,
    run: impl Fn(&G, &J) -> J::Out,
) {
    let series: Vec<(String, Vec<u64>)> = inputs
        .map(|(name, input)| {
            let mut tick = |n| {
                let (r, _) = sw.run(&format!("{app} {name} nodes={n}"), &mut job(n), |j| run(&input, j));
                J::report(&r).0.final_tick
            };
            let ticks = nodes.iter().map(|&n| tick(n)).collect();
            (name, ticks)
        })
        .collect();
    print!("{}", Table::speedups(title, nodes, &series));
}

/// Figure 9 (+ Tables 8/9/10): strong scaling of PageRank, BFS and TC
/// across node counts and graphs; `--full` sweeps to 256 nodes (TC: 1024).
fn fig9(cli: &Cli, o: StdOpts) -> Run {
    let which = cli.arg(1).unwrap_or("all").to_string();
    if !["pr", "bfs", "tc", "all"].contains(&which.as_str()) {
        usage_error(&format!("fig9 {which}: expects pr|bfs|tc|all"));
    }
    let iters = pagerank_iters(cli, 2);
    // `--min-nodes` trims the small end of the sweep (CI smoke uses it to
    // export a run that actually has cross-node fabric traffic).
    let min_nodes: u32 = cli.get("min-nodes", 1);
    let sweep = |top| -> Vec<u32> { node_sweep(top).into_iter().filter(|&n| n >= min_nodes).collect() };
    let (nodes, tc_nodes) = (sweep(o.nodes), sweep(if o.full { 1024 } else { o.nodes }));
    if (if which == "tc" { &tc_nodes } else { &nodes }).is_empty() {
        usage_error(&format!("--min-nodes {min_nodes}: above every node count of the sweep"));
    }
    Box::new(move |sw: &mut Sweep| {
        println!("Figure 9 reproduction — strong scaling on the UpDown simulator");
        let topology = o.topology;
        println!("machine: {BENCH_ACCELS} accels x {BENCH_LANES} lanes per node; topology {topology}; sweep {nodes:?}");
        let runs = |app: &str| which == app || which == "all";
        if runs("pr") {
            let (title, inputs) = ("Figure 9 (left) / Table 8: PageRank speedup", figure9_pr_inputs(o.scale, o.seed));
            speedup_table(sw, title, "pr", inputs, &nodes, |n| fig9_pr(&o, iters, n), run_pagerank);
        }
        if runs("bfs") {
            let (title, inputs) = ("Figure 9 (center) / Table 9: BFS speedup", figure9_bfs_inputs(o.scale, o.seed));
            speedup_table(sw, title, "bfs", inputs, &nodes, |n| fig9_bfs(&o, n), run_bfs);
        }
        if runs("tc") {
            // Each graph carries its first run's triangle count for the rest to match.
            let inputs = figure9_tc_inputs(o.scale, o.seed).map(|(name, g)| (name, (g, Cell::new(None))));
            let job = |n| fig9_tc(&o, n);
            let run = |(g, first): &(Csr, Cell<Option<u64>>), c: &TcConfig| {
                let r = run_tc(g, c);
                assert_eq!(first.get().unwrap_or(r.triangles), r.triangles, "count must not depend on machine");
                first.set(Some(r.triangles));
                r
            };
            speedup_table(sw, "Figure 9 (right) / Table 10: TC speedup", "tc", inputs, &tc_nodes, job, run);
        }
    })
}

/// `fig9`'s PageRank, BFS and TC configs at `n` nodes; `cost --figure9`
/// predicts the first run of the sweep from the same config.
fn fig9_pr(o: &StdOpts, iters: u32, n: u32) -> PrConfig {
    PrConfig { machine: o.machine(n), iterations: iters, ..PrConfig::new(n) }
}

fn fig9_bfs(o: &StdOpts, n: u32) -> BfsConfig {
    BfsConfig { machine: o.machine(n), ..BfsConfig::new(n, 0) }
}

fn fig9_tc(o: &StdOpts, n: u32) -> TcConfig {
    TcConfig { machine: o.machine(n), ..TcConfig::new(n) }
}

/// Figure 10 (+ Table 11): ingestion (TFORM parse + PGA insert) scaling
/// for the `data <m>` multiplier family.
fn fig10(cli: &Cli, o: StdOpts) -> Run {
    let base: usize = cli.get("base-records", if o.full { 400_000 } else { 60_000 });
    if base < 50 {
        usage_error(&format!("--base-records {base}: expects at least 50 (the 0.01x series would have no record)"));
    }
    Box::new(move |sw: &mut Sweep| {
        println!("Figure 10 reproduction — ingestion scaling (records = {base} x multiplier)");
        let nodes = node_sweep(o.nodes);
        let data = [("data 0.01x", 0.01), ("data 0.1x", 0.1), ("data", 1.0), ("data 2x", 2.0)];
        let dataset = |mult| datagen::sized(base, mult, (base / 4) as u64, 13 ^ o.seed);
        let inputs = data.into_iter().map(|(label, mult)| (label.to_string(), dataset(mult)));
        let job = |n| IngestConfig { machine: o.machine(n), ..IngestConfig::new(n) };
        speedup_table(sw, "Figure 10 / Table 11: ingestion speedup", "ingest", inputs, &nodes, job, run_ingest);
        println!("\n(the paper reports 76.8 TB/s at 256 full nodes; the shape to match is");
        println!("small datasets saturating early and large ones scaling further)");
    })
}

/// Figure 11 (+ Table 12): Partial Match streaming latency from a fraction
/// of a node up to several nodes.
fn fig11(cli: &Cli, o: StdOpts) -> Run {
    let n_records: usize = cli.get("records", if o.full { 400_000 } else { 150_000 });
    if n_records == 0 {
        usage_error("--records 0: expects at least 1 (no record, no latency to report)");
    }
    Box::new(move |sw: &mut Sweep| {
        let ds = datagen::generate(n_records, (n_records / 8) as u64, 21 ^ o.seed);
        let pattern = vec![1u16, 2, 3];
        let expected = sequential_matches(&ds.records, &pattern);
        let what = format!("{n_records} records, pattern 1->2->3, ~{expected} sequential matches");
        println!("Figure 11 reproduction — partial match latency ({what})");
        let mut t = Table::new(&[12, 8, 14, 14, 10], &["config", "lanes", "mean lat", "p99 lat", "speedup"]);
        let mut base = 0.0f64;
        // Table 12's x-axis: 1/8, 1/2, 1, 4 nodes.
        for (label, num, den) in [("1/8 node", 1u32, 8u32), ("1/2 node", 1, 2), ("1 node", 1, 1), ("4 nodes", 4, 1)] {
            let lanes = (BENCH_ACCELS * BENCH_LANES * num / den).max(2);
            let mut machine = MachineConfig::small(num.div_ceil(den).max(1), BENCH_ACCELS, BENCH_LANES);
            (machine.threads, machine.net.topology) = (o.threads, o.topology);
            let mut cfg = PmConfig { machine, batch: 96, interval: 32, feeders: 8, ..PmConfig::new(lanes, pattern.clone()) };
            let (r, _) = sw.run(&format!("pm {label}"), &mut cfg, |c| run_partial_match(&ds.records, c));
            let mean = r.mean_latency();
            if base == 0.0 {
                base = mean;
            }
            let speedup = format!("{:.2}", base / mean);
            t.row(vec![label.into(), lanes.to_string(), format!("{mean:.0}"), r.p99_latency().to_string(), speedup]);
        }
        print!("{t}");
        println!("\n(the paper's Table 12: speedups 1.00 / 3.34 / 5.56 / 10.42)");
    })
}

/// Figure 12: the `NRnodes` argument of the graph's `DRAMmalloc()` call
/// sweeps memory parallelism with compute fixed.
fn fig12(_: &Cli, o: StdOpts) -> Run {
    let n = o.nodes;
    if n < 2 {
        usage_error(&format!("--nodes {n}: expects at least 2 (the sweep starts at 2 memory nodes)"));
    }
    Box::new(move |sw: &mut Sweep| {
        let scale = o.scale as u32;
        let el = rmat(scale, RmatParams::default(), 48 ^ o.seed);
        let (sg, _) = split_and_shuffle(&el, 512, 7);
        let g = prepared(&el.symmetrize());
        println!("Figure 12 reproduction — DRAMmalloc NRnodes sweep at {n} compute nodes (RMAT s{scale})");
        let mut t = Table::new(&[10, 14, 10, 14, 10], &["mem nodes", "PR ticks", "PR gain", "BFS ticks", "BFS gain"]);
        let gain = |base: u64, ticks: u64| format!("{:.2}", base as f64 / ticks as f64);
        let mut base = None;
        for mem in std::iter::successors(Some(2u32), |m| m.checked_mul(2)).take_while(|&m| m <= n) {
            let mut pc = PrConfig { machine: o.machine(n), mem_nodes: Some(mem), iterations: 1, ..PrConfig::new(n) };
            let pr = sw.run(&format!("pr mem_nodes={mem}"), &mut pc, |c| run_pagerank(&sg, c)).0.final_tick;
            let mut bc = BfsConfig { machine: o.machine(n), mem_nodes: Some(mem), ..BfsConfig::new(n, 0) };
            let bfs = sw.run(&format!("bfs mem_nodes={mem}"), &mut bc, |c| run_bfs(&g, c)).0.final_tick;
            let (pr0, bfs0) = *base.get_or_insert((pr, bfs));
            t.row(vec![mem.to_string(), pr.to_string(), gain(pr0, pr), bfs.to_string(), gain(bfs0, bfs)]);
        }
        print!("{t}");
        let taper = "tapering as memory stops being the bottleneck; BFS shows the same trend less pronounced";
        println!("\n(the paper: PR improves up to ~4x as striping widens 2 -> 64 nodes, {taper})");
    })
}

/// Table 1: the node placement of the four canonical DRAMmalloc layouts.
fn table1() {
    println!("Table 1 reproduction — DRAMmalloc layouts (16-node machine, scaled)\n");
    let mut eng = Engine::new(MachineConfig::small(16, 1, 1));
    let mut show = |name: &str, bytes: u64, layout: Layout, blocks: u64| {
        let base = dram_malloc_layout(&mut eng, bytes, layout).expect("the layout fits the machine");
        let d = eng.mem().descriptor(base).expect("an allocation has a descriptor");
        let nodes: Vec<String> = (0..blocks).map(|b| d.pnn(VAddr(base.0 + b * d.block_size)).to_string()).collect();
        println!("{name:<44} blocks -> {}", nodes.join(" "));
    };
    show("(., 0, 16, 4KB)  cyclic over machine", 64 * 4096, Layout::cyclic(16), 20);
    show("(., 0, 4, 4KB)   cyclic over first 4 nodes", 32 * 4096, Layout::cyclic_bs(4, 4096), 12);
    let size = 8 * 65536u64;
    show("(512KB, 0, 8, 64KB) contiguous per node", size, Layout::contiguous_per_node(size, 8), 8);
    show("(., 4, 8, 8KB)   cyclic across middle 8 nodes", 32 * 8192, Layout::window(4, 8, 8192), 16);
    println!("\n(each number is the physical node owning consecutive blocks of the");
    println!(" virtual region — one translation descriptor per allocation)");
}

/// Table 5: non-blank, non-comment lines of the library abstractions and
/// the apps in the source tree the binary was built from, against the
/// paper's UDWeave numbers. A missing file is an error, never a 0 row.
fn table5() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let loc = |f: &&str| {
        let path = root.join(f);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("table5: {}: {e}", path.display());
            std::process::exit(1);
        });
        text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with("//")).count()
    };
    println!("Table 5 reproduction — abstraction sizes (non-blank, non-comment Rust LoC)");
    let kvmsr = ["crates/core/src/runtime.rs", "crates/core/src/binding.rs", "crates/core/src/task.rs"];
    let libraries: [(&str, &[&str], &str); 9] = [
        ("Scalable Hash Table", &["crates/graph/src/sht.rs"], "4,764"),
        ("Parallel Graph Abstraction", &["crates/graph/src/pga.rs"], "170"),
        ("KV map-shuffle-reduce", &kvmsr, "1,586"),
        ("do_all (uses KVMSR)", &["crates/core/src/doall.rs"], "33"),
        ("Scalable Global Sort", &["crates/core/src/sort.rs"], "158"),
        ("spMalloc (scratchpad malloc)", &["crates/udweave/src/spmalloc.rs"], "83"),
        ("DRAMmalloc (global malloc)", &["crates/memory/src/lib.rs"], "52"),
        ("Combining Cache (fetch&add)", &["crates/udweave/src/combining.rs"], "232"),
        ("TFORM transducer", &["crates/apps/src/ingest/tform.rs"], "n.a."),
    ];
    let apps: [(&str, &[&str], &str); 5] = [
        ("PageRank", &["crates/apps/src/pagerank.rs"], "218"),
        ("BFS", &["crates/apps/src/bfs.rs"], "226"),
        ("TriangleCount", &["crates/apps/src/tc.rs"], "312"),
        ("Ingestion (WF2 K1 analog)", &["crates/apps/src/ingest/mod.rs"], "782"),
        ("Partial Match (WF2 K4 analog)", &["crates/apps/src/partial_match.rs"], "1,817"),
    ];
    let tables = [(["Abstraction", "this repo", "paper (UD)"], &libraries[..]), (["Application kernels", "", ""], &apps)];
    for (header, rows) in tables {
        let mut t = Table::new(&[-38, 10, 12], &header);
        for (name, files, paper) in rows {
            t.row(vec![name.to_string(), files.iter().map(loc).sum::<usize>().to_string(), paper.to_string()]);
        }
        print!("{t}");
    }
    println!("\n(this repo's counts include unit tests in each file; the qualitative");
    println!(" claim reproduced is that powerful abstractions stay in the hundreds-");
    println!(" to-few-thousand LoC range and applications in the hundreds)");
}

/// §5.2.1/§5.2.2: simulated UpDown rates vs this host's CPU running the
/// multithreaded `updown_apps::baseline` kernels on the same graph, where
/// the paper used Perlmutter and a 4096-GPU EOS cluster. The shape to
/// reproduce is a gap of orders of magnitude.
fn baseline(o: &StdOpts, sw: &mut Sweep) {
    let (nodes, scale) = (o.nodes, o.scale as u32);
    let threads = std::thread::available_parallelism().map(|x| x.get()).unwrap_or(4);
    let el = dedup_sort(rmat(scale, RmatParams::default(), 48 ^ o.seed));
    let (g, gu) = (Csr::from_edges(&el), prepared_undirected(&el));
    let (n, m, m_sym) = (g.n(), g.m(), gu.m());
    println!("RMAT s{scale}: n = {n}, m = {m} (directed) / {m_sym} (sym); host threads = {threads}");
    println!("simulated machine: {nodes} nodes x {} lanes", bench_machine(1).lanes_per_node());
    let mut t = Table::new(&[-10, 16, 16, 10], &["kernel", "UpDown (sim)", "host CPU", "ratio"]);
    // A rate cell with its unit is one character wider than its header.
    let mut row = |kernel: &str, unit: &str, ud: f64, host: f64| {
        let w = 16 - unit.len();
        let (ud_cell, host_cell) = (format!("{ud:>w$.2} {unit}"), format!("{host:>w$.3} {unit}"));
        t.row(vec![kernel.into(), ud_cell, host_cell, format!("{:.0}x", ud / host)]);
    };
    // PageRank in giga-updates/s; both sides checked against the oracle.
    let sg = split_in_out(&g, 512);
    let mut pc = PrConfig { machine: o.machine(nodes), iterations: 2, ..PrConfig::new(nodes) };
    let (pr, _) = sw.run("pr", &mut pc, |c| run_pagerank(&sg, c));
    let (host_pr, host_secs) = baseline::time(|| baseline::pagerank_parallel(&g, 2, DAMPING, threads));
    let oracle = algorithms::pagerank(&g, 2, DAMPING);
    for v in 0..n as usize {
        assert!((pr.values[v] - oracle[v]).abs() < 1e-9 && (host_pr[v] - oracle[v]).abs() < 1e-9);
    }
    row("PR", "GUPS", pr.gups(&pc.machine), (m as f64 * 2.0) / host_secs / 1e9);
    // BFS in giga-traversed-edges/s.
    let mut bc = BfsConfig { machine: o.machine(nodes), ..BfsConfig::new(nodes, 0) };
    let (bfs, _) = sw.run("bfs", &mut bc, |c| run_bfs(&gu, c));
    let (host_dist, host_secs) = baseline::time(|| baseline::bfs_parallel(&gu, 0, threads));
    let oracle = algorithms::bfs(&gu, 0);
    assert!(bfs.dist == oracle && host_dist == oracle);
    row("BFS", "GTEPS", bfs.gteps(&bc.machine), bfs.traversed_edges as f64 / host_secs / 1e9);
    // TC in edges/s.
    let mut tcfg = TcConfig { machine: o.machine(nodes), ..TcConfig::new(nodes) };
    let (tc, _) = sw.run("tc", &mut tcfg, |c| run_tc(&gu, c));
    let (host_tc, host_secs) = baseline::time(|| baseline::tc_parallel(&gu, threads));
    assert_eq!(tc.triangles, host_tc);
    let geps = |secs: f64| m_sym as f64 / secs / 1e9;
    row("TC", "GEPS ", geps(tcfg.machine.ticks_to_seconds(tc.final_tick)), geps(host_secs));
    print!("{t}");
    println!("\n(the simulated machine is {nodes} nodes of 1/16-scale; the paper's full");
    println!("512-node runs report 39,617 GUPS (PR) and 35,700 GTEPS (BFS) vs");
    println!("Perlmutter/EOS — the shape to reproduce is the orders-of-magnitude gap)");
}

/// Wall-clock speedup of the window loop: one PageRank run on one worker,
/// then at each `--threads` count above one, which must be byte-identical.
/// Steals and barrier spins depend on thread timing and stay out of the
/// metrics; the load imbalance is the metrics' deterministic `sched`.
fn par(cli: &Cli, o: StdOpts) -> Run {
    let iters = pagerank_iters(cli, 1);
    let mut threads: Vec<u32> = cli.list("threads").unwrap_or_else(|| vec![1, 2, 4]);
    threads.retain(|&t| t > 1);
    let min_speedup: f64 = cli.get("min-speedup", 0.0);
    let json_out: Option<String> = cli.opt("json-out");
    Box::new(move |sw: &mut Sweep| {
        let (nodes, scale, topology) = (o.nodes, o.scale as u32, o.topology);
        let host_cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
        let (sg, _) = split_and_shuffle(&rmat(scale, RmatParams::default(), 48 ^ o.seed), 512, 7);
        println!("Thread-count speedup — PageRank, RMAT s{scale}, {nodes} nodes, {iters} iteration(s), {topology} network");
        println!("host cores: {host_cores}");
        let mut run = |t: u32| {
            let machine = bench_machine_topo(nodes, t, topology);
            let mut cfg = PrConfig { machine, iterations: iters, ..PrConfig::new(nodes) };
            sw.run(&format!("pr threads={t}"), &mut cfg, |c| run_pagerank(&sg, c))
        };
        let (base, base_secs) = run(1);
        let (json, report) = (base.report.to_json(), &base.report);
        let mut runs = vec![(1, base_secs, true, report.stats.events_executed, report.host_sched)];
        for &t in &threads {
            let (r, secs) = run(t);
            runs.push((t, secs, r.report.to_json() == json, r.report.stats.events_executed, r.report.host_sched));
        }
        let header = ["threads", "wall (s)", "final tick", "host rate", "speedup", "steals", "idle spins", "identical"];
        let mut table = Table::new(&[8, 10, 12, 11, 8, 9, 11, 9], &header);
        let mut best = 0.0f64;
        for &(t, secs, same, events, hs) in &runs {
            let speedup = base_secs / secs;
            if t > 1 {
                best = best.max(speedup);
            }
            if !same {
                sw.fail(&format!("par: the run at {t} threads diverged from the one-worker run"));
            }
            let identical = if t == 1 { "-" } else if same { "yes" } else { "NO" };
            let (wall, rate) = (format!("{secs:.3}"), fmt_rate(events, secs));
            let (steals, spins) = (hs.steals.to_string(), hs.idle_spins.to_string());
            let tick = base.final_tick.to_string();
            table.row(vec![t.to_string(), wall, tick, rate, format!("{speedup:.2}"), steals, spins, identical.into()]);
        }
        print!("{table}");
        let (events, windows, sched) = (report.stats.events_executed, report.stats.windows, &report.sched);
        let imbalance = sched.imbalance(events, windows, nodes as u64);
        println!(
            "\nload imbalance over {windows} windows: mean shard load {:.1} events/window, \
             heaviest shard {:.1} mean / {} peak, imbalance factor {imbalance:.2}",
            events as f64 / windows.max(1) as f64 / nodes.max(1) as f64,
            sched.mean_window_max(windows),
            sched.window_max_events_peak,
        );
        if min_speedup > 0.0 {
            if best >= min_speedup {
                println!("\nbest speedup {best:.2}x >= required {min_speedup:.2}x");
            } else {
                sw.fail(&format!("par: best speedup {best:.2}x is below the required {min_speedup:.2}x"));
            }
        }
        let Some(path) = json_out else { return };
        let mut w = JsonWriter::new();
        w.begin_obj().key("schema").string("updown-bench-parallel/v1");
        w.key("bench").string("par_speedup").key("app").string("pagerank");
        w.key("nodes").u64(nodes.into()).key("scale").u64(scale.into());
        w.key("iters").u64(iters.into()).key("seed").u64(o.seed);
        w.key("topology").string(&topology.to_string()).key("host_cores").u64(host_cores as u64);
        w.key("final_tick").u64(base.final_tick).key("events").u64(events).key("windows").u64(windows);
        w.key("sched").begin_obj().key("window_max_events_sum").u64(sched.window_max_events_sum);
        w.key("window_max_events_peak").u64(sched.window_max_events_peak);
        w.key("imbalance").f64(imbalance).end_obj();
        w.key("best_speedup").f64(best).key("byte_identical_threads").bool(runs.iter().all(|r| r.2));
        w.key("runs").begin_arr();
        for &(t, secs, _, _, hs) in &runs {
            w.begin_obj().key("threads").u64(t.into()).key("wall_s").f64(secs);
            w.key("speedup").f64(base_secs / secs).key("steals").u64(hs.steals);
            w.key("barrier_rounds").u64(hs.barrier_rounds).key("idle_spins").u64(hs.idle_spins).end_obj();
        }
        w.end_arr().end_obj();
        write_or_exit("--json-out", &path, &(w.finish() + "\n"));
        println!("wrote {path}");
    })
}

/// The apps named after the subcommand, canonical; all five when none is
/// and `others` (fixtures, `--figure9`) selected no other report.
fn apps(cli: &Cli, others: bool) -> Vec<&'static str> {
    let canon = |a: &String| canon_app(a).unwrap_or_else(|| usage_error(&format!("unknown app or argument '{a}'")));
    let named: Vec<&'static str> = cli.args(1).iter().map(canon).collect();
    if named.is_empty() && !others { ALL_APPS.to_vec() } else { named }
}

/// What every analyzer ends in: the versioned JSON document (`--json`,
/// `--out PATH`) or the text rendering, `--dot` graphs where the
/// subcommand draws them, and exit status 1 on an unclean report.
struct Tail {
    json: bool,
    out: Option<String>,
    dot: bool,
}

impl Tail {
    fn from_cli(cli: &Cli, draws: bool) -> Tail {
        Tail { json: cli.has("json"), out: cli.opt("out"), dot: draws && cli.has("dot") }
    }

    /// Print `reports`; `closing` is the last text line given the unclean
    /// apps, and `failed` exits 1 even when every report is clean.
    fn emit<R: Report>(&self, reports: &[R], closing: impl FnOnce(&[&str]) -> Option<String>, failed: bool) {
        let doc = document(reports);
        if let Some(path) = &self.out {
            write_or_exit("--out", path, &doc);
            if self.dot {
                // One Graphviz file per report (report.pagerank.dot, ...)
                // next to the JSON document.
                let stem = path.strip_suffix(".json").unwrap_or(path);
                for r in reports {
                    let name = r.app().replace(':', "_");
                    write_or_exit("--out", &format!("{stem}.{name}.dot"), &r.dot().unwrap_or_default());
                }
            }
        }
        let unclean: Vec<&str> = reports.iter().filter(|r| !r.is_clean()).map(|r| r.app()).collect();
        if self.json {
            println!("{doc}");
        } else {
            for r in reports {
                let dot = if self.dot { r.dot().unwrap_or_default() } else { String::new() };
                print!("{}{dot}", r.render_text());
            }
            if let Some(line) = closing(&unclean) {
                println!("{line}");
            }
        }
        if failed || !unclean.is_empty() {
            std::process::exit(1);
        }
    }
}

/// `tool: all N <clean>` or `tool: <HEADING>: a, b` — the line the text
/// of `check`, `race` and `spec` ends with.
fn verdict(tool: &str, n: usize, clean: &str, heading: &str, unclean: &[&str]) -> Option<String> {
    Some(if unclean.is_empty() {
        format!("{tool}: all {n} {clean}")
    } else {
        format!("{tool}: {heading}: {}", unclean.join(", "))
    })
}

/// `check`: each app's protocol probe and sanitizer (`udcheck/v1`).
fn check(cli: &Cli, o: StdOpts) -> Run {
    let (apps, tail) = (apps(cli, false), Tail::from_cli(cli, true));
    Box::new(move |_: &mut Sweep| {
        let rs: Vec<_> = apps.iter().map(|app| check_app(app, o.threads, o.seed)).collect();
        tail.emit(&rs, |bad| verdict("udcheck", rs.len(), "app(s) clean", "UNCLEAN", bad), false);
    })
}

/// `race`: each app under the happens-before race probe (`udrace/v1`).
fn race(cli: &Cli, o: StdOpts) -> Run {
    let (apps, tail) = (apps(cli, false), Tail::from_cli(cli, false));
    Box::new(move |_: &mut Sweep| {
        let rs: Vec<_> = apps.iter().map(|app| race_app(app, o.threads, o.seed)).collect();
        tail.emit(&rs, |bad| verdict("udrace", rs.len(), "app(s) race-free", "RACES", bad), false);
    })
}

/// `spec`: each declared protocol, and with `--enforce` each app's run held
/// to it; `--fixture` adds a seeded-defect spec (`udspec/v1`).
fn spec(cli: &Cli, o: StdOpts) -> Run {
    let fixture = |name: &String| {
        let spec = match name.as_str() {
            "wait-cycle" => wait_cycle_fixture(),
            "spm-blowup" => spm_blowup_fixture(),
            other => usage_error(&format!("--fixture {other}: expects wait-cycle or spm-blowup")),
        };
        SpecAnalysis::of(&format!("fixture:{name}"), &spec, &conformance_machine())
    };
    let fixtures: Vec<SpecAnalysis> = cli.all("fixture").iter().map(fixture).collect();
    let (enforce, apps, tail) = (cli.has("enforce"), apps(cli, !fixtures.is_empty()), Tail::from_cli(cli, true));
    Box::new(move |_: &mut Sweep| {
        let run = |app: &&str| spec_app(app, o.threads, o.seed, enforce);
        let rs: Vec<_> = fixtures.into_iter().chain(apps.iter().map(run)).collect();
        tail.emit(&rs, |bad| verdict("udspec", rs.len(), "spec(s) clean", "UNCLEAN", bad), false);
    })
}

/// `cost`: each app's static cost prediction, and with `--figure9` the
/// first run of that `fig9` sweep, graded with `--calibrate` against its
/// `--metrics-json` export (`udcost/v1`).
fn cost(cli: &Cli, o: StdOpts) -> Run {
    let iters = pagerank_iters(cli, 2);
    let figure9: Option<String> = cli.opt("figure9");
    if let Some(which) = figure9.as_deref().filter(|w| !["pr", "pagerank", "bfs", "tc"].contains(w)) {
        usage_error(&format!("--figure9 {which}: expects pr|bfs|tc"));
    }
    let apps = apps(cli, figure9.is_some());
    let calibration: Option<String> = cli.opt("calibrate");
    let tolerance = match cli.opt::<String>("tolerance") {
        None => 2.0,
        Some(t) if calibration.is_none() => usage_error(&format!("--tolerance {t}: needs --calibrate")),
        Some(t) => match t.parse::<f64>() {
            Ok(f) if f.is_finite() && f >= 1.0 => f,
            _ => usage_error(&format!("--tolerance {t}: expects a finite factor >= 1")),
        },
    };
    let selected = apps.len() + figure9.is_some() as usize;
    let calibration = calibration.map(|path| {
        if selected != 1 {
            usage_error(&format!(
                "--calibrate grades exactly one report; name one app or use --figure9 ({selected} selected)"
            ));
        }
        let metrics = std::fs::read_to_string(&path).unwrap_or_else(|e| usage_error(&format!("--calibrate {path}: {e}")));
        (path, metrics)
    });
    let tail = Tail::from_cli(cli, false);
    Box::new(move |_: &mut Sweep| {
        let mut rs: Vec<CostReport> = figure9.map(|which| figure9_cost(&which, &o, iters)).into_iter().collect();
        rs.extend(apps.iter().map(|app| {
            let (w, mc, spec) = workload_for(app, o.threads, o.seed);
            analyze_cost(app, &spec, &w, &mc)
        }));
        let mut missed = false;
        if let Some((path, metrics)) = calibration {
            let cal = calibrate(&rs[0], &metrics).unwrap_or_else(|e| usage_error(&format!("--calibrate {path}: {e}")));
            missed = !cal.within(tolerance);
            rs[0].calibration = Some(cal);
        }
        let closing = |_: &[&str]| {
            missed.then(|| format!("udcost: CALIBRATION FAILED: worst factor exceeds {tolerance:.2}x"))
        };
        tail.emit(&rs, closing, missed);
    })
}

/// The cost prediction of the first run of `repro fig9 <which>` at
/// `--nodes` (with `--min-nodes` at the same count): the run its
/// `--metrics-json` exporter records, from the same inputs and config.
fn figure9_cost(which: &str, o: &StdOpts, iters: u32) -> CostReport {
    const MENU: &str = "the graph menu is never empty";
    match which {
        "pr" | "pagerank" => {
            let (_, sg) = figure9_pr_inputs(o.scale, o.seed).next().expect(MENU);
            let cfg = fig9_pr(o, iters, o.nodes);
            let w = updown_apps::pagerank::workload(&sg, &cfg);
            analyze_cost("figure9:pr", &PrConfig::spec(), &w, &cfg.machine)
        }
        "bfs" => {
            let (_, g) = figure9_bfs_inputs(o.scale, o.seed).next().expect(MENU);
            let cfg = fig9_bfs(o, o.nodes);
            analyze_cost("figure9:bfs", &BfsConfig::spec(), &updown_apps::bfs::workload(&g, &cfg), &cfg.machine)
        }
        _ => {
            let (_, g) = figure9_tc_inputs(o.scale, o.seed).next().expect(MENU);
            let cfg = fig9_tc(o, o.nodes);
            analyze_cost("figure9:tc", &TcConfig::spec(), &updown_apps::tc::workload(&g, &cfg), &cfg.machine)
        }
    }
}
