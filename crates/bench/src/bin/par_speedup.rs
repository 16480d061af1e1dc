#![forbid(unsafe_code)]
//! Wall-clock speedup of the window loop over host threads: the same
//! figure9-style PageRank run executed on one worker and at a sweep of
//! thread counts. Simulated results must be identical (the binary
//! asserts it); only host wall-clock changes.
//!
//! ```text
//! cargo run --release -p bench --bin par_speedup -- [--nodes 64]
//!     [--scale 13] [--seed 0] [--iters 1] [--threads 1,2,4] [--topology uniform]
//!     [--min-speedup 0] [--json-out par_speedup.json]
//!     [--sanitize] [--race] [--spec]
//! ```
//!
//! Here `--scale` is the absolute RMAT scale and `--threads` a
//! comma-separated list of thread counts to compare against the
//! one-worker baseline. `--min-speedup` (e.g. `1.5`) makes the binary
//! exit non-zero when the best speedup falls short — the acceptance gate
//! used by CI. `--json-out` records the scaling curve (plus the host core
//! count and per-run scheduler diagnostics) as a machine-readable file.
//!
//! Alongside wall-clock, the binary reports the deterministic per-window
//! load-imbalance aggregates from the metrics JSON (`sched` object): the
//! mean/peak of the heaviest shard's event count per window, and the
//! imbalance factor (mean window peak over mean per-shard load — 1.0 is
//! perfectly balanced, N means one shard does everything). Host-side
//! diagnostics (steals, barrier spins) are per-run and thread-timing
//! dependent, so they appear in the table and the JSON file but never in
//! the byte-compared metrics.

use bench::{Cli, Gates, bench_machine_topo};
use updown_apps::pagerank::{run_pagerank, PrConfig};
use updown_graph::generators::{rmat, RmatParams};
use updown_graph::preprocess::split_and_shuffle;

fn main() {
    let cli = Cli::parse();
    let (nodes, scale) = bench::cli::nodes_and_rmat_scale(&cli, 64, 13);
    let seed: u64 = cli.get("seed", 0);
    let iters = bench::cli::pagerank_iters(&cli, 1);
    let mut threads_list: Vec<u32> = cli.list("threads").unwrap_or_else(|| vec![1, 2, 4]);
    threads_list.retain(|&t| t > 1);
    let min_speedup: f64 = cli.get("min-speedup", 0.0);
    let json_out: Option<String> = cli.opt("json-out");
    let topology = bench::cli::parse_topology(&cli);
    let mut gates = Gates::from_cli(&cli);
    cli.reject_unknown();
    let host_cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);

    let el = rmat(scale, RmatParams::default(), 48 ^ seed);
    let (sg, _) = split_and_shuffle(&el, 512, 7);

    println!(
        "Thread-count speedup — PageRank, RMAT s{scale}, {nodes} nodes, \
         {iters} iteration(s), {topology} network"
    );
    println!("host cores: {host_cores}");

    let mut run = |threads: u32| {
        let mut cfg = PrConfig::new(nodes);
        cfg.machine = bench_machine_topo(nodes, threads, topology);
        gates.arm(&format!("pr threads={threads}"), &updown_apps::pagerank::spec(), &mut cfg.machine);
        cfg.iterations = iters;
        let t0 = std::time::Instant::now();
        let r = run_pagerank(&sg, &cfg);
        (r, t0.elapsed().as_secs_f64())
    };

    let (base, base_secs) = run(1);
    let base_json = base.report.to_json();
    // Simulated work is identical across thread counts, so the host
    // event rate is the honest per-configuration throughput figure.
    let events = base.report.stats.events_executed;
    let windows = base.report.stats.windows;
    println!(
        "\n{:>8} {:>10} {:>12} {:>11} {:>8} {:>9} {:>11} {:>9}",
        "threads", "wall (s)", "final tick", "host rate", "speedup", "steals", "idle spins", "identical"
    );
    let host_row = |t: u32, secs: f64, hs: &updown_sim::HostSchedStats, sp: f64, ident: &str, ev: u64| {
        println!(
            "{:>8} {:>10.3} {:>12} {:>11} {:>8.2} {:>9} {:>11} {:>9}",
            t,
            secs,
            base.final_tick,
            bench::cli::host_rate(ev, secs),
            sp,
            hs.steals,
            hs.idle_spins,
            ident
        );
    };
    host_row(1, base_secs, &base.report.host_sched, 1.0, "-", events);

    let mut best = 0.0f64;
    let mut rows = vec![(1u32, base_secs, 1.0f64, base.report.host_sched)];
    for &t in &threads_list {
        let (r, secs) = run(t);
        let same = r.final_tick == base.final_tick && r.report.to_json() == base_json;
        assert!(
            same,
            "the run at {t} threads diverged from the one-worker run"
        );
        let sp = base_secs / secs;
        best = best.max(sp);
        host_row(t, secs, &r.report.host_sched, sp, "yes", r.report.stats.events_executed);
        rows.push((t, secs, sp, r.report.host_sched));
    }

    // Per-window load imbalance (deterministic, part of the metrics JSON).
    let sched = &base.report.sched;
    let mean_shard = events as f64 / windows.max(1) as f64 / nodes.max(1) as f64;
    println!(
        "\nload imbalance over {windows} windows: mean shard load {:.1} events/window, \
         heaviest shard {:.1} mean / {} peak, imbalance factor {:.2}",
        mean_shard,
        sched.mean_window_max(windows),
        sched.window_max_events_peak,
        sched.imbalance(events, windows, nodes as u64)
    );

    if min_speedup > 0.0 {
        assert!(
            best >= min_speedup,
            "best speedup {best:.2}x is below the required {min_speedup:.2}x"
        );
        println!("\nbest speedup {best:.2}x >= required {min_speedup:.2}x");
    }

    if let Some(path) = json_out {
        let mut runs = String::new();
        for (i, (t, secs, sp, hs)) in rows.iter().enumerate() {
            if i > 0 {
                runs.push(',');
            }
            runs.push_str(&format!(
                "\n    {{\"threads\": {t}, \"wall_s\": {secs:.6}, \"speedup\": {sp:.4}, \
                 \"steals\": {}, \"barrier_rounds\": {}, \"idle_spins\": {}}}",
                hs.steals, hs.barrier_rounds, hs.idle_spins
            ));
        }
        let json = format!(
            "{{\n  \"schema\": \"updown-bench-parallel/v1\",\n  \"bench\": \"par_speedup\",\n  \
             \"app\": \"pagerank\",\n  \"nodes\": {nodes},\n  \"scale\": {scale},\n  \
             \"iters\": {iters},\n  \"seed\": {seed},\n  \"topology\": \"{topology}\",\n  \
             \"host_cores\": {host_cores},\n  \"final_tick\": {},\n  \"events\": {events},\n  \
             \"windows\": {windows},\n  \"sched\": {{\"window_max_events_sum\": {}, \
             \"window_max_events_peak\": {}, \"imbalance\": {:.4}}},\n  \
             \"best_speedup\": {best:.4},\n  \"byte_identical_threads\": true,\n  \
             \"runs\": [{runs}\n  ]\n}}\n",
            base.final_tick,
            sched.window_max_events_sum,
            sched.window_max_events_peak,
            sched.imbalance(events, windows, nodes as u64),
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }

    gates.exit_if_dirty();
}
