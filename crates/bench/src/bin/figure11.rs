#![forbid(unsafe_code)]
//! Figure 11 (+ Table 12): Partial Match streaming latency vs compute
//! resources (fractions of a node up to several nodes).
//!
//! ```text
//! cargo run --release -p bench --bin figure11 -- [--records 4000] [--seed 0]
//!     [--threads 1] [--topology uniform] [--full] [--sanitize] [--race] [--spec]
//!     [--trace out.trace.json]
//!     [--metrics-json out.metrics.json]
//! ```

use bench::{BENCH_ACCELS, BENCH_LANES, Cli, Exporter, Gates};
use updown_sim::TopologyKind;
use updown_apps::ingest::datagen;
use updown_apps::partial_match::{run_partial_match, sequential_matches, PmConfig};
use updown_sim::MachineConfig;

fn main() {
    let cli = Cli::parse();
    let full = cli.has("full");
    let n_records: usize = cli.get("records", if full { 400_000 } else { 150_000 });
    if n_records == 0 {
        bench::cli::usage_error("--records 0: expects at least 1 (no record, no latency to report)");
    }
    let seed: u64 = cli.get("seed", 0);
    let threads: u32 = cli.get("threads", 1).max(1);
    let topology: TopologyKind = bench::cli::parse_topology(&cli);
    let batch = cli.get("batch", 96);
    let interval = cli.get("interval", 32);
    let mut gates = Gates::from_cli(&cli);
    let mut ex = Exporter::from_cli(&cli);
    cli.reject_unknown();
    let lanes_per_node = BENCH_ACCELS * BENCH_LANES;

    let ds = datagen::generate(n_records, (n_records / 8) as u64, 21 ^ seed);
    let pattern = vec![1u16, 2, 3];
    let expected = sequential_matches(&ds.records, &pattern);
    println!(
        "Figure 11 reproduction — partial match latency ({n_records} records, \
         pattern 1->2->3, ~{expected} sequential matches)"
    );
    println!(
        "\n{:>12} {:>8} {:>14} {:>14} {:>10}",
        "config", "lanes", "mean lat", "p99 lat", "speedup"
    );
    let mut base = 0.0f64;
    // Table 12's x-axis: 1/8, 1/2, 1, 4 nodes.
    for (label, frac_num, frac_den) in [
        ("1/8 node", 1u32, 8u32),
        ("1/2 node", 1, 2),
        ("1 node", 1, 1),
        ("4 nodes", 4, 1),
    ] {
        let lanes = (lanes_per_node * frac_num / frac_den).max(2);
        let nodes = frac_num.div_ceil(frac_den).max(1);
        let mut cfg = PmConfig::new(lanes, pattern.clone());
        cfg.machine = MachineConfig::small(nodes, BENCH_ACCELS, BENCH_LANES);
        cfg.machine.threads = threads;
        cfg.machine.net.topology = topology;
        gates.arm(&format!("pm {label}"), &updown_apps::partial_match::spec(), &mut cfg.machine);
        cfg.batch = batch;
        cfg.interval = interval;
        cfg.feeders = 8;
        cfg.trace = ex.want_trace();
        let t0 = std::time::Instant::now();
        let r = run_partial_match(&ds.records, &cfg);
        let secs = t0.elapsed().as_secs_f64();
        ex.export(&format!("pm {label}"), &r.report, r.trace_json.as_deref());
        let mean = r.mean_latency();
        if base == 0.0 {
            base = mean;
        }
        // Host throughput goes to stderr: stdout stays deterministic so
        // runs can be diffed as a conformance check.
        eprintln!(
            "  pm {label}: {} host",
            bench::cli::host_rate(r.report.stats.events_executed, secs)
        );
        println!(
            "{:>12} {:>8} {:>14.0} {:>14} {:>10.2}",
            label,
            lanes,
            mean,
            r.p99_latency(),
            base / mean
        );
    }
    println!("\n(the paper's Table 12: speedups 1.00 / 3.34 / 5.56 / 10.42)");
    gates.exit_if_dirty();
}
