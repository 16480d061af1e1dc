#![forbid(unsafe_code)]
//! Figure 10 (+ Table 11): ingestion (TFORM parse + PGA insert) scaling
//! over machine size for the `data <m>` multiplier family.
//!
//! ```text
//! cargo run --release -p bench --bin figure10 -- [--nodes 32]
//!     [--base-records 20000] [--seed 0] [--threads 1] [--topology uniform] [--full]
//!     [--sanitize] [--race] [--spec]
//!     [--trace out.trace.json] [--metrics-json out.metrics.json]
//! ```

use bench::{Cli, Exporter, Gates, StdOpts, node_sweep};
use updown_apps::harness::{print_speedup_table, Series};
use updown_apps::ingest::{datagen, run_ingest, IngestConfig};

fn main() {
    let cli = Cli::parse();
    let opts = StdOpts::parse(&cli, (32, 256), (0, 0));
    let full = opts.full;
    let base: usize = cli.get("base-records", if full { 400_000 } else { 60_000 });
    if base < 50 {
        bench::cli::usage_error(&format!(
            "--base-records {base}: expects at least 50 (the 0.01x series would have no record)"
        ));
    }
    let nodes = node_sweep(opts.max_nodes);
    let mut gates = Gates::from_cli(&cli);
    let mut ex = Exporter::from_cli(&cli);
    cli.reject_unknown();

    println!("Figure 10 reproduction — ingestion scaling (records = {base} x multiplier)");
    let mut series = Vec::new();
    for (label, mult) in [
        ("data 0.01x", 0.01),
        ("data 0.1x", 0.1),
        ("data", 1.0),
        ("data 2x", 2.0),
    ] {
        let ds = datagen::sized(base, mult, (base / 4) as u64, 13 ^ opts.seed);
        let mut s = Series::new(label);
        for &n in &nodes {
            let mut cfg = IngestConfig::new(n);
            cfg.machine = opts.machine(n);
            gates.arm(&format!("ingest {label} nodes={n}"), &updown_apps::ingest::spec(), &mut cfg.machine);
            cfg.trace = ex.want_trace();
            let t0 = std::time::Instant::now();
            let r = run_ingest(&ds, &cfg);
            let secs = t0.elapsed().as_secs_f64();
            ex.export(&format!("ingest {label} nodes={n}"), &r.report, r.trace_json.as_deref());
            eprintln!(
                "  {label} nodes={n}: {} ticks ({:.1} MRecords/s, phase1 {} / phase2 {}, {} host)",
                r.final_tick,
                r.records_per_second(&cfg.machine) / 1e6,
                r.phase1_tick,
                r.phase2_tick - r.phase1_tick,
                bench::cli::host_rate(r.report.stats.events_executed, secs),
            );
            s.push(n, r.final_tick);
        }
        series.push(s);
    }
    print_speedup_table("Figure 10 / Table 11: ingestion speedup", "nodes", &series);
    println!(
        "\n(the paper reports 76.8 TB/s at 256 full nodes; the shape to match is\n\
         small datasets saturating early and large ones scaling further)"
    );
    gates.exit_if_dirty();
}
