#![forbid(unsafe_code)]
//! `udcost` CLI: static cost & communication prediction over the
//! applications' declared-effects protocol specs plus per-app workload
//! descriptors. Never constructs an engine — every number comes from the
//! declarations and host-side input arithmetic, in zero simulation ticks.
//!
//! ```text
//! udcost [APPS...] [--threads N] [--seed S] [--json] [--out PATH]
//!        [--figure9 pr|bfs|tc] [--nodes N] [--scale S] [--iters I]
//!        [--topology T] [--calibrate METRICS.json] [--tolerance F]
//!        [--hints]
//! ```
//!
//! Default mode analyzes the conformance-scale inputs (the same graphs
//! and machines as `udcheck`/`udspec`). `--figure9 APP` instead rebuilds
//! the first graph of the figure9 bench sweep at `--nodes`/`--scale` and
//! predicts that run — the exact run `figure9 APP --min-nodes N
//! --metrics-json out.json` records, so `--calibrate out.json` grades the
//! prediction against ground truth. Exit status 1 when a report has
//! error findings or calibration misses `--tolerance` (default 2.0).
//!
//! `--hints` prints the predicted per-shard work
//! ([`CostReport::shard_hints`], see docs/analysis.md).

use std::io::Write as _;

use udcheck::apps::{canon_app, workload_for, ALL_APPS};
use udcheck::cost::Calibration;
use udcheck::{analyze_cost, calibrate, render_cost_document, render_cost_text, CostReport};
use updown_apps::bfs::BfsConfig;
use updown_apps::harness::{bench_machine_topo, graph_menu_seeded, prepared, prepared_undirected};
use updown_apps::pagerank::PrConfig;
use updown_apps::tc::TcConfig;
use updown_sim::TopologyKind;

struct Opts {
    apps: Vec<String>,
    threads: u32,
    seed: u64,
    json: bool,
    out: Option<String>,
    figure9: Option<String>,
    nodes: u32,
    scale: i32,
    iters: u32,
    topology: TopologyKind,
    calibrate: Option<String>,
    tolerance: f64,
    hints: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: udcost [APPS...] [--threads N] [--seed S] [--json] [--out PATH]\n\
         \x20             [--figure9 pr|bfs|tc] [--nodes N] [--scale S] [--iters I]\n\
         \x20             [--topology T] [--calibrate METRICS.json] [--tolerance F] [--hints]\n\
         \n\
         APPS: pagerank|pr  bfs  tc  ingest  partial_match|pm   (default: all)\n\
         --threads N         threads the predicted machine would use (default 1)\n\
         --seed S            input-generation seed (default 10)\n\
         --json              print the udcost/v1 JSON document instead of text\n\
         --out PATH          also write the JSON document to PATH\n\
         --figure9 APP       predict the first figure9 bench run of pr|bfs|tc\n\
         --nodes N           figure9 machine nodes (default 4)\n\
         --scale S           figure9 graph-scale shift (default 0)\n\
         --iters I           figure9 PageRank iterations (default 2)\n\
         --topology T        uniform|polar|torus|dragonfly (default uniform)\n\
         --calibrate PATH    grade against an updown-metrics/v1 export\n\
         --tolerance F       max relative-error factor for --calibrate (default 2.0)\n\
         --hints             print predicted per-shard work (shard_hints)"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        apps: Vec::new(),
        threads: 1,
        seed: 10,
        json: false,
        out: None,
        figure9: None,
        nodes: 4,
        scale: 0,
        iters: 2,
        topology: TopologyKind::Uniform,
        calibrate: None,
        tolerance: 2.0,
        hints: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => o.threads = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--seed" => o.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--json" => o.json = true,
            "--out" => o.out = Some(it.next().unwrap_or_else(|| usage())),
            "--figure9" => o.figure9 = Some(it.next().unwrap_or_else(|| usage())),
            "--nodes" => o.nodes = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--scale" => o.scale = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--iters" => o.iters = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--topology" => {
                o.topology = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--calibrate" => o.calibrate = Some(it.next().unwrap_or_else(|| usage())),
            "--tolerance" => o.tolerance = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--hints" => o.hints = true,
            "--help" | "-h" => usage(),
            app => match canon_app(app) {
                Some(canon) => o.apps.push(canon.to_string()),
                None => {
                    eprintln!("udcost: unknown app or flag '{app}'");
                    usage()
                }
            },
        }
    }
    if o.apps.is_empty() && o.figure9.is_none() {
        o.apps = ALL_APPS.iter().map(|s| s.to_string()).collect();
    }
    o
}

/// Predict the first simulated run of a `figure9` sweep — the run its
/// `--metrics-json` exporter records, so the report is directly
/// calibratable against that file.
fn figure9_report(which: &str, o: &Opts) -> CostReport {
    let mc = bench_machine_topo(o.nodes, o.threads, o.topology);
    match which {
        "pr" | "pagerank" => {
            let (_, el) = graph_menu_seeded(o.scale, o.seed).remove(0);
            let (sh, _) = updown_graph::preprocess::shuffle_ids(&el, 7);
            let sg = updown_graph::preprocess::split_in_out(
                &updown_graph::Csr::from_edges(&sh),
                512,
            );
            let mut cfg = PrConfig::new(o.nodes);
            cfg.machine = mc.clone();
            cfg.iterations = o.iters;
            let w = updown_apps::pagerank::workload(&sg, &cfg);
            analyze_cost("figure9:pr", &updown_apps::pagerank::spec(), &w, &mc)
        }
        "bfs" => {
            let (_, el) = graph_menu_seeded(o.scale, o.seed).remove(0);
            let g = prepared(&el.symmetrize());
            let mut cfg = BfsConfig::new(o.nodes, 0);
            cfg.machine = mc.clone();
            let w = updown_apps::bfs::workload(&g, &cfg);
            analyze_cost("figure9:bfs", &updown_apps::bfs::spec(), &w, &mc)
        }
        "tc" => {
            // figure9 drops TC three scales relative to PR/BFS.
            let (_, el) = graph_menu_seeded(o.scale - 3, o.seed).remove(0);
            let g = prepared_undirected(&el);
            let mut cfg = TcConfig::new(o.nodes);
            cfg.machine = mc.clone();
            let w = updown_apps::tc::workload(&g, &cfg);
            analyze_cost("figure9:tc", &updown_apps::tc::spec(), &w, &mc)
        }
        other => {
            eprintln!("udcost: --figure9 takes pr|bfs|tc, got '{other}'");
            std::process::exit(2);
        }
    }
}

fn main() {
    let o = parse_opts();
    let mut reports: Vec<CostReport> = Vec::new();
    if let Some(which) = &o.figure9 {
        reports.push(figure9_report(which, &o));
    }
    for app in &o.apps {
        let (w, mc, spec) = workload_for(app, o.threads, o.seed);
        reports.push(analyze_cost(app, &spec, &w, &mc));
    }

    let mut cal_failed = false;
    if let Some(path) = &o.calibrate {
        let metrics = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("udcost: cannot read {path}: {e}");
            std::process::exit(2);
        });
        if reports.len() != 1 {
            eprintln!(
                "udcost: --calibrate grades exactly one report; \
                 name one app or use --figure9 ({} selected)",
                reports.len()
            );
            std::process::exit(2);
        }
        let cal: Calibration = calibrate(&reports[0], &metrics).unwrap_or_else(|e| {
            eprintln!("udcost: {path}: {e}");
            std::process::exit(2);
        });
        cal_failed = !cal.within(o.tolerance);
        reports[0].calibration = Some(cal);
    }

    let doc = render_cost_document(&reports);
    if let Some(path) = &o.out {
        std::fs::write(path, &doc).unwrap_or_else(|e| {
            eprintln!("udcost: cannot write {path}: {e}");
            std::process::exit(2);
        });
    }
    if o.json {
        println!("{doc}");
    } else {
        let mut stdout = std::io::stdout().lock();
        for r in &reports {
            let _ = stdout.write_all(render_cost_text(r).as_bytes());
            if o.hints {
                let hints: Vec<String> =
                    r.shard_hints().iter().map(|h| h.to_string()).collect();
                let _ = writeln!(stdout, "  shard_hints: {}", hints.join(","));
            }
        }
        if cal_failed {
            let _ = writeln!(
                stdout,
                "udcost: CALIBRATION FAILED: worst factor exceeds {:.2}x",
                o.tolerance
            );
        }
    }
    if cal_failed || reports.iter().any(|r| !r.is_clean()) {
        std::process::exit(1);
    }
}
