#![forbid(unsafe_code)]
//! `ud` — the one analyzer CLI (docs/analysis.md). Every subcommand takes
//! the same app list and shared flags, produces one [`Report`] per app,
//! and ends in the same output tail: the versioned JSON document
//! (`--json`, `--out`) or a text rendering, exit status 1 if any report is
//! unclean, 2 on a command line it cannot make sense of.
//!
//! ```text
//! ud check [APPS...] [--dot]
//! ud race  [APPS...]
//! ud spec  [APPS...] [--enforce] [--fixture NAME] [--dot]
//! ud cost  [APPS...] [--figure9 pr|bfs|tc] [--nodes N] [--scale S] [--iters I]
//!          [--topology T] [--calibrate METRICS.json] [--tolerance F] [--hints]
//! shared:  [--threads N] [--seed S] [--json] [--out PATH]
//! ```
//!
//! What each subcommand answers, its flags and its schema: docs/analysis.md
//! and the usage text below. `--dot` prints Graphviz graphs in text mode;
//! with `--out PATH` it also writes one `.dot` file per report alongside
//! the JSON document.

use std::io::Write as _;
use std::str::FromStr;

use udcheck::apps::{
    canon_app, check_app, conformance_machine, race_app, spec_app, workload_for, ALL_APPS,
};
use udcheck::spec::{spm_blowup_fixture, wait_cycle_fixture};
use udcheck::{analyze_cost, calibrate, document, CostReport, Report, SpecAnalysis};
use updown_apps::bfs::BfsConfig;
use updown_apps::harness::{
    bench_machine_topo, check_bench_args, figure9_bfs_inputs, figure9_pr_inputs,
    figure9_tc_inputs,
};
use updown_apps::pagerank::PrConfig;
use updown_apps::tc::TcConfig;
use updown_sim::TopologyKind;

struct Opts {
    sub: String,
    apps: Vec<&'static str>,
    threads: u32,
    seed: u64,
    json: bool,
    out: Option<String>,
    dot: bool,
    enforce: bool,
    fixtures: Vec<String>,
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
        "usage: ud check|race|spec|cost [APPS...] [--threads N] [--seed S] [--json] [--out PATH]\n\
         \x20      ud check [--dot]\n\
         \x20      ud spec  [--enforce] [--fixture NAME] [--dot]\n\
         \x20      ud cost  [--figure9 pr|bfs|tc] [--nodes N] [--scale S] [--iters I]\n\
         \x20               [--topology T] [--calibrate METRICS.json] [--tolerance F] [--hints]\n\
         \n\
         APPS: pagerank|pr  bfs  tc  ingest  partial_match|pm   (default: all)\n\
         --threads N       simulator worker threads (default 1)\n\
         --seed S          input-generation seed (default 10)\n\
         --json            print the JSON document instead of text\n\
         --out PATH        also write the JSON document to PATH\n\
         --dot             print Graphviz event-flow graphs; with --out PATH,\n\
         \x20                 also write per-app .dot files alongside the JSON\n\
         --enforce         also run each app with runtime spec enforcement\n\
         --fixture NAME    analyze a seeded-defect spec: wait-cycle | spm-blowup\n\
         --figure9 APP     predict the first `repro fig9` run of pr|bfs|tc\n\
         --nodes N         figure9 machine nodes (default 4)\n\
         --scale S         figure9 graph-scale shift (default 0)\n\
         --iters I         figure9 PageRank iterations (default 2)\n\
         --topology T      uniform|polar|torus|dragonfly (default uniform)\n\
         --calibrate PATH  grade against an updown-metrics/v1 export\n\
         --tolerance F     max relative-error factor for --calibrate (default 2.0)\n\
         --hints           print predicted per-shard work (shard_hints)"
    );
    std::process::exit(2);
}

/// A command line that parses but cannot be carried out: say why, exit 2.
fn die(o: &Opts, msg: &str) -> ! {
    eprintln!("ud {}: {msg}", o.sub);
    std::process::exit(2);
}

/// The value of the flag just read; a missing or unparsable one ends in the
/// usage text.
fn value<T: FromStr>(it: &mut impl Iterator<Item = String>) -> T {
    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn parse_opts() -> Opts {
    let mut it = std::env::args().skip(1);
    let mut o = Opts {
        sub: it.next().unwrap_or_else(|| usage()),
        apps: Vec::new(),
        threads: 1,
        seed: 10,
        json: false,
        out: None,
        dot: false,
        enforce: false,
        fixtures: Vec::new(),
        figure9: None,
        nodes: 4,
        scale: 0,
        iters: 2,
        topology: TopologyKind::Uniform,
        calibrate: None,
        tolerance: 2.0,
        hints: false,
    };
    if !["check", "race", "spec", "cost"].contains(&o.sub.as_str()) {
        usage();
    }
    while let Some(a) = it.next() {
        match (o.sub.as_str(), a.as_str()) {
            (_, "--threads") => o.threads = value(&mut it),
            (_, "--seed") => o.seed = value(&mut it),
            (_, "--json") => o.json = true,
            (_, "--out") => o.out = Some(value(&mut it)),
            ("check" | "spec", "--dot") => o.dot = true,
            ("spec", "--enforce") => o.enforce = true,
            ("spec", "--fixture") => o.fixtures.push(value(&mut it)),
            ("cost", "--figure9") => o.figure9 = Some(value(&mut it)),
            ("cost", "--nodes") => o.nodes = value(&mut it),
            ("cost", "--scale") => o.scale = value(&mut it),
            ("cost", "--iters") => o.iters = value(&mut it),
            ("cost", "--topology") => o.topology = value(&mut it),
            ("cost", "--calibrate") => o.calibrate = Some(value(&mut it)),
            ("cost", "--tolerance") => o.tolerance = value(&mut it),
            ("cost", "--hints") => o.hints = true,
            (_, app) => match canon_app(app) {
                Some(canon) => o.apps.push(canon),
                None => {
                    eprintln!("ud {}: unknown app or flag '{app}'", o.sub);
                    usage()
                }
            },
        }
    }
    if o.apps.is_empty() && o.fixtures.is_empty() && o.figure9.is_none() {
        o.apps = ALL_APPS.to_vec();
    }
    o
}

fn fixture(o: &Opts, name: &str) -> SpecAnalysis {
    let spec = match name {
        "wait-cycle" => wait_cycle_fixture(),
        "spm-blowup" => spm_blowup_fixture(),
        other => die(o, &format!("unknown fixture '{other}' (wait-cycle, spm-blowup)")),
    };
    SpecAnalysis::of(&format!("fixture:{name}"), &spec, &conformance_machine())
}

/// Predict the first simulated run of a `repro fig9` sweep — the run its
/// `--metrics-json` exporter records, so the report is directly
/// calibratable against that file. The inputs come from the same
/// `figure9_*_inputs` pipelines `repro fig9` runs.
fn figure9_report(which: &str, o: &Opts) -> CostReport {
    check_bench_args(o.nodes, o.scale).unwrap_or_else(|e| die(o, &e));
    let mc = bench_machine_topo(o.nodes, o.threads, o.topology);
    const MENU: &str = "the graph menu is never empty";
    match which {
        "pr" | "pagerank" => {
            let (_, sg) = figure9_pr_inputs(o.scale, o.seed).next().expect(MENU);
            let mut cfg = PrConfig::new(o.nodes);
            cfg.machine = mc.clone();
            cfg.iterations = o.iters;
            let w = updown_apps::pagerank::workload(&sg, &cfg);
            analyze_cost("figure9:pr", &updown_apps::pagerank::spec(), &w, &mc)
        }
        "bfs" => {
            let (_, g) = figure9_bfs_inputs(o.scale, o.seed).next().expect(MENU);
            let mut cfg = BfsConfig::new(o.nodes, 0);
            cfg.machine = mc.clone();
            let w = updown_apps::bfs::workload(&g, &cfg);
            analyze_cost("figure9:bfs", &updown_apps::bfs::spec(), &w, &mc)
        }
        "tc" => {
            let (_, g) = figure9_tc_inputs(o.scale, o.seed).next().expect(MENU);
            let mut cfg = TcConfig::new(o.nodes);
            cfg.machine = mc.clone();
            let w = updown_apps::tc::workload(&g, &cfg);
            analyze_cost("figure9:tc", &updown_apps::tc::spec(), &w, &mc)
        }
        other => die(o, &format!("--figure9 takes pr|bfs|tc, got '{other}'")),
    }
}

/// All cost reports the command line selects, the one `--calibrate` names
/// graded; the flag is whether that grade missed `--tolerance`.
fn cost_reports(o: &Opts) -> (Vec<CostReport>, bool) {
    let mut reports: Vec<CostReport> = Vec::new();
    if let Some(which) = &o.figure9 {
        reports.push(figure9_report(which, o));
    }
    for app in &o.apps {
        let (w, mc, spec) = workload_for(app, o.threads, o.seed);
        reports.push(analyze_cost(app, &spec, &w, &mc));
    }
    let Some(path) = &o.calibrate else {
        return (reports, false);
    };
    let metrics = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(o, &format!("cannot read {path}: {e}")));
    let [report] = reports.as_mut_slice() else {
        die(
            o,
            &format!(
                "--calibrate grades exactly one report; name one app or use --figure9 \
                 ({} selected)",
                reports.len()
            ),
        );
    };
    let cal = calibrate(report, &metrics).unwrap_or_else(|e| die(o, &format!("{path}: {e}")));
    let missed = !cal.within(o.tolerance);
    report.calibration = Some(cal);
    (reports, missed)
}

fn write_file(o: &Opts, path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| die(o, &format!("cannot write {path}: {e}")));
}

/// The one output tail. `after` is extra text-mode output per report,
/// `closing` the last text-mode line given the unclean apps; `failed`
/// forces exit status 1 even when every report is clean.
fn emit<R: Report>(
    o: &Opts,
    reports: &[R],
    after: impl Fn(&R) -> String,
    closing: impl FnOnce(&[&str]) -> Option<String>,
    failed: bool,
) {
    let doc = document(reports);
    if let Some(path) = &o.out {
        write_file(o, path, &doc);
        if o.dot {
            // One Graphviz file per report (report.pagerank.dot, ...)
            // alongside the JSON document.
            let stem = path.strip_suffix(".json").unwrap_or(path);
            for r in reports {
                let name = r.app().replace(':', "_");
                write_file(o, &format!("{stem}.{name}.dot"), &r.dot().unwrap_or_default());
            }
        }
    }
    let unclean: Vec<&str> = reports.iter().filter(|r| !r.is_clean()).map(|r| r.app()).collect();
    if o.json {
        println!("{doc}");
    } else {
        let mut stdout = std::io::stdout().lock();
        for r in reports {
            let dot = if o.dot { r.dot().unwrap_or_default() } else { String::new() };
            let _ = write!(stdout, "{}{dot}{}", r.render_text(), after(r));
        }
        if let Some(line) = closing(&unclean) {
            let _ = writeln!(stdout, "{line}");
        }
    }
    if failed || !unclean.is_empty() {
        std::process::exit(1);
    }
}

/// `tool: all N <clean>` or `tool: <HEADING>: a, b` — the line the text
/// mode of `check`, `race` and `spec` ends with.
fn verdict(tool: &str, n: usize, clean: &str, heading: &str, unclean: &[&str]) -> Option<String> {
    Some(if unclean.is_empty() {
        format!("{tool}: all {n} {clean}")
    } else {
        format!("{tool}: {heading}: {}", unclean.join(", "))
    })
}

/// No extra text-mode output per report.
fn none<R>(_: &R) -> String {
    String::new()
}

fn main() {
    let o = parse_opts();
    match o.sub.as_str() {
        "check" => {
            let rs: Vec<_> = o.apps.iter().map(|app| check_app(app, o.threads, o.seed)).collect();
            let closing = |bad: &[&str]| verdict("udcheck", rs.len(), "app(s) clean", "UNCLEAN", bad);
            emit(&o, &rs, none, closing, false);
        }
        "race" => {
            let run = |app: &&str| race_app(app, o.threads, o.seed);
            let rs: Vec<_> = o.apps.iter().map(run).collect();
            let closing = |bad: &[&str]| verdict("udrace", rs.len(), "app(s) race-free", "RACES", bad);
            emit(&o, &rs, none, closing, false);
        }
        "spec" => {
            let run = |app: &&str| spec_app(app, o.threads, o.seed, o.enforce);
            let fixtures = o.fixtures.iter().map(|f| fixture(&o, f));
            let rs: Vec<_> = fixtures.chain(o.apps.iter().map(run)).collect();
            let closing = |bad: &[&str]| verdict("udspec", rs.len(), "spec(s) clean", "UNCLEAN", bad);
            emit(&o, &rs, none, closing, false);
        }
        _ => {
            let (rs, missed) = cost_reports(&o);
            let hints = |r: &CostReport| {
                let hints: Vec<String> = r.shard_hints().iter().map(|h| h.to_string()).collect();
                format!("  shard_hints: {}\n", hints.join(","))
            };
            let after = |r: &CostReport| if o.hints { hints(r) } else { String::new() };
            let closing = |_: &[&str]| {
                let line = format!(
                    "udcost: CALIBRATION FAILED: worst factor exceeds {:.2}x",
                    o.tolerance
                );
                missed.then_some(line)
            };
            emit(&o, &rs, after, closing, missed);
        }
    }
}
