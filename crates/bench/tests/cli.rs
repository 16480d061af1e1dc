#![forbid(unsafe_code)]
//! `repro` driven as a process. A node count, scale, record or iteration
//! count no run can build, the retired `--max-nodes` / `--scale-shift` /
//! `--record` spellings, a flag the subcommand does not read, an output
//! file that cannot be written, and an unknown or missing subcommand end in
//! exit status 2 and a diagnostic naming the flag — not in a panic, a hang,
//! or an empty sweep or a `NaN` row that exits 0. What `repro` prints is
//! pinned to the bytes of the eight binaries it replaced, and each analyzer
//! subcommand's `--json` output is the library's document over the same
//! apps.

use std::process::{Command, Output};

use udcheck::apps::{check_app, race_app, spec_app, workload_for, ALL_APPS};
use udcheck::{
    analyze_cost, render_cost_document, render_document, render_race_document,
    render_spec_document,
};
use updown_sim::fnv1a;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn repro(args: &[&str]) -> Output {
    Command::new(REPRO).args(args).output().expect("the binary runs")
}

/// Exit status 2, a diagnostic containing every string of `names`, no panic.
fn assert_refused(args: &[&str], names: &[&str]) {
    let out = repro(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {err}");
    assert!(!err.contains("panicked"), "repro {args:?}: {err}");
    for n in names {
        assert!(err.contains(n), "repro {args:?}: diagnostic does not name `{n}`: {err}");
    }
}

#[test]
fn hostile_values_and_retired_flags_exit_2_naming_the_flag() {
    let small = ["--nodes", "2", "--scale", "-6", "--iters", "1"];
    let with_small = |extra: &[&'static str]| -> Vec<&'static str> {
        [&["fig9", "pr"][..], &small, extra].concat()
    };
    let metrics_json = with_small(&["--metrics-json", "/nonexistent/x.json"]);
    let trace = with_small(&["--trace", "/nonexistent/x.trace.json"]);
    let min_nodes = with_small(&["--min-nodes", "4"]);
    for (args, names) in [
        (&["fig9", "pr", "--nodes", "0"][..], &["--nodes", "0"][..]),
        (&["fig9", "pr", "--scale", "40"], &["--scale", "40"]),
        (&["fig9", "pr", "--nodes", "4294967295", "--scale", "-6"], &["--nodes", "4294967295"]),
        (&["fig9", "pr", "--max-nodes", "2", "--scale", "-6"], &["unknown flag", "--max-nodes"]),
        (&["fig9", "pr", "--nodes", "2", "--scale-shift", "-6"], &["unknown flag", "--scale-shift"]),
        (&["fig9", "pr", "--nodes", "2", "--scale", "-6", "--iters", "0"], &["--iters", "0"]),
        (&["fig9", "pr", "--nodes", "2", "--scale", "-6", "--record"], &["unknown flag", "--record"]),
        (&["fig10", "--base-records", "0"], &["--base-records", "0"]),
        (&["fig10", "--base-records", "49"], &["--base-records", "49"]),
        (&["fig11", "--records", "0"], &["--records", "0"]),
        (&["fig12", "--nodes", "0", "--scale", "8"], &["--nodes", "0"]),
        (&["fig12", "--nodes", "1", "--scale", "8"], &["--nodes", "1"]),
        (&["fig12", "--nodes", "2", "--scale", "99"], &["--scale", "99"]),
        (&["baseline", "--scale", "99", "--nodes", "2"], &["--scale", "99"]),
        (&["baseline", "--scale", "10", "--nodes", "0"], &["--nodes", "0"]),
        (&["par", "--nodes", "0", "--scale", "6"], &["--nodes", "0"]),
        (&["par", "--nodes", "2", "--scale", "0"], &["--scale", "0"]),
        (&["par", "--nodes", "2", "--scale", "99"], &["--scale", "99"]),
        (&["par", "--nodes", "2", "--scale", "6", "--threads", "2", "--iters", "0"], &["--iters", "0"]),
        (&metrics_json, &["--metrics-json", "/nonexistent/x.json"]),
        (&trace, &["--trace", "/nonexistent/x.trace.json"]),
        (
            &["par", "--nodes", "2", "--scale", "6", "--threads", "2", "--json-out", "/nonexistent/p.json"],
            &["--json-out", "/nonexistent/p.json"],
        ),
        (&min_nodes, &["--min-nodes", "4"]),
        (&["fig9", "prr"], &["prr", "pr|bfs|tc|all"]),
        (&["table5", "--topology", "torus"], &["unknown flag", "--topology"]),
        (&["table1", "--sanitize"], &["unknown flag", "--sanitize"]),
        (&["table1", "extra"], &["unexpected argument", "extra"]),
        (&["fig10", "--scale", "2"], &["unknown flag", "--scale"]),
        (&["figure9"], &["usage: repro", "fig9"]),
        (&[], &["usage: repro", "fig9"]),
    ] {
        assert_refused(args, names);
    }
}

/// A bare flag before a positional argument leaves it positional: the
/// sweep is the one named, in either order.
#[test]
fn a_bare_flag_does_not_swallow_the_next_argument() {
    let small = ["--nodes", "2", "--min-nodes", "2", "--scale", "-6", "--iters", "1"];
    for args in [[&["fig9", "--sanitize", "pr"][..], &small].concat(), [&["fig9", "pr", "--sanitize"][..], &small].concat()] {
        let out = repro(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "repro {args:?}: {err}");
        assert!(err.contains("sanitizer: 4 run(s), no protocol violations"), "repro {args:?}: {err}");
    }
    let checks: Vec<_> = [check_app("pagerank", 1, SEED)].into();
    for args in [["check", "--json", "pr"], ["check", "pr", "--json"]] {
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(0), "repro {args:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), format!("{}\n", render_document(&checks)), "repro {args:?}");
    }
}

#[test]
fn a_missed_speedup_floor_is_reported_and_exits_1() {
    let out = repro(&["par", "--nodes", "2", "--scale", "6", "--threads", "2", "--min-speedup", "1000"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.contains("below the required 1000.00x"), "{err}");
}

#[test]
fn table5_counts_the_source_tree_from_any_directory() {
    let out = Command::new(REPRO).arg("table5").current_dir(std::env::temp_dir()).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let sht = text.lines().find(|l| l.starts_with("Scalable Hash Table")).expect("an SHT row");
    let count: u64 = sht.split_whitespace().nth(3).unwrap().parse().unwrap();
    assert!(count > 0, "{sht}");
}

/// A `--restore` snapshot that does not fit the run is bad input: another
/// workload's snapshot (the re-driven BFS differs from the PageRank
/// snapshot at its window 8, and the 25-window PageRank run ends before a
/// BFS snapshot's window 30), and a `--checkpoint-every` whose boundaries
/// would skip the window, each exit 2 with one line naming the window.
#[test]
fn a_restore_that_does_not_fit_the_run_exits_2_naming_the_window() {
    let path = |app: &str| std::env::temp_dir().join(format!("repro-cli-{}.{app}.snap", std::process::id()));
    let (pr, bfs) = (path("pr"), path("bfs"));
    let (pr, bfs) = (pr.to_str().unwrap(), bfs.to_str().unwrap());
    let small = ["--nodes", "2", "--min-nodes", "2", "--scale", "-6", "--iters", "1"];
    for args in [&["fig9", "pr", "--checkpoint", pr][..], &["fig9", "bfs", "--checkpoint", bfs, "--checkpoint-every", "30"]] {
        let out = repro(&[args, &small].concat());
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    }
    for (args, names) in [
        (&["fig9", "bfs", "--restore", pr][..], &["--restore", "disagrees", "window 8"][..]),
        (&["fig9", "pr", "--restore", bfs], &["--restore", "ended at window 25", "window 30"]),
        (&["fig9", "pr", "--restore", pr, "--checkpoint-every", "3"], &["--restore", "window 8", "--checkpoint-every 3"]),
    ] {
        let args = [args, &small].concat();
        assert_refused(&args, names);
        let out = repro(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        let lines: Vec<&str> = err.lines().filter(|l| !l.ends_with(" host")).collect();
        assert_eq!(lines.len(), 1, "repro {args:?}: {err}");
    }
    for snap in [pr, bfs] {
        std::fs::remove_file(snap).unwrap();
    }
}

/// `--replay` prints one verdict line per run, summed over the run's
/// recordings (one per checkpoint segment here), and exits 0 when every
/// shard replays clean. Every armed `repro` run verifies something; the
/// failing branch for one that verified nothing is
/// `cli::tests::a_replay_that_verified_nothing_fails`.
#[test]
fn replay_prints_one_verdict_line_per_run() {
    let out = repro(&[
        "fig9", "pr", "--nodes", "2", "--scale", "-6", "--iters", "1", "--threads", "2",
        "--checkpoint-every", "4", "--replay",
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let runs = err.lines().filter(|l| l.ends_with(" host")).count();
    let verdicts: Vec<&str> = err.lines().filter(|l| l.starts_with("replay")).collect();
    assert_eq!((runs, verdicts.len()), (8, 8), "{err}");
    assert!(verdicts.iter().all(|l| l.ends_with("— byte-identical")), "{err}");
    let pinned = "replay[pr RMAT s8 nodes=2]: 2 shard(s), 25 window(s), 17502 event(s) — byte-identical";
    assert!(verdicts.contains(&pinned), "{err}");
}

/// FNV-1a of stdout at the smoke flags. The constants are what
/// `figure9`, `figure10`, `figure11`, `figure12` and `table1_layouts`
/// printed at commit cefeccf, the last commit with the eight separate
/// binaries; stdout is independent of `--threads`.
#[test]
fn stdout_matches_the_binaries_repro_replaced() {
    let cases: [(&[&str], u64); 6] = [
        (&["fig9", "pr", "--nodes", "4", "--min-nodes", "4", "--scale", "-6", "--iters", "1"], 0x939d_19f3_e795_d4a2),
        (&["fig9", "bfs", "--nodes", "4", "--min-nodes", "4", "--scale", "-6", "--iters", "1"], 0xda34_91cb_7aad_ab59),
        (&["fig9", "tc", "--nodes", "4", "--min-nodes", "4", "--scale", "-4"], 0x0646_d97f_ee94_4237),
        (&["fig10", "--nodes", "4", "--base-records", "2000"], 0xab9e_a452_f742_9b77),
        (&["fig11", "--records", "4000"], 0xe990_da24_cc3f_5572),
        (&["fig12", "--nodes", "8", "--scale", "8"], 0x1115_7dc1_359b_d83a),
    ];
    let runs = cases.iter().flat_map(|&(args, want)| {
        ["1", "4"].map(|t| ([args, &["--threads", t]].concat(), want))
    });
    for (args, want) in runs.chain([(vec!["table1"], 0x5a07_a368_fece_5a1d)]) {
        let out = repro(&args);
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "repro {args:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(fnv1a(&out.stdout), want, "repro {args:?} printed:\n{text}");
    }
}

const SEED: u64 = 10;

/// `repro <args> --json --threads T` exits 0 and prints exactly `doc`.
fn assert_prints(args: &[&str], threads: u32, doc: &str) {
    let t = threads.to_string();
    let out = repro(&[args, &["--json", "--threads", &t]].concat());
    assert_eq!(out.status.code(), Some(0), "repro {args:?} --threads {t}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), format!("{doc}\n"), "repro {args:?} --threads {t}");
}

#[test]
fn json_stdout_is_the_library_document() {
    for threads in [1, 4] {
        let checks: Vec<_> = ALL_APPS.iter().map(|a| check_app(a, threads, SEED)).collect();
        assert_prints(&["check"], threads, &render_document(&checks));
        let races: Vec<_> = ALL_APPS.iter().map(|a| race_app(a, threads, SEED)).collect();
        assert_prints(&["race"], threads, &render_race_document(&races));
        for (enforce, args) in [(false, &["spec"][..]), (true, &["spec", "--enforce"])] {
            let specs: Vec<_> = ALL_APPS.iter().map(|a| spec_app(a, threads, SEED, enforce)).collect();
            assert_prints(args, threads, &render_spec_document(&specs));
        }
        let costs: Vec<_> = ALL_APPS
            .iter()
            .map(|a| {
                let (w, mc, spec) = workload_for(a, threads, SEED);
                analyze_cost(a, &spec, &w, &mc)
            })
            .collect();
        assert_prints(&["cost"], threads, &render_cost_document(&costs));
    }
}

#[test]
fn seeded_defect_fixtures_exit_1() {
    for fixture in ["wait-cycle", "spm-blowup"] {
        let out = repro(&["spec", "--fixture", fixture]);
        assert_eq!(out.status.code(), Some(1), "--fixture {fixture}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.ends_with(&format!("udspec: UNCLEAN: fixture:{fixture}\n")),
            "--fixture {fixture}: {text}"
        );
    }
}

#[test]
fn hostile_values_exit_2_naming_flag_and_value() {
    for (args, names) in [
        (&["cost", "--figure9", "pr", "--nodes", "0"][..], &["--nodes", "0"][..]),
        (&["cost", "--figure9", "bfs", "--scale", "99999"], &["--scale", "99999"]),
        (&["cost", "--figure9", "tc", "--nodes", "4294967295"], &["--nodes", "4294967295"]),
        // PageRank stops when an iteration completes: 0 predicts no run.
        (&["cost", "--figure9", "pr", "--iters", "0"], &["--iters", "0"]),
        // A tolerance is a finite factor >= 1, and only grades a calibration.
        (&["cost", "pr", "--calibrate", "m.json", "--tolerance", "nan"], &["--tolerance", "nan"]),
        (&["cost", "pr", "--calibrate", "m.json", "--tolerance", "inf"], &["--tolerance", "inf"]),
        (&["cost", "pr", "--calibrate", "m.json", "--tolerance", "-1"], &["--tolerance", "-1"]),
        (&["cost", "pr", "--calibrate", "m.json", "--tolerance", "0.5"], &["--tolerance", "0.5"]),
        (&["cost", "pr", "--tolerance", "2"], &["--tolerance", "--calibrate"]),
    ] {
        assert_refused(args, names);
    }
}

/// A metrics export missing a graded counter is refused naming it, not
/// graded as a zero (which would end in an infinite factor and exit 1).
#[test]
fn malformed_calibration_export_exits_2_naming_the_counter() {
    let path = std::env::temp_dir().join(format!("repro-cli-{}.metrics.json", std::process::id()));
    std::fs::write(&path, r#"{"schema":"updown-metrics/v1","counters":{"total_msgs":1}}"#)
        .expect("write temp export");
    let out = repro(&["cost", "pr", "--calibrate", path.to_str().expect("utf-8 temp path")]);
    let _ = std::fs::remove_file(&path);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("counters.events_executed") && !err.contains("panicked"), "{err}");
}

/// A missing or unknown subcommand prints the usage text; anything else
/// the analyzers cannot carry out names what they refused.
#[test]
fn nonsense_command_lines_exit_2_with_the_usage_text() {
    for (args, names) in [
        (&[][..], &["usage: repro", "repro check|race|spec|cost"][..]),
        (&["lint"], &["usage: repro", "repro check|race|spec|cost"]),
        (&["--json"], &["usage: repro", "repro check|race|spec|cost"]),
        (&["check", "--prune"], &["unknown flag", "--prune"]),
        // Retired: full detection is the one race mode.
        (&["race", "--prune"], &["unknown flag", "--prune"]),
        (&["race", "--dot"], &["unknown flag", "--dot"]),
        // Retired: the text and JSON reports already carry the shard hints.
        (&["cost", "--hints"], &["unknown flag", "--hints"]),
        (&["spec", "--bogus"], &["unknown flag", "--bogus"]),
        (&["cost", "pagerankk"], &["pagerankk"]),
        (&["check", "--seed"], &["--seed", "expects a value"]),
        (&["cost", "--nodes", "two"], &["--nodes", "two"]),
        (&["spec", "--fixture"], &["--fixture", "expects a value"]),
        // The figures' observer and export flags are not the analyzers'.
        (&["check", "--sanitize"], &["unknown flag", "--sanitize"]),
        (&["race", "--trace", "t.json"], &["unknown flag", "--trace"]),
        (&["spec", "--spec"], &["unknown flag", "--spec"]),
        (&["cost", "--replay", "--checkpoint-every", "4"], &["unknown flag", "--replay", "--checkpoint-every"]),
        (&["check", "--metrics-json", "m.json", "--topology", "torus"], &["unknown flag", "--metrics-json", "--topology"]),
        (&["spec", "--fixture", "no-such"], &["no-such"]),
        (&["cost", "--figure9", "pagerankk"], &["pagerankk"]),
    ] {
        assert_refused(args, names);
    }
}
