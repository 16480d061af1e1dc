#![forbid(unsafe_code)]
//! The `ud` binary, driven as a process: each subcommand's `--json` output
//! is the library's document over the same apps, the seeded-defect
//! fixtures fail, and a command line `ud` cannot make sense of ends in
//! exit status 2 and a diagnostic — never a panic (`repro`'s half of the
//! same check is crates/bench/tests/cli.rs).

use std::process::{Command, Output};

use udcheck::apps::{check_app, race_app, spec_app, workload_for, ALL_APPS};
use udcheck::{
    analyze_cost, render_cost_document, render_document, render_race_document,
    render_spec_document,
};

const SEED: u64 = 10;

fn ud(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ud"))
        .args(args)
        .output()
        .expect("ud runs")
}

/// `ud <args> --json --threads T` exits 0 and prints exactly `doc`.
fn assert_prints(args: &[&str], threads: u32, doc: &str) {
    let t = threads.to_string();
    let out = ud(&[args, &["--json", "--threads", &t]].concat());
    assert_eq!(out.status.code(), Some(0), "ud {args:?} --threads {t}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{doc}\n"),
        "ud {args:?} --threads {t}"
    );
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
        let out = ud(&["spec", "--fixture", fixture]);
        assert_eq!(out.status.code(), Some(1), "--fixture {fixture}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.ends_with(&format!("udspec: UNCLEAN: fixture:{fixture}\n")),
            "--fixture {fixture}: {text}"
        );
    }
}

/// Exit status 2, a diagnostic containing every string of `names`, no panic.
fn assert_refused(what: &str, out: &Output, names: &[&str]) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {err}");
    assert!(!err.contains("panicked"), "{what}: {err}");
    for n in names {
        assert!(err.contains(n), "{what}: diagnostic does not name `{n}`: {err}");
    }
}

#[test]
fn hostile_values_exit_2_naming_flag_and_value() {
    for (args, names) in [
        (&["cost", "--figure9", "pr", "--nodes", "0"][..], ["--nodes", "0"]),
        (&["cost", "--figure9", "bfs", "--scale", "99999"][..], ["--scale", "99999"]),
        (&["cost", "--figure9", "tc", "--nodes", "4294967295"][..], ["--nodes", "4294967295"]),
    ] {
        assert_refused(&format!("ud {args:?}"), &ud(args), &names);
    }
}

#[test]
fn nonsense_command_lines_exit_2_with_the_usage_text() {
    for args in [
        &[][..],
        &["lint"],
        &["--json"],
        &["check", "--prune"],
        // Retired: full detection is the one race mode.
        &["race", "--prune"],
        &["race", "--dot"],
        &["spec", "--bogus"],
        &["cost", "pagerankk"],
        &["check", "--seed"],
        &["cost", "--nodes", "two"],
        &["spec", "--fixture"],
    ] {
        assert_refused(&format!("ud {args:?}"), &ud(args), &["usage: ud check|race|spec|cost"]);
    }
    let out = ud(&["spec", "--fixture", "no-such"]);
    assert_refused("unknown fixture", &out, &["no-such"]);
    let out = ud(&["cost", "--figure9", "pagerankk"]);
    assert_refused("unknown figure9 app", &out, &["pagerankk"]);
}
