#![forbid(unsafe_code)]
//! `repro` driven as a process. A node count, scale, record or iteration
//! count no run can build, the retired `--max-nodes` / `--scale-shift` /
//! `--record` spellings, a flag the subcommand does not read, an output
//! file that cannot be written, and an unknown or missing subcommand end in
//! exit status 2 and a diagnostic naming the flag — not in a panic, a hang,
//! or an empty sweep or a `NaN` row that exits 0. What `repro` prints is
//! pinned to the bytes of the eight binaries it replaced.

use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn repro(args: &[&str]) -> Output {
    Command::new(REPRO).args(args).output().expect("the binary runs")
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
        let out = repro(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {err}");
        assert!(!err.contains("panicked"), "repro {args:?}: {err}");
        for n in names {
            assert!(err.contains(n), "repro {args:?}: diagnostic does not name `{n}`: {err}");
        }
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

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
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
