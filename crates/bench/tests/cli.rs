#![forbid(unsafe_code)]
//! The shared flag parser of the figure binaries, driven through
//! `figure9` as a process: a node count or scale shift no sweep can build,
//! and the retired `--max-nodes` / `--scale-shift` spellings, end in exit
//! status 2 and a diagnostic naming the flag — not in a panic, and not in
//! an empty sweep that exits 0.

use std::process::Command;

#[test]
fn hostile_values_and_retired_flags_exit_2_naming_the_flag() {
    for (args, names) in [
        (&["pr", "--nodes", "0"][..], &["--nodes", "0"][..]),
        (&["pr", "--scale", "40"], &["--scale", "40"]),
        (&["pr", "--nodes", "4294967295", "--scale", "-6"], &["--nodes", "4294967295"]),
        (&["pr", "--max-nodes", "2", "--scale", "-6"], &["unknown flag", "--max-nodes"]),
        (&["pr", "--nodes", "2", "--scale-shift", "-6"], &["unknown flag", "--scale-shift"]),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figure9"))
            .args(args)
            .output()
            .expect("figure9 runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "figure9 {args:?}: {err}");
        assert!(!err.contains("panicked"), "figure9 {args:?}: {err}");
        for n in names {
            assert!(err.contains(n), "figure9 {args:?}: diagnostic does not name `{n}`: {err}");
        }
    }
}
