#![forbid(unsafe_code)]
//! The flag parsing of the figure binaries, driven as processes: a node
//! count, scale, record count or iteration count no run can build, and the
//! retired `--max-nodes` / `--scale-shift` / `--record` spellings, end in
//! exit status 2 and a diagnostic naming the flag — not in a panic, a hang,
//! or an empty sweep or a `NaN` row that exits 0.

use std::process::Command;

#[test]
fn hostile_values_and_retired_flags_exit_2_naming_the_flag() {
    let figure9 = env!("CARGO_BIN_EXE_figure9");
    let figure10 = env!("CARGO_BIN_EXE_figure10");
    let figure11 = env!("CARGO_BIN_EXE_figure11");
    let figure12 = env!("CARGO_BIN_EXE_figure12");
    let baseline_compare = env!("CARGO_BIN_EXE_baseline_compare");
    let par_speedup = env!("CARGO_BIN_EXE_par_speedup");
    for (bin, args, names) in [
        (figure9, &["pr", "--nodes", "0"][..], &["--nodes", "0"][..]),
        (figure9, &["pr", "--scale", "40"], &["--scale", "40"]),
        (figure9, &["pr", "--nodes", "4294967295", "--scale", "-6"], &["--nodes", "4294967295"]),
        (figure9, &["pr", "--max-nodes", "2", "--scale", "-6"], &["unknown flag", "--max-nodes"]),
        (figure9, &["pr", "--nodes", "2", "--scale-shift", "-6"], &["unknown flag", "--scale-shift"]),
        (figure9, &["pr", "--nodes", "2", "--scale", "-6", "--iters", "0"], &["--iters", "0"]),
        (figure9, &["pr", "--nodes", "2", "--scale", "-6", "--record"], &["unknown flag", "--record"]),
        (figure10, &["--base-records", "0"], &["--base-records", "0"]),
        (figure10, &["--base-records", "49"], &["--base-records", "49"]),
        (figure11, &["--records", "0"], &["--records", "0"]),
        (figure12, &["--nodes", "0", "--scale", "8"], &["--nodes", "0"]),
        (figure12, &["--nodes", "1", "--scale", "8"], &["--nodes", "1"]),
        (figure12, &["--nodes", "2", "--scale", "99"], &["--scale", "99"]),
        (baseline_compare, &["--scale", "99", "--nodes", "2"], &["--scale", "99"]),
        (baseline_compare, &["--scale", "10", "--nodes", "0"], &["--nodes", "0"]),
        (par_speedup, &["--nodes", "0", "--scale", "6"], &["--nodes", "0"]),
        (par_speedup, &["--nodes", "2", "--scale", "0"], &["--scale", "0"]),
        (par_speedup, &["--nodes", "2", "--scale", "99"], &["--scale", "99"]),
        (par_speedup, &["--nodes", "2", "--scale", "6", "--threads", "2", "--iters", "0"], &["--iters", "0"]),
    ] {
        let out = Command::new(bin).args(args).output().expect("the binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
        assert!(!err.contains("panicked"), "{bin} {args:?}: {err}");
        for n in names {
            assert!(err.contains(n), "{bin} {args:?}: diagnostic does not name `{n}`: {err}");
        }
    }
}
