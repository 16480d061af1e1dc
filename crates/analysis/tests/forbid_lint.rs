#![forbid(unsafe_code)]
//! Cargo-native port of the `tools/determinism_lint.py` forbid-attribute
//! check: every workspace crate root and binary must open with
//! `#![forbid(unsafe_code)]`, so the repository's no-unsafe guarantee
//! cannot silently regress even where the Python lint isn't run. The
//! full content lint (HashMap/wall-clock/thread-identity) stays in the
//! Python tool; this test pins the one check whose failure mode is a
//! silently-added file. A second test runs the Python tool itself on a
//! fixture tree to show that its engine-lock rule flags a stray lock.

use std::path::{Path, PathBuf};

/// The same roots as `FORBID_GLOBS` in tools/determinism_lint.py:
/// `crates/*/src/lib.rs`, `crates/*/src/main.rs`, `crates/*/src/bin/*.rs`
/// and `tests/src/lib.rs`.
fn forbid_candidates(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .unwrap_or_else(|e| panic!("reading {}: {e}", crates.display()))
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        for stem in ["lib.rs", "main.rs"] {
            let p = dir.join("src").join(stem);
            if p.is_file() {
                out.push(p);
            }
        }
        let bin = dir.join("src").join("bin");
        if bin.is_dir() {
            let mut bins: Vec<PathBuf> = std::fs::read_dir(&bin)
                .unwrap()
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "rs"))
                .collect();
            bins.sort();
            out.extend(bins);
        }
    }
    let tests_lib = root.join("tests/src/lib.rs");
    if tests_lib.is_file() {
        out.push(tests_lib);
    }
    out
}

#[test]
fn every_crate_root_and_binary_forbids_unsafe() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    assert!(
        root.join("Cargo.toml").is_file(),
        "cannot locate workspace root from {}",
        root.display()
    );
    let candidates = forbid_candidates(&root);
    assert!(
        candidates.len() >= 10,
        "glob found only {} crate roots/binaries — lint scope broke",
        candidates.len()
    );
    let mut missing = Vec::new();
    for path in &candidates {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let first = text.trim_start().lines().next().unwrap_or("").trim();
        if first != "#![forbid(unsafe_code)]" {
            missing.push(format!(
                "{}: first line is `{first}`",
                path.strip_prefix(&root).unwrap_or(path).display()
            ));
        }
    }
    assert!(
        missing.is_empty(),
        "crate roots/binaries missing #![forbid(unsafe_code)] as their first attribute:\n{}",
        missing.join("\n")
    );
}

/// The lint's engine-lock rule on a fixture tree: the exchange cell and
/// the shard slot, declared on their allowed lines, are clean; any other
/// lock in `crates/sim/src/engine` is a finding, with or without an allow
/// comment, and so is an allowed declaration that lost its comment.
#[test]
fn determinism_lint_flags_a_stray_engine_lock() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let lint = std::fs::read_to_string(root.join("tools/determinism_lint.py")).unwrap();
    let tree = std::env::temp_dir().join(format!("det-lint-fixture-{}", std::process::id()));
    let cell = "    cells: Vec<std::sync::Mutex<Option<Box<XBuf>>>>, // det-lint: allow — exchange cell\n";
    let slot = "type ShardSlot<'a> = std::sync::Mutex<&'a mut EngineCore>; // det-lint: allow — shard slot\n";
    let run = |files: &[(&str, &str)]| -> (bool, String) {
        let _ = std::fs::remove_dir_all(&tree);
        for dir in ["tools", "crates/core/src", "crates/udweave/src", "crates/graph/src"] {
            std::fs::create_dir_all(tree.join(dir)).unwrap();
        }
        for dir in ["crates/memory/src", "crates/analysis/src", "crates/sim/src/engine"] {
            std::fs::create_dir_all(tree.join(dir)).unwrap();
        }
        std::fs::write(tree.join("Cargo.toml"), "").unwrap();
        std::fs::write(tree.join("tools/determinism_lint.py"), &lint).unwrap();
        std::fs::write(tree.join("crates/sim/src/probe.rs"), "").unwrap();
        for (name, text) in files {
            std::fs::write(tree.join("crates/sim/src/engine").join(name), text).unwrap();
        }
        let out = std::process::Command::new("python3")
            .arg(tree.join("tools/determinism_lint.py"))
            .output()
            .expect("running python3 tools/determinism_lint.py");
        let text = String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
        (out.status.success(), text)
    };
    let clean = run(&[("core.rs", cell), ("sched.rs", slot)]);
    assert!(clean.0 && clean.1.contains("determinism_lint: clean"), "{}", clean.1);

    let stray = "static LOG: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());\n";
    let excused = "static LOG: std::sync::RwLock<u64> = std::sync::RwLock::new(0); // det-lint: allow — no\n";
    for (name, text, want) in [
        ("ctx.rs", stray, "crates/sim/src/engine/ctx.rs:1: Mutex"),
        ("mod.rs", excused, "crates/sim/src/engine/mod.rs:1: RwLock"),
        ("sched.rs", &slot.replace("det-lint: allow", "no"), "crates/sim/src/engine/sched.rs:1: Mutex"),
        ("core.rs", &format!("{cell}{cell}"), "crates/sim/src/engine/core.rs:2: Mutex"),
    ] {
        let mut files = vec![("core.rs", cell), ("sched.rs", slot)];
        files.retain(|(f, _)| *f != name);
        files.push((name, text));
        let (ok, out) = run(&files);
        assert!(!ok && out.contains(want), "{name}: want `{want}` in:\n{out}");
    }
    std::fs::remove_dir_all(&tree).unwrap();
}
