#![forbid(unsafe_code)]
//! `tools/determinism_lint.py` under `cargo test`: the lint must be clean
//! on the repository itself (every crate root and binary forbids unsafe
//! code; no order-randomized container, wall-clock read, thread identity
//! or stray lock in the deterministic crates), and its engine-lock rule
//! must flag a stray lock in a fixture tree.

use std::path::Path;

#[test]
fn determinism_lint_is_clean_on_the_repository() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = std::process::Command::new("python3")
        .arg(root.join("tools/determinism_lint.py"))
        .output()
        .expect("running python3 tools/determinism_lint.py");
    let text = String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success() && text.contains("determinism_lint: clean"), "{text}");
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
