#!/usr/bin/env python3
"""Determinism lint for the simulator's deterministic core.

The conformance suites guarantee byte-identical metrics across engines and
thread counts; that guarantee dies the day someone iterates a `HashMap`,
reads the wall clock, or branches on a host thread id inside the
deterministic crates. This lint fails CI on the constructs that have bitten
deterministic simulators before:

  - `HashMap` / `HashSet` — iteration order is randomized per process; any
    iteration that reaches simulated state or output breaks repeat-run
    determinism. Use `BTreeMap` / `BTreeSet`, or prove the container is
    entry-only and annotate it.
  - `std::time` / `Instant::now` / `SystemTime` — wall-clock time must
    never feed simulated results (host-throughput *display* lives in the
    bench crate, which is outside the linted set).
  - `thread::current()` — host thread identity leaking into simulated
    behavior breaks the `--threads` conformance matrix.
  - `thread_local!` — state keyed by the host thread is the same class:
    which events run on which host thread changes with `--threads`. Unlike
    the rules above, the two-line window does not excuse it: the line that
    names `thread_local!` must itself carry `det-lint: allow — <reason>`,
    saying why no simulated state can read what the thread keeps (the
    message payload pool, `crates/sim/src/message.rs`, is the one today).

Scope: the deterministic core (`crates/sim`, `crates/core`,
`crates/udweave`, plus `crates/graph` and `crates/memory`, whose outputs
feed simulated runs), and `crates/analysis`, whose udcheck/udrace reports
are byte-compared across thread counts in CI. Test suites
(`tests/tests/*.rs` and any `crates/*/tests/*.rs`) are linted too: they
assert byte-identical results, so an order-randomized container or a
wall-clock read inside a test silently weakens the very guarantee it
checks. The bench/apps crates may measure host time for throughput
displays and are exempt.

Escape hatch: a line is exempt when it, or one of the two lines above it,
contains `det-lint: allow` with a justification.

Host locks (PR 20): handler-visible state lives in the engine — per-thread
state, per-shard state (`Engine::shard_slot`) and program tables
(`Engine::table`) — and is lent to handlers as plain borrows, so library
and app code has no reason to lock. Outside `#[cfg(test)]`, a `Mutex`,
`RwLock` or `Atomic*` type in `crates/{core,udweave,memory,graph,apps}/src`
is a finding unless that very line carries `det-lint: allow — <reason>`
(a cell the simulated protocol makes deterministic must say how). Test
code is everything from a file's first `#[cfg(test)]` on, which is how
every file in these crates is laid out. `crates/apps/src/baseline/`, the
multithreaded host reference the differential tests compare against, is
exempt as a directory.

The same rule covers the protocol recording, `crates/sim/src/probe.rs`:
each shard records into its own record with plain `&mut` access, and the
engine publishes the merged record once the workers have joined. The
handle's one `Mutex` line carries its `det-lint: allow` as that end-of-run
outbox; a lock anywhere else in the file would put one back on the
per-event path.

Engine locks: the scheduler in `crates/sim/src/engine` has exactly two
locks, both uncontended by construction and there only because
`forbid(unsafe_code)` leaves safe Rust no other way to hand data between
worker threads: the exchange cell (`Exchange::cells`: a source fills it in
round r, its destination drains it in round r + 1, a barrier apart) and
the shard slot (`ShardSlot`: the claim cursor hands each slot to one
worker per round). Each is declared on one line that names its lock type
and carries `det-lint: allow — <reason>`; `ENGINE_LOCKS` lists those two
lines, and each excuses one line. Any other line in that directory that
names a lock type (`Mutex`, `RwLock`, `Condvar`, `OnceLock`, `LazyLock`,
`Once`, `Barrier`) outside test code is a finding, whatever it carries;
`engine/tests.rs` is test code.

The lint also enforces `#![forbid(unsafe_code)]` as the first attribute of
every workspace crate root and binary, so the no-unsafe guarantee cannot
silently regress.

Exit status: 0 clean, 1 findings, 2 usage error. Pure stdlib; run from the
repository root: `python3 tools/determinism_lint.py`.
"""

import re
import sys
from pathlib import Path

LINTED_DIRS = [
    "crates/sim/src",
    "crates/core/src",
    "crates/udweave/src",
    "crates/graph/src",
    "crates/memory/src",
    "crates/analysis/src",
]

# Where host locks are findings (see "Host locks" above). `crates/apps` is
# in this list only: it may hash and read the clock for host-side oracles.
LOCK_DIRS = [
    "crates/core/src",
    "crates/udweave/src",
    "crates/memory/src",
    "crates/graph/src",
    "crates/apps/src",
]
LOCK_EXEMPT = "crates/apps/src/baseline"
# Single files under the host-lock rule (see "Host locks" above).
LOCK_FILES = [
    "crates/sim/src/probe.rs",
]

# The engine's only locks (see "Engine locks" above): the file and the
# declaration that may name one. Everything else in ENGINE_DIR that names a
# lock type is a finding.
ENGINE_DIR = "crates/sim/src/engine"
ENGINE_TESTS = "crates/sim/src/engine/tests.rs"
ENGINE_LOCKS = [
    ("crates/sim/src/engine/core.rs", re.compile(r"^\s*cells: Vec<std::sync::Mutex<")),
    ("crates/sim/src/engine/sched.rs", re.compile(r"^type ShardSlot<'a> = std::sync::Mutex<")),
]
ENGINE_LOCK_PATTERN = re.compile(r"\b(Mutex|RwLock|Condvar|OnceLock|LazyLock|Once|Barrier)\b")

# Test suites, linted by glob: a crate without a tests/ directory is fine.
LINTED_GLOBS = [
    "tests/tests/*.rs",
    "crates/*/tests/*.rs",
]

# Crate roots and binaries that must open with #![forbid(unsafe_code)].
FORBID_GLOBS = [
    "crates/*/src/lib.rs",
    "crates/*/src/main.rs",
    "crates/*/src/bin/*.rs",
    "tests/src/lib.rs",
]

PATTERNS = [
    (re.compile(r"\bHashMap\b"), "HashMap (randomized iteration order; use BTreeMap)"),
    (re.compile(r"\bHashSet\b"), "HashSet (randomized iteration order; use BTreeSet)"),
    (re.compile(r"\bstd::time\b"), "std::time (wall clock in the deterministic core)"),
    (re.compile(r"\bInstant::now\b"), "Instant::now (wall clock in the deterministic core)"),
    (re.compile(r"\bSystemTime\b"), "SystemTime (wall clock in the deterministic core)"),
    (re.compile(r"\bthread::current\s*\("), "thread::current() (host thread identity)"),
]

THREAD_LOCAL = re.compile(r"\bthread_local!")
ALLOW_WITH_REASON = re.compile(r"det-lint: allow — \S")

LOCK_PATTERN = re.compile(r"\b(Mutex|RwLock|Atomic(Bool|Ptr|[IU](8|16|32|64|size)))\b")
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]")

ALLOW = "det-lint: allow"
COMMENT = re.compile(r"^\s*(//|//!|///)")


def lint_file(path: Path) -> list:
    findings = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if COMMENT.match(line):
            continue
        if THREAD_LOCAL.search(line) and not ALLOW_WITH_REASON.search(line):
            why = "thread_local! (host-thread-keyed state; allow it on its own line with a reason)"
            findings.append((path, i + 1, why, line.strip()))
        window = lines[max(0, i - 2) : i + 1]
        if any(ALLOW in w for w in window):
            continue
        for pat, why in PATTERNS:
            if pat.search(line):
                findings.append((path, i + 1, why, line.strip()))
    return findings


def lint_locks(path: Path) -> list:
    findings = []
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
        if CFG_TEST.match(line):
            break
        if COMMENT.match(line) or ALLOW in line:
            continue
        m = LOCK_PATTERN.search(line)
        if m:
            why = f"{m.group(1)} (host lock; use shard state or a program table)"
            findings.append((path, i + 1, why, line.strip()))
    return findings


def lint_engine_locks(root: Path) -> list:
    findings = []
    # Each allowed declaration excuses one line, once.
    allowed = [(root / f, pat) for f, pat in ENGINE_LOCKS]
    for path in sorted((root / ENGINE_DIR).rglob("*.rs")):
        if path == root / ENGINE_TESTS:
            continue
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
            if CFG_TEST.match(line):
                break
            if COMMENT.match(line):
                continue
            m = ENGINE_LOCK_PATTERN.search(line)
            if not m:
                continue
            hit = next((e for e in allowed if e[0] == path and e[1].match(line)), None)
            if hit and ALLOW in line:
                allowed.remove(hit)
                continue
            why = f"{m.group(1)} (the engine's only locks are the exchange cell and the shard slot)"
            findings.append((path, i + 1, why, line.strip()))
    return findings


def check_forbid(root: Path) -> list:
    findings = []
    for glob in FORBID_GLOBS:
        for path in sorted(root.glob(glob)):
            head = path.read_text(encoding="utf-8").lstrip().splitlines()
            first = head[0] if head else ""
            if first.strip() != "#![forbid(unsafe_code)]":
                findings.append(
                    (path, 1, "missing #![forbid(unsafe_code)] as the first attribute", first)
                )
    return findings


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    if not (root / "Cargo.toml").is_file():
        print("determinism_lint: cannot locate repository root", file=sys.stderr)
        return 2
    findings = []
    for d in LINTED_DIRS:
        base = root / d
        if not base.is_dir():
            print(f"determinism_lint: missing linted dir {d}", file=sys.stderr)
            return 2
        for path in sorted(base.rglob("*.rs")):
            findings.extend(lint_file(path))
    for glob in LINTED_GLOBS:
        for path in sorted(root.glob(glob)):
            findings.extend(lint_file(path))
    for d in LOCK_DIRS:
        for path in sorted((root / d).rglob("*.rs")):
            if LOCK_EXEMPT not in path.as_posix():
                findings.extend(lint_locks(path))
    for f in LOCK_FILES:
        findings.extend(lint_locks(root / f))
    findings.extend(lint_engine_locks(root))
    findings.extend(check_forbid(root))
    for path, lineno, why, text in findings:
        rel = path.relative_to(root)
        print(f"{rel}:{lineno}: {why}\n    {text}")
    if findings:
        print(f"determinism_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("determinism_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
