#!/usr/bin/env bash
# Build the benchmark in release mode and hand every argument to it.
# See README.md in this directory; `BENCHMARK.json` at the repo root names
# this script as the benchmark's command.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export UDBENCH_OUT="$here/out"
exec cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- "$@"
