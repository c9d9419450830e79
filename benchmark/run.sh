#!/usr/bin/env bash
# Builds the benchmark (a cargo package of its own, path-depending on
# ../crates/mmdbms) and runs it. See README.md, or run with --help.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The driver sets CARGO_TARGET_DIR relative to the checkout root; cargo and
# the lookup below both resolve it against the current directory.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

MMDB_BENCH_GIT_SHA="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
MMDB_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export MMDB_BENCH_GIT_SHA MMDB_BENCH_RUSTC

exec "$target/release/mmdb-benchmark" --out-dir "$here/out" "$@"
