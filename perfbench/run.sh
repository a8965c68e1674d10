#!/usr/bin/env bash
# Build the release `dap` binary and the benchmark from source, then run
# one workload against `dap serve`. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Workloads: ingest, mixed. `--trace 1` adds the in-process traced
# replay and prints the per-layer metrics instead of the end-to-end ones.
# The last stdout line is the result object; progress goes to stderr.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q --manifest-path Cargo.toml --bin dap >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --dap "$CARGO_TARGET_DIR/release/dap" \
    --work "$CARGO_TARGET_DIR/perfbench-work" \
    "$@"
