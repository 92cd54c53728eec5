#!/usr/bin/env bash
# Builds the benchmark (and the rfsim-server it drives) from source in
# release mode, then runs one workload:
#
#   bash rfsim-bench/run.sh --workload tx_pow2 --seed 1 --seconds 15 --trace 0
#
# Run from anywhere inside a checkout; CARGO_TARGET_DIR, when set, is
# taken relative to the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path rfsim-bench/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-rfsim-bench/target}/release/rfsim-bench" "$@"
