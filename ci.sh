#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build/test command.
# Run from the repository root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# One EXIT trap for the whole script. Under `set -e` a failing step exits
# straight here, so it must remove every temp dir and stop whatever a
# smoke step left running in the background (servers, the crash smoke's
# client) — not only on success.
WF_DIR='' LAB_DIR='' SMOKE_DIR=''
SERVER_PID='' KILL_SERVER_PID='' CLI_PID=''
cleanup() {
    local pid dir
    for pid in "$SERVER_PID" "$KILL_SERVER_PID" "$CLI_PID"; do
        if [ -n "$pid" ]; then
            kill "$pid" 2>/dev/null || true
        fi
    done
    for dir in "$WF_DIR" "$LAB_DIR" "$SMOKE_DIR"; do
        if [ -n "$dir" ]; then
            rm -rf "$dir"
        fi
    done
}
trap cleanup EXIT

# A green run must leave the working tree as it found it: every gate
# writes into temp dirs, never over a tracked file.
TREE_BEFORE=$(git status --porcelain 2>/dev/null || true)

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> clippy fault-path gate: no unwrap/panic in rfsim, core, rx + dsp lib code"
# Execution paths through Graph::execute / SweepPlan must degrade via
# typed SimError values, never unwind. The receiver and the DSP substrate
# run inside SweepPlan's waterfall points and share the transmitter's
# process-wide tables, so they are held to the same rule. Only the library
# targets are gated (--lib skips #[cfg(test)] modules, integration tests
# and benches, which are free to unwrap/assert).
cargo clippy -p rfsim -p ofdm-core -p ofdm-rx -p ofdm-dsp --lib -- \
    -D warnings -D clippy::unwrap_used -D clippy::panic
cargo clippy -p ofdm-bench --lib -- \
    -D warnings -D clippy::unwrap_used -D clippy::panic

echo "==> cargo doc --no-deps (warnings are errors)"
# Broken intra-doc links and malformed doc comments fail the gate; the
# docs are the contract the supervision/telemetry layers are used by.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests: every crate's own unit and integration tests"
# Tier-1 runs only the root package's tests. The crates carry their own:
# ofdm-dsp's FFT pins and naive-DFT cross-checks, ofdm-rx's receiver and
# demodulator tests, ofdm-standards' preset checks, and the rest. The
# root package is excluded here because tier-1 just ran it.
cargo test --workspace --exclude ofdm-ip-family -q

echo "==> rfsim-bench tests: the benchmark's own use of the library"
# rfsim-bench is a separate package (its own workspace and lock file), so
# tier-1 never builds it; a library change that breaks its use of
# run_waterfall, sibling_binary, StageNanos or FadingChannel::rayleigh
# surfaces here instead of in the benchmark run.
cargo test --manifest-path rfsim-bench/Cargo.toml

echo "==> ratio smoke: experiments --emit-bench / --check-bench"
# Emits the bench-ofdm/v2 BENCH_ofdm.json: the same-process C3 and SIMD
# ratios plus the deterministic fault-sweep and supervision snapshots
# (per-standard timings are rfsim-bench's job). --check-bench fails the
# gate if any section is missing or malformed, if RTL/behavioral falls
# below 1x (paper claim C3), or if the simd_speedup gate trips: any
# standard's batched kernel below 1x of the scalar polar path, 802.11a or
# DVB-T below 5x, or the family geomean below 3x. The document is emitted
# to a temp dir (its ratios are wall clock and differ run to run, so
# writing the tracked BENCH_ofdm.json would dirty the tree); both it and
# the tracked one are gated after the waterfall smoke below.
WF_DIR=$(mktemp -d)
cargo run --release -q -p ofdm-bench --bin experiments -- \
    --emit-bench "$WF_DIR/BENCH_ofdm.json"

echo "==> waterfall smoke: experiments --waterfall"
# Fixed-seed BER-vs-SNR grid (2 standards x 4 SNR points) through the
# checkpointed sweep path. The document is byte-stable (BER tallies carry
# no timing), so it is emitted to a temp dir and must match the tracked
# waterfall.json exactly. --check-bench then gates the fresh and the
# tracked BENCH_ofdm.json, each with its waterfall.json sibling: finite
# values, BER in [0, 1], and monotone-descending curves.
cargo run --release -q -p ofdm-bench --bin experiments -- \
    --waterfall "$WF_DIR/waterfall.json"
cmp waterfall.json "$WF_DIR/waterfall.json" \
    || { echo "waterfall smoke: BER tallies differ from the tracked waterfall.json" >&2; exit 1; }

cargo run --release -q -p ofdm-bench --bin experiments -- \
    --check-bench "$WF_DIR/BENCH_ofdm.json"
cargo run --release -q -p ofdm-bench --bin experiments -- \
    --check-bench BENCH_ofdm.json

echo "==> lab smoke: experiments --spec examples/lab/smoke.json"
# The declarative experiment lab end to end: run a small spec through the
# engine, emit the byte-stable lab/v1 document, and validate it (shape,
# finiteness, verdict) with --check-lab. The legacy --faults/--supervise
# smokes live on as lab specs (e9_faults, e10_*) exercised by the same
# engine; the spec-file library itself is covered by `cargo test`.
LAB_DIR=$(mktemp -d)
cargo run --release -q -p ofdm-bench --bin experiments -- \
    --spec examples/lab/smoke.json --lab-out "$LAB_DIR/lab_smoke.json"
cargo run --release -q -p ofdm-bench --bin experiments -- \
    --check-lab "$LAB_DIR/lab_smoke.json"
# Byte-stability gate: a second run must reproduce the document exactly.
cargo run --release -q -p ofdm-bench --bin experiments -- \
    --spec examples/lab/smoke.json --lab-out "$LAB_DIR/lab_smoke_2.json" >/dev/null
cmp "$LAB_DIR/lab_smoke.json" "$LAB_DIR/lab_smoke_2.json" \
    || { echo "lab smoke: lab/v1 document is not byte-stable" >&2; exit 1; }

# boot_server PORT_FILE [rfsim-server args...] — starts rfsim-server on an
# ephemeral loopback port in the background, sets SERVER_PID (which the
# EXIT trap kills if the script fails before `wait`ing it), and waits up
# to 10 s (100 polls of 0.1 s) for the port file; returns non-zero if the
# server never bound. Callers keep their own "never bound" message.
boot_server() {
    local port_file=$1
    shift
    ./target/release/rfsim-server --addr 127.0.0.1:0 --port-file "$port_file" "$@" &
    SERVER_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$port_file" ] && return 0
        sleep 0.1
    done
    [ -s "$port_file" ]
}

echo "==> service smoke: rfsim-server / rfsim-cli round trip"
# Boot the simulation service on an ephemeral port, submit the example
# mini-waterfall through rfsim-cli, and byte-compare the streamed result
# against an in-process run (--compare-local). A clean shutdown must
# leave no orphan server process.
SMOKE_DIR=$(mktemp -d)
cargo build --release -q --bin rfsim-server --bin rfsim-cli
boot_server "$SMOKE_DIR/port" \
    || { echo "service smoke: server never bound" >&2; exit 1; }
ADDR=$(cat "$SMOKE_DIR/port")
./target/release/rfsim-cli submit examples/jobs/mini_waterfall.json \
    --addr "$ADDR" --compare-local --out "$SMOKE_DIR/waterfall.json"
./target/release/rfsim-cli shutdown --addr "$ADDR"
wait "$SERVER_PID" || { echo "service smoke: server exited non-zero" >&2; exit 1; }

echo "==> chaos smoke: resilient submit through the fault-injection proxy, then drain"
# The same round trip, but the wire is hostile: an in-process chaos proxy
# injects connection resets and torn frames (bounded by a fault budget).
# --resilient must reconnect under backoff and still produce a document
# byte-identical to the in-process run; a graceful drain then takes the
# server down cleanly.
boot_server "$SMOKE_DIR/chaos_port" \
    || { echo "chaos smoke: server never bound" >&2; exit 1; }
ADDR=$(cat "$SMOKE_DIR/chaos_port")
./target/release/rfsim-cli submit examples/jobs/mini_waterfall.json \
    --addr "$ADDR" --resilient --via-chaos seed=11,reset=0.2,tear=0.2,faults=6 \
    --compare-local --out "$SMOKE_DIR/chaos_mini.json"
./target/release/rfsim-cli drain --addr "$ADDR"
wait "$SERVER_PID" || { echo "chaos smoke: drained server exited non-zero" >&2; exit 1; }

echo "==> crash-recovery smoke: kill -9 mid-grid, restart, resubmit byte-identically"
# A checkpointing server is killed (-9, no cleanup) partway through a
# grid. The restart must report the persisted checkpoint in its recovery
# scan, and an identical resubmit must restore the computed prefix and
# complete byte-identically to a local run.
CKPT_DIR="$SMOKE_DIR/ckpt"
boot_server "$SMOKE_DIR/kill_port" --checkpoint-dir "$CKPT_DIR" \
    || { echo "crash smoke: server never bound" >&2; exit 1; }
KILL_SERVER_PID=$SERVER_PID
ADDR=$(cat "$SMOKE_DIR/kill_port")
./target/release/rfsim-cli submit examples/jobs/chaos_waterfall.json \
    --addr "$ADDR" --out "$SMOKE_DIR/doomed.json" &
CLI_PID=$!
# The server persists the checkpoint every 8 points via tmp + rename, so
# the file only ever appears whole: once it exists, at least 8 of the
# grid's 768 points are on disk, whatever the host speed. Poll for it
# (every 0.05 s, up to 60 s) instead of racing a fixed sleep.
for _ in $(seq 1 1200); do
    compgen -G "$CKPT_DIR/wf-*.json" > /dev/null && break
    sleep 0.05
done
kill -9 "$KILL_SERVER_PID"
if wait "$CLI_PID"; then
    echo "crash smoke: the grid finished before the kill; grow chaos_waterfall.json" >&2
    exit 1
fi
wait "$KILL_SERVER_PID" || true
ls "$CKPT_DIR"/wf-*.json > /dev/null 2>&1 \
    || { echo "crash smoke: no checkpoint persisted before the kill" >&2; exit 1; }
boot_server "$SMOKE_DIR/kill_port2" --checkpoint-dir "$CKPT_DIR" > "$SMOKE_DIR/restart.log" \
    || { echo "crash smoke: restart never bound" >&2; exit 1; }
grep -q "recovery: 1 resumable checkpoint" "$SMOKE_DIR/restart.log" \
    || { echo "crash smoke: recovery scan missed the checkpoint" >&2; exit 1; }
ADDR=$(cat "$SMOKE_DIR/kill_port2")
./target/release/rfsim-cli submit examples/jobs/chaos_waterfall.json \
    --addr "$ADDR" --compare-local --out "$SMOKE_DIR/recovered.json"
./target/release/rfsim-cli shutdown --addr "$ADDR"
wait "$SERVER_PID" || { echo "crash smoke: restarted server exited non-zero" >&2; exit 1; }

TREE_AFTER=$(git status --porcelain 2>/dev/null || true)
if [ "$TREE_BEFORE" != "$TREE_AFTER" ]; then
    echo "ci.sh: the run changed the working tree:" >&2
    diff <(echo "$TREE_BEFORE") <(echo "$TREE_AFTER") >&2 || true
    exit 1
fi

echo "==> non-test Rust line count (informational, not a gate)"
# The net non-test Rust figure each change reports: tracked and new *.rs
# files outside tests/ directories, counting each file's lines before its
# first #[cfg(test)].
mapfile -t RS_FILES < <(git ls-files --cached --others --exclude-standard -- '*.rs' \
    | grep -v '\(^\|/\)tests/')
awk 'FNR == 1 { in_test = 0 } /#\[cfg\(test\)\]/ { in_test = 1 } !in_test { n++ }
    END { print "non-test Rust lines: " n }' "${RS_FILES[@]}"

echo "==> ci.sh: all gates passed"
