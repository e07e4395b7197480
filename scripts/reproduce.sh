#!/usr/bin/env bash
# Regenerates every table/figure of the paper plus the extension studies
# into results/ (text goldens + BENCH_*.json run records), runs the full
# test suite and the fault-campaign smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 1)}"

echo "== building (release) =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace --release

echo "== scenarios (pva-bench all, $JOBS worker(s)) =="
mkdir -p results
# --verify first: prove the engine reproduces the committed goldens
# byte-for-byte before overwriting them, and gate the simulator's
# fast-path speedup.
cargo run -p pva-bench --release -- all --jobs "$JOBS" \
  --verify results --min-speedup 1.1
cargo run -p pva-bench --release -- all --jobs "$JOBS" \
  --out results --json results

echo "== record validation =="
cargo run -p pva-bench --release -- validate results/BENCH_*.json

echo "== fault campaign (smoke) =="
cargo run -p pva-bench --release --bin fault_campaign -- --smoke

echo "done: see results/ and EXPERIMENTS.md"
