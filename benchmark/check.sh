#!/usr/bin/env bash
# Smoke test of the benchmark itself: every workload at about a tenth of
# its size, one repetition, traced, twice. Asserts that the workload and
# metric names printed are exactly those BENCHMARK.json lists, that every
# simulated and accounting metric is bit-equal between the two runs, and
# that all the JSON parses with the benchmark's own parser.
set -euo pipefail
cd "$(dirname "$0")/.."

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

out=benchmark/out
mkdir -p "$out"
for run in a b; do
    bench run --quick --trace > "$out/quick_$run.log" 2>&1 || { cat "$out/quick_$run.log"; exit 1; }
    cp "$out/result.json" "$out/quick_$run.json"
done
bench check "$out/quick_a.json" "$out/quick_b.json" BENCHMARK.json
echo "benchmark check: ok"
