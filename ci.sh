#!/usr/bin/env bash
# Offline CI gate: build, test, lint. No network access required — every
# dependency is in-tree (see the std-only policy in README.md / vendor/).
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo clippy =="
cargo clippy --all-targets --workspace -- -D warnings

echo "== cargo doc =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== examples (release) =="
for ex in quickstart node_churn elastic_scaling azure_fleet block_size_tuning; do
    echo "-- example: $ex"
    cargo run --release --quiet --example "$ex" > /dev/null
done

echo "== boot-storm bench smoke (release) =="
rm -f results/BENCH_bootstorm.json
cargo run --release --quiet -p squirrel-bench --bin squirrel-experiments -- \
    bootstorm --images 16 --scale 8192 --seed 7 --threads 2 > /dev/null
test -f results/BENCH_bootstorm.json
grep -q '"deterministic_across_threads": true' results/BENCH_bootstorm.json
# A repeated storm re-hashes nothing; one rotted record costs one record.
grep -q '"reverify_free": true' results/BENCH_bootstorm.json
# Warm storm served from the shared ARC: hit rate strictly positive.
grep -Eq '"arc_hit_rate": 0\.[0-9]*[1-9]' results/BENCH_bootstorm.json

echo "== ingest bench smoke (release) =="
rm -f results/BENCH_ingest.json
cargo run --release --quiet -p squirrel-bench --bin squirrel-experiments -- \
    ingest | grep '^ingest '
test -f results/BENCH_ingest.json
# The parallel import leaves bit-identical pool state and metrics at every
# thread count (the run aborts otherwise), carries the per-stage wall-clock
# breakdown, and is never slower than serial at threads 2 or 8.
grep -q '"deterministic_across_threads": true' results/BENCH_ingest.json
grep -q '"prepare_ns"' results/BENCH_ingest.json
grep -q '"probe_ns"' results/BENCH_ingest.json
grep -q '"compress_ns"' results/BENCH_ingest.json
grep -q '"commit_ns"' results/BENCH_ingest.json
grep -q '"speedup_gate": "pass"' results/BENCH_ingest.json

echo "== chaos soak (release, pinned seed) =="
rm -f results/BENCH_chaos.json
cargo run --release --quiet -p squirrel-bench --bin squirrel-experiments -- \
    chaos --images 12 --seed 2014 > /dev/null
test -f results/BENCH_chaos.json
# The soak must converge to a consistent, scrub-clean state and replay
# bit-identically at every thread count of the sweep.
grep -q '"converged": true' results/BENCH_chaos.json
grep -q '"scrub_clean": true' results/BENCH_chaos.json
grep -q '"deterministic_across_threads": true' results/BENCH_chaos.json
# Chaos actually happened: the plan injected a nonzero number of faults.
grep -Eq '"faults_injected": [1-9]' results/BENCH_chaos.json

echo "== topology / erasure-coding bench (release, pinned seed) =="
rm -f results/BENCH_topology.json
cargo run --release --quiet -p squirrel-bench --bin squirrel-experiments -- \
    topology --images 8 --scale 8192 --seed 2014 > /dev/null
test -f results/BENCH_topology.json
# The erasure-coded shared tier must ride out a whole-rack loss (every
# object readable byte-for-byte through parity reconstruction) and scrub
# back to clean by re-homing shards across racks; the multi-rack chaos
# soak must converge scrub-clean and replay bit-identically at every
# thread count, with at least one correlated domain outage injected.
grep -q '"ec_survives_rack_loss": true' results/BENCH_topology.json
grep -q '"converged": true' results/BENCH_topology.json
grep -q '"scrub_clean": true' results/BENCH_topology.json
grep -q '"deterministic_across_threads": true' results/BENCH_topology.json
grep -Eq '"rack_outages": [1-9]' results/BENCH_topology.json
grep -Eq '"ec_repair_bytes": [1-9]' results/BENCH_topology.json

echo "== hoard-budget sweep smoke (release, pinned seed) =="
rm -f results/BENCH_budget.json
cargo run --release --quiet -p squirrel-bench --bin squirrel-experiments -- \
    budget --images 8 --scale 8192 --seed 7 --threads 2 > /dev/null
test -f results/BENCH_budget.json
# Eviction decisions and metric snapshots replay bit-identically at every
# thread count; a generous budget degrades nothing, a starved one must
# push a strictly positive share of boots to shared storage.
grep -q '"deterministic_across_threads": true' results/BENCH_budget.json
grep -q '"generous_degraded_boot_rate": 0,' results/BENCH_budget.json
grep -Eq '"starved_degraded_boot_rate": (0\.[0-9]*[1-9][0-9]*|1)' results/BENCH_budget.json

echo "== distribution sweep smoke (release, pinned seed) =="
rm -f results/BENCH_distribution.json
cargo run --release --quiet -p squirrel-bench --bin squirrel-experiments -- \
    distribution --images 8 --scale 8192 --seed 7 --threads 2 > /dev/null
test -f results/BENCH_distribution.json
# Peer-assisted and tree-multicast delivery must cut the storage-tier
# uplink strictly below serial unicast once the fleet scales (1k and 10k
# node points), every policy must replay bit-identically at every thread
# count of the sweep, and every cell must have verified each diff's
# payload exactly once, however many nodes it went to.
grep -q '"peer_below_unicast_1k": true' results/BENCH_distribution.json
grep -q '"peer_below_unicast_10k": true' results/BENCH_distribution.json
grep -q '"multicast_below_unicast_1k": true' results/BENCH_distribution.json
grep -q '"deterministic_across_threads": true' results/BENCH_distribution.json
grep -q '"verify_once": true' results/BENCH_distribution.json

echo "== fleet soak smoke (release, pinned seed) =="
rm -f results/BENCH_fleet.json
cargo run --release --quiet -p squirrel-bench --bin squirrel-experiments -- \
    fleet --images 8 --scale 8192 --seed 2014 --threads 2 > /dev/null
test -f results/BENCH_fleet.json
# Three simulated days of Zipf + diurnal demand over 100- and 1000-node
# elastic fleets must replay bit-identically at every thread count, keep
# p99 boot latency finite and the degraded-boot rate bounded, and
# peer-assisted distribution must move strictly fewer storage-tier bytes
# per day than unicast at the exact same degraded-boot rate.
grep -q '"deterministic_across_threads": true' results/BENCH_fleet.json
grep -q '"p99_finite": true' results/BENCH_fleet.json
grep -q '"degraded_rate_bounded": true' results/BENCH_fleet.json
grep -q '"degraded_rates_equal": true' results/BENCH_fleet.json
grep -q '"peer_storage_below_unicast": true' results/BENCH_fleet.json

echo "== chunking sweep smoke (release, pinned seed) =="
rm -f results/BENCH_chunking.json
cargo run --release --quiet -p squirrel-bench --bin squirrel-experiments -- \
    chunking --images 8 --scale 8192 --seed 7 --threads 2 > /dev/null
test -f results/BENCH_chunking.json
# Every {strategy, mode} cell leaves bit-identical pool state and send
# streams at threads 1/2/8; the reverse-dedup warm boot never loses to
# forward at identical physical bytes; CDC never stores more than fixed
# records on the byte-shifted version chain.
grep -q '"deterministic_across_threads": true' results/BENCH_chunking.json
grep -q '"reverse_not_slower": true' results/BENCH_chunking.json
grep -q '"cdc_dedup_gte_fixed": true' results/BENCH_chunking.json

echo "== decode fuzz smoke (release, fixed seeds) =="
cargo test -q --release -p squirrel-zfs decode_survives > /dev/null

echo "== ARC differential proptest (release, name-seeded) =="
cargo test -q --release -p squirrel-zfs differential_shared_vs_serial > /dev/null

echo "== benchmark package smoke (out-of-workspace, release) =="
# The benchmark links the crates' public API from outside the workspace: a
# removed or renamed item it uses must fail here, not at the next run.
benchmark/check.sh

echo "ci.sh: all checks passed"
