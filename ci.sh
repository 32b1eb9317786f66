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

echo "== cargo fmt =="
cargo fmt --check

echo "== cargo doc =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== examples (release) =="
for ex in quickstart node_churn elastic_scaling azure_fleet block_size_tuning; do
    echo "-- example: $ex"
    cargo run --release --quiet --example "$ex" > /dev/null
done

echo "== experiment records (release, pinned seeds) =="
# Every row of the one experiment table, COMMANDS in
# crates/bench/src/experiments/mod.rs, at its own CI flags: the
# eight benches at their CI sizes, the sixteen paper records at the reference
# configuration of EXPERIMENTS.md. Each returns a typed record; a false gate
# exits non-zero naming it. results/BENCH_<name>.json and
# results/PAPER_<name>.json are rewritten with {experiment, params, gates,
# deterministic}: no clock, so the same code writes the same bytes.
cargo run --release --quiet -p squirrel-bench --bin squirrel-experiments -- ci > /dev/null
# Drift check over all of results/ (these records and the quickstart's metric
# snapshot, written by the examples above): what is committed is what the
# code produces today, or the PR commits the new numbers and says why they
# moved. A record no commit has seen yet fails too.
git diff --exit-code -- results
drift=$(git status --porcelain --untracked-files=all -- results)
if [ -n "$drift" ]; then
    echo "results/ differs from the commit (untracked or staged files):"
    echo "$drift"
    exit 1
fi

echo "== kernel crates (release: unsafe SHA-NI, wrapping arithmetic, debug_assert-free paths) =="
# squirrel-dataset rides along: its golden corpus pins and the fixed-width
# atom writer's differential test run in the build that ships.
cargo test -q --release -p squirrel-hash -p squirrel-compress -p squirrel-dataset > /dev/null

echo "== worker pool under repetition (release, 20 runs: where a one-in-fifty race hides) =="
# The two receive tests split one stream's proof over the pool's workers:
# the first offender in payload order must win at every thread count.
for i in $(seq 20); do
    cargo test -q --release -p squirrel-hash par:: > /dev/null
    cargo test -q --release -p squirrel-zfs --lib -- \
        first_corrupt_block_in_payload_order_wins_at_any_thread_count \
        a_lone_recv_splits_its_proof_over_unproved_frames_only > /dev/null
done

echo "== boot storm under repetition (release, 20 runs: records resolve concurrently) =="
for i in $(seq 20); do
    cargo test -q --release -p squirrel-core --lib -- \
        a_storm_digests_each_distinct_working_set_once \
        boot_storm_serves_warm_vms_zero_copy_and_deterministically > /dev/null
done

echo "== decode fuzz smoke (release, fixed seeds) =="
cargo test -q --release -p squirrel-zfs decode_survives > /dev/null

echo "== import pipeline (release: fixed records and CDC, threads 1/2/8, golden pins, write_block replay) =="
# The pipeline's drain-order checks are debug_assert!s, so only a release
# build runs the import as it ships.
cargo test -q --release -p squirrel-zfs ingest:: > /dev/null

echo "== boot memo-vs-fresh-replay proptest (release, name-seeded) =="
cargo test -q --release -p squirrel-core memoised_boots_match_fresh_replays > /dev/null

echo "== boot replay: one walk, one price, two record sources, extent reads, against the references (release) =="
cargo test -q --release -p squirrel-bootsim -- \
    replay_matches_the_hashset_reference \
    measured_replay_matches_the_hashset_reference \
    compact_layout_replays_like_the_statistical_volume > /dev/null
cargo test -q --release -p squirrel-core extent_reads_replay_like_the_read_sequence > /dev/null

echo "== lossy delivery: direct apply vs per-copy reference (release, 16 fault seeds) =="
cargo test -q --release -p squirrel-core decoding_each_distinct_copy_once_matches_the_per_copy_reference > /dev/null

echo "== benchmark package smoke (out-of-workspace, release) =="
# The benchmark links the crates' public API from outside the workspace: a
# removed or renamed item it uses must fail here, not at the next run.
benchmark/check.sh
# A new dependency edge between crates would silently rewrite this lockfile.
git diff --exit-code -- benchmark/Cargo.lock

echo "ci.sh: all checks passed"
