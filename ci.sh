#!/usr/bin/env bash
# Tier-1 verification gate. Run before every commit; everything is offline.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test --workspace -q
# The crash-point subsystem is compiled out by default; test it explicitly.
cargo test -p ow-crashpoint --features crashpoint -q
cargo test -p ow-faultinject --features crashpoint -q
# The heavy-tests property suites (the page-store and flush-always MMU
# oracles, the layout corruption properties, the byte-identical resurrected
# address spaces, ...) are off by default; run them here so they gate every
# change.
cargo test -q -p otherworld -p ow-simhw -p ow-layout -p ow-kernel -p ow-apps -p ow-faultinject \
    --features otherworld/heavy-tests,ow-simhw/heavy-tests,ow-layout/heavy-tests,ow-kernel/heavy-tests,ow-apps/heavy-tests,ow-faultinject/heavy-tests
# The benchmark package is its own workspace; its contract and fidelity
# tests compile it against the workspace names it imports.
cargo test -q --manifest-path benchmark/Cargo.toml

# Parallel==serial determinism smoke: the sharded campaign engine must emit
# byte-identical JSON for any --jobs value.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
cargo run -q -p ow-bench --release --bin table5 -- \
    --experiments 5 --jobs 1 --json "$smoke_dir/jobs1.json" >/dev/null
cargo run -q -p ow-bench --release --bin table5 -- \
    --experiments 5 --jobs 4 --json "$smoke_dir/jobs4.json" >/dev/null
cmp "$smoke_dir/jobs1.json" "$smoke_dir/jobs4.json" \
    || { echo "table5 --json differs between --jobs 1 and --jobs 4" >&2; exit 1; }

# Crash-point campaign: every point x app x mode, the whole
# panic->handoff->crash-boot->resurrect->morph pipeline per cell, with zero
# policy violations and byte-identical to the committed matrix (generated at
# --jobs 2, so this also checks --jobs independence).
cargo run -q -p ow-bench --release --features crashpoint --bin crashpoints -- \
    --jobs 4 --json "$smoke_dir/BENCH_crashpoints.json" >/dev/null
cmp "$smoke_dir/BENCH_crashpoints.json" BENCH_crashpoints.json \
    || { echo "BENCH_crashpoints.json is stale; regenerate it (see ci.sh) and commit" >&2; exit 1; }

# The whole matrix under warm morph + lazy resurrection: the validate-
# then-adopt path must be just as deterministic and just as policy-clean
# (the binary exits non-zero on any unexpected cell).
cargo run -q -p ow-bench --release --features crashpoint --bin crashpoints -- \
    --morph warm --strategy lazy \
    --jobs 1 --json "$smoke_dir/cpw1.json" >/dev/null
cargo run -q -p ow-bench --release --features crashpoint --bin crashpoints -- \
    --morph warm --strategy lazy \
    --jobs 4 --json "$smoke_dir/cpw4.json" >/dev/null
cmp "$smoke_dir/cpw1.json" "$smoke_dir/cpw4.json" \
    || { echo "warm/lazy crashpoints --json differs between --jobs 1 and --jobs 4" >&2; exit 1; }

# The whole matrix with rollback-in-place (rung 0) enabled: the epoch
# validate/apply path and its fall-through must be deterministic and
# policy-clean too.
cargo run -q -p ow-bench --release --features crashpoint --bin crashpoints -- \
    --rollback \
    --jobs 1 --json "$smoke_dir/cpr1.json" >/dev/null
cargo run -q -p ow-bench --release --features crashpoint --bin crashpoints -- \
    --rollback \
    --jobs 4 --json "$smoke_dir/cpr4.json" >/dev/null
cmp "$smoke_dir/cpr1.json" "$smoke_dir/cpr4.json" \
    || { echo "rollback crashpoints --json differs between --jobs 1 and --jobs 4" >&2; exit 1; }

# Perf-trajectory artifacts: the committed BENCH_*.json files must match
# what the bench binaries emit at the pinned sizes/seeds (deterministic:
# simulated time only). Regenerate with the two commands below when a
# change legitimately moves the numbers.
cargo run -q -p ow-bench --release --bin table5 -- \
    --experiments 40 --jobs 4 --json "$smoke_dir/BENCH_table5.json" >/dev/null
cargo run -q -p ow-bench --release --bin recovery -- \
    --experiments 40 --jobs 4 --json "$smoke_dir/BENCH_recovery.json" >/dev/null
# Table 6 is the warm-vs-cold determinism slice: the full four-config
# matrix is regenerated at --jobs 1 and --jobs 4 and must be byte-identical
# to itself and to the committed artifact (adoption flags included).
cargo run -q -p ow-bench --release --bin table6 -- \
    --jobs 1 --json "$smoke_dir/t6_jobs1.json" >/dev/null
cargo run -q -p ow-bench --release --bin table6 -- \
    --jobs 4 --json "$smoke_dir/BENCH_table6.json" >/dev/null
cmp "$smoke_dir/t6_jobs1.json" "$smoke_dir/BENCH_table6.json" \
    || { echo "table6 --json differs between --jobs 1 and --jobs 4" >&2; exit 1; }
# Table 3 is the protected-mode overhead matrix (tagged vs untagged TLB):
# regenerated at --jobs 1 and --jobs 4, byte-identical to itself and to the
# committed artifact.
cargo run -q -p ow-bench --release --bin table3 -- \
    --batches 80 --jobs 1 --json "$smoke_dir/t3_jobs1.json" >/dev/null
cargo run -q -p ow-bench --release --bin table3 -- \
    --batches 80 --jobs 4 --json "$smoke_dir/BENCH_table3.json" >/dev/null
cmp "$smoke_dir/t3_jobs1.json" "$smoke_dir/BENCH_table3.json" \
    || { echo "table3 --json differs between --jobs 1 and --jobs 4" >&2; exit 1; }
for f in BENCH_table5.json BENCH_recovery.json BENCH_table6.json BENCH_table3.json; do
    cmp "$smoke_dir/$f" "$f" \
        || { echo "$f is stale; regenerate it (see ci.sh) and commit" >&2; exit 1; }
done
# The in-text claims (§5.4, footnote 3, §4) must run to completion.
cargo run -q -p ow-bench --release --bin claims >/dev/null
# Every example asserts its own invariants and exits non-zero on failure.
for example in quickstart editor_survives_crash inmemory_db web_sessions \
    checkpoint_server hot_update; do
    cargo run -q --release --example "$example" >/dev/null
done

cargo clippy --all-targets --all-features -- -D warnings
cargo run -p ow-lint --release -- --deny
# The lint's active allow list is a committed baseline: a new escape hatch
# (or a silently grown one) must show up in the diff. Regenerate with the
# command below when an allow is deliberately added or removed.
cargo run -q -p ow-lint --release -- --json > "$smoke_dir/BENCH_lint.json"
cmp "$smoke_dir/BENCH_lint.json" BENCH_lint.json \
    || { echo "BENCH_lint.json is stale; regenerate it (see ci.sh) and commit" >&2; exit 1; }
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
