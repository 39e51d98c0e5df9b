#!/usr/bin/env bash
# Tier-1 verification gate: build, full workspace test suite, and lint.
# Run from the repository root:  ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release

# perfbench/ is a workspace of its own over the crates' public APIs; build it
# the way perfbench/run.py does so an API change cannot break it unnoticed.
echo "== perfbench build"
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo test --workspace"
cargo test -q --workspace --release

echo "== fault-injection & resume suite"
cargo test -q --release -p stisan-core --test fault_injection --test checkpoint_resume

echo "== serving: tape/frozen parity + gradcheck + property suites"
cargo test -q --release -p stisan-serve --test parity
cargo test -q --release -p stisan-core --test gradcheck_blocks
cargo test -q --release -p stisan --test property_tests
cargo test -q --release -p stisan-eval --test golden_metrics

echo "== kernels & arena: blocked/naive bit-parity, arena reuse, zero-alloc gate"
cargo test -q --release -p stisan-tensor --test kernel_diff --test arena
cargo test -q --release -p stisan-serve --test arena_parity --test zero_alloc

echo "== retrieval: quant codec differential, two-stage serving, Recall@20 gate"
cargo test -q --release -p stisan-retrieval
cargo test -q --release -p stisan-tensor --test quant_diff
cargo test -q --release -p stisan-serve --test two_stage
cargo test -q --release -p stisan --test retrieval_recall

echo "== gateway: protocol corruption, batcher property, and e2e suites"
cargo test -q --release -p stisan-gateway

echo "== fault tolerance: reload edge cases, client retry, chaos e2e"
cargo test -q --release -p stisan-serve --test reload
cargo test -q --release -p stisan-gateway --test retry --test chaos

echo "== SLO plane: windowed-store properties, burn-rate alert lifecycle e2e"
cargo test -q --release -p stisan-obs
cargo test -q --release -p stisan-obs --test timeseries_props
cargo test -q --release -p stisan-gateway --test slo_e2e

echo "== serve_bench smoke"
cargo run --release -p stisan-bench --bin serve_bench -- --smoke

echo "== kernel_bench smoke (blocked vs naive, writes results/BENCH_kernels.json)"
cargo run --release -p stisan-bench --bin kernel_bench -- --smoke

echo "== gateway_bench smoke (micro-batching >= 1.5x, shedding, tracing overhead < 3%,"
echo "   slo_check: sampler overhead < 3% rps, availability >= 99%, zero burn alerts clean)"
cargo run --release -p stisan-bench --bin gateway_bench -- --smoke

echo "== gateway_bench chaos smoke (availability >= 99%, zero torn reads, process survives)"
cargo run --release -p stisan-bench --bin gateway_bench -- --chaos-smoke

echo "== retrieval_bench smoke (two-stage vs exact, i8 table <= 30% of f32 bytes)"
cargo run --release -p stisan-bench --bin retrieval_bench -- --smoke

echo "== exposition check (admin-endpoint scrape must be parseable Prometheus text)"
cargo run --release -p stisan-bench --bin expo_check -- results/metrics_scrape.prom \
    --require alloc_ --require prof_ --require slo_ --require alert_ \
    --require-suffix _p99_1m

echo "== metric-cardinality audit (registry must fit the fixed-memory windowed store)"
./scripts/cardinality_audit.sh

# bench_compare.sh is strict by default (serve/kernels/retrieval fail on a
# >15% rps drop; gateway warns). This smoke-mode run on a shared host is the
# documented noisy-CI case, so verify.sh takes the --warn-only escape hatch
# unless overridden: run `BENCH_COMPARE_FLAGS= ./scripts/verify.sh` (or bare
# ./scripts/bench_compare.sh on a quiet machine) for the strict gate — strict
# is required before re-baselining.
echo "== bench regression compare (flags: ${BENCH_COMPARE_FLAGS---warn-only})"
./scripts/bench_compare.sh ${BENCH_COMPARE_FLAGS---warn-only}

echo "== panic audit (crates/nn, core, data, serve, gateway, obs, tensor, retrieval)"
./scripts/panic_audit.sh

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "verify: OK"
