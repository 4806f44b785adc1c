#!/usr/bin/env bash
# Tier-1 gate for the TIE reproduction, run at two thread settings.
#
# The dense kernels are bit-identical at any thread count (see DESIGN.md
# §8), so the whole suite must pass both serial (TIE_THREADS=1) and at
# the default thread count. Usage: scripts/ci.sh [--offline]
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=()
if [[ "${1:-}" == "--offline" ]]; then
  CARGO_FLAGS+=(--offline)
fi

echo "== tier-1: rustfmt check =="
cargo fmt --check

echo "== tier-1: release build =="
cargo build --release --workspace "${CARGO_FLAGS[@]}"

echo "== tier-1: clippy, -D warnings =="
cargo clippy --workspace --all-targets "${CARGO_FLAGS[@]}" -- -D warnings

# Rustdoc over the first-party packages only: a doc link left dangling by
# a renamed or deleted item fails here. The vendored stand-ins are left
# out (proptest carries warnings of its own).
echo "== tier-1: rustdoc, -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q "${CARGO_FLAGS[@]}" \
  -p tie -p tie-tensor -p tie-tt -p tie-core -p tie-quant -p tie-nn -p tie-sim \
  -p tie-energy -p tie-baselines -p tie-workloads -p tie-serve -p tie-bench

echo "== tier-1: tests, TIE_THREADS=1 (serial) =="
TIE_THREADS=1 cargo test -q --workspace "${CARGO_FLAGS[@]}"

echo "== tier-1: tests, default thread count =="
cargo test -q --workspace "${CARGO_FLAGS[@]}"

# The verification suites (PR 2) also run above as part of the workspace
# sweep; this stanza re-runs them by name with a pinned stress seed so a
# test-filter regression can't silently skip them, and so a failure here
# is reproducible from the logged seed.
TIE_STRESS_SEED="${TIE_STRESS_SEED:-3735928559}"
export TIE_STRESS_SEED
echo "== tier-2: verification suites (TIE_STRESS_SEED=${TIE_STRESS_SEED}) =="
for suite in differential epilogue_differential pipeline_differential golden properties serve_stress quant_kernels zero_alloc indexmap_fused shard_stress shard_chaos autotune_plans; do
  echo "-- ${suite}, TIE_THREADS=1 --"
  TIE_THREADS=1 cargo test -q --test "${suite}" "${CARGO_FLAGS[@]}"
  echo "-- ${suite}, default thread count --"
  cargo test -q --test "${suite}" "${CARGO_FLAGS[@]}"
done

# Compile-path acceptance (PR 3, DESIGN.md §10.5): VGG-FC6 at paper scale
# must compile into a registered engine within the wall-clock budget and
# reproduce the Table 4 compression ratio. Needs --release — the budget is
# real time — and runs at both thread settings like everything else.
TIE_COMPILE_BUDGET_S="${TIE_COMPILE_BUDGET_S:-9}"
export TIE_COMPILE_BUDGET_S
echo "== tier-2: paper-scale FC6 compile (budget ${TIE_COMPILE_BUDGET_S}s), TIE_THREADS=1 =="
TIE_THREADS=1 cargo test -q --release -p tie-workloads --test compile_table4 \
  "${CARGO_FLAGS[@]}" fc6_compiles_at_paper_scale_within_budget -- --ignored
echo "== tier-2: paper-scale FC6 compile (budget ${TIE_COMPILE_BUDGET_S}s), default thread count =="
cargo test -q --release -p tie-workloads --test compile_table4 \
  "${CARGO_FLAGS[@]}" fc6_compiles_at_paper_scale_within_budget -- --ignored

# Quantized fast-path gate (quantized-path PR, DESIGN.md §12): a VGG-FC7
# batch-16 simulated run must finish inside the wall-clock budget — the
# one-shot-calibrated batched stage-GEMM path must never regress toward
# the per-sample MAC-walk cost. Needs --release; both thread settings,
# since the GEMM rides the pool.
TIE_QUANT_BUDGET_S="${TIE_QUANT_BUDGET_S:-5}"
export TIE_QUANT_BUDGET_S
echo "== tier-2: FC7 quantized batch budget (${TIE_QUANT_BUDGET_S}s), TIE_THREADS=1 =="
TIE_THREADS=1 cargo test -q --release --test quant_kernels \
  "${CARGO_FLAGS[@]}" fc7_quantized_batch_runs_within_budget -- --ignored
echo "== tier-2: FC7 quantized batch budget (${TIE_QUANT_BUDGET_S}s), default thread count =="
cargo test -q --release --test quant_kernels \
  "${CARGO_FLAGS[@]}" fc7_quantized_batch_runs_within_budget -- --ignored

# Fused-Transform gate (fused-transform PR, DESIGN.md §13): fused FC7
# batch-16 on the float compact engine must finish inside the wall-clock
# budget — the write-epilogue fusion must never regress toward the
# two-pass (GEMM + permutation copy) cost. Needs --release; both thread
# settings, since the mapped GEMM rides the pool.
TIE_TRANSFORM_BUDGET_S="${TIE_TRANSFORM_BUDGET_S:-2}"
export TIE_TRANSFORM_BUDGET_S
echo "== tier-2: fused FC7 batch budget (${TIE_TRANSFORM_BUDGET_S}s), TIE_THREADS=1 =="
TIE_THREADS=1 cargo test -q --release --test indexmap_fused \
  "${CARGO_FLAGS[@]}" fused_fc7_batch16_meets_wall_clock_budget -- --ignored
echo "== tier-2: fused FC7 batch budget (${TIE_TRANSFORM_BUDGET_S}s), default thread count =="
cargo test -q --release --test indexmap_fused \
  "${CARGO_FLAGS[@]}" fused_fc7_batch16_meets_wall_clock_budget -- --ignored

# Autotuner determinism + budget gate (autotune PR, DESIGN.md §17): the
# pinned LSTM-UCF11/LSTM-Youtube searches must reproduce the committed
# golden tuned-plan fixtures byte-for-byte at both thread settings (the
# same-seed ⇒ same-plan contract; the pool-{1,2,8} sweep on a small layer
# also runs un-ignored in the autotune_plans suite above), and each layer's
# search must finish inside the wall-clock budget. Needs --release — the
# searches TT-SVD-compile paper-scale LSTM weights.
TIE_AUTOTUNE_BUDGET_S="${TIE_AUTOTUNE_BUDGET_S:-30}"
export TIE_AUTOTUNE_BUDGET_S
echo "== tier-2: autotuner fixture reproduction (budget ${TIE_AUTOTUNE_BUDGET_S}s/layer), TIE_THREADS=1 =="
TIE_THREADS=1 cargo test -q --release --test autotune_plans \
  "${CARGO_FLAGS[@]}" tuned_plan_search_reproduces_the_fixtures -- --ignored
echo "== tier-2: autotuner fixture reproduction (budget ${TIE_AUTOTUNE_BUDGET_S}s/layer), default thread count =="
cargo test -q --release --test autotune_plans \
  "${CARGO_FLAGS[@]}" tuned_plan_search_reproduces_the_fixtures -- --ignored

# Pool dispatch regression gate (pool PR, DESIGN.md §11): the persistent
# pool must not be slower than the old per-call scoped-spawn path on a
# dispatch-sensitive GEMM (bit-identity of the two paths is asserted inside
# the test before any timing). Needs --release — it is a wall-clock gate.
echo "== tier-2: pooled vs scoped GEMM dispatch gate =="
cargo test -q --release --test pool_perf "${CARGO_FLAGS[@]}" -- --ignored

# End-to-end benchmark smoke gate (BENCHMARK.json): perfbench is a cargo
# workspace of its own, so the workspace build above never compiles it,
# yet it calls the serving, simulator and plan APIs. Run its own tests,
# then each workload once; every run must exit 0 and report
# `"correct": true` (each response checked bit for bit, books reconciled).
# accel-sim keeps the default 20 s: shorter runs fall below the sample
# floor its p99 latency needs.
PERFBENCH=(--release "${CARGO_FLAGS[@]}" --manifest-path perfbench/Cargo.toml)
echo "== tier-2: perfbench tests =="
cargo test -q "${PERFBENCH[@]}"
for workload in table4-float table4-quant-tuned small-layers accel-sim; do
  seconds=3
  if [[ "${workload}" == accel-sim ]]; then
    seconds=20
  fi
  echo "-- perfbench ${workload}, ${seconds}s --"
  result=$(cargo run -q "${PERFBENCH[@]}" -- \
    --workload "${workload}" --seed 1 --seconds "${seconds}" --trace 0)
  if ! grep -q '"correct": true' <<<"${result}"; then
    echo "${result}"
    echo "perfbench ${workload}: run not correct" >&2
    exit 1
  fi
done

echo "ci.sh: all green"
