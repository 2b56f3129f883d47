#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
# Every step runs even when an earlier one fails, so one red gate does
# not hide the state of the gates after it. The failed steps are listed
# at the end and the script exits non-zero if there is any.
set -uo pipefail
cd "$(dirname "$0")"

failed=()
step() {
    echo "== $*"
    "$@" || failed+=("$*")
}

step cargo build --release
step cargo build --workspace --examples
step cargo test -q
step cargo clippy --workspace -- -D warnings

# The end-to-end benchmark is a package of its own (e2ebench/) built
# against crates/ through path dependencies: a crates/ API change that
# breaks it, or one that would rewrite its lockfile, fails here.
step cargo build --release --offline --locked --manifest-path e2ebench/Cargo.toml
step cargo test --release --offline --locked --manifest-path e2ebench/Cargo.toml

# The pool and census counters are process-wide and the harness runs
# tests on parallel threads: repeat the tensor lib suite, which asserts
# those counters, at the default test-thread count to catch flakes.
for _ in 1 2 3; do
    step cargo test -q -p exaclim-tensor --lib
done

# Kernel results must be bit-identical at any pool width: rerun the
# tensor and nn suites with a 4-thread default pool.
step env EXACLIM_NUM_THREADS=4 cargo test -q -p exaclim-tensor -p exaclim-nn

# ... and with the buffer-recycling pool disabled: pooling trades
# allocator traffic, never numerics.
step env EXACLIM_POOL=0 cargo test -q -p exaclim-tensor -p exaclim-nn

# ... and with the SIMD micro-kernels disabled: the scalar fallback is
# the reference the vector paths are bit-compared against, so it must
# stay green on its own.
step env EXACLIM_SIMD=0 cargo test -q -p exaclim-tensor -p exaclim-nn

# Backward-overlapped gradient all-reduce is opt-in via EXACLIM_OVERLAP;
# the distrib suites must hold bit-for-bit under both settings. The
# elastic chaos scenarios (seeded join/leave/crash plans, replayed and
# bit-compared) ride in the distrib suite and must hold in both modes too.
step env EXACLIM_OVERLAP=0 cargo test -q -p exaclim-distrib
step env EXACLIM_OVERLAP=1 cargo test -q -p exaclim-distrib
step env EXACLIM_OVERLAP=1 cargo test -q -p exaclim-core --test overlap_determinism

# The overlap microbenchmark asserts its own acceptance criteria
# (exposed-comm strictly reduced, overlap fraction > 0, bit-identical
# parameters) and writes BENCH_overlap.json.
step cargo run --release -q -p exaclim-bench --bin overlap_microbench -- --smoke

# The elastic microbenchmark asserts recovery cost: an elastic resize
# loses strictly fewer steps than checkpoint-restart replays for the same
# crash plan, and the elastic replay is bit-identical across two runs.
# Writes BENCH_elastic.json.
step cargo run --release -q -p exaclim-bench --bin elastic_microbench -- --smoke

# The kernel microbenchmark's smoke mode asserts the SIMD GEMM is
# bit-identical to the scalar route and no slower than it.
step cargo run --release -q -p exaclim-bench --bin kernel_microbench -- --smoke

# The serving microbenchmark's smoke mode asserts the serving tier's
# contract: outputs served through dynamic batches are bit-identical to
# the batch=1 baseline, and dynamic batching serves >= 2x the
# requests/sec at equal-or-better p99 under the highest swept load.
# Writes BENCH_serve.json.
step cargo run --release -q -p exaclim-bench --bin serve_microbench -- --smoke

# The ingest microbenchmark's smoke mode asserts the streaming data
# plane's contract: the consumed sample sequence hashes identically at
# 1/2/4 reader workers, with the buffer pool on or off, and under a
# seeded elastic churn schedule; the steady-state stream performs zero
# pool-tracked fresh allocations; and the streaming engine delivers
# >= 2x the seed pull model's samples/sec at 4 workers.
# Writes BENCH_ingest.json.
step cargo run --release -q -p exaclim-bench --bin ingest_microbench -- --smoke

# The fused-optimizer microbenchmark's smoke mode asserts the fused
# plane's contract: {Sgd, Adam, LarcSgd, Lagged} x overlap x fused all
# produce bit-identical parameters, and the exposed post-backward tail
# (comm join + optimizer) with worker-side bucket applies is no slower
# than the legacy serial step at 1 and 4 ranks (best-of-steps, with
# retries so scheduler noise on oversubscribed hosts cannot fail a
# structurally sound build). Writes BENCH_optim.json.
step cargo run --release -q -p exaclim-bench --bin optim_microbench -- --smoke

# The fused-optimizer determinism matrix adds the SIMD and kernel-pool
# axes on top, plus the EXCK v2 optimizer-trailer crossing between the
# fused and legacy planes.
step cargo test -q -p exaclim-core --test fused_optim_determinism

if ((${#failed[@]})); then
    echo "tier1: ${#failed[@]} step(s) failed:"
    printf '  %s\n' "${failed[@]}"
    exit 1
fi
echo "tier1: all steps passed"
