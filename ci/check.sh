#!/usr/bin/env bash
# ci/check.sh — the full correctness gauntlet (see docs/development.md).
#
#   1. release build + full ctest (includes the lint_status test)
#   2. asan-ubsan build + full ctest, then the fault sweep: the
#      failpoint + deadline suites re-run with DIVA_THREADS=8
#   3. tsan build + full ctest with DIVA_THREADS>=8 (gates the thread
#      pool: the parallel layer must be race-free at real width)
#   4. tools/lint_status.py over src/ (dropped Status, raw-thread,
#      raw-clock, ad-hoc-instrumentation and vector<bool> lints)
#   5. static analysis: tools/diva_analyze.py over src/ (determinism +
#      locking invariants) and the analysis-fixture suite; plus a
#      clang -Wthread-safety -Werror build of the clang-analyze preset
#      when clang++ is installed (skipped with a notice otherwise)
#   6. clang-tidy over src/ and tests/ (skipped with a notice when not
#      installed)
#   7. coverage gate: gcovr line coverage >=80% on src/common/trace.*
#      and counters.* (skipped with a notice when gcovr is not installed)
#   8. bench gate: bench_coloring vs bench/baselines/BENCH_coloring.json
#      via tools/bench_diff.py (deterministic metrics, 10% tolerance)
#   9. scale gate: bench_scale (pinned 1M-row / 64-component shape, end
#      to end) vs bench/baselines/BENCH_scale.json, plus the
#      shard-equivalence cross-width diff at tolerance 0 — the shard
#      on/off output-hash equality is asserted inside the bench itself
#  10. incremental gate: bench_incremental (the bench_scale shape under
#      a 1% churn, cold re-run vs ApplyDelta replay; output-hash
#      equality asserted inside the bench) vs
#      bench/baselines/BENCH_incremental.json, plus the cross-width
#      diff at tolerance 0 — the >=5x payoff ratio is gated in CI
#  11. serve gate: diva_loadgen (steady + overload replay against an
#      in-process server) vs bench/baselines/BENCH_serve.json — the
#      crash-tolerance invariants gate, latency keys stay informational
#  12. bench_micro: one short pass of the baseline and CSV benches, no
#      timing gate, so the DIVA_CHECKs inside them fire
#  13. diva_bench selftest: the end-to-end benchmark builds from source
#      and runs every workload at its tiny size, traced and untraced;
#      its result format must match BENCHMARK.json
#
# Usage: ci/check.sh [--skip-sanitizers] [--threads N]
#
# --threads N runs every ctest leg with DIVA_THREADS=N (the tsan leg
# still forces at least 8 so the pool is genuinely concurrent there).

set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_SANITIZERS=0
THREADS=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --skip-sanitizers) SKIP_SANITIZERS=1; shift ;;
    --threads)
      [[ $# -ge 2 ]] || { echo "--threads needs a value" >&2; exit 2; }
      THREADS="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ -n "$THREADS" ]]; then
  export DIVA_THREADS="$THREADS"
fi

# The tsan leg always runs wide: a width-1 pool spawns no workers and
# would make the race check vacuous.
TSAN_THREADS="${THREADS:-8}"
if [[ "$TSAN_THREADS" -lt 8 ]]; then
  TSAN_THREADS=8
fi

JOBS="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n==> %s\n' "$*"; }

step "release: configure + build"
cmake --preset release
cmake --build --preset release -j "$JOBS"

step "release: ctest${THREADS:+ (DIVA_THREADS=$THREADS)}"
ctest --preset release -j "$JOBS"

if [[ "$SKIP_SANITIZERS" -eq 0 ]]; then
  step "asan-ubsan: configure + build"
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$JOBS"

  step "asan-ubsan: ctest${THREADS:+ (DIVA_THREADS=$THREADS)}"
  ctest --preset asan-ubsan -j "$JOBS"

  # The fault sweep re-runs the failpoint and deadline suites with the
  # pool at real width: injected faults and tripped deadlines must
  # surface as clean Status errors while worker threads are genuinely
  # claiming chunks (mirrors the CI fault-sweep job).
  step "fault sweep: asan-ubsan failpoint + deadline tests (DIVA_THREADS=8)"
  DIVA_THREADS=8 ctest --preset asan-ubsan -j "$JOBS" \
    -R "FaultInjectionTest|DeadlineTest|CancellationTokenTest|PoolCancellationTest|TaskGroupTest|ColoringBudgetTest|DivaDeadlineTest|CsvTest|CsvFuzzTest|WireFuzzTest|DeltaFuzzTest"

  step "tsan: configure + build"
  cmake --preset tsan
  cmake --build --preset tsan -j "$JOBS"

  step "tsan: ctest (DIVA_THREADS=$TSAN_THREADS)"
  DIVA_THREADS="$TSAN_THREADS" ctest --preset tsan -j "$JOBS"
else
  step "asan-ubsan: SKIPPED (--skip-sanitizers)"
  step "tsan: SKIPPED (--skip-sanitizers)"
fi

step "bench gate: bench_coloring vs bench/baselines/BENCH_coloring.json"
cmake --build --preset release -j "$JOBS" --target bench_coloring
DIVA_THREADS=1 \
  ./build/release/bench/bench_coloring /tmp/BENCH_coloring_t1.$$.json
python3 tools/bench_diff.py \
  bench/baselines/BENCH_coloring.json /tmp/BENCH_coloring_t1.$$.json

# Cross-width determinism: the restart attempts run in sequence and
# enumeration runs on the pool, so every deterministic metric must be
# byte-identical at width 8 (mirrors the thread-matrix CI job; timing
# keys are informational).
step "bench gate: cross-width determinism (DIVA_THREADS=1 vs 8, tolerance 0)"
DIVA_THREADS=8 \
  ./build/release/bench/bench_coloring /tmp/BENCH_coloring_t8.$$.json
python3 tools/bench_diff.py --tolerance 0 \
  /tmp/BENCH_coloring_t1.$$.json /tmp/BENCH_coloring_t8.$$.json
rm -f /tmp/BENCH_coloring_t1.$$.json /tmp/BENCH_coloring_t8.$$.json

step "scale gate: bench_scale vs bench/baselines/BENCH_scale.json"
cmake --build --preset release -j "$JOBS" --target bench_scale
DIVA_THREADS=1 \
  ./build/release/bench/bench_scale /tmp/BENCH_scale_t1.$$.json
python3 tools/bench_diff.py \
  bench/baselines/BENCH_scale.json /tmp/BENCH_scale_t1.$$.json

# Shard equivalence at width: the sharded pipeline's deterministic shape
# metrics are exact at every pool width (the published-bytes hash
# equality across shard on/off is a DIVA_CHECK inside the bench); the
# end-to-end t1/t8 payoff ratio is gated in CI, where real cores exist.
step "scale gate: cross-width determinism (DIVA_THREADS=1 vs 8, tolerance 0)"
DIVA_THREADS=8 \
  ./build/release/bench/bench_scale /tmp/BENCH_scale_t8.$$.json
python3 tools/bench_diff.py --tolerance 0 \
  /tmp/BENCH_scale_t1.$$.json /tmp/BENCH_scale_t8.$$.json
rm -f /tmp/BENCH_scale_t1.$$.json /tmp/BENCH_scale_t8.$$.json

step "incremental gate: bench_incremental vs bench/baselines/BENCH_incremental.json"
cmake --build --preset release -j "$JOBS" --target bench_incremental
DIVA_THREADS=1 \
  ./build/release/bench/bench_incremental /tmp/BENCH_incremental_t1.$$.json
python3 tools/bench_diff.py \
  bench/baselines/BENCH_incremental.json /tmp/BENCH_incremental_t1.$$.json

# The cold-vs-incremental output-hash equality is a DIVA_CHECK inside
# the bench; the deterministic metrics (including the hash halves and
# the reused-shard count) are exact at every pool width. The >=5x
# cold/incremental payoff ratio is gated in CI, where real cores exist.
step "incremental gate: cross-width determinism (DIVA_THREADS=1 vs 8, tolerance 0)"
DIVA_THREADS=8 \
  ./build/release/bench/bench_incremental /tmp/BENCH_incremental_t8.$$.json
python3 tools/bench_diff.py --tolerance 0 \
  /tmp/BENCH_incremental_t1.$$.json /tmp/BENCH_incremental_t8.$$.json
rm -f /tmp/BENCH_incremental_t1.$$.json /tmp/BENCH_incremental_t8.$$.json

step "serve gate: diva_loadgen vs bench/baselines/BENCH_serve.json"
cmake --build --preset release -j "$JOBS" --target diva_loadgen
DIVA_THREADS=1 \
  ./build/release/examples/diva_loadgen --json /tmp/BENCH_serve_t1.$$.json
python3 tools/bench_diff.py \
  bench/baselines/BENCH_serve.json /tmp/BENCH_serve_t1.$$.json

# Cross-width check: the serve invariants (accounting, leaks, audits)
# are exact at every pool width; exec_/timing keys are informational.
step "serve gate: cross-width invariants (DIVA_THREADS=1 vs 8, tolerance 0)"
DIVA_THREADS=8 \
  ./build/release/examples/diva_loadgen --json /tmp/BENCH_serve_t8.$$.json
python3 tools/bench_diff.py --tolerance 0 \
  /tmp/BENCH_serve_t1.$$.json /tmp/BENCH_serve_t8.$$.json
rm -f /tmp/BENCH_serve_t1.$$.json /tmp/BENCH_serve_t8.$$.json

# bench_micro runs no timing gate; one short pass makes the DIVA_CHECKs
# inside its baseline and CSV benches fire (every BuildClusters call
# must succeed, every CSV read must return its rows).
step "bench_micro: one short pass of the baseline and CSV benches"
cmake --build --preset release -j "$JOBS" --target bench_micro
./build/release/bench/bench_micro \
  --benchmark_filter='KMember|Oka|Mondrian|Csv' --benchmark_min_time=0.01

step "diva_bench selftest: every workload at --tiny size"
python3 diva_bench/selftest.py

step "lint: tools/lint_status.py src examples bench tests"
python3 tools/lint_status.py src examples bench tests

step "static analysis: tools/diva_analyze.py src (determinism + locking)"
python3 tools/diva_analyze.py --compdb build/release \
  --json /tmp/diva_analyze.$$.json src
rm -f /tmp/diva_analyze.$$.json

step "static analysis: raw-random over examples bench tests"
python3 tools/diva_analyze.py --only raw-random examples bench tests

step "static analysis: fixture suite (tests/analysis_fixtures)"
python3 tests/analysis_fixtures/fixture_test.py

if command -v clang++ >/dev/null 2>&1; then
  step "clang-analyze: -Wthread-safety -Werror build (locking proof)"
  cmake --preset clang-analyze
  cmake --build --preset clang-analyze -j "$JOBS"
else
  step "clang-analyze: SKIPPED (clang++ not installed; CI runs it)"
fi

if command -v clang-tidy >/dev/null 2>&1; then
  step "clang-tidy over src/ and tests/ (compile db: build/release)"
  # shellcheck disable=SC2046
  clang-tidy -p build/release --quiet \
    $(find src tests -name '*.cc' ! -path 'tests/analysis_fixtures/*' | sort)
else
  step "clang-tidy: SKIPPED (not installed; config is .clang-tidy)"
fi

if command -v gcovr >/dev/null 2>&1; then
  step "coverage: build + ctest (coverage preset)"
  cmake --preset coverage
  cmake --build --preset coverage -j "$JOBS"
  ctest --preset coverage -j "$JOBS"

  step "coverage gate: >=80% lines on src/common/trace.* + counters.*"
  gcovr --root . \
    --filter 'src/common/trace\.' \
    --filter 'src/common/counters\.' \
    --fail-under-line 80 --print-summary
else
  step "coverage: SKIPPED (gcovr not installed)"
fi

step "all checks passed"
