#!/usr/bin/env bash
# ci/check.sh — the full correctness gauntlet (see docs/development.md).
#
#   1. release build + full ctest (includes the analyze_tree and
#      dropped_status_* tests)
#   2. asan-ubsan build + full ctest, then the fault sweep: the
#      failpoint + deadline suites re-run with DIVA_THREADS=8, and the
#      serve chaos sweep: the serve suites re-run with DIVA_THREADS=8
#      (the CI serve-chaos job)
#   3. tsan build + full ctest with DIVA_THREADS>=8 (gates the thread
#      pool: the parallel layer must be race-free at real width)
#   4. static checks: tools/diva_analyze.py src examples bench tests
#      (the nine determinism, locking and instrumentation checks; a
#      dropped Status is the compiler's -Werror=unused-result)
#   5. the analysis-fixture suite, plus a clang -Wthread-safety -Werror
#      build of the clang-analyze preset when clang++ is installed
#      (skipped with a notice otherwise)
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
#      diff at tolerance 0 — the >=5x payoff ratio is gated in CI and
#      only printed here, at both widths
#  11. serve gate: diva_loadgen (steady + overload replay against an
#      in-process server) vs bench/baselines/BENCH_serve.json — the
#      crash-tolerance invariants gate, latency keys stay informational
#  12. bench_micro: one short pass of the baseline and CSV benches, no
#      timing gate, so the DIVA_CHECKs inside them fire
#  13. bench_smoke: the thread sweep at widths 1, 2 and nproc (the CI
#      bench-smoke job); fails on nondeterminism
#  14. diva_bench selftest: the end-to-end benchmark builds from source
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
    -R "FaultInjectionTest|DeadlineTest|CancellationTokenTest|TaskGroupTest|ColoringBudgetTest|DivaDeadlineTest|CsvTest|CsvFuzzTest|WireFuzzTest|DeltaFuzzTest"

  # Every serve.* failpoint under client storms, overload and
  # SIGTERM-mid-storm drain, with the pool at real width (mirrors the CI
  # serve-chaos job).
  step "serve chaos sweep: asan-ubsan serve suites (DIVA_THREADS=8)"
  DIVA_THREADS=8 ctest --preset asan-ubsan -j "$JOBS" --output-on-failure \
    -R "ServeChaosTest|ServeProtocolTest|ServeAdmissionTest|ServeSnapshotTest|ServeBackoffTest|ServeServerTest"

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
# Informational: the local view of CI's >=5x payoff gate. No threshold
# here; this container's cores and noise are not CI's.
for width in 1 8; do
  python3 -c '
import json, sys
leg = json.load(open(sys.argv[1]))["churn_1m"]
ratio = leg["cold_wall_seconds"] / leg["incremental_wall_seconds"]
print("incremental payoff at DIVA_THREADS=%s: cold/incremental = %.2fx"
      % (sys.argv[2], ratio))' "/tmp/BENCH_incremental_t${width}.$$.json" "$width"
done
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

# Mirrors the CI bench-smoke job: the same workloads at widths 1, 2 and
# nproc must publish identical results.
step "bench_smoke: thread sweep (DIVA_BENCH_THREADS=1,2,$(nproc))"
cmake --build --preset release -j "$JOBS" --target bench_smoke
DIVA_BENCH_THREADS="1,2,$(nproc)" \
  ./build/release/bench/bench_smoke /tmp/BENCH_smoke.$$.json
rm -f /tmp/BENCH_smoke.$$.json

step "diva_bench selftest: every workload at --tiny size"
python3 diva_bench/selftest.py

step "static checks: tools/diva_analyze.py src examples bench tests"
python3 tools/diva_analyze.py src examples bench tests

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
    $(find src tests -name '*.cc' ! -path 'tests/analysis_fixtures/*' \
      ! -path 'tests/compile_fail/*' | sort)
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
