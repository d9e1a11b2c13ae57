#!/usr/bin/env python3
"""Compare a bench JSON report against its recorded baseline.

Usage:
    bench_diff.py <baseline.json> <current.json> [--tolerance 0.10]
                  [--strict-timing]

Both files map shape names to flat {metric: number} objects (top-level
keys starting with "_" are metadata and ignored). Two metric classes:

* Deterministic metrics (steps, backtracks, memo hit/miss/eviction
  counts, target_sorts, attempts, ...): pure functions of the algorithm's
  decisions, byte-identical across machines and thread widths. Any drift
  beyond the tolerance FAILS the diff — these are the CI gate, because
  they move exactly when the search behavior or the hoisting/memo
  machinery regresses (e.g. target_sorts scaling with steps again) and
  never when the runner is merely slow.

* Timing metrics: machine-dependent. Classified by suffix — any key
  ending in "_ms" or "_seconds" (lower is better) or "_per_sec" (higher
  is better) — plus the legacy names in TIMING_KEYS (memo_speedup has no
  suffix). Reported in the delta table for humans, but only gated under
  --strict-timing (for use on quiet, calibrated hardware — refresh the
  baseline on the same machine first). Only worse-direction drift fails:
  faster is never a regression.

* Execution-scope metrics (any key starting with "exec_", e.g.
  exec_shard_speedup): describe how work was *scheduled* — wall-time
  ratios between execution modes — and legitimately vary with thread
  width and timing. Always informational, never gated, not even by
  --strict-timing.

Key-set drift is reported explicitly in both directions: a baseline
metric missing from the current report FAILS (the bench stopped
measuring something it promised), while a current-only metric is
surfaced as "extra" info (a new bench metric whose baseline hasn't been
refreshed yet — harmless, but visible so it doesn't rot unrecorded).

Exit code 0 = within tolerance, 1 = regression, 2 = usage/format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Legacy machine-dependent metrics without a classifying suffix.
TIMING_KEYS = {"wall_seconds", "memo_off_seconds", "steps_per_sec",
               "memo_speedup"}

# Legacy timing metrics where smaller is better; the rest improve upward.
LOWER_IS_BETTER = {"wall_seconds", "memo_off_seconds"}


def is_timing(metric: str) -> bool:
    """Machine-dependent metric: suffix-classified, plus legacy names."""
    return (metric.endswith(("_ms", "_seconds", "_per_sec"))
            or metric in TIMING_KEYS)


def lower_is_better(metric: str) -> bool:
    """Durations regress upward; rates (_per_sec) regress downward."""
    return (metric.endswith(("_ms", "_seconds"))
            or metric in LOWER_IS_BETTER)


def load(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_diff: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict):
        print(f"bench_diff: {path}: top level must be an object",
              file=sys.stderr)
        sys.exit(2)
    return {k: v for k, v in data.items() if not k.startswith("_")}


def relative_delta(base: float, cur: float) -> float:
    if base == cur:
        return 0.0
    if base == 0:
        return float("inf")
    return (cur - base) / abs(base)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative drift (default 0.10)")
    parser.add_argument("--strict-timing", action="store_true",
                        help="gate timing metrics too (quiet machines only)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    failures = []
    rows = []  # (shape, metric, base, cur, delta_str, status)
    for shape, base_metrics in sorted(baseline.items()):
        cur_metrics = current.get(shape)
        if not isinstance(cur_metrics, dict):
            failures.append(f"{shape}: missing from current report")
            continue
        for metric, base in sorted(base_metrics.items()):
            if not isinstance(base, (int, float)):
                continue
            cur = cur_metrics.get(metric)
            if not isinstance(cur, (int, float)):
                failures.append(f"{shape}.{metric}: missing from current")
                continue
            delta = relative_delta(float(base), float(cur))
            timing = is_timing(metric)
            execution = metric.startswith("exec_")
            gated = (not timing or args.strict_timing) and not execution
            if timing:
                # Only worse-direction drift can regress.
                worse = -delta if lower_is_better(metric) else delta
                regressed = gated and -worse > args.tolerance
            else:
                regressed = gated and abs(delta) > args.tolerance
            if regressed:
                status = "REGRESSED"
                failures.append(
                    f"{shape}.{metric}: {base:g} -> {cur:g} "
                    f"({delta:+.1%}, tolerance {args.tolerance:.0%})")
            elif not gated:
                status = "info"
            else:
                status = "ok"
            delta_str = f"{delta:+.1%}" if abs(delta) != float("inf") \
                else "new"
            rows.append((shape, metric, base, cur, delta_str, status))

    # Current-only shapes/metrics: never a failure (the baseline simply
    # predates them), but reported so new bench output is visibly
    # unrecorded until someone refreshes the baseline.
    extras = []
    for shape, cur_metrics in sorted(current.items()):
        if not isinstance(cur_metrics, dict):
            continue
        base_metrics = baseline.get(shape)
        if not isinstance(base_metrics, dict):
            base_metrics = {}
            extras.append(f"{shape}: shape missing from baseline")
        for metric, cur in sorted(cur_metrics.items()):
            if not isinstance(cur, (int, float)):
                continue
            if metric not in base_metrics:
                rows.append((shape, metric, float("nan"), cur, "-",
                             "extra"))

    name_width = max((len(f"{s}.{m}") for s, m, *_ in rows), default=20)
    print(f"{'metric':<{name_width}}  {'baseline':>12}  {'current':>12}  "
          f"{'delta':>8}  status")
    print("-" * (name_width + 46))
    for shape, metric, base, cur, delta_str, status in rows:
        base_str = f"{base:>12g}" if base == base else f"{'-':>12}"
        print(f"{shape + '.' + metric:<{name_width}}  {base_str}  "
              f"{cur:>12g}  {delta_str:>8}  {status}")
    for note in extras:
        print(f"note: {note} (current-only; refresh the baseline to "
              f"record it)")

    if failures:
        print(f"\nbench_diff: {len(failures)} regression(s):",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nbench_diff: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
