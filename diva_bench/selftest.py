#!/usr/bin/env python3
"""Self-tests of diva_bench, on the tiny size of every workload.

Usage (from the repository root):  python3 diva_bench/selftest.py

Checks that BENCHMARK.json is well formed; that every workload, traced and
untraced, exits 0 and prints as its last line a result with exactly the
keys correct, attempted, failed and metrics, holding exactly the
BENCHMARK.json metrics of that mode with their units, with correct true
and no failure; and that in a directory holding only BENCHMARK.json and
diva_bench/ the command fails without printing a result. Exit status 0
when all hold.
"""

import json
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def validate_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= spec["run_seconds"] <= 60, "run_seconds in [1, 60]")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    names = []
    for workload in spec["workloads"]:
        names.append(workload["name"])
        check(set(workload) == {"name", "why"} and len(workload["why"]) <= 200
              and "\n" not in workload["why"], f"workload {workload['name']}")
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for metric in spec[group]:
            names.append(metric["name"])
            check(set(metric) == keys and UNIT.match(metric["unit"]) and
                  metric["better"] in ("higher", "lower") and
                  metric.get("bound", 0) <= 0.25, f"{group} {metric['name']}")
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
          "names valid and unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["bound"] ==
          max(m["bound"] for m in spec["end_to_end"]),
          "setup_s present with the largest bound")


def run(cwd, workload, trace):
    argv = spec["command"] + ["--workload", workload, "--seed", "3",
                              "--seconds", "2", "--trace", str(trace),
                              "--tiny"]
    return subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_result(workload, trace, done):
    what = f"{workload} trace {trace}"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        return check(False, f"{what}: exit {done.returncode}")
    result = json.loads(lines[-1])
    group = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[group]}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result keys")
    check(got == expected, f"{what}: metrics and units match BENCHMARK.json")
    check(result["correct"] is True and result["failed"] == 0 and
          result["attempted"] >= 1, f"{what}: correct, nothing failed")


with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    spec = json.load(handle)
validate_spec(spec)
for workload in [w["name"] for w in spec["workloads"]]:
    for trace in (0, 1):
        check_result(workload, trace, run(ROOT, workload, trace))

# Without the source tree the benchmark must fail, printing no result.
bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
shutil.rmtree(bare, ignore_errors=True)
os.makedirs(bare)
shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
shutil.copytree(BENCH_DIR, os.path.join(bare, "diva_bench"),
                ignore=shutil.ignore_patterns("__pycache__"))
done = run(bare, spec["workloads"][0]["name"], 0)
check(done.returncode != 0 and not done.stdout.strip(),
      "bare directory: non-zero exit, no result")
shutil.rmtree(bare, ignore_errors=True)

print(f"{len(failures)} failure(s)")
sys.exit(1 if failures else 0)
