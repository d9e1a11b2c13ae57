#!/usr/bin/env python3
"""diva_bench: builds the DIVA benchmark harness from source, generates a
workload's inputs from its seed, runs it, and prints the result.

Usage (from the repository root):

    python3 diva_bench/run.py --workload popsyn_100k|regions_churn|serve_mix \
        [--seed N] [--seconds S] [--trace 0|1] [--tiny] [--shape-seed N]

The last line of stdout is the result: one JSON object with exactly the
keys correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). The line before it is the
full result with its `_meta` provenance block; both are also saved under
.bench_build/results/. Build output and diagnostics go to stderr.

Exit status: 0 when every output check held, 1 when one failed, 2 when
the benchmark could not run (no source tree, build failure, timeout).
See diva_bench/README.md for the workloads, metrics and seeds.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
WORKLOADS = ("popsyn_100k", "regions_churn", "serve_mix")
# Everything a run does must end within this budget (the build excepted).
RUN_BUDGET_S = 170.0
# Files whose bytes define the program under test and the harness.
SOURCE_PARTS = ("CMakeLists.txt", "src", "examples/diva_serverd.cpp",
                "examples/example_util.h", "diva_bench")


def die(message):
    print(f"diva_bench: {message}", file=sys.stderr)
    sys.exit(2)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures once, then builds the two targets (a no-op when fresh)."""
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs(),
                  "--target", "diva_bench", "diva_serverd"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            die("build failed: " + " ".join(step))


def source_hash():
    digest = hashlib.sha256()
    for part in SOURCE_PARTS:
        path = os.path.join(ROOT, part)
        files = []
        if os.path.isdir(path):
            for base, _, names in os.walk(path):
                files.extend(os.path.join(base, name) for name in names)
        elif os.path.isfile(path):
            files.append(path)
        for name in sorted(files):
            if "__pycache__" in name:
                continue
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    """The checked-out commit, when the tree is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() or "unknown"


def run_child(argv, timeout):
    """Runs argv in its own session; on timeout the whole group dies."""
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        die(f"timed out: {' '.join(argv[:3])}")
    return child.returncode, out


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, same code path (self-tests)")
    parser.add_argument("--shape-seed", type=int, default=None,
                        help="QI shape seed (default 5, held out 2)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    for part in ("CMakeLists.txt", "src", "examples/diva_serverd.cpp"):
        if not os.path.exists(os.path.join(ROOT, part)):
            die(f"no DIVA source tree here (missing {part})")
    build()

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.tiny:
        tag += "-tiny"
    if args.shape_seed is not None:
        tag += f"-shape{args.shape_seed}"
    work = os.path.join(BUILD_ROOT, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    binary = os.path.join(CMAKE_DIR, "diva_bench")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    if args.tiny:
        common.append("--tiny")
    if args.shape_seed is not None:
        common += ["--shape-seed", str(args.shape_seed)]

    code, _ = run_child([binary, "gen"] + common,
                        RUN_BUDGET_S - (time.monotonic() - started))
    if code != 0:
        die("input generation failed")
    # Flush the inputs (and any earlier run's files) now, so their
    # writeback does not land inside the timed work.
    os.sync()
    code, out = run_child(
        [binary, "run"] + common +
        ["--seconds", str(args.seconds), "--trace", str(args.trace),
         "--source-hash", source_hash(), "--commit", commit()],
        RUN_BUDGET_S - (time.monotonic() - started))
    lines = [line for line in out.splitlines() if line.strip()]
    if code not in (0, 1) or len(lines) < 2:
        die(f"run failed (exit {code})")

    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w") as handle:
        handle.write(lines[-2] + "\n")
    spans = os.path.join(work, "spans.json")
    if os.path.exists(spans):
        shutil.move(spans, os.path.join(results, tag + ".spans.json"))
    shutil.rmtree(work, ignore_errors=True)

    print(lines[-2])
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
