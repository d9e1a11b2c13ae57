#!/usr/bin/env python3
"""Asserts tools/diva_analyze.py behaves exactly as specified on the
analysis fixtures.

Every fixture .cc file declares its expected outcome inline:

    // path-role: <role>        (optional; default src)
    // expect: <check>=<count> [<check>=<count> ...]
    // expect-suppressed: <check>=<count> ...

The path role is passed to the analyzer's --path-role, so a fixture
can stand in for a rule's sanctioned home (parallel-home, common) or
for the search hot path (hot-path). Unlisted checks are expected to
produce zero findings, so a clean fixture asserts the absence of false
positives just as strictly as a violation fixture asserts detection.
The expected exit code is derived: 1 when any active finding is
expected, else 0 (the suppression fixture must exit 0 despite nine
findings).

Each fixture runs under the lexical fallback engine and under --engine
auto; with the clang python bindings installed (CI) auto resolves to the
libclang AST engine, so the same expectations pin both engines to
identical behavior.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent
REPO_ROOT = FIXTURE_DIR.parents[1]
ANALYZER = REPO_ROOT / "tools" / "diva_analyze.py"

CHECKS = (
    "unordered-sink",
    "pointer-order",
    "raw-mutex",
    "raw-random",
    "raw-thread",
    "raw-clock",
    "adhoc-instrumentation",
    "vector-bool",
    "mutable-global",
)

EXPECT_RE = re.compile(r"^\s*//\s*expect(-suppressed)?:\s*(.*)$")
ROLE_RE = re.compile(r"^\s*//\s*path-role:\s*([\w-]+)\s*$", re.MULTILINE)


def read_role(path: Path) -> str:
    match = ROLE_RE.search(path.read_text())
    return match.group(1) if match else "src"


def read_expectations(path: Path) -> tuple[dict[str, int], dict[str, int]]:
    active = {check: 0 for check in CHECKS}
    suppressed = {check: 0 for check in CHECKS}
    tagged = False
    for line in path.read_text().splitlines():
        match = EXPECT_RE.match(line)
        if not match:
            continue
        tagged = True
        bucket = suppressed if match.group(1) else active
        for check, count in re.findall(r"([\w-]+)=(\d+)", match.group(2)):
            if check not in bucket:
                raise ValueError(f"{path.name}: unknown check in expect: {check}")
            bucket[check] = int(count)
    if not tagged:
        raise ValueError(f"{path.name}: fixture has no // expect: line")
    return active, suppressed


def count_by_check(findings: list[dict]) -> dict[str, int]:
    counts = {check: 0 for check in CHECKS}
    for finding in findings:
        counts[finding["check"]] += 1
    return counts


def run_fixture(path: Path, engine: str) -> list[str]:
    """Returns a list of failure messages (empty = pass)."""
    expected_active, expected_suppressed = read_expectations(path)
    expected_exit = 1 if sum(expected_active.values()) else 0

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        report_path = Path(tmp.name)
    try:
        proc = subprocess.run(
            [
                sys.executable,
                str(ANALYZER),
                "--engine",
                engine,
                "--path-role",
                read_role(path),
                "--json",
                str(report_path),
                str(path),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        failures = []
        if proc.returncode != expected_exit:
            failures.append(
                f"exit code {proc.returncode}, expected {expected_exit}\n"
                f"  stdout: {proc.stdout.strip()}\n"
                f"  stderr: {proc.stderr.strip()}"
            )
        if proc.returncode == 2 or not report_path.read_text().strip():
            return failures or [f"no JSON report written (exit {proc.returncode})"]
        report = json.loads(report_path.read_text())
        actual_active = count_by_check(report["findings"])
        actual_suppressed = count_by_check(report["suppressed"])
        for check in CHECKS:
            if actual_active[check] != expected_active[check]:
                failures.append(
                    f"check {check}: {actual_active[check]} active finding(s), "
                    f"expected {expected_active[check]}"
                )
            if actual_suppressed[check] != expected_suppressed[check]:
                failures.append(
                    f"check {check}: {actual_suppressed[check]} suppressed, "
                    f"expected {expected_suppressed[check]}"
                )
        if engine == "fallback" and report["engine"] != "fallback":
            failures.append(f"engine {report['engine']}, expected fallback")
        return failures
    finally:
        report_path.unlink(missing_ok=True)


def main() -> int:
    fixtures = sorted(FIXTURE_DIR.glob("*.cc"))
    if not fixtures:
        print("fixture_test: no fixtures found", file=sys.stderr)
        return 2

    engines = ["fallback", "auto"]
    total = 0
    failed = 0
    suppression_exercised = False
    for engine in engines:
        for fixture in fixtures:
            total += 1
            failures = run_fixture(fixture, engine)
            label = f"{fixture.name} [{engine}]"
            if failures:
                failed += 1
                print(f"FAIL {label}")
                for failure in failures:
                    print(f"  {failure}")
            else:
                print(f"PASS {label}")
            _, expected_suppressed = read_expectations(fixture)
            if sum(expected_suppressed.values()):
                suppression_exercised = True

    if not suppression_exercised:
        print("FAIL no fixture exercises the allow-comment suppression path")
        failed += 1

    print(f"fixture_test: {total - failed}/{total} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
