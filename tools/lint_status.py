#!/usr/bin/env python3
"""Tree-grep lints: dropped Status, raw threading/clocks, ad-hoc probes.

Check 1 (Status): no Status-returning call may be a bare statement.
Check 2 (threads): std::thread / std::async / std::jthread may appear
only in src/common/parallel.{h,cc} — everything else must go through the
audited parallel layer (ThreadPool / ParallelFor / TaskGroup), which is
what keeps DIVA's outputs bit-identical across thread counts and keeps
the tsan surface in one file.
Check 3 (clocks): std::chrono::steady_clock / system_clock /
high_resolution_clock may appear only under src/common/ (timer.h,
deadline.{h,cc}) — everything else must use MonotonicSeconds /
StopWatch / PhaseTimer / Deadline so that all reported timings and all
deadline decisions come from one monotonic clock.
Check 4 (ad-hoc instrumentation): library code under src/ outside
common/ may not call the C timing APIs (gettimeofday, clock_gettime,
timespec_get, clock) or the printf family (printf/fprintf/puts/fputs) —
leftover measurement hacks belong in the span tracer (DIVA_TRACE_SPAN)
and counter registry (DIVA_COUNTER_ADD), and user-facing text belongs to
the CLIs, not the library. A deliberate diagnostic escape hatch is
`// lint: allow-print` on the call's line or the line above.
Check 5 (vector<bool>): std::vector<bool> is banned in src/core/ and
src/constraint/ — the search hot path does membership tests and set
intersections over row sets, and the packed-word Bitset
(common/bitset.h) does those word-wise with popcount kernels instead of
per-element proxy reads. A vector<bool> creeping back in silently
reverts the kernels to bit-proxy loops.
Raw randomness (rand() / srand() / std::random_device) is not checked
here: tools/diva_analyze.py's raw-random check owns that rule.

Escape hatches are uniform: `// lint: allow-<tag>` on the flagged line
or the line directly above (tags: discard, thread, clock, print,
vector-bool), with a justification in the comment.
tests/analysis_fixtures/ is skipped wholesale — those files are analyzer
input that violates the rules on purpose.

The compiler already rejects discarded [[nodiscard]] Status/Result values,
but only for translation units it compiles; this lint is a belt-and-braces
pass that works on a plain checkout (no compile_commands.json needed) and
also catches calls hidden from the compiler (e.g. behind disabled #ifdef
branches or templates that are never instantiated).

Pass 1 scans headers under the given roots for Status-returning function
names. Pass 2 scans sources for any of those names called in statement
position — i.e. the call is the whole expression statement — which drops
the Status on the floor. Sanctioned patterns:

    DIVA_RETURN_IF_ERROR(DoThing());
    Status s = DoThing();            // consumed
    return DoThing();                // propagated
    (void)DoThing();  // lint: allow-discard

Exit code 0 = clean, 1 = violations found, 2 = usage error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# Status factory names are never flagged: `Status::Internal("x");` as a
# statement is dead code, not a dropped result, and flagging them would
# produce noise on the factory definitions themselves.
FACTORY_NAMES = {
    "OK",
    "InvalidArgument",
    "NotFound",
    "Infeasible",
    "BudgetExhausted",
    "Internal",
    "IoError",
    "DeadlineExceeded",
}

ALLOW_PREFIX = "lint: allow-"
ALLOW_COMMENT = ALLOW_PREFIX + "discard"  # spelled out in messages


def allowed(raw_lines: list[str], line_no: int, tag: str) -> bool:
    """Unified escape-hatch test: `// lint: allow-<tag>` on the flagged
    line or the line directly above suppresses the finding."""
    needle = ALLOW_PREFIX + tag
    for ln in (line_no, line_no - 1):
        if 1 <= ln <= len(raw_lines) and needle in raw_lines[ln - 1]:
            return True
    return False


DECL_RE = re.compile(
    r"(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+)*Status\s+(\w+)\s*\("
)


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving offsets.

    Newlines inside block comments survive so line numbers stay correct.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (j - i - 1) + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_status_functions(roots: list[Path]) -> set[str]:
    names: set[str] = set()
    for root in roots:
        for header in sorted(root.rglob("*.h")):
            text = strip_comments_and_strings(header.read_text())
            for match in DECL_RE.finditer(text):
                name = match.group(1)
                if name not in FACTORY_NAMES:
                    names.add(name)
    return names


# Statement prefix allowed before a flagged call: an object chain like
# `taxonomy.` / `relation->` / `Taxonomy::` (method/static calls in
# statement position are still drops and stay flagged — the prefix match
# only tells us the call *is* the whole statement).
OBJECT_CHAIN_RE = re.compile(r"^[A-Za-z_]\w*(?:(?:\.|->|::)[A-Za-z_]\w*)*(?:\.|->|::)$")


def find_violations(path: Path, names: set[str]) -> list[tuple[int, str]]:
    raw = path.read_text()
    text = strip_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    violations = []
    name_re = re.compile(
        r"(?<![\w.])(" + "|".join(re.escape(n) for n in sorted(names)) + r")\s*\("
    )
    for match in name_re.finditer(text):
        start = match.start()
        # Walk back to the start of the statement.
        boundary = max(text.rfind(ch, 0, start) for ch in ";{}")
        prefix = text[boundary + 1 : start].strip()
        # `foo(...)` or `obj.foo(...)` / `ns::foo(...)` as the entire
        # statement prefix => the value cannot be consumed.
        if prefix and not OBJECT_CHAIN_RE.fullmatch(prefix):
            continue
        line_no = text.count("\n", 0, start) + 1
        line = raw_lines[line_no - 1] if line_no <= len(raw_lines) else ""
        if allowed(raw_lines, line_no, "discard"):
            continue
        violations.append((line_no, line.strip()))
    return violations


# Raw threading primitives; <thread> is implied by the symbols. Matched
# on comment/string-stripped text, so prose mentions never flag.
THREAD_RE = re.compile(r"std\s*::\s*(?:thread|jthread|async)\b")

# The one sanctioned home for raw threading (the audited parallel layer).
THREAD_ALLOWED_SUFFIXES = ("common/parallel.h", "common/parallel.cc")


def find_thread_violations(path: Path) -> list[tuple[int, str]]:
    if str(path).replace("\\", "/").endswith(THREAD_ALLOWED_SUFFIXES):
        return []
    raw = path.read_text()
    text = strip_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    violations = []
    for match in THREAD_RE.finditer(text):
        line_no = text.count("\n", 0, match.start()) + 1
        line = raw_lines[line_no - 1] if line_no <= len(raw_lines) else ""
        if allowed(raw_lines, line_no, "thread"):
            continue
        violations.append((line_no, line.strip()))
    return violations


# Raw clock reads. Matched on comment/string-stripped text.
CLOCK_RE = re.compile(
    r"std\s*::\s*chrono\s*::\s*"
    r"(?:steady_clock|system_clock|high_resolution_clock)\b"
)

# The sanctioned home for raw clocks: the timing/deadline helpers.
CLOCK_ALLOWED_DIR = "common/"


def find_clock_violations(path: Path) -> list[tuple[int, str]]:
    parts = str(path).replace("\\", "/").split("/")
    if CLOCK_ALLOWED_DIR.rstrip("/") in parts[:-1]:
        return []
    raw = path.read_text()
    text = strip_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    violations = []
    for match in CLOCK_RE.finditer(text):
        line_no = text.count("\n", 0, match.start()) + 1
        line = raw_lines[line_no - 1] if line_no <= len(raw_lines) else ""
        if allowed(raw_lines, line_no, "clock"):
            continue
        violations.append((line_no, line.strip()))
    return violations


# Ad-hoc instrumentation left behind by profiling/debugging sessions.
# Library code measures time through common/timer.h + trace spans and
# reports through counters or Status — not raw clock syscalls or stdio.
RAW_TIME_RE = re.compile(
    r"(?<![\w:])(?:std\s*::\s*)?(?:gettimeofday|clock_gettime|timespec_get)\s*\("
    r"|(?<![\w.])std\s*::\s*clock\s*\(\s*\)"
)

PRINT_RE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*)?(?:printf|fprintf|puts|fputs)\s*\("
)

ALLOW_PRINT_COMMENT = "lint: allow-print"

# Only library code is held to this; the CLIs (examples/), benchmarks and
# tests print to the user by design, and common/ owns the sanctioned
# logging/timing implementations themselves.
INSTRUMENTATION_ROOT = "src"
INSTRUMENTATION_EXEMPT_DIR = "common"


def find_instrumentation_violations(path: Path) -> list[tuple[int, str, str]]:
    parts = str(path).replace("\\", "/").split("/")
    if INSTRUMENTATION_ROOT not in parts[:-1]:
        return []
    if INSTRUMENTATION_EXEMPT_DIR in parts[:-1]:
        return []
    raw = path.read_text()
    text = strip_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    violations = []
    for kind, pattern in (("raw timing call", RAW_TIME_RE),
                          ("stdio print", PRINT_RE)):
        for match in pattern.finditer(text):
            line_no = text.count("\n", 0, match.start()) + 1
            line = raw_lines[line_no - 1] if line_no <= len(raw_lines) else ""
            if allowed(raw_lines, line_no, "print"):
                continue
            violations.append((line_no, line.strip(), kind))
    return violations


# std::vector<bool> in the search hot path. Matched on comment/string-
# stripped text so prose mentions never flag.
VECTOR_BOOL_RE = re.compile(r"std\s*::\s*vector\s*<\s*bool\s*>")

# Directories held to the Bitset rule (the coloring/clustering hot path
# and the constraint machinery feeding it).
VECTOR_BOOL_DIRS = ("core", "constraint")


def find_vector_bool_violations(path: Path) -> list[tuple[int, str]]:
    parts = str(path).replace("\\", "/").split("/")
    if "src" not in parts[:-1]:
        return []
    if not any(d in parts[:-1] for d in VECTOR_BOOL_DIRS):
        return []
    raw = path.read_text()
    text = strip_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    violations = []
    for match in VECTOR_BOOL_RE.finditer(text):
        line_no = text.count("\n", 0, match.start()) + 1
        line = raw_lines[line_no - 1] if line_no <= len(raw_lines) else ""
        if allowed(raw_lines, line_no, "vector-bool"):
            continue
        violations.append((line_no, line.strip()))
    return violations


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(f"usage: {argv[0]} <source-root>...", file=sys.stderr)
        return 2
    roots = [Path(arg) for arg in argv[1:]]
    for root in roots:
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2

    names = collect_status_functions(roots)
    if not names:
        print("lint_status: no Status-returning functions found", file=sys.stderr)
        return 2

    failures = 0
    for root in roots:
        sources = sorted(
            list(root.rglob("*.cc"))
            + list(root.rglob("*.cpp"))
            + list(root.rglob("*.h"))
            + list(root.rglob("*.hpp"))
        )
        for source in sources:
            # The analysis fixtures violate the rules on purpose; they
            # are input for tools/diva_analyze.py, never compiled code.
            if "analysis_fixtures" in source.parts:
                continue
            if source.suffix in (".cc", ".cpp"):
                for line_no, line in find_violations(source, names):
                    print(
                        f"{source}:{line_no}: dropped Status: `{line}` "
                        f"(wrap in DIVA_RETURN_IF_ERROR or consume the value; "
                        f"`(void)... // {ALLOW_COMMENT}` if intentional)"
                    )
                    failures += 1
            for line_no, line in find_thread_violations(source):
                print(
                    f"{source}:{line_no}: raw threading primitive: `{line}` "
                    f"(use common/parallel.h — ThreadPool, ParallelFor or "
                    f"TaskGroup — instead of std::thread/std::async)"
                )
                failures += 1
            for line_no, line in find_clock_violations(source):
                print(
                    f"{source}:{line_no}: raw chrono clock: `{line}` "
                    f"(use common/timer.h — MonotonicSeconds, StopWatch, "
                    f"PhaseTimer — or common/deadline.h instead)"
                )
                failures += 1
            for line_no, line in find_vector_bool_violations(source):
                print(
                    f"{source}:{line_no}: std::vector<bool> in the search "
                    f"hot path: `{line}` (use Bitset from common/bitset.h — "
                    f"packed words, popcount intersection kernels)"
                )
                failures += 1
            for line_no, line, kind in find_instrumentation_violations(source):
                print(
                    f"{source}:{line_no}: {kind} in library code: `{line}` "
                    f"(instrument with DIVA_TRACE_SPAN / DIVA_COUNTER_ADD, "
                    f"time with common/timer.h; `// {ALLOW_PRINT_COMMENT}` "
                    f"on or above the call if deliberate)"
                )
                failures += 1

    if failures:
        print(f"lint_status: {failures} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_status: OK ({len(names)} Status-returning functions checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
