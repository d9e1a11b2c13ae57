#!/usr/bin/env python3
"""diva_analyze: static analyzer for DIVA's determinism + locking invariants.

DIVA's reproduction claims (byte-equal reports at every thread width,
step-for-step fig4/fig5 trajectories) rest on invariants the compiler
cannot express and the test suite can only sample. This tool checks them
on every file, every run:

  unordered-sink   Range-for over std::unordered_map/unordered_set whose
                   body (a) calls an order-sensitive sink — output/hash/
                   report/counter-style calls — or (b) appends to a
                   sequence (`push_back`/`emplace_back`) that is never
                   sorted later in the same function. Both leak hash-map
                   iteration order (which varies across libstdc++
                   versions, ASLR and insertions) into observable output.
                   The blessed idiom is: copy keys out, sort, iterate the
                   sorted copy — or reduce order-insensitively (sums,
                   min/max with a deterministic tie-break).
  pointer-order    Ordering comparison (< <= > >=) between two raw
                   pointer values, or std::less over a pointer type.
                   Pointer order changes run to run under ASLR; sorting
                   or branching on it is nondeterminism by construction
                   (compare indices or stable ids instead).
  raw-mutex        std::mutex / lock_guard / unique_lock / scoped_lock /
                   condition_variable outside common/mutex.h. All locking
                   goes through the annotated diva::Mutex wrapper so
                   Clang -Wthread-safety can prove GUARDED_BY invariants;
                   a raw mutex is invisible to that proof.
  raw-random       rand() / srand() / std::random_device outside
                   common/rng.*. Every randomized component must take an
                   explicit seed (diva::Rng) so runs are reproducible.
  raw-thread       std::thread / std::jthread / std::async outside
                   common/parallel.{h,cc}. Coarse work goes through
                   ThreadPool / ParallelFor / TaskGroup, which carry the
                   cancellation token and keep outputs bit-identical at
                   every thread width.
  raw-clock        std::chrono::{steady,system,high_resolution}_clock
                   outside common/. Timings and deadlines come from one
                   monotonic clock: timer.h (MonotonicSeconds, StopWatch,
                   PhaseTimer) and deadline.h.
  adhoc-instrumentation
                   C timing calls (gettimeofday, clock_gettime,
                   timespec_get, std::clock()) and the printf family
                   (printf, fprintf, puts, fputs) in src/ outside common/.
                   Library code measures with DIVA_TRACE_SPAN /
                   DIVA_COUNTER_ADD and reports through Status; printing
                   belongs to the CLIs.
  vector-bool      std::vector<bool> in src/core/ and src/constraint/. The
                   search hot path tests membership and intersects row
                   sets word-wise with common/bitset.h; a vector<bool>
                   reverts those kernels to bit-proxy loops.
  mutable-global   Mutable namespace-scope state in src/ outside common/
                   with no GUARDED_BY(...) / constinit justification.
                   Shared mutable globals outside the audited common/
                   concurrency layer are how iteration-order and race
                   bugs creep past review.

Escape hatch: `// analyze: allow-<check>` on the flagged line or the
line directly above, with a justification comment. Fixtures under
tests/analysis_fixtures/ assert that every check fires and that every
allow-comment suppresses.

Engines
-------
With the clang python bindings and a compile_commands.json available
(--compdb, or autodetected in build/*/), the two semantic checks
(unordered-sink, pointer-order) walk real clang ASTs: iterated types are
resolved through typedefs/aliases/members and pointer comparisons are
found by operand type, not by name. Without libclang the lexical engine
(comment/string-stripped scan with brace-scope tracking and alias
following) approximates both, so a plain checkout still gets the gate.
The other seven checks are lexical properties and behave identically in
both engines. A dropped Status / Result<T> is the compiler's rule
([[nodiscard]] with -Werror=unused-result), pinned by the
tests/compile_fail/ ctests, so no check here repeats it.

Usage:
  tools/diva_analyze.py src examples bench tests  # the lint gate
  tools/diva_analyze.py --compdb build/release --json findings.json src
  tools/diva_analyze.py --engine fallback --path-role src fixture.cc

Exit codes: 0 = clean, 1 = findings, 2 = usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

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

ALLOW_PREFIX = "analyze: allow-"

SOURCE_SUFFIXES = (".cc", ".cpp", ".h", ".hpp")


# --------------------------------------------------------------------------
# Shared lexical helpers
# --------------------------------------------------------------------------


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


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def match_bracket(text: str, open_pos: int, open_ch: str, close_ch: str) -> int:
    """Offset of the bracket matching text[open_pos], or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def match_angle(text: str, open_pos: int) -> int:
    """Offset of the '>' matching a '<' at open_pos; handles '>>'. -1 if
    the region does not look like a template argument list."""
    depth = 0
    i = open_pos
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i
        elif c in ";{}":
            return -1  # statement boundary: not a template list
        i += 1
    return -1


@dataclass
class Finding:
    check: str
    file: str
    line: int
    message: str
    snippet: str
    allowed: bool = False


class FileContext:
    """Per-file state shared by all checks: raw text, stripped text,
    brace-scope classification, and the allow-comment index."""

    def __init__(self, path: Path, role: str):
        self.path = path
        self.role = role
        self.raw = path.read_text()
        self.text = strip_comments_and_strings(self.raw)
        self.raw_lines = self.raw.splitlines()
        self._scopes = None  # lazy: list of (open, close, kind)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.raw_lines):
            return self.raw_lines[line - 1].strip()
        return ""

    def allowed(self, check: str, line: int) -> bool:
        tag = ALLOW_PREFIX + check
        for ln in (line, line - 1):
            if 1 <= ln <= len(self.raw_lines) and tag in self.raw_lines[ln - 1]:
                return True
        return False

    # -- brace scope classification ------------------------------------

    _SCOPE_KEYWORDS = {
        "namespace": "namespace",
        "struct": "record",
        "class": "record",
        "union": "record",
        "enum": "record",
    }

    def scopes(self) -> list[tuple[int, int, str]]:
        """Every brace pair as (open_offset, close_offset, kind) with
        kind in {namespace, record, function, init, block}."""
        if self._scopes is not None:
            return self._scopes
        text = self.text
        pairs = []
        stack = []
        for i, c in enumerate(text):
            if c == "{":
                stack.append((i, self._classify_brace(i)))
            elif c == "}" and stack:
                open_pos, kind = stack.pop()
                pairs.append((open_pos, i, kind))
        for open_pos, kind in stack:  # unbalanced: close at EOF
            pairs.append((open_pos, len(text), kind))
        pairs.sort()
        self._scopes = pairs
        return pairs

    def _classify_brace(self, open_pos: int) -> str:
        """Classifies the '{' at open_pos from the statement text before
        it (since the last ; { or })."""
        text = self.text
        start = max(text.rfind(ch, 0, open_pos) for ch in ";{}")
        head = text[start + 1 : open_pos]
        # Preprocessor lines (#include/#if...) end at their newline and
        # are not part of the declaration introducing the brace.
        head = " ".join(
            ln for ln in head.splitlines() if not ln.lstrip().startswith("#")
        ).strip()
        if not head:
            return "block"
        first_word = re.match(r"(\w+)", head)
        if first_word and first_word.group(1) in (
            "if", "for", "while", "switch", "do", "else", "try", "catch",
        ):
            return "block"
        kind = self._SCOPE_KEYWORDS.get(first_word.group(1)) if first_word else None
        if kind is None:
            # `extern "C"` blocks behave like namespaces; strings are
            # blanked, so match the keyword alone.
            if re.match(r"extern\b", head):
                kind = "namespace"
        if kind:
            return kind
        tail = re.sub(r"\b(?:const|noexcept|override|final|mutable)\b", "", head)
        tail = re.sub(r"DIVA_\w+\s*(?:\([^()]*\))?", "", tail).strip()
        if tail.endswith(")") or re.search(r"->\s*[\w:<>,\s&*]+$", tail):
            return "function"  # fn body, lambda body, or control stmt
        if tail.endswith("=") or tail.endswith(","):
            return "init"
        return "block"

    def enclosing(self, pos: int, kinds: tuple[str, ...]) -> tuple[int, int] | None:
        """Innermost enclosing brace pair of one of `kinds` around pos."""
        best = None
        for open_pos, close_pos, kind in self.scopes():
            if kind in kinds and open_pos < pos < close_pos:
                if best is None or open_pos > best[0]:
                    best = (open_pos, close_pos)
        return best

    def at_namespace_scope(self, pos: int) -> bool:
        """True when every brace enclosing pos is a namespace."""
        for open_pos, close_pos, kind in self.scopes():
            if open_pos < pos < close_pos and kind != "namespace":
                return False
        return True


# --------------------------------------------------------------------------
# Lexical checks (identical in both engines)
# --------------------------------------------------------------------------

# Path roles (see path_role). Each lexical rule skips its sanctioned home.
COMMON_ROLES = ("common", "mutex-home", "rng", "parallel-home")
LIBRARY_ROLES = ("src", "hot-path")  # src/ outside common/

RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(?:_any)?)\b"
)

RAW_RANDOM_RE = re.compile(
    r"(?<![\w.:>])s?rand\s*\(|(?:std\s*::\s*)?\brandom_device\b"
)

RAW_THREAD_RE = re.compile(r"std\s*::\s*(?:thread|jthread|async)\b")

RAW_CLOCK_RE = re.compile(
    r"std\s*::\s*chrono\s*::\s*"
    r"(?:steady_clock|system_clock|high_resolution_clock)\b"
)

RAW_TIMING_RE = re.compile(
    r"(?<![\w:])(?:std\s*::\s*)?(?:gettimeofday|clock_gettime|timespec_get)\s*\("
    r"|(?<![\w.])std\s*::\s*clock\s*\(\s*\)"
)

PRINT_RE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*)?(?:printf|fprintf|puts|fputs)\s*\("
)

VECTOR_BOOL_RE = re.compile(r"std\s*::\s*vector\s*<\s*bool\s*>")

# (check, pattern, applies to role, message). Matched on comment- and
# string-stripped text, so prose mentions never fire.
LEXICAL_RULES = (
    ("raw-mutex", RAW_MUTEX_RE, lambda role: role != "mutex-home",
     "raw standard-library locking primitive; use diva::Mutex / "
     "MutexLock / CondVar from common/mutex.h so -Wthread-safety "
     "can check the locking invariants"),
    ("raw-random", RAW_RANDOM_RE, lambda role: role != "rng",
     "nondeterministic randomness source; use diva::Rng from "
     "common/rng.h with an explicit seed"),
    ("raw-thread", RAW_THREAD_RE, lambda role: role != "parallel-home",
     "raw threading primitive; use common/parallel.h (ThreadPool, "
     "ParallelFor or TaskGroup) instead of std::thread / std::async"),
    ("raw-clock", RAW_CLOCK_RE, lambda role: role not in COMMON_ROLES,
     "raw chrono clock; use common/timer.h (MonotonicSeconds, "
     "StopWatch, PhaseTimer) or common/deadline.h"),
    ("adhoc-instrumentation", RAW_TIMING_RE,
     lambda role: role in LIBRARY_ROLES,
     "raw timing call in library code; instrument with DIVA_TRACE_SPAN / "
     "DIVA_COUNTER_ADD and time with common/timer.h"),
    ("adhoc-instrumentation", PRINT_RE, lambda role: role in LIBRARY_ROLES,
     "stdio print in library code; report through Status, counters or "
     "trace spans and leave printing to the CLIs"),
    ("vector-bool", VECTOR_BOOL_RE, lambda role: role == "hot-path",
     "std::vector<bool> in the search hot path; use Bitset from "
     "common/bitset.h (packed words, popcount intersection kernels)"),
)

MUTABLE_GLOBAL_SKIP_RE = re.compile(
    r"^\s*(?:#|using\b|typedef\b|template\b|static_assert\b|friend\b|"
    r"extern\b|namespace\b|struct\b|class\b|union\b|enum\b|public\b|"
    r"private\b|protected\b|return\b|DIVA_[A-Z_]+\s*\()"
)

SORT_CALL_RE = re.compile(r"\b(?:std\s*::\s*)?(?:ranges\s*::\s*)?(?:stable_)?sort\s*\(")

SINK_CALL_RE = re.compile(
    r"\b(?:\w*(?:Write|Print|Append|Emit|Serialize|Report|ToJson|ToCsv)\w*"
    r"|\w*[Hh]ash\w*"
    r"|DIVA_COUNTER_ADD(?:_EXEC)?|DIVA_HISTOGRAM_RECORD(?:_EXEC)?"
    r"|printf|fprintf|fputs|puts)\s*\("
)

APPEND_RE = re.compile(r"([\w.>-]*?)(\w+)\s*\.\s*(?:push_back|emplace_back)\s*\(")


def check_lexical_rules(ctx: FileContext) -> list[Finding]:
    findings = []
    for check, pattern, applies, message in LEXICAL_RULES:
        if not applies(ctx.role):
            continue
        for match in pattern.finditer(ctx.text):
            line = line_of(ctx.text, match.start())
            findings.append(
                Finding(check, str(ctx.path), line, message, ctx.snippet(line))
            )
    return findings


def check_mutable_global(ctx: FileContext) -> list[Finding]:
    if ctx.role not in LIBRARY_ROLES:
        return []
    findings = []
    text = ctx.text
    pos = 0
    while True:
        semi = text.find(";", pos)
        if semi == -1:
            break
        start = max(text.rfind(ch, 0, semi) for ch in ";{}")
        stmt = text[start + 1 : semi]
        pos = semi + 1
        if not ctx.at_namespace_scope(semi):
            continue
        flat = " ".join(stmt.split())
        if not flat or MUTABLE_GLOBAL_SKIP_RE.match(flat):
            continue
        # Function declaration (no initializer, parameter list present).
        paren = flat.find("(")
        eq = flat.find("=")
        brace = flat.find("{")
        init = min(x for x in (eq, brace, len(flat)) if x != -1)
        if paren != -1 and paren < init:
            continue
        # Must look like a declaration: type tokens then a name.
        if not re.search(r"[\w>\]]\s*&?\s*\w+\s*(?:\[[^\]]*\])?\s*(?:=|\{|$)", flat):
            continue
        # Justifications: compile-time constness, constinit, or an
        # explicit lock annotation.
        if re.search(r"\b(?:constexpr|constinit)\b", flat):
            continue
        if "GUARDED_BY" in flat:
            continue
        if re.match(r"(?:static\s+|inline\s+|thread_local\s+)*const\b", flat) and (
            "*" not in flat.split("=")[0] or re.search(r"\*\s*const\b", flat)
        ):
            continue
        line = line_of(text, start + 1 + (len(stmt) - len(stmt.lstrip())))
        findings.append(
            Finding(
                "mutable-global",
                str(ctx.path),
                line,
                "mutable namespace-scope state outside common/; move it "
                "behind the audited concurrency layer, make it "
                "constexpr/constinit-const, or justify with "
                "// analyze: allow-mutable-global",
                ctx.snippet(line),
            )
        )
    return findings


# --------------------------------------------------------------------------
# Semantic checks — lexical (fallback) implementations
# --------------------------------------------------------------------------


def unordered_names(ctx: FileContext) -> set[str]:
    """Names of variables/fields/aliases of unordered map/set type,
    resolved through one level of `using X = std::unordered_...` alias."""
    text = ctx.text
    names: set[str] = set()
    aliases: set[str] = set()
    for match in re.finditer(
        r"\busing\s+(\w+)\s*=\s*(?:std\s*::\s*)?unordered_(?:map|set)\s*<", text
    ):
        aliases.add(match.group(1))
    for match in re.finditer(r"\bunordered_(?:map|set)\s*(<)", text):
        close = match_angle(text, match.end() - 1)
        if close == -1:
            continue
        tail = text[close + 1 :]
        m = re.match(r"\s*[&*]?\s*(\w+)", tail)
        if m and m.group(1) != "using":
            names.add(m.group(1))
    if aliases:
        alias_re = re.compile(
            r"\b(" + "|".join(sorted(aliases)) + r")\s*[&*]?\s+(\w+)"
        )
        for match in alias_re.finditer(text):
            names.add(match.group(2))
    return names


def range_for_loops(ctx: FileContext) -> list[tuple[int, int, int, str]]:
    """Every range-for as (header_start, body_start, body_end, range_expr)."""
    text = ctx.text
    loops = []
    for match in re.finditer(r"\bfor\s*(\()", text):
        close = match_bracket(text, match.end() - 1, "(", ")")
        if close == -1:
            continue
        header = text[match.end() : close]
        colon = _split_range_colon(header)
        if colon == -1:
            continue
        range_expr = header[colon + 1 :].strip()
        body_start = close + 1
        while body_start < len(text) and text[body_start] in " \t\n":
            body_start += 1
        if body_start < len(text) and text[body_start] == "{":
            body_end = match_bracket(text, body_start, "{", "}")
            if body_end == -1:
                body_end = len(text)
        else:
            body_end = text.find(";", body_start)
            if body_end == -1:
                body_end = len(text)
        loops.append((match.start(), body_start, body_end, range_expr))
    return loops


def _split_range_colon(header: str) -> int:
    """Offset of the range-for ':' in a for-header, or -1 for classic
    fors. Skips '::' and colons nested in parens/brackets/braces."""
    depth = 0
    i = 0
    while i < len(header):
        c = header[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == ":" and depth == 0:
            if i + 1 < len(header) and header[i + 1] == ":":
                i += 2
                continue
            if i > 0 and header[i - 1] == ":":
                i += 1
                continue
            return i
        i += 1
    return -1


def terminal_identifier(expr: str) -> str:
    """Last identifier component of `m`, `obj.m`, `obj->m`, `(*p).m`."""
    ids = re.findall(r"\w+", expr)
    return ids[-1] if ids else ""


def sink_in_body(ctx: FileContext, body_start: int, body_end: int):
    match = SINK_CALL_RE.search(ctx.text, body_start, body_end)
    return match


def unsorted_appends(
    ctx: FileContext, body_start: int, body_end: int
) -> list[tuple[int, str]]:
    """(offset, target) for each push_back/emplace_back in the body whose
    target is not passed to a sort() later in the enclosing function."""
    text = ctx.text
    out = []
    func = ctx.enclosing(body_start, ("function",))
    func_end = func[1] if func else len(text)
    for match in APPEND_RE.finditer(text, body_start, body_end):
        target = match.group(2)
        sorted_later = False
        for sort_match in SORT_CALL_RE.finditer(text, body_end, func_end):
            open_pos = text.find("(", sort_match.start())
            close_pos = match_bracket(text, open_pos, "(", ")")
            if close_pos == -1:
                continue
            args = text[open_pos : close_pos + 1]
            if re.search(r"\b" + re.escape(target) + r"\b", args):
                sorted_later = True
                break
        if not sorted_later:
            out.append((match.start(), target))
    return out


def check_unordered_sink_lexical(ctx: FileContext) -> list[Finding]:
    names = unordered_names(ctx)
    if not names:
        return []
    findings = []
    for header_start, body_start, body_end, range_expr in range_for_loops(ctx):
        if terminal_identifier(range_expr) not in names:
            continue
        findings.extend(
            _unordered_loop_findings(ctx, header_start, body_start, body_end)
        )
    return findings


def _unordered_loop_findings(
    ctx: FileContext, header_start: int, body_start: int, body_end: int
) -> list[Finding]:
    findings = []
    loop_line = line_of(ctx.text, header_start)
    sink = sink_in_body(ctx, body_start, body_end)
    if sink:
        line = line_of(ctx.text, sink.start())
        findings.append(
            Finding(
                "unordered-sink",
                str(ctx.path),
                line,
                f"order-sensitive sink inside iteration over an unordered "
                f"container (loop at line {loop_line}); hash-map iteration "
                f"order leaks into output — iterate a sorted copy instead",
                ctx.snippet(line),
            )
        )
    for offset, target in unsorted_appends(ctx, body_start, body_end):
        line = line_of(ctx.text, offset)
        findings.append(
            Finding(
                "unordered-sink",
                str(ctx.path),
                line,
                f"iteration over an unordered container (loop at line "
                f"{loop_line}) appends to '{target}' which is never sorted "
                f"in this function; the sequence inherits hash-map "
                f"iteration order — sort it before it escapes",
                ctx.snippet(line),
            )
        )
    return findings


POINTER_DECL_RE = re.compile(
    r"\b[A-Za-z_]\w*(?:\s*::\s*\w+)*(?:\s*<[^<>;()]*>)?\s*\*\s*(?:const\s+)?"
    r"(\w+)\s*(?=[=;,)\[])"
)

LESS_POINTER_RE = re.compile(r"\bstd\s*::\s*less\s*<[^<>;]*\*\s*>")


def check_pointer_order_lexical(ctx: FileContext) -> list[Finding]:
    text = ctx.text
    pointers = set(POINTER_DECL_RE.findall(text))
    findings = []
    for match in LESS_POINTER_RE.finditer(text):
        line = line_of(text, match.start())
        findings.append(_pointer_order_finding(ctx, line))
    if pointers:
        cmp_re = re.compile(
            r"\b(" + "|".join(map(re.escape, sorted(pointers))) + r")\s*"
            r"(?:<=|>=|<(?![<=])|>(?![>=]))\s*"
            r"(" + "|".join(map(re.escape, sorted(pointers))) + r")\b"
        )
        for match in cmp_re.finditer(text):
            line = line_of(text, match.start())
            findings.append(_pointer_order_finding(ctx, line))
    return findings


def _pointer_order_finding(ctx: FileContext, line: int) -> Finding:
    return Finding(
        "pointer-order",
        str(ctx.path),
        line,
        "ordering comparison on raw pointer values; pointer order varies "
        "run to run (ASLR/allocator) — compare indices or stable ids",
        ctx.snippet(line),
    )


# --------------------------------------------------------------------------
# Semantic checks — libclang implementations
# --------------------------------------------------------------------------


class LibclangEngine:
    name = "libclang"

    def __init__(self, compdb_dir: Path | None):
        import clang.cindex as ci  # noqa: deferred import

        self.ci = ci
        self.index = ci.Index.create()
        self.compdb = None
        if compdb_dir is not None:
            self.compdb = ci.CompilationDatabase.fromDirectory(str(compdb_dir))

    def _args_for(self, path: Path) -> list[str]:
        default = ["-xc++", "-std=c++20", "-Isrc"]
        if self.compdb is None:
            return default
        commands = self.compdb.getCompileCommands(str(path.resolve()))
        if not commands:
            return default
        args = list(commands[0].arguments)[1:]  # drop the compiler itself
        cleaned = []
        skip_next = False
        for arg in args:
            if skip_next:
                skip_next = False
                continue
            if arg in ("-c", str(path), str(path.resolve())):
                continue
            if arg == "-o":
                skip_next = True
                continue
            cleaned.append(arg)
        return cleaned

    def semantic_findings(self, ctx: FileContext) -> list[Finding]:
        ci = self.ci
        tu = self.index.parse(str(ctx.path), args=self._args_for(ctx.path))
        findings: list[Finding] = []
        target = str(ctx.path)

        def in_this_file(cursor) -> bool:
            loc = cursor.location
            return loc.file is not None and str(loc.file) == target

        def walk(cursor):
            for child in cursor.get_children():
                if child.kind == ci.CursorKind.CXX_FOR_RANGE_STMT:
                    if in_this_file(child):
                        findings.extend(self._range_for(ctx, child))
                elif child.kind == ci.CursorKind.BINARY_OPERATOR:
                    if in_this_file(child):
                        findings.extend(self._binary_op(ctx, child))
                walk(child)

        walk(tu.cursor)
        # std::less<T*> is a type mention, simplest caught lexically.
        for match in LESS_POINTER_RE.finditer(ctx.text):
            findings.append(
                _pointer_order_finding(ctx, line_of(ctx.text, match.start()))
            )
        return findings

    @staticmethod
    def _is_unordered_type(type_obj) -> bool:
        spelling = type_obj.get_canonical().spelling
        return "unordered_map<" in spelling or "unordered_set<" in spelling

    def _range_for(self, ctx: FileContext, cursor) -> list[Finding]:
        ci = self.ci
        children = list(cursor.get_children())
        range_expr = None
        for child in children:
            if child.kind.is_expression():
                range_expr = child
                break
        body = children[-1] if children else None
        if range_expr is None or body is None:
            return []
        range_type = range_expr.type
        if range_type.kind in (
            ci.TypeKind.LVALUEREFERENCE,
            ci.TypeKind.RVALUEREFERENCE,
        ):
            range_type = range_type.get_pointee()
        if not self._is_unordered_type(range_type):
            return []
        header_start = cursor.extent.start.offset
        body_start = body.extent.start.offset
        body_end = body.extent.end.offset
        return _unordered_loop_findings(ctx, header_start, body_start, body_end)

    def _binary_op(self, ctx: FileContext, cursor) -> list[Finding]:
        ci = self.ci
        children = list(cursor.get_children())
        if len(children) != 2:
            return []
        lhs, rhs = children
        lhs_kind = lhs.type.get_canonical().kind
        rhs_kind = rhs.type.get_canonical().kind
        if lhs_kind != ci.TypeKind.POINTER or rhs_kind != ci.TypeKind.POINTER:
            return []
        op = self._operator_spelling(cursor, lhs)
        if op not in ("<", ">", "<=", ">="):
            return []
        line = cursor.extent.start.line
        return [_pointer_order_finding(ctx, line)]

    @staticmethod
    def _operator_spelling(cursor, lhs) -> str:
        lhs_end = lhs.extent.end.offset
        for token in cursor.get_tokens():
            if token.extent.start.offset >= lhs_end and token.spelling in (
                "<",
                ">",
                "<=",
                ">=",
            ):
                return token.spelling
        return ""


class FallbackEngine:
    name = "fallback"

    def semantic_findings(self, ctx: FileContext) -> list[Finding]:
        return check_unordered_sink_lexical(ctx) + check_pointer_order_lexical(ctx)


def make_engine(requested: str, compdb_dir: Path | None):
    if requested in ("auto", "libclang"):
        try:
            return LibclangEngine(compdb_dir)
        except Exception as error:  # ImportError or missing libclang.so
            if requested == "libclang":
                print(f"diva_analyze: libclang engine unavailable: {error}",
                      file=sys.stderr)
                return None
    return FallbackEngine()


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


# A rule's sanctioned home inside a common/ directory, by file name.
HOME_ROLES = {
    "mutex.h": "mutex-home",
    "thread_annotations.h": "mutex-home",
    "rng.h": "rng",
    "rng.cc": "rng",
    "parallel.h": "parallel-home",
    "parallel.cc": "parallel-home",
}


def path_role(path: Path, override: str) -> str:
    if override != "auto":
        return override
    dirs = path.parent.parts
    if "common" in dirs:
        return HOME_ROLES.get(path.name, "common")
    if "src" in dirs:
        return "hot-path" if "core" in dirs or "constraint" in dirs else "src"
    return "other"


def collect_files(paths: list[Path]) -> list[Path]:
    files = []
    for path in paths:
        if path.is_dir():
            # The analysis fixtures violate the rules on purpose: a
            # directory walk skips them, naming one explicitly checks it.
            for suffix in SOURCE_SUFFIXES:
                files.extend(sorted(
                    f for f in path.rglob(f"*{suffix}")
                    if "analysis_fixtures" not in f.parts))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(path)
    seen = set()
    unique = []
    for f in files:
        if f not in seen:
            seen.add(f)
            unique.append(f)
    return unique


def find_compdb(explicit: str | None) -> Path | None:
    if explicit:
        compdb = Path(explicit)
        return compdb if (compdb / "compile_commands.json").exists() else None
    for candidate in ("build", "build/release", "build/clang-analyze"):
        if Path(candidate, "compile_commands.json").exists():
            return Path(candidate)
    return None


def analyze_file(ctx: FileContext, engine) -> list[Finding]:
    findings = check_lexical_rules(ctx) + check_mutable_global(ctx)
    findings.extend(engine.semantic_findings(ctx))
    for finding in findings:
        finding.allowed = ctx.allowed(finding.check, finding.line)
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="diva_analyze.py",
        description="DIVA determinism/locking static analyzer",
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to scan (default: src)")
    parser.add_argument("--compdb", default=None,
                        help="directory containing compile_commands.json")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write a machine-readable findings report")
    parser.add_argument("--engine", choices=("auto", "libclang", "fallback"),
                        default="auto")
    parser.add_argument("--path-role",
                        choices=("auto", "src", "hot-path", "common", "rng",
                                 "mutex-home", "parallel-home", "other"),
                        default="auto",
                        help="override per-file path classification "
                             "(each fixture names its role in a "
                             "'// path-role:' line)")
    args = parser.parse_args(argv[1:])

    paths = [Path(p) for p in (args.paths or ["src"])]
    try:
        files = collect_files(paths)
    except FileNotFoundError as missing:
        print(f"diva_analyze: no such file or directory: {missing}",
              file=sys.stderr)
        return 2
    if not files:
        print("diva_analyze: nothing to scan", file=sys.stderr)
        return 2

    compdb_dir = find_compdb(args.compdb)
    engine = make_engine(args.engine, compdb_dir)
    if engine is None:
        return 2

    findings: list[Finding] = []
    for path in files:
        ctx = FileContext(path, path_role(path, args.path_role))
        findings.extend(analyze_file(ctx, engine))

    active = [f for f in findings if not f.allowed]
    suppressed = [f for f in findings if f.allowed]

    for finding in active:
        print(f"{finding.file}:{finding.line}: [{finding.check}] "
              f"{finding.message}\n    {finding.snippet}")

    if args.json_out:
        report = {
            "engine": engine.name,
            "compdb": str(compdb_dir) if compdb_dir else None,
            "files_scanned": len(files),
            "checks": sorted(CHECKS),
            "findings": [asdict(f) for f in active],
            "suppressed": [asdict(f) for f in suppressed],
        }
        Path(args.json_out).write_text(json.dumps(report, indent=2) + "\n")

    tail = (f"{len(active)} finding(s), {len(suppressed)} suppressed, "
            f"{len(files)} file(s), engine={engine.name}")
    if active:
        print(f"diva_analyze: FAIL — {tail}", file=sys.stderr)
        return 1
    print(f"diva_analyze: OK — {tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
