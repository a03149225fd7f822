#!/usr/bin/env python3
"""agile-lint: the AGILE repository's protocol & determinism static-analysis
pass.

The repo rests on two contracts that runtime tests can only sample:

  * deterministic replay — every fig/bench rerun must be byte-identical, so
    nothing in src/ or a bench measurement path may consult wall clocks,
    unseeded RNGs, or address-dependent ordering (pointer keys, unordered
    container iteration that feeds output/scheduling/stats);
  * resource-lifetime protocols — claim/release on cache lines,
    releaseOwned/releaseBuf discipline on the Share Table, settle-before-
    reuse on IoTokens, cancel-or-fire on TimerIds.

agile-lint moves those contracts from "a test might catch it" to "the build
rejects it". It is a line/scope-level heuristic pass (flow-insensitive but
scope-aware), tuned for zero unsuppressed findings on the tree; intentional
deviations are recorded in-source:

  // agile-lint: allow(<check>): <one-line justification>        (this/next line)
  // agile-lint: allow-file(<check>): <one-line justification>   (whole file)

A suppression without a justification is itself a finding, as is one naming
an unknown check — typos must not silently disable enforcement.

Usage:
  agile_lint.py [--root DIR] [--format text|json] [--checks a,b] [paths...]
  agile_lint.py --list-checks
  agile_lint.py --self-test          # run the fixture corpus under fixtures/

Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage error.

Adding a check: see tools/lint/README.md — write a function taking a
FileContext and yielding Finding tuples, decorate it with @check(...), and
drop one good and one bad fixture under fixtures/<check-name>/.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

# --------------------------------------------------------------------------
# Infrastructure: findings, suppression parsing, comment stripping, scopes
# --------------------------------------------------------------------------

SCAN_DIRS = ("src", "bench", "tests", "examples")
CXX_EXTS = (".h", ".hpp", ".hh", ".cc", ".cpp", ".cxx", ".cu", ".cuh")
HEADER_EXTS = (".h", ".hpp", ".hh", ".cuh")


@dataclass(frozen=True)
class Finding:
    path: str  # root-relative
    line: int  # 1-based
    check: str
    message: str


@dataclass
class Suppression:
    check: str
    line: int  # line the comment is on (1-based)
    file_level: bool
    reason: str


_SUPPRESS_RE = re.compile(
    r"//\s*agile-lint:\s*(allow|allow-file)\(([\w,\- ]+)\)\s*(?::\s*(.*?))?\s*$"
)

def strip_comments_and_strings(text: str) -> str:
    """Replace comments and string/char literals with spaces, keeping the
    line structure (and therefore line numbers) intact.

    Single-pass scanner rather than regex passes: an apostrophe inside a
    comment ("don't") must not open a char literal, a // inside a string
    must not open a comment, and C++14 digit separators (1'000'000) must
    not open char literals either — orderings of regex substitutions get
    at least one of these wrong.
    """
    out = list(text)
    n = len(text)

    def blank(a: int, b: int) -> None:
        for j in range(a, min(b, n)):
            if out[j] != "\n":
                out[j] = " "

    i = 0
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            blank(i, j)
            i = j
        elif c == '"':
            # Raw string? Look back past an encoding prefix for R.
            k = i - 1
            while k >= 0 and text[k] in "uUL8":
                k -= 1
            if k >= 0 and text[k] == "R" and \
                    (k == 0 or not (text[k - 1].isalnum() or text[k - 1] == "_")):
                p = text.find("(", i + 1)
                if p < 0 or p - i > 17:
                    i += 1
                    continue
                delim = text[i + 1:p]
                close = text.find(")" + delim + '"', p + 1)
                j = n if close < 0 else close + len(delim) + 2
                blank(i, j)
                i = j
            else:
                j = i + 1
                while j < n and text[j] not in '"\n':
                    j += 2 if text[j] == "\\" else 1
                blank(i, j + 1 if j < n and text[j] == '"' else j)
                i = j + 1
        elif c == "'":
            prev = text[i - 1] if i > 0 else ""
            if prev.isalnum() or prev == "_":
                i += 1  # digit separator / suffix position, not a literal
                continue
            j = i + 1
            while j < n and text[j] not in "'\n":
                j += 2 if text[j] == "\\" else 1
            blank(i, j + 1 if j < n and text[j] == "'" else j)
            i = j + 1
        else:
            i += 1
    return "".join(out)


@dataclass
class Scope:
    """One brace-delimited function body (scope-aware, flow-insensitive)."""

    start: int  # 1-based line of the opening brace
    end: int  # 1-based line of the closing brace
    text: str  # stripped body text
    lines: List[str]  # stripped body, split per line (index 0 == start)

    def line_of(self, offset_line: int) -> int:
        return self.start + offset_line


_FUNC_HEAD_RE = re.compile(
    r"^\s*(?!if\b|for\b|while\b|switch\b|return\b|else\b|do\b|catch\b|"
    r"namespace\b|struct\b|class\b|union\b|enum\b)"
    r"[\w:<>,&*\s~\[\]]+\([^;{}]*\)\s*"
    r"(const|noexcept|override|final|->\s*[\w:<>,&*\s]+|\s)*\{\s*$"
)


def extract_scopes(stripped_lines: List[str]) -> List[Scope]:
    """Heuristic function-body extraction: a line that looks like a function
    header ending in '{' opens a scope closed by brace matching. Nested
    lambdas/blocks stay inside their enclosing scope."""
    scopes: List[Scope] = []
    i = 0
    n = len(stripped_lines)
    while i < n:
        line = stripped_lines[i]
        header = line
        # Allow two-line headers: signature on one line, '{' alone next.
        if _FUNC_HEAD_RE.match(header):
            depth = 0
            body: List[str] = []
            j = i
            while j < n:
                body.append(stripped_lines[j])
                depth += stripped_lines[j].count("{") - stripped_lines[j].count("}")
                if depth <= 0 and j > i or (depth == 0 and "{" in stripped_lines[j]):
                    if depth <= 0:
                        break
                j += 1
            scopes.append(
                Scope(start=i + 1, end=j + 1, text="\n".join(body), lines=body)
            )
            i = j + 1
        else:
            i += 1
    return scopes


@dataclass
class FileContext:
    root: str
    relpath: str  # root-relative, '/'-separated
    raw: str
    raw_lines: List[str] = field(default_factory=list)
    stripped: str = ""
    stripped_lines: List[str] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)
    _scopes: Optional[List[Scope]] = None

    @property
    def top_dir(self) -> str:
        return self.relpath.split("/", 1)[0]

    @property
    def is_header(self) -> bool:
        return self.relpath.endswith(HEADER_EXTS)

    def scopes(self) -> List[Scope]:
        if self._scopes is None:
            self._scopes = extract_scopes(self.stripped_lines)
        return self._scopes

    def enclosing_scope(self, line: int) -> Optional[Scope]:
        for s in self.scopes():
            if s.start <= line <= s.end:
                return s
        return None


def load_file(root: str, relpath: str) -> FileContext:
    with open(os.path.join(root, relpath), "r", encoding="utf-8", errors="replace") as f:
        raw = f.read()
    ctx = FileContext(root=root, relpath=relpath.replace(os.sep, "/"), raw=raw)
    ctx.raw_lines = raw.splitlines()
    ctx.stripped = strip_comments_and_strings(raw)
    ctx.stripped_lines = ctx.stripped.splitlines()
    for i, line in enumerate(ctx.raw_lines, start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            kind, names, reason = m.group(1), m.group(2), m.group(3) or ""
            for name in (n.strip() for n in names.split(",")):
                if name:
                    ctx.suppressions.append(
                        Suppression(
                            check=name,
                            line=i,
                            file_level=(kind == "allow-file"),
                            reason=reason.strip(),
                        )
                    )
    return ctx


# --------------------------------------------------------------------------
# Check registry
# --------------------------------------------------------------------------

CheckFn = Callable[[FileContext], Iterator[Finding]]


@dataclass
class Check:
    name: str
    family: str  # determinism | protocol | hygiene
    description: str
    dirs: Tuple[str, ...]  # top-level dirs the check applies to
    headers_only: bool
    fn: CheckFn


CHECKS: Dict[str, Check] = {}


def check(name: str, family: str, description: str,
          dirs: Tuple[str, ...] = SCAN_DIRS, headers_only: bool = False):
    def wrap(fn: CheckFn) -> CheckFn:
        if name in CHECKS:
            raise RuntimeError(f"duplicate check name {name!r}")
        CHECKS[name] = Check(name, family, description, dirs, headers_only, fn)
        return fn

    return wrap


# --------------------------------------------------------------------------
# Determinism family
# --------------------------------------------------------------------------

_WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bstd::chrono\b"), "std::chrono"),
    (re.compile(r"\b(steady_clock|system_clock|high_resolution_clock)\b"),
     "wall-clock type"),
    (re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"\b(gettimeofday|clock_gettime|getrusage|timespec_get)\s*\("),
     "OS clock call"),
    (re.compile(r"\bclock\s*\(\s*\)"), "clock()"),
]


@check(
    "wall-clock",
    "determinism",
    "wall-clock reads in src/ or bench measurement paths break byte-identical "
    "replay; all time must come from the engine's virtual clock",
    dirs=("src", "bench"),
)
def check_wall_clock(ctx: FileContext) -> Iterator[Finding]:
    for i, line in enumerate(ctx.stripped_lines, start=1):
        for pat, what in _WALL_CLOCK_PATTERNS:
            if pat.search(line):
                yield Finding(
                    ctx.relpath, i, "wall-clock",
                    f"{what} on a deterministic path — use sim::Engine time "
                    "(SimTime / engine.now())",
                )
                break


_RAND_RE = re.compile(r"\b(rand|srand)\s*\(")
_RANDOM_DEVICE_RE = re.compile(r"\brandom_device\b")
_UNSEEDED_ENGINE_RE = re.compile(
    r"\b(?:std::)?(mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"ranlux(?:24|48)(?:_base)?|knuth_b)\s+\w+\s*(?:;|\{\s*\})"
)


@check(
    "unseeded-rng",
    "determinism",
    "rand()/std::random_device/default-constructed std engines are not "
    "reproducible; all randomness must flow through explicitly seeded "
    "agile::Rng",
)
def check_unseeded_rng(ctx: FileContext) -> Iterator[Finding]:
    for i, line in enumerate(ctx.stripped_lines, start=1):
        if _RAND_RE.search(line):
            yield Finding(ctx.relpath, i, "unseeded-rng",
                          "rand()/srand() — use an explicitly seeded agile::Rng")
        elif _RANDOM_DEVICE_RE.search(line):
            yield Finding(ctx.relpath, i, "unseeded-rng",
                          "std::random_device is nondeterministic — seed an "
                          "agile::Rng explicitly")
        elif _UNSEEDED_ENGINE_RE.search(line):
            yield Finding(ctx.relpath, i, "unseeded-rng",
                          "default-constructed std random engine — pass an "
                          "explicit seed (prefer agile::Rng)")


def _unordered_container_names(ctx: FileContext) -> Set[str]:
    """Identifiers declared in this file with an unordered_{map,set} type
    (members, locals, aliases resolved one level)."""
    names: Set[str] = set()
    text = ctx.stripped
    for m in re.finditer(r"\bunordered_(?:map|set|multimap|multiset)\s*<", text):
        # Match the template argument list by angle-bracket counting.
        depth = 1
        j = m.end()
        while j < len(text) and depth > 0:
            if text[j] == "<":
                depth += 1
            elif text[j] == ">":
                depth -= 1
            j += 1
        rest = text[j:]
        dm = re.match(r"\s*&?\s*(\w+)\s*[;{=(,)]", rest)
        if dm:
            names.add(dm.group(1))
    return names


@check(
    "unordered-iteration",
    "determinism",
    "iterating an unordered container feeds hash/address-dependent order "
    "into output, scheduling, or stats; iterate a deterministic structure "
    "or sort first",
    dirs=("src", "bench"),
)
def check_unordered_iteration(ctx: FileContext) -> Iterator[Finding]:
    names = _unordered_container_names(ctx)
    range_for = re.compile(r"\bfor\s*\(.*:\s*(.*)\)\s*\{?")
    for i, line in enumerate(ctx.stripped_lines, start=1):
        m = range_for.search(line)
        if m:
            expr = m.group(1)
            if "unordered_" in expr:
                yield Finding(ctx.relpath, i, "unordered-iteration",
                              "range-for over an unordered container")
                continue
            ids = set(re.findall(r"\w+", expr))
            hit = ids & names
            if hit:
                yield Finding(
                    ctx.relpath, i, "unordered-iteration",
                    f"range-for over unordered container '{sorted(hit)[0]}' — "
                    "iteration order is hash/address-dependent",
                )
                continue
        for n in names:
            if re.search(rf"\b{re.escape(n)}\s*\.\s*c?begin\s*\(", line):
                yield Finding(
                    ctx.relpath, i, "unordered-iteration",
                    f"iterator walk over unordered container '{n}' — "
                    "iteration order is hash/address-dependent",
                )
                break


_PTR_KEYED_RE = re.compile(
    r"\bstd::(map|set|multimap|multiset)\s*<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*"
)
_PTR_LESS_RE = re.compile(r"\bstd::less\s*<[^>]*\*\s*>")


@check(
    "pointer-ordered",
    "determinism",
    "ordered containers keyed by pointer (or std::less over pointers) order "
    "by allocation address — replay order changes run to run",
)
def check_pointer_ordered(ctx: FileContext) -> Iterator[Finding]:
    for i, line in enumerate(ctx.stripped_lines, start=1):
        if _PTR_KEYED_RE.search(line) or _PTR_LESS_RE.search(line):
            yield Finding(
                ctx.relpath, i, "pointer-ordered",
                "address-dependent ordering (pointer-keyed ordered container) "
                "— key by a stable id instead",
            )


# --------------------------------------------------------------------------
# Protocol-pairing family
# --------------------------------------------------------------------------

# Result-must-be-consumed call surface: the unified token submits, claim and
# acquire verbs. Kept in sync with the AGILE_NODISCARD annotations in
# src/common/annotations.h (the compiler enforces assignments; the lint also
# catches `(void)`-free discards in code built without the annotations).
_MUST_CONSUME_RE = re.compile(
    r"^\s*(?:co_await\s+)?(?:[\w\]\[]+\s*(?:\.|->|::)\s*)*"
    r"(submit[A-Z]\w*|claim[A-Z]\w*|acquire[A-Z]\w*)\s*\("
)


@check(
    "dropped-token",
    "protocol",
    "a submit*/claim*/acquire* result discarded at statement level can never "
    "be polled, waited, cancelled, or released — the op leaks",
)
def check_dropped_token(ctx: FileContext) -> Iterator[Finding]:
    for i, line in enumerate(ctx.stripped_lines, start=1):
        m = _MUST_CONSUME_RE.match(line)
        if m:
            yield Finding(
                ctx.relpath, i, "dropped-token",
                f"result of {m.group(1)}() dropped — store the token and "
                "poll/wait/cancel (or retire) it",
            )


_TIMER_ASSIGN_RE = re.compile(
    r"(\w[\w\]\[.>-]*)\s*=\s*[\w.>()-]*\bschedule(?:After|At|Now)\s*\("
)
_CANCEL_RE = re.compile(r"\bcancel\s*\(")


@check(
    "timer-unmanaged",
    "protocol",
    "a stored TimerId that is never cancelled nor generation-checked in its "
    "file points at a cancel-or-fire protocol violation",
    dirs=("src",),
)
def check_timer_unmanaged(ctx: FileContext) -> Iterator[Finding]:
    # Flow-insensitive, file-scope: storing a schedule* result obliges the
    # file to either cancel() somewhere or generation-check a TimerId
    # (boolean test). Fire-and-forget `schedule*` calls whose TimerId is
    # discarded immediately are the engine's intended one-shot use and are
    # not flagged.
    if _CANCEL_RE.search(ctx.stripped):
        return
    for i, line in enumerate(ctx.stripped_lines, start=1):
        m = _TIMER_ASSIGN_RE.search(line)
        if m:
            yield Finding(
                ctx.relpath, i, "timer-unmanaged",
                f"TimerId stored into '{m.group(1)}' but this file never "
                "cancel()s or generation-checks any timer — cancel-or-fire "
                "discipline is unverifiable",
            )


def _call_args(text: str, call_start: int) -> List[str]:
    """Split the argument list of the call whose '(' is at call_start into
    top-level comma-separated arguments."""
    depth = 0
    args: List[str] = []
    cur: List[str] = []
    for j in range(call_start, len(text)):
        c = text[j]
        if c in "([{<":
            depth += 1
            if depth > 1:
                cur.append(c)
        elif c in ")]}>":
            depth -= 1
            if depth == 0:
                args.append("".join(cur).strip())
                return args
            cur.append(c)
        elif c == "," and depth == 1:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    return args


_RELEASE_BUF_RE = re.compile(r"\breleaseBuf\s*(\()")


@check(
    "share-owner-reuse",
    "protocol",
    "reusing a buffer after releaseBuf() in a scope that never "
    "releaseOwned()s it re-creates the PR-7 Share-Table owner-reuse hazard "
    "(peers may still read through the owner's memory)",
)
def check_share_owner_reuse(ctx: FileContext) -> Iterator[Finding]:
    # Scope-aware: inside one function body, releaseBuf(ctx, B, ...) followed
    # by B appearing again in an I/O call is only safe when the scope also
    # carries the owner-side releaseOwned(..., B, ...) discipline (the
    # peer/owner branch pair). releaseBuf alone does NOT drain sharers: an
    # owner that recycles its buffer right after can overwrite bytes a
    # redirected peer has not read yet — exactly the hazard
    # ShareEntry::drainWaiters was added to close.
    reuse_calls = re.compile(
        r"\b(asyncRead|asyncWrite)\s*\("
    )
    for scope in ctx.scopes():
        if "releaseOwned" in scope.text:
            continue
        for li, line in enumerate(scope.lines):
            m = _RELEASE_BUF_RE.search(line)
            if not m:
                continue
            args = _call_args(line, m.start(1))
            if len(args) < 2:
                continue
            buf = re.sub(r"[^\w].*$", "", args[1].lstrip("&* "))
            if not buf:
                continue
            rest = scope.lines[li + 1:]
            for ri, rline in enumerate(rest):
                rm = reuse_calls.search(rline)
                if rm and re.search(rf"\b{re.escape(buf)}\b",
                                    rline[rm.end():]):
                    yield Finding(
                        ctx.relpath, scope.line_of(li), "share-owner-reuse",
                        f"'{buf}' released with releaseBuf() then reused in "
                        f"{rm.group(1)}() at line "
                        f"{scope.line_of(li + 1 + ri)} with no releaseOwned() "
                        "in scope — owners must drain sharers before reuse",
                    )
                    break


_TENANT_DEFAULT_CTOR_RE = re.compile(
    r"\bTenantId\s*(?:\{\s*\}|\(\s*\))"
)
_TENANT_BARE_DECL_RE = re.compile(
    r"^\s*(?:const\s+|constexpr\s+|static\s+)*(?:agile::)?(?:qos::)?"
    r"TenantId\s+\w+\s*;\s*$"
)


@check(
    "tenant-default",
    "protocol",
    "a raw default-constructed TenantId on a submission path silently "
    "attributes the I/O to tenant 0 — name qos::kHostTenant (or a real id) "
    "so the attribution is a decision, not an accident",
)
def check_tenant_default(ctx: FileContext) -> Iterator[Finding]:
    # The defining header legitimately default-initializes the value member
    # and declares comparison parameters; everything else must name its
    # tenant explicitly.
    if ctx.relpath.endswith("qos/tenant.h"):
        return
    for i, line in enumerate(ctx.stripped_lines, start=1):
        if _TENANT_DEFAULT_CTOR_RE.search(line):
            yield Finding(
                ctx.relpath, i, "tenant-default",
                "default-constructed TenantId — write qos::kHostTenant (or "
                "the submitting tenant's id) so the attribution is explicit",
            )
        elif _TENANT_BARE_DECL_RE.match(line):
            yield Finding(
                ctx.relpath, i, "tenant-default",
                "bare TenantId declaration default-initializes to tenant 0 "
                "— initialize from qos::kHostTenant or a real tenant id",
            )


# Every submission entry point that takes a device index: the lane-side
# calls, whose dev argument follows ctx, and QueuePairSet::slice(dev, ...),
# the one queue-pair routing call every SQ issue path goes through.
# arrayRead/arrayWrite are absent: the argument after their ctx is the
# element index, which elemAddr routes, so a literal there is no pinned device.
_DEVICE_CALL_RE = re.compile(
    r"\b(prefetch|prefetchDivergent|asyncRead|asyncWrite|"
    r"readElem|writeElem|readPage|issueFill|issueToSsd|"
    r"slice)\s*(?:<[^;(){}]*>)?\s*(\()"
)
_INT_LITERAL_RE = re.compile(r"^(?:0[xX][0-9a-fA-F]+|\d+)[uUlL]{0,3}$")


@check(
    "device-literal",
    "protocol",
    "a raw device-index literal on a submission path hard-wires the "
    "single-device topology — element->device routing must come from the "
    "striped core::elemAddr / StripeMap choke point so N-device arrays work "
    "unchanged",
    dirs=("src",),
)
def check_device_literal(ctx: FileContext) -> Iterator[Finding]:
    # The striping refactor made core::elemAddr the one place an element
    # resolves to a device; library code that pins `0` (or any literal) as
    # the dev argument of a submission call silently reads device 0 of a
    # striped array. Tests, benches, and examples legitimately pin devices,
    # so the check scopes to src/. The dev argument is the one after ctx,
    # or slice()'s first.
    for m in _DEVICE_CALL_RE.finditer(ctx.stripped):
        args = _call_args(ctx.stripped, m.start(2))
        if m.group(1) == "slice":
            dev = args[0] if args else ""
        elif len(args) >= 2 and "ctx" in args[0]:
            dev = args[1]
        else:
            continue
        if _INT_LITERAL_RE.match(dev):
            line = 1 + ctx.stripped.count("\n", 0, m.start())
            yield Finding(
                ctx.relpath, line, "device-literal",
                f"{m.group(1)}() with literal device index '{dev}' — "
                "route through core::elemAddr(idx, stripe).dev instead of "
                "hard-wiring a device",
            )


# --------------------------------------------------------------------------
# Hygiene family
# --------------------------------------------------------------------------


@check(
    "pragma-once",
    "hygiene",
    "headers must use #pragma once (the repo convention; include-guard "
    "macros drift and collide)",
    headers_only=True,
)
def check_pragma_once(ctx: FileContext) -> Iterator[Finding]:
    # Scan the comment-stripped whole file: a leading license/overview
    # comment may push the directive far down (engine.h has it at line 34),
    # and the literal text inside a comment must not count.
    if not re.search(r"^\s*#\s*pragma\s+once\b", ctx.stripped, re.MULTILINE):
        yield Finding(ctx.relpath, 1, "pragma-once",
                      "header without #pragma once")


_STD_FUNCTION_RE = re.compile(r"\bstd::function\s*<")


@check(
    "std-function-hot",
    "protocol",
    "std::function in src/ type-erases with heap allocation on paths "
    "common/small_fn.h (SmallFn) exists to keep allocation-free",
    dirs=("src",),
)
def check_std_function_hot(ctx: FileContext) -> Iterator[Finding]:
    if ctx.relpath.endswith("common/small_fn.h"):
        return
    for i, line in enumerate(ctx.stripped_lines, start=1):
        if _STD_FUNCTION_RE.search(line):
            yield Finding(
                ctx.relpath, i, "std-function-hot",
                "std::function in src/ — use agile::SmallFn "
                "(common/small_fn.h) or justify with a suppression",
            )


_CO_AWAIT_RE = re.compile(r"\bco_await\b")
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def _skip_balanced(text: str, i: int, open_c: str, close_c: str) -> int:
    """Index just past the bracket group opening at text[i] (len(text) if
    it never closes)."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] == open_c:
            depth += 1
        elif text[j] == close_c:
            depth -= 1
            if depth == 0:
                return j + 1
    return len(text)


def _awaited_operand_end(text: str, i: int) -> int:
    """End of the postfix expression a co_await at text[i:] applies to:
    names, ::/./-> chains, template arguments, calls and subscripts."""
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    while i < n:
        m = _IDENT_RE.match(text, i)
        if m:
            i = m.end()
            continue
        if text.startswith(("::", "->"), i):
            i += 2
        elif text[i] == ".":
            i += 1
        elif text[i] == "(":
            i = _skip_balanced(text, i, "(", ")")
        elif text[i] == "[":
            i = _skip_balanced(text, i, "[", "]")
        elif text[i] == "<":
            # Template arguments only when a call or scope follows them;
            # otherwise this is a comparison and the operand ended.
            j = _skip_balanced(text, i, "<", ">")
            rest = text[j:].lstrip()
            if not rest.startswith(("(", "::")):
                break
            i = j
        elif text[i].isspace():
            rest = text[i:].lstrip()
            if not rest.startswith(("(", "[", ".", "->", "::")):
                break
            i = n - len(rest)
        else:
            break
    return i


_CONDITION_RE = re.compile(r"\b(if|while|switch)\s*(?:constexpr\s*)?\(")


@check(
    "co-await-short-circuit",
    "hygiene",
    "co_await as an operand of && or ||, or inside an if/while/switch "
    "condition, has been seen to miscompile under g++ 12 (the lane resumes "
    "outside the scheduler awaitables, or dies with SIGILL) — hoist the "
    "await into its own statement",
)
def check_co_await_short_circuit(ctx: FileContext) -> Iterator[Finding]:
    # Right operand: the await (behind any `!` or `(`) follows && / ||, so
    # it is evaluated conditionally. Left operand: the awaited expression is
    # followed directly by && / ||. Condition: the await sits inside the
    # parenthesized condition of an if, while or switch.
    text = ctx.stripped
    conditions = []
    for m in _CONDITION_RE.finditer(text):
        open_at = m.end() - 1
        conditions.append((m.group(1), open_at,
                           _skip_balanced(text, open_at, "(", ")")))
    for m in _CO_AWAIT_RE.finditer(text):
        j = m.start() - 1
        while j >= 0 and (text[j].isspace() or text[j] in "!("):
            j -= 1
        after = text[_awaited_operand_end(text, m.end()):].lstrip()
        if text[max(j - 1, 0):j + 1] in ("&&", "||"):
            what = "the right operand of a short-circuit operator"
        elif after.startswith(("&&", "||")):
            what = "the left operand of a short-circuit operator"
        else:
            kw = next((k for k, a, b in conditions if a < m.start() < b), None)
            if kw is None:
                continue
            what = f"inside an {kw} condition" if kw == "if" else \
                f"inside a {kw} condition"
        line = 1 + text.count("\n", 0, m.start())
        yield Finding(
            ctx.relpath, line, "co-await-short-circuit",
            f"co_await is {what} — await into a local in its own "
            "statement, then test the local",
        )


# include-cycle is corpus-level: it runs once over the whole file set.

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def find_include_cycles(contexts: Dict[str, FileContext]) -> Iterator[Finding]:
    # Resolve quoted includes against the repo include roots (src/, repo
    # root) and the including file's directory.
    known = set(contexts.keys())

    graph: Dict[str, List[Tuple[str, int]]] = {}
    for rel, ctx in contexts.items():
        edges: List[Tuple[str, int]] = []
        for m in _INCLUDE_RE.finditer(ctx.raw):
            inc = m.group(1)
            line = ctx.raw.count("\n", 0, m.start()) + 1
            cands = (
                f"src/{inc}",
                inc,
                os.path.normpath(os.path.join(os.path.dirname(rel), inc)).replace(os.sep, "/"),
            )
            for c in cands:
                if c in known:
                    edges.append((c, line))
                    break
        graph[rel] = edges
    # Iterative DFS with colors; report each back-edge (one finding per
    # distinct cycle entry point).
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {k: WHITE for k in graph}
    reported: Set[Tuple[str, str]] = set()

    for start in sorted(graph):
        if color[start] != WHITE:
            continue
        stack: List[Tuple[str, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            node, idx = stack[-1]
            if idx < len(graph[node]):
                stack[-1] = (node, idx + 1)
                nxt, line = graph[node][idx]
                if color.get(nxt, BLACK) == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
                elif color.get(nxt) == GRAY:
                    key = (node, nxt)
                    if key not in reported:
                        reported.add(key)
                        chain = [n for n, _ in stack]
                        ci = chain.index(nxt)
                        cyc = " -> ".join(chain[ci:] + [nxt])
                        yield Finding(node, line, "include-cycle",
                                      f"include cycle: {cyc}")
            else:
                color[node] = BLACK
                stack.pop()


CORPUS_CHECKS = {
    "include-cycle": (
        "hygiene",
        "a cycle in the quoted-include graph means no consistent layering "
        "and breaks single-header compilation",
    ),
}

# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def all_check_names() -> List[str]:
    return sorted(list(CHECKS) + list(CORPUS_CHECKS))


def iter_source_files(root: str, paths: Optional[List[str]] = None) -> List[str]:
    rels: List[str] = []
    if paths:
        for p in paths:
            ap = os.path.abspath(p)
            if os.path.isfile(ap):
                rels.append(os.path.relpath(ap, root))
            else:
                for dirpath, _dirnames, filenames in os.walk(ap):
                    for fn in filenames:
                        if fn.endswith(CXX_EXTS):
                            rels.append(
                                os.path.relpath(os.path.join(dirpath, fn), root))
    else:
        for d in SCAN_DIRS:
            base = os.path.join(root, d)
            if not os.path.isdir(base):
                continue
            for dirpath, _dirnames, filenames in os.walk(base):
                for fn in sorted(filenames):
                    if fn.endswith(CXX_EXTS):
                        rels.append(
                            os.path.relpath(os.path.join(dirpath, fn), root))
    return sorted(r.replace(os.sep, "/") for r in rels)


def applies(chk: Check, ctx: FileContext, ignore_scope: bool) -> bool:
    if chk.headers_only and not ctx.is_header:
        return False
    if ignore_scope:
        return True
    return ctx.top_dir in chk.dirs


def run_checks(
    root: str,
    rels: List[str],
    selected: Optional[Set[str]] = None,
    ignore_scope: bool = False,
) -> Tuple[List[Finding], List[Finding], int]:
    """Returns (active findings, suppressed findings, files scanned)."""
    contexts: Dict[str, FileContext] = {}
    for rel in rels:
        try:
            contexts[rel] = load_file(root, rel)
        except OSError as e:
            print(f"agile-lint: cannot read {rel}: {e}", file=sys.stderr)

    raw_findings: List[Finding] = []
    for rel, ctx in contexts.items():
        for chk in CHECKS.values():
            if selected and chk.name not in selected:
                continue
            if not applies(chk, ctx, ignore_scope):
                continue
            raw_findings.extend(chk.fn(ctx))
    if not selected or "include-cycle" in selected:
        raw_findings.extend(find_include_cycles(contexts))

    # Suppression bookkeeping (and meta-findings about the suppressions
    # themselves).
    known = set(all_check_names())
    active: List[Finding] = []
    suppressed: List[Finding] = []
    for ctx in contexts.values():
        for s in ctx.suppressions:
            if s.check not in known:
                active.append(Finding(
                    ctx.relpath, s.line, "unknown-suppression",
                    f"suppression names unknown check '{s.check}' — typo? "
                    f"(known: {', '.join(all_check_names())})"))
            elif not s.reason:
                active.append(Finding(
                    ctx.relpath, s.line, "bare-suppression",
                    f"suppression of '{s.check}' without a justification — "
                    "append ': <one-line reason>'"))

    for f in raw_findings:
        ctx = contexts.get(f.path)
        sup = False
        if ctx is not None:
            for s in ctx.suppressions:
                if s.check != f.check:
                    continue
                if s.file_level or s.line in (f.line, f.line - 1):
                    sup = True
                    break
        (suppressed if sup else active).append(f)

    active.sort(key=lambda f: (f.path, f.line, f.check))
    suppressed.sort(key=lambda f: (f.path, f.line, f.check))
    return active, suppressed, len(contexts)


# --------------------------------------------------------------------------
# Self-test over the fixture corpus
# --------------------------------------------------------------------------


def self_test(root: str) -> int:
    """Every check must ship >=1 'good' and >=1 'bad' fixture under
    fixtures/<check>/: bad fixtures must be flagged (by that check), good
    fixtures must be clean (for that check). Returns a process exit code."""
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fixtures")
    failures: List[str] = []
    names = all_check_names()
    for name in names:
        fdir = os.path.join(fixtures, name)
        if not os.path.isdir(fdir):
            failures.append(f"{name}: no fixture directory {fdir}")
            continue
        files = sorted(os.listdir(fdir))
        goods = [f for f in files if f.startswith("good")]
        bads = [f for f in files if f.startswith("bad") or f.startswith("regression")]
        if not goods or not bads:
            failures.append(f"{name}: needs >=1 good* and >=1 bad* fixture "
                            f"(found good={goods}, bad={bads})")
            continue
        for fx, want_findings in [(g, False) for g in goods] + \
                                 [(b, True) for b in bads]:
            rel = os.path.relpath(os.path.join(fdir, fx), root).replace(os.sep, "/")
            active, suppressed, _ = run_checks(
                root, [rel], selected={name}, ignore_scope=True)
            mine = [f for f in active if f.check == name]
            if want_findings and not mine:
                failures.append(
                    f"{name}: bad fixture {fx} produced no {name} finding")
            if not want_findings and mine:
                failures.append(
                    f"{name}: good fixture {fx} flagged: "
                    + "; ".join(f"line {f.line}: {f.message}" for f in mine))

    # Suppression machinery self-checks (driven by dedicated fixtures).
    meta_dir = os.path.join(fixtures, "_suppressions")
    if os.path.isdir(meta_dir):
        rels = [os.path.relpath(os.path.join(meta_dir, f), root).replace(os.sep, "/")
                for f in sorted(os.listdir(meta_dir))]
        active, suppressed, _ = run_checks(root, rels, ignore_scope=True)
        by_check = {f.check for f in active}
        if "unknown-suppression" not in by_check:
            failures.append("_suppressions: unknown-check suppression not flagged")
        if "bare-suppression" not in by_check:
            failures.append("_suppressions: reason-less suppression not flagged")
        if not any(f.check == "wall-clock" for f in suppressed):
            failures.append("_suppressions: justified wall-clock suppression "
                            "did not suppress the finding")
        if any(f.check == "wall-clock" for f in active):
            failures.append("_suppressions: suppressed wall-clock finding "
                            "leaked into the active set")
    else:
        failures.append("missing fixtures/_suppressions corpus")

    if failures:
        print("agile-lint self-test FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"agile-lint self-test OK: {len(names)} checks, "
          "fixture corpus behaves as specified")
    return 0


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(prog="agile-lint", description=__doc__)
    ap.add_argument("paths", nargs="*", help="files/dirs to scan "
                    "(default: src bench tests examples under --root)")
    ap.add_argument("--root", default=None,
                    help="repository root (default: auto from this script)")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--checks", default=None,
                    help="comma-separated subset of checks to run")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--self-test", action="store_true",
                    help="validate every check against its fixture corpus")
    ap.add_argument("--show-suppressed", action="store_true",
                    help="also print findings silenced by suppressions")
    args = ap.parse_args(argv)

    if args.list_checks:
        fam = {n: CHECKS[n].family for n in CHECKS}
        fam.update({n: meta[0] for n, meta in CORPUS_CHECKS.items()})
        desc = {n: CHECKS[n].description for n in CHECKS}
        desc.update({n: meta[1] for n, meta in CORPUS_CHECKS.items()})
        for n in all_check_names():
            print(f"{n:22s} [{fam[n]}]  {desc[n]}")
        return 0

    root = os.path.abspath(
        args.root
        or os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))

    if args.self_test:
        return self_test(root)

    selected: Optional[Set[str]] = None
    if args.checks:
        selected = {c.strip() for c in args.checks.split(",") if c.strip()}
        unknown = selected - set(all_check_names())
        if unknown:
            print(f"agile-lint: unknown checks: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    rels = iter_source_files(root, args.paths or None)
    active, suppressed, scanned = run_checks(root, rels, selected)

    if args.format == "json":
        out = {
            "files_scanned": scanned,
            "findings": [f.__dict__ for f in active],
            "suppressed": [f.__dict__ for f in suppressed],
            "counts": {},
        }
        for f in active:
            out["counts"][f.check] = out["counts"].get(f.check, 0) + 1
        json.dump(out, sys.stdout, indent=2)
        print()
    else:
        for f in active:
            print(f"{f.path}:{f.line}: [{f.check}] {f.message}")
        if args.show_suppressed:
            for f in suppressed:
                print(f"{f.path}:{f.line}: [suppressed:{f.check}] {f.message}")
        print(f"agile-lint: {scanned} files, {len(active)} finding(s), "
              f"{len(suppressed)} suppressed")
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
