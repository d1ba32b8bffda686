#!/usr/bin/env python3
"""detlint — repo-specific determinism linter for the erpd tree.

The regression story of this reproduction (bit-exact seed-42 golden decision
stream, per-method behavior fingerprints, 1/2/8-worker determinism suite)
rests on conventions that no compiler checks. detlint enforces them
statically, at the token level, with zero dependencies beyond the Python
standard library — so it always runs and always gates, with or without a
compile database. The clang-tidy profile (tools/detlint wrapper) adds
type-aware checks when a toolchain is available; this analyzer is the floor.

Rules (DESIGN.md §13 is the normative spec):

  D1  No iteration over std::unordered_map / std::unordered_set in src/
      unless the site carries an ERPD_ORDER_INSENSITIVE annotation (macro or
      `// ERPD_ORDER_INSENSITIVE: <why>` comment, on the loop line or within
      the five lines above) stating why the fold commutes.
  D2  No std::rand/srand, std::random_device, and no direct construction of
      std::mt19937-family generators outside src/core/rng.hpp. Sequential
      generators are built via core::seeded_rng from config-derived seeds;
      concurrent units derive SplitMix64 streams via core::seed_mix.
  D3  No wall clocks (std::chrono::{system,steady,high_resolution}_clock,
      time(), clock_gettime, gettimeofday) outside src/obs/ and bench/.
      Simulated outputs must be pure functions of seed + config.
  D4  No mutable static / thread_local state outside the thread pool
      (src/core/thread_pool.*). `static const` / `static constexpr` are
      fine; hidden mutable globals make runs order-dependent.
  D5  No float/double compound accumulation (+=, -=, *=, /=) into variables
      captured by parallel_for / parallel_chunks lambdas. FP addition does
      not associate; accumulate per chunk and reduce in chunk-index order.
  D6  No pointer-keyed ordering: std::map/std::set (or unordered variants)
      keyed on a pointer type. Addresses vary run to run, so any order or
      hash derived from them is non-deterministic.

Suppression: `// detlint: D<n> <justification>` on the offending line, or on
a comment line directly above it (blank and comment lines in between are
skipped). An empty justification is itself an error — the point is a
reviewable reduction argument, not a mute button.

Usage:
  tools/detlint.py [paths...]          lint (default: src)
  tools/detlint.py --self-test DIR     run the fixture corpus in DIR
  tools/detlint.py --report FILE ...   also write findings to FILE
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

RULES = {
    "D1": "unordered-container iteration without ERPD_ORDER_INSENSITIVE",
    "D2": "raw RNG construction outside core/rng.hpp",
    "D3": "wall clock outside src/obs/ and bench/",
    "D4": "mutable static/thread_local state outside the thread pool",
    "D5": "float accumulation inside a parallel lambda",
    "D6": "pointer-keyed ordering",
}

CPP_EXTS = (".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


# --------------------------------------------------------------------------
# Lexing: blank out comments and string/char literals, preserving line
# structure, so token rules never fire on prose or log text.
# --------------------------------------------------------------------------

def blank_comments_and_strings(text: str) -> str:
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                out.append("  ")
                i += 2
                state = "line_comment"
            elif c == "/" and nxt == "*":
                out.append("  ")
                i += 2
                state = "block_comment"
            elif c == '"':
                out.append('"')
                i += 1
                state = "string"
            elif c == "'":
                out.append("'")
                i += 1
                state = "char"
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                out.append("\n")
                state = "code"
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                out.append("  ")
                i += 2
                state = "code"
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
            elif c == quote:
                out.append(quote)
                i += 1
                state = "code"
            elif c == "\n":  # unterminated (macro line continuation etc.)
                out.append("\n")
                i += 1
                state = "code"
            else:
                out.append(" ")
                i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Suppressions and annotations.
# --------------------------------------------------------------------------

SUPPRESS_RE = re.compile(r"//\s*detlint:\s*(D[1-6])\b[ \t]*(.*)")
ANNOTATION_TOKEN = "ERPD_ORDER_INSENSITIVE"
ANNOTATION_WINDOW = 5  # lines above the loop where the annotation may sit


class FileContext:
    def __init__(self, path: str, raw: str):
        self.path = path
        self.raw_lines = raw.splitlines()
        self.code = blank_comments_and_strings(raw)
        self.code_lines = self.code.splitlines()
        # rule -> set of suppressed line numbers (1-based)
        self.suppressed: dict[str, set[int]] = {r: set() for r in RULES}
        self.bad_suppressions: list[Finding] = []
        self._collect_suppressions()

    def _collect_suppressions(self) -> None:
        for idx, raw in enumerate(self.raw_lines):
            m = SUPPRESS_RE.search(raw)
            if not m:
                continue
            rule, why = m.group(1), m.group(2).strip()
            if not why:
                self.bad_suppressions.append(
                    Finding(self.path, idx + 1, rule,
                            "suppression without a justification — state the "
                            "reduction/safety argument"))
                continue
            target = idx + 1  # the suppression's own line
            # A comment-only line suppresses the next code line (skipping
            # blanks and further comment lines).
            code_here = (self.code_lines[idx].strip()
                         if idx < len(self.code_lines) else "")
            if not code_here:
                j = idx + 1
                while j < len(self.code_lines) and not self.code_lines[j].strip():
                    j += 1
                target = j + 1
            self.suppressed[rule].add(target)
            # Multi-line statements: let the suppression cover the following
            # line as well, so wrapped declarations stay suppressible.
            self.suppressed[rule].add(target + 1)

    def is_suppressed(self, rule: str, line: int) -> bool:
        return line in self.suppressed[rule]

    def has_order_annotation(self, line: int) -> bool:
        lo = max(0, line - 1 - ANNOTATION_WINDOW)
        for idx in range(lo, line):
            if idx < len(self.raw_lines) and ANNOTATION_TOKEN in self.raw_lines[idx]:
                return True
        return False


# --------------------------------------------------------------------------
# D1: unordered-container iteration.
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set)\s*<")


def _match_angle_brackets(text: str, start: int) -> int:
    """Index just past the matching '>' for the '<' at text[start]."""
    depth = 0
    i = start
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{":  # never part of a template-arg list we care about
            return -1
        i += 1
    return -1


NAME_AFTER_TYPE_RE = re.compile(r"\s*(?:&|\*)?\s*([A-Za-z_]\w*)")


def collect_unordered_names(code: str) -> set[str]:
    """Names of variables/members declared with an unordered container type.

    Also resolves one level of `using Alias = std::unordered_map<...>;`.
    """
    names: set[str] = set()
    aliases: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        open_idx = m.end() - 1
        end = _match_angle_brackets(code, open_idx)
        if end < 0:
            continue
        # `using Alias = std::unordered_map<...>` declares a type, not a var.
        prefix = code[max(0, m.start() - 120):m.start()]
        alias_m = re.search(r"\busing\s+([A-Za-z_]\w*)\s*=\s*$", prefix)
        if alias_m:
            aliases.add(alias_m.group(1))
            continue
        nm = NAME_AFTER_TYPE_RE.match(code, end)
        if nm:
            names.add(nm.group(1))
    for alias in aliases:
        for m in re.finditer(rf"\b{alias}\b", code):
            nm = NAME_AFTER_TYPE_RE.match(code, m.end())
            if nm and nm.group(1) != alias:
                names.add(nm.group(1))
    return names


RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
TRAILING_IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*$")


def _range_for_expr(code: str, for_open: int) -> tuple[str, int] | None:
    """For a `for (` at for_open, return (range expression, line) if it is a
    range-for. Handles nested parens/angle brackets in the declaration part.
    """
    depth = 0
    colon = -1
    i = for_open
    while i < len(code):
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                break
        elif c == ":" and depth == 1:
            # skip `::` scope operators
            if i + 1 < len(code) and code[i + 1] == ":":
                i += 2
                continue
            if i > 0 and code[i - 1] == ":":
                i += 1
                continue
            colon = i
        i += 1
    if colon < 0 or i >= len(code):
        return None
    expr = code[colon + 1:i].strip()
    line = code.count("\n", 0, colon) + 1
    return expr, line


def check_d1(ctx: FileContext, unordered_names: set[str]) -> list[Finding]:
    findings = []
    for m in RANGE_FOR_RE.finditer(ctx.code):
        rf = _range_for_expr(ctx.code, m.end() - 1)
        if rf is None:
            continue
        expr, line = rf
        # The iterated entity is the trailing identifier chain: `fleet_`,
        # `scan.points_per_agent`, `co.points_per_agent`...
        expr = re.sub(r"\(\s*\)\s*$", "", expr)  # accessor() call
        tid = TRAILING_IDENT_RE.search(expr)
        if not tid or tid.group(1) not in unordered_names:
            continue
        if ctx.has_order_annotation(line) or ctx.is_suppressed("D1", line):
            continue
        findings.append(Finding(
            ctx.path, line, "D1",
            f"range-for over unordered container '{tid.group(1)}' — use an "
            "ordered container, iterate a sorted copy of the keys, or "
            "annotate ERPD_ORDER_INSENSITIVE with the reduction argument"))
    # Explicit iterator walks over unordered containers.
    for m in re.finditer(r"([A-Za-z_]\w*)\s*\.\s*begin\s*\(\s*\)", ctx.code):
        if m.group(1) not in unordered_names:
            continue
        line = ctx.code.count("\n", 0, m.start()) + 1
        if ctx.has_order_annotation(line) or ctx.is_suppressed("D1", line):
            continue
        findings.append(Finding(
            ctx.path, line, "D1",
            f"iterator walk over unordered container '{m.group(1)}' — same "
            "remedies as range-for"))
    return findings


# --------------------------------------------------------------------------
# D2: raw randomness.
# --------------------------------------------------------------------------

D2_ALWAYS_RE = re.compile(
    r"std::random_device|std::rand\b|(?<![\w:.])s?rand\s*\(")
D2_GENERATORS = r"(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|ranlux(?:24|48)(?:_base)?|knuth_b)"
# Construction: generator type followed by an identifier and a NON-EMPTY
# ctor argument list, or seeded as a temporary. Empty parens are a function
# declaration (or a default construction, whose fixed default_seed is
# deterministic); references/parameters (`&`) never match.
D2_CONSTRUCT_RE = re.compile(
    rf"std::{D2_GENERATORS}\s+[A-Za-z_]\w*\s*(?:\([^)\s]|\{{[^}}\s])"
    rf"|std::{D2_GENERATORS}\s*(?:\([^)\s]|\{{[^}}\s])")


def check_d2(ctx: FileContext) -> list[Finding]:
    if ctx.path.replace(os.sep, "/").endswith("core/rng.hpp"):
        return []
    findings = []
    for idx, line in enumerate(ctx.code_lines):
        hit = D2_ALWAYS_RE.search(line)
        if hit is None:
            if "core::seeded_rng" in line:
                continue  # sanctioned factory; naming the type is fine
            hit = D2_CONSTRUCT_RE.search(line)
        if hit is None:
            continue
        ln = idx + 1
        if ctx.is_suppressed("D2", ln):
            continue
        findings.append(Finding(
            ctx.path, ln, "D2",
            f"raw randomness '{hit.group(0).strip()}' — derive streams via "
            "core::seed_mix/SplitMix64, or build sequential generators with "
            "core::seeded_rng from a config seed"))
    return findings


# --------------------------------------------------------------------------
# D3: wall clocks.
# --------------------------------------------------------------------------

D3_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|\bclock_gettime\b|\bgettimeofday\b|std::clock\b|std::time\s*\("
    # Bare C time(): only the classic call forms, so accessors *named* time()
    # (sim::World::time) don't trip the rule.
    r"|(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0|&\w+)\s*\)")
D3_EXEMPT = ("/obs/",)


def check_d3(ctx: FileContext) -> list[Finding]:
    p = ctx.path.replace(os.sep, "/")
    if any(e in p for e in D3_EXEMPT) or p.startswith(("bench/", "./bench/")):
        return []
    findings = []
    for idx, line in enumerate(ctx.code_lines):
        m = D3_RE.search(line)
        if m is None:
            continue
        ln = idx + 1
        if ctx.is_suppressed("D3", ln):
            continue
        findings.append(Finding(
            ctx.path, ln, "D3",
            f"wall clock '{m.group(0).strip()}' — simulated outputs must be "
            "pure functions of seed + config; wall timing belongs in "
            "src/obs/ spans or bench/"))
    return findings


# --------------------------------------------------------------------------
# D4: mutable static / thread_local state.
# --------------------------------------------------------------------------

D4_DECL_RE = re.compile(r"^\s*(?:inline\s+)?(static|thread_local)\b")
D4_EXEMPT_SUFFIXES = ("core/thread_pool.cpp", "core/thread_pool.hpp")
IMMUTABLE_RE = re.compile(r"^\s*(?:inline\s+)?(?:const\b|constexpr\b)")
FUNC_DECL_RE = re.compile(r"[A-Za-z_]\w*\s*\(")
VAR_DECL_RE = re.compile(r"([A-Za-z_]\w*(?:\s*\[[^\]]*\])?)\s*(?:=|;|\{)")


def check_d4(ctx: FileContext) -> list[Finding]:
    p = ctx.path.replace(os.sep, "/")
    if p.endswith(D4_EXEMPT_SUFFIXES):
        return []
    findings = []
    for idx, line in enumerate(ctx.code_lines):
        m = D4_DECL_RE.match(line)
        if m is None:
            continue
        rest = line[m.end():]
        # Join up to two continuation lines so wrapped declarations classify.
        j = idx
        while ";" not in rest and "{" not in rest and j + 1 < len(ctx.code_lines) and j < idx + 2:
            j += 1
            rest += " " + ctx.code_lines[j].strip()
        rest = rest.strip()
        if rest.startswith(("_assert", "_cast")):
            continue  # static_assert / static_cast against the \b boundary
        if IMMUTABLE_RE.match(rest):
            continue  # static const / static constexpr: immutable after init
        # Distinguish `static T f(...)` (function: fine) from
        # `static T v = ...` / `static T v;` / `static T v{...}` (state).
        func = FUNC_DECL_RE.search(rest)
        var = VAR_DECL_RE.search(rest)
        if var is None:
            continue
        if func is not None and func.start() <= var.start():
            continue
        ln = idx + 1
        if ctx.is_suppressed("D4", ln):
            continue
        findings.append(Finding(
            ctx.path, ln, "D4",
            f"mutable {m.group(1)} state '{var.group(1)}' — hidden global "
            "state makes results depend on call order/thread identity; pass "
            "state explicitly or justify with a suppression"))
    return findings


# --------------------------------------------------------------------------
# D5: float accumulation inside parallel lambdas.
# --------------------------------------------------------------------------

PARALLEL_CALL_RE = re.compile(r"\bparallel_(?:for|chunks)\s*\(")
FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+([A-Za-z_]\w*)\s*[=;{(,]")


def _lambda_body_span(code: str, call_start: int) -> tuple[int, int] | None:
    """Span (open_brace, close_brace) of the first lambda body in the call."""
    intro = code.find("[", call_start)
    if intro < 0:
        return None
    open_brace = code.find("{", intro)
    if open_brace < 0:
        return None
    depth = 0
    for i in range(open_brace, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return open_brace, i
    return None


def check_d5(ctx: FileContext) -> list[Finding]:
    findings = []
    for call in PARALLEL_CALL_RE.finditer(ctx.code):
        span = _lambda_body_span(ctx.code, call.end())
        if span is None:
            continue
        body = ctx.code[span[0]:span[1]]
        # Captured floats: declared before the lambda opens.
        captured = {m.group(1)
                    for m in FLOAT_DECL_RE.finditer(ctx.code, 0, span[0])}
        local = {m.group(1) for m in FLOAT_DECL_RE.finditer(body)}
        for name in sorted(captured - local):
            acc = re.search(rf"(?<![\w\].>]){name}\s*[+\-*/]=", body)
            if acc is None:
                continue
            line = ctx.code.count("\n", 0, span[0] + acc.start()) + 1
            if (ctx.is_suppressed("D5", line)
                    or ctx.has_order_annotation(line)):
                continue
            findings.append(Finding(
                ctx.path, line, "D5",
                f"float accumulation into captured '{name}' inside a "
                "parallel lambda — FP addition does not associate; "
                "accumulate per chunk and reduce in chunk-index order"))
    return findings


# --------------------------------------------------------------------------
# D6: pointer-keyed ordering.
# --------------------------------------------------------------------------

D6_MAPSET_RE = re.compile(r"\b(?:unordered_)?(?:map|set)\s*<")


def check_d6(ctx: FileContext) -> list[Finding]:
    findings = []
    for m in D6_MAPSET_RE.finditer(ctx.code):
        open_idx = m.end() - 1
        end = _match_angle_brackets(ctx.code, open_idx)
        if end < 0:
            continue
        args = ctx.code[open_idx + 1:end - 1]
        # First template argument = the key type.
        depth = 0
        key = args
        for i, c in enumerate(args):
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
            elif c == "," and depth == 0:
                key = args[:i]
                break
        if "*" not in key:
            continue
        line = ctx.code.count("\n", 0, m.start()) + 1
        if ctx.is_suppressed("D6", line):
            continue
        findings.append(Finding(
            ctx.path, line, "D6",
            f"container keyed on pointer type '{key.strip()}' — addresses "
            "vary run to run; key on a stable id instead"))
    return findings


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

def lint_files(paths: list[str]) -> list[Finding]:
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for n in sorted(names):
                    if n.endswith(CPP_EXTS):
                        files.append(os.path.join(root, n))
        elif p.endswith(CPP_EXTS):
            files.append(p)
    files.sort()

    contexts = []
    unordered_names: set[str] = set()
    for f in files:
        with open(f, encoding="utf-8", errors="replace") as fh:
            raw = fh.read()
        ctx = FileContext(f, raw)
        contexts.append(ctx)
        # D1 names are collected project-wide: a member declared unordered in
        # a header is recognized when iterated from another translation unit.
        unordered_names |= collect_unordered_names(ctx.code)

    findings: list[Finding] = []
    for ctx in contexts:
        findings.extend(ctx.bad_suppressions)
        findings.extend(check_d1(ctx, unordered_names))
        findings.extend(check_d2(ctx))
        findings.extend(check_d3(ctx))
        findings.extend(check_d4(ctx))
        findings.extend(check_d5(ctx))
        findings.extend(check_d6(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def run_self_test(fixture_dir: str) -> int:
    """Fixture contract: fail_dN_*.cpp must trip rule DN (and only DN);
    pass_*.cpp must be clean. Anything else in the directory is ignored."""
    failures = []
    ran = 0
    for name in sorted(os.listdir(fixture_dir)):
        path = os.path.join(fixture_dir, name)
        if not name.endswith(CPP_EXTS):
            continue
        ran += 1
        findings = lint_files([path])
        rules_hit = {f.rule for f in findings}
        if name.startswith("fail_d"):
            want = "D" + name[len("fail_d")]
            if want not in rules_hit:
                failures.append(f"{name}: expected a {want} finding, got "
                                f"{sorted(rules_hit) or 'none'}")
            elif rules_hit != {want}:
                failures.append(f"{name}: expected only {want}, got "
                                f"{sorted(rules_hit)}")
        elif name.startswith("pass_"):
            if findings:
                listing = "; ".join(f.render() for f in findings)
                failures.append(f"{name}: expected clean, got {listing}")
        else:
            failures.append(f"{name}: fixture must be named fail_dN_* or "
                            "pass_*")
    if ran == 0:
        print(f"detlint self-test: no fixtures found in {fixture_dir}",
              file=sys.stderr)
        return 1
    for f in failures:
        print(f"detlint self-test FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"detlint self-test: {ran} fixtures ok")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", default=None)
    ap.add_argument("--report", help="also write findings to this file")
    ap.add_argument("--self-test", metavar="DIR",
                    help="run the fixture corpus in DIR and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        return run_self_test(args.self_test)

    paths = args.paths or ["src"]
    findings = lint_files(paths)
    lines = [f.render() for f in findings]
    for ln in lines:
        print(ln, file=sys.stderr)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    if findings:
        print(f"detlint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("detlint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
