#!/usr/bin/env bash
# Repo lint gate: clang-tidy (when available) plus custom grep rules.
#
# Usage:
#   tools/lint.sh [--build-dir DIR] [--no-tidy] [paths...]
#
# Paths default to src/. Exits non-zero on any finding so CI can gate on it.
#
# Custom rules (enforced on library code under src/):
#   R1  no naked `new` / `new[]` — use containers or std::make_unique
#   R2  no std::cout/std::cerr/printf in libraries — libraries return data,
#       binaries (bench/, examples/) do the printing
#   R3  every header starts with `#pragma once`
#   R4  no `using namespace std;`
#   R5  no `#include <iostream>` in src/ headers — it drags in static init
#       (std::ios_base::Init) for every TU and invites R2 violations
#   R6  no float == / != against a float literal — exact comparison of
#       computed floats is almost always a latent nondeterminism bug; the
#       rare sanctioned site carries `// lint-ok: R6 <reason>` on the line
#   R7  one booking site: `obs::Counter*` / `obs::Counter&` and
#       `counter("...")` lookups appear only in src/obs/ and
#       src/edge/system_runner.cpp — components return tallies, the runner
#       books them (DESIGN.md §11)
#   R8  one build of the library: no `#if`/`#ifdef`/`#ifndef`/`#elif` on an
#       `ERPD_*` macro under src/ — a build option that forks library code is
#       a second program no test builds. Exceptions: ERPD_ENABLE_DCHECKS in
#       src/core/check.hpp (debug-only contract checks) and ERPD_GIT_SHA in
#       src/obs/manifest.cpp (a stamped string, not a code path)
#
# clang-tidy runs against the compile database (build/compile_commands.json,
# generated automatically by CMake via CMAKE_EXPORT_COMPILE_COMMANDS). When
# clang-tidy is not installed the step is skipped with a notice — the custom
# rules still run and still gate.

set -u

BUILD_DIR="build"
RUN_TIDY=1
PATHS=()

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir)
      BUILD_DIR="$2"
      shift 2
      ;;
    --no-tidy)
      RUN_TIDY=0
      shift
      ;;
    *)
      PATHS+=("$1")
      shift
      ;;
  esac
done

cd "$(dirname "$0")/.."
[[ ${#PATHS[@]} -eq 0 ]] && PATHS=(src)

FAILURES=0

note() { printf '%s\n' "$*"; }
fail() {
  printf 'lint: %s\n' "$*" >&2
  FAILURES=$((FAILURES + 1))
}

# ---------------------------------------------------------------- custom rules
# Comments are stripped before matching so prose like "start new tracks"
# does not trip rule R1.
strip_comments() {
  sed -e 's,//.*$,,' "$1"
}

mapfile -t SOURCES < <(find "${PATHS[@]}" -type f \( -name '*.cpp' -o -name '*.hpp' \) | sort)
mapfile -t HEADERS < <(find "${PATHS[@]}" -type f -name '*.hpp' | sort)

for f in "${SOURCES[@]}"; do
  # R1: naked new expressions (skip bench/examples if passed explicitly).
  if strip_comments "$f" | grep -nE '(^|[^[:alnum:]_])new[[:space:]]+[A-Za-z_:(]' \
      | grep -vE 'placement' > /tmp/lint_hits.$$ 2>/dev/null; then
    while IFS= read -r hit; do
      fail "R1 naked new in $f:${hit%%:*}: ${hit#*:}"
    done < /tmp/lint_hits.$$
  fi
  rm -f /tmp/lint_hits.$$

  # R2: stdout/stderr printing inside library code.
  case "$f" in
    src/*)
      if strip_comments "$f" | grep -nE 'std::cout|std::cerr|[^[:alnum:]_.]printf[[:space:]]*\(' \
          > /tmp/lint_hits.$$ 2>/dev/null; then
        while IFS= read -r hit; do
          fail "R2 console I/O in library $f:${hit%%:*}: ${hit#*:}"
        done < /tmp/lint_hits.$$
      fi
      rm -f /tmp/lint_hits.$$
      ;;
  esac

  # R4: namespace pollution.
  if strip_comments "$f" | grep -nE 'using[[:space:]]+namespace[[:space:]]+std[[:space:]]*;' \
      > /tmp/lint_hits.$$ 2>/dev/null; then
    while IFS= read -r hit; do
      fail "R4 'using namespace std' in $f:${hit%%:*}"
    done < /tmp/lint_hits.$$
  fi
  rm -f /tmp/lint_hits.$$

  # R6: exact float comparison against a float literal. Matched on the raw
  # line (not comment-stripped) so the `// lint-ok: R6 <reason>` suppression
  # can be seen; the grep itself only fires on code because a literal-vs-
  # operator pattern does not occur in our comment prose.
  case "$f" in
    src/*)
      if grep -nE '(==|!=)[[:space:]]*-?[0-9]+\.[0-9]|[0-9]\.[0-9]*f?[[:space:]]*(==|!=)' "$f" \
          > /tmp/lint_hits.$$ 2>/dev/null; then
        while IFS= read -r hit; do
          line_text="${hit#*:}"
          [[ "$line_text" == *"lint-ok: R6"* ]] && continue  # sanctioned site
          # Drop hits where the match sits inside a trailing comment.
          stripped="${line_text%%//*}"
          if printf '%s' "$stripped" | grep -qE '(==|!=)[[:space:]]*-?[0-9]+\.[0-9]|[0-9]\.[0-9]*f?[[:space:]]*(==|!=)'; then
            fail "R6 exact float comparison in $f:${hit%%:*}: ${stripped}"
          fi
        done < /tmp/lint_hits.$$
      fi
      rm -f /tmp/lint_hits.$$
      ;;
  esac

  # R7: counters are resolved and booked only by the registry itself and the
  # runner; anywhere else a counter is a second booking of a fate.
  case "$f" in
    src/obs/*|src/edge/system_runner.cpp) ;;
    src/*)
      if strip_comments "$f" | grep -nE 'obs::Counter[[:space:]]*[*&]|counter\("' \
          > /tmp/lint_hits.$$ 2>/dev/null; then
        while IFS= read -r hit; do
          fail "R7 counter booked outside the runner in $f:${hit%%:*}: ${hit#*:}"
        done < /tmp/lint_hits.$$
      fi
      rm -f /tmp/lint_hits.$$
      ;;
  esac

  # R8: preprocessor conditionals on project build options.
  case "$f" in
    src/*)
      if strip_comments "$f" \
          | grep -nE '^[[:space:]]*#[[:space:]]*(if|ifdef|ifndef|elif)([^[:alnum:]_]|$).*ERPD_' \
          > /tmp/lint_hits.$$ 2>/dev/null; then
        while IFS= read -r hit; do
          for macro in $(printf '%s' "${hit#*:}" | grep -oE 'ERPD_[A-Za-z0-9_]+'); do
            case "$f:$macro" in
              src/core/check.hpp:ERPD_ENABLE_DCHECKS) ;;
              src/obs/manifest.cpp:ERPD_GIT_SHA) ;;
              *) fail "R8 build-option fork on $macro in $f:${hit%%:*}: ${hit#*:}" ;;
            esac
          done
        done < /tmp/lint_hits.$$
      fi
      rm -f /tmp/lint_hits.$$
      ;;
  esac
done

# R3: headers must open with #pragma once (first non-empty, non-comment line).
for f in "${HEADERS[@]}"; do
  first=$(grep -vE '^[[:space:]]*(//.*)?$' "$f" | head -1)
  if [[ "$first" != "#pragma once" ]]; then
    fail "R3 header $f does not start with '#pragma once'"
  fi

  # R5: <iostream> in library headers.
  case "$f" in
    src/*)
      if strip_comments "$f" | grep -nE '#[[:space:]]*include[[:space:]]*<iostream>' \
          > /tmp/lint_hits.$$ 2>/dev/null; then
        while IFS= read -r hit; do
          fail "R5 '#include <iostream>' in header $f:${hit%%:*}"
        done < /tmp/lint_hits.$$
      fi
      rm -f /tmp/lint_hits.$$
      ;;
  esac
done

# ------------------------------------------------------------------ clang-tidy
if [[ $RUN_TIDY -eq 1 ]]; then
  if ! command -v clang-tidy > /dev/null 2>&1; then
    note "lint: clang-tidy not installed; skipping tidy step (custom rules still enforced)"
  elif [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
    note "lint: $BUILD_DIR/compile_commands.json missing; configure with cmake first — skipping tidy step"
  else
    mapfile -t TIDY_SOURCES < <(find "${PATHS[@]}" -type f -name '*.cpp' | sort)
    if command -v run-clang-tidy > /dev/null 2>&1; then
      if ! run-clang-tidy -quiet -p "$BUILD_DIR" "${TIDY_SOURCES[@]}"; then
        fail "clang-tidy reported findings"
      fi
    else
      for f in "${TIDY_SOURCES[@]}"; do
        if ! clang-tidy -quiet -p "$BUILD_DIR" "$f"; then
          fail "clang-tidy findings in $f"
        fi
      done
    fi
  fi
fi

if [[ $FAILURES -gt 0 ]]; then
  printf 'lint: %d finding(s)\n' "$FAILURES" >&2
  exit 1
fi
note "lint: clean"
