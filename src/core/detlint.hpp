#pragma once
// Determinism annotations for the detlint static-analysis pass
// (tools/detlint.py; rules D1-D6 are specified in DESIGN.md §13).
//
// The repo's regression story — the bit-exact seed-42 golden, the per-method
// behavior fingerprints, the 1/2/8-worker determinism suite — depends on
// invariants no compiler checks: randomness flows only through splitmix64
// streams, no wall clock reaches simulated outputs, and no hash-ordered
// iteration influences results. detlint enforces those statically; this
// header provides the one *annotation* (as opposed to suppression) it
// recognizes.
//
// ERPD_ORDER_INSENSITIVE marks a loop over a hash-ordered container whose
// fold provably commutes — the result is identical for every visitation
// order, so rule D1 (no unordered-container iteration in src/) does not
// apply. The justification is mandatory and should state the reduction
// argument ("per-key += of counts commutes", not "reviewed"). detlint
// accepts the macro on the loop line or within the five lines above it; the
// equivalent comment form `// ERPD_ORDER_INSENSITIVE: <why>` also works
// where a statement cannot appear.
//
// For everything that does NOT commute, do not annotate — refactor: use an
// ordered container (std::map, std::set), or iterate a sorted copy of the
// keys.

#define ERPD_ORDER_INSENSITIVE(justification)                               \
  static_assert(sizeof(justification) > 1,                                  \
                "ERPD_ORDER_INSENSITIVE requires a non-empty reduction "    \
                "argument")
