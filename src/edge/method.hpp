#pragma once
// The evaluated methods (paper §IV). Each one fixes an upload policy at the
// vehicle together with a dissemination strategy at the edge:
//   kSingle    — no sharing at all;
//   kEmp       — EMP [9]: Voronoi-cell uploads + Round-Robin dissemination,
//                both bandwidth-capped;
//   kOurs      — moving-object uploads + relevance-greedy dissemination;
//   kUnlimited — raw uploads + full-map broadcast, no caps.
// VehicleClient, EdgeServer and SystemRunner all switch on this one value;
// the runner copies its own into both ends, so they can never disagree.

#include <cstdint>

namespace erpd::edge {

enum class Method : std::uint8_t { kSingle, kEmp, kOurs, kUnlimited };

inline const char* to_string(Method m) {
  switch (m) {
    case Method::kSingle: return "Single";
    case Method::kEmp: return "EMP";
    case Method::kOurs: return "Ours";
    case Method::kUnlimited: return "Unlimited";
  }
  return "?";
}

}  // namespace erpd::edge
