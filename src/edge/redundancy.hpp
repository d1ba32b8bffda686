#pragma once
// Redundancy-aware uplink (DESIGN.md §16, ROADMAP item 3).
//
// At city scale overlapping views make most uploaded bytes redundant: the
// edge already tracks what several vehicles keep re-uploading. One switch
// gates two mechanisms, both off by default so every golden stays
// byte-identical:
//   1. Coverage-feedback suppression — the edge piggybacks per-region
//      coverage confidence on the downlink; vehicles down-sample extracted
//      points in well-covered foreign regions (deterministic seed-hashed
//      point selection, never a full drop).
//   2. Delta encoding — per-object delta chunks against the last keyframe
//      (pc::encode_delta), keyframing on a fixed cadence and whenever the
//      feedback ack shows the base never arrived.
// The tuning is fixed: the constants below are read by both the vehicle and
// the edge, so the two ends always agree on thresholds. The switch is
// embedded in ClientConfig, EdgeConfig and RunnerConfig; the runner copies
// its own into both sides.

#include <cstddef>
#include <cstdint>

namespace erpd::edge {

struct RedundancyConfig {
  /// Master switch. Off = no feedback messages, no suppression, no deltas:
  /// the pipeline is bit-identical to the pre-redundancy system.
  bool enabled{false};
};

// --- Coverage feedback (edge side) ---
/// EMA weight for the per-region coverage confidence update:
/// conf += alpha * (instant - conf). Higher = faster tracking, noisier.
inline constexpr double kCoverageAlpha = 0.6;
/// Uploaded points per frame that saturate a region's instant coverage
/// score on their own.
inline constexpr double kCoveragePointsNorm = 400.0;
/// Instant-coverage contribution of one fresh confirmed track in the region
/// (two fresh tracks + some points saturate).
inline constexpr double kCoverageTrackWeight = 0.34;

// --- Suppression (vehicle side) ---
/// Down-sample extracted objects in regions whose feedback confidence is at
/// least this — including the vehicle's own region: the coverage EMA is
/// self-regulating, so once suppressed uploads no longer sustain the
/// confidence it decays below the threshold and full uploads resume.
inline constexpr double kSuppressThreshold = 0.5;
/// Fraction of points kept in a suppressed object (seed-hashed per-point
/// Bernoulli, deterministic across thread counts and runs).
inline constexpr double kKeepFraction = 0.1;
/// Never down-sample an object below this many points (keeps the edge's
/// centroid/extent estimates and visibility checks alive).
inline constexpr std::size_t kKeepMinPoints = 6;
/// Feedback older than this many seconds of simulated time is ignored:
/// stale coverage claims must decay to "upload everything", not linger.
inline constexpr double kMaxFeedbackAge = 1.0;
/// Hash seed for the per-point suppression draw.
inline constexpr std::uint64_t kSuppressSeed = 0x1ed0;

// --- Delta encoding (vehicle side) ---
/// Send a fresh keyframe at least every this-many uploads of an object,
/// bounding drift and loss-recovery time.
inline constexpr int kKeyframeInterval = 10;

static_assert(kCoverageAlpha > 0.0 && kCoverageAlpha <= 1.0);
static_assert(kCoveragePointsNorm > 0.0);
static_assert(kCoverageTrackWeight >= 0.0);
static_assert(kSuppressThreshold >= 0.0 && kSuppressThreshold <= 1.0);
static_assert(kKeepFraction > 0.0 && kKeepFraction <= 1.0);
static_assert(kMaxFeedbackAge > 0.0);
static_assert(kKeyframeInterval >= 1);

}  // namespace erpd::edge
