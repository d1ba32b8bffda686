#pragma once
// On-vehicle pipeline (paper Fig. 2, left box).
//
// Per LiDAR frame a connected vehicle produces an UploadFrame according to
// the method under evaluation (edge/method.hpp):
//   - kOurs:      ground removal + DBSCAN + frame differencing; only
//     moving-object clouds are uploaded (paper §II-B);
//   - kEmp:       EMP [9] — ground-removed cloud cropped to the vehicle's
//     Voronoi cell over the connected fleet;
//   - kUnlimited: the whole raw frame.
// kSingle shares nothing, so no client exists under it.
//
// truth_id tagging: the extractor does not know agent identities; the
// harness attaches them afterwards by nearest-centroid matching against the
// simulator ground truth, purely so that disseminations can be applied back
// to driver knowledge and scored. The edge server never reads truth ids.

#include <cstdint>
#include <optional>
#include <vector>

#include "edge/method.hpp"
#include "edge/redundancy.hpp"
#include "geom/voronoi.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "pointcloud/moving_extractor.hpp"
#include "sim/world.hpp"

namespace erpd::edge {

struct ClientConfig {
  /// Picks the upload policy; kSingle is refused. SystemRunner overwrites
  /// it with RunnerConfig::method.
  Method method{Method::kOurs};
  pc::MovingExtractorConfig extractor{};
  pc::EncodingConfig encoding{};
  /// Redundancy-aware uplink switch (coverage-feedback suppression + delta
  /// encoding). Off by default: make_upload is then byte-identical to the
  /// pre-redundancy pipeline.
  RedundancyConfig redundancy{};
  /// Optional observability registry (not owned). make_upload records its
  /// scan time into stage.sense and its extraction time into stage.extract
  /// — from whichever pool worker runs the client, which is why the
  /// registry must be shareable across threads. Its counts go out through
  /// ClientFrameStats; the runner books them.
  obs::MetricsRegistry* metrics{nullptr};
};

struct ClientFrameStats {
  std::size_t raw_points{0};
  std::size_t uploaded_bytes{0};
  /// Uplink bytes avoided this frame by the redundancy layer: coverage
  /// suppression savings plus delta-vs-keyframe savings. Zero when
  /// RedundancyConfig is off.
  std::size_t suppressed_bytes{0};
  /// Distance tests of this frame's on-vehicle DBSCAN (zero for methods
  /// that do not extract objects).
  std::uint64_t dbscan_distance_tests{0};
};

/// Working memory of make_upload: the scan, the extraction scratch and the
/// EMP cell crop. Capacity only, so any client may use any one. SystemRunner
/// keeps one per pool lane, never one per client, which would multiply the
/// largest buffers of a frame by the fleet size (DESIGN.md §20). Aligned to
/// a cache line: lanes push into their scratch's vectors concurrently, and
/// two lanes' vector headers must not share a line.
struct alignas(64) ClientScratch {
  sim::LidarScan scan;
  pc::ExtractScratch extract;
  pc::PointCloud cell;
};

class VehicleClient {
 public:
  VehicleClient(sim::AgentId vehicle, ClientConfig cfg = {});

  sim::AgentId vehicle() const { return vehicle_; }

  /// Run the local pipeline on this frame and build the upload.
  /// `voronoi` must cover the connected fleet under kEmp
  /// (cell index = position of this vehicle among the sites).
  /// `truth` optionally supplies a precomputed world snapshot for truth
  /// matching so that N clients sharing one frame do not each re-snapshot the
  /// world; pass nullptr to snapshot internally. The world is only read, so
  /// clients of distinct vehicles may run concurrently. `scratch`, when
  /// given, is the working memory (one per concurrent caller); without it
  /// the call allocates its own.
  net::UploadFrame make_upload(const sim::World& world,
                               const geom::VoronoiPartition* voronoi,
                               std::size_t voronoi_cell,
                               ClientFrameStats* stats = nullptr,
                               const std::vector<sim::AgentSnapshot>* truth =
                                   nullptr,
                               ClientScratch* scratch = nullptr);

  /// Drop all temporal pipeline state (frame-differencing baselines, delta
  /// keyframe bases, cached coverage feedback). Called by the harness when
  /// the vehicle reconnects after a radio blackout: the last processed frame
  /// may be arbitrarily old, so motion estimates derived from it would be
  /// garbage — and the edge may have forgotten our keyframes.
  void reset_pipeline();

  /// Deliver a coverage-feedback message from the edge (DESIGN.md §16).
  /// Applied from the *next* make_upload on: suppression decisions and delta
  /// acks read the latest fresh feedback. Ignored when redundancy is off.
  void receive_feedback(const net::CoverageFeedback& fb);

  /// Contract-check that a sensor pose is fully finite. make_upload refuses
  /// to build an upload from a non-finite pose: every uploaded cloud is
  /// world-framed through it, so a single NaN would silently poison the
  /// whole frame downstream.
  static void require_finite_pose(const geom::Pose& pose);

 private:
  sim::AgentId vehicle_;
  ClientConfig cfg_;
  pc::MovingObjectExtractor extractor_;

  /// Per-object delta state: identity (object_seq) assigned by nearest-
  /// centroid matching across frames, plus the last keyframe sent under that
  /// identity. Vector order = creation order (deterministic).
  struct TrackedObject {
    std::uint64_t object_seq{0};
    geom::Vec3 centroid{};
    pc::EncodedCloud keyframe{};
    std::uint64_t keyframe_upload_seq{0};
    double keyframe_time{0.0};
    int uploads_since_keyframe{0};
    double last_seen{0.0};
    bool matched{false};  // scratch flag within one make_upload
  };
  std::vector<TrackedObject> objects_;
  std::optional<net::CoverageFeedback> feedback_;
  std::uint64_t next_upload_seq_{1};
  std::uint64_t next_object_seq_{1};

  /// Find-or-create the TrackedObject for an extracted centroid (greedy
  /// nearest unmatched entry within 3 m).
  TrackedObject& match_object(const geom::Vec3& centroid, double t);

  /// True when `pos` falls in a well-covered *foreign* feedback region.
  bool region_suppressed(geom::Vec2 pos) const;

  /// Seed-hashed down-sample to kKeepFraction, floored at kKeepMinPoints.
  pc::PointCloud suppress_points(const pc::PointCloud& pts,
                                 std::uint64_t frame_tag) const;

  static sim::AgentId match_truth(
      const std::vector<sim::AgentSnapshot>& truth, geom::Vec2 centroid,
      sim::AgentId self);
};

}  // namespace erpd::edge
