#pragma once
// Edge-server pipeline (paper Fig. 2, right box).
//
// process_frame runs six stages in order (DESIGN.md §21): admit (ingest
// guard, point budget, deadline admission), build_map (merge uploads into
// detections, update the connected fleet), track_and_predict (tracking,
// Rules 1-3, clipped hypotheses), coverage_feedback (delta-base acks and
// coverage, when redundancy is on), candidates (under Ours
// score_relevance's one RelevanceTable of direct, crowd-member and follower
// values) and disseminate (the knapsack under the downlink budget).
//
// The same server runs every sharing method (edge/method.hpp): relevance-
// greedy dissemination for Ours, Round-Robin for EMP and Broadcast for
// Unlimited. Rules, prediction and relevance run only for Ours, and under
// Ours every upload is object-granular.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/dissemination.hpp"
#include "core/relevance.hpp"
#include "edge/ingest_guard.hpp"
#include "edge/method.hpp"
#include "edge/redundancy.hpp"
#include "edge/service.hpp"
#include "geom/voronoi.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "pointcloud/dbscan.hpp"
#include "pointcloud/voxel_grid.hpp"
#include "sim/road_network.hpp"
#include "sim/world.hpp"
#include "track/prediction.hpp"
#include "track/rules.hpp"
#include "track/tracker.hpp"

namespace erpd::edge {

/// Server-side object detection for blob uploads (EMP / Unlimited): voxel
/// thinning, then density clustering.
inline constexpr double kDetectVoxel = 0.3;
inline constexpr pc::DbscanConfig kDetectDbscan{.eps = 1.2, .min_pts = 4};
/// Blob points at or below this world-frame height (meters) are ground: the
/// vehicle's ground cutoff at the real mount (DESIGN.md §8).
inline constexpr double kBlobGroundStrip = 0.25;
/// An object is visible to an uploader if that upload holds an object
/// centroid within this radius of the track.
inline constexpr double kVisibilityRadius = 2.2;
/// A track this close to a connected vehicle's reported pose *is* that
/// vehicle.
inline constexpr double kSelfRadius = 2.5;
static_assert(kVisibilityRadius > 0.0 && kSelfRadius > 0.0 &&
              kBlobGroundStrip > 0.0);
/// Candidates below this relevance are never disseminated.
inline constexpr double kMinRelevance = 1e-3;
static_assert(kMinRelevance >= 0.0);

struct EdgeConfig {
  /// Picks the dissemination strategy; the server refuses to process a
  /// frame under kSingle. SystemRunner overwrites it with
  /// RunnerConfig::method.
  Method method{Method::kOurs};
  /// Sets the downlink budget. SystemRunner overwrites it with
  /// RunnerConfig::wireless.
  net::WirelessConfig wireless{};
  track::TrackerConfig tracker{};
  track::PredictorConfig predictor{};
  /// §III-A.2 follower relevance; alpha = 0 turns it off (ablation E13).
  core::FollowerRelevanceConfig follower{};
  /// Staleness penalty for relevance computed from coasting tracks: a track
  /// last updated m frames ago scores relevance * (1 - staleness_decay)^m.
  /// Coasted positions drift from the truth, so acting on them as if fresh
  /// would mis-rank the dissemination knapsack under uplink loss. 0 (default)
  /// disables the penalty (exact lossless-pipeline scoring).
  double staleness_decay{0.0};
  /// Untrusted-ingest admission control (DESIGN.md §12). Disabled by
  /// default; wire-payload validation still runs whenever uploads carry
  /// on-the-wire buffers.
  IngestConfig ingest{};
  /// Redundancy-aware uplink (DESIGN.md §16): when enabled the server
  /// maintains per-vehicle coverage confidence over the fleet's Voronoi
  /// regions and emits one CoverageFeedback per connected vehicle each
  /// frame. Off by default (no feedback, bit-identical frames).
  RedundancyConfig redundancy{};
  /// Service-mode deadline admission (DESIGN.md §17): when enabled the
  /// decode+merge stage runs under a per-frame latency budget and the
  /// SLO-aware admission controller sheds/defers work that would blow it.
  /// Off by default (no admission pass, bit-identical frames).
  ServiceConfig service{};
};

struct FrameOutput {
  std::vector<net::Dissemination> selected;
  std::size_t downlink_bytes{0};
  std::size_t detections{0};
  std::size_t confirmed_tracks{0};
  /// Confirmed tracks that are currently moving (> 1 m/s) and fresh —
  /// the paper's Fig. 12(b) "objects detected" counts moving objects.
  std::size_t moving_tracks{0};
  /// Tracks Rules 1-3 chose to predict (Ours only; 0 otherwise).
  std::size_t predicted_tracks{0};
  std::size_t candidates{0};
  /// Candidates whose (track, vehicle) pair an earlier candidate of the
  /// frame already holds (RelevanceTable::duplicates).
  std::size_t duplicate_candidates{0};
  /// Confirmed tracks carried this frame purely on Kalman prediction
  /// (misses > 0) — the coasting path under uplink loss.
  std::size_t coasting_tracks{0};
  /// Accepted relevance candidates whose source track was stale.
  std::size_t stale_candidates{0};
  /// Ingest admission outcome for this frame, including the point-budget
  /// shed count (all zero when the guard did not run).
  IngestStats ingest{};
  /// Coverage-feedback messages to piggyback on the downlink, one per
  /// connected vehicle (empty when redundancy is off). The runner routes
  /// them through the LossyChannel like any other downlink message.
  std::vector<net::CoverageFeedback> feedback;
  /// Total modelled wire size of `feedback`.
  std::size_t feedback_bytes{0};
  /// Distance tests of the edge's re-segmentation DBSCAN over merged blob
  /// uploads (EMP cells, raw frames); zero when every upload is
  /// object-granular.
  std::uint64_t dbscan_distance_tests{0};
  /// Route-path projections of map matching: one per route for each scan
  /// of the network, by the rules' snaps and by predictions the rules did
  /// not snap (Ours only; 0 otherwise).
  std::uint64_t route_projections{0};
  /// Relevance work: hypothesis-set pairs scored, exact collision estimates
  /// run (pairs passing the AABB reject) and estimates found.
  core::RelevanceTally relevance{};
  /// Deadline-admission outcome for this frame (all zero when service mode
  /// is off).
  ServiceStats service{};
};

/// The ingest point budget as an admission policy: cost = points, capacity
/// = point_budget_per_frame, no deferral.
AdmissionPolicy point_budget_policy(const IngestConfig& ingest);
/// Service-mode deadline admission: decode_merge_budget_us converted to
/// nanoseconds of estimated decode+merge cost under the fixed cost model.
AdmissionPolicy deadline_policy(const ServiceConfig& service);

/// A track's or a vehicle's predicted trajectories, one per plausible
/// maneuver, each clipped to its reach once per frame.
using Hypotheses = std::vector<core::ClippedTrajectory>;

/// A connected vehicle as relevance reads it: its pose, its hypotheses and
/// its last admitted upload this frame (null if none). Under service mode a
/// carried frame precedes the fresh one, whose objects it sees now.
struct Recipient {
  geom::Vec2 position{};
  Hypotheses hypotheses;
  const net::UploadFrame* own_frame{nullptr};
};

/// One relevance value and its source (paper §III-A): a collision of the
/// object's and the vehicle's trajectories, the value of the Rule-3
/// representative `via` for a crowd member, or alpha x the value for the
/// lane leader `via`.
struct RelevanceEntry {
  enum class Source : std::uint8_t { kDirect, kCrowdMember, kFollower };
  double value{0.0};
  Source source{Source::kDirect};
  int via{-1};
  double alpha{1.0};
};

/// Relevance of each object (track id) to each connected vehicle, one entry
/// per pair (the paper's z_ij), and the candidates that wrote it in write
/// order. A pair written twice is sent twice (ROADMAP item 8, bug 1).
struct RelevanceTable {
  using Key = std::pair<int, sim::AgentId>;  // (track id, vehicle)
  std::map<Key, RelevanceEntry> entries;
  std::vector<core::Candidate> candidates;
  /// Candidates written over a pair already in the table.
  std::size_t duplicates{0};
  /// Direct values of coasting tracks (FrameOutput::stale_candidates).
  std::size_t stale{0};

  /// Sets the pair (object.id, to) to `e` and emits its candidate.
  void emit(const track::Track& object, sim::AgentId to, RelevanceEntry e);
  const RelevanceEntry* find(int track_id, sim::AgentId to) const;
  /// The first entry of track `track_id`'s row or of a later one.
  std::map<Key, RelevanceEntry>::const_iterator row(int track_id) const;
};

/// What score_relevance reads; every map is ordered.
struct RelevanceInputs {
  const std::map<sim::AgentId, Recipient>& fleet;
  const track::MultiObjectTracker& tracker;
  const track::RepresentativeSet& reps;
  /// Hypotheses of the tracks the rules predicted.
  const std::map<int, Hypotheses>& objects;
  /// Predicts a lane leader the rules did not; called at most once per
  /// leader, on first need.
  const std::function<Hypotheses(const track::Track&)>& predict_leader;
  core::FollowerRelevanceConfig follower{};
  double staleness_decay{0.0};
};

/// Ours' relevance stage, three passes writing one table: direct values,
/// then each crowd member takes its representative's values, then each
/// unsafe connected follower raises its values to alpha x its leader's.
/// Requires every object of a recipient's own frame to be object-granular.
RelevanceTable score_relevance(const RelevanceInputs& in,
                               core::RelevanceTally& tally);

class EdgeServer {
 public:
  EdgeServer(const sim::RoadNetwork& net, EdgeConfig cfg = {});
  /// Not copyable: a copy would share the borrowed working memory.
  EdgeServer(const EdgeServer&) = delete;
  EdgeServer& operator=(const EdgeServer&) = delete;

  /// Process one frame of (already bandwidth-capped) uploads, taken by
  /// value: the ingest steps move the batch along instead of copying it.
  /// `truth` is optional harness ground truth used solely to tag detections
  /// with agent ids so the simulator can apply disseminations.
  FrameOutput process_frame(std::vector<net::UploadFrame> uploads, double t,
                            const std::vector<sim::AgentSnapshot>* truth);

  const track::MultiObjectTracker& tracker() const { return tracker_; }

  /// Attach an observability registry (not owned; null detaches). Each
  /// process_frame then times its modules into the stage.merge / stage.track
  /// / stage.relevance / stage.disseminate histograms. The counts it returns
  /// in FrameOutput are booked by the caller. Purely write-only: decisions
  /// never read metrics.
  void attach_metrics(obs::MetricsRegistry* registry) { metrics_ = registry; }

  /// Objects still parked in the admission controller's deferral lot (the
  /// run-level fate identity's residual term).
  std::size_t service_parked() const { return admission_.parked_count(); }

 private:
  EdgeConfig cfg_;
  obs::MetricsRegistry* metrics_{nullptr};
  IngestGuard guard_;
  /// The ingest point budget (runs when the guard is enabled).
  AdmissionController point_stage_;
  /// Service-mode deadline admission.
  AdmissionController admission_;
  track::MultiObjectTracker tracker_;
  track::RuleEngine rules_;
  track::TrajectoryPredictor predictor_;
  std::size_t rr_cursor_{0};

  /// Connected-vehicle registry built from upload poses.
  struct VehicleInfo {
    geom::Vec2 position{};
    geom::Vec2 velocity{};
    double last_seen{0.0};
  };
  /// Ordered by AgentId (detlint D1): process_frame iterates the fleet when
  /// building candidates, so the registry's iteration order feeds straight
  /// into the dissemination decision stream — it must be a pure function of
  /// the key set, never of hash-bucket layout.
  std::map<sim::AgentId, VehicleInfo> fleet_;

  /// EMA coverage confidence per region owner (keyed by owner id, ordered —
  /// feedback emission iterates it). Pruned with fleet_.
  std::map<sim::AgentId, double> coverage_;
  /// Highest admitted upload_seq per vehicle, for the delta-base ack.
  std::map<sim::AgentId, std::uint64_t> acked_seq_;

  /// Working memory of the blob re-segmentation: the merged cloud above the
  /// ground strip (voxel-thinned in place) and the kernels' scratch.
  /// Capacity only; borrowed for the server's lifetime so the largest
  /// buffers of an EMP frame are not reallocated every frame (DESIGN.md §20).
  struct BlobScratch {
    pc::PointCloud merged;
    pc::VoxelScratch voxel;
    pc::DbscanScratch dbscan;
  };
  std::shared_ptr<BlobScratch> blob_scratch_;

  /// The track stage's output; all but `confirmed` stay empty unless Ours.
  struct Tracked {
    std::vector<const track::Track*> confirmed;
    track::RepresentativeSet reps;
    std::map<int, Hypotheses> objects;        // predicted tracks
    std::map<sim::AgentId, Recipient> fleet;  // connected vehicles
  };

  // The frame's stages in order; each books its tallies into `out`.
  std::vector<net::UploadFrame> admit(std::vector<net::UploadFrame> uploads,
                                      double t, FrameOutput& out);
  std::vector<track::Detection> build_map(
      const std::vector<net::UploadFrame>& uploads, double t,
      const std::vector<sim::AgentSnapshot>* truth, FrameOutput& out);
  Tracked track_and_predict(const std::vector<track::Detection>& detections,
                            double t, FrameOutput& out);
  void coverage_feedback(const std::vector<net::UploadFrame>& uploads,
                         const std::vector<const track::Track*>& confirmed,
                         double t, FrameOutput& out);
  std::vector<core::Candidate> candidates(
      const std::vector<net::UploadFrame>& uploads, Tracked& tracked,
      FrameOutput& out);
  void disseminate(const std::vector<core::Candidate>& candidates,
                   FrameOutput& out);

  Hypotheses predict(const track::Track& tr,
                     const track::RepresentativeSet& reps,
                     std::uint64_t* route_projections) const;
};

}  // namespace erpd::edge
