#include "track/tracker.hpp"

#include <algorithm>
#include <limits>

#include "core/check.hpp"

namespace erpd::track {

MultiObjectTracker::MultiObjectTracker(TrackerConfig cfg) : cfg_(cfg) {}

void MultiObjectTracker::step(const std::vector<Detection>& detections,
                              double t) {
  const double dt = last_t_ ? std::max(t - *last_t_, 1e-6) : 0.0;
  last_t_ = t;
  if (dt > 0.0) {
    for (Track& tr : tracks_) tr.filter.predict(dt);
  }

  // Greedy nearest-neighbour association within the gate: repeatedly match
  // the globally closest (track, detection) pair.
  std::vector<bool> det_used(detections.size(), false);
  std::vector<bool> trk_used(tracks_.size(), false);
  while (true) {
    double best_d = kAssociationGate;
    std::size_t best_tr = tracks_.size();
    std::size_t best_de = detections.size();
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
      if (trk_used[i]) continue;
      for (std::size_t j = 0; j < detections.size(); ++j) {
        if (det_used[j]) continue;
        // Kind is advisory (partial views of vehicles can look small), but a
        // confirmed pedestrian-sized track never merges with a car-sized
        // detection and vice versa when both are unambiguous.
        const bool ped_t = tracks_[i].kind == sim::AgentKind::kPedestrian;
        const bool ped_d = detections[j].kind == sim::AgentKind::kPedestrian;
        if (ped_t != ped_d && tracks_[i].max_extent > 1.6 &&
            detections[j].extent > 0.0) {
          continue;
        }
        const double d =
            distance(tracks_[i].position(), detections[j].position);
        if (d < best_d) {
          best_d = d;
          best_tr = i;
          best_de = j;
        }
      }
    }
    if (best_tr == tracks_.size()) break;
    ERPD_DCHECK(best_de < detections.size(),
                "tracker: association produced detection index ", best_de,
                " out of range ", detections.size());
    trk_used[best_tr] = true;
    det_used[best_de] = true;

    Track& tr = tracks_[best_tr];
    const Detection& de = detections[best_de];
    if (de.velocity) {
      tr.filter.update(de.position, *de.velocity, kVelMeasSigma);
    } else {
      tr.filter.update(de.position);
    }
    ++tr.hits;
    tr.misses = 0;
    tr.last_update = t;
    tr.payload_bytes = de.payload_bytes;
    tr.point_count = de.point_count;
    tr.max_extent = std::max(tr.max_extent, de.extent);
    // A pedestrian-sized first view of a car corrects itself once any view
    // shows a car-sized footprint.
    if (tr.max_extent > 1.4) tr.kind = sim::AgentKind::kCar;
    if (de.truth_id != sim::kInvalidAgent) tr.truth_id = de.truth_id;
  }

  // Unmatched tracks age; stale ones die.
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (!trk_used[i]) ++tracks_[i].misses;
  }
  // Confirmed tracks may coast on prediction for max_coast_frames extra
  // frames before aging out (tentative tracks get no such grace).
  std::erase_if(tracks_, [this](const Track& tr) {
    const int limit =
        kMaxMisses + (tr.confirmed() ? cfg_.max_coast_frames : 0);
    return tr.misses > limit;
  });

  // Unmatched detections start new tracks.
  for (std::size_t j = 0; j < detections.size(); ++j) {
    if (det_used[j]) continue;
    const Detection& de = detections[j];
    Track tr{next_id_++,
             de.kind,
             de.velocity ? KalmanCV(de.position, *de.velocity)
                         : KalmanCV(de.position),
             /*hits=*/1,
             /*misses=*/0,
             /*last_update=*/t,
             /*max_extent=*/de.extent,
             de.payload_bytes,
             de.point_count,
             de.truth_id};
    tracks_.push_back(std::move(tr));
  }
}

std::vector<const Track*> MultiObjectTracker::confirmed() const {
  std::vector<const Track*> out;
  for (const Track& tr : tracks_) {
    if (tr.confirmed()) out.push_back(&tr);
  }
  return out;
}

const Track* MultiObjectTracker::find(int track_id) const {
  for (const Track& tr : tracks_) {
    if (tr.id == track_id) return &tr;
  }
  return nullptr;
}

}  // namespace erpd::track
