#include "edge/service.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "net/channel.hpp"

namespace erpd::edge {

std::vector<net::UploadFrame> AdmissionController::run(
    std::vector<net::UploadFrame> uploads, ServiceStats* stats) {
  ERPD_REQUIRE(stats != nullptr, "AdmissionController::run: stats is null");
  *stats = ServiceStats{};

  // Capacity 0 = shedding off: pass everything through, granting no budget,
  // but still account arrivals so the fate identity holds trivially.
  if (policy_.capacity == 0) {
    for (const net::UploadFrame& f : uploads) {
      stats->arrived_objects += f.objects.size();
      stats->admitted_objects += f.objects.size();
    }
    ERPD_ENSURE(parked_.empty(),
                "AdmissionController: parked objects with a zero capacity; "
                "the budget knob must not change mid-run");
    return uploads;
  }

  // Gather candidates: the parking lot first (ages by one frame), then every
  // fresh object. Order counters are assigned in input order, which is
  // deterministic because the guard/runner already emit uploads in a fixed
  // order.
  std::vector<Candidate> candidates = std::move(parked_);
  parked_.clear();
  for (Candidate& c : candidates) ++c.age;
  stats->carried_objects = candidates.size();

  // Fresh frames keep their skeletons (pose sync for the fleet registry)
  // even when every object is deferred or shed.
  std::vector<net::UploadFrame> fresh = std::move(uploads);
  for (net::UploadFrame& f : fresh) {
    for (net::ObjectUpload& o : f.objects) {
      candidates.push_back(Candidate{std::move(o), f.vehicle, f.pose,
                                     f.timestamp, f.upload_seq, 0,
                                     next_order_++});
      ++stats->arrived_objects;
    }
    f.objects.clear();
  }

  // Admission order: oldest deferrals first (they expire soonest and their
  // payload is already stale), then biggest clouds first — they carry the
  // most perception value per header — with (vehicle, order) as the
  // deterministic tie-break.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.age != b.age) return a.age > b.age;
              if (a.obj.point_count != b.obj.point_count) {
                return a.obj.point_count > b.obj.point_count;
              }
              if (a.vehicle != b.vehicle) return a.vehicle < b.vehicle;
              return a.order < b.order;
            });

  net::FrameBudget budget(policy_.capacity);
  std::vector<Candidate> admitted;
  admitted.reserve(candidates.size());
  for (Candidate& c : candidates) {
    const std::uint64_t units = cost(c.obj);
    if (budget.try_grant(units)) {
      stats->admitted_cost += units;
      ++stats->admitted_objects;
      admitted.push_back(std::move(c));
      continue;
    }
    stats->denied_cost += units;
    // Denied: defer if the object is still fresh enough and the parking lot
    // has room, otherwise shed. Both are final fates for this frame.
    if (c.age < policy_.max_defer_frames &&
        parked_.size() < policy_.defer_capacity) {
      ++stats->deferred_objects;
      parked_.push_back(std::move(c));
    } else {
      ++stats->shed_objects;
    }
  }

  // Exactly-once fate partition, checked every frame.
  ERPD_ENSURE(stats->arrived_objects + stats->carried_objects ==
                  stats->admitted_objects + stats->deferred_objects +
                      stats->shed_objects,
              "AdmissionController: fate partition leaked: arrived ",
              stats->arrived_objects, " + carried ", stats->carried_objects,
              " != admitted ", stats->admitted_objects, " + deferred ",
              stats->deferred_objects, " + shed ", stats->shed_objects);

  // Re-emit: carried objects grouped by their source frame first (in parked
  // order), then the fresh skeletons with their admitted objects restored in
  // arrival order. Fresh frames come last so their poses overwrite any
  // stale parked pose in the edge's fleet registry.
  std::sort(admitted.begin(), admitted.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.order < b.order;
            });

  std::vector<net::UploadFrame> out;
  out.reserve(fresh.size() + admitted.size());
  for (Candidate& c : admitted) {
    if (c.age == 0) continue;  // fresh objects rejoin their skeleton below
    if (out.empty() || out.back().vehicle != c.vehicle ||
        out.back().upload_seq != c.upload_seq) {
      net::UploadFrame f;
      f.vehicle = c.vehicle;
      f.pose = c.pose;
      f.timestamp = c.timestamp;
      f.upload_seq = c.upload_seq;
      out.push_back(std::move(f));
    }
    out.back().objects.push_back(std::move(c.obj));
  }
  for (net::UploadFrame& f : fresh) {
    for (Candidate& c : admitted) {
      if (c.age == 0 && c.vehicle == f.vehicle &&
          c.upload_seq == f.upload_seq) {
        f.objects.push_back(std::move(c.obj));
      }
    }
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace erpd::edge
