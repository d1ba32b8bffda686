#include "edge/metrics_io.hpp"

#include <bit>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"

namespace erpd::edge {

namespace {

std::uint64_t fold(std::uint64_t h, double v) {
  return core::seed_mix(h, std::bit_cast<std::uint64_t>(v));
}
std::uint64_t fold(std::uint64_t h, int v) {
  return core::seed_mix(h, static_cast<std::uint64_t>(v));
}
std::uint64_t fold(std::uint64_t h, bool v) {
  return core::seed_mix(h, std::uint64_t{v ? 1u : 0u});
}

}  // namespace

void append_method_metrics(obs::JsonWriter& w, const MethodMetrics& m) {
#define X(field) w.kv(#field, m.field);
  ERPD_METHOD_METRICS_FIELDS(X)
#undef X
}

std::vector<std::string_view> method_metrics_keys() {
  return {
#define X(field) #field,
      ERPD_METHOD_METRICS_FIELDS(X)
#undef X
  };
}

std::uint64_t behavior_fingerprint(const MethodMetrics& m) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
#define X(field) h = fold(h, m.field);
  ERPD_METHOD_METRICS_FIELDS(X)
#undef X
  return h;
}

obs::RunManifest make_manifest(const RunnerConfig& cfg,
                               std::string_view scenario,
                               std::uint64_t seed) {
  obs::Fingerprint fp;
  fp.fold(static_cast<int>(cfg.method));
  fp.fold(cfg.wireless.uplink_mbps).fold(cfg.wireless.downlink_mbps);
  fp.fold(cfg.edge.staleness_decay)
      .fold(cfg.edge.follower.alpha)
      .fold(static_cast<int>(cfg.edge.follower.criterion));
  fp.fold(cfg.edge.tracker.max_coast_frames);
  fp.fold(cfg.duration);
  fp.fold(cfg.fault.seed)
      .fold(cfg.fault.uplink_loss)
      .fold(cfg.fault.downlink_loss)
      .fold(cfg.fault.jitter_mean)
      .fold(cfg.fault.downlink_deadline)
      .fold(cfg.fault.random_disconnect_rate)
      .fold(cfg.fault.disconnect_epoch);
  for (const net::Outage& o : cfg.fault.outages) {
    fp.fold(o.start).fold(o.duration);
  }
  for (const net::Disconnect& d : cfg.fault.disconnects) {
    fp.fold(static_cast<std::int64_t>(d.vehicle))
        .fold(d.start)
        .fold(d.duration);
  }
  fp.fold(cfg.fault.uplink_corruption).fold(cfg.fault.downlink_corruption);
  for (const net::Byzantine& b : cfg.fault.byzantine) {
    fp.fold(static_cast<std::int64_t>(b.vehicle)).fold(b.start);
  }
  fp.fold(cfg.edge.ingest.enabled ? 1 : 0)
      .fold(static_cast<std::int64_t>(cfg.edge.ingest.point_budget_per_frame));
  fp.fold(cfg.redundancy.enabled ? 1 : 0);
  fp.fold(cfg.service.enabled ? 1 : 0)
      .fold(static_cast<std::int64_t>(cfg.service.queue_drain_max))
      .fold(static_cast<std::int64_t>(cfg.service.decode_merge_budget_us));

  obs::RunManifest mf;
  mf.scenario = std::string(scenario);
  mf.seed = seed;
  mf.method = to_string(cfg.method);
  mf.config_fingerprint = fp.hex();
  mf.threads = core::thread_count();
  mf.git_sha = std::string(obs::build_git_sha());
  return mf;
}

}  // namespace erpd::edge
