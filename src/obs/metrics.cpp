#include "obs/metrics.hpp"

#include <cmath>

namespace erpd::obs {

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest rank of the requested sample: ceil(q * n), 1-based, clamped to
  // [1, n] so q = 0 hits the first sample and q = 1 the last.
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = bucket_count(i);
    if (c == 0) continue;
    if (cum + c >= rank) {
      if (i == 0) return 0.0;
      const double lo = static_cast<double>(bucket_lower(i));
      const double hi = 2.0 * lo;
      const double frac =
          static_cast<double>(rank - cum) / static_cast<double>(c);
      return lo + frac * (hi - lo);
    }
    cum += c;
  }
  return static_cast<double>(bucket_lower(kBuckets - 1)) * 2.0;
}

namespace {

template <typename Map>
auto& find_or_insert(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  return find_or_insert(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  return find_or_insert(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  return find_or_insert(histograms_, name);
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  // Snapshot the operand's names first so we never hold both locks at once.
  for (const auto& [name, value] : other.counters()) {
    counter(name).add(value);
  }
  for (const auto& [name, h] : other.histograms()) {
    histogram(name).merge(*h);
  }
  std::vector<std::pair<std::string, double>> set_gauges;
  {
    std::lock_guard<std::mutex> lk(other.mu_);
    for (const auto& [name, g] : other.gauges_) {
      if (g->is_set()) set_gauges.emplace_back(name, g->value());
    }
  }
  for (const auto& [name, v] : set_gauges) gauge(name).set(v);
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counters()
    const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>>
MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

}  // namespace erpd::obs
