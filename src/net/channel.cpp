#include "net/channel.hpp"

#include "core/check.hpp"

namespace erpd::net {

double transfer_delay(std::size_t bytes, double mbps) {
  // A non-positive rate used to silently return the bare base latency —
  // i.e. an infinitely fast link — which turned a config typo into
  // optimistic latency numbers. It is a contract violation instead: every
  // real call site feeds a WirelessConfig rate that validate() already
  // requires to be positive.
  ERPD_REQUIRE(mbps > 0.0, "transfer_delay: bandwidth must be > 0 Mbit/s, got ",
               mbps);
  return kBaseLatency + static_cast<double>(bytes) * 8.0 / (mbps * 1e6);
}

}  // namespace erpd::net
