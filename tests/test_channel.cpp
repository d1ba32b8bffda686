#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/check.hpp"
#include "core/rng.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"

namespace erpd::net {
namespace {

TEST(Wireless, BudgetsFromMbps) {
  WirelessConfig cfg;
  cfg.uplink_mbps = 16.0;
  cfg.downlink_mbps = 32.0;
  EXPECT_EQ(cfg.uplink_budget_bytes(), 200000u);
  EXPECT_EQ(cfg.downlink_budget_bytes(), 400000u);
}

TEST(Wireless, NegativeOrZeroRatesAreRejected) {
  WirelessConfig cfg;
  cfg.uplink_mbps = -40.0;
  EXPECT_THROW(cfg.uplink_budget_bytes(), erpd::ContractViolation);
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);

  cfg = WirelessConfig{};
  cfg.downlink_mbps = 0.0;
  EXPECT_THROW(cfg.downlink_budget_bytes(), erpd::ContractViolation);

  EXPECT_NO_THROW(WirelessConfig{}.validate());
}

// Bytes and nanoseconds share the one budget class; the nanosecond scale
// (5 s of decode+merge cost) needs capacities beyond 32 bits.
TEST(FrameBudget, GrantAllOrNothing) {
  for (const std::uint64_t unit : {1ull, 50'000'000ull}) {
    FrameBudget b(100 * unit);
    EXPECT_TRUE(b.try_grant(60 * unit));
    EXPECT_FALSE(b.try_grant(50 * unit));  // a denial leaves the budget intact
    EXPECT_EQ(b.used(), 60 * unit);
    EXPECT_EQ(b.remaining(), 40 * unit);
    EXPECT_TRUE(b.try_grant(40 * unit));  // headroom re-granted to smaller work
    EXPECT_EQ(b.remaining(), 0u);
  }
}

TEST(FrameBudget, PartialGrant) {
  FrameBudget b(100);
  EXPECT_EQ(b.grant_partial(60), 60u);
  EXPECT_EQ(b.grant_partial(60), 40u);
  EXPECT_EQ(b.grant_partial(10), 0u);
}

TEST(FrameBudget, ZeroCapacityNeverUnderflows) {
  FrameBudget b(0);
  EXPECT_EQ(b.remaining(), 0u);
  EXPECT_FALSE(b.try_grant(1));
  EXPECT_TRUE(b.try_grant(0));
  EXPECT_EQ(b.grant_partial(10), 0u);
  // The guarded remaining() must stay pinned at 0, not wrap to SIZE_MAX.
  EXPECT_EQ(b.remaining(), 0u);
}

TEST(FrameBudget, ExhaustedBudgetStaysConsistent) {
  FrameBudget b(64);
  EXPECT_EQ(b.grant_partial(100), 64u);
  EXPECT_EQ(b.used(), 64u);
  EXPECT_EQ(b.remaining(), 0u);
  EXPECT_FALSE(b.try_grant(1));
  EXPECT_EQ(b.used(), 64u);  // failed grant must not mutate state
}

// Property: across randomized grant sequences the budget never over-grants
// and the used/remaining split always reconciles with the capacity.
TEST(FrameBudget, RandomizedGrantsPreserveInvariants) {
  core::SplitMix64 rng(core::seed_mix(0xb4d6e7, 1));
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t cap = rng() % 5000;
    FrameBudget b(cap);
    std::size_t granted = 0;
    for (int op = 0; op < 64; ++op) {
      const std::size_t req = rng() % 2000;
      if (rng() % 2 == 0) {
        if (b.try_grant(req)) granted += req;
      } else {
        granted += b.grant_partial(req);
      }
      ASSERT_LE(b.used(), b.capacity());
      ASSERT_EQ(b.used(), granted);
      ASSERT_EQ(b.remaining() + b.used(), b.capacity());
    }
  }
}

// Property: with equal-size requests, FCFS admission is order-independent —
// any permutation grants the same total (floor(cap / size) requests fit).
TEST(FrameBudget, EqualSizedRequestsGrantOrderIndependentTotal) {
  core::SplitMix64 rng(core::seed_mix(0xb4d6e7, 2));
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t size = 1 + rng() % 500;
    const std::size_t n = 1 + rng() % 40;
    const std::size_t cap = rng() % (size * n + 1);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    const std::size_t expect = std::min(cap / size, n) * size;
    for (int perm = 0; perm < 4; ++perm) {
      // Deterministic Fisher-Yates driven by the counter-based stream.
      for (std::size_t i = n - 1; i > 0; --i) {
        std::swap(order[i], order[rng() % (i + 1)]);
      }
      FrameBudget b(cap);
      std::size_t granted = 0;
      for (std::size_t idx : order) {
        (void)idx;
        if (b.try_grant(size)) granted += size;
      }
      ASSERT_EQ(granted, expect) << "cap=" << cap << " size=" << size;
    }
  }
}

TEST(TransferDelay, LinearInBytes) {
  // 1 MB over 8 Mbps = 1 s plus base latency.
  EXPECT_NEAR(transfer_delay(1000000, 8.0), 1.0 + kBaseLatency, 1e-9);
  EXPECT_DOUBLE_EQ(transfer_delay(0, 8.0), kBaseLatency);
}

TEST(TransferDelay, NonPositiveBandwidthIsAContractViolation) {
  // A zero/negative rate used to silently model an infinitely fast link
  // (bare base latency). It must trip the contract layer instead.
  EXPECT_THROW(transfer_delay(1000, 0.0), erpd::ContractViolation);
  EXPECT_THROW(transfer_delay(1000, -8.0), erpd::ContractViolation);
  EXPECT_THROW(transfer_delay(0, 0.0), erpd::ContractViolation);
  // The boundary: any strictly positive rate is a real link.
  EXPECT_GT(transfer_delay(1000, 1e-9), kBaseLatency);
}

TEST(UploadFrame, TotalBytesIncludesOverhead) {
  UploadFrame f;
  EXPECT_EQ(f.total_bytes(), UploadFrame::kFrameOverhead);
  ObjectUpload o;
  o.bytes = 500;
  f.objects.push_back(o);
  f.objects.push_back(o);
  EXPECT_EQ(f.total_bytes(), UploadFrame::kFrameOverhead + 1000u);
}

TEST(UploadFrame, BilledBytesMatchEncodedPayloadSize) {
  // Clients bill each object as encoded_size_bytes(point_count); the frame
  // total the uplink cap charges must equal the bytes the codec would
  // actually put on the wire, header included.
  UploadFrame f;
  std::size_t wire = UploadFrame::kFrameOverhead;
  for (std::size_t n : {3u, 40u, 250u}) {
    ObjectUpload o;
    for (std::size_t i = 0; i < n; ++i) {
      o.cloud_world.push_back({0.01 * static_cast<double>(i), 1.0, 0.5});
    }
    o.point_count = o.cloud_world.size();
    o.bytes = pc::encoded_size_bytes(o.point_count);
    wire += pc::encode(o.cloud_world).size_bytes();
    f.objects.push_back(std::move(o));
  }
  EXPECT_EQ(f.total_bytes(), wire);
}

}  // namespace
}  // namespace erpd::net
