// Unit tests for the deterministic fault-injection layer (net/fault.hpp).

#include <gtest/gtest.h>

#include "core/check.hpp"
#include "net/fault.hpp"

namespace erpd::net {
namespace {

TEST(FaultConfig, DefaultIsInactive) {
  const FaultConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  // A default channel never drops, jitters, or disconnects anything.
  const LossyChannel ch(cfg);
  for (int frame = 0; frame < 50; ++frame) {
    EXPECT_FALSE(ch.uplink_lost(3, frame, 0.1 * frame));
    EXPECT_FALSE(ch.downlink_lost(3, 7, frame, 0.1 * frame));
    EXPECT_FALSE(ch.vehicle_offline(3, 0.1 * frame));
    EXPECT_EQ(ch.uplink_jitter(frame), 0.0);
    EXPECT_EQ(ch.downlink_jitter(3, 7, frame), 0.0);
  }
}

TEST(FaultConfig, ValidateRejectsBadValues) {
  FaultConfig cfg;
  cfg.uplink_loss = 1.5;
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.downlink_loss = -0.1;
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.jitter_mean = -1.0;
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.disconnect_epoch = 0.0;
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.outages.push_back({1.0, -0.5});
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.outages.push_back({-1.0, 0.5});
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.disconnects.push_back({sim::kInvalidAgent, 0.0, 1.0});
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.disconnects.push_back({3, -2.0, 1.0});
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
}

TEST(LossyChannel, DropScheduleIsAPureFunctionOfTheSeed) {
  FaultConfig cfg;
  cfg.seed = 99;
  cfg.uplink_loss = 0.3;
  cfg.downlink_loss = 0.2;
  cfg.jitter_mean = 0.01;
  const LossyChannel a(cfg);
  const LossyChannel b(cfg);
  // Querying in different orders must not matter: every decision depends
  // only on (seed, stream, entity, frame).
  for (int frame = 99; frame >= 0; --frame) {
    for (sim::AgentId v : {1, 5, 17}) {
      EXPECT_EQ(a.uplink_lost(v, frame, 0.0), b.uplink_lost(v, frame, 0.0));
      EXPECT_EQ(a.downlink_lost(v, 3, frame, 0.0),
                b.downlink_lost(v, 3, frame, 0.0));
      EXPECT_EQ(a.downlink_jitter(v, 3, frame), b.downlink_jitter(v, 3, frame));
    }
    EXPECT_EQ(a.uplink_jitter(frame), b.uplink_jitter(frame));
  }
}

TEST(LossyChannel, DifferentSeedsGiveDifferentSchedules) {
  FaultConfig cfg;
  cfg.uplink_loss = 0.5;
  cfg.seed = 1;
  const LossyChannel a(cfg);
  cfg.seed = 2;
  const LossyChannel b(cfg);
  int differing = 0;
  for (int frame = 0; frame < 200; ++frame) {
    if (a.uplink_lost(4, frame, 0.0) != b.uplink_lost(4, frame, 0.0)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(LossyChannel, BernoulliRateMatchesNominal) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.uplink_loss = 0.3;
  const LossyChannel ch(cfg);
  int lost = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (ch.uplink_lost(i % 16, i / 16, 0.0)) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.30, 0.02);
}

TEST(LossyChannel, OutageDropsEverythingInsideTheWindow) {
  FaultConfig cfg;
  cfg.outages.push_back({2.0, 1.0});
  const LossyChannel ch(cfg);
  EXPECT_FALSE(ch.in_outage(1.99));
  EXPECT_TRUE(ch.in_outage(2.0));
  EXPECT_TRUE(ch.in_outage(2.99));
  EXPECT_FALSE(ch.in_outage(3.0));
  // Inside the window every message is lost regardless of loss rates.
  EXPECT_TRUE(ch.uplink_lost(1, 25, 2.5));
  EXPECT_TRUE(ch.downlink_lost(1, 9, 25, 2.5));
  EXPECT_FALSE(ch.uplink_lost(1, 40, 4.0));
}

TEST(LossyChannel, ScheduledDisconnectIsPerVehicle) {
  FaultConfig cfg;
  cfg.disconnects.push_back({5, 1.0, 2.0});
  const LossyChannel ch(cfg);
  EXPECT_FALSE(ch.vehicle_offline(5, 0.9));
  EXPECT_TRUE(ch.vehicle_offline(5, 1.0));
  EXPECT_TRUE(ch.vehicle_offline(5, 2.9));
  EXPECT_FALSE(ch.vehicle_offline(5, 3.0));
  EXPECT_FALSE(ch.vehicle_offline(6, 2.0));  // other vehicles unaffected
  // An offline recipient cannot receive disseminations.
  EXPECT_TRUE(ch.downlink_lost(5, 2, 15, 1.5));
  EXPECT_FALSE(ch.downlink_lost(6, 2, 15, 1.5));
}

TEST(LossyChannel, RandomDisconnectIsStablePerEpoch) {
  FaultConfig cfg;
  cfg.seed = 13;
  cfg.random_disconnect_rate = 0.4;
  cfg.disconnect_epoch = 2.0;
  const LossyChannel ch(cfg);
  int off_epochs = 0;
  for (int e = 0; e < 50; ++e) {
    const double t0 = 2.0 * e + 0.01;
    const bool off = ch.vehicle_offline(3, t0);
    // Constant within the epoch.
    EXPECT_EQ(off, ch.vehicle_offline(3, t0 + 1.0));
    EXPECT_EQ(off, ch.vehicle_offline(3, t0 + 1.98));
    if (off) ++off_epochs;
  }
  EXPECT_GT(off_epochs, 5);
  EXPECT_LT(off_epochs, 40);
}

TEST(FaultConfig, ValidateRejectsBadCorruptionValues) {
  FaultConfig cfg;
  cfg.uplink_corruption = 1.5;
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.downlink_corruption = -0.1;
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.byzantine.push_back({sim::kInvalidAgent, 0.0});
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.byzantine.push_back({3, -1.0});
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
}

TEST(LossyChannel, InactiveChannelNeverCorrupts) {
  const LossyChannel ch{FaultConfig{}};
  EXPECT_FALSE(ch.corruption_active());
  for (int frame = 0; frame < 50; ++frame) {
    EXPECT_EQ(ch.uplink_corruption(3, frame), CorruptionKind::kNone);
    EXPECT_FALSE(ch.downlink_corrupted(3, 7, frame));
    EXPECT_FALSE(ch.is_byzantine(3, 0.1 * frame));
  }
}

TEST(LossyChannel, CorruptionScheduleIsAPureFunctionOfTheSeed) {
  FaultConfig cfg;
  cfg.seed = 77;
  cfg.uplink_corruption = 0.3;
  cfg.downlink_corruption = 0.2;
  const LossyChannel a(cfg);
  const LossyChannel b(cfg);
  // Query order must not matter: each decision depends only on
  // (seed, stream, entity, frame).
  for (int frame = 99; frame >= 0; --frame) {
    for (sim::AgentId v : {1, 5, 17}) {
      EXPECT_EQ(a.uplink_corruption(v, frame), b.uplink_corruption(v, frame));
      EXPECT_EQ(a.downlink_corrupted(v, 3, frame),
                b.downlink_corrupted(v, 3, frame));
      EXPECT_EQ(a.corruption_word(v, frame, 2), b.corruption_word(v, frame, 2));
    }
  }
}

TEST(LossyChannel, CorruptionRateMatchesNominalAndCoversEveryKind) {
  FaultConfig cfg;
  cfg.seed = 31;
  cfg.uplink_corruption = 0.25;
  const LossyChannel ch(cfg);
  int corrupted = 0;
  int kind_seen[5] = {};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const CorruptionKind k = ch.uplink_corruption(i % 16, i / 16);
    ++kind_seen[static_cast<int>(k)];
    if (k != CorruptionKind::kNone) ++corrupted;
  }
  EXPECT_NEAR(static_cast<double>(corrupted) / n, 0.25, 0.02);
  // All four corruption kinds appear; kNone only for uncorrupted draws.
  for (int k = 1; k < 5; ++k) {
    EXPECT_GT(kind_seen[k], 0) << to_string(static_cast<CorruptionKind>(k));
  }
}

TEST(LossyChannel, CorruptionStreamIsIndependentOfTheLossStream) {
  // Same seed, loss-only vs. loss+corruption: the drop schedule must be
  // byte-identical, so enabling corruption cannot perturb which messages
  // are lost (separate stream tags).
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.uplink_loss = 0.3;
  const LossyChannel plain(cfg);
  cfg.uplink_corruption = 0.3;
  const LossyChannel mixed(cfg);
  for (int frame = 0; frame < 200; ++frame) {
    EXPECT_EQ(plain.uplink_lost(4, frame, 0.0),
              mixed.uplink_lost(4, frame, 0.0));
  }
}

TEST(LossyChannel, ByzantineWindowStartsAtConfiguredTime) {
  FaultConfig cfg;
  cfg.byzantine.push_back({9, 2.0});
  const LossyChannel ch(cfg);
  EXPECT_FALSE(ch.is_byzantine(9, 1.99));
  EXPECT_TRUE(ch.is_byzantine(9, 2.0));
  EXPECT_TRUE(ch.is_byzantine(9, 100.0));  // Byzantine forever once turned
  EXPECT_FALSE(ch.is_byzantine(8, 5.0));   // other vehicles unaffected
}

TEST(LossyChannel, JitterIsNonNegativeWithRoughlyTheConfiguredMean) {
  FaultConfig cfg;
  cfg.seed = 21;
  cfg.jitter_mean = 0.02;
  const LossyChannel ch(cfg);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double j = ch.downlink_jitter(i % 8, i % 5, i);
    ASSERT_GE(j, 0.0);
    sum += j;
  }
  EXPECT_NEAR(sum / n, 0.02, 0.002);
}

}  // namespace
}  // namespace erpd::net
