// Unit tests of the robustness toolkit: the deterministic fault-injection
// registry and row quarantine accounting.

#include <gtest/gtest.h>

#include "robust/fault_injection.h"
#include "robust/quarantine.h"

namespace bellwether::robust {
namespace {

TEST(FaultRegistryTest, DisarmedNeverFires) {
  FaultRegistry reg;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(reg.ShouldFire("storage.scan", FaultKind::kIoError));
  }
  EXPECT_EQ(reg.total_fires(), 0);
}

TEST(FaultRegistryTest, CountTriggerFiresExactlyFirstN) {
  FaultRegistry reg;
  ASSERT_TRUE(reg.Arm("p:io@3").ok());
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (reg.ShouldFire("p", FaultKind::kIoError)) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(reg.fires("p"), 3);
  EXPECT_EQ(reg.arrivals("p"), 10);
  EXPECT_EQ(reg.total_fires(), 3);
}

TEST(FaultRegistryTest, WrongKindNeverFires) {
  FaultRegistry reg;
  ASSERT_TRUE(reg.Arm("p:io@5").ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(reg.ShouldFire("p", FaultKind::kCorrupt));
    EXPECT_FALSE(reg.ShouldFire("p", FaultKind::kCrash));
  }
  EXPECT_EQ(reg.fires("p"), 0);
}

TEST(FaultRegistryTest, UnarmedPointNeverFires) {
  FaultRegistry reg;
  ASSERT_TRUE(reg.Arm("p:io@5").ok());
  EXPECT_FALSE(reg.ShouldFire("q", FaultKind::kIoError));
}

TEST(FaultRegistryTest, ProbabilisticTriggerIsDeterministicPerSeed) {
  auto schedule = [](uint64_t seed) {
    FaultRegistry reg;
    reg.set_seed(seed);
    EXPECT_TRUE(reg.Arm("p:corrupt@0.3").ok());
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      fires.push_back(reg.ShouldFire("p", FaultKind::kCorrupt));
    }
    return fires;
  };
  const auto a = schedule(17);
  const auto b = schedule(17);
  const auto c = schedule(18);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // astronomically unlikely to collide
  int fired = 0;
  for (bool f : a) fired += f ? 1 : 0;
  // ~60 expected; allow a wide deterministic band.
  EXPECT_GT(fired, 20);
  EXPECT_LT(fired, 120);
}

TEST(FaultRegistryTest, MultiEntrySpecAndArmedPoints) {
  FaultRegistry reg;
  ASSERT_TRUE(reg.Arm("storage.scan:io@2;state.delta:crash@1").ok());
  const auto points = reg.ArmedPoints();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_TRUE(reg.ShouldFire("storage.scan", FaultKind::kIoError));
  EXPECT_TRUE(reg.ShouldFire("state.delta", FaultKind::kCrash));
  EXPECT_FALSE(reg.ShouldFire("state.delta", FaultKind::kCrash));
}

TEST(FaultRegistryTest, MalformedSpecsAreRejectedAndDisarm) {
  FaultRegistry reg;
  EXPECT_EQ(reg.Arm("nonsense").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Arm("p:io").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Arm("p:whatever@3").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Arm("p:io@").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Arm("p:io@-2").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Arm(":io@1").code(), StatusCode::kInvalidArgument);
  // A failed Arm leaves nothing armed.
  EXPECT_FALSE(reg.ShouldFire("p", FaultKind::kIoError));
  EXPECT_TRUE(reg.ArmedPoints().empty());
}

TEST(FaultRegistryTest, DisarmResetsCounts) {
  FaultRegistry reg;
  ASSERT_TRUE(reg.Arm("p:io@2").ok());
  reg.ShouldFire("p", FaultKind::kIoError);
  reg.Disarm();
  EXPECT_EQ(reg.arrivals("p"), 0);
  EXPECT_EQ(reg.total_fires(), 0);
  EXPECT_FALSE(reg.ShouldFire("p", FaultKind::kIoError));
}

TEST(FaultRegistryTest, EmptySpecDisarms) {
  FaultRegistry reg;
  ASSERT_TRUE(reg.Arm("p:io@2").ok());
  ASSERT_TRUE(reg.Arm("").ok());
  EXPECT_FALSE(reg.ShouldFire("p", FaultKind::kIoError));
}

TEST(QuarantineStatsTest, SampleErrorsAreCapped) {
  QuarantineStats stats;
  for (int i = 0; i < 20; ++i) {
    stats.Quarantine("row " + std::to_string(i));
  }
  EXPECT_EQ(stats.rows_quarantined, 20);
  EXPECT_EQ(stats.sample_errors.size(), QuarantineStats::kMaxSampleErrors);
  EXPECT_EQ(stats.sample_errors[0], "row 0");
}

TEST(QuarantineStatsTest, MergeAccumulates) {
  QuarantineStats a, b;
  a.rows_seen = 10;
  a.Quarantine("bad a");
  b.rows_seen = 5;
  b.Quarantine("bad b1");
  b.Quarantine("bad b2");
  a.Merge(b);
  EXPECT_EQ(a.rows_seen, 15);
  EXPECT_EQ(a.rows_quarantined, 3);
  EXPECT_EQ(a.sample_errors.size(), 3u);
}

}  // namespace
}  // namespace bellwether::robust
