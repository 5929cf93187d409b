#include <gtest/gtest.h>

#include <cmath>

#include "core/eval_util.h"
#include "regression/linear_model.h"

namespace bellwether::core {
namespace {

storage::RegionTrainingSet MakeSet(int64_t region) {
  storage::RegionTrainingSet set;
  set.region = region;
  set.num_features = 2;
  set.items = {1, 3, 7};
  set.targets = {10.0, 30.0, 70.0};
  set.features = {1.0, 1.1, 1.0, 3.1, 1.0, 7.1};
  return set;
}

TEST(EvalUtilTest, ToDatasetCopiesRows) {
  const auto set = MakeSet(0);
  const regression::Dataset d = ToDataset(set);
  ASSERT_EQ(d.num_examples(), 3u);
  EXPECT_DOUBLE_EQ(d.x(1)[1], 3.1);
  EXPECT_DOUBLE_EQ(d.y(2), 70.0);
}

TEST(EvalUtilTest, ToDatasetAppliesItemMask) {
  const auto set = MakeSet(0);
  std::vector<uint8_t> mask(8, 0);
  mask[3] = 1;
  mask[7] = 1;
  const regression::Dataset d = ToDataset(set, &mask);
  ASSERT_EQ(d.num_examples(), 2u);
  EXPECT_DOUBLE_EQ(d.y(0), 30.0);
  // Items beyond the mask size are treated as excluded.
  std::vector<uint8_t> short_mask(2, 1);
  EXPECT_EQ(ToDataset(set, &short_mask).num_examples(), 1u);  // only item 1
}

TEST(EvalUtilTest, RegionFeatureLookupFindsEachItemsRow) {
  const std::vector<storage::RegionTrainingSet> sets{MakeSet(0)};
  const RegionFeatureLookup lookup(&sets);
  EXPECT_EQ(lookup.Find(0, 1), sets[0].row(0));
  EXPECT_EQ(lookup.Find(0, 3), sets[0].row(1));
  EXPECT_EQ(lookup.Find(0, 7), sets[0].row(2));
  EXPECT_EQ(lookup.Find(0, 2), nullptr);
  EXPECT_EQ(lookup.Find(0, 99), nullptr);
}

TEST(EvalUtilTest, RegionSeedIsDeterministicAndSpread) {
  EXPECT_EQ(RegionSeed(7, 3), RegionSeed(7, 3));
  EXPECT_NE(RegionSeed(7, 3), RegionSeed(7, 4));
  EXPECT_NE(RegionSeed(7, 3), RegionSeed(8, 3));
}

TEST(EvalUtilTest, RegionFeatureLookup) {
  std::vector<storage::RegionTrainingSet> sets{MakeSet(5), MakeSet(2)};
  sets[1].targets = {11.0, 31.0, 71.0};
  const RegionFeatureLookup lookup(&sets);
  const double* x = lookup.Find(5, 3);
  ASSERT_NE(x, nullptr);
  EXPECT_DOUBLE_EQ(x[1], 3.1);
  EXPECT_EQ(lookup.Find(5, 2), nullptr);   // item absent
  EXPECT_EQ(lookup.Find(9, 3), nullptr);   // region absent
  EXPECT_DOUBLE_EQ(lookup.TargetOf(2, 7), 71.0);
  EXPECT_TRUE(std::isnan(lookup.TargetOf(2, 4)));
  EXPECT_TRUE(std::isnan(lookup.TargetOf(8, 1)));
}

TEST(EvalUtilTest, TrainingErrorOfStatsThresholds) {
  regression::RegressionSuffStats stats(2);
  const std::vector<double> x{1.0, 2.0};
  stats.Add(x.data(), 5.0);
  // Below min_examples: infinite.
  EXPECT_TRUE(std::isinf(TrainingErrorOfStats(stats, 5)));
  for (int i = 0; i < 6; ++i) {
    const std::vector<double> xi{1.0, static_cast<double>(i)};
    stats.Add(xi.data(), 2.0 * i + 1.0);
  }
  const double err = TrainingErrorOfStats(stats, 5);
  EXPECT_TRUE(std::isfinite(err));
  EXPECT_GE(err, 0.0);
}

}  // namespace
}  // namespace bellwether::core
