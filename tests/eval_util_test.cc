#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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

TEST(EvalUtilTest, MaskedRowsViewsEveryRow) {
  const auto set = MakeSet(0);
  std::vector<uint32_t> list;
  const regression::RowSet rows = MaskedRows(set, nullptr, &list);
  ASSERT_EQ(rows.n, 3u);
  EXPECT_EQ(rows.rows, nullptr);  // every row, read in place
  EXPECT_EQ(rows.xs, set.features.data());
  EXPECT_EQ(rows.p, 2u);
  EXPECT_DOUBLE_EQ(rows.xs[rows.row(1) * rows.p + 1], 3.1);
  EXPECT_DOUBLE_EQ(rows.ys[rows.row(2)], 70.0);
  EXPECT_EQ(rows.ws, nullptr);
}

TEST(EvalUtilTest, MaskedRowsAppliesItemMask) {
  const auto set = MakeSet(0);
  std::vector<uint8_t> mask(8, 0);
  mask[3] = 1;
  mask[7] = 1;
  std::vector<uint32_t> list;
  const regression::RowSet rows = MaskedRows(set, &mask, &list);
  ASSERT_EQ(rows.n, 2u);
  EXPECT_EQ(rows.rows, list.data());
  EXPECT_DOUBLE_EQ(rows.ys[rows.row(0)], 30.0);
  EXPECT_DOUBLE_EQ(rows.ys[rows.row(1)], 70.0);
  // Items beyond the mask size are treated as excluded.
  std::vector<uint8_t> short_mask(2, 1);
  EXPECT_EQ(MaskedRows(set, &short_mask, &list).n, 1u);  // only item 1
}

TEST(EvalUtilTest, RowListsKeepRowOrderPerList) {
  RowLists lists;
  const std::vector<size_t> list_of_row = {2, 0, 2, 1, 2, 0};
  lists.Build(4, [&](auto&& emit) {
    for (size_t row = 0; row < list_of_row.size(); ++row) {
      emit(list_of_row[row], row);
      if (row % 2 == 0) emit(3, row);  // a row may be in several lists
    }
  });
  ASSERT_EQ(lists.num_lists(), 4u);
  const auto list = [&](size_t k) {
    return std::vector<uint32_t>(lists.rows(k), lists.rows(k) + lists.size(k));
  };
  EXPECT_EQ(list(0), (std::vector<uint32_t>{1, 5}));
  EXPECT_EQ(list(1), (std::vector<uint32_t>{3}));
  EXPECT_EQ(list(2), (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(list(3), (std::vector<uint32_t>{0, 2, 4}));
  lists.Build(2, [](auto&&) {});  // rebuilt empty
  EXPECT_EQ(lists.size(0) + lists.size(1), 0u);
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
