#include <gtest/gtest.h>

#include <cmath>

#include "core/basic_search.h"
#include "core/combinatorial.h"
#include "core/eval_util.h"
#include "core/training_data_gen.h"
#include "datagen/mail_order.h"
#include "storage/training_data.h"
#include "test_util.h"

namespace bellwether::core {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::MailOrderConfig config;
    config.num_items = 120;
    config.density = 1.0;
    config.seed = 77;
    dataset_ =
        new datagen::MailOrderDataset(datagen::GenerateMailOrder(config));
    spec_ = new BellwetherSpec(dataset_->MakeSpec(60.0, 0.5));
    auto data = GenerateTrainingDataInMemory(*spec_);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    data_ = new GeneratedTrainingData(std::move(data).value());
  }
  static void TearDownTestSuite() {
    delete data_;
    delete spec_;
    delete dataset_;
  }
  static datagen::MailOrderDataset* dataset_;
  static BellwetherSpec* spec_;
  static GeneratedTrainingData* data_;
};

datagen::MailOrderDataset* ExtensionsTest::dataset_ = nullptr;
BellwetherSpec* ExtensionsTest::spec_ = nullptr;
GeneratedTrainingData* ExtensionsTest::data_ = nullptr;

// ---- Linear optimization criterion (§3.2) ----

TEST_F(ExtensionsTest, LinearCriterionWithZeroWeightsMatchesMinError) {
  storage::TrainingDataSource& source = *data_->source;
  BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kTrainingSet;
  auto full = RunBasicBellwetherSearch(&source, options);
  ASSERT_TRUE(full.ok());
  auto linear = SelectLinearCriterion(*full, &source, data_->profile.region_costs,
                                      data_->profile.region_coverage, 0.0, 0.0);
  ASSERT_TRUE(linear.ok());
  EXPECT_EQ(linear->bellwether, full->bellwether);
}

TEST_F(ExtensionsTest, CostWeightPushesTowardCheaperRegions) {
  storage::TrainingDataSource& source = *data_->source;
  BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kTrainingSet;
  auto full = RunBasicBellwetherSearch(&source, options);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->found());
  // A huge cost weight turns the objective into cost minimization.
  auto frugal = SelectLinearCriterion(*full, &source, data_->profile.region_costs,
                                      data_->profile.region_coverage, 1e9, 0.0);
  ASSERT_TRUE(frugal.ok());
  ASSERT_TRUE(frugal->found());
  EXPECT_LE(data_->profile.region_costs[frugal->bellwether],
            data_->profile.region_costs[full->bellwether]);
  // And it is the globally cheapest usable region.
  for (const auto& s : full->scores) {
    if (!s.usable) continue;
    EXPECT_GE(data_->profile.region_costs[s.region],
              data_->profile.region_costs[frugal->bellwether] - 1e-12);
  }
}

TEST_F(ExtensionsTest, CoverageWeightPushesTowardBroaderRegions) {
  storage::TrainingDataSource& source = *data_->source;
  BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kTrainingSet;
  auto full = RunBasicBellwetherSearch(&source, options);
  ASSERT_TRUE(full.ok());
  auto broad = SelectLinearCriterion(*full, &source, data_->profile.region_costs,
                                     data_->profile.region_coverage, 0.0, 1e9);
  ASSERT_TRUE(broad.ok());
  ASSERT_TRUE(broad->found());
  for (const auto& s : full->scores) {
    if (!s.usable) continue;
    EXPECT_LE(data_->profile.region_coverage[s.region],
              data_->profile.region_coverage[broad->bellwether] + 1e-12);
  }
}

TEST_F(ExtensionsTest, LinearCriterionValidatesTables) {
  storage::TrainingDataSource& source = *data_->source;
  BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kTrainingSet;
  auto full = RunBasicBellwetherSearch(&source, options);
  ASSERT_TRUE(full.ok());
  std::vector<double> short_cov(3, 0.0);
  EXPECT_FALSE(SelectLinearCriterion(*full, &source, data_->profile.region_costs,
                                     short_cov, 1.0, 1.0)
                   .ok());
}

// ---- Combinatorial bellwether analysis (§3.4) ----

TEST_F(ExtensionsTest, CombinatorialSearchFindsAffordableCombination) {
  CombinatorialOptions options;
  options.budget = 30.0;
  options.max_regions = 2;
  options.cv_folds = 5;
  options.min_examples = 20;
  auto result = RunCombinatorialSearch(*spec_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->found());
  EXPECT_LE(result->cost, options.budget);
  EXPECT_LE(static_cast<int32_t>(result->regions.size()),
            options.max_regions);
  EXPECT_FALSE(result->cells.empty());
  // Cells are exactly the union of the chosen regions' finest cells.
  std::set<int64_t> expected;
  for (olap::RegionId r : result->regions) {
    for (int64_t c : spec_->space->FinestCellsIn(r)) expected.insert(c);
  }
  EXPECT_EQ(std::set<int64_t>(result->cells.begin(), result->cells.end()),
            expected);
}

TEST_F(ExtensionsTest, CombinatorialAtLeastMatchesSingleRegionGreedily) {
  // The greedy search's first step evaluates every affordable single
  // region, so its final error cannot exceed the best single affordable
  // region's error (same error measure, same folds).
  CombinatorialOptions options;
  options.budget = 25.0;
  options.max_regions = 3;
  options.cv_folds = 5;
  options.min_examples = 20;
  auto combo = RunCombinatorialSearch(*spec_, options);
  ASSERT_TRUE(combo.ok());
  // Best single affordable region, evaluated identically.
  double best_single = std::numeric_limits<double>::infinity();
  for (olap::RegionId r = 0; r < spec_->space->NumRegions(); ++r) {
    if (spec_->cost->RegionCost(r) > options.budget) continue;
    auto set = GenerateRegionTrainingSetNaive(*spec_, r);
    if (!set.ok()) continue;
    const regression::RowSet rows = MaskedRows(*set, nullptr, nullptr);
    if (rows.n < 20) continue;
    Rng rng(options.seed);
    auto err = regression::CrossValidationError(rows, options.cv_folds, &rng);
    if (err.ok()) best_single = std::min(best_single, err->rmse);
  }
  EXPECT_LE(combo->error.rmse, best_single + 1e-9);
}

TEST_F(ExtensionsTest, CombinatorialRejectsZeroBudget) {
  CombinatorialOptions options;
  options.budget = 0.0;
  EXPECT_FALSE(RunCombinatorialSearch(*spec_, options).ok());
}

// ---- Weighted least squares end-to-end (§6.4) ----

TEST_F(ExtensionsTest, WeightBySupportProducesWeightedSets) {
  BellwetherSpec wspec = *spec_;
  wspec.weight_by_support = true;
  auto wdata = GenerateTrainingDataInMemory(wspec);
  ASSERT_TRUE(wdata.ok());
  ASSERT_EQ(wdata->memory_sets()->size(), data_->memory_sets()->size());
  bool any_weighted = false;
  for (const auto& set : *wdata->memory_sets()) {
    ASSERT_EQ(set.weights.size(), set.items.size());
    for (double w : set.weights) EXPECT_GE(w, 1.0);
    any_weighted = true;
  }
  EXPECT_TRUE(any_weighted);
}

TEST_F(ExtensionsTest, WeightedNaivePathMatchesCubePath) {
  BellwetherSpec wspec = *spec_;
  wspec.weight_by_support = true;
  auto wdata = GenerateTrainingDataInMemory(wspec);
  ASSERT_TRUE(wdata.ok());
  // Compare the weights on a handful of regions against the naive path.
  int compared = 0;
  const auto& wsets = *wdata->memory_sets();
  for (size_t k = 0; k < wsets.size() && compared < 5; k += 37) {
    const auto& set = wsets[k];
    auto naive = GenerateRegionTrainingSetNaive(wspec, set.region);
    ASSERT_TRUE(naive.ok());
    ASSERT_EQ(naive->weights, set.weights);
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST_F(ExtensionsTest, WeightedSearchRunsAndFindsPlantedState) {
  BellwetherSpec wspec = *spec_;
  wspec.weight_by_support = true;
  auto wdata = GenerateTrainingDataInMemory(wspec);
  ASSERT_TRUE(wdata.ok());
  storage::TrainingDataSource& source = *wdata->source;
  BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kTrainingSet;
  options.min_examples = 30;
  auto result = RunBasicBellwetherSearch(&source, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->found());
  EXPECT_EQ(spec_->space->Decode(result->bellwether)[1],
            dataset_->planted_state_node);
}

TEST(WeightedSpillTest, WeightsSurviveTheSpillFile) {
  storage::RegionTrainingSet set;
  set.region = 5;
  set.num_features = 2;
  set.items = {0, 1, 2};
  set.targets = {1.0, 2.0, 3.0};
  set.features = {1, 0.5, 1, 0.6, 1, 0.7};
  set.weights = {1.0, 4.0, 9.0};
  const std::string path = TestTempPath("weighted.spill");
  {
    auto writer = storage::SpillFileWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(set).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto src = storage::SpilledTrainingData::Open(path);
  ASSERT_TRUE(src.ok());
  auto back = (*src)->Read(0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->weights, set.weights);
  EXPECT_TRUE(back->weighted());
  std::remove(path.c_str());
}

TEST(WeightedDatasetTest, MaskedRowsCarriesWeights) {
  storage::RegionTrainingSet set;
  set.region = 0;
  set.num_features = 1;
  set.items = {0, 1};
  set.targets = {1.0, 2.0};
  set.features = {1.0, 1.0};
  set.weights = {2.0, 3.0};
  const regression::RowSet rows = MaskedRows(set, nullptr, nullptr);
  ASSERT_NE(rows.ws, nullptr);
  EXPECT_DOUBLE_EQ(rows.ws[rows.row(0)], 2.0);
  EXPECT_DOUBLE_EQ(rows.ws[rows.row(1)], 3.0);
  set.weights.clear();
  EXPECT_EQ(MaskedRows(set, nullptr, nullptr).ws, nullptr);
}

}  // namespace
}  // namespace bellwether::core
