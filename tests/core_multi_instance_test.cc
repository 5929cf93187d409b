#include <gtest/gtest.h>

#include <cmath>

#include "core/eval_util.h"
#include "core/multi_instance.h"
#include "core/training_data_gen.h"
#include "datagen/mail_order.h"
#include "test_util.h"

namespace bellwether::core {
namespace {

class MultiInstanceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::MailOrderConfig config;
    config.num_items = 60;
    config.density = 0.8;
    config.seed = 101;
    dataset_ =
        new datagen::MailOrderDataset(datagen::GenerateMailOrder(config));
    spec_ = new BellwetherSpec(dataset_->MakeSpec(40.0, 0.4));
  }
  static void TearDownTestSuite() {
    delete spec_;
    delete dataset_;
  }
  static datagen::MailOrderDataset* dataset_;
  static BellwetherSpec* spec_;
};

datagen::MailOrderDataset* MultiInstanceTest::dataset_ = nullptr;
BellwetherSpec* MultiInstanceTest::spec_ = nullptr;

TEST_F(MultiInstanceTest, BagShapesAreConsistent) {
  const olap::RegionId region = *spec_->space->FindRegion({"1-3", "MD"});
  auto bags = GenerateBagTrainingSet(*spec_, region);
  ASSERT_TRUE(bags.ok()) << bags.status().ToString();
  ASSERT_GT(bags->bags.size(), 0u);
  EXPECT_EQ(bags->bags.size(), bags->targets.size());
  // intercept + RDExpense + 4 regional features.
  EXPECT_EQ(bags->num_features, 6);
  for (const auto& bag : bags->bags) {
    EXPECT_GT(bag.num_instances(), 0u);
    // A window of 3 months over one state has at most 3 finest cells.
    EXPECT_LE(bag.num_instances(), 3u);
    EXPECT_EQ(bag.num_features, bags->num_features);
    for (size_t k = 0; k < bag.num_instances(); ++k) {
      EXPECT_DOUBLE_EQ(bag.instance(k)[0], 1.0);  // intercept per instance
    }
  }
}

TEST_F(MultiInstanceTest, InstancesSumToAggregatedFeatures) {
  // Summing the per-cell RegionalProfit instances of a bag must equal the
  // aggregated RegionalProfit feature of the standard (single-vector) path.
  const olap::RegionId region = *spec_->space->FindRegion({"1-3", "MD"});
  auto bags = GenerateBagTrainingSet(*spec_, region);
  ASSERT_TRUE(bags.ok());
  auto flat = GenerateRegionTrainingSetNaive(*spec_, region);
  ASSERT_TRUE(flat.ok());
  const std::vector<storage::RegionTrainingSet> flat_sets{*flat};
  const RegionFeatureLookup lookup(&flat_sets);
  // Feature layout: [intercept, RDExpense, RegionalProfit, ...]; profit is
  // index 2 in both representations.
  for (const auto& bag : bags->bags) {
    const double* x = lookup.Find(flat->region, bag.item);
    if (x == nullptr) continue;
    double instance_sum = 0.0;
    for (size_t k = 0; k < bag.num_instances(); ++k) {
      instance_sum += bag.instance(k)[2];
    }
    EXPECT_NEAR(instance_sum, x[2], 1e-9 * (1.0 + std::fabs(instance_sum)));
  }
}

TEST_F(MultiInstanceTest, MeanEmbeddingFitAndPredict) {
  const olap::RegionId region = *spec_->space->FindRegion({"1-4", "MD"});
  auto bags = GenerateBagTrainingSet(*spec_, region);
  ASSERT_TRUE(bags.ok());
  auto model = MeanEmbeddingModel::Fit(*bags);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // In-sample predictions correlate with the targets.
  double sse = 0.0, sst = 0.0, mean = 0.0;
  for (double t : bags->targets) mean += t;
  mean /= bags->targets.size();
  for (size_t i = 0; i < bags->bags.size(); ++i) {
    auto p = model->Predict(bags->bags[i]);
    ASSERT_TRUE(p.ok());
    sse += (*p - bags->targets[i]) * (*p - bags->targets[i]);
    sst += (bags->targets[i] - mean) * (bags->targets[i] - mean);
  }
  EXPECT_LT(sse, 0.5 * sst);  // R^2 > 0.5 in the planted state
}

TEST_F(MultiInstanceTest, PredictRejectsEmptyBag) {
  MeanEmbeddingModel model{regression::LinearModel({1.0, 2.0})};
  InstanceBag empty;
  empty.num_features = 2;
  EXPECT_FALSE(model.Predict(empty).ok());
}

TEST_F(MultiInstanceTest, CrossValidateBagsRuns) {
  const olap::RegionId region = *spec_->space->FindRegion({"1-4", "MD"});
  auto bags = GenerateBagTrainingSet(*spec_, region);
  ASSERT_TRUE(bags.ok());
  Rng rng(3);
  auto err = CrossValidateBags(*bags, 5, &rng);
  ASSERT_TRUE(err.ok());
  EXPECT_GT(err->rmse, 0.0);
  EXPECT_EQ(err->num_folds, 5);
}

TEST_F(MultiInstanceTest, SearchFindsPlantedStateRegion) {
  MiSearchOptions options;
  options.cv_folds = 5;
  options.min_bags = 20;
  auto result = RunMultiInstanceSearch(*spec_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->found());
  EXPECT_GT(result->scores.size(), 5u);
  // The chosen region's location coordinate is the planted state.
  EXPECT_EQ(spec_->space->Decode(result->bellwether)[1],
            dataset_->planted_state_node)
      << spec_->space->RegionLabel(result->bellwether);
  // Every scored region respects the cost constraint.
  for (const auto& [region, rmse] : result->scores) {
    EXPECT_LE(spec_->cost->RegionCost(region), spec_->budget);
    EXPECT_GE(rmse, result->error.rmse - 1e-12);
  }
}

// Each column role ValidateSpec types, retyped in the mail-order schema to
// a type the role rejects: bag generation fails with kInvalidArgument naming
// the role instead of reading a typed column as the wrong type.
class BagColumnRoleTest : public MultiInstanceTest,
                          public ::testing::WithParamInterface<ColumnRoleCase> {
};

TEST_P(BagColumnRoleTest, WrongColumnTypeIsInvalidArgument) {
  const ColumnRoleCase& c = GetParam();
  table::Table retyped;
  const BellwetherSpec spec = RetypedSpec(*spec_, c, "catalogs", &retyped);
  const olap::RegionId region = *spec_->space->FindRegion({"1-3", "MD"});
  auto bags = GenerateBagTrainingSet(spec, region);
  ASSERT_FALSE(bags.ok());
  EXPECT_EQ(bags.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bags.status().message().find(c.message), std::string::npos)
      << bags.status().ToString();
}

using Owner = ColumnRoleCase::Owner;
using table::DataType;
INSTANTIATE_TEST_SUITE_P(
    Roles, BagColumnRoleTest,
    ::testing::Values(
        ColumnRoleCase{"ItemTableId", Owner::kItemTable, "ItemID",
                       DataType::kDouble, "item table id column must be int64",
                       ""},
        ColumnRoleCase{"FactItemId", Owner::kFact, "ItemID", DataType::kDouble,
                       "fact item id column must be int64", ""},
        ColumnRoleCase{"Dimension", Owner::kFact, "Time", DataType::kDouble,
                       "fact dimension column must be int64", ""},
        ColumnRoleCase{"ForeignKey", Owner::kFact, "CatalogNo",
                       DataType::kDouble, "fact FK column must be int64", ""},
        ColumnRoleCase{"Target", Owner::kFact, "Profit", DataType::kString,
                       "target column must be numeric", ""},
        ColumnRoleCase{"FactMeasure", Owner::kFact, "Profit",
                       DataType::kString, "fact measure column must be numeric",
                       "Quantity"},
        ColumnRoleCase{"ReferenceMeasure", Owner::kReference, "Pages",
                       DataType::kString,
                       "reference measure column must be numeric", ""},
        ColumnRoleCase{"ReferenceKey", Owner::kReference, "CatalogNo",
                       DataType::kDouble, "reference keys must be int64", ""}),
    [](const ::testing::TestParamInfo<ColumnRoleCase>& info) {
      return info.param.role;
    });

}  // namespace
}  // namespace bellwether::core
