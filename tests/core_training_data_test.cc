#include <gtest/gtest.h>

#include <cmath>

#include "core/training_data_gen.h"
#include "olap/cost.h"
#include "olap/dimension.h"
#include "olap/region.h"
#include "table/table.h"
#include "test_util.h"

namespace bellwether::core {
namespace {

using olap::HierarchicalDimension;
using olap::IntervalDimension;
using olap::NodeId;
using table::AggFn;
using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

// A tiny handcrafted star schema exercising all three feature-query forms.
struct TinyDb {
  Table fact{Schema({{"Time", DataType::kInt64},
                     {"Location", DataType::kInt64},
                     {"ItemID", DataType::kInt64},
                     {"AdNo", DataType::kInt64},
                     {"Profit", DataType::kDouble}})};
  Table items{Schema({{"ItemID", DataType::kInt64},
                      {"RDExpense", DataType::kDouble}})};
  Table ads{Schema(
      {{"AdNo", DataType::kInt64}, {"AdSize", DataType::kDouble}})};
  std::unique_ptr<olap::RegionSpace> space;
  std::unique_ptr<olap::CostModel> cost;
  NodeId wi = 0, md = 0;

  TinyDb() {
    HierarchicalDimension loc("Location", "All");
    const NodeId us = loc.AddNode("US", loc.root());
    wi = loc.AddNode("WI", us);
    md = loc.AddNode("MD", us);
    std::vector<olap::Dimension> dims;
    dims.emplace_back(IntervalDimension("Time", 2));
    dims.emplace_back(loc);
    space = std::make_unique<olap::RegionSpace>(std::move(dims));
    std::vector<double> cell_costs(space->NumFinestCells(), 1.0);
    cost = std::make_unique<olap::CostModel>(
        std::move(olap::CostModel::Create(space.get(), cell_costs)).value());

    items.AppendRow({Value(int64_t{1}), Value(10.0)});
    items.AppendRow({Value(int64_t{2}), Value(20.0)});
    items.AppendRow({Value(int64_t{3}), Value(30.0)});
    ads.AppendRow({Value(int64_t{100}), Value(1.0)});
    ads.AppendRow({Value(int64_t{101}), Value(4.0)});
    ads.AppendRow({Value(int64_t{102}), Value(9.0)});

    AddOrder(1, wi, 1, 100, 10.0);
    AddOrder(1, wi, 1, 101, 20.0);   // item 1, week 1, WI, two ads
    AddOrder(2, wi, 1, 100, 5.0);    // same ad again in week 2
    AddOrder(1, md, 1, 102, 40.0);
    AddOrder(1, md, 2, 100, 7.0);
    AddOrder(2, md, 2, 101, 9.0);
    AddOrder(2, wi, 3, 102, -2.0);   // item 3 only appears in week 2 WI
  }

  void AddOrder(int64_t t, NodeId loc, int64_t item, int64_t ad, double p) {
    fact.AppendRow({Value(t), Value(static_cast<int64_t>(loc)), Value(item),
                    Value(ad), Value(p)});
  }

  BellwetherSpec MakeSpec(double budget, double min_coverage) const {
    BellwetherSpec spec;
    spec.space = space.get();
    spec.fact = &fact;
    spec.item_id_column = "ItemID";
    spec.dimension_columns = {"Time", "Location"};
    spec.references["ads"] = ReferenceTable{&ads, "AdNo"};
    spec.item_table = &items;
    spec.item_table_id_column = "ItemID";
    spec.item_feature_columns = {"RDExpense"};
    spec.regional_features = {
        {FeatureQuery::Kind::kFactMeasure, AggFn::kSum, "RegionalProfit",
         "Profit", "", ""},
        {FeatureQuery::Kind::kReferenceMeasure, AggFn::kMax, "RegionalMaxAd",
         "AdSize", "ads", "AdNo"},
        {FeatureQuery::Kind::kFkDistinctMeasure, AggFn::kSum,
         "RegionalTotalAdSize", "AdSize", "ads", "AdNo"},
    };
    spec.target_fn = AggFn::kSum;
    spec.target_column = "Profit";
    spec.cost = cost.get();
    spec.budget = budget;
    spec.min_coverage = min_coverage;
    return spec;
  }
};

TEST(TrainingDataGenTest, TargetsAreWholeSpaceAggregates) {
  TinyDb db;
  auto data = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.0));
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->profile.targets.size(), 3u);
  EXPECT_NEAR(data->profile.targets[0], 10 + 20 + 5 + 40, 1e-9);  // item 1
  EXPECT_NEAR(data->profile.targets[1], 7 + 9, 1e-9);             // item 2
  EXPECT_NEAR(data->profile.targets[2], -2, 1e-9);                // item 3
}

TEST(TrainingDataGenTest, FeatureNamesLayout) {
  TinyDb db;
  const auto names = FeatureNames(db.MakeSpec(100.0, 0.0));
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "(intercept)");
  EXPECT_EQ(names[1], "RDExpense");
  EXPECT_EQ(names[2], "RegionalProfit");
  EXPECT_EQ(names[4], "RegionalTotalAdSize");
}

TEST(TrainingDataGenTest, RegionalFeatureValues) {
  TinyDb db;
  auto data = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.0));
  ASSERT_TRUE(data.ok());
  // Region [1-2, WI]: item 1 has rows (10, ad100), (20, ad101), (5, ad100).
  const olap::RegionId r = *db.space->FindRegion({"1-2", "WI"});
  const int64_t idx = data->FindSet(r);
  ASSERT_GE(idx, 0);
  const auto& set = (*data->memory_sets())[idx];
  // Items present: 1 and 3.
  ASSERT_EQ(set.items.size(), 2u);
  EXPECT_EQ(set.items[0], 0);
  EXPECT_EQ(set.items[1], 2);
  const double* row = set.row(0);
  EXPECT_DOUBLE_EQ(row[0], 1.0);    // intercept
  EXPECT_DOUBLE_EQ(row[1], 10.0);   // RDExpense
  EXPECT_DOUBLE_EQ(row[2], 35.0);   // regional profit 10+20+5
  EXPECT_DOUBLE_EQ(row[3], 4.0);    // max ad size among {1, 4, 1}
  // Distinct ads {100, 101} -> sizes 1 + 4 (ad 100 counted once).
  EXPECT_DOUBLE_EQ(row[4], 5.0);
  EXPECT_DOUBLE_EQ(set.targets[0], 75.0);
}

TEST(TrainingDataGenTest, CoverageCountsItemsWithData) {
  TinyDb db;
  auto data = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.0));
  ASSERT_TRUE(data.ok());
  // [1-1, WI]: only item 1 -> 1/3. [1-2, All]: all items -> 1.
  EXPECT_NEAR(
      data->profile.region_coverage[*db.space->FindRegion({"1-1", "WI"})],
      1.0 / 3.0, 1e-12);
  EXPECT_NEAR(
      data->profile.region_coverage[*db.space->FindRegion({"1-2", "All"})],
      1.0, 1e-12);
}

TEST(TrainingDataGenTest, BudgetAndCoveragePruneRegions) {
  TinyDb db;
  // Each finest cell costs 1; [1-2, All] costs 2*3=6.
  auto all = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.0));
  ASSERT_TRUE(all.ok());
  auto tight = GenerateTrainingDataInMemory(db.MakeSpec(2.0, 0.0));
  ASSERT_TRUE(tight.ok());
  EXPECT_LT(tight->memory_sets()->size(), all->memory_sets()->size());
  for (const auto& set : *tight->memory_sets()) {
    EXPECT_LE(all->profile.region_costs[set.region], 2.0);
  }
  auto covered = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.9));
  ASSERT_TRUE(covered.ok());
  for (const auto& set : *covered->memory_sets()) {
    EXPECT_GE(all->profile.region_coverage[set.region], 0.9);
  }
}

// The §4.2 rewrite equivalence: the single-pass CUBE path produces exactly
// the same training set as evaluating the original per-region queries with
// plain relational operators.
TEST(TrainingDataGenTest, CubePathMatchesNaiveQueriesEverywhere) {
  TinyDb db;
  const BellwetherSpec spec = db.MakeSpec(100.0, 0.0);
  auto data = GenerateTrainingDataInMemory(spec);
  ASSERT_TRUE(data.ok());
  ASSERT_GT(data->memory_sets()->size(), 0u);
  for (const auto& set : *data->memory_sets()) {
    auto naive = GenerateRegionTrainingSetNaive(spec, set.region);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    ASSERT_EQ(naive->items, set.items)
        << "region " << db.space->RegionLabel(set.region);
    ASSERT_EQ(naive->num_features, set.num_features);
    for (size_t i = 0; i < set.features.size(); ++i) {
      EXPECT_NEAR(naive->features[i], set.features[i], 1e-9)
          << "feature flat index " << i << " in region "
          << db.space->RegionLabel(set.region);
    }
    for (size_t i = 0; i < set.targets.size(); ++i) {
      EXPECT_NEAR(naive->targets[i], set.targets[i], 1e-9);
    }
  }
}

// A pi_FK aggregate folds the reference values in ascending key order, in
// whatever order the fact rows name the keys. Under keys 100 < 101 < 102
// the values 1, 1e16 and -1e16 sum to one thing in key order and to
// another in the rows' order (101, 102, 100) or in descending key order.
TEST(TrainingDataGenTest, KeySetSumRunsInAscendingKeyOrder) {
  TinyDb db;
  db.fact = Table(db.fact.schema());
  for (int64_t ad : {101, 102, 100}) db.AddOrder(1, db.wi, 1, ad, 1.0);
  db.ads = Table(db.ads.schema());
  db.ads.AppendRow({Value(int64_t{100}), Value(1.0)});
  db.ads.AppendRow({Value(int64_t{101}), Value(1e16)});
  db.ads.AppendRow({Value(int64_t{102}), Value(-1e16)});
  const double key_order = (1.0 + 1e16) + -1e16;
  ASSERT_NE(key_order, (1e16 + -1e16) + 1.0);
  ASSERT_NE(key_order, (-1e16 + 1e16) + 1.0);
  auto data = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.0));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const int64_t idx = data->FindSet(*db.space->FindRegion({"1-1", "WI"}));
  ASSERT_GE(idx, 0);
  const auto& set = (*data->memory_sets())[idx];
  ASSERT_EQ(set.items.size(), 1u);
  EXPECT_EQ(set.row(0)[4], key_order);  // RegionalTotalAdSize
}

TEST(TrainingDataGenTest, CellSetTrainingSetMatchesRegionWhenEquivalent) {
  TinyDb db;
  const BellwetherSpec spec = db.MakeSpec(100.0, 0.0);
  // The cell set covering exactly [1-2, WI].
  const olap::RegionId r = *db.space->FindRegion({"1-2", "WI"});
  auto via_cells = GenerateCellSetTrainingSet(spec, db.space->FinestCellsIn(r));
  auto via_region = GenerateRegionTrainingSetNaive(spec, r);
  ASSERT_TRUE(via_cells.ok());
  ASSERT_TRUE(via_region.ok());
  EXPECT_EQ(via_cells->items, via_region->items);
  EXPECT_EQ(via_cells->features, via_region->features);
}

TEST(TrainingDataGenTest, ValidatesSpec) {
  TinyDb db;
  BellwetherSpec spec = db.MakeSpec(10.0, 0.0);
  spec.target_column = "Nope";
  EXPECT_FALSE(GenerateTrainingDataInMemory(spec).ok());
  spec = db.MakeSpec(10.0, 0.0);
  spec.dimension_columns = {"Time"};
  EXPECT_FALSE(GenerateTrainingDataInMemory(spec).ok());
  spec = db.MakeSpec(10.0, 0.0);
  spec.regional_features[1].reference = "unknown";
  EXPECT_FALSE(GenerateTrainingDataInMemory(spec).ok());
}

// Each column role ValidateSpec types, retyped in TinyDb to a type the role
// rejects: generation fails with kInvalidArgument naming the role instead of
// reading a typed column as the wrong type.
class TrainingDataColumnRoleTest
    : public ::testing::TestWithParam<ColumnRoleCase> {};

TEST_P(TrainingDataColumnRoleTest, WrongColumnTypeIsInvalidArgument) {
  const ColumnRoleCase& c = GetParam();
  TinyDb db;
  Table retyped;
  const BellwetherSpec spec =
      RetypedSpec(db.MakeSpec(100.0, 0.0), c, "ads", &retyped);
  auto data = GenerateTrainingDataInMemory(spec);
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(data.status().message().find(c.message), std::string::npos)
      << data.status().ToString();
}

using Owner = ColumnRoleCase::Owner;
INSTANTIATE_TEST_SUITE_P(
    Roles, TrainingDataColumnRoleTest,
    ::testing::Values(
        ColumnRoleCase{"ItemTableId", Owner::kItemTable, "ItemID",
                       DataType::kDouble, "item table id column must be int64",
                       ""},
        ColumnRoleCase{"FactItemId", Owner::kFact, "ItemID", DataType::kDouble,
                       "fact item id column must be int64", ""},
        ColumnRoleCase{"Dimension", Owner::kFact, "Location",
                       DataType::kDouble,
                       "fact dimension column must be int64", ""},
        ColumnRoleCase{"ForeignKey", Owner::kFact, "AdNo", DataType::kDouble,
                       "fact FK column must be int64", ""},
        ColumnRoleCase{"Target", Owner::kFact, "Profit", DataType::kString,
                       "target column must be numeric", ""},
        ColumnRoleCase{"FactMeasure", Owner::kFact, "Profit",
                       DataType::kString, "fact measure column must be numeric",
                       "AdNo"},
        ColumnRoleCase{"ReferenceMeasure", Owner::kReference, "AdSize",
                       DataType::kString,
                       "reference measure column must be numeric", ""},
        ColumnRoleCase{"ReferenceKey", Owner::kReference, "AdNo",
                       DataType::kDouble, "reference keys must be int64", ""}),
    [](const ::testing::TestParamInfo<ColumnRoleCase>& info) {
      return info.param.role;
    });

// A star schema whose pi_FK features use more than one 64-bit word per
// cell: item 0 ranks all 140 reference keys, item 1 ranks 65 and item 2
// ranks 129, so cells hold bits on both sides of ranks 63/64 and 127/128.
// Some reference measures are null, item 3's keys all have null measures,
// and some fact rows carry a null or unknown key. Every value is a small
// multiple of 1/4, so sums are exact in any order.
struct WideKeyDb {
  static constexpr int64_t kKeys = 140;
  Table fact{Schema({{"Time", DataType::kInt64},
                     {"Location", DataType::kInt64},
                     {"ItemID", DataType::kInt64},
                     {"CatalogNo", DataType::kInt64},
                     {"Profit", DataType::kDouble}})};
  Table items{Schema({{"ItemID", DataType::kInt64},
                      {"Size", DataType::kDouble}})};
  Table catalogs{Schema({{"CatalogNo", DataType::kInt64},
                         {"Pages", DataType::kDouble}})};
  std::unique_ptr<olap::RegionSpace> space;
  std::unique_ptr<olap::CostModel> cost;
  std::vector<NodeId> states;

  // Key of reference row k: spaced and not in row order, so ranks differ
  // from both keys and reference rows.
  static int64_t Key(int64_t k) { return 5000 - 7 * k; }

  WideKeyDb() {
    HierarchicalDimension loc("Location", "All");
    const NodeId us = loc.AddNode("US", loc.root());
    states = {loc.AddNode("WI", us), loc.AddNode("MD", us),
              loc.AddNode("KR", loc.root())};
    std::vector<olap::Dimension> dims;
    dims.emplace_back(IntervalDimension("Time", 3));
    dims.emplace_back(loc);
    space = std::make_unique<olap::RegionSpace>(std::move(dims));
    std::vector<double> cell_costs(space->NumFinestCells(), 1.0);
    cost = std::make_unique<olap::CostModel>(
        std::move(olap::CostModel::Create(space.get(), cell_costs)).value());

    for (int64_t k = 0; k < kKeys; ++k) {
      catalogs.AppendRow({Value(Key(k)), k % 9 == 4 ? Value::Null()
                                                    : Value(0.25 * k - 3.0)});
    }
    for (int64_t i = 0; i < 4; ++i) {
      items.AppendRow({Value(i + 1), Value(1.5 * static_cast<double>(i))});
    }
    // Keys are ranked in ascending key order, and Key() descends in k, so
    // rank r of an item referencing keys {Key(k)} is its r-th largest k.
    int64_t row = 0;
    auto add = [&](int64_t item, int64_t k) {
      const int64_t cell = row++;
      AddOrder(1 + cell % 3, states[(cell / 3) % 3], item, Key(k),
               0.5 * static_cast<double>(cell % 11));
    };
    for (int64_t k = 0; k < kKeys; ++k) add(1, k);
    // Ranks 63/64 and 127/128 of item 1 again, together in one cell, and
    // overlapping keys across cells.
    for (int64_t k : {kKeys - 1 - 63, kKeys - 1 - 64, kKeys - 1 - 127,
                      kKeys - 1 - 128, int64_t{0}, int64_t{1}}) {
      AddOrder(2, states[1], 1, Key(k), 1.0);
    }
    for (int64_t k = 0; k < 130; k += 2) add(2, k);  // 65 keys
    for (int64_t k = 11; k < 140; ++k) add(3, k);    // 129 keys
    for (int64_t k : {4, 13, 22}) add(4, k);         // null measures only
    AddOrder(3, states[2], 2, 77, 2.0);              // unknown key
    fact.AppendRow({Value(int64_t{1}), Value(static_cast<int64_t>(states[0])),
                    Value(int64_t{3}), Value::Null(), Value(4.0)});
  }

  void AddOrder(int64_t t, NodeId loc, int64_t item, int64_t catalog,
                double profit) {
    fact.AppendRow({Value(t), Value(static_cast<int64_t>(loc)), Value(item),
                    Value(catalog), Value(profit)});
  }

  BellwetherSpec MakeSpec(int32_t threads) const {
    BellwetherSpec spec;
    spec.space = space.get();
    spec.fact = &fact;
    spec.item_id_column = "ItemID";
    spec.dimension_columns = {"Time", "Location"};
    spec.references["catalogs"] = ReferenceTable{&catalogs, "CatalogNo"};
    spec.item_table = &items;
    spec.item_table_id_column = "ItemID";
    spec.item_feature_columns = {"Size"};
    for (AggFn fn :
         {AggFn::kSum, AggFn::kAvg, AggFn::kMin, AggFn::kMax, AggFn::kCount}) {
      spec.regional_features.push_back(
          {FeatureQuery::Kind::kFkDistinctMeasure, fn,
           std::string("Pages_") + table::AggFnToString(fn), "Pages",
           "catalogs", "CatalogNo"});
    }
    spec.target_fn = AggFn::kSum;
    spec.target_column = "Profit";
    spec.cost = cost.get();
    spec.budget = 100.0;
    spec.min_coverage = 0.0;
    spec.exec.num_threads = threads;
    return spec;
  }
};

class WideKeyCubePathTest : public ::testing::TestWithParam<int32_t> {};

// The rewrite equivalence over multi-word key sets, at 1 and 4 emission
// threads.
TEST_P(WideKeyCubePathTest, CubePathMatchesNaiveQueriesEverywhere) {
  WideKeyDb db;
  const BellwetherSpec spec = db.MakeSpec(GetParam());
  auto data = GenerateTrainingDataInMemory(spec);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_EQ(data->memory_sets()->size(),
            static_cast<size_t>(db.space->NumRegions()));
  for (const auto& set : *data->memory_sets()) {
    auto naive = GenerateRegionTrainingSetNaive(spec, set.region);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    const std::string label = db.space->RegionLabel(set.region);
    ASSERT_EQ(naive->items, set.items) << label;
    ASSERT_EQ(naive->num_features, set.num_features);
    EXPECT_EQ(naive->features, set.features) << label;
    EXPECT_EQ(naive->targets, set.targets) << label;
  }
  // The all-items region sees every key of item 1: 140 keys, of which
  // every ninth (k % 9 == 4) has a null measure.
  const olap::RegionId all = *db.space->FindRegion({"1-3", "All"});
  const auto& top = (*data->memory_sets())[data->FindSet(all)];
  const double* item1 = top.row(0);
  EXPECT_EQ(item1[2 + 4], 140.0 - 16.0);  // COUNT of non-null measures
  EXPECT_EQ(item1[2 + 2], -3.0);          // MIN: key 0's measure
}

INSTANTIATE_TEST_SUITE_P(Threads, WideKeyCubePathTest,
                         ::testing::Values(1, 4));

TEST(TrainingDataGenTest, MemorySourceRoundTrip) {
  TinyDb db;
  auto data = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.0));
  ASSERT_TRUE(data.ok());
  ASSERT_NE(data->source, nullptr);
  ASSERT_NE(data->memory_sets(), nullptr);
  EXPECT_EQ(data->source->num_region_sets(), data->memory_sets()->size());
  EXPECT_EQ(data->source->num_region_sets(),
            data->profile.feasible.regions.size());
  auto ids = data->source->RegionIds();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

// Generation streams into a caller-supplied sink; the sink observes every
// feasible region exactly once, in ascending RegionId order.
TEST(TrainingDataGenTest, SinkReceivesSetsInAscendingRegionOrder) {
  TinyDb db;
  storage::MemorySink sink;
  auto profile = GenerateTrainingData(db.MakeSpec(100.0, 0.0), &sink);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(sink.sets_appended(),
            static_cast<int64_t>(profile->feasible.regions.size()));
  auto source = sink.Finish();
  ASSERT_TRUE(source.ok());
  auto ids = (*source)->RegionIds();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(ids, profile->feasible.regions);
}

TEST(TrainingDataGenTest, NullSinkIsRejected) {
  TinyDb db;
  EXPECT_FALSE(GenerateTrainingData(db.MakeSpec(100.0, 0.0), nullptr).ok());
}

// FindSet binary-searches the ascending feasible-region list.
TEST(TrainingDataGenTest, FindSetMatchesLinearScan) {
  TinyDb db;
  auto data = GenerateTrainingDataInMemory(db.MakeSpec(100.0, 0.0));
  ASSERT_TRUE(data.ok());
  const auto& regions = data->profile.feasible.regions;
  ASSERT_FALSE(regions.empty());
  for (olap::RegionId r = 0; r < db.space->NumRegions(); ++r) {
    int64_t expected = -1;
    for (size_t i = 0; i < regions.size(); ++i) {
      if (regions[i] == r) expected = static_cast<int64_t>(i);
    }
    EXPECT_EQ(data->FindSet(r), expected) << "region " << r;
  }
}

}  // namespace
}  // namespace bellwether::core
