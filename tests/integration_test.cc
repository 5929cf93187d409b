// End-to-end integration tests: whole pipelines across modules, including
// the disk-backed path (generate -> spill -> search/tree/cube -> predict).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "core/basic_search.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_tree.h"
#include "core/eval_util.h"
#include "core/item_centric_eval.h"
#include "core/training_data_gen.h"
#include "datagen/book_store.h"
#include "datagen/mail_order.h"
#include "datagen/simulation.h"
#include "storage/training_data.h"
#include "test_util.h"

namespace bellwether::core {
namespace {

TEST(IntegrationTest, MailOrderSpilledPipeline) {
  // Generate -> write to a spill file -> run the basic search from disk ->
  // verify the same result as the in-memory source.
  datagen::MailOrderConfig config;
  config.num_items = 80;
  config.density = 0.8;
  config.seed = 3;
  const datagen::MailOrderDataset dataset = datagen::GenerateMailOrder(config);
  const BellwetherSpec spec = dataset.MakeSpec(50.0, 0.4);
  auto data = GenerateTrainingDataInMemory(spec);
  ASSERT_TRUE(data.ok());

  const std::string path = TestTempPath("integration_mail.spill");
  {
    auto writer = storage::SpillFileWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    for (const auto& set : *data->memory_sets()) {
      ASSERT_TRUE((*writer)->Append(set).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto disk = storage::SpilledTrainingData::Open(path);
  ASSERT_TRUE(disk.ok());
  storage::TrainingDataSource& memory = *data->source;

  BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kTrainingSet;
  options.min_examples = 20;
  auto from_disk = RunBasicBellwetherSearch(disk->get(), options);
  auto from_memory = RunBasicBellwetherSearch(&memory, options);
  ASSERT_TRUE(from_disk.ok());
  ASSERT_TRUE(from_memory.ok());
  ASSERT_TRUE(from_disk->found());
  EXPECT_EQ(from_disk->bellwether, from_memory->bellwether);
  EXPECT_DOUBLE_EQ(from_disk->error.rmse, from_memory->error.rmse);
  std::remove(path.c_str());
}

TEST(IntegrationTest, TreeLemmaHoldsOnRealPipelineData) {
  // Lemma 1 verified on cube-generated mail-order training data (not just
  // the synthetic simulation sets).
  datagen::MailOrderConfig config;
  config.num_items = 80;
  config.density = 0.8;
  config.seed = 5;
  const datagen::MailOrderDataset dataset = datagen::GenerateMailOrder(config);
  const BellwetherSpec spec = dataset.MakeSpec(40.0, 0.4);
  auto data = GenerateTrainingDataInMemory(spec);
  ASSERT_TRUE(data.ok());
  storage::TrainingDataSource& source = *data->source;
  TreeBuildConfig tree_config;
  tree_config.split_columns = {"Category", "RDExpense"};
  tree_config.min_items = 25;
  tree_config.max_depth = 3;
  tree_config.max_numeric_split_points = 5;
  tree_config.min_examples_per_model = 10;
  auto naive = BuildBellwetherTreeNaive(&source, dataset.items, tree_config);
  auto rf =
      BuildBellwetherTreeRainForest(&source, dataset.items, tree_config);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(rf.ok());
  ExpectTreesEqual(*naive, *rf);
}

TEST(IntegrationTest, CubeLemmaHoldsOnRealPipelineData) {
  datagen::MailOrderConfig config;
  config.num_items = 80;
  config.density = 0.8;
  config.seed = 7;
  const datagen::MailOrderDataset dataset = datagen::GenerateMailOrder(config);
  const BellwetherSpec spec = dataset.MakeSpec(40.0, 0.4);
  auto data = GenerateTrainingDataInMemory(spec);
  ASSERT_TRUE(data.ok());
  storage::TrainingDataSource& source = *data->source;
  auto subsets =
      ItemSubsetSpace::Create(dataset.items, dataset.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  CubeBuildConfig cube_config;
  cube_config.min_subset_size = 15;
  cube_config.min_examples_per_model = 10;
  cube_config.compute_cv_stats = false;
  auto naive = BuildBellwetherCubeNaive(&source, *subsets, cube_config);
  auto scan = BuildBellwetherCubeSingleScan(&source, *subsets, cube_config);
  auto opt = BuildBellwetherCubeOptimized(&source, *subsets, cube_config);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(opt.ok());
  ASSERT_EQ(naive->cells().size(), scan->cells().size());
  ASSERT_EQ(scan->cells().size(), opt->cells().size());
  for (size_t i = 0; i < naive->cells().size(); ++i) {
    EXPECT_EQ(naive->cells()[i].region, scan->cells()[i].region);
    if (naive->cells()[i].has_model && opt->cells()[i].has_model) {
      EXPECT_NEAR(naive->cells()[i].error, opt->cells()[i].error,
                  1e-6 * (1.0 + naive->cells()[i].error));
    }
  }
}

TEST(IntegrationTest, SimulationTreeRecoversPlantedRegions) {
  // On low-noise simulated data, the tree's leaf regions should mostly be
  // the generator's planted bellwether regions.
  datagen::SimulationConfig config;
  config.num_items = 400;
  config.generator_tree_nodes = 7;
  config.noise = 0.05;
  config.num_windows = 3;
  config.location_fanouts = {2, 2};
  config.seed = 13;
  const datagen::SimulationDataset sim = datagen::GenerateSimulation(config);
  storage::MemoryTrainingData source(sim.sets);
  TreeBuildConfig tree_config;
  tree_config.split_columns = sim.feature_columns;
  tree_config.min_items = 60;
  tree_config.max_depth = 4;
  tree_config.min_examples_per_model = 10;
  auto tree = BuildBellwetherTreeRainForest(&source, sim.items, tree_config);
  ASSERT_TRUE(tree.ok());
  int32_t match = 0, total = 0;
  for (int32_t i = 0; i < 400; ++i) {
    const int32_t node = tree->RouteItem(i);
    if (node < 0) continue;
    ++total;
    if (tree->nodes()[node].region == sim.true_region_of_item[i]) ++match;
  }
  ASSERT_GT(total, 300);
  EXPECT_GT(static_cast<double>(match) / total, 0.7);
}

TEST(IntegrationTest, BookStoreFullPipelineRuns) {
  datagen::BookStoreConfig config;
  config.num_books = 60;
  config.seed = 17;
  const datagen::BookStoreDataset dataset = datagen::GenerateBookStore(config);
  const BellwetherSpec spec = dataset.MakeSpec(150.0, 0.3);
  auto data = GenerateTrainingDataInMemory(spec);
  ASSERT_TRUE(data.ok());
  ASSERT_GT(data->source->num_region_sets(), 0u);
  storage::TrainingDataSource& source = *data->source;
  BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kCrossValidation;
  options.min_examples = 15;
  auto result = RunBasicBellwetherSearch(&source, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->found());
  // The negative dataset: a visible share of regions stays
  // indistinguishable from the winner (cf. the near-zero fractions of the
  // planted mail-order dataset).
  EXPECT_GT(result->FractionIndistinguishable(0.99), 0.02);
}

TEST(IntegrationTest, PredictionsConsistentAcrossSourceKinds) {
  // Cube predictions computed against spilled data match the in-memory ones.
  datagen::SimulationConfig config;
  config.num_items = 150;
  config.generator_tree_nodes = 7;
  config.num_windows = 3;
  config.location_fanouts = {2};
  config.seed = 19;
  const datagen::SimulationDataset sim = datagen::GenerateSimulation(config);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  CubeBuildConfig cube_config;
  cube_config.min_subset_size = 20;
  cube_config.min_examples_per_model = 10;
  cube_config.compute_cv_stats = true;

  storage::MemoryTrainingData memory(sim.sets);
  auto from_memory =
      BuildBellwetherCubeOptimized(&memory, *subsets, cube_config);
  ASSERT_TRUE(from_memory.ok());

  const std::string path = TestTempPath("integration_sim.spill");
  {
    auto writer = storage::SpillFileWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    for (const auto& set : sim.sets) ASSERT_TRUE((*writer)->Append(set).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto disk = storage::SpilledTrainingData::Open(path);
  ASSERT_TRUE(disk.ok());
  auto from_disk =
      BuildBellwetherCubeOptimized(disk->get(), *subsets, cube_config);
  ASSERT_TRUE(from_disk.ok());

  const RegionFeatureLookup lookup(&sim.sets);
  for (int32_t i = 0; i < 20; ++i) {
    auto a = from_memory->PredictItem(i, lookup);
    auto b = from_disk->PredictItem(i, lookup);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_DOUBLE_EQ(a->value, b->value);
    }
  }
  std::remove(path.c_str());
}

TEST(IntegrationTest, SlidingWindowsFindMidYearBellwether) {
  // A signal that only exists in months 3-4 of one state: with sliding
  // windows the search can return the mid-year region [3-4, WI], which the
  // paper's incremental windows cannot even express.
  olap::HierarchicalDimension location("Location", "All");
  const olap::NodeId us = location.AddNode("US", location.root());
  const olap::NodeId wi = location.AddNode("WI", us);
  const olap::NodeId md = location.AddNode("MD", us);
  std::vector<olap::Dimension> dims;
  dims.emplace_back(
      olap::IntervalDimension("Month", 6, olap::WindowKind::kSliding));
  dims.emplace_back(location);
  olap::RegionSpace space(std::move(dims));

  table::Table fact(table::Schema({{"Month", table::DataType::kInt64},
                                   {"Location", table::DataType::kInt64},
                                   {"ItemID", table::DataType::kInt64},
                                   {"Profit", table::DataType::kDouble}}));
  table::Table items(table::Schema({{"ItemID", table::DataType::kInt64}}));
  Rng rng(4);
  for (int64_t id = 1; id <= 50; ++id) {
    items.AppendRow({table::Value(id)});
    const double total = rng.NextDouble(100, 1000);
    for (int64_t m = 1; m <= 6; ++m) {
      for (olap::NodeId state : {wi, md}) {
        // WI months 3-4 carry a clean 10% preview of the total; everything
        // else is item-independent noise.
        const bool signal = state == wi && (m == 3 || m == 4);
        const double profit =
            signal ? 0.05 * total * (1.0 + 0.01 * rng.NextGaussian())
                   : rng.NextDouble(10, 60);
        fact.AppendRow({table::Value(m),
                        table::Value(static_cast<int64_t>(state)),
                        table::Value(id), table::Value(profit)});
      }
    }
  }
  std::vector<double> cell_costs(space.NumFinestCells(), 1.0);
  auto cost = olap::CostModel::Create(&space, cell_costs);
  ASSERT_TRUE(cost.ok());

  BellwetherSpec spec;
  spec.space = &space;
  spec.fact = &fact;
  spec.item_id_column = "ItemID";
  spec.dimension_columns = {"Month", "Location"};
  spec.item_table = &items;
  spec.item_table_id_column = "ItemID";
  spec.regional_features = {
      {FeatureQuery::Kind::kFactMeasure, table::AggFn::kSum,
       "RegionalProfit", "Profit", "", ""},
  };
  spec.target_fn = table::AggFn::kSum;
  spec.target_column = "Profit";
  spec.cost = &*cost;
  spec.budget = 2.0;  // at most two cells: forces small windows
  spec.min_coverage = 0.9;

  auto data = GenerateTrainingDataInMemory(spec);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  storage::TrainingDataSource& source = *data->source;
  BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kCrossValidation;
  options.min_examples = 20;
  auto result = RunBasicBellwetherSearch(&source, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->found());
  const std::string label = space.RegionLabel(result->bellwether);
  EXPECT_TRUE(label == "[3-4, WI]" || label == "[3-3, WI]" ||
              label == "[4-4, WI]")
      << "found " << label;
}

}  // namespace
}  // namespace bellwether::core
