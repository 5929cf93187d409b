#include <gtest/gtest.h>

#include <cmath>

#include "core/bellwether_tree.h"
#include "core/eval_util.h"
#include "datagen/simulation.h"
#include "storage/training_data.h"

namespace bellwether::core {
namespace {

datagen::SimulationDataset MakeSim(int32_t tree_nodes, double noise,
                                   uint64_t seed, int32_t items = 240) {
  datagen::SimulationConfig config;
  config.num_items = items;
  config.generator_tree_nodes = tree_nodes;
  config.noise = noise;
  config.num_windows = 3;
  config.location_fanouts = {2, 2};
  config.seed = seed;
  return datagen::GenerateSimulation(config);
}

TreeBuildConfig MakeTreeConfig(const datagen::SimulationDataset& sim) {
  TreeBuildConfig config;
  config.split_columns = sim.feature_columns;
  config.min_items = 40;
  config.max_depth = 4;
  config.min_examples_per_model = 8;
  return config;
}

TEST(ItemSplitFeaturesTest, NumericAndCategoricalColumns) {
  table::Table items(table::Schema({{"id", table::DataType::kInt64},
                                    {"x", table::DataType::kDouble},
                                    {"c", table::DataType::kString}}));
  items.AppendRow({table::Value(int64_t{1}), table::Value(1.5),
                   table::Value("a")});
  items.AppendRow({table::Value(int64_t{2}), table::Value(2.5),
                   table::Value("b")});
  items.AppendRow({table::Value(int64_t{3}), table::Value(3.5),
                   table::Value("a")});
  auto feats = ItemSplitFeatures::Create(items, {"x", "c"});
  ASSERT_TRUE(feats.ok());
  EXPECT_TRUE((*feats)->IsNumeric(0));
  EXPECT_FALSE((*feats)->IsNumeric(1));
  EXPECT_DOUBLE_EQ((*feats)->NumericValue(0, 2), 3.5);
  EXPECT_EQ((*feats)->NumCategories(1), 2);
  EXPECT_EQ((*feats)->CategoryOf(1, 0), (*feats)->CategoryOf(1, 2));
  EXPECT_NE((*feats)->CategoryOf(1, 0), (*feats)->CategoryOf(1, 1));
  EXPECT_FALSE(ItemSplitFeatures::Create(items, {"missing"}).ok());
}

TEST(SplitCriterionTest, PartitionRouting) {
  table::Table items(table::Schema({{"x", table::DataType::kDouble}}));
  items.AppendRow({table::Value(1.0)});
  items.AppendRow({table::Value(5.0)});
  auto feats = ItemSplitFeatures::Create(items, {"x"});
  ASSERT_TRUE(feats.ok());
  SplitCriterion c;
  c.column = 0;
  c.is_numeric = true;
  c.threshold = 3.0;
  c.num_partitions = 2;
  EXPECT_EQ(c.PartitionOf(**feats, 0), 0);
  EXPECT_EQ(c.PartitionOf(**feats, 1), 1);
}

// Lemma 1: the RainForest builder produces exactly the tree the naive
// builder produces, across generator complexities and noise levels.
class Lemma1Test
    : public ::testing::TestWithParam<std::tuple<int32_t, double>> {};

void ExpectTreesEqual(const BellwetherTree& a, const BellwetherTree& b) {
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (size_t i = 0; i < a.nodes().size(); ++i) {
    const TreeNode& na = a.nodes()[i];
    const TreeNode& nb = b.nodes()[i];
    EXPECT_EQ(na.depth, nb.depth) << "node " << i;
    EXPECT_EQ(na.num_items, nb.num_items) << "node " << i;
    EXPECT_EQ(na.has_model, nb.has_model) << "node " << i;
    EXPECT_EQ(na.region, nb.region) << "node " << i;
    if (na.has_model) {
      EXPECT_DOUBLE_EQ(na.error, nb.error) << "node " << i;
    }
    EXPECT_EQ(na.children, nb.children) << "node " << i;
    if (!na.is_leaf()) {
      EXPECT_EQ(na.split.column, nb.split.column) << "node " << i;
      EXPECT_EQ(na.split.is_numeric, nb.split.is_numeric) << "node " << i;
      EXPECT_DOUBLE_EQ(na.split.threshold, nb.split.threshold)
          << "node " << i;
    }
  }
}

TEST_P(Lemma1Test, RainForestEqualsNaive) {
  const auto [nodes, noise] = GetParam();
  datagen::SimulationDataset sim = MakeSim(nodes, noise, 100 + nodes);
  storage::MemoryTrainingData source(sim.sets);
  const TreeBuildConfig config = MakeTreeConfig(sim);
  auto naive = BuildBellwetherTreeNaive(&source, sim.items, config);
  auto rf = BuildBellwetherTreeRainForest(&source, sim.items, config);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_TRUE(rf.ok()) << rf.status().ToString();
  ExpectTreesEqual(*naive, *rf);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, Lemma1Test,
    ::testing::Values(std::make_tuple(3, 0.2), std::make_tuple(7, 0.2),
                      std::make_tuple(15, 0.5), std::make_tuple(7, 1.0)));

TEST(TreeScanCountTest, RainForestScansOncePerLevel) {
  datagen::SimulationDataset sim = MakeSim(7, 0.3, 3);
  storage::MemoryTrainingData source(sim.sets);
  const TreeBuildConfig config = MakeTreeConfig(sim);
  auto rf = BuildBellwetherTreeRainForest(&source, sim.items, config);
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(source.io_stats().sequential_scans, rf->NumLevels());
}

TEST(TreeScanCountTest, NaiveReadsManyMoreRegions) {
  datagen::SimulationDataset sim = MakeSim(7, 0.3, 3);
  const TreeBuildConfig config = MakeTreeConfig(sim);
  storage::MemoryTrainingData naive_src(sim.sets);
  auto naive = BuildBellwetherTreeNaive(&naive_src, sim.items, config);
  ASSERT_TRUE(naive.ok());
  storage::MemoryTrainingData rf_src(sim.sets);
  auto rf = BuildBellwetherTreeRainForest(&rf_src, sim.items, config);
  ASSERT_TRUE(rf.ok());
  EXPECT_GT(naive_src.io_stats().region_reads,
            2 * rf_src.io_stats().region_reads);
}

TEST(TreeTest, TreeSplitsWhenBellwetherDistributionIsComplex) {
  // 15-node generator, low noise: one global region cannot explain all
  // items, so the tree must actually split.
  datagen::SimulationDataset sim = MakeSim(15, 0.1, 11);
  storage::MemoryTrainingData source(sim.sets);
  auto tree =
      BuildBellwetherTreeRainForest(&source, sim.items, MakeTreeConfig(sim));
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(tree->NumLevels(), 1);
  EXPECT_GT(tree->NumLeaves(), 1);
}

TEST(TreeTest, PredictionsBeatGlobalModelOnComplexData) {
  datagen::SimulationDataset sim = MakeSim(15, 0.1, 13);
  storage::MemoryTrainingData source(sim.sets);
  const TreeBuildConfig config = MakeTreeConfig(sim);
  auto tree = BuildBellwetherTreeRainForest(&source, sim.items, config);
  ASSERT_TRUE(tree.ok());
  const RegionFeatureLookup lookup(&sim.sets);

  // Tree predictions.
  double tree_sse = 0.0;
  int64_t n = 0;
  for (int32_t i = 0; i < static_cast<int32_t>(sim.targets.size()); ++i) {
    auto p = tree->PredictItem(i, lookup);
    if (!p.ok()) continue;
    tree_sse += (*p - sim.targets[i]) * (*p - sim.targets[i]);
    ++n;
  }
  ASSERT_GT(n, 0);
  // Root-only (global bellwether) predictions.
  const TreeNode& root = tree->root();
  ASSERT_TRUE(root.has_model);
  double root_sse = 0.0;
  int64_t rn = 0;
  for (int32_t i = 0; i < static_cast<int32_t>(sim.targets.size()); ++i) {
    const double* x = lookup.Find(root.region, i);
    if (x == nullptr) continue;
    const double e = root.model.Predict(x) - sim.targets[i];
    root_sse += e * e;
    ++rn;
  }
  ASSERT_GT(rn, 0);
  EXPECT_LT(std::sqrt(tree_sse / n), 0.8 * std::sqrt(root_sse / rn));
}

TEST(TreeTest, RouteFallsBackToAncestorWithModel) {
  datagen::SimulationDataset sim = MakeSim(7, 0.3, 17);
  storage::MemoryTrainingData source(sim.sets);
  auto tree =
      BuildBellwetherTreeRainForest(&source, sim.items, MakeTreeConfig(sim));
  ASSERT_TRUE(tree.ok());
  for (int32_t i = 0; i < 50; ++i) {
    const int32_t node = tree->RouteItem(i);
    ASSERT_GE(node, 0);
    EXPECT_TRUE(tree->nodes()[node].has_model);
  }
}

TEST(TreeTest, MinItemsStopsSplitting) {
  datagen::SimulationDataset sim = MakeSim(15, 0.1, 19);
  storage::MemoryTrainingData source(sim.sets);
  TreeBuildConfig config = MakeTreeConfig(sim);
  config.min_items = 10000;  // larger than the item count
  auto tree = BuildBellwetherTreeRainForest(&source, sim.items, config);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->nodes().size(), 1u);
  EXPECT_TRUE(tree->root().is_leaf());
  EXPECT_TRUE(tree->root().has_model);
}

TEST(TreeTest, MaxDepthBoundsLevels) {
  datagen::SimulationDataset sim = MakeSim(31, 0.05, 23);
  storage::MemoryTrainingData source(sim.sets);
  TreeBuildConfig config = MakeTreeConfig(sim);
  config.max_depth = 2;
  config.min_items = 10;
  auto tree = BuildBellwetherTreeRainForest(&source, sim.items, config);
  ASSERT_TRUE(tree.ok());
  EXPECT_LE(tree->NumLevels(), 3);
}

TEST(TreeTest, ItemMaskShrinksRoot) {
  datagen::SimulationDataset sim = MakeSim(7, 0.3, 29);
  storage::MemoryTrainingData source(sim.sets);
  std::vector<uint8_t> mask(sim.targets.size(), 0);
  for (size_t i = 0; i < mask.size() / 2; ++i) mask[i] = 1;
  auto tree = BuildBellwetherTreeRainForest(&source, sim.items,
                                            MakeTreeConfig(sim), &mask);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->root().num_items,
            static_cast<int32_t>(sim.targets.size() / 2));
}

TEST(TreeTest, ToStringMentionsSplits) {
  datagen::SimulationDataset sim = MakeSim(15, 0.1, 37);
  storage::MemoryTrainingData source(sim.sets);
  auto tree =
      BuildBellwetherTreeRainForest(&source, sim.items, MakeTreeConfig(sim));
  ASSERT_TRUE(tree.ok());
  const std::string s = tree->ToString();
  EXPECT_NE(s.find("region="), std::string::npos);
}

}  // namespace
}  // namespace bellwether::core
