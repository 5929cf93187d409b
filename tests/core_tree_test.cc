#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <tuple>

#include "core/bellwether_tree.h"
#include "core/eval_util.h"
#include "core/training_data_gen.h"
#include "datagen/mail_order.h"
#include "datagen/simulation.h"
#include "storage/training_data.h"
#include "test_util.h"

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

// Mail order's §4.2 training data, split on two categorical columns and on
// RDExpense, which has more distinct values than the split-point cap: the
// builders then use percentile thresholds, and merge buckets over more
// than two buckets and over categories.
struct MailOrderTreeData {
  datagen::MailOrderDataset dataset;
  std::unique_ptr<GeneratedTrainingData> data;  // points into `dataset`
};

std::unique_ptr<MailOrderTreeData> MakeMailOrder(uint64_t seed) {
  datagen::MailOrderConfig config;
  config.num_items = 80;
  config.density = 0.8;
  config.seed = seed;
  auto out = std::make_unique<MailOrderTreeData>();
  out->dataset = datagen::GenerateMailOrder(config);
  auto data = GenerateTrainingDataInMemory(out->dataset.MakeSpec(40.0, 0.4));
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  if (data.ok()) {
    out->data = std::make_unique<GeneratedTrainingData>(std::move(*data));
  }
  return out;
}

TreeBuildConfig MailOrderTreeConfig(int32_t split_points) {
  TreeBuildConfig config;
  config.split_columns = {"Category", "ExpenseRange", "RDExpense"};
  config.min_items = 20;
  config.max_depth = 3;
  config.max_numeric_split_points = split_points;
  config.min_examples_per_model = 10;
  return config;
}

// Split columns over the simulation's items. x packs F1..F3 into the
// adjacent doubles 1 + k ulp (k = 4 F1 + 2 F2 + F3): the midpoint of two
// adjacent doubles rounds onto the one with the even mantissa, so every
// threshold equals an item's value and every other threshold repeats. c is
// the category F4 + F5 (three of them), null for every fifth item.
table::Table AdjacentDoubleItems(const datagen::SimulationDataset& sim) {
  table::Table items(table::Schema(
      {{"x", table::DataType::kDouble}, {"c", table::DataType::kString}}));
  for (size_t r = 0; r < sim.items.num_rows(); ++r) {
    const int64_t k = 4 * sim.items.ColumnByName("F1").Int64At(r) +
                      2 * sim.items.ColumnByName("F2").Int64At(r) +
                      sim.items.ColumnByName("F3").Int64At(r);
    double x = 1.0;
    for (int64_t step = 0; step < k; ++step) x = std::nextafter(x, 2.0);
    const int64_t c = sim.items.ColumnByName("F4").Int64At(r) +
                      sim.items.ColumnByName("F5").Int64At(r);
    items.AppendRow({table::Value(x), r % 5 == 0
                                          ? table::Value::Null()
                                          : table::Value(std::to_string(c))});
  }
  return items;
}

TreeBuildConfig AdjacentDoubleTreeConfig() {
  TreeBuildConfig config;
  config.split_columns = {"x", "c"};
  config.min_items = 40;
  config.max_depth = 4;
  config.min_examples_per_model = 8;
  return config;
}

class MailOrderLemma1Test
    : public ::testing::TestWithParam<std::tuple<uint64_t, int32_t>> {};

TEST_P(MailOrderLemma1Test, RainForestEqualsNaive) {
  const auto [seed, split_points] = GetParam();
  const auto mail = MakeMailOrder(seed);
  ASSERT_NE(mail->data, nullptr);
  std::set<double> rd;
  const auto& col = mail->dataset.items.ColumnByName("RDExpense");
  for (size_t r = 0; r < col.size(); ++r) rd.insert(col.NumericAt(r));
  ASSERT_GT(static_cast<int32_t>(rd.size()), split_points + 1);

  const TreeBuildConfig config = MailOrderTreeConfig(split_points);
  auto naive = BuildBellwetherTreeNaive(mail->data->source.get(),
                                        mail->dataset.items, config);
  auto rf = BuildBellwetherTreeRainForest(mail->data->source.get(),
                                          mail->dataset.items, config);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_TRUE(rf.ok()) << rf.status().ToString();
  ASSERT_GT(rf->nodes().size(), 1u);  // vacuous for a stump
  ExpectTreesEqual(*naive, *rf);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSplitPoints, MailOrderLemma1Test,
    ::testing::Values(std::make_tuple(uint64_t{5}, 5),
                      std::make_tuple(uint64_t{11}, 3),
                      std::make_tuple(uint64_t{17}, 12)));

TEST(Lemma1NullCategoryTest, RainForestEqualsNaive) {
  datagen::SimulationDataset sim = MakeSim(15, 0.2, 41);
  const table::Table items = AdjacentDoubleItems(sim);
  storage::MemoryTrainingData source(sim.sets);
  const TreeBuildConfig config = AdjacentDoubleTreeConfig();
  auto naive = BuildBellwetherTreeNaive(&source, items, config);
  auto rf = BuildBellwetherTreeRainForest(&source, items, config);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_TRUE(rf.ok()) << rf.status().ToString();
  bool split_on_c = false;
  for (const TreeNode& n : rf->nodes()) {
    split_on_c = split_on_c || (!n.is_leaf() && n.split.column == 1);
  }
  EXPECT_TRUE(split_on_c);  // the null-category path is exercised
  ExpectTreesEqual(*naive, *rf);
}

// §5's Goodness(c) = |S| Error(S) - sum_p |S_p| MinError(S_p) of a node's
// split, straight from the definition and sharing no code with the
// builders' bucket merge: in every region, the node's statistic and each
// partition's are accumulated row by row, in the order `rows[s]` lists for
// set s, and scored with TrainingErrorOfStats; Error(S) and MinError(S_p)
// are minima over regions. `partition` maps an item to its partition, -1
// for an item of the node in none, -2 for an item outside the node.
double GoodnessFromDefinition(
    const std::vector<int32_t>& partition, int32_t num_partitions,
    const std::vector<storage::RegionTrainingSet>& sets,
    const std::vector<std::vector<size_t>>& rows, int32_t min_examples,
    double* node_error) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  *node_error = kInf;
  std::vector<double> min_error(num_partitions, kInf);
  std::vector<int64_t> sizes(num_partitions, 0);
  int64_t node_size = 0;
  for (int32_t p : partition) {
    if (p >= -1) ++node_size;
    if (p >= 0) ++sizes[p];
  }
  for (size_t s = 0; s < sets.size(); ++s) {
    const storage::RegionTrainingSet& set = sets[s];
    regression::RegressionSuffStats all(set.num_features);
    std::vector<regression::RegressionSuffStats> parts(
        num_partitions, regression::RegressionSuffStats(set.num_features));
    for (size_t row : rows[s]) {
      const int32_t p = partition[set.items[row]];
      if (p == -2) continue;
      all.Add(set.row(row), set.targets[row], set.weight(row));
      if (p >= 0) parts[p].Add(set.row(row), set.targets[row], set.weight(row));
    }
    *node_error =
        std::min(*node_error, TrainingErrorOfStats(all, min_examples));
    for (int32_t p = 0; p < num_partitions; ++p) {
      min_error[p] =
          std::min(min_error[p], TrainingErrorOfStats(parts[p], min_examples));
    }
  }
  double goodness = static_cast<double>(node_size) * *node_error;
  for (int32_t p = 0; p < num_partitions; ++p) {
    if (sizes[p] == 0) continue;
    // A chosen split has a model for every non-empty partition.
    EXPECT_LT(min_error[p], kInf) << "partition " << p;
    goodness -= static_cast<double>(sizes[p]) * min_error[p];
  }
  return goodness;
}

// How many internal nodes ExpectGoodnessMatchesDefinition checked to 1e-9,
// and how many only within the definition's own spread across row orders.
struct OracleCounts {
  int32_t exact = 0;
  int32_t order_sensitive = 0;
};

// Checks each child's size against the items SplitCriterion::PartitionOf
// sends to it, and each internal node's goodness against
// GoodnessFromDefinition in row order, to 1e-9 relative. Some fits are on a
// singular X'WX (mail order's RegionalOrders and RegionalDistinctCatalogs
// are equal in small regions), and their error is rounding noise that moves
// with the summation order (ROADMAP item G). Where a winning fit is of that
// kind, the definition itself spreads across four row orders (as stored,
// reversed, two shuffles) by more than 1e-9; the builder's value must then
// lie within twice that spread of the row-order value.
OracleCounts ExpectGoodnessMatchesDefinition(
    const BellwetherTree& tree,
    const std::vector<storage::RegionTrainingSet>& sets,
    const TreeBuildConfig& config) {
  const ItemSplitFeatures& feats = tree.features();
  std::vector<std::vector<std::vector<size_t>>> orders(4);
  for (size_t s = 0; s < sets.size(); ++s) {
    std::vector<size_t> rows(sets[s].num_examples());
    std::iota(rows.begin(), rows.end(), size_t{0});
    orders[0].push_back(rows);
    orders[1].emplace_back(rows.rbegin(), rows.rend());
    for (uint64_t seed : {1, 2}) {
      std::mt19937_64 rng(seed * 1000003 + s);
      std::shuffle(rows.begin(), rows.end(), rng);
      orders[1 + seed].push_back(rows);
    }
  }
  std::vector<std::vector<int32_t>> items_of(tree.nodes().size());
  for (int32_t i = 0; i < feats.num_items(); ++i) items_of[0].push_back(i);
  OracleCounts counts;
  for (size_t v = 0; v < tree.nodes().size(); ++v) {
    SCOPED_TRACE("node " + std::to_string(v));
    const TreeNode& node = tree.nodes()[v];
    EXPECT_EQ(node.num_items, static_cast<int32_t>(items_of[v].size()));
    if (node.is_leaf()) continue;
    std::vector<int32_t> partition(feats.num_items(), -2);
    for (int32_t i : items_of[v]) {
      partition[i] = node.split.PartitionOf(feats, i);
      if (partition[i] >= 0) {
        items_of[node.children[partition[i]]].push_back(i);
      }
    }
    std::vector<double> goodness;
    for (size_t k = 0; k < orders.size(); ++k) {
      double node_error = 0.0;
      goodness.push_back(GoodnessFromDefinition(
          partition, node.split.num_partitions, sets, orders[k],
          config.min_examples_per_model, &node_error));
      if (k == 0) {
        EXPECT_EQ(node.error, node_error);
      }
    }
    const auto [lo, hi] = std::minmax_element(goodness.begin(), goodness.end());
    const double exact = 1e-9 * std::abs(goodness[0]);
    const double spread = *hi - *lo;
    if (spread <= exact) {
      ++counts.exact;
      EXPECT_NEAR(node.goodness, goodness[0], exact);
    } else {
      ++counts.order_sensitive;
      EXPECT_NEAR(node.goodness, goodness[0], exact + 2.0 * spread);
    }
  }
  return counts;
}

TEST(TreeGoodnessOracleTest, MailOrderSplitsMatchTheDefinition) {
  for (const auto& [seed, split_points] :
       {std::pair{uint64_t{5}, 5}, std::pair{uint64_t{17}, 12}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto mail = MakeMailOrder(seed);
    ASSERT_NE(mail->data, nullptr);
    const TreeBuildConfig config = MailOrderTreeConfig(split_points);
    auto rf = BuildBellwetherTreeRainForest(mail->data->source.get(),
                                            mail->dataset.items, config);
    ASSERT_TRUE(rf.ok()) << rf.status().ToString();
    const OracleCounts counts = ExpectGoodnessMatchesDefinition(
        *rf, *mail->data->memory_sets(), config);
    EXPECT_GT(counts.exact, 0);
  }
}

TEST(TreeGoodnessOracleTest, ThresholdsOnAnItemsValueMatchTheDefinition) {
  datagen::SimulationDataset sim = MakeSim(15, 0.2, 41);
  const table::Table items = AdjacentDoubleItems(sim);
  storage::MemoryTrainingData source(sim.sets);
  const TreeBuildConfig config = AdjacentDoubleTreeConfig();
  auto rf = BuildBellwetherTreeRainForest(&source, items, config);
  ASSERT_TRUE(rf.ok()) << rf.status().ToString();
  const OracleCounts counts =
      ExpectGoodnessMatchesDefinition(*rf, sim.sets, config);
  EXPECT_GT(counts.exact, 0);
  EXPECT_EQ(counts.order_sensitive, 0);  // no singular fits in this data
  // At least one chosen threshold is an item's value, which PartitionOf
  // sends to side 1.
  bool on_a_value = false;
  for (const TreeNode& n : rf->nodes()) {
    if (n.is_leaf() || !n.split.is_numeric) continue;
    for (int32_t i = 0; i < rf->features().num_items(); ++i) {
      on_a_value = on_a_value ||
                   rf->features().NumericValue(0, i) == n.split.threshold;
    }
  }
  EXPECT_TRUE(on_a_value);
}

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
