#include <gtest/gtest.h>

#include <cstdio>

#include "core/bellwether_cube.h"
#include "core/bellwether_tree.h"
#include "core/eval_util.h"
#include "core/model_io.h"
#include "datagen/simulation.h"
#include "storage/training_data.h"
#include "test_util.h"

namespace bellwether::core {
namespace {

datagen::SimulationDataset MakeSim(uint64_t seed) {
  datagen::SimulationConfig config;
  config.num_items = 200;
  config.generator_tree_nodes = 7;
  config.noise = 0.2;
  config.num_windows = 3;
  config.location_fanouts = {2, 2};
  config.seed = seed;
  return datagen::GenerateSimulation(config);
}

TEST(ModelIoTest, TreeRoundTripPreservesPredictions) {
  datagen::SimulationDataset sim = MakeSim(71);
  storage::MemoryTrainingData source(sim.sets);
  TreeBuildConfig config;
  config.split_columns = sim.feature_columns;
  config.min_items = 40;
  config.max_depth = 3;
  config.min_examples_per_model = 10;
  auto tree = BuildBellwetherTreeRainForest(&source, sim.items, config);
  ASSERT_TRUE(tree.ok());
  const std::string path = TestTempPath("tree.bwt");
  ASSERT_TRUE(SaveBellwetherTree(*tree, path).ok());
  auto back = LoadBellwetherTree(path, sim.items);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->nodes().size(), tree->nodes().size());
  const RegionFeatureLookup lookup(&sim.sets);
  for (int32_t i = 0; i < 60; ++i) {
    EXPECT_EQ(back->RouteItem(i), tree->RouteItem(i)) << "item " << i;
    auto a = tree->PredictItem(i, lookup);
    auto b = back->PredictItem(i, lookup);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_DOUBLE_EQ(*a, *b);
    }
  }
  std::remove(path.c_str());
}

TEST(ModelIoTest, TreeLoadValidatesChildren) {
  const std::string path = TestTempPath("tree_bad.bwt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("bellwether-tree-v2\n0\n1\n0 5 1 3 0 1.0 0.0\n1 1\n-1 0 0 2\n1 99\n",
        f);
  fclose(f);
  EXPECT_FALSE(LoadBellwetherTree(path, table::Table()).ok());
  std::remove(path.c_str());
}

TEST(ModelIoTest, CubeRoundTripPreservesPredictions) {
  datagen::SimulationDataset sim = MakeSim(73);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  storage::MemoryTrainingData source(sim.sets);
  CubeBuildConfig config;
  config.min_subset_size = 20;
  config.min_examples_per_model = 10;
  config.compute_cv_stats = true;
  auto cube = BuildBellwetherCubeOptimized(&source, *subsets, config);
  ASSERT_TRUE(cube.ok());
  const std::string path = TestTempPath("cube.bwc");
  ASSERT_TRUE(SaveBellwetherCube(*cube, path).ok());
  auto back = LoadBellwetherCube(path, *subsets);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->cells().size(), cube->cells().size());
  for (size_t i = 0; i < cube->cells().size(); ++i) {
    EXPECT_EQ(back->cells()[i].subset, cube->cells()[i].subset);
    EXPECT_EQ(back->cells()[i].region, cube->cells()[i].region);
    EXPECT_EQ(back->cells()[i].has_cv, cube->cells()[i].has_cv);
  }
  const RegionFeatureLookup lookup(&sim.sets);
  for (int32_t i = 0; i < 40; ++i) {
    auto a = cube->PredictItem(i, lookup);
    auto b = back->PredictItem(i, lookup);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_DOUBLE_EQ(a->value, b->value);
      EXPECT_EQ(a->subset, b->subset);
    }
  }
  std::remove(path.c_str());
}

TEST(ModelIoTest, CubeLoadRejectsMismatchedSubsetSpace) {
  datagen::SimulationDataset sim = MakeSim(75);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  storage::MemoryTrainingData source(sim.sets);
  CubeBuildConfig config;
  config.min_subset_size = 20;
  config.compute_cv_stats = false;
  auto cube = BuildBellwetherCubeOptimized(&source, *subsets, config);
  ASSERT_TRUE(cube.ok());
  const std::string path = TestTempPath("cube_mismatch.bwc");
  ASSERT_TRUE(SaveBellwetherCube(*cube, path).ok());
  // A smaller subset space (only one hierarchy) must be rejected.
  auto other = ItemSubsetSpace::Create(
      sim.items, {sim.item_hierarchies[0]});
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(LoadBellwetherCube(path, *other).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bellwether::core
