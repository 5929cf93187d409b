#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/bellwether_cube.h"
#include "core/eval_util.h"
#include "datagen/simulation.h"
#include "storage/training_data.h"

namespace bellwether::core {
namespace {

datagen::SimulationDataset MakeSim(uint64_t seed, int32_t items = 240,
                                   double noise = 0.3) {
  datagen::SimulationConfig config;
  config.num_items = items;
  config.generator_tree_nodes = 7;
  config.noise = noise;
  config.num_windows = 3;
  config.location_fanouts = {2, 2};
  config.seed = seed;
  return datagen::GenerateSimulation(config);
}

std::shared_ptr<const ItemSubsetSpace> MakeSubsets(
    const datagen::SimulationDataset& sim) {
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  EXPECT_TRUE(subsets.ok());
  return *subsets;
}

CubeBuildConfig MakeConfig(bool cv = false) {
  CubeBuildConfig config;
  config.min_subset_size = 20;
  config.min_examples_per_model = 8;
  config.compute_cv_stats = cv;
  return config;
}

TEST(ItemSubsetSpaceTest, LatticeShape) {
  datagen::SimulationDataset sim = MakeSim(1);
  auto subsets = MakeSubsets(sim);
  // Three 1-level binary hierarchies: (1 root + 2 leaves)^3 = 27 subsets.
  EXPECT_EQ(subsets->NumSubsets(), 27);
  EXPECT_EQ(subsets->num_items(), 240);
  // Every item is contained in exactly 2^3 = 8 subsets, listed ascending.
  const auto containing = subsets->ContainingSubsets(0);
  EXPECT_EQ(containing.size(), 8u);
  EXPECT_TRUE(std::is_sorted(containing.begin(), containing.end()));
}

TEST(ItemSubsetSpaceTest, ContainmentMatchesCoordinates) {
  datagen::SimulationDataset sim = MakeSim(2);
  auto subsets = MakeSubsets(sim);
  for (int32_t i = 0; i < 20; ++i) {
    for (SubsetId s : subsets->ContainingSubsets(i)) {
      EXPECT_TRUE(subsets->SubsetContainsItem(s, i));
    }
    // The root subset [Any, Any, Any] contains everything.
    EXPECT_TRUE(subsets->SubsetContainsItem(
        subsets->space().Encode({0, 0, 0}), i));
  }
}

TEST(ItemSubsetSpaceTest, SubsetDepthsAndLabels) {
  datagen::SimulationDataset sim = MakeSim(3);
  auto subsets = MakeSubsets(sim);
  const SubsetId root = subsets->space().Encode({0, 0, 0});
  EXPECT_EQ(subsets->SubsetDepths(root), (std::vector<int32_t>{0, 0, 0}));
  EXPECT_EQ(subsets->SubsetLabel(root), "[Any, Any, Any]");
}

TEST(ItemSubsetSpaceTest, RejectsBadColumns) {
  datagen::SimulationDataset sim = MakeSim(4);
  auto bad = ItemSubsetSpace::Create(
      sim.items, {core::ItemHierarchy{"Missing", sim.item_hierarchies[0].dim}});
  EXPECT_FALSE(bad.ok());
  // A numeric column cannot serve as hierarchy labels.
  auto numeric = ItemSubsetSpace::Create(
      sim.items, {core::ItemHierarchy{"F1", sim.item_hierarchies[0].dim}});
  EXPECT_FALSE(numeric.ok());
}

void ExpectCubesEqual(const BellwetherCube& a, const BellwetherCube& b,
                      double tol) {
  ASSERT_EQ(a.cells().size(), b.cells().size());
  for (size_t i = 0; i < a.cells().size(); ++i) {
    const CubeCell& ca = a.cells()[i];
    const CubeCell& cb = b.cells()[i];
    EXPECT_EQ(ca.subset, cb.subset);
    EXPECT_EQ(ca.subset_size, cb.subset_size);
    EXPECT_EQ(ca.has_model, cb.has_model) << "cell " << i;
    if (ca.has_model && cb.has_model) {
      EXPECT_EQ(ca.region, cb.region) << "cell " << i;
      EXPECT_NEAR(ca.error, cb.error, tol * (1.0 + std::fabs(ca.error)))
          << "cell " << i;
    }
  }
}

// Lemma 2 (+ Theorem 1): the naive, single-scan, and optimized builders
// output the same bellwether cube.
class Lemma2Test : public ::testing::TestWithParam<int> {};

TEST_P(Lemma2Test, AllThreeBuildersAgree) {
  datagen::SimulationDataset sim = MakeSim(GetParam());
  auto subsets = MakeSubsets(sim);
  const CubeBuildConfig config = MakeConfig();
  storage::MemoryTrainingData s1(sim.sets), s2(sim.sets), s3(sim.sets);
  auto naive = BuildBellwetherCubeNaive(&s1, subsets, config);
  auto scan = BuildBellwetherCubeSingleScan(&s2, subsets, config);
  auto opt = BuildBellwetherCubeOptimized(&s3, subsets, config);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  // Naive vs single-scan accumulate in identical order: exact equality.
  ExpectCubesEqual(*naive, *scan, 1e-12);
  // The optimized builder merges statistics in lattice order; identical up
  // to floating-point reassociation.
  ExpectCubesEqual(*scan, *opt, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma2Test, ::testing::Range(1, 6));

TEST(CubeScanCountTest, SingleScanAndOptimizedScanOnce) {
  datagen::SimulationDataset sim = MakeSim(7);
  auto subsets = MakeSubsets(sim);
  const CubeBuildConfig config = MakeConfig();
  storage::MemoryTrainingData scan_src(sim.sets);
  ASSERT_TRUE(BuildBellwetherCubeSingleScan(&scan_src, subsets, config).ok());
  EXPECT_EQ(scan_src.io_stats().sequential_scans, 1);
  EXPECT_EQ(scan_src.io_stats().region_reads,
            static_cast<int64_t>(sim.sets.size()));

  storage::MemoryTrainingData opt_src(sim.sets);
  ASSERT_TRUE(BuildBellwetherCubeOptimized(&opt_src, subsets, config).ok());
  EXPECT_EQ(opt_src.io_stats().sequential_scans, 1);

  storage::MemoryTrainingData naive_src(sim.sets);
  auto naive = BuildBellwetherCubeNaive(&naive_src, subsets, config);
  ASSERT_TRUE(naive.ok());
  // The naive builder reads the whole training data once per significant
  // subset.
  EXPECT_EQ(naive_src.io_stats().region_reads,
            static_cast<int64_t>(naive->cells().size() * sim.sets.size()));
}

TEST(CubeTest, SignificanceThresholdFiltersSubsets) {
  datagen::SimulationDataset sim = MakeSim(8);
  auto subsets = MakeSubsets(sim);
  CubeBuildConfig small = MakeConfig();
  small.min_subset_size = 1;
  CubeBuildConfig large = MakeConfig();
  large.min_subset_size = sim.items.num_rows() / 2;
  storage::MemoryTrainingData s1(sim.sets), s2(sim.sets);
  auto all = BuildBellwetherCubeOptimized(&s1, subsets, small);
  auto sig = BuildBellwetherCubeOptimized(&s2, subsets, large);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(all->cells().size(), 27u);
  EXPECT_LT(sig->cells().size(), all->cells().size());
  for (const auto& cell : sig->cells()) {
    EXPECT_GE(cell.subset_size,
              static_cast<int32_t>(sim.items.num_rows() / 2));
  }
}

TEST(CubeTest, CellErrorsMatchDirectRecomputation) {
  datagen::SimulationDataset sim = MakeSim(9, 150);
  auto subsets = MakeSubsets(sim);
  storage::MemoryTrainingData source(sim.sets);
  auto cube = BuildBellwetherCubeOptimized(&source, subsets, MakeConfig());
  ASSERT_TRUE(cube.ok());
  // For each cell, refit on the winning region restricted to the subset and
  // verify the recorded training error and its minimality over regions.
  for (const auto& cell : cube->cells()) {
    if (!cell.has_model) continue;
    for (const auto& set : sim.sets) {
      regression::RegressionSuffStats stats(set.num_features);
      for (size_t r = 0; r < set.num_examples(); ++r) {
        if (subsets->SubsetContainsItem(cell.subset, set.items[r])) {
          stats.Add(set.row(r), set.targets[r]);
        }
      }
      const double err = TrainingErrorOfStats(stats, 8);
      if (set.region == cell.region) {
        EXPECT_NEAR(err, cell.error, 1e-6 * (1.0 + err));
      } else {
        EXPECT_GE(err, cell.error - 1e-6 * (1.0 + cell.error));
      }
    }
  }
}

TEST(CubeTest, PredictItemUsesContainingSubsets) {
  datagen::SimulationDataset sim = MakeSim(10);
  auto subsets = MakeSubsets(sim);
  storage::MemoryTrainingData source(sim.sets);
  auto cube = BuildBellwetherCubeOptimized(&source, subsets, MakeConfig(true));
  ASSERT_TRUE(cube.ok());
  const RegionFeatureLookup lookup(&sim.sets);
  int32_t predicted = 0;
  for (int32_t i = 0; i < 40; ++i) {
    auto p = cube->PredictItem(i, lookup);
    if (!p.ok()) continue;
    ++predicted;
    EXPECT_TRUE(subsets->SubsetContainsItem(p->subset, i));
    const CubeCell* cell = cube->FindCell(p->subset);
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->region, p->region);
  }
  EXPECT_GT(predicted, 30);
}

TEST(CubeTest, CvStatsPopulatedWhenRequested) {
  datagen::SimulationDataset sim = MakeSim(11);
  auto subsets = MakeSubsets(sim);
  storage::MemoryTrainingData source(sim.sets);
  auto cube = BuildBellwetherCubeOptimized(&source, subsets, MakeConfig(true));
  ASSERT_TRUE(cube.ok());
  int32_t with_cv = 0;
  for (const auto& cell : cube->cells()) {
    if (cell.has_cv) {
      ++with_cv;
      EXPECT_GT(cell.cv.num_folds, 1);
      EXPECT_GE(cell.cv.UpperConfidenceBound(0.95), cell.cv.rmse);
    }
  }
  EXPECT_GT(with_cv, 0);
}

TEST(CubeTest, CrossTabRollupAndDrilldown) {
  datagen::SimulationDataset sim = MakeSim(12);
  auto subsets = MakeSubsets(sim);
  storage::MemoryTrainingData source(sim.sets);
  CubeBuildConfig config = MakeConfig();
  config.min_subset_size = 1;
  auto cube = BuildBellwetherCubeOptimized(&source, subsets, config);
  ASSERT_TRUE(cube.ok());
  // Top level: the single [Any, Any, Any] cell.
  auto top = cube->CrossTab({0, 0, 0}, sim.space.get());
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].subset_label, "[Any, Any, Any]");
  // Drill down on the first hierarchy: 2 cells.
  auto drill = cube->CrossTab({1, 0, 0}, sim.space.get());
  EXPECT_EQ(drill.size(), 2u);
  // Base level: 8 cells.
  auto base = cube->CrossTab({1, 1, 1}, sim.space.get());
  EXPECT_EQ(base.size(), 8u);
}

TEST(CubeTest, ItemMaskRestrictsSizesAndModels) {
  datagen::SimulationDataset sim = MakeSim(13);
  auto subsets = MakeSubsets(sim);
  std::vector<uint8_t> mask(sim.targets.size(), 0);
  for (size_t i = 0; i < mask.size() / 3; ++i) mask[i] = 1;
  storage::MemoryTrainingData source(sim.sets);
  auto cube =
      BuildBellwetherCubeOptimized(&source, subsets, MakeConfig(), &mask);
  ASSERT_TRUE(cube.ok());
  const CubeCell* root = cube->FindCell(subsets->space().Encode({0, 0, 0}));
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->subset_size, static_cast<int32_t>(mask.size() / 3));
}

}  // namespace
}  // namespace bellwether::core
