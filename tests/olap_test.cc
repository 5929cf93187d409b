#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "olap/cost.h"
#include "olap/cube.h"
#include "olap/dimension.h"
#include "olap/iceberg.h"
#include "olap/region.h"

namespace bellwether::olap {
namespace {

// All -> US {WI, MD}, KR.
HierarchicalDimension MakeLocation() {
  HierarchicalDimension dim("Location", "All");
  const NodeId us = dim.AddNode("US", dim.root());
  dim.AddNode("WI", us);
  dim.AddNode("MD", us);
  dim.AddNode("KR", dim.root());
  return dim;
}

RegionSpace MakeSpace(int32_t weeks = 4,
                      WindowKind kind = WindowKind::kIncremental) {
  std::vector<Dimension> dims;
  dims.emplace_back(IntervalDimension("Time", weeks, kind));
  dims.emplace_back(MakeLocation());
  return RegionSpace(std::move(dims));
}

TEST(HierarchyTest, StructureQueries) {
  HierarchicalDimension dim = MakeLocation();
  EXPECT_EQ(dim.num_nodes(), 5);
  const NodeId us = *dim.FindNode("US");
  const NodeId wi = *dim.FindNode("WI");
  const NodeId kr = *dim.FindNode("KR");
  EXPECT_EQ(dim.parent(wi), us);
  EXPECT_EQ(dim.depth(wi), 2);
  EXPECT_TRUE(dim.IsLeaf(wi));
  EXPECT_FALSE(dim.IsLeaf(us));
  EXPECT_TRUE(dim.Contains(us, wi));
  EXPECT_TRUE(dim.Contains(dim.root(), kr));
  EXPECT_FALSE(dim.Contains(us, kr));
  EXPECT_EQ(dim.leaves().size(), 3u);
  EXPECT_EQ(dim.LeavesUnder(us).size(), 2u);
  EXPECT_EQ(dim.max_depth(), 2);
}

TEST(HierarchyTest, AncestorsChain) {
  HierarchicalDimension dim = MakeLocation();
  const NodeId wi = *dim.FindNode("WI");
  const auto anc = dim.AncestorsOf(wi);
  ASSERT_EQ(anc.size(), 3u);
  EXPECT_EQ(anc[0], wi);
  EXPECT_EQ(anc[2], dim.root());
}

TEST(HierarchyTest, BottomUpOrderChildrenBeforeParents) {
  HierarchicalDimension dim = MakeLocation();
  const auto order = dim.NodesBottomUp();
  std::vector<int32_t> pos(dim.num_nodes());
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (NodeId n = 1; n < dim.num_nodes(); ++n) {
    EXPECT_LT(pos[n], pos[dim.parent(n)]) << "node " << n;
  }
}

TEST(HierarchyTest, FindNodeMissing) {
  EXPECT_FALSE(MakeLocation().FindNode("XX").ok());
}

TEST(IntervalTest, WindowContainment) {
  IntervalDimension iv("Time", 10);
  EXPECT_TRUE(iv.Contains(5, 1));
  EXPECT_TRUE(iv.Contains(5, 5));
  EXPECT_FALSE(iv.Contains(5, 6));
  EXPECT_FALSE(iv.Contains(5, 0));
  EXPECT_EQ(iv.WindowLabelById(2), "[1-3]");
  EXPECT_TRUE(iv.ContainsWindow(4, 3));   // [1-5] contains t=3
  EXPECT_FALSE(iv.ContainsWindow(4, 6));
  EXPECT_EQ(iv.FindWindow(1, 4), 3);
  EXPECT_EQ(iv.FindWindow(2, 4), -1);  // not an incremental window
  EXPECT_TRUE(iv.WindowContainsWindow(5, 3));
  EXPECT_FALSE(iv.WindowContainsWindow(3, 5));
}

TEST(IntervalTest, SlidingWindowEnumeration) {
  IntervalDimension iv("Time", 4, WindowKind::kSliding);
  EXPECT_EQ(iv.num_windows(), 10);  // 4 + 3 + 2 + 1
  // Ids 0..3 are the base windows [t..t].
  for (int32_t t = 1; t <= 4; ++t) {
    EXPECT_EQ(iv.WindowBounds(t - 1), std::make_pair(t, t));
  }
  // Last id is the full window.
  EXPECT_EQ(iv.WindowBounds(9), std::make_pair(1, 4));
  // Round trip every window.
  for (int32_t w = 0; w < iv.num_windows(); ++w) {
    const auto [s, e] = iv.WindowBounds(w);
    EXPECT_EQ(iv.FindWindow(s, e), w) << "[" << s << "," << e << "]";
    EXPECT_EQ(iv.WindowLabelById(w),
              "[" + std::to_string(s) + "-" + std::to_string(e) + "]");
  }
  EXPECT_TRUE(iv.ContainsWindow(iv.FindWindow(2, 3), 2));
  EXPECT_FALSE(iv.ContainsWindow(iv.FindWindow(2, 3), 4));
  EXPECT_TRUE(
      iv.WindowContainsWindow(iv.FindWindow(1, 3), iv.FindWindow(2, 3)));
  EXPECT_FALSE(
      iv.WindowContainsWindow(iv.FindWindow(2, 3), iv.FindWindow(1, 2)));
  EXPECT_FALSE(iv.CostMonotoneByIndex());
}

TEST(IntervalTest, SlidingRollupScheduleCoversEveryWindowOnce) {
  IntervalDimension iv("Time", 5, WindowKind::kSliding);
  // Simulate the rollup on integer sets: base cells hold their single time
  // point; after the merges, window w must hold exactly its bounds.
  std::vector<std::set<int32_t>> cells(iv.num_windows());
  for (int32_t t = 1; t <= 5; ++t) cells[t - 1].insert(t);
  for (const auto& [from, to] : iv.RollupMerges()) {
    cells[to].insert(cells[from].begin(), cells[from].end());
  }
  for (int32_t w = 0; w < iv.num_windows(); ++w) {
    const auto [s, e] = iv.WindowBounds(w);
    std::set<int32_t> expected;
    for (int32_t t = s; t <= e; ++t) expected.insert(t);
    EXPECT_EQ(cells[w], expected) << iv.WindowLabelById(w);
  }
}

TEST(RegionSpaceTest, CountsAndRoundTrip) {
  RegionSpace space = MakeSpace(4);
  EXPECT_EQ(space.NumRegions(), 4 * 5);
  EXPECT_EQ(space.NumFinestCells(), 4 * 3);
  for (RegionId r = 0; r < space.NumRegions(); ++r) {
    EXPECT_EQ(space.Encode(space.Decode(r)), r);
  }
}

TEST(RegionSpaceTest, LabelsAndLookup) {
  RegionSpace space = MakeSpace(4);
  auto r = space.FindRegion({"1-3", "WI"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(space.RegionLabel(*r), "[1-3, WI]");
  EXPECT_FALSE(space.FindRegion({"1-9", "WI"}).ok());
  EXPECT_FALSE(space.FindRegion({"1-3", "XX"}).ok());
}

TEST(RegionSpaceTest, PointContainment) {
  RegionSpace space = MakeSpace(4);
  const auto& loc = std::get<HierarchicalDimension>(space.dim(1));
  const NodeId wi = *loc.FindNode("WI");
  const NodeId kr = *loc.FindNode("KR");
  const RegionId r = *space.FindRegion({"1-2", "US"});
  EXPECT_TRUE(space.RegionContainsPoint(r, {1, wi}));
  EXPECT_TRUE(space.RegionContainsPoint(r, {2, wi}));
  EXPECT_FALSE(space.RegionContainsPoint(r, {3, wi}));  // outside window
  EXPECT_FALSE(space.RegionContainsPoint(r, {1, kr}));  // outside subtree
}

TEST(RegionSpaceTest, RegionContainsRegion) {
  RegionSpace space = MakeSpace(4);
  const RegionId big = *space.FindRegion({"1-4", "All"});
  const RegionId mid = *space.FindRegion({"1-2", "US"});
  const RegionId small = *space.FindRegion({"1-1", "WI"});
  EXPECT_TRUE(space.RegionContainsRegion(big, mid));
  EXPECT_TRUE(space.RegionContainsRegion(mid, small));
  EXPECT_TRUE(space.RegionContainsRegion(big, small));
  EXPECT_FALSE(space.RegionContainsRegion(small, mid));
  EXPECT_EQ(space.FullRegion(), big);
}

TEST(RegionSpaceTest, ContainingRegionsMatchBruteForce) {
  RegionSpace space = MakeSpace(4);
  const auto& loc = std::get<HierarchicalDimension>(space.dim(1));
  for (NodeId leaf : loc.leaves()) {
    for (int32_t t = 1; t <= 4; ++t) {
      const PointCoords point{t, leaf};
      std::set<RegionId> fast;
      space.ForEachContainingRegion(point,
                                    [&](RegionId r) { fast.insert(r); });
      std::set<RegionId> slow;
      for (RegionId r = 0; r < space.NumRegions(); ++r) {
        if (space.RegionContainsPoint(r, point)) slow.insert(r);
      }
      EXPECT_EQ(fast, slow) << "t=" << t << " leaf=" << leaf;
    }
  }
}

TEST(RegionSpaceTest, FinestCellsPartitionTheFullRegion) {
  RegionSpace space = MakeSpace(4);
  const auto cells = space.FinestCellsIn(space.FullRegion());
  EXPECT_EQ(static_cast<int64_t>(cells.size()), space.NumFinestCells());
  std::set<int64_t> unique(cells.begin(), cells.end());
  EXPECT_EQ(unique.size(), cells.size());
}

TEST(RegionSpaceTest, FinestCellsOfSubRegion) {
  RegionSpace space = MakeSpace(4);
  const RegionId r = *space.FindRegion({"1-2", "US"});
  // 2 time points x 2 states.
  EXPECT_EQ(space.FinestCellsIn(r).size(), 4u);
}

TEST(NumericAggTest, MergeMatchesSequential) {
  NumericAgg a, b, all;
  for (double v : {1.0, 5.0, -2.0}) {
    a.Add(v);
    all.Add(v);
  }
  for (double v : {7.0, 0.5}) {
    b.Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.sum, all.sum);
  EXPECT_EQ(a.count, all.count);
  EXPECT_DOUBLE_EQ(a.min, all.min);
  EXPECT_DOUBLE_EQ(a.max, all.max);
  EXPECT_DOUBLE_EQ(*a.Finish(table::AggFn::kAvg), all.sum / 5.0);
}

TEST(NumericAggTest, EmptyFinish) {
  NumericAgg a;
  EXPECT_FALSE(a.Finish(table::AggFn::kSum).has_value());
  EXPECT_DOUBLE_EQ(*a.Finish(table::AggFn::kCount), 0.0);
}

// The ranks of cell (r, item), in the order ForEachRank visits them.
std::vector<int32_t> RanksOf(const KeySetCube& cube, RegionId r,
                             int32_t item) {
  std::vector<int32_t> ranks;
  cube.ForEachRank(r, item, [&](int32_t rank) { ranks.push_back(rank); });
  return ranks;
}

TEST(KeySetCubeTest, UnionSemantics) {
  RegionSpace space = MakeSpace(1);
  const auto& loc = std::get<HierarchicalDimension>(space.dim(1));
  const RegionId wi = space.Encode(space.BaseCellOf({1, *loc.FindNode("WI")}));
  const RegionId md = space.Encode(space.BaseCellOf({1, *loc.FindNode("MD")}));
  // Item 0 ranks 3 keys (one word), item 1 ranks 130 (three words).
  KeySetCube cube(&space, {3, 130});
  EXPECT_EQ(cube.words_per_region(), 4);
  for (int32_t rank : {1, 2, 64, 129}) cube.Insert(wi, 1, rank);
  for (int32_t rank : {2, 3, 64}) cube.Insert(md, 1, rank);
  cube.Insert(md, 0, 2);
  cube.Rollup();
  const RegionId us = *space.FindRegion({"1-1", "US"});
  EXPECT_EQ(RanksOf(cube, us, 1), (std::vector<int32_t>{1, 2, 3, 64, 129}));
  EXPECT_EQ(RanksOf(cube, us, 0), std::vector<int32_t>{2});
  EXPECT_EQ(RanksOf(cube, wi, 1), (std::vector<int32_t>{1, 2, 64, 129}));
}

TEST(ItemDictionaryTest, DenseIndices) {
  ItemDictionary dict;
  EXPECT_EQ(dict.GetOrAdd(100), 0);
  EXPECT_EQ(dict.GetOrAdd(200), 1);
  EXPECT_EQ(dict.GetOrAdd(100), 0);
  EXPECT_EQ(dict.Find(200), 1);
  EXPECT_EQ(dict.Find(999), -1);
  EXPECT_EQ(dict.IdAt(1), 200);
  EXPECT_EQ(dict.size(), 2);
}

// Property: cube rollup equals brute-force scatter for random fact data.
TEST(RegionItemCubeTest, RollupMatchesBruteForceScatter) {
  RegionSpace space = MakeSpace(4);
  const auto& loc = std::get<HierarchicalDimension>(space.dim(1));
  const auto& leaves = loc.leaves();
  const int32_t num_items = 7;
  Rng rng(3);

  RegionItemCube<NumericAgg> cube(&space, num_items);
  std::vector<NumericAgg> brute(space.NumRegions() * num_items);
  for (int row = 0; row < 500; ++row) {
    const PointCoords point{
        static_cast<int32_t>(1 + rng.NextUint64(4)),
        leaves[rng.NextUint64(leaves.size())]};
    const int32_t item = static_cast<int32_t>(rng.NextUint64(num_items));
    const double v = rng.NextDouble(-10, 10);
    cube.BaseCell(point, item).Add(v);
    space.ForEachContainingRegion(point, [&](RegionId r) {
      brute[r * num_items + item].Add(v);
    });
  }
  cube.Rollup();
  for (RegionId r = 0; r < space.NumRegions(); ++r) {
    for (int32_t i = 0; i < num_items; ++i) {
      const NumericAgg& fast = cube.Cell(r, i);
      const NumericAgg& slow = brute[r * num_items + i];
      EXPECT_EQ(fast.count, slow.count);
      EXPECT_NEAR(fast.sum, slow.sum, 1e-9);
      if (slow.count > 0) {
        EXPECT_DOUBLE_EQ(fast.min, slow.min);
        EXPECT_DOUBLE_EQ(fast.max, slow.max);
      }
    }
  }
}

TEST(SlidingRegionSpaceTest, CountsLabelsAndContainment) {
  RegionSpace space = MakeSpace(4, WindowKind::kSliding);
  EXPECT_EQ(space.NumRegions(), 10 * 5);
  EXPECT_EQ(space.NumFinestCells(), 4 * 3);  // finest cells unchanged
  auto r = space.FindRegion({"2-3", "WI"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(space.RegionLabel(*r), "[2-3, WI]");
  const auto& loc = std::get<HierarchicalDimension>(space.dim(1));
  const NodeId wi = *loc.FindNode("WI");
  EXPECT_TRUE(space.RegionContainsPoint(*r, {2, wi}));
  EXPECT_FALSE(space.RegionContainsPoint(*r, {1, wi}));
  EXPECT_FALSE(space.RegionContainsPoint(*r, {4, wi}));
  const RegionId full = *space.FindRegion({"1-4", "All"});
  EXPECT_EQ(space.FullRegion(), full);
  EXPECT_TRUE(space.RegionContainsRegion(full, *r));
  EXPECT_FALSE(space.RegionContainsRegion(*r, full));
  // Finest cells of [2-3, US]: 2 time points x 2 states.
  EXPECT_EQ(space.FinestCellsIn(*space.FindRegion({"2-3", "US"})).size(), 4u);
}

TEST(SlidingRegionSpaceTest, ContainingRegionsMatchBruteForce) {
  RegionSpace space = MakeSpace(4, WindowKind::kSliding);
  const auto& loc = std::get<HierarchicalDimension>(space.dim(1));
  for (NodeId leaf : loc.leaves()) {
    for (int32_t t = 1; t <= 4; ++t) {
      const PointCoords point{t, leaf};
      std::set<RegionId> fast;
      space.ForEachContainingRegion(point,
                                    [&](RegionId r) { fast.insert(r); });
      std::set<RegionId> slow;
      for (RegionId r = 0; r < space.NumRegions(); ++r) {
        if (space.RegionContainsPoint(r, point)) slow.insert(r);
      }
      EXPECT_EQ(fast, slow) << "t=" << t << " leaf=" << leaf;
    }
  }
}

TEST(SlidingRegionSpaceTest, CubeRollupMatchesBruteForce) {
  RegionSpace space = MakeSpace(4, WindowKind::kSliding);
  const auto& loc = std::get<HierarchicalDimension>(space.dim(1));
  const auto& leaves = loc.leaves();
  const int32_t num_items = 5;
  Rng rng(9);
  RegionItemCube<NumericAgg> cube(&space, num_items);
  std::vector<NumericAgg> brute(space.NumRegions() * num_items);
  for (int row = 0; row < 300; ++row) {
    const PointCoords point{static_cast<int32_t>(1 + rng.NextUint64(4)),
                            leaves[rng.NextUint64(leaves.size())]};
    const int32_t item = static_cast<int32_t>(rng.NextUint64(num_items));
    const double v = rng.NextDouble(-10, 10);
    cube.BaseCell(point, item).Add(v);
    space.ForEachContainingRegion(point, [&](RegionId r) {
      brute[r * num_items + item].Add(v);
    });
  }
  cube.Rollup();
  for (RegionId r = 0; r < space.NumRegions(); ++r) {
    for (int32_t i = 0; i < num_items; ++i) {
      EXPECT_EQ(cube.Cell(r, i).count, brute[r * num_items + i].count)
          << space.RegionLabel(r);
      EXPECT_NEAR(cube.Cell(r, i).sum, brute[r * num_items + i].sum, 1e-9);
    }
  }
}

TEST(SlidingRegionSpaceTest, CostModelAndIcebergStillExact) {
  Rng rng(21);
  RegionSpace space = MakeSpace(4, WindowKind::kSliding);
  std::vector<double> cell_costs(space.NumFinestCells());
  for (auto& c : cell_costs) c = rng.NextDouble(0.0, 3.0);
  auto cost = CostModel::Create(&space, cell_costs);
  ASSERT_TRUE(cost.ok());
  for (RegionId r = 0; r < space.NumRegions(); ++r) {
    double expected = 0.0;
    for (int64_t c : space.FinestCellsIn(r)) expected += cell_costs[c];
    EXPECT_NEAR(cost->RegionCost(r), expected, 1e-9) << space.RegionLabel(r);
  }
  std::vector<double> coverage(space.NumRegions());
  for (RegionId r = 0; r < space.NumRegions(); ++r) {
    coverage[r] = std::min(
        1.0, static_cast<double>(space.FinestCellsIn(r).size()) / 6.0);
  }
  const auto brute = FindFeasibleRegionsBruteForce(
      space, cost->region_costs(), coverage, 4.0, 0.3);
  const auto pruned = FindFeasibleRegionsPruned(
      space, cost->region_costs(), coverage, 4.0, 0.3);
  EXPECT_EQ(brute.regions, pruned.regions);
}

TEST(KeySetCubeTest, RollupIsExactUnderOverlap) {
  RegionSpace space = MakeSpace(2);
  const auto& loc = std::get<HierarchicalDimension>(space.dim(1));
  const NodeId wi = *loc.FindNode("WI");
  const NodeId md = *loc.FindNode("MD");
  auto base = [&](int32_t week, NodeId state) {
    return space.Encode(space.BaseCellOf({week, state}));
  };
  // One item with two keys: rank 0 (say key 42) and rank 1 (key 43).
  KeySetCube cube(&space, {2});
  // The same FK appears in two different states: the US rollup must count
  // it once.
  cube.Insert(base(1, wi), 0, 0);
  cube.Insert(base(1, md), 0, 0);
  cube.Insert(base(2, md), 0, 1);
  cube.Rollup();
  const RegionId us1 = *space.FindRegion({"1-1", "US"});
  const RegionId us2 = *space.FindRegion({"1-2", "US"});
  EXPECT_EQ(RanksOf(cube, us1, 0).size(), 1u);
  EXPECT_EQ(RanksOf(cube, us2, 0).size(), 2u);
}

TEST(CostModelTest, RegionCostIsSumOfFinestCells) {
  RegionSpace space = MakeSpace(3);
  std::vector<double> cell_costs(space.NumFinestCells());
  for (size_t i = 0; i < cell_costs.size(); ++i) cell_costs[i] = 1.0 + i;
  auto cost = CostModel::Create(&space, cell_costs);
  ASSERT_TRUE(cost.ok());
  for (RegionId r = 0; r < space.NumRegions(); ++r) {
    double expected = 0.0;
    for (int64_t c : space.FinestCellsIn(r)) expected += cell_costs[c];
    EXPECT_NEAR(cost->RegionCost(r), expected, 1e-9) << "region " << r;
  }
}

TEST(CostModelTest, RejectsWrongArityAndNegative) {
  RegionSpace space = MakeSpace(2);
  EXPECT_FALSE(CostModel::Create(&space, {1.0}).ok());
  std::vector<double> neg(space.NumFinestCells(), 1.0);
  neg[0] = -1.0;
  EXPECT_FALSE(CostModel::Create(&space, neg).ok());
}

// Property: the pruned iceberg search returns exactly the brute-force
// feasible set, over random monotone cost/coverage configurations.
class IcebergPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IcebergPropertyTest, PrunedMatchesBruteForce) {
  Rng rng(GetParam());
  RegionSpace space = MakeSpace(4);
  // Random per-cell costs; region costs are their rollup (monotone).
  std::vector<double> cell_costs(space.NumFinestCells());
  for (auto& c : cell_costs) c = rng.NextDouble(0.0, 3.0);
  auto cost = CostModel::Create(&space, cell_costs);
  ASSERT_TRUE(cost.ok());
  // Random coverage from a synthetic item scatter (anti-monotone by
  // construction: coverage of a subregion cannot exceed its superregion's).
  const auto& loc = std::get<HierarchicalDimension>(space.dim(1));
  const auto& leaves = loc.leaves();
  const int32_t num_items = 10;
  RegionItemCube<NumericAgg> counts(&space, num_items);
  for (int k = 0; k < 60; ++k) {
    const PointCoords p{static_cast<int32_t>(1 + rng.NextUint64(4)),
                        leaves[rng.NextUint64(leaves.size())]};
    counts.BaseCell(p, static_cast<int32_t>(rng.NextUint64(num_items)))
        .Add(1.0);
  }
  counts.Rollup();
  std::vector<double> coverage(space.NumRegions());
  for (RegionId r = 0; r < space.NumRegions(); ++r) {
    int32_t covered = 0;
    for (int32_t i = 0; i < num_items; ++i) {
      if (counts.Cell(r, i).count > 0) ++covered;
    }
    coverage[r] = static_cast<double>(covered) / num_items;
  }
  const double budget = rng.NextDouble(1.0, 20.0);
  const double min_cov = rng.NextDouble(0.0, 0.9);
  const auto brute = FindFeasibleRegionsBruteForce(
      space, cost->region_costs(), coverage, budget, min_cov);
  const auto pruned = FindFeasibleRegionsPruned(
      space, cost->region_costs(), coverage, budget, min_cov);
  EXPECT_EQ(brute.regions, pruned.regions);
  EXPECT_LE(pruned.regions_examined, brute.regions_examined);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IcebergPropertyTest,
                         ::testing::Range(1, 13));

TEST(IcebergTest, TightConstraintsPruneSomething) {
  RegionSpace space = MakeSpace(4);
  std::vector<double> costs(space.NumRegions(), 100.0);
  std::vector<double> coverage(space.NumRegions(), 0.0);
  const auto pruned =
      FindFeasibleRegionsPruned(space, costs, coverage, 1.0, 0.5);
  EXPECT_TRUE(pruned.regions.empty());
  EXPECT_GT(pruned.regions_pruned, 0);
}

}  // namespace
}  // namespace bellwether::olap
