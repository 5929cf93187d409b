// The compiled prediction path against the implementations it replaced:
//
//  * BellwetherCube::PredictItem (candidate lists compiled per base slot,
//    tried by selection) vs RefPredictItem, which enumerates the containing
//    subsets of the item on every call and sorts them by bound. Value and
//    bound are compared bit for bit, with subset, region, fallback depth and
//    status code. The reference sorts with the order PredictItem defines
//    (ascending bound, NaN bounds last, ties by subset); before that order
//    was defined, a NaN bound made the sort's comparator invalid.
//  * RegionFeatureLookup (dense region and row tables) vs FindItemRow, the
//    binary search of a set's ascending items, over the first set of each
//    region.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/bellwether_cube.h"
#include "core/eval_util.h"
#include "core/model_io.h"
#include "datagen/simulation.h"
#include "storage/training_data.h"
#include "test_util.h"

namespace bellwether::core {
namespace {

using storage::RegionTrainingSet;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kConfidences[] = {0.5, 0.8, 0.95, 0.999};

// ---- Oracles ----

// Row index of `item` within `set.items` (which is ascending), or -1.
int64_t FindItemRow(const RegionTrainingSet& set, int32_t item) {
  auto it = std::lower_bound(set.items.begin(), set.items.end(), item);
  if (it == set.items.end() || *it != item) return -1;
  return it - set.items.begin();
}

// The set of `region` that a lookup reads: the first one in `sets`. Sets
// with a negative region (kInvalidRegion) are not indexed.
const RegionTrainingSet* RefSetOf(const std::vector<RegionTrainingSet>& sets,
                                  int64_t region) {
  if (region < 0) return nullptr;
  for (const RegionTrainingSet& set : sets) {
    if (set.region == region) return &set;
  }
  return nullptr;
}

const double* RefFind(const std::vector<RegionTrainingSet>& sets,
                      int64_t region, int32_t item, size_t* num_features) {
  const RegionTrainingSet* set = RefSetOf(sets, region);
  if (set == nullptr) return nullptr;
  const int64_t row = FindItemRow(*set, item);
  if (row < 0) return nullptr;
  *num_features = static_cast<size_t>(set->num_features);
  return set->row(static_cast<size_t>(row));
}

double RefTargetOf(const std::vector<RegionTrainingSet>& sets, int64_t region,
                   int32_t item) {
  const RegionTrainingSet* set = RefSetOf(sets, region);
  if (set == nullptr) return kNaN;
  const int64_t row = FindItemRow(*set, item);
  return row < 0 ? kNaN : set->targets[static_cast<size_t>(row)];
}

struct Candidate {
  double bound;
  SubsetId subset;
  const CubeCell* cell;
};

// The item's candidates in the order they are tried: every call walks the
// containing subsets, computes each model-bearing cell's bound and sorts.
std::vector<Candidate> RefCandidates(const BellwetherCube& cube, int32_t item,
                                     double confidence) {
  std::vector<Candidate> candidates;
  const ItemSubsetSpace& subsets = cube.subsets();
  subsets.space().ForEachContainingRegion(
      subsets.ItemCoords(item), [&](SubsetId s) {
        const CubeCell* cell = cube.FindCell(s);
        if (cell == nullptr || !cell->has_model) return;
        const double bound = cell->has_cv
                                 ? cell->cv.UpperConfidenceBound(confidence)
                                 : cell->error;
        candidates.push_back({bound, s, cell});
      });
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              const bool a_nan = std::isnan(a.bound);
              const bool b_nan = std::isnan(b.bound);
              if (a_nan != b_nan) return b_nan;
              if (!a_nan && a.bound != b.bound) return a.bound < b.bound;
              return a.subset < b.subset;
            });
  return candidates;
}

Result<CubePrediction> RefPredictItem(
    const BellwetherCube& cube, int32_t item,
    const std::vector<RegionTrainingSet>& sets, double confidence) {
  int32_t skipped = 0;
  for (const Candidate& c : RefCandidates(cube, item, confidence)) {
    size_t num_features = 0;
    const double* x = RefFind(sets, c.cell->region, item, &num_features);
    if (x == nullptr) {
      ++skipped;
      continue;
    }
    if (c.cell->model.num_features() != num_features) {
      return ModelArityMismatch(c.cell->model.num_features(), num_features);
    }
    CubePrediction out;
    out.value = c.cell->model.Predict(x);
    out.subset = c.subset;
    out.region = c.cell->region;
    out.upper_confidence_bound = c.bound;
    out.candidates_skipped = skipped;
    return out;
  }
  return Status::NotFound(
      "no candidate bellwether region has data for the item");
}

// ---- Fixtures ----

datagen::SimulationDataset MakeSim(uint64_t seed) {
  datagen::SimulationConfig config;
  config.num_items = 240;
  config.generator_tree_nodes = 7;
  config.noise = 0.3;
  config.num_windows = 3;
  config.location_fanouts = {2, 2};
  config.seed = seed;
  return datagen::GenerateSimulation(config);
}

std::shared_ptr<const ItemSubsetSpace> MakeSubsets(
    const datagen::SimulationDataset& sim) {
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  EXPECT_TRUE(subsets.ok()) << subsets.status().ToString();
  return subsets.ok() ? *subsets : nullptr;
}

BellwetherCube BuildCube(const datagen::SimulationDataset& sim,
                         std::shared_ptr<const ItemSubsetSpace> subsets,
                         bool cv) {
  CubeBuildConfig config;
  config.min_subset_size = 20;
  config.min_examples_per_model = 8;
  config.compute_cv_stats = cv;
  storage::MemoryTrainingData source(sim.sets);
  auto cube = BuildBellwetherCubeSingleScan(&source, std::move(subsets),
                                            config);
  EXPECT_TRUE(cube.ok()) << cube.status().ToString();
  return std::move(cube).value();
}

BellwetherCube Reloaded(const BellwetherCube& cube,
                        std::shared_ptr<const ItemSubsetSpace> subsets,
                        const std::string& name) {
  const std::string path = TestTempPath(name);
  EXPECT_TRUE(SaveBellwetherCube(cube, path).ok());
  auto back = LoadBellwetherCube(path, std::move(subsets));
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  std::remove(path.c_str());
  return std::move(back).value();
}

// Sets without the rows that `drop(region, item)` selects.
template <typename Drop>
std::vector<RegionTrainingSet> WithoutRows(
    const std::vector<RegionTrainingSet>& sets, Drop drop) {
  std::vector<RegionTrainingSet> out;
  for (const RegionTrainingSet& set : sets) {
    RegionTrainingSet kept;
    kept.region = set.region;
    kept.num_features = set.num_features;
    for (size_t r = 0; r < set.num_examples(); ++r) {
      if (drop(set.region, set.items[r])) continue;
      kept.items.push_back(set.items[r]);
      kept.targets.push_back(set.targets[r]);
      kept.features.insert(kept.features.end(), set.row(r),
                           set.row(r) + set.num_features);
      if (set.weighted()) kept.weights.push_back(set.weight(r));
    }
    out.push_back(std::move(kept));
  }
  return out;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// What the comparison saw, so a test can check its fixture reached the
// cases it is meant to cover.
struct Coverage {
  int32_t predicted = 0;
  int32_t not_found = 0;
  int32_t max_skipped = 0;
};

void ExpectSame(const Result<CubePrediction>& want,
                const Result<CubePrediction>& got, Coverage* coverage) {
  ASSERT_EQ(got.status().code(), want.status().code())
      << got.status().ToString() << " vs " << want.status().ToString();
  if (!want.ok()) {
    if (want.status().code() == StatusCode::kNotFound) ++coverage->not_found;
    return;
  }
  ++coverage->predicted;
  coverage->max_skipped =
      std::max(coverage->max_skipped, want->candidates_skipped);
  EXPECT_EQ(Bits(got->value), Bits(want->value));
  EXPECT_EQ(Bits(got->upper_confidence_bound),
            Bits(want->upper_confidence_bound));
  EXPECT_EQ(got->subset, want->subset);
  EXPECT_EQ(got->region, want->region);
  EXPECT_EQ(got->candidates_skipped, want->candidates_skipped);
}

// Every item at every confidence, against the oracle over the same sets.
Coverage ExpectMatchesOracle(const BellwetherCube& cube,
                             const std::vector<RegionTrainingSet>& sets) {
  const RegionFeatureLookup lookup(&sets);
  Coverage coverage;
  for (double confidence : kConfidences) {
    for (int32_t item = 0; item < cube.subsets().num_items(); ++item) {
      SCOPED_TRACE("confidence " + std::to_string(confidence) + ", item " +
                   std::to_string(item));
      ExpectSame(RefPredictItem(cube, item, sets, confidence),
                 cube.PredictItem(item, lookup, confidence), &coverage);
    }
  }
  return coverage;
}

// ---- The compiled cube path ----

class PredictEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PredictEquivalenceTest, MatchesTheSortOracleInMemoryAndReloaded) {
  const datagen::SimulationDataset sim = MakeSim(GetParam());
  auto subsets = MakeSubsets(sim);
  ASSERT_NE(subsets, nullptr);
  for (bool cv : {true, false}) {
    SCOPED_TRACE(cv ? "with CV" : "without CV");
    const BellwetherCube cube = BuildCube(sim, subsets, cv);
    const Coverage in_memory = ExpectMatchesOracle(cube, sim.sets);
    EXPECT_GT(in_memory.predicted, 0);
    const BellwetherCube reloaded = Reloaded(cube, subsets, "cube.bwc");
    ExpectMatchesOracle(reloaded, sim.sets);
    // A copy carries valid candidate lists (indices, not pointers).
    const BellwetherCube copy = reloaded;
    ExpectMatchesOracle(copy, sim.sets);
  }
}

TEST_P(PredictEquivalenceTest, FallbackRunsDeepAndEndsInNotFound) {
  const datagen::SimulationDataset sim = MakeSim(GetParam());
  auto subsets = MakeSubsets(sim);
  ASSERT_NE(subsets, nullptr);
  const BellwetherCube cube = BuildCube(sim, subsets, /*cv=*/true);
  const double confidence = 0.95;
  // The deep item loses its rows in the regions of its first two distinct
  // candidate regions; the lost item loses its rows everywhere; a third of
  // the other rows go.
  int32_t deep_item = -1;
  std::vector<int64_t> dropped_regions;
  for (int32_t item = 0; item < subsets->num_items() && deep_item < 0;
       ++item) {
    std::vector<int64_t> regions;
    for (const Candidate& c : RefCandidates(cube, item, confidence)) {
      if (std::find(regions.begin(), regions.end(), c.cell->region) ==
          regions.end()) {
        regions.push_back(c.cell->region);
      }
    }
    if (regions.size() >= 3) {
      deep_item = item;
      dropped_regions.assign(regions.begin(), regions.begin() + 2);
    }
  }
  ASSERT_GE(deep_item, 0);
  const int32_t lost_item = deep_item == 0 ? 1 : 0;
  const std::vector<RegionTrainingSet> thinned =
      WithoutRows(sim.sets, [&](int64_t r, int32_t i) {
        if (i == lost_item) return true;
        if (i == deep_item) {
          return std::find(dropped_regions.begin(), dropped_regions.end(),
                           r) != dropped_regions.end();
        }
        return (r + i) % 3 == 0;
      });
  const Coverage coverage = ExpectMatchesOracle(cube, thinned);
  EXPECT_GE(coverage.max_skipped, 2);
  EXPECT_GT(coverage.not_found, 0);
  const RegionFeatureLookup lookup(&thinned);
  EXPECT_EQ(cube.PredictItem(lost_item, lookup, confidence).status().code(),
            StatusCode::kNotFound);
  auto deep = cube.PredictItem(deep_item, lookup, confidence);
  ASSERT_TRUE(deep.ok()) << deep.status().ToString();
  EXPECT_GE(deep->candidates_skipped, 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictEquivalenceTest,
                         ::testing::Values(3u, 11u, 29u, 47u));

// Hand-edited cells: collapsed intervals (one fold, zero spread), equal
// bounds broken by subset, model-less cells, and an item none of whose
// containing subsets has a cell.
TEST(PredictEquivalenceEdgeTest, EditedCellsMatchTheOracle) {
  const datagen::SimulationDataset sim = MakeSim(5);
  auto subsets = MakeSubsets(sim);
  ASSERT_NE(subsets, nullptr);
  const BellwetherCube cube = BuildCube(sim, subsets, /*cv=*/true);
  ASSERT_GE(cube.cells().size(), 6u);

  std::vector<CubeCell> edited = cube.cells();
  edited[0].cv.num_folds = 1;
  edited[1].cv.stddev = 0.0;
  edited[2].has_model = false;
  edited[3].has_cv = false;
  ExpectMatchesOracle(CubeWithCells(subsets, edited), sim.sets);

  // Every cell the same CV: all bounds tie, so the least subset with data
  // for the item wins.
  std::vector<CubeCell> tied = cube.cells();
  for (CubeCell& cell : tied) {
    cell.has_cv = true;
    cell.cv = {1.0, 0.5, 10};
  }
  const BellwetherCube tie_cube = CubeWithCells(subsets, tied);
  const Coverage coverage = ExpectMatchesOracle(tie_cube, sim.sets);
  EXPECT_GT(coverage.predicted, 0);
  const RegionFeatureLookup lookup(&sim.sets);
  for (int32_t item = 0; item < subsets->num_items(); ++item) {
    auto p = tie_cube.PredictItem(item, lookup);
    if (!p.ok() || p->candidates_skipped > 0) continue;
    for (SubsetId s : subsets->ContainingSubsets(item)) {
      const CubeCell* cell = tie_cube.FindCell(s);
      if (cell == nullptr || !cell->has_model) continue;
      EXPECT_EQ(p->subset, s) << "item " << item;
      break;
    }
  }

  // No cell contains item 0.
  std::vector<CubeCell> without;
  for (const CubeCell& cell : cube.cells()) {
    if (!subsets->SubsetContainsItem(cell.subset, 0)) without.push_back(cell);
  }
  const BellwetherCube sparse = CubeWithCells(subsets, without);
  ExpectMatchesOracle(sparse, sim.sets);
  EXPECT_EQ(sparse.PredictItem(0, lookup).status().code(),
            StatusCode::kNotFound);
}

// A NaN bound (a NaN CV field read from a cube file, or a CV that kept one
// fold on NaN data) sorts after every finite bound.
TEST(PredictEquivalenceEdgeTest, NanBoundIsTriedLast) {
  const datagen::SimulationDataset sim = MakeSim(7);
  auto subsets = MakeSubsets(sim);
  ASSERT_NE(subsets, nullptr);
  const BellwetherCube cube = BuildCube(sim, subsets, /*cv=*/true);
  const int32_t item = 0;
  // The NaN cell is the item's least containing subset with a model; no
  // other candidate of the item shares its region.
  std::vector<CubeCell> cells = cube.cells();
  CubeCell* nan_cell = nullptr;
  for (SubsetId s : subsets->ContainingSubsets(item)) {
    const CubeCell* cell = cube.FindCell(s);
    if (cell != nullptr && cell->has_model) {
      nan_cell = &cells[cell - cube.cells().data()];
      break;
    }
  }
  ASSERT_NE(nan_cell, nullptr);
  nan_cell->has_cv = true;
  nan_cell->cv = {kNaN, 1.0, 10};
  int32_t finite_candidates = 0;
  for (CubeCell& cell : cells) {
    if (&cell == nan_cell || !cell.has_model ||
        !subsets->SubsetContainsItem(cell.subset, item)) {
      continue;
    }
    if (cell.region == nan_cell->region) {
      cell.has_model = false;
    } else {
      ++finite_candidates;
    }
  }
  ASSERT_GT(finite_candidates, 0);
  const BellwetherCube nan_cube = CubeWithCells(subsets, cells);
  const BellwetherCube reloaded = Reloaded(nan_cube, subsets, "nan.bwc");

  for (const BellwetherCube* c : {&nan_cube, &reloaded}) {
    ExpectMatchesOracle(*c, sim.sets);
    // With the item's data everywhere, a finite-bound cell answers.
    const RegionFeatureLookup full(&sim.sets);
    auto p = c->PredictItem(item, full);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_NE(p->subset, nan_cell->subset);
    EXPECT_FALSE(std::isnan(p->upper_confidence_bound));
    // Without it outside the NaN cell's region, every finite candidate is
    // skipped and the NaN cell answers.
    const std::vector<RegionTrainingSet> thinned =
        WithoutRows(sim.sets, [&](int64_t r, int32_t i) {
          return i == item && r != nan_cell->region;
        });
    ExpectMatchesOracle(*c, thinned);
    const RegionFeatureLookup lookup(&thinned);
    auto last = c->PredictItem(item, lookup);
    ASSERT_TRUE(last.ok()) << last.status().ToString();
    EXPECT_EQ(last->subset, nan_cell->subset);
    EXPECT_TRUE(std::isnan(last->upper_confidence_bound));
    EXPECT_EQ(last->candidates_skipped, finite_candidates);
  }
}

// The quantile is computed only for a cell with a CV spread, so a cube
// without CV answers at a confidence the quantile rejects.
TEST(PredictEquivalenceEdgeTest, ConfidenceIsOnlyReadWhenACellNeedsIt) {
  const datagen::SimulationDataset sim = MakeSim(13);
  auto subsets = MakeSubsets(sim);
  ASSERT_NE(subsets, nullptr);
  const BellwetherCube cube = BuildCube(sim, subsets, /*cv=*/false);
  const RegionFeatureLookup lookup(&sim.sets);
  Coverage coverage;
  for (int32_t item = 0; item < subsets->num_items(); ++item) {
    ExpectSame(cube.PredictItem(item, lookup, 0.95),
               cube.PredictItem(item, lookup, 1.0), &coverage);
  }
  EXPECT_GT(coverage.predicted, 0);
}

// ---- The dense feature lookup ----

RegionTrainingSet MakeSet(int64_t region, std::vector<int32_t> items,
                          double tag) {
  RegionTrainingSet set;
  set.region = region;
  set.num_features = 2;
  for (size_t r = 0; r < items.size(); ++r) {
    set.features.push_back(1.0);
    set.features.push_back(tag + static_cast<double>(r));
    set.targets.push_back(tag * 10 + static_cast<double>(r));
  }
  set.items = std::move(items);
  return set;
}

void ExpectLookupMatchesOracle(const std::vector<RegionTrainingSet>& sets,
                               int64_t max_region, int32_t max_item) {
  const RegionFeatureLookup lookup(&sets);
  for (int64_t region = -2; region <= max_region + 2; ++region) {
    for (int32_t item = -2; item <= max_item + 2; ++item) {
      size_t want_features = 0, got_features = 0;
      const double* want = RefFind(sets, region, item, &want_features);
      const double* got = lookup.Find(region, item, &got_features);
      ASSERT_EQ(got, want) << "region " << region << ", item " << item;
      EXPECT_EQ(got_features, want_features);
      EXPECT_EQ(Bits(lookup.TargetOf(region, item)),
                Bits(RefTargetOf(sets, region, item)));
    }
  }
}

TEST(RegionFeatureLookupTest, EdgeCasesMatchTheBinarySearch) {
  std::vector<RegionTrainingSet> sets;
  sets.push_back(MakeSet(4, {2, 3, 5, 9}, 1.0));
  sets.push_back(MakeSet(1, {0, 7, 7, 8}, 2.0));  // duplicate item rows
  sets.push_back(MakeSet(4, {2, 6}, 3.0));        // duplicate region
  sets.push_back(MakeSet(6, {}, 4.0));            // empty set
  sets.push_back(MakeSet(6, {1}, 5.0));           // behind the empty one
  sets.push_back(MakeSet(-1, {3}, 6.0));          // negative region
  ExpectLookupMatchesOracle(sets, 6, 9);

  const RegionFeatureLookup lookup(&sets);
  EXPECT_EQ(lookup.Find(4, 2), sets[0].row(0));  // the first set wins
  EXPECT_EQ(lookup.Find(4, 6), nullptr);         // only in the second
  EXPECT_EQ(lookup.Find(1, 7), sets[1].row(1));  // the first row wins
  EXPECT_EQ(lookup.Find(6, 1), nullptr);         // the empty set wins
  EXPECT_EQ(lookup.Find(-1, 3), nullptr);
  EXPECT_EQ(lookup.Find(7, 2), nullptr);   // past the largest region
  EXPECT_EQ(lookup.Find(4, 1), nullptr);   // below the first item
  EXPECT_EQ(lookup.Find(4, 10), nullptr);  // above the last item
  EXPECT_EQ(lookup.Find(4, std::numeric_limits<int32_t>::min()), nullptr);
  EXPECT_EQ(lookup.Find(4, std::numeric_limits<int32_t>::max()), nullptr);
  EXPECT_EQ(lookup.Find(std::numeric_limits<int64_t>::max(), 2), nullptr);
  EXPECT_EQ(lookup.Find(std::numeric_limits<int64_t>::min(), 2), nullptr);

  const std::vector<RegionTrainingSet> none;
  const RegionFeatureLookup empty(&none);
  EXPECT_EQ(empty.Find(0, 0), nullptr);
  EXPECT_TRUE(std::isnan(empty.TargetOf(0, 0)));
}

TEST(RegionFeatureLookupTest, RandomSetsMatchTheBinarySearch) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<RegionTrainingSet> sets;
    const int64_t num_sets = rng.NextInt64(1, 12);
    for (int64_t s = 0; s < num_sets; ++s) {
      std::vector<int32_t> items;
      for (int32_t i = 0; i < 40; ++i) {
        const double u = rng.NextDouble();
        if (u < 0.4) items.push_back(i);
        if (u < 0.05) items.push_back(i);  // a duplicate row
      }
      sets.push_back(MakeSet(rng.NextInt64(0, 10), std::move(items),
                             static_cast<double>(s)));
    }
    ExpectLookupMatchesOracle(sets, 10, 40);
  }
}

TEST(RegionFeatureLookupTest, SimulationSetsMatchTheBinarySearch) {
  const datagen::SimulationDataset sim = MakeSim(17);
  int64_t max_region = 0;
  for (const RegionTrainingSet& set : sim.sets) {
    max_region = std::max(max_region, set.region);
  }
  ExpectLookupMatchesOracle(sim.sets, max_region, 240);
}

}  // namespace
}  // namespace bellwether::core
