// Corruption hardening of the tree/cube/state loaders, which share one
// checksummed framing: truncated files fail with clean statuses (never a
// crash or a partial object), every byte flip is rejected, version-
// mismatched headers are told apart from garbage, implausible counts are
// rejected before allocation, non-finite values round-trip, and a tree
// that could not route, cube cells out of subset order, or models of mixed
// length are rejected.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/checksummed_io.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_state.h"
#include "core/bellwether_tree.h"
#include "core/eval_util.h"
#include "core/model_io.h"
#include "datagen/simulation.h"
#include "regression/linear_model.h"
#include "regression/suff_stats_io.h"
#include "storage/training_data.h"
#include "test_util.h"

namespace bellwether::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

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

template <typename T>
void PatchField(std::string* bytes, size_t offset, T v) {
  std::memcpy(bytes->data() + offset, &v, sizeof(v));
}

template <typename T>
T FieldAt(const std::string& bytes, size_t offset) {
  T v{};
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

// Rewrites the CRC-32C trailer, so an edited body passes the checksum and
// only the loader's other checks can reject it.
void RefreshTrailer(std::string* bytes) {
  const size_t body = bytes->find('\n') + 1;
  const uint32_t crc =
      Crc32c(0, bytes->data() + body, bytes->size() - body - sizeof(crc));
  PatchField(bytes, bytes->size() - sizeof(crc), crc);
}

// Walks an artifact body field by field from the end of its magic line,
// recording the offset after each field.
class FieldWalker {
 public:
  explicit FieldWalker(const std::string& bytes)
      : bytes_(bytes), pos_(bytes.find('\n') + 1), boundaries_{pos_} {}

  template <typename T>
  T Read() {
    const T v = FieldAt<T>(bytes_, pos_);
    Skip(sizeof(T));
    return v;
  }
  void Skip(size_t bytes) {
    pos_ += bytes;
    boundaries_.push_back(pos_);
  }
  size_t pos() const { return pos_; }
  const std::vector<size_t>& boundaries() const { return boundaries_; }

 private:
  const std::string& bytes_;
  size_t pos_;
  std::vector<size_t> boundaries_;
};

// Field boundaries of a tree or cube file up to the end of its first node
// or cell, walked with the documented v3 layout, and the offset of that
// record's model length.
struct FirstRecord {
  std::vector<size_t> boundaries;
  size_t model_at = 0;
};

FirstRecord WalkFirstNode(const std::string& bytes) {
  FieldWalker w(bytes);
  const auto num_columns = w.Read<int64_t>();
  for (int64_t c = 0; c < num_columns; ++c) w.Skip(w.Read<int64_t>());
  w.Read<int64_t>();  // node count
  w.Read<int32_t>();  // num_items
  w.Read<uint8_t>();  // has_model
  w.Read<int64_t>();  // region
  w.Read<uint8_t>();  // degradation
  w.Read<double>();   // error
  w.Read<double>();   // goodness
  const size_t model_at = w.pos();
  w.Skip(sizeof(double) * w.Read<int64_t>());
  w.Read<int32_t>();  // split column
  w.Read<uint8_t>();  // is_numeric
  w.Read<double>();   // threshold
  w.Read<int32_t>();  // num_partitions
  w.Skip(sizeof(int32_t) * w.Read<int64_t>());  // children
  return {w.boundaries(), model_at};
}

FirstRecord WalkFirstCell(const std::string& bytes) {
  FieldWalker w(bytes);
  w.Read<int64_t>();  // subset count
  w.Read<int64_t>();  // cell count
  w.Read<int64_t>();  // subset
  w.Read<int32_t>();  // subset_size
  w.Read<uint8_t>();  // has_model
  w.Read<int64_t>();  // region
  w.Read<uint8_t>();  // degradation
  w.Read<uint8_t>();  // fallback_pick
  w.Read<double>();   // error
  w.Read<uint8_t>();  // has_cv
  w.Read<double>();   // cv rmse
  w.Read<double>();   // cv stddev
  w.Read<int32_t>();  // cv folds
  const size_t model_at = w.pos();
  w.Skip(sizeof(double) * w.Read<int64_t>());
  return {w.boundaries(), model_at};
}

// Cut points of a truncation test: the empty file, every field boundary of
// the header and first record, the end marker and the trailer.
std::vector<size_t> CutPoints(const std::string& bytes,
                              const FirstRecord& first) {
  const size_t size = bytes.size();
  EXPECT_LT(first.boundaries.back(), size - 12);
  std::vector<size_t> cuts{0};
  cuts.insert(cuts.end(), first.boundaries.begin(), first.boundaries.end());
  cuts.insert(cuts.end(), {size - 12, size - 8, size - 4, size - 1});
  return cuts;
}

// The split columns of the trees below: numeric x, categorical c.
table::Table SplitItems() {
  table::Table items(table::Schema(
      {{"x", table::DataType::kDouble}, {"c", table::DataType::kString}}));
  items.AppendRow({table::Value(0.0), table::Value("a")});
  items.AppendRow({table::Value(1.0), table::Value("b")});
  return items;
}

// Saves a three-node tree over SplitItems(): the root splits on column
// `split_column` (numeric when `is_numeric`, threshold 0.5) into nodes
// `first_child` and 2; SaveTwoLeafTree(path, 1, 0, true) saves a valid
// one. The writer does not validate, so the loader has to.
void SaveTwoLeafTree(const std::string& path, int32_t first_child,
                     int32_t split_column, bool is_numeric) {
  auto feats = ItemSplitFeatures::Create(SplitItems(), {"x", "c"});
  ASSERT_TRUE(feats.ok()) << feats.status().ToString();
  TreeNode root;
  root.num_items = 2;
  root.has_model = true;
  root.region = 4;
  root.error = 0.5;
  root.goodness = 0.25;
  root.model = regression::LinearModel({1.5});
  root.split.column = split_column;
  root.split.is_numeric = is_numeric;
  root.split.threshold = 0.5;
  root.split.num_partitions = 2;
  root.children = {first_child, 2};
  TreeNode leaf;
  leaf.num_items = 1;
  leaf.has_model = true;
  leaf.region = 4;
  leaf.error = 0.5;
  leaf.model = regression::LinearModel({1.5});
  ASSERT_TRUE(
      SaveBellwetherTree(BellwetherTree(*feats, {root, leaf, leaf}), path)
          .ok());
}

// Cube files need a subset space to get past their header.
std::shared_ptr<const ItemSubsetSpace> SimSubsets(
    const datagen::SimulationDataset& sim) {
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  EXPECT_TRUE(subsets.ok()) << subsets.status().ToString();
  return subsets.ok() ? *subsets : nullptr;
}

BellwetherTree SimTree(const datagen::SimulationDataset& sim) {
  storage::MemoryTrainingData source(sim.sets);
  TreeBuildConfig config;
  config.split_columns = sim.feature_columns;
  config.min_items = 40;
  config.max_depth = 3;
  config.min_examples_per_model = 10;
  auto tree = BuildBellwetherTreeRainForest(&source, sim.items, config);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(tree).value();
}

BellwetherCube SimCube(const datagen::SimulationDataset& sim,
                       std::shared_ptr<const ItemSubsetSpace> subsets) {
  storage::MemoryTrainingData source(sim.sets);
  CubeBuildConfig config;
  config.min_subset_size = 20;
  config.min_examples_per_model = 8;
  config.compute_cv_stats = false;
  auto cube = BuildBellwetherCubeOptimized(&source, std::move(subsets), config);
  EXPECT_TRUE(cube.ok()) << cube.status().ToString();
  return std::move(cube).value();
}

TEST(ModelIoCorruptionTest, VersionMismatchIsFailedPrecondition) {
  const std::string path = TestTempPath("old_version.bwt");
  // v1, and the v2 text formats this binary one replaced: no migration
  // reader.
  for (const char* content :
       {"bellwether-tree-v1\n0\n1\n",
        "bellwether-tree-v2\n0\n1\n0 5 1 3 0 1 0\n1 1.5\n-1 0 0 0\n0\n"}) {
    WriteAll(path, content);
    auto tree = LoadBellwetherTree(path, table::Table());
    ASSERT_FALSE(tree.ok()) << content;
    EXPECT_EQ(tree.status().code(), StatusCode::kFailedPrecondition)
        << content;
  }
  for (const char* content :
       {"bellwether-cube-v1\n0 0\n",
        "bellwether-cube-v2\n1 1\n0 20 1 3 0 0 1 0 0 0 0\n1 1.5\n"}) {
    WriteAll(path, content);
    auto cube = LoadBellwetherCube(path, nullptr);
    ASSERT_FALSE(cube.ok()) << content;
    EXPECT_EQ(cube.status().code(), StatusCode::kFailedPrecondition)
        << content;
  }
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, WrongArtifactKindIsFailedPrecondition) {
  // A valid tree file handed to the cube loader: recognizably ours, but the
  // wrong kind — the caller picked the wrong loader, not a corrupt file.
  const std::string path = TestTempPath("kind.bwc");
  SaveTwoLeafTree(path, 1, 0, true);
  auto r = LoadBellwetherCube(path, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, GarbageMagicIsInvalidArgument) {
  const std::string path = TestTempPath("garbage.bwt");
  WriteAll(path, "#!/bin/sh\necho not a model\n");
  auto tree = LoadBellwetherTree(path, table::Table());
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument);
  auto cube = LoadBellwetherCube(path, nullptr);
  ASSERT_FALSE(cube.ok());
  EXPECT_EQ(cube.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, ImplausibleVectorLengthIsRejected) {
  // A corrupt model-vector length must not become a huge allocation. The
  // trailer is recomputed, so only the bound on the bytes left catches it.
  const auto expect_bound = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
    EXPECT_NE(status.message().find("bytes left"), std::string::npos)
        << status.ToString();
  };
  const std::string path = TestTempPath("huge.bwt");
  SaveTwoLeafTree(path, 1, 0, true);
  std::string content = ReadAll(path);
  PatchField<int64_t>(&content, WalkFirstNode(content).model_at,
                      9999999999999);
  RefreshTrailer(&content);
  WriteAll(path, content);
  auto tree = LoadBellwetherTree(path, SplitItems());
  ASSERT_FALSE(tree.ok());
  expect_bound(tree.status());

  datagen::SimulationDataset sim = MakeSim(79);
  auto subsets = SimSubsets(sim);
  ASSERT_NE(subsets, nullptr);
  ASSERT_TRUE(SaveBellwetherCube(SimCube(sim, subsets), path).ok());
  content = ReadAll(path);
  PatchField<int64_t>(&content, WalkFirstCell(content).model_at,
                      9999999999999);
  RefreshTrailer(&content);
  WriteAll(path, content);
  auto cube = LoadBellwetherCube(path, subsets);
  ASSERT_FALSE(cube.ok());
  expect_bound(cube.status());
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, LinearModelWithInfAndNanRoundTrips) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> beta{kInf, -kInf, nan, 1.0};
  auto expect_beta = [&](const regression::LinearModel& model) {
    ASSERT_EQ(model.beta().size(), beta.size());
    EXPECT_EQ(model.beta()[0], kInf);
    EXPECT_EQ(model.beta()[1], -kInf);
    EXPECT_TRUE(std::isnan(model.beta()[2]));
    EXPECT_EQ(model.beta()[3], 1.0);
  };

  // A tree node's model.
  const table::Table items = SplitItems();
  auto feats = ItemSplitFeatures::Create(items, {"x"});
  ASSERT_TRUE(feats.ok());
  TreeNode root;
  root.has_model = true;
  root.region = 7;
  root.model = regression::LinearModel(beta);
  const std::string tree_path = TestTempPath("inf.bwt");
  ASSERT_TRUE(
      SaveBellwetherTree(BellwetherTree(*feats, {root}), tree_path).ok());
  auto tree = LoadBellwetherTree(tree_path, items);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  expect_beta(tree->root().model);
  std::remove(tree_path.c_str());

  // A cube cell's model.
  datagen::SimulationDataset sim = MakeSim(77);
  auto subsets = SimSubsets(sim);
  ASSERT_NE(subsets, nullptr);
  storage::MemoryTrainingData source(sim.sets);
  CubeBuildConfig config;
  config.min_subset_size = 20;
  config.min_examples_per_model = 8;
  config.compute_cv_stats = false;
  auto cube = BuildBellwetherCubeOptimized(&source, subsets, config);
  ASSERT_TRUE(cube.ok());
  ASSERT_FALSE(cube->cells().empty());
  // Every model the same length: the loader rejects mixed lengths.
  std::vector<CubeCell> cells = cube->cells();
  for (CubeCell& cell : cells) {
    if (cell.has_model) cell.model = regression::LinearModel(beta);
  }
  const BellwetherCube edited = CubeWithCells(subsets, std::move(cells));
  ASSERT_TRUE(edited.cells()[0].has_model);
  const std::string cube_path = TestTempPath("inf.bwc");
  ASSERT_TRUE(SaveBellwetherCube(edited, cube_path).ok());
  auto back = LoadBellwetherCube(cube_path, subsets);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  expect_beta(back->cells()[0].model);
  std::remove(cube_path.c_str());
}

// ---- Model lengths ----

// A model longer than the region's feature rows would make PredictItem read
// past the row. The loaders reject models that differ in length from one
// another; PredictItem rejects a model whose length is not the row's.
std::vector<double> SixtyFourEntries(const regression::LinearModel& model) {
  std::vector<double> beta = model.beta();
  beta.resize(64, 0.5);
  return beta;
}

TEST(ModelIoCorruptionTest, TreeModelLengthsAreCheckedAtLoadAndPredict) {
  datagen::SimulationDataset sim = MakeSim(89);
  storage::MemoryTrainingData source(sim.sets);
  TreeBuildConfig config;
  config.split_columns = sim.feature_columns;
  config.min_items = 40;
  config.max_depth = 3;
  config.min_examples_per_model = 10;
  auto tree = BuildBellwetherTreeRainForest(&source, sim.items, config);
  ASSERT_TRUE(tree.ok());
  ASSERT_GT(tree->nodes().size(), 1u);
  auto feats = ItemSplitFeatures::Create(sim.items, sim.feature_columns);
  ASSERT_TRUE(feats.ok());
  const RegionFeatureLookup lookup(&sim.sets);
  const std::string path = TestTempPath("arity.bwt");

  // Every model 64 long: consistent, so it loads, but no prediction may
  // read 64 features from the region's shorter rows.
  std::vector<TreeNode> nodes = tree->nodes();
  for (TreeNode& n : nodes) {
    if (n.has_model) {
      n.model = regression::LinearModel(SixtyFourEntries(n.model));
    }
  }
  ASSERT_TRUE(SaveBellwetherTree(BellwetherTree(*feats, nodes), path).ok());
  auto loaded = LoadBellwetherTree(path, sim.items);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  int32_t predicted = 0;
  for (int32_t item = 0; item < feats.value()->num_items(); ++item) {
    auto want = tree->PredictItem(item, lookup);
    auto got = loaded->PredictItem(item, lookup);
    ASSERT_FALSE(got.ok()) << "item " << item;
    if (want.ok()) {
      ++predicted;
      EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition)
          << "item " << item;
    } else {
      EXPECT_EQ(got.status().code(), want.status().code()) << "item " << item;
    }
  }
  EXPECT_GT(predicted, 0);

  // One node's model longer than the others': a corrupt file.
  nodes = tree->nodes();
  nodes.back().model = regression::LinearModel(
      SixtyFourEntries(nodes.back().model));
  ASSERT_TRUE(nodes.back().has_model);
  ASSERT_TRUE(SaveBellwetherTree(BellwetherTree(*feats, nodes), path).ok());
  loaded = LoadBellwetherTree(path, sim.items);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, CubeModelLengthsAreCheckedAtLoadAndPredict) {
  datagen::SimulationDataset sim = MakeSim(91);
  auto subsets = SimSubsets(sim);
  ASSERT_NE(subsets, nullptr);
  storage::MemoryTrainingData source(sim.sets);
  CubeBuildConfig config;
  config.min_subset_size = 20;
  config.min_examples_per_model = 8;
  config.compute_cv_stats = false;
  auto cube = BuildBellwetherCubeOptimized(&source, subsets, config);
  ASSERT_TRUE(cube.ok());
  const RegionFeatureLookup lookup(&sim.sets);
  const std::string path = TestTempPath("arity.bwc");

  std::vector<CubeCell> long_cells = cube->cells();
  for (CubeCell& cell : long_cells) {
    if (cell.has_model) {
      cell.model = regression::LinearModel(SixtyFourEntries(cell.model));
    }
  }
  const BellwetherCube long_models =
      CubeWithCells(subsets, std::move(long_cells));
  ASSERT_TRUE(SaveBellwetherCube(long_models, path).ok());
  auto loaded = LoadBellwetherCube(path, subsets);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  int32_t predicted = 0;
  for (int32_t item = 0; item < static_cast<int32_t>(sim.targets.size());
       ++item) {
    auto want = cube->PredictItem(item, lookup);
    auto got = loaded->PredictItem(item, lookup);
    ASSERT_FALSE(got.ok()) << "item " << item;
    if (want.ok()) {
      ++predicted;
      EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition)
          << "item " << item;
    } else {
      EXPECT_EQ(got.status().code(), want.status().code()) << "item " << item;
    }
  }
  EXPECT_GT(predicted, 0);

  // One cell's model longer than the others'.
  std::vector<CubeCell> one_long_cells = cube->cells();
  CubeCell* last = nullptr;
  for (CubeCell& cell : one_long_cells) {
    if (cell.has_model) last = &cell;
  }
  ASSERT_NE(last, nullptr);
  last->model = regression::LinearModel(SixtyFourEntries(last->model));
  const BellwetherCube one_long =
      CubeWithCells(subsets, std::move(one_long_cells));
  ASSERT_TRUE(SaveBellwetherCube(one_long, path).ok());
  loaded = LoadBellwetherCube(path, subsets);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---- Trees that could not route ----

TEST(ModelIoCorruptionTest, HandWrittenTreeLoadsAndRoutes) {
  const std::string path = TestTempPath("routes.bwt");
  SaveTwoLeafTree(path, 1, 0, true);
  auto tree = LoadBellwetherTree(path, SplitItems());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->RouteItem(0), 1);  // x = 0 < 0.5
  EXPECT_EQ(tree->RouteItem(1), 2);
  EXPECT_EQ(tree->nodes()[2].depth, 1);  // derived from the child links
  EXPECT_EQ(tree->NumLevels(), 2);
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, ChildNotAfterItsParentIsRejected) {
  // A root listing itself as a child would send RouteItem round forever; a
  // child past the last node would send it out of bounds.
  const std::string path = TestTempPath("cycle.bwt");
  for (int32_t first_child : {0, 99}) {
    SaveTwoLeafTree(path, first_child, 0, true);
    auto tree = LoadBellwetherTree(path, SplitItems());
    ASSERT_FALSE(tree.ok()) << "child " << first_child;
    EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument)
        << "child " << first_child;
  }
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, SplitColumnOutOfRangeIsRejected) {
  const std::string path = TestTempPath("column.bwt");
  for (int32_t column : {7, 2, -1}) {
    SaveTwoLeafTree(path, 1, column, true);
    auto tree = LoadBellwetherTree(path, SplitItems());
    ASSERT_FALSE(tree.ok()) << "column " << column;
    EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument)
        << "column " << column;
  }
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, SplitKindDisagreeingWithItsColumnIsRejected) {
  // A categorical split on numeric x, and a numeric split on categorical c:
  // either would read the column's empty storage vector.
  const std::string path = TestTempPath("kind.bwt");
  for (const auto& [column, is_numeric] :
       {std::pair{0, false}, std::pair{1, true}}) {
    SaveTwoLeafTree(path, 1, column, is_numeric);
    auto tree = LoadBellwetherTree(path, SplitItems());
    ASSERT_FALSE(tree.ok()) << "column " << column;
    EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument)
        << "column " << column;
  }
  // The categorical split on c is fine.
  SaveTwoLeafTree(path, 1, 1, false);
  auto tree = LoadBellwetherTree(path, SplitItems());
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  std::remove(path.c_str());
}

// ---- Cubes ----

TEST(ModelIoCorruptionTest, CellsOutOfSubsetOrderAreRejected) {
  // Every builder emits one cell per significant subset, in ascending
  // subset order. A second cell for one subset would hide from PredictItem
  // and FindCell yet still be listed by CrossTab.
  datagen::SimulationDataset sim = MakeSim(93);
  auto subsets = SimSubsets(sim);
  ASSERT_NE(subsets, nullptr);
  const std::vector<CubeCell> cells = SimCube(sim, subsets).cells();
  ASSERT_GE(cells.size(), 2u);
  std::vector<CubeCell> duplicated = cells;
  duplicated.insert(duplicated.begin() + 1, cells[0]);
  std::vector<CubeCell> swapped = cells;
  std::swap(swapped[0], swapped[1]);
  const std::string path = TestTempPath("order.bwc");
  for (auto* edited : {&duplicated, &swapped}) {
    ASSERT_TRUE(
        SaveBellwetherCube(CubeWithCells(subsets, *edited), path).ok());
    auto r = LoadBellwetherCube(path, subsets);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, DegradedCubeCellRoundTrips) {
  datagen::SimulationDataset sim = MakeSim(81);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  storage::MemoryTrainingData source(sim.sets);
  CubeBuildConfig config;
  config.min_subset_size = 20;
  config.min_examples_per_model = 8;
  config.compute_cv_stats = false;
  auto cube = BuildBellwetherCubeOptimized(&source, *subsets, config);
  ASSERT_TRUE(cube.ok());
  ASSERT_FALSE(cube->cells().empty());
  // Simulate a degraded, fallback-picked cell (error = +inf) as produced by
  // the graceful-degradation chain, and check the loader preserves it.
  std::vector<CubeCell> cells = cube->cells();
  cells[0].error = kInf;
  cells[0].degradation = regression::FitDegradation::kMeanFallback;
  cells[0].fallback_pick = true;
  const BellwetherCube degraded = CubeWithCells(*subsets, std::move(cells));

  const std::string path = TestTempPath("degraded.bwc");
  ASSERT_TRUE(SaveBellwetherCube(degraded, path).ok());
  auto back = LoadBellwetherCube(path, *subsets);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->cells()[0].error, kInf);
  EXPECT_EQ(back->cells()[0].degradation,
            regression::FitDegradation::kMeanFallback);
  EXPECT_TRUE(back->cells()[0].fallback_pick);
  EXPECT_EQ(back->cells()[1].degradation, regression::FitDegradation::kNone);
  EXPECT_FALSE(back->cells()[1].fallback_pick);
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, TruncatedCubeFailsCleanlyAtEveryBoundary) {
  datagen::SimulationDataset sim = MakeSim(83);
  auto subsets = SimSubsets(sim);
  ASSERT_NE(subsets, nullptr);
  const std::string path = TestTempPath("trunc.bwc");
  ASSERT_TRUE(SaveBellwetherCube(SimCube(sim, subsets), path).ok());
  const std::string content = ReadAll(path);
  for (size_t cut : CutPoints(content, WalkFirstCell(content))) {
    WriteAll(path, content.substr(0, cut));
    auto r = LoadBellwetherCube(path, subsets);
    ASSERT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError)
        << "cut at " << cut << ": " << r.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, TruncatedTreeFailsCleanly) {
  datagen::SimulationDataset sim = MakeSim(85);
  const std::string path = TestTempPath("trunc.bwt");
  ASSERT_TRUE(SaveBellwetherTree(SimTree(sim), path).ok());
  const std::string content = ReadAll(path);
  for (size_t cut : CutPoints(content, WalkFirstNode(content))) {
    WriteAll(path, content.substr(0, cut));
    auto r = LoadBellwetherTree(path, sim.items);
    ASSERT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError)
        << "cut at " << cut << ": " << r.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, ByteFlipsNeverCrashTheLoader) {
  // Stronger than "never crash": with the CRC-32C trailer no single-byte
  // change of a tree or cube file loads. ASan/UBSan builds check that the
  // loaders' own bounds hold before the checksum is compared.
  datagen::SimulationDataset sim = MakeSim(87);
  auto subsets = SimSubsets(sim);
  ASSERT_NE(subsets, nullptr);
  const std::string tree_path = TestTempPath("flip.bwt");
  const std::string cube_path = TestTempPath("flip.bwc");
  ASSERT_TRUE(SaveBellwetherTree(SimTree(sim), tree_path).ok());
  ASSERT_TRUE(SaveBellwetherCube(SimCube(sim, subsets), cube_path).ok());
  const auto flip_every_byte = [](const std::string& path, auto load) {
    const std::string content = ReadAll(path);
    for (size_t pos = 0; pos < content.size(); ++pos) {
      std::string flipped = content;
      flipped[pos] = static_cast<char>(flipped[pos] ^ 0x5A);
      WriteAll(path, flipped);
      EXPECT_FALSE(load(path)) << path << ": flip at " << pos << " of "
                               << content.size();
    }
    WriteAll(path, content);
    EXPECT_TRUE(load(path)) << path;
  };
  flip_every_byte(tree_path, [&](const std::string& path) {
    return LoadBellwetherTree(path, sim.items).ok();
  });
  flip_every_byte(cube_path, [&](const std::string& path) {
    return LoadBellwetherCube(path, subsets).ok();
  });
  std::remove(tree_path.c_str());
  std::remove(cube_path.c_str());
}

// ---- Binary sufficient-statistics codec ----

std::string EncodeStats(const regression::RegressionSuffStats& stats) {
  std::ostringstream wire;
  ChecksummedWriter out(wire);
  regression::WriteSuffStats(out, stats);
  out.Flush();
  return wire.str();
}

Result<regression::RegressionSuffStats> DecodeStats(const std::string& bytes) {
  std::istringstream wire(bytes);
  ChecksummedReader in(wire, bytes.size());
  return regression::ReadSuffStats(in);
}

// Offsets of the statistic header fields (int32 p, then int64 n).
constexpr size_t kStatsArityAt = 0;
constexpr size_t kStatsCountAt = 4;
constexpr size_t kStatsHeaderBytes = 4 + 8 + 8 + 8;

TEST(SuffStatsIoTest, PackedStatsRoundTripForEveryArity) {
  Rng rng(123);
  for (size_t p = 1; p <= 8; ++p) {
    SCOPED_TRACE("p=" + std::to_string(p));
    regression::RegressionSuffStats stats(p);
    std::vector<double> x(p);
    for (int i = 0; i < 40; ++i) {
      for (double& v : x) v = rng.NextGaussian();
      stats.Add(x.data(), rng.NextGaussian(), 1.0 + rng.NextDouble());
    }
    auto back = DecodeStats(EncodeStats(stats));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->num_features(), p);
    EXPECT_EQ(back->num_examples(), stats.num_examples());
    EXPECT_EQ(back->sum_weights(), stats.sum_weights());
    EXPECT_EQ(back->ytwy(), stats.ytwy());
    // Raw doubles: the packed triangle round-trips bit for bit.
    EXPECT_EQ(back->packed_xtwx(), stats.packed_xtwx());
    EXPECT_EQ(back->xtwy(), stats.xtwy());
  }
  // Non-finite values keep their exact bits (no text parsing involved).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto odd = regression::RegressionSuffStats::FromPacked(
      2, {kInf, nan, -kInf}, {nan, -0.0}, kInf, 3, 2.0);
  const std::string bytes = EncodeStats(odd);
  auto back = DecodeStats(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(EncodeStats(*back), bytes);
}

TEST(SuffStatsIoTest, TruncatedTriangleIsIoError) {
  regression::RegressionSuffStats stats(4);
  std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  stats.Add(x.data(), 1.5);
  const std::string bytes = EncodeStats(stats);
  // Cut inside the packed-triangle section, after its first value.
  auto r = DecodeStats(bytes.substr(0, kStatsHeaderBytes + sizeof(double)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(SuffStatsIoTest, ImplausibleCountsAreRejectedBeforeAllocation) {
  regression::RegressionSuffStats stats(1);
  const double x = 1.0;
  stats.Add(&x, 1.0);
  const std::string bytes = EncodeStats(stats);

  // Arity beyond the 4096 bound: would be a ~8M-doubles triangle.
  std::string huge_p = bytes;
  PatchField<int32_t>(&huge_p, kStatsArityAt, 99999999);
  auto rp = DecodeStats(huge_p);
  ASSERT_FALSE(rp.ok());
  EXPECT_EQ(rp.status().code(), StatusCode::kIoError);

  // Example count beyond 2^48: no real scan produces it — corruption.
  std::string huge_n = bytes;
  PatchField<int64_t>(&huge_n, kStatsCountAt, 999999999999999999);
  auto rn = DecodeStats(huge_n);
  ASSERT_FALSE(rn.ok());
  EXPECT_EQ(rn.status().code(), StatusCode::kIoError);

  // A plausible arity whose triangle (64 MiB) is larger than the bytes
  // left fails on the bound, before the triangle is allocated.
  std::string big_p = bytes;
  PatchField<int32_t>(&big_p, kStatsArityAt, 4096);
  auto rb = DecodeStats(big_p);
  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(rb.status().code(), StatusCode::kIoError);
  EXPECT_NE(rb.status().message().find("bytes left"), std::string::npos)
      << rb.status().ToString();
}

// ---- Bellwether state files ----

// Section boundaries of a state file (no item mask) up to the end of its
// first region's retained rows, walked with the documented v4 layout.
struct FirstRegionLayout {
  size_t header_end = 0;         // fingerprint .. region count
  size_t region_header_end = 0;  // region id, touched count
  size_t first_stat_end = 0;     // slot index + first statistic
  size_t rows_start = 0;         // the spill-layout rows record
  size_t items_end = 0;
  size_t features_end = 0;
  size_t targets_end = 0;  // end of the (unweighted) record
};

FirstRegionLayout WalkFirstRegion(const std::string& bytes) {
  FirstRegionLayout l;
  size_t pos = bytes.find('\n') + 1;
  pos += 8 + (4 + 4 + 1 + 4 + 8);  // fingerprint, config
  EXPECT_EQ(FieldAt<uint8_t>(bytes, pos), 0) << "walker expects no mask";
  pos += 1;
  const int64_t p = FieldAt<int32_t>(bytes, pos);
  pos += 4 + 8 + 8;  // num_features, delta_batches, region count
  l.header_end = pos;
  const int64_t touched = FieldAt<int64_t>(bytes, pos + 8);
  pos += 8 + 8;
  l.region_header_end = pos;
  const size_t stat_bytes =
      4 + kStatsHeaderBytes + sizeof(double) * (p * (p + 1) / 2 + p);
  l.first_stat_end = pos + stat_bytes;
  l.rows_start = pos + touched * stat_bytes;
  const int64_t n = FieldAt<int64_t>(bytes, l.rows_start + 8 + 4);
  EXPECT_EQ(FieldAt<uint8_t>(bytes, l.rows_start + 8 + 4 + 8), 0)
      << "walker expects unweighted rows";
  l.items_end = l.rows_start + (8 + 4 + 8 + 1) + sizeof(int32_t) * n;
  l.features_end = l.items_end + sizeof(double) * n * p;
  l.targets_end = l.features_end + sizeof(double) * n;
  return l;
}

class StateFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = MakeSim(89);
    auto subsets = ItemSubsetSpace::Create(sim_.items, sim_.item_hierarchies);
    ASSERT_TRUE(subsets.ok());
    subsets_ = *subsets;
    BellwetherState::Options options;
    options.config.min_subset_size = 20;
    options.config.min_examples_per_model = 8;
    auto state = BellwetherState::Init(subsets_, options);
    ASSERT_TRUE(state.ok());
    state_ = std::move(*state);
    ASSERT_TRUE(state_->ApplyDelta(sim_.sets).ok());
    path_ = TestTempPath("corrupt_state.bws");
    ASSERT_TRUE(state_->Save(path_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void ExpectIoError(const std::string& content, const std::string& what) {
    WriteAll(path_, content);
    auto r = LoadBellwetherState(path_, subsets_);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError)
        << what << ": " << r.status().ToString();
  }

  datagen::SimulationDataset sim_;
  std::shared_ptr<const ItemSubsetSpace> subsets_;
  std::unique_ptr<BellwetherState> state_;
  std::string path_;
};

TEST_F(StateFileTest, WrongArtifactKindIsFailedPrecondition) {
  WriteAll(path_, "bellwether-cube-v2\n0 0\n");
  auto r = LoadBellwetherState(path_, subsets_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(StateFileTest, TextV3StateIsFailedPrecondition) {
  // The text format this binary one replaced: no migration reader.
  WriteAll(path_,
           "bellwether-state-v3\nfingerprint 1\nconfig 20 8 1 10 17\n"
           "mask 0\nnum_features 3\ndelta_batches 1\nregions 0\nend\n");
  auto r = LoadBellwetherState(path_, subsets_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(StateFileTest, GarbageMagicIsInvalidArgument) {
  WriteAll(path_, "not a state file\n");
  auto r = LoadBellwetherState(path_, subsets_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StateFileTest, MissingFileIsIoError) {
  auto r = LoadBellwetherState(TestTempPath("does_not_exist.bws"), subsets_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(StateFileTest, TruncationFailsCleanlyAtEveryBoundary) {
  const std::string content = ReadAll(path_);
  const FirstRegionLayout l = WalkFirstRegion(content);
  // The walked rows record is exactly a spill record of the region's rows.
  const storage::RegionTrainingSet* first = nullptr;
  for (const auto& set : sim_.sets) {
    if (set.num_examples() > 0) {
      first = &set;
      break;
    }
  }
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(l.targets_end - l.rows_start, first->ByteSize());
  ASSERT_LT(l.targets_end, content.size());

  const size_t magic_end = content.find('\n') + 1;
  const size_t size = content.size();
  // Boundaries: empty file, magic line, header, region header, first
  // statistic, rows header, each row array, end marker, and trailer.
  for (size_t cut :
       {size_t{0}, magic_end, magic_end + 20, l.header_end,
        l.region_header_end, l.first_stat_end, l.rows_start,
        l.rows_start + 21, l.items_end, l.features_end, l.targets_end,
        size - 12, size - 8, size - 4, size - 1}) {
    ExpectIoError(content.substr(0, cut), "cut at " + std::to_string(cut));
  }
}

TEST_F(StateFileTest, ByteFlipsNeverCrashTheLoader) {
  // Stronger than "never crash": with the CRC-32C trailer no single-byte
  // change loads. Every byte of the header and first region header is
  // flipped, then a stride through the rest of the file.
  const std::string content = ReadAll(path_);
  const size_t dense_end = content.find('\n') + 1 + 80;
  int flips = 0;
  for (size_t pos = 0; pos < content.size();
       pos += pos < dense_end ? 1 : content.size() / 211 + 1) {
    std::string flipped = content;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x5A);
    WriteAll(path_, flipped);
    auto r = LoadBellwetherState(path_, subsets_);
    EXPECT_FALSE(r.ok()) << "flip at " << pos << " of " << content.size();
    ++flips;
  }
  EXPECT_GT(flips, 250);
}

TEST_F(StateFileTest, RowCountPastTheEndFailsOnTheBoundNotTheChecksum) {
  std::string content = ReadAll(path_);
  std::string refreshed = content;
  RefreshTrailer(&refreshed);
  ASSERT_EQ(refreshed, content);  // the test's CRC matches the writer's
  // 2^25 rows: under the text format's 2^26 count cap, far past the end
  // of this file. The trailer is recomputed, so only the bound catches it.
  const FirstRegionLayout l = WalkFirstRegion(content);
  PatchField<int64_t>(&content, l.rows_start + 8 + 4, int64_t{1} << 25);
  RefreshTrailer(&content);
  WriteAll(path_, content);
  auto r = LoadBellwetherState(path_, subsets_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find("bytes left"), std::string::npos)
      << r.status().ToString();
}

TEST_F(StateFileTest, TrailingBytesAreRejected) {
  const std::string content = ReadAll(path_);
  ExpectIoError(content + std::string(1, '\0'), "one extra byte");
  // Four extra bytes that checksum everything before them: the file is
  // still rejected, because nothing may follow the end marker's trailer.
  std::string extended = content + std::string(4, '\0');
  RefreshTrailer(&extended);
  ExpectIoError(extended, "a second, valid-looking trailer");
}

TEST_F(StateFileTest, FailedSaveKeepsThePreviousFileAndLeavesNoTempFile) {
  // The fault point fires at the start of every artifact body, so a tree
  // and a cube save fail the same way a state save does.
  const std::string tree_path = TestTempPath("failed_save.bwt");
  const std::string cube_path = TestTempPath("failed_save.bwc");
  const BellwetherTree tree = SimTree(sim_);
  const BellwetherCube cube = SimCube(sim_, subsets_);
  ASSERT_TRUE(SaveBellwetherTree(tree, tree_path).ok());
  ASSERT_TRUE(SaveBellwetherCube(cube, cube_path).ok());
  const struct {
    std::string path;
    std::function<Status()> save;
    std::function<bool()> load;
  } artifacts[] = {
      {path_, [&] { return state_->Save(path_); },
       [&] { return LoadBellwetherState(path_, subsets_).ok(); }},
      {tree_path, [&] { return SaveBellwetherTree(tree, tree_path); },
       [&] { return LoadBellwetherTree(tree_path, sim_.items).ok(); }},
      {cube_path, [&] { return SaveBellwetherCube(cube, cube_path); },
       [&] { return LoadBellwetherCube(cube_path, subsets_).ok(); }},
  };
  for (const auto& artifact : artifacts) {
    const std::string before = ReadAll(artifact.path);
    {
      ScopedFaults faults("artifact.write:io@1");
      const Status st = artifact.save();
      ASSERT_FALSE(st.ok()) << artifact.path;
      EXPECT_EQ(st.code(), StatusCode::kIoError) << artifact.path;
    }
    EXPECT_EQ(ReadAll(artifact.path), before) << artifact.path;
    EXPECT_TRUE(artifact.load()) << artifact.path;
    const std::filesystem::path target(artifact.path);
    const std::string tmp_prefix = target.filename().string() + ".tmp";
    for (const auto& entry :
         std::filesystem::directory_iterator(target.parent_path())) {
      EXPECT_NE(entry.path().filename().string().rfind(tmp_prefix, 0), 0u)
          << "leftover temp file " << entry.path();
    }
  }
  std::remove(tree_path.c_str());
  std::remove(cube_path.c_str());
}

}  // namespace
}  // namespace bellwether::core
