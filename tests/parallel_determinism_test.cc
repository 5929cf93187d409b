// The determinism contract of the parallel execution layer
// (docs/PERFORMANCE.md): for every thread count — including
// hardware_concurrency — the basic search, the RainForest tree, and the
// single-scan cube produce artifacts bit-identical to the serial build;
// the same holds with deterministic faults armed, a failed scan returns its
// error at every thread count, and a state saved by a parallel build and
// killed mid-batch resumes at any thread count.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/basic_search.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_state.h"
#include "core/bellwether_tree.h"
#include "core/model_io.h"
#include "datagen/simulation.h"
#include "robust/fault_injection.h"
#include "storage/retrying_source.h"
#include "storage/training_data.h"
#include "test_util.h"

namespace bellwether::core {
namespace {

// 0 resolves to hardware_concurrency.
const int32_t kThreadCounts[] = {1, 2, 4, 0};

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

void ExpectSearchIdentical(const BasicSearchResult& got,
                           const BasicSearchResult& want) {
  EXPECT_EQ(got.bellwether, want.bellwether);
  EXPECT_EQ(got.bellwether_index, want.bellwether_index);
  EXPECT_EQ(got.error.rmse, want.error.rmse);
  EXPECT_EQ(got.model.beta(), want.model.beta());
  EXPECT_EQ(got.model_degradation, want.model_degradation);
  ASSERT_EQ(got.scores.size(), want.scores.size());
  for (size_t i = 0; i < want.scores.size(); ++i) {
    EXPECT_EQ(got.scores[i].region, want.scores[i].region) << "score " << i;
    EXPECT_EQ(got.scores[i].source_index, want.scores[i].source_index);
    EXPECT_EQ(got.scores[i].usable, want.scores[i].usable);
    EXPECT_EQ(got.scores[i].num_examples, want.scores[i].num_examples);
    if (want.scores[i].usable) {
      EXPECT_EQ(got.scores[i].error.rmse, want.scores[i].error.rmse)
          << "score " << i;
    }
  }
  // Logical telemetry is part of the contract (scan_seconds is wall time
  // and exempt).
  EXPECT_EQ(got.telemetry.regions_enumerated,
            want.telemetry.regions_enumerated);
  EXPECT_EQ(got.telemetry.regions_scored, want.telemetry.regions_scored);
  EXPECT_EQ(got.telemetry.skipped_min_examples,
            want.telemetry.skipped_min_examples);
  EXPECT_EQ(got.telemetry.model_fit_failures,
            want.telemetry.model_fit_failures);
  EXPECT_EQ(got.telemetry.rows_scanned, want.telemetry.rows_scanned);
}

void ExpectTreesIdentical(const BellwetherTree& got,
                          const BellwetherTree& want) {
  ASSERT_EQ(got.nodes().size(), want.nodes().size());
  for (size_t i = 0; i < want.nodes().size(); ++i) {
    const TreeNode& a = got.nodes()[i];
    const TreeNode& b = want.nodes()[i];
    EXPECT_EQ(a.depth, b.depth) << "node " << i;
    EXPECT_EQ(a.num_items, b.num_items) << "node " << i;
    EXPECT_EQ(a.has_model, b.has_model) << "node " << i;
    EXPECT_EQ(a.region, b.region) << "node " << i;
    EXPECT_EQ(a.error, b.error) << "node " << i;
    EXPECT_EQ(a.model.beta(), b.model.beta()) << "node " << i;
    EXPECT_EQ(a.degradation, b.degradation) << "node " << i;
    EXPECT_EQ(a.goodness, b.goodness) << "node " << i;
    EXPECT_EQ(a.children, b.children) << "node " << i;
    EXPECT_EQ(a.split.column, b.split.column) << "node " << i;
    EXPECT_EQ(a.split.is_numeric, b.split.is_numeric) << "node " << i;
    EXPECT_EQ(a.split.threshold, b.split.threshold) << "node " << i;
  }
  EXPECT_EQ(got.build_telemetry().data_passes,
            want.build_telemetry().data_passes);
  EXPECT_EQ(got.build_telemetry().candidates_evaluated,
            want.build_telemetry().candidates_evaluated);
  EXPECT_EQ(got.build_telemetry().suff_stats_peak,
            want.build_telemetry().suff_stats_peak);
  EXPECT_EQ(got.build_telemetry().levels, want.build_telemetry().levels);
}

void ExpectCubesIdentical(const BellwetherCube& got,
                          const BellwetherCube& want) {
  ASSERT_EQ(got.cells().size(), want.cells().size());
  for (size_t i = 0; i < want.cells().size(); ++i) {
    const CubeCell& a = got.cells()[i];
    const CubeCell& b = want.cells()[i];
    EXPECT_EQ(a.subset, b.subset) << "cell " << i;
    EXPECT_EQ(a.subset_size, b.subset_size) << "cell " << i;
    EXPECT_EQ(a.has_model, b.has_model) << "cell " << i;
    EXPECT_EQ(a.region, b.region) << "cell " << i;
    EXPECT_EQ(a.error, b.error) << "cell " << i;
    EXPECT_EQ(a.model.beta(), b.model.beta()) << "cell " << i;
    EXPECT_EQ(a.degradation, b.degradation) << "cell " << i;
    EXPECT_EQ(a.fallback_pick, b.fallback_pick) << "cell " << i;
    EXPECT_EQ(a.has_cv, b.has_cv) << "cell " << i;
    if (b.has_cv) {
      EXPECT_EQ(a.cv.rmse, b.cv.rmse) << "cell " << i;
    }
  }
  EXPECT_EQ(got.build_telemetry().data_passes,
            want.build_telemetry().data_passes);
  EXPECT_EQ(got.build_telemetry().significant_subsets,
            want.build_telemetry().significant_subsets);
  EXPECT_EQ(got.build_telemetry().fallback_picks,
            want.build_telemetry().fallback_picks);
}

// ---- Basic search ----

TEST(ParallelDeterminismTest, SearchBitIdenticalAcrossThreadCounts) {
  datagen::SimulationDataset sim = MakeSim(41);
  BasicSearchOptions options;  // cross-validated errors: exercises the RNG
  storage::MemoryTrainingData serial_src(sim.sets);
  auto serial = RunBasicBellwetherSearch(&serial_src, options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(serial->found());

  for (int32_t threads : kThreadCounts) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    BasicSearchOptions par = options;
    par.exec.num_threads = threads;
    storage::MemoryTrainingData src(sim.sets);
    auto result = RunBasicBellwetherSearch(&src, par);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSearchIdentical(*result, *serial);
    // The logical scan count is independent of the thread count.
    EXPECT_EQ(src.io_stats().sequential_scans, 1);
  }
}

// ---- RainForest tree ----

TEST(ParallelDeterminismTest, TreeBitIdenticalAcrossThreadCounts) {
  datagen::SimulationDataset sim = MakeSim(43);
  TreeBuildConfig config;
  config.split_columns = sim.feature_columns;
  config.min_items = 25;
  config.max_depth = 4;
  config.min_examples_per_model = 8;

  storage::MemoryTrainingData serial_src(sim.sets);
  auto serial = BuildBellwetherTreeRainForest(&serial_src, sim.items, config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial->nodes().size(), 1u) << "want a tree that actually splits";

  for (int32_t threads : kThreadCounts) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    TreeBuildConfig par = config;
    par.exec.num_threads = threads;
    storage::MemoryTrainingData src(sim.sets);
    auto tree = BuildBellwetherTreeRainForest(&src, sim.items, par);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ExpectTreesIdentical(*tree, *serial);
    // Lemma 1 telemetry: one scan per level, regardless of thread count.
    EXPECT_EQ(src.io_stats().sequential_scans,
              tree->build_telemetry().data_passes);
  }
}

// ---- Single-scan cube ----

TEST(ParallelDeterminismTest, CubeBitIdenticalAcrossThreadCounts) {
  datagen::SimulationDataset sim = MakeSim(45);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  CubeBuildConfig config;
  config.min_subset_size = 20;
  config.min_examples_per_model = 8;

  storage::MemoryTrainingData serial_src(sim.sets);
  auto serial = BuildBellwetherCubeSingleScan(&serial_src, *subsets, config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_FALSE(serial->cells().empty());

  for (int32_t threads : kThreadCounts) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    CubeBuildConfig par = config;
    par.exec.num_threads = threads;
    storage::MemoryTrainingData src(sim.sets);
    auto cube = BuildBellwetherCubeSingleScan(&src, *subsets, par);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    ExpectCubesIdentical(*cube, *serial);
    // Lemma 2 telemetry: exactly one scan, regardless of thread count.
    EXPECT_EQ(cube->build_telemetry().data_passes, 1);
  }
}

// ---- A failing scan ----

// Delivers the wrapped sets, but fails with kIoError once `fail_after` sets
// have been delivered in total, counted across all of its scans.
class FailingScanSource final : public storage::TrainingDataSource {
 public:
  FailingScanSource(std::vector<storage::RegionTrainingSet> sets,
                    int64_t fail_after)
      : inner_(std::move(sets)), fail_after_(fail_after) {}

  size_t num_region_sets() const override { return inner_.num_region_sets(); }
  Status Scan(const std::function<Status(const storage::RegionTrainingSet&)>&
                  fn) override {
    return inner_.Scan([&](const storage::RegionTrainingSet& set) -> Status {
      if (delivered_ == fail_after_) {
        return Status::IoError("scan failed after " +
                               std::to_string(fail_after_) + " sets");
      }
      ++delivered_;
      return fn(set);
    });
  }
  Result<storage::RegionTrainingSet> Read(size_t index) override {
    return inner_.Read(index);
  }
  std::vector<olap::RegionId> RegionIds() override {
    return inner_.RegionIds();
  }

 private:
  storage::MemoryTrainingData inner_;
  const int64_t fail_after_;
  int64_t delivered_ = 0;
};

TEST(ParallelDeterminismTest, FailedScanReturnsItsErrorAcrossThreadCounts) {
  datagen::SimulationDataset sim = MakeSim(47);
  const int64_t num_sets = static_cast<int64_t>(sim.sets.size());
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  TreeBuildConfig tree_config;
  tree_config.split_columns = sim.feature_columns;
  tree_config.min_items = 25;
  tree_config.max_depth = 4;
  tree_config.min_examples_per_model = 8;
  CubeBuildConfig cube_config;
  cube_config.min_subset_size = 20;
  cube_config.min_examples_per_model = 8;

  storage::MemoryTrainingData tree_src(sim.sets);
  auto serial_tree =
      BuildBellwetherTreeRainForest(&tree_src, sim.items, tree_config);
  ASSERT_TRUE(serial_tree.ok()) << serial_tree.status().ToString();
  ASSERT_GT(serial_tree->build_telemetry().data_passes, 1)
      << "the failure must fall past the tree's first level";
  storage::MemoryTrainingData cube_src(sim.sets);
  auto serial_cube =
      BuildBellwetherCubeSingleScan(&cube_src, *subsets, cube_config);
  ASSERT_TRUE(serial_cube.ok()) << serial_cube.status().ToString();

  for (int32_t threads : kThreadCounts) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    // The tree fails inside its second level's scan, with the first level's
    // splits applied and regions of the second still in flight.
    TreeBuildConfig tree_par = tree_config;
    tree_par.exec.num_threads = threads;
    const int64_t tree_fail_after = num_sets + num_sets / 2;
    FailingScanSource failing_tree_src(sim.sets, tree_fail_after);
    auto failed_tree =
        BuildBellwetherTreeRainForest(&failing_tree_src, sim.items, tree_par);
    ASSERT_FALSE(failed_tree.ok());
    EXPECT_EQ(failed_tree.status().code(), StatusCode::kIoError);
    EXPECT_EQ(failed_tree.status().message(),
              "scan failed after " + std::to_string(tree_fail_after) +
                  " sets");

    // The cube fails halfway through its one scan.
    CubeBuildConfig cube_par = cube_config;
    cube_par.exec.num_threads = threads;
    const int64_t cube_fail_after = num_sets / 2;
    FailingScanSource failing_cube_src(sim.sets, cube_fail_after);
    auto failed_cube =
        BuildBellwetherCubeSingleScan(&failing_cube_src, *subsets, cube_par);
    ASSERT_FALSE(failed_cube.ok());
    EXPECT_EQ(failed_cube.status().code(), StatusCode::kIoError);
    EXPECT_EQ(failed_cube.status().message(),
              "scan failed after " + std::to_string(cube_fail_after) +
                  " sets");

    // Clean rebuilds after the failures still match the serial artifacts.
    storage::MemoryTrainingData clean_tree_src(sim.sets);
    auto tree = BuildBellwetherTreeRainForest(&clean_tree_src, sim.items,
                                              tree_par);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ExpectTreesIdentical(*tree, *serial_tree);
    storage::MemoryTrainingData clean_cube_src(sim.sets);
    auto cube =
        BuildBellwetherCubeSingleScan(&clean_cube_src, *subsets, cube_par);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    ExpectCubesIdentical(*cube, *serial_cube);
  }
}

// ---- Determinism with faults armed ----

TEST(ParallelDeterminismTest, SearchIdenticalUnderFaultsAcrossThreadCounts) {
  datagen::SimulationDataset sim = MakeSim(47);
  BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kTrainingSet;
  storage::MemoryTrainingData clean_src(sim.sets);
  auto clean = RunBasicBellwetherSearch(&clean_src, options);
  ASSERT_TRUE(clean.ok());

  for (int32_t threads : kThreadCounts) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    BasicSearchOptions par = options;
    par.exec.num_threads = threads;
    storage::MemoryTrainingData inner(sim.sets);
    storage::RetryPolicy policy;
    policy.sleep_fn = [](int64_t) {};
    storage::RetryingTrainingDataSource source(&inner, policy);
    // Fault triggers fire on logical arrival counts at the scan, which
    // stays on one thread — so the same faults fire at the same points for
    // every thread count.
    ScopedFaults faults("storage.scan:io@3");
    auto result = RunBasicBellwetherSearch(&source, par);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSearchIdentical(*result, *clean);
    EXPECT_EQ(source.retry_stats().retries, 3);
  }
}

// The bytes of the cube's artifact file.
std::string CubeBytes(const BellwetherCube& cube, const std::string& path) {
  EXPECT_TRUE(SaveBellwetherCube(cube, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

TEST(ParallelDeterminismTest, CubeCrashAndResumeAcrossThreadCounts) {
  datagen::SimulationDataset sim = MakeSim(49);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  CubeBuildConfig base;
  base.min_subset_size = 20;
  base.min_examples_per_model = 8;
  base.compute_cv_stats = false;

  storage::MemoryTrainingData ref_src(sim.sets);
  auto ref = BuildBellwetherCubeSingleScan(&ref_src, *subsets, base);
  ASSERT_TRUE(ref.ok());
  const std::string ref_bytes = CubeBytes(*ref, TestTempPath("ref.bwc"));

  // Batch 1 holds the first half of every region's rows, batch 2 the rest.
  std::vector<storage::RegionTrainingSet> batches[2];
  for (const auto& set : sim.sets) {
    const size_t half = set.num_examples() / 2;
    batches[0].push_back(SliceRows(set, 0, half));
    batches[1].push_back(SliceRows(set, half, set.num_examples()));
  }

  for (int32_t crash_threads : {1, 4}) {
    for (int32_t resume_threads : {1, 4}) {
      SCOPED_TRACE("crash_threads=" + std::to_string(crash_threads) +
                   " resume_threads=" + std::to_string(resume_threads));
      const std::string path = TestTempPath("par_state_resume_") +
                               std::to_string(crash_threads) + "_" +
                               std::to_string(resume_threads) + ".bws";
      {
        BellwetherState::Options options;
        options.config = base;
        options.config.exec.num_threads = crash_threads;
        auto state = BellwetherState::Init(*subsets, options);
        ASSERT_TRUE(state.ok());
        std::vector<storage::RegionTrainingSet> first = batches[0];
        ASSERT_TRUE((*state)->ApplyDelta(std::move(first)).ok());
        ASSERT_TRUE((*state)->Save(path).ok());
        // Kill batch 2 after its first merged region. Crash arrival counts
        // follow the merge order, so the kill lands at the same region
        // whatever thread count runs the batch.
        ScopedFaults faults("state.delta:crash@1");
        std::vector<storage::RegionTrainingSet> second = batches[1];
        const Status st = (*state)->ApplyDelta(std::move(second));
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.code(), StatusCode::kIoError);
      }
      // Reopen the save and re-apply the killed batch.
      auto reopened = BellwetherState::Open(path, *subsets);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      exec::BellwetherExecOptions exec;
      exec.num_threads = resume_threads;
      (*reopened)->set_exec(exec);
      std::vector<storage::RegionTrainingSet> second = batches[1];
      ASSERT_TRUE((*reopened)->ApplyDelta(std::move(second)).ok());
      auto resumed = (*reopened)->Finalize();
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      ExpectCubesIdentical(*resumed, *ref);
      EXPECT_EQ(CubeBytes(*resumed, TestTempPath("resumed.bwc")), ref_bytes);
      std::remove(path.c_str());
    }
  }
}

}  // namespace
}  // namespace bellwether::core
