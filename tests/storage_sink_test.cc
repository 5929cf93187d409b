// TrainingDataSink contract tests: ordering enforcement at Finish(),
// weighted and zero-example round trips through every sink kind, the
// BudgetedSink's mid-stream migration to disk, the peak-resident-bytes
// bound, and the acceptance criterion that a budget smaller than the data
// produces bit-identical search/tree/cube results at any thread count —
// including under injected storage faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/basic_search.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_tree.h"
#include "core/training_data_gen.h"
#include "datagen/mail_order.h"
#include "obs/metrics.h"
#include "robust/fault_injection.h"
#include "storage/retrying_source.h"
#include "storage/training_data.h"
#include "storage/training_data_sink.h"
#include "test_util.h"

namespace bellwether::storage {
namespace {

RegionTrainingSet MakeSet(olap::RegionId region, int64_t n,
                          bool weighted = false) {
  RegionTrainingSet set;
  set.region = region;
  set.num_features = 2;
  for (int64_t i = 0; i < n; ++i) {
    set.items.push_back(static_cast<int32_t>(i));
    set.targets.push_back(static_cast<double>(region) + 0.5 * i);
    set.features.push_back(1.0);
    set.features.push_back(static_cast<double>(region * 10 + i));
    if (weighted) set.weights.push_back(1.0 + i);
  }
  return set;
}

void ExpectSameSets(TrainingDataSource* a, TrainingDataSource* b) {
  ASSERT_EQ(a->num_region_sets(), b->num_region_sets());
  for (size_t i = 0; i < a->num_region_sets(); ++i) {
    auto sa = a->Read(i);
    auto sb = b->Read(i);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    EXPECT_EQ(sa->region, sb->region) << "set " << i;
    EXPECT_EQ(sa->items, sb->items) << "set " << i;
    EXPECT_EQ(sa->features, sb->features) << "set " << i;
    EXPECT_EQ(sa->targets, sb->targets) << "set " << i;
    EXPECT_EQ(sa->weights, sb->weights) << "set " << i;
  }
}

// ---- Ordering invariant enforced at Finish() ----

TEST(SinkOrderingTest, MemorySinkRejectsOutOfOrderAtFinish) {
  MemorySink sink;
  ASSERT_TRUE(sink.Append(MakeSet(5, 3)).ok());
  ASSERT_TRUE(sink.Append(MakeSet(3, 3)).ok());  // violation recorded
  auto source = sink.Finish();
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(source.status().ToString().find("ascending"), std::string::npos);
}

TEST(SinkOrderingTest, DuplicateRegionIsAlsoAViolation) {
  MemorySink sink;
  ASSERT_TRUE(sink.Append(MakeSet(4, 2)).ok());
  ASSERT_TRUE(sink.Append(MakeSet(4, 2)).ok());
  EXPECT_FALSE(sink.Finish().ok());
}

TEST(SinkOrderingTest, SpillSinkRejectsOutOfOrderAtFinish) {
  const std::string path = TestTempPath("sink_order.spill");
  auto sink = SpillSink::Create(path);
  ASSERT_TRUE(sink.ok());
  ASSERT_TRUE((*sink)->Append(MakeSet(7, 2)).ok());
  ASSERT_TRUE((*sink)->Append(MakeSet(2, 2)).ok());
  auto source = (*sink)->Finish();
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(SinkOrderingTest, BudgetedSinkRejectsOutOfOrderAtFinish) {
  const std::string path = TestTempPath("sink_order_budget.spill");
  BudgetedSink sink(/*memory_budget_bytes=*/64, path);
  ASSERT_TRUE(sink.Append(MakeSet(9, 4)).ok());
  ASSERT_TRUE(sink.Append(MakeSet(1, 4)).ok());
  EXPECT_TRUE(sink.spilled());  // migration happened before the check
  EXPECT_FALSE(sink.Finish().ok());
  std::remove(path.c_str());
}

TEST(SinkOrderingTest, AscendingAppendsFinishCleanly) {
  MemorySink sink;
  for (olap::RegionId r : {1, 2, 5, 9}) {
    ASSERT_TRUE(sink.Append(MakeSet(r, 2)).ok());
  }
  EXPECT_EQ(sink.sets_appended(), 4);
  auto source = sink.Finish();
  ASSERT_TRUE(source.ok());
  EXPECT_EQ((*source)->num_region_sets(), 4u);
}

// ---- Weighted and zero-example round trips ----

TEST(SinkRoundTripTest, WeightedSetsSurviveEverySinkKind) {
  std::vector<RegionTrainingSet> ref;
  for (olap::RegionId r : {0, 3, 4}) ref.push_back(MakeSet(r, 3, true));

  MemorySink mem;
  for (const auto& s : ref) ASSERT_TRUE(mem.Append(RegionTrainingSet(s)).ok());
  auto mem_src = mem.Finish();
  ASSERT_TRUE(mem_src.ok());

  const std::string spath = TestTempPath("sink_weighted.spill");
  auto spill = SpillSink::Create(spath);
  ASSERT_TRUE(spill.ok());
  for (const auto& s : ref) {
    ASSERT_TRUE((*spill)->Append(RegionTrainingSet(s)).ok());
  }
  auto spill_src = (*spill)->Finish();
  ASSERT_TRUE(spill_src.ok());

  const std::string bpath = TestTempPath("sink_weighted_b.spill");
  BudgetedSink budgeted(/*memory_budget_bytes=*/1, bpath);
  for (const auto& s : ref) {
    ASSERT_TRUE(budgeted.Append(RegionTrainingSet(s)).ok());
  }
  ASSERT_TRUE(budgeted.spilled());
  auto budget_src = budgeted.Finish();
  ASSERT_TRUE(budget_src.ok());

  ExpectSameSets(mem_src->get(), spill_src->get());
  ExpectSameSets(mem_src->get(), budget_src->get());
  auto back = (*spill_src)->Read(1);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->weighted());
  EXPECT_EQ(back->weights, ref[1].weights);
  std::remove(spath.c_str());
  std::remove(bpath.c_str());
}

TEST(SinkRoundTripTest, ZeroExampleRegionsSurviveEverySinkKind) {
  // Region 2 is feasible but empty; it must round-trip as an empty set, not
  // vanish or corrupt the index.
  std::vector<RegionTrainingSet> ref;
  ref.push_back(MakeSet(1, 2));
  ref.push_back(MakeSet(2, 0));
  ref.push_back(MakeSet(3, 4));

  const std::string spath = TestTempPath("sink_empty.spill");
  auto spill = SpillSink::Create(spath);
  ASSERT_TRUE(spill.ok());
  for (const auto& s : ref) {
    ASSERT_TRUE((*spill)->Append(RegionTrainingSet(s)).ok());
  }
  auto spill_src = (*spill)->Finish();
  ASSERT_TRUE(spill_src.ok());
  ASSERT_EQ((*spill_src)->num_region_sets(), 3u);
  auto empty = (*spill_src)->Read(1);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->region, 2);
  EXPECT_EQ(empty->num_examples(), 0u);

  const std::string bpath = TestTempPath("sink_empty_b.spill");
  BudgetedSink budgeted(/*memory_budget_bytes=*/1, bpath);
  for (const auto& s : ref) {
    ASSERT_TRUE(budgeted.Append(RegionTrainingSet(s)).ok());
  }
  auto budget_src = budgeted.Finish();
  ASSERT_TRUE(budget_src.ok());
  ExpectSameSets(spill_src->get(), budget_src->get());
  std::remove(spath.c_str());
  std::remove(bpath.c_str());
}

// ---- BudgetedSink migration mechanics ----

TEST(BudgetedSinkTest, StaysInMemoryUnderBudget) {
  const std::string path = TestTempPath("sink_nomigrate.spill");
  BudgetedSink sink(/*memory_budget_bytes=*/1 << 20, path);
  for (olap::RegionId r : {1, 2, 3}) {
    ASSERT_TRUE(sink.Append(MakeSet(r, 5)).ok());
  }
  EXPECT_FALSE(sink.spilled());
  EXPECT_GT(sink.resident_bytes(), 0u);
  auto source = sink.Finish();
  ASSERT_TRUE(source.ok());
  // Never exceeded the budget: the result is the in-memory source and no
  // spill file was created.
  EXPECT_NE(dynamic_cast<MemoryTrainingData*>(source->get()), nullptr);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST(BudgetedSinkTest, MigratesMidStreamAndDropsResidency) {
  std::vector<RegionTrainingSet> ref;
  for (olap::RegionId r = 0; r < 8; ++r) ref.push_back(MakeSet(r, 6));
  const size_t two_sets = ref[0].ByteSize() + ref[1].ByteSize();

  const std::string path = TestTempPath("sink_migrate.spill");
  BudgetedSink sink(/*memory_budget_bytes=*/two_sets, path);
  size_t appended = 0;
  for (const auto& s : ref) {
    ASSERT_TRUE(sink.Append(RegionTrainingSet(s)).ok());
    ++appended;
    if (appended <= 2) {
      EXPECT_FALSE(sink.spilled()) << "after " << appended;
    } else {
      // The third set exceeds the budget: everything migrates to disk and
      // the buffer is released.
      EXPECT_TRUE(sink.spilled()) << "after " << appended;
      EXPECT_EQ(sink.resident_bytes(), 0u);
    }
  }
  auto source = sink.Finish();
  ASSERT_TRUE(source.ok());
  EXPECT_NE(dynamic_cast<SpilledTrainingData*>(source->get()), nullptr);

  MemorySink mem;
  for (const auto& s : ref) ASSERT_TRUE(mem.Append(RegionTrainingSet(s)).ok());
  auto mem_src = mem.Finish();
  ASSERT_TRUE(mem_src.ok());
  ExpectSameSets(mem_src->get(), source->get());
  std::remove(path.c_str());
}

TEST(BudgetedSinkTest, PeakResidentGaugeBoundedByBudgetPlusLargestSet) {
  auto* gauge =
      obs::DefaultMetrics().GetGauge(obs::kMDatagenPeakResidentBytes);
  gauge->Reset();

  std::vector<RegionTrainingSet> ref;
  size_t largest = 0;
  for (olap::RegionId r = 0; r < 10; ++r) {
    ref.push_back(MakeSet(r, 4 + (r % 3) * 8));
    largest = std::max(largest, ref.back().ByteSize());
  }
  const size_t budget = ref[0].ByteSize() * 2;
  const std::string path = TestTempPath("sink_peak.spill");
  BudgetedSink sink(budget, path);
  for (auto& s : ref) ASSERT_TRUE(sink.Append(std::move(s)).ok());
  ASSERT_TRUE(sink.spilled());
  ASSERT_TRUE(sink.Finish().ok());

  const double peak = gauge->Value();
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, static_cast<double>(budget + largest));
  std::remove(path.c_str());
}

// ---- Budget < total data is invisible to every downstream consumer ----

class BudgetedPipelineTest : public ::testing::Test {
 protected:
  static core::BellwetherSpec MakeSpecFor(int32_t num_threads) {
    core::BellwetherSpec spec = dataset_->MakeSpec(60.0, 0.5);
    spec.exec.num_threads = num_threads;
    return spec;
  }

  static void SetUpTestSuite() {
    datagen::MailOrderConfig config;
    config.num_items = 120;
    config.density = 1.0;
    config.seed = 4242;
    dataset_ =
        new datagen::MailOrderDataset(datagen::GenerateMailOrder(config));
  }
  static void TearDownTestSuite() { delete dataset_; }

  static datagen::MailOrderDataset* dataset_;
};

datagen::MailOrderDataset* BudgetedPipelineTest::dataset_ = nullptr;

TEST_F(BudgetedPipelineTest, BudgetedRunBitIdenticalAtAnyThreadCount) {
  // Unbudgeted serial reference.
  auto ref = core::GenerateTrainingDataInMemory(MakeSpecFor(1));
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  core::BasicSearchOptions search_options;
  search_options.estimate = regression::ErrorEstimate::kTrainingSet;
  auto ref_search =
      core::RunBasicBellwetherSearch(ref->source.get(), search_options);
  ASSERT_TRUE(ref_search.ok());
  ASSERT_TRUE(ref_search->found());

  core::TreeBuildConfig tree_config;
  tree_config.split_columns = {"Category", "RDExpense"};
  tree_config.min_items = 25;
  tree_config.max_depth = 3;
  tree_config.max_numeric_split_points = 5;
  tree_config.min_examples_per_model = 10;
  auto ref_tree = core::BuildBellwetherTreeRainForest(
      ref->source.get(), dataset_->items, tree_config);
  ASSERT_TRUE(ref_tree.ok());

  auto subsets = core::ItemSubsetSpace::Create(dataset_->items,
                                               dataset_->item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  core::CubeBuildConfig cube_config;
  cube_config.min_subset_size = 20;
  cube_config.min_examples_per_model = 10;
  cube_config.compute_cv_stats = false;
  auto ref_cube = core::BuildBellwetherCubeSingleScan(ref->source.get(),
                                                      *subsets, cube_config);
  ASSERT_TRUE(ref_cube.ok());

  for (int32_t num_threads : {1, 2, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
    const std::string path = TestTempPath("budget_pipeline_") +
                             std::to_string(num_threads) + ".spill";
    // A budget of one set's bytes forces migration almost immediately.
    BudgetedSink sink(/*memory_budget_bytes=*/4096, path);
    auto profile =
        core::GenerateTrainingData(MakeSpecFor(num_threads), &sink);
    ASSERT_TRUE(profile.ok()) << profile.status().ToString();
    ASSERT_TRUE(sink.spilled());
    auto source = sink.Finish();
    ASSERT_TRUE(source.ok());

    // The profile itself is identical.
    EXPECT_EQ(profile->targets, ref->profile.targets);
    EXPECT_EQ(profile->region_costs, ref->profile.region_costs);
    EXPECT_EQ(profile->feasible.regions, ref->profile.feasible.regions);

    // Search: same bellwether, error, model, and telemetry scan counts.
    auto search =
        core::RunBasicBellwetherSearch(source->get(), search_options);
    ASSERT_TRUE(search.ok());
    EXPECT_EQ(search->bellwether, ref_search->bellwether);
    EXPECT_EQ(search->error.rmse, ref_search->error.rmse);
    EXPECT_EQ(search->model.beta(), ref_search->model.beta());
    EXPECT_EQ(search->telemetry.rows_scanned,
              ref_search->telemetry.rows_scanned);
    EXPECT_EQ(search->telemetry.regions_enumerated,
              ref_search->telemetry.regions_enumerated);

    // Tree: identical structure, regions, models.
    auto tree = core::BuildBellwetherTreeRainForest(
        source->get(), dataset_->items, tree_config);
    ASSERT_TRUE(tree.ok());
    ASSERT_EQ(tree->nodes().size(), ref_tree->nodes().size());
    for (size_t i = 0; i < tree->nodes().size(); ++i) {
      EXPECT_EQ(tree->nodes()[i].region, ref_tree->nodes()[i].region);
      EXPECT_EQ(tree->nodes()[i].error, ref_tree->nodes()[i].error);
      EXPECT_EQ(tree->nodes()[i].model.beta(),
                ref_tree->nodes()[i].model.beta());
      EXPECT_EQ(tree->nodes()[i].children, ref_tree->nodes()[i].children);
    }

    // Cube: identical cells and picks.
    auto cube = core::BuildBellwetherCubeSingleScan(source->get(), *subsets,
                                                    cube_config);
    ASSERT_TRUE(cube.ok());
    ASSERT_EQ(cube->cells().size(), ref_cube->cells().size());
    for (size_t i = 0; i < cube->cells().size(); ++i) {
      EXPECT_EQ(cube->cells()[i].region, ref_cube->cells()[i].region);
      EXPECT_EQ(cube->cells()[i].error, ref_cube->cells()[i].error);
      EXPECT_EQ(cube->cells()[i].model.beta(),
                ref_cube->cells()[i].model.beta());
      EXPECT_EQ(cube->cells()[i].fallback_pick,
                ref_cube->cells()[i].fallback_pick);
    }
    std::remove(path.c_str());
  }
}

TEST_F(BudgetedPipelineTest, SpilledSourceSurvivesScanFaultsAndResumes) {
  // Generate through a BudgetedSink that migrates mid-stream, then drive
  // the spilled source through transient storage.scan faults behind the
  // retrying wrapper: the scan resumes after each retry, and the search
  // result is identical to the clean in-memory run.
  auto ref = core::GenerateTrainingDataInMemory(MakeSpecFor(1));
  ASSERT_TRUE(ref.ok());

  const std::string path = TestTempPath("budget_faulted.spill");
  BudgetedSink sink(/*memory_budget_bytes=*/4096, path);
  auto profile = core::GenerateTrainingData(MakeSpecFor(1), &sink);
  ASSERT_TRUE(profile.ok());
  ASSERT_TRUE(sink.spilled());
  auto source = sink.Finish();
  ASSERT_TRUE(source.ok());

  core::BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kTrainingSet;
  auto clean = core::RunBasicBellwetherSearch(ref->source.get(), options);
  ASSERT_TRUE(clean.ok());

  {
    RetryPolicy policy;
    policy.sleep_fn = [](int64_t) {};
    RetryingTrainingDataSource retrying(source->get(), policy);
    ScopedFaults faults("storage.scan:io@2");
    auto faulted = core::RunBasicBellwetherSearch(&retrying, options);
    ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
    EXPECT_EQ(faulted->bellwether, clean->bellwether);
    EXPECT_EQ(faulted->error.rmse, clean->error.rmse);
    EXPECT_EQ(retrying.retry_stats().retries, 2);
  }

  std::remove(path.c_str());
}

// ---- Arena shell accounting on sink error paths ----

TEST(BudgetedSinkTest, ArenaBalancesAfterInjectedSpillFault) {
  std::vector<RegionTrainingSet> ref;
  for (olap::RegionId r = 0; r < 3; ++r) ref.push_back(MakeSet(r, 6));
  const size_t budget = ref[0].ByteSize() + ref[1].ByteSize();

  auto* releases = obs::DefaultMetrics().GetCounter(obs::kMArenaReleases);
  const int64_t releases_before = releases->Value();

  const std::string path = TestTempPath("sink_fault.spill");
  BudgetedSink sink(budget, path);
  ASSERT_TRUE(sink.Append(RegionTrainingSet(ref[0])).ok());
  ASSERT_TRUE(sink.Append(RegionTrainingSet(ref[1])).ok());
  EXPECT_FALSE(sink.spilled());
  {
    // The third set exceeds the budget and triggers the migration; its very
    // first spill write fails. Every shell the sink holds — the two
    // buffered sets and the incoming one — must go back to the arena, not
    // die with the abandoned sink.
    ScopedFaults faults("storage.spill:io@1");
    const Status st = sink.Append(RegionTrainingSet(ref[2]));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIoError);
  }
  EXPECT_EQ(sink.resident_bytes(), 0u);
  EXPECT_EQ(releases->Value() - releases_before, 3);
  std::remove(path.c_str());
}

TEST(BudgetedSinkTest, ArenaBalancesWhenSpillFileCannotBeCreated) {
  std::vector<RegionTrainingSet> ref;
  for (olap::RegionId r = 0; r < 2; ++r) ref.push_back(MakeSet(r, 6));

  auto* releases = obs::DefaultMetrics().GetCounter(obs::kMArenaReleases);
  const int64_t releases_before = releases->Value();

  // A spill path inside a directory that does not exist: migration fails at
  // SpillFileWriter::Create, before any buffered set is written.
  BudgetedSink sink(/*memory_budget_bytes=*/ref[0].ByteSize(),
                    TestTempPath("no_such_dir") + "/sink.spill");
  ASSERT_TRUE(sink.Append(RegionTrainingSet(ref[0])).ok());
  const Status st = sink.Append(RegionTrainingSet(ref[1]));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(sink.resident_bytes(), 0u);
  EXPECT_EQ(releases->Value() - releases_before, 2);
}

}  // namespace
}  // namespace bellwether::storage
