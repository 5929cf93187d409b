// End-to-end resilience of the bellwether pipeline under deterministic fault
// injection (the acceptance scenarios of the robustness work):
//   (a) transient storage failures are retried and the search result is
//       bit-identical to a clean run, with the retries visible in metrics;
//   (b) corrupt fact rows are quarantined — counters match the injected
//       corruption exactly — and the bellwether equals the one computed on
//       the clean subset of the data;
//   (c) the Lemma 1/2 scan-count telemetry still holds under retries.
// A killed cube build resumes from a saved BellwetherState
// (state_delta_test, parallel_determinism_test).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/basic_search.h"
#include "core/bellwether_cube.h"
#include "core/training_data_gen.h"
#include "datagen/mail_order.h"
#include "datagen/simulation.h"
#include "obs/metrics.h"
#include "robust/fault_injection.h"
#include "storage/retrying_source.h"
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

datagen::MailOrderDataset MakeMailOrder() {
  datagen::MailOrderConfig config;
  config.num_items = 120;
  config.density = 1.2;
  config.seed = 5;
  return datagen::GenerateMailOrder(config);
}

// ---- (a) + (c): basic search under transient scan failures ----

TEST(FaultPipelineTest, BasicSearchIdenticalUnderScanRetries) {
  datagen::SimulationDataset sim = MakeSim(31);
  storage::MemoryTrainingData clean_src(sim.sets);
  storage::MemoryTrainingData faulty_inner(sim.sets);

  BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kTrainingSet;
  auto clean = RunBasicBellwetherSearch(&clean_src, options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_TRUE(clean->found());

  storage::RetryPolicy policy;
  policy.sleep_fn = [](int64_t) {};
  storage::RetryingTrainingDataSource source(&faulty_inner, policy);
  const int64_t retries_before =
      obs::DefaultMetrics().GetCounter(obs::kMStorageRetries)->Value();

  ScopedFaults faults("storage.scan:io@3");
  auto faulted = RunBasicBellwetherSearch(&source, options);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();

  // Bit-identical result despite three injected transient failures.
  EXPECT_EQ(faulted->bellwether, clean->bellwether);
  EXPECT_EQ(faulted->error.rmse, clean->error.rmse);
  ASSERT_EQ(faulted->model.beta().size(), clean->model.beta().size());
  for (size_t j = 0; j < clean->model.beta().size(); ++j) {
    EXPECT_EQ(faulted->model.beta()[j], clean->model.beta()[j]);
  }
  EXPECT_EQ(faulted->model_degradation, regression::FitDegradation::kNone);

  // The metrics registry recorded exactly the injected retries.
  EXPECT_EQ(source.retry_stats().retries, 3);
  EXPECT_EQ(obs::DefaultMetrics().GetCounter(obs::kMStorageRetries)->Value() -
                retries_before,
            3);

  // (c) Lemma telemetry: the wrapper reports one logical scan while the
  // inner source did 1 + 3 physical attempts.
  EXPECT_EQ(source.io_stats().sequential_scans, 1);
  EXPECT_EQ(faulty_inner.io_stats().sequential_scans, 4);
}

// ---- (b): row quarantine with an unchanged clean-subset bellwether ----

void ExpectSetsEqual(const std::vector<storage::RegionTrainingSet>& a,
                     const std::vector<storage::RegionTrainingSet>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].region, b[i].region) << "set " << i;
    EXPECT_EQ(a[i].items, b[i].items) << "set " << i;
    EXPECT_EQ(a[i].features, b[i].features) << "set " << i;
    EXPECT_EQ(a[i].targets, b[i].targets) << "set " << i;
    EXPECT_EQ(a[i].weights, b[i].weights) << "set " << i;
  }
}

TEST(FaultPipelineTest, QuarantinedRowsMatchInjectionAndCleanSubset) {
  datagen::MailOrderDataset db = MakeMailOrder();
  const BellwetherSpec spec = db.MakeSpec(/*budget=*/60.0,
                                          /*min_coverage=*/0.5);
  ASSERT_EQ(spec.row_policy, robust::RowErrorPolicy::kPermissive);
  const int64_t metric_before =
      obs::DefaultMetrics().GetCounter(obs::kMDatagenRowsQuarantined)->Value();

  constexpr int kCorrupt = 3;
  Result<GeneratedTrainingData> faulted = Status::IoError("not yet run");
  {
    ScopedFaults faults("datagen.row:corrupt@" + std::to_string(kCorrupt));
    faulted = GenerateTrainingDataInMemory(spec);
  }
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  // Quarantine counters equal the injected corruption exactly.
  EXPECT_EQ(faulted->profile.row_quarantine.rows_quarantined, kCorrupt);
  EXPECT_EQ(faulted->profile.row_quarantine.rows_seen,
            static_cast<int64_t>(db.fact.num_rows()));
  ASSERT_FALSE(faulted->profile.row_quarantine.sample_errors.empty());
  EXPECT_NE(faulted->profile.row_quarantine.sample_errors[0].find(
                "injected corrupt row"),
            std::string::npos);
  EXPECT_EQ(obs::DefaultMetrics()
                    .GetCounter(obs::kMDatagenRowsQuarantined)
                    ->Value() -
                metric_before,
            kCorrupt);

  // The count trigger corrupts exactly the first kCorrupt fact rows, so the
  // clean subset is the fact table without them.
  table::Table trimmed(db.fact.schema());
  std::vector<table::Value> row(db.fact.num_columns());
  for (size_t r = kCorrupt; r < db.fact.num_rows(); ++r) {
    for (size_t c = 0; c < db.fact.num_columns(); ++c) {
      row[c] = db.fact.ValueAt(r, c);
    }
    trimmed.AppendRow(row);
  }
  BellwetherSpec clean_spec = spec;
  clean_spec.fact = &trimmed;
  auto clean = GenerateTrainingDataInMemory(clean_spec);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean->profile.row_quarantine.rows_quarantined, 0);

  // Identical training data...
  EXPECT_EQ(faulted->profile.targets, clean->profile.targets);
  ExpectSetsEqual(*faulted->memory_sets(), *clean->memory_sets());

  // ...and therefore an identical bellwether.
  storage::TrainingDataSource& faulted_src = *faulted->source;
  storage::TrainingDataSource& clean_src = *clean->source;
  BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kTrainingSet;
  auto a = RunBasicBellwetherSearch(&faulted_src, options);
  auto b = RunBasicBellwetherSearch(&clean_src, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->bellwether, b->bellwether);
  EXPECT_EQ(a->error.rmse, b->error.rmse);
}

TEST(FaultPipelineTest, StrictPolicyFailsNamingTheRow) {
  datagen::MailOrderDataset db = MakeMailOrder();
  BellwetherSpec spec = db.MakeSpec(60.0, 0.5);
  spec.row_policy = robust::RowErrorPolicy::kStrict;
  ScopedFaults faults("datagen.row:corrupt@1");
  auto data = GenerateTrainingDataInMemory(spec);
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(data.status().ToString().find("fact row 0"), std::string::npos);
}

TEST(FaultPipelineTest, ProbabilisticCorruptionCompletesWithExactCounters) {
  datagen::MailOrderDataset db = MakeMailOrder();
  const BellwetherSpec spec = db.MakeSpec(60.0, 0.5);
  robust::FaultRegistry::Default().set_seed(2026);
  ScopedFaults faults("datagen.row:corrupt@0.02");
  auto data = GenerateTrainingDataInMemory(spec);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const int64_t injected =
      robust::FaultRegistry::Default().fires(robust::kFaultDatagenRow);
  EXPECT_GT(injected, 0);  // ~2% of a >1000-row fact table
  EXPECT_EQ(data->profile.row_quarantine.rows_quarantined, injected);
  // The pipeline still produces a usable bellwether.
  storage::TrainingDataSource& source = *data->source;
  BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kTrainingSet;
  auto result = RunBasicBellwetherSearch(&source, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->found());
}

// ---- (c) continued: single-scan cube telemetry under retries ----

TEST(FaultPipelineTest, SingleScanCubeIdenticalUnderRetries) {
  datagen::SimulationDataset sim = MakeSim(33);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  CubeBuildConfig config;
  config.min_subset_size = 20;
  config.min_examples_per_model = 8;
  config.compute_cv_stats = false;

  storage::MemoryTrainingData clean_src(sim.sets);
  auto clean = BuildBellwetherCubeSingleScan(&clean_src, *subsets, config);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  storage::MemoryTrainingData faulty_inner(sim.sets);
  storage::RetryPolicy policy;
  policy.sleep_fn = [](int64_t) {};
  storage::RetryingTrainingDataSource source(&faulty_inner, policy);
  ScopedFaults faults("storage.scan:io@2");
  auto faulted = BuildBellwetherCubeSingleScan(&source, *subsets, config);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();

  // Lemma 2 telemetry holds at the wrapper: one logical pass.
  EXPECT_EQ(faulted->build_telemetry().data_passes, 1);
  EXPECT_EQ(source.io_stats().sequential_scans, 1);
  EXPECT_EQ(source.retry_stats().retries, 2);

  ASSERT_EQ(faulted->cells().size(), clean->cells().size());
  for (size_t i = 0; i < clean->cells().size(); ++i) {
    EXPECT_EQ(faulted->cells()[i].subset, clean->cells()[i].subset);
    EXPECT_EQ(faulted->cells()[i].region, clean->cells()[i].region);
    EXPECT_EQ(faulted->cells()[i].error, clean->cells()[i].error);
    EXPECT_EQ(faulted->cells()[i].model.beta(), clean->cells()[i].model.beta());
  }
}

}  // namespace
}  // namespace bellwether::core
