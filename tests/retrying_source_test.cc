// RetryingTrainingDataSource under deterministic fault injection: transient
// scan/read failures are retried with bounded exponential backoff, records
// are delivered exactly once in order, and a retried scan still counts as
// one logical sequential scan (the Lemma 1/2 telemetry contract).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/simulation.h"
#include "obs/metrics.h"
#include "robust/fault_injection.h"
#include "storage/retrying_source.h"
#include "storage/training_data.h"
#include "test_util.h"

namespace bellwether::storage {
namespace {

datagen::SimulationDataset MakeSim(uint64_t seed) {
  datagen::SimulationConfig config;
  config.num_items = 120;
  config.generator_tree_nodes = 7;
  config.noise = 0.2;
  config.num_windows = 2;
  config.location_fanouts = {2, 2};
  config.seed = seed;
  return datagen::GenerateSimulation(config);
}

std::vector<olap::RegionId> ScanRegions(TrainingDataSource* source,
                                        Status* out_status = nullptr) {
  std::vector<olap::RegionId> regions;
  const Status st = source->Scan([&](const RegionTrainingSet& s) -> Status {
    regions.push_back(s.region);
    return Status::OK();
  });
  if (out_status != nullptr) *out_status = st;
  return regions;
}

int64_t RetriesMetric() {
  return obs::DefaultMetrics().GetCounter(obs::kMStorageRetries)->Value();
}

TEST(RetryingSourceTest, CleanScanIsPassThrough) {
  datagen::SimulationDataset sim = MakeSim(21);
  MemoryTrainingData inner(sim.sets);
  MemoryTrainingData direct(sim.sets);
  RetryingTrainingDataSource source(&inner);
  Status st;
  const auto wrapped = ScanRegions(&source, &st);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(wrapped, ScanRegions(&direct));
  EXPECT_EQ(source.retry_stats().retries, 0);
  EXPECT_EQ(source.io_stats().sequential_scans, 1);
  EXPECT_EQ(inner.io_stats().sequential_scans, 1);
}

TEST(RetryingSourceTest, ScanSucceedsAfterTransientFailures) {
  datagen::SimulationDataset sim = MakeSim(22);
  MemoryTrainingData inner(sim.sets);
  MemoryTrainingData clean(sim.sets);
  std::vector<int64_t> sleeps;
  RetryPolicy policy;
  policy.sleep_fn = [&](int64_t micros) { sleeps.push_back(micros); };
  RetryingTrainingDataSource source(&inner, policy);

  const int64_t retries_before = RetriesMetric();
  ScopedFaults faults("storage.scan:io@2");
  Status st;
  const auto regions = ScanRegions(&source, &st);
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Exactly-once, in-order delivery despite two physical restarts.
  EXPECT_EQ(regions, ScanRegions(&clean));
  EXPECT_EQ(source.retry_stats().retries, 2);
  EXPECT_EQ(source.retry_stats().exhaustions, 0);
  EXPECT_EQ(sleeps.size(), 2u);
  // The wrapper reports ONE logical scan; the inner source exposes the three
  // physical attempts.
  EXPECT_EQ(source.io_stats().sequential_scans, 1);
  EXPECT_EQ(inner.io_stats().sequential_scans, 3);
  // Retries were mirrored into the metrics registry.
  EXPECT_EQ(RetriesMetric() - retries_before, 2);
}

TEST(RetryingSourceTest, BackoffGrowsAndIsCapped) {
  datagen::SimulationDataset sim = MakeSim(23);
  MemoryTrainingData inner(sim.sets);
  std::vector<int64_t> sleeps;
  RetryPolicy policy;
  policy.initial_backoff_micros = 1000;
  policy.multiplier = 10.0;
  policy.max_backoff_micros = 5000;
  policy.jitter = 0.0;
  policy.sleep_fn = [&](int64_t micros) { sleeps.push_back(micros); };
  RetryingTrainingDataSource source(&inner, policy);

  ScopedFaults faults("storage.scan:io@3");
  Status st;
  ScanRegions(&source, &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(sleeps.size(), 3u);
  EXPECT_EQ(sleeps[0], 1000);
  EXPECT_EQ(sleeps[1], 5000);  // 10000 capped at max_backoff_micros
  EXPECT_EQ(sleeps[2], 5000);
}

TEST(RetryingSourceTest, JitterStaysWithinBand) {
  datagen::SimulationDataset sim = MakeSim(24);
  MemoryTrainingData inner(sim.sets);
  std::vector<int64_t> sleeps;
  RetryPolicy policy;
  policy.max_retries = 5;
  policy.initial_backoff_micros = 10000;
  policy.multiplier = 1.0;
  policy.jitter = 0.25;
  policy.sleep_fn = [&](int64_t micros) { sleeps.push_back(micros); };
  RetryingTrainingDataSource source(&inner, policy);

  ScopedFaults faults("storage.scan:io@5");
  Status st;
  ScanRegions(&source, &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(sleeps.size(), 5u);
  for (int64_t s : sleeps) {
    EXPECT_GE(s, 7500);
    EXPECT_LE(s, 12500);
  }
}

TEST(RetryingSourceTest, ExhaustionPropagatesIoError) {
  datagen::SimulationDataset sim = MakeSim(25);
  MemoryTrainingData inner(sim.sets);
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.sleep_fn = [](int64_t) {};
  RetryingTrainingDataSource source(&inner, policy);

  const int64_t exhausted_before =
      obs::DefaultMetrics().GetCounter(obs::kMStorageRetryExhausted)->Value();
  ScopedFaults faults("storage.scan:io@100");
  Status st;
  ScanRegions(&source, &st);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(source.retry_stats().retries, 2);
  EXPECT_EQ(source.retry_stats().exhaustions, 1);
  EXPECT_EQ(obs::DefaultMetrics()
                    .GetCounter(obs::kMStorageRetryExhausted)
                    ->Value() -
                exhausted_before,
            1);
}

TEST(RetryingSourceTest, CallbackErrorsAreNeverRetried) {
  datagen::SimulationDataset sim = MakeSim(26);
  MemoryTrainingData inner(sim.sets);
  RetryingTrainingDataSource source(&inner);
  int calls = 0;
  const Status st = source.Scan([&](const RegionTrainingSet&) -> Status {
    ++calls;
    return Status::InvalidArgument("consumer rejected the record");
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(source.retry_stats().retries, 0);
  EXPECT_EQ(inner.io_stats().sequential_scans, 1);
}

TEST(RetryingSourceTest, NonIoErrorsFromInnerAreNotRetried) {
  datagen::SimulationDataset sim = MakeSim(27);
  MemoryTrainingData inner(sim.sets);
  RetryingTrainingDataSource source(&inner);
  // kCorrupt armed at an io-honoring point never fires, but an out-of-range
  // Read returns a non-IoError status that must pass straight through.
  auto r = source.Read(inner.num_region_sets() + 100);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(source.retry_stats().retries, 0);
}

TEST(RetryingSourceTest, ReadRetriesTransientFailures) {
  datagen::SimulationDataset sim = MakeSim(28);
  MemoryTrainingData inner(sim.sets);
  MemoryTrainingData clean(sim.sets);
  RetryPolicy policy;
  policy.sleep_fn = [](int64_t) {};
  RetryingTrainingDataSource source(&inner, policy);

  ScopedFaults faults("storage.read:io@1");
  auto r = source.Read(0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(source.retry_stats().retries, 1);
  auto expected = clean.Read(0);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(r->region, expected->region);
  EXPECT_EQ(r->targets, expected->targets);
}

}  // namespace
}  // namespace bellwether::storage
