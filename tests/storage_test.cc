#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>

#include "storage/training_data.h"
#include "test_util.h"

namespace bellwether::storage {
namespace {

RegionTrainingSet MakeSet(int64_t region, int32_t n, int32_t p) {
  RegionTrainingSet set;
  set.region = region;
  set.num_features = p;
  for (int32_t i = 0; i < n; ++i) {
    set.items.push_back(i);
    set.targets.push_back(region * 100.0 + i);
    for (int32_t k = 0; k < p; ++k) {
      set.features.push_back(region + 0.25 * i + 0.01 * k);
    }
  }
  return set;
}

void ExpectSetsEqual(const RegionTrainingSet& a, const RegionTrainingSet& b) {
  EXPECT_EQ(a.region, b.region);
  EXPECT_EQ(a.num_features, b.num_features);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.targets, b.targets);
  EXPECT_EQ(a.features, b.features);
}

TEST(MemoryTrainingDataTest, ScanVisitsInOrderAndCountsIo) {
  std::vector<RegionTrainingSet> sets{MakeSet(3, 4, 2), MakeSet(7, 2, 2)};
  MemoryTrainingData src(sets);
  std::vector<int64_t> seen;
  ASSERT_TRUE(src.Scan([&](const RegionTrainingSet& s) {
                    seen.push_back(s.region);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{3, 7}));
  EXPECT_EQ(src.io_stats().sequential_scans, 1);
  EXPECT_EQ(src.io_stats().region_reads, 2);
  EXPECT_GT(src.io_stats().bytes_read, 0);
}

TEST(MemoryTrainingDataTest, RandomReadAndBounds) {
  MemoryTrainingData src({MakeSet(1, 3, 2)});
  auto s = src.Read(0);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->region, 1);
  EXPECT_FALSE(src.Read(5).ok());
  EXPECT_EQ(src.RegionIds(), (std::vector<olap::RegionId>{1}));
}

TEST(SpillFileTest, WriteReadRoundTrip) {
  const std::string path = TestTempPath("spill_roundtrip.bin");
  std::vector<RegionTrainingSet> sets{MakeSet(0, 5, 3), MakeSet(2, 1, 3),
                                      MakeSet(9, 0, 3)};
  {
    auto writer = SpillFileWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    for (const auto& s : sets) ASSERT_TRUE((*writer)->Append(s).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto src = SpilledTrainingData::Open(path);
  ASSERT_TRUE(src.ok());
  EXPECT_EQ((*src)->num_region_sets(), 3u);
  EXPECT_EQ((*src)->RegionIds(), (std::vector<olap::RegionId>{0, 2, 9}));

  // Random reads.
  for (size_t i = 0; i < sets.size(); ++i) {
    auto s = (*src)->Read(i);
    ASSERT_TRUE(s.ok());
    ExpectSetsEqual(*s, sets[i]);
  }
  // Sequential scan.
  size_t idx = 0;
  ASSERT_TRUE((*src)
                  ->Scan([&](const RegionTrainingSet& s) {
                    ExpectSetsEqual(s, sets[idx++]);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(idx, 3u);
  EXPECT_EQ((*src)->io_stats().sequential_scans, 1);
  // 3 random reads + 3 scan reads.
  EXPECT_EQ((*src)->io_stats().region_reads, 6);
  std::remove(path.c_str());
}

TEST(SpillFileTest, EveryReadHitsTheFile) {
  // The paper's Fig. 11(a) setting: "each time they need the training data
  // from a region, they always read the data from disk" — repeated Read()
  // calls must not be cached.
  const std::string path = TestTempPath("spill_reread.bin");
  {
    auto writer = SpillFileWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeSet(1, 10, 2)).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto src = SpilledTrainingData::Open(path);
  ASSERT_TRUE(src.ok());
  const int64_t first_bytes = [&] {
    auto s = (*src)->Read(0);
    EXPECT_TRUE(s.ok());
    return (*src)->io_stats().bytes_read;
  }();
  auto again = (*src)->Read(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*src)->io_stats().bytes_read, 2 * first_bytes);
  EXPECT_EQ((*src)->io_stats().region_reads, 2);
  std::remove(path.c_str());
}

TEST(SpillFileTest, OpenRejectsCorruptFile) {
  const std::string path = TestTempPath("spill_bad.bin");
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not a spill file at all", f);
  fclose(f);
  EXPECT_FALSE(SpilledTrainingData::Open(path).ok());
  std::remove(path.c_str());
}

TEST(SpillFileTest, OpenRejectsMissingFile) {
  EXPECT_FALSE(SpilledTrainingData::Open("/nonexistent/x.bin").ok());
}

TEST(SpillFileTest, SimulatedLatencySlowsReads) {
  const std::string path = TestTempPath("spill_latency.bin");
  {
    auto writer = SpillFileWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeSet(1, 1, 1)).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto src = SpilledTrainingData::Open(path);
  ASSERT_TRUE(src.ok());
  (*src)->set_simulated_read_latency_micros(2000);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE((*src)->Read(0).ok());
  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GE(elapsed, 1.5);
  std::remove(path.c_str());
}

TEST(RegionTrainingSetTest, ByteSizeTracksContent) {
  const RegionTrainingSet small = MakeSet(0, 1, 1);
  const RegionTrainingSet big = MakeSet(0, 100, 4);
  EXPECT_GT(big.ByteSize(), small.ByteSize());
}

}  // namespace
}  // namespace bellwether::storage
