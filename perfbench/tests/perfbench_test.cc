// Unit tests of the benchmark's own code: statistics helpers, span
// self-time arithmetic, decorator transparency, and that every output check
// rejects a deliberately corrupted output.
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "core/basic_search.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_tree.h"
#include "datagen/mail_order.h"
#include "datagen/scalability.h"
#include "layers.h"
#include "obs/trace.h"
#include "stats.h"
#include "storage/training_data_sink.h"

namespace perfbench {
namespace {

namespace bw = bellwether;
using bw::obs::TraceEvent;

std::string TempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return (std::filesystem::temp_directory_path() /
          (std::string("perfbench_test_") + info->name() + "_" + name))
      .string();
}

// ---- statistics ----

TEST(StatsTest, MedianOfOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, QuantileInterpolatesBetweenOrderStatistics) {
  const std::vector<double> v{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0}, 0.9), 1.9);
}

TEST(StatsTest, WindowMeansDropAPartialWindow) {
  const std::vector<double> v{1.0, 3.0, 2.0, 6.0, 9.0};
  EXPECT_EQ(WindowMeans(v, 2), (std::vector<double>{2.0, 4.0}));
  EXPECT_EQ(WindowMeans(v, 1), v);
  EXPECT_TRUE(WindowMeans(v, 6).empty());
}

TEST(StatsTest, HighestPercentileNeedsTenSamplesBeyondIt) {
  auto samples = [](size_t n) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
    return v;
  };
  EXPECT_FALSE(HighestSupportedPercentile(samples(19)).supported);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(samples(20)).percentile, 50.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(samples(100)).percentile, 90.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(samples(1000)).percentile, 99.0);
  const TailPercentile p999 = HighestSupportedPercentile(samples(10000));
  EXPECT_DOUBLE_EQ(p999.percentile, 99.9);
  EXPECT_NEAR(p999.value, 9989.001, 1e-6);
}

// ---- span self-time arithmetic ----

TraceEvent Span(const char* name, const char* category, uint64_t id,
                uint64_t parent, int64_t start, int64_t duration) {
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.span_id = id;
  e.parent_span_id = parent;
  e.start_us = start;
  e.duration_us = duration;
  return e;
}

// core.tree [0,100) calls a decorated Scan [10,50), whose consumer callback
// [20,40) is core work; a program span inherits its parent's layer and
// CubeRollup is olap.
std::vector<TraceEvent> SampleTree() {
  return {
      Span(kConsumerSpan, kBenchCategory, 4, 3, 20, 20),
      Span("SpilledTrainingData::Scan", "storage", 3, 2, 15, 30),
      Span(kScanSpan, kBenchCategory, 2, 1, 10, 40),
      Span("RainForestLevelScan", "tree", 5, 1, 60, 20),
      Span("CubeRollup", "datagen", 6, 5, 65, 5),
      Span("core.tree", kBenchCategory, 1, 0, 0, 100),
      Span("exec-task", "exec", 7, 0, 30, 8),
  };
}

TEST(LayerTest, ExclusiveTimeSubtractsDirectChildrenOnly) {
  const std::vector<int64_t> self = ExclusiveMicros(SampleTree());
  EXPECT_EQ(self, (std::vector<int64_t>{20, 10, 10, 15, 5, 40, 8}));
}

TEST(LayerTest, ConsumerTimeBelongsToTheCallerOfScan) {
  const std::vector<std::string> layer = LayerOf(SampleTree());
  EXPECT_EQ(layer, (std::vector<std::string>{"core.tree", "storage.scan",
                                             "storage.scan", "core.tree",
                                             "olap.rollup", "core.tree",
                                             "other"}));
  const auto self = LayerSelfMicros(SampleTree());
  EXPECT_DOUBLE_EQ(self.at("core.tree"), 75.0);
  EXPECT_DOUBLE_EQ(self.at("storage.scan"), 20.0);
  EXPECT_DOUBLE_EQ(self.at("olap.rollup"), 5.0);
  EXPECT_DOUBLE_EQ(self.at("other"), 8.0);
  double total = 0.0;
  for (const auto& [name, micros] : self) total += micros;
  EXPECT_DOUBLE_EQ(total, 100.0 + 8.0);  // every microsecond counted once
}

// ---- decorator transparency ----

struct SmallData {
  bw::datagen::ScalabilityDataset meta;
  std::unique_ptr<bw::storage::TrainingDataSource> source;
};

SmallData Generate(bool through_timed_sink) {
  bw::datagen::ScalabilityConfig config;
  config.num_items = 240;
  config.dim1_fanouts = {3};
  config.dim2_fanouts = {3};
  config.num_numeric_item_features = 2;
  config.item_hierarchy_fanouts = {2};
  bw::storage::MemorySink memory;
  TimedSink timed(&memory);
  bw::storage::TrainingDataSink* sink =
      through_timed_sink ? static_cast<bw::storage::TrainingDataSink*>(&timed)
                         : &memory;
  auto meta = bw::datagen::GenerateScalability(config, sink);
  EXPECT_TRUE(meta.ok());
  auto source = sink->Finish();
  EXPECT_TRUE(source.ok());
  return {std::move(meta).value(), std::move(source).value()};
}

struct Artifacts {
  std::string search, tree, cube;
  int64_t tree_scans = 0, tree_levels = 0, cube_scans = 0;
};

Artifacts Build(bw::storage::TrainingDataSource* source,
                const SmallData& data) {
  auto subsets = bw::core::ItemSubsetSpace::Create(data.meta.items,
                                                   data.meta.item_hierarchies);
  EXPECT_TRUE(subsets.ok());
  bw::core::TreeBuildConfig tree_config;
  tree_config.split_columns = data.meta.numeric_feature_columns;
  tree_config.min_items = 20;
  tree_config.max_depth = 2;
  bw::core::CubeBuildConfig cube_config;
  cube_config.min_subset_size = 10;
  auto search = bw::core::RunBasicBellwetherSearch(
      source, bw::core::BasicSearchOptions{});
  const int64_t before_tree = source->io_stats().sequential_scans;
  auto tree = bw::core::BuildBellwetherTreeRainForest(source, data.meta.items,
                                                      tree_config);
  const int64_t before_cube = source->io_stats().sequential_scans;
  auto cube =
      bw::core::BuildBellwetherCubeSingleScan(source, *subsets, cube_config);
  EXPECT_TRUE(search.ok() && tree.ok() && cube.ok());
  return {SearchDigest(*search),
          *TreeBytes(*tree, TempPath("tree")),
          *CubeBytes(*cube, TempPath("cube")),
          before_cube - before_tree,
          tree->NumLevels(),
          source->io_stats().sequential_scans - before_cube};
}

TEST(DecoratorTest, DecoratedSourceAndSinkGiveByteIdenticalArtifacts) {
  const SmallData plain = Generate(/*through_timed_sink=*/false);
  const Artifacts expected = Build(plain.source.get(), plain);

  bw::obs::Trace& trace = bw::obs::DefaultTrace();
  trace.Clear();
  trace.set_enabled(true);
  const SmallData decorated = Generate(/*through_timed_sink=*/true);
  TimedSource timed(decorated.source.get());
  const Artifacts actual = Build(&timed, decorated);
  const auto self = LayerSelfMicros(trace.Snapshot());
  trace.set_enabled(false);

  EXPECT_EQ(expected.search, actual.search);
  EXPECT_EQ(expected.tree, actual.tree);
  EXPECT_EQ(expected.cube, actual.cube);
  EXPECT_FALSE(expected.tree.empty());
  // The decorator counts the same Scan calls as the source it wraps.
  EXPECT_EQ(expected.tree_scans, actual.tree_scans);
  EXPECT_EQ(expected.cube_scans, actual.cube_scans);
  EXPECT_GT(timed.io_stats().sequential_scans, 0);
  EXPECT_EQ(self.count(kScanSpan), 1u);  // the decorators did record
  EXPECT_EQ(self.count(kSinkSpan), 1u);
}

// ---- every output check rejects a corrupted output ----

TEST(CheckTest, SameRejectsOneFlippedByte) {
  const std::string bytes = "bellwether-cube-v2\n1 2 3\n";
  EXPECT_TRUE(CheckSame("cube", bytes, bytes).ok());
  std::string corrupted = bytes;
  corrupted[20] ^= 1;
  const bw::Status st = CheckSame("cube", bytes, corrupted);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("byte 20"), std::string::npos);
  EXPECT_FALSE(CheckSame("cube", bytes, bytes.substr(1)).ok());
}

TEST(CheckTest, PredictionsRejectOneUlpAndAChangedStatus) {
  const std::vector<Prediction> a{{bw::StatusCode::kOk, 1.5},
                                  {bw::StatusCode::kNotFound, 0.0}};
  EXPECT_TRUE(CheckPredictionsEqual("p", a, a).ok());
  std::vector<Prediction> b = a;
  b[0].value = std::nextafter(1.5, 2.0);
  EXPECT_FALSE(CheckPredictionsEqual("p", a, b).ok());
  b = a;
  b[1].code = bw::StatusCode::kOk;
  EXPECT_FALSE(CheckPredictionsEqual("p", a, b).ok());
  b.pop_back();
  EXPECT_FALSE(CheckPredictionsEqual("p", a, b).ok());
}

TEST(CheckTest, SearchDigestSeesOneChangedScore) {
  bw::core::BasicSearchResult search;
  search.bellwether = 7;
  search.scores.resize(3);
  search.scores[1].error.rmse = 0.25;
  bw::core::BasicSearchResult changed = search;
  EXPECT_EQ(SearchDigest(search), SearchDigest(changed));
  changed.scores[1].error.rmse = std::nextafter(0.25, 1.0);
  EXPECT_NE(SearchDigest(search), SearchDigest(changed));
  changed = search;
  changed.bellwether = 8;
  EXPECT_NE(SearchDigest(search), SearchDigest(changed));
}

TEST(CheckTest, PassCountsOfRealBuildsPassAndASecondScanFails) {
  const SmallData data = Generate(/*through_timed_sink=*/false);
  const Artifacts built = Build(data.source.get(), data);
  EXPECT_GT(built.tree_levels, 1);
  EXPECT_EQ(built.tree_scans, built.tree_levels);
  EXPECT_EQ(built.cube_scans, 1);

  // A cube build that scanned its source twice.
  auto subsets = bw::core::ItemSubsetSpace::Create(data.meta.items,
                                                   data.meta.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  bw::core::CubeBuildConfig cube_config;
  cube_config.min_subset_size = 10;
  bw::storage::TrainingDataSource* source = data.source.get();
  const int64_t before = source->io_stats().sequential_scans;
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_TRUE(
        bw::core::BuildBellwetherCubeSingleScan(source, *subsets, cube_config)
            .ok());
  }
  EXPECT_FALSE(
      CheckCubePasses("cube", source->io_stats().sequential_scans - before)
          .ok());
}

TEST(CheckTest, PassCountsRejectAnExtraScan) {
  std::vector<bw::core::TreeNode> nodes(3);
  nodes[0].children = {1, 2};
  nodes[1].depth = nodes[2].depth = 1;
  const bw::core::BellwetherTree tree(nullptr, nodes);
  EXPECT_TRUE(CheckTreePasses("tree", tree, 2).ok());
  EXPECT_FALSE(CheckTreePasses("tree", tree, 3).ok());
  EXPECT_FALSE(CheckTreePasses("tree", tree, 1).ok());

  EXPECT_TRUE(CheckCubePasses("cube", 1).ok());
  EXPECT_FALSE(CheckCubePasses("cube", 2).ok());
  EXPECT_FALSE(CheckCubePasses("cube", 0).ok());
}

TEST(CheckTest, PickLocationRejectsAnotherState) {
  bw::datagen::MailOrderConfig config;
  config.num_items = 8;
  const bw::datagen::MailOrderDataset data =
      bw::datagen::GenerateMailOrder(config);
  bw::core::BasicSearchResult search;
  search.bellwether = data.planted_region;
  EXPECT_TRUE(CheckPickLocation(search, *data.space, 1,
                                data.planted_state_node).ok());
  auto coords = data.space->Decode(data.planted_region);
  coords[1] =
      std::get<bw::olap::HierarchicalDimension>(data.space->dim(1)).root();
  search.bellwether = data.space->Encode(coords);
  EXPECT_FALSE(CheckPickLocation(search, *data.space, 1,
                                 data.planted_state_node).ok());
  search.bellwether = bw::olap::kInvalidRegion;
  EXPECT_FALSE(CheckPickLocation(search, *data.space, 1,
                                 data.planted_state_node).ok());
}

TEST(CheckTest, ShapeRejectsAChangedOrMissingCount) {
  const std::map<std::string, int64_t> expected{{"rows", 10}, {"cells", 3}};
  EXPECT_TRUE(CheckShape(expected, expected).ok());
  EXPECT_FALSE(CheckShape(expected, {{"rows", 11}, {"cells", 3}}).ok());
  EXPECT_FALSE(CheckShape(expected, {{"rows", 10}}).ok());
}

}  // namespace
}  // namespace perfbench
