// Sampling CPU profiler and heap tracker (src/obs/profiler.*,
// src/obs/heap_track.*): label interning and the per-thread label stack,
// Profile folding/merging and the collapsed-stack round trip, self-time
// attribution, live SIGPROF sampling with trace-span phase tags, heap
// allocation attribution, and the non-perturbation contract — builder
// outputs stay bit-identical across thread counts with both facilities
// armed.

#include <gtest/gtest.h>

#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "core/basic_search.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_tree.h"
#include "datagen/simulation.h"
#include "obs/heap_track.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "storage/training_data.h"

namespace bellwether::obs {
namespace {

// ---------------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------------

TEST(ProfileLabelTest, InterningIsStableAndNeverZero) {
  const uint32_t a = InternProfileLabel("profiler-test-label-a");
  const uint32_t b = InternProfileLabel("profiler-test-label-b");
  EXPECT_NE(a, kNoProfileLabel);
  EXPECT_NE(b, kNoProfileLabel);
  EXPECT_NE(a, b);
  EXPECT_EQ(InternProfileLabel("profiler-test-label-a"), a);
  EXPECT_EQ(ProfileLabelName(a), "profiler-test-label-a");
  EXPECT_EQ(ProfileLabelName(kNoProfileLabel), "(no span)");
}

TEST(ProfileLabelTest, PushPopTracksInnermostLabel) {
  EXPECT_EQ(CurrentProfileLabel(), kNoProfileLabel);
  const uint32_t outer = InternProfileLabel("profiler-test-outer");
  const uint32_t inner = InternProfileLabel("profiler-test-inner");
  ASSERT_TRUE(PushProfileLabel(outer));
  EXPECT_EQ(CurrentProfileLabel(), outer);
  ASSERT_TRUE(PushProfileLabel(inner));
  EXPECT_EQ(CurrentProfileLabel(), inner);
  PopProfileLabel();
  EXPECT_EQ(CurrentProfileLabel(), outer);
  PopProfileLabel();
  EXPECT_EQ(CurrentProfileLabel(), kNoProfileLabel);
}

TEST(ProfileLabelTest, TraceSpansPushLabelsOnlyWhileCaptureIsArmed) {
  // Disarmed (the default): spans never touch the label stack.
  ASSERT_FALSE(ProfileLabelCaptureEnabled());
  {
    TraceSpan span("profiler-test-span-off");
    EXPECT_EQ(CurrentProfileLabel(), kNoProfileLabel);
  }

  internal::SetCaptureFlag(1, true);
  ASSERT_TRUE(ProfileLabelCaptureEnabled());
  {
    TraceSpan span("profiler-test-span-on");
    EXPECT_EQ(ProfileLabelName(CurrentProfileLabel()),
              "profiler-test-span-on");
  }
  EXPECT_EQ(CurrentProfileLabel(), kNoProfileLabel);
  internal::SetCaptureFlag(1, false);
  EXPECT_FALSE(ProfileLabelCaptureEnabled());
}

// ---------------------------------------------------------------------------
// Profile folding
// ---------------------------------------------------------------------------

TEST(ProfileTest, AddStackFoldsAndMergeSums) {
  Profile a;
  a.AddStack("p;f;g", 2);
  a.AddStack("p;f;g", 3);
  a.AddStack("p;f", 1);
  a.set_period_us(1000);
  EXPECT_EQ(a.total_samples(), 6);
  EXPECT_EQ(a.stacks().at("p;f;g"), 5);

  Profile b;
  b.AddStack("p;f;g", 1);
  b.AddStack("q;h", 4);
  b.add_dropped_samples(2);
  a.Merge(b);
  EXPECT_EQ(a.total_samples(), 11);
  EXPECT_EQ(a.stacks().at("p;f;g"), 6);
  EXPECT_EQ(a.stacks().at("q;h"), 4);
  EXPECT_EQ(a.dropped_samples(), 2);
  EXPECT_EQ(a.period_us(), 1000);
}

TEST(ProfileTest, CollapsedRoundTripIsLossless) {
  Profile p;
  p.AddStack("phase-a;func1;func2", 7);
  p.AddStack("phase-b;func3", 11);
  p.set_period_us(500);
  p.add_dropped_samples(3);

  const std::string text = p.ToCollapsed();
  auto parsed = Profile::FromCollapsed(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->stacks(), p.stacks());
  EXPECT_EQ(parsed->total_samples(), p.total_samples());
  EXPECT_EQ(parsed->period_us(), 500);
  EXPECT_EQ(parsed->dropped_samples(), 3);
  // Re-emitting the parse is byte-identical (stable sorted stacks).
  EXPECT_EQ(parsed->ToCollapsed(), text);
}

TEST(ProfileTest, FromCollapsedSkipsUnknownHeadersAndRejectsGarbage) {
  auto ok = Profile::FromCollapsed(
      "# period_us 250\n# future_key 9\n\nroot;leaf 4\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->period_us(), 250);
  EXPECT_EQ(ok->total_samples(), 4);

  EXPECT_FALSE(Profile::FromCollapsed("no-count-line\n").ok());
  EXPECT_FALSE(Profile::FromCollapsed("stack notanumber\n").ok());
}

TEST(ProfileTest, SelfTimeTableAttributesSelfAndTotal) {
  Profile p;
  p.AddStack("p;a;b", 3);
  p.AddStack("p;a", 2);
  p.AddStack("p;a;b;a", 1);  // recursion: 'a' counted once for total

  const auto table = p.SelfTimeTable();
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0].frame, "a");
  EXPECT_EQ(table[0].self, 3);
  EXPECT_EQ(table[0].total, 6);
  EXPECT_EQ(table[1].frame, "b");
  EXPECT_EQ(table[1].self, 3);
  EXPECT_EQ(table[1].total, 4);
  EXPECT_EQ(table[2].frame, "p");
  EXPECT_EQ(table[2].self, 0);
  EXPECT_EQ(table[2].total, 6);

  // Restricting to a root frame strips it and drops other roots.
  p.AddStack("q;z", 10);
  const auto scoped = p.SelfTimeTable("p");
  ASSERT_EQ(scoped.size(), 2u);
  EXPECT_EQ(scoped[0].frame, "a");
  EXPECT_EQ(scoped[0].self, 3);
  EXPECT_EQ(scoped[1].frame, "b");
}

TEST(ProfileTest, SamplesByRootFrameSlicesPerPhase) {
  Profile p;
  p.AddStack("phase-a;f", 3);
  p.AddStack("phase-a;g;h", 4);
  p.AddStack("phase-b;f", 5);
  const auto by_root = p.SamplesByRootFrame();
  ASSERT_EQ(by_root.size(), 2u);
  EXPECT_EQ(by_root.at("phase-a"), 7);
  EXPECT_EQ(by_root.at("phase-b"), 5);
}

// ---------------------------------------------------------------------------
// Live sampling
// ---------------------------------------------------------------------------

// Burns roughly `seconds` of CPU time so ITIMER_PROF is guaranteed to
// expire; returns a value the optimizer cannot discard.
double SpinCpu(double seconds) {
  const std::clock_t start = std::clock();
  const auto budget =
      static_cast<std::clock_t>(seconds * CLOCKS_PER_SEC);
  volatile double sink = 1.0;
  while (std::clock() - start < budget) {
    for (int i = 1; i < 1000; ++i) sink = sink + 1.0 / i;
  }
  return sink;
}

TEST(ProfilerTest, StartStopLifecycleAndErrors) {
  Profiler& profiler = Profiler::Default();
  EXPECT_FALSE(profiler.running());
  EXPECT_FALSE(profiler.Stop().ok()) << "Stop while idle must fail";

  ProfilerOptions bad;
  bad.period_us = 0;
  EXPECT_FALSE(profiler.Start(bad).ok());

  ASSERT_TRUE(profiler.Start().ok());
  EXPECT_TRUE(profiler.running());
  EXPECT_FALSE(profiler.Start().ok()) << "double Start must fail";
  auto profile = profiler.Stop();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_FALSE(profiler.running());
}

// ThreadSanitizer queues asynchronous signals and only delivers them at
// runtime interception points, which a pure arithmetic spin loop never
// reaches — sampling there is legal but yields ~0 samples.
bool TsanDefersAsyncSignals() {
#if defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

TEST(ProfilerTest, CapturesSamplesTaggedWithTheEnclosingSpan) {
  if (TsanDefersAsyncSignals()) {
    GTEST_SKIP() << "tsan defers SIGPROF past the spin loop";
  }
  Profiler& profiler = Profiler::Default();
  Profiler::RegisterCurrentThread();
  ProfilerOptions options;
  options.period_us = 1000;
  ASSERT_TRUE(profiler.Start(options).ok());
  {
    TraceSpan span("profiler-test-burn");
    SpinCpu(0.3);
  }
  auto profile = profiler.Stop();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile->period_us(), 1000);
  // 0.3s of CPU at a 1ms period: well over a hundred expirations; require
  // just a handful to stay robust on slow CI machines.
  EXPECT_GE(profile->total_samples(), 5);
  const auto by_root = profile->SamplesByRootFrame();
  auto it = by_root.find("profiler-test-burn");
  ASSERT_NE(it, by_root.end())
      << "samples taken inside the span must carry its label";
  EXPECT_GE(it->second, 1);
  EXPECT_FALSE(profile->ToCollapsed().empty());
}

// ---------------------------------------------------------------------------
// Heap tracker
// ---------------------------------------------------------------------------

TEST(HeapTrackerTest, AttributesAllocationsToTheEnclosingSpan) {
  if (!HeapTracker::interposed()) {
    GTEST_SKIP() << "sanitizer build: allocator interposition compiled out";
  }
  HeapTracker::Enable();
  ASSERT_TRUE(HeapTracker::enabled());
  {
    TraceSpan span("heap-test-span");
    std::vector<char> block(1 << 20, 'x');
    ASSERT_EQ(block[123], 'x');
  }
  const auto snapshot = HeapTracker::Snapshot();
  HeapTracker::Disable();
  EXPECT_FALSE(HeapTracker::enabled());

  auto it = snapshot.find("heap-test-span");
  ASSERT_NE(it, snapshot.end());
  EXPECT_GE(it->second.alloc_calls, 1);
  EXPECT_GE(it->second.alloc_bytes, 1 << 20);
  EXPECT_GE(it->second.free_calls, 1);
}

TEST(HeapTrackerTest, DisabledTrackerCountsNothing) {
  ASSERT_FALSE(HeapTracker::enabled());
  HeapTracker::Enable();
  HeapTracker::Disable();
  {
    TraceSpan span("heap-test-disabled");
    std::vector<char> block(1 << 16, 'y');
    ASSERT_EQ(block[7], 'y');
  }
  EXPECT_EQ(HeapTracker::Snapshot().count("heap-test-disabled"), 0u);
}

// ---------------------------------------------------------------------------
// Non-perturbation: builders produce bit-identical logical output across
// thread counts with the sampler and heap tracker armed.
// ---------------------------------------------------------------------------

datagen::SimulationDataset MakeSim(uint64_t seed) {
  datagen::SimulationConfig config;
  config.num_items = 150;
  config.generator_tree_nodes = 7;
  config.noise = 0.2;
  config.num_windows = 3;
  config.location_fanouts = {2, 2};
  config.seed = seed;
  return datagen::GenerateSimulation(config);
}

int64_t ProcessCpuMicros() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

TEST(ProfilerDeterminismTest, BuildersBitIdenticalAcrossThreadsWhileArmed) {
  Profiler& profiler = Profiler::Default();
  ProfilerOptions options;
  options.period_us = 500;  // oversample to stress the handler
  // ITIMER_PROF expiry is checked only at scheduler ticks, so the sampling
  // resolution is the coarser of period_us and the tick. One pass of the
  // builds below takes ~15 ms of CPU, a few ticks, and can go unsampled.
  // Repeat the passes until the armed window has spent 20 ticks of CPU at
  // HZ = 100, the coarsest common tick.
  constexpr int64_t kArmedCpuMicros = 20 * 10000;
  const int64_t armed_from = ProcessCpuMicros();
  ASSERT_TRUE(profiler.Start(options).ok());
  HeapTracker::Enable();

  datagen::SimulationDataset sim = MakeSim(67);
  auto subsets =
      core::ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());

  std::string serial_search, serial_tree, serial_cube;
  std::string serial_search_fp, serial_tree_fp, serial_cube_fp;
  int32_t passes = 0;
  do {
    SCOPED_TRACE("pass " + std::to_string(passes));
    for (int32_t threads : {1, 4}) {
      SCOPED_TRACE("num_threads=" + std::to_string(threads));

      core::BasicSearchOptions search_opts;
      search_opts.exec.num_threads = threads;
      storage::MemoryTrainingData search_src(sim.sets);
      auto search = core::RunBasicBellwetherSearch(&search_src, search_opts);
      ASSERT_TRUE(search.ok()) << search.status().ToString();

      core::TreeBuildConfig tree_cfg;
      tree_cfg.split_columns = sim.feature_columns;
      tree_cfg.min_items = 25;
      tree_cfg.max_depth = 3;
      tree_cfg.min_examples_per_model = 8;
      tree_cfg.exec.num_threads = threads;
      storage::MemoryTrainingData tree_src(sim.sets);
      auto tree =
          core::BuildBellwetherTreeRainForest(&tree_src, sim.items, tree_cfg);
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();

      core::CubeBuildConfig cube_cfg;
      cube_cfg.min_subset_size = 20;
      cube_cfg.min_examples_per_model = 8;
      cube_cfg.exec.num_threads = threads;
      storage::MemoryTrainingData cube_src(sim.sets);
      auto cube =
          core::BuildBellwetherCubeSingleScan(&cube_src, *subsets, cube_cfg);
      ASSERT_TRUE(cube.ok()) << cube.status().ToString();

      if (threads == 1) {
        serial_search = search->report.LogicalJson();
        serial_tree = tree->build_report().LogicalJson();
        serial_cube = cube->build_report().LogicalJson();
        serial_search_fp = search->report.ConfigFingerprint();
        serial_tree_fp = tree->build_report().ConfigFingerprint();
        serial_cube_fp = cube->build_report().ConfigFingerprint();
        EXPECT_FALSE(serial_search.empty());
      } else {
        EXPECT_EQ(search->report.LogicalJson(), serial_search);
        EXPECT_EQ(tree->build_report().LogicalJson(), serial_tree);
        EXPECT_EQ(cube->build_report().LogicalJson(), serial_cube);
        EXPECT_EQ(search->report.ConfigFingerprint(), serial_search_fp);
        EXPECT_EQ(tree->build_report().ConfigFingerprint(), serial_tree_fp);
        EXPECT_EQ(cube->build_report().ConfigFingerprint(), serial_cube_fp);
      }
    }
    ++passes;
  } while (ProcessCpuMicros() - armed_from < kArmedCpuMicros);

  HeapTracker::Disable();
  auto profile = profiler.Stop();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  if (!TsanDefersAsyncSignals()) {
    EXPECT_GE(profile->total_samples(), 1)
        << "the armed sampler should have observed the builds (" << passes
        << " passes, " << profile->dropped_samples() << " samples dropped)";
  }
}

}  // namespace
}  // namespace bellwether::obs
