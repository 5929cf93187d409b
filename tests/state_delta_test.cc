// The incremental-maintenance contract of core::BellwetherState
// (DESIGN.md, algebraic state layer): for any split of the fact-row stream
// into delta batches, the ApplyDelta-maintained cube is bit-identical —
// cells, artifact bytes, and the report's logical sections — to a
// from-scratch rebuild over the concatenated stream, at one and many
// threads, with deterministic faults armed, and across kill/reopen of the
// persisted state; a killed batch leaves the state unchanged. Plus the
// building blocks: DirtySet semantics, the dirty-cell re-derivation
// economy, and FinalizeSearch parity with the sequential basic search.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/basic_search.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_state.h"
#include "core/model_io.h"
#include "datagen/simulation.h"
#include "obs/metrics.h"
#include "olap/dirty.h"
#include "olap/region.h"
#include "robust/fault_injection.h"
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

CubeBuildConfig MakeConfig() {
  CubeBuildConfig config;
  config.min_subset_size = 20;
  config.min_examples_per_model = 8;
  return config;
}

// Splits each region's rows into `num_batches` contiguous chunks at random
// boundaries; batch j holds chunk j of every region. Concatenating the
// batches restores the original row order exactly, so a from-scratch build
// over the unsplit sets is the ground truth for the delta-maintained state.
std::vector<std::vector<storage::RegionTrainingSet>> SplitIntoBatches(
    const std::vector<storage::RegionTrainingSet>& sets, int num_batches,
    Rng* rng) {
  std::vector<std::vector<storage::RegionTrainingSet>> batches(num_batches);
  for (const auto& set : sets) {
    const size_t n = set.num_examples();
    std::vector<size_t> cuts;
    cuts.push_back(0);
    for (int j = 1; j < num_batches; ++j) {
      cuts.push_back(static_cast<size_t>(rng->NextUint64(n + 1)));
    }
    cuts.push_back(n);
    std::sort(cuts.begin(), cuts.end());
    for (int j = 0; j < num_batches; ++j) {
      batches[j].push_back(SliceRows(set, cuts[j], cuts[j + 1]));
    }
  }
  return batches;
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
      EXPECT_EQ(a.cv.stddev, b.cv.stddev) << "cell " << i;
    }
  }
  EXPECT_EQ(got.build_telemetry().data_passes,
            want.build_telemetry().data_passes);
  EXPECT_EQ(got.build_telemetry().significant_subsets,
            want.build_telemetry().significant_subsets);
  EXPECT_EQ(got.build_telemetry().fallback_picks,
            want.build_telemetry().fallback_picks);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Saves both cubes and compares the artifact files byte for byte.
void ExpectSameArtifactBytes(const BellwetherCube& got,
                             const BellwetherCube& want,
                             const std::string& tag) {
  const std::string got_path = TestTempPath(tag + "_got.bwc");
  const std::string want_path = TestTempPath(tag + "_want.bwc");
  ASSERT_TRUE(SaveBellwetherCube(got, got_path).ok());
  ASSERT_TRUE(SaveBellwetherCube(want, want_path).ok());
  EXPECT_EQ(ReadAll(got_path), ReadAll(want_path));
  std::remove(got_path.c_str());
  std::remove(want_path.c_str());
}

Result<std::unique_ptr<BellwetherState>> NewState(
    std::shared_ptr<const ItemSubsetSpace> subsets,
    const CubeBuildConfig& config,
    const std::vector<uint8_t>* item_mask = nullptr) {
  BellwetherState::Options options;
  options.config = config;
  return BellwetherState::Init(std::move(subsets), std::move(options),
                               item_mask);
}

// ---- DirtySet ----

TEST(DirtySetTest, MarkCountAndClear) {
  olap::DirtySet dirty;
  dirty.Resize(10);
  EXPECT_EQ(dirty.count(), 0);
  dirty.Mark(7);
  dirty.Mark(2);
  dirty.Mark(7);  // idempotent
  EXPECT_EQ(dirty.count(), 2);
  EXPECT_TRUE(dirty.IsMarked(2));
  EXPECT_TRUE(dirty.IsMarked(7));
  EXPECT_FALSE(dirty.IsMarked(3));
  dirty.Clear();
  EXPECT_EQ(dirty.count(), 0);
  EXPECT_FALSE(dirty.IsMarked(2));
  dirty.Resize(4);
  dirty.Mark(3);
  EXPECT_EQ(dirty.count(), 1);
  EXPECT_TRUE(dirty.IsMarked(3));
}

// ---- Keystone: delta-maintained == rebuilt, bit for bit ----

TEST(StateDeltaTest, DeltaEqualsRebuildForRandomSplits) {
  const CubeBuildConfig config = MakeConfig();
  for (uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    datagen::SimulationDataset sim = MakeSim(seed);
    auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
    ASSERT_TRUE(subsets.ok());

    // Ground truth 1: the historical single-scan builder over the full data.
    storage::MemoryTrainingData source(sim.sets);
    auto scan_cube = BuildBellwetherCubeSingleScan(&source, *subsets, config);
    ASSERT_TRUE(scan_cube.ok()) << scan_cube.status().ToString();
    ASSERT_FALSE(scan_cube->cells().empty());

    // Ground truth 2: an incremental state fed everything in one batch.
    auto rebuild = NewState(*subsets, config);
    ASSERT_TRUE(rebuild.ok());
    ASSERT_TRUE((*rebuild)->ApplyDelta(sim.sets).ok());
    auto rebuild_cube = (*rebuild)->Finalize();
    ASSERT_TRUE(rebuild_cube.ok()) << rebuild_cube.status().ToString();
    ExpectCubesIdentical(*rebuild_cube, *scan_cube);

    Rng rng(seed * 1000 + 7);
    for (int32_t threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      auto batches = SplitIntoBatches(sim.sets, /*num_batches=*/3, &rng);
      CubeBuildConfig par = config;
      par.exec.num_threads = threads;
      auto state = NewState(*subsets, par);
      ASSERT_TRUE(state.ok());
      for (auto& batch : batches) {
        ASSERT_TRUE((*state)->ApplyDelta(std::move(batch)).ok());
      }
      auto cube = (*state)->Finalize();
      ASSERT_TRUE(cube.ok()) << cube.status().ToString();
      ExpectCubesIdentical(*cube, *rebuild_cube);
      ExpectSameArtifactBytes(*cube, *scan_cube,
                              "delta_" + std::to_string(seed) + "_" +
                                  std::to_string(threads));
      // The report's logical sections — config, counts, fingerprint — match
      // the one-batch rebuild exactly (phases are timing and exempt).
      EXPECT_EQ(cube->build_report().LogicalJson(),
                rebuild_cube->build_report().LogicalJson());
    }
  }
}

TEST(StateDeltaTest, MaskedStateMatchesMaskedSingleScan) {
  datagen::SimulationDataset sim = MakeSim(21);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  const CubeBuildConfig config = MakeConfig();
  std::vector<uint8_t> mask((*subsets)->num_items(), 0);
  for (size_t i = 0; i < mask.size(); i += 3) mask[i] = 1;

  storage::MemoryTrainingData source(sim.sets);
  auto scan_cube =
      BuildBellwetherCubeSingleScan(&source, *subsets, config, &mask);
  ASSERT_TRUE(scan_cube.ok());

  Rng rng(99);
  auto batches = SplitIntoBatches(sim.sets, 2, &rng);
  auto state = NewState(*subsets, config, &mask);
  ASSERT_TRUE(state.ok());
  for (auto& batch : batches) {
    ASSERT_TRUE((*state)->ApplyDelta(std::move(batch)).ok());
  }
  auto cube = (*state)->Finalize();
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ExpectCubesIdentical(*cube, *scan_cube);
}

// ---- Dirty-cell economy ----

TEST(StateDeltaTest, FinalizeReusesCleanCellsAndRederivesDirtyOnes) {
  datagen::SimulationDataset sim = MakeSim(31);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  const CubeBuildConfig config = MakeConfig();

  auto state = NewState(*subsets, config);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE((*state)->ApplyDelta(sim.sets).ok());
  EXPECT_GT((*state)->dirty_cells(), 0);
  auto first = (*state)->Finalize();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*state)->dirty_cells(), 0);

  // No deltas since the last Finalize: everything is reused and the cube is
  // identical.
  auto again = (*state)->Finalize();
  ASSERT_TRUE(again.ok());
  ExpectCubesIdentical(*again, *first);

  // A small delta to one region dirties only the cells its items touch, and
  // the re-finalized cube equals a from-scratch rebuild over the
  // concatenated stream.
  storage::RegionTrainingSet small = SliceRows(sim.sets.front(), 0, 3);
  ASSERT_TRUE((*state)->ApplyDelta({small}).ok());
  const int64_t dirty = (*state)->dirty_cells();
  EXPECT_GT(dirty, 0);
  EXPECT_LT(dirty, (*state)->num_significant_subsets());
  auto updated = (*state)->Finalize();
  ASSERT_TRUE(updated.ok());

  auto rebuild = NewState(*subsets, config);
  ASSERT_TRUE(rebuild.ok());
  std::vector<storage::RegionTrainingSet> all = sim.sets;
  ASSERT_TRUE((*rebuild)->ApplyDelta(std::move(all)).ok());
  ASSERT_TRUE((*rebuild)->ApplyDelta({small}).ok());
  auto rebuild_cube = (*rebuild)->Finalize();
  ASSERT_TRUE(rebuild_cube.ok());
  ExpectCubesIdentical(*updated, *rebuild_cube);
}

// ---- Faults on the delta path ----

TEST(StateDeltaTest, EntryIoFaultIsTransactionalAndRetryable) {
  datagen::SimulationDataset sim = MakeSim(41);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  const CubeBuildConfig config = MakeConfig();

  auto state = NewState(*subsets, config);
  ASSERT_TRUE(state.ok());
  {
    ScopedFaults faults("state.delta:io@1");
    std::vector<storage::RegionTrainingSet> batch = sim.sets;
    const Status st = (*state)->ApplyDelta(std::move(batch));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIoError);
  }
  // The entry fault fires before any mutation: nothing was ingested.
  EXPECT_EQ((*state)->delta_batches(), 0);
  EXPECT_EQ((*state)->num_regions(), 0);
  EXPECT_EQ((*state)->dirty_cells(), 0);

  // Retrying the identical batch converges on the clean result.
  ASSERT_TRUE((*state)->ApplyDelta(sim.sets).ok());
  auto cube = (*state)->Finalize();
  ASSERT_TRUE(cube.ok());

  storage::MemoryTrainingData source(sim.sets);
  auto scan_cube = BuildBellwetherCubeSingleScan(&source, *subsets, config);
  ASSERT_TRUE(scan_cube.ok());
  ExpectCubesIdentical(*cube, *scan_cube);
}

TEST(StateDeltaTest, CrashMidBatchReopensFromSaveAndConverges) {
  datagen::SimulationDataset sim = MakeSim(51);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  CubeBuildConfig config = MakeConfig();
  const std::string path = TestTempPath("state_crash.bws");

  Rng rng(510);
  const auto batches = SplitIntoBatches(sim.sets, 2, &rng);

  // Reference: both batches applied cleanly.
  auto ref = NewState(*subsets, MakeConfig());
  ASSERT_TRUE(ref.ok());
  for (const auto& batch : batches) {
    std::vector<storage::RegionTrainingSet> copy = batch;
    ASSERT_TRUE((*ref)->ApplyDelta(std::move(copy)).ok());
  }
  auto ref_cube = (*ref)->Finalize();
  ASSERT_TRUE(ref_cube.ok());

  for (int32_t resume_threads : {1, 4}) {
    SCOPED_TRACE("resume_threads=" + std::to_string(resume_threads));
    {
      auto state = NewState(*subsets, config);
      ASSERT_TRUE(state.ok());
      std::vector<storage::RegionTrainingSet> first = batches[0];
      // Batch 1 lands and is saved at the batch boundary.
      ASSERT_TRUE((*state)->ApplyDelta(std::move(first)).ok());
      ASSERT_TRUE((*state)->Save(path).ok());
      EXPECT_EQ((*state)->delta_batches(), 1);
      // Batch 2 is killed after its first region: the process is gone, so
      // the in-memory state is abandoned.
      ScopedFaults faults("state.delta:crash@1");
      std::vector<storage::RegionTrainingSet> second = batches[1];
      const Status st = (*state)->ApplyDelta(std::move(second));
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.code(), StatusCode::kIoError);
    }
    // Reopen the last good save and re-apply the whole killed batch.
    auto reopened = BellwetherState::Open(path, *subsets);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->delta_batches(), 1);
    exec::BellwetherExecOptions exec;
    exec.num_threads = resume_threads;
    (*reopened)->set_exec(exec);
    std::vector<storage::RegionTrainingSet> second = batches[1];
    ASSERT_TRUE((*reopened)->ApplyDelta(std::move(second)).ok());
    auto cube = (*reopened)->Finalize();
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    ExpectCubesIdentical(*cube, *ref_cube);
    ExpectSameArtifactBytes(*cube, *ref_cube,
                            "crash_" + std::to_string(resume_threads));
    std::remove(path.c_str());
  }
}

// The fault seed under which `spec`, a probabilistic "state.delta" crash
// schedule, first fires at arrival `region` (1-based): armed with it, a
// batch is killed right after its `region`-th region reaches the merge. A
// count trigger cannot place the kill there, since crash@k fires on the
// first k arrivals.
uint64_t SeedKillingAtRegion(const std::string& spec, int64_t region) {
  for (uint64_t seed = 1; seed <= 1000000; ++seed) {
    robust::FaultRegistry probe;
    probe.set_seed(seed);
    EXPECT_TRUE(probe.Arm(spec).ok());
    int64_t first = 0;
    for (int64_t arrival = 1; arrival <= region && first == 0; ++arrival) {
      if (probe.ShouldFire(robust::kFaultStateDelta,
                           robust::FaultKind::kCrash)) {
        first = arrival;
      }
    }
    if (first == region) return seed;
  }
  ADD_FAILURE() << "no seed kills at region " << region;
  return 0;
}

TEST(StateDeltaTest, KilledBatchLeavesTheStateUnchanged) {
  datagen::SimulationDataset sim = MakeSim(53);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  Rng rng(530);
  const auto batches = SplitIntoBatches(sim.sets, 2, &rng);
  int64_t regions = 0;  // regions of batch 2 that reach the merge
  for (const auto& set : batches[1]) regions += set.num_examples() > 0;
  ASSERT_GE(regions, 3);
  const std::string spec =
      "state.delta:crash@" + std::to_string(1.0 / static_cast<double>(regions));

  storage::MemoryTrainingData source(sim.sets);
  auto clean = BuildBellwetherCubeSingleScan(&source, *subsets, MakeConfig());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  const std::string before = TestTempPath("killed_before.bws");
  const std::string after = TestTempPath("killed_after.bws");
  for (int32_t threads : {1, 4}) {
    for (int64_t kill_at : {int64_t{1}, regions / 2, regions}) {
      const std::string tag =
          std::to_string(threads) + "_" + std::to_string(kill_at);
      SCOPED_TRACE("threads_kill_at=" + tag);
      CubeBuildConfig config = MakeConfig();
      config.exec.num_threads = threads;
      auto state = NewState(*subsets, config);
      ASSERT_TRUE(state.ok());
      std::vector<storage::RegionTrainingSet> first = batches[0];
      ASSERT_TRUE((*state)->ApplyDelta(std::move(first)).ok());
      ASSERT_TRUE((*state)->Finalize().ok());  // empties the dirty set
      ASSERT_TRUE((*state)->Save(before).ok());
      {
        robust::FaultRegistry::Default().set_seed(
            SeedKillingAtRegion(spec, kill_at));
        ScopedFaults faults(spec);
        std::vector<storage::RegionTrainingSet> second = batches[1];
        const Status st = (*state)->ApplyDelta(std::move(second));
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.code(), StatusCode::kIoError);
        EXPECT_EQ(robust::FaultRegistry::Default().arrivals(
                      robust::kFaultStateDelta),
                  kill_at);
      }
      // Nothing of the killed batch reached the state.
      EXPECT_EQ((*state)->delta_batches(), 1);
      EXPECT_EQ((*state)->dirty_cells(), 0);
      ASSERT_TRUE((*state)->Save(after).ok());
      EXPECT_TRUE(ReadAll(after) == ReadAll(before))
          << "the killed batch changed the saved state";

      // So the same object takes the batch again and matches a clean build.
      std::vector<storage::RegionTrainingSet> second = batches[1];
      ASSERT_TRUE((*state)->ApplyDelta(std::move(second)).ok());
      auto cube = (*state)->Finalize();
      ASSERT_TRUE(cube.ok()) << cube.status().ToString();
      ExpectSameArtifactBytes(*cube, *clean, "killed_" + tag);
    }
  }
  std::remove(before.c_str());
  std::remove(after.c_str());
}

// ---- Persistence ----

TEST(StateDeltaTest, SaveOpenRoundTripPreservesStateAndArtifacts) {
  datagen::SimulationDataset sim = MakeSim(61);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  const CubeBuildConfig config = MakeConfig();
  const std::string path = TestTempPath("state_roundtrip.bws");

  auto state = NewState(*subsets, config);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE((*state)->ApplyDelta(sim.sets).ok());
  auto want = (*state)->Finalize();
  ASSERT_TRUE(want.ok());
  obs::Counter* saves = obs::DefaultMetrics().GetCounter(obs::kMStateSaves);
  obs::Counter* opens = obs::DefaultMetrics().GetCounter(obs::kMStateOpens);
  const int64_t saves_before = saves->Value();
  const int64_t opens_before = opens->Value();
  ASSERT_TRUE((*state)->Save(path).ok());

  auto reopened = BellwetherState::Open(path, *subsets);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->fingerprint(), (*state)->fingerprint());
  EXPECT_EQ((*reopened)->num_regions(), (*state)->num_regions());
  EXPECT_EQ((*reopened)->delta_batches(), 1);
  // Saving the reopened state through the free function reproduces the
  // file bit for bit, and both saves are counted.
  const std::string again = TestTempPath("state_roundtrip_again.bws");
  ASSERT_TRUE(SaveBellwetherState(**reopened, again).ok());
  EXPECT_EQ(ReadAll(again), ReadAll(path));
  EXPECT_EQ(saves->Value() - saves_before, 2);
  EXPECT_EQ(opens->Value() - opens_before, 1);
  auto got = (*reopened)->Finalize();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectCubesIdentical(*got, *want);
  ExpectSameArtifactBytes(*got, *want, "roundtrip");
  std::remove(again.c_str());
  std::remove(path.c_str());
}

TEST(StateDeltaTest, OpenRejectsForeignSubsetSpace) {
  datagen::SimulationDataset sim = MakeSim(71);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  const std::string path = TestTempPath("state_foreign.bws");
  auto state = NewState(*subsets, MakeConfig());
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE((*state)->ApplyDelta(sim.sets).ok());
  ASSERT_TRUE((*state)->Save(path).ok());

  // A different simulation: different item universe, different subset
  // lattice — the stored fingerprint cannot match.
  datagen::SimulationConfig small;
  small.num_items = 80;
  small.generator_tree_nodes = 5;
  small.num_windows = 2;
  small.location_fanouts = {2};
  small.seed = 73;
  datagen::SimulationDataset tiny = datagen::GenerateSimulation(small);
  auto foreign = ItemSubsetSpace::Create(tiny.items, tiny.item_hierarchies);
  ASSERT_TRUE(foreign.ok());
  auto r = BellwetherState::Open(path, *foreign);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// ---- Delta batch validation ----

TEST(StateDeltaTest, RejectsOutOfOrderBatchesAndSkipsEmptySets) {
  datagen::SimulationDataset sim = MakeSim(75);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  auto state = NewState(*subsets, MakeConfig());
  ASSERT_TRUE(state.ok());

  ASSERT_GE(sim.sets.size(), 2u);
  std::vector<storage::RegionTrainingSet> descending;
  descending.push_back(storage::RegionTrainingSet(sim.sets[1]));
  descending.push_back(storage::RegionTrainingSet(sim.sets[0]));
  const Status st = (*state)->ApplyDelta(std::move(descending));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*state)->num_regions(), 0);

  // An empty set contributes nothing — no slot, no dirty cells — so the
  // result matches a rebuild that never saw it.
  storage::RegionTrainingSet empty;
  empty.region = sim.sets[0].region;
  empty.num_features = sim.sets[0].num_features;
  ASSERT_TRUE((*state)->ApplyDelta({empty}).ok());
  EXPECT_EQ((*state)->num_regions(), 0);
  EXPECT_EQ((*state)->dirty_cells(), 0);
}

// ---- Search over the retained rows ----

TEST(StateDeltaTest, FinalizeSearchMatchesSequentialBasicSearch) {
  datagen::SimulationDataset sim = MakeSim(81);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  auto state = NewState(*subsets, MakeConfig());
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE((*state)->ApplyDelta(sim.sets).ok());

  BasicSearchOptions options;  // cross-validated: exercises the per-cell RNG
  storage::MemoryTrainingData source(sim.sets);
  auto want = RunBasicBellwetherSearch(&source, options);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(want->found());

  auto got = (*state)->FinalizeSearch(options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->bellwether, want->bellwether);
  EXPECT_EQ(got->bellwether_index, want->bellwether_index);
  EXPECT_EQ(got->error.rmse, want->error.rmse);
  EXPECT_EQ(got->model.beta(), want->model.beta());
  ASSERT_EQ(got->scores.size(), want->scores.size());
  for (size_t i = 0; i < want->scores.size(); ++i) {
    EXPECT_EQ(got->scores[i].region, want->scores[i].region) << i;
    EXPECT_EQ(got->scores[i].source_index, want->scores[i].source_index);
    EXPECT_EQ(got->scores[i].usable, want->scores[i].usable) << i;
    if (want->scores[i].usable) {
      EXPECT_EQ(got->scores[i].error.rmse, want->scores[i].error.rmse) << i;
    }
  }
  EXPECT_EQ(got->telemetry.regions_enumerated,
            want->telemetry.regions_enumerated);
  EXPECT_EQ(got->telemetry.regions_scored, want->telemetry.regions_scored);
  EXPECT_EQ(got->telemetry.rows_scanned, want->telemetry.rows_scanned);
  EXPECT_EQ(got->report.LogicalJson(), want->report.LogicalJson());

  // Cached second run: identical result.
  auto cached = (*state)->FinalizeSearch(options);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->bellwether, got->bellwether);
  EXPECT_EQ(cached->error.rmse, got->error.rmse);

  // Changing the scoring options invalidates the cache and matches a fresh
  // sequential search under the new options.
  BasicSearchOptions training;
  training.estimate = regression::ErrorEstimate::kTrainingSet;
  storage::MemoryTrainingData source2(sim.sets);
  auto want2 = RunBasicBellwetherSearch(&source2, training);
  ASSERT_TRUE(want2.ok());
  auto got2 = (*state)->FinalizeSearch(training);
  ASSERT_TRUE(got2.ok());
  EXPECT_EQ(got2->bellwether, want2->bellwether);
  EXPECT_EQ(got2->error.rmse, want2->error.rmse);
  EXPECT_EQ(got2->model.beta(), want2->model.beta());
}

}  // namespace
}  // namespace bellwether::core
