#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "checks.h"
#include "common/random.h"
#include "core/bellwether_state.h"
#include "core/eval_util.h"
#include "core/model_io.h"
#include "layers.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "regression/linear_model.h"
#include "stats.h"
#include "storage/training_data_sink.h"
#include "workload.h"

namespace perfbench {

namespace bw = bellwether;
using bw::Status;
using bw::core::BasicSearchResult;
using bw::core::BellwetherCube;
using bw::core::BellwetherState;
using bw::core::BellwetherTree;
using bw::obs::TraceSpan;
using bw::storage::RegionTrainingSet;
using bw::storage::TrainingDataSource;
using Clock = std::chrono::steady_clock;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Repetitions per window. Each end-to-end timing is the median, over the
/// run's windows, of the window's time per call. A shared host's memory
/// system slows spells of one to five repetitions by 15-50%, so single
/// repetitions fall into a fast and a slow group and their median jumps
/// between the groups from run to run; a window's mean spans the spells.
constexpr size_t kWindow = 4;
/// Measured windows at least, even past --seconds.
constexpr size_t kMinWindows = 3;
/// Workers of the pooled build: with the scan thread they fit 4 cores.
constexpr int32_t kPoolThreads = 3;
/// Delta batches per repetition, and items per batch, all from one base
/// subset; refresh_ms is the time per batch.
constexpr int32_t kDeltaBatches = 3;
constexpr int32_t kDeltaItems = 8;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : -1;
}

/// Pins the calling thread to the CPUs it started with, one at a time in
/// turn. A shared host slows single vCPUs, each at its own times; running
/// successive repetitions on successive vCPUs means a slow vCPU slows only
/// some of a run's repetitions, which the median then discards.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() { Release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the next CPU.
  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  /// Back to every CPU, for a pooled stage: its workers inherit the mask.
  void Release() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// End-to-end metrics, in the order they are printed.
struct E2eInfo {
  const char* name;
  const char* unit;
};
/// There is no `build_par_s`: on a shared 4-vCPU host the pooled build's
/// wall time is bimodal (2.5-3x speedup in some minutes, none in others),
/// so no bound holds across runs. The pooled build runs once per run, for
/// its output check, and in traced repetitions, for its layers.
constexpr E2eInfo kE2e[] = {
    {"setup_s", "s"},    {"peak_rss_mb", "MB"}, {"prepare_s", "s"},
    {"answer_s", "s"},   {"predict_ns", "ns"},  {"build_s", "s"},
    {"refresh_ms", "ms"}, {"save_ms", "ms"},    {"reopen_ms", "ms"},
    {"state_mb", "MB"},
};

/// Per-layer metrics of the traced run: the end-to-end metric each should
/// move ("-" for none), and the workload where that layer's share is
/// largest. The pooled build's layers move no reported metric: its wall
/// time is not reported (see kE2e).
struct LayerInfo {
  const char* name;
  const char* unit;
  const char* moves;
  const char* workload;
};
constexpr LayerInfo kLayers[] = {
    {"table.read_csv_ms", "ms", "prepare_s", "warehouse"},
    {"core.training_data_ms", "ms", "prepare_s", "warehouse"},
    {"core.training_rows", "count", "prepare_s", "warehouse"},
    {"olap.rollup_ms", "ms", "prepare_s", "warehouse"},
    {"datagen.generate_ms", "ms", "prepare_s", "scan_build"},
    {"storage.sink_ms", "ms", "prepare_s", "scan_build"},
    {"storage.scan_ms", "ms", "build_s", "scan_build"},
    {"storage.scans", "count", "build_s", "scan_build"},
    {"storage.bytes_read", "count", "build_s", "scan_build"},
    {"storage.read_ms", "ms", "answer_s", "scan_build"},
    {"storage.arena_reuse_ratio", "ratio", "prepare_s", "warehouse"},
    {"core.answer_search_ms", "ms", "answer_s", "both"},
    {"core.answer_tree_ms", "ms", "answer_s", "both"},
    {"core.answer_cube_ms", "ms", "answer_s", "both"},
    {"core.model_io_ms", "ms", "answer_s", "warehouse"},
    {"core.search_ms", "ms", "build_s", "scan_build"},
    {"core.tree_ms", "ms", "build_s", "scan_build"},
    {"core.cube_ms", "ms", "build_s", "scan_build"},
    {"core.cube_opt_ms", "ms", "build_s", "scan_build"},
    {"core.tree_scans", "count", "build_s", "scan_build"},
    {"core.cube_passes", "count", "build_s", "scan_build"},
    {"core.search_par_ms", "ms", "-", "scan_build"},
    {"core.tree_par_ms", "ms", "-", "scan_build"},
    {"core.cube_par_ms", "ms", "-", "scan_build"},
    {"exec.busy_s", "s", "-", "scan_build"},
    {"exec.utilization", "ratio", "-", "scan_build"},
    {"exec.tasks", "count", "-", "scan_build"},
    {"regression.add_ns_per_row", "ns", "build_s", "scan_build"},
    {"linalg.solve_ns", "ns", "answer_s", "warehouse"},
    {"core.state_apply_ms", "ms", "refresh_ms", "both"},
    {"core.state_finalize_ms", "ms", "refresh_ms", "both"},
    {"core.state_search_ms", "ms", "refresh_ms", "both"},
    {"core.state_delta_rows", "count", "refresh_ms", "both"},
    {"core.state_cells_rederived", "count", "refresh_ms", "both"},
    {"core.state_cells_reused", "count", "refresh_ms", "both"},
    {"core.state_save_mb_per_s", "MB/s", "save_ms", "warehouse"},
    {"core.state_open_ms", "ms", "reopen_ms", "both"},
    {"core.state_first_finalize_ms", "ms", "reopen_ms", "scan_build"},
    {"core.predict_cube_ns", "ns", "predict_ns", "both"},
    {"core.predict_tree_ns", "ns", "predict_ns", "both"},
    {"core.predict_failed", "count", "predict_ns", "warehouse"},
    {"obs.trace_overhead_pct", "%", "-", "both"},
};

/// Registry values the per-layer counts are deltas of.
struct Counters {
  int64_t training_rows = 0;
  int64_t scans = 0;
  int64_t bytes_read = 0;
  int64_t arena_acquires = 0;
  int64_t arena_reuses = 0;
  int64_t exec_tasks = 0;
  int64_t delta_rows = 0;
  int64_t rederived = 0;
  int64_t reused = 0;
  double exec_busy_s = 0.0;

  static Counters Read() {
    auto& m = bw::obs::DefaultMetrics();
    Counters c;
    c.training_rows =
        m.GetCounter(bw::obs::kMDatagenTrainingRowsEmitted)->Value();
    c.scans = m.GetCounter(bw::obs::kMStorageScans)->Value();
    c.bytes_read = m.GetCounter(bw::obs::kMStorageBytesRead)->Value();
    c.arena_acquires = m.GetCounter(bw::obs::kMArenaAcquires)->Value();
    c.arena_reuses = m.GetCounter(bw::obs::kMArenaReuses)->Value();
    c.exec_tasks = m.GetCounter(bw::obs::kMExecTasksSubmitted)->Value();
    c.delta_rows = m.GetCounter(bw::obs::kMStateDeltaRows)->Value();
    c.rederived = m.GetCounter(bw::obs::kMStateCellsRederived)->Value();
    c.reused = m.GetCounter(bw::obs::kMStateCellsReused)->Value();
    c.exec_busy_s = m.GetGauge(bw::obs::kMExecWorkerBusySeconds)->Value();
    return c;
  }
};

/// The rows of `set` whose item passes `keep`, in their order.
RegionTrainingSet FilterRows(const RegionTrainingSet& set,
                             const std::function<bool(int32_t)>& keep) {
  RegionTrainingSet out;
  out.region = set.region;
  out.num_features = set.num_features;
  const size_t p = static_cast<size_t>(set.num_features);
  for (size_t i = 0; i < set.items.size(); ++i) {
    if (!keep(set.items[i])) continue;
    out.items.push_back(set.items[i]);
    out.targets.push_back(set.targets[i]);
    out.features.insert(out.features.end(), set.row(i), set.row(i) + p);
    if (set.weighted()) out.weights.push_back(set.weights[i]);
  }
  return out;
}

/// Per region, the rows of each part in turn (each ascending by region):
/// the row order of a state that ingested the parts in that order.
std::vector<RegionTrainingSet> Concatenate(
    const std::vector<std::vector<RegionTrainingSet>>& parts) {
  std::map<bw::olap::RegionId, RegionTrainingSet> merged;
  for (const auto& sets : parts) {
    for (const RegionTrainingSet& s : sets) {
      auto [it, fresh] = merged.try_emplace(s.region, s);
      if (fresh) continue;
      RegionTrainingSet& m = it->second;
      m.items.insert(m.items.end(), s.items.begin(), s.items.end());
      m.targets.insert(m.targets.end(), s.targets.begin(), s.targets.end());
      m.features.insert(m.features.end(), s.features.begin(), s.features.end());
      m.weights.insert(m.weights.end(), s.weights.begin(), s.weights.end());
    }
  }
  std::vector<RegionTrainingSet> out;
  for (auto& [region, set] : merged) out.push_back(std::move(set));
  return out;
}

/// Items [0, n) that both models predict. An item with no row in the region
/// its cube cell or tree leaf picks gets NotFound: a correct answer that is
/// not a prediction, so the predict stage leaves such items out.
std::vector<int32_t> PredictedItems(
    const BellwetherCube& cube, const BellwetherTree& tree,
    const bw::core::RegionFeatureLookup& lookup, int32_t n) {
  std::vector<int32_t> out;
  for (int32_t item = 0; item < n; ++item) {
    if (cube.PredictItem(item, lookup).ok() &&
        tree.PredictItem(item, lookup).ok()) {
      out.push_back(item);
    }
  }
  return out;
}

int64_t Rows(const std::vector<RegionTrainingSet>& sets) {
  int64_t n = 0;
  for (const auto& s : sets) n += static_cast<int64_t>(s.num_examples());
  return n;
}

/// One measured repetition.
struct Sample {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;  // traced repetitions only
  double wall_s = 0.0;                  // the stages behind e2e timings
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// One set-up of a workload and the repetitions run on it. Owns `dir`,
/// which it removes when destroyed.
class LifeCycle {
 public:
  LifeCycle(Workload* workload, const RunOptions& options, std::string dir)
      : w_(workload), o_(options), dir_(std::move(dir)) {}
  ~LifeCycle() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  LifeCycle(const LifeCycle&) = delete;
  LifeCycle& operator=(const LifeCycle&) = delete;

  Status SetUp();
  /// Runs every stage once on the calling thread. A traced repetition also
  /// runs the pooled build, with every CPU of `cpus` allowed.
  Status Repetition(bool traced, CpuRotation* cpus, Sample* out);
  /// The pooled build (search, RF tree, single-scan cube at kPoolThreads
  /// workers over the spill), checked against the 1-thread build of the
  /// first repetition. Releases `cpus` first. Sets the stage's wall time.
  Status PooledBuild(bool traced, CpuRotation* cpus, double* wall_s);
  /// Checks that need the end state: the maintained cube against a
  /// from-scratch build, and the reopened last save against it.
  Status FinalChecks();
  const std::map<std::string, int64_t>& shape() const { return shape_; }

  /// ns per row of RegressionSuffStats::AddBatch over every training row.
  double ProbeAddNsPerRow() const;
  /// ns per linalg::SolveSpd of each region's normal equations.
  double ProbeSolveNs() const;

 private:
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }
  /// Records `value` on the first repetition; later ones must reproduce it.
  Status SameAsFirst(const std::string& what, const std::string& value) {
    auto [it, fresh] = first_.try_emplace(what, value);
    return fresh ? Status::OK()
                 : CheckSame(what + " vs the first repetition", it->second,
                             value);
  }
  std::vector<Prediction> PredictAll(const BellwetherCube& cube,
                                     const BellwetherTree& tree) const;

  Workload* w_;
  const RunOptions& o_;
  std::string dir_;
  std::shared_ptr<const bw::core::ItemSubsetSpace> subsets_;
  /// The prepared training data, kept for prediction lookups, the probes
  /// and the state's history and delta batch.
  std::vector<RegionTrainingSet> sets_;
  std::unique_ptr<bw::core::RegionFeatureLookup> lookup_;
  /// Spilled copy, written once; the build stages scan it.
  std::unique_ptr<TrainingDataSource> spill_;
  /// The predict stage's items in a seed-shuffled order, set by the first
  /// repetition.
  std::vector<int32_t> order_;
  std::vector<RegionTrainingSet> history_;
  std::vector<std::vector<RegionTrainingSet>> batches_;
  std::string base_state_path_;
  std::map<std::string, int64_t> shape_;
  std::map<std::string, std::string> first_;
  std::string last_state_path_;
  std::string last_refreshed_bytes_;
  int reps_ = 0;
};

Status LifeCycle::SetUp() {
  const WorkloadConfig& cfg = w_->config;
  std::filesystem::create_directories(dir_);
  BW_RETURN_IF_ERROR(w_->GenerateInput(dir_));
  BW_ASSIGN_OR_RETURN(subsets_, bw::core::ItemSubsetSpace::Create(
                                    w_->items(), w_->hierarchies()));
  {
    bw::storage::MemorySink sink;
    BW_RETURN_IF_ERROR(w_->Prepare(&sink));
    BW_ASSIGN_OR_RETURN(auto source, sink.Finish());
    auto* memory = dynamic_cast<bw::storage::MemoryTrainingData*>(source.get());
    if (memory == nullptr) return Status::Internal("no memory source");
    sets_ = memory->sets();
  }
  lookup_ = std::make_unique<bw::core::RegionFeatureLookup>(&sets_);
  {
    BW_ASSIGN_OR_RETURN(auto sink,
                        bw::storage::SpillSink::Create(Path("training.spill")));
    for (const RegionTrainingSet& set : sets_) {
      RegionTrainingSet copy = set;
      BW_RETURN_IF_ERROR(sink->Append(std::move(copy)));
    }
    BW_ASSIGN_OR_RETURN(spill_, sink->Finish());
  }

  const auto n = static_cast<int32_t>(w_->items().num_rows());

  // The delta batches: the newest (highest-numbered) items of one fixed
  // base subset, kDeltaItems per batch, oldest batch first. Every batch
  // dirties the same cube cells, and every run ingests the same rows.
  const int32_t limit = cfg.state_items < 0 ? n : std::min(n, cfg.state_items);
  const bw::core::SubsetId base = subsets_->BaseSubsetOf(0);
  const int32_t wanted = kDeltaItems * kDeltaBatches;
  std::vector<int32_t> newest;
  for (int32_t i = limit - 1;
       i >= 0 && static_cast<int32_t>(newest.size()) < wanted; --i) {
    if (subsets_->BaseSubsetOf(i) == base) newest.push_back(i);
  }
  if (static_cast<int32_t>(newest.size()) < wanted) {
    return Status::Internal("base subset too small for the delta batches");
  }
  // batch_of[item]: 1 + its batch, 0 for history.
  std::vector<int32_t> batch_of(n, 0);
  for (int32_t k = 0; k < wanted; ++k) {
    batch_of[newest[wanted - 1 - k]] = 1 + k / kDeltaItems;
  }
  batches_.resize(kDeltaBatches);
  for (const RegionTrainingSet& set : sets_) {
    RegionTrainingSet h = FilterRows(
        set, [&](int32_t i) { return i < limit && batch_of[i] == 0; });
    if (!h.items.empty()) history_.push_back(std::move(h));
    for (int32_t b = 0; b < kDeltaBatches; ++b) {
      RegionTrainingSet d =
          FilterRows(set, [&](int32_t i) { return batch_of[i] == b + 1; });
      if (!d.items.empty()) batches_[b].push_back(std::move(d));
    }
  }

  BellwetherState::Options options;
  options.config = cfg.cube;
  BW_ASSIGN_OR_RETURN(auto state, BellwetherState::Init(subsets_, options));
  BW_RETURN_IF_ERROR(state->ApplyDelta(history_));
  BW_RETURN_IF_ERROR(state->Finalize().status());
  base_state_path_ = Path("base.bws");
  BW_RETURN_IF_ERROR(bw::core::SaveBellwetherState(*state, base_state_path_));

  w_->AddInputShape(&shape_);
  shape_["training_rows"] = Rows(sets_);
  shape_["regions"] = static_cast<int64_t>(sets_.size());
  shape_["items"] = n;
  shape_["state_rows"] = Rows(history_);
  int64_t delta_rows = 0;
  for (const auto& batch : batches_) delta_rows += Rows(batch);
  shape_["delta_rows"] = delta_rows;
  return Status::OK();
}

std::vector<Prediction> LifeCycle::PredictAll(
    const BellwetherCube& cube, const BellwetherTree& tree) const {
  std::vector<Prediction> out;
  const auto n = static_cast<int32_t>(w_->items().num_rows());
  for (int32_t item = 0; item < n; ++item) {
    const auto c = cube.PredictItem(item, *lookup_);
    out.push_back(c.ok() ? Prediction{bw::StatusCode::kOk, c->value}
                         : Prediction{c.status().code(), 0.0});
    const auto t = tree.PredictItem(item, *lookup_);
    out.push_back(t.ok() ? Prediction{bw::StatusCode::kOk, *t}
                         : Prediction{t.status().code(), 0.0});
  }
  return out;
}

Status LifeCycle::Repetition(bool traced, CpuRotation* cpus, Sample* out) {
  const WorkloadConfig& cfg = w_->config;
  const std::string tag = "r" + std::to_string(reps_++) + "-";
  const Counters c0 = Counters::Read();

  // ---- prepare ----
  std::unique_ptr<TrainingDataSource> prepared;
  auto t = Clock::now();
  for (int32_t run = 0; run < cfg.prepare_runs; ++run) {
    prepared.reset();
    bw::storage::MemorySink sink;
    TimedSink timed_sink(&sink);
    bw::storage::TrainingDataSink* into =
        traced ? static_cast<bw::storage::TrainingDataSink*>(&timed_sink)
               : &sink;
    BW_RETURN_IF_ERROR(w_->Prepare(into));
    BW_ASSIGN_OR_RETURN(prepared, into->Finish());
  }
  const double prepare_s = Since(t) / cfg.prepare_runs;

  // Scan calls each build makes on its source (Lemmas 1 and 2).
  std::map<std::string, int64_t> scans;
  auto count_scans = [&](const char* build, TrainingDataSource* source,
                         auto&& call) {
    const int64_t before = source->io_stats().sequential_scans;
    call();
    scans[build] = source->io_stats().sequential_scans - before;
  };

  // ---- answer ----
  TimedSource timed_prepared(prepared.get());
  TrainingDataSource* source = traced ? &timed_prepared : prepared.get();
  const std::string tree_path = Path(tag + "answer.bwt");
  const std::string cube_path = Path(tag + "answer.bwc");
  t = Clock::now();
  bw::Result<BasicSearchResult> search = Status::OK();
  bw::Result<BellwetherTree> tree = Status::OK();
  bw::Result<BellwetherCube> cube = Status::OK();
  bw::Result<BellwetherTree> loaded_tree = Status::OK();
  bw::Result<BellwetherCube> loaded_cube = Status::OK();
  {
    TraceSpan s("core.answer_search", kBenchCategory);
    search = bw::core::RunBasicBellwetherSearch(source, cfg.search);
  }
  BW_RETURN_IF_ERROR(search.status());
  {
    TraceSpan s("core.answer_tree", kBenchCategory);
    count_scans("answer tree", source, [&] {
      tree = bw::core::BuildBellwetherTreeRainForest(source, w_->items(),
                                                     cfg.tree);
    });
  }
  BW_RETURN_IF_ERROR(tree.status());
  {
    TraceSpan s("core.answer_cube", kBenchCategory);
    count_scans("answer cube", source, [&] {
      cube =
          bw::core::BuildBellwetherCubeSingleScan(source, subsets_, cfg.cube);
    });
  }
  BW_RETURN_IF_ERROR(cube.status());
  {
    TraceSpan s("core.model_io", kBenchCategory);
    BW_RETURN_IF_ERROR(bw::core::SaveBellwetherTree(*tree, tree_path));
    BW_RETURN_IF_ERROR(bw::core::SaveBellwetherCube(*cube, cube_path));
    loaded_tree = bw::core::LoadBellwetherTree(tree_path, w_->items());
    loaded_cube = bw::core::LoadBellwetherCube(cube_path, subsets_);
  }
  BW_RETURN_IF_ERROR(loaded_tree.status());
  BW_RETURN_IF_ERROR(loaded_cube.status());
  const double answer_s = Since(t);
  if (order_.empty()) {
    order_ = PredictedItems(*cube, *tree, *lookup_,
                            static_cast<int32_t>(w_->items().num_rows()));
    bw::Rng order_rng(o_.seed);
    order_rng.Shuffle(&order_);
  }

  // ---- predict ----
  int64_t predictions = 0;
  int64_t not_found = 0;
  double checksum = 0.0;
  // `one` predicts one item; a template parameter, so the timed loop pays
  // no indirection of its own.
  auto predict = [&](auto&& one) -> Status {
    for (int32_t pass = 0; pass < cfg.predict_passes; ++pass) {
      for (int32_t item : order_) {
        const bw::Result<double> r = one(item);
        ++predictions;
        if (r.ok()) {
          checksum += *r;
        } else if (r.status().code() == bw::StatusCode::kNotFound) {
          ++not_found;
        } else {
          return r.status();
        }
      }
    }
    return Status::OK();
  };
  t = Clock::now();
  {
    TraceSpan s("core.predict_cube", kBenchCategory);
    BW_RETURN_IF_ERROR(predict([&](int32_t item) -> bw::Result<double> {
      auto p = loaded_cube->PredictItem(item, *lookup_);
      if (!p.ok()) return p.status();
      return p->value;
    }));
  }
  {
    TraceSpan s("core.predict_tree", kBenchCategory);
    BW_RETURN_IF_ERROR(predict(
        [&](int32_t item) {
          return loaded_tree->PredictItem(item, *lookup_);
        }));
  }
  const double predict_s = Since(t);

  // ---- build ----
  TimedSource timed_spilled(spill_.get());
  TrainingDataSource* scan = traced ? &timed_spilled : spill_.get();
  bw::core::BasicSearchOptions build_search = cfg.search;
  build_search.estimate = bw::regression::ErrorEstimate::kTrainingSet;
  bw::core::CubeBuildConfig cube_nocv = cfg.cube;
  cube_nocv.compute_cv_stats = false;
  bw::Result<BasicSearchResult> search_b = Status::OK();
  bw::Result<BellwetherTree> tree_b = Status::OK();
  bw::Result<BellwetherCube> cube_b = Status::OK(), opt_b = Status::OK();
  t = Clock::now();
  {
    TraceSpan s("core.search", kBenchCategory);
    search_b = bw::core::RunBasicBellwetherSearch(scan, build_search);
  }
  {
    TraceSpan s("core.tree", kBenchCategory);
    count_scans("build tree", scan, [&] {
      tree_b =
          bw::core::BuildBellwetherTreeRainForest(scan, w_->items(), cfg.tree);
    });
  }
  {
    TraceSpan s("core.cube", kBenchCategory);
    count_scans("build cube", scan, [&] {
      cube_b =
          bw::core::BuildBellwetherCubeSingleScan(scan, subsets_, cube_nocv);
    });
  }
  {
    TraceSpan s("core.cube_opt", kBenchCategory);
    count_scans("optimized cube", scan, [&] {
      opt_b = bw::core::BuildBellwetherCubeOptimized(scan, subsets_, cube_nocv);
    });
  }
  const double build_s = Since(t);
  BW_RETURN_IF_ERROR(search_b.status());
  BW_RETURN_IF_ERROR(tree_b.status());
  BW_RETURN_IF_ERROR(cube_b.status());
  BW_RETURN_IF_ERROR(opt_b.status());

  // ---- reopen ----
  t = Clock::now();
  bw::Result<std::unique_ptr<BellwetherState>> state = Status::OK();
  bw::Result<BellwetherCube> reopened = Status::OK();
  {
    TraceSpan s("core.state_open", kBenchCategory);
    state = BellwetherState::Open(base_state_path_, subsets_);
  }
  BW_RETURN_IF_ERROR(state.status());
  (*state)->set_exec(bw::exec::BellwetherExecOptions{1});
  {
    TraceSpan s("core.state_first_finalize", kBenchCategory);
    reopened = (*state)->Finalize();
  }
  const double reopen_s = Since(t);
  BW_RETURN_IF_ERROR(reopened.status());

  // ---- refresh: every batch in turn ----
  std::vector<std::vector<RegionTrainingSet>> deltas = batches_;
  std::vector<int64_t> dirty;
  bw::Result<BellwetherCube> refreshed = Status::OK();
  bw::Result<BasicSearchResult> state_search = Status::OK();
  const Counters r0 = Counters::Read();
  t = Clock::now();
  for (auto& delta : deltas) {
    {
      TraceSpan s("core.state_apply", kBenchCategory);
      BW_RETURN_IF_ERROR((*state)->ApplyDelta(std::move(delta)));
    }
    dirty.push_back((*state)->dirty_cells());
    {
      TraceSpan s("core.state_finalize", kBenchCategory);
      refreshed = (*state)->Finalize();
    }
    BW_RETURN_IF_ERROR(refreshed.status());
    {
      TraceSpan s("core.state_search", kBenchCategory);
      state_search = (*state)->FinalizeSearch(cfg.search);
    }
    BW_RETURN_IF_ERROR(state_search.status());
  }
  const double refresh_s = Since(t) / kDeltaBatches;
  const Counters r1 = Counters::Read();

  // ---- save ----
  const std::string state_path = Path(tag + "state.bws");
  t = Clock::now();
  {
    TraceSpan s("core.state_save", kBenchCategory);
    BW_RETURN_IF_ERROR(bw::core::SaveBellwetherState(**state, state_path));
  }
  const double save_s = Since(t);
  const double state_mb = static_cast<double>(FileSize(state_path)) / 1e6;
  const Counters c1 = Counters::Read();

  // ---- pooled build (traced repetitions only; outside wall_s) ----
  double pooled_s = 0.0;
  const Counters p0 = Counters::Read();
  if (traced) BW_RETURN_IF_ERROR(PooledBuild(true, cpus, &pooled_s));
  const Counters p1 = Counters::Read();

  // ---- output checks (untimed) ----
  BW_RETURN_IF_ERROR(w_->CheckAnswer(*search));
  BW_RETURN_IF_ERROR(SameAsFirst("answer search", SearchDigest(*search)));
  BW_RETURN_IF_ERROR(
      SameAsFirst("answer tree bytes", ReadFileBytes(tree_path)));
  BW_RETURN_IF_ERROR(
      SameAsFirst("answer cube bytes", ReadFileBytes(cube_path)));
  BW_RETURN_IF_ERROR(CheckPredictionsEqual(
      "reloaded vs in-memory artifacts", PredictAll(*cube, *tree),
      PredictAll(*loaded_cube, *loaded_tree)));
  BW_RETURN_IF_ERROR(
      CheckTreePasses("answer tree", *tree, scans["answer tree"]));
  BW_RETURN_IF_ERROR(
      CheckTreePasses("build tree", *tree_b, scans["build tree"]));
  for (const char* build : {"answer cube", "build cube", "optimized cube"}) {
    BW_RETURN_IF_ERROR(CheckCubePasses(build, scans[build]));
  }
  const std::string scratch = Path(tag + "artifact");
  BW_ASSIGN_OR_RETURN(const std::string tree_b_bytes,
                      TreeBytes(*tree_b, scratch));
  BW_ASSIGN_OR_RETURN(const std::string cube_b_bytes,
                      CubeBytes(*cube_b, scratch));
  BW_ASSIGN_OR_RETURN(const std::string opt_b_bytes,
                      CubeBytes(*opt_b, scratch));
  BW_ASSIGN_OR_RETURN(const std::string refreshed_bytes,
                      CubeBytes(*refreshed, scratch));
  BW_RETURN_IF_ERROR(SameAsFirst("build search", SearchDigest(*search_b)));
  BW_RETURN_IF_ERROR(SameAsFirst("build tree bytes", tree_b_bytes));
  BW_RETURN_IF_ERROR(SameAsFirst("build cube bytes", cube_b_bytes));
  BW_RETURN_IF_ERROR(SameAsFirst("optimized cube bytes", opt_b_bytes));
  BW_RETURN_IF_ERROR(SameAsFirst("refreshed cube bytes", refreshed_bytes));
  BW_RETURN_IF_ERROR(SameAsFirst("state search", SearchDigest(*state_search)));
  shape_["tree_nodes"] = static_cast<int64_t>(tree->nodes().size());
  shape_["cube_cells"] = static_cast<int64_t>(cube->cells().size());
  if (std::count(dirty.begin(), dirty.end(), dirty[0]) !=
      static_cast<long>(dirty.size())) {
    return Status::Internal("delta batches dirtied different cell counts");
  }
  shape_["dirty_cells_per_batch"] = dirty[0];
  shape_["predictions_per_batch"] = predictions;

  std::remove(tree_path.c_str());
  std::remove(cube_path.c_str());
  if (!last_state_path_.empty()) std::remove(last_state_path_.c_str());
  last_state_path_ = state_path;
  last_refreshed_bytes_ = refreshed_bytes;

  // ---- the sample ----
  out->e2e["prepare_s"] = prepare_s;
  out->e2e["answer_s"] = answer_s;
  out->e2e["predict_ns"] = predict_s * 1e9 / static_cast<double>(predictions);
  out->e2e["build_s"] = build_s;
  out->e2e["refresh_ms"] = refresh_s * 1e3;
  out->e2e["save_ms"] = save_s * 1e3;
  out->e2e["reopen_ms"] = reopen_s * 1e3;
  out->e2e["state_mb"] = state_mb;
  out->wall_s = prepare_s + answer_s + predict_s + build_s + reopen_s +
                refresh_s + save_s;
  // Public calls: 1 per prepare, answer 7, build 4, reopen 2, 3 per delta
  // batch, save 1, pooled build 3 (traced only); plus one per prediction.
  out->attempted = cfg.prepare_runs + 14 + 3 * kDeltaBatches +
                   (traced ? 3 : 0) + predictions;
  out->failed = not_found;
  if (std::isnan(checksum)) {
    return Status::Internal("a prediction returned NaN");
  }

  if (traced) {
    const auto& trace = bw::obs::DefaultTrace();
    if (trace.dropped_events() > 0) {
      return Status::Internal("trace buffer overflowed");
    }
    std::map<std::string, double> self = LayerSelfMicros(trace.Snapshot());
    auto ms = [&](const char* layer) { return self[layer] / 1e3; };
    // Prepare-stage layers per prepare call, state layers per delta batch,
    // like the end-to-end metrics they move.
    const double prepares = cfg.prepare_runs;
    const double batches = kDeltaBatches;
    const double per_model =
        static_cast<double>(predictions) / 2.0;  // cube and tree each
    auto delta = [](int64_t after, int64_t before) {
      return static_cast<double>(after - before);
    };
    auto& L = out->layer;
    L["table.read_csv_ms"] = ms("table.read_csv") / prepares;
    L["core.training_data_ms"] = ms("core.training_data") / prepares;
    L["core.training_rows"] =
        delta(c1.training_rows, c0.training_rows) / prepares;
    L["olap.rollup_ms"] = ms("olap.rollup") / prepares;
    L["datagen.generate_ms"] = ms("datagen.generate") / prepares;
    L["storage.sink_ms"] = ms(kSinkSpan) / prepares;
    L["storage.scan_ms"] = ms(kScanSpan);
    L["storage.scans"] = delta(c1.scans, c0.scans);
    L["storage.bytes_read"] = delta(c1.bytes_read, c0.bytes_read);
    L["storage.read_ms"] = ms(kReadSpan);
    const double acquires = delta(c1.arena_acquires, c0.arena_acquires);
    L["storage.arena_reuse_ratio"] =
        acquires > 0 ? delta(c1.arena_reuses, c0.arena_reuses) / acquires : 0;
    L["core.answer_search_ms"] = ms("core.answer_search");
    L["core.answer_tree_ms"] = ms("core.answer_tree");
    L["core.answer_cube_ms"] = ms("core.answer_cube");
    L["core.model_io_ms"] = ms("core.model_io");
    L["core.search_ms"] = ms("core.search");
    L["core.tree_ms"] = ms("core.tree");
    L["core.cube_ms"] = ms("core.cube");
    L["core.cube_opt_ms"] = ms("core.cube_opt");
    L["core.tree_scans"] = static_cast<double>(scans["build tree"]);
    L["core.cube_passes"] = static_cast<double>(scans["build cube"]);
    L["core.search_par_ms"] = ms("core.search_par");
    L["core.tree_par_ms"] = ms("core.tree_par");
    L["core.cube_par_ms"] = ms("core.cube_par");
    const double busy = p1.exec_busy_s - p0.exec_busy_s;
    L["exec.busy_s"] = busy;
    L["exec.utilization"] = busy / (kPoolThreads * pooled_s);
    L["exec.tasks"] = delta(p1.exec_tasks, p0.exec_tasks);
    L["core.state_apply_ms"] = ms("core.state_apply") / batches;
    L["core.state_finalize_ms"] = ms("core.state_finalize") / batches;
    L["core.state_search_ms"] = ms("core.state_search") / batches;
    L["core.state_delta_rows"] = delta(r1.delta_rows, r0.delta_rows) / batches;
    L["core.state_cells_rederived"] =
        delta(r1.rederived, r0.rederived) / batches;
    L["core.state_cells_reused"] = delta(r1.reused, r0.reused) / batches;
    L["core.state_save_mb_per_s"] = state_mb / save_s;
    L["core.state_open_ms"] = ms("core.state_open");
    L["core.state_first_finalize_ms"] = ms("core.state_first_finalize");
    L["core.predict_cube_ns"] = self["core.predict_cube"] * 1e3 / per_model;
    L["core.predict_tree_ns"] = self["core.predict_tree"] * 1e3 / per_model;
    L["core.predict_failed"] = static_cast<double>(not_found);
  }
  return Status::OK();
}

Status LifeCycle::PooledBuild(bool traced, CpuRotation* cpus,
                              double* wall_s) {
  const WorkloadConfig& cfg = w_->config;
  TimedSource timed_spilled(spill_.get());
  TrainingDataSource* scan = traced ? &timed_spilled : spill_.get();
  bw::core::BasicSearchOptions search_pool = cfg.search;
  search_pool.estimate = bw::regression::ErrorEstimate::kTrainingSet;
  search_pool.exec.num_threads = kPoolThreads;
  bw::core::TreeBuildConfig tree_pool = cfg.tree;
  tree_pool.exec.num_threads = kPoolThreads;
  bw::core::CubeBuildConfig cube_pool = cfg.cube;
  cube_pool.compute_cv_stats = false;
  cube_pool.exec.num_threads = kPoolThreads;
  bw::Result<BasicSearchResult> search = Status::OK();
  bw::Result<BellwetherTree> tree = Status::OK();
  bw::Result<BellwetherCube> cube = Status::OK();
  cpus->Release();
  const auto t = Clock::now();
  {
    TraceSpan s("core.search_par", kBenchCategory);
    search = bw::core::RunBasicBellwetherSearch(scan, search_pool);
  }
  const int64_t before_tree = scan->io_stats().sequential_scans;
  {
    TraceSpan s("core.tree_par", kBenchCategory);
    tree = bw::core::BuildBellwetherTreeRainForest(scan, w_->items(),
                                                   tree_pool);
  }
  const int64_t before_cube = scan->io_stats().sequential_scans;
  {
    TraceSpan s("core.cube_par", kBenchCategory);
    cube = bw::core::BuildBellwetherCubeSingleScan(scan, subsets_, cube_pool);
  }
  *wall_s = Since(t);
  const int64_t after_cube = scan->io_stats().sequential_scans;
  BW_RETURN_IF_ERROR(search.status());
  BW_RETURN_IF_ERROR(tree.status());
  BW_RETURN_IF_ERROR(cube.status());
  BW_RETURN_IF_ERROR(
      CheckTreePasses("pooled tree", *tree, before_cube - before_tree));
  BW_RETURN_IF_ERROR(CheckCubePasses("pooled cube", after_cube - before_cube));
  const std::string scratch = Path("pooled-artifact");
  BW_ASSIGN_OR_RETURN(const std::string tree_bytes, TreeBytes(*tree, scratch));
  BW_ASSIGN_OR_RETURN(const std::string cube_bytes, CubeBytes(*cube, scratch));
  BW_RETURN_IF_ERROR(CheckSame("pooled vs 1-thread search",
                               first_.at("build search"),
                               SearchDigest(*search)));
  BW_RETURN_IF_ERROR(CheckSame("pooled vs 1-thread tree bytes",
                               first_.at("build tree bytes"), tree_bytes));
  return CheckSame("pooled vs 1-thread cube bytes",
                   first_.at("build cube bytes"), cube_bytes);
}

Status LifeCycle::FinalChecks() {
  std::vector<std::vector<RegionTrainingSet>> parts{history_};
  parts.insert(parts.end(), batches_.begin(), batches_.end());
  bw::storage::MemoryTrainingData rows(Concatenate(parts));
  BW_ASSIGN_OR_RETURN(
      const BellwetherCube scratch_cube,
      bw::core::BuildBellwetherCubeSingleScan(&rows, subsets_,
                                              w_->config.cube));
  BW_ASSIGN_OR_RETURN(const std::string scratch_bytes,
                      CubeBytes(scratch_cube, Path("final-artifact")));
  BW_RETURN_IF_ERROR(CheckSame(
      "maintained cube vs from-scratch single-scan build over the same rows",
      scratch_bytes, last_refreshed_bytes_));
  BW_ASSIGN_OR_RETURN(auto state,
                      BellwetherState::Open(last_state_path_, subsets_));
  state->set_exec(bw::exec::BellwetherExecOptions{1});
  BW_ASSIGN_OR_RETURN(const BellwetherCube reopened, state->Finalize());
  BW_ASSIGN_OR_RETURN(const std::string reopened_bytes,
                      CubeBytes(reopened, Path("final-artifact")));
  return CheckSame("reopened saved state vs maintained cube",
                   last_refreshed_bytes_, reopened_bytes);
}

double LifeCycle::ProbeAddNsPerRow() const {
  double seconds = 0.0;
  double rows = 0.0;
  double checksum = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    for (const RegionTrainingSet& set : sets_) {
      bw::regression::RegressionSuffStats stats(
          static_cast<size_t>(set.num_features));
      const auto t = Clock::now();
      stats.AddBatch(set.features.data(), set.targets.data(),
                     set.weighted() ? set.weights.data() : nullptr,
                     set.num_examples());
      seconds += Since(t);
      rows += static_cast<double>(set.num_examples());
      checksum += stats.ytwy();
    }
  }
  return std::isnan(checksum) ? 0.0 : seconds * 1e9 / rows;
}

double LifeCycle::ProbeSolveNs() const {
  constexpr int kRepeats = 20;
  double seconds = 0.0;
  int64_t solves = 0;
  for (const RegionTrainingSet& set : sets_) {
    bw::regression::RegressionSuffStats stats(
        static_cast<size_t>(set.num_features));
    stats.AddBatch(set.features.data(), set.targets.data(),
                   set.weighted() ? set.weights.data() : nullptr,
                   set.num_examples());
    const bw::linalg::Matrix a = stats.xtwx();
    const auto t = Clock::now();
    for (int r = 0; r < kRepeats; ++r) {
      auto x = bw::linalg::SolveSpd(a, stats.xtwy());
      (void)x;
    }
    seconds += Since(t);
    solves += kRepeats;
  }
  return seconds * 1e9 / static_cast<double>(solves);
}

/// Median of a per-layer metric over the traced repetitions.
double LayerMedian(const std::vector<Sample>& samples,
                   const std::string& name) {
  std::vector<double> values;
  for (const Sample& s : samples) {
    auto it = s.layer.find(name);
    if (it != s.layer.end()) values.push_back(it->second);
  }
  return Median(values);
}

}  // namespace

bw::Result<RunResult> Run(const RunOptions& o) {
  bw::obs::Trace& trace = bw::obs::DefaultTrace();
  trace.set_enabled(false);
  trace.Clear();
  if (MakeWorkload(o.workload, o.seed) == nullptr) {
    return Status::InvalidArgument("unknown workload '" + o.workload + "'");
  }

  // Set-up, several times: input generation, system initialisation and one
  // discarded warm-up repetition. The last set-up is the one measured.
  // Each set-up and each repetition runs on the next CPU in turn.
  CpuRotation cpus;
  std::vector<double> setup_s;
  std::unique_ptr<LifeCycle> life;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < kSetups; ++k) {
    life.reset();
    workload = MakeWorkload(o.workload, o.seed);
    cpus.Next();
    const auto t = Clock::now();
    life = std::make_unique<LifeCycle>(
        workload.get(), o, o.workdir + "/setup" + std::to_string(k));
    BW_RETURN_IF_ERROR(life->SetUp());
    Sample warm_up;
    BW_RETURN_IF_ERROR(life->Repetition(/*traced=*/false, &cpus, &warm_up));
    setup_s.push_back(Since(t));
  }
  std::string shape_line;
  for (const auto& [name, value] : life->shape()) {
    shape_line += " " + name + "=" + std::to_string(value);
  }
  std::fprintf(stderr, "shape:%s\n", shape_line.c_str());

  // Measured repetitions: a closed loop with one client. A traced run
  // alternates untraced and traced repetitions, so the tracing overhead is
  // measured under the same host conditions.
  std::vector<Sample> samples;
  const size_t min_reps = o.trace ? 4 : kMinWindows * kWindow;
  const auto start = Clock::now();
  while (Since(start) < o.seconds || samples.size() < min_reps ||
         samples.size() % kWindow != 0) {
    const bool traced = o.trace && samples.size() % 2 == 1;
    if (traced) {
      trace.Clear();
      trace.set_enabled(true);
    }
    Sample s;
    cpus.Next();
    const Status st = life->Repetition(traced, &cpus, &s);
    trace.set_enabled(false);
    BW_RETURN_IF_ERROR(st);
    std::string line;
    for (const auto& [name, value] : s.e2e) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %s=%.4g", name.c_str(), value);
      line += buf;
    }
    std::fprintf(stderr, "repetition %zu%s:%s\n", samples.size(),
                 traced ? " (traced)" : "", line.c_str());
    samples.push_back(std::move(s));
  }
  double pooled_s = 0.0;
  BW_RETURN_IF_ERROR(life->PooledBuild(/*traced=*/false, &cpus, &pooled_s));
  std::fprintf(stderr, "pooled build at %d workers: %.4g s, same bytes as 1 "
               "thread\n", kPoolThreads, pooled_s);
  BW_RETURN_IF_ERROR(life->FinalChecks());
  BW_RETURN_IF_ERROR(CheckShape(workload->ExpectedShape(), life->shape()));

  RunResult result;
  result.attempted = 3;  // the pooled build's calls
  for (const Sample& s : samples) {
    result.attempted += s.attempted;
    result.failed += s.failed;
  }
  if (!o.trace) {
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    for (const E2eInfo& info : kE2e) {
      std::vector<double> values;
      const std::string name = info.name;
      if (name == "setup_s") {
        values = setup_s;
      } else if (name == "peak_rss_mb") {
        values = {static_cast<double>(usage.ru_maxrss) / 1024.0};
      } else {
        // Every repetition does the same work, so a window's mean is its
        // time per call.
        std::vector<double> reps;
        for (const Sample& s : samples) reps.push_back(s.e2e.at(name));
        values = WindowMeans(reps, kWindow);
      }
      std::fprintf(stderr, "%-12s %-3s %s\n", info.name, info.unit,
                   Summarize(values).c_str());
      result.metrics.push_back({info.name, Median(values), info.unit});
    }
    return result;
  }

  if (!o.trace_out.empty()) {
    if (std::FILE* f = std::fopen(o.trace_out.c_str(), "w")) {
      const std::string json = trace.ToChromeTraceJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  std::vector<double> traced_wall, plain_wall;
  for (const Sample& s : samples) {
    (s.layer.empty() ? plain_wall : traced_wall).push_back(s.wall_s);
  }
  const double overhead_pct =
      (Median(traced_wall) / Median(plain_wall) - 1.0) * 100.0;
  std::fprintf(stderr, "%-30s %14s %-6s %-12s %s\n", "per-layer metric",
               "median", "unit", "moves", "largest share on");
  for (const LayerInfo& info : kLayers) {
    const std::string name = info.name;
    double value;
    if (name == "regression.add_ns_per_row") {
      value = life->ProbeAddNsPerRow();
    } else if (name == "linalg.solve_ns") {
      value = life->ProbeSolveNs();
    } else if (name == "obs.trace_overhead_pct") {
      value = overhead_pct;
    } else {
      value = LayerMedian(samples, name);
    }
    std::fprintf(stderr, "%-30s %14.6g %-6s %-12s %s\n", info.name, value,
                 info.unit, info.moves, info.workload);
    result.metrics.push_back({info.name, value, info.unit});
  }
  return result;
}

}  // namespace perfbench
