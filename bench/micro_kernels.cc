// Micro-benchmarks (google-benchmark) of the kernels the bellwether
// algorithms are built from: regression sufficient-statistics accumulation
// and merging (Theorem 1's g and q), WLS solves, k-fold cross-validation,
// CUBE rollup, region enumeration, the iceberg feasible-region search,
// spill-file record reads, and item-centric prediction through a cube, a
// tree and the regional feature lookup; and the two layers of the warehouse
// prepare stage, CSV ingest and §4.2 training-data generation.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_tree.h"
#include "core/eval_util.h"
#include "core/training_data_gen.h"
#include "datagen/hierarchy_util.h"
#include "datagen/mail_order.h"
#include "olap/cost.h"
#include "olap/cube.h"
#include "olap/iceberg.h"
#include "olap/region.h"
#include "regression/dataset.h"
#include "regression/error.h"
#include "regression/linear_model.h"
#include "storage/training_data.h"
#include "storage/training_data_sink.h"
#include "table/csv.h"

namespace {

using namespace bellwether;  // NOLINT

// Rows cycled by the accumulation benchmarks: a pool large enough to defeat
// a single cached row (realistic cache behavior, varying values) but small
// enough to pregenerate cheaply.
constexpr size_t kRowPool = 1024;

std::vector<double> MakeRowPool(size_t p, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> rows(kRowPool * p);
  for (auto& v : rows) v = rng.NextDouble(-1, 1);
  return rows;
}

// Bytes a single Add touches: the example row plus the packed X'WX
// triangle and X'WY accumulators (read + write).
int64_t AddBytesPerItem(size_t p) {
  return static_cast<int64_t>(
      8 * (p + 2 * (regression::RegressionSuffStats::PackedSize(p) + p)));
}

void BM_SuffStatsAdd(benchmark::State& state) {
  const size_t p = state.range(0);
  const std::vector<double> rows = MakeRowPool(p, 1);
  regression::RegressionSuffStats stats(p);
  size_t i = 0;
  for (auto _ : state) {
    stats.Add(rows.data() + i * p, 1.5);
    i = (i + 1) % kRowPool;
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * AddBytesPerItem(p));
}
BENCHMARK(BM_SuffStatsAdd)->Arg(3)->Arg(6)->Arg(12)->Arg(24);

void BM_SuffStatsAddBatch(benchmark::State& state) {
  const size_t p = state.range(0);
  const std::vector<double> rows = MakeRowPool(p, 1);
  std::vector<double> ys(kRowPool);
  {
    Rng rng(9);
    for (auto& y : ys) y = rng.NextDouble();
  }
  regression::RegressionSuffStats stats(p);
  for (auto _ : state) {
    stats.AddBatch(rows.data(), ys.data(), nullptr, kRowPool);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kRowPool));
  // Row reads per example; the accumulators are read and written once per
  // batch.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(8 * kRowPool * (p + 1)));
}
BENCHMARK(BM_SuffStatsAddBatch)->Arg(3)->Arg(6)->Arg(12)->Arg(24);

// AddRows over a row list of a 64Ki-row set, the way the builders call it:
// the rows in order (contiguous) or every 8th row first, then every 8th from
// row 1, ... (stride 8, all rows). 32 passes per iteration keep one
// iteration above benchdiff's 5 ms noise floor. Args: p, stride.
void BM_SuffStatsAddRows(benchmark::State& state) {
  const size_t p = state.range(0);
  const size_t stride = state.range(1);
  constexpr size_t kRows = 1 << 16;
  constexpr int kPasses = 32;
  Rng rng(11);
  std::vector<double> xs(kRows * p), ys(kRows);
  for (auto& v : xs) v = rng.NextDouble(-1, 1);
  for (auto& y : ys) y = rng.NextDouble();
  std::vector<uint32_t> list;
  list.reserve(kRows);
  for (size_t first = 0; first < stride; ++first) {
    for (size_t r = first; r < kRows; r += stride) {
      list.push_back(static_cast<uint32_t>(r));
    }
  }
  regression::RegressionSuffStats stats(p);
  for (auto _ : state) {
    for (int pass = 0; pass < kPasses; ++pass) {
      stats.AddRows(xs.data(), ys.data(), nullptr, list.data(), kRows);
    }
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * kPasses *
                          static_cast<int64_t>(kRows));
}
BENCHMARK(BM_SuffStatsAddRows)->ArgsProduct({{5, 6, 12}, {1, 8}});

void BM_SuffStatsMerge(benchmark::State& state) {
  const size_t p = state.range(0);
  Rng rng(2);
  // A pool of pregenerated statistics merged into one accumulator — the
  // tree/cube builders' actual pattern (many children folded into a parent),
  // with no per-iteration deep copy polluting the measurement. The values
  // grow across iterations but stay finite; Merge's cost is value-oblivious.
  constexpr size_t kPool = 64;
  std::vector<regression::RegressionSuffStats> pool;
  pool.reserve(kPool);
  std::vector<double> x(p);
  for (size_t s = 0; s < kPool; ++s) {
    regression::RegressionSuffStats stats(p);
    for (int i = 0; i < 16; ++i) {
      for (auto& v : x) v = rng.NextDouble(-1, 1);
      stats.Add(x.data(), rng.NextDouble());
    }
    pool.push_back(std::move(stats));
  }
  regression::RegressionSuffStats acc(p);
  size_t i = 0;
  for (auto _ : state) {
    acc.Merge(pool[i]);
    i = (i + 1) % kPool;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
  // One merge reads the source's packed triangle + X'WY and read-writes the
  // accumulator's.
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<int64_t>(
          8 * 3 * (regression::RegressionSuffStats::PackedSize(p) + p)));
}
BENCHMARK(BM_SuffStatsMerge)->Arg(3)->Arg(6)->Arg(12)->Arg(24);

void BM_WlsFit(benchmark::State& state) {
  const size_t p = state.range(0);
  Rng rng(3);
  regression::RegressionSuffStats stats(p);
  std::vector<double> x(p);
  for (size_t i = 0; i < 8 * p; ++i) {
    x[0] = 1.0;
    for (size_t j = 1; j < p; ++j) x[j] = rng.NextDouble(-1, 1);
    stats.Add(x.data(), rng.NextDouble(), rng.NextDouble(0.5, 1.5));
  }
  for (auto _ : state) {
    auto model = stats.Fit();
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_WlsFit)->Arg(3)->Arg(6)->Arg(12)->Arg(24);

void BM_TrainingSseFromStats(benchmark::State& state) {
  const size_t p = 6;
  Rng rng(4);
  regression::RegressionSuffStats stats(p);
  std::vector<double> x(p);
  for (int i = 0; i < 200; ++i) {
    x[0] = 1.0;
    for (size_t j = 1; j < p; ++j) x[j] = rng.NextDouble(-1, 1);
    stats.Add(x.data(), rng.NextDouble());
  }
  for (auto _ : state) {
    auto sse = stats.TrainingSse();
    benchmark::DoNotOptimize(sse);
  }
}
BENCHMARK(BM_TrainingSseFromStats);

// 10-fold CV of one region's training set (§2's default error estimate):
// n examples of an intercept plus 4 features, the shape of the scan_build
// regions. The dataset is generated once; each iteration is one
// CrossValidationError call, so the fold shuffle is part of the time.
void BM_CrossValidation(benchmark::State& state) {
  const size_t n = state.range(0);
  const size_t p = 5;
  Rng rng(10);
  regression::Dataset data(p);
  std::vector<double> x(p);
  for (size_t i = 0; i < n; ++i) {
    x[0] = 1.0;
    for (size_t j = 1; j < p; ++j) x[j] = rng.NextDouble(-1, 1);
    data.Add(x, 2.0 * x[1] - x[3] + rng.NextGaussian(0.0, 0.1));
  }
  Rng fold_rng(11);
  for (auto _ : state) {
    auto err = regression::CrossValidationError(data, 10, &fold_rng);
    benchmark::DoNotOptimize(err);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_CrossValidation)->Arg(120)->Arg(1200)->Arg(3550);

olap::RegionSpace MakeSpace(int32_t months, int32_t fanout) {
  std::vector<olap::Dimension> dims;
  dims.emplace_back(olap::IntervalDimension("Time", months));
  dims.emplace_back(datagen::BuildBalancedHierarchy("Loc", "All",
                                                    {fanout, fanout}, "L"));
  return olap::RegionSpace(std::move(dims));
}

void BM_CubeRollup(benchmark::State& state) {
  const int32_t items = state.range(0);
  olap::RegionSpace space = MakeSpace(10, 5);
  Rng rng(5);
  const auto& loc = std::get<olap::HierarchicalDimension>(space.dim(1));
  const auto& leaves = loc.leaves();
  for (auto _ : state) {
    state.PauseTiming();
    olap::RegionItemCube<olap::NumericAgg> cube(&space, items);
    for (int32_t i = 0; i < items; ++i) {
      for (int k = 0; k < 10; ++k) {
        cube.BaseCell({static_cast<int32_t>(1 + rng.NextUint64(10)),
                       leaves[rng.NextUint64(leaves.size())]},
                      i)
            .Add(rng.NextDouble());
      }
    }
    state.ResumeTiming();
    cube.Rollup();
    benchmark::DoNotOptimize(cube);
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_CubeRollup)->Arg(100)->Arg(400)->Arg(1600);

void BM_ForEachContainingRegion(benchmark::State& state) {
  olap::RegionSpace space = MakeSpace(10, 5);
  const auto& loc = std::get<olap::HierarchicalDimension>(space.dim(1));
  const olap::PointCoords point{3, loc.leaves()[7]};
  for (auto _ : state) {
    int64_t count = 0;
    space.ForEachContainingRegion(point, [&](olap::RegionId) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_ForEachContainingRegion);

void BM_IcebergSearch(benchmark::State& state) {
  const bool pruned = state.range(0) == 1;
  olap::RegionSpace space = MakeSpace(10, 6);
  Rng rng(6);
  std::vector<double> cell_costs(space.NumFinestCells());
  for (auto& c : cell_costs) c = rng.NextDouble(0.5, 2.0);
  auto cost = olap::CostModel::Create(&space, cell_costs);
  std::vector<double> coverage(space.NumRegions());
  // Monotone synthetic coverage: proportional to region size.
  for (olap::RegionId r = 0; r < space.NumRegions(); ++r) {
    coverage[r] = std::min(
        1.0, static_cast<double>(space.FinestCellsIn(r).size()) / 40.0);
  }
  for (auto _ : state) {
    auto result = pruned
                      ? olap::FindFeasibleRegionsPruned(
                            space, cost->region_costs(), coverage, 30.0, 0.3)
                      : olap::FindFeasibleRegionsBruteForce(
                            space, cost->region_costs(), coverage, 30.0, 0.3);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_IcebergSearch)->Arg(0)->Arg(1);

// Writes a spill file of `num_regions` records with `rows` examples each and
// returns its path. The file persists for the process lifetime (benchmarks
// re-open it per run).
std::string MakeSpillFile(int32_t num_regions, int32_t rows, int32_t p) {
  static int counter = 0;
  std::string path =
      "/tmp/bw_micro_spill_" + std::to_string(counter++) + ".bin";
  Rng rng(7);
  auto writer = storage::SpillFileWriter::Create(path);
  for (int32_t r = 0; r < num_regions; ++r) {
    storage::RegionTrainingSet set;
    set.region = r;
    set.num_features = p;
    for (int32_t i = 0; i < rows; ++i) {
      set.items.push_back(i);
      set.features.push_back(1.0);
      for (int32_t j = 1; j < p; ++j) {
        set.features.push_back(rng.NextDouble(-1, 1));
      }
      set.targets.push_back(rng.NextDouble());
    }
    if (!writer.value()->Append(set).ok()) std::abort();
  }
  if (!writer.value()->Finish().ok()) std::abort();
  return path;
}

// Sequential scan over a spilled source: after the single-buffer read
// optimization each record costs one seek + one read, so this measures the
// per-record parse + copy cost that every fig11-scale build pays.
void BM_SpillScan(benchmark::State& state) {
  const int32_t rows = state.range(0);
  static const std::string* path = new std::string(MakeSpillFile(64, 256, 8));
  (void)rows;
  auto source = storage::SpilledTrainingData::Open(*path);
  if (!source.ok()) std::abort();
  int64_t bytes = 0;
  for (auto _ : state) {
    int64_t rows_seen = 0;
    auto st = source.value()->Scan(
        [&](const storage::RegionTrainingSet& set) {
          rows_seen += static_cast<int64_t>(set.num_examples());
          return Status::OK();
        });
    if (!st.ok()) std::abort();
    benchmark::DoNotOptimize(rows_seen);
  }
  bytes = source.value()->io_stats().bytes_read;
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_SpillScan)->Arg(256);

// Random record reads (the naive builders' access pattern).
void BM_SpillRead(benchmark::State& state) {
  static const std::string* path = new std::string(MakeSpillFile(64, 256, 8));
  auto source = storage::SpilledTrainingData::Open(*path);
  if (!source.ok()) std::abort();
  Rng rng(8);
  for (auto _ : state) {
    auto set = source.value()->Read(rng.NextUint64(64));
    if (!set.ok()) std::abort();
    benchmark::DoNotOptimize(set.value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpillRead);

// The warehouse prepare stage's input: §7.1's mail-order data (400 items,
// 142k fact rows) and its fact table written once as CSV, on first use.
// The file is removed at exit.
struct PrepareFixture {
  datagen::MailOrderDataset dataset;
  std::string csv_path;
};

const PrepareFixture& PrepareInput() {
  static const PrepareFixture* fixture = [] {
    auto* f = new PrepareFixture();
    f->dataset = datagen::GenerateMailOrder(datagen::MailOrderConfig{});
    f->csv_path = "/tmp/bw_micro_fact_" + std::to_string(getpid()) + ".csv";
    if (!table::WriteCsv(f->dataset.fact, f->csv_path).ok()) std::abort();
    std::atexit([] { std::remove(PrepareInput().csv_path.c_str()); });
    return f;
  }();
  return *fixture;
}

// The CSV layer of the prepare stage: the whole fact file into a Table.
void BM_ReadCsv(benchmark::State& state) {
  const PrepareFixture& f = PrepareInput();
  for (auto _ : state) {
    auto fact = table::ReadCsv(f.csv_path, f.dataset.fact.schema());
    if (!fact.ok()) std::abort();
    benchmark::DoNotOptimize(fact->num_rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.dataset.fact.num_rows()));
}
BENCHMARK(BM_ReadCsv);

// The §4.2 layer of the prepare stage: fact table to every feasible
// region's training set, on one thread, into a MemorySink.
void BM_GenerateTrainingData(benchmark::State& state) {
  const PrepareFixture& f = PrepareInput();
  core::BellwetherSpec spec = f.dataset.MakeSpec(85.0, 0.5);
  spec.exec.num_threads = 1;
  for (auto _ : state) {
    storage::MemorySink sink;
    auto profile = core::GenerateTrainingData(spec, &sink);
    if (!profile.ok()) std::abort();
    benchmark::DoNotOptimize(profile->feasible.regions.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.dataset.fact.num_rows()));
}
BENCHMARK(BM_GenerateTrainingData);

// A mail-order cube and tree (§7.1's 400 items, Fig. 8's tree shape) with
// the lookup they predict through, built once on first use.
struct PredictFixture {
  datagen::MailOrderDataset dataset;
  std::unique_ptr<core::GeneratedTrainingData> data;
  std::unique_ptr<core::RegionFeatureLookup> lookup;
  std::unique_ptr<core::BellwetherCube> cube;
  std::unique_ptr<core::BellwetherTree> tree;
  int32_t num_items = 0;
};

const PredictFixture& Predict() {
  static const PredictFixture* fixture = [] {
    auto* f = new PredictFixture();
    f->dataset = datagen::GenerateMailOrder(datagen::MailOrderConfig{});
    const core::BellwetherSpec spec = f->dataset.MakeSpec(60.0, 0.5);
    auto data = core::GenerateTrainingDataInMemory(spec);
    if (!data.ok()) std::abort();
    f->data =
        std::make_unique<core::GeneratedTrainingData>(std::move(*data));
    f->lookup = std::make_unique<core::RegionFeatureLookup>(
        f->data->memory_sets());
    auto subsets = core::ItemSubsetSpace::Create(
        f->dataset.items, f->dataset.item_hierarchies);
    if (!subsets.ok()) std::abort();
    core::CubeBuildConfig cube_config;
    cube_config.min_subset_size = 25;
    cube_config.min_examples_per_model = 20;
    auto cube = core::BuildBellwetherCubeOptimized(f->data->source.get(),
                                                   *subsets, cube_config);
    if (!cube.ok()) std::abort();
    f->cube = std::make_unique<core::BellwetherCube>(std::move(*cube));
    core::TreeBuildConfig tree_config;
    tree_config.split_columns = {"Category", "ExpenseRange", "RDExpense"};
    tree_config.min_items = 40;
    tree_config.max_depth = 4;
    auto tree = core::BuildBellwetherTreeRainForest(
        f->data->source.get(), f->dataset.items, tree_config);
    if (!tree.ok()) std::abort();
    f->tree = std::make_unique<core::BellwetherTree>(std::move(*tree));
    f->num_items = (*subsets)->num_items();
    return f;
  }();
  return *fixture;
}

// One iteration predicts every item kPredictPasses times, so the bm/ phase
// (seconds per iteration) clears benchdiff's 5 ms floor.
constexpr int32_t kPredictPasses = 400;

void BM_CubePredictItem(benchmark::State& state) {
  const PredictFixture& f = Predict();
  for (auto _ : state) {
    double sum = 0.0;
    for (int32_t pass = 0; pass < kPredictPasses; ++pass) {
      for (int32_t item = 0; item < f.num_items; ++item) {
        auto p = f.cube->PredictItem(item, *f.lookup);
        if (p.ok()) sum += p->value;
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kPredictPasses * f.num_items);
}
BENCHMARK(BM_CubePredictItem);

void BM_TreePredictItem(benchmark::State& state) {
  const PredictFixture& f = Predict();
  for (auto _ : state) {
    double sum = 0.0;
    for (int32_t pass = 0; pass < kPredictPasses; ++pass) {
      for (int32_t item = 0; item < f.num_items; ++item) {
        auto p = f.tree->PredictItem(item, *f.lookup);
        if (p.ok()) sum += *p;
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kPredictPasses * f.num_items);
}
BENCHMARK(BM_TreePredictItem);

// Every (region, item) pair of the training data, present or not.
void BM_RegionFeatureLookupFind(benchmark::State& state) {
  const PredictFixture& f = Predict();
  const auto& sets = *f.data->memory_sets();
  constexpr int32_t kPasses = 20;
  for (auto _ : state) {
    int64_t found = 0;
    for (int32_t pass = 0; pass < kPasses; ++pass) {
      for (const storage::RegionTrainingSet& set : sets) {
        for (int32_t item = 0; item < f.num_items; ++item) {
          found += f.lookup->Find(set.region, item) != nullptr;
        }
      }
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() * kPasses *
                          static_cast<int64_t>(sets.size()) * f.num_items);
}
BENCHMARK(BM_RegionFeatureLookupFind);

// Console reporter that also records every per-iteration run as a report
// phase "bm/<name>" whose wall time is seconds per iteration, so the micro
// benchmarks feed the same BENCH_<name>.json flight-recorder format (and
// benchdiff gate) as the figure drivers.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(obs::RunReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      if (run.iterations <= 0) continue;
      report_->AddPhase("bm/" + run.benchmark_name(),
                        run.real_accumulated_time /
                            static_cast<double>(run.iterations));
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

 private:
  obs::RunReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  bellwether::bench::BenchRunner runner(argc, argv, "micro_kernels",
                                        "Kernel micro-benchmarks");
  // benchmark::Initialize strips the flags it recognizes and leaves ours
  // (--report-out etc.) in place for BenchRunner.
  benchmark::Initialize(&argc, argv);
  RecordingReporter reporter(&runner.report());
  const size_t run = benchmark::RunSpecifiedBenchmarks(&reporter);
  runner.report().SetCount("benchmarks_run", static_cast<int64_t>(run));
  benchmark::Shutdown();
  return runner.Finish();
}
