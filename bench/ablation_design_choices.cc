// Ablation benches for the design choices DESIGN.md calls out:
//   1. Theorem 1 (algebraic SSE): the optimized cube's base-subset
//      accumulation + lattice rollup vs the single-scan builder's
//      per-subset refits, as the subset lattice grows.
//   2. Error estimate: training-set scoring vs 10-fold cross-validation
//      scoring in the basic search — the cost of the expensive estimate the
//      paper avoids via Fig. 7(c)'s agreement argument.
//   3. Iceberg pruning: pruned vs brute-force feasible-region search as the
//      constraints tighten.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/basic_search.h"
#include "core/bellwether_cube.h"
#include "core/training_data_gen.h"
#include "datagen/mail_order.h"
#include "datagen/scalability.h"
#include "olap/iceberg.h"
#include "storage/training_data.h"
#include "storage/training_data_sink.h"

namespace {
using namespace bellwether;         // NOLINT
using namespace bellwether::bench;  // NOLINT
}  // namespace

int main(int argc, char** argv) {
  BenchRunner runner(argc, argv, "ablation_design_choices",
                     "Design-choice ablations");
  const double scale = FlagDouble(argc, argv, "scale", 1.0);
  runner.report().SetConfig("scale", scale);

  constexpr const char* kRollup = "[1] rollup vs per-subset accumulation";
  constexpr const char* kScoring = "[2] basic search scoring";
  constexpr const char* kIceberg = "[3] feasible-region search";

  // ---- 1. Optimized rollup vs per-subset refits ----
  std::printf("\n[1] Theorem-1 rollup vs per-subset accumulation, "
              "time (s) by lattice size\n");
  Row({"Subsets", "single-scan", "optimized", "speedup"});
  for (int32_t fanout : {2, 4, 6, 8}) {
    datagen::ScalabilityConfig config;
    config.num_items = static_cast<int32_t>(1500 * scale);
    config.dim1_fanouts = {7};
    config.dim2_fanouts = {7};
    config.item_hierarchy_fanouts = {fanout, fanout};
    storage::MemorySink sink;
    Result<datagen::ScalabilityDataset> meta = Status::OK();
    runner.TimePhase("datagen", [&] {
      meta = datagen::GenerateScalability(config, &sink);
    });
    if (!meta.ok()) return FailSection(kRollup, meta.status());
    auto src = sink.Finish();
    if (!src.ok()) return FailSection(kRollup, src.status());
    storage::TrainingDataSource& source = **src;
    auto subsets =
        core::ItemSubsetSpace::Create(meta->items, meta->item_hierarchies);
    if (!subsets.ok()) return FailSection(kRollup, subsets.status());
    core::CubeBuildConfig cube_cfg;
    cube_cfg.min_subset_size = 1;
    cube_cfg.min_examples_per_model = 10;
    cube_cfg.compute_cv_stats = false;
    Result<core::BellwetherCube> scan = Status::OK();
    const double t_scan = runner.TimePhase("cube_single_scan", [&] {
      scan = core::BuildBellwetherCubeSingleScan(&source, *subsets, cube_cfg);
    });
    if (!scan.ok()) return FailSection(kRollup, scan.status());
    Result<core::BellwetherCube> opt = Status::OK();
    const double t_opt = runner.TimePhase("cube_optimized", [&] {
      opt = core::BuildBellwetherCubeOptimized(&source, *subsets, cube_cfg);
    });
    if (!opt.ok()) return FailSection(kRollup, opt.status());
    Row({Fmt(static_cast<double>(scan->cells().size()), "%.0f"),
         Fmt(t_scan, "%.2f"), Fmt(t_opt, "%.2f"),
         Fmt(t_scan / std::max(t_opt, 1e-9), "%.1fx")});
  }

  // ---- 2. Training-set vs cross-validation scoring ----
  std::printf("\n[2] basic search scoring: training-set vs 10-fold CV\n");
  datagen::MailOrderConfig mo;
  mo.num_items = static_cast<int32_t>(300 * scale);
  datagen::MailOrderDataset dataset;
  runner.TimePhase("datagen", [&] {
    dataset = datagen::GenerateMailOrder(mo);
  });
  const core::BellwetherSpec spec = dataset.MakeSpec(85.0, 0.5);
  Result<core::GeneratedTrainingData> data = Status::OK();
  runner.TimePhase("training_data_gen", [&] {
    data = core::GenerateTrainingDataInMemory(spec);
  });
  if (!data.ok()) return FailSection(kScoring, data.status());
  storage::TrainingDataSource& source = *data->source;
  Row({"Estimate", "Time(s)", "Bellwether", "RMSE"});
  for (const bool cv : {false, true}) {
    core::BasicSearchOptions opts;
    opts.estimate = cv ? regression::ErrorEstimate::kCrossValidation
                       : regression::ErrorEstimate::kTrainingSet;
    opts.min_examples = 40;
    Result<core::BasicSearchResult> r = Status::OK();
    const double t = runner.TimePhase(
        cv ? "search_cv" : "search_training_set", [&] {
          r = core::RunBasicBellwetherSearch(&source, opts);
        });
    if (!r.ok()) return FailSection(kScoring, r.status());
    if (!r->found()) return FailNoBellwether(kScoring, scale);
    Row({cv ? "10-fold-CV" : "training-set", Fmt(t, "%.2f"),
         spec.space->RegionLabel(r->bellwether), Fmt(r->error.rmse)});
  }

  // ---- 3. Iceberg pruning ----
  std::printf("\n[3] feasible-region search: pruned vs brute force "
              "(examined regions)\n");
  Row({"Budget", "brute", "pruned-examined", "pruned-skipped"});
  for (double budget : {10.0, 30.0, 60.0, 85.0}) {
    olap::FeasibleRegions brute, pruned;
    runner.TimePhase("iceberg_brute_force", [&] {
      brute = olap::FindFeasibleRegionsBruteForce(
          *spec.space, data->profile.region_costs,
          data->profile.region_coverage, budget, 0.5);
    });
    runner.TimePhase("iceberg_pruned", [&] {
      pruned = olap::FindFeasibleRegionsPruned(
          *spec.space, data->profile.region_costs,
          data->profile.region_coverage, budget, 0.5);
    });
    if (brute.regions != pruned.regions) {
      std::fprintf(stderr, "%s: MISMATCH at budget %.0f\n", kIceberg, budget);
      return 1;
    }
    Row({Fmt(budget, "%.0f"),
         Fmt(static_cast<double>(brute.regions_examined), "%.0f"),
         Fmt(static_cast<double>(pruned.regions_examined), "%.0f"),
         Fmt(static_cast<double>(pruned.regions_pruned), "%.0f")});
  }
  return runner.Finish();
}
