// Report on the paper's §3.2/§3.4 future-work extensions implemented in
// this library, on the mail-order stand-in dataset:
//   [1] linear optimization criterion vs the constrained criterion,
//   [2] combinatorial bellwether analysis (greedy region unions),
//   [3] multi-instance bellwether analysis (mean-embedding bags),
//   [4] classification bellwethers (query-generated class labels).

#include <cstdio>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/basic_search.h"
#include "core/classification_search.h"
#include "core/combinatorial.h"
#include "core/multi_instance.h"
#include "core/training_data_gen.h"
#include "datagen/mail_order.h"
#include "storage/training_data.h"

namespace {
using namespace bellwether;         // NOLINT
using namespace bellwether::bench;  // NOLINT
}  // namespace

int main(int argc, char** argv) {
  BenchRunner runner(argc, argv, "extensions_report",
                     "§3.2/§3.4 future-work extensions, implemented");
  const double scale = FlagDouble(argc, argv, "scale", 1.0);
  datagen::MailOrderConfig config;
  config.num_items = static_cast<int32_t>(200 * scale);
  config.seed = 404;
  runner.report().SetConfig("scale", scale);
  runner.report().SetConfig("num_items",
                            static_cast<int64_t>(config.num_items));
  runner.report().SetConfig("seed", static_cast<int64_t>(config.seed));
  datagen::MailOrderDataset dataset;
  runner.TimePhase("datagen", [&] {
    dataset = datagen::GenerateMailOrder(config);
  });
  const core::BellwetherSpec spec = dataset.MakeSpec(60.0, 0.5);
  Result<core::GeneratedTrainingData> data = Status::OK();
  runner.TimePhase("training_data_gen", [&] {
    data = core::GenerateTrainingDataInMemory(spec);
  });
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  storage::TrainingDataSource& source = *data->source;

  // ---- [1] linear criterion ----
  std::printf("\n[1] linear criterion Error + w1*cost - w2*coverage\n");
  core::BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kCrossValidation;
  options.min_examples = 30;
  Result<core::BasicSearchResult> full = Status::OK();
  runner.TimePhase("search_cv", [&] {
    full = core::RunBasicBellwetherSearch(&source, options);
  });
  if (!full.ok()) return FailSection("[1] linear criterion", full.status());
  if (!full->found()) return FailNoBellwether("[1] linear criterion", scale);
  Row({"w1(cost)", "w2(cover)", "Region", "RMSE", "Cost"});
  for (const auto& [w1, w2] :
       std::vector<std::pair<double, double>>{
           {0.0, 0.0}, {50.0, 0.0}, {200.0, 0.0}, {0.0, 5000.0}}) {
    auto r = core::SelectLinearCriterion(*full, &source,
                                         data->profile.region_costs,
                                         data->profile.region_coverage, w1,
                                         w2);
    if (!r.ok() || !r->found()) continue;
    Row({Fmt(w1, "%.0f"), Fmt(w2, "%.0f"),
         spec.space->RegionLabel(r->bellwether), Fmt(r->error.rmse),
         Fmt(data->profile.region_costs[r->bellwether], "%.1f")});
  }

  // ---- [2] combinatorial ----
  std::printf("\n[2] combinatorial bellwether (greedy region unions)\n");
  Row({"Budget", "Single-best", "Combination", "Regions"});
  for (double budget : {15.0, 30.0}) {
    auto single = core::SelectUnderBudget(*full, &source,
                                          data->profile.region_costs, budget);
    core::CombinatorialOptions copts;
    copts.budget = budget;
    copts.max_regions = 3;
    copts.cv_folds = 5;
    copts.min_examples = 20;
    Result<core::CombinatorialResult> combo = Status::OK();
    runner.TimePhase("combinatorial_search", [&] {
      combo = core::RunCombinatorialSearch(spec, copts);
    });
    std::string regions = "-";
    std::string combo_err = "-";
    if (combo.ok() && combo->found()) {
      combo_err = Fmt(combo->error.rmse);
      regions.clear();
      for (auto r : combo->regions) {
        if (!regions.empty()) regions += " + ";
        regions += spec.space->RegionLabel(r);
      }
    }
    Row({Fmt(budget, "%.0f"),
         single.ok() && single->found() ? Fmt(single->error.rmse) : "-",
         combo_err, regions},
        18);
  }

  // ---- [3] multi-instance ----
  std::printf("\n[3] multi-instance (bags of per-cell instances, "
              "mean-embedding model)\n");
  core::MiSearchOptions mi_opts;
  mi_opts.cv_folds = 5;
  mi_opts.min_bags = 30;
  Result<core::MiSearchResult> mi = Status::OK();
  const double mi_s = runner.TimePhase("multi_instance_search", [&] {
    mi = core::RunMultiInstanceSearch(spec, mi_opts);
  });
  if (mi.ok() && mi->found()) {
    std::printf("  bellwether %s  cv rmse %.4g  (%zu regions scored, "
                "%.1fs)\n",
                spec.space->RegionLabel(mi->bellwether).c_str(),
                mi->error.rmse, mi->scores.size(), mi_s);
    std::printf("  aggregated-feature search on the same data: %s  %.4g\n",
                spec.space->RegionLabel(full->bellwether).c_str(),
                full->error.rmse);
  }

  // ---- [4] classification ----
  std::printf("\n[4] classification bellwether (label: profit above "
              "median?)\n");
  core::ClassificationOptions copts;
  copts.labeler = core::ThresholdLabeler(core::MedianTarget(data->profile.targets));
  copts.num_classes = 2;
  copts.cv_folds = 5;
  copts.min_examples = 30;
  Result<core::ClassificationSearchResult> cls = Status::OK();
  runner.TimePhase("classification_search", [&] {
    cls = core::RunClassificationBellwetherSearch(&source, copts);
  });
  if (cls.ok() && cls->found()) {
    std::printf("  bellwether %s  misclassification %.3f  (average region "
                "%.3f, chance 0.5)\n",
                spec.space->RegionLabel(cls->bellwether).c_str(),
                cls->error.rmse, cls->AverageError());
  }
  return runner.Finish();
}
