#include "core/basic_search.h"

#include <limits>
#include <memory>
#include <utility>

#include "common/random.h"
#include "common/stopwatch.h"
#include "core/eval_util.h"
#include "core/search_internal.h"
#include "exec/parallel.h"
#include "obs/logger.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bellwether::core {

double BasicSearchResult::AverageError() const {
  double sum = 0.0;
  int64_t n = 0;
  for (const auto& s : scores) {
    if (!s.usable) continue;
    sum += s.error.rmse;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double BasicSearchResult::FractionIndistinguishable(double confidence) const {
  if (!found()) return 0.0;
  const double bound = error.UpperConfidenceBound(confidence);
  int64_t total = 0;
  int64_t within = 0;
  for (const auto& s : scores) {
    if (!s.usable) continue;
    ++total;
    if (s.error.rmse <= bound) ++within;
  }
  return total > 0 ? static_cast<double>(within) / static_cast<double>(total)
                   : 0.0;
}

namespace internal {

void ScoreRegion(const storage::RegionTrainingSet& set,
                 const BasicSearchOptions& options,
                 const std::vector<uint8_t>* item_mask, RegionScore* score) {
  score->region = set.region;
  score->usable = false;
  std::vector<uint32_t> list;
  const regression::RowSet rows = MaskedRows(set, item_mask, &list);
  score->num_examples = rows.n;
  if (rows.n <
      static_cast<size_t>(std::max<int32_t>(options.min_examples, 2))) {
    return;
  }
  Rng rng(RegionSeed(options.seed, set.region));
  auto err = regression::EstimateError(rows, options.estimate,
                                       options.cv_folds, &rng);
  if (!err.ok()) return;
  score->error = *err;
  score->usable = true;
}

Status RefitModelFromSet(const storage::RegionTrainingSet& set,
                         const std::vector<uint8_t>* item_mask,
                         BasicSearchResult* result) {
  std::vector<uint32_t> list;
  const regression::RowSet rows = MaskedRows(set, item_mask, &list);
  regression::RegressionSuffStats stats(rows.p);
  stats.AddRows(rows);
  BW_ASSIGN_OR_RETURN(regression::RobustFit fit, stats.FitWithFallback());
  result->model = std::move(fit.model);
  result->model_degradation = fit.degradation;
  if (fit.degradation == regression::FitDegradation::kRidge) {
    ++result->telemetry.ridge_refits;
  } else if (fit.degradation == regression::FitDegradation::kMeanFallback) {
    ++result->telemetry.mean_fallbacks;
  }
  if (fit.degraded()) {
    BW_LOG(obs::LogLevel::kWarn, "search")
        << "bellwether model refit degraded to '"
        << regression::FitDegradationName(fit.degradation) << "' for region "
        << set.region;
  }
  return Status::OK();
}

}  // namespace internal

namespace {

// Refits the winning model by reading its training set back from the
// source, then delegating to the shared degradation chain.
Status RefitModel(storage::TrainingDataSource* source, size_t index,
                  const std::vector<uint8_t>* item_mask,
                  BasicSearchResult* result) {
  BW_ASSIGN_OR_RETURN(storage::RegionTrainingSet set, source->Read(index));
  return internal::RefitModelFromSet(set, item_mask, result);
}

// Registry counters mirrored alongside the per-search SearchTelemetry;
// resolved once and cached (registry pointers are stable).
struct SearchMetrics {
  obs::Counter* enumerated;
  obs::Counter* scored;
  obs::Counter* pruned_cost;
  obs::Counter* fit_failures;
  obs::Counter* rows;
  obs::Histogram* fit_seconds;
};

const SearchMetrics& Metrics() {
  static const SearchMetrics m{
      obs::DefaultMetrics().GetCounter(obs::kMSearchRegionsEnumerated),
      obs::DefaultMetrics().GetCounter(obs::kMSearchRegionsScored),
      obs::DefaultMetrics().GetCounter(obs::kMSearchRegionsPrunedCost),
      obs::DefaultMetrics().GetCounter(obs::kMSearchFitFailures),
      obs::DefaultMetrics().GetCounter(obs::kMSearchRowsScanned),
      obs::DefaultMetrics().GetHistogram(obs::kMSearchRegionFitSeconds,
                                         obs::LatencyBucketsSeconds())};
  return m;
}

}  // namespace

namespace internal {

void FillSearchReport(std::string_view name,
                      const BasicSearchOptions& options,
                      BasicSearchResult* result) {
  obs::RunReport& r = result->report;
  r.set_name(std::string(name));
  r.SetConfig("search.estimate",
              static_cast<int64_t>(options.estimate));
  r.SetConfig("search.cv_folds", static_cast<int64_t>(options.cv_folds));
  r.SetConfig("search.seed", static_cast<int64_t>(options.seed));
  r.SetConfig("search.min_examples",
              static_cast<int64_t>(options.min_examples));
  const SearchTelemetry& t = result->telemetry;
  r.SetCount("search.regions_enumerated", t.regions_enumerated);
  r.SetCount("search.regions_scored", t.regions_scored);
  r.SetCount("search.skipped_min_examples", t.skipped_min_examples);
  r.SetCount("search.model_fit_failures", t.model_fit_failures);
  r.SetCount("search.pruned_by_cost", t.pruned_by_cost);
  r.SetCount("search.rows_scanned", t.rows_scanned);
  r.SetCount("search.ridge_refits", t.ridge_refits);
  r.SetCount("search.mean_fallbacks", t.mean_fallbacks);
  r.SetCount("search.found", result->found() ? 1 : 0);
  r.SetCount("search.bellwether_region",
             static_cast<int64_t>(result->bellwether));
  r.SetCount("search.model_degradation",
             static_cast<int64_t>(result->model_degradation));
  if (result->found()) r.SetValue("search.bellwether_rmse", result->error.rmse);
  r.AddPhase("search.scan", t.scan_seconds);
}

}  // namespace internal

Result<BasicSearchResult> RunBasicBellwetherSearch(
    storage::TrainingDataSource* source, const BasicSearchOptions& options,
    const std::vector<uint8_t>* item_mask) {
  obs::TraceSpan span("RunBasicBellwetherSearch", "search");
  BasicSearchResult result;
  SearchTelemetry& t = result.telemetry;
  result.scores.reserve(source->num_region_sets());
  size_t index = 0;
  Stopwatch scan_watch;

  // The scan stays sequential (storage arrival order, I/O accounting, and
  // fault-injection arrival counts are untouched); only the per-region
  // scoring work moves onto the pool. Scores are reduced in submission
  // order, so the scores vector — and everything derived from it — is
  // bit-identical to the serial loop for any thread count.
  const int32_t num_threads = exec::ResolveNumThreads(options.exec.num_threads);
  std::unique_ptr<exec::ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<exec::ThreadPool>(num_threads);
  {
    exec::MergeInSubmissionOrder<RegionScore> reducer(
        pool.get(), /*max_outstanding=*/4 * static_cast<size_t>(num_threads),
        "search.score_batch", [&](size_t, RegionScore score) -> Status {
          result.scores.push_back(std::move(score));
          return Status::OK();
        });
    BW_RETURN_IF_ERROR(
        source->Scan([&](const storage::RegionTrainingSet& set) -> Status {
          const size_t source_index = index++;
          ++t.regions_enumerated;
          t.rows_scanned += static_cast<int64_t>(set.num_examples());
          const auto compute =
              [source_index, &options,
               item_mask](const storage::RegionTrainingSet& s) {
                RegionScore score;
                score.source_index = source_index;
                Stopwatch fit_watch;
                internal::ScoreRegion(s, options, item_mask, &score);
                Metrics().fit_seconds->Observe(fit_watch.ElapsedSeconds());
                return score;
              };
          if (reducer.parallel()) {
            // The visited set is only valid during this callback; the task
            // owns a copy.
            return reducer.Submit(
                [compute, copy = set]() { return compute(copy); });
          }
          return reducer.Submit([&]() { return compute(set); });
        }));
    BW_RETURN_IF_ERROR(reducer.Finish());
  }
  for (const auto& score : result.scores) {
    if (score.usable) {
      ++t.regions_scored;
    } else if (score.num_examples <
               static_cast<size_t>(
                   std::max<int32_t>(options.min_examples, 2))) {
      ++t.skipped_min_examples;
    } else {
      ++t.model_fit_failures;
    }
  }
  t.scan_seconds = scan_watch.ElapsedSeconds();
  Metrics().enumerated->Increment(t.regions_enumerated);
  Metrics().scored->Increment(t.regions_scored);
  Metrics().fit_failures->Increment(t.model_fit_failures);
  Metrics().rows->Increment(t.rows_scanned);
  BW_LOG(obs::LogLevel::kInfo, "search")
      .Field("regions", t.regions_enumerated)
      .Field("scored", t.regions_scored)
      .Field("fit_failures", t.model_fit_failures)
      .Field("seconds", t.scan_seconds)
      << "basic search scan done";

  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < result.scores.size(); ++i) {
    const auto& s = result.scores[i];
    if (s.usable && s.error.rmse < best) {
      best = s.error.rmse;
      result.bellwether = s.region;
      result.bellwether_index = i;
      result.error = s.error;
    }
  }
  if (result.found()) {
    BW_RETURN_IF_ERROR(RefitModel(
        source, result.scores[result.bellwether_index].source_index,
        item_mask, &result));
  }
  internal::FillSearchReport("basic_search", options, &result);
  return result;
}

Result<BasicSearchResult> SelectUnderBudget(
    const BasicSearchResult& full, storage::TrainingDataSource* source,
    const std::vector<double>& region_costs, double budget,
    const std::vector<uint8_t>* item_mask) {
  obs::TraceSpan span("SelectUnderBudget", "search");
  BasicSearchResult result;
  result.telemetry = full.telemetry;
  result.telemetry.pruned_by_cost = 0;
  result.scores.reserve(full.scores.size());
  double best = std::numeric_limits<double>::infinity();
  for (const auto& s : full.scores) {
    if (s.region < 0 ||
        static_cast<size_t>(s.region) >= region_costs.size()) {
      return Status::OutOfRange("score region outside cost table");
    }
    if (region_costs[s.region] > budget) {
      ++result.telemetry.pruned_by_cost;
      continue;
    }
    result.scores.push_back(s);
    if (s.usable && s.error.rmse < best) {
      best = s.error.rmse;
      result.bellwether = s.region;
      result.bellwether_index = result.scores.size() - 1;
      result.error = s.error;
    }
  }
  Metrics().pruned_cost->Increment(result.telemetry.pruned_by_cost);
  if (result.found()) {
    BW_RETURN_IF_ERROR(RefitModel(
        source, result.scores[result.bellwether_index].source_index,
        item_mask, &result));
  }
  result.report = full.report;
  result.report.set_name("select_under_budget");
  result.report.SetConfig("search.budget", budget);
  result.report.SetCount("search.pruned_by_cost",
                         result.telemetry.pruned_by_cost);
  result.report.SetCount("search.ridge_refits", result.telemetry.ridge_refits);
  result.report.SetCount("search.mean_fallbacks",
                         result.telemetry.mean_fallbacks);
  result.report.SetCount("search.found", result.found() ? 1 : 0);
  result.report.SetCount("search.bellwether_region",
                         static_cast<int64_t>(result.bellwether));
  result.report.SetCount("search.model_degradation",
                         static_cast<int64_t>(result.model_degradation));
  if (result.found()) {
    result.report.SetValue("search.bellwether_rmse", result.error.rmse);
  }
  return result;
}

Result<BasicSearchResult> SelectLinearCriterion(
    const BasicSearchResult& full, storage::TrainingDataSource* source,
    const std::vector<double>& region_costs,
    const std::vector<double>& region_coverage, double cost_weight,
    double coverage_weight, const std::vector<uint8_t>* item_mask) {
  if (region_costs.size() != region_coverage.size()) {
    return Status::InvalidArgument("cost/coverage table size mismatch");
  }
  obs::TraceSpan span("SelectLinearCriterion", "search");
  BasicSearchResult result;
  result.telemetry = full.telemetry;
  // Select over `full.scores` first; the wholesale copy into the result
  // happens once, reserved up front, only after the scan decided a winner.
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < full.scores.size(); ++i) {
    const auto& s = full.scores[i];
    if (!s.usable) continue;
    if (s.region < 0 ||
        static_cast<size_t>(s.region) >= region_costs.size()) {
      return Status::OutOfRange("score region outside cost table");
    }
    const double objective = s.error.rmse +
                             cost_weight * region_costs[s.region] -
                             coverage_weight * region_coverage[s.region];
    if (objective < best) {
      best = objective;
      result.bellwether = s.region;
      result.bellwether_index = i;
      result.error = s.error;
    }
  }
  result.scores.reserve(full.scores.size());
  result.scores.insert(result.scores.end(), full.scores.begin(),
                       full.scores.end());
  if (result.found()) {
    BW_RETURN_IF_ERROR(RefitModel(
        source, result.scores[result.bellwether_index].source_index,
        item_mask, &result));
  }
  result.report = full.report;
  result.report.set_name("select_linear_criterion");
  result.report.SetConfig("search.cost_weight", cost_weight);
  result.report.SetConfig("search.coverage_weight", coverage_weight);
  result.report.SetCount("search.ridge_refits", result.telemetry.ridge_refits);
  result.report.SetCount("search.mean_fallbacks",
                         result.telemetry.mean_fallbacks);
  result.report.SetCount("search.found", result.found() ? 1 : 0);
  result.report.SetCount("search.bellwether_region",
                         static_cast<int64_t>(result.bellwether));
  result.report.SetCount("search.model_degradation",
                         static_cast<int64_t>(result.model_degradation));
  if (result.found()) {
    result.report.SetValue("search.bellwether_rmse", result.error.rmse);
  }
  return result;
}

}  // namespace bellwether::core
