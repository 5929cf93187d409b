#include "core/combinatorial.h"

#include <algorithm>
#include <limits>
#include <set>

#include "core/eval_util.h"
#include "core/training_data_gen.h"

namespace bellwether::core {

namespace {

// Cost of a cell set = sum of distinct finest-cell costs.
double CellSetCost(const BellwetherSpec& spec, const std::set<int64_t>& cells) {
  const auto& costs = spec.cost->finest_cell_costs();
  double total = 0.0;
  for (int64_t c : cells) total += costs[c];
  return total;
}

// CV error of the model trained on the union of `cells`.
Result<regression::ErrorStats> EvaluateCells(
    const BellwetherSpec& spec, const std::set<int64_t>& cells,
    const CombinatorialOptions& options) {
  BW_ASSIGN_OR_RETURN(
      storage::RegionTrainingSet set,
      GenerateCellSetTrainingSet(
          spec, std::vector<int64_t>(cells.begin(), cells.end())));
  const regression::RowSet rows = RowsOf(set);
  if (rows.n < static_cast<size_t>(std::max(options.min_examples, 2))) {
    return Status::FailedPrecondition("too few examples in cell union");
  }
  Rng rng(options.seed);
  return regression::CrossValidationError(rows, options.cv_folds, &rng);
}

}  // namespace

Result<CombinatorialResult> RunCombinatorialSearch(
    const BellwetherSpec& spec, const CombinatorialOptions& options) {
  if (options.budget <= 0.0) {
    return Status::InvalidArgument("combinatorial search needs a budget");
  }
  const olap::RegionSpace& space = *spec.space;
  // Candidate pool: affordable regions.
  const double cap = options.budget * options.candidate_cost_fraction;
  std::vector<olap::RegionId> pool;
  for (olap::RegionId r = 0; r < space.NumRegions(); ++r) {
    if (spec.cost->RegionCost(r) <= cap) pool.push_back(r);
  }
  if (pool.empty()) {
    return Status::FailedPrecondition("no affordable candidate region");
  }

  CombinatorialResult best;
  std::set<int64_t> chosen_cells;
  double current_error = std::numeric_limits<double>::infinity();

  for (int32_t round = 0; round < options.max_regions; ++round) {
    olap::RegionId best_add = olap::kInvalidRegion;
    regression::ErrorStats best_err;
    std::set<int64_t> best_cells;
    double best_cost = 0.0;
    for (olap::RegionId r : pool) {
      if (std::find(best.regions.begin(), best.regions.end(), r) !=
          best.regions.end()) {
        continue;
      }
      std::set<int64_t> trial = chosen_cells;
      for (int64_t c : space.FinestCellsIn(r)) trial.insert(c);
      if (trial.size() == chosen_cells.size()) continue;  // fully overlapped
      const double cost = CellSetCost(spec, trial);
      if (cost > options.budget) continue;
      auto err = EvaluateCells(spec, trial, options);
      if (!err.ok()) continue;
      if (best_add == olap::kInvalidRegion || err->rmse < best_err.rmse) {
        best_add = r;
        best_err = *err;
        best_cells = std::move(trial);
        best_cost = cost;
      }
    }
    if (best_add == olap::kInvalidRegion) break;
    const bool improves =
        best_err.rmse < current_error * (1.0 - options.min_relative_gain);
    if (!best.regions.empty() && !improves) break;
    best.regions.push_back(best_add);
    chosen_cells = std::move(best_cells);
    best.cost = best_cost;
    best.error = best_err;
    current_error = best_err.rmse;
  }

  if (!best.found()) {
    return Status::FailedPrecondition(
        "no affordable combination produced a usable model");
  }
  best.cells.assign(chosen_cells.begin(), chosen_cells.end());
  BW_ASSIGN_OR_RETURN(storage::RegionTrainingSet set,
                      GenerateCellSetTrainingSet(spec, best.cells));
  regression::RegressionSuffStats stats(set.num_features);
  stats.AddRows(RowsOf(set));
  BW_ASSIGN_OR_RETURN(best.model, stats.Fit());
  return best;
}

}  // namespace bellwether::core
