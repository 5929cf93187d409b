#include "core/baselines.h"

#include <cmath>

#include "core/eval_util.h"
#include "core/training_data_gen.h"

namespace bellwether::core {

Result<regression::ErrorStats> RandomSamplingError(const BellwetherSpec& spec,
                                                   double budget,
                                                   int32_t trials, Rng* rng) {
  if (trials < 1) return Status::InvalidArgument("trials must be >= 1");
  const auto& cell_costs = spec.cost->finest_cell_costs();
  std::vector<int64_t> all_cells(cell_costs.size());
  for (size_t i = 0; i < all_cells.size(); ++i) {
    all_cells[i] = static_cast<int64_t>(i);
  }

  std::vector<double> rmses;
  for (int32_t t = 0; t < trials; ++t) {
    // Greedy random fill of the budget.
    rng->Shuffle(&all_cells);
    std::vector<int64_t> picked;
    double cost = 0.0;
    for (int64_t cell : all_cells) {
      if (cost + cell_costs[cell] > budget) continue;
      cost += cell_costs[cell];
      picked.push_back(cell);
    }
    if (picked.empty()) continue;
    BW_ASSIGN_OR_RETURN(storage::RegionTrainingSet set,
                        GenerateCellSetTrainingSet(spec, picked));
    const regression::RowSet rows = RowsOf(set);
    if (rows.n < 2) continue;
    Rng fold_rng = rng->Fork();
    auto err = regression::EstimateError(rows, spec.error_estimate,
                                         spec.cv_folds, &fold_rng);
    if (!err.ok()) continue;
    rmses.push_back(err->rmse);
  }
  if (rmses.empty()) {
    return Status::FailedPrecondition(
        "no random cell collection produced a usable model");
  }
  double mean = 0.0;
  for (double e : rmses) mean += e;
  mean /= static_cast<double>(rmses.size());
  double var = 0.0;
  for (double e : rmses) var += (e - mean) * (e - mean);
  regression::ErrorStats out;
  out.rmse = mean;
  out.stddev = rmses.size() > 1
                   ? std::sqrt(var / static_cast<double>(rmses.size() - 1))
                   : 0.0;
  out.num_folds = static_cast<int32_t>(rmses.size());
  return out;
}

}  // namespace bellwether::core
