#ifndef BELLWETHER_REGRESSION_ERROR_H_
#define BELLWETHER_REGRESSION_ERROR_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "regression/dataset.h"
#include "regression/linear_model.h"

namespace bellwether::regression {

/// Which error estimate of §2 to use when scoring a region's model.
enum class ErrorEstimate {
  kCrossValidation,  // n-fold CV RMSE (paper default, n = 10)
  kTrainingSet,      // training-set RMSE from the sufficient statistic
};

/// An error estimate together with the spread needed for confidence bounds.
struct ErrorStats {
  double rmse = 0.0;
  /// Standard deviation of the per-fold RMSEs (0 for training-set error).
  double stddev = 0.0;
  /// Number of folds the estimate averaged over (1 for training-set error).
  int32_t num_folds = 1;

  /// Upper bound of the two-sided `confidence` interval of the error, under
  /// the paper's normality assumption over fold errors: rmse + z * sd/sqrt(k).
  double UpperConfidenceBound(double confidence) const;
  /// False when the interval collapses to rmse (k <= 1 or sd == 0), so no
  /// quantile is needed.
  bool HasSpread() const { return num_folds > 1 && stddev != 0.0; }
  /// rmse + z * sd/sqrt(k) for a precomputed two-sided quantile z: with
  /// HasSpread(), UpperConfidenceBound(c) is exactly
  /// UpperBoundAt(NormalQuantileTwoSided(c)).
  double UpperBoundAt(double z) const {
    return rmse + z * stddev / std::sqrt(static_cast<double>(num_folds));
  }
  /// Lower bound of the same interval (clamped at 0).
  double LowerConfidenceBound(double confidence) const;
};

/// Two-sided standard-normal quantile for the given confidence level, e.g.
/// 0.95 -> 1.959964. Computed with the Acklam inverse-CDF approximation.
double NormalQuantileTwoSided(double confidence);

/// Training-set error: fit on `data`, evaluate on `data`, with the
/// degrees-of-freedom correction of §6.4. Cheap: one pass + one solve.
Result<ErrorStats> TrainingSetError(const Dataset& data);

/// k-fold cross-validation RMSE (§2). Deterministic for a fixed *rng: fold
/// assignment (one shuffle, then round-robin) consumes the generator. Each
/// fold's sufficient statistic is accumulated once; fold f's model is fit
/// on the merge of the other folds and its held-out SSE is computed from
/// fold f's statistic (Theorem 1), so the rows are read once for all k
/// folds. Folds with an unsolvable fit are skipped; fails when no fold is
/// usable or data is smaller than 2 examples.
Result<ErrorStats> CrossValidationError(const Dataset& data, int32_t k,
                                        Rng* rng);

/// Dispatches on `estimate`; cross-validation uses `k` folds.
Result<ErrorStats> EstimateError(const Dataset& data, ErrorEstimate estimate,
                                 int32_t k, Rng* rng);

}  // namespace bellwether::regression

#endif  // BELLWETHER_REGRESSION_ERROR_H_
