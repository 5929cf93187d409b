#include "regression/error.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace bellwether::regression {

double ErrorStats::UpperConfidenceBound(double confidence) const {
  if (!HasSpread()) return rmse;
  return UpperBoundAt(NormalQuantileTwoSided(confidence));
}

double ErrorStats::LowerConfidenceBound(double confidence) const {
  if (!HasSpread()) return rmse;
  const double z = NormalQuantileTwoSided(confidence);
  return std::max(0.0, rmse - z * stddev / std::sqrt(
                                              static_cast<double>(num_folds)));
}

namespace {

// Acklam's rational approximation to the standard normal inverse CDF;
// absolute error < 1.15e-9 over (0, 1).
double NormalInverseCdf(double p) {
  BW_CHECK(p > 0.0 && p < 1.0);
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= phigh) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

// Weighted SSE of the model `beta` on the examples summarized by `s`,
// without revisiting them: Y'WY - 2 beta'X'WY + beta'X'WX beta, with the
// quadratic form read off the packed upper triangle. Clamped at 0 against
// floating-point cancellation, as in TrainingSse().
double HeldOutSse(const RegressionSuffStats& s, const linalg::Vector& beta) {
  const size_t p = s.num_features();
  const double* tri = s.packed_xtwx().data();
  double cross = 0.0;
  double quad = 0.0;
  size_t idx = 0;
  for (size_t r = 0; r < p; ++r) {
    double row = tri[idx++] * beta[r];
    for (size_t c = r + 1; c < p; ++c) row += 2.0 * tri[idx++] * beta[c];
    quad += beta[r] * row;
    cross += beta[r] * s.xtwy()[r];
  }
  const double sse = s.ytwy() - 2.0 * cross + quad;
  return sse < 0.0 ? 0.0 : sse;
}

}  // namespace

double NormalQuantileTwoSided(double confidence) {
  BW_CHECK(confidence > 0.0 && confidence < 1.0);
  return NormalInverseCdf(0.5 + confidence / 2.0);
}

Result<ErrorStats> TrainingSetError(const RowSet& rows) {
  RegressionSuffStats stats(rows.p);
  stats.AddRows(rows);
  BW_ASSIGN_OR_RETURN(double rmse, stats.TrainingRmse());
  ErrorStats out;
  out.rmse = rmse;
  out.stddev = 0.0;
  out.num_folds = 1;
  return out;
}

Result<ErrorStats> CrossValidationError(const RowSet& rows, int32_t k,
                                        Rng* rng) {
  BW_CHECK(rng != nullptr);
  if (k < 2) return Status::InvalidArgument("cross-validation needs k >= 2");
  const size_t n = rows.n;
  if (n < 2) {
    return Status::FailedPrecondition(
        "cross-validation needs at least 2 examples");
  }
  const int32_t folds = std::min<int32_t>(k, static_cast<int32_t>(n));
  // Random permutation -> round-robin fold assignment.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng->Shuffle(&order);

  // The folds partition the rows, so by Theorem 1 each fold's statistic is
  // summed once and every training part is the merge of the other folds.
  // Fold f's rows, order[f], order[f + folds], ..., are listed together.
  std::vector<uint32_t> fold_rows(n);
  std::vector<size_t> fold_begin(static_cast<size_t>(folds) + 1, 0);
  size_t pos = 0;
  for (int32_t f = 0; f < folds; ++f) {
    fold_begin[f] = pos;
    for (size_t i = static_cast<size_t>(f); i < n; i += folds) {
      const size_t row = rows.row(order[i]);
      BW_CHECK(row <= UINT32_MAX);
      fold_rows[pos++] = static_cast<uint32_t>(row);
    }
  }
  fold_begin[folds] = n;
  const size_t p = rows.p;
  std::vector<RegressionSuffStats> fold_stats(folds, RegressionSuffStats(p));
  for (int32_t f = 0; f < folds; ++f) {
    fold_stats[f].AddRows(rows.xs, rows.ys, rows.ws,
                          fold_rows.data() + fold_begin[f],
                          fold_begin[f + 1] - fold_begin[f]);
  }

  std::vector<double> fold_errors;
  fold_errors.reserve(folds);
  RegressionSuffStats train(p);
  for (int32_t f = 0; f < folds; ++f) {
    const RegressionSuffStats& test = fold_stats[f];
    train.Reset();
    for (int32_t g = 0; g < folds; ++g) {
      if (g != f) train.Merge(fold_stats[g]);
    }
    if (test.empty() || train.empty()) continue;
    auto model = train.Fit();
    if (!model.ok()) continue;  // degenerate fold (e.g. collinear subset)
    const double sse = HeldOutSse(test, model->beta());
    fold_errors.push_back(
        test.sum_weights() > 0.0 ? std::sqrt(sse / test.sum_weights()) : 0.0);
  }
  if (fold_errors.empty()) {
    return Status::NumericError("no usable cross-validation fold");
  }
  double mean = 0.0;
  for (double e : fold_errors) mean += e;
  mean /= static_cast<double>(fold_errors.size());
  double var = 0.0;
  for (double e : fold_errors) var += (e - mean) * (e - mean);
  var = fold_errors.size() > 1
            ? var / static_cast<double>(fold_errors.size() - 1)
            : 0.0;
  ErrorStats out;
  out.rmse = mean;
  out.stddev = std::sqrt(var);
  out.num_folds = static_cast<int32_t>(fold_errors.size());
  return out;
}

Result<ErrorStats> CrossValidationError(const Dataset& data, int32_t k,
                                        Rng* rng) {
  return CrossValidationError(data.rows(), k, rng);
}

Result<ErrorStats> EstimateError(const RowSet& rows, ErrorEstimate estimate,
                                 int32_t k, Rng* rng) {
  if (estimate == ErrorEstimate::kTrainingSet) return TrainingSetError(rows);
  return CrossValidationError(rows, k, rng);
}

}  // namespace bellwether::regression
