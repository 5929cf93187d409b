#include "regression/linear_model.h"

#include <cmath>

#include "obs/metrics.h"

namespace bellwether::regression {

const char* FitDegradationName(FitDegradation d) {
  switch (d) {
    case FitDegradation::kNone:
      return "none";
    case FitDegradation::kRidge:
      return "ridge";
    case FitDegradation::kMeanFallback:
      return "mean";
  }
  return "unknown";
}

RegressionSuffStats::RegressionSuffStats(size_t num_features)
    : p_(num_features),
      xtwx_packed_(PackedSize(num_features), 0.0),
      xtwy_(num_features, 0.0),
      ytwy_(0.0),
      n_(0),
      sum_w_(0.0) {}

void RegressionSuffStats::Reset() {
  xtwx_packed_.assign(PackedSize(p_), 0.0);
  xtwy_.assign(p_, 0.0);
  ytwy_ = 0.0;
  n_ = 0;
  sum_w_ = 0.0;
}

void RegressionSuffStats::AddBatch(const double* xs, const double* ys,
                                   const double* ws, size_t n) {
  const size_t p = p_;
  double* __restrict tri = xtwx_packed_.data();
  double* __restrict xy = xtwy_.data();
  size_t i = 0;
  // Register-blocked rank-4 update: each packed accumulator is loaded and
  // stored once per four examples, with four FMAs in between. The chained
  // `+=` keeps the left-to-right per-element summation order of four
  // scalar Add() calls.
  for (; i + 4 <= n; i += 4) {
    const double* __restrict x0 = xs + i * p;
    const double* __restrict x1 = x0 + p;
    const double* __restrict x2 = x1 + p;
    const double* __restrict x3 = x2 + p;
    const double w0 = ws == nullptr ? 1.0 : ws[i];
    const double w1 = ws == nullptr ? 1.0 : ws[i + 1];
    const double w2 = ws == nullptr ? 1.0 : ws[i + 2];
    const double w3 = ws == nullptr ? 1.0 : ws[i + 3];
    BW_DCHECK(w0 > 0.0 && w1 > 0.0 && w2 > 0.0 && w3 > 0.0);
    const double y0 = ys[i], y1 = ys[i + 1], y2 = ys[i + 2], y3 = ys[i + 3];
    size_t idx = 0;
    for (size_t r = 0; r < p; ++r) {
      const double a0 = w0 * x0[r];
      const double a1 = w1 * x1[r];
      const double a2 = w2 * x2[r];
      const double a3 = w3 * x3[r];
      double* __restrict trow = tri + idx;
      const size_t len = p - r;
      for (size_t c = 0; c < len; ++c) {
        trow[c] = trow[c] + a0 * x0[r + c] + a1 * x1[r + c] + a2 * x2[r + c] +
                  a3 * x3[r + c];
      }
      idx += len;
      xy[r] = xy[r] + a0 * y0 + a1 * y1 + a2 * y2 + a3 * y3;
    }
    ytwy_ = ytwy_ + w0 * y0 * y0 + w1 * y1 * y1 + w2 * y2 * y2 + w3 * y3 * y3;
    sum_w_ = sum_w_ + w0 + w1 + w2 + w3;
  }
  n_ += static_cast<int64_t>(i);
  for (; i < n; ++i) Add(xs + i * p, ys[i], ws == nullptr ? 1.0 : ws[i]);
}

void RegressionSuffStats::AddDataset(const Dataset& data) {
  BW_CHECK(data.num_features() == p_);
  AddBatch(data.x_data(), data.y_data(), data.w_data(), data.num_examples());
}

linalg::Matrix RegressionSuffStats::xtwx() const {
  linalg::Matrix full(p_, p_);
  size_t idx = 0;
  for (size_t r = 0; r < p_; ++r) {
    for (size_t c = r; c < p_; ++c) {
      const double v = xtwx_packed_[idx++];
      full(r, c) = v;
      full(c, r) = v;
    }
  }
  return full;
}

Result<LinearModel> RegressionSuffStats::Fit() const {
  if (n_ == 0) {
    return Status::FailedPrecondition("cannot fit a model on 0 examples");
  }
  BW_ASSIGN_OR_RETURN(linalg::Vector beta, linalg::SolveSpd(xtwx(), xtwy_));
  return LinearModel(std::move(beta));
}

Result<RobustFit> RegressionSuffStats::FitWithFallback(
    double heavy_ridge) const {
  if (n_ == 0) {
    return Status::FailedPrecondition("cannot fit a model on 0 examples");
  }
  const linalg::Matrix full = xtwx();
  if (auto fit = linalg::SolveSpd(full, xtwy_); fit.ok()) {
    return RobustFit{LinearModel(std::move(fit.value())),
                     FitDegradation::kNone};
  }
  if (auto fit = linalg::SolveSpd(full, xtwy_, heavy_ridge); fit.ok()) {
    bool finite = true;
    for (double b : fit.value()) finite = finite && std::isfinite(b);
    if (finite) {
      obs::DefaultMetrics()
          .GetCounter(obs::kMRegressionRidgeRefits)
          ->Increment();
      return RobustFit{LinearModel(std::move(fit.value())),
                       FitDegradation::kRidge};
    }
  }
  // Last resort: predict the weighted mean of the targets. Feature 0 is the
  // intercept column (constant 1), so X'WY[0] / sum(w) is that mean.
  linalg::Vector beta(p_, 0.0);
  const double mean = sum_w_ > 0.0 ? xtwy_[0] / sum_w_ : 0.0;
  beta[0] = std::isfinite(mean) ? mean : 0.0;
  obs::DefaultMetrics()
      .GetCounter(obs::kMRegressionMeanFallbacks)
      ->Increment();
  return RobustFit{LinearModel(std::move(beta)),
                   FitDegradation::kMeanFallback};
}

RegressionSuffStats RegressionSuffStats::FromComponents(linalg::Matrix xtwx,
                                                        linalg::Vector xtwy,
                                                        double ytwy, int64_t n,
                                                        double sum_w) {
  BW_CHECK(xtwx.rows() == xtwx.cols());
  BW_CHECK(xtwx.rows() == xtwy.size());
  const size_t p = xtwy.size();
  RegressionSuffStats out(p);
  size_t idx = 0;
  for (size_t r = 0; r < p; ++r) {
    for (size_t c = r; c < p; ++c) out.xtwx_packed_[idx++] = xtwx(r, c);
  }
  out.xtwy_ = std::move(xtwy);
  out.ytwy_ = ytwy;
  out.n_ = n;
  out.sum_w_ = sum_w;
  return out;
}

RegressionSuffStats RegressionSuffStats::FromPacked(size_t p,
                                                    std::vector<double> packed,
                                                    linalg::Vector xtwy,
                                                    double ytwy, int64_t n,
                                                    double sum_w) {
  BW_CHECK(packed.size() == PackedSize(p));
  BW_CHECK(xtwy.size() == p);
  RegressionSuffStats out;
  out.p_ = p;
  out.xtwx_packed_ = std::move(packed);
  out.xtwy_ = std::move(xtwy);
  out.ytwy_ = ytwy;
  out.n_ = n;
  out.sum_w_ = sum_w;
  return out;
}

Result<double> RegressionSuffStats::TrainingSse() const {
  if (n_ == 0) {
    return Status::FailedPrecondition("SSE of an empty training set");
  }
  BW_ASSIGN_OR_RETURN(linalg::Vector beta, linalg::SolveSpd(xtwx(), xtwy_));
  // Y'WY - (X'WY)' beta, with beta = (X'WX)^-1 (X'WY).
  const double sse = ytwy_ - linalg::Dot(xtwy_, beta);
  // Guard tiny negative values from floating-point cancellation.
  return sse < 0.0 ? 0.0 : sse;
}

Result<double> RegressionSuffStats::TrainingMse() const {
  BW_ASSIGN_OR_RETURN(double sse, TrainingSse());
  const int64_t dof = n_ - static_cast<int64_t>(p_);
  if (dof <= 0) return 0.0;  // interpolating model
  return sse / static_cast<double>(dof);
}

Result<double> RegressionSuffStats::TrainingRmse() const {
  BW_ASSIGN_OR_RETURN(double mse, TrainingMse());
  return std::sqrt(mse);
}

Result<LinearModel> FitLeastSquares(const Dataset& data) {
  RegressionSuffStats stats(data.num_features());
  stats.AddDataset(data);
  return stats.Fit();
}

}  // namespace bellwether::regression
