#ifndef BELLWETHER_REGRESSION_LINEAR_MODEL_H_
#define BELLWETHER_REGRESSION_LINEAR_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "regression/dataset.h"

namespace bellwether::regression {

/// A fitted (weighted) least-squares linear model: y_hat = sum_j x_j beta_j.
/// The intercept, when wanted, is feature 0 with constant value 1 (the
/// dataset builders in the bellwether layer add it).
class LinearModel {
 public:
  LinearModel() = default;
  explicit LinearModel(linalg::Vector beta) : beta_(std::move(beta)) {}

  const linalg::Vector& beta() const { return beta_; }
  size_t num_features() const { return beta_.size(); }

  /// Prediction for one feature row (x must have num_features() entries).
  /// Delegates to linalg::Dot so the serving hot path shares the one
  /// optimized dot-product kernel.
  double Predict(const double* x) const {
    return linalg::Dot(x, beta_.data(), beta_.size());
  }
  double Predict(const std::vector<double>& x) const {
    BW_DCHECK(x.size() == beta_.size());
    return Predict(x.data());
  }

 private:
  linalg::Vector beta_;
};

/// Which tier of the graceful-degradation chain produced a model (see
/// docs/ROBUSTNESS.md). Ordered from best to worst.
enum class FitDegradation {
  kNone,          // ordinary fit succeeded
  kRidge,         // ill-conditioned; recovered with a heavy ridge refit
  kMeanFallback,  // intercept-only weighted-mean model
};

const char* FitDegradationName(FitDegradation d);

/// A model together with the degradation tier that produced it.
struct RobustFit {
  LinearModel model;
  FitDegradation degradation = FitDegradation::kNone;

  bool degraded() const { return degradation != FitDegradation::kNone; }
};

class RegressionSuffStats;

namespace detail {

/// Largest arity AddRows' AVX-512 kernel handles: [x, y, 1] fits in one
/// 8-lane register.
inline constexpr size_t kAddRowsVectorMaxFeatures = 6;

/// AddRows' two implementations; AddRows picks one, and the equivalence
/// tests call each directly. The scalar path is one Add() per listed row.
void AddRowsScalar(RegressionSuffStats* stats, const double* xs,
                   const double* ys, const double* ws, const uint32_t* rows,
                   size_t n);
/// True when this CPU runs AddRowsAvx512.
bool AddRowsHasAvx512();
/// The AVX-512 kernel; needs AddRowsHasAvx512() and an arity in
/// [1, kAddRowsVectorMaxFeatures].
void AddRowsAvx512(RegressionSuffStats* stats, const double* xs,
                   const double* ys, const double* ws, const uint32_t* rows,
                   size_t n);

}  // namespace detail

/// The sufficient statistic of Theorem 1: g(S) = <Y'WY, X'WX, X'WY> plus the
/// example count. Fixed size (1 + p*(p+1)/2 + p values), independent of |S|;
/// merging two statistics is element-wise addition, which makes the weighted
/// SSE of a WLS linear model an *algebraic* aggregate function and powers
/// the optimized bellwether-cube algorithm (paper §6.4).
///
/// X'WX is symmetric, so it is stored in *packed* upper-triangular layout
/// (row-major, row r holding columns r..p-1): half the arithmetic and half
/// the memory traffic of the naive p x p rank-1 update, and Merge collapses
/// to one flat sum over a contiguous array. Checkpoint/model I/O serialize
/// the packed triangle directly (regression/suff_stats_io.h) and restore
/// through FromPacked(); only the linalg solvers still go through the
/// xtwx() unpack shim.
class RegressionSuffStats {
 public:
  RegressionSuffStats() : p_(0), ytwy_(0.0), n_(0), sum_w_(0.0) {}
  explicit RegressionSuffStats(size_t num_features);

  size_t num_features() const { return p_; }
  int64_t num_examples() const { return n_; }
  double sum_weights() const { return sum_w_; }
  bool empty() const { return n_ == 0; }

  /// Packed upper-triangular length for arity p.
  static constexpr size_t PackedSize(size_t p) { return p * (p + 1) / 2; }
  /// Index of (r, c), r <= c, in the packed upper-triangular layout.
  static constexpr size_t PackedIndex(size_t p, size_t r, size_t c) {
    return r * p - r * (r - 1) / 2 + (c - r);
  }

  /// Clears the accumulated values, keeping the feature arity.
  void Reset();

  /// Accumulates one example (weight w > 0; pass 1.0 for OLS). Defined
  /// inline below with a per-arity unrolled body. The builders accumulate
  /// whole row lists through AddRows instead.
  void Add(const double* x, double y, double w = 1.0);

  /// Accumulates rows rows[0..n) of a row-major set, in list order: `xs`
  /// holds p values per row, `ys` a target per row, `ws` a weight per row
  /// or null for OLS. A null `rows` means rows 0..n-1. Bit-identical to one
  /// Add() per listed row: every accumulator gets the same multiplies and
  /// adds in the same order (DESIGN.md "Row-list kernel"). For p <= 6 on
  /// an AVX-512 CPU the accumulators stay in vector registers for the
  /// whole list; otherwise it loops over Add().
  void AddRows(const double* xs, const double* ys, const double* ws,
               const uint32_t* rows, size_t n);

  /// AddRows over the rows of a RowSet.
  void AddRows(const RowSet& rows) {
    AddRows(rows.xs, rows.ys, rows.ws, rows.rows, rows.n);
  }

  /// Accumulates `n` consecutive rows: AddRows over rows 0..n-1.
  void AddBatch(const double* xs, const double* ys, const double* ws,
                size_t n) {
    AddRows(xs, ys, ws, nullptr, n);
  }

  /// Accumulates a whole dataset (AddRows over all of its rows).
  void AddDataset(const Dataset& data);

  /// The q-combine of Theorem 1: element-wise sum of the statistics — a
  /// single flat pass over the packed array. The other statistic must have
  /// the same feature arity (or be empty).
  void Merge(const RegressionSuffStats& other);

  /// Fits the WLS model beta = (X'WX)^-1 (X'WY). Fails if there are no
  /// examples or the normal equations are unsolvable.
  Result<LinearModel> Fit() const;

  /// Graceful-degradation fit: Fit(), then a heavy ridge refit (max ridge
  /// `heavy_ridge`), then the intercept-only weighted-mean model. Always
  /// returns a usable model when there is at least one example, flagging
  /// which tier fired; degradations are mirrored into the metrics registry.
  /// On a well-conditioned statistic the result is bit-identical to Fit().
  Result<RobustFit> FitWithFallback(double heavy_ridge = 1e2) const;

  /// Reassembles a statistic from its components (checkpoint restore and
  /// tests). `xtwx` must be p x p, `xtwy` length p. Only the upper triangle
  /// of `xtwx` is read (the statistic is symmetric by construction).
  static RegressionSuffStats FromComponents(linalg::Matrix xtwx,
                                            linalg::Vector xtwy, double ytwy,
                                            int64_t n, double sum_w);

  /// Reassembles a statistic directly from its packed upper triangle
  /// (PackedSize(p) values, row-major) without materializing the full
  /// matrix — the restore path of the packed wire format
  /// (regression/suff_stats_io.h).
  static RegressionSuffStats FromPacked(size_t p, std::vector<double> packed,
                                        linalg::Vector xtwy, double ytwy,
                                        int64_t n, double sum_w);

  /// Weighted sum of squared errors of the fitted model on the accumulated
  /// data: Y'WY - (X'WY)' (X'WX)^-1 (X'WY), computed directly from the
  /// statistic without revisiting examples (Theorem 1).
  Result<double> TrainingSse() const;

  /// Training-set weighted mean squared error: SSE / (n - p), the
  /// degrees-of-freedom-corrected estimate used by the paper. When n <= p
  /// the model interpolates and the error is reported as 0.
  Result<double> TrainingMse() const;

  /// sqrt(TrainingMse()).
  Result<double> TrainingRmse() const;

  /// Full p x p X'WX, unpacked from the packed triangle for the linalg
  /// solvers. Returns by value — unpack once, not per element.
  linalg::Matrix xtwx() const;
  /// The packed upper triangle itself (row-major, PackedSize(p) values).
  const std::vector<double>& packed_xtwx() const { return xtwx_packed_; }
  const linalg::Vector& xtwy() const { return xtwy_; }
  double ytwy() const { return ytwy_; }

 private:
  friend void detail::AddRowsAvx512(RegressionSuffStats*, const double*,
                                    const double*, const double*,
                                    const uint32_t*, size_t);

  size_t p_;
  std::vector<double> xtwx_packed_;  // X'WX upper triangle, p*(p+1)/2
  linalg::Vector xtwy_;              // X'WY, p
  double ytwy_;                      // Y'WY
  int64_t n_;
  double sum_w_;
};

/// Convenience: fit a (W)LS model on a dataset via the sufficient statistic.
Result<LinearModel> FitLeastSquares(const Dataset& data);

namespace detail {

/// Packed symmetric rank-1 update: tri += w * upper(x x'), xy += (w*x) * y.
/// The inner loop runs over the contiguous packed row r (columns r..p-1 of
/// both the triangle and x), so the autovectorizer can lift it to FMA
/// vector code; restrict qualifiers tell it the accumulators never alias x.
inline void PackedRank1(double* __restrict tri, double* __restrict xy,
                        const double* __restrict x, double y, double w,
                        size_t p) {
  size_t idx = 0;
  for (size_t r = 0; r < p; ++r) {
    const double wr = w * x[r];
    double* __restrict trow = tri + idx;
    const double* __restrict xc = x + r;
    const size_t len = p - r;
    for (size_t c = 0; c < len; ++c) trow[c] += wr * xc[c];
    idx += len;
    xy[r] += wr * y;
  }
}

/// Fully unrolled variant for a compile-time arity (the common small p of
/// regression designs): no loop-carried index arithmetic, every accumulator
/// slot addressed statically.
template <size_t P>
inline void PackedRank1Fixed(double* __restrict tri, double* __restrict xy,
                             const double* __restrict x, double y, double w) {
  size_t idx = 0;
  for (size_t r = 0; r < P; ++r) {
    const double wr = w * x[r];
    for (size_t c = r; c < P; ++c) tri[idx++] += wr * x[c];
    xy[r] += wr * y;
  }
}

}  // namespace detail

inline void RegressionSuffStats::Add(const double* x, double y, double w) {
  BW_DCHECK(w > 0.0);
  double* tri = xtwx_packed_.data();
  double* xy = xtwy_.data();
  switch (p_) {
    case 1:
      detail::PackedRank1Fixed<1>(tri, xy, x, y, w);
      break;
    case 2:
      detail::PackedRank1Fixed<2>(tri, xy, x, y, w);
      break;
    case 3:
      detail::PackedRank1Fixed<3>(tri, xy, x, y, w);
      break;
    case 4:
      detail::PackedRank1Fixed<4>(tri, xy, x, y, w);
      break;
    case 5:
      detail::PackedRank1Fixed<5>(tri, xy, x, y, w);
      break;
    case 6:
      detail::PackedRank1Fixed<6>(tri, xy, x, y, w);
      break;
    case 7:
      detail::PackedRank1Fixed<7>(tri, xy, x, y, w);
      break;
    case 8:
      detail::PackedRank1Fixed<8>(tri, xy, x, y, w);
      break;
    default:
      detail::PackedRank1(tri, xy, x, y, w, p_);
      break;
  }
  ytwy_ += w * y * y;
  ++n_;
  sum_w_ += w;
}

inline void RegressionSuffStats::Merge(const RegressionSuffStats& other) {
  if (other.empty()) return;
  if (empty() && p_ == 0) {
    *this = other;
    return;
  }
  BW_CHECK(p_ == other.p_);
  const double* __restrict o = other.xtwx_packed_.data();
  double* __restrict t = xtwx_packed_.data();
  const size_t tn = xtwx_packed_.size();
  for (size_t i = 0; i < tn; ++i) t[i] += o[i];
  for (size_t j = 0; j < p_; ++j) xtwy_[j] += other.xtwy_[j];
  ytwy_ += other.ytwy_;
  n_ += other.n_;
  sum_w_ += other.sum_w_;
}

}  // namespace bellwether::regression

#endif  // BELLWETHER_REGRESSION_LINEAR_MODEL_H_
