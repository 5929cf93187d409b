#include "regression/linear_model.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

// Runtime-dispatched AVX-512 row-list kernel (GCC/Clang function target
// attribute, as in olap/cube.h; the rest of the build stays baseline
// x86-64).
#if defined(__x86_64__) && defined(__GNUC__)
#define BW_SUFFSTATS_X86_DISPATCH 1
#include <immintrin.h>
#endif

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

namespace detail {

void AddRowsScalar(RegressionSuffStats* stats, const double* xs,
                   const double* ys, const double* ws, const uint32_t* rows,
                   size_t n) {
  const size_t p = stats->num_features();
  for (size_t i = 0; i < n; ++i) {
    const size_t row = rows == nullptr ? i : rows[i];
    stats->Add(xs + row * p, ys[row], ws == nullptr ? 1.0 : ws[row]);
  }
}

#if defined(BW_SUFFSTATS_X86_DISPATCH)

namespace {

const bool kHasAvx512 = __builtin_cpu_supports("avx512f");

// Vector lanes of the statistic at arity P, 8 to a register: the packed
// X'WX triangle (row r holding columns r..P-1), then X'WY, then Y'WY, then
// the weight sum. Per row, ext = [x, y, 1] and u = w * ext; lane L adds
// u[a[L]] * ext[b[L]], which is the product Add() forms for that
// accumulator: (w x_r) x_c, (w x_r) y, (w y) y and (w 1) 1 = w. Lanes past
// kLanes are padding and are never added to.
template <size_t P>
struct LaneLayout {
  static constexpr size_t kLanes = P * (P + 1) / 2 + P + 2;
  static constexpr size_t kRegs = (kLanes + 7) / 8;

  constexpr LaneLayout() {
    size_t l = 0;
    for (size_t r = 0; r < P; ++r) {
      for (size_t c = r; c < P; ++c) {
        a[l] = static_cast<int64_t>(r);
        b[l++] = static_cast<int64_t>(c);
      }
    }
    for (size_t r = 0; r < P; ++r) {
      a[l] = static_cast<int64_t>(r);
      b[l++] = P;
    }
    a[l] = P;
    b[l++] = P;
    a[l] = P + 1;
    b[l] = P + 1;
  }

  // The live lanes of register k.
  static constexpr __mmask8 Live(size_t k) {
    const size_t left = kLanes - 8 * k;
    return left >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1u << left) - 1);
  }

  int64_t a[kRegs * 8] = {};
  int64_t b[kRegs * 8] = {};
};

// vpermpd. The zero-masking form with every lane live: GCC 12's
// _mm512_permutexvar_pd warns (-Wmaybe-uninitialized) on its undefined
// pass-through operand.
__attribute__((target("avx512f"))) inline __m512d Permute(__m512i index,
                                                          __m512d v) {
  return _mm512_maskz_permutexvar_pd(0xFF, index, v);
}

// The accumulators `acc` (LaneLayout<P> order, kRegs * 8 values) stay in
// registers for the whole list. Each lane gets a multiply and then a
// separate masked add: never a fused multiply-add, which would round once
// where Add() rounds twice.
template <size_t P>
__attribute__((target("avx512f"))) void AddRowsAvx512Fixed(
    double* acc, const double* xs, const double* ys, const double* ws,
    const uint32_t* rows, size_t n) {
  using Layout = LaneLayout<P>;
  static constexpr Layout kLayout{};
  constexpr size_t kRegs = Layout::kRegs;
  __m512i ia[kRegs];
  __m512i ib[kRegs];
  __m512d sum[kRegs];
  // Every loop over k is unrolled so that ia, ib and sum become registers:
  // at -O2 GCC keeps the four-register loop (p = 6) rolled, with the
  // accumulators in memory.
#pragma GCC unroll 4
  for (size_t k = 0; k < kRegs; ++k) {
    ia[k] = _mm512_loadu_si512(kLayout.a + 8 * k);
    ib[k] = _mm512_loadu_si512(kLayout.b + 8 * k);
    sum[k] = _mm512_loadu_pd(acc + 8 * k);
  }
  constexpr __mmask8 kXLanes = static_cast<__mmask8>((1u << P) - 1);
  constexpr __mmask8 kYLane = static_cast<__mmask8>(1u << P);
  const __m512d one = _mm512_maskz_mov_pd(static_cast<__mmask8>(1u << (P + 1)),
                                          _mm512_set1_pd(1.0));
  for (size_t i = 0; i < n; ++i) {
    const size_t row = rows == nullptr ? i : rows[i];
    __m512d ext = _mm512_mask_loadu_pd(one, kXLanes, xs + row * P);
    ext = _mm512_mask_mov_pd(ext, kYLane, _mm512_set1_pd(ys[row]));
    const __m512d u =
        _mm512_mul_pd(_mm512_set1_pd(ws == nullptr ? 1.0 : ws[row]), ext);
#pragma GCC unroll 4
    for (size_t k = 0; k < kRegs; ++k) {
      const __m512d prod =
          _mm512_mul_pd(Permute(ia[k], u), Permute(ib[k], ext));
      sum[k] = _mm512_mask_add_pd(sum[k], Layout::Live(k), sum[k], prod);
    }
  }
#pragma GCC unroll 4
  for (size_t k = 0; k < kRegs; ++k) _mm512_storeu_pd(acc + 8 * k, sum[k]);
}

}  // namespace

bool AddRowsHasAvx512() { return kHasAvx512; }

void AddRowsAvx512(RegressionSuffStats* stats, const double* xs,
                   const double* ys, const double* ws, const uint32_t* rows,
                   size_t n) {
  const size_t p = stats->p_;
  BW_CHECK(kHasAvx512 && p >= 1 && p <= kAddRowsVectorMaxFeatures);
  constexpr size_t kMaxLanes = LaneLayout<kAddRowsVectorMaxFeatures>::kRegs * 8;
  double acc[kMaxLanes] = {};
  const size_t tri = RegressionSuffStats::PackedSize(p);
  std::copy(stats->xtwx_packed_.begin(), stats->xtwx_packed_.end(), acc);
  std::copy(stats->xtwy_.begin(), stats->xtwy_.end(), acc + tri);
  acc[tri + p] = stats->ytwy_;
  acc[tri + p + 1] = stats->sum_w_;
  switch (p) {
    case 1:
      AddRowsAvx512Fixed<1>(acc, xs, ys, ws, rows, n);
      break;
    case 2:
      AddRowsAvx512Fixed<2>(acc, xs, ys, ws, rows, n);
      break;
    case 3:
      AddRowsAvx512Fixed<3>(acc, xs, ys, ws, rows, n);
      break;
    case 4:
      AddRowsAvx512Fixed<4>(acc, xs, ys, ws, rows, n);
      break;
    case 5:
      AddRowsAvx512Fixed<5>(acc, xs, ys, ws, rows, n);
      break;
    default:
      AddRowsAvx512Fixed<6>(acc, xs, ys, ws, rows, n);
      break;
  }
  std::copy(acc, acc + tri, stats->xtwx_packed_.begin());
  std::copy(acc + tri, acc + tri + p, stats->xtwy_.begin());
  stats->ytwy_ = acc[tri + p];
  stats->sum_w_ = acc[tri + p + 1];
  stats->n_ += static_cast<int64_t>(n);
}

#else  // !BW_SUFFSTATS_X86_DISPATCH

bool AddRowsHasAvx512() { return false; }

void AddRowsAvx512(RegressionSuffStats*, const double*, const double*,
                   const double*, const uint32_t*, size_t) {
  BW_CHECK(false && "AddRowsAvx512 needs an x86-64 build");
}

#endif

}  // namespace detail

void RegressionSuffStats::AddRows(const double* xs, const double* ys,
                                  const double* ws, const uint32_t* rows,
                                  size_t n) {
  if (n == 0) return;
#if defined(BW_SUFFSTATS_X86_DISPATCH)
  if (detail::kHasAvx512 && p_ >= 1 &&
      p_ <= detail::kAddRowsVectorMaxFeatures) {
    detail::AddRowsAvx512(this, xs, ys, ws, rows, n);
    return;
  }
#endif
  detail::AddRowsScalar(this, xs, ys, ws, rows, n);
}

void RegressionSuffStats::AddDataset(const Dataset& data) {
  BW_CHECK(data.num_features() == p_);
  AddRows(data.rows());
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
