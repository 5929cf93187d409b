#include "linalg/matrix.h"

#include <cmath>

namespace bellwether::linalg {

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    BW_CHECK(rows[r].size() == m.cols());
    for (size_t c = 0; c < m.cols(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  BW_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

double Dot(const double* a, const double* b, size_t n) {
  const double* __restrict pa = a;
  const double* __restrict pb = b;
  // Four independent accumulators break the add-latency dependency chain and
  // let the autovectorizer use full-width FMA lanes.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += pa[i] * pb[i];
    s1 += pa[i + 1] * pb[i + 1];
    s2 += pa[i + 2] * pb[i + 2];
    s3 += pa[i + 3] * pb[i + 3];
  }
  double acc = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) acc += pa[i] * pb[i];
  return acc;
}

double Dot(const Vector& a, const Vector& b) {
  BW_CHECK(a.size() == b.size());
  return Dot(a.data(), b.data(), a.size());
}

namespace {

// In-place Cholesky of a copy of `a`; returns false if a non-positive pivot
// is encountered.
bool CholeskyFactor(Matrix* a) {
  const size_t n = a->rows();
  for (size_t j = 0; j < n; ++j) {
    double d = (*a)(j, j);
    for (size_t k = 0; k < j; ++k) d -= (*a)(j, k) * (*a)(j, k);
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    const double dj = std::sqrt(d);
    (*a)(j, j) = dj;
    for (size_t i = j + 1; i < n; ++i) {
      double s = (*a)(i, j);
      for (size_t k = 0; k < j; ++k) s -= (*a)(i, k) * (*a)(j, k);
      (*a)(i, j) = s / dj;
    }
  }
  return true;
}

// Solves L L' x = b given the lower-triangular factor L stored in `l`.
Vector CholeskySolve(const Matrix& l, const Vector& b) {
  const size_t n = l.rows();
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  Vector x(n);
  for (size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

}  // namespace

Result<Vector> SolveSpd(const Matrix& a, const Vector& b, double max_ridge) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SolveSpd requires a square matrix");
  }
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("SolveSpd shape mismatch");
  }
  if (a.rows() == 0) return Vector{};
  const size_t n = a.rows();
  // Jacobi equilibration: solve (D^-1/2 A D^-1/2) y = D^-1/2 b and map the
  // solution back with x = D^-1/2 y. Normal-equation matrices of regression
  // designs mix wildly different feature scales (an intercept next to a
  // dollar amount); equilibration makes the factorization's success
  // deterministic instead of knife-edge and keeps the ridge meaningful.
  Vector d(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    const double diag = a(i, i);
    d[i] = diag > 0.0 && std::isfinite(diag) ? 1.0 / std::sqrt(diag) : 1.0;
  }
  Matrix scaled(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) scaled(r, c) = a(r, c) * d[r] * d[c];
  }
  Vector rhs(n);
  for (size_t i = 0; i < n; ++i) rhs[i] = b[i] * d[i];

  double ridge = 0.0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    Matrix l = scaled;
    if (ridge > 0.0) {
      for (size_t i = 0; i < n; ++i) l(i, i) += ridge;
    }
    if (CholeskyFactor(&l)) {
      Vector y = CholeskySolve(l, rhs);
      for (size_t i = 0; i < n; ++i) y[i] *= d[i];
      return y;
    }
    // The equilibrated matrix has a unit diagonal, so the ridge is already
    // relative to the problem scale.
    ridge = (ridge == 0.0) ? 1e-10 : ridge * 10.0;
    if (ridge > max_ridge) break;
  }
  return Status::NumericError(
      "SolveSpd: matrix not positive definite even with ridge");
}

}  // namespace bellwether::linalg
