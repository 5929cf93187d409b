#ifndef BELLWETHER_LINALG_MATRIX_H_
#define BELLWETHER_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace bellwether::linalg {

/// Column vector of doubles.
using Vector = std::vector<double>;

/// Dense row-major matrix of doubles. Sized for regression normal equations
/// (p x p with small p), not for large-scale numerical work.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds a matrix from nested initializer data; all rows must have equal
  /// length.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    BW_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    BW_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& mutable_data() { return data_; }

  /// Element-wise addition. Precondition: same shape.
  Matrix& operator+=(const Matrix& other);

  /// Scales every element by s.
  Matrix& operator*=(double s);

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Dot product over raw arrays (multi-accumulator, autovectorizable). The
/// serving hot path (LinearModel::Predict) and the suff-stats kernels share
/// this one implementation.
double Dot(const double* a, const double* b, size_t n);

/// Dot product. Precondition: equal sizes.
double Dot(const Vector& a, const Vector& b);

/// Solves A x = b for symmetric positive definite A via Cholesky
/// factorization. If A is singular or indefinite, retries with a small ridge
/// (A + lambda I) escalating up to `max_ridge`; returns NumericError if the
/// system is still unsolvable. This mirrors the pseudo-inverse fallback
/// statistics packages apply to collinear regression designs.
Result<Vector> SolveSpd(const Matrix& a, const Vector& b,
                        double max_ridge = 1e-4);

}  // namespace bellwether::linalg

#endif  // BELLWETHER_LINALG_MATRIX_H_
