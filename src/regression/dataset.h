#ifndef BELLWETHER_REGRESSION_DATASET_H_
#define BELLWETHER_REGRESSION_DATASET_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace bellwether::regression {

/// A numeric training set: n examples with p feature values each (row-major),
/// a target per example, and optional per-example weights (paper §6.4, WLS).
/// Feature matrices built by the bellwether layer include the constant
/// intercept column as feature 0 (paper footnote 1).
class Dataset {
 public:
  Dataset() : num_features_(0) {}
  explicit Dataset(size_t num_features) : num_features_(num_features) {}

  size_t num_features() const { return num_features_; }
  size_t num_examples() const { return y_.size(); }
  bool weighted() const { return !w_.empty(); }

  /// Appends one example; x.size() must equal num_features().
  void Add(const std::vector<double>& x, double y) {
    BW_DCHECK(x.size() == num_features_);
    BW_DCHECK(w_.empty());
    x_.insert(x_.end(), x.begin(), x.end());
    y_.push_back(y);
  }

  /// Appends one weighted example. Mixing weighted and unweighted Add calls
  /// is a programmer error. Weight must be > 0.
  void AddWeighted(const std::vector<double>& x, double y, double w) {
    BW_DCHECK(x.size() == num_features_);
    BW_DCHECK(w_.size() == y_.size());
    BW_DCHECK(w > 0.0);
    x_.insert(x_.end(), x.begin(), x.end());
    y_.push_back(y);
    w_.push_back(w);
  }

  /// Pointer to the feature row of example i.
  const double* x(size_t i) const { return x_.data() + i * num_features_; }
  double y(size_t i) const { return y_[i]; }
  /// Weight of example i (1.0 when unweighted).
  double w(size_t i) const { return w_.empty() ? 1.0 : w_[i]; }

  /// Raw columnar views for batched kernels: row-major n x p features,
  /// n targets, and n weights or nullptr when unweighted.
  const double* x_data() const { return x_.data(); }
  const double* y_data() const { return y_.data(); }
  const double* w_data() const { return w_.empty() ? nullptr : w_.data(); }

  void Reserve(size_t n) {
    x_.reserve(n * num_features_);
    y_.reserve(n);
    w_.reserve(n);
  }

 private:
  size_t num_features_;
  std::vector<double> x_;  // row-major, n * p
  std::vector<double> y_;
  std::vector<double> w_;  // empty = all ones
};

}  // namespace bellwether::regression

#endif  // BELLWETHER_REGRESSION_DATASET_H_
