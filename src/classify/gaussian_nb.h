#ifndef BELLWETHER_CLASSIFY_GAUSSIAN_NB_H_
#define BELLWETHER_CLASSIFY_GAUSSIAN_NB_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace bellwether::classify {

/// A fitted Gaussian naive Bayes classifier: per class, a prior and
/// per-feature normal densities. The bellwether framework's classification
/// counterpart of the WLS linear model — its sufficient statistics are
/// algebraic (per-class counts / sums / sums of squares), so cube-style
/// bottom-up aggregation applies to it exactly as Theorem 1 applies to
/// regression (cf. the decomposable-scoring discussion of §6.4).
class GaussianNbModel {
 public:
  GaussianNbModel() = default;
  GaussianNbModel(std::vector<double> log_priors, std::vector<double> means,
                  std::vector<double> variances, size_t num_features);

  int32_t num_classes() const {
    return static_cast<int32_t>(log_priors_.size());
  }
  size_t num_features() const { return num_features_; }

  /// Most probable class of a feature row (num_features() values).
  int32_t Predict(const double* x) const;
  int32_t Predict(const std::vector<double>& x) const {
    return Predict(x.data());
  }

  /// Per-class log joint density log p(y) + sum_j log p(x_j | y).
  std::vector<double> LogScores(const double* x) const;

 private:
  std::vector<double> log_priors_;  // per class
  std::vector<double> means_;       // class-major, num_classes * num_features
  std::vector<double> variances_;   // same layout, variance-floored
  size_t num_features_ = 0;
};

/// Algebraic sufficient statistics of a Gaussian NB model: per (class,
/// feature) count/sum/sum-of-squares, of fixed size whatever the number of
/// examples added.
class NbSuffStats {
 public:
  NbSuffStats() = default;
  NbSuffStats(size_t num_features, int32_t num_classes);

  size_t num_features() const { return num_features_; }
  int32_t num_classes() const { return num_classes_; }
  int64_t num_examples() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Accumulates one example with class label y in [0, num_classes).
  void Add(const double* x, int32_t y);

  /// Fits the model; fails when no class has an example. Variances are
  /// floored at a small fraction of the feature's global variance to keep
  /// densities proper on near-constant features.
  Result<GaussianNbModel> Fit() const;

 private:
  size_t num_features_ = 0;
  int32_t num_classes_ = 0;
  int64_t n_ = 0;
  std::vector<int64_t> class_count_;  // per class
  std::vector<double> sum_;           // class-major
  std::vector<double> sum_sq_;        // class-major
};

/// A labeled classification dataset (dense features, int class labels).
struct LabeledDataset {
  size_t num_features = 0;
  std::vector<double> x;   // row-major
  std::vector<int32_t> y;  // class labels

  size_t num_examples() const { return y.size(); }
  const double* row(size_t i) const { return x.data() + i * num_features; }
  void Add(const std::vector<double>& row_in, int32_t label);
};

/// Fraction of misclassified examples.
double MisclassificationRate(const GaussianNbModel& model,
                             const LabeledDataset& data);

}  // namespace bellwether::classify

#endif  // BELLWETHER_CLASSIFY_GAUSSIAN_NB_H_
