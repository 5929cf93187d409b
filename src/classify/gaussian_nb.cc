#include "classify/gaussian_nb.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace bellwether::classify {

namespace {
constexpr double kLogTwoPi = 1.8378770664093453;
}  // namespace

GaussianNbModel::GaussianNbModel(std::vector<double> log_priors,
                                 std::vector<double> means,
                                 std::vector<double> variances,
                                 size_t num_features)
    : log_priors_(std::move(log_priors)),
      means_(std::move(means)),
      variances_(std::move(variances)),
      num_features_(num_features) {
  BW_CHECK(means_.size() == log_priors_.size() * num_features_);
  BW_CHECK(variances_.size() == means_.size());
}

std::vector<double> GaussianNbModel::LogScores(const double* x) const {
  std::vector<double> scores(log_priors_.size());
  for (size_t c = 0; c < log_priors_.size(); ++c) {
    double s = log_priors_[c];
    if (s == -std::numeric_limits<double>::infinity()) {
      scores[c] = s;
      continue;
    }
    const double* mean = means_.data() + c * num_features_;
    const double* var = variances_.data() + c * num_features_;
    for (size_t j = 0; j < num_features_; ++j) {
      const double d = x[j] - mean[j];
      s -= 0.5 * (kLogTwoPi + std::log(var[j]) + d * d / var[j]);
    }
    scores[c] = s;
  }
  return scores;
}

int32_t GaussianNbModel::Predict(const double* x) const {
  const std::vector<double> scores = LogScores(x);
  int32_t best = 0;
  for (size_t c = 1; c < scores.size(); ++c) {
    if (scores[c] > scores[best]) best = static_cast<int32_t>(c);
  }
  return best;
}

NbSuffStats::NbSuffStats(size_t num_features, int32_t num_classes)
    : num_features_(num_features),
      num_classes_(num_classes),
      class_count_(num_classes, 0),
      sum_(num_classes * num_features, 0.0),
      sum_sq_(num_classes * num_features, 0.0) {
  BW_CHECK(num_classes >= 2);
}

void NbSuffStats::Add(const double* x, int32_t y) {
  BW_DCHECK(y >= 0 && y < num_classes_);
  ++n_;
  ++class_count_[y];
  double* s = sum_.data() + y * num_features_;
  double* q = sum_sq_.data() + y * num_features_;
  for (size_t j = 0; j < num_features_; ++j) {
    s[j] += x[j];
    q[j] += x[j] * x[j];
  }
}

Result<GaussianNbModel> NbSuffStats::Fit() const {
  if (n_ == 0) {
    return Status::FailedPrecondition("cannot fit NB on 0 examples");
  }
  // Global per-feature variance, the basis of the variance floor.
  std::vector<double> global_var(num_features_, 0.0);
  for (size_t j = 0; j < num_features_; ++j) {
    double total = 0.0, total_sq = 0.0;
    for (int32_t c = 0; c < num_classes_; ++c) {
      total += sum_[c * num_features_ + j];
      total_sq += sum_sq_[c * num_features_ + j];
    }
    const double mean = total / static_cast<double>(n_);
    global_var[j] =
        std::max(total_sq / static_cast<double>(n_) - mean * mean, 0.0);
  }
  std::vector<double> log_priors(num_classes_);
  std::vector<double> means(num_classes_ * num_features_, 0.0);
  std::vector<double> variances(num_classes_ * num_features_, 1.0);
  for (int32_t c = 0; c < num_classes_; ++c) {
    if (class_count_[c] == 0) {
      log_priors[c] = -std::numeric_limits<double>::infinity();
      continue;
    }
    log_priors[c] = std::log(static_cast<double>(class_count_[c]) /
                             static_cast<double>(n_));
    const double inv = 1.0 / static_cast<double>(class_count_[c]);
    for (size_t j = 0; j < num_features_; ++j) {
      const double mean = sum_[c * num_features_ + j] * inv;
      double var = sum_sq_[c * num_features_ + j] * inv - mean * mean;
      // Floor at 1e-9 of the global variance (plus an absolute epsilon) to
      // keep the density proper on (near-)constant features.
      var = std::max(var, 1e-9 * global_var[j] + 1e-12);
      means[c * num_features_ + j] = mean;
      variances[c * num_features_ + j] = var;
    }
  }
  return GaussianNbModel(std::move(log_priors), std::move(means),
                         std::move(variances), num_features_);
}

void LabeledDataset::Add(const std::vector<double>& row_in, int32_t label) {
  BW_DCHECK(row_in.size() == num_features);
  x.insert(x.end(), row_in.begin(), row_in.end());
  y.push_back(label);
}

double MisclassificationRate(const GaussianNbModel& model,
                             const LabeledDataset& data) {
  if (data.num_examples() == 0) return 0.0;
  int64_t wrong = 0;
  for (size_t i = 0; i < data.num_examples(); ++i) {
    if (model.Predict(data.row(i)) != data.y[i]) ++wrong;
  }
  return static_cast<double>(wrong) /
         static_cast<double>(data.num_examples());
}

}  // namespace bellwether::classify
