#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "regression/dataset.h"
#include "regression/error.h"
#include "regression/linear_model.h"

namespace bellwether::regression {
namespace {

// y = 3 + 2*x with small deterministic structure, exact fit expected.
Dataset MakeExactLinear() {
  Dataset d(2);  // intercept + x
  for (double x : {0.0, 1.0, 2.0, 3.0, 4.0}) {
    d.Add({1.0, x}, 3.0 + 2.0 * x);
  }
  return d;
}

Dataset MakeNoisyLinear(int n, double noise, uint64_t seed) {
  Rng rng(seed);
  Dataset d(3);
  for (int i = 0; i < n; ++i) {
    const double x1 = rng.NextDouble(-5, 5);
    const double x2 = rng.NextDouble(-5, 5);
    d.Add({1.0, x1, x2},
          1.5 - 2.0 * x1 + 0.5 * x2 + noise * rng.NextGaussian());
  }
  return d;
}

TEST(DatasetTest, AddAndAccess) {
  Dataset d = MakeExactLinear();
  EXPECT_EQ(d.num_examples(), 5u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_DOUBLE_EQ(d.x(2)[1], 2.0);
  EXPECT_DOUBLE_EQ(d.y(2), 7.0);
  EXPECT_DOUBLE_EQ(d.w(2), 1.0);
}

TEST(LinearModelTest, ExactRecovery) {
  auto model = FitLeastSquares(MakeExactLinear());
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->beta()[0], 3.0, 1e-9);
  EXPECT_NEAR(model->beta()[1], 2.0, 1e-9);
  EXPECT_NEAR(model->Predict({1.0, 10.0}), 23.0, 1e-8);
}

TEST(LinearModelTest, NoisyRecovery) {
  auto model = FitLeastSquares(MakeNoisyLinear(2000, 0.1, 5));
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->beta()[0], 1.5, 0.05);
  EXPECT_NEAR(model->beta()[1], -2.0, 0.05);
  EXPECT_NEAR(model->beta()[2], 0.5, 0.05);
}

TEST(LinearModelTest, FitFailsOnEmpty) {
  RegressionSuffStats stats(2);
  EXPECT_FALSE(stats.Fit().ok());
  EXPECT_FALSE(stats.TrainingSse().ok());
}

TEST(SuffStatsTest, WlsDownweightsOutliers) {
  // Clean line y = x plus one gross outlier with negligible weight.
  Dataset d(2);
  d.AddWeighted({1.0, 1.0}, 1.0, 1.0);
  d.AddWeighted({1.0, 2.0}, 2.0, 1.0);
  d.AddWeighted({1.0, 3.0}, 3.0, 1.0);
  d.AddWeighted({1.0, 4.0}, 100.0, 1e-8);
  auto model = FitLeastSquares(d);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->beta()[0], 0.0, 1e-3);
  EXPECT_NEAR(model->beta()[1], 1.0, 1e-3);
}

// Theorem 1: g is fixed-size and q (element-wise sum) recombines exactly —
// merged statistics over any partition equal the monolithic statistics.
class SuffStatsMergeTest : public ::testing::TestWithParam<int> {};

TEST_P(SuffStatsMergeTest, MergeEqualsMonolithic) {
  Rng rng(GetParam());
  const size_t p = 1 + rng.NextUint64(5);
  Dataset d(p);
  const int n = 50 + static_cast<int>(rng.NextUint64(100));
  std::vector<double> x(p);
  for (int i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.NextDouble(-3, 3);
    d.AddWeighted(x, rng.NextDouble(-10, 10), rng.NextDouble(0.1, 2.0));
  }
  RegressionSuffStats whole(p);
  whole.AddDataset(d);

  // Split into 3 random parts.
  RegressionSuffStats parts[3] = {RegressionSuffStats(p),
                                  RegressionSuffStats(p),
                                  RegressionSuffStats(p)};
  for (size_t i = 0; i < d.num_examples(); ++i) {
    parts[rng.NextUint64(3)].Add(d.x(i), d.y(i), d.w(i));
  }
  RegressionSuffStats merged(p);
  for (auto& part : parts) merged.Merge(part);

  EXPECT_EQ(merged.num_examples(), whole.num_examples());
  EXPECT_NEAR(merged.ytwy(), whole.ytwy(), 1e-7);
  // Frobenius distance between the full X'WX matrices.
  const std::vector<double> merged_xtwx = merged.xtwx().data();
  const std::vector<double> whole_xtwx = whole.xtwx().data();
  ASSERT_EQ(merged_xtwx.size(), whole_xtwx.size());
  double sq_distance = 0.0;
  for (size_t k = 0; k < whole_xtwx.size(); ++k) {
    const double d = merged_xtwx[k] - whole_xtwx[k];
    sq_distance += d * d;
  }
  EXPECT_LT(std::sqrt(sq_distance), 1e-7);
  ASSERT_TRUE(whole.TrainingSse().ok());
  ASSERT_TRUE(merged.TrainingSse().ok());
  EXPECT_NEAR(*merged.TrainingSse(), *whole.TrainingSse(),
              1e-6 * (1.0 + *whole.TrainingSse()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuffStatsMergeTest, ::testing::Range(1, 11));

TEST(SuffStatsTest, MergeIntoDefaultConstructed) {
  RegressionSuffStats a;  // empty, arity 0
  RegressionSuffStats b(2);
  b.Add(std::vector<double>{1.0, 2.0}.data(), 3.0);
  a.Merge(b);
  EXPECT_EQ(a.num_examples(), 1);
  EXPECT_EQ(a.num_features(), 2u);
}

TEST(SuffStatsTest, SseMatchesDirectComputation) {
  Dataset d = MakeNoisyLinear(200, 1.0, 9);
  RegressionSuffStats stats(d.num_features());
  stats.AddDataset(d);
  auto model = stats.Fit();
  ASSERT_TRUE(model.ok());
  double direct = 0.0;
  for (size_t i = 0; i < d.num_examples(); ++i) {
    const double e = d.y(i) - model->Predict(d.x(i));
    direct += e * e;
  }
  ASSERT_TRUE(stats.TrainingSse().ok());
  EXPECT_NEAR(*stats.TrainingSse(), direct, 1e-6 * (1.0 + direct));
}

TEST(SuffStatsTest, InterpolatingModelHasZeroMse) {
  // n == p: degrees of freedom 0.
  Dataset d(2);
  d.Add({1.0, 1.0}, 5.0);
  d.Add({1.0, 2.0}, 7.0);
  RegressionSuffStats stats(2);
  stats.AddDataset(d);
  ASSERT_TRUE(stats.TrainingMse().ok());
  EXPECT_DOUBLE_EQ(*stats.TrainingMse(), 0.0);
}

TEST(SuffStatsTest, ResetClears) {
  RegressionSuffStats stats(2);
  stats.Add(std::vector<double>{1.0, 1.0}.data(), 2.0);
  stats.Reset();
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.num_features(), 2u);
}

TEST(ErrorTest, NormalQuantiles) {
  EXPECT_NEAR(NormalQuantileTwoSided(0.95), 1.959964, 1e-4);
  EXPECT_NEAR(NormalQuantileTwoSided(0.99), 2.575829, 1e-4);
  EXPECT_NEAR(NormalQuantileTwoSided(0.90), 1.644854, 1e-4);
}

TEST(ErrorTest, ConfidenceBounds) {
  ErrorStats e;
  e.rmse = 10.0;
  e.stddev = 2.0;
  e.num_folds = 4;
  const double ub = e.UpperConfidenceBound(0.95);
  const double lb = e.LowerConfidenceBound(0.95);
  EXPECT_NEAR(ub, 10.0 + 1.959964 * 2.0 / 2.0, 1e-3);
  EXPECT_NEAR(lb, 10.0 - 1.959964 * 2.0 / 2.0, 1e-3);
  // Degenerate spread: bound equals the estimate.
  e.stddev = 0.0;
  EXPECT_DOUBLE_EQ(e.UpperConfidenceBound(0.99), 10.0);
}

TEST(ErrorTest, TrainingErrorApproximatesNoiseLevel) {
  Dataset d = MakeNoisyLinear(2000, 2.0, 13);
  auto err = TrainingSetError(d);
  ASSERT_TRUE(err.ok());
  EXPECT_NEAR(err->rmse, 2.0, 0.15);
}

TEST(ErrorTest, CrossValidationApproximatesNoiseLevel) {
  Dataset d = MakeNoisyLinear(1000, 2.0, 17);
  Rng rng(1);
  auto err = CrossValidationError(d, 10, &rng);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->num_folds, 10);
  EXPECT_NEAR(err->rmse, 2.0, 0.25);
  EXPECT_GT(err->stddev, 0.0);
}

TEST(ErrorTest, TrainingAndCvAgreeForLinearModels) {
  // §7.1 Fig. 7(c): for simple linear models, training-set error tracks
  // cross-validation error closely.
  Dataset d = MakeNoisyLinear(800, 1.5, 23);
  Rng rng(2);
  auto cv = CrossValidationError(d, 10, &rng);
  auto tr = TrainingSetError(d);
  ASSERT_TRUE(cv.ok());
  ASSERT_TRUE(tr.ok());
  EXPECT_NEAR(cv->rmse, tr->rmse, 0.1 * tr->rmse);
}

TEST(ErrorTest, CvIsDeterministicGivenSeed) {
  Dataset d = MakeNoisyLinear(300, 1.0, 29);
  Rng r1(7), r2(7);
  auto a = CrossValidationError(d, 10, &r1);
  auto b = CrossValidationError(d, 10, &r2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->rmse, b->rmse);
}

TEST(ErrorTest, CvRejectsTinyInputs) {
  Dataset d(1);
  d.Add({1.0}, 1.0);
  Rng rng(1);
  EXPECT_FALSE(CrossValidationError(d, 10, &rng).ok());
}

}  // namespace
}  // namespace bellwether::regression
