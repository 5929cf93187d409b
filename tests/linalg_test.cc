#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "linalg/matrix.h"

namespace bellwether::linalg {
namespace {

// A * x, for checking residuals.
Vector Apply(const Matrix& a, const Vector& x) {
  Vector out(a.rows(), 0.0);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) out[r] += a(r, c) * x[c];
  }
  return out;
}

TEST(MatrixTest, FromRowsAndAccess) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
}

TEST(MatrixTest, PlusEqualsAndScale) {
  Matrix a = Matrix::FromRows({{1, 1}, {1, 1}});
  Matrix b = Matrix::FromRows({{2, 0}, {0, 2}});
  a += b;
  a *= 0.5;
  EXPECT_DOUBLE_EQ(a(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.5);
}

TEST(MatrixTest, Dot) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
}

TEST(SolveTest, SolveSpdKnownSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5].
  Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  auto x = SolveSpd(a, {10, 8});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.75, 1e-12);
  EXPECT_NEAR((*x)[1], 1.5, 1e-12);
}

TEST(SolveTest, SolveSpdRidgeFallbackOnSingular) {
  // Rank-deficient PSD matrix: the ridge fallback should still produce a
  // finite solution with a small residual on the range of A.
  Matrix a = Matrix::FromRows({{1, 1}, {1, 1}});
  auto x = SolveSpd(a, {2, 2});
  ASSERT_TRUE(x.ok());
  const Vector r = Apply(a, *x);
  EXPECT_NEAR(r[0], 2.0, 1e-3);
  EXPECT_NEAR(r[1], 2.0, 1e-3);
}

TEST(SolveTest, SolveSpdShapeMismatch) {
  Matrix a = Matrix::FromRows({{1, 0}, {0, 1}});
  EXPECT_FALSE(SolveSpd(a, {1.0}).ok());
}

// Property: SolveSpd solves random SPD systems (A = B'B + I) to high
// accuracy, across sizes.
class SolveSpdPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SolveSpdPropertyTest, RandomSpdSystemsSolve) {
  const int n = GetParam();
  Rng rng(1000 + n);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix b(n, n);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) b(r, c) = rng.NextGaussian();
    }
    Matrix a(n, n);  // B'B + I
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) {
        for (int k = 0; k < n; ++k) a(r, c) += b(k, r) * b(k, c);
      }
      a(r, r) += 1.0;
    }
    Vector rhs(n);
    for (auto& v : rhs) v = rng.NextGaussian();
    auto x = SolveSpd(a, rhs);
    ASSERT_TRUE(x.ok());
    const Vector back = Apply(a, *x);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(back[i], rhs[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveSpdPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace bellwether::linalg
