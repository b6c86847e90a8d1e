// Dense linear-algebra tests: LU solves against known systems, determinant,
// inverse, singularity detection, and agreement with random references.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/dense.hpp"
#include "linalg/gmres.hpp"

using namespace mali::linalg;

TEST(DenseMatrix, IndexingAndApply) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(0, 2) = 3.0;
  a(1, 0) = 4.0;
  a(1, 1) = 5.0;
  a(1, 2) = 6.0;
  const auto y = a.apply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  EXPECT_NEAR(a.frobenius_norm(), std::sqrt(91.0), 1e-14);
}

TEST(DenseLu, SolvesKnownSystem) {
  DenseMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  DenseLu lu(std::move(a));
  std::vector<double> x = {5.0, 10.0};  // b
  lu.solve(x);
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
  EXPECT_NEAR(lu.determinant(), 5.0, 1e-14);
}

TEST(DenseLu, PivotingHandlesZeroLeadingEntry) {
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  DenseLu lu(std::move(a));
  std::vector<double> x = {2.0, 3.0};
  lu.solve(x);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_NEAR(lu.determinant(), -1.0, 1e-14);  // permutation parity
}

TEST(DenseLu, SingularThrows) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  DenseLu lu;
  EXPECT_THROW(lu.factor(std::move(a)), mali::Error);
}

TEST(DenseLu, NonSquareThrows) {
  DenseLu lu;
  EXPECT_THROW(lu.factor(DenseMatrix(2, 3)), mali::Error);
}

TEST(DenseLu, UseBeforeFactorThrows) {
  DenseLu lu;
  std::vector<double> x = {1.0};
  EXPECT_THROW(lu.solve(x), mali::Error);
  EXPECT_THROW((void)lu.determinant(), mali::Error);
  EXPECT_THROW((void)lu.inverse(), mali::Error);
}

class DenseLuFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(DenseLuFuzz, RandomSolveAndInverse) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  const std::size_t n = 12;
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        a(i, j) = uni(rng);
        off += std::abs(a(i, j));
      }
    }
    a(i, i) = off + 0.5;  // well-conditioned
  }
  DenseMatrix copy = a;
  DenseLu lu(std::move(copy));

  // Solve: A x = b, check residual.
  std::vector<double> b(n), x;
  for (auto& v : b) v = uni(rng);
  x = b;
  lu.solve(x);
  const auto r = a.apply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r[i], b[i], 1e-10);

  // Inverse: A * A^{-1} = I.
  const auto inv = lu.inverse();
  for (std::size_t c = 0; c < n; ++c) {
    std::vector<double> e(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) e[k] = inv(k, c);
    const auto col = a.apply(e);
    for (std::size_t r2 = 0; r2 < n; ++r2) {
      EXPECT_NEAR(col[r2], r2 == c ? 1.0 : 0.0, 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseLuFuzz, ::testing::Values(1u, 2u, 3u));

TEST(GmresHistory, MonotoneEstimatesRecorded) {
  // The per-iteration least-squares residual estimate is non-increasing.
  std::vector<std::size_t> rp{0}, cols;
  const std::size_t n = 40;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) cols.push_back(i - 1);
    cols.push_back(i);
    if (i + 1 < n) cols.push_back(i + 1);
    rp.push_back(cols.size());
  }
  CrsMatrix A(rp, cols);
  for (std::size_t i = 0; i < n; ++i) {
    A.set(i, i, 2.5);
    if (i > 0) A.set(i, i - 1, -1.0);
    if (i + 1 < n) A.set(i, i + 1, -1.0);
  }
  IdentityPreconditioner M;
  std::vector<double> b(n, 1.0), x;
  const auto r = Gmres({1e-10, 500, 100}).solve(A, M, b, x);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.history.size(), r.iterations);
  for (std::size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_LE(r.history[i], r.history[i - 1] * (1.0 + 1e-12));
  }
  EXPECT_LT(r.history.back(), 1e-10);
}
