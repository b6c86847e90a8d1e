// Linear-algebra substrate tests: CRS matrix ops, vector helpers, GMRES on
// manufactured systems, and the pointwise preconditioners.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/chebyshev.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/gmres.hpp"
#include "linalg/preconditioner.hpp"

using namespace mali::linalg;

namespace {

/// Dense -> CRS (keeping explicit zeros off the graph).
CrsMatrix from_dense(const std::vector<std::vector<double>>& d) {
  const std::size_t n = d.size();
  std::vector<std::size_t> rp{0}, cols;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (d[i][j] != 0.0) cols.push_back(j);
    }
    rp.push_back(cols.size());
  }
  CrsMatrix A(rp, cols);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (d[i][j] != 0.0) A.set(i, j, d[i][j]);
    }
  }
  return A;
}

/// 1D Laplacian (tridiagonal), SPD.
CrsMatrix laplacian_1d(std::size_t n) {
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    d[i][i] = 2.0;
    if (i > 0) d[i][i - 1] = -1.0;
    if (i + 1 < n) d[i][i + 1] = -1.0;
  }
  return from_dense(d);
}

/// Nonsymmetric convection-diffusion-like matrix.
CrsMatrix convdiff_1d(std::size_t n, double c) {
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    d[i][i] = 2.0 + 0.1;
    if (i > 0) d[i][i - 1] = -1.0 - c;
    if (i + 1 < n) d[i][i + 1] = -1.0 + c;
  }
  return from_dense(d);
}

std::vector<double> random_vec(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

double residual_norm(const CrsMatrix& A, const std::vector<double>& x,
                     const std::vector<double>& b) {
  std::vector<double> r;
  A.apply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return norm2(r);
}

}  // namespace

TEST(CrsMatrix, ApplyMatchesDense) {
  std::vector<std::vector<double>> d = {
      {4, -1, 0, 0}, {-1, 4, -1, 0}, {0, -1, 4, -1}, {0, 0, -1, 4}};
  const CrsMatrix A = from_dense(d);
  EXPECT_EQ(A.n_rows(), 4u);
  EXPECT_EQ(A.nnz(), 10u);
  const std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y;
  A.apply(x, y);
  for (std::size_t i = 0; i < 4; ++i) {
    double e = 0;
    for (std::size_t j = 0; j < 4; ++j) e += d[i][j] * x[j];
    EXPECT_NEAR(y[i], e, 1e-14);
  }
}

TEST(CrsMatrix, AddSetGetAndIdentityRow) {
  CrsMatrix A = laplacian_1d(5);
  A.add(2, 1, -0.5);
  EXPECT_NEAR(A.get(2, 1), -1.5, 1e-15);
  A.set(2, 1, 7.0);
  EXPECT_NEAR(A.get(2, 1), 7.0, 1e-15);
  EXPECT_EQ(A.get(0, 4), 0.0);  // off-graph
  A.set_identity_row(2);
  EXPECT_EQ(A.get(2, 1), 0.0);
  EXPECT_EQ(A.get(2, 2), 1.0);
  EXPECT_EQ(A.get(2, 3), 0.0);
}

TEST(CrsMatrix, WritesOutsideTheGraphThrow) {
  // A write to an entry the graph lacks is a caller bug; it must throw in
  // every build type rather than store out of bounds.
  CrsMatrix A = laplacian_1d(5);
  EXPECT_THROW(A.add(0, 4, 1.0), mali::Error);
  EXPECT_THROW(A.add_atomic(4, 0, 1.0), mali::Error);
  EXPECT_THROW(A.set(2, 4, 1.0), mali::Error);
  EXPECT_THROW(A.add(5, 0, 1.0), mali::Error);  // row out of range
  EXPECT_EQ(A.get(2, 2), 2.0);  // nothing was written
}

TEST(CrsMatrix, SetZeroAndDiagonal) {
  CrsMatrix A = laplacian_1d(4);
  EXPECT_EQ(A.diagonal(1), 2.0);
  A.set_zero();
  EXPECT_EQ(A.diagonal(1), 0.0);
  EXPECT_EQ(A.nnz(), 10u);  // graph unchanged
}

TEST(VectorOps, DotNormAxpyScale) {
  std::vector<double> a = {1, 2, 3}, b = {4, -5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(norm2(a), std::sqrt(14.0));
  axpy(2.0, a, b);  // b += 2a
  EXPECT_DOUBLE_EQ(b[0], 6.0);
  EXPECT_DOUBLE_EQ(b[1], -1.0);
  EXPECT_DOUBLE_EQ(b[2], 12.0);
  scale(0.5, b);
  EXPECT_DOUBLE_EQ(b[2], 6.0);
}

TEST(Gmres, SolvesIdentityInOneIteration) {
  auto A = from_dense({{1, 0}, {0, 1}});
  IdentityPreconditioner M;
  std::vector<double> b = {3.0, -4.0}, x;
  const auto r = Gmres({1e-12, 10, 10}).solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 1u);
  EXPECT_NEAR(x[0], 3.0, 1e-10);
  EXPECT_NEAR(x[1], -4.0, 1e-10);
}

TEST(Gmres, ZeroRhsGivesZeroSolution) {
  auto A = laplacian_1d(6);
  IdentityPreconditioner M;
  std::vector<double> b(6, 0.0), x(6, 1.0);
  const auto r = Gmres().solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  for (double v : x) EXPECT_EQ(v, 0.0);
}

class GmresPreconditioners : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  std::unique_ptr<Preconditioner> make(int which) {
    switch (which) {
      case 0: return std::make_unique<IdentityPreconditioner>();
      case 1: return std::make_unique<JacobiPreconditioner>();
      case 2: return std::make_unique<SymGaussSeidelPreconditioner>();
      default: return std::make_unique<ChebyshevSmoother>();
    }
  }
};

TEST_P(GmresPreconditioners, SolvesSpdSystem) {
  const auto [which, size] = GetParam();
  auto A = laplacian_1d(static_cast<std::size_t>(size));
  auto M = make(which);
  M->compute(A);
  const auto b = random_vec(static_cast<std::size_t>(size), 42);
  std::vector<double> x;
  GmresConfig cfg;
  cfg.rel_tol = 1e-10;
  cfg.max_iters = 500;
  const auto r = Gmres(cfg).solve(A, *M, b, x);
  EXPECT_TRUE(r.converged) << "precond " << M->name();
  EXPECT_LT(residual_norm(A, x, b) / norm2(b), 1e-9);
}

TEST_P(GmresPreconditioners, SolvesNonsymmetricSystem) {
  const auto [which, size] = GetParam();
  auto A = convdiff_1d(static_cast<std::size_t>(size), 0.4);
  auto M = make(which);
  M->compute(A);
  const auto b = random_vec(static_cast<std::size_t>(size), 7);
  std::vector<double> x;
  GmresConfig cfg;
  cfg.rel_tol = 1e-10;
  cfg.max_iters = 500;
  const auto r = Gmres(cfg).solve(A, *M, b, x);
  EXPECT_TRUE(r.converged) << "precond " << M->name();
  EXPECT_LT(residual_norm(A, x, b) / norm2(b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(All, GmresPreconditioners,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(5, 32, 101)));

TEST(Gmres, RestartStillConverges) {
  auto A = laplacian_1d(64);
  IdentityPreconditioner M;
  const auto b = random_vec(64, 3);
  std::vector<double> x;
  GmresConfig cfg;
  cfg.restart = 5;  // force many restarts
  cfg.max_iters = 5000;
  cfg.rel_tol = 1e-8;
  const auto r = Gmres(cfg).solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(residual_norm(A, x, b) / norm2(b), 1e-7);
}

TEST(Gmres, PreconditioningReducesIterations) {
  auto A = laplacian_1d(200);
  const auto b = random_vec(200, 9);
  GmresConfig cfg;
  cfg.rel_tol = 1e-8;
  cfg.max_iters = 2000;
  cfg.restart = 200;

  IdentityPreconditioner none;
  std::vector<double> x0;
  const auto r0 = Gmres(cfg).solve(A, none, b, x0);

  SymGaussSeidelPreconditioner sgs;
  sgs.compute(A);
  std::vector<double> x1;
  const auto r1 = Gmres(cfg).solve(A, sgs, b, x1);

  EXPECT_TRUE(r0.converged);
  EXPECT_TRUE(r1.converged);
  EXPECT_LT(r1.iterations, r0.iterations / 2)
      << "SGS should cut iterations substantially on the 1D Laplacian";
}

TEST(Jacobi, ZeroDiagonalThrows) {
  auto A = from_dense({{0.0, 1.0}, {1.0, 2.0}});
  JacobiPreconditioner M;
  EXPECT_THROW(M.compute(A), mali::Error);
}

TEST(Jacobi, ApplyDividesByDiagonal) {
  auto A = from_dense({{2.0, 0.0}, {0.0, 4.0}});
  JacobiPreconditioner M;
  M.compute(A);
  std::vector<double> z;
  M.apply({2.0, 2.0}, z);
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], 0.5);
}

TEST(SymGaussSeidel, ImprovesOverJacobiOnLaplacian) {
  auto A = laplacian_1d(50);
  const auto b = random_vec(50, 13);
  JacobiPreconditioner jac;
  jac.compute(A);
  SymGaussSeidelPreconditioner sgs(1);
  sgs.compute(A);
  std::vector<double> zj, zs;
  jac.apply(b, zj);
  sgs.apply(b, zs);
  EXPECT_LT(residual_norm(A, zs, b), residual_norm(A, zj, b));
}
