// MatrixMarket I/O round-trips.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>

#include "linalg/matrix_market.hpp"
#include "physics/stokes_fo_problem.hpp"

using namespace mali;
using namespace mali::linalg;

namespace {

std::string tmp(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

CrsMatrix small_matrix() {
  CrsMatrix A({0, 2, 4, 5}, {0, 2, 0, 1, 2});
  A.set(0, 0, 4.0);
  A.set(0, 2, -1.5);
  A.set(1, 0, 2.25);
  A.set(1, 1, 3.0);
  A.set(2, 2, 1.0e-12);
  return A;
}

}  // namespace

TEST(MatrixMarket, MatrixRoundTrip) {
  const auto A = small_matrix();
  const auto path = tmp("a.mtx");
  write_matrix_market(path, A);
  const auto B = read_matrix_market(path);
  ASSERT_EQ(B.n_rows(), A.n_rows());
  ASSERT_EQ(B.nnz(), A.nnz());
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(B.get(r, c), A.get(r, c)) << r << "," << c;
    }
  }
  std::remove(path.c_str());
}

TEST(MatrixMarket, VectorRoundTrip) {
  const std::vector<double> v = {1.0, -2.5, 3.25e-7, 0.0, 9.9e11};
  const auto path = tmp("v.mtx");
  write_matrix_market(path, v);
  const auto w = read_matrix_market_vector(path);
  ASSERT_EQ(w.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_DOUBLE_EQ(w[i], v[i]);
  std::remove(path.c_str());
}

TEST(MatrixMarket, DuplicateEntriesAreSummed) {
  const auto path = tmp("dup.mtx");
  {
    std::ofstream os(path);
    os << "%%MatrixMarket matrix coordinate real general\n";
    os << "2 2 3\n";
    os << "1 1 2.0\n1 1 3.0\n2 2 1.0\n";
  }
  const auto A = read_matrix_market(path);
  EXPECT_DOUBLE_EQ(A.get(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(A.get(1, 1), 1.0);
  EXPECT_EQ(A.nnz(), 2u);
  std::remove(path.c_str());
}

TEST(MatrixMarket, RejectsNonMatrixFiles) {
  const auto path = tmp("bad.mtx");
  {
    std::ofstream os(path);
    os << "not a matrix\n1 1 1\n";
  }
  EXPECT_THROW(read_matrix_market(path), mali::Error);
  std::remove(path.c_str());
  EXPECT_THROW(read_matrix_market(tmp("missing.mtx")), mali::Error);
}

TEST(MatrixMarket, IceJacobianRoundTripPreservesSpMV) {
  physics::StokesFOConfig cfg;
  cfg.dx_m = 300.0e3;
  cfg.n_layers = 3;
  physics::StokesFOProblem p(cfg);
  const auto U = p.analytic_initial_guess();
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);

  const auto path = tmp("jac.mtx");
  write_matrix_market(path, J);
  const auto J2 = read_matrix_market(path);
  std::remove(path.c_str());

  std::mt19937 rng(4);
  std::uniform_real_distribution<double> d(-1, 1);
  std::vector<double> x(J.n_rows());
  for (auto& v : x) v = d(rng);
  std::vector<double> y1, y2;
  J.apply(x, y1);
  J2.apply(x, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(y2[i], y1[i], 1e-9 * std::max(1.0, std::abs(y1[i])));
  }
}
