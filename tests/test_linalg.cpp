// Linear-algebra substrate tests: CRS matrix ops, vector helpers, GMRES on
// manufactured systems, and the pointwise preconditioners; the node-paired
// graph against a block-1 graph of the same pattern and values.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <type_traits>

#include "linalg/crs_matrix.hpp"
#include "linalg/gmres.hpp"
#include "linalg/matrix_market.hpp"
#include "linalg/operator_probing.hpp"
#include "linalg/preconditioner.hpp"
#include "physics/stokes_fo_problem.hpp"

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

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A's values on a new block-1 graph of the same scalar pattern.
CrsMatrix on_scalar_graph(const CrsMatrix& A) {
  CrsMatrix B(A.graph()->scalar_row_ptr(), A.graph()->scalar_cols());
  B.values() = A.values();
  return B;
}

/// The 48 km / 10-layer assembled Jacobian at the analytic initial guess
/// (on the FE graph) and the same values on the structural lattice graph,
/// zero where the FE graph has no entry: both graphs are node-paired.
struct PairedMatrices {
  CrsMatrix fe, lattice;
};

const PairedMatrices& paired_48km() {
  static const PairedMatrices m = [] {
    mali::physics::StokesFOConfig cfg;
    cfg.dx_m = 48.0e3;
    cfg.n_layers = 10;
    mali::physics::StokesFOProblem problem(cfg);
    std::vector<double> F;
    PairedMatrices out{problem.create_matrix(), {}};
    problem.residual_and_jacobian(problem.analytic_initial_guess(), F,
                                  out.fe);
    out.lattice = StructuredProbing(problem.extrusion_info()).structure();
    for (std::size_t r = 0; r < out.fe.n_rows(); ++r) {
      out.fe.graph()->for_row(r, [&](std::size_t k, std::size_t c) {
        out.lattice.set(r, c, out.fe.values()[k]);
      });
    }
    return out;
  }();
  return m;
}

std::string file_text(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
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

TEST(CrsMatrix, ApplyOverwritesStaleOutputOfAnySize) {
  // apply() sizes y itself and writes every row: whatever y held before
  // (longer, shorter, NaN) must not leak into the product.
  const CrsMatrix A = laplacian_1d(6);
  const std::vector<double> x = {1, -2, 3, 0.5, 4, -1};
  std::vector<double> ref;
  A.apply(x, ref);
  ASSERT_EQ(ref.size(), 6u);
  for (const std::size_t n0 : {0u, 3u, 6u, 11u}) {
    std::vector<double> y(n0, std::numeric_limits<double>::quiet_NaN());
    A.apply(x, y);
    ASSERT_EQ(y.size(), 6u) << "stale size " << n0;
    for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(y[i], ref[i]) << i;
  }
}

TEST(CrsMatrix, ApplyWritesZeroOnRowsWithoutEntries) {
  // Rows 1 and 3 hold no entries; their products are exactly +0.
  CrsMatrix A({0, 2, 2, 3, 3}, {0, 3, 2});
  ASSERT_EQ(A.n_rows(), 4u);
  A.set(0, 0, 2.0);
  A.set(0, 3, -1.0);
  A.set(2, 2, 5.0);
  std::vector<double> y(4, std::numeric_limits<double>::quiet_NaN());
  A.apply({1, 2, 3, 4}, y);
  EXPECT_EQ(y[0], -2.0);
  EXPECT_EQ(y[1], 0.0);
  EXPECT_FALSE(std::signbit(y[1]));
  EXPECT_EQ(y[2], 15.0);
  EXPECT_EQ(y[3], 0.0);
  EXPECT_FALSE(std::signbit(y[3]));
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
  EXPECT_THROW(A.set(2, 4, 1.0), mali::Error);
  EXPECT_THROW(A.add(5, 0, 1.0), mali::Error);  // row out of range
  EXPECT_EQ(A.get(2, 2), 2.0);  // nothing was written
}

TEST(CrsMatrix, SlotIndexesTheEntryAddWrites) {
  // The scatter's slot tables write values()[slot(r, c)] in place of
  // add(r, c, v); both must reach the same entry, and slot() must throw
  // where add() does.
  CrsMatrix A = laplacian_1d(5);
  const auto rp = A.graph()->scalar_row_ptr();
  const auto cols = A.graph()->scalar_cols();
  for (std::size_t r = 0; r < A.n_rows(); ++r) {
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      const std::size_t c = cols[k];
      EXPECT_EQ(A.slot(r, c), k) << r << ", " << c;
      const double before = A.values()[k];
      A.add(r, c, 0.5);
      EXPECT_EQ(A.values()[k], before + 0.5) << r << ", " << c;
    }
  }
  EXPECT_THROW((void)A.slot(0, 4), mali::Error);
  EXPECT_THROW((void)A.slot(5, 0), mali::Error);
}

TEST(CrsMatrix, SetZeroAndDiagonal) {
  CrsMatrix A = laplacian_1d(4);
  EXPECT_EQ(A.diagonal(1), 2.0);
  A.set_zero();
  EXPECT_EQ(A.diagonal(1), 0.0);
  EXPECT_EQ(A.nnz(), 10u);  // graph unchanged
}

TEST(CrsMatrix, CopySharesTheGraphAndCopiesTheValues) {
  const CrsMatrix A = laplacian_1d(4);
  CrsMatrix B = A;
  EXPECT_EQ(B.graph(), A.graph());
  B.set(1, 1, 9.0);
  B.add(1, 2, 3.0);
  EXPECT_EQ(A.get(1, 1), 2.0);
  EXPECT_EQ(A.get(1, 2), -1.0);
  EXPECT_EQ(B.get(1, 2), 2.0);
  // Equal arrays make a new graph.
  EXPECT_NE(CrsMatrix(A.graph()->scalar_row_ptr(), A.graph()->scalar_cols())
                .graph(),
            A.graph());
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
      default: return std::make_unique<SymGaussSeidelPreconditioner>();
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
                         ::testing::Combine(::testing::Values(0, 1, 2),
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

// ---------------------------------------------------------------------------
// Node-paired graph: the same values on a paired graph and on a block-1
// graph of the same pattern index and multiply identically.
// ---------------------------------------------------------------------------

TEST(PairedGraph, LibraryGraphsArePairedWith32BitColumns) {
  static_assert(std::is_same_v<decltype(CrsGraph::bcols),
                               std::vector<std::uint32_t>>);
  static_assert(std::is_same_v<decltype(CrsGraph::brp),
                               std::vector<std::uint32_t>>);
  const auto& m = paired_48km();
  EXPECT_EQ(m.fe.graph()->block, 2);
  EXPECT_EQ(m.lattice.graph()->block, 2);
  EXPECT_EQ(m.fe.nnz(), 4 * m.fe.graph()->bcols.size());
  EXPECT_EQ(m.fe.n_rows(), 2 * m.fe.graph()->n_node_rows());
  EXPECT_EQ(on_scalar_graph(m.fe).graph()->block, 1);
}

TEST(PairedGraph, FeGraphStoresAtMost9Point1BytesPerEntry) {
  // 8 B per value plus 4 B per 2x2 block and 4 B per node row.
  const CrsMatrix& J = paired_48km().fe;
  const CrsGraph& g = *J.graph();
  const double bytes =
      static_cast<double>(J.values().size() * sizeof(double) +
                          g.bcols.size() * sizeof(std::uint32_t) +
                          g.brp.size() * sizeof(std::uint32_t));
  EXPECT_LE(bytes / static_cast<double>(J.nnz()), 9.1);
}

TEST(PairedGraph, SlotsAndWritesAddressTheScalarGraphsValueIndices) {
  const CrsMatrix& J = paired_48km().fe;
  const CrsMatrix S = on_scalar_graph(J);
  const auto rp = S.graph()->scalar_row_ptr();
  const auto cols = S.graph()->scalar_cols();
  EXPECT_EQ(rp, J.graph()->scalar_row_ptr());
  EXPECT_EQ(cols, J.graph()->scalar_cols());
  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < J.n_rows(); ++r) {
    EXPECT_EQ(J.graph()->row_begin(r), rp[r]);
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      mismatches += J.slot(r, cols[k]) != k || S.slot(r, cols[k]) != k;
    }
  }
  EXPECT_EQ(mismatches, 0u);

  // The same writes leave the same value arrays.
  CrsMatrix Jw = J, Sw = S;
  for (CrsMatrix* A : {&Jw, &Sw}) {
    for (std::size_t r = 1; r < A->n_rows(); r += 97) {
      A->add(r, r, 0.25 * static_cast<double>(r));
      A->set(r, r ^ 1, -1.5);  // the node's other component
      EXPECT_EQ(A->get(r, r ^ 1), -1.5);
    }
    A->set_identity_row(2);
    A->set_identity_row(A->n_rows() - 1);
  }
  EXPECT_TRUE(bitwise_equal(Jw.values(), Sw.values()));

  // Outside the graph: writes throw, reads give 0, nothing is written.
  const std::size_t far = J.n_rows() - 1;
  ASSERT_EQ(J.graph()->find(0, far), CrsMatrix::npos);
  EXPECT_THROW(Jw.add(0, far, 1.0), mali::Error);
  EXPECT_THROW(Jw.set(1, far, 1.0), mali::Error);
  EXPECT_THROW((void)Jw.slot(0, far), mali::Error);
  EXPECT_THROW(Jw.add(J.n_rows(), 0, 1.0), mali::Error);
  EXPECT_EQ(Jw.get(0, far), 0.0);
  EXPECT_TRUE(bitwise_equal(Jw.values(), Sw.values()));
}

TEST(PairedGraph, ApplySmoothersAndMatrixMarketMatchTheScalarGraph) {
  const auto& m = paired_48km();
  for (const CrsMatrix* P : {&m.fe, &m.lattice}) {
    const CrsMatrix S = on_scalar_graph(*P);
    const auto x = random_vec(P->n_rows(), 7);
    std::vector<double> yp, ys;
    P->apply(x, yp);
    S.apply(x, ys);
    EXPECT_TRUE(bitwise_equal(yp, ys));

    SymGaussSeidelPreconditioner sgs_p(2), sgs_s(2);
    sgs_p.compute(*P);
    sgs_s.compute(S);
    sgs_p.apply(x, yp);
    sgs_s.apply(x, ys);
    EXPECT_TRUE(bitwise_equal(yp, ys));

    JacobiPreconditioner jac_p, jac_s;
    jac_p.compute(*P);
    jac_s.compute(S);
    jac_p.apply(x, yp);
    jac_s.apply(x, ys);
    EXPECT_TRUE(bitwise_equal(yp, ys));

    const std::string dir = ::testing::TempDir();
    write_matrix_market(dir + "paired.mtx", *P);
    write_matrix_market(dir + "scalar.mtx", S);
    const std::string text = file_text(dir + "paired.mtx");
    EXPECT_GT(text.size(), P->nnz());
    EXPECT_EQ(text, file_text(dir + "scalar.mtx"));
  }
}

TEST(PairedGraph, ScalarPatternsOfOddSizeBuildAtBlockOneAndSolve) {
  const CrsMatrix A = laplacian_1d(7);
  EXPECT_EQ(A.graph()->block, 1);
  EXPECT_EQ(A.n_rows(), 7u);
  EXPECT_EQ(A.nnz(), 19u);
  const auto b = random_vec(7, 3);
  SymGaussSeidelPreconditioner sgs(1);
  sgs.compute(A);
  std::vector<double> x;
  GmresConfig cfg;
  cfg.rel_tol = 1e-12;
  const auto res = Gmres(cfg).solve(A, sgs, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residual_norm(A, x, b), 1e-10);
}
