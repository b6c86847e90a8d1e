// Tests for conjugate gradients, the 2x2 block-Jacobi preconditioner, the
// pipelined-vs-classic equivalence battery, and cross-preconditioner
// agreement on the real ice-sheet Jacobian.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <utility>

#include "linalg/block_jacobi.hpp"
#include "linalg/dense.hpp"
#include "linalg/gmres.hpp"
#include "linalg/krylov.hpp"
#include "linalg/pipelined_krylov.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "physics/stokes_fo_problem.hpp"

using namespace mali::linalg;

namespace {

CrsMatrix spd_laplacian(std::size_t n) {
  std::vector<std::size_t> rp{0}, cols;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) cols.push_back(i - 1);
    cols.push_back(i);
    if (i + 1 < n) cols.push_back(i + 1);
    rp.push_back(cols.size());
  }
  CrsMatrix A(rp, cols);
  for (std::size_t i = 0; i < n; ++i) {
    A.set(i, i, 2.1);
    if (i > 0) A.set(i, i - 1, -1.0);
    if (i + 1 < n) A.set(i, i + 1, -1.0);
  }
  return A;
}

std::vector<double> rand_vec(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1, 1);
  std::vector<double> v(n);
  for (auto& x : v) x = d(rng);
  return v;
}

double rel_res(const CrsMatrix& A, const std::vector<double>& x,
               const std::vector<double>& b) {
  std::vector<double> r;
  A.apply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return norm2(r) / norm2(b);
}

/// A nonsymmetric convection-skew tridiagonal.
CrsMatrix convection_matrix(std::size_t n) {
  std::vector<std::size_t> rp{0}, cols;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) cols.push_back(i - 1);
    cols.push_back(i);
    if (i + 1 < n) cols.push_back(i + 1);
    rp.push_back(cols.size());
  }
  CrsMatrix A(rp, cols);
  for (std::size_t i = 0; i < n; ++i) {
    A.set(i, i, 2.4);
    if (i > 0) A.set(i, i - 1, -1.4);
    if (i + 1 < n) A.set(i, i + 1, -0.6);
  }
  return A;
}

/// Exact preconditioner: M^{-1} = A^{-1} via a dense LU of A.  The
/// pipelined-vs-classic GMRES checks on the convection system rely on it:
/// under an inexact one (SGS, Jacobi) PIPE-GMRES currently loses iteration
/// parity or runs an extra true-residual confirm cycle.
class ExactLuPreconditioner final : public Preconditioner {
 public:
  using Preconditioner::compute;
  void compute(const CrsMatrix& A) override {
    DenseMatrix d(A.n_rows(), A.n_rows());
    for (std::size_t i = 0; i < A.n_rows(); ++i) {
      for (std::size_t k = A.row_ptr()[i]; k < A.row_ptr()[i + 1]; ++k) {
        d(i, A.cols()[k]) = A.values()[k];
      }
    }
    lu_.factor(std::move(d));
  }
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override {
    z = r;
    lu_.solve(z);
  }
  [[nodiscard]] const char* name() const override { return "exact-lu"; }

 private:
  DenseLu lu_;
};

/// Serial inner product that counts its reductions — the unit-level stand-in
/// for the distributed communicator's collective counter.  One dot/norm is
/// one scalar reduction; one dot_batch (and one post/finish pair, which
/// routes through dot_batch) is ONE batched reduction regardless of width.
class CountingInnerProduct final : public InnerProduct {
 public:
  [[nodiscard]] double dot(const std::vector<double>& x,
                           const std::vector<double>& y) const override {
    ++scalar_reductions;
    return mali::linalg::dot(x, y);
  }
  void dot_batch(const std::vector<DotPair>& pairs,
                 std::vector<double>& out) const override {
    ++batched_reductions;
    out.resize(pairs.size());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      out[k] = mali::linalg::dot(*pairs[k].x, *pairs[k].y);
    }
  }
  mutable std::size_t scalar_reductions = 0;
  mutable std::size_t batched_reductions = 0;
};

}  // namespace

TEST(ConjugateGradient, SolvesSpdSystem) {
  auto A = spd_laplacian(200);
  JacobiPreconditioner M;
  M.compute(A);
  const auto b = rand_vec(200, 1);
  std::vector<double> x;
  const auto r = ConjugateGradient({1e-10, 2000}).solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(rel_res(A, x, b), 1e-9);
}

TEST(ConjugateGradient, ZeroRhs) {
  auto A = spd_laplacian(10);
  IdentityPreconditioner M;
  std::vector<double> b(10, 0.0), x(10, 3.0);
  const auto r = ConjugateGradient().solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  for (double v : x) EXPECT_EQ(v, 0.0);
}

TEST(ConjugateGradient, FiniteTerminationOnSmallSystem) {
  // Exact-arithmetic CG terminates in at most n iterations.
  auto A = spd_laplacian(12);
  IdentityPreconditioner M;
  const auto b = rand_vec(12, 3);
  std::vector<double> x;
  const auto r = ConjugateGradient({1e-12, 50}).solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 13u);
}

// An indefinite operator must NOT abort the run: the solver reports the
// breakdown (p^T A p <= 0) through the result and returns the true residual
// of whatever iterate it had.  (test_krylov_failures exercises the full
// failure-contract matrix.)
TEST(ConjugateGradient, ReportsBreakdownOnIndefiniteMatrix) {
  std::vector<std::size_t> rp{0, 1, 2}, cols{0, 1};
  CrsMatrix A(rp, cols);
  A.set(0, 0, 1.0);
  A.set(1, 1, -1.0);  // indefinite
  IdentityPreconditioner M;
  std::vector<double> b = {1.0, 1.0}, x;
  KrylovResult r;
  EXPECT_NO_THROW(r = ConjugateGradient().solve(A, M, b, x));
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  EXPECT_FALSE(r.reason.empty());
  // The reported residual is the true ||b - A x|| / ||b|| at exit.
  std::vector<double> Ax;
  A.apply(x, Ax);
  const double true_rel =
      std::hypot(b[0] - Ax[0], b[1] - Ax[1]) / std::hypot(b[0], b[1]);
  EXPECT_NEAR(r.rel_residual, true_rel, 1e-14);
}

TEST(BlockJacobi, InvertsBlockDiagonalExactly) {
  // A block-diagonal matrix is solved exactly in one application.
  const std::size_t nb = 20;
  std::vector<std::size_t> rp{0}, cols;
  for (std::size_t b = 0; b < nb; ++b) {
    for (int i = 0; i < 2; ++i) {
      cols.push_back(2 * b);
      cols.push_back(2 * b + 1);
      rp.push_back(cols.size());
    }
  }
  CrsMatrix A(rp, cols);
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> d(-1, 1);
  for (std::size_t b = 0; b < nb; ++b) {
    const double a11 = 3.0 + d(rng), a12 = d(rng), a21 = d(rng),
                 a22 = 3.0 + d(rng);
    A.set(2 * b, 2 * b, a11);
    A.set(2 * b, 2 * b + 1, a12);
    A.set(2 * b + 1, 2 * b, a21);
    A.set(2 * b + 1, 2 * b + 1, a22);
  }
  BlockJacobiPreconditioner M(2);
  M.compute(A);
  const auto bvec = rand_vec(2 * nb, 17);
  std::vector<double> z;
  M.apply(bvec, z);
  EXPECT_LT(rel_res(A, z, bvec), 1e-12);
}

TEST(BlockJacobi, RejectsMismatchedSize) {
  auto A = spd_laplacian(5);
  BlockJacobiPreconditioner M(2);
  EXPECT_THROW(M.compute(A), mali::Error);
}

TEST(BlockJacobi, BeatsPointJacobiOnVelocityJacobian) {
  mali::physics::StokesFOConfig cfg;
  cfg.dx_m = 250.0e3;
  cfg.n_layers = 4;
  mali::physics::StokesFOProblem p(cfg);
  const auto U = p.analytic_initial_guess();
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);

  GmresConfig gc;
  gc.rel_tol = 1e-6;
  gc.max_iters = 3000;
  gc.restart = 150;
  const Gmres gmres(gc);

  JacobiPreconditioner pj;
  pj.compute(J);
  std::vector<double> x1;
  const auto r1 = gmres.solve(J, pj, F, x1);

  BlockJacobiPreconditioner bj(2);
  bj.compute(J);
  std::vector<double> x2;
  const auto r2 = gmres.solve(J, bj, F, x2);

  EXPECT_TRUE(r2.converged);
  EXPECT_LE(r2.iterations, r1.iterations)
      << "2x2 nodal blocks capture the u-v coupling";
}

// ---------------------------------------------------------------------------
// Pipelined-vs-classic equivalence battery: the pipelined solvers are
// mathematically the same iterations (classical instead of modified
// Gram-Schmidt in GMRES; rearranged-but-equivalent recurrences in CG), so
// on the same matrices they must match the classic solvers to rounding —
// iteration parity within +/-2 and residual agreement <= 1e-10.
// ---------------------------------------------------------------------------

TEST(PipelinedKrylov, PipeCgMatchesClassicOnSpdSystem) {
  auto A = spd_laplacian(200);
  JacobiPreconditioner M;
  M.compute(A);
  const auto b = rand_vec(200, 1);
  const KrylovConfig kc{1e-10, 2000};
  std::vector<double> xc, xp;
  const auto rc = ConjugateGradient(kc).solve(A, M, b, xc);
  const auto rp = PipelinedCg(kc).solve(A, M, b, xp);
  ASSERT_TRUE(rc.converged);
  ASSERT_TRUE(rp.converged);
  EXPECT_NEAR(static_cast<double>(rc.iterations),
              static_cast<double>(rp.iterations), 2.0);
  EXPECT_LT(std::abs(rc.rel_residual - rp.rel_residual), 1e-10);
  EXPECT_LT(rel_res(A, xp, b), 1e-9);
  for (std::size_t i = 0; i < xc.size(); ++i) {
    EXPECT_NEAR(xc[i], xp[i], 1e-8);
  }
}

TEST(PipelinedKrylov, PipeGmresMatchesClassicOnConvectionSystem) {
  const std::size_t n = 150;
  auto A = convection_matrix(n);
  ExactLuPreconditioner M;
  M.compute(A);
  const auto b = rand_vec(n, 5);
  GmresConfig gc;
  gc.rel_tol = 1e-10;
  gc.max_iters = 2000;
  gc.restart = 100;
  std::vector<double> xc, xp;
  const auto rc = Gmres(gc).solve(A, M, b, xc);
  const auto rp = PipelinedGmres(gc).solve(A, M, b, xp);
  ASSERT_TRUE(rc.converged);
  ASSERT_TRUE(rp.converged);
  EXPECT_NEAR(static_cast<double>(rc.iterations),
              static_cast<double>(rp.iterations), 2.0);
  EXPECT_LT(std::abs(rc.rel_residual - rp.rel_residual), 1e-10);
  EXPECT_LT(rel_res(A, xp, b), 1e-9);
}

TEST(PipelinedKrylov, PipeGmresMatchesClassicOnIceJacobian) {
  mali::physics::StokesFOConfig cfg;
  cfg.dx_m = 250.0e3;
  cfg.n_layers = 4;
  mali::physics::StokesFOProblem p(cfg);
  const auto U = p.analytic_initial_guess();
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);

  SemicoarseningAmg amg(p.extrusion_info());
  amg.compute(J);

  GmresConfig gc;
  gc.rel_tol = 1e-10;
  gc.max_iters = 3000;
  gc.restart = 200;
  std::vector<double> xc, xp;
  const auto rc = Gmres(gc).solve(J, amg, F, xc);
  const auto rp = PipelinedGmres(gc).solve(J, amg, F, xp);
  ASSERT_TRUE(rc.converged);
  ASSERT_TRUE(rp.converged);
  EXPECT_NEAR(static_cast<double>(rc.iterations),
              static_cast<double>(rp.iterations), 2.0);
  EXPECT_LT(std::abs(rc.rel_residual - rp.rel_residual), 1e-10);
  double diff = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < xc.size(); ++i) {
    diff += (xc[i] - xp[i]) * (xc[i] - xp[i]);
    norm += xc[i] * xc[i];
  }
  EXPECT_LT(std::sqrt(diff / norm), 1e-6);
}

// The headline contract, pinned at the unit level with a counting inner
// product (the dist tests pin the same invariant against the communicator's
// collective counter): pipelined GMRES issues exactly ONE batched reduction
// per Arnoldi iteration, while the classic solver issues j+3 scalar
// reductions at step j.  Cycle constants: ||b||, the restart residual norm,
// and the true-residual confirm are scalar norms in both solvers.
TEST(PipelinedKrylov, OneFusedReductionPerGmresIteration) {
  const std::size_t n = 150;
  auto A = convection_matrix(n);
  ExactLuPreconditioner M;
  M.compute(A);
  const auto b = rand_vec(n, 5);
  GmresConfig gc;
  gc.rel_tol = 1e-10;
  gc.max_iters = 2000;
  gc.restart = 100;  // single cycle for the count formulas below

  CountingInnerProduct count;
  gc.inner = &count;
  std::vector<double> x;
  const auto rp = PipelinedGmres(gc).solve(A, M, b, x);
  ASSERT_TRUE(rp.converged);
  ASSERT_LE(rp.iterations, gc.restart);  // formulas assume one cycle
  EXPECT_EQ(count.batched_reductions, rp.iterations);
  EXPECT_EQ(count.scalar_reductions, 3u);  // ||b|| + cycle norm + confirm

  CountingInnerProduct count_classic;
  gc.inner = &count_classic;
  std::vector<double> xc;
  const auto rc = Gmres(gc).solve(A, M, b, xc);
  ASSERT_TRUE(rc.converged);
  ASSERT_LE(rc.iterations, gc.restart);
  EXPECT_EQ(count_classic.batched_reductions, 0u);
  // sum_{j=0}^{it-1} (j+3) per-iteration reductions + the 3 cycle norms.
  const std::size_t it = rc.iterations;
  EXPECT_EQ(count_classic.scalar_reductions, it * (it + 5) / 2 + 3);
}

TEST(PipelinedKrylov, OneFusedReductionPerCgIteration) {
  auto A = spd_laplacian(200);
  JacobiPreconditioner M;
  M.compute(A);
  const auto b = rand_vec(200, 1);
  KrylovConfig kc{1e-10, 2000};
  CountingInnerProduct count;
  kc.inner = &count;
  std::vector<double> x;
  const auto r = PipelinedCg(kc).solve(A, M, b, x);
  ASSERT_TRUE(r.converged);
  // One fused batch per update pass, plus the final pass that detects
  // convergence at the top of the loop before updating.
  EXPECT_EQ(count.batched_reductions, r.iterations + 1);
  EXPECT_EQ(count.scalar_reductions, 2u);  // ||b|| + true-residual confirm
}

TEST(CrossSolver, GmresAmgAndSgsAgreeOnIceJacobian) {
  // Two unrelated preconditioners must steer GMRES to the same solution of
  // the real ice-sheet Jacobian: agreement checks the AMG hierarchy is a
  // consistent preconditioner, not just one that makes GMRES stop.
  mali::physics::StokesFOConfig cfg;
  cfg.dx_m = 250.0e3;
  cfg.n_layers = 4;
  mali::physics::StokesFOProblem p(cfg);
  const auto U = p.analytic_initial_guess();
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);

  SemicoarseningAmg amg(p.extrusion_info());
  amg.compute(J);
  SymGaussSeidelPreconditioner sgs;
  sgs.compute(J);

  std::vector<double> xa, xs;
  const auto ra = Gmres({1e-10, 3000, 200}).solve(J, amg, F, xa);
  const auto rs = Gmres({1e-10, 3000, 200}).solve(J, sgs, F, xs);
  ASSERT_TRUE(ra.converged);
  ASSERT_TRUE(rs.converged);
  EXPECT_LT(ra.iterations, rs.iterations) << "AMG should beat one-level SGS";
  double diff = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < xa.size(); ++i) {
    diff += (xa[i] - xs[i]) * (xa[i] - xs[i]);
    norm += xa[i] * xa[i];
  }
  EXPECT_LT(std::sqrt(diff / norm), 1e-6);
}

TEST(CrossSolver, GmresAmgMatchesDirectSolveOnIceJacobian) {
  // The small ice Jacobian (690 dofs) is cheap to factor densely: one
  // application of the exact LU is the direct solve GMRES+AMG must match.
  mali::physics::StokesFOConfig cfg;
  cfg.dx_m = 250.0e3;
  cfg.n_layers = 4;
  mali::physics::StokesFOProblem p(cfg);
  const auto U = p.analytic_initial_guess();
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);

  ExactLuPreconditioner lu;
  lu.compute(J);
  std::vector<double> x_direct;
  lu.apply(F, x_direct);
  ASSERT_LT(rel_res(J, x_direct, F), 1e-10);

  SemicoarseningAmg amg(p.extrusion_info());
  amg.compute(J);
  std::vector<double> x;
  const auto r = Gmres({1e-10, 3000, 200}).solve(J, amg, F, x);
  ASSERT_TRUE(r.converged);
  double diff = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    diff += (x[i] - x_direct[i]) * (x[i] - x_direct[i]);
    norm += x_direct[i] * x_direct[i];
  }
  EXPECT_LT(std::sqrt(diff / norm), 1e-6);
}
