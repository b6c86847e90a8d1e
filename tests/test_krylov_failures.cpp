// Krylov/Newton failure contract: no `solve()` aborts the process on a
// well-formed (square, size-consistent) system.  Algorithmic breakdowns are
// reported through the result — `breakdown` set, `reason` naming the failed
// invariant, `rel_residual` the TRUE ||b - A x|| / ||b|| at the returned
// iterate — and the Newton driver records inner-solve failures and
// line-search stagnation instead of silently ignoring them.
//
// Engineered cases:
//   * CG on diag(1, -1):                p^T A p == 0 (indefinite);
//   * GMRES on the rotation [[0,1],[-1,0]] with b = e1: (r0, A r0) == 0 is
//     NOT a breakdown for Arnoldi — the solve must converge unflagged;
//   * CG / GMRES on A == 0:             every invariant fails immediately —
//     the solvers must return (in O(1) iterations for GMRES, not the
//     iteration cap) with the untouched residual;
//   * Newton with a crippled GMRES budget:   linear_failures recorded;
//   * Newton fed a wrong-sign Jacobian:      line_search_stalled recorded.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "linalg/gmres.hpp"
#include "linalg/krylov.hpp"
#include "linalg/pipelined_krylov.hpp"
#include "linalg/preconditioner.hpp"
#include "nonlinear/newton.hpp"

using namespace mali;
using namespace mali::linalg;

namespace {

/// Dense-by-rows CRS helper for tiny systems.
CrsMatrix dense2(double a00, double a01, double a10, double a11) {
  CrsMatrix A({0, 2, 4}, {0, 1, 0, 1});
  A.set(0, 0, a00);
  A.set(0, 1, a01);
  A.set(1, 0, a10);
  A.set(1, 1, a11);
  return A;
}

double true_rel(const CrsMatrix& A, const std::vector<double>& x,
                const std::vector<double>& b) {
  std::vector<double> Ax;
  A.apply(x, Ax);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - Ax[i]) * (b[i] - Ax[i]);
    bb += b[i] * b[i];
  }
  return std::sqrt(rr / bb);
}

/// The n x n zero operator as a CRS matrix (diagonal graph, zero values).
CrsMatrix zero_matrix(std::size_t n) {
  std::vector<std::size_t> rp(n + 1), cols(n);
  for (std::size_t i = 0; i < n; ++i) {
    rp[i + 1] = i + 1;
    cols[i] = i;
  }
  return CrsMatrix(rp, cols);  // values default to zero
}

}  // namespace

// ---------------------------------------------------------------------------
// Conjugate gradients.
// ---------------------------------------------------------------------------

TEST(KrylovFailures, CgIndefiniteOperatorReportsBreakdown) {
  const auto A = dense2(1.0, 0.0, 0.0, -1.0);
  IdentityPreconditioner M;
  const std::vector<double> b = {1.0, 1.0};
  std::vector<double> x;
  KrylovResult r;
  EXPECT_NO_THROW(r = ConjugateGradient().solve(A, M, b, x));
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  EXPECT_NE(r.reason.find("indefinite"), std::string::npos) << r.reason;
  EXPECT_NEAR(r.rel_residual, true_rel(A, x, b), 1e-14);
}

TEST(KrylovFailures, CgZeroOperatorReportsBreakdown) {
  const auto A = zero_matrix(8);
  IdentityPreconditioner M;
  const std::vector<double> b(8, 1.0);
  std::vector<double> x;
  KrylovResult r;
  EXPECT_NO_THROW(r = ConjugateGradient().solve(A, M, b, x));
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  // A == 0 never touches b: the true residual is exactly 1.
  EXPECT_DOUBLE_EQ(r.rel_residual, 1.0);
}

TEST(KrylovFailures, CgBreakdownAtConvergedIterateStaysConverged) {
  // x0 already solves the system; the first pAp evaluation happens with
  // r == 0.  The contract: a breakdown at an already-converged iterate
  // still reports converged.
  const auto A = dense2(2.0, 0.0, 0.0, 3.0);
  IdentityPreconditioner M;
  const std::vector<double> b = {2.0, 3.0};
  std::vector<double> x = {1.0, 1.0};  // exact solution
  const auto r = ConjugateGradient().solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.rel_residual, 1e-12);
}

TEST(KrylovFailures, CgNonFiniteRhsReportsBreakdown) {
  const auto A = dense2(2.0, 0.0, 0.0, 2.0);
  IdentityPreconditioner M;
  const std::vector<double> b = {1.0, std::numeric_limits<double>::infinity()};
  std::vector<double> x;
  KrylovResult r;
  EXPECT_NO_THROW(r = ConjugateGradient().solve(A, M, b, x));
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  EXPECT_NE(r.reason.find("non-finite"), std::string::npos) << r.reason;
}

// ---------------------------------------------------------------------------
// GMRES.
// ---------------------------------------------------------------------------

TEST(KrylovFailures, GmresZeroOperatorReturnsQuicklyWithBreakdown) {
  // A == 0 annihilates the whole Krylov basis: the Arnoldi step produces a
  // zero column and the Hessenberg pivot is singular.  Before the fix the
  // solver looped restart cycles to max_iters (the true-residual confirm
  // always failed); now it must return after the first cycle with the
  // breakdown flag and the honest residual.
  const auto A = zero_matrix(10);
  IdentityPreconditioner M;
  const std::vector<double> b(10, 1.0);
  std::vector<double> x;
  GmresConfig cfg;
  cfg.max_iters = 500;
  GmresResult r;
  EXPECT_NO_THROW(r = Gmres(cfg).solve(A, M, b, x));
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  EXPECT_NE(r.reason.find("Hessenberg"), std::string::npos) << r.reason;
  EXPECT_LE(r.iterations, 2u) << "must not burn the iteration budget";
  EXPECT_DOUBLE_EQ(r.rel_residual, 1.0);
}

TEST(KrylovFailures, GmresHappyBreakdownDoesNotSetFlag) {
  // Exact convergence inside a cycle (identity operator) is the benign
  // happy breakdown — converged, no failure flag.
  std::vector<std::size_t> rp(5), cols(4);
  for (std::size_t i = 0; i < 4; ++i) {
    rp[i + 1] = i + 1;
    cols[i] = i;
  }
  CrsMatrix A(rp, cols);
  for (std::size_t i = 0; i < 4; ++i) A.set(i, i, 1.0);
  IdentityPreconditioner M;
  const std::vector<double> b = {1.0, -2.0, 3.0, -4.0};
  std::vector<double> x;
  const auto r = Gmres().solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.breakdown);
}

TEST(KrylovFailures, GmresSkewRotationIsNotABreakdown) {
  // Rotation by 90 degrees with b = e1: (r0, A r0) == 0, the case that
  // stops Lanczos-type solvers on their first step.  Arnoldi only needs
  // ||A v|| != 0, so GMRES must solve it in two steps without a flag.
  const auto A = dense2(0.0, 1.0, -1.0, 0.0);
  IdentityPreconditioner M;
  const std::vector<double> b = {1.0, 0.0};
  std::vector<double> x;
  const auto r = Gmres().solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.breakdown);
  EXPECT_LE(r.iterations, 2u);
  EXPECT_LT(true_rel(A, x, b), 1e-12);
}

TEST(KrylovFailures, GmresNonFiniteRhsReportsBreakdown) {
  const auto A = dense2(2.0, 0.0, 0.0, 2.0);
  IdentityPreconditioner M;
  const std::vector<double> b = {1.0, std::nan("")};
  std::vector<double> x;
  GmresResult r;
  EXPECT_NO_THROW(r = Gmres().solve(A, M, b, x));
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  EXPECT_NE(r.reason.find("non-finite"), std::string::npos) << r.reason;
  EXPECT_EQ(r.iterations, 0u);
}

// ---------------------------------------------------------------------------
// Pipelined variants: same engineered breakdowns, same typed reporting.
// The fused-reduction restructuring must not reintroduce the
// cycle-to-max_iters failure mode the classic solvers were cured of.
// ---------------------------------------------------------------------------

TEST(KrylovFailures, PipeGmresZeroOperatorReturnsQuicklyWithBreakdown) {
  // A == 0 makes the fused reduction return <w,w> == 0 on the first step:
  // the subspace closes, the Hessenberg pivot is singular, and the solver
  // must return after one cycle with the honest (untouched) residual.
  const auto A = zero_matrix(10);
  IdentityPreconditioner M;
  const std::vector<double> b(10, 1.0);
  std::vector<double> x;
  GmresConfig cfg;
  cfg.max_iters = 500;
  GmresResult r;
  EXPECT_NO_THROW(r = PipelinedGmres(cfg).solve(A, M, b, x));
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  EXPECT_NE(r.reason.find("Hessenberg"), std::string::npos) << r.reason;
  EXPECT_LE(r.iterations, 2u) << "must not burn the iteration budget";
  EXPECT_DOUBLE_EQ(r.rel_residual, 1.0);
}

TEST(KrylovFailures, PipeGmresHappyBreakdownDoesNotSetFlag) {
  std::vector<std::size_t> rp(5), cols(4);
  for (std::size_t i = 0; i < 4; ++i) {
    rp[i + 1] = i + 1;
    cols[i] = i;
  }
  CrsMatrix A(rp, cols);
  for (std::size_t i = 0; i < 4; ++i) A.set(i, i, 1.0);
  IdentityPreconditioner M;
  const std::vector<double> b = {1.0, -2.0, 3.0, -4.0};
  std::vector<double> x;
  const auto r = PipelinedGmres().solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.breakdown);
}

TEST(KrylovFailures, PipeGmresSkewRotationIsNotABreakdown) {
  // The fused reduction sees <w, v1> == 0 on the first step; the pipelined
  // Arnoldi must treat that as an ordinary direction, not a breakdown.
  const auto A = dense2(0.0, 1.0, -1.0, 0.0);
  IdentityPreconditioner M;
  const std::vector<double> b = {1.0, 0.0};
  std::vector<double> x;
  const auto r = PipelinedGmres().solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.breakdown);
  EXPECT_LT(true_rel(A, x, b), 1e-12);
}

TEST(KrylovFailures, PipeGmresNonFiniteRhsReportsBreakdown) {
  const auto A = dense2(2.0, 0.0, 0.0, 2.0);
  IdentityPreconditioner M;
  const std::vector<double> b = {1.0, std::nan("")};
  std::vector<double> x;
  GmresResult r;
  EXPECT_NO_THROW(r = PipelinedGmres().solve(A, M, b, x));
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  EXPECT_NE(r.reason.find("non-finite"), std::string::npos) << r.reason;
  EXPECT_EQ(r.iterations, 0u);
}

TEST(KrylovFailures, PipeCgIndefiniteOperatorReportsBreakdown) {
  const auto A = dense2(1.0, 0.0, 0.0, -1.0);
  IdentityPreconditioner M;
  const std::vector<double> b = {1.0, 1.0};
  std::vector<double> x;
  KrylovResult r;
  EXPECT_NO_THROW(r = PipelinedCg().solve(A, M, b, x));
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  EXPECT_NE(r.reason.find("indefinite"), std::string::npos) << r.reason;
  EXPECT_NEAR(r.rel_residual, true_rel(A, x, b), 1e-14);
}

TEST(KrylovFailures, PipeCgZeroOperatorReportsBreakdown) {
  // w = A u == 0 makes the fused curvature delta = <w,u> vanish on the
  // first pass — typed indefinite-operator breakdown, residual untouched.
  const auto A = zero_matrix(8);
  IdentityPreconditioner M;
  const std::vector<double> b(8, 1.0);
  std::vector<double> x;
  KrylovResult r;
  EXPECT_NO_THROW(r = PipelinedCg().solve(A, M, b, x));
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  EXPECT_EQ(r.iterations, 0u) << "must not burn the iteration budget";
  EXPECT_DOUBLE_EQ(r.rel_residual, 1.0);
}

TEST(KrylovFailures, PipeCgBreakdownAtConvergedIterateStaysConverged) {
  const auto A = dense2(2.0, 0.0, 0.0, 3.0);
  IdentityPreconditioner M;
  const std::vector<double> b = {2.0, 3.0};
  std::vector<double> x = {1.0, 1.0};  // exact solution
  const auto r = PipelinedCg().solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.rel_residual, 1e-12);
}

TEST(KrylovFailures, PipeCgNonFiniteRhsReportsBreakdown) {
  const auto A = dense2(2.0, 0.0, 0.0, 2.0);
  IdentityPreconditioner M;
  const std::vector<double> b = {1.0, std::numeric_limits<double>::infinity()};
  std::vector<double> x;
  KrylovResult r;
  EXPECT_NO_THROW(r = PipelinedCg().solve(A, M, b, x));
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  EXPECT_NE(r.reason.find("non-finite"), std::string::npos) << r.reason;
}

// ---------------------------------------------------------------------------
// Newton failure recording.
// ---------------------------------------------------------------------------

namespace {

/// Linear "nonlinear" problem F(U) = A U - b on a 1-D Laplacian, with a
/// switch that hands Newton the NEGATED Jacobian (an ascent direction for
/// every step — the line search can never find a decrease).
class LaplaceProblem final : public nonlinear::NonlinearProblem {
 public:
  explicit LaplaceProblem(std::size_t n, bool negate_jacobian = false)
      : n_(n), negate_(negate_jacobian) {
    std::vector<std::size_t> rp{0}, cols;
    for (std::size_t i = 0; i < n_; ++i) {
      if (i > 0) cols.push_back(i - 1);
      cols.push_back(i);
      if (i + 1 < n_) cols.push_back(i + 1);
      rp.push_back(cols.size());
    }
    A_ = CrsMatrix(rp, cols);
    for (std::size_t i = 0; i < n_; ++i) {
      A_.set(i, i, 2.1);
      if (i > 0) A_.set(i, i - 1, -1.0);
      if (i + 1 < n_) A_.set(i, i + 1, -1.0);
    }
    b_.assign(n_, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
      b_[i] = std::sin(0.37 * static_cast<double>(i) + 1.0);
    }
  }

  [[nodiscard]] std::size_t n_dofs() const override { return n_; }

  void residual(const std::vector<double>& U,
                std::vector<double>& F) override {
    A_.apply(U, F);
    for (std::size_t i = 0; i < n_; ++i) F[i] -= b_[i];
  }

  void residual_and_jacobian(const std::vector<double>& U,
                             std::vector<double>& F,
                             CrsMatrix& J) override {
    residual(U, F);
    const double s = negate_ ? -1.0 : 1.0;
    for (std::size_t i = 0; i < n_; ++i) {
      J.set(i, i, s * 2.1);
      if (i > 0) J.set(i, i - 1, s * -1.0);
      if (i + 1 < n_) J.set(i, i + 1, s * -1.0);
    }
  }

  [[nodiscard]] CrsMatrix create_matrix() const override {
    return CrsMatrix(A_.graph()->scalar_row_ptr(),
                     A_.graph()->scalar_cols());
  }

 private:
  std::size_t n_;
  bool negate_;
  CrsMatrix A_;
  std::vector<double> b_;
};

}  // namespace

TEST(NewtonFailures, RecordsInnerLinearSolveFailures) {
  // Two GMRES iterations at tol 1e-12 cannot solve a 50-dof Laplacian:
  // every Newton step's inner solve misses its tolerance and must be
  // counted (previously lin.converged was never even inspected).
  LaplaceProblem p(50);
  IdentityPreconditioner M;
  nonlinear::NewtonConfig ncfg;
  ncfg.max_iters = 3;
  ncfg.abs_tol = 1e-14;
  ncfg.rel_tol = 1e-14;
  ncfg.gmres.max_iters = 2;
  ncfg.gmres.rel_tol = 1e-12;
  const nonlinear::NewtonSolver newton(ncfg);
  std::vector<double> U(p.n_dofs(), 0.0);
  const auto r = newton.solve(p, M, U);
  EXPECT_FALSE(r.converged);
  EXPECT_GE(r.linear_failures, 1);
  EXPECT_TRUE(r.any_linear_failure());
  EXPECT_EQ(r.linear_failures, r.iterations)
      << "every attempted step's inner solve missed the tolerance";
}

TEST(NewtonFailures, HealthySolveRecordsNoFailures) {
  LaplaceProblem p(50);
  IdentityPreconditioner M;
  nonlinear::NewtonConfig ncfg;
  ncfg.max_iters = 4;
  const nonlinear::NewtonSolver newton(ncfg);
  std::vector<double> U(p.n_dofs(), 0.0);
  const auto r = newton.solve(p, M, U);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.linear_failures, 0);
  EXPECT_FALSE(r.any_linear_failure());
  EXPECT_FALSE(r.line_search_stalled);
}

TEST(NewtonFailures, FlagsLineSearchStall) {
  // The negated Jacobian makes every Newton direction an ascent direction:
  // backtracking bottoms out at min_damping without a decrease and the
  // stall must be flagged (previously indistinguishable from progress).
  LaplaceProblem p(20, /*negate_jacobian=*/true);
  IdentityPreconditioner M;
  nonlinear::NewtonConfig ncfg;
  ncfg.max_iters = 2;
  const nonlinear::NewtonSolver newton(ncfg);
  std::vector<double> U(p.n_dofs(), 0.0);
  const auto r = newton.solve(p, M, U);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.line_search_stalled);
}
