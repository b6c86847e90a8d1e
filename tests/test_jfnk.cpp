// JFNK end-to-end: Newton with the matrix-free Jacobian operator must
// converge on the manufactured FO Stokes problem to the same solution as
// the assembled path (rtol 1e-10 on the mean velocity — both paths walk
// the same Newton iterates up to FP reassociation when given the same
// preconditioner), with iteration counts inside a pinned band.
//
// Also the GMRES restart-path robustness regression: operators whose
// Krylov space is invariant after k < restart iterations trigger a happy
// breakdown (Arnoldi normalization ~ 0); the solver must fold the column
// and return the exact least-squares solution instead of dividing through.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <vector>

#include "linalg/block_jacobi.hpp"
#include "linalg/gmres.hpp"
#include "linalg/linear_operator.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "nonlinear/newton.hpp"
#include "physics/stokes_fo_problem.hpp"

using namespace mali;
using physics::StokesFOConfig;
using physics::StokesFOProblem;

namespace {

StokesFOConfig mms_config(linalg::JacobianMode mode) {
  StokesFOConfig cfg;
  cfg.dx_m = 250.0e3;
  cfg.n_layers = 4;
  cfg.mms.enabled = true;
  cfg.jacobian = mode;
  return cfg;
}

struct SolveOutcome {
  nonlinear::NewtonResult newton;
  double mean_velocity = 0.0;
  double mms_error = 0.0;
};

/// Runs the MMS Newton solve with the given Jacobian mode; both modes use
/// the same 2x2 block-Jacobi preconditioner so the iterate paths are
/// comparable (the semicoarsening AMG needs the assembled matrix).
SolveOutcome run_mms(linalg::JacobianMode mode) {
  StokesFOProblem p(mms_config(mode));
  linalg::BlockJacobiPreconditioner M(2);
  nonlinear::NewtonConfig ncfg;
  ncfg.jacobian = mode;
  nonlinear::NewtonSolver newton(ncfg);
  std::vector<double> U(p.n_dofs(), 0.0);
  SolveOutcome out;
  out.newton = newton.solve(p, M, U);
  out.mean_velocity = p.mean_velocity(U);
  out.mms_error = p.mms_error(U);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Matrix-free Newton == assembled Newton on the manufactured problem.
// ---------------------------------------------------------------------------

TEST(Jfnk, MatrixFreeMatchesAssembledOnMms) {
  const auto assembled = run_mms(linalg::JacobianMode::kAssembled);
  const auto mf = run_mms(linalg::JacobianMode::kMatrixFree);

  ASSERT_TRUE(assembled.newton.converged);
  ASSERT_TRUE(mf.newton.converged);

  // Same solution: the operators agree to reassociation, so the Newton
  // iterates (and the converged mean velocity) agree far tighter than the
  // nonlinear tolerance.
  EXPECT_NEAR(mf.mean_velocity / assembled.mean_velocity, 1.0, 1e-10);

  // Both discretization errors are the same (the solver choice cannot
  // change what the mesh converges to).
  EXPECT_NEAR(mf.mms_error / assembled.mms_error, 1.0, 1e-8);

  // Pinned iteration band: identical preconditioning must give identical
  // Newton step counts and GMRES totals within a small reassociation slack.
  EXPECT_EQ(mf.newton.iterations, assembled.newton.iterations);
  const auto a = static_cast<double>(assembled.newton.total_linear_iters);
  const auto m = static_cast<double>(mf.newton.total_linear_iters);
  EXPECT_NEAR(m, a, std::max(2.0, 0.05 * a))
      << "assembled " << assembled.newton.total_linear_iters
      << " vs matrix-free " << mf.newton.total_linear_iters;
}

TEST(Jfnk, MatrixFreeNeverAllocatesTheMatrix) {
  // Smoke contract: the matrix-free Newton path runs end-to-end on a
  // problem without ever calling create_matrix().  Guarded by a counting
  // wrapper around the problem.
  class CountingProblem final : public nonlinear::NonlinearProblem {
   public:
    explicit CountingProblem(StokesFOProblem& p) : p_(p) {}
    [[nodiscard]] std::size_t n_dofs() const override { return p_.n_dofs(); }
    void residual(const std::vector<double>& U,
                  std::vector<double>& F) override {
      p_.residual(U, F);
    }
    void residual_and_jacobian(const std::vector<double>& U,
                               std::vector<double>& F,
                               linalg::CrsMatrix& J) override {
      ++assembled_calls;
      p_.residual_and_jacobian(U, F, J);
    }
    [[nodiscard]] linalg::CrsMatrix create_matrix() const override {
      ++create_calls;
      return p_.create_matrix();
    }
    [[nodiscard]] std::unique_ptr<linalg::LinearOperator> jacobian_operator(
        const std::vector<double>& U) override {
      return p_.jacobian_operator(U);
    }
    mutable int create_calls = 0;
    int assembled_calls = 0;

   private:
    StokesFOProblem& p_;
  };

  StokesFOProblem p(mms_config(linalg::JacobianMode::kMatrixFree));
  CountingProblem counting(p);
  linalg::BlockJacobiPreconditioner M(2);
  nonlinear::NewtonConfig ncfg;
  ncfg.jacobian = linalg::JacobianMode::kMatrixFree;
  nonlinear::NewtonSolver newton(ncfg);
  std::vector<double> U(p.n_dofs(), 0.0);
  const auto r = newton.solve(counting, M, U);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(counting.create_calls, 0);
  EXPECT_EQ(counting.assembled_calls, 0);
}

TEST(Jfnk, SolverRefusesMatrixFreeWithoutOperator) {
  // A problem that does not override jacobian_operator must be rejected
  // up front, not crash mid-solve.
  class NoOperatorProblem final : public nonlinear::NonlinearProblem {
   public:
    [[nodiscard]] std::size_t n_dofs() const override { return 2; }
    void residual(const std::vector<double>& U,
                  std::vector<double>& F) override {
      F = {U[0] - 1.0, U[1] + 2.0};
    }
    void residual_and_jacobian(const std::vector<double>&,
                               std::vector<double>&,
                               linalg::CrsMatrix&) override {}
    [[nodiscard]] linalg::CrsMatrix create_matrix() const override {
      return linalg::CrsMatrix({0, 1, 2}, {0, 1});
    }
  };

  NoOperatorProblem p;
  linalg::IdentityPreconditioner M;
  nonlinear::NewtonConfig ncfg;
  ncfg.jacobian = linalg::JacobianMode::kMatrixFree;
  nonlinear::NewtonSolver newton(ncfg);
  std::vector<double> U(2, 0.0);
  EXPECT_THROW(newton.solve(p, M, U), Error);
}

TEST(Jfnk, ModeRoundTrip) {
  using linalg::JacobianMode;
  EXPECT_EQ(linalg::jacobian_mode_from_string("assembled"),
            JacobianMode::kAssembled);
  EXPECT_EQ(linalg::jacobian_mode_from_string("matrix-free"),
            JacobianMode::kMatrixFree);
  EXPECT_EQ(linalg::jacobian_mode_from_string("matrixfree"),
            JacobianMode::kMatrixFree);
  EXPECT_EQ(linalg::jacobian_mode_from_string("mf"),
            JacobianMode::kMatrixFree);
  EXPECT_THROW((void)linalg::jacobian_mode_from_string("hessian"), Error);
  EXPECT_STREQ(linalg::to_string(JacobianMode::kAssembled), "assembled");
  EXPECT_STREQ(linalg::to_string(JacobianMode::kMatrixFree), "matrix-free");
}

// ---------------------------------------------------------------------------
// GMRES happy-breakdown regression (restart-path robustness).
// ---------------------------------------------------------------------------

namespace {

/// Diagonal operator with few distinct eigenvalues: the Krylov space is
/// invariant after (#distinct eigenvalues) iterations, so GMRES hits the
/// Arnoldi breakdown well before the restart length.
class FewEigenvalueOperator final : public linalg::LinearOperator {
 public:
  explicit FewEigenvalueOperator(std::vector<double> diag)
      : diag_(std::move(diag)) {}
  [[nodiscard]] std::size_t rows() const override { return diag_.size(); }
  [[nodiscard]] std::size_t cols() const override { return diag_.size(); }
  void apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    y.resize(diag_.size());
    for (std::size_t i = 0; i < diag_.size(); ++i) y[i] = diag_[i] * x[i];
  }
  [[nodiscard]] bool diagonal(std::vector<double>& d) const override {
    d = diag_;
    return true;
  }
  [[nodiscard]] const char* name() const override { return "few-eig"; }

 private:
  std::vector<double> diag_;
};

}  // namespace

TEST(GmresBreakdown, ExactConvergenceBeforeRestart) {
  // 120 dofs but only 3 distinct eigenvalues: GMRES converges exactly in
  // <= 3 iterations; iteration 3's Arnoldi vector has norm ~0.  Before the
  // breakdown guard this divided by ~1e-17 and poisoned the basis.
  constexpr std::size_t n = 120;
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = 1.0 + static_cast<double>(i % 3);
  const FewEigenvalueOperator A(diag);

  std::vector<double> b(n), x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = std::sin(static_cast<double>(i) + 1.0);
  }

  linalg::GmresConfig cfg;
  cfg.rel_tol = 1e-12;
  cfg.restart = 50;  // breakdown happens inside the first cycle
  const linalg::Gmres gmres(cfg);
  linalg::IdentityPreconditioner M;
  const auto r = gmres.solve(A, M, b, x);

  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 4u);
  EXPECT_LT(r.rel_residual, 1e-12);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(x[i], b[i] / diag[i], 1e-12) << "dof " << i;
    ASSERT_FALSE(std::isnan(x[i]));
  }
}

TEST(GmresBreakdown, IdentityOperatorConvergesInOneIteration) {
  // w = A v1 = v1 orthogonalizes to exactly zero: the hardest breakdown
  // (H[j][j+1] == 0.0, not merely tiny) on the very first Arnoldi step.
  constexpr std::size_t n = 17;
  const FewEigenvalueOperator A(std::vector<double>(n, 1.0));
  std::vector<double> b(n), x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<double>(i) - 8.0;

  const linalg::Gmres gmres(linalg::GmresConfig{});
  linalg::IdentityPreconditioner M;
  const auto r = gmres.solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 1u);
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(x[i], b[i]);
}

TEST(GmresBreakdown, SurvivesRestartBoundary) {
  // Same invariant-subspace operator, restart shorter than the spectrum:
  // the cycle boundary and the breakdown interact (restart = 2, three
  // distinct eigenvalues): the solve needs a second cycle and must not
  // carry a poisoned basis across it.
  constexpr std::size_t n = 60;
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = 2.0 + static_cast<double>(i % 3);
  const FewEigenvalueOperator A(diag);
  std::vector<double> b(n, 1.0), x(n, 0.0);

  linalg::GmresConfig cfg;
  cfg.rel_tol = 1e-12;
  cfg.restart = 2;
  const linalg::Gmres gmres(cfg);
  linalg::IdentityPreconditioner M;
  const auto r = gmres.solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(x[i], 1.0 / diag[i], 1e-11);
  }
}

// ---------------------------------------------------------------------------
// Newton linear-failure recording on the real problem.
// ---------------------------------------------------------------------------

TEST(Jfnk, RecordsLinearFailuresWhenGmresBudgetIsCrippled) {
  // Two GMRES iterations per Newton step cannot reach 1e-6 on the FO
  // Jacobian under block-Jacobi: every inner solve misses its tolerance.
  // The step is still attempted (inexact Newton), but each failure must be
  // recorded — previously lin.converged was dropped on the floor.
  StokesFOProblem p(mms_config(linalg::JacobianMode::kMatrixFree));
  linalg::BlockJacobiPreconditioner M(2);
  nonlinear::NewtonConfig ncfg;
  ncfg.jacobian = linalg::JacobianMode::kMatrixFree;
  ncfg.max_iters = 2;
  ncfg.gmres.max_iters = 2;
  const nonlinear::NewtonSolver newton(ncfg);
  std::vector<double> U(p.n_dofs(), 0.0);
  const auto r = newton.solve(p, M, U);
  EXPECT_GE(r.linear_failures, 1);
  EXPECT_TRUE(r.any_linear_failure());
  EXPECT_EQ(r.linear_failures, r.iterations);
}

TEST(Jfnk, HealthyRunRecordsNoFailures) {
  const auto out = run_mms(linalg::JacobianMode::kMatrixFree);
  ASSERT_TRUE(out.newton.converged);
  EXPECT_EQ(out.newton.linear_failures, 0);
  EXPECT_FALSE(out.newton.any_linear_failure());
  EXPECT_FALSE(out.newton.line_search_stalled);
}

TEST(GmresBreakdown, MatrixPathStillAgrees) {
  // The CrsMatrix overload routes through the same operator code path; a
  // diagonal CRS with repeated eigenvalues must behave identically.
  constexpr std::size_t n = 24;
  std::vector<std::size_t> row_ptr(n + 1), cols(n);
  for (std::size_t i = 0; i < n; ++i) {
    row_ptr[i + 1] = i + 1;
    cols[i] = i;
  }
  linalg::CrsMatrix A(row_ptr, cols);
  for (std::size_t i = 0; i < n; ++i) {
    A.set(i, i, i % 2 == 0 ? 3.0 : 5.0);
  }
  std::vector<double> b(n, 2.0), x(n, 0.0);
  const linalg::Gmres gmres(linalg::GmresConfig{});
  linalg::IdentityPreconditioner M;
  const auto r = gmres.solve(A, M, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 3u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], 2.0 / (i % 2 == 0 ? 3.0 : 5.0), 1e-12);
  }
}

// Bitwise Newton-history pin at `--simd off`: the 200 km matrix-free solve
// with the operator-probed AMG, each step's ||F|| as the IEEE bits recorded
// before the width-1 tangent became StokesFOTangentBatched<1> and the
// assembly moved into the element engine (the 2-rank twin is in test_dist).
TEST(NewtonHistoryPin, SerialMatrixFreeAtWidthOne) {
  StokesFOConfig cfg;
  cfg.dx_m = 200.0e3;
  cfg.n_layers = 4;
  cfg.simd_width = 1;
  cfg.jacobian = linalg::JacobianMode::kMatrixFree;
  StokesFOProblem problem(cfg);
  linalg::SemicoarseningAmg M(problem.extrusion_info(), linalg::AmgConfig{});
  nonlinear::NewtonConfig ncfg;
  ncfg.max_iters = 8;
  ncfg.jacobian = linalg::JacobianMode::kMatrixFree;
  auto U = problem.analytic_initial_guess();
  const auto r = nonlinear::NewtonSolver(ncfg).solve(problem, M, U);
  const std::uint64_t pinned[] = {
      0x43573e4593e896ebull, 0x4349f6948a7ecec3ull, 0x43423f661daa9751ull,
      0x4338779e62b9133eull, 0x43313ab3d0151304ull, 0x432602847bde3aeaull,
      0x432502810e6cd679ull, 0x432415da6ab92994ull, 0x430fa2fc7a84acdcull};
  ASSERT_EQ(r.history.size(), std::size(pinned));
  for (std::size_t i = 0; i < r.history.size(); ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &r.history[i], sizeof bits);
    EXPECT_EQ(bits, pinned[i]) << "Newton step " << i << ": ||F|| = "
                               << r.history[i];
  }
}
