// Newton solver tests on manufactured nonlinear systems: quadratic
// convergence, damping/line-search behaviour, and interface contracts.

#include <gtest/gtest.h>

#include <cmath>

#include "nonlinear/newton.hpp"

using namespace mali;
using namespace mali::nonlinear;

namespace {

/// Decoupled cubic system: F_i(u) = u_i^3 + a_i u_i - b_i.
class CubicProblem final : public NonlinearProblem {
 public:
  CubicProblem(std::vector<double> a, std::vector<double> b)
      : a_(std::move(a)), b_(std::move(b)) {}

  [[nodiscard]] std::size_t n_dofs() const override { return a_.size(); }

  void residual(const std::vector<double>& U, std::vector<double>& F) override {
    F.resize(U.size());
    for (std::size_t i = 0; i < U.size(); ++i) {
      F[i] = U[i] * U[i] * U[i] + a_[i] * U[i] - b_[i];
    }
    ++n_residual_calls;
  }

  void residual_and_jacobian(const std::vector<double>& U,
                             std::vector<double>& F,
                             linalg::CrsMatrix& J) override {
    residual(U, F);
    for (std::size_t i = 0; i < U.size(); ++i) {
      J.set(i, i, 3.0 * U[i] * U[i] + a_[i]);
    }
    ++n_jacobian_calls;
  }

  [[nodiscard]] linalg::CrsMatrix create_matrix() const override {
    std::vector<std::size_t> rp(n_dofs() + 1), cols(n_dofs());
    for (std::size_t i = 0; i < n_dofs(); ++i) {
      rp[i + 1] = i + 1;
      cols[i] = i;
    }
    return linalg::CrsMatrix(rp, cols);
  }

  int n_residual_calls = 0;
  int n_jacobian_calls = 0;

 private:
  std::vector<double> a_, b_;
};

/// 2D Rosenbrock-gradient system (coupled, needs damping from bad guesses):
/// F = grad of 0.5*(a-x)^2 + 0.5*b*(y-x^2)^2.
class RosenbrockGrad final : public NonlinearProblem {
 public:
  RosenbrockGrad(double a, double b) : a_(a), b_(b) {}
  [[nodiscard]] std::size_t n_dofs() const override { return 2; }
  void residual(const std::vector<double>& U, std::vector<double>& F) override {
    const double x = U[0], y = U[1];
    F = {-(a_ - x) - 2.0 * b_ * (y - x * x) * x, b_ * (y - x * x)};
  }
  void residual_and_jacobian(const std::vector<double>& U,
                             std::vector<double>& F,
                             linalg::CrsMatrix& J) override {
    residual(U, F);
    const double x = U[0], y = U[1];
    J.set(0, 0, 1.0 - 2.0 * b_ * (y - 3.0 * x * x));
    J.set(0, 1, -2.0 * b_ * x);
    J.set(1, 0, -2.0 * b_ * x);
    J.set(1, 1, b_);
  }
  [[nodiscard]] linalg::CrsMatrix create_matrix() const override {
    return linalg::CrsMatrix({0, 2, 4}, {0, 1, 0, 1});
  }

 private:
  double a_, b_;
};

}  // namespace

TEST(Newton, SolvesCubicSystem) {
  CubicProblem p({1.0, 2.0, 0.5}, {3.0, -10.0, 1.0});
  linalg::JacobiPreconditioner M;
  NewtonConfig cfg;
  cfg.max_iters = 30;
  cfg.abs_tol = 1e-12;
  NewtonSolver newton(cfg);
  std::vector<double> U = {1.0, 1.0, 1.0};
  const auto r = newton.solve(p, M, U);
  EXPECT_TRUE(r.converged);
  std::vector<double> F;
  p.residual(U, F);
  EXPECT_LT(linalg::norm2(F), 1e-10);
}

TEST(Newton, QuadraticConvergenceNearRoot) {
  CubicProblem p({1.0}, {3.0});
  linalg::JacobiPreconditioner M;
  NewtonConfig cfg;
  cfg.max_iters = 20;
  cfg.abs_tol = 1e-14;
  cfg.line_search = false;
  NewtonSolver newton(cfg);
  std::vector<double> U = {1.4};  // close to the root ~1.2134
  const auto r = newton.solve(p, M, U);
  ASSERT_TRUE(r.converged);
  // Residual history should (super)quadratically collapse: each step at
  // least squares the previous relative residual (up to a constant).
  for (std::size_t i = 2; i + 1 < r.history.size(); ++i) {
    if (r.history[i] < 1e-13) break;
    EXPECT_LT(r.history[i + 1], std::sqrt(r.history[i]) * r.history[i]);
  }
}

TEST(Newton, HonorsMaxIterations) {
  CubicProblem p({1.0, 1.0}, {100.0, -50.0});
  linalg::JacobiPreconditioner M;
  NewtonConfig cfg;
  cfg.max_iters = 2;
  cfg.abs_tol = 1e-15;
  cfg.rel_tol = 0.0;
  NewtonSolver newton(cfg);
  std::vector<double> U = {0.0, 0.0};
  const auto r = newton.solve(p, M, U);
  EXPECT_LE(r.iterations, 2);
}

TEST(Newton, DampingRescuesBadInitialGuess) {
  RosenbrockGrad p(1.0, 10.0);
  linalg::SymGaussSeidelPreconditioner M;
  NewtonConfig cfg;
  cfg.max_iters = 100;
  cfg.abs_tol = 1e-10;
  NewtonSolver newton(cfg);
  std::vector<double> U = {-1.5, 2.0};
  const auto r = newton.solve(p, M, U);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(U[0], 1.0, 1e-6);
  EXPECT_NEAR(U[1], 1.0, 1e-6);
}

TEST(Newton, LineSearchKeepsResidualMonotone) {
  // While the backtracking succeeds (damping above the floor), accepted
  // steps must not increase ||F||.  A mildly coupled problem exercises
  // several damped steps without hitting the floor.
  RosenbrockGrad p(1.0, 10.0);
  linalg::SymGaussSeidelPreconditioner M;
  NewtonConfig cfg;
  cfg.max_iters = 60;
  cfg.abs_tol = 1e-10;
  NewtonSolver newton(cfg);
  std::vector<double> U = {-1.0, 1.5};
  const auto r = newton.solve(p, M, U);
  ASSERT_TRUE(r.converged);
  ASSERT_GE(r.history.size(), 2u);
  for (std::size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_LE(r.history[i], r.history[i - 1] * (1.0 + 1e-12))
        << "step " << i << " increased ||F||";
  }
}

TEST(Newton, ConvergedAtStartDoesNoWork) {
  CubicProblem p({1.0}, {0.0});  // root at 0
  linalg::JacobiPreconditioner M;
  NewtonConfig cfg;
  cfg.abs_tol = 1e-8;
  NewtonSolver newton(cfg);
  std::vector<double> U = {0.0};
  const auto r = newton.solve(p, M, U);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(p.n_jacobian_calls, 0);
}

TEST(Newton, ReportsLinearIterations) {
  CubicProblem p({2.0, 2.0, 2.0, 2.0}, {5.0, 6.0, 7.0, 8.0});
  linalg::JacobiPreconditioner M;
  NewtonConfig cfg;
  cfg.max_iters = 25;
  cfg.abs_tol = 1e-12;
  NewtonSolver newton(cfg);
  std::vector<double> U(4, 1.0);
  const auto r = newton.solve(p, M, U);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.total_linear_iters, 0u);
}

TEST(Newton, EightStepPaperConfiguration) {
  // The paper's test runs exactly 8 nonlinear steps with a 1e-6 linear
  // tolerance; verify the configured solver performs 8 steps on a problem
  // that needs more, and that the residual still decreased monotonically.
  CubicProblem p({0.1, 0.1}, {1000.0, -800.0});
  linalg::JacobiPreconditioner M;
  NewtonConfig cfg;  // defaults: 8 iters, gmres 1e-6
  EXPECT_EQ(cfg.max_iters, 8);
  EXPECT_DOUBLE_EQ(cfg.gmres.rel_tol, 1e-6);
  cfg.abs_tol = 0.0;
  cfg.rel_tol = 0.0;
  NewtonSolver newton(cfg);
  std::vector<double> U = {0.0, 0.0};
  const auto r = newton.solve(p, M, U);
  EXPECT_EQ(r.iterations, 8);
  EXPECT_LT(r.residual_norm, r.initial_norm);
}
