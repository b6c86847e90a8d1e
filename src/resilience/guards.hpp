#pragma once
// Guard decorators — NaN/Inf validation and fault injection wrapped around
// the existing solver interfaces, so no physics code changes:
//
//   * GuardedProblem  : NonlinearProblem  — validates every residual /
//     Jacobian evaluation for non-finite entries (reporting the first
//     offending dof and the evaluation site) and bound-checks the incoming
//     solution norm; optionally plants the configured injected fault.
//   * GuardedOperator : LinearOperator   — the same for operator applies
//     and for the matrix the operator assembles for the AMG (the
//     matrix-free Jacobian path).  GuardedProblem::jacobian_operator wraps
//     the inner problem's operator automatically.
//   * GuardedPreconditioner : Preconditioner — forwards to the inner
//     preconditioner; the kPrecondSetup injection site aborts compute()
//     with a typed kPrecondSetupFailure.
//
// On a violation the guards throw SolverFaultError.  With the Newton
// recovery ladder enabled the fault is caught and escalated; without it
// the typed error propagates to the caller — today's silent NaN
// propagation either way becomes a diagnosable event.

#include <memory>
#include <vector>

#include "linalg/linear_operator.hpp"
#include "linalg/preconditioner.hpp"
#include "nonlinear/newton.hpp"
#include "resilience/fault.hpp"
#include "resilience/fault_injector.hpp"

namespace mali::resilience {

struct GuardConfig {
  /// Validate outputs (residuals, operator applies, Jacobian values) for
  /// NaN/Inf entries.
  bool check_finite = true;
  /// Reject input solution vectors whose 2-norm exceeds this bound
  /// (kSolutionDiverged); 0 disables the bound check.  The default is far
  /// above any physical velocity but well below overflow.
  double max_solution_norm = 1.0e60;
};

/// LinearOperator decorator: validates apply outputs and assembled
/// values, optionally plants the injected kOperatorApply fault (applies
/// only).  Owns the inner operator.
class GuardedOperator final : public linalg::LinearOperator {
 public:
  GuardedOperator(std::unique_ptr<linalg::LinearOperator> inner,
                  GuardConfig cfg, FaultInjector* injector,
                  const int* newton_step = nullptr);

  [[nodiscard]] std::size_t rows() const override { return inner_->rows(); }
  [[nodiscard]] std::size_t cols() const override { return inner_->cols(); }
  void apply(const std::vector<double>& x,
             std::vector<double>& y) const override;
  bool diagonal(std::vector<double>& d) const override {
    return inner_->diagonal(d);
  }
  bool block_diagonal(int bs, std::vector<double>& blocks) const override {
    return inner_->block_diagonal(bs, blocks);
  }
  /// Forwards to the inner operator, then throws kNonFiniteJacobian
  /// (naming the row) on a NaN/Inf value it wrote.
  bool assemble(linalg::CrsMatrix& A) const override;
  [[nodiscard]] const linalg::CrsMatrix* matrix() const override {
    return inner_->matrix();
  }
  [[nodiscard]] const char* name() const override { return "guarded"; }

  [[nodiscard]] const linalg::LinearOperator& inner() const noexcept {
    return *inner_;
  }
  [[nodiscard]] std::size_t applies() const noexcept { return applies_; }

 private:
  [[nodiscard]] int newton_step() const {
    return newton_step_ != nullptr ? *newton_step_ : 0;
  }

  std::unique_ptr<linalg::LinearOperator> inner_;
  GuardConfig cfg_;
  FaultInjector* injector_;       ///< not owned; may be null
  const int* newton_step_;        ///< not owned; current step for reports
  mutable std::size_t applies_ = 0;
  mutable std::size_t assembles_ = 0;
};

/// NonlinearProblem decorator: validates residual / Jacobian evaluations,
/// bound-checks inputs, plants the injected kResidual /
/// kJacobianAssembly faults, and wraps jacobian_operator() results in a
/// GuardedOperator.  Does not own the inner problem.
class GuardedProblem final : public nonlinear::NonlinearProblem {
 public:
  explicit GuardedProblem(nonlinear::NonlinearProblem& inner,
                          GuardConfig cfg = {},
                          FaultInjector* injector = nullptr);

  [[nodiscard]] std::size_t n_dofs() const override {
    return inner_->n_dofs();
  }
  void residual(const std::vector<double>& U,
                std::vector<double>& F) override;
  void residual_and_jacobian(const std::vector<double>& U,
                             std::vector<double>& F,
                             linalg::CrsMatrix& J) override;
  [[nodiscard]] linalg::CrsMatrix create_matrix() const override {
    return inner_->create_matrix();
  }
  [[nodiscard]] std::unique_ptr<linalg::LinearOperator> jacobian_operator(
      const std::vector<double>& U) override;

  /// Current Newton step for fault reports (the solver advances it through
  /// NonlinearProblem's default no-op hook — see newton.hpp).
  void set_newton_step(int step) override { newton_step_ = step; }

  [[nodiscard]] std::size_t residual_evaluations() const noexcept {
    return residual_evals_;
  }
  [[nodiscard]] std::size_t jacobian_evaluations() const noexcept {
    return jacobian_evals_;
  }
  [[nodiscard]] nonlinear::NonlinearProblem& inner() noexcept {
    return *inner_;
  }

 private:
  void check_input(const std::vector<double>& U, FaultSite site,
                   std::size_t evaluation) const;

  nonlinear::NonlinearProblem* inner_;
  GuardConfig cfg_;
  FaultInjector* injector_;  ///< not owned; may be null
  int newton_step_ = 0;
  std::size_t residual_evals_ = 0;
  std::size_t jacobian_evals_ = 0;
};

/// Preconditioner decorator: the kPrecondSetup injection site.  Forwards
/// everything else.  Does not own the inner preconditioner.
class GuardedPreconditioner final : public linalg::Preconditioner {
 public:
  GuardedPreconditioner(linalg::Preconditioner& inner,
                        FaultInjector* injector)
      : inner_(&inner), injector_(injector) {}

  void compute(const linalg::CrsMatrix& A) override;
  void compute(const linalg::LinearOperator& A) override;
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override {
    inner_->apply(r, z);
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  void maybe_inject();

  linalg::Preconditioner* inner_;
  FaultInjector* injector_;  ///< not owned; may be null
};

}  // namespace mali::resilience
