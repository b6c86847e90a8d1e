#include "resilience/guards.hpp"

#include <cmath>

namespace mali::resilience {

namespace {

[[noreturn]] void throw_non_finite(FaultType type, FaultSite site,
                                   std::size_t dof, double value,
                                   int newton_step, std::size_t evaluation,
                                   const char* what) {
  SolverFault f;
  f.type = type;
  f.site = site;
  f.dof = dof;
  f.value = value;
  f.newton_step = newton_step;
  f.evaluation = evaluation;
  f.message = what;
  throw SolverFaultError(std::move(f));
}

/// Throws kNonFiniteJacobian at the row owning A's first NaN/Inf value.
void check_matrix_finite(const linalg::CrsMatrix& A, FaultSite site,
                         int newton_step, std::size_t evaluation,
                         const char* what) {
  const std::ptrdiff_t bad = linalg::first_non_finite(A.values());
  if (bad < 0) return;
  // Report the row owning the offending entry, not the nnz index.
  const auto nz = static_cast<std::size_t>(bad);
  std::size_t row = 0;
  while (row + 1 < A.n_rows() && A.row_ptr()[row + 1] <= nz) ++row;
  throw_non_finite(FaultType::kNonFiniteJacobian, site, row, A.values()[nz],
                   newton_step, evaluation, what);
}

}  // namespace

// ---- GuardedOperator --------------------------------------------------

GuardedOperator::GuardedOperator(
    std::unique_ptr<linalg::LinearOperator> inner, GuardConfig cfg,
    FaultInjector* injector, const int* newton_step)
    : inner_(std::move(inner)),
      cfg_(cfg),
      injector_(injector),
      newton_step_(newton_step) {
  MALI_CHECK_MSG(inner_ != nullptr, "GuardedOperator requires an operator");
}

void GuardedOperator::apply(const std::vector<double>& x,
                            std::vector<double>& y) const {
  const std::size_t eval = applies_++;
  inner_->apply(x, y);
  if (injector_ != nullptr && injector_->fire(FaultSite::kOperatorApply)) {
    y[injector_->target_dof(y.size())] = injector_->poison();
  }
  if (cfg_.check_finite) {
    const std::ptrdiff_t bad = linalg::first_non_finite(y);
    if (bad >= 0) {
      throw_non_finite(FaultType::kNonFiniteOperatorApply,
                       FaultSite::kOperatorApply,
                       static_cast<std::size_t>(bad),
                       y[static_cast<std::size_t>(bad)], newton_step(), eval,
                       "non-finite entry in operator-apply output");
    }
  }
}

bool GuardedOperator::assemble(linalg::CrsMatrix& A) const {
  const std::size_t eval = assembles_++;
  if (!inner_->assemble(A)) return false;
  if (cfg_.check_finite) {
    check_matrix_finite(A, FaultSite::kJacobianAssembly, newton_step(), eval,
                        "non-finite entry in operator-assembled matrix");
  }
  return true;
}

// ---- GuardedProblem ---------------------------------------------------

GuardedProblem::GuardedProblem(nonlinear::NonlinearProblem& inner,
                               GuardConfig cfg, FaultInjector* injector)
    : inner_(&inner), cfg_(cfg), injector_(injector) {}

void GuardedProblem::check_input(const std::vector<double>& U,
                                 FaultSite site,
                                 std::size_t evaluation) const {
  if (cfg_.max_solution_norm <= 0.0) return;
  const double unorm = linalg::norm2(U);
  if (!(unorm <= cfg_.max_solution_norm)) {  // catches NaN too
    SolverFault f;
    f.type = FaultType::kSolutionDiverged;
    f.site = site;
    f.value = unorm;
    f.newton_step = newton_step_;
    f.evaluation = evaluation;
    f.message = "solution norm out of bounds on evaluation input";
    throw SolverFaultError(std::move(f));
  }
}

void GuardedProblem::residual(const std::vector<double>& U,
                              std::vector<double>& F) {
  const std::size_t eval = residual_evals_++;
  check_input(U, FaultSite::kResidual, eval);
  inner_->residual(U, F);
  if (injector_ != nullptr && injector_->fire(FaultSite::kResidual)) {
    F[injector_->target_dof(F.size())] = injector_->poison();
  }
  if (cfg_.check_finite) {
    const std::ptrdiff_t bad = linalg::first_non_finite(F);
    if (bad >= 0) {
      throw_non_finite(FaultType::kNonFiniteResidual, FaultSite::kResidual,
                       static_cast<std::size_t>(bad),
                       F[static_cast<std::size_t>(bad)], newton_step_, eval,
                       "non-finite entry in residual evaluation");
    }
  }
}

void GuardedProblem::residual_and_jacobian(const std::vector<double>& U,
                                           std::vector<double>& F,
                                           linalg::CrsMatrix& J) {
  const std::size_t eval = jacobian_evals_++;
  check_input(U, FaultSite::kJacobianAssembly, eval);
  inner_->residual_and_jacobian(U, F, J);
  if (injector_ != nullptr &&
      injector_->fire(FaultSite::kJacobianAssembly)) {
    F[injector_->target_dof(F.size())] = injector_->poison();
  }
  if (cfg_.check_finite) {
    const std::ptrdiff_t bad = linalg::first_non_finite(F);
    if (bad >= 0) {
      throw_non_finite(FaultType::kNonFiniteResidual,
                       FaultSite::kJacobianAssembly,
                       static_cast<std::size_t>(bad),
                       F[static_cast<std::size_t>(bad)], newton_step_, eval,
                       "non-finite residual entry in Jacobian assembly");
    }
    check_matrix_finite(J, FaultSite::kJacobianAssembly, newton_step_, eval,
                        "non-finite entry in assembled Jacobian values");
  }
}

std::unique_ptr<linalg::LinearOperator> GuardedProblem::jacobian_operator(
    const std::vector<double>& U) {
  auto op = inner_->jacobian_operator(U);
  if (op == nullptr) return nullptr;
  return std::make_unique<GuardedOperator>(std::move(op), cfg_, injector_,
                                           &newton_step_);
}

// ---- GuardedPreconditioner --------------------------------------------

void GuardedPreconditioner::maybe_inject() {
  if (injector_ != nullptr && injector_->fire(FaultSite::kPrecondSetup)) {
    SolverFault f;
    f.type = FaultType::kPrecondSetupFailure;
    f.site = FaultSite::kPrecondSetup;
    f.evaluation = injector_->count(FaultSite::kPrecondSetup) - 1;
    f.message = std::string("injected preconditioner-setup failure (") +
                inner_->name() + ")";
    throw SolverFaultError(std::move(f));
  }
}

void GuardedPreconditioner::compute(const linalg::CrsMatrix& A) {
  maybe_inject();
  inner_->compute(A);
}

void GuardedPreconditioner::compute(const linalg::LinearOperator& A) {
  maybe_inject();
  inner_->compute(A);
}

}  // namespace mali::resilience
