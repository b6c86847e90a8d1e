#include "physics/matrix_free_operator.hpp"

#include "physics/stokes_fo_problem.hpp"
#include "portability/common.hpp"

namespace mali::physics {

MatrixFreeStokesOperator::MatrixFreeStokesOperator(StokesFOProblem& problem)
    : problem_(&problem) {}

void MatrixFreeStokesOperator::linearize(const std::vector<double>& U) {
  MALI_CHECK(U.size() == problem_->n_dofs());
  U_ = U;
  // The block diagonal refreshes the Dirichlet row scale the cache records.
  blocks_ = problem_->jacobian_block_diagonal(U_);
  problem_->linearize_tangent(U_, lin_);
  linearized_ = true;
}

std::size_t MatrixFreeStokesOperator::rows() const {
  return problem_->n_dofs();
}

std::size_t MatrixFreeStokesOperator::cols() const {
  return problem_->n_dofs();
}

void MatrixFreeStokesOperator::apply(const std::vector<double>& x,
                                     std::vector<double>& y) const {
  MALI_CHECK_MSG(linearized_, "MatrixFreeStokesOperator: call linearize()");
  MALI_CHECK_MSG(&x != &y, "MatrixFreeStokesOperator::apply: aliased in/out");
  MALI_CHECK(x.size() == cols());
  problem_->apply_tangent(lin_, x, y);
}

bool MatrixFreeStokesOperator::assemble(linalg::CrsMatrix& A) const {
  MALI_CHECK_MSG(linearized_, "MatrixFreeStokesOperator: call linearize()");
  problem_->assemble_tangent(lin_, A);
  return true;
}

bool MatrixFreeStokesOperator::diagonal(std::vector<double>& d) const {
  MALI_CHECK_MSG(linearized_, "MatrixFreeStokesOperator: call linearize()");
  const std::size_t n = rows();
  d.resize(n);
  // dof = 2*node + comp; its diagonal sits at block entry (comp, comp).
  for (std::size_t dof = 0; dof < n; ++dof) {
    const std::size_t node = dof / 2;
    const std::size_t comp = dof % 2;
    d[dof] = blocks_[node * 4 + comp * 2 + comp];
  }
  return true;
}

bool MatrixFreeStokesOperator::block_diagonal(
    int bs, std::vector<double>& blocks) const {
  MALI_CHECK_MSG(linearized_, "MatrixFreeStokesOperator: call linearize()");
  if (bs != 2) return false;  // the natural (u, v) per-node blocks only
  blocks = blocks_;
  return true;
}

}  // namespace mali::physics
