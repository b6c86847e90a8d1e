#pragma once
// MatrixFreeStokesOperator — the Blatter–Pattyn Jacobian as a
// linalg::LinearOperator whose apply runs the fused per-element tangent
// kernel (physics/stokes_jacobian_apply.hpp) instead of streaming an
// assembled CRS matrix.  `linearize(U)` freezes the linearization state and
// extracts the per-node 2x2 block diagonal (via the SFad<16> element
// Jacobian) so Jacobi / block-Jacobi preconditioners can be built without
// ever forming the global matrix; Dirichlet rows act as
// y[d] = dirichlet_scale * x[d], identically to the assembled path's
// scaled identity rows.
//
// The apply honors StokesFOConfig::simd_width: the delegated
// apply_jacobian runs the batched tangent over width-W cell packs (W = 1
// at --simd off), and a lane's arithmetic does not depend on W
// (asserted in tests/test_simd_batch.cpp), so Krylov trajectories are the
// same at every width.

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/linear_operator.hpp"

namespace mali::physics {

class StokesFOProblem;

class MatrixFreeStokesOperator final : public linalg::LinearOperator {
 public:
  /// The problem must outlive the operator.  Call linearize() before apply.
  explicit MatrixFreeStokesOperator(StokesFOProblem& problem);

  /// Freezes the linearization state U and extracts the block diagonal
  /// (which also refreshes the problem's Dirichlet row scale).
  void linearize(const std::vector<double>& U);

  [[nodiscard]] std::size_t rows() const override;
  [[nodiscard]] std::size_t cols() const override;

  /// y = J(U) x via the per-element SFad<1> tangent; no global matrix.
  void apply(const std::vector<double>& x,
             std::vector<double>& y) const override;

  bool diagonal(std::vector<double>& d) const override;
  bool block_diagonal(int bs, std::vector<double>& blocks) const override;

  [[nodiscard]] const linalg::CrsMatrix* matrix() const override {
    return nullptr;
  }
  [[nodiscard]] const char* name() const override { return "matrix-free"; }

  /// The frozen linearization state.
  [[nodiscard]] const std::vector<double>& state() const noexcept {
    return U_;
  }

 private:
  StokesFOProblem* problem_;
  std::vector<double> U_;       ///< linearization state
  std::vector<double> blocks_;  ///< per-node 2x2 diagonal blocks (row-major)
  bool linearized_ = false;
};

}  // namespace mali::physics
