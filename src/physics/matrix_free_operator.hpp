#pragma once
// MatrixFreeStokesOperator — the Blatter–Pattyn Jacobian as a
// linalg::LinearOperator whose apply runs the per-element tangent kernel
// (physics/stokes_jacobian_apply.hpp) instead of streaming an assembled CRS
// matrix.  `linearize(U)` builds the quadrature-point tangent cache — the
// map inverse, the velocity gradient, the viscosity and its Glen's-law
// derivative factor at every quadrature point — so each apply gathers only
// the direction and evaluates the derivative half of the chain.  It also
// extracts the per-node 2x2 block diagonal (via the SFad<16> element
// Jacobian) so Jacobi / block-Jacobi preconditioners can be built without
// ever forming the global matrix; Dirichlet rows act as
// y[d] = dirichlet_scale * x[d], identically to the assembled path's
// scaled identity rows.
//
// assemble(A) writes the same Jacobian onto a given sparsity graph from
// the cache (the element tangents on the 16 local unit directions), which
// is how the semicoarsening AMG gets its fine matrix on this path.
//
// The cache is a snapshot of the problem at linearize(): apply and
// assemble throw StaleLinearizationError once the problem's revision() has
// moved (new constants, regularization, friction scale or temperature
// field).
//
// The apply honors StokesFOConfig::simd_width: the cache is laid out for,
// and the tangent runs over, width-W cell packs (W = 1 at --simd off), and
// a lane's arithmetic does not depend on W (asserted in
// tests/test_simd_batch.cpp), so Krylov trajectories are the same at every
// width.

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/linear_operator.hpp"
#include "physics/stokes_fo_problem.hpp"

namespace mali::physics {

class MatrixFreeStokesOperator final : public linalg::LinearOperator {
 public:
  /// The problem must outlive the operator.  Call linearize() before apply.
  explicit MatrixFreeStokesOperator(StokesFOProblem& problem);

  /// Freezes the linearization state U, builds the tangent cache and
  /// extracts the block diagonal (which also refreshes the problem's
  /// Dirichlet row scale).
  void linearize(const std::vector<double>& U);

  [[nodiscard]] std::size_t rows() const override;
  [[nodiscard]] std::size_t cols() const override;

  /// y = J(U) x via the per-element tangent over the cache; no global
  /// matrix.  Throws StaleLinearizationError if the problem changed since
  /// linearize().
  void apply(const std::vector<double>& x,
             std::vector<double>& y) const override;

  /// Writes J(U) onto A's graph from the tangent cache (see
  /// StokesFOProblem::assemble_tangent) and returns true: bitwise the
  /// matrix colored probing reads, without the probe applies.  Throws
  /// StaleLinearizationError like apply(), and mali::Error when A has the
  /// wrong size or its graph misses an element coupling.
  bool assemble(linalg::CrsMatrix& A) const override;

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
  TangentCache lin_;            ///< quadrature-point tangent cache
  bool linearized_ = false;
};

}  // namespace mali::physics
