#pragma once
// Preconditioned conjugate gradients, for the SPD systems that arise in
// diagnostic solves.  The nonsymmetric Stokes Jacobians go through GMRES
// (gmres.hpp) or its pipelined variant (pipelined_krylov.hpp).
//
// Failure contract: on well-formed inputs (square operator, size-consistent
// right-hand side) `solve()` never aborts the process.  Algorithmic
// breakdowns — an indefinite operator or preconditioner, a non-finite
// residual — are reported through `KrylovResult`: the
// `breakdown` flag is set, `reason` names the failed invariant, and
// `rel_residual` is the *true* relative residual ||b - A x|| / ||b|| at the
// returned iterate (never a stale recurrence value).

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/crs_matrix.hpp"
#include "linalg/inner_product.hpp"
#include "linalg/linear_operator.hpp"
#include "linalg/preconditioner.hpp"

namespace mali::linalg {

struct KrylovConfig {
  double rel_tol = 1.0e-8;
  std::size_t max_iters = 2000;
  bool verbose = false;
  /// Optional reduced inner product (distributed runs inject a rank-reduced
  /// one so all dots/norms — and therefore all branches — agree across
  /// ranks).  nullptr -> all-entry serial reduction.
  const InnerProduct* inner = nullptr;
};

struct KrylovResult {
  bool converged = false;
  std::size_t iterations = 0;
  double rel_residual = 0.0;
  /// True when the iteration stopped on an algorithmic breakdown (e.g. CG
  /// on an indefinite operator, a NaN/Inf in the recurrence) rather than
  /// convergence or the iteration cap; `reason` says which.  A
  /// breakdown at an already-converged iterate still sets `converged`.
  bool breakdown = false;
  std::string reason;
};

/// Preconditioned conjugate gradients; requires A SPD and M SPD.
class ConjugateGradient {
 public:
  explicit ConjugateGradient(KrylovConfig cfg = {}) : cfg_(cfg) {}
  KrylovResult solve(const LinearOperator& A, const Preconditioner& M,
                     const std::vector<double>& b,
                     std::vector<double>& x) const;
  KrylovResult solve(const CrsMatrix& A, const Preconditioner& M,
                     const std::vector<double>& b,
                     std::vector<double>& x) const {
    return solve(AssembledOperator(A), M, b, x);
  }

 private:
  KrylovConfig cfg_;
};

}  // namespace mali::linalg
