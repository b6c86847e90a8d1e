#pragma once
// Chebyshev polynomial smoother — the matrix-free alternative to
// column-line relaxation inside the semicoarsening AMG.  One application
// runs a degree-k Chebyshev iteration on the diagonally preconditioned system
// D^{-1} A z = D^{-1} r, so it needs only (a) operator applies y = A x and
// (b) the diagonal of A — both available on the JFNK path without an
// assembled matrix (the diagonal comes from the colored probe or the
// operator's own extraction).  The smoothing interval [lambda_min,
// lambda_max] is estimated with a few power iterations on D^{-1} A,
// inflated by a safety factor, with the lower end a fixed fraction of the
// upper — the standard multigrid-smoother setup (Adams et al.; Ifpack2's
// Chebyshev does the same).

#include <cstddef>
#include <vector>

#include "linalg/crs_matrix.hpp"
#include "linalg/preconditioner.hpp"

namespace mali::linalg {

struct ChebyshevConfig {
  int degree = 3;           ///< operator applies per smoother application
  int power_iters = 10;     ///< power-iteration steps for lambda_max
  double boost = 1.1;       ///< safety factor on the lambda_max estimate
  double lower_frac = 0.3;  ///< lambda_min = lower_frac * lambda_max
  /// Raw lambda_max estimate to reuse instead of running the power
  /// iteration (<= 0 runs it).  The ensemble engine harvests
  /// lambda_estimate() from a neighbor member's smoother and feeds it back
  /// here; boost/lower_frac apply to the hint exactly as to a fresh
  /// estimate, so a hint equal to the fresh estimate is bit-identical.
  double lambda_hint = 0.0;
};

class ChebyshevSmoother final : public Preconditioner {
 public:
  explicit ChebyshevSmoother(ChebyshevConfig cfg = {}) : cfg_(cfg) {}

  /// Assembled path: applies use the matrix's SpMV, diagonal read directly.
  /// The matrix must outlive the smoother.
  void compute(const CrsMatrix& A) override;

  /// Operator path: unwraps A.matrix() when the operator wraps an
  /// assembled matrix (the matrix, not the possibly-temporary wrapper, is
  /// kept); otherwise requires A.diagonal() and the operator must outlive
  /// every subsequent apply().
  void compute(const LinearOperator& A) override;

  /// Operator path with an externally supplied diagonal (e.g. the probed
  /// fine-level diagonal the AMG already holds) — keeps the smoother usable
  /// on operators with no diagonal extraction of their own.
  void compute(const LinearOperator& A, std::vector<double> diag);

  /// z ~= A^{-1} r: degree-`cfg.degree` Chebyshev iteration from z = 0.
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override;

  [[nodiscard]] const char* name() const override { return "chebyshev"; }

  /// Estimated spectral bounds of D^{-1} A (after boost); for tests.
  [[nodiscard]] double lambda_max() const noexcept { return lmax_; }
  [[nodiscard]] double lambda_min() const noexcept { return lmin_; }
  /// Raw dominant-eigenvalue estimate before the boost factor — the value
  /// to pass as ChebyshevConfig::lambda_hint to skip the power iteration.
  [[nodiscard]] double lambda_estimate() const noexcept {
    return lambda_est_;
  }
  /// True when the last compute() used the hint (no power iteration ran).
  [[nodiscard]] bool used_hint() const noexcept { return used_hint_; }

 private:
  void finish_setup(std::vector<double> diag);
  void apply_op(const std::vector<double>& x, std::vector<double>& y) const;

  ChebyshevConfig cfg_;
  const CrsMatrix* mat_ = nullptr;
  const LinearOperator* op_ = nullptr;
  std::vector<double> inv_diag_;
  double lmax_ = 0.0, lmin_ = 0.0;
  double lambda_est_ = 0.0;
  bool used_hint_ = false;
  // Chebyshev scratch (apply is logically const).
  mutable std::vector<double> d_, res_, tmp_;
};

}  // namespace mali::linalg
