#pragma once
// Preconditioner interface plus the pointwise preconditioners: Jacobi and
// symmetric Gauss–Seidel.  The semicoarsening multigrid (the
// MDSC-AMG stand-in) lives in semicoarsening_amg.hpp.

#include <memory>
#include <vector>

#include "linalg/crs_matrix.hpp"
#include "linalg/linear_operator.hpp"

namespace mali::linalg {

/// Applies z = M^{-1} r.  `compute` must be called after matrix values
/// change (the graph is fixed).
///
/// Preconditioners may be computed either from an assembled CrsMatrix (the
/// classic entry point) or from a LinearOperator.  The operator overload
/// defaults to unwrapping `A.matrix()` when one exists; preconditioners
/// that only need the (block) diagonal override it to use the operator's
/// diagonal extraction, so they also work on matrix-free operators.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void compute(const CrsMatrix& A) = 0;
  /// Computes the preconditioner from an operator.  The default requires an
  /// assembled matrix behind the operator and fails loudly otherwise —
  /// matrix-dependent preconditioners (SGS, AMG) cannot run
  /// matrix-free.
  virtual void compute(const LinearOperator& A) {
    MALI_CHECK_MSG(A.matrix() != nullptr,
                   "preconditioner requires an assembled matrix but the "
                   "operator is matrix-free");
    compute(*A.matrix());
  }
  virtual void apply(const std::vector<double>& r,
                     std::vector<double>& z) const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Identity (no preconditioning) — the Krylov baseline.
class IdentityPreconditioner final : public Preconditioner {
 public:
  using Preconditioner::compute;
  void compute(const CrsMatrix&) override {}
  void compute(const LinearOperator&) override {}
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override {
    z = r;
  }
  [[nodiscard]] const char* name() const override { return "none"; }
};

class JacobiPreconditioner final : public Preconditioner {
 public:
  using Preconditioner::compute;
  void compute(const CrsMatrix& A) override;
  /// Uses LinearOperator::diagonal, so this works matrix-free.
  void compute(const LinearOperator& A) override;
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override;
  [[nodiscard]] const char* name() const override { return "jacobi"; }

 private:
  std::vector<double> inv_diag_;
};

/// Symmetric Gauss–Seidel: one forward and one backward sweep.
class SymGaussSeidelPreconditioner final : public Preconditioner {
 public:
  explicit SymGaussSeidelPreconditioner(int sweeps = 1) : sweeps_(sweeps) {}
  using Preconditioner::compute;  // operator form: requires A.matrix()
  void compute(const CrsMatrix& A) override;
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override;
  [[nodiscard]] const char* name() const override { return "sgs"; }

 private:
  int sweeps_;
  const CrsMatrix* A_ = nullptr;
  std::vector<double> inv_diag_;
};

}  // namespace mali::linalg
