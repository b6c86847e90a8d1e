#pragma once
// Abstract linear-operator interface for the Krylov solvers.
//
// The paper's time-oriented model bounds solver cost by HBM bytes moved, and
// in the assembled path the dominant steady-state traffic is streaming the
// CRS Jacobian through GMRES every iteration.  Abstracting the solvers over
// `y = A x` (instead of a concrete CrsMatrix) lets a matrix-free Jacobian
// apply remove that stream entirely: the operator recomputes the action of J
// per element from the solution state, and no global matrix is ever formed.
//
// Contract (see DESIGN.md §9):
//  * `apply(x, y)` computes y = A x.  `x` and `y` must be distinct vectors
//    (aliased in/out is rejected), `x.size() == cols()`, and `y` is resized
//    to `rows()` and fully overwritten.
//  * `diagonal` / `block_diagonal` are optional capabilities (return false
//    when unsupported) used to build Jacobi-type preconditioners without an
//    assembled matrix.
//  * `assemble(A)` is the optional capability matrix-dependent
//    preconditioners use on the matrix-free path: the operator writes its
//    own entries onto A's given sparsity graph (which must cover every
//    coupling) and returns true, or returns false when it cannot.  The
//    semicoarsening AMG falls back to colored operator probing
//    (linalg/operator_probing.hpp) for operators without it.
//  * `matrix()` exposes the underlying CrsMatrix when one exists, so
//    matrix-dependent preconditioners (SGS, AMG) can keep working on
//    the assembled path and fail loudly on the matrix-free one.

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "linalg/crs_matrix.hpp"
#include "portability/common.hpp"

namespace mali::linalg {

/// Index of the first NaN/Inf entry of v, or -1 when every entry is
/// finite.  The validation primitive behind the resilience guards and the
/// Krylov solvers' non-finite breakdown exits (a single poisoned entry in
/// an operator-apply output would otherwise contaminate every subsequent
/// inner product silently).
[[nodiscard]] inline std::ptrdiff_t first_non_finite(
    const std::vector<double>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  [[nodiscard]] virtual std::size_t rows() const = 0;
  [[nodiscard]] virtual std::size_t cols() const = 0;

  /// y = A x.  Implementations must MALI_CHECK that x and y are distinct
  /// (the apply overwrites y while still reading x) and that sizes match.
  virtual void apply(const std::vector<double>& x,
                     std::vector<double>& y) const = 0;

  /// Writes the operator diagonal into d (resized to rows()) and returns
  /// true, or returns false if the implementation cannot extract it.
  virtual bool diagonal(std::vector<double>& d) const {
    (void)d;
    return false;
  }

  /// Writes the bs x bs block diagonal (row-major blocks, rows()/bs of
  /// them, so blocks.size() == rows()*bs) and returns true, or false if
  /// unsupported.  rows() must be divisible by bs.
  virtual bool block_diagonal(int bs, std::vector<double>& blocks) const {
    (void)bs;
    (void)blocks;
    return false;
  }

  /// Overwrites A's values with the operator's entries on A's graph and
  /// returns true, or returns false if unsupported.  A must be
  /// rows() x cols() and its graph must hold every nonzero of the operator
  /// (entries absent from the operator become 0); implementations throw
  /// mali::Error otherwise.
  virtual bool assemble(CrsMatrix& A) const {
    (void)A;
    return false;
  }

  /// The assembled matrix behind this operator, or nullptr if none exists
  /// (matrix-free).  Matrix-dependent preconditioners use this to keep the
  /// assembled path unchanged.
  [[nodiscard]] virtual const CrsMatrix* matrix() const { return nullptr; }

  [[nodiscard]] virtual const char* name() const = 0;
};

/// The assembled CRS path as one LinearOperator implementation: wraps a
/// CrsMatrix by reference (the matrix must outlive the operator).
class AssembledOperator final : public LinearOperator {
 public:
  explicit AssembledOperator(const CrsMatrix& A) : A_(&A) {}

  [[nodiscard]] std::size_t rows() const override { return A_->n_rows(); }
  [[nodiscard]] std::size_t cols() const override { return A_->n_rows(); }

  void apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    MALI_CHECK_MSG(&x != &y, "AssembledOperator::apply: aliased in/out");
    MALI_CHECK(x.size() == cols());
    A_->apply(x, y);
  }

  bool diagonal(std::vector<double>& d) const override {
    const std::size_t n = A_->n_rows();
    d.resize(n);
    for (std::size_t i = 0; i < n; ++i) d[i] = A_->diagonal(i);
    return true;
  }

  bool block_diagonal(int bs, std::vector<double>& blocks) const override {
    const std::size_t n = A_->n_rows();
    MALI_CHECK(bs > 0 && n % static_cast<std::size_t>(bs) == 0);
    const auto ubs = static_cast<std::size_t>(bs);
    blocks.assign(n * ubs, 0.0);
    for (std::size_t block = 0; block < n / ubs; ++block) {
      for (std::size_t i = 0; i < ubs; ++i) {
        for (std::size_t j = 0; j < ubs; ++j) {
          blocks[(block * ubs + i) * ubs + j] =
              A_->get(block * ubs + i, block * ubs + j);
        }
      }
    }
    return true;
  }

  [[nodiscard]] const CrsMatrix* matrix() const override { return A_; }

  [[nodiscard]] const char* name() const override { return "assembled"; }

 private:
  const CrsMatrix* A_;
};

/// Which Jacobian the Newton solve uses: an assembled CRS matrix (the
/// classic path) or a matrix-free per-element apply (JFNK-style, but with
/// the exact element tangent rather than a finite-difference one).
enum class JacobianMode { kAssembled, kMatrixFree };

[[nodiscard]] inline const char* to_string(JacobianMode m) {
  switch (m) {
    case JacobianMode::kAssembled:
      return "assembled";
    case JacobianMode::kMatrixFree:
      return "matrix-free";
  }
  return "?";
}

[[nodiscard]] inline JacobianMode jacobian_mode_from_string(
    const std::string& s) {
  if (s == "assembled") return JacobianMode::kAssembled;
  if (s == "matrix-free" || s == "matrixfree" || s == "mf") {
    return JacobianMode::kMatrixFree;
  }
  throw Error("unknown jacobian mode: " + s +
              " (expected assembled|matrix-free)");
}

}  // namespace mali::linalg
