#include "linalg/preconditioner.hpp"

#include <cmath>

#include "portability/common.hpp"

namespace mali::linalg {

// ---- Jacobi ----

void JacobiPreconditioner::compute(const CrsMatrix& A) {
  const std::size_t n = A.n_rows();
  inv_diag_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const double d = A.diagonal(r);
    MALI_CHECK_MSG(d != 0.0, "Jacobi: zero diagonal");
    inv_diag_[r] = 1.0 / d;
  }
}

void JacobiPreconditioner::compute(const LinearOperator& A) {
  std::vector<double> d;
  MALI_CHECK_MSG(A.diagonal(d), "Jacobi: operator cannot extract diagonal");
  const std::size_t n = A.rows();
  MALI_CHECK(d.size() == n);
  inv_diag_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    MALI_CHECK_MSG(d[r] != 0.0, "Jacobi: zero diagonal");
    inv_diag_[r] = 1.0 / d[r];
  }
}

void JacobiPreconditioner::apply(const std::vector<double>& r,
                                 std::vector<double>& z) const {
  z.resize(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = inv_diag_[i] * r[i];
}

// ---- symmetric Gauss–Seidel ----

void SymGaussSeidelPreconditioner::compute(const CrsMatrix& A) {
  A_ = &A;
  const std::size_t n = A.n_rows();
  inv_diag_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const double d = A.diagonal(r);
    MALI_CHECK_MSG(d != 0.0, "SGS: zero diagonal");
    inv_diag_[r] = 1.0 / d;
  }
}

void SymGaussSeidelPreconditioner::apply(const std::vector<double>& r,
                                         std::vector<double>& z) const {
  MALI_CHECK(A_ != nullptr);
  const CrsGraph& g = *A_->graph();
  const auto& vs = A_->values();
  const std::size_t n = A_->n_rows();
  z.assign(n, 0.0);
  // Row i in place: each row reads the rows relaxed before it, so the
  // rows of a node row relax one after the other.
  const auto relax = [&](std::size_t i) {
    double acc = r[i];
    g.for_row(i, [&](std::size_t k, std::size_t c) {
      if (c != i) acc -= vs[k] * z[c];
    });
    z[i] = acc * inv_diag_[i];
  };
  for (int s = 0; s < sweeps_; ++s) {
    for (std::size_t i = 0; i < n; ++i) relax(i);
    for (std::size_t i = n; i-- > 0;) relax(i);
  }
}

}  // namespace mali::linalg
