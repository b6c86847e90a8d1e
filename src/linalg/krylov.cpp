#include "linalg/krylov.hpp"

#include <cmath>
#include <cstdio>

#include "portability/common.hpp"

namespace mali::linalg {

namespace {

/// ||b - A x|| / ||b|| recomputed from scratch — breakdown exits report
/// this instead of whatever the recurrence last produced.
double true_rel_residual(const LinearOperator& A, const std::vector<double>& b,
                         const std::vector<double>& x, double bnorm,
                         std::vector<double>& scratch, const InnerProduct& ip) {
  A.apply(x, scratch);
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    scratch[i] = b[i] - scratch[i];
  }
  return ip.norm2(scratch) / bnorm;
}

}  // namespace

KrylovResult ConjugateGradient::solve(const LinearOperator& A,
                                      const Preconditioner& M,
                                      const std::vector<double>& b,
                                      std::vector<double>& x) const {
  const std::size_t n = A.rows();
  MALI_CHECK_MSG(A.cols() == n, "CG requires a square operator");
  MALI_CHECK(b.size() == n);
  if (x.size() != n) x.assign(n, 0.0);

  KrylovResult result;
  const InnerProduct& ip = inner_or_default(cfg_.inner);
  const double bnorm = ip.norm2(b);
  if (bnorm == 0.0) {
    x.assign(n, 0.0);
    result.converged = true;
    return result;
  }
  if (!std::isfinite(bnorm)) {
    result.breakdown = true;
    result.reason = "non-finite right-hand side norm";
    result.rel_residual = bnorm;
    return result;
  }

  std::vector<double> r(n), z(n), p(n), Ap(n);
  A.apply(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  M.apply(r, z);
  p = z;
  double rz = ip.dot(r, z);

  auto fail = [&](const char* reason) {
    result.breakdown = true;
    result.reason = reason;
    result.rel_residual = true_rel_residual(A, b, x, bnorm, Ap, ip);
    result.converged = result.rel_residual < cfg_.rel_tol;
    return result;
  };

  for (std::size_t it = 0; it < cfg_.max_iters; ++it) {
    A.apply(p, Ap);
    const double pAp = ip.dot(p, Ap);
    // Negative (or zero, or NaN) curvature: the operator is not positive
    // definite, so the CG recurrences are meaningless from here on.  Report
    // the breakdown instead of aborting the process.
    if (!(pAp > 0.0)) {
      return fail("indefinite operator: p^T A p <= 0");
    }
    const double alpha = rz / pAp;
    axpy(alpha, p, x);
    axpy(-alpha, Ap, r);
    result.iterations = it + 1;
    result.rel_residual = ip.norm2(r) / bnorm;
    if (!std::isfinite(result.rel_residual)) {
      // A NaN/Inf crept into the recurrence (poisoned operator output or
      // preconditioner): report a typed breakdown instead of iterating on
      // garbage to the cap.
      return fail("non-finite residual norm (NaN/Inf in operator or "
                  "preconditioner output)");
    }
    if (cfg_.verbose && it % 25 == 0) {
      std::printf("  cg iter %4zu rel res %.3e\n", it + 1,
                  result.rel_residual);
    }
    if (result.rel_residual < cfg_.rel_tol) {
      result.converged = true;
      return result;
    }
    M.apply(r, z);
    const double rz_new = ip.dot(r, z);
    if (rz_new == 0.0 || !std::isfinite(rz_new)) {
      // r != 0 but z^T r vanished: the preconditioner is not SPD on this
      // residual and beta would be 0/0 or garbage.
      return fail("preconditioner breakdown: z^T r == 0 with r != 0");
    }
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return result;
}

}  // namespace mali::linalg
