#include "linalg/banded_lu.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace mali::linalg {

void BandedLu::factor(const CrsMatrix& A) {
  const std::size_t n = A.n_rows();
  const CrsGraph& g = *A.graph();
  const auto& vs = A.values();
  n_ = 0;  // not factored until the last pivot is in
  kl_ = 0;
  ku_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    g.for_row(i, [&](std::size_t, std::size_t c) {
      MALI_CHECK_MSG(c < n, "banded LU requires a square matrix");
      kl_ = std::max(kl_, i > c ? i - c : 0);
      ku_ = std::max(ku_, c > i ? c - i : 0);
    });
  }
  ld_ = 2 * kl_ + ku_ + 1;
  ab_.assign(ld_ * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    g.for_row(i, [&](std::size_t k, std::size_t c) { ab_[at(i, c)] = vs[k]; });
  }
  piv_.assign(n, 0);

  double* ab = ab_.data();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t last_row = std::min(n - 1, k + kl_);
    const std::size_t last_col = std::min(n - 1, k + kl_ + ku_);
    std::size_t p = k;
    double best = std::abs(ab[at(k, k)]);
    for (std::size_t i = k + 1; i <= last_row; ++i) {
      const double v = std::abs(ab[at(i, k)]);
      if (v > best) {
        best = v;
        p = i;
      }
    }
    MALI_CHECK_MSG(best > 0.0, "banded LU: singular matrix");
    piv_[k] = p;
    if (p != k) {
      for (std::size_t j = k; j <= last_col; ++j) {
        std::swap(ab[at(k, j)], ab[at(p, j)]);
      }
    }
    double* lk = ab + at(0, k);  // lk[i] is entry (i, k)
    const double inv = 1.0 / lk[k];
    for (std::size_t i = k + 1; i <= last_row; ++i) lk[i] *= inv;
    for (std::size_t j = k + 1; j <= last_col; ++j) {
      double* cj = ab + at(0, j);  // cj[i] is entry (i, j)
      const double akj = cj[k];
      if (akj == 0.0) continue;
      for (std::size_t i = k + 1; i <= last_row; ++i) cj[i] -= lk[i] * akj;
    }
  }
  n_ = n;
}

void BandedLu::solve(std::vector<double>& x) const {
  MALI_CHECK_MSG(factored(), "solve() before factor()");
  MALI_CHECK(x.size() == n_);
  const double* ab = ab_.data();
  double* xs = x.data();
  // L: each row swap, then its column's eliminations.
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t p = piv_[k];
    if (p != k) std::swap(xs[k], xs[p]);
    const double* lk = ab + at(0, k);
    const std::size_t last_row = std::min(n_ - 1, k + kl_);
    for (std::size_t i = k + 1; i <= last_row; ++i) xs[i] -= lk[i] * xs[k];
  }
  // U: column-oriented back substitution over the kl + ku band above.
  const std::size_t ub = kl_ + ku_;
  for (std::size_t k = n_; k-- > 0;) {
    const double* uk = ab + at(0, k);
    xs[k] /= uk[k];
    for (std::size_t i = k > ub ? k - ub : 0; i < k; ++i) {
      xs[i] -= uk[i] * xs[k];
    }
  }
}

}  // namespace mali::linalg
