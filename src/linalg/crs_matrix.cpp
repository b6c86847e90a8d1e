#include "linalg/crs_matrix.hpp"

#include <cmath>

#include "portability/parallel.hpp"

namespace mali::linalg {

void CrsMatrix::apply(const std::vector<double>& x,
                      std::vector<double>& y) const {
  MALI_CHECK(x.size() == n_rows());
  y.resize(n_rows());  // every row is written below
  const auto* rp = row_ptr().data();
  const auto* cs = cols().data();
  const auto* vs = vals_.data();
  pk::parallel_for("crs_apply", n_rows(), [&, rp, cs, vs](int ri) {
    const auto r = static_cast<std::size_t>(ri);
    double acc = 0.0;
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      acc += vs[k] * x[cs[k]];
    }
    y[r] = acc;
  });
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  MALI_CHECK(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  MALI_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(double alpha, std::vector<double>& x) {
  for (auto& v : x) v *= alpha;
}

}  // namespace mali::linalg
