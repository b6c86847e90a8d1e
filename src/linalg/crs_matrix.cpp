#include "linalg/crs_matrix.hpp"

#include <cmath>
#include <limits>

#include "portability/parallel.hpp"

namespace mali::linalg {

CrsGraph CrsGraph::scalar(const std::vector<std::size_t>& row_ptr,
                          const std::vector<std::size_t>& cols) {
  MALI_CHECK(!row_ptr.empty() && row_ptr.back() == cols.size());
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  MALI_CHECK_MSG(cols.size() <= kMax && row_ptr.size() - 1 <= kMax,
                 "CrsGraph: the pattern exceeds 32-bit rows or entries");
  CrsGraph g;
  g.brp.assign(row_ptr.begin(), row_ptr.end());
  g.bcols.reserve(cols.size());
  for (const std::size_t c : cols) {
    MALI_CHECK_MSG(c <= kMax, "CrsGraph: column exceeds 32 bits");
    g.bcols.push_back(static_cast<std::uint32_t>(c));
  }
  return g;
}

std::size_t CrsGraph::find(std::size_t r, std::size_t c) const {
  const std::size_t b = static_cast<std::size_t>(block);
  const std::size_t I = r / b, J = c / b;
  const auto first = bcols.begin() + brp[I];
  const auto last = bcols.begin() + brp[I + 1];
  const auto it = std::lower_bound(first, last, J);
  if (it == last || *it != J) return npos;
  return row_begin(r) + b * static_cast<std::size_t>(it - first) + c % b;
}

std::vector<std::size_t> CrsGraph::scalar_row_ptr() const {
  if (brp.empty()) return {};
  std::vector<std::size_t> rp(n_rows() + 1);
  for (std::size_t r = 0; r <= n_rows(); ++r) rp[r] = row_begin(r);
  return rp;
}

std::vector<std::size_t> CrsGraph::scalar_cols() const {
  std::vector<std::size_t> cols(nnz());
  for (std::size_t r = 0; r < n_rows(); ++r) {
    for_row(r, [&](std::size_t k, std::size_t c) { cols[k] = c; });
  }
  return cols;
}

void CrsMatrix::apply(const std::vector<double>& x,
                      std::vector<double>& y) const {
  MALI_CHECK(x.size() == n_rows());
  y.resize(n_rows());  // every row is written below
  const CrsGraph& g = *graph_;
  const double* vs = vals_.data();
  const double* xs = x.data();
  double* ys = y.data();
  with_block(g, [&](auto B) {
    constexpr int kB = decltype(B)::value;
    pk::parallel_for("crs_apply", g.n_node_rows(), [&](int ii) {
      const auto I = static_cast<std::size_t>(ii);
      double acc[kB];
      node_row_dot<kB>(g, vs, I, xs, acc);
      for (int c = 0; c < kB; ++c) ys[kB * I + c] = acc[c];
    });
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
