#pragma once
// Compressed-row sparse matrix on a shared, immutable sparsity graph (built
// once from the FE connectivity, as Trilinos' Tpetra graphs are) plus the
// dense-vector helpers the Krylov solvers need.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "portability/common.hpp"

namespace mali::linalg {

/// CRS sparsity graph, column indices sorted within a row.  Held as
/// shared_ptr<const CrsGraph>: immutable once built, so its address names it
/// and a structure built for it (CRS slot tables, the AMG hierarchy) serves
/// every matrix that shares the pointer.
struct CrsGraph {
  std::vector<std::size_t> row_ptr;
  std::vector<std::size_t> cols;
};

/// Values over a shared graph: a copy shares the graph and copies the values.
class CrsMatrix {
 public:
  CrsMatrix() : graph_(std::make_shared<const CrsGraph>()) {}

  explicit CrsMatrix(std::shared_ptr<const CrsGraph> graph)
      : graph_(std::move(graph)) {
    MALI_CHECK(graph_ != nullptr && !graph_->row_ptr.empty());
    MALI_CHECK(graph_->row_ptr.back() == graph_->cols.size());
    vals_.assign(graph_->cols.size(), 0.0);
  }

  /// A matrix on a new graph made from the two arrays.
  CrsMatrix(std::vector<std::size_t> row_ptr, std::vector<std::size_t> cols)
      : CrsMatrix(std::make_shared<const CrsGraph>(
            CrsGraph{std::move(row_ptr), std::move(cols)})) {}

  [[nodiscard]] const std::shared_ptr<const CrsGraph>& graph() const noexcept {
    return graph_;
  }

  [[nodiscard]] std::size_t n_rows() const noexcept {
    return row_ptr().empty() ? 0 : row_ptr().size() - 1;
  }
  [[nodiscard]] std::size_t nnz() const noexcept { return cols().size(); }

  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const noexcept {
    return graph_->row_ptr;
  }
  [[nodiscard]] const std::vector<std::size_t>& cols() const noexcept {
    return graph_->cols;
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return vals_;
  }
  [[nodiscard]] std::vector<double>& values() noexcept { return vals_; }

  /// Index into values() of entry (r, c); throws mali::Error when the graph
  /// lacks the entry.
  [[nodiscard]] std::size_t slot(std::size_t r, std::size_t c) const {
    return find_existing(r, c);
  }

  void set_zero() { std::fill(vals_.begin(), vals_.end(), 0.0); }

  /// Adds v at (r, c); throws mali::Error when the graph lacks the entry.
  void add(std::size_t r, std::size_t c, double v) {
    vals_[find_existing(r, c)] += v;
  }

  /// Sets (r, c) = v; throws mali::Error when the graph lacks the entry.
  void set(std::size_t r, std::size_t c, double v) {
    vals_[find_existing(r, c)] = v;
  }

  [[nodiscard]] double get(std::size_t r, std::size_t c) const {
    const std::size_t k = find(r, c);
    return k == npos ? 0.0 : vals_[k];
  }

  /// Replaces row r with the identity row (Dirichlet rows).
  void set_identity_row(std::size_t r) {
    for (std::size_t k = row_ptr()[r]; k < row_ptr()[r + 1]; ++k) {
      vals_[k] = cols()[k] == r ? 1.0 : 0.0;
    }
  }

  /// y = A x.
  void apply(const std::vector<double>& x, std::vector<double>& y) const;

  [[nodiscard]] double diagonal(std::size_t r) const { return get(r, r); }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  /// find(r, c), throwing instead of returning npos: a write outside the
  /// graph is a caller bug (a graph that misses a coupling) and must not
  /// become an out-of-bounds store.
  [[nodiscard]] std::size_t find_existing(std::size_t r, std::size_t c) const {
    MALI_CHECK_MSG(r < n_rows(), "CrsMatrix: row out of range");
    const std::size_t k = find(r, c);
    MALI_CHECK_MSG(k != npos, "CrsMatrix: entry (" + std::to_string(r) +
                                  ", " + std::to_string(c) +
                                  ") is not in the sparsity graph");
    return k;
  }

  /// Binary search for column c in row r.
  [[nodiscard]] std::size_t find(std::size_t r, std::size_t c) const {
    std::size_t lo = row_ptr()[r];
    std::size_t hi = row_ptr()[r + 1];
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cols()[mid] < c) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return (lo < row_ptr()[r + 1] && cols()[lo] == c) ? lo : npos;
  }

  std::shared_ptr<const CrsGraph> graph_;
  std::vector<double> vals_;
};

// ---- dense vector helpers ----

[[nodiscard]] double dot(const std::vector<double>& a,
                         const std::vector<double>& b);
[[nodiscard]] double norm2(const std::vector<double>& a);
/// y += alpha * x
void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y);
/// x *= alpha
void scale(double alpha, std::vector<double>& x);

}  // namespace mali::linalg
