#pragma once
// Compressed-row sparse matrix with a fixed sparsity graph (built once from
// the FE connectivity, as Trilinos' Tpetra graphs are) plus the dense-vector
// helpers the Krylov solvers need.

#include <cstddef>
#include <string>
#include <vector>

#include "portability/atomic.hpp"
#include "portability/common.hpp"

namespace mali::linalg {

class CrsMatrix {
 public:
  CrsMatrix() = default;

  /// Takes a prebuilt graph; column indices within a row must be sorted.
  CrsMatrix(std::vector<std::size_t> row_ptr, std::vector<std::size_t> cols)
      : row_ptr_(std::move(row_ptr)), cols_(std::move(cols)) {
    MALI_CHECK(!row_ptr_.empty());
    MALI_CHECK(row_ptr_.back() == cols_.size());
    vals_.assign(cols_.size(), 0.0);
  }

  [[nodiscard]] std::size_t n_rows() const noexcept {
    return row_ptr_.empty() ? 0 : row_ptr_.size() - 1;
  }
  [[nodiscard]] std::size_t nnz() const noexcept { return cols_.size(); }

  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::size_t>& cols() const noexcept {
    return cols_;
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return vals_;
  }
  [[nodiscard]] std::vector<double>& values() noexcept { return vals_; }

  void set_zero() { std::fill(vals_.begin(), vals_.end(), 0.0); }

  /// Adds v at (r, c); throws mali::Error when the graph lacks the entry.
  void add(std::size_t r, std::size_t c, double v) {
    vals_[find_existing(r, c)] += v;
  }

  /// Adds v at (r, c) with an atomic read-modify-write on the stored value —
  /// the lock-free scatter path used when concurrent cells may share rows
  /// (ScatterMode::kAtomic).  The graph itself is immutable, so only the
  /// value update needs to be atomic.
  void add_atomic(std::size_t r, std::size_t c, double v) {
    pk::atomic_add(&vals_[find_existing(r, c)], v);
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
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      vals_[k] = cols_[k] == r ? 1.0 : 0.0;
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
    std::size_t lo = row_ptr_[r];
    std::size_t hi = row_ptr_[r + 1];
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cols_[mid] < c) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return (lo < row_ptr_[r + 1] && cols_[lo] == c) ? lo : npos;
  }

  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> cols_;
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
