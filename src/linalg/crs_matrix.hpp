#pragma once
// Compressed-row sparse matrix on a shared, immutable sparsity graph (built
// once from the FE connectivity, as Trilinos' Tpetra graphs are) plus the
// dense-vector helpers the Krylov solvers need.
//
// Layout contract.  A CrsGraph is a node graph of `block` x `block` blocks:
// node row I stands for the scalar rows block*I .. block*I + block-1, which
// share one pattern, and each node column J it lists stands for the scalar
// columns block*J .. block*J + block-1.  Every graph the library builds for
// the 2-dof velocity (fem::DofMap's FE graph, StructuredProbing's lattice
// graph and every SemicoarseningAmg level above one) is node-paired, block
// 2, with one uint32_t column per 2x2 block; a general scalar pattern
// (CrsMatrix(row_ptr, cols)) is a graph of block 1.  The value array is the
// scalar CSR array whatever the block: scalar row block*I + c holds its
// block*nb entries (J_0,0), (J_0,1), ..., (J_{nb-1},block-1) from value
// index block^2*brp[I] + c*block*nb, where nb = brp[I+1] - brp[I].  So one
// pattern on a paired graph and on a block-1 graph indexes every value the
// same, and each kernel, one template over the block size, adds the same
// products in the same order on both.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "portability/common.hpp"

namespace mali::linalg {

/// Node graph of `block` x `block` blocks, node columns sorted within a
/// node row (see the layout contract above).  Held as
/// shared_ptr<const CrsGraph>: immutable once built, so its address names it
/// and a structure built for it (CRS slot tables, the AMG hierarchy) serves
/// every matrix that shares the pointer.
struct CrsGraph {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  int block = 1;                     ///< scalar rows per node row: 1 or 2
  std::vector<std::uint32_t> brp;    ///< node-row pointers into bcols
  std::vector<std::uint32_t> bcols;  ///< one node column per block

  /// The block-1 graph of a scalar CSR pattern, columns sorted per row.
  static CrsGraph scalar(const std::vector<std::size_t>& row_ptr,
                         const std::vector<std::size_t>& cols);

  [[nodiscard]] std::size_t n_node_rows() const noexcept {
    return brp.empty() ? 0 : brp.size() - 1;
  }
  [[nodiscard]] std::size_t n_rows() const noexcept {
    return static_cast<std::size_t>(block) * n_node_rows();
  }
  /// Scalar entries: block^2 per block.
  [[nodiscard]] std::size_t nnz() const noexcept {
    return brp.empty() ? 0 : sq() * brp.back();
  }

  /// Value index of scalar row r's first entry; row_begin(n_rows()) is
  /// nnz(), so [row_begin(r), row_begin(r + 1)) is row r.
  [[nodiscard]] std::size_t row_begin(std::size_t r) const noexcept {
    const std::size_t b = static_cast<std::size_t>(block);
    const std::size_t I = r / b, c = r % b;
    const std::size_t start = sq() * brp[I];
    return c == 0 ? start : start + c * b * (brp[I + 1] - brp[I]);
  }

  /// f(k, col) for every entry of scalar row r in order: k its value
  /// index, col its scalar column.
  template <class F>
  void for_row(std::size_t r, F&& f) const {
    if (block == 2) {
      visit_row<2>(r, f);
    } else {
      visit_row<1>(r, f);
    }
  }

  /// Value index of entry (r, c), or npos when the graph lacks it.
  [[nodiscard]] std::size_t find(std::size_t r, std::size_t c) const;

  /// The scalar CSR arrays of the pattern, built on each call (O(nnz)):
  /// for tests, and for rebuilding a pattern as a block-1 graph.
  [[nodiscard]] std::vector<std::size_t> scalar_row_ptr() const;
  [[nodiscard]] std::vector<std::size_t> scalar_cols() const;

 private:
  [[nodiscard]] std::size_t sq() const noexcept {
    return static_cast<std::size_t>(block) * static_cast<std::size_t>(block);
  }

  /// for_row at compile-time block B.
  template <std::size_t B, class F>
  void visit_row(std::size_t r, F& f) const {
    const std::size_t I = r / B, b0 = brp[I], nb = brp[I + 1] - b0;
    std::size_t k = B * B * b0 + r % B * B * nb;
    for (std::size_t p = b0; p < b0 + nb; ++p) {
      for (std::size_t d = 0; d < B; ++d) f(k++, B * bcols[p] + d);
    }
  }
};

/// f(std::integral_constant<int, B>{}) with B the graph's block size, so a
/// kernel written once as a template over B runs at compile-time B.
template <class F>
decltype(auto) with_block(const CrsGraph& g, F&& f) {
  if (g.block == 2) return f(std::integral_constant<int, 2>{});
  return f(std::integral_constant<int, 1>{});
}

/// acc[c] = the sum, in row order, of scalar row B*I + c's entries times x,
/// for c < B: the row sum every SpMV-like loop over the graph reproduces.
template <int B>
MALI_INLINE void node_row_dot(const CrsGraph& g, const double* vals,
                              std::size_t I, const double* x, double* acc) {
  const std::size_t b0 = g.brp[I], nb = g.brp[I + 1] - b0;
  const std::uint32_t* bc = g.bcols.data() + b0;
  const double* v = vals + B * B * b0;
  for (int c = 0; c < B; ++c) acc[c] = 0.0;
  for (std::size_t j = 0; j < nb; ++j) {
    const double* xj = x + B * static_cast<std::size_t>(bc[j]);
    for (int c = 0; c < B; ++c) {
      const double* row = v + c * B * nb;  // scalar row B I + c
      for (int d = 0; d < B; ++d) acc[c] += row[B * j + d] * xj[d];
    }
  }
}

/// Values over a shared graph: a copy shares the graph and copies the values.
class CrsMatrix {
 public:
  CrsMatrix() : graph_(std::make_shared<const CrsGraph>()) {}

  explicit CrsMatrix(std::shared_ptr<const CrsGraph> graph)
      : graph_(std::move(graph)) {
    MALI_CHECK(graph_ != nullptr && !graph_->brp.empty());
    MALI_CHECK(graph_->block == 1 || graph_->block == 2);
    MALI_CHECK(graph_->brp.back() == graph_->bcols.size());
    vals_.assign(graph_->nnz(), 0.0);
  }

  /// A matrix on a new block-1 graph made from the two scalar arrays.
  CrsMatrix(const std::vector<std::size_t>& row_ptr,
            const std::vector<std::size_t>& cols)
      : CrsMatrix(std::make_shared<const CrsGraph>(
            CrsGraph::scalar(row_ptr, cols))) {}

  [[nodiscard]] const std::shared_ptr<const CrsGraph>& graph() const noexcept {
    return graph_;
  }

  [[nodiscard]] std::size_t n_rows() const noexcept {
    return graph_->n_rows();
  }
  /// Scalar entries, whatever the graph's block size.
  [[nodiscard]] std::size_t nnz() const noexcept { return graph_->nnz(); }

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
    const std::size_t k = graph_->find(r, c);
    return k == npos ? 0.0 : vals_[k];
  }

  /// Replaces row r with the identity row (Dirichlet rows).
  void set_identity_row(std::size_t r) {
    graph_->for_row(r, [&](std::size_t k, std::size_t c) {
      vals_[k] = c == r ? 1.0 : 0.0;
    });
  }

  /// y = A x.
  void apply(const std::vector<double>& x, std::vector<double>& y) const;

  [[nodiscard]] double diagonal(std::size_t r) const { return get(r, r); }

  static constexpr std::size_t npos = CrsGraph::npos;

 private:
  /// find(r, c), throwing instead of returning npos: a write outside the
  /// graph is a caller bug (a graph that misses a coupling) and must not
  /// become an out-of-bounds store.
  [[nodiscard]] std::size_t find_existing(std::size_t r, std::size_t c) const {
    MALI_CHECK_MSG(r < n_rows(), "CrsMatrix: row out of range");
    const std::size_t k = graph_->find(r, c);
    MALI_CHECK_MSG(k != npos, "CrsMatrix: entry (" + std::to_string(r) +
                                  ", " + std::to_string(c) +
                                  ") is not in the sparsity graph");
    return k;
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
