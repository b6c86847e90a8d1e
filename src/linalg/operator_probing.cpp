#include "linalg/operator_probing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "portability/common.hpp"

namespace mali::linalg {

namespace {

/// Lattice key for the column hash map (indices are non-negative after the
/// xmin/ymin shift, and continental meshes stay far below 2^32 columns).
[[nodiscard]] std::uint64_t lattice_key(std::uint64_t i, std::uint64_t j) {
  return (i << 32) | j;
}

}  // namespace

StructuredProbing::StructuredProbing(const ExtrusionInfo& info) {
  MALI_CHECK(info.levels >= 1);
  MALI_CHECK(info.n_nodes % info.levels == 0);
  const std::size_t n_cols = info.n_nodes / info.levels;
  MALI_CHECK(info.column_x.size() == n_cols &&
             info.column_y.size() == n_cols);
  MALI_CHECK(info.dofs_per_node >= 1);
  const auto dpn = static_cast<std::size_t>(info.dofs_per_node);
  const std::size_t levels = info.levels;
  const std::size_t n_dofs = info.n_nodes * dpn;

  // ---- lattice indices per column + reverse lookup ----
  double xmin = 0.0, ymin = 0.0;
  if (n_cols > 0) {
    xmin = info.column_x[0];
    ymin = info.column_y[0];
    for (std::size_t c = 0; c < n_cols; ++c) {
      xmin = std::min(xmin, info.column_x[c]);
      ymin = std::min(ymin, info.column_y[c]);
    }
  }
  std::vector<std::int64_t> ci(n_cols), cj(n_cols);
  std::unordered_map<std::uint64_t, std::size_t> col_at;
  col_at.reserve(n_cols);
  for (std::size_t c = 0; c < n_cols; ++c) {
    ci[c] = std::llround((info.column_x[c] - xmin) / info.dx);
    cj[c] = std::llround((info.column_y[c] - ymin) / info.dx);
    const bool inserted =
        col_at
            .emplace(lattice_key(static_cast<std::uint64_t>(ci[c]),
                                 static_cast<std::uint64_t>(cj[c])),
                     c)
            .second;
    MALI_CHECK_MSG(inserted,
                   "StructuredProbing: two columns share a lattice site — "
                   "ExtrusionInfo.column_x/y do not describe a dx lattice");
  }

  // ---- probe coloring: (i mod 3, j mod 3, level mod 3) x component ----
  const std::size_t n_colors = 27 * dpn;
  color_of_.resize(n_dofs);
  members_.assign(n_colors, {});
  for (std::size_t c = 0; c < n_cols; ++c) {
    const std::size_t mi = static_cast<std::size_t>(ci[c] % 3);
    const std::size_t mj = static_cast<std::size_t>(cj[c] % 3);
    for (std::size_t lev = 0; lev < levels; ++lev) {
      const std::size_t node = c * levels + lev;  // the layout contract
      const std::size_t node_color = mi * 9 + mj * 3 + (lev % 3);
      for (std::size_t comp = 0; comp < dpn; ++comp) {
        const std::size_t dof = node * dpn + comp;
        const std::size_t color = node_color * dpn + comp;
        color_of_[dof] = color;
        members_[color].push_back(dof);
      }
    }
  }
  n_probes_ = 0;
  for (const auto& m : members_) n_probes_ += m.empty() ? 0 : 1;

  // ---- structural graph: 3x3x3 lattice stencil expanded to dof blocks ----
  row_ptr_.assign(n_dofs + 1, 0);
  std::vector<std::size_t> nbr_nodes;  // per-node scratch
  // First pass counts, second pass fills (identical enumeration order).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t c = 0; c < n_cols; ++c) {
      for (std::size_t lev = 0; lev < levels; ++lev) {
        const std::size_t node = c * levels + lev;
        nbr_nodes.clear();
        for (int dj = -1; dj <= 1; ++dj) {
          for (int di = -1; di <= 1; ++di) {
            const std::int64_t ni = ci[c] + di;
            const std::int64_t nj = cj[c] + dj;
            if (ni < 0 || nj < 0) continue;
            const auto it = col_at.find(
                lattice_key(static_cast<std::uint64_t>(ni),
                            static_cast<std::uint64_t>(nj)));
            if (it == col_at.end()) continue;
            for (int dl = -1; dl <= 1; ++dl) {
              const std::int64_t nl = static_cast<std::int64_t>(lev) + dl;
              if (nl < 0 || nl >= static_cast<std::int64_t>(levels)) continue;
              nbr_nodes.push_back(it->second * levels +
                                  static_cast<std::size_t>(nl));
            }
          }
        }
        std::sort(nbr_nodes.begin(), nbr_nodes.end());
        const std::size_t row_nnz = nbr_nodes.size() * dpn;
        for (std::size_t comp = 0; comp < dpn; ++comp) {
          const std::size_t row = node * dpn + comp;
          if (pass == 0) {
            row_ptr_[row + 1] = row_nnz;
          } else {
            std::size_t p = row_ptr_[row];
            for (const std::size_t m : nbr_nodes) {
              for (std::size_t cc = 0; cc < dpn; ++cc) {
                cols_[p++] = m * dpn + cc;
              }
            }
            MALI_ASSERT(p == row_ptr_[row + 1]);
          }
        }
      }
    }
    if (pass == 0) {
      for (std::size_t r = 0; r < n_dofs; ++r) row_ptr_[r + 1] += row_ptr_[r];
      cols_.resize(row_ptr_.back());
    }
  }
}

void StructuredProbing::probe(const LinearOperator& A, CrsMatrix& P) const {
  const std::size_t n = n_dofs();
  MALI_CHECK_MSG(A.rows() == n && A.cols() == n,
                 "StructuredProbing: operator size does not match the "
                 "extrusion structure");
  MALI_CHECK_MSG(P.row_ptr() == row_ptr_ && P.cols() == cols_,
                 "StructuredProbing: target is not on the structural graph");
  auto& vals = P.values();

  std::vector<double> e(n), y(n);
  for (std::size_t color = 0; color < members_.size(); ++color) {
    const auto& m = members_[color];
    if (m.empty()) continue;
    std::fill(e.begin(), e.end(), 0.0);
    for (const std::size_t dof : m) e[dof] = 1.0;
    A.apply(e, y);
    // y[r] = sum over in-color columns j of A(r, j); the coloring admits at
    // most one such j per row, so y[r] is that entry verbatim.
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        if (color_of_[cols_[k]] == color) vals[k] = y[r];
      }
    }
  }
}

}  // namespace mali::linalg
