#include "fem/dof_map.hpp"

#include <algorithm>

#include "portability/common.hpp"

namespace mali::fem {

DofMap::DofMap(const mesh::ExtrudedMesh& mesh, bool all_boundaries)
    : n_nodes_(mesh.n_nodes()) {
  dirichlet_.assign(n_dofs(), false);
  for (std::size_t n = 0; n < n_nodes_; ++n) {
    const bool pinned =
        mesh.is_dirichlet_node(n) ||
        (all_boundaries && (mesh.is_basal_node(n) || mesh.is_surface_node(n)));
    if (pinned) {
      for (int c = 0; c < dofs_per_node; ++c) {
        dirichlet_[dof(n, c)] = true;
        dirichlet_list_.push_back(dof(n, c));
      }
    }
  }

  // Node adjacency via shared cells (each hex couples its 8 nodes).
  std::vector<std::vector<std::size_t>> nbrs(n_nodes_);
  const std::size_t C = mesh.n_cells();
  for (std::size_t c = 0; c < C; ++c) {
    std::size_t nodes[8];
    for (int k = 0; k < 8; ++k) nodes[k] = mesh.cell_node(c, k);
    for (int a = 0; a < 8; ++a) {
      for (int b = 0; b < 8; ++b) nbrs[nodes[a]].push_back(nodes[b]);
    }
  }
  for (auto& v : nbrs) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }

  // Expand node adjacency into the 2x2 dof blocks.
  std::vector<std::size_t> row_ptr(n_dofs() + 1, 0);
  for (std::size_t n = 0; n < n_nodes_; ++n) {
    const std::size_t nnz = nbrs[n].size() * dofs_per_node;
    row_ptr[dof(n, 0) + 1] = nnz;
    row_ptr[dof(n, 1) + 1] = nnz;
  }
  for (std::size_t r = 0; r < n_dofs(); ++r) row_ptr[r + 1] += row_ptr[r];

  std::vector<std::size_t> cols(row_ptr.back());
  for (std::size_t n = 0; n < n_nodes_; ++n) {
    for (int c = 0; c < dofs_per_node; ++c) {
      std::size_t p = row_ptr[dof(n, c)];
      for (std::size_t m : nbrs[n]) {
        cols[p++] = dof(m, 0);
        cols[p++] = dof(m, 1);
      }
      MALI_ASSERT(p == row_ptr[dof(n, c) + 1]);
    }
  }
  graph_ = std::make_shared<const linalg::CrsGraph>(
      linalg::CrsGraph{std::move(row_ptr), std::move(cols)});
}

}  // namespace mali::fem
