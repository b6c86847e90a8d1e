#include "fem/dof_map.hpp"

#include <algorithm>
#include <cstdint>

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

  // The node-paired graph: one block per node neighbour (dofs_per_node is
  // its block size).
  linalg::CrsGraph g;
  g.block = dofs_per_node;
  g.brp.assign(n_nodes_ + 1, 0);
  std::size_t n_blocks = 0;
  for (const auto& v : nbrs) n_blocks += v.size();
  MALI_CHECK_MSG(n_blocks <= UINT32_MAX && n_nodes_ <= UINT32_MAX,
                 "DofMap: the graph exceeds 32-bit node columns");
  g.bcols.reserve(n_blocks);
  for (std::size_t n = 0; n < n_nodes_; ++n) {
    for (const std::size_t m : nbrs[n]) {
      g.bcols.push_back(static_cast<std::uint32_t>(m));
    }
    g.brp[n + 1] = static_cast<std::uint32_t>(g.bcols.size());
  }
  graph_ = std::make_shared<const linalg::CrsGraph>(std::move(g));
}

}  // namespace mali::fem
