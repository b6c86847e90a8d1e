#pragma once
// DOF management for the 2-component velocity solve: node n carries global
// dofs (2n, 2n+1) for (u, v); lateral-margin nodes are homogeneous
// Dirichlet.  Also builds the Jacobian's node-paired sparsity graph from
// node adjacency, once: every velocity matrix of the problem shares it.

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/crs_matrix.hpp"
#include "mesh/extruded_mesh.hpp"

namespace mali::fem {

class DofMap {
 public:
  static constexpr int dofs_per_node = 2;

  /// `all_boundaries` pins every mesh-boundary node (lateral margin, bed,
  /// surface) instead of only the lateral margin — used by the
  /// manufactured-solution verification where the exact field is imposed
  /// on the whole boundary.
  explicit DofMap(const mesh::ExtrudedMesh& mesh, bool all_boundaries = false);

  [[nodiscard]] std::size_t n_nodes() const noexcept { return n_nodes_; }
  [[nodiscard]] std::size_t n_dofs() const noexcept {
    return n_nodes_ * dofs_per_node;
  }

  [[nodiscard]] static std::size_t dof(std::size_t node, int comp) noexcept {
    return node * dofs_per_node + static_cast<std::size_t>(comp);
  }

  [[nodiscard]] bool is_dirichlet_dof(std::size_t d) const noexcept {
    return dirichlet_[d];
  }
  [[nodiscard]] const std::vector<std::size_t>& dirichlet_dofs()
      const noexcept {
    return dirichlet_list_;
  }

  /// Node-paired sparsity graph of the velocity Jacobian (one 2x2 block per
  /// pair of nodes that share a cell; see linalg/crs_matrix.hpp).
  [[nodiscard]] const std::shared_ptr<const linalg::CrsGraph>& graph()
      const noexcept {
    return graph_;
  }

 private:
  std::size_t n_nodes_;
  std::vector<bool> dirichlet_;
  std::vector<std::size_t> dirichlet_list_;
  std::shared_ptr<const linalg::CrsGraph> graph_;
};

}  // namespace mali::fem
