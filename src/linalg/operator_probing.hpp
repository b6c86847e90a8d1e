#pragma once
// Colored operator probing for extruded meshes — reconstructs the assembled
// fine-level matrix of a matrix-free operator from a *constant* number of
// operator applies.
//
// The FO Stokes Jacobian on the extruded lattice couples each node only to
// the (at most) 27 nodes within one lattice step in (i, j, level): the
// vertical lines are tridiagonal in levels and the horizontal couplings
// reach one column in each direction (every cell-sharing neighbor is within
// Chebyshev distance 1 of the lattice index, holes in the ice mask only
// remove neighbors).  Coloring dof columns by
//   (i mod 3, j mod 3, level mod 3, component)
// guarantees that any two same-colored columns are at least three lattice
// steps apart, so no row of the operator sees more than one column per
// color: applying the operator to the 0/1 indicator vector of a color reads
// off every entry of those columns exactly.  That is 27 * dofs_per_node
// probe applies regardless of mesh size — the structure-aware probing the
// matrix-dependent semicoarsening AMG falls back to for matrix-free
// operators without the LinearOperator::assemble capability (see DESIGN.md
// §10 for the contract `ExtrusionInfo` must satisfy).  The structural
// graph is also the target such operators assemble onto.

#include <cstddef>
#include <vector>

#include "linalg/crs_matrix.hpp"
#include "linalg/linear_operator.hpp"
#include "linalg/semicoarsening_amg.hpp"  // ExtrusionInfo

namespace mali::linalg {

class StructuredProbing {
 public:
  /// Builds the structural superset graph (the full 3x3x3 lattice stencil
  /// expanded to dofs_per_node blocks) and the probe coloring from the
  /// extrusion structure.  Requires the ExtrusionInfo layout contract:
  /// node = column * levels + level, columns on a dx-spaced lattice.
  explicit StructuredProbing(const ExtrusionInfo& info);

  /// Number of operator applies probe() performs (non-empty colors only);
  /// bounded by 27 * dofs_per_node independent of mesh size.
  [[nodiscard]] std::size_t n_probes() const noexcept { return n_probes_; }

  /// Total dof count of the probed operator.
  [[nodiscard]] std::size_t n_dofs() const noexcept {
    return color_of_.size();
  }

  /// Structural nonzeros of the probing graph (a superset of the true
  /// sparsity; entries absent from the operator probe to 0).
  [[nodiscard]] std::size_t graph_nnz() const noexcept { return cols_.size(); }

  /// A zero matrix on the structural graph: the target probe() fills, and
  /// the graph an operator with the LinearOperator::assemble capability
  /// writes its own entries onto.
  [[nodiscard]] CrsMatrix structure() const { return {row_ptr_, cols_}; }

  /// Reconstructs A entrywise into P, which must be on the structural graph
  /// (structure()): one apply per non-empty color, each recovering all
  /// columns of that color exactly.  A must be square with rows() ==
  /// n_dofs().
  void probe(const LinearOperator& A, CrsMatrix& P) const;

 private:
  std::vector<std::size_t> color_of_;             ///< dof -> color
  std::vector<std::vector<std::size_t>> members_; ///< color -> dofs
  std::vector<std::size_t> row_ptr_, cols_;       ///< structural dof graph
  std::size_t n_probes_ = 0;
};

}  // namespace mali::linalg
