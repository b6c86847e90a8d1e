#pragma once
// Builds the GeometryWorkset from an extruded mesh: isoparametric Jacobians,
// weighted basis values/gradients at quadrature points, and the basal side
// set with its friction coefficients.

#include "fem/workset.hpp"
#include "mesh/extruded_mesh.hpp"
#include "mesh/ice_geometry.hpp"

namespace mali::fem {

/// Assembles all geometric FE arrays for every cell of the mesh.
/// Throws mali::Error if any element has a non-positive Jacobian.
[[nodiscard]] GeometryWorkset build_geometry(const mesh::ExtrudedMesh& mesh,
                                             const mesh::IceGeometry& geom);

/// Rounds a cell count up to the padded allocation extent the batched SIMD
/// kernels assume: n + (pk::kSimdMaxWidth - 1) ghost rows.
[[nodiscard]] std::size_t padded_cells(std::size_t n_cells);

/// Consistency check of a built workset's basal side set: face_nodes /
/// face_qps must match the extents of the arrays actually built, every
/// basal_face_cell must be a real cell, and every basal_face_node must be a
/// node of its owning cell.  Throws mali::Error naming the offending face on
/// the first mismatch.  Called by build_geometry; exposed for tests.
void validate_workset(const GeometryWorkset& ws);

}  // namespace mali::fem
