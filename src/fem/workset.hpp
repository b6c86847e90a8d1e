#pragma once
// Workset: the bundle of per-cell finite-element arrays the physics kernels
// operate on.  Shapes follow Albany's field layout — leftmost index is the
// cell, so LayoutLeft makes the cell index stride-1 (GPU-coalesced):
//
//   coords  (C, N, 3)   nodal coordinates
//   wBF     (C, N, Q)   basis value * detJ * quadrature weight
//   wGradBF (C, N, Q, 3) physical basis gradient * detJ * weight
//   gradBF  (C, N, Q, 3) physical basis gradient (unweighted)
//   detJ    (C, Q)
//
// plus the basal side-set arrays used by the friction evaluator.

#include <cstddef>
#include <vector>

#include "portability/view.hpp"

namespace mali::fem {

struct GeometryWorkset {
  std::size_t n_cells = 0;
  int num_nodes = 8;
  int num_qps = 8;

  /// Allocated cell extent of the per-cell views below.  The builders pad the
  /// cell axis to n_cells + (pk::kSimdMaxWidth - 1) ghost rows, replicating
  /// the last real cell, so width-W pack loads issued by the batched kernels
  /// may read a full W rows at any batch start without running off the
  /// allocation (LayoutLeft makes the W cells contiguous).  Ghost rows hold
  /// valid finite geometry but are never scattered; n_cells stays the
  /// authoritative element count.
  std::size_t n_cells_padded = 0;

  pk::View<std::size_t, 2> cell_nodes;  ///< (C, N) global node ids
  pk::View<double, 3> coords;
  pk::View<double, 3> wBF;
  pk::View<double, 4> wGradBF;
  pk::View<double, 4> gradBF;
  pk::View<double, 2> detJ;

  // ---- basal side set (bottom faces of layer-0 cells) ----
  // face_nodes / face_qps describe the arrays actually built (4/Qf on the
  // hex path); validate_workset checks them against the view extents and
  // the cell connectivity instead of trusting the defaults.
  std::size_t n_basal_faces = 0;
  int face_nodes = 4;
  int face_qps = 4;
  pk::View<std::size_t, 1> basal_face_cell;   ///< (F) owning cell id
  pk::View<std::size_t, 2> basal_face_node;   ///< (F, face_nodes) node ids
  pk::View<double, 3> basal_wBF;              ///< (F, face_nodes, Qf)
  pk::View<double, 1> basal_beta;             ///< (F) friction coefficient
};

}  // namespace mali::fem
