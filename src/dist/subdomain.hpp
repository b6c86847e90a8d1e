#pragma once
// Per-rank subdomain of the FO Stokes assembly (see DESIGN.md §12).
//
// A Subdomain stages compact copies of the element data (connectivity,
// coordinates, basis arrays, body force, basal faces) for the 3D cells this
// rank owns — every layer of every owned base cell — and runs them through
// the same physics::ElementEngine as StokesFOProblem, on the Serial
// execution space (rank bodies are dedicated threads; they must never
// re-enter the shared thread pool).  The staged arrays are padded to
// fem::padded_cells rows with replicated ghost rows, so the configured SIMD
// width applies here exactly as on the serial path.  Global node ids are
// RETAINED, so the kernels read and assemble into GLOBAL-extent vectors:
// the rank's own entries become partial sums that the HaloExchange export
// completes at the owners.  Those global-extent vectors are private scratch
// of the rank's problem and operator; the rank's solvers work on
// owned-extent vectors, moved in and out with gather_owned/scatter_owned.
//
// Cell ordering — interior first:
//   [0, n_interior_cells)            cells whose 8 nodes all lie in OWNED
//                                    columns (assembly reads no ghost data)
//   [n_interior_cells, n_cells)     cells touching >= 1 ghost column
// The split enables communication/computation overlap (post the halo
// import, assemble the interior, finish the import, assemble the boundary)
// while keeping the assembly order — and therefore the floating-point
// result — IDENTICAL whether or not the overlap is enabled.  Within each
// segment, cells are ordered base-cell-ascending, layer-fastest, so a
// single-rank Subdomain visits cells in exactly the serial problem's order.
//
// Each segment is one engine CellBlock with a greedy coloring of its cells.
// Batched kernels round a segment up to whole packs, so the interior
// segment's last pack may compute on boundary-cell rows; lanes are
// independent and those lanes are never scattered, so the overlap stays
// bit-identical at every SIMD width.

#include <cstddef>
#include <vector>

#include "linalg/crs_matrix.hpp"
#include "mesh/coloring.hpp"
#include "mesh/partition.hpp"
#include "physics/element_engine.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "portability/timer.hpp"
#include "portability/view.hpp"

namespace mali::dist {

/// owned[i] = global[idx[i]]: the owned-extent copy of a global-extent
/// vector (`owned` is resized to idx.size()).
void gather_owned(const std::vector<double>& global,
                  const std::vector<std::size_t>& idx,
                  std::vector<double>& owned);
/// global[idx[i]] = owned[i]: writes an owned-extent vector back into its
/// entries of a global-extent one, leaving every other entry untouched.
void scatter_owned(const std::vector<double>& owned,
                   const std::vector<std::size_t>& idx,
                   std::vector<double>& global);

class Subdomain {
 public:
  /// Stages the rank's element data from the (shared, read-only) problem.
  /// `problem` and `part` must outlive the Subdomain.
  Subdomain(const physics::StokesFOProblem& problem,
            const mesh::Partition& part, int rank);
  // The element engine holds pointers to this object's arrays.
  Subdomain(const Subdomain&) = delete;
  Subdomain& operator=(const Subdomain&) = delete;

  // Segment ids for the overlap split.
  static constexpr int kInterior = 0;
  static constexpr int kBoundary = 1;

  [[nodiscard]] std::size_t n_cells() const noexcept { return n_cells_; }
  [[nodiscard]] std::size_t n_interior_cells() const noexcept {
    return n_interior_;
  }
  [[nodiscard]] const physics::StokesFOProblem& problem() const noexcept {
    return *problem_;
  }

  /// Vector entries this rank owns (dofs of owned columns, ascending) —
  /// entry i of every owned-extent vector is global dof owned_dofs()[i].
  [[nodiscard]] const std::vector<std::size_t>& owned_dofs() const noexcept {
    return owned_dofs_;
  }
  /// Dirichlet dofs in OWNED columns — the rows this rank is responsible
  /// for overriding after each halo export.
  [[nodiscard]] const std::vector<std::size_t>& owned_dirichlet_dofs()
      const noexcept {
    return owned_dirichlet_dofs_;
  }
  /// All dofs of local (owned + ghost) columns, in column-plan order (owned
  /// columns ascending, then ghost columns ascending) — the only rows the
  /// rank's kernels and halo exchanges touch in a global-extent vector.
  [[nodiscard]] const std::vector<std::size_t>& local_dofs() const noexcept {
    return local_dofs_;
  }
  /// Per 3D node: 1 iff the node's column is local (owned or ghost).
  [[nodiscard]] const std::vector<char>& node_is_local() const noexcept {
    return node_is_local_;
  }
  /// Per 3D node: 1 iff the node's column is OWNED by this rank.
  [[nodiscard]] const std::vector<char>& node_is_owned() const noexcept {
    return node_is_owned_;
  }

  /// Assembles the residual contribution of segment `seg`'s cells into the
  /// global-extent F (partial sums; run export_add afterwards).  `x` is the
  /// global-extent solution; ghost entries must be valid for kBoundary (the
  /// interior segment reads only owned columns by construction).
  void assemble_residual_segment(int seg, const std::vector<double>& x,
                                 std::vector<double>& F);

  /// Same, with the SFad<16> Jacobian evaluation scattering into the
  /// global-sparsity CRS matrix J as well (partial values).
  void assemble_jacobian_segment(int seg, const std::vector<double>& x,
                                 std::vector<double>& F, linalg::CrsMatrix& J);

  /// Builds the tangent cache of this rank's cells at state U, one
  /// TangentLinearization per segment (existing slabs of the right size
  /// are reused).  U must have valid ghost entries.
  void linearize_tangent(const std::vector<double>& U,
                         std::vector<physics::TangentLinearization>& lin);

  /// Accumulates this rank's cells' tangent contribution y += J_local(U) x
  /// (both segments, interior first) from the cache linearize_tangent(U,
  /// lin) built.  x must have valid ghost entries; y must be global extent
  /// and pre-zeroed by the caller.
  void apply_tangent(const std::vector<physics::TangentLinearization>& lin,
                     const std::vector<double>& x, std::vector<double>& y);

  /// Partial per-node 2x2 diagonal blocks of J(U) from this rank's cells
  /// (row-major, n_nodes blocks = 2 * n_dofs doubles; zero outside local
  /// columns, no Dirichlet handling — complete via export_add and override
  /// at the owners).
  [[nodiscard]] std::vector<double> partial_node_blocks(
      const std::vector<double>& U);

  /// Wall-clock spent in assembly/tangent kernels on this rank (the
  /// "measured kernel time" bench_weak_scaling reports next to the model).
  [[nodiscard]] double kernel_seconds() const noexcept { return kernel_s_; }

 private:
  const physics::StokesFOProblem* problem_;
  std::size_t n_cells_ = 0;
  std::size_t n_interior_ = 0;
  /// kInterior / kBoundary cell ranges with their basal faces (cell index
  /// relative to the segment offset) and greedy colorings.
  physics::CellBlock segments_[2];

  /// Compact per-local-cell element data (global node ids retained) plus
  /// the problem's reference element data.
  physics::ElementArrays elems_;

  std::vector<std::size_t> owned_dofs_;
  std::vector<std::size_t> owned_dirichlet_dofs_;
  std::vector<std::size_t> local_dofs_;
  std::vector<char> node_is_local_;
  std::vector<char> node_is_owned_;

  double kernel_s_ = 0.0;
  pk::TimerRegistry phase_timers_;  ///< the engine's per-phase sink
  /// The caller's vector staged for one assembly, apply or block-diagonal
  /// call, reused by the next.
  pk::View<double, 1> input_;
  /// Private scratch fields (the shared problem's engine would race).
  physics::ElementEngine engine_;
};

}  // namespace mali::dist
