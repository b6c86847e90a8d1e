#pragma once
// Element→global scatter of the assembled residual/Jacobian.
//
// The FE scatter is the one assembly phase that cannot naively run in
// parallel: neighbouring cells share nodes, so their element contributions
// add into the same global rows.  Two strategies are provided, selected by
// ScatterMode:
//
//  * kSerial  — the historical single-thread loop (reference semantics).
//  * kColored — conflict-free parallelism: cells are greedily colored so no
//               two cells of a color share a node (mesh/coloring.hpp); each
//               color class runs as one parallel_for with plain updates.
//               Deterministic: every global row receives its contributions
//               in a fixed (color-major, then cell) order regardless of the
//               thread count or schedule.
//
// Both produce the same values up to floating-point reassociation (the
// colored order differs from the serial cell order); neither order depends
// on the schedule.  tests/test_scatter_parallel.cpp pins the equivalence on
// both the Serial and the thread-pool exec spaces.
//
// The matrix half writes each element entry either through a CrsSlotTable
// (the entry's index into the CRS values, looked up once per cell range and
// graph) or, without one, through CrsMatrix::add's binary search of the row.
// Both add the same values to the same entries in the same order.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ad/scalar_traits.hpp"
#include "fem/dof_map.hpp"
#include "linalg/crs_matrix.hpp"
#include "mesh/coloring.hpp"
#include "physics/eval_types.hpp"
#include "portability/parallel.hpp"
#include "portability/view.hpp"

namespace mali::physics {

enum class ScatterMode {
  kSerial,   ///< single-thread reference loop
  kColored,  ///< parallel over conflict-free color classes (deterministic)
};

[[nodiscard]] inline const char* to_string(ScatterMode m) {
  switch (m) {
    case ScatterMode::kSerial:
      return "serial";
    case ScatterMode::kColored:
      return "colored";
  }
  return "unknown";
}

[[nodiscard]] inline ScatterMode scatter_mode_from_string(
    const std::string& s) {
  if (s == "serial") return ScatterMode::kSerial;
  if (s == "colored") return ScatterMode::kColored;
  throw Error("unknown scatter mode: " + s + " (expected serial|colored)");
}

/// Where every element coupling of a range of 8-node cells sits in one CRS
/// graph: slots(c, kNumLocalDofs i + l) indexes J.values() at (row of local
/// dof i, column of local dof l) of cell c, local dof = 2 node + comp.  Built
/// once per (cell range, graph) by build_slot_table; it serves exactly the
/// matrices that share its graph object (CrsMatrix::graph).  Holding the
/// graph keeps it alive, so its address cannot be reused by another graph.
struct CrsSlotTable {
  static constexpr int kSlotsPerCell = kNumLocalDofs * kNumLocalDofs;

  std::shared_ptr<const linalg::CrsGraph> graph;
  /// (C, kSlotsPerCell), each cell's slots contiguous
  pk::View<std::uint32_t, 2, pk::LayoutRight> slots;

  [[nodiscard]] bool serves(const linalg::CrsMatrix& J) const noexcept {
    return slots.allocated() && graph == J.graph();
  }
};

/// The slot table of cells [0, count) of `cell_nodes` (8 nodes each) in J's
/// graph.  Throws mali::Error when the graph misses an element coupling or
/// has more values than 32-bit slots address.
template <class Exec = pk::DefaultExec>
[[nodiscard]] CrsSlotTable build_slot_table(
    const pk::View<std::size_t, 2>& cell_nodes, std::size_t count,
    const linalg::CrsMatrix& J) {
  MALI_CHECK_MSG(cell_nodes.extent(1) * 2 == kNumLocalDofs,
                 "CRS slot tables need 8-node cells (16 local dofs)");
  MALI_CHECK_MSG(J.nnz() <= std::numeric_limits<std::uint32_t>::max(),
                 "CRS slot table: the graph has more than 2^32 - 1 values");
  CrsSlotTable t;
  t.graph = J.graph();
  t.slots = pk::View<std::uint32_t, 2, pk::LayoutRight>(
      "crs_slots", count, CrsSlotTable::kSlotsPerCell);
  pk::parallel_for("crs_slot_table", pk::RangePolicy<Exec>(count),
                   [&](int c) {
                     for (int i = 0; i < kNumLocalDofs; ++i) {
                       const std::size_t row =
                           fem::DofMap::dof(cell_nodes(c, i / 2), i % 2);
                       for (int l = 0; l < kNumLocalDofs; ++l) {
                         const std::size_t col =
                             fem::DofMap::dof(cell_nodes(c, l / 2), l % 2);
                         t.slots(c, i * kNumLocalDofs + l) =
                             static_cast<std::uint32_t>(J.slot(row, col));
                       }
                     }
                   });
  return t;
}

namespace detail {

/// Scatters one cell's element residual (and, for SFad scalars, its element
/// Jacobian) into the global F vector / CRS matrix.  The caller must
/// guarantee the cell's rows are not concurrently updated (serial loop or
/// color class).  `slots` is the cell's row of a CrsSlotTable that serves
/// J, or null to locate each entry with CrsMatrix::add.
template <class ScalarT>
MALI_INLINE void scatter_cell(std::size_t c,
                              const pk::View<std::size_t, 2>& cell_nodes,
                              const pk::View<ScalarT, 3>& Residual,
                              int num_nodes, double* MALI_RESTRICT F,
                              linalg::CrsMatrix* J,
                              const std::uint32_t* slots) {
  for (int node = 0; node < num_nodes; ++node) {
    const std::size_t gnode = cell_nodes(c, node);
    for (int comp = 0; comp < 2; ++comp) {
      const std::size_t row = fem::DofMap::dof(gnode, comp);
      const ScalarT& R = Residual(c, node, comp);
      F[row] += ad::value_of(R);
      if constexpr (ad::is_fad_v<ScalarT>) {
        if (J == nullptr) continue;
        if (slots != nullptr) {
          double* vals = J->values().data();
          const std::uint32_t* row_slots =
              slots + (2 * node + comp) * kNumLocalDofs;
          for (int l = 0; l < kNumLocalDofs; ++l) {
            vals[row_slots[l]] += R.dx(l);
          }
          continue;
        }
        for (int l = 0; l < kNumLocalDofs; ++l) {
          const std::size_t col =
              fem::DofMap::dof(cell_nodes(c, l / 2), l % 2);
          J->add(row, col, R.dx(l));
        }
      }
    }
  }
}

}  // namespace detail

/// Scatter-adds the element residuals of cells [0, count) into F (and J for
/// SFad scalars).  `coloring` must cover exactly the same local cell range
/// and is only consulted for ScatterMode::kColored.  Exec selects the pk
/// execution space for the colored mode (the serial mode ignores it).
/// `slots` is a slot table of the same cell range; the matrix entries go
/// through it when it serves J, else through CrsMatrix::add, which throws
/// mali::Error when J's graph misses a coupling.
template <class Exec = pk::DefaultExec, class ScalarT>
void scatter_add(ScatterMode mode, const mesh::CellColoring& coloring,
                 const pk::View<std::size_t, 2>& cell_nodes,
                 const pk::View<ScalarT, 3>& Residual, std::size_t count,
                 int num_nodes, std::vector<double>& F, linalg::CrsMatrix* J,
                 const CrsSlotTable* slots = nullptr) {
  MALI_CHECK(cell_nodes.extent(0) >= count);
  const std::uint32_t* S = nullptr;
  if (slots != nullptr && J != nullptr && slots->serves(*J)) {
    MALI_CHECK_MSG(slots->slots.extent(0) >= count,
                   "CRS slot table does not cover the cell range");
    S = slots->slots.data();
  }
  // Cell c's slots, or null for the CrsMatrix::add path.
  const auto cell_slots = [S](std::size_t c) {
    return S == nullptr ? nullptr : S + c * CrsSlotTable::kSlotsPerCell;
  };
  double* Fp = F.data();
  switch (mode) {
    case ScatterMode::kSerial: {
      for (std::size_t c = 0; c < count; ++c) {
        detail::scatter_cell(c, cell_nodes, Residual, num_nodes, Fp, J,
                             cell_slots(c));
      }
      break;
    }
    case ScatterMode::kColored: {
      MALI_CHECK_MSG(coloring.n_cells() == count,
                     "coloring does not cover the cell range");
      for (int k = 0; k < coloring.n_colors; ++k) {
        const std::size_t* cells =
            coloring.color_cells.data() +
            coloring.color_ptr[static_cast<std::size_t>(k)];
        pk::parallel_for(
            "scatter_color", pk::RangePolicy<Exec>(coloring.color_size(k)),
            [&, cells](int i) {
              detail::scatter_cell(cells[i], cell_nodes, Residual,
                                   num_nodes, Fp, J, cell_slots(cells[i]));
            });
      }
      break;
    }
  }
}

}  // namespace mali::physics
