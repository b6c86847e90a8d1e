#pragma once
// 2D quadrilateral base mesh over the ice mask.
//
// MALI's base mesh is the quadrilateral mesh dual to an MPAS Voronoi grid;
// at uniform 16 km resolution that dual is a (near-)uniform quad grid, which
// is what we build: cells of a structured lattice are kept where the ice
// geometry has ice at the cell centroid, and nodes/cells are compactly
// renumbered.  Lateral-margin nodes (touching a missing cell) form the
// Dirichlet side set of the velocity solve.  The grid keeps its lattice (a
// dense node table over every lattice point) so a point finds its nearest
// node in O(1).

#include <cstddef>
#include <vector>

#include "mesh/ice_geometry.hpp"
#include "portability/common.hpp"

namespace mali::mesh {

struct QuadGridConfig {
  double dx_m = 16.0e3;  ///< grid spacing (the paper's resolution is 16 km)
};

class QuadGrid {
 public:
  QuadGrid(const IceGeometry& geom, QuadGridConfig cfg);

  [[nodiscard]] std::size_t n_cells() const noexcept { return cells_.size() / 4; }
  [[nodiscard]] std::size_t n_nodes() const noexcept { return xs_.size(); }
  [[nodiscard]] double dx() const noexcept { return cfg_.dx_m; }

  /// k-th node (CCW) of cell c, k in [0,4).
  [[nodiscard]] std::size_t cell_node(std::size_t c, int k) const noexcept {
    return cells_[4 * c + static_cast<std::size_t>(k)];
  }
  [[nodiscard]] double node_x(std::size_t n) const noexcept { return xs_[n]; }
  [[nodiscard]] double node_y(std::size_t n) const noexcept { return ys_[n]; }

  /// True when the node lies on the lateral ice margin.
  [[nodiscard]] bool is_margin_node(std::size_t n) const noexcept {
    return margin_[n];
  }
  [[nodiscard]] std::size_t n_margin_nodes() const noexcept {
    std::size_t k = 0;
    for (bool b : margin_) k += b ? 1 : 0;
    return k;
  }

  /// The node nearest to (x, y): the lowest-index node at the minimal
  /// std::hypot distance, exactly as a scan over every node would pick.
  /// O(1) when all four corners of the lattice cell holding (x, y) are
  /// nodes (every point of an active cell): any other node is at least dx
  /// away, the nearest corner at most dx/sqrt(2).  Elsewhere (outside the
  /// mask or the lattice box) it scans every node.
  [[nodiscard]] std::size_t nearest_node(double x, double y) const;

  void cell_centroid(std::size_t c, double& x, double& y) const noexcept {
    x = y = 0.0;
    for (int k = 0; k < 4; ++k) {
      x += xs_[cell_node(c, k)];
      y += ys_[cell_node(c, k)];
    }
    x *= 0.25;
    y *= 0.25;
  }

 private:
  static constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t lattice_index(long i, long j) const noexcept {
    return static_cast<std::size_t>(j * (ni_ + 1) + i);
  }
  [[nodiscard]] std::size_t scan_nearest_node(double x, double y) const;

  QuadGridConfig cfg_;
  /// Lattice point (i, j), 0 <= i, j <= ni, sits at (x0 + i dx, y0 + j dx).
  double x0_ = 0.0, y0_ = 0.0;
  long ni_ = 0;
  /// Node id of lattice point (i, j) at j * (ni + 1) + i, kNoNode where no
  /// active cell touches it.
  std::vector<std::size_t> lattice_;
  std::vector<std::size_t> cells_;  ///< 4 node ids per cell
  std::vector<double> xs_, ys_;
  std::vector<bool> margin_;
};

}  // namespace mali::mesh
