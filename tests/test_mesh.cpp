// Mesh substrate tests: synthetic Antarctica geometry properties, quad base
// grid invariants, extruded hexahedral mesh topology, and the base grid's
// nearest-node lookup.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "fem/hex8.hpp"
#include "fem/quadrature.hpp"
#include "mesh/extruded_mesh.hpp"
#include "mesh/ice_geometry.hpp"
#include "mesh/quad_grid.hpp"

using namespace mali::mesh;

TEST(IceGeometry, ThickAtCenterZeroOutside) {
  IceGeometry g;
  EXPECT_NEAR(g.thickness(0, 0), g.config().center_thickness_m, 1.0);
  const double far = 3.0 * g.config().radius_m;
  EXPECT_EQ(g.thickness(far, far), 0.0);
  EXPECT_FALSE(g.has_ice(far, 0.0));
  EXPECT_TRUE(g.has_ice(0.0, 0.0));
}

TEST(IceGeometry, VialovProfileDecreasesOutward) {
  IceGeometry g;
  double prev = g.thickness(0, 0);
  for (double r = 0.1; r <= 0.9; r += 0.1) {
    const double h = g.thickness(r * g.config().radius_m * 0.8, 0.0);
    EXPECT_LE(h, prev + 1e-9) << "at r=" << r;
    prev = h;
  }
}

TEST(IceGeometry, MinThicknessFloorInsideMask) {
  IceGeometry g;
  // Just inside the margin the cliff floor applies.
  const double theta = 0.3;
  const double L = g.extent(theta);
  const double x = 0.999 * L * std::cos(theta);
  const double y = 0.999 * L * std::sin(theta);
  ASSERT_TRUE(g.has_ice(x, y));
  EXPECT_GE(g.thickness(x, y), g.config().min_thickness_m);
}

TEST(IceGeometry, SurfaceIsBedPlusThickness) {
  IceGeometry g;
  const double x = 2.0e5, y = -1.5e5;
  EXPECT_DOUBLE_EQ(g.surface(x, y), g.bed(x, y) + g.thickness(x, y));
}

TEST(IceGeometry, LobedMarginVariesWithAngle) {
  IceGeometry g;
  double lo = g.extent(0.0), hi = lo;
  for (double t = 0.0; t < 6.28; t += 0.05) {
    lo = std::min(lo, g.extent(t));
    hi = std::max(hi, g.extent(t));
  }
  EXPECT_GT(hi / lo, 1.1) << "margin should be visibly lobed";
  EXPECT_GT(lo, 0.0);
}

TEST(IceGeometry, SurfaceGradientMatchesDirectFD) {
  IceGeometry g;
  const double x = 3.1e5, y = 2.2e5, h = 0.5e3;
  double dx = 0, dy = 0;
  g.surface_gradient(x, y, dx, dy);
  EXPECT_NEAR(dx, (g.surface(x + h, y) - g.surface(x - h, y)) / (2 * h), 1e-12);
  EXPECT_NEAR(dy, (g.surface(x, y + h) - g.surface(x, y - h)) / (2 * h), 1e-12);
}

TEST(IceGeometry, BasalFrictionBounded) {
  IceGeometry g;
  for (double t = 0; t < 6.28; t += 0.3) {
    for (double rel = 0.05; rel < 1.0; rel += 0.2) {
      const double r = rel * g.extent(t);
      const double b = g.basal_friction(r * std::cos(t), r * std::sin(t));
      EXPECT_GE(b, g.config().beta_stream);
      EXPECT_LE(b, g.config().beta_interior);
    }
  }
}

TEST(IceGeometry, FlotationCriterion) {
  // Deep bed + thin marginal ice: floating shelves appear and carry zero
  // basal friction; thick interior ice stays grounded.
  IceGeometryConfig cfg;
  cfg.bed_amplitude_m = 1200.0;  // deep troughs below sea level
  cfg.min_thickness_m = 40.0;
  IceGeometry g(cfg);
  std::size_t floating = 0, grounded = 0;
  for (double t = 0.0; t < 6.28; t += 0.05) {
    for (double rel = 0.9; rel < 1.0; rel += 0.02) {
      const double r = rel * g.extent(t);
      const double x = r * std::cos(t), y = r * std::sin(t);
      if (!g.has_ice(x, y)) continue;
      if (g.is_floating(x, y)) {
        ++floating;
        EXPECT_EQ(g.basal_friction(x, y), 0.0);
      } else {
        ++grounded;
        EXPECT_GT(g.basal_friction(x, y), 0.0);
      }
    }
  }
  EXPECT_GT(floating, 0u) << "deep-bed margin must have floating shelves";
  EXPECT_GT(grounded, 0u);
  // The 3.6 km divide can never float over a 1.2 km-amplitude bed.
  EXPECT_FALSE(g.is_floating(0.0, 0.0));
  // Bed above sea level can never float.
  IceGeometry flat(IceGeometryConfig{});
  for (double t = 0.0; t < 6.28; t += 0.3) {
    const double x = 0.3 * flat.extent(t) * std::cos(t);
    const double y = 0.3 * flat.extent(t) * std::sin(t);
    if (flat.bed(x, y) >= 0.0) {
      EXPECT_FALSE(flat.is_floating(x, y));
    }
  }
}

TEST(IceGeometry, SmbPositiveInlandNegativeAtMargin) {
  IceGeometry g;
  EXPECT_GT(g.surface_mass_balance(0, 0), 0.0);
  const double L = g.extent(0.0);
  EXPECT_LT(g.surface_mass_balance(0.98 * L, 0.0), 0.0);
}

// ---- QuadGrid ----

class QuadGridTest : public ::testing::Test {
 protected:
  IceGeometry geom{};
  QuadGrid grid{geom, QuadGridConfig{100.0e3}};
};

TEST_F(QuadGridTest, HasCellsAndNodes) {
  EXPECT_GT(grid.n_cells(), 100u);
  EXPECT_GT(grid.n_nodes(), grid.n_cells());  // quads: nodes > cells for disks
}

TEST_F(QuadGridTest, CellNodesAreValidAndDistinct) {
  for (std::size_t c = 0; c < grid.n_cells(); ++c) {
    std::set<std::size_t> nodes;
    for (int k = 0; k < 4; ++k) {
      const std::size_t n = grid.cell_node(c, k);
      ASSERT_LT(n, grid.n_nodes());
      nodes.insert(n);
    }
    EXPECT_EQ(nodes.size(), 4u);
  }
}

TEST_F(QuadGridTest, CellsAreCcwUnitSquares) {
  const double dx = grid.dx();
  for (std::size_t c = 0; c < grid.n_cells(); ++c) {
    const auto n0 = grid.cell_node(c, 0);
    const auto n1 = grid.cell_node(c, 1);
    const auto n2 = grid.cell_node(c, 2);
    const auto n3 = grid.cell_node(c, 3);
    EXPECT_NEAR(grid.node_x(n1) - grid.node_x(n0), dx, 1e-6);
    EXPECT_NEAR(grid.node_y(n3) - grid.node_y(n0), dx, 1e-6);
    EXPECT_NEAR(grid.node_x(n2) - grid.node_x(n3), dx, 1e-6);
    EXPECT_NEAR(grid.node_y(n2) - grid.node_y(n1), dx, 1e-6);
  }
}

TEST_F(QuadGridTest, EveryNodeBelongsToSomeCell) {
  std::vector<bool> used(grid.n_nodes(), false);
  for (std::size_t c = 0; c < grid.n_cells(); ++c) {
    for (int k = 0; k < 4; ++k) used[grid.cell_node(c, k)] = true;
  }
  for (std::size_t n = 0; n < grid.n_nodes(); ++n) EXPECT_TRUE(used[n]);
}

TEST_F(QuadGridTest, MarginNodesExistAndFormBoundary) {
  const std::size_t margins = grid.n_margin_nodes();
  EXPECT_GT(margins, 0u);
  EXPECT_LT(margins, grid.n_nodes());
  // Margin nodes are far from the center on average.
  double rmin = 1e30;
  for (std::size_t n = 0; n < grid.n_nodes(); ++n) {
    if (grid.is_margin_node(n)) {
      rmin = std::min(rmin, std::hypot(grid.node_x(n), grid.node_y(n)));
    }
  }
  EXPECT_GT(rmin, 0.2 * geom.config().radius_m);
}

TEST_F(QuadGridTest, EdgesAreSharedOppositelyAndBoundaryEdgesJoinMargins) {
  // CCW cells that tile without overlap walk each shared edge in opposite
  // directions, so no directed edge repeats; an edge only one cell walks
  // borders an inactive cell, so both its ends are margin nodes.
  std::set<std::pair<std::size_t, std::size_t>> directed;
  for (std::size_t c = 0; c < grid.n_cells(); ++c) {
    for (int k = 0; k < 4; ++k) {
      const auto e = std::make_pair(grid.cell_node(c, k),
                                    grid.cell_node(c, (k + 1) % 4));
      EXPECT_TRUE(directed.insert(e).second)
          << "edge " << e.first << "->" << e.second << " walked twice";
    }
  }
  std::size_t boundary = 0;
  for (const auto& [a, b] : directed) {
    if (directed.count({b, a}) != 0) continue;
    ++boundary;
    EXPECT_TRUE(grid.is_margin_node(a)) << "node " << a;
    EXPECT_TRUE(grid.is_margin_node(b)) << "node " << b;
  }
  EXPECT_GT(boundary, 0u);
  EXPECT_LT(boundary, directed.size());
}

TEST_F(QuadGridTest, CellCentroidsHaveIce) {
  for (std::size_t c = 0; c < grid.n_cells(); ++c) {
    double x, y;
    grid.cell_centroid(c, x, y);
    EXPECT_TRUE(geom.has_ice(x, y)) << "cell " << c;
  }
}

TEST(QuadGrid, FinerResolutionScalesQuadratically) {
  IceGeometry geom;
  const QuadGrid coarse(geom, {200.0e3});
  const QuadGrid fine(geom, {100.0e3});
  const double ratio = static_cast<double>(fine.n_cells()) /
                       static_cast<double>(coarse.n_cells());
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
}

TEST(QuadGrid, PaperScaleCellCount) {
  // At 16 km with 20 layers the paper's workset is ~256K hexahedra; our
  // synthetic continent is sized to land in that regime.
  IceGeometry geom;
  const QuadGrid grid(geom, {16.0e3});
  const std::size_t hexes = grid.n_cells() * 20;
  EXPECT_GT(hexes, 150000u);
  EXPECT_LT(hexes, 500000u);
}

// ---- ExtrudedMesh ----

class ExtrudedMeshTest : public ::testing::Test {
 protected:
  ExtrudedMeshTest()
      : base(std::make_shared<QuadGrid>(geom, QuadGridConfig{150.0e3})),
        mesh(base, geom, ExtrudedMeshConfig{5}) {}
  IceGeometry geom{};
  std::shared_ptr<QuadGrid> base;
  ExtrudedMesh mesh;
};

TEST_F(ExtrudedMeshTest, Counts) {
  EXPECT_EQ(mesh.n_cells(), base->n_cells() * 5);
  EXPECT_EQ(mesh.n_nodes(), base->n_nodes() * 6);
  EXPECT_EQ(mesh.levels(), 6u);
}

TEST_F(ExtrudedMeshTest, NodeIdRoundTrip) {
  for (std::size_t col = 0; col < base->n_nodes(); ++col) {
    for (std::size_t lev = 0; lev < mesh.levels(); ++lev) {
      const std::size_t n = mesh.node_id(col, lev);
      EXPECT_EQ(mesh.column_of(n), col);
      EXPECT_EQ(mesh.level_of(n), lev);
    }
  }
}

TEST_F(ExtrudedMeshTest, CellIdRoundTrip) {
  for (std::size_t bc = 0; bc < base->n_cells(); ++bc) {
    for (std::size_t layer = 0; layer < 5; ++layer) {
      const std::size_t c = mesh.cell_id(bc, layer);
      EXPECT_EQ(mesh.base_cell_of(c), bc);
      EXPECT_EQ(mesh.layer_of(c), layer);
    }
  }
}

TEST_F(ExtrudedMeshTest, ZIncreasesWithLevel) {
  for (std::size_t col = 0; col < base->n_nodes(); ++col) {
    for (std::size_t lev = 0; lev + 1 < mesh.levels(); ++lev) {
      EXPECT_LT(mesh.node_z(mesh.node_id(col, lev)),
                mesh.node_z(mesh.node_id(col, lev + 1)));
    }
  }
}

TEST_F(ExtrudedMeshTest, ColumnSpansBedToSurface) {
  for (std::size_t col = 0; col < base->n_nodes(); col += 7) {
    const double x = base->node_x(col), y = base->node_y(col);
    const double h = std::max(geom.thickness(x, y), geom.config().min_thickness_m);
    EXPECT_NEAR(mesh.node_z(mesh.node_id(col, 0)), geom.bed(x, y), 1e-6);
    EXPECT_NEAR(mesh.node_z(mesh.node_id(col, mesh.levels() - 1)),
                geom.bed(x, y) + h, 1e-6);
  }
}

TEST_F(ExtrudedMeshTest, HexConnectivityTopBottom) {
  for (std::size_t c = 0; c < mesh.n_cells(); c += 11) {
    for (int k = 0; k < 4; ++k) {
      const std::size_t bottom = mesh.cell_node(c, k);
      const std::size_t top = mesh.cell_node(c, k + 4);
      EXPECT_EQ(mesh.column_of(bottom), mesh.column_of(top));
      EXPECT_EQ(mesh.level_of(bottom) + 1, mesh.level_of(top));
    }
  }
}

TEST_F(ExtrudedMeshTest, BoundarySets) {
  std::size_t basal = 0, surf = 0, dir = 0;
  for (std::size_t n = 0; n < mesh.n_nodes(); ++n) {
    basal += mesh.is_basal_node(n) ? 1 : 0;
    surf += mesh.is_surface_node(n) ? 1 : 0;
    dir += mesh.is_dirichlet_node(n) ? 1 : 0;
  }
  EXPECT_EQ(basal, base->n_nodes());
  EXPECT_EQ(surf, base->n_nodes());
  EXPECT_EQ(dir, base->n_margin_nodes() * mesh.levels());
}

TEST_F(ExtrudedMeshTest, BasalCellsAreLayerZero) {
  const auto cells = mesh.basal_cells();
  EXPECT_EQ(cells.size(), base->n_cells());
  for (std::size_t c : cells) EXPECT_EQ(mesh.layer_of(c), 0u);
}

// ---- QuadGrid::nearest_node ----

namespace {

/// The reference: scan every node, strict <, so the lowest index wins a tie.
std::size_t brute_nearest(const QuadGrid& g, double x, double y) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t n = 0; n < g.n_nodes(); ++n) {
    const double d = std::hypot(g.node_x(n) - x, g.node_y(n) - y);
    if (d < best_d) {
      best_d = d;
      best = n;
    }
  }
  return best;
}

/// Every distinct (x, y) of the mesh's hex quadrature points, computed with
/// the arithmetic StokesFOProblem::set_temperature_field uses.
std::set<std::pair<double, double>> quadrature_points(const ExtrudedMesh& m) {
  const auto qps = mali::fem::gauss_hex(2);
  std::set<std::pair<double, double>> pts;
  for (std::size_t c = 0; c < m.n_cells(); ++c) {
    for (const auto& qp : qps) {
      double x = 0.0, y = 0.0;
      for (int k = 0; k < mali::fem::Hex8Basis::num_nodes; ++k) {
        const double bf =
            mali::fem::Hex8Basis::value(k, qp.xi, qp.eta, qp.zeta);
        x += bf * m.node_x(m.cell_node(c, k));
        y += bf * m.node_y(m.cell_node(c, k));
      }
      pts.emplace(x, y);
    }
  }
  return pts;
}

/// Nodes, cell centroids (4-way ties), edge midpoints (2-way ties), and a
/// sweep past the lattice box at a step that never lands on the lattice.
std::vector<std::pair<double, double>> probe_points(const QuadGrid& g,
                                                    double half_width) {
  std::vector<std::pair<double, double>> pts;
  for (std::size_t n = 0; n < g.n_nodes(); ++n) {
    pts.emplace_back(g.node_x(n), g.node_y(n));
  }
  for (std::size_t c = 0; c < g.n_cells(); ++c) {
    double cx, cy;
    g.cell_centroid(c, cx, cy);
    pts.emplace_back(cx, cy);
    for (int k = 0; k < 4; ++k) {
      const std::size_t a = g.cell_node(c, k), b = g.cell_node(c, (k + 1) % 4);
      pts.emplace_back(0.5 * (g.node_x(a) + g.node_x(b)),
                       0.5 * (g.node_y(a) + g.node_y(b)));
    }
  }
  const double step = 0.37 * g.dx();
  for (double y = -1.3 * half_width; y <= 1.3 * half_width; y += step) {
    for (double x = -1.3 * half_width; x <= 1.3 * half_width; x += step) {
      pts.emplace_back(x, y);
    }
  }
  pts.emplace_back(1e12, -1e12);
  pts.emplace_back(std::numeric_limits<double>::quiet_NaN(), 0.0);
  return pts;
}

}  // namespace

TEST(QuadGrid, NearestNodeMatchesBruteForceScan) {
  struct Case {
    double dx_m;
    int layers;
    bool square;
  };
  for (const Case& k : {Case{100.0e3, 5, false}, Case{64.0e3, 10, false},
                        Case{100.0e3, 3, true}}) {
    IceGeometryConfig gcfg;
    gcfg.square_mask = k.square;
    const IceGeometry geom(gcfg);
    const auto base = std::make_shared<QuadGrid>(geom, QuadGridConfig{k.dx_m});
    const ExtrudedMesh mesh(base, geom, ExtrudedMeshConfig{k.layers});
    const double half = gcfg.radius_m * (1.0 + gcfg.lobe_amplitude) * 1.1;
    std::size_t checked = 0;
    for (const auto& [x, y] : quadrature_points(mesh)) {
      ASSERT_EQ(base->nearest_node(x, y), brute_nearest(*base, x, y))
          << "dx " << k.dx_m << ", quadrature point (" << x << ", " << y
          << ")";
      ++checked;
    }
    EXPECT_GE(checked, 4 * base->n_cells());
    for (const auto& [x, y] : probe_points(*base, half)) {
      ASSERT_EQ(base->nearest_node(x, y), brute_nearest(*base, x, y))
          << "dx " << k.dx_m << ", point (" << x << ", " << y << ")";
    }
  }
}
