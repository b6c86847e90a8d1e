// FEM substrate tests: basis functions, quadrature exactness, geometric
// workset invariants (volumes, gradient consistency), and the DOF map.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>

#include "fem/cell_geometry.hpp"
#include "fem/dof_map.hpp"
#include "fem/hex8.hpp"
#include "fem/quadrature.hpp"
#include "mesh/extruded_mesh.hpp"

using namespace mali;
using fem::Hex8Basis;
using fem::Quad4Basis;

TEST(Hex8, KroneckerPropertyAtNodes) {
  for (int i = 0; i < 8; ++i) {
    const auto ci = Hex8Basis::node_coord(i);
    for (int j = 0; j < 8; ++j) {
      EXPECT_NEAR(Hex8Basis::value(j, ci[0], ci[1], ci[2]), i == j ? 1.0 : 0.0,
                  1e-14);
    }
  }
}

class Hex8RandomPoint : public ::testing::TestWithParam<int> {};

TEST_P(Hex8RandomPoint, PartitionOfUnityAndGradientSum) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const double xi = dist(rng), eta = dist(rng), zeta = dist(rng);
  double sum = 0.0, gx = 0.0, gy = 0.0, gz = 0.0;
  for (int k = 0; k < 8; ++k) {
    sum += Hex8Basis::value(k, xi, eta, zeta);
    const auto g = Hex8Basis::gradient(k, xi, eta, zeta);
    gx += g[0];
    gy += g[1];
    gz += g[2];
  }
  EXPECT_NEAR(sum, 1.0, 1e-14);
  EXPECT_NEAR(gx, 0.0, 1e-14);
  EXPECT_NEAR(gy, 0.0, 1e-14);
  EXPECT_NEAR(gz, 0.0, 1e-14);
}

TEST_P(Hex8RandomPoint, GradientMatchesFiniteDifference) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 1000);
  std::uniform_real_distribution<double> dist(-0.9, 0.9);
  const double xi = dist(rng), eta = dist(rng), zeta = dist(rng);
  const double h = 1e-6;
  for (int k = 0; k < 8; ++k) {
    const auto g = Hex8Basis::gradient(k, xi, eta, zeta);
    EXPECT_NEAR(g[0],
                (Hex8Basis::value(k, xi + h, eta, zeta) -
                 Hex8Basis::value(k, xi - h, eta, zeta)) /
                    (2 * h),
                1e-8);
    EXPECT_NEAR(g[1],
                (Hex8Basis::value(k, xi, eta + h, zeta) -
                 Hex8Basis::value(k, xi, eta - h, zeta)) /
                    (2 * h),
                1e-8);
    EXPECT_NEAR(g[2],
                (Hex8Basis::value(k, xi, eta, zeta + h) -
                 Hex8Basis::value(k, xi, eta, zeta - h)) /
                    (2 * h),
                1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Hex8RandomPoint, ::testing::Range(0, 8));

TEST(Quad4, PartitionOfUnity) {
  for (double xi = -1.0; xi <= 1.0; xi += 0.4) {
    for (double eta = -1.0; eta <= 1.0; eta += 0.4) {
      double s = 0.0;
      for (int k = 0; k < 4; ++k) s += Quad4Basis::value(k, xi, eta);
      EXPECT_NEAR(s, 1.0, 1e-14);
    }
  }
}

TEST(Quad4, KroneckerPropertyAtNodes) {
  for (int i = 0; i < 4; ++i) {
    const auto ci = Quad4Basis::node_coord(i);
    for (int j = 0; j < 4; ++j) {
      EXPECT_NEAR(Quad4Basis::value(j, ci[0], ci[1]), i == j ? 1.0 : 0.0,
                  1e-14);
    }
  }
}

class Quad4RandomPoint : public ::testing::TestWithParam<int> {};

TEST_P(Quad4RandomPoint, PartitionOfUnityAndGradients) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> dist(-0.9, 0.9);
  const double xi = dist(rng), eta = dist(rng);
  double sum = 0.0, g[2] = {0, 0};
  for (int k = 0; k < 4; ++k) {
    sum += Quad4Basis::value(k, xi, eta);
    const auto gr = Quad4Basis::gradient(k, xi, eta);
    g[0] += gr[0];
    g[1] += gr[1];
  }
  EXPECT_NEAR(sum, 1.0, 1e-14);
  EXPECT_NEAR(g[0], 0.0, 1e-14);
  EXPECT_NEAR(g[1], 0.0, 1e-14);

  // Gradient vs central differences (exact up to rounding: N_k is linear
  // in each coordinate separately).
  const double h = 1e-6;
  for (int k = 0; k < 4; ++k) {
    const auto gr = Quad4Basis::gradient(k, xi, eta);
    EXPECT_NEAR(gr[0],
                (Quad4Basis::value(k, xi + h, eta) -
                 Quad4Basis::value(k, xi - h, eta)) /
                    (2 * h),
                1e-9);
    EXPECT_NEAR(gr[1],
                (Quad4Basis::value(k, xi, eta + h) -
                 Quad4Basis::value(k, xi, eta - h)) /
                    (2 * h),
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Quad4RandomPoint, ::testing::Range(0, 6));

// Gauss quadrature integrates polynomials of degree <= 2n-1 exactly.
class GaussExactness : public ::testing::TestWithParam<int> {};

TEST_P(GaussExactness, Integrates1D) {
  const int n = GetParam();
  const auto g = fem::gauss_1d(n);
  ASSERT_EQ(static_cast<int>(g.size()), n);
  for (int p = 0; p <= 2 * n - 1; ++p) {
    double num = 0.0;
    for (const auto& [x, w] : g) num += w * std::pow(x, p);
    const double exact = (p % 2 == 0) ? 2.0 / (p + 1) : 0.0;
    EXPECT_NEAR(num, exact, 1e-13) << "degree " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, GaussExactness, ::testing::Values(1, 2, 3));

TEST(GaussHex, WeightsSumToVolume) {
  const auto qps = fem::gauss_hex(2);
  ASSERT_EQ(qps.size(), 8u);  // the paper's numQPs
  double w = 0.0;
  for (const auto& q : qps) w += q.weight;
  EXPECT_NEAR(w, 8.0, 1e-13);
}

TEST(GaussHex, IntegratesTrilinearExactly) {
  const auto qps = fem::gauss_hex(2);
  // f = (1+x)(2+y)(3-z): trilinear, exact integral = 2*4*6*... compute:
  // int(1+x) = 2, int(2+y) = 4, int(3-z) = 6 over [-1,1] each.
  double num = 0.0;
  for (const auto& q : qps) {
    num += q.weight * (1 + q.xi) * (2 + q.eta) * (3 - q.zeta);
  }
  EXPECT_NEAR(num, 48.0, 1e-12);
}

namespace {

/// Exact integral of x^p over [-1, 1].
double monomial_integral(int p) { return (p % 2 == 0) ? 2.0 / (p + 1) : 0.0; }

}  // namespace

TEST(GaussHex, IntegratesTricubicMonomialsExactly) {
  // The 2-point rule is exact to degree 3 in each direction separately, so
  // every x^a y^b z^c with a, b, c <= 3 (up to total degree 9) is exact.
  const auto qps = fem::gauss_hex(2);
  for (int a = 0; a <= 3; ++a) {
    for (int b = 0; b <= 3; ++b) {
      for (int c = 0; c <= 3; ++c) {
        double num = 0.0;
        for (const auto& q : qps) {
          num += q.weight * std::pow(q.xi, a) * std::pow(q.eta, b) *
                 std::pow(q.zeta, c);
        }
        EXPECT_NEAR(num,
                    monomial_integral(a) * monomial_integral(b) *
                        monomial_integral(c),
                    1e-13)
            << "x^" << a << " y^" << b << " z^" << c;
      }
    }
  }
}

TEST(GaussHex, ThreePointRuleIsExactToDegreeFivePerDirection) {
  const auto qps = fem::gauss_hex(3);
  ASSERT_EQ(qps.size(), 27u);
  for (int a = 0; a <= 5; ++a) {
    for (int c = 0; c <= 5; ++c) {
      double num = 0.0;
      for (const auto& q : qps) {
        num += q.weight * std::pow(q.xi, a) * q.eta * q.eta *
               std::pow(q.zeta, c);
      }
      EXPECT_NEAR(num,
                  monomial_integral(a) * monomial_integral(2) *
                      monomial_integral(c),
                  1e-13)
          << "x^" << a << " y^2 z^" << c;
    }
  }
  // x^6 is beyond the rule: the error is the classic 3-point defect.
  double num = 0.0;
  for (const auto& q : qps) num += q.weight * std::pow(q.xi, 6);
  EXPECT_GT(std::abs(num / 4.0 - monomial_integral(6)), 1e-3);
}

TEST(GaussQuad, WeightsSumToAreaAndPointsLieInside) {
  const auto qps = fem::gauss_quad(2);
  ASSERT_EQ(qps.size(), 4u);  // the basal side set's face_qps
  double w = 0.0;
  for (const auto& q : qps) {
    w += q.weight;
    EXPECT_LT(std::abs(q.xi), 1.0);
    EXPECT_LT(std::abs(q.eta), 1.0);
  }
  EXPECT_NEAR(w, 4.0, 1e-14);
}

TEST(GaussQuad, IntegratesBicubicMonomialsExactly) {
  const auto qps = fem::gauss_quad(2);
  for (int a = 0; a <= 3; ++a) {
    for (int b = 0; b <= 3; ++b) {
      double num = 0.0;
      for (const auto& q : qps) {
        num += q.weight * std::pow(q.xi, a) * std::pow(q.eta, b);
      }
      EXPECT_NEAR(num, monomial_integral(a) * monomial_integral(b), 1e-14)
          << "x^" << a << " y^" << b;
    }
  }
}

// ---- geometry workset on a real extruded mesh ----

class GeometryWorksetTest : public ::testing::Test {
 protected:
  GeometryWorksetTest()
      : base(std::make_shared<mesh::QuadGrid>(geom,
                                              mesh::QuadGridConfig{150.0e3})),
        msh(base, geom, mesh::ExtrudedMeshConfig{4}),
        ws(fem::build_geometry(msh, geom)) {}
  mesh::IceGeometry geom{};
  std::shared_ptr<mesh::QuadGrid> base;
  mesh::ExtrudedMesh msh;
  fem::GeometryWorkset ws;
};

TEST_F(GeometryWorksetTest, Shapes) {
  EXPECT_EQ(ws.n_cells, msh.n_cells());
  EXPECT_EQ(ws.num_nodes, 8);
  EXPECT_EQ(ws.num_qps, 8);
  // Cell-indexed arrays are lane-padded for SIMD batching: the ghost rows
  // replicate the last real cell so full-width pack loads stay in-bounds.
  EXPECT_EQ(ws.n_cells_padded, fem::padded_cells(ws.n_cells));
  EXPECT_EQ(ws.wBF.extent(0), ws.n_cells_padded);
  EXPECT_EQ(ws.wGradBF.extent(3), 3u);
  EXPECT_EQ(ws.n_basal_faces, base->n_cells());
}

TEST_F(GeometryWorksetTest, PositiveJacobians) {
  for (std::size_t c = 0; c < ws.n_cells; ++c) {
    for (int q = 0; q < ws.num_qps; ++q) {
      EXPECT_GT(ws.detJ(c, q), 0.0) << "cell " << c << " qp " << q;
    }
  }
}

TEST_F(GeometryWorksetTest, WbfSumsToCellVolume) {
  // sum_{k,q} wBF = integral of sum_k N_k = cell volume; compare with the
  // column-prism volume dx*dx*(H/layers) within a tolerance for bed slope.
  for (std::size_t c = 0; c < ws.n_cells; c += 13) {
    double vol = 0.0;
    for (int k = 0; k < 8; ++k) {
      for (int q = 0; q < 8; ++q) vol += ws.wBF(c, k, q);
    }
    double detvol = 0.0;
    const auto qps = fem::gauss_hex(2);
    for (int q = 0; q < 8; ++q) detvol += ws.detJ(c, q) * qps[static_cast<std::size_t>(q)].weight;
    EXPECT_NEAR(vol, detvol, 1e-6 * std::abs(detvol));
    EXPECT_GT(vol, 0.0);
  }
}

TEST_F(GeometryWorksetTest, ColumnVolumesMatchCornerMeanThickness) {
  // A column of hexes over a dx-by-dx base cell has straight vertical edges
  // and a bilinear top and bottom, so its volume is dx^2 times the mean of
  // the four corner thicknesses, and the 2x2x2 rule integrates each detJ
  // exactly.
  const auto qps = fem::gauss_hex(2);
  const std::size_t top = msh.levels() - 1;
  const auto layers = static_cast<std::size_t>(msh.n_layers());
  for (std::size_t bc = 0; bc < base->n_cells(); bc += 3) {
    double vol = 0.0;
    for (std::size_t l = 0; l < layers; ++l) {
      const std::size_t c = msh.cell_id(bc, l);
      for (int q = 0; q < ws.num_qps; ++q) {
        vol += ws.detJ(c, q) * qps[static_cast<std::size_t>(q)].weight;
      }
    }
    double mean_h = 0.0;
    for (int k = 0; k < 4; ++k) {
      const std::size_t col = base->cell_node(bc, k);
      mean_h += 0.25 * (msh.node_z(msh.node_id(col, top)) -
                        msh.node_z(msh.node_id(col, 0)));
    }
    const double expected = base->dx() * base->dx() * mean_h;
    EXPECT_NEAR(vol, expected, 1e-9 * expected) << "base cell " << bc;
  }
}

TEST_F(GeometryWorksetTest, GradientsAnnihilateConstants) {
  // sum_k gradBF(c,k,q,d) = gradient of the constant-1 interpolant = 0.
  for (std::size_t c = 0; c < ws.n_cells; c += 17) {
    for (int q = 0; q < 8; ++q) {
      for (int d = 0; d < 3; ++d) {
        double g = 0.0;
        for (int k = 0; k < 8; ++k) g += ws.gradBF(c, k, q, d);
        EXPECT_NEAR(g, 0.0, 1e-12);
      }
    }
  }
}

TEST_F(GeometryWorksetTest, GradientsReproduceLinearFields) {
  // Interpolating f = a.x should give grad = a at every qp.
  const double a[3] = {0.3, -1.2, 2.5};
  for (std::size_t c = 0; c < ws.n_cells; c += 19) {
    for (int q = 0; q < 8; ++q) {
      double g[3] = {0, 0, 0};
      for (int k = 0; k < 8; ++k) {
        const double f = a[0] * ws.coords(c, k, 0) + a[1] * ws.coords(c, k, 1) +
                         a[2] * ws.coords(c, k, 2);
        for (int d = 0; d < 3; ++d) g[d] += f * ws.gradBF(c, k, q, d);
      }
      for (int d = 0; d < 3; ++d) EXPECT_NEAR(g[d], a[d], 1e-9);
    }
  }
}

TEST_F(GeometryWorksetTest, WGradBFIsWeightedGradBF) {
  const auto qps = fem::gauss_hex(2);
  for (std::size_t c = 0; c < ws.n_cells; c += 23) {
    for (int k = 0; k < 8; ++k) {
      for (int q = 0; q < 8; ++q) {
        const double w = ws.detJ(c, q) * qps[static_cast<std::size_t>(q)].weight;
        for (int d = 0; d < 3; ++d) {
          EXPECT_NEAR(ws.wGradBF(c, k, q, d), ws.gradBF(c, k, q, d) * w,
                      1e-9 * std::abs(w) + 1e-12);
        }
      }
    }
  }
}

TEST_F(GeometryWorksetTest, BasalFaceAreasSumToBaseArea) {
  // Bottom faces tile the (slightly sloped) bed; their areas should be close
  // to n_base_cells * dx^2.
  double area = 0.0;
  for (std::size_t f = 0; f < ws.n_basal_faces; ++f) {
    for (int k = 0; k < 4; ++k) {
      for (int q = 0; q < ws.face_qps; ++q) area += ws.basal_wBF(f, k, q);
    }
  }
  const double flat = static_cast<double>(base->n_cells()) * base->dx() * base->dx();
  EXPECT_NEAR(area / flat, 1.0, 0.02);
}

TEST_F(GeometryWorksetTest, BasalBetaWithinConfiguredRange) {
  for (std::size_t f = 0; f < ws.n_basal_faces; ++f) {
    EXPECT_GE(ws.basal_beta(f), geom.config().beta_stream);
    EXPECT_LE(ws.basal_beta(f), geom.config().beta_interior);
  }
}

// ---- DofMap ----

class DofMapTest : public ::testing::Test {
 protected:
  DofMapTest()
      : base(std::make_shared<mesh::QuadGrid>(geom,
                                              mesh::QuadGridConfig{200.0e3})),
        msh(base, geom, mesh::ExtrudedMeshConfig{3}),
        dofs(msh) {}
  mesh::IceGeometry geom{};
  std::shared_ptr<mesh::QuadGrid> base;
  mesh::ExtrudedMesh msh;
  fem::DofMap dofs;
};

TEST_F(DofMapTest, Counts) {
  EXPECT_EQ(dofs.n_nodes(), msh.n_nodes());
  EXPECT_EQ(dofs.n_dofs(), 2 * msh.n_nodes());
  EXPECT_EQ(dofs.dirichlet_dofs().size(),
            2 * base->n_margin_nodes() * msh.levels());
}

TEST_F(DofMapTest, DirichletFlagsConsistent) {
  for (std::size_t d : dofs.dirichlet_dofs()) EXPECT_TRUE(dofs.is_dirichlet_dof(d));
  std::size_t count = 0;
  for (std::size_t d = 0; d < dofs.n_dofs(); ++d) {
    count += dofs.is_dirichlet_dof(d) ? 1 : 0;
  }
  EXPECT_EQ(count, dofs.dirichlet_dofs().size());
}

TEST_F(DofMapTest, SparsityContainsDiagonalAndIsSymmetricPattern) {
  const auto rp = dofs.graph()->scalar_row_ptr();
  const auto cols = dofs.graph()->scalar_cols();
  ASSERT_EQ(rp.size(), dofs.n_dofs() + 1);
  auto has = [&](std::size_t r, std::size_t c) {
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      if (cols[k] == c) return true;
    }
    return false;
  };
  for (std::size_t r = 0; r < dofs.n_dofs(); r += 7) {
    EXPECT_TRUE(has(r, r)) << "diagonal missing in row " << r;
    for (std::size_t k = rp[r]; k < rp[r + 1]; k += 5) {
      EXPECT_TRUE(has(cols[k], r)) << "pattern asymmetry";
    }
  }
}

TEST_F(DofMapTest, ColumnsSortedWithinRows) {
  const auto rp = dofs.graph()->scalar_row_ptr();
  const auto cols = dofs.graph()->scalar_cols();
  for (std::size_t r = 0; r < dofs.n_dofs(); ++r) {
    for (std::size_t k = rp[r] + 1; k < rp[r + 1]; ++k) {
      EXPECT_LT(cols[k - 1], cols[k]);
    }
  }
}

TEST_F(DofMapTest, RowsCoupleBothComponents) {
  // Each node's two dofs have identical column sets.
  const auto rp = dofs.graph()->scalar_row_ptr();
  const auto cols = dofs.graph()->scalar_cols();
  for (std::size_t n = 0; n < dofs.n_nodes(); n += 11) {
    const std::size_t r0 = fem::DofMap::dof(n, 0);
    const std::size_t r1 = fem::DofMap::dof(n, 1);
    ASSERT_EQ(rp[r0 + 1] - rp[r0], rp[r1 + 1] - rp[r1]);
    for (std::size_t k = 0; k < rp[r0 + 1] - rp[r0]; ++k) {
      EXPECT_EQ(cols[rp[r0] + k], cols[rp[r1] + k]);
    }
  }
}
