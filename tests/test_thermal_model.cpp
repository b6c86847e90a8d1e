// ThermalModel (mesh-wide thermal state) tests: initialization from the
// geometry, steady solves, interpolation hook and the column it reads,
// strain heating from a velocity field, and the full thermo-mechanical
// coupling loop.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "fem/hex8.hpp"
#include "fem/quadrature.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "nonlinear/newton.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "physics/thermal_model.hpp"

using namespace mali;
using physics::ThermalModel;

namespace {

struct Fixture {
  Fixture() {
    physics::StokesFOConfig cfg;
    cfg.dx_m = 250.0e3;
    cfg.n_layers = 4;
    problem = std::make_unique<physics::StokesFOProblem>(cfg);
  }
  std::unique_ptr<physics::StokesFOProblem> problem;
};

}  // namespace

TEST(ThermalModel, InitializesFromGeometry) {
  Fixture f;
  ThermalModel thermal(f.problem->mesh(), f.problem->geometry());
  EXPECT_EQ(thermal.n_columns(), f.problem->mesh().base().n_nodes());
  EXPECT_EQ(thermal.levels(), f.problem->mesh().levels());
  // Matches the analytic field at the nodes.
  const auto& base = f.problem->mesh().base();
  for (std::size_t col = 0; col < thermal.n_columns(); col += 11) {
    const double expect = f.problem->geometry().temperature(
        base.node_x(col), base.node_y(col), 0.0);
    EXPECT_NEAR(thermal.temperature(col, 0), expect, 1e-12);
  }
}

TEST(ThermalModel, SteadySolveKeepsSurfaceBcAndWarmsBed) {
  Fixture f;
  ThermalModel thermal(f.problem->mesh(), f.problem->geometry());
  thermal.solve_steady();
  const auto& base = f.problem->mesh().base();
  for (std::size_t col = 0; col < thermal.n_columns(); col += 7) {
    const double surf_T = f.problem->geometry().temperature(
        base.node_x(col), base.node_y(col), 1.0);
    EXPECT_NEAR(thermal.temperature(col, thermal.levels() - 1), surf_T, 1e-9);
    // Geothermal flux warms the bed above the surface temperature.
    EXPECT_GT(thermal.temperature(col, 0), surf_T);
  }
  EXPECT_LE(thermal.max_bed_temperature(), 273.15 + 1e-9);
}

TEST(ThermalModel, TemperatureAtInterpolates) {
  Fixture f;
  ThermalModel thermal(f.problem->mesh(), f.problem->geometry());
  thermal.solve_steady();
  const auto& base = f.problem->mesh().base();
  const std::size_t col = thermal.n_columns() / 2;
  const double x = base.node_x(col), y = base.node_y(col);
  // At the exact node elevations the interpolation reproduces the nodes.
  EXPECT_NEAR(thermal.temperature_at(x, y, 0.0), thermal.temperature(col, 0),
              1e-12);
  EXPECT_NEAR(thermal.temperature_at(x, y, 1.0),
              thermal.temperature(col, thermal.levels() - 1), 1e-12);
  // Midway between two levels: between the nodal values.
  const double mid = thermal.temperature_at(x, y, 0.5);
  double lo = 1e300, hi = -1e300;
  for (std::size_t lev = 0; lev < thermal.levels(); ++lev) {
    lo = std::min(lo, thermal.temperature(col, lev));
    hi = std::max(hi, thermal.temperature(col, lev));
  }
  EXPECT_GE(mid, lo - 1e-12);
  EXPECT_LE(mid, hi + 1e-12);
}

TEST(ThermalModel, TemperatureAtReadsTheNearestColumn) {
  // Column c holds c at the bed, so temperature_at(x, y, 0) names the column
  // it read; it must be the lowest-index column at the minimal hypot
  // distance, the one a scan over every column picks.
  for (const bool square : {false, true}) {
    physics::StokesFOConfig cfg;
    cfg.dx_m = 250.0e3;
    cfg.n_layers = 4;
    cfg.geometry.square_mask = square;
    const physics::StokesFOProblem p(cfg);
    const auto& mesh = p.mesh();
    const auto& base = mesh.base();
    ThermalModel thermal(mesh, p.geometry());
    std::vector<double> flat(thermal.n_columns() * thermal.levels(), 250.0);
    for (std::size_t col = 0; col < thermal.n_columns(); ++col) {
      flat[col * thermal.levels()] = static_cast<double>(col);
    }
    thermal.set_temperatures_flat(flat);

    // Quadrature points, cell centroids (4-way ties) and edge midpoints
    // (2-way ties), plus a point far outside the lattice.
    std::vector<std::pair<double, double>> pts;
    const auto qps = fem::gauss_hex(2);
    for (std::size_t c = 0; c < mesh.n_cells(); ++c) {
      for (const auto& qp : qps) {
        double x = 0.0, y = 0.0;
        for (int k = 0; k < fem::Hex8Basis::num_nodes; ++k) {
          const double bf = fem::Hex8Basis::value(k, qp.xi, qp.eta, qp.zeta);
          x += bf * mesh.node_x(mesh.cell_node(c, k));
          y += bf * mesh.node_y(mesh.cell_node(c, k));
        }
        pts.emplace_back(x, y);
      }
    }
    for (std::size_t c = 0; c < base.n_cells(); ++c) {
      double cx, cy;
      base.cell_centroid(c, cx, cy);
      pts.emplace_back(cx, cy);
      for (int k = 0; k < 4; ++k) {
        const std::size_t a = base.cell_node(c, k);
        const std::size_t b = base.cell_node(c, (k + 1) % 4);
        pts.emplace_back(0.5 * (base.node_x(a) + base.node_x(b)),
                         0.5 * (base.node_y(a) + base.node_y(b)));
      }
    }
    pts.emplace_back(-3.0e6, 2.5e6);

    for (const auto& [x, y] : pts) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t col = 0; col < thermal.n_columns(); ++col) {
        const double d = std::hypot(base.node_x(col) - x, base.node_y(col) - y);
        if (d < best_d) {
          best_d = d;
          best = col;
        }
      }
      ASSERT_EQ(thermal.temperature_at(x, y, 0.0), static_cast<double>(best))
          << (square ? "square" : "lobed") << " mask, point (" << x << ", "
          << y << ")";
    }
  }
}

TEST(ThermalModel, StrainHeatingPositiveAndShearDriven) {
  Fixture f;
  ThermalModel thermal(f.problem->mesh(), f.problem->geometry());
  const auto U = f.problem->analytic_initial_guess();  // vertically sheared
  const auto q = thermal.strain_heating(U, f.problem->config().constants);
  ASSERT_EQ(q.size(), thermal.n_columns());
  double total = 0.0;
  for (const auto& col : q) {
    for (double v : col) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
  }
  EXPECT_GT(total, 0.0);
  // Zero velocity still produces the (regularized) floor but far less heat.
  const std::vector<double> zero(U.size(), 0.0);
  const auto q0 = thermal.strain_heating(zero, f.problem->config().constants);
  double total0 = 0.0;
  for (const auto& col : q0) {
    for (double v : col) total0 += v;
  }
  EXPECT_LT(total0, total);
}

TEST(ThermalModel, TransientApproachesSteady) {
  Fixture f;
  ThermalModel steady(f.problem->mesh(), f.problem->geometry());
  steady.solve_steady();
  ThermalModel transient(f.problem->mesh(), f.problem->geometry());
  for (int s = 0; s < 2000; ++s) transient.step(50.0);
  for (std::size_t col = 0; col < steady.n_columns(); col += 13) {
    EXPECT_NEAR(transient.temperature(col, 0), steady.temperature(col, 0),
                0.5)
        << "column " << col;
  }
}

TEST(ThermalModel, CouplingLoopConverges) {
  // Two Picard sweeps through the full library API: velocity -> heating ->
  // temperature -> A(T) -> velocity.  The update between the sweeps must
  // shrink (contraction), and warm coupling must speed the ice up.
  Fixture f;
  auto& p = *f.problem;
  ThermalModel thermal(p.mesh(), p.geometry());
  linalg::SemicoarseningAmg amg(p.extrusion_info());
  nonlinear::NewtonConfig ncfg;
  ncfg.max_iters = 10;
  nonlinear::NewtonSolver newton(ncfg);

  std::vector<double> U(p.n_dofs(), 0.0);
  newton.solve(p, amg, U);
  const double mean_uncoupled = p.mean_velocity(U);

  double prev_change = 1e300;
  double mean = mean_uncoupled;
  for (int it = 0; it < 3; ++it) {
    thermal.solve_steady(thermal.strain_heating(U, p.config().constants));
    p.set_temperature_field([&](double x, double y, double s) {
      return thermal.temperature_at(x, y, s);
    });
    newton.solve(p, amg, U);
    const double new_mean = p.mean_velocity(U);
    const double change = std::abs(new_mean - mean);
    if (it > 0) {
      EXPECT_LT(change, prev_change) << "Picard must contract";
    }
    prev_change = change;
    mean = new_mean;
  }
  EXPECT_GT(mean, mean_uncoupled)
      << "warm basal ice must flow faster than the cold uniform-A state";
}
