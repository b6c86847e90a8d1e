// Unit tests for the evaluator chain pieces (gather, velocity gradient,
// viscosity, body force, basal friction) and the VTK writer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>

#include "io/vtk_writer.hpp"
#include "physics/evaluators.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "portability/parallel.hpp"

using namespace mali;

TEST(GatherSolution, SeedsFadDerivatives) {
  using Fad = physics::JacobianEval::ScalarT;
  pk::View<double, 1> U("U", 8);
  for (std::size_t i = 0; i < 8; ++i) U(i) = static_cast<double>(i) + 0.5;
  pk::View<std::size_t, 2> cell_nodes("cn", 1, 2);
  cell_nodes(0, 0) = 3;
  cell_nodes(0, 1) = 1;
  pk::View<Fad, 3> UNodal("un", 1, 2, 2);
  physics::GatherSolution<Fad> g{U, cell_nodes, UNodal, 2};
  g(0);
  // Node 0 (global 3): value U(6), seeded along local dof 0.
  EXPECT_DOUBLE_EQ(UNodal(0, 0, 0).val(), 6.5);
  EXPECT_DOUBLE_EQ(UNodal(0, 0, 0).dx(0), 1.0);
  EXPECT_DOUBLE_EQ(UNodal(0, 0, 0).dx(1), 0.0);
  // Node 1 comp 1 (global dof 3): seeded along local dof 3.
  EXPECT_DOUBLE_EQ(UNodal(0, 1, 1).val(), 3.5);
  EXPECT_DOUBLE_EQ(UNodal(0, 1, 1).dx(3), 1.0);
}

TEST(VelocityGradient, ReproducesLinearField) {
  // UNodal sampled from u = a.x ==> Ugrad must equal a at every qp when
  // gradBF reproduces constants (use a trivial one-node basis surrogate).
  constexpr std::size_t N = 4, Q = 3;
  pk::View<double, 3> UNodal("un", 1, N, 2);
  pk::View<double, 4> gradBF("g", 1, N, Q, 3);
  pk::View<double, 4> Ugrad("ug", 1, Q, 2, 3);
  // Choose gradBF columns that sum weighted nodal values into an exact
  // derivative: node n contributes w_n with sum w_n x_n = d/dx by
  // construction (finite-difference-like weights).
  const double x[N] = {0.0, 1.0, 0.0, 1.0};
  const double y[N] = {0.0, 0.0, 1.0, 1.0};
  const double wx[N] = {-0.5, 0.5, -0.5, 0.5};
  const double wy[N] = {-0.5, -0.5, 0.5, 0.5};
  for (std::size_t n = 0; n < N; ++n) {
    UNodal(0, n, 0) = 2.0 * x[n] - 3.0 * y[n];
    UNodal(0, n, 1) = 0.5 * x[n] + 1.5 * y[n];
    for (std::size_t q = 0; q < Q; ++q) {
      gradBF(0, n, q, 0) = wx[n];
      gradBF(0, n, q, 1) = wy[n];
      gradBF(0, n, q, 2) = 0.0;
    }
  }
  physics::VelocityGradient<double> vg{UNodal, gradBF, Ugrad, N, Q};
  vg(0);
  for (std::size_t q = 0; q < Q; ++q) {
    EXPECT_NEAR(Ugrad(0, q, 0, 0), 2.0, 1e-14);
    EXPECT_NEAR(Ugrad(0, q, 0, 1), -3.0, 1e-14);
    EXPECT_NEAR(Ugrad(0, q, 1, 0), 0.5, 1e-14);
    EXPECT_NEAR(Ugrad(0, q, 1, 1), 1.5, 1e-14);
    EXPECT_NEAR(Ugrad(0, q, 0, 2), 0.0, 1e-14);
  }
}

TEST(ViscosityFO, GlensLawValues) {
  pk::View<double, 4> Ugrad("ug", 1, 1, 2, 3);
  pk::View<double, 2> mu("mu", 1, 1);
  // Pure shear: u_z = 2 eps, everything else 0 -> eps_e^2 = eps^2.
  const double eps = 1e-3;
  Ugrad(0, 0, 0, 2) = 2.0 * eps;
  physics::ViscosityFO<double> v;
  v.Ugrad = Ugrad;
  v.muLandIce = mu;
  v.glen_A = 1e-16;
  v.glen_n = 3.0;
  v.eps_reg2 = 0.0;
  v.numQPs = 1;
  v(0);
  const double expect =
      0.5 * std::pow(1e-16, -1.0 / 3.0) * std::pow(eps * eps, -1.0 / 3.0);
  EXPECT_NEAR(mu(0, 0) / expect, 1.0, 1e-12);
}

TEST(ViscosityFO, ShearThinning) {
  pk::View<double, 4> Ugrad("ug", 1, 2, 2, 3);
  pk::View<double, 2> mu("mu", 1, 2);
  Ugrad(0, 0, 0, 2) = 2e-4;
  Ugrad(0, 1, 0, 2) = 2e-2;  // 100x faster strain
  physics::ViscosityFO<double> v;
  v.Ugrad = Ugrad;
  v.muLandIce = mu;
  v.numQPs = 2;
  v(0);
  EXPECT_GT(mu(0, 0), mu(0, 1)) << "Glen's law is shear-thinning";
  // n=3: mu ~ eps^{-2/3}: factor 100 in eps -> ~21.5x in mu.
  EXPECT_NEAR(mu(0, 0) / mu(0, 1), std::pow(100.0, 2.0 / 3.0), 1.0);
}

TEST(ViscosityFO, ConstantModeBypassesStrainRate) {
  pk::View<double, 4> Ugrad("ug", 1, 1, 2, 3);
  pk::View<double, 2> mu("mu", 1, 1);
  Ugrad(0, 0, 0, 0) = 123.0;
  physics::ViscosityFO<double> v;
  v.Ugrad = Ugrad;
  v.muLandIce = mu;
  v.constant_mu = 7.5e7;
  v.numQPs = 1;
  v(0);
  EXPECT_DOUBLE_EQ(mu(0, 0), 7.5e7);
}

TEST(BasalFriction, LinearLawContribution) {
  // One face, one qp-set: Residual gains beta * u * wBF on the face nodes.
  pk::View<std::size_t, 1> face_cell("fc", 1);
  pk::View<double, 3> face_wBF("fw", 1, 4, 1);
  pk::View<double, 1> beta("b", 1);
  pk::View<double, 1> U("u", 16);
  pk::View<std::size_t, 2> cell_nodes("cn", 1, 8);
  pk::View<double, 3> Residual("r", 1, 8, 2);
  pk::View<double, 2> face_BF("bf", 4, 1);
  beta(0) = 2.0;
  for (std::size_t k = 0; k < 8; ++k) cell_nodes(0, k) = 7 - k;
  for (int k = 0; k < 4; ++k) {
    face_BF(k, 0) = 0.25;       // uniform face basis at the single qp
    face_wBF(0, k, 0) = 3.0;    // weight x area
    const std::size_t g = cell_nodes(0, k);
    U(2 * g) = 10.0;            // uniform basal velocity
    U(2 * g + 1) = -4.0;
  }
  physics::BasalFrictionResid<double> f{
      face_cell, face_wBF, beta, U, cell_nodes, Residual, face_BF, 1};
  f(0);
  for (int k = 0; k < 4; ++k) {
    EXPECT_NEAR(Residual(0, k, 0), 2.0 * 10.0 * 3.0, 1e-12);
    EXPECT_NEAR(Residual(0, k, 1), 2.0 * -4.0 * 3.0, 1e-12);
  }
  for (int k = 4; k < 8; ++k) {
    EXPECT_EQ(Residual(0, k, 0), 0.0);  // top nodes untouched
  }
}

// ---- VTK ----

TEST(VtkWriter, WritesValidLegacyFile) {
  physics::StokesFOConfig cfg;
  cfg.dx_m = 300.0e3;
  cfg.n_layers = 3;
  physics::StokesFOProblem p(cfg);
  const auto U = p.analytic_initial_guess();
  std::vector<double> speed(p.mesh().n_nodes());
  for (std::size_t n = 0; n < speed.size(); ++n) {
    speed[n] = std::hypot(U[2 * n], U[2 * n + 1]);
  }
  const auto path = std::string(::testing::TempDir()) + "mesh.vtk";
  io::write_vtk(path, p.mesh(), {{"speed", &speed}}, {{"velocity", &U}});

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "# vtk DataFile Version 3.0");
  std::size_t points = 0, cells = 0, celltypes = 0, pointdata = 0;
  while (std::getline(is, line)) {
    if (line.rfind("POINTS", 0) == 0) points = 1;
    if (line.rfind("CELLS", 0) == 0) cells = 1;
    if (line.rfind("CELL_TYPES", 0) == 0) celltypes = 1;
    if (line.rfind("POINT_DATA", 0) == 0) pointdata = 1;
  }
  EXPECT_EQ(points + cells + celltypes + pointdata, 4u);
  std::remove(path.c_str());
}

TEST(VtkWriter, RejectsWrongFieldSizes) {
  physics::StokesFOConfig cfg;
  cfg.dx_m = 300.0e3;
  cfg.n_layers = 3;
  physics::StokesFOProblem p(cfg);
  std::vector<double> bad(3, 0.0);
  EXPECT_THROW(io::write_vtk(std::string(::testing::TempDir()) + "x.vtk",
                             p.mesh(), {{"bad", &bad}}),
               mali::Error);
}
