// Integration tests for the full StokesFOProblem: assembly consistency
// (AD Jacobian vs finite differences), variant-independence of the solve,
// Dirichlet handling, and the paper's §III-B acceptance test (mean velocity
// against a stored reference, rtol 1e-5) at reduced resolution.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <random>
#include <string>

#include "linalg/semicoarsening_amg.hpp"
#include "nonlinear/newton.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "util/hash.hpp"

using namespace mali;
using physics::KernelVariant;
using physics::StokesFOConfig;
using physics::StokesFOProblem;

namespace {

StokesFOConfig coarse_config(KernelVariant v = KernelVariant::kOptimized) {
  StokesFOConfig cfg;
  cfg.dx_m = 250.0e3;  // very coarse for CI speed
  cfg.n_layers = 4;
  cfg.variant = v;
  return cfg;
}

std::vector<double> random_state(const StokesFOProblem& p, unsigned seed,
                                 double scale) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-scale, scale);
  std::vector<double> U(p.n_dofs());
  for (auto& u : U) u = dist(rng);
  return U;
}

}  // namespace

TEST(StokesFOProblem, BuildsConsistentSizes) {
  StokesFOProblem p(coarse_config());
  EXPECT_EQ(p.n_dofs(), 2 * p.mesh().n_nodes());
  EXPECT_EQ(p.workset().n_cells, p.mesh().n_cells());
  EXPECT_GT(p.dof_map().dirichlet_dofs().size(), 0u);
  const auto J = p.create_matrix();
  EXPECT_EQ(J.n_rows(), p.n_dofs());
}

TEST(StokesFOProblem, ResidualAndJacobianValueAgree) {
  StokesFOProblem p(coarse_config());
  const auto U = p.analytic_initial_guess();
  std::vector<double> F1, F2;
  p.residual(U, F1);
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F2, J);
  ASSERT_EQ(F1.size(), F2.size());
  for (std::size_t i = 0; i < F1.size(); ++i) {
    EXPECT_NEAR(F1[i], F2[i], 1e-9 * std::max(1.0, std::abs(F1[i]))) << i;
  }
}

TEST(StokesFOProblem, JacobianMatchesDirectionalFiniteDifference) {
  StokesFOProblem p(coarse_config());
  auto U = p.analytic_initial_guess();
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);

  const auto dir = random_state(p, 99, 1.0);
  std::vector<double> Jd;
  J.apply(dir, Jd);

  // Central differences carry O(h^2) truncation error from the strongly
  // curved Glen's-law viscosity; verify both the match and the second-order
  // shrinkage of the discrepancy, which rules out a Jacobian bug.
  auto fd_error = [&](double h) {
    std::vector<double> Up(U), Um(U), Fp, Fm;
    for (std::size_t i = 0; i < U.size(); ++i) {
      Up[i] += h * dir[i];
      Um[i] -= h * dir[i];
    }
    p.residual(Up, Fp);
    p.residual(Um, Fm);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < U.size(); ++i) {
      const double fd = (Fp[i] - Fm[i]) / (2.0 * h);
      num += (fd - Jd[i]) * (fd - Jd[i]);
      den += fd * fd;
    }
    return std::sqrt(num / den);
  };
  const double e1 = fd_error(1e-4);
  const double e2 = fd_error(5e-5);
  EXPECT_LT(e1, 1e-3) << "AD Jacobian must match directional FD";
  EXPECT_LT(e2, 0.4 * e1)
      << "FD discrepancy must shrink ~quadratically (truncation-dominated)";
}

TEST(StokesFOProblem, DirichletRowsAreScaledIdentity) {
  StokesFOProblem p(coarse_config());
  auto U = random_state(p, 3, 50.0);
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);
  const auto& dirs = p.dof_map().dirichlet_dofs();
  ASSERT_FALSE(dirs.empty());
  // Rows are s*I with s the mean interior diagonal (conditioning); all
  // Dirichlet rows share the same scale and have no off-diagonal coupling.
  const double s = J.get(dirs[0], dirs[0]);
  EXPECT_GT(s, 0.0);
  const auto& rp = J.row_ptr();
  const auto& cols = J.cols();
  const auto& vals = J.values();
  for (std::size_t d : dirs) {
    EXPECT_DOUBLE_EQ(F[d], s * U[d]);
    EXPECT_DOUBLE_EQ(J.get(d, d), s);
    for (std::size_t k = rp[d]; k < rp[d + 1]; ++k) {
      if (cols[k] != d) {
        EXPECT_EQ(vals[k], 0.0);
      }
    }
  }
}

class VariantAssembly : public ::testing::TestWithParam<KernelVariant> {};

TEST_P(VariantAssembly, ResidualIndependentOfVariant) {
  StokesFOProblem base(coarse_config(KernelVariant::kBaseline));
  StokesFOProblem var(coarse_config(GetParam()));
  const auto U = base.analytic_initial_guess();
  std::vector<double> Fb, Fv;
  base.residual(U, Fb);
  var.residual(U, Fv);
  ASSERT_EQ(Fb.size(), Fv.size());
  for (std::size_t i = 0; i < Fb.size(); ++i) {
    EXPECT_NEAR(Fv[i], Fb[i], 1e-9 * std::max(1.0, std::abs(Fb[i])));
  }
}

TEST_P(VariantAssembly, JacobianIndependentOfVariant) {
  StokesFOProblem base(coarse_config(KernelVariant::kBaseline));
  StokesFOProblem var(coarse_config(GetParam()));
  const auto U = base.analytic_initial_guess();
  std::vector<double> Fb, Fv;
  auto Jb = base.create_matrix();
  auto Jv = var.create_matrix();
  base.residual_and_jacobian(U, Fb, Jb);
  var.residual_and_jacobian(U, Fv, Jv);
  const auto& vb = Jb.values();
  const auto& vv = Jv.values();
  ASSERT_EQ(vb.size(), vv.size());
  for (std::size_t i = 0; i < vb.size(); ++i) {
    EXPECT_NEAR(vv[i], vb[i], 1e-9 * std::max(1.0, std::abs(vb[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, VariantAssembly,
                         ::testing::Values(KernelVariant::kOptimized,
                                           KernelVariant::kLoopOptOnly,
                                           KernelVariant::kFusedOnly,
                                           KernelVariant::kLocalAccumOnly));

TEST(StokesFOProblem, NewtonSolveReducesResidual) {
  StokesFOProblem p(coarse_config());
  linalg::SemicoarseningAmg amg(p.extrusion_info());
  nonlinear::NewtonConfig ncfg;
  ncfg.max_iters = 12;
  nonlinear::NewtonSolver newton(ncfg);
  std::vector<double> U(p.n_dofs(), 0.0);
  const auto r = newton.solve(p, amg, U);
  EXPECT_LT(r.residual_norm, 1e-3 * r.initial_norm)
      << "12 Newton steps should reduce ||F|| by >1e3";
  const double mean = p.mean_velocity(U);
  EXPECT_GT(mean, 1.0);      // ice flows
  EXPECT_LT(mean, 50000.0);  // but not unphysically fast (m/yr)
}

TEST(StokesFOProblem, SolveIsVariantIndependent) {
  double means[2];
  int i = 0;
  for (auto v : {KernelVariant::kBaseline, KernelVariant::kOptimized}) {
    StokesFOProblem p(coarse_config(v));
    linalg::SemicoarseningAmg amg(p.extrusion_info());
    nonlinear::NewtonConfig ncfg;
    ncfg.max_iters = 8;
    nonlinear::NewtonSolver newton(ncfg);
    std::vector<double> U(p.n_dofs(), 0.0);
    newton.solve(p, amg, U);
    means[i++] = p.mean_velocity(U);
  }
  EXPECT_NEAR(means[1] / means[0], 1.0, 1e-8);
}

TEST(StokesFOProblem, AnalyticGuessRespectsBoundaries) {
  StokesFOProblem p(coarse_config());
  const auto U = p.analytic_initial_guess();
  for (std::size_t d : p.dof_map().dirichlet_dofs()) EXPECT_EQ(U[d], 0.0);
  EXPECT_GT(p.mean_velocity(U), 0.0);
}

TEST(StokesFOProblem, AnalyticGuessSpeedsIncreaseTowardSurface) {
  StokesFOProblem p(coarse_config());
  const auto U = p.analytic_initial_guess();
  const auto& msh = p.mesh();
  for (std::size_t col = 0; col < msh.base().n_nodes(); col += 9) {
    if (msh.base().is_margin_node(col)) continue;
    double prev = -1.0;
    for (std::size_t lev = 0; lev < msh.levels(); ++lev) {
      const std::size_t n = msh.node_id(col, lev);
      const double s = std::hypot(U[2 * n], U[2 * n + 1]);
      EXPECT_GE(s, prev - 1e-12);
      prev = s;
    }
  }
}

// The paper's acceptance criterion: "the mean value of the final solution is
// compared to a previously tested value using a relative tolerance of 1e-5".
// The reference was produced by this configuration at commit time; any
// regression in mesh, physics, assembly or solvers will trip it.
TEST(AntarcticaAcceptance, MeanVelocityMatchesStoredReference) {
  StokesFOConfig cfg;
  cfg.dx_m = 200.0e3;
  cfg.n_layers = 5;
  StokesFOProblem p(cfg);
  linalg::SemicoarseningAmg amg(p.extrusion_info());
  nonlinear::NewtonConfig ncfg;
  ncfg.max_iters = 8;  // the paper's nonlinear step count
  ncfg.gmres.rel_tol = 1e-6;
  nonlinear::NewtonSolver newton(ncfg);
  std::vector<double> U(p.n_dofs(), 0.0);
  newton.solve(p, amg, U);
  const double mean = p.mean_velocity(U);
  // Frozen reference (m/yr) for this configuration; regenerate by printing
  // `mean` after an intentional physics/solver change.
  constexpr double kReference = 161.994681;
  RecordProperty("mean_velocity", std::to_string(mean));
  EXPECT_NEAR(mean / kReference, 1.0, 1e-5);
}

// ---------------------------------------------------------------------------
// Bitwise pins of the assembled SFad path: the CRS Jacobian, the residual
// that comes with it, and the node-block diagonal, as raw bytes
// (util::fnv1a64) — the values the assembled-Jacobian Newton solve and the
// forecast's velocity solves run on.  Recorded on the library built at -O2;
// a compiler flag or refactor that moves one bit fails here.
// ---------------------------------------------------------------------------

namespace {

std::uint64_t hash_of(const std::vector<double>& v) {
  return util::fnv1a64(v.data(), v.size() * sizeof(double));
}

}  // namespace

// Every variant gives the same J bits and the same block-diagonal bits; the
// residual values fall into two bit-groups: kOptimized and kFusedOnly sum
// the stress and force terms in one fused quadrature loop, kBaseline,
// kLoopOptOnly and kLocalAccumOnly in separate loops.  The SFad chain
// always runs scalar, so the configured SIMD width must not move a bit.
TEST(JacobianPin, AssembledSfadBytesEveryVariant) {
  struct Pin {
    bool thermal;
    KernelVariant variant;
    std::uint64_t J, F, diag;
  };
  const Pin pins[] = {
      {false, KernelVariant::kBaseline, 0x6a7fdcf0712099a8ull,
       0xfd8699e4611b9e16ull, 0xfe00bfbc6e6c378bull},
      {false, KernelVariant::kOptimized, 0x6a7fdcf0712099a8ull,
       0x8e89061d66a89884ull, 0xfe00bfbc6e6c378bull},
      {false, KernelVariant::kLoopOptOnly, 0x6a7fdcf0712099a8ull,
       0xfd8699e4611b9e16ull, 0xfe00bfbc6e6c378bull},
      {false, KernelVariant::kFusedOnly, 0x6a7fdcf0712099a8ull,
       0x8e89061d66a89884ull, 0xfe00bfbc6e6c378bull},
      {false, KernelVariant::kLocalAccumOnly, 0x6a7fdcf0712099a8ull,
       0xfd8699e4611b9e16ull, 0xfe00bfbc6e6c378bull},
      {true, KernelVariant::kBaseline, 0x7adf82020350986full,
       0x87a76e353c6d7cc9ull, 0x26c96ff8ef2af90dull},
      {true, KernelVariant::kOptimized, 0x7adf82020350986full,
       0xddde169d5ff793b6ull, 0x26c96ff8ef2af90dull},
      {true, KernelVariant::kLoopOptOnly, 0x7adf82020350986full,
       0x87a76e353c6d7cc9ull, 0x26c96ff8ef2af90dull},
      {true, KernelVariant::kFusedOnly, 0x7adf82020350986full,
       0xddde169d5ff793b6ull, 0x26c96ff8ef2af90dull},
      {true, KernelVariant::kLocalAccumOnly, 0x7adf82020350986full,
       0x87a76e353c6d7cc9ull, 0x26c96ff8ef2af90dull},
  };
  for (const int width : {1, 0}) {
    for (const Pin& pin : pins) {
      StokesFOConfig cfg;
      cfg.dx_m = 100.0e3;
      cfg.n_layers = 5;
      cfg.variant = pin.variant;
      cfg.thermal_viscosity = pin.thermal;
      cfg.simd_width = width;
      StokesFOProblem p(cfg);
      auto U = p.analytic_initial_guess();
      for (std::size_t i = 0; i < U.size(); ++i) {
        U[i] += 0.01 * std::sin(0.1 * static_cast<double>(i)) *
                (1.0 + std::abs(U[i]));
      }
      std::vector<double> F;
      auto J = p.create_matrix();
      p.residual_and_jacobian(U, F, J);
      const auto diag = p.jacobian_block_diagonal(U);
      const auto where = [&] {
        return std::string(pin.thermal ? "thermal" : "glen") + ", " +
               physics::to_string(pin.variant) + ", width " +
               std::to_string(width);
      };
      EXPECT_EQ(hash_of(J.values()), pin.J)
          << where() << ": J 0x" << std::hex << hash_of(J.values());
      EXPECT_EQ(hash_of(F), pin.F)
          << where() << ": F 0x" << std::hex << hash_of(F);
      EXPECT_EQ(hash_of(diag), pin.diag)
          << where() << ": diag 0x" << std::hex << hash_of(diag);
    }
  }
}

// Bitwise Newton-history pin of the assembled path at the native SIMD
// width: SFad Jacobian, AmgConfig{} (a multi-level column-line hierarchy at
// this size), each step's ||F|| as IEEE bits.  The matrix-free twin is
// NewtonHistoryPin.SerialMatrixFreeAtWidthOne in test_jfnk.
TEST(NewtonHistoryPin, SerialAssembledAmgAtNativeWidth) {
  StokesFOConfig cfg;
  cfg.dx_m = 100.0e3;
  cfg.n_layers = 5;
  cfg.simd_width = 0;
  StokesFOProblem problem(cfg);
  linalg::SemicoarseningAmg M(problem.extrusion_info(), linalg::AmgConfig{});
  nonlinear::NewtonConfig ncfg;
  ncfg.max_iters = 8;
  auto U = problem.analytic_initial_guess();
  const auto r = nonlinear::NewtonSolver(ncfg).solve(problem, M, U);
  EXPECT_GT(M.n_levels(), 1u);
  const std::uint64_t pinned[] = {
      0x434c8d4697e0beefull, 0x431ef4b5f3ff9877ull, 0x4313ed9ebc17c5acull,
      0x4309804eea9b448eull, 0x42e979b6d5dc8350ull, 0x42c12afed2dc65cbull,
      0x428da870a7bbc8d5ull, 0x424afdbb1545aad5ull, 0x41d167a4942b230bull};
  ASSERT_EQ(r.history.size(), std::size(pinned));
  for (std::size_t i = 0; i < r.history.size(); ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &r.history[i], sizeof bits);
    EXPECT_EQ(bits, pinned[i]) << "Newton step " << i << ": ||F|| = "
                               << r.history[i] << " = 0x" << std::hex << bits;
  }
}
