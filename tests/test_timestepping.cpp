// Transient forecast engine battery (DESIGN.md §14):
//   - depth_averaged_velocity unit checks (the hoisted trapezoidal rule)
//   - StepController growth/backoff/clamp schedules pinned exactly
//   - closed-domain mass conservation <= 1e-12 relative, per step and
//     accumulated over 100 steps
//   - temporal convergence: Richardson self-convergence at the expected
//     order for both time schemes, plus a manufactured time-dependent-SMB
//     problem with an analytic solution
//   - mid-run transient checkpoint -> restart bit-identity vs the
//     uninterrupted run
//   - forcing-spec parser round trips
//   - injected Newton fault mid-transient: the dt-backoff path (recovery
//     off) and the recovery ladder (recovery on) both finish the run
//   - bitwise pins of a coupled thermal forecast, transient and steady

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "linalg/block_jacobi.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "mesh/ice_geometry.hpp"
#include "mesh/quad_grid.hpp"
#include "mpas/fv_transport.hpp"
#include "physics/depth_average.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "portability/common.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault_injector.hpp"
#include "timestepping/forcing.hpp"
#include "timestepping/forecast_driver.hpp"
#include "timestepping/step_controller.hpp"
#include "util/fp_format.hpp"
#include "util/hash.hpp"

using namespace mali;
using timestepping::ForecastConfig;
using timestepping::ForecastDriver;
using timestepping::ForecastResult;
using timestepping::StepController;
using timestepping::StepControllerConfig;

namespace {

/// Small coupled problem every driver test shares: 220 km cells, 3 layers.
physics::StokesFOConfig small_problem_config() {
  physics::StokesFOConfig cfg;
  cfg.dx_m = 220.0e3;
  cfg.n_layers = 3;
  return cfg;
}

/// Cheap Jacobi preconditioner for the tests' tiny velocity solves.
std::unique_ptr<linalg::Preconditioner> make_jacobi(
    const physics::StokesFOProblem&) {
  return std::make_unique<linalg::JacobiPreconditioner>();
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

}  // namespace

// ---- depth_averaged_velocity -----------------------------------------

TEST(DepthAverage, ConstantProfileAveragesToItself) {
  physics::StokesFOProblem problem(small_problem_config());
  const auto& msh = problem.mesh();
  std::vector<double> U(2 * msh.n_nodes());
  for (std::size_t n = 0; n < msh.n_nodes(); ++n) {
    U[2 * n] = 120.0;
    U[2 * n + 1] = -45.0;
  }
  std::vector<double> ubar, vbar;
  physics::depth_averaged_velocity(msh, U, ubar, vbar);
  ASSERT_EQ(ubar.size(), msh.base().n_nodes());
  ASSERT_EQ(vbar.size(), msh.base().n_nodes());
  for (std::size_t col = 0; col < ubar.size(); ++col) {
    EXPECT_DOUBLE_EQ(ubar[col], 120.0);
    EXPECT_DOUBLE_EQ(vbar[col], -45.0);
  }
}

TEST(DepthAverage, MatchesHandComputedTrapezoid) {
  physics::StokesFOProblem problem(small_problem_config());
  const auto& msh = problem.mesh();
  const std::size_t nl = msh.levels();
  // u(col, lev) = col + lev^2 — distinct per level so the end weights show.
  std::vector<double> U(2 * msh.n_nodes(), 0.0);
  for (std::size_t col = 0; col < msh.base().n_nodes(); ++col) {
    for (std::size_t lev = 0; lev < nl; ++lev) {
      const std::size_t n = msh.node_id(col, lev);
      U[2 * n] = static_cast<double>(col) + static_cast<double>(lev * lev);
      U[2 * n + 1] = 2.0 * static_cast<double>(lev);
    }
  }
  std::vector<double> ubar, vbar;
  physics::depth_averaged_velocity(msh, U, ubar, vbar);
  for (std::size_t col = 0; col < std::min<std::size_t>(5, ubar.size());
       ++col) {
    double su = 0.0, sv = 0.0;
    for (std::size_t lev = 0; lev < nl; ++lev) {
      const double w = (lev == 0 || lev + 1 == nl) ? 0.5 : 1.0;
      su += w * (static_cast<double>(col) + static_cast<double>(lev * lev));
      sv += w * 2.0 * static_cast<double>(lev);
    }
    EXPECT_DOUBLE_EQ(ubar[col], su / static_cast<double>(nl - 1));
    EXPECT_DOUBLE_EQ(vbar[col], sv / static_cast<double>(nl - 1));
  }
}

TEST(DepthAverage, RejectsWrongDofCount) {
  physics::StokesFOProblem problem(small_problem_config());
  std::vector<double> U(2 * problem.mesh().n_nodes() - 2, 0.0);
  std::vector<double> ubar, vbar;
  EXPECT_THROW(
      physics::depth_averaged_velocity(problem.mesh(), U, ubar, vbar),
      mali::Error);
}

// ---- StepController ---------------------------------------------------

TEST(StepController, GrowthSequenceIsPinned) {
  StepControllerConfig cfg;
  cfg.dt_init = 1.0;
  cfg.dt_min = 0.125;
  cfg.dt_max = 5.0;
  cfg.growth = 2.0;
  StepController c(cfg);
  const double expected[] = {2.0, 4.0, 5.0, 5.0};  // clamped at dt_max
  for (const double e : expected) {
    c.on_success();
    EXPECT_DOUBLE_EQ(c.current(), e);
  }
  EXPECT_EQ(c.successes(), 4);
}

TEST(StepController, BackoffSequenceIsPinnedAndBottomsOut) {
  StepControllerConfig cfg;
  cfg.dt_init = 1.0;
  cfg.dt_min = 0.25;
  cfg.dt_max = 5.0;
  cfg.backoff = 0.5;
  StepController c(cfg);
  EXPECT_TRUE(c.on_failure());
  EXPECT_DOUBLE_EQ(c.current(), 0.5);
  EXPECT_TRUE(c.on_failure());
  EXPECT_DOUBLE_EQ(c.current(), 0.25);  // exactly dt_min: still allowed
  EXPECT_FALSE(c.on_failure());         // below dt_min: fatal
  EXPECT_EQ(c.failures(), 3);
}

TEST(StepController, ProposeClampsByCflHorizonAndMax) {
  StepControllerConfig cfg;
  cfg.dt_init = 4.0;
  cfg.dt_min = 0.01;
  cfg.dt_max = 4.0;
  cfg.cfl_fraction = 0.5;
  StepController c(cfg);
  // CFL budget is the binding constraint.
  EXPECT_DOUBLE_EQ(c.propose(2.0, 100.0), 1.0);
  // Infinite CFL (zero velocity): only dt_max and the horizon bind.
  EXPECT_DOUBLE_EQ(c.propose(std::numeric_limits<double>::infinity(), 100.0),
                   4.0);
  // Landing on the horizon.
  EXPECT_DOUBLE_EQ(c.propose(std::numeric_limits<double>::infinity(), 2.5),
                   2.5);
  // propose is pure: no state advanced by the calls above.
  EXPECT_DOUBLE_EQ(c.current(), 4.0);
  EXPECT_THROW((void)c.propose(2.0, 0.0), mali::Error);
  EXPECT_THROW((void)c.propose(-1.0, 10.0), mali::Error);
}

TEST(StepController, MixedScheduleIsDeterministic) {
  StepControllerConfig cfg;
  cfg.dt_init = 1.0;
  cfg.dt_min = 1.0 / 64.0;
  cfg.dt_max = 2.0;
  cfg.growth = 1.5;
  cfg.backoff = 0.5;
  StepController c(cfg);
  c.on_success();                        // 1.5
  c.on_success();                        // 2.0 (clamp)
  EXPECT_TRUE(c.on_failure());           // 1.0
  EXPECT_TRUE(c.on_failure());           // 0.5
  c.on_success();                        // 0.75
  EXPECT_DOUBLE_EQ(c.current(), 0.75);
  EXPECT_EQ(c.successes(), 3);
  EXPECT_EQ(c.failures(), 2);
}

TEST(StepController, ConfigAndRestoreValidation) {
  StepControllerConfig bad;
  bad.dt_min = 0.0;
  EXPECT_THROW(StepController{bad}, mali::Error);
  bad = StepControllerConfig{};
  bad.dt_max = bad.dt_min / 2.0;
  EXPECT_THROW(StepController{bad}, mali::Error);
  bad = StepControllerConfig{};
  bad.growth = 0.9;
  EXPECT_THROW(StepController{bad}, mali::Error);
  bad = StepControllerConfig{};
  bad.backoff = 1.0;
  EXPECT_THROW(StepController{bad}, mali::Error);
  bad = StepControllerConfig{};
  bad.cfl_fraction = 0.0;
  EXPECT_THROW(StepController{bad}, mali::Error);

  StepController c{StepControllerConfig{}};
  EXPECT_THROW(c.set_current(1.0e9), mali::Error);   // above dt_max
  EXPECT_THROW(c.set_current(1.0e-9), mali::Error);  // below dt_min
  c.set_current(2.0);
  EXPECT_DOUBLE_EQ(c.current(), 2.0);
}

// ---- mass conservation ------------------------------------------------

TEST(ForecastConservation, ClosedBudgetOver100StepsBelow1em12) {
  physics::StokesFOProblem problem(small_problem_config());
  ForecastConfig cfg;
  cfg.years = 5.0;
  cfg.velocity_every = -1;  // zero velocity: SMB-only evolution
  cfg.thermal_enabled = false;
  cfg.controller.dt_init = 0.05;
  cfg.controller.dt_min = 0.05;
  cfg.controller.dt_max = 0.05;  // 100 fixed steps
  cfg.controller.growth = 1.0;
  cfg.make_precond = make_jacobi;
  ForecastDriver driver(problem, cfg);
  const ForecastResult res = driver.run();
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.steps, 100);
  EXPECT_EQ(res.velocity_solves, 0);

  // Per-step ledger identity: dV = smb - calving + clamp to <= 1e-12 rel.
  EXPECT_LE(res.max_mass_residual, 1e-12);

  // Accumulated identity over the whole run.
  double budget = 0.0;
  for (const auto& row : res.ledger) {
    budget += row.smb - row.calving + row.clamp;
    EXPECT_DOUBLE_EQ(row.calving, 0.0) << "zero velocity cannot calve";
  }
  EXPECT_NEAR(res.volume_final - res.volume_initial, budget,
              1e-12 * res.volume_initial);
}

TEST(ForecastConservation, CoupledLedgerIdentityHoldsWithVelocity) {
  physics::StokesFOProblem problem(small_problem_config());
  ForecastConfig cfg;
  cfg.years = 3.0;
  cfg.velocity_every = 0;  // one solve, then frozen advection
  cfg.thermal_enabled = false;
  cfg.transport.min_thickness = 1.0;  // exercise the clamp term
  cfg.newton.max_iters = 6;
  cfg.make_precond = make_jacobi;
  ForecastDriver driver(problem, cfg);
  const ForecastResult res = driver.run();
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.velocity_solves, 1);
  EXPECT_GT(res.steps, 1);
  EXPECT_LE(res.max_mass_residual, 1e-12);
  // Real advection reaches the margin eventually; here the identity is the
  // claim, not zero calving.
  for (const auto& row : res.ledger) {
    EXPECT_GE(row.calving, 0.0);
    EXPECT_GE(row.clamp, 0.0);
    EXPECT_TRUE(std::isfinite(row.residual));
  }
}

// ---- temporal convergence ---------------------------------------------

namespace {

/// Advances a gaussian bump under constant velocity with n fixed steps of
/// the given scheme and returns the final thickness.  Upwind flux + no
/// floor keeps the semi-discrete operator linear in H, so Richardson
/// self-convergence isolates the time integrator's order.
std::vector<double> advect_bump(const mesh::QuadGrid& grid,
                                mpas::TimeScheme time, int n_steps,
                                double total_years) {
  mpas::TransportConfig cfg;
  cfg.flux = mpas::FluxScheme::kUpwind;
  cfg.time = time;
  cfg.min_thickness = -1e30;  // no floor: keep the operator linear
  mpas::FvTransport fv(grid, cfg);
  std::vector<double> H(fv.n_cells());
  for (std::size_t c = 0; c < fv.n_cells(); ++c) {
    double x, y;
    grid.cell_centroid(c, x, y);
    H[c] = 1000.0 * std::exp(-(x * x + y * y) / (2.0 * 3.0e5 * 3.0e5));
  }
  const std::vector<double> u(fv.n_cells(), 100.0);
  const std::vector<double> v(fv.n_cells(), 50.0);
  const std::vector<double> zero(fv.n_cells(), 0.0);
  const double dt = total_years / n_steps;
  for (int s = 0; s < n_steps; ++s) fv.step(H, u, v, zero, dt);
  return H;
}

double l2_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return std::sqrt(s);
}

double richardson_order(mpas::TimeScheme time) {
  mesh::IceGeometry geom;
  const mesh::QuadGrid grid(geom, {100.0e3});
  const double T = 80.0;
  const auto h1 = advect_bump(grid, time, 16, T);
  const auto h2 = advect_bump(grid, time, 32, T);
  const auto h3 = advect_bump(grid, time, 64, T);
  const double e1 = l2_diff(h1, h2);
  const double e2 = l2_diff(h2, h3);
  EXPECT_GT(e1, 0.0);
  EXPECT_GT(e2, 0.0);
  return std::log2(e1 / e2);
}

}  // namespace

TEST(TemporalConvergence, ForwardEulerIsFirstOrder) {
  const double p = richardson_order(mpas::TimeScheme::kForwardEuler);
  EXPECT_NEAR(p, 1.0, 0.2) << "forward Euler must self-converge at order 1";
}

TEST(TemporalConvergence, HeunIsSecondOrder) {
  const double p = richardson_order(mpas::TimeScheme::kHeunRk2);
  EXPECT_GE(p, 1.7) << "Heun RK2 must self-converge at order ~2";
}

namespace {

/// Manufactured transient problem through the full driver: zero velocity,
/// cyclic SMB forcing — dH/dt = smb(x, y) + A sin(2 pi (t - phi)/P) has the
/// exact per-cell solution
///   H(T) = H0 + smb*T - A*(P/2pi) [cos(2 pi (T-phi)/P) - cos(2 pi phi/P)].
double mms_driver_error(double dt) {
  physics::StokesFOProblem problem(small_problem_config());
  // T deliberately NOT a multiple of the forcing period, and the phase
  // chosen so f(T) != f(0): the left-Riemann error is (dt/2)(f(T) - f(0))
  // + O(dt^2) (Euler-Maclaurin), so a full period or matching endpoints
  // would hide the integrator's O(dt) term entirely.
  const double A = 0.8, P = 2.0, phi = 0.0, T = 1.5;
  ForecastConfig cfg;
  cfg.years = T;
  cfg.velocity_every = -1;
  cfg.thermal_enabled = false;
  cfg.forcing = "cycle:amplitude=0.8,period=2,phase=0";
  cfg.transport.min_thickness = -1e30;  // no floor: exact ODE per cell
  cfg.controller.dt_init = dt;
  cfg.controller.dt_min = dt;
  cfg.controller.dt_max = dt;
  cfg.controller.growth = 1.0;
  cfg.make_precond = make_jacobi;
  ForecastDriver driver(problem, cfg);
  const ForecastResult res = driver.run();
  EXPECT_TRUE(res.completed);

  const auto& base = problem.mesh().base();
  const double two_pi = 2.0 * M_PI;
  double max_err = 0.0;
  for (std::size_t c = 0; c < res.H.size(); ++c) {
    double x, y;
    base.cell_centroid(c, x, y);
    const double H0 = problem.geometry().thickness(x, y);
    const double smb = problem.geometry().surface_mass_balance(x, y);
    const double exact =
        H0 + smb * T -
        A * (P / two_pi) *
            (std::cos(two_pi * (T - phi) / P) - std::cos(two_pi * phi / P));
    max_err = std::max(max_err, std::abs(res.H[c] - exact));
  }
  return max_err;
}

}  // namespace

TEST(TemporalConvergence, DriverManufacturedSolutionConvergesAtOrderOne) {
  // Forward Euler in time (the driver freezes the source at t_n): halving
  // dt must halve the error against the analytic solution.
  const double e1 = mms_driver_error(0.25);
  const double e2 = mms_driver_error(0.125);
  const double e3 = mms_driver_error(0.0625);
  ASSERT_GT(e1, 0.0);
  const double p12 = std::log2(e1 / e2);
  const double p23 = std::log2(e2 / e3);
  EXPECT_NEAR(p12, 1.0, 0.15);
  EXPECT_NEAR(p23, 1.0, 0.15);
}

// ---- checkpoint / restart ---------------------------------------------

TEST(TransientCheckpoint, FileRoundTripIsBitExact) {
  resilience::TransientCheckpoint c;
  c.H = {1.0, -0.0, 5.0e-324, std::numeric_limits<double>::denorm_min()};
  c.T = {260.15, 273.15};
  c.U = {1.0e9, -7.25};
  c.t = 12.3456789;
  c.dt = 1.0 / 3.0;
  c.step = 42;
  const std::string path = temp_path("roundtrip.tckpt");
  c.save(path);
  const auto r = resilience::load_transient_checkpoint(path);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.step, 42);
  EXPECT_EQ(r.t, c.t);
  EXPECT_EQ(r.dt, c.dt);
  ASSERT_EQ(r.H.size(), c.H.size());
  for (std::size_t i = 0; i < c.H.size(); ++i) {
    EXPECT_EQ(std::signbit(r.H[i]), std::signbit(c.H[i]));
    EXPECT_EQ(r.H[i], c.H[i]);
  }
  EXPECT_EQ(r.T, c.T);
  EXPECT_EQ(r.U, c.U);
}

TEST(TransientCheckpoint, MalformedFilesThrowTypedErrors) {
  EXPECT_THROW(resilience::load_transient_checkpoint(
                   temp_path("does_not_exist.tckpt")),
               mali::Error);
  const std::string bad = temp_path("bad_magic.tckpt");
  {
    std::FILE* f = std::fopen(bad.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTACKPT but long enough to read a header from", f);
    std::fclose(f);
  }
  EXPECT_THROW(resilience::load_transient_checkpoint(bad), mali::Error);
  // A solver checkpoint is not a transient checkpoint (magic differs).
  const std::string solver = temp_path("solver.ckpt");
  resilience::SolverCheckpoint sc;
  sc.U = {1.0, 2.0};
  sc.save(solver);
  EXPECT_THROW(resilience::load_transient_checkpoint(solver), mali::Error);
  // Truncated payload.
  const std::string trunc = temp_path("trunc.tckpt");
  resilience::TransientCheckpoint c;
  c.H = {1.0, 2.0, 3.0};
  c.save(trunc);
  {
    std::FILE* f = std::fopen(trunc.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(0, truncate(trunc.c_str(), size - 8));
  }
  EXPECT_THROW(resilience::load_transient_checkpoint(trunc), mali::Error);
}

TEST(TransientRestart, MidRunRestartIsBitIdenticalToUninterrupted) {
  // Fixed dt (growth 1) so the uninterrupted run passes through t = 1.0 at
  // a step boundary; the half run lands there without clamping distortion.
  const auto configure = [](ForecastConfig& cfg) {
    cfg.velocity_every = 1;
    cfg.thermal_enabled = true;
    cfg.newton.max_iters = 4;
    cfg.controller.dt_init = 0.25;
    cfg.controller.dt_min = 0.25;
    cfg.controller.dt_max = 0.25;
    cfg.controller.growth = 1.0;
    cfg.make_precond = make_jacobi;
  };

  // Uninterrupted reference: 8 steps to t = 2.
  physics::StokesFOProblem p_ref(small_problem_config());
  ForecastConfig ref_cfg;
  configure(ref_cfg);
  ref_cfg.years = 2.0;
  ForecastDriver ref(p_ref, ref_cfg);
  const ForecastResult r_ref = ref.run();
  ASSERT_TRUE(r_ref.completed);
  ASSERT_EQ(r_ref.steps, 8);

  // First leg: 4 steps to t = 1, checkpointing the final state.
  const std::string ckpt = temp_path("midrun.tckpt");
  physics::StokesFOProblem p_a(small_problem_config());
  ForecastConfig a_cfg;
  configure(a_cfg);
  a_cfg.years = 1.0;
  a_cfg.checkpoint_every = 4;
  a_cfg.checkpoint_path = ckpt;
  ForecastDriver a(p_a, a_cfg);
  const ForecastResult r_a = a.run();
  ASSERT_TRUE(r_a.completed);
  ASSERT_EQ(r_a.steps, 4);

  // Second leg: restart from the checkpoint, run to t = 2.
  physics::StokesFOProblem p_b(small_problem_config());
  ForecastConfig b_cfg;
  configure(b_cfg);
  b_cfg.years = 2.0;
  b_cfg.restart_path = ckpt;
  ForecastDriver b(p_b, b_cfg);
  const ForecastResult r_b = b.run();
  ASSERT_TRUE(r_b.completed);
  EXPECT_EQ(r_b.steps, 4);  // 4 new steps on top of the restored 4

  // Bit identity of every prognostic field.
  ASSERT_EQ(r_b.H.size(), r_ref.H.size());
  for (std::size_t i = 0; i < r_ref.H.size(); ++i) {
    ASSERT_EQ(r_b.H[i], r_ref.H[i]) << "H diverged at cell " << i;
  }
  ASSERT_EQ(r_b.U.size(), r_ref.U.size());
  for (std::size_t i = 0; i < r_ref.U.size(); ++i) {
    ASSERT_EQ(r_b.U[i], r_ref.U[i]) << "U diverged at dof " << i;
  }
  ASSERT_EQ(r_b.T.size(), r_ref.T.size());
  for (std::size_t i = 0; i < r_ref.T.size(); ++i) {
    ASSERT_EQ(r_b.T[i], r_ref.T[i]) << "T diverged at entry " << i;
  }
  EXPECT_EQ(r_b.t_final, r_ref.t_final);
  EXPECT_EQ(r_b.volume_final, r_ref.volume_final);
}

TEST(TransientRestart, SizeMismatchIsTypedError) {
  const std::string ckpt = temp_path("wrong_size.tckpt");
  resilience::TransientCheckpoint c;
  c.H = {1.0, 2.0};  // far too small for the mesh
  c.U = {0.0};
  c.t = 0.5;
  c.dt = 0.25;
  c.step = 2;
  c.save(ckpt);
  physics::StokesFOProblem problem(small_problem_config());
  ForecastConfig cfg;
  cfg.restart_path = ckpt;
  cfg.thermal_enabled = false;
  cfg.make_precond = make_jacobi;
  ForecastDriver driver(problem, cfg);
  EXPECT_THROW(driver.run(), mali::Error);
}

// ---- forcing ----------------------------------------------------------

TEST(Forcing, SpecsRoundTripThroughTheFactory) {
  mesh::IceGeometry geom;
  const char* specs[] = {
      "constant",
      "constant:offset=0.25",
      "ramp:anomaly=-0.5,start=0,end=1",
      "ramp:anomaly=2,start=10,end=40",
      "cycle:amplitude=0.8,period=2,phase=0.25",
  };
  for (const char* s : specs) {
    const auto f = timestepping::make_forcing(s, geom);
    EXPECT_EQ(f->spec(), s);
    // The normalized spec re-parses to the same normalized spec.
    const auto g = timestepping::make_forcing(f->spec(), geom);
    EXPECT_EQ(g->spec(), f->spec());
  }
  // Defaults are normalized into the spec.
  EXPECT_EQ(timestepping::make_forcing("ramp:anomaly=1", geom)->spec(),
            "ramp:anomaly=1,start=0,end=1");
  EXPECT_EQ(timestepping::make_forcing("cycle:amplitude=1", geom)->spec(),
            "cycle:amplitude=1,period=1,phase=0");
}

TEST(Forcing, ValuesMatchTheirDefinitions) {
  mesh::IceGeometry geom;
  const double base = geom.surface_mass_balance(0.0, 0.0);

  const auto c = timestepping::make_forcing("constant:offset=0.5", geom);
  EXPECT_DOUBLE_EQ(c->smb(0.0, 0.0, 123.0), base + 0.5);

  const auto r =
      timestepping::make_forcing("ramp:anomaly=-1,start=10,end=20", geom);
  EXPECT_DOUBLE_EQ(r->smb(0.0, 0.0, 5.0), base);         // before the ramp
  EXPECT_DOUBLE_EQ(r->smb(0.0, 0.0, 15.0), base - 0.5);  // mid-ramp
  EXPECT_DOUBLE_EQ(r->smb(0.0, 0.0, 50.0), base - 1.0);  // saturated

  const auto y = timestepping::make_forcing(
      "cycle:amplitude=2,period=4,phase=1", geom);
  EXPECT_NEAR(y->smb(0.0, 0.0, 1.0), base, 1e-12);       // sin(0)
  EXPECT_NEAR(y->smb(0.0, 0.0, 2.0), base + 2.0, 1e-12); // sin(pi/2)
  EXPECT_NEAR(y->smb(0.0, 0.0, 5.0), base, 1e-12);       // one full period
}

TEST(Forcing, MalformedSpecsAreTypedErrors) {
  mesh::IceGeometry geom;
  const char* bad[] = {
      "", "volcano", "constant:offset", "constant:offset=",
      "constant:offset=abc", "constant:offset=1,offset=2",
      "constant:offset=1e999", "constant:frequency=1", "ramp",
      "ramp:start=0", "ramp:anomaly=1,end=0,start=5",
      "cycle:amplitude=1,period=0", "cycle:amplitude=1,period=-2",
      "cycle:period=1", "ramp:anomaly=1,,",
  };
  for (const char* s : bad) {
    EXPECT_THROW((void)timestepping::make_forcing(s, geom), mali::Error)
        << "spec should be rejected: '" << s << "'";
  }
}

TEST(Forcing, ParametersRoundTripBitwiseIncludingSignedZero) {
  // parse(f.spec()) must reconstruct every numeric parameter bit-for-bit
  // (the ensemble cache key embeds forcing specs, so a lossy round trip
  // would silently split or merge cache entries).
  mesh::IceGeometry geom;
  const auto bits = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };

  // Values chosen to break fixed-precision printf formatting: 0.1 has no
  // short exact decimal, 1/3 needs all 17 digits, and the subnormal is
  // far outside %.6f's range.
  for (const double off : {0.1, 1.0 / 3.0, 4.9406564584124654e-324,
                           -1.7976931348623157e308, 123456789.123456789}) {
    const auto f = timestepping::make_forcing(
        "constant:offset=" + util::format_double(off), geom);
    const auto* cf =
        dynamic_cast<const timestepping::ConstantForcing*>(f.get());
    ASSERT_NE(cf, nullptr);
    EXPECT_EQ(bits(cf->offset()), bits(off));
    const auto g = timestepping::make_forcing(f->spec(), geom);
    const auto* cg =
        dynamic_cast<const timestepping::ConstantForcing*>(g.get());
    ASSERT_NE(cg, nullptr);
    EXPECT_EQ(bits(cg->offset()), bits(off));
  }

  // -0.0 is the nasty one: it must NOT collapse to the bare "constant"
  // spec (that would round-trip to +0.0 and flip the sign bit).
  const auto plus = timestepping::make_forcing("constant", geom);
  EXPECT_EQ(plus->spec(), "constant");
  const auto minus = timestepping::make_forcing("constant:offset=-0", geom);
  EXPECT_EQ(minus->spec(), "constant:offset=-0");
  const auto minus2 = timestepping::make_forcing(minus->spec(), geom);
  const auto* cm =
      dynamic_cast<const timestepping::ConstantForcing*>(minus2.get());
  ASSERT_NE(cm, nullptr);
  EXPECT_TRUE(std::signbit(cm->offset()));
  EXPECT_EQ(bits(cm->offset()), bits(-0.0));

  // All three ramp/cycle parameters, awkward values at once.
  const std::string rspec = "ramp:anomaly=" + util::format_double(-0.1) +
                            ",start=" + util::format_double(1.0 / 3.0) +
                            ",end=" + util::format_double(2.0 / 3.0);
  const auto r = timestepping::make_forcing(rspec, geom);
  const auto r2 = timestepping::make_forcing(r->spec(), geom);
  const auto* ra =
      dynamic_cast<const timestepping::AnomalyRampForcing*>(r2.get());
  ASSERT_NE(ra, nullptr);
  EXPECT_EQ(bits(ra->anomaly()), bits(-0.1));
  EXPECT_EQ(bits(ra->start()), bits(1.0 / 3.0));
  EXPECT_EQ(bits(ra->end()), bits(2.0 / 3.0));

  const std::string yspec = "cycle:amplitude=" + util::format_double(0.3) +
                            ",period=" + util::format_double(1.0 / 7.0) +
                            ",phase=" + util::format_double(-0.0);
  const auto y = timestepping::make_forcing(yspec, geom);
  const auto y2 = timestepping::make_forcing(y->spec(), geom);
  const auto* ya =
      dynamic_cast<const timestepping::YearlyCycleForcing*>(y2.get());
  ASSERT_NE(ya, nullptr);
  EXPECT_EQ(bits(ya->amplitude()), bits(0.3));
  EXPECT_EQ(bits(ya->period()), bits(1.0 / 7.0));
  EXPECT_EQ(bits(ya->phase()), bits(-0.0));
}

// ---- warm-start state validation --------------------------------------

TEST(ForecastWarmStart, InitialVelocitySeedsTheDriver) {
  auto cfg = small_problem_config();
  physics::StokesFOProblem problem(cfg);
  timestepping::ForecastConfig fcfg;
  fcfg.years = 0.25;
  fcfg.thermal_enabled = false;
  // Purely absolute Newton criterion, like the ensemble engine: with a
  // relative test the convergence target depends on the start point, and
  // warm and cold would legitimately stop at different roots.  The AMG
  // (not the weak Jacobi) is needed to actually reach it.
  fcfg.make_precond = [](const physics::StokesFOProblem& p) {
    return std::unique_ptr<linalg::Preconditioner>(
        std::make_unique<linalg::SemicoarseningAmg>(p.extrusion_info()));
  };
  fcfg.newton.max_iters = 40;
  fcfg.newton.abs_tol = 1e-9;
  fcfg.newton.rel_tol = 0.0;
  const timestepping::ForecastResult cold =
      timestepping::ForecastDriver(problem, fcfg).run();

  // Re-run seeded with the cold run's converged velocity: the warm run
  // must still complete and land on the same root (same mesh, same
  // physics — only the Newton iteration path may differ).
  fcfg.initial_U = cold.U;
  const timestepping::ForecastResult warm =
      timestepping::ForecastDriver(problem, fcfg).run();
  EXPECT_TRUE(warm.completed);
  ASSERT_EQ(warm.U.size(), cold.U.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < warm.U.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(warm.U[i] - cold.U[i]));
  }
  EXPECT_LE(max_diff / static_cast<double>(warm.U.size()), 1e-10);
}

TEST(ForecastWarmStart, StaleStateFromAnotherResolutionIsATypedError) {
  // Regression: recycling a converged velocity across a mesh-resolution
  // change used to be accepted silently (the driver solved garbage from a
  // wrong-size vector).  It must be a typed error at construction.
  auto cfg = small_problem_config();
  physics::StokesFOProblem coarse(cfg);
  timestepping::ForecastConfig fcfg;
  fcfg.years = 0.25;
  fcfg.thermal_enabled = false;
  fcfg.make_precond = make_jacobi;
  const timestepping::ForecastResult res =
      timestepping::ForecastDriver(coarse, fcfg).run();

  auto fine_cfg = small_problem_config();
  fine_cfg.dx_m = cfg.dx_m / 2.0;  // different resolution, different dofs
  physics::StokesFOProblem fine(fine_cfg);
  ASSERT_NE(fine.n_dofs(), coarse.n_dofs());
  fcfg.initial_U = res.U;
  EXPECT_THROW(timestepping::ForecastDriver(fine, fcfg), mali::Error);

  // Non-finite warm starts are rejected too.
  fcfg.initial_U.assign(coarse.n_dofs(),
                        std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(timestepping::ForecastDriver(coarse, fcfg), mali::Error);
}

// ---- fault injection mid-transient ------------------------------------

TEST(ForecastResilience, InjectedFaultBacksOffDtAndCompletes) {
  // Clean reference.
  physics::StokesFOProblem p_clean(small_problem_config());
  ForecastConfig cfg;
  cfg.years = 1.5;
  cfg.velocity_every = 1;
  cfg.thermal_enabled = false;
  cfg.newton.max_iters = 4;
  cfg.controller.dt_init = 0.5;
  cfg.controller.dt_min = 1.0 / 64.0;
  cfg.controller.dt_max = 0.5;
  cfg.make_precond = make_jacobi;
  ForecastDriver clean(p_clean, cfg);
  const ForecastResult r_clean = clean.run();
  ASSERT_TRUE(r_clean.completed);

  // Faulted run, recovery DISABLED: the one-shot NaN fires inside the
  // second velocity solve, the driver rejects the step, backs off dt, and
  // the retry succeeds because the injector has already fired.
  physics::StokesFOProblem p_fault(small_problem_config());
  const auto spec = resilience::fault_spec_from_string("nan:residual:4");
  resilience::FaultInjector injector(spec);
  ForecastConfig f_cfg = cfg;
  f_cfg.injector = &injector;
  ForecastDriver faulted(p_fault, f_cfg);
  const ForecastResult r_fault = faulted.run();
  ASSERT_TRUE(r_fault.completed);
  EXPECT_GE(r_fault.rejections, 1);
  EXPECT_GE(faulted.controller().failures(), 1);
  EXPECT_EQ(r_fault.t_final, r_clean.t_final);
  // The perturbed dt schedule changes step count, not the physics: the
  // final volume stays within a loose tolerance of the clean run.
  EXPECT_NEAR(r_fault.volume_final / r_clean.volume_final, 1.0, 1e-3);
}

TEST(ForecastResilience, RecoveryLadderAbsorbsTheFaultInSolve) {
  physics::StokesFOProblem problem(small_problem_config());
  const auto spec = resilience::fault_spec_from_string("nan:residual:4");
  resilience::FaultInjector injector(spec);
  ForecastConfig cfg;
  cfg.years = 1.5;
  cfg.velocity_every = 1;
  cfg.thermal_enabled = false;
  cfg.newton.max_iters = 4;
  cfg.controller.dt_init = 0.5;
  cfg.controller.dt_min = 1.0 / 64.0;
  cfg.controller.dt_max = 0.5;
  cfg.make_precond = make_jacobi;
  cfg.injector = &injector;
  cfg.newton.recovery.enabled = true;
  cfg.newton.recovery.precond_ladder = {
      [] { return std::make_unique<linalg::JacobiPreconditioner>(); },
      [] { return std::make_unique<linalg::BlockJacobiPreconditioner>(2); },
  };
  ForecastDriver driver(problem, cfg);
  const ForecastResult res = driver.run();
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.rejections, 0)
      << "the in-solve recovery ladder should absorb the fault before the "
         "step-level backoff engages";
}

// ---- ledger sanity ----------------------------------------------------

TEST(ForecastLedger, RowsAreMonotoneAndWithinControllerBounds) {
  physics::StokesFOProblem problem(small_problem_config());
  ForecastConfig cfg;
  cfg.years = 4.0;
  cfg.velocity_every = 0;
  cfg.thermal_enabled = false;
  cfg.newton.max_iters = 4;
  cfg.controller.dt_init = 0.25;
  cfg.controller.dt_min = 0.01;
  cfg.controller.dt_max = 1.0;
  cfg.controller.growth = 1.5;
  cfg.make_precond = make_jacobi;
  ForecastDriver driver(problem, cfg);
  const ForecastResult res = driver.run();
  ASSERT_TRUE(res.completed);
  ASSERT_FALSE(res.ledger.empty());
  double t_prev = 0.0;
  for (const auto& row : res.ledger) {
    EXPECT_GT(row.t, t_prev);
    EXPECT_GT(row.dt, 0.0);
    EXPECT_LE(row.dt, cfg.controller.dt_max + 1e-15);
    EXPECT_NEAR(row.t, t_prev + row.dt, 1e-12);
    t_prev = row.t;
  }
  EXPECT_NEAR(t_prev, cfg.years, 1e-10);
  // Adaptive growth actually happened (0.25 -> ... -> 1.0 cap).
  EXPECT_GT(res.ledger.back().dt, res.ledger.front().dt);
}

// ---- bitwise pins of the coupled thermal forecast ---------------------

namespace {

/// fnv1a64 of the values with -0 canonicalized to +0, as the other pins do.
std::uint64_t canonical_hash(std::vector<double> v) {
  for (double& x : v) {
    if (x == 0.0) x = 0.0;
  }
  return util::fnv1a64(v.data(), v.size() * sizeof(double));
}

/// A short velocity + transport + thermal forecast on the default AMG,
/// checkpoints off; returns its final U, T and H digests.
void expect_thermal_forecast_digests(bool steady, std::uint64_t u_hash,
                                     std::uint64_t t_hash,
                                     std::uint64_t h_hash) {
  physics::StokesFOConfig pcfg;
  pcfg.dx_m = 150.0e3;
  pcfg.n_layers = 4;
  physics::StokesFOProblem problem(pcfg);
  ForecastConfig cfg;
  cfg.years = 3.0;
  cfg.thermal_steady = steady;
  cfg.checkpoint_every = 0;
  const ForecastResult res = ForecastDriver(problem, cfg).run();
  ASSERT_TRUE(res.completed);
  ASSERT_FALSE(res.T.empty());
  EXPECT_EQ(canonical_hash(res.U), u_hash)
      << "U 0x" << std::hex << canonical_hash(res.U);
  EXPECT_EQ(canonical_hash(res.T), t_hash)
      << "T 0x" << std::hex << canonical_hash(res.T);
  EXPECT_EQ(canonical_hash(res.H), h_hash)
      << "H 0x" << std::hex << canonical_hash(res.H);
}

}  // namespace

// The A(T) coupling reads each quadrature point's nearest column: these
// pins hold the whole velocity -> transport -> thermal -> A(T) loop to the
// bit at every thread count.  Recorded with the column found by a scan
// over every column, before the lattice lookup replaced it.
TEST(ForecastPin, ThermalTransient) {
  expect_thermal_forecast_digests(false, 0x47b4334a7fe7d02eull,
                                  0x7b1e72c55f37f349ull,
                                  0xaa7e56acfb8009faull);
}

TEST(ForecastPin, ThermalSteady) {
  expect_thermal_forecast_digests(true, 0xb770d4c521fb5f53ull,
                                  0xf5114d5f5b52d6a6ull,
                                  0x7cd8e2668cdba84cull);
}
