// Equivalence / race tests for the parallel assembly scatter: the Colored
// ScatterMode must reproduce the Serial path's residual (≤1e-13 relative)
// and Jacobian (entrywise, to FP-reassociation) on an MMS mesh and on the
// standard Antarctica problem, on both the pk::Serial and the thread-pool
// exec spaces, and must give the same bits on both.  Run under
// ThreadSanitizer in CI: any scatter race shows up here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <random>
#include <string>

#include "mesh/coloring.hpp"
#include "physics/scatter.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "portability/thread_pool.hpp"

using namespace mali;
using physics::JacobianEval;
using physics::ScatterMode;
using physics::StokesFOConfig;
using physics::StokesFOProblem;

namespace {

constexpr double kTol = 1e-13;  // FP-reassociation budget (relative)
// Jacobian entries sum per-cell SFad contributions of opposite sign at the
// MMS forcing scale (~1e8); cancellation amplifies the reassociation error
// relative to the *final* entry, so the entrywise Jacobian budget is looser
// than the residual one (observed worst case ~2e-13 on the MMS config).
constexpr double kJacTol = 1e-11;

StokesFOConfig mms_config(ScatterMode mode,
                          std::size_t workset_size = 0) {
  StokesFOConfig cfg;
  cfg.dx_m = 250.0e3;
  cfg.n_layers = 4;
  cfg.mms.enabled = true;
  cfg.scatter = mode;
  cfg.workset_size = workset_size;
  return cfg;
}

StokesFOConfig antarctica_config(ScatterMode mode,
                                 std::size_t workset_size = 0) {
  StokesFOConfig cfg;
  cfg.dx_m = 250.0e3;
  cfg.n_layers = 4;
  cfg.scatter = mode;
  cfg.workset_size = workset_size;
  return cfg;
}

void expect_relative_match(const std::vector<double>& a,
                           const std::vector<double>& b, double tol,
                           const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol * std::max(1.0, std::abs(a[i])))
        << what << " entry " << i;
  }
}

/// Assembles residual + Jacobian for a config and returns (F, J values).
std::pair<std::vector<double>, std::vector<double>> assemble(
    const StokesFOConfig& cfg) {
  StokesFOProblem p(cfg);
  const auto U = p.analytic_initial_guess();
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);
  return {F, J.values()};
}

}  // namespace

// ---------------------------------------------------------------------------
// End-to-end problem-level equivalence (DefaultExec = thread pool).
// ---------------------------------------------------------------------------

class ScatterEquivalence
    : public ::testing::TestWithParam<std::tuple<ScatterMode, std::size_t>> {};

TEST_P(ScatterEquivalence, MmsResidualAndJacobianMatchSerial) {
  const auto [mode, ws] = GetParam();
  const auto [F_ser, J_ser] = assemble(mms_config(ScatterMode::kSerial, ws));
  const auto [F_par, J_par] = assemble(mms_config(mode, ws));
  expect_relative_match(F_ser, F_par, kTol, "MMS residual");
  expect_relative_match(J_ser, J_par, kJacTol, "MMS jacobian");
}

TEST_P(ScatterEquivalence, AntarcticaResidualAndJacobianMatchSerial) {
  const auto [mode, ws] = GetParam();
  const auto [F_ser, J_ser] =
      assemble(antarctica_config(ScatterMode::kSerial, ws));
  const auto [F_par, J_par] = assemble(antarctica_config(mode, ws));
  expect_relative_match(F_ser, F_par, kTol, "residual");
  expect_relative_match(J_ser, J_par, kJacTol, "jacobian");
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndWorksets, ScatterEquivalence,
    ::testing::Combine(::testing::Values(ScatterMode::kColored),
                       ::testing::Values(std::size_t{0}, std::size_t{64})),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_ws" +
             std::to_string(std::get<1>(info.param));
    });

// Colored scatter is deterministic: repeated assemblies are bitwise equal
// (the per-row addition order is fixed by the coloring, not the schedule).
TEST(ScatterDeterminism, ColoredIsBitwiseReproducible) {
  const auto cfg = antarctica_config(ScatterMode::kColored);
  StokesFOProblem p(cfg);
  const auto U = p.analytic_initial_guess();
  std::vector<double> F1, F2;
  auto J1 = p.create_matrix();
  auto J2 = p.create_matrix();
  p.residual_and_jacobian(U, F1, J1);
  J2.set_zero();
  p.residual_and_jacobian(U, F2, J2);
  EXPECT_EQ(F1, F2);
  EXPECT_EQ(J1.values(), J2.values());
}

// ---------------------------------------------------------------------------
// Direct scatter_add coverage on BOTH exec spaces (pk::Serial and the
// thread pool), for both scalar types.
// ---------------------------------------------------------------------------

namespace {

template <class Exec, class ScalarT>
void exercise_scatter_exec_space() {
  StokesFOConfig cfg = mms_config(ScatterMode::kSerial);
  StokesFOProblem p(cfg);
  const auto& ws = p.workset();
  const std::size_t C = ws.n_cells;
  const int N = ws.num_nodes;

  // Stage a synthetic element residual with per-cell recognizable values.
  pk::View<ScalarT, 3> R("R", C, static_cast<std::size_t>(N), 2);
  std::mt19937 rng(1234);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t c = 0; c < C; ++c) {
    for (int n = 0; n < N; ++n) {
      for (int comp = 0; comp < 2; ++comp) {
        if constexpr (ad::is_fad_v<ScalarT>) {
          ScalarT v(dist(rng), (n * 2 + comp) % physics::kNumLocalDofs);
          v.fastAccessDx((n * 3 + comp) % physics::kNumLocalDofs) = dist(rng);
          R(c, n, comp) = v;
        } else {
          R(c, n, comp) = dist(rng);
        }
      }
    }
  }

  // Explicit range: cell_nodes carries SIMD ghost-row padding past C, and
  // the coloring must cover exactly the scattered range.
  const auto coloring = mesh::greedy_color_cells(ws.cell_nodes, 0, C, N);

  auto run = [&](ScatterMode mode, auto exec) {
    std::vector<double> F(p.n_dofs(), 0.0);
    auto J = p.create_matrix();
    linalg::CrsMatrix* Jp = ad::is_fad_v<ScalarT> ? &J : nullptr;
    physics::scatter_add<decltype(exec)>(mode, coloring, ws.cell_nodes, R, C,
                                         N, F, Jp);
    return std::make_pair(F, J.values());
  };

  const auto [F_ser, J_ser] = run(ScatterMode::kSerial, Exec{});
  const auto [F_col, J_col] = run(ScatterMode::kColored, Exec{});
  expect_relative_match(F_ser, F_col, kTol, "colored F");
  expect_relative_match(J_ser, J_col, kJacTol, "colored J");
  // The colored order is fixed by the coloring, not by the threads that
  // run it: the thread pool reproduces the pk::Serial bits.
  const auto [F_one, J_one] = run(ScatterMode::kColored, pk::Serial{});
  EXPECT_EQ(F_col, F_one);
  EXPECT_EQ(J_col, J_one);
}

}  // namespace

TEST(ScatterExecSpaces, ResidualSerialExec) {
  exercise_scatter_exec_space<pk::Serial, double>();
}

TEST(ScatterExecSpaces, ResidualThreadsExec) {
  exercise_scatter_exec_space<pk::Threads, double>();
}

TEST(ScatterExecSpaces, JacobianSerialExec) {
  exercise_scatter_exec_space<pk::Serial, JacobianEval::ScalarT>();
}

TEST(ScatterExecSpaces, JacobianThreadsExec) {
  exercise_scatter_exec_space<pk::Threads, JacobianEval::ScalarT>();
}

// ---------------------------------------------------------------------------
// CRS slot tables: a table-driven scatter adds the same values to the same
// entries in the same order as the CrsMatrix::add scatter, so both modes
// agree bit for bit.
// ---------------------------------------------------------------------------

namespace {

using JacScalar = JacobianEval::ScalarT;

/// Synthetic SFad element Jacobians over C cells, every slot populated.
pk::View<JacScalar, 3> random_element_jacobians(std::size_t C, int N) {
  pk::View<JacScalar, 3> R("R", C, static_cast<std::size_t>(N), 2);
  std::mt19937 rng(4321);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t c = 0; c < C; ++c) {
    for (int n = 0; n < N; ++n) {
      for (int comp = 0; comp < 2; ++comp) {
        JacScalar v(dist(rng));
        for (int l = 0; l < physics::kNumLocalDofs; ++l) {
          v.fastAccessDx(l) = dist(rng);
        }
        R(c, n, comp) = v;
      }
    }
  }
  return R;
}

/// Scatters R over cells [0, C) in blocks of `chunk` cells (each with its
/// own cell window, coloring and, with `tables`, slot table) and returns
/// (F, J values).
template <class Exec>
std::pair<std::vector<double>, std::vector<double>> chunked_scatter(
    const StokesFOProblem& p, const pk::View<JacScalar, 3>& R,
    std::size_t chunk, ScatterMode mode, bool tables) {
  const auto& ws = p.workset();
  const std::size_t C = ws.n_cells;
  const int N = ws.num_nodes;
  std::vector<double> F(p.n_dofs(), 0.0);
  auto J = p.create_matrix();
  for (std::size_t c0 = 0; c0 < C; c0 += chunk) {
    const std::size_t cnt = std::min(chunk, C - c0);
    const auto nodes = ws.cell_nodes.window(c0, cnt);
    const auto coloring = mesh::greedy_color_cells(ws.cell_nodes, c0, cnt, N);
    physics::CrsSlotTable table;
    if (tables) table = physics::build_slot_table<Exec>(nodes, cnt, J);
    physics::scatter_add<Exec>(mode, coloring, nodes, R.window(c0, cnt), cnt,
                               N, F, &J, tables ? &table : nullptr);
  }
  return {F, J.values()};
}

template <class Exec>
void expect_slot_scatter_matches_add() {
  StokesFOProblem p(antarctica_config(ScatterMode::kSerial));
  const std::size_t C = p.workset().n_cells;
  const auto R = random_element_jacobians(C, p.workset().num_nodes);
  for (const std::size_t chunk : {C, std::size_t{64}}) {
    for (const auto mode : {ScatterMode::kSerial, ScatterMode::kColored}) {
      const auto [F_add, J_add] = chunked_scatter<Exec>(p, R, chunk, mode,
                                                        /*tables=*/false);
      const auto [F_tab, J_tab] = chunked_scatter<Exec>(p, R, chunk, mode,
                                                        /*tables=*/true);
      EXPECT_EQ(F_add, F_tab) << to_string(mode) << ", chunk " << chunk;
      EXPECT_EQ(J_add, J_tab) << to_string(mode) << ", chunk " << chunk;
    }
  }
}

}  // namespace

TEST(CrsSlotTable, ScatterMatchesAddScatterSerialExec) {
  expect_slot_scatter_matches_add<pk::Serial>();
}

TEST(CrsSlotTable, ScatterMatchesAddScatterThreadsExec) {
  expect_slot_scatter_matches_add<pk::Threads>();
}

// The slot-table path of the colored scatter: the thread pool reproduces
// the pk::Serial bits for one cell window and for 64-cell chunks.
TEST(CrsSlotTable, ColoredScatterIsBitwiseAcrossExecSpaces) {
  StokesFOProblem p(antarctica_config(ScatterMode::kSerial));
  const std::size_t C = p.workset().n_cells;
  const auto R = random_element_jacobians(C, p.workset().num_nodes);
  for (const std::size_t chunk : {C, std::size_t{64}}) {
    const auto [F_ser, J_ser] = chunked_scatter<pk::Serial>(
        p, R, chunk, ScatterMode::kColored, /*tables=*/true);
    const auto [F_thr, J_thr] = chunked_scatter<pk::Threads>(
        p, R, chunk, ScatterMode::kColored, /*tables=*/true);
    EXPECT_EQ(F_ser, F_thr) << "chunk " << chunk;
    EXPECT_EQ(J_ser, J_thr) << "chunk " << chunk;
  }
}

// The engine's assembly (fused SFad chain, slot-table scatter, chunked
// worksets) against the staged chain scattered through CrsMatrix::add, on
// the manufactured problem (no basal friction, so the staged kernel's
// output is the whole element Jacobian).  Dirichlet rows are the
// problem's own and are skipped.
TEST(CrsSlotTable, ChunkedAssemblyMatchesStagedAddScatter) {
  for (const std::size_t ws_size : {std::size_t{0}, std::size_t{64}}) {
    for (const auto mode : {ScatterMode::kSerial, ScatterMode::kColored}) {
      const StokesFOConfig cfg = mms_config(mode, ws_size);
      StokesFOProblem p(cfg);
      const auto U = p.analytic_initial_guess();
      std::vector<double> F;
      auto J = p.create_matrix();
      p.residual_and_jacobian(U, F, J);

      StokesFOProblem ref(cfg);
      const auto& f = ref.evaluate_fields<JacobianEval>(U);
      ref.run_resid_kernel<JacobianEval>(physics::KernelVariant::kOptimized);
      const auto& ws = ref.workset();
      std::vector<double> F_ref(ref.n_dofs(), 0.0);
      auto J_ref = ref.create_matrix();
      std::size_t c0 = 0;
      for (std::size_t w = 0; w < ref.n_worksets(); ++w) {
        const auto& coloring = ref.workset_coloring(w);
        const std::size_t cnt = coloring.n_cells();
        physics::scatter_add(mode, coloring, ws.cell_nodes.window(c0, cnt),
                             f.Residual.window(c0, cnt), cnt, ws.num_nodes,
                             F_ref, &J_ref);
        c0 += cnt;
      }
      ASSERT_EQ(c0, ws.n_cells);

      const std::string what = std::string(to_string(mode)) + ", workset " +
                               std::to_string(ws_size);
      const auto rp = J.graph()->scalar_row_ptr();
      for (std::size_t r = 0; r < p.n_dofs(); ++r) {
        if (p.dof_map().is_dirichlet_dof(r)) continue;
        ASSERT_EQ(F[r], F_ref[r]) << what << ", row " << r;
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
          ASSERT_EQ(J.values()[k], J_ref.values()[k])
              << what << ", row " << r << ", nonzero " << k;
        }
      }
    }
  }
}

TEST(CrsSlotTable, ServesEveryMatrixTheProblemCreates) {
  // The problem's matrices share its DofMap's graph, so a table built for
  // one serves the next: a forecast's per-solve matrix reuses it.
  StokesFOProblem p(antarctica_config(ScatterMode::kSerial));
  const auto first = p.create_matrix();
  const auto second = p.create_matrix();
  EXPECT_EQ(first.graph(), second.graph());
  EXPECT_EQ(first.graph(), p.dof_map().graph());
  const auto table =
      physics::build_slot_table(p.workset().cell_nodes, p.workset().n_cells,
                                first);
  EXPECT_TRUE(table.serves(second));
}

TEST(CrsSlotTable, GraphMissingACouplingThrows) {
  StokesFOProblem p(antarctica_config(ScatterMode::kSerial));
  const auto& ws = p.workset();
  const std::size_t C = ws.n_cells;
  const auto R = random_element_jacobians(C, ws.num_nodes);
  const auto coloring = mesh::greedy_color_cells(ws.cell_nodes, 0, C,
                                                 ws.num_nodes);
  const auto full = p.create_matrix();

  // The FE graph minus one off-diagonal coupling of row 0's node.
  std::vector<std::size_t> rp = full.graph()->scalar_row_ptr();
  std::vector<std::size_t> cols = full.graph()->scalar_cols();
  const std::size_t drop = cols[rp[0]] == 0 ? rp[0] + 1 : rp[0];
  cols.erase(cols.begin() + static_cast<std::ptrdiff_t>(drop));
  for (std::size_t r = 1; r < rp.size(); ++r) --rp[r];
  linalg::CrsMatrix missing(rp, cols);

  EXPECT_THROW((void)physics::build_slot_table(ws.cell_nodes, C, missing),
               Error);

  // A table serves the copies of the matrix it was built for; another
  // graph falls back to CrsMatrix::add, which throws on the gap.
  const auto table = physics::build_slot_table(ws.cell_nodes, C, full);
  auto copy = full;
  EXPECT_TRUE(table.serves(copy));
  EXPECT_FALSE(table.serves(missing));
  const auto rp_full = full.graph()->scalar_row_ptr();
  const auto cols_full = full.graph()->scalar_cols();
  EXPECT_FALSE(table.serves(linalg::CrsMatrix(rp_full, cols_full)));
  for (const auto mode : {ScatterMode::kSerial, ScatterMode::kColored}) {
    std::vector<double> F(p.n_dofs(), 0.0);
    EXPECT_NO_THROW(physics::scatter_add(mode, coloring, ws.cell_nodes, R, C,
                                         ws.num_nodes, F, &copy, &table));
    EXPECT_THROW(physics::scatter_add(mode, coloring, ws.cell_nodes, R, C,
                                      ws.num_nodes, F, &missing, &table),
                 Error);
  }

  // The engine builds its tables from the matrix it assembles into.
  std::vector<double> F;
  EXPECT_THROW(p.residual_and_jacobian(p.analytic_initial_guess(), F, missing),
               Error);
}

// ---------------------------------------------------------------------------
// scatter_add's contract at its edges: empty ranges, ranges its coloring or
// slot table does not cover, and SFad residuals without a matrix.
// ---------------------------------------------------------------------------

TEST(ScatterAdd, EmptyRangeWritesNothing) {
  StokesFOProblem p(antarctica_config(ScatterMode::kSerial));
  const auto& ws = p.workset();
  const auto R = random_element_jacobians(ws.n_cells, ws.num_nodes);
  const auto none = mesh::greedy_color_cells(ws.cell_nodes, 0, 0,
                                             ws.num_nodes);
  for (const auto mode : {ScatterMode::kSerial, ScatterMode::kColored}) {
    std::vector<double> F(p.n_dofs(), 1.5);
    auto J = p.create_matrix();
    physics::scatter_add(mode, none, ws.cell_nodes, R, 0, ws.num_nodes, F,
                         &J);
    EXPECT_EQ(F, std::vector<double>(p.n_dofs(), 1.5)) << to_string(mode);
    EXPECT_EQ(J.values(), std::vector<double>(J.nnz(), 0.0))
        << to_string(mode);
  }
}

TEST(ScatterAdd, ColoringOfAnotherRangeThrows) {
  StokesFOProblem p(antarctica_config(ScatterMode::kSerial));
  const auto& ws = p.workset();
  const std::size_t C = ws.n_cells;
  const auto R = random_element_jacobians(C, ws.num_nodes);
  const auto short_coloring =
      mesh::greedy_color_cells(ws.cell_nodes, 0, C - 1, ws.num_nodes);
  std::vector<double> F(p.n_dofs(), 0.0);
  auto J = p.create_matrix();
  EXPECT_THROW(physics::scatter_add(ScatterMode::kColored, short_coloring,
                                    ws.cell_nodes, R, C, ws.num_nodes, F, &J),
               Error);
  // The serial mode does not read the coloring.
  EXPECT_NO_THROW(physics::scatter_add(ScatterMode::kSerial, short_coloring,
                                       ws.cell_nodes, R, C, ws.num_nodes, F,
                                       &J));
}

TEST(ScatterAdd, SlotTableShorterThanTheRangeThrows) {
  StokesFOProblem p(antarctica_config(ScatterMode::kSerial));
  const auto& ws = p.workset();
  const std::size_t C = ws.n_cells;
  const auto R = random_element_jacobians(C, ws.num_nodes);
  const auto coloring =
      mesh::greedy_color_cells(ws.cell_nodes, 0, C, ws.num_nodes);
  auto J = p.create_matrix();
  const auto table = physics::build_slot_table(ws.cell_nodes, C - 1, J);
  ASSERT_TRUE(table.serves(J));
  for (const auto mode : {ScatterMode::kSerial, ScatterMode::kColored}) {
    std::vector<double> F(p.n_dofs(), 0.0);
    EXPECT_THROW(physics::scatter_add(mode, coloring, ws.cell_nodes, R, C,
                                      ws.num_nodes, F, &J, &table),
                 Error)
        << to_string(mode);
  }
}

// An SFad residual scattered without a matrix adds its values only: F is
// bitwise the scatter of the plain double residual.
TEST(ScatterAdd, SfadWithoutAMatrixScattersOnlyValues) {
  StokesFOProblem p(antarctica_config(ScatterMode::kSerial));
  const auto& ws = p.workset();
  const std::size_t C = ws.n_cells;
  const int N = ws.num_nodes;
  const auto R = random_element_jacobians(C, N);
  pk::View<double, 3> values("values", C, static_cast<std::size_t>(N), 2);
  for (std::size_t c = 0; c < C; ++c) {
    for (int n = 0; n < N; ++n) {
      for (int comp = 0; comp < 2; ++comp) {
        values(c, n, comp) = R(c, n, comp).val();
      }
    }
  }
  const auto coloring = mesh::greedy_color_cells(ws.cell_nodes, 0, C, N);
  for (const auto mode : {ScatterMode::kSerial, ScatterMode::kColored}) {
    std::vector<double> F_sfad(p.n_dofs(), 0.0), F_double(p.n_dofs(), 0.0);
    physics::scatter_add(mode, coloring, ws.cell_nodes, R, C, N, F_sfad,
                         nullptr);
    physics::scatter_add(mode, coloring, ws.cell_nodes, values, C, N,
                         F_double, nullptr);
    EXPECT_EQ(F_sfad, F_double) << to_string(mode);
  }
}

TEST(ScatterModeFromString, RoundTripsEveryMode) {
  for (const auto mode : {ScatterMode::kSerial, ScatterMode::kColored}) {
    EXPECT_EQ(physics::scatter_mode_from_string(to_string(mode)), mode);
  }
}

TEST(ScatterModeFromString, RejectsUnknownWithATypedMessage) {
  for (const std::string bad : {"atomic", "", "Colored", "serial "}) {
    try {
      (void)physics::scatter_mode_from_string(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                "unknown scatter mode: " + bad + " (expected serial|colored)");
    }
  }
}

// A Newton solve must converge identically (to solver tolerances) under all
// scatter modes — the end-to-end guard that the parallel epilogue does not
// perturb the physics.
TEST(ScatterSolve, MeanVelocityAgreesAcrossModes) {
  double means[2];
  int i = 0;
  for (auto mode : {ScatterMode::kSerial, ScatterMode::kColored}) {
    StokesFOProblem p(antarctica_config(mode));
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
