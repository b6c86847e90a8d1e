// Assembled-vs-matrix-free Jacobian equivalence: the per-element SFad<1>
// tangent apply (physics/matrix_free_operator.hpp) must reproduce the
// assembled CRS SpMV J x on random directions, on every configuration the
// assembled path supports.
//
// Tolerance contract: the matrix-free apply accumulates the same per-cell
// contributions as assembly but sums them in a different association
// (per-cell tangent -> scatter, instead of per-entry assembly -> row dot
// product), so entries agree to FP reassociation only.  Errors are measured
// against the row magnitude s_i = sum_j |J_ij||x_j| — the natural scale of
// the cancellation — and pinned at 1e-11, the same budget the PR-1 scatter
// suite pinned for entrywise Jacobian reassociation (observed worst case
// here is ~1e-13).
//
// Runs under TSan in CI: the threaded tangent + colored scatter is
// exercised on both exec spaces.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/linear_operator.hpp"
#include "perf/data_movement.hpp"
#include "physics/matrix_free_operator.hpp"
#include "physics/stokes_fo_problem.hpp"

using namespace mali;
using physics::ScatterMode;
using physics::StokesFOConfig;
using physics::StokesFOProblem;

namespace {

/// Reassociation budget relative to the row magnitude sum_j |J_ij||x_j|
/// (see the file header).
constexpr double kApplyTol = 1e-11;

enum class Config { kMms, kAntarctica, kThermal, kWeertman };

const char* to_string(Config c) {
  switch (c) {
    case Config::kMms: return "Mms";
    case Config::kAntarctica: return "Antarctica";
    case Config::kThermal: return "Thermal";
    case Config::kWeertman: return "Weertman";
  }
  return "?";
}

StokesFOConfig make_config(Config kind, ScatterMode mode) {
  StokesFOConfig cfg;
  cfg.dx_m = 250.0e3;
  cfg.n_layers = 4;
  cfg.scatter = mode;
  switch (kind) {
    case Config::kMms:
      cfg.mms.enabled = true;
      break;
    case Config::kAntarctica:
      break;
    case Config::kThermal:
      cfg.thermal_viscosity = true;
      break;
    case Config::kWeertman:
      cfg.sliding.law = physics::SlidingLaw::kWeertman;
      break;
  }
  return cfg;
}

std::vector<double> random_vector(std::size_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> x(n);
  for (auto& v : x) v = dist(rng);
  return x;
}

/// s_i = sum_j |J_ij| |x_j| — the magnitude the row's dot product sums
/// through; the cancellation scale the reassociation error lives on.
std::vector<double> row_magnitude(const linalg::CrsMatrix& J,
                                  const std::vector<double>& x) {
  std::vector<double> s(J.n_rows(), 0.0);
  for (std::size_t r = 0; r < J.n_rows(); ++r) {
    J.graph()->for_row(r, [&](std::size_t k, std::size_t c) {
      s[r] += std::abs(J.values()[k]) * std::abs(x[c]);
    });
  }
  return s;
}

void expect_apply_matches(const std::vector<double>& y_asm,
                          const std::vector<double>& y_mf,
                          const std::vector<double>& scale, double tol,
                          const char* what) {
  ASSERT_EQ(y_asm.size(), y_mf.size());
  for (std::size_t i = 0; i < y_asm.size(); ++i) {
    EXPECT_NEAR(y_asm[i], y_mf[i], tol * std::max(1.0, scale[i]))
        << what << " row " << i;
  }
}

/// Linearizes p at U on pk::Serial and on the thread pool and expects the
/// tangent apply and the assembled tangent of the two to agree bit for bit:
/// every cell's tangent is computed alone, and neither scatter order depends
/// on the threads that run it.
void expect_exec_spaces_give_the_same_bits(StokesFOProblem& p,
                                           const std::vector<double>& U) {
  physics::TangentCache lin_ser, lin_thr;
  p.linearize_tangent<pk::Serial>(U, lin_ser);
  p.linearize_tangent<pk::Threads>(U, lin_thr);
  const auto x = random_vector(p.n_dofs(), 23u);
  std::vector<double> y_ser, y_thr;
  p.apply_tangent<pk::Serial>(lin_ser, x, y_ser);
  p.apply_tangent<pk::Threads>(lin_thr, x, y_thr);
  EXPECT_EQ(y_ser, y_thr);
  auto J_ser = p.create_matrix();
  auto J_thr = p.create_matrix();
  p.assemble_tangent<pk::Serial>(lin_ser, J_ser);
  p.assemble_tangent<pk::Threads>(lin_thr, J_thr);
  EXPECT_EQ(J_ser.values(), J_thr.values());
}

}  // namespace

// ---------------------------------------------------------------------------
// Random-direction equivalence across configs x scatter modes x exec spaces.
// ---------------------------------------------------------------------------

class OperatorEquivalence
    : public ::testing::TestWithParam<std::tuple<Config, ScatterMode>> {};

TEST_P(OperatorEquivalence, ApplyMatchesAssembledSpmv) {
  const auto [kind, mode] = GetParam();
  StokesFOProblem p(make_config(kind, mode));
  const auto U = p.analytic_initial_guess();

  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);  // also sets the Dirichlet row scale

  for (unsigned trial = 0; trial < 3; ++trial) {
    const auto x = random_vector(p.n_dofs(), 97u + trial);
    const auto s = row_magnitude(J, x);
    std::vector<double> y_asm(p.n_dofs());
    J.apply(x, y_asm);

    std::vector<double> y_ser, y_thr;
    p.apply_jacobian<pk::Serial>(U, x, y_ser);
    p.apply_jacobian<pk::Threads>(U, x, y_thr);
    expect_apply_matches(y_asm, y_ser, s, kApplyTol, "serial exec");
    expect_apply_matches(y_asm, y_thr, s, kApplyTol, "threads exec");
  }
}

TEST_P(OperatorEquivalence, ExecSpacesGiveTheSameBits) {
  const auto [kind, mode] = GetParam();
  StokesFOProblem p(make_config(kind, mode));
  expect_exec_spaces_give_the_same_bits(p, p.analytic_initial_guess());
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsAndModes, OperatorEquivalence,
    ::testing::Combine(::testing::Values(Config::kMms, Config::kAntarctica,
                                         Config::kThermal, Config::kWeertman),
                       ::testing::Values(ScatterMode::kSerial,
                                         ScatterMode::kColored)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             physics::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Mesh-size sweep (the boundary-to-interior cell ratio changes with dx and
// layer count; boundary cells touch Dirichlet columns).
// ---------------------------------------------------------------------------

class OperatorMeshSweep
    : public ::testing::TestWithParam<std::pair<double, int>> {};

TEST_P(OperatorMeshSweep, ApplyMatchesAcrossMeshSizes) {
  const auto [dx_km, layers] = GetParam();
  StokesFOConfig cfg;
  cfg.dx_m = dx_km * 1e3;
  cfg.n_layers = layers;
  StokesFOProblem p(cfg);
  const auto U = p.analytic_initial_guess();
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);

  const auto x = random_vector(p.n_dofs(), 11u);
  const auto s = row_magnitude(J, x);
  std::vector<double> y_asm(p.n_dofs()), y_mf;
  J.apply(x, y_asm);
  p.apply_jacobian(U, x, y_mf);
  expect_apply_matches(y_asm, y_mf, s, kApplyTol, "mesh sweep");
}

TEST_P(OperatorMeshSweep, ExecSpacesGiveTheSameBits) {
  const auto [dx_km, layers] = GetParam();
  StokesFOConfig cfg;
  cfg.dx_m = dx_km * 1e3;
  cfg.n_layers = layers;
  StokesFOProblem p(cfg);
  expect_exec_spaces_give_the_same_bits(p, p.analytic_initial_guess());
}

INSTANTIATE_TEST_SUITE_P(Sizes, OperatorMeshSweep,
                         ::testing::Values(std::pair{320.0, 3},
                                           std::pair{250.0, 4},
                                           std::pair{160.0, 6}),
                         [](const auto& info) {
                           return "dx" +
                                  std::to_string(static_cast<int>(
                                      info.param.first)) +
                                  "km_l" + std::to_string(info.param.second);
                         });

// ---------------------------------------------------------------------------
// Dirichlet rows: the matrix-free apply must act as y[d] = scale * x[d],
// exactly the assembled scaled-identity row.
// ---------------------------------------------------------------------------

TEST(OperatorDirichlet, RowsActAsScaledIdentity) {
  StokesFOProblem p(make_config(Config::kMms, ScatterMode::kColored));
  const auto U = p.analytic_initial_guess();
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);
  const auto& dirichlet = p.dof_map().dirichlet_dofs();
  ASSERT_FALSE(dirichlet.empty());
  const double scale = p.dirichlet_scale();
  EXPECT_GT(scale, 0.0);

  // The assembled matrix really holds scale * I on those rows...
  for (const std::size_t d : dirichlet) {
    J.graph()->for_row(d, [&](std::size_t k, std::size_t c) {
      const double expect = c == d ? scale : 0.0;
      EXPECT_DOUBLE_EQ(J.values()[k], expect) << "row " << d;
    });
  }

  // ...and the matrix-free apply reproduces them bit-for-bit (both paths
  // compute the same product scale * x[d]).
  const auto x = random_vector(p.n_dofs(), 5u);
  std::vector<double> y;
  p.apply_jacobian(U, x, y);
  for (const std::size_t d : dirichlet) {
    EXPECT_DOUBLE_EQ(y[d], scale * x[d]) << "dof " << d;
  }
}

// The operator interface (jacobian_operator) recomputes the Dirichlet scale
// from the block-diagonal extraction; it must match the assembled value.
TEST(OperatorDirichlet, OperatorScaleMatchesAssembled) {
  StokesFOProblem p(make_config(Config::kAntarctica, ScatterMode::kColored));
  const auto U = p.analytic_initial_guess();
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);
  const double assembled_scale = p.dirichlet_scale();

  const auto op = p.jacobian_operator(U);
  // linearize() refreshed the scale from the SFad extraction.
  EXPECT_NEAR(p.dirichlet_scale() / assembled_scale, 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Operator metadata: diagonal and 2x2 block diagonal extracted matrix-free
// must match the assembled matrix's entries.
// ---------------------------------------------------------------------------

TEST(OperatorDiagonal, MatchesAssembledEntries) {
  StokesFOProblem p(make_config(Config::kAntarctica, ScatterMode::kColored));
  const auto U = p.analytic_initial_guess();
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);

  const auto op = p.jacobian_operator(U);
  ASSERT_EQ(op->rows(), p.n_dofs());
  ASSERT_EQ(op->cols(), p.n_dofs());
  EXPECT_EQ(op->matrix(), nullptr);  // matrix-free: no CRS behind it

  std::vector<double> d;
  ASSERT_TRUE(op->diagonal(d));
  ASSERT_EQ(d.size(), p.n_dofs());
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_NEAR(d[i], J.diagonal(i),
                kApplyTol * std::max(1.0, std::abs(J.diagonal(i))))
        << "diag " << i;
  }

  std::vector<double> blocks;
  ASSERT_TRUE(op->block_diagonal(2, blocks));
  ASSERT_EQ(blocks.size(), 2 * p.n_dofs());
  for (std::size_t node = 0; node < p.n_dofs() / 2; ++node) {
    for (int r = 0; r < 2; ++r) {
      for (int c = 0; c < 2; ++c) {
        const double a = J.get(2 * node + r, 2 * node + c);
        const double m = blocks[node * 4 + static_cast<std::size_t>(r) * 2 +
                                static_cast<std::size_t>(c)];
        EXPECT_NEAR(m, a, kApplyTol * std::max(1.0, std::abs(a)))
            << "block " << node << " (" << r << "," << c << ")";
      }
    }
  }
  // Only the 2x2 velocity blocks are extractable matrix-free.
  std::vector<double> b4;
  EXPECT_FALSE(op->block_diagonal(4, b4));
}

// ---------------------------------------------------------------------------
// Contract edges: zero direction, aliased in/out, un-linearized operator.
// ---------------------------------------------------------------------------

TEST(OperatorContract, ZeroDirectionGivesZero) {
  StokesFOProblem p(make_config(Config::kMms, ScatterMode::kColored));
  const auto U = p.analytic_initial_guess();
  const auto op = p.jacobian_operator(U);
  std::vector<double> x(p.n_dofs(), 0.0), y(p.n_dofs(), 1.0);
  op->apply(x, y);
  for (const double v : y) EXPECT_EQ(v, 0.0);
}

TEST(OperatorContract, AliasedApplyThrows) {
  StokesFOProblem p(make_config(Config::kMms, ScatterMode::kColored));
  const auto U = p.analytic_initial_guess();
  const auto op = p.jacobian_operator(U);
  std::vector<double> x(p.n_dofs(), 0.5);
  EXPECT_THROW(op->apply(x, x), Error);
}

TEST(OperatorContract, UnlinearizedOperatorThrows) {
  StokesFOProblem p(make_config(Config::kMms, ScatterMode::kColored));
  physics::MatrixFreeStokesOperator op(p);
  std::vector<double> x(p.n_dofs(), 1.0), y;
  EXPECT_THROW(op.apply(x, y), Error);
}

// ---------------------------------------------------------------------------
// Byte model on the reduced Antarctica mesh: the node-paired graph stores
// ~9 B per entry, so the assembled SpMV streams fewer bytes per GMRES
// iteration than the matrix-free apply reads of its tangent cache.
// ---------------------------------------------------------------------------

TEST(OperatorByteModel, PairedSpMVStreamsFewerBytesThanMatrixFree) {
  StokesFOConfig cfg;  // reduced Antarctica
  cfg.dx_m = 64.0e3;
  cfg.n_layers = 10;
  StokesFOProblem p(cfg);

  perf::JacobianApplyModel m;
  m.n_rows = p.n_dofs();
  m.nnz = p.create_matrix().nnz();
  m.n_cells = p.mesh().n_cells();
  m.n_nodes = p.mesh().n_nodes();
  m.num_nodes = p.workset().num_nodes;
  m.n_basal_faces = p.mesh().base().n_cells();

  // Values, one 32-bit column per 2x2 block and one 32-bit pointer per
  // node row, plus x read and y written.
  EXPECT_EQ(m.assembled_stream_bytes(),
            8 * m.nnz + 4 * (m.nnz / 4) + 4 * (m.n_rows / 2 + 1) +
                16 * m.n_rows);
  EXPECT_LT(m.assembled_stream_bytes(), m.matrix_free_stream_bytes());
  // The theoretical minima order the same way, and each stream dominates
  // its own minimum.
  EXPECT_LT(m.assembled_min_bytes(), m.matrix_free_min_bytes());
  EXPECT_LE(m.matrix_free_min_bytes(), m.matrix_free_stream_bytes());
  EXPECT_EQ(m.assembled_min_bytes(), m.assembled_stream_bytes());
}
