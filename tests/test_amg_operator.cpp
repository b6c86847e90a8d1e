// Semicoarsening AMG on a matrix-free operator (the `amg` ctest tier).
//
// The contract under test: on the manufactured FO Stokes problem the
// colored probing reconstructs the assembled Jacobian entrywise from a
// constant number of matrix-free operator applies; the operator's own
// tangent assembly writes that probed matrix bit for bit, without the
// applies, and fails loudly on a stale cache or a bad target; the AMG
// built on it preconditions the JFNK Newton run onto the same trajectory
// as the assembled+AMG reference; and the Chebyshev smoother keeps the fine
// level matrix-free without giving up the multigrid iteration counts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "linalg/chebyshev.hpp"
#include "linalg/gmres.hpp"
#include "linalg/krylov.hpp"
#include "linalg/linear_operator.hpp"
#include "linalg/operator_probing.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "nonlinear/newton.hpp"
#include "perf/data_movement.hpp"
#include "physics/matrix_free_operator.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "util/hash.hpp"

using namespace mali;
using namespace mali::linalg;
using physics::StokesFOConfig;
using physics::StokesFOProblem;

namespace {

StokesFOConfig mms_config(JacobianMode mode) {
  StokesFOConfig cfg;
  cfg.dx_m = 250.0e3;
  cfg.n_layers = 4;
  cfg.mms.enabled = true;
  cfg.jacobian = mode;
  return cfg;
}

struct SolveOutcome {
  nonlinear::NewtonResult newton;
  double mean_velocity = 0.0;
};

SolveOutcome run_mms_newton(JacobianMode mode, Preconditioner& M) {
  StokesFOProblem p(mms_config(mode));
  nonlinear::NewtonConfig ncfg;
  ncfg.jacobian = mode;
  const nonlinear::NewtonSolver newton(ncfg);
  std::vector<double> U(p.n_dofs(), 0.0);
  SolveOutcome out;
  out.newton = newton.solve(p, M, U);
  out.mean_velocity = p.mean_velocity(U);
  return out;
}

/// Row-wise infinity norm of A (scale for the entrywise comparison: FO
/// Jacobian entries span ~18 orders of magnitude across Dirichlet-scaled
/// rows, so a global tolerance is meaningless).
std::vector<double> row_scales(const CrsMatrix& A) {
  std::vector<double> s(A.n_rows(), 0.0);
  for (std::size_t r = 0; r < A.n_rows(); ++r) {
    for (std::size_t k = A.row_ptr()[r]; k < A.row_ptr()[r + 1]; ++k) {
      s[r] = std::max(s[r], std::abs(A.values()[k]));
    }
    if (s[r] == 0.0) s[r] = 1.0;
  }
  return s;
}

/// Forwards everything but assemble(), as a tracing decorator that predates
/// the capability does: SemicoarseningAmg must fall back to probing.
class ForwardingOperator final : public LinearOperator {
 public:
  explicit ForwardingOperator(const LinearOperator& inner) : inner_(&inner) {}
  [[nodiscard]] std::size_t rows() const override { return inner_->rows(); }
  [[nodiscard]] std::size_t cols() const override { return inner_->cols(); }
  void apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    inner_->apply(x, y);
  }
  bool diagonal(std::vector<double>& d) const override {
    return inner_->diagonal(d);
  }
  bool block_diagonal(int bs, std::vector<double>& blocks) const override {
    return inner_->block_diagonal(bs, blocks);
  }
  [[nodiscard]] const CrsMatrix* matrix() const override {
    return inner_->matrix();
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  const LinearOperator* inner_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Probing reconstructs the assembled matrix.
// ---------------------------------------------------------------------------

TEST(OperatorProbing, ProbedMatrixMatchesAssembledOnMms) {
  StokesFOProblem p(mms_config(JacobianMode::kAssembled));
  const auto U = p.analytic_initial_guess();
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);

  const auto op = p.jacobian_operator(U);
  ASSERT_NE(op, nullptr);
  const StructuredProbing probing(p.extrusion_info());
  CrsMatrix probed = probing.structure();
  probing.probe(*op, probed);

  ASSERT_EQ(probed.n_rows(), J.n_rows());
  const auto scale = row_scales(J);
  // The matrix-free apply agrees with the assembled SpMV to FP
  // reassociation (DESIGN.md §9); the probe reads the operator exactly, so
  // the entrywise match inherits that budget.
  constexpr double kRelTol = 1e-9;
  // (a) every assembled entry is recovered;
  for (std::size_t r = 0; r < J.n_rows(); ++r) {
    for (std::size_t k = J.row_ptr()[r]; k < J.row_ptr()[r + 1]; ++k) {
      const std::size_t c = J.cols()[k];
      ASSERT_NEAR(probed.get(r, c), J.values()[k], kRelTol * scale[r])
          << "entry (" << r << ", " << c << ")";
    }
  }
  // (b) structural-graph entries outside the assembled sparsity probe to ~0.
  for (std::size_t r = 0; r < probed.n_rows(); ++r) {
    for (std::size_t k = probed.row_ptr()[r]; k < probed.row_ptr()[r + 1];
         ++k) {
      const std::size_t c = probed.cols()[k];
      if (J.get(r, c) == 0.0) {
        ASSERT_LE(std::abs(probed.values()[k]), kRelTol * scale[r])
            << "spurious entry (" << r << ", " << c << ")";
      }
    }
  }
}

TEST(OperatorProbing, ProbeCountIsConstantAndBounded) {
  StokesFOProblem p(mms_config(JacobianMode::kMatrixFree));
  const StructuredProbing probing(p.extrusion_info());
  const auto dpn =
      static_cast<std::size_t>(p.extrusion_info().dofs_per_node);
  EXPECT_LE(probing.n_probes(), 27 * dpn);
  EXPECT_GT(probing.n_probes(), 0u);
  EXPECT_EQ(probing.n_dofs(), p.n_dofs());
}

// ---------------------------------------------------------------------------
// Tangent assembly writes the probed matrix bit for bit.
// ---------------------------------------------------------------------------

namespace {

enum class Case { kGlenDome, kThermalDome, kMms };

const char* name(Case c) {
  switch (c) {
    case Case::kGlenDome:
      return "glen dome";
    case Case::kThermalDome:
      return "thermal dome";
    case Case::kMms:
      return "mms";
  }
  return "?";
}

/// Case c's problem (the problem pins its own address, so it lives on the
/// heap).
std::unique_ptr<StokesFOProblem> make_case(Case c, int width,
                                           physics::ScatterMode mode) {
  StokesFOConfig cfg;
  cfg.dx_m = 150.0e3;
  cfg.n_layers = 4;
  cfg.simd_width = width;
  cfg.scatter = mode;
  cfg.jacobian = JacobianMode::kMatrixFree;
  if (c == Case::kGlenDome) cfg.workset_size = 301;  // ragged worksets
  if (c == Case::kMms) {
    cfg.dx_m = 100.0e3;
    cfg.n_layers = 3;
    cfg.mms.enabled = true;
    cfg.geometry.square_mask = true;
  }
  auto p = std::make_unique<StokesFOProblem>(cfg);
  if (c == Case::kThermalDome) {
    p->set_temperature_field([](double x, double y, double sigma) {
      return 243.0 + 25.0 * sigma + 1.0e-6 * (x - 0.5 * y);
    });
  }
  return p;
}

/// A perturbed linearization state, so no two cells see the same strain
/// rates.
std::vector<double> perturbed_state(const StokesFOProblem& p, Case c) {
  auto U = c == Case::kMms ? p.mms_exact() : p.analytic_initial_guess();
  for (std::size_t i = 0; i < U.size(); ++i) {
    U[i] += 0.01 * std::sin(0.1 * static_cast<double>(i)) *
            (1.0 + std::abs(U[i]));
  }
  return U;
}

/// fnv1a64 of the values with -0 canonicalized to +0: probing reads exact
/// zeros off cells that miss the probed column, whose sign the assembly
/// (which never visits them) cannot reproduce.
std::uint64_t value_hash(const CrsMatrix& A) {
  std::vector<double> v = A.values();
  for (double& x : v) {
    if (x == 0.0) x = 0.0;
  }
  return util::fnv1a64(v.data(), v.size() * sizeof(double));
}

}  // namespace

TEST(AmgOperator, TangentAssembledFineMatrixEqualsProbed) {
  for (const Case c : {Case::kGlenDome, Case::kThermalDome, Case::kMms}) {
    for (const int width : {1, 0}) {  // scalar reference and native packs
      for (const auto mode :
           {physics::ScatterMode::kSerial, physics::ScatterMode::kColored}) {
        const auto p = make_case(c, width, mode);
        physics::MatrixFreeStokesOperator op(*p);
        op.linearize(perturbed_state(*p, c));

        const StructuredProbing probing(p->extrusion_info());
        CrsMatrix probed = probing.structure();
        probing.probe(op, probed);
        CrsMatrix assembled = probing.structure();
        ASSERT_TRUE(op.assemble(assembled));
        std::size_t nonzeros = 0;
        for (const double v : assembled.values()) nonzeros += v != 0.0;
        ASSERT_GT(nonzeros, 2 * assembled.n_rows());

        const std::string what = std::string(name(c)) + ", width " +
                                 std::to_string(width) + ", " +
                                 physics::to_string(mode);
        ASSERT_EQ(assembled.row_ptr(), probed.row_ptr()) << what;
        ASSERT_EQ(assembled.cols(), probed.cols()) << what;
        EXPECT_EQ(value_hash(assembled), value_hash(probed)) << what;
        for (std::size_t k = 0; k < probed.nnz(); ++k) {
          ASSERT_EQ(assembled.values()[k], probed.values()[k])
              << what << ", nonzero " << k;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SemicoarseningAmg::compute(const LinearOperator&).
// ---------------------------------------------------------------------------

TEST(AmgOperator, ComputeUnwrapsAssembledOperator) {
  // An operator that wraps a CRS matrix must short-circuit the probing:
  // zero probe applies, and the V-cycle identical to the assembled path.
  StokesFOProblem p(mms_config(JacobianMode::kAssembled));
  const auto U = p.analytic_initial_guess();
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);

  SemicoarseningAmg direct(p.extrusion_info());
  direct.compute(J);
  SemicoarseningAmg wrapped(p.extrusion_info());
  wrapped.compute(AssembledOperator(J));
  EXPECT_EQ(wrapped.probe_applies(), 0u);
  EXPECT_FALSE(wrapped.fine_matrix_free());

  std::vector<double> r(p.n_dofs());
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = std::sin(0.13 * static_cast<double>(i) + 0.5);
  }
  std::vector<double> z1, z2;
  direct.apply(r, z1);
  wrapped.apply(r, z2);
  for (std::size_t i = 0; i < r.size(); ++i) {
    ASSERT_EQ(z1[i], z2[i]) << "dof " << i;
  }
}

TEST(AmgOperator, ProbedHierarchyReportsItsSetupCost) {
  // The matrix-free Stokes operator assembles its own fine matrix, so the
  // probing fallback is exercised through a forwarding wrapper without
  // that capability (the shape of a tracing decorator).  Both must build
  // the same hierarchy: the fallback pays n_probes() applies, the
  // assembling path none, and their V-cycles agree bit for bit.
  StokesFOProblem p(mms_config(JacobianMode::kMatrixFree));
  const auto U = p.analytic_initial_guess();
  const auto op = p.jacobian_operator(U);
  ASSERT_NE(op, nullptr);
  const ForwardingOperator forwarded(*op);

  SemicoarseningAmg assembling(p.extrusion_info());
  assembling.compute(*op);
  EXPECT_EQ(assembling.probe_applies(), 0u);
  EXPECT_TRUE(assembling.fine_operator_assembled());

  SemicoarseningAmg amg(p.extrusion_info());
  amg.compute(forwarded);
  EXPECT_FALSE(amg.fine_operator_assembled());
  const StructuredProbing probing(p.extrusion_info());
  EXPECT_EQ(amg.probe_applies(), probing.n_probes());
  EXPECT_LE(amg.probe_applies(),
            27 * static_cast<std::size_t>(p.extrusion_info().dofs_per_node));
  // Column-line smoother (default config): the fine level runs on the
  // probed matrix, not the live operator.
  EXPECT_FALSE(amg.fine_matrix_free());
  EXPECT_GE(amg.n_levels(), 1u);
  EXPECT_EQ(amg.level_matrix(0).n_rows(), p.n_dofs());

  std::vector<double> r(p.n_dofs());
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = std::sin(0.13 * static_cast<double>(i) + 0.5);
  }
  std::vector<double> z_probed, z_assembled;
  amg.apply(r, z_probed);
  assembling.apply(r, z_assembled);
  ASSERT_EQ(z_probed.size(), z_assembled.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    ASSERT_EQ(z_probed[i], z_assembled[i]) << "dof " << i;
  }
}

// ---------------------------------------------------------------------------
// Tangent assembly fails loudly.
// ---------------------------------------------------------------------------

TEST(AmgOperator, TangentAssemblyAfterAMutationThrowsStale) {
  StokesFOProblem p(mms_config(JacobianMode::kMatrixFree));
  physics::MatrixFreeStokesOperator op(p);
  op.linearize(p.analytic_initial_guess());
  const StructuredProbing probing(p.extrusion_info());
  CrsMatrix A = probing.structure();
  ASSERT_TRUE(op.assemble(A));

  p.set_regularization(2.0e-10);
  EXPECT_THROW((void)op.assemble(A), physics::StaleLinearizationError);
  SemicoarseningAmg amg(p.extrusion_info());
  EXPECT_THROW(amg.compute(op), physics::StaleLinearizationError);
}

TEST(AmgOperator, TangentAssemblyRejectsAWrongSizeTarget) {
  StokesFOProblem p(mms_config(JacobianMode::kMatrixFree));
  physics::MatrixFreeStokesOperator op(p);
  op.linearize(p.analytic_initial_guess());
  const std::size_t n = p.n_dofs() - 2;  // one node short
  std::vector<std::size_t> rp(n + 1), cols(n);
  for (std::size_t i = 0; i < n; ++i) {
    rp[i + 1] = i + 1;
    cols[i] = i;
  }
  CrsMatrix A(rp, cols);
  EXPECT_THROW((void)op.assemble(A), Error);
}

TEST(AmgOperator, TangentAssemblyRejectsAGraphMissingACoupling) {
  StokesFOProblem p(mms_config(JacobianMode::kMatrixFree));
  physics::MatrixFreeStokesOperator op(p);
  op.linearize(p.analytic_initial_guess());

  // The FE graph holds exactly the element couplings, so it assembles.
  CrsMatrix fe = p.create_matrix();
  ASSERT_TRUE(op.assemble(fe));

  // Drop one off-diagonal coupling of an interior (non-Dirichlet) row.
  std::size_t row = 0;
  while (p.dof_map().is_dirichlet_dof(row)) ++row;
  std::vector<std::size_t> rp = fe.row_ptr();
  std::vector<std::size_t> cols = fe.cols();
  std::size_t drop = rp[row];
  if (cols[drop] == row) ++drop;
  cols.erase(cols.begin() + static_cast<std::ptrdiff_t>(drop));
  for (std::size_t r = row + 1; r < rp.size(); ++r) --rp[r];
  CrsMatrix A(rp, cols);
  EXPECT_THROW((void)op.assemble(A), Error);
}

// ---------------------------------------------------------------------------
// JFNK + probed AMG trajectory == assembled + AMG.
// ---------------------------------------------------------------------------

TEST(AmgOperator, JfnkAmgMatchesAssembledAmgTrajectory) {
  StokesFOProblem probe_src(mms_config(JacobianMode::kAssembled));
  SemicoarseningAmg amg_asm(probe_src.extrusion_info());
  const auto assembled =
      run_mms_newton(JacobianMode::kAssembled, amg_asm);

  SemicoarseningAmg amg_mf(probe_src.extrusion_info());
  const auto mf = run_mms_newton(JacobianMode::kMatrixFree, amg_mf);

  ASSERT_TRUE(assembled.newton.converged);
  ASSERT_TRUE(mf.newton.converged);
  EXPECT_EQ(mf.newton.iterations, assembled.newton.iterations);
  EXPECT_NEAR(mf.mean_velocity / assembled.mean_velocity, 1.0, 1e-8);

  // Acceptance band: GMRES totals within 10% of the assembled reference.
  const auto a = static_cast<double>(assembled.newton.total_linear_iters);
  const auto m = static_cast<double>(mf.newton.total_linear_iters);
  EXPECT_LE(std::abs(m - a), std::max(1.0, 0.10 * a))
      << "assembled " << assembled.newton.total_linear_iters
      << " vs matrix-free " << mf.newton.total_linear_iters;
  EXPECT_EQ(assembled.newton.linear_failures, 0);
  EXPECT_EQ(mf.newton.linear_failures, 0);
}

TEST(AmgOperator, ChebyshevFineLevelStaysMatrixFreeAndConverges) {
  // Force a real multilevel hierarchy (coarse_max_dofs below the fine dof
  // count) so the Chebyshev smoother actually smooths, then check the JFNK
  // run still lands inside the acceptance band.
  AmgConfig acfg;
  acfg.smoother = AmgSmoother::kChebyshev;
  acfg.coarse_max_dofs = 100;

  StokesFOProblem probe_src(mms_config(JacobianMode::kAssembled));
  AmgConfig scfg;  // column-line reference on the same shrunken hierarchy
  scfg.coarse_max_dofs = 100;
  SemicoarseningAmg amg_asm(probe_src.extrusion_info(), scfg);
  const auto assembled =
      run_mms_newton(JacobianMode::kAssembled, amg_asm);

  SemicoarseningAmg amg_cheb(probe_src.extrusion_info(), acfg);
  const auto mf = run_mms_newton(JacobianMode::kMatrixFree, amg_cheb);

  ASSERT_TRUE(assembled.newton.converged);
  ASSERT_TRUE(mf.newton.converged);
  EXPECT_TRUE(amg_cheb.fine_matrix_free())
      << "Chebyshev + probed path must keep level 0 on the live operator";
  EXPECT_EQ(mf.newton.iterations, assembled.newton.iterations);
  EXPECT_NEAR(mf.mean_velocity / assembled.mean_velocity, 1.0, 1e-8);
  // Chebyshev is a different smoother, so iteration counts differ from the
  // column-line reference — but the multigrid quality must hold: no more
  // than a small multiple of the reference, and far below single-level
  // preconditioning.
  EXPECT_LE(mf.newton.total_linear_iters,
            3 * assembled.newton.total_linear_iters + 8);
}

// ---------------------------------------------------------------------------
// Chebyshev smoother in isolation.
// ---------------------------------------------------------------------------

TEST(Chebyshev, PreconditionsSpdSystem) {
  const std::size_t n = 160;
  std::vector<std::size_t> rp{0}, cols;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) cols.push_back(i - 1);
    cols.push_back(i);
    if (i + 1 < n) cols.push_back(i + 1);
    rp.push_back(cols.size());
  }
  CrsMatrix A(rp, cols);
  for (std::size_t i = 0; i < n; ++i) {
    A.set(i, i, 2.5);
    if (i > 0) A.set(i, i - 1, -1.0);
    if (i + 1 < n) A.set(i, i + 1, -1.0);
  }

  ChebyshevSmoother cheb;
  cheb.compute(A);
  EXPECT_GT(cheb.lambda_max(), 0.0);
  EXPECT_GT(cheb.lambda_min(), 0.0);
  EXPECT_LT(cheb.lambda_min(), cheb.lambda_max());

  std::vector<double> b(n), x_cheb, x_id;
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = std::cos(0.21 * static_cast<double>(i));
  }
  const ConjugateGradient cg({1e-10, 2000});
  const auto rc = cg.solve(A, cheb, b, x_cheb);
  IdentityPreconditioner id;
  const auto ri = cg.solve(A, id, b, x_id);
  ASSERT_TRUE(rc.converged);
  ASSERT_TRUE(ri.converged);
  EXPECT_LT(rc.iterations, ri.iterations)
      << "a degree-3 Chebyshev application must beat no preconditioning";
}

TEST(Chebyshev, OperatorPathMatchesAssembledPath) {
  const std::size_t n = 40;
  std::vector<std::size_t> rp(n + 1), cols(n);
  for (std::size_t i = 0; i < n; ++i) {
    rp[i + 1] = i + 1;
    cols[i] = i;
  }
  CrsMatrix A(rp, cols);
  for (std::size_t i = 0; i < n; ++i) {
    A.set(i, i, 1.0 + static_cast<double>(i % 5));
  }

  ChebyshevSmoother assembled;
  assembled.compute(A);
  ChebyshevSmoother wrapped;
  wrapped.compute(AssembledOperator(A));

  std::vector<double> r(n), z1, z2;
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = std::sin(static_cast<double>(i));
  }
  assembled.apply(r, z1);
  wrapped.apply(r, z2);
  for (std::size_t i = 0; i < n; ++i) ASSERT_DOUBLE_EQ(z1[i], z2[i]);
}

// ---------------------------------------------------------------------------
// perf::AmgCycleModel sanity.
// ---------------------------------------------------------------------------

TEST(AmgCycleModel, ProbeSetupAndVcycleBytesAreConsistent) {
  perf::AmgCycleModel m;
  m.fine_apply_bytes = 1'000'000;
  m.probe_applies = 54;
  m.level_rows = {10000, 2500, 640};
  m.level_nnz = {270000, 67000, 17000};

  // Assembled/column-line mode: no probe applies, fine level streams its
  // matrix.
  perf::AmgCycleModel assembled = m;
  assembled.probe_applies = 0;
  assembled.fine_matrix_free = false;
  EXPECT_EQ(assembled.setup_bytes(),
            assembled.level_stream_bytes(0) + assembled.level_stream_bytes(1) +
                assembled.level_stream_bytes(2));
  EXPECT_GT(assembled.vcycle_bytes(), 0u);

  // Probed/Chebyshev mode: setup pays the probe applies; the fine level's
  // smoother work goes through the operator apply.
  perf::AmgCycleModel probed = m;
  probed.fine_matrix_free = true;
  EXPECT_EQ(probed.setup_bytes(),
            54 * m.fine_apply_bytes + probed.level_stream_bytes(0) +
                probed.level_stream_bytes(1) + probed.level_stream_bytes(2));
  // The fine-level smoother bytes must reference the operator apply, not
  // the CRS stream.
  EXPECT_EQ(probed.smoother_bytes(0),
            static_cast<std::size_t>(probed.cheb_degree) * m.fine_apply_bytes +
                3 * m.level_rows[0] * sizeof(double));
  EXPECT_EQ(probed.residual_bytes(0), m.fine_apply_bytes);
  EXPECT_EQ(probed.residual_bytes(1), probed.level_stream_bytes(1));

  // Tangent-assembled mode: no probe applies, so setup must not fall to
  // the Galerkin streams alone — it reads the tangent cache once per local
  // unit direction and passes over the fine CRS arrays once.
  EXPECT_EQ(assembled.tangent_assembly_bytes(), 0u);
  perf::AmgCycleModel tangent = assembled;
  tangent.tangent_assembled = true;
  tangent.tangent_cache_bytes = 500'000;
  const std::size_t fine_crs = 270000 * (sizeof(double) + sizeof(std::size_t)) +
                               10001 * sizeof(std::size_t);
  EXPECT_EQ(tangent.tangent_assembly_bytes(), 16 * 500'000 + fine_crs);
  EXPECT_EQ(tangent.setup_bytes(),
            tangent.tangent_assembly_bytes() + assembled.setup_bytes());
  // Cheaper than probing when the cache read per direction is below the
  // apply's stream, as on the FO Stokes mesh.
  EXPECT_LT(tangent.setup_bytes(), probed.setup_bytes());
  EXPECT_EQ(tangent.vcycle_bytes(), assembled.vcycle_bytes());
}
