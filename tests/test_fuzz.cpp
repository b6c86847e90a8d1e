// Randomized property tests: SFad evaluated on random expression trees
// against DFad and central finite differences; Krylov solvers on random
// diagonally-dominant systems against a dense LU reference; cache-simulator
// traffic bounds on random access traces; the LinearOperator interface
// (assembled and matrix-free implementations) on random sizes/directions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <set>

#include "ad/dfad.hpp"
#include "ad/sfad.hpp"
#include "fem/cell_geometry.hpp"
#include "fem/hex8.hpp"
#include "fem/quadrature.hpp"
#include "gpusim/cache_sim.hpp"
#include "linalg/gmres.hpp"
#include "linalg/krylov.hpp"
#include "linalg/linear_operator.hpp"
#include "linalg/pipelined_krylov.hpp"
#include "mesh/ice_geometry.hpp"
#include "physics/fused_chain_batched.hpp"
#include "physics/matrix_free_operator.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "physics/stokes_jacobian_apply.hpp"
#include "portability/simd.hpp"
#include "timestepping/forcing.hpp"
#include "util/fp_format.hpp"

using namespace mali;

namespace {

// ---- random expression trees over 3 variables ----

enum class Op { kAdd, kSub, kMul, kDiv, kScale, kSqrt, kPow, kLeaf };

struct Expr {
  Op op = Op::kLeaf;
  int leaf = 0;        // variable index for kLeaf
  double constant = 1.0;
  std::unique_ptr<Expr> lhs, rhs;
};

std::unique_ptr<Expr> random_expr(std::mt19937& rng, int depth) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  auto e = std::make_unique<Expr>();
  if (depth == 0 || uni(rng) < 0.25) {
    e->op = Op::kLeaf;
    e->leaf = static_cast<int>(uni(rng) * 3.0) % 3;
    return e;
  }
  const double pick = uni(rng);
  if (pick < 0.22) {
    e->op = Op::kAdd;
  } else if (pick < 0.44) {
    e->op = Op::kSub;
  } else if (pick < 0.66) {
    e->op = Op::kMul;
  } else if (pick < 0.76) {
    e->op = Op::kDiv;
  } else if (pick < 0.86) {
    e->op = Op::kScale;
    e->constant = 0.5 + uni(rng);
  } else if (pick < 0.94) {
    e->op = Op::kSqrt;
  } else {
    e->op = Op::kPow;
    e->constant = 0.3 + uni(rng);  // fractional exponent, Glen-style
  }
  e->lhs = random_expr(rng, depth - 1);
  if (e->op == Op::kAdd || e->op == Op::kSub || e->op == Op::kMul ||
      e->op == Op::kDiv) {
    e->rhs = random_expr(rng, depth - 1);
  }
  return e;
}

/// Evaluates the tree for any scalar type; inputs are kept positive so
/// sqrt/pow/div stay well-defined, and divisors are shifted away from zero.
template <class T>
T eval(const Expr& e, const T x[3]) {
  switch (e.op) {
    case Op::kLeaf:
      return x[e.leaf];
    case Op::kAdd:
      return eval(*e.lhs, x) + eval(*e.rhs, x);
    case Op::kSub:
      return eval(*e.lhs, x) - eval(*e.rhs, x);
    case Op::kMul:
      return eval(*e.lhs, x) * eval(*e.rhs, x);
    case Op::kDiv:
      return eval(*e.lhs, x) / (eval(*e.rhs, x) * eval(*e.rhs, x) + 1.5);
    case Op::kScale:
      return e.constant * eval(*e.lhs, x);
    case Op::kSqrt:
      return sqrt(eval(*e.lhs, x) * eval(*e.lhs, x) + 0.75);
    case Op::kPow:
      return pow(eval(*e.lhs, x) * eval(*e.lhs, x) + 0.5, e.constant);
    default:
      return T(0);
  }
}

double eval_plain(const Expr& e, const double x[3]) {
  using std::pow;
  using std::sqrt;
  switch (e.op) {
    case Op::kLeaf:
      return x[e.leaf];
    case Op::kAdd:
      return eval_plain(*e.lhs, x) + eval_plain(*e.rhs, x);
    case Op::kSub:
      return eval_plain(*e.lhs, x) - eval_plain(*e.rhs, x);
    case Op::kMul:
      return eval_plain(*e.lhs, x) * eval_plain(*e.rhs, x);
    case Op::kDiv: {
      const double r = eval_plain(*e.rhs, x);
      return eval_plain(*e.lhs, x) / (r * r + 1.5);
    }
    case Op::kScale:
      return e.constant * eval_plain(*e.lhs, x);
    case Op::kSqrt: {
      const double l = eval_plain(*e.lhs, x);
      return sqrt(l * l + 0.75);
    }
    case Op::kPow: {
      const double l = eval_plain(*e.lhs, x);
      return pow(l * l + 0.5, e.constant);
    }
    default:
      return 0.0;
  }
}

}  // namespace

class SFadFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(SFadFuzz, AgreesWithDFadAndFiniteDifferences) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> val(0.2, 2.0);
  for (int trial = 0; trial < 20; ++trial) {
    const auto tree = random_expr(rng, 5);
    const double xv[3] = {val(rng), val(rng), val(rng)};

    using Fad3 = ad::SFad<double, 3>;
    const Fad3 xs[3] = {Fad3(xv[0], 0), Fad3(xv[1], 1), Fad3(xv[2], 2)};
    const Fad3 rs = eval(*tree, xs);

    const ad::DFad<double> xd[3] = {{3, 0, xv[0]}, {3, 1, xv[1]}, {3, 2, xv[2]}};
    const ad::DFad<double> rd = eval(*tree, xd);

    EXPECT_NEAR(rs.val(), eval_plain(*tree, xv),
                1e-12 * std::max(1.0, std::abs(rs.val())));
    for (int i = 0; i < 3; ++i) {
      EXPECT_NEAR(rs.dx(i), rd.dx(i),
                  1e-11 * std::max(1.0, std::abs(rs.dx(i))))
          << "SFad vs DFad, dir " << i;
      // Central finite differences.
      const double h = 1e-6 * std::max(1.0, std::abs(xv[i]));
      double xp[3] = {xv[0], xv[1], xv[2]}, xm[3] = {xv[0], xv[1], xv[2]};
      xp[i] += h;
      xm[i] -= h;
      const double fd = (eval_plain(*tree, xp) - eval_plain(*tree, xm)) / (2 * h);
      EXPECT_NEAR(rs.dx(i), fd, 2e-4 * std::max(1.0, std::abs(fd)))
          << "SFad vs FD, dir " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SFadFuzz, ::testing::Values(11u, 22u, 33u, 44u));

// ---- random linear systems: all solvers agree with dense reference ----

namespace {

struct DenseSystem {
  linalg::CrsMatrix A;
  std::vector<std::vector<double>> dense;
  std::vector<double> b;
};

DenseSystem random_dd_system(std::mt19937& rng, std::size_t n, double density) {
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    double offsum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && std::abs(uni(rng)) < density) {
        d[i][j] = uni(rng);
        offsum += std::abs(d[i][j]);
      }
    }
    d[i][i] = offsum + 1.0 + std::abs(uni(rng));  // strict diagonal dominance
  }
  std::vector<std::size_t> rp{0}, cols;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (d[i][j] != 0.0) cols.push_back(j);
    }
    rp.push_back(cols.size());
  }
  linalg::CrsMatrix A(rp, cols);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (d[i][j] != 0.0) A.set(i, j, d[i][j]);
    }
  }
  std::vector<double> b(n);
  for (auto& v : b) v = uni(rng);
  return {std::move(A), std::move(d), std::move(b)};
}

std::vector<double> dense_solve(std::vector<std::vector<double>> a,
                                std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(a[i][k]) > std::abs(a[piv][k])) piv = i;
    }
    std::swap(a[k], a[piv]);
    std::swap(b[k], b[piv]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = a[i][k] / a[k][k];
      for (std::size_t j = k; j < n; ++j) a[i][j] -= f * a[k][j];
      b[i] -= f * b[k];
    }
  }
  std::vector<double> x(n);
  for (std::size_t k = n; k-- > 0;) {
    double acc = b[k];
    for (std::size_t j = k + 1; j < n; ++j) acc -= a[k][j] * x[j];
    x[k] = acc / a[k][k];
  }
  return x;
}

}  // namespace

class SolverFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(SolverFuzz, GmresMatchesDenseLu) {
  std::mt19937 rng(GetParam());
  const auto sys = random_dd_system(rng, 60, 0.15);
  const auto ref = dense_solve(sys.dense, sys.b);

  linalg::SymGaussSeidelPreconditioner M;
  M.compute(sys.A);

  std::vector<double> xg;
  const auto rg = linalg::Gmres({1e-12, 2000, 100}).solve(sys.A, M, sys.b, xg);
  ASSERT_TRUE(rg.converged);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(xg[i], ref[i], 1e-8 * std::max(1.0, std::abs(ref[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverFuzz,
                         ::testing::Values(5u, 17u, 91u, 123u));

// ---- pipelined Krylov: classic and pipelined agree on random systems ----

namespace {

/// Symmetrizes a random diagonally-dominant system into an SPD one: the
/// off-diagonal is averaged with its transpose and the diagonal rebuilt to
/// restore strict dominance (symmetric + strictly DD + positive diagonal
/// => SPD).  The dense mirror is rebuilt alongside for the LU reference.
DenseSystem make_spd(DenseSystem sys) {
  const std::size_t n = sys.b.size();
  auto& d = sys.dense;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double avg = 0.5 * (d[i][j] + d[j][i]);
      d[i][j] = avg;
      d[j][i] = avg;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double offsum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) offsum += std::abs(d[i][j]);
    }
    d[i][i] = offsum + 1.0;
  }
  std::vector<std::size_t> rp{0}, cols;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (d[i][j] != 0.0) cols.push_back(j);
    }
    rp.push_back(cols.size());
  }
  linalg::CrsMatrix A(rp, cols);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (d[i][j] != 0.0) A.set(i, j, d[i][j]);
    }
  }
  sys.A = std::move(A);
  return sys;
}

}  // namespace

class PipelinedKrylovFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(PipelinedKrylovFuzz, PipeGmresMatchesClassicAndDenseLu) {
  // Random nonsymmetric diagonally-dominant systems: classic and pipelined
  // GMRES must both reproduce the dense LU solution.  Iteration parity is
  // NOT asserted here: SGS preconditions these systems almost exactly, so
  // the new Krylov direction is tiny relative to ||w|| and the fused CGS
  // subtraction s - sum h_i^2 cancels catastrophically — the pipelined
  // solver then leans on its guarded restart and may take extra cycles
  // (the documented CGS-vs-MGS robustness tradeoff; curated parity lives
  // in test_krylov on problems above the cancellation floor).  What the
  // fuzz pins is the contract: always a correct solution or a typed
  // breakdown, never a wrong answer and never a runaway.
  std::mt19937 rng(GetParam());
  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t n = 40 + 20 * static_cast<std::size_t>(trial);
    const auto sys = random_dd_system(rng, n, 0.15);
    const auto ref = dense_solve(sys.dense, sys.b);

    linalg::SymGaussSeidelPreconditioner M;
    M.compute(sys.A);
    linalg::GmresConfig gc;
    gc.rel_tol = 1e-10;
    gc.max_iters = 2000;
    gc.restart = 100;

    std::vector<double> xc, xp;
    const auto rc = linalg::Gmres(gc).solve(sys.A, M, sys.b, xc);
    const auto rp = linalg::PipelinedGmres(gc).solve(sys.A, M, sys.b, xp);
    ASSERT_TRUE(rc.converged) << "seed " << GetParam() << " trial " << trial;
    ASSERT_TRUE(rp.converged) << "seed " << GetParam() << " trial " << trial;
    EXPECT_LE(rp.iterations, rc.iterations + 2 * gc.restart);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(xp[i], ref[i], 1e-7 * std::max(1.0, std::abs(ref[i])));
      EXPECT_NEAR(xp[i], xc[i], 1e-7 * std::max(1.0, std::abs(xc[i])));
    }
  }
}

TEST_P(PipelinedKrylovFuzz, PipeCgMatchesClassicOnRandomSpd) {
  // Symmetrized (SPD) versions of the same random systems: Ghysels-style
  // pipelined CG against textbook PCG, both against dense LU.
  std::mt19937 rng(GetParam() + 500);
  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t n = 40 + 20 * static_cast<std::size_t>(trial);
    const auto sys = make_spd(random_dd_system(rng, n, 0.15));
    const auto ref = dense_solve(sys.dense, sys.b);

    linalg::JacobiPreconditioner M;
    M.compute(sys.A);
    const linalg::KrylovConfig kc{1e-10, 2000};

    std::vector<double> xc, xp;
    const auto rc = linalg::ConjugateGradient(kc).solve(sys.A, M, sys.b, xc);
    const auto rp = linalg::PipelinedCg(kc).solve(sys.A, M, sys.b, xp);
    ASSERT_TRUE(rc.converged) << "seed " << GetParam() << " trial " << trial;
    ASSERT_TRUE(rp.converged) << "seed " << GetParam() << " trial " << trial;
    EXPECT_NEAR(static_cast<double>(rc.iterations),
                static_cast<double>(rp.iterations), 2.0);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(xp[i], ref[i], 1e-7 * std::max(1.0, std::abs(ref[i])));
      EXPECT_NEAR(xp[i], xc[i], 1e-7 * std::max(1.0, std::abs(xc[i])));
    }
  }
}

TEST_P(PipelinedKrylovFuzz, NonFiniteInputsReportBreakdownNeverHang) {
  // Poisoned inputs must hit the typed-breakdown guard path on the very
  // first fused reduction — a clean structured failure, never a hang or an
  // iteration to the cap.  Tried with NaN/Inf in the rhs and NaN in the
  // matrix, for both pipelined solvers.
  std::mt19937 rng(GetParam() + 900);
  const double bads[2] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()};
  for (const double bad : bads) {
    auto sys = make_spd(random_dd_system(rng, 30, 0.2));
    linalg::JacobiPreconditioner Mj;
    Mj.compute(sys.A);
    linalg::SymGaussSeidelPreconditioner Ms;
    Ms.compute(sys.A);

    // Poisoned rhs.
    auto b_bad = sys.b;
    b_bad[b_bad.size() / 2] = bad;
    std::vector<double> x;
    auto rg = linalg::PipelinedGmres({1e-10, 50, 30}).solve(sys.A, Ms, b_bad, x);
    EXPECT_TRUE(rg.breakdown);
    EXPECT_FALSE(rg.converged);
    EXPECT_LT(rg.iterations, 2u);
    EXPECT_NE(rg.reason.find("non-finite"), std::string::npos) << rg.reason;
    auto rc = linalg::PipelinedCg({1e-10, 50}).solve(sys.A, Mj, b_bad, x);
    EXPECT_TRUE(rc.breakdown);
    EXPECT_FALSE(rc.converged);
    EXPECT_LT(rc.iterations, 2u);
    EXPECT_NE(rc.reason.find("non-finite"), std::string::npos) << rc.reason;

    // Poisoned matrix entry (preconditioners built from the clean matrix so
    // the poison is only met through the operator apply).
    auto A_bad = sys.A;
    A_bad.set(0, 0, bad);
    rg = linalg::PipelinedGmres({1e-10, 50, 30}).solve(A_bad, Ms, sys.b, x);
    EXPECT_TRUE(rg.breakdown);
    EXPECT_LT(rg.iterations, 2u);
    rc = linalg::PipelinedCg({1e-10, 50}).solve(A_bad, Mj, sys.b, x);
    EXPECT_TRUE(rc.breakdown);
    EXPECT_LT(rc.iterations, 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinedKrylovFuzz,
                         ::testing::Values(9u, 41u, 77u, 202u));

// ---- LinearOperator interface on random systems and directions ----

class OperatorFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(OperatorFuzz, AssembledOperatorIsTransparent) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<std::size_t> size(4, 120);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  for (int trial = 0; trial < 8; ++trial) {
    // Even sizes: dofs pair into 2x2 blocks for block_diagonal.
    const std::size_t n = size(rng) * 2;
    const auto sys = random_dd_system(rng, n, 0.2);
    const linalg::AssembledOperator op(sys.A);
    ASSERT_EQ(op.rows(), n);
    ASSERT_EQ(op.cols(), n);
    ASSERT_EQ(op.matrix(), &sys.A);

    // apply == CrsMatrix::apply, bitwise (same kernel underneath).
    std::vector<double> x(n), y_op(n), y_mat(n);
    for (auto& v : x) v = uni(rng);
    op.apply(x, y_op);
    sys.A.apply(x, y_mat);
    EXPECT_EQ(y_op, y_mat);

    // Zero direction -> exactly zero.
    std::fill(x.begin(), x.end(), 0.0);
    op.apply(x, y_op);
    for (const double v : y_op) EXPECT_EQ(v, 0.0);

    // Aliased in/out is rejected, not silently corrupted.
    EXPECT_THROW(op.apply(y_op, y_op), Error);

    // diagonal / block_diagonal report the matrix entries.
    std::vector<double> d;
    ASSERT_TRUE(op.diagonal(d));
    ASSERT_EQ(d.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(d[i], sys.dense[i][i]);
    }
    std::vector<double> blocks;
    ASSERT_TRUE(op.block_diagonal(2, blocks));
    ASSERT_EQ(blocks.size(), 2 * n);
    for (std::size_t blk = 0; blk < n / 2; ++blk) {
      for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 2; ++c) {
          EXPECT_EQ(blocks[blk * 4 + r * 2 + c],
                    sys.dense[2 * blk + r][2 * blk + c]);
        }
      }
    }
  }
}

TEST_P(OperatorFuzz, OperatorSolveMatchesMatrixSolve) {
  // The CrsMatrix GMRES overload must be a zero-cost shim over the
  // operator path: identical inputs give identical iterates.
  std::mt19937 rng(GetParam() + 1000);
  const auto sys = random_dd_system(rng, 80, 0.15);
  linalg::SymGaussSeidelPreconditioner M;
  M.compute(sys.A);
  const linalg::Gmres gmres({1e-12, 2000, 30});

  std::vector<double> x_mat, x_op;
  const auto r_mat = gmres.solve(sys.A, M, sys.b, x_mat);
  const linalg::AssembledOperator op(sys.A);
  const auto r_op =
      gmres.solve(static_cast<const linalg::LinearOperator&>(op), M, sys.b,
                  x_op);
  ASSERT_TRUE(r_mat.converged);
  ASSERT_TRUE(r_op.converged);
  EXPECT_EQ(r_mat.iterations, r_op.iterations);
  EXPECT_EQ(x_mat, x_op);
}

TEST_P(OperatorFuzz, MatrixFreeStokesRandomDirections) {
  // The matrix-free FO Stokes operator on a tiny MMS mesh: random
  // directions reproduce the assembled SpMV (reassociation budget relative
  // to the row magnitude, as pinned in test_operator_equivalence), zero
  // maps to zero, aliasing throws.
  physics::StokesFOConfig cfg;
  cfg.dx_m = 320.0e3;
  cfg.n_layers = 3;
  cfg.mms.enabled = true;
  physics::StokesFOProblem p(cfg);
  const auto U = p.analytic_initial_guess();
  std::vector<double> F;
  auto J = p.create_matrix();
  p.residual_and_jacobian(U, F, J);
  const auto op = p.jacobian_operator(U);

  std::mt19937 rng(GetParam() + 2000);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  const std::size_t n = p.n_dofs();
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> x(n), y_asm(n), y_mf;
    for (auto& v : x) v = uni(rng);
    J.apply(x, y_asm);
    op->apply(x, y_mf);
    for (std::size_t r = 0; r < n; ++r) {
      double s = 0.0;
      J.graph()->for_row(r, [&](std::size_t k, std::size_t c) {
        s += std::abs(J.values()[k]) * std::abs(x[c]);
      });
      ASSERT_NEAR(y_asm[r], y_mf[r], 1e-11 * std::max(1.0, s)) << "row " << r;
    }
  }

  std::vector<double> zero(n, 0.0), y;
  op->apply(zero, y);
  for (const double v : y) EXPECT_EQ(v, 0.0);
  EXPECT_THROW(op->apply(zero, zero), Error);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorFuzz,
                         ::testing::Values(7u, 29u, 71u));

// ---- cache-simulator traffic bounds on random traces ----

class CacheFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(CacheFuzz, TrafficBounds) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<std::uint64_t> addr(0, (1u << 22) - 64);
  std::uniform_int_distribution<int> len(1, 512);
  std::uniform_int_distribution<int> wr(0, 3);

  gpusim::CacheSim cache(256 << 10, 64, 16,
                         gpusim::CacheSim::Replacement::kRandom);
  std::set<std::uint64_t> unique_read_lines;
  std::uint64_t total_bytes = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t a = addr(rng);
    const std::uint64_t l = static_cast<std::uint64_t>(len(rng));
    const bool is_write = wr(rng) == 0;
    cache.access(a, l, is_write);
    total_bytes += ((a + l - 1) / 64 - a / 64 + 1) * 64;
    if (!is_write) {
      for (std::uint64_t line = a / 64; line <= (a + l - 1) / 64; ++line) {
        unique_read_lines.insert(line);
      }
    }
  }
  cache.flush();
  const auto& s = cache.stats();
  // Compulsory misses put a floor under read traffic only for lines never
  // first touched by a full-line write; a loose but valid bound: total HBM
  // traffic never exceeds the probed bytes plus one write-back per probe,
  // and hits+misses account for every probe.
  EXPECT_EQ(s.hits + s.misses, s.line_probes);
  EXPECT_LE(s.hbm_read_bytes, total_bytes);
  EXPECT_LE(s.hbm_write_bytes, total_bytes + cache.capacity_bytes());
  EXPECT_GT(s.misses, 0u);
}

TEST_P(CacheFuzz, LargerCacheNeverReadsMore) {
  // Replay the identical random trace through growing LRU caches: read
  // traffic must be non-increasing (inclusion property of LRU).
  std::mt19937 rng(GetParam() + 7);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> trace;
  std::uniform_int_distribution<std::uint64_t> addr(0, (1u << 18) - 64);
  for (int i = 0; i < 4000; ++i) {
    trace.push_back({addr(rng), 64});
  }
  // Re-visit a working set to create reuse.
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 500; ++i) {
      trace.push_back({static_cast<std::uint64_t>(i) * 64, 64});
    }
  }
  std::uint64_t prev = UINT64_MAX;
  for (std::size_t cap : {16u << 10, 64u << 10, 256u << 10, 1u << 20}) {
    // Fully-associative LRU (ways = lines) has the inclusion property.
    const int ways = static_cast<int>(cap / 64);
    gpusim::CacheSim cache(cap, 64, ways, gpusim::CacheSim::Replacement::kLru);
    for (const auto& [a, l] : trace) cache.access(a, l, false);
    EXPECT_LE(cache.stats().hbm_read_bytes, prev) << "capacity " << cap;
    prev = cache.stats().hbm_read_bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzz, ::testing::Values(3u, 13u, 31u));

// ---- forcing-spec parser fuzz -----------------------------------------
// Random byte soup and random mutations of valid specs: the parser must
// either return a working Forcing or throw mali::Error — never crash,
// never accept a spec whose normalized form fails to re-parse.

class ForcingFuzz : public ::testing::TestWithParam<unsigned> {};

// Bitwise parameter equality across a spec() -> parse round trip: every
// numeric field of the reconstructed forcing carries the exact bit pattern
// of the original (the shortest-round-trip formatter guarantees it).
void expect_forcing_params_bitwise(const mali::timestepping::Forcing& a,
                                   const mali::timestepping::Forcing& b,
                                   const std::string& spec) {
  using namespace mali::timestepping;
  const auto bits = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  if (const auto* ca = dynamic_cast<const ConstantForcing*>(&a)) {
    const auto* cb = dynamic_cast<const ConstantForcing*>(&b);
    ASSERT_NE(cb, nullptr) << "spec '" << spec << "'";
    EXPECT_EQ(bits(ca->offset()), bits(cb->offset())) << "spec '" << spec << "'";
  } else if (const auto* ra = dynamic_cast<const AnomalyRampForcing*>(&a)) {
    const auto* rb = dynamic_cast<const AnomalyRampForcing*>(&b);
    ASSERT_NE(rb, nullptr) << "spec '" << spec << "'";
    EXPECT_EQ(bits(ra->anomaly()), bits(rb->anomaly())) << spec;
    EXPECT_EQ(bits(ra->start()), bits(rb->start())) << spec;
    EXPECT_EQ(bits(ra->end()), bits(rb->end())) << spec;
  } else if (const auto* ya = dynamic_cast<const YearlyCycleForcing*>(&a)) {
    const auto* yb = dynamic_cast<const YearlyCycleForcing*>(&b);
    ASSERT_NE(yb, nullptr) << "spec '" << spec << "'";
    EXPECT_EQ(bits(ya->amplitude()), bits(yb->amplitude())) << spec;
    EXPECT_EQ(bits(ya->period()), bits(yb->period())) << spec;
    EXPECT_EQ(bits(ya->phase()), bits(yb->phase())) << spec;
  } else {
    FAIL() << "unknown forcing type for spec '" << spec << "'";
  }
}

TEST_P(ForcingFuzz, RandomSpecsNeverCrashAndRoundTripWhenAccepted) {
  std::mt19937 rng(GetParam());
  const mali::mesh::IceGeometry geom;
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789=,.:+-eE ";
  std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);
  std::uniform_int_distribution<int> len(0, 40);
  const char* stems[] = {"", "constant", "ramp", "cycle", "constant:",
                         "ramp:anomaly=1", "cycle:amplitude=1,period=2"};
  std::uniform_int_distribution<std::size_t> stem(0, std::size(stems) - 1);

  for (int it = 0; it < 500; ++it) {
    std::string spec = stems[stem(rng)];
    const int n = len(rng);
    for (int k = 0; k < n; ++k) spec.push_back(alphabet[pick(rng)]);
    try {
      const auto f = mali::timestepping::make_forcing(spec, geom);
      // Accepted: smb must be finite and the normalized spec re-parses to
      // an identical normalized spec.
      const double s = f->smb(1.0e5, -2.0e5, 3.5);
      EXPECT_TRUE(std::isfinite(s)) << "spec '" << spec << "'";
      const auto g = mali::timestepping::make_forcing(f->spec(), geom);
      EXPECT_EQ(g->spec(), f->spec()) << "spec '" << spec << "'";
      expect_forcing_params_bitwise(*f, *g, spec);
    } catch (const mali::Error&) {
      // Rejected with the typed error: the only acceptable failure mode.
    }
  }
}

TEST_P(ForcingFuzz, RandomParametersRoundTripBitwise) {
  // Forcings built from random double bit patterns (finite ones) must
  // survive parse(f.spec()) with every parameter bit-for-bit intact —
  // the stronger guarantee behind the spec-string equality above.
  std::mt19937_64 rng(GetParam() * 2654435761u + 1);
  const mali::mesh::IceGeometry geom;
  std::uniform_int_distribution<int> kind(0, 2);
  const auto rand_double = [&rng]() {
    for (;;) {
      const std::uint64_t u = rng();
      double v;
      std::memcpy(&v, &u, sizeof v);
      if (std::isfinite(v)) return v;
    }
  };
  for (int it = 0; it < 200; ++it) {
    std::string spec;
    switch (kind(rng)) {
      case 0:
        spec = "constant:offset=" + mali::util::format_double(rand_double());
        break;
      case 1:
        spec = "ramp:anomaly=" + mali::util::format_double(rand_double()) +
               ",start=" + mali::util::format_double(rand_double()) +
               ",end=" + mali::util::format_double(rand_double());
        break;
      default:
        spec = "cycle:amplitude=" + mali::util::format_double(rand_double()) +
               ",period=" +
               mali::util::format_double(std::fabs(rand_double()) + 1.0) +
               ",phase=" + mali::util::format_double(rand_double());
    }
    std::unique_ptr<mali::timestepping::Forcing> f;
    try {
      f = mali::timestepping::make_forcing(spec, geom);
    } catch (const mali::Error&) {
      continue;  // out-of-domain parameter (e.g. non-positive period)
    }
    const auto g = mali::timestepping::make_forcing(f->spec(), geom);
    EXPECT_EQ(g->spec(), f->spec()) << "spec '" << spec << "'";
    expect_forcing_params_bitwise(*f, *g, spec);
  }
}

TEST_P(ForcingFuzz, FormatDoubleRoundTripsRandomBitPatterns) {
  // The shortest-round-trip formatter must reproduce ANY finite double
  // bit-for-bit through strtod, including subnormals and -0.0.
  std::mt19937_64 rng(GetParam() * 0x9E3779B97F4A7C15ull + 3);
  for (int it = 0; it < 5000; ++it) {
    const std::uint64_t u = rng();
    double v;
    std::memcpy(&v, &u, sizeof v);
    if (!std::isfinite(v)) continue;
    const std::string s = mali::util::format_double(v);
    const double back = std::strtod(s.c_str(), nullptr);
    std::uint64_t ub;
    std::memcpy(&ub, &back, sizeof ub);
    EXPECT_EQ(u, ub) << "v=" << v << " formatted '" << s << "'";
  }
  // The signed-zero pair, explicitly.
  EXPECT_EQ(mali::util::format_double(0.0), "0");
  EXPECT_EQ(mali::util::format_double(-0.0), "-0");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForcingFuzz,
                         ::testing::Values(5u, 17u, 29u, 41u));

// ---- SIMD element batching on random perturbed hex geometry ----
//
// The batched fused kernels run the *same* lane-wise arithmetic at every
// width, so widths 2/4/8 (including ragged tails with dead lanes) must match
// the width-1 instantiation to <= 1e-14 per dof on arbitrary well-formed
// inputs — random nodal velocities, random Glen parameters, randomly
// perturbed element geometry, thermal and isothermal viscosity.

namespace simd_fuzz {

constexpr std::size_t kNodes = 8;
constexpr std::size_t kQPs = 8;

struct ChainData {
  std::size_t n_cells = 0;
  pk::View<double, 3> UNodal;    // (Cp, N, 2)
  pk::View<double, 3> coords;    // (Cp, N, 3)
  pk::View<double, 3> ref_grad;  // (Q, N, 3)
  pk::View<double, 2> ref_val;   // (Q, N)
  pk::View<double, 1> qp_weight; // (Q)
  pk::View<double, 3> force;     // (Cp, Q, 2)
  pk::View<double, 2> flow_factor;  // (Cp, Q) only when thermal
  double glen_A = 1.0e-16;
  double glen_n = 3.0;
};

/// Random cells: a translated, half-scaled reference cube per cell with a
/// small per-node perturbation (|delta| <= 0.08 keeps det J positive), plus
/// random velocities / forces / Glen parameters.
inline ChainData make_chain_data(std::mt19937_64& rng, std::size_t n_cells,
                                 bool thermal) {
  ChainData d;
  d.n_cells = n_cells;
  const std::size_t cp = fem::padded_cells(n_cells);
  d.UNodal = pk::View<double, 3>("fuzz_UNodal", cp, kNodes, 2);
  d.coords = pk::View<double, 3>("fuzz_coords", cp, kNodes, 3);
  d.ref_grad = pk::View<double, 3>("fuzz_ref_grad", kQPs, kNodes, 3);
  d.ref_val = pk::View<double, 2>("fuzz_ref_val", kQPs, kNodes);
  d.qp_weight = pk::View<double, 1>("fuzz_qp_weight", kQPs);
  d.force = pk::View<double, 3>("fuzz_force", cp, kQPs, 2);
  if (thermal) {
    d.flow_factor = pk::View<double, 2>("fuzz_flow_factor", cp, kQPs);
  }

  const auto qps = fem::gauss_hex(2);
  for (std::size_t qp = 0; qp < kQPs; ++qp) {
    d.qp_weight(qp) = qps[qp].weight;
    for (std::size_t k = 0; k < kNodes; ++k) {
      const auto g = fem::Hex8Basis::gradient(static_cast<int>(k), qps[qp].xi,
                                              qps[qp].eta, qps[qp].zeta);
      for (int j = 0; j < 3; ++j) d.ref_grad(qp, k, j) = g[j];
      d.ref_val(qp, k) = fem::Hex8Basis::value(static_cast<int>(k), qps[qp].xi,
                                               qps[qp].eta, qps[qp].zeta);
    }
  }

  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_real_distribution<double> log_a(-17.0, -16.0);
  std::uniform_real_distribution<double> exp_n(2.5, 4.0);
  d.glen_A = std::pow(10.0, log_a(rng));
  d.glen_n = exp_n(rng);
  for (std::size_t c = 0; c < cp; ++c) {
    const std::size_t src = std::min(c, n_cells - 1);  // ghost rows replicate
    for (std::size_t k = 0; k < kNodes; ++k) {
      const auto ref = fem::Hex8Basis::node_coord(static_cast<int>(k));
      if (c < n_cells) {
        d.coords(c, k, 0) = 1.25 * static_cast<double>(c) + 0.5 * ref[0] +
                            0.08 * unit(rng);
        d.coords(c, k, 1) = 0.5 * ref[1] + 0.08 * unit(rng);
        d.coords(c, k, 2) = 0.5 * ref[2] + 0.08 * unit(rng);
        d.UNodal(c, k, 0) = 100.0 * unit(rng);
        d.UNodal(c, k, 1) = 100.0 * unit(rng);
      } else {
        for (int j = 0; j < 3; ++j) d.coords(c, k, j) = d.coords(src, k, j);
        for (int v = 0; v < 2; ++v) d.UNodal(c, k, v) = d.UNodal(src, k, v);
      }
    }
    for (std::size_t qp = 0; qp < kQPs; ++qp) {
      if (c < n_cells) {
        d.force(c, qp, 0) = 1.0e3 * unit(rng);
        d.force(c, qp, 1) = 1.0e3 * unit(rng);
        if (thermal) {
          d.flow_factor(c, qp) = 1.0e-17 + 1.0e-16 * std::fabs(unit(rng));
        }
      } else {
        d.force(c, qp, 0) = d.force(src, qp, 0);
        d.force(c, qp, 1) = d.force(src, qp, 1);
        if (thermal) d.flow_factor(c, qp) = d.flow_factor(src, qp);
      }
    }
  }
  return d;
}

template <int W>
pk::View<double, 3> run_chain(const ChainData& d) {
  pk::View<double, 3> out("fuzz_res", fem::padded_cells(d.n_cells), kNodes, 2);
  physics::FusedStokesChainBatched<W> chain;
  chain.UNodal = d.UNodal;
  chain.coords = d.coords;
  chain.ref_grad = d.ref_grad;
  chain.ref_val = d.ref_val;
  chain.qp_weight = d.qp_weight;
  chain.force_passive = d.force;
  chain.flow_factor = d.flow_factor;
  chain.Residual = out;
  chain.glen_A = d.glen_A;
  chain.glen_n = d.glen_n;
  chain.numNodes = kNodes;
  chain.numQPs = kQPs;
  chain.prepare();
  // Exact-n dispatch: widths that do not divide n_cells exercise the
  // masked-tail path (dead lanes compute on zeros, stores are masked).
  pk::parallel_for("fuzz_chain",
                   pk::SimdRangePolicy<W, pk::Serial>(d.n_cells), chain);
  return out;
}

template <int W>
pk::View<double, 3> run_tangent(const ChainData& d, const pk::View<double, 1>& u,
                                const pk::View<double, 1>& x,
                                const pk::View<std::size_t, 2>& cell_nodes) {
  pk::View<double, 3> out("fuzz_tan", fem::padded_cells(d.n_cells), kNodes, 2);
  const int fields = d.flow_factor.allocated()
                         ? physics::kTangentFieldsThermal
                         : physics::kTangentFields;
  const std::size_t packs = (d.n_cells + W - 1) / W;
  const pk::View<double, 1> qp_data(
      "fuzz_qp_data", packs * W * kQPs * static_cast<std::size_t>(fields));

  physics::StokesFOTangentLinearize<W> lin;
  lin.cell_nodes = cell_nodes;
  lin.coords = d.coords;
  lin.flow_factor = d.flow_factor;
  lin.U = u;
  lin.ref_grad = d.ref_grad;
  lin.qp_weight = d.qp_weight;
  lin.qp_data = qp_data;
  lin.glen_A = d.glen_A;
  lin.glen_n = d.glen_n;
  lin.numNodes = static_cast<int>(kNodes);
  lin.numQPs = static_cast<int>(kQPs);
  lin.prepare();

  physics::StokesFOTangentApply<W> tan;
  tan.cell_nodes = cell_nodes;
  tan.X = x;
  tan.ref_grad = d.ref_grad;
  tan.qp_data = qp_data;
  tan.Tangent = out;
  tan.thermal = d.flow_factor.allocated();
  tan.coeff = lin.coeff();
  tan.numNodes = static_cast<int>(kNodes);
  tan.numQPs = static_cast<int>(kQPs);
  // Exact-n dispatch, as for the chain: ragged tails on both kernels.
  pk::parallel_for("fuzz_linearize",
                   pk::SimdRangePolicy<W, pk::Serial>(d.n_cells), lin);
  pk::parallel_for("fuzz_tangent",
                   pk::SimdRangePolicy<W, pk::Serial>(d.n_cells), tan);
  return out;
}

inline void expect_match(const pk::View<double, 3>& ref,
                         const pk::View<double, 3>& got, std::size_t n_cells,
                         const char* what) {
  for (std::size_t c = 0; c < n_cells; ++c) {
    for (std::size_t k = 0; k < kNodes; ++k) {
      for (int v = 0; v < 2; ++v) {
        const double r = ref(c, k, v);
        const double g = got(c, k, v);
        const double tol = 1.0e-14 * std::max(1.0, std::fabs(r));
        EXPECT_NEAR(r, g, tol)
            << what << " cell " << c << " node " << k << " comp " << v;
      }
    }
  }
}

}  // namespace simd_fuzz

class SimdFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(SimdFuzz, BatchedResidualMatchesWidthOneOnRandomHexes) {
  std::mt19937_64 rng(GetParam() * 0x9E3779B97F4A7C15ull + 11);
  // Cell counts chosen so every width sees full batches AND ragged tails.
  for (const std::size_t n_cells : {3ul, 8ul, 11ul, 17ul}) {
    for (const bool thermal : {false, true}) {
      const auto d = simd_fuzz::make_chain_data(rng, n_cells, thermal);
      const auto ref = simd_fuzz::run_chain<1>(d);
      simd_fuzz::expect_match(ref, simd_fuzz::run_chain<2>(d), n_cells,
                              thermal ? "resid W=2 thermal" : "resid W=2");
      simd_fuzz::expect_match(ref, simd_fuzz::run_chain<4>(d), n_cells,
                              thermal ? "resid W=4 thermal" : "resid W=4");
      simd_fuzz::expect_match(ref, simd_fuzz::run_chain<8>(d), n_cells,
                              thermal ? "resid W=8 thermal" : "resid W=8");
    }
  }
}

TEST_P(SimdFuzz, BatchedTangentMatchesWidthOneOnRandomHexes) {
  std::mt19937_64 rng(GetParam() * 2654435761u + 7);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (const std::size_t n_cells : {5ul, 13ul}) {
    for (const bool thermal : {false, true}) {
      const auto d = simd_fuzz::make_chain_data(rng, n_cells, thermal);
      // Disjoint connectivity: cell c owns nodes [8c, 8c+8), so the global
      // state/direction vectors are a straight reshape of the cell data.
      const std::size_t cp = fem::padded_cells(n_cells);
      pk::View<std::size_t, 2> cell_nodes("fuzz_cell_nodes", cp,
                                          simd_fuzz::kNodes);
      pk::View<double, 1> u("fuzz_u", 2 * n_cells * simd_fuzz::kNodes);
      pk::View<double, 1> x("fuzz_x", 2 * n_cells * simd_fuzz::kNodes);
      for (std::size_t c = 0; c < cp; ++c) {
        const std::size_t src = std::min(c, n_cells - 1);
        for (std::size_t k = 0; k < simd_fuzz::kNodes; ++k) {
          cell_nodes(c, k) = src * simd_fuzz::kNodes + k;
        }
      }
      for (std::size_t i = 0; i < u.extent(0); ++i) {
        u(i) = 100.0 * unit(rng);
        x(i) = unit(rng);
      }
      const auto ref = simd_fuzz::run_tangent<1>(d, u, x, cell_nodes);
      simd_fuzz::expect_match(ref,
                              simd_fuzz::run_tangent<2>(d, u, x, cell_nodes),
                              n_cells, "tangent W=2");
      simd_fuzz::expect_match(ref,
                              simd_fuzz::run_tangent<4>(d, u, x, cell_nodes),
                              n_cells, "tangent W=4");
      simd_fuzz::expect_match(ref,
                              simd_fuzz::run_tangent<8>(d, u, x, cell_nodes),
                              n_cells, "tangent W=8");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdFuzz,
                         ::testing::Values(3u, 19u, 31u, 53u));
