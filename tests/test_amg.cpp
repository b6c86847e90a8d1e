// Semicoarsening AMG tests: hierarchy structure on extruded graphs,
// Galerkin coarse-operator properties, and V-cycle/GMRES convergence on an
// anisotropic model problem (the regime MDSC-AMG targets); the cached
// Galerkin plan against a hash-map product on the FO Stokes Jacobians; and
// the colored column-line smoother against a serial reference sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <random>
#include <tuple>
#include <unordered_map>

#include "linalg/dense.hpp"
#include "linalg/gmres.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "util/hash.hpp"

using namespace mali::linalg;
using mali::physics::StokesFOConfig;
using mali::physics::StokesFOProblem;

namespace {

/// Anisotropic 3D Laplacian on an (nx x ny x nz) extruded grid with one dof
/// per node (dofs_per_node = 1) and strong vertical coupling (epsv >> 1
/// mimics thin ice layers).  Node id = column * nz + level.
struct ExtrudedProblem {
  CrsMatrix A;
  ExtrusionInfo info;
};

ExtrudedProblem make_extruded_laplacian(std::size_t nx, std::size_t ny,
                                        std::size_t nz, double epsv) {
  const std::size_t n_cols = nx * ny;
  const std::size_t n = n_cols * nz;
  auto node = [nz](std::size_t col, std::size_t lev) { return col * nz + lev; };
  auto col_id = [nx](std::size_t i, std::size_t j) { return j * nx + i; };

  std::vector<std::vector<std::pair<std::size_t, double>>> rows(n);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      for (std::size_t k = 0; k < nz; ++k) {
        const std::size_t r = node(col_id(i, j), k);
        double diag = 0.0;
        auto link = [&](std::size_t c, double w) {
          rows[r].push_back({c, -w});
          diag += w;
        };
        if (i > 0) link(node(col_id(i - 1, j), k), 1.0);
        if (i + 1 < nx) link(node(col_id(i + 1, j), k), 1.0);
        if (j > 0) link(node(col_id(i, j - 1), k), 1.0);
        if (j + 1 < ny) link(node(col_id(i, j + 1), k), 1.0);
        if (k > 0) link(node(col_id(i, j), k - 1), epsv);
        if (k + 1 < nz) link(node(col_id(i, j), k + 1), epsv);
        rows[r].push_back({r, diag + 0.05});  // slight shift: nonsingular
      }
    }
  }
  std::vector<std::size_t> rp{0}, cols;
  std::vector<double> vals;
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    for (auto& [c, v] : row) {
      cols.push_back(c);
      vals.push_back(v);
    }
    rp.push_back(cols.size());
  }
  CrsMatrix A(rp, cols);
  for (std::size_t r = 0, k = 0; r < n; ++r) {
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p, ++k) {
      A.add(r, cols[p], vals[k]);
    }
  }

  ExtrusionInfo info;
  info.n_nodes = n;
  info.levels = nz;
  info.dofs_per_node = 1;
  info.dx = 1.0;
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      info.column_x.push_back(static_cast<double>(i));
      info.column_y.push_back(static_cast<double>(j));
    }
  }
  return {std::move(A), std::move(info)};
}

std::vector<double> random_vec(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::uint64_t digest(const std::vector<double>& v) {
  return mali::util::fnv1a64(v.data(), v.size() * sizeof(double));
}

/// Reference Galerkin product A_c = P^T A P for the piecewise-constant P:
/// each coarse row accumulates in a hash map, fine rows ascending and each
/// row's nonzeros in order — the product the cached plan must reproduce
/// bit for bit.
CrsMatrix hash_map_galerkin(const CrsMatrix& A,
                            const std::vector<std::size_t>& agg,
                            std::size_t n_coarse) {
  const auto& rp = A.row_ptr();
  const auto& cs = A.cols();
  const auto& vs = A.values();
  std::vector<std::unordered_map<std::size_t, double>> rows(n_coarse);
  for (std::size_t i = 0; i < A.n_rows(); ++i) {
    auto& row = rows[agg[i]];
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) row[agg[cs[k]]] += vs[k];
  }
  std::vector<std::size_t> crp(n_coarse + 1, 0);
  for (std::size_t I = 0; I < n_coarse; ++I) {
    crp[I + 1] = crp[I] + rows[I].size();
  }
  std::vector<std::size_t> ccols(crp.back());
  for (std::size_t I = 0; I < n_coarse; ++I) {
    std::size_t p = crp[I];
    for (const auto& [J, v] : rows[I]) ccols[p++] = J;
    std::sort(ccols.begin() + static_cast<std::ptrdiff_t>(crp[I]),
              ccols.begin() + static_cast<std::ptrdiff_t>(crp[I + 1]));
  }
  CrsMatrix Ac(std::move(crp), std::move(ccols));
  for (std::size_t I = 0; I < n_coarse; ++I) {
    for (const auto& [J, v] : rows[I]) Ac.add(I, J, v);
  }
  return Ac;
}

/// Every coarse level of `amg` equals the hash-map product of the level
/// above it: same pattern, same value bits.
void expect_plan_matches_hash_map(const SemicoarseningAmg& amg) {
  for (std::size_t l = 0; l + 1 < amg.n_levels(); ++l) {
    const CrsMatrix ref =
        hash_map_galerkin(amg.level_matrix(l), amg.level_aggregation(l),
                          amg.level_dofs(l + 1));
    const CrsMatrix& got = amg.level_matrix(l + 1);
    EXPECT_EQ(got.row_ptr(), ref.row_ptr()) << "level " << l + 1;
    EXPECT_EQ(got.cols(), ref.cols()) << "level " << l + 1;
    EXPECT_TRUE(bitwise_equal(got.values(), ref.values()))
        << "level " << l + 1;
  }
}

/// Two compute() calls on one graph with different values (the Jacobian
/// at the initial guess, then a perturbed one at a shifted guess); the
/// coarse operators must match the hash-map product after each.
void check_plan_on_problem(const StokesFOConfig& pcfg, AmgConfig acfg) {
  StokesFOProblem problem(pcfg);
  SemicoarseningAmg amg(problem.extrusion_info(), acfg);
  auto U = problem.analytic_initial_guess();
  std::vector<double> F;
  auto A = problem.create_matrix();
  problem.residual_and_jacobian(U, F, A);
  amg.compute(A);
  ASSERT_GT(amg.n_levels(), 2u);
  expect_plan_matches_hash_map(amg);

  const std::vector<double> first = amg.level_matrix(1).values();
  // The MMS Jacobian does not move with U, so perturb the values as well.
  for (auto& u : U) u = 1.7 * u + 3.0;
  problem.residual_and_jacobian(U, F, A);
  auto& vs = A.values();
  for (std::size_t k = 0; k < vs.size(); ++k) {
    vs[k] *= 1.0 + 0.25 * std::sin(0.37 * static_cast<double>(k));
  }
  amg.compute(A);
  EXPECT_EQ(amg.hierarchy_builds(), 1u);
  EXPECT_EQ(amg.structure_reuses(), 1u);
  EXPECT_FALSE(bitwise_equal(first, amg.level_matrix(1).values()));
  expect_plan_matches_hash_map(amg);

  // The replayed hierarchy (refactored smoothers included) applies like a
  // fresh build on the same values.
  SemicoarseningAmg fresh(problem.extrusion_info(), acfg);
  fresh.compute(A);
  const auto r = random_vec(A.n_rows(), 9);
  std::vector<double> z, z_fresh;
  amg.apply(r, z);
  fresh.apply(r, z_fresh);
  EXPECT_TRUE(bitwise_equal(z, z_fresh));
}

/// 2x2 lattice parity color (0..3) of every column of `info`.
std::vector<std::uint8_t> lattice_colors(const ExtrusionInfo& info) {
  const double xmin =
      *std::min_element(info.column_x.begin(), info.column_x.end());
  const double ymin =
      *std::min_element(info.column_y.begin(), info.column_y.end());
  std::vector<std::uint8_t> color(info.column_x.size());
  for (std::size_t c = 0; c < color.size(); ++c) {
    const auto i = std::llround((info.column_x[c] - xmin) / info.dx);
    const auto j = std::llround((info.column_y[c] - ymin) / info.dx);
    color[c] = static_cast<std::uint8_t>((i & 1) | (j & 1) << 1);
  }
  return color;
}

/// Reference column-line sweep: dense LU without pivoting of each
/// column's in-column block, colors 0 -> 3 then 3 -> 0, and within each
/// color the columns in REVERSE order — so matching it bitwise shows the
/// result does not depend on the order (or thread) a color's columns run.
std::vector<double> serial_column_line_sweep(
    const CrsMatrix& A, std::size_t m,
    const std::vector<std::uint8_t>& color, const std::vector<double>& r) {
  const std::size_t n_cols = color.size();
  const auto& rp = A.row_ptr();
  const auto& cs = A.cols();
  const auto& vs = A.values();
  std::vector<std::vector<double>> lu(n_cols, std::vector<double>(m * m));
  for (std::size_t c = 0; c < n_cols; ++c) {
    auto& a = lu[c];  // row-major
    for (std::size_t t = 0; t < m; ++t) {
      const std::size_t i = c * m + t;
      for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
        if (cs[k] / m == c) a[t * m + cs[k] - c * m] = vs[k];
      }
    }
    for (std::size_t t = 0; t < m; ++t) {
      for (std::size_t i = t + 1; i < m; ++i) {
        const double l = a[i * m + t] / a[t * m + t];
        a[i * m + t] = l;
        for (std::size_t s = t + 1; s < m; ++s) {
          a[i * m + s] -= l * a[t * m + s];
        }
      }
    }
  }
  std::vector<double> z(A.n_rows(), 0.0);
  auto relax = [&](int col) {
    for (std::size_t c = n_cols; c-- > 0;) {
      if (color[c] != col) continue;
      std::vector<double> x(m);
      for (std::size_t t = 0; t < m; ++t) {
        const std::size_t i = c * m + t;
        double acc = r[i];
        for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
          if (cs[k] / m != c) acc -= vs[k] * z[cs[k]];
        }
        x[t] = acc;
      }
      const auto& a = lu[c];
      for (std::size_t t = 1; t < m; ++t) {
        double acc = x[t];
        for (std::size_t s = 0; s < t; ++s) acc -= a[t * m + s] * x[s];
        x[t] = acc;
      }
      for (std::size_t t = m; t-- > 0;) {
        double acc = x[t];
        for (std::size_t s = t + 1; s < m; ++s) acc -= a[t * m + s] * x[s];
        x[t] = acc / a[t * m + t];
      }
      for (std::size_t t = 0; t < m; ++t) z[c * m + t] = x[t];
    }
  };
  for (int col = 0; col < 4; ++col) relax(col);
  for (int col = 3; col >= 0; --col) relax(col);
  return z;
}

/// A with extra entries (row, col, value) spliced into its graph.
CrsMatrix with_couplings(
    const CrsMatrix& A,
    const std::vector<std::tuple<std::size_t, std::size_t, double>>& extra) {
  std::vector<std::size_t> rp{0}, cols;
  std::vector<double> vals;
  for (std::size_t r = 0; r < A.n_rows(); ++r) {
    std::vector<std::pair<std::size_t, double>> row;
    for (std::size_t k = A.row_ptr()[r]; k < A.row_ptr()[r + 1]; ++k) {
      row.emplace_back(A.cols()[k], A.values()[k]);
    }
    for (const auto& [i, j, v] : extra) {
      if (i == r) row.emplace_back(j, v);
    }
    std::sort(row.begin(), row.end());
    for (const auto& [c, v] : row) {
      cols.push_back(c);
      vals.push_back(v);
    }
    rp.push_back(cols.size());
  }
  CrsMatrix B(std::move(rp), std::move(cols));
  B.values() = std::move(vals);
  return B;
}

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const mali::Error& e) {
    return e.what();
  }
  return "";
}

double rel_residual(const CrsMatrix& A, const std::vector<double>& x,
                    const std::vector<double>& b) {
  std::vector<double> r;
  A.apply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return norm2(r) / norm2(b);
}

}  // namespace

TEST(SemicoarseningAmg, BuildsVerticalThenHorizontalHierarchy) {
  auto prob = make_extruded_laplacian(12, 12, 16, 100.0);
  AmgConfig cfg;
  cfg.coarse_max_dofs = 50;
  SemicoarseningAmg amg(prob.info, cfg);
  amg.compute(prob.A);
  // 16 vertical levels halve: 16->8->4->2->1 (4 vertical coarsenings), then
  // horizontal 2x2 phases.
  ASSERT_GE(amg.n_levels(), 5u);
  EXPECT_EQ(amg.level_dofs(0), 12u * 12u * 16u);
  EXPECT_EQ(amg.level_dofs(1), 12u * 12u * 8u);
  EXPECT_EQ(amg.level_dofs(2), 12u * 12u * 4u);
  EXPECT_EQ(amg.level_dofs(3), 12u * 12u * 2u);
  EXPECT_EQ(amg.level_dofs(4), 12u * 12u * 1u);
  if (amg.n_levels() > 5) {
    EXPECT_LT(amg.level_dofs(5), amg.level_dofs(4));
  }
}

TEST(SemicoarseningAmg, OddLevelCountRoundsUp) {
  auto prob = make_extruded_laplacian(6, 6, 5, 50.0);
  AmgConfig cfg;
  cfg.coarse_max_dofs = 20;
  SemicoarseningAmg amg(prob.info, cfg);
  amg.compute(prob.A);
  EXPECT_EQ(amg.level_dofs(1), 6u * 6u * 3u);  // ceil(5/2)
  EXPECT_EQ(amg.level_dofs(2), 6u * 6u * 2u);
}

TEST(SemicoarseningAmg, SingleApplicationReducesResidual) {
  auto prob = make_extruded_laplacian(10, 10, 8, 100.0);
  SemicoarseningAmg amg(prob.info, AmgConfig{});
  amg.compute(prob.A);
  const auto b = random_vec(prob.A.n_rows(), 5);
  std::vector<double> z;
  amg.apply(b, z);
  EXPECT_LT(rel_residual(prob.A, z, b), 0.5)
      << "one V-cycle should knock down most of the residual";
}

class AmgAnisotropy : public ::testing::TestWithParam<double> {};

TEST_P(AmgAnisotropy, GmresWithAmgConvergesFast) {
  const double epsv = GetParam();
  auto prob = make_extruded_laplacian(12, 12, 10, epsv);
  SemicoarseningAmg amg(prob.info, AmgConfig{});
  amg.compute(prob.A);
  const auto b = random_vec(prob.A.n_rows(), 17);
  std::vector<double> x;
  GmresConfig cfg;
  cfg.rel_tol = 1e-8;
  cfg.max_iters = 200;
  const auto r = Gmres(cfg).solve(prob.A, amg, b, x);
  EXPECT_TRUE(r.converged) << "epsv=" << epsv;
  EXPECT_LT(r.iterations, 60u) << "epsv=" << epsv;
  EXPECT_LT(rel_residual(prob.A, x, b), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Anisotropies, AmgAnisotropy,
                         ::testing::Values(1.0, 10.0, 100.0, 1000.0));

TEST(SemicoarseningAmg, BeatsJacobiPreconditioning) {
  auto prob = make_extruded_laplacian(14, 14, 12, 200.0);
  const auto b = random_vec(prob.A.n_rows(), 23);
  GmresConfig cfg;
  cfg.rel_tol = 1e-8;
  cfg.max_iters = 2000;
  cfg.restart = 300;

  JacobiPreconditioner jac;
  jac.compute(prob.A);
  std::vector<double> xj;
  const auto rj = Gmres(cfg).solve(prob.A, jac, b, xj);

  SemicoarseningAmg amg(prob.info, AmgConfig{});
  amg.compute(prob.A);
  std::vector<double> xa;
  const auto ra = Gmres(cfg).solve(prob.A, amg, b, xa);

  EXPECT_TRUE(ra.converged);
  EXPECT_LT(ra.iterations * 3, rj.iterations + 1)
      << "AMG should need far fewer iterations than Jacobi";
}

TEST(SemicoarseningAmg, TwoDofPerNodeBlocksStaySeparate) {
  // Same operator duplicated on two components; AMG must converge equally.
  auto scalar = make_extruded_laplacian(8, 8, 6, 80.0);
  const std::size_t n = scalar.A.n_rows();
  // Expand to 2 dofs/node with component-diagonal coupling.
  std::vector<std::size_t> rp{0}, cols;
  const auto& srp = scalar.A.row_ptr();
  const auto& scols = scalar.A.cols();
  const auto& svals = scalar.A.values();
  for (std::size_t r = 0; r < n; ++r) {
    for (int c = 0; c < 2; ++c) {
      for (std::size_t k = srp[r]; k < srp[r + 1]; ++k) {
        cols.push_back(2 * scols[k] + static_cast<std::size_t>(c));
      }
      // keep columns sorted: they are, since scols sorted and stride 2.
      rp.push_back(cols.size());
    }
  }
  CrsMatrix A2(rp, cols);
  for (std::size_t r = 0; r < n; ++r) {
    for (int c = 0; c < 2; ++c) {
      for (std::size_t k = srp[r]; k < srp[r + 1]; ++k) {
        A2.set(2 * r + static_cast<std::size_t>(c),
               2 * scols[k] + static_cast<std::size_t>(c), svals[k]);
      }
    }
  }
  ExtrusionInfo info = scalar.info;
  info.dofs_per_node = 2;
  SemicoarseningAmg amg(info, AmgConfig{});
  amg.compute(A2);
  const auto b = random_vec(A2.n_rows(), 31);
  std::vector<double> x;
  GmresConfig cfg;
  cfg.rel_tol = 1e-8;
  cfg.max_iters = 300;
  const auto r = Gmres(cfg).solve(A2, amg, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 80u);
}

TEST(SemicoarseningAmg, VCycleErrorPropagationContracts) {
  // Power iteration on the error operator E = I - M^{-1} A: the dominant
  // convergence factor of the stand-alone V-cycle must be well below 1 on
  // the anisotropic model problem (semicoarsening matched to the strong
  // vertical coupling).
  auto prob = make_extruded_laplacian(10, 10, 12, 200.0);
  SemicoarseningAmg amg(prob.info, AmgConfig{});
  amg.compute(prob.A);
  const std::size_t n = prob.A.n_rows();
  auto e = random_vec(n, 77);
  double rho = 1.0;
  std::vector<double> Ae, z;
  for (int it = 0; it < 25; ++it) {
    prob.A.apply(e, Ae);
    amg.apply(Ae, z);
    double norm_new = 0.0, norm_old = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      norm_old += e[i] * e[i];
      e[i] -= z[i];
      norm_new += e[i] * e[i];
    }
    rho = std::sqrt(norm_new / norm_old);
    // Renormalize to avoid underflow.
    const double s = 1.0 / std::sqrt(norm_new);
    for (auto& v : e) v *= s;
  }
  EXPECT_LT(rho, 0.7) << "V-cycle convergence factor too weak";
  EXPECT_GT(rho, 0.0);
}

class AmgTwoLevelCycle : public ::testing::TestWithParam<int> {};

TEST_P(AmgTwoLevelCycle, IsTheHandBuiltComposition) {
  // Pre-smooth, restrict the residual, solve the coarse level, prolong,
  // post-smooth: with pre_sweeps column-line sweeps in both smoothers.
  auto prob = make_extruded_laplacian(6, 6, 8, 100.0);
  const int sweeps = GetParam();
  AmgConfig cfg{.max_levels = 2, .coarse_max_dofs = 200, .pre_sweeps = sweeps};
  SemicoarseningAmg amg(prob.info, cfg);
  amg.compute(prob.A);
  ASSERT_EQ(amg.n_levels(), 2u);
  ASSERT_LE(amg.level_dofs(1), cfg.coarse_max_dofs);  // direct coarse solve

  const CrsMatrix& A = prob.A;
  const std::size_t n = A.n_rows();
  ColumnLineSmoother smoother(prob.info.levels, lattice_colors(prob.info), 0,
                              sweeps);
  smoother.compute(A);
  const CrsMatrix& Ac = amg.level_matrix(1);
  DenseMatrix dense(Ac.n_rows(), Ac.n_rows());
  for (std::size_t i = 0; i < Ac.n_rows(); ++i) {
    for (std::size_t k = Ac.row_ptr()[i]; k < Ac.row_ptr()[i + 1]; ++k) {
      dense(i, Ac.cols()[k]) = Ac.values()[k];
    }
  }
  const DenseLu coarse(std::move(dense));
  const auto& agg = amg.level_aggregation(0);
  const auto residual = [&](const std::vector<double>& b,
                            const std::vector<double>& x) {
    std::vector<double> Ax;
    A.apply(x, Ax);
    for (std::size_t i = 0; i < n; ++i) Ax[i] = b[i] - Ax[i];
    return Ax;
  };

  const auto r = random_vec(n, 29);
  std::vector<double> z, dz;
  smoother.apply(r, z);
  const auto res = residual(r, z);
  std::vector<double> zc(Ac.n_rows(), 0.0);
  for (std::size_t i = 0; i < n; ++i) zc[agg[i]] += res[i];
  coarse.solve(zc);
  for (std::size_t i = 0; i < n; ++i) z[i] += zc[agg[i]];
  smoother.apply(residual(r, z), dz);
  for (std::size_t i = 0; i < n; ++i) z[i] += dz[i];

  std::vector<double> z_amg;
  amg.apply(r, z_amg);
  EXPECT_TRUE(bitwise_equal(z_amg, z));
}

INSTANTIATE_TEST_SUITE_P(Sweeps, AmgTwoLevelCycle, ::testing::Values(1, 2));

TEST(SemicoarseningAmg, ApplyBeforeComputeThrows) {
  auto prob = make_extruded_laplacian(4, 4, 4, 10.0);
  SemicoarseningAmg amg(prob.info, AmgConfig{});
  std::vector<double> z;
  EXPECT_THROW(amg.apply(random_vec(prob.A.n_rows(), 1), z), mali::Error);
}

// ---------------------------------------------------------------------------
// Cached Galerkin plan.
// ---------------------------------------------------------------------------

TEST(AmgGalerkinPlan, MatchesHashMapProductOnGlenDome) {
  StokesFOConfig pcfg;
  pcfg.dx_m = 64.0e3;
  pcfg.n_layers = 5;
  check_plan_on_problem(pcfg, AmgConfig{});
}

TEST(AmgGalerkinPlan, MatchesHashMapProductOnMmsJacobian) {
  StokesFOConfig pcfg;
  pcfg.dx_m = 100.0e3;
  pcfg.n_layers = 4;
  pcfg.mms.enabled = true;
  AmgConfig acfg;
  acfg.coarse_max_dofs = 100;  // coarsen all the way into the 2x2 phase
  check_plan_on_problem(pcfg, acfg);
}

TEST(AmgGalerkinPlan, ChangedFineGraphRebuildsThePlan) {
  // A compute() on a different graph of the same size must rebuild the
  // plan (not replay a stale one, not throw) and then match a fresh build.
  auto base = make_extruded_laplacian(10, 10, 8, 100.0);
  const CrsMatrix& A1 = base.A;
  // Same rows, one extra (tiny, symmetric) in-column coupling per column.
  const std::size_t nz = 8;
  std::vector<std::tuple<std::size_t, std::size_t, double>> extra;
  for (std::size_t r = 0; r < A1.n_rows(); ++r) {
    const std::size_t lev = r % nz;
    if (lev + 2 < nz) extra.emplace_back(r, r + 2, -0.5);
    if (lev >= 2) extra.emplace_back(r, r - 2, -0.5);
  }
  const CrsMatrix A2 = with_couplings(A1, extra);

  AmgConfig cfg;
  cfg.coarse_max_dofs = 50;
  SemicoarseningAmg amg(base.info, cfg);
  amg.compute(A1);
  EXPECT_NO_THROW(amg.compute(A2));
  EXPECT_EQ(amg.hierarchy_builds(), 2u);
  EXPECT_EQ(amg.structure_reuses(), 0u);
  expect_plan_matches_hash_map(amg);

  SemicoarseningAmg fresh(base.info, cfg);
  fresh.compute(A2);
  const auto r = random_vec(A2.n_rows(), 3);
  std::vector<double> z, z_fresh;
  amg.apply(r, z);
  fresh.apply(r, z_fresh);
  EXPECT_TRUE(bitwise_equal(z, z_fresh));
}

TEST(AmgGalerkinPlan, EqualGraphReplaysWhetherOrNotItsIdMatches) {
  // A copy shares the fine graph's id; a matrix built anew on an equal
  // graph (as each forecast solve's create_matrix() is) has another id.
  // Both must replay the hierarchy rather than rebuild it.
  auto base = make_extruded_laplacian(10, 10, 8, 100.0);
  AmgConfig cfg;
  cfg.coarse_max_dofs = 50;
  SemicoarseningAmg amg(base.info, cfg);
  amg.compute(base.A);

  const CrsMatrix copy = base.A;
  ASSERT_EQ(copy.graph_id(), base.A.graph_id());
  amg.compute(copy);
  CrsMatrix rebuilt(base.A.row_ptr(), base.A.cols());
  rebuilt.values() = base.A.values();
  ASSERT_NE(rebuilt.graph_id(), base.A.graph_id());
  amg.compute(rebuilt);
  EXPECT_EQ(amg.hierarchy_builds(), 1u);
  EXPECT_EQ(amg.structure_reuses(), 2u);
  expect_plan_matches_hash_map(amg);
}

TEST(SemicoarseningAmg, NonDirectCoarseLevelAppliesBitwiseAsBefore) {
  // max_levels stops the hierarchy above coarse_max_dofs, so the coarsest
  // level runs the SGS fallback (built once per compute()) under one
  // column-line smoothed level.  The apply output is pinned bitwise.
  auto prob = make_extruded_laplacian(12, 12, 16, 100.0);
  AmgConfig cfg{.max_levels = 2, .coarse_max_dofs = 500};
  SemicoarseningAmg amg(prob.info, cfg);
  amg.compute(prob.A);
  ASSERT_EQ(amg.n_levels(), 2u);
  ASSERT_GT(amg.level_dofs(1), cfg.coarse_max_dofs);
  const auto r = random_vec(prob.A.n_rows(), 41);
  std::vector<double> z;
  amg.apply(r, z);
  EXPECT_EQ(digest(z), 0x91ffc825ac2453f2ull) << std::hex << digest(z);
  // The fallback follows the values of the latest compute().
  std::vector<double> z_again;
  amg.compute(prob.A);
  amg.apply(r, z_again);
  EXPECT_TRUE(bitwise_equal(z, z_again));
}

// ---------------------------------------------------------------------------
// Colored column-line smoother.
// ---------------------------------------------------------------------------

TEST(ColumnLineSmoother, ApplyMatchesSerialReverseOrderSweep) {
  StokesFOConfig pcfg;
  pcfg.dx_m = 64.0e3;
  pcfg.n_layers = 5;
  StokesFOProblem problem(pcfg);
  const auto U = problem.analytic_initial_guess();
  std::vector<double> F;
  auto A = problem.create_matrix();
  problem.residual_and_jacobian(U, F, A);
  const ExtrusionInfo info = problem.extrusion_info();
  const std::size_t m =
      info.levels * static_cast<std::size_t>(info.dofs_per_node);
  const auto color = lattice_colors(info);

  ColumnLineSmoother line(m, color);
  line.compute(A);
  // Block-tridiagonal in 2x2 node blocks: dofs couple at most one node up
  // or down the column.
  EXPECT_EQ(line.bandwidth(), 2u * info.dofs_per_node - 1u);
  const auto r = random_vec(A.n_rows(), 13);
  std::vector<double> z;
  line.apply(r, z);
  EXPECT_TRUE(bitwise_equal(z, serial_column_line_sweep(A, m, color, r)));
}

TEST(ColumnLineSmoother, SameColorCouplingThrowsNamingTheLevel) {
  // Columns (0,0) and (2,0) share a color; a hand-added coupling between
  // them breaks the coloring the parallel sweep relies on.
  auto prob = make_extruded_laplacian(4, 4, 4, 50.0);
  const std::size_t far = 2 * 4;  // column 2 = lattice (2, 0), 4 levels
  const CrsMatrix A =
      with_couplings(prob.A, {{0, far, -0.1}, {far, 0, -0.1}});

  AmgConfig cfg;
  cfg.coarse_max_dofs = 8;
  SemicoarseningAmg amg(prob.info, cfg);
  const std::string msg = error_of([&] { amg.compute(A); });
  EXPECT_NE(msg.find("level 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("columns 0 and 2"), std::string::npos) << msg;
}

TEST(ColumnLineSmoother, SingularInColumnPivotThrows) {
  auto prob = make_extruded_laplacian(4, 4, 4, 50.0);
  prob.A.set(0, 0, 0.0);  // column 0's first pivot
  ColumnLineSmoother line(4, lattice_colors(prob.info));
  const std::string msg = error_of([&] { line.compute(prob.A); });
  EXPECT_NE(msg.find("singular in-column pivot"), std::string::npos) << msg;
}
