// SIMD element-batching battery (ctest -L simd): pk::simd pack semantics,
// the batched range policy, --simd parsing, batched == scalar equivalence
// for the fused residual chain and the matrix-free tangent (hex8 AND
// wedge6, every scatter mode, ragged tails), the pow-hoist bitwise pin,
// the kMaxNodes typed-error guards across the fused kernel family, and the
// workset basal-side-set validator.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "fem/cell_geometry.hpp"
#include "fem/prism_geometry.hpp"
#include "fem/wedge6.hpp"
#include "mesh/tri_grid.hpp"
#include "physics/eval_types.hpp"
#include "physics/fused_chain.hpp"
#include "physics/fused_chain_batched.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "physics/stokes_jacobian_apply.hpp"
#include "portability/common.hpp"
#include "portability/simd.hpp"

using namespace mali;
using physics::ScatterMode;
using physics::StokesFOConfig;
using physics::StokesFOProblem;

namespace {

/// Batched == scalar equivalence contract: <= 1e-14 per dof (relative,
/// floored at 1), the acceptance criterion of the SIMD PR.
constexpr double kDofTol = 1e-14;

void expect_dof_match(const std::vector<double>& ref,
                      const std::vector<double>& got, const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], kDofTol * std::max(1.0, std::abs(ref[i])))
        << what << " dof " << i;
  }
}

StokesFOConfig small_config(int simd_width, ScatterMode scatter,
                            std::size_t workset_size = 0) {
  StokesFOConfig cfg;
  cfg.dx_m = 250.0e3;
  cfg.n_layers = 4;
  cfg.simd_width = simd_width;
  cfg.scatter = scatter;
  cfg.workset_size = workset_size;
  return cfg;
}

std::vector<double> assemble_residual(const StokesFOConfig& cfg) {
  StokesFOProblem p(cfg);
  const auto U = p.analytic_initial_guess();
  std::vector<double> F;
  p.residual(U, F);
  return F;
}

/// Σ_e |F_e,dof| over the element residuals the engine left from the last
/// residual() call (one workset, so every cell is staged).
std::vector<double> element_abs_sum(const StokesFOProblem& p) {
  const auto& ws = p.workset();
  const auto& R = p.engine().element_residual();
  std::vector<double> sum(p.n_dofs(), 0.0);
  for (std::size_t c = 0; c < ws.n_cells; ++c) {
    for (int k = 0; k < ws.num_nodes; ++k) {
      for (int comp = 0; comp < 2; ++comp) {
        sum[2 * ws.cell_nodes(c, k) + static_cast<std::size_t>(comp)] +=
            std::abs(R(c, k, comp));
      }
    }
  }
  return sum;
}

}  // namespace

// ---------------------------------------------------------------------------
// pk::simd pack semantics
// ---------------------------------------------------------------------------

TEST(SimdPack, LoadStoreRoundTrip) {
  const double src[4] = {1.5, -2.25, 3.0, 0.125};
  const auto p = pk::simd<double, 4>::load(src);
  double dst[4] = {};
  p.store(dst);
  for (int l = 0; l < 4; ++l) EXPECT_EQ(dst[l], src[l]);
}

TEST(SimdPack, LoadNZeroFillsDeadLanes) {
  const double src[4] = {7.0, 8.0, 9.0, 10.0};
  const auto p = pk::simd<double, 4>::load_n(src, 2);
  EXPECT_EQ(p[0], 7.0);
  EXPECT_EQ(p[1], 8.0);
  EXPECT_EQ(p[2], 0.0);
  EXPECT_EQ(p[3], 0.0);
}

TEST(SimdPack, StoreNMasksDeadLanes) {
  const auto p = pk::simd<double, 4>::broadcast(5.0);
  double dst[4] = {-1.0, -1.0, -1.0, -1.0};
  p.store_n(dst, 3);
  EXPECT_EQ(dst[0], 5.0);
  EXPECT_EQ(dst[1], 5.0);
  EXPECT_EQ(dst[2], 5.0);
  EXPECT_EQ(dst[3], -1.0);  // untouched
}

TEST(SimdPack, ArithmeticMatchesScalarLanewise) {
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> dist(0.5, 2.0);
  double a[8], b[8], c[8];
  for (int l = 0; l < 8; ++l) {
    a[l] = dist(rng);
    b[l] = dist(rng);
    c[l] = dist(rng);
  }
  const auto pa = pk::simd<double, 8>::load(a);
  const auto pb = pk::simd<double, 8>::load(b);
  const auto pc = pk::simd<double, 8>::load(c);
  const auto sum = pa + pb;
  const auto dif = pa - pb;
  const auto prd = pa * pb;
  const auto quo = pa / pb;
  const auto neg = -pa;
  const auto sxl = 2.0 * pa;
  const auto sxr = pa * 2.0 + 1.0;
  const auto fmad = pk::fma(pa, pb, pc);
  for (int l = 0; l < 8; ++l) {
    EXPECT_EQ(sum[l], a[l] + b[l]);
    EXPECT_EQ(dif[l], a[l] - b[l]);
    EXPECT_EQ(prd[l], a[l] * b[l]);
    EXPECT_EQ(quo[l], a[l] / b[l]);
    EXPECT_EQ(neg[l], -a[l]);
    EXPECT_EQ(sxl[l], 2.0 * a[l]);
    EXPECT_EQ(sxr[l], a[l] * 2.0 + 1.0);
    EXPECT_EQ(fmad[l], a[l] * b[l] + c[l]);
  }
}

TEST(SimdPack, BlendSelectsByMask) {
  const auto a = pk::simd<double, 4>::broadcast(1.0);
  const auto b = pk::simd<double, 4>::broadcast(2.0);
  const auto m = pk::simd_mask<4>::first_n(2);
  const auto r = pk::blend(m, a, b);
  EXPECT_EQ(r[0], 1.0);
  EXPECT_EQ(r[1], 1.0);
  EXPECT_EQ(r[2], 2.0);
  EXPECT_EQ(r[3], 2.0);
}

TEST(SimdPack, LanePowAndSqrtMatchLibm) {
  const double src[4] = {0.25, 1.0, 2.0, 9.0};
  const auto p = pk::simd<double, 4>::load(src);
  const auto pw = pk::lane_pow(p, -1.0 / 3.0);
  const auto sq = pk::lane_sqrt(p);
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(pw[l], std::pow(src[l], -1.0 / 3.0));
    EXPECT_EQ(sq[l], std::sqrt(src[l]));
  }
}

TEST(SimdPack, WidthOneDegradesToScalar) {
  const double x = 3.75;
  auto p = pk::simd<double, 1>::load(&x);
  p = p * p + 1.0;
  EXPECT_EQ(p[0], x * x + 1.0);
}

TEST(SimdPack, WidthValidation) {
  EXPECT_TRUE(pk::simd_width_valid(1));
  EXPECT_TRUE(pk::simd_width_valid(2));
  EXPECT_TRUE(pk::simd_width_valid(4));
  EXPECT_TRUE(pk::simd_width_valid(8));
  EXPECT_FALSE(pk::simd_width_valid(0));
  EXPECT_FALSE(pk::simd_width_valid(3));
  EXPECT_FALSE(pk::simd_width_valid(16));
  EXPECT_TRUE(pk::simd_width_valid(pk::kSimdNativeWidth));
}

// ---------------------------------------------------------------------------
// SimdRangePolicy
// ---------------------------------------------------------------------------

TEST(SimdRangePolicy, BatchesCoverRaggedRangeExactlyOnce) {
  constexpr std::size_t n = 37;
  std::vector<int> touched(n, 0);
  pk::parallel_for("cover", pk::SimdRangePolicy<4, pk::Serial>(n),
                   [&](const pk::SimdBatch& b) {
                     EXPECT_EQ(b.width, 4);
                     for (int l = 0; l < b.n_valid; ++l) {
                       touched[b.begin + static_cast<std::size_t>(l)] += 1;
                     }
                     if (b.begin + 4 <= n) {
                       EXPECT_TRUE(b.full());
                     } else {
                       EXPECT_EQ(b.n_valid, static_cast<int>(n - b.begin));
                     }
                   });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(touched[i], 1) << i;
}

TEST(SimdRangePolicy, NumBatchesRoundsUp) {
  EXPECT_EQ((pk::SimdRangePolicy<4, pk::Serial>(0).num_batches()), 0u);
  EXPECT_EQ((pk::SimdRangePolicy<4, pk::Serial>(1).num_batches()), 1u);
  EXPECT_EQ((pk::SimdRangePolicy<4, pk::Serial>(4).num_batches()), 1u);
  EXPECT_EQ((pk::SimdRangePolicy<4, pk::Serial>(5).num_batches()), 2u);
  EXPECT_EQ((pk::SimdRangePolicy<8, pk::Serial>(37).num_batches()), 5u);
}

TEST(SimdRangePolicy, ThreadedDispatchCoversRange) {
  constexpr std::size_t n = 1003;
  std::vector<int> touched(n, 0);  // batches are disjoint: no data race
  pk::parallel_for("cover_mt", pk::SimdRangePolicy<4, pk::Threads>(n),
                   [&](const pk::SimdBatch& b) {
                     for (int l = 0; l < b.n_valid; ++l) {
                       touched[b.begin + static_cast<std::size_t>(l)] += 1;
                     }
                   });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(touched[i], 1) << i;
}

// ---------------------------------------------------------------------------
// --simd parsing
// ---------------------------------------------------------------------------

TEST(SimdWidthFromString, ParsesAllForms) {
  EXPECT_EQ(physics::simd_width_from_string("auto"), 0);
  EXPECT_EQ(physics::simd_width_from_string("off"), 1);
  EXPECT_EQ(physics::simd_width_from_string("1"), 1);
  EXPECT_EQ(physics::simd_width_from_string("2"), 2);
  EXPECT_EQ(physics::simd_width_from_string("4"), 4);
  EXPECT_EQ(physics::simd_width_from_string("8"), 8);
}

TEST(SimdWidthFromString, RejectsInvalidWidths) {
  EXPECT_THROW((void)physics::simd_width_from_string("3"), mali::Error);
  EXPECT_THROW((void)physics::simd_width_from_string("16"), mali::Error);
  EXPECT_THROW((void)physics::simd_width_from_string("fast"), mali::Error);
  EXPECT_THROW((void)physics::simd_width_from_string(""), mali::Error);
}

// ---------------------------------------------------------------------------
// Problem-level equivalence: batched residual/tangent vs the scalar path
// ---------------------------------------------------------------------------

class SimdResidualEquivalence
    : public ::testing::TestWithParam<std::tuple<int, ScatterMode>> {};

TEST_P(SimdResidualEquivalence, MatchesScalarPath) {
  const auto [width, scatter] = GetParam();
  StokesFOProblem ref_problem(small_config(1, scatter));
  StokesFOProblem got_problem(small_config(width, scatter));
  const auto U = ref_problem.analytic_initial_guess();
  std::vector<double> ref, got;
  ref_problem.residual(U, ref);
  got_problem.residual(U, got);
  if (scatter != ScatterMode::kAtomic) {
    expect_dof_match(ref, got, "residual");
    return;
  }
  // The atomic scatter adds element residuals in thread-arrival order, so a
  // dof's rounding follows Σ_e|F_e,dof|, not |F|: where the element
  // contributions cancel, two runs differ by far more than 1e-14·|F|.
  const auto scale = element_abs_sum(ref_problem);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], kDofTol * std::max(1.0, scale[i]))
        << "residual dof " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsByScatter, SimdResidualEquivalence,
    ::testing::Combine(::testing::Values(2, 4, 8, 0 /* auto */),
                       ::testing::Values(ScatterMode::kSerial,
                                         ScatterMode::kColored,
                                         ScatterMode::kAtomic)));

TEST(SimdProblemEquivalence, RaggedWorksetsMatchScalar) {
  // workset_size = 37 leaves every workset with n % W != 0 remainders.
  const auto ref = assemble_residual(small_config(1, ScatterMode::kColored, 37));
  for (const int w : {2, 4, 8}) {
    const auto got =
        assemble_residual(small_config(w, ScatterMode::kColored, 37));
    expect_dof_match(ref, got, "ragged-workset residual");
  }
}

TEST(SimdProblemEquivalence, ThermalViscosityMatchesScalar) {
  auto make = [](int w) {
    auto cfg = small_config(w, ScatterMode::kColored);
    cfg.thermal_viscosity = true;
    return cfg;
  };
  const auto ref = assemble_residual(make(1));
  const auto got = assemble_residual(make(4));
  expect_dof_match(ref, got, "thermal residual");
}

TEST(SimdProblemEquivalence, MmsConstantViscosityMatchesScalar) {
  auto make = [](int w) {
    auto cfg = small_config(w, ScatterMode::kColored);
    cfg.mms.enabled = true;
    return cfg;
  };
  const auto ref = assemble_residual(make(1));
  const auto got = assemble_residual(make(4));
  expect_dof_match(ref, got, "mms residual");
}

TEST(SimdProblemEquivalence, ApplyJacobianMatchesScalar) {
  StokesFOProblem scalar(small_config(1, ScatterMode::kColored));
  const auto U = scalar.analytic_initial_guess();
  const std::size_t n = scalar.n_dofs();
  std::vector<double> x(n);
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (auto& v : x) v = dist(rng);

  std::vector<double> y_ref(n, 0.0);
  scalar.apply_jacobian(U, x, y_ref);
  for (const int w : {2, 4, 8}) {
    StokesFOProblem batched(small_config(w, ScatterMode::kColored));
    std::vector<double> y(n, 0.0);
    batched.apply_jacobian(U, x, y);
    expect_dof_match(y_ref, y, "tangent apply");
  }
}

TEST(SimdProblemEquivalence, BatchedResultsDoNotDependOnWidth) {
  // Every batched sum keeps one association regardless of W and the
  // library compiles without FMA contraction, so lanes are bitwise the
  // scalar arithmetic: the tangent at W = 1 (the `--simd off` kernel) and
  // the batched residual at W = 2 are the references.
  StokesFOProblem base(small_config(1, ScatterMode::kColored));
  const auto U = base.analytic_initial_guess();
  const std::size_t n = base.n_dofs();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.37 * static_cast<double>(i));
  }
  std::vector<double> y_ref, F_ref;
  base.apply_jacobian(U, x, y_ref);
  StokesFOProblem w2(small_config(2, ScatterMode::kColored));
  w2.residual(U, F_ref);
  for (const int w : {2, 4, 8}) {
    StokesFOProblem p(small_config(w, ScatterMode::kColored));
    std::vector<double> y, F;
    p.apply_jacobian(U, x, y);
    p.residual(U, F);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(y[i], y_ref[i]) << "tangent, W = " << w << ", dof " << i;
      ASSERT_EQ(F[i], F_ref[i]) << "residual, W = " << w << ", dof " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Standalone kernel equivalence, including n_cells < W and wedge6
// ---------------------------------------------------------------------------

namespace {

/// Random standalone inputs for the batched chain at padded extent Cp.
struct BatchedChainData {
  std::size_t C;
  std::size_t Cp;
  int N, Q;
  pk::View<double, 3> UNodal;
  pk::View<double, 3> coords;
  pk::View<double, 3> ref_grad;
  pk::View<double, 2> ref_val;
  pk::View<double, 1> qp_weight;
  pk::View<double, 3> force_passive;
  pk::View<double, 3> R_scalar;
  pk::View<double, 3> R_batched;

  BatchedChainData(std::size_t n_cells, int num_nodes, int num_qps,
                   unsigned seed)
      : C(n_cells),
        Cp(fem::padded_cells(n_cells)),
        N(num_nodes),
        Q(num_qps),
        UNodal("UNodal", Cp, static_cast<std::size_t>(N), 2),
        coords("coords", Cp, static_cast<std::size_t>(N), 3),
        ref_grad("ref_grad", static_cast<std::size_t>(Q),
                 static_cast<std::size_t>(N), 3),
        ref_val("ref_val", static_cast<std::size_t>(Q),
                static_cast<std::size_t>(N)),
        qp_weight("qp_weight", static_cast<std::size_t>(Q)),
        force_passive("force_passive", Cp, static_cast<std::size_t>(Q), 2),
        R_scalar("R_scalar", Cp, static_cast<std::size_t>(N), 2),
        R_batched("R_batched", Cp, static_cast<std::size_t>(N), 2) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (std::size_t c = 0; c < Cp; ++c) {
      for (int k = 0; k < N; ++k) {
        UNodal(c, k, 0) = 100.0 * dist(rng);
        UNodal(c, k, 1) = 100.0 * dist(rng);
      }
      for (int q = 0; q < Q; ++q) {
        force_passive(c, q, 0) = 10.0 * dist(rng);
        force_passive(c, q, 1) = 10.0 * dist(rng);
      }
    }
  }
};

/// Runs the batched chain at width W; W = 1 is the scalar reference
/// (identical arithmetic, one lane).
template <int W>
void run_batched_chain(BatchedChainData& d, const pk::View<double, 3>& out,
                       std::size_t dispatch_n) {
  physics::FusedStokesChainBatched<W> chain;
  chain.UNodal = d.UNodal;
  chain.coords = d.coords;
  chain.ref_grad = d.ref_grad;
  chain.ref_val = d.ref_val;
  chain.qp_weight = d.qp_weight;
  chain.force_passive = d.force_passive;
  chain.Residual = out;
  chain.numNodes = static_cast<unsigned>(d.N);
  chain.numQPs = static_cast<unsigned>(d.Q);
  chain.prepare();
  pk::parallel_for("chain", pk::SimdRangePolicy<W, pk::Serial>(dispatch_n),
                   chain);
}

}  // namespace

TEST(SimdBatchedKernel, SmallCellCountsMatchWidthOne) {
  // n_cells < W and ragged n_cells % W != 0 for every width, on a unit-ish
  // random hex geometry taken from the real problem's first cells.
  StokesFOProblem problem(small_config(1, ScatterMode::kSerial));
  const auto& ws = problem.workset();
  for (const std::size_t n_cells : {std::size_t{3}, std::size_t{11}}) {
    BatchedChainData d(n_cells, ws.num_nodes, ws.num_qps, 91);
    for (std::size_t c = 0; c < d.Cp; ++c) {
      const std::size_t src = std::min(c, ws.n_cells - 1);
      for (int k = 0; k < d.N; ++k) {
        for (int x = 0; x < 3; ++x) d.coords(c, k, x) = ws.coords(src, k, x);
      }
    }
    for (int q = 0; q < d.Q; ++q) {
      d.qp_weight(q) = problem.element_arrays().qp_weights(q);
      for (int k = 0; k < d.N; ++k) {
        d.ref_val(q, k) = problem.element_arrays().ref_val(q, k);
        for (int x = 0; x < 3; ++x) {
          d.ref_grad(q, k, x) = problem.element_arrays().ref_grad(q, k, x);
        }
      }
    }
    run_batched_chain<1>(d, d.R_scalar, n_cells);
    run_batched_chain<2>(d, d.R_batched, n_cells);
    for (std::size_t c = 0; c < n_cells; ++c) {
      for (int k = 0; k < d.N; ++k) {
        for (int v = 0; v < 2; ++v) {
          const double ref = d.R_scalar(c, k, v);
          EXPECT_NEAR(d.R_batched(c, k, v), ref,
                      kDofTol * std::max(1.0, std::abs(ref)));
        }
      }
    }
    run_batched_chain<4>(d, d.R_batched, n_cells);
    for (std::size_t c = 0; c < n_cells; ++c) {
      for (int k = 0; k < d.N; ++k) {
        for (int v = 0; v < 2; ++v) {
          const double ref = d.R_scalar(c, k, v);
          EXPECT_NEAR(d.R_batched(c, k, v), ref,
                      kDofTol * std::max(1.0, std::abs(ref)));
        }
      }
    }
    run_batched_chain<8>(d, d.R_batched, n_cells);
    for (std::size_t c = 0; c < n_cells; ++c) {
      for (int k = 0; k < d.N; ++k) {
        for (int v = 0; v < 2; ++v) {
          const double ref = d.R_scalar(c, k, v);
          EXPECT_NEAR(d.R_batched(c, k, v), ref,
                      kDofTol * std::max(1.0, std::abs(ref)));
        }
      }
    }
  }
}

TEST(SimdBatchedKernel, Wedge6BatchedMatchesScalarStreamingChain) {
  // Prism workset: 6-node wedges, 6 qps, built by build_prism_geometry with
  // the same padded layout.  The scalar reference is the streaming
  // FusedStokesChain on the precomputed gradBF/wGradBF/wBF arrays; the
  // batched chain recomputes geometry from coords + Wedge6 reference data.
  mesh::IceGeometry geom{};
  auto quads =
      std::make_shared<mesh::QuadGrid>(geom, mesh::QuadGridConfig{250.0e3});
  mesh::TriGrid tris{quads};
  fem::GeometryWorkset ws = fem::build_prism_geometry(tris, geom, 3);
  const std::size_t C = ws.n_cells;
  const std::size_t Cp = ws.n_cells_padded;
  const int N = ws.num_nodes;
  const int Q = ws.num_qps;
  ASSERT_EQ(N, 6);
  ASSERT_EQ(Q, 6);

  BatchedChainData d(C, N, Q, 7);
  for (std::size_t c = 0; c < Cp; ++c) {
    for (int k = 0; k < N; ++k) {
      for (int x = 0; x < 3; ++x) d.coords(c, k, x) = ws.coords(c, k, x);
    }
  }
  const auto qps = fem::gauss_wedge();
  for (int q = 0; q < Q; ++q) {
    d.qp_weight(q) = qps[static_cast<std::size_t>(q)].weight;
    for (int k = 0; k < N; ++k) {
      const auto& qp = qps[static_cast<std::size_t>(q)];
      d.ref_val(q, k) = fem::Wedge6Basis::value(k, qp.xi, qp.eta, qp.zeta);
      const auto g = fem::Wedge6Basis::gradient(k, qp.xi, qp.eta, qp.zeta);
      for (int x = 0; x < 3; ++x) d.ref_grad(q, k, x) = g[x];
    }
  }

  physics::FusedStokesChain<double> scalar_chain;
  scalar_chain.UNodal = d.UNodal;
  scalar_chain.gradBF = ws.gradBF;
  scalar_chain.wGradBF = ws.wGradBF;
  scalar_chain.wBF = ws.wBF;
  scalar_chain.force_passive = d.force_passive;
  scalar_chain.Residual = d.R_scalar;
  scalar_chain.numNodes = static_cast<unsigned>(N);
  scalar_chain.numQPs = static_cast<unsigned>(Q);
  scalar_chain.prepare();
  pk::parallel_for("wedge_scalar", pk::RangePolicy<pk::Serial>(C),
                   scalar_chain);

  run_batched_chain<4>(d, d.R_batched, C);
  for (std::size_t c = 0; c < C; ++c) {
    for (int k = 0; k < N; ++k) {
      for (int v = 0; v < 2; ++v) {
        const double ref = d.R_scalar(c, k, v);
        EXPECT_NEAR(d.R_batched(c, k, v), ref,
                    kDofTol * std::max(1.0, std::abs(ref)))
            << "cell " << c << " node " << k;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// pow-hoist bitwise pin
// ---------------------------------------------------------------------------

TEST(FusedChainPowHoist, PreparedChainBitwiseMatchesInlineFormula) {
  // The hoisted coeff_/expo_ are computed by the exact expressions the
  // kernel previously evaluated per cell, so residuals must be *bitwise*
  // identical to an inline re-derivation of the viscosity.
  StokesFOProblem problem(small_config(1, ScatterMode::kSerial));
  const auto& ws = problem.workset();
  const std::size_t C = 5;
  const int N = ws.num_nodes;
  const int Q = ws.num_qps;
  const double glen_A = 4.9e-17, glen_n = 3.4, eps_reg2 = 1.0e-10;

  BatchedChainData d(C, N, Q, 3);
  physics::FusedStokesChain<double> chain;
  chain.UNodal = d.UNodal;
  chain.gradBF = ws.gradBF;
  chain.wGradBF = ws.wGradBF;
  chain.wBF = ws.wBF;
  chain.force_passive = d.force_passive;
  chain.Residual = d.R_scalar;
  chain.glen_A = glen_A;
  chain.glen_n = glen_n;
  chain.eps_reg2 = eps_reg2;
  chain.numNodes = static_cast<unsigned>(N);
  chain.numQPs = static_cast<unsigned>(Q);
  chain.prepare();
  pk::parallel_for("hoisted", pk::RangePolicy<pk::Serial>(C), chain);

  // Inline reference: the pre-hoist kernel body with coeff/expo computed
  // per cell (the expressions prepare() evaluates once).
  for (std::size_t cell = 0; cell < C; ++cell) {
    double un[8][2];
    for (int k = 0; k < N; ++k) {
      un[k][0] = d.UNodal(cell, k, 0);
      un[k][1] = d.UNodal(cell, k, 1);
    }
    double res0[8] = {}, res1[8] = {};
    for (int qp = 0; qp < Q; ++qp) {
      double g[2][3] = {};
      for (int k = 0; k < N; ++k) {
        for (int x = 0; x < 3; ++x) {
          const double gb = ws.gradBF(cell, k, qp, x);
          g[0][x] += un[k][0] * gb;
          g[1][x] += un[k][1] * gb;
        }
      }
      const double eps2 =
          g[0][0] * g[0][0] + g[1][1] * g[1][1] + g[0][0] * g[1][1] +
          0.25 * ((g[0][1] + g[1][0]) * (g[0][1] + g[1][0]) +
                  g[0][2] * g[0][2] + g[1][2] * g[1][2]);
      const double coeff = 0.5 * std::pow(glen_A, -1.0 / glen_n);
      const double expo = (1.0 - glen_n) / (2.0 * glen_n);
      const double mu = coeff * std::pow(eps2 + eps_reg2, expo);
      const double strs00 = 2.0 * mu * (2.0 * g[0][0] + g[1][1]);
      const double strs11 = 2.0 * mu * (2.0 * g[1][1] + g[0][0]);
      const double strs01 = mu * (g[0][1] + g[1][0]);
      const double strs02 = mu * g[0][2];
      const double strs12 = mu * g[1][2];
      const double frc0 = d.force_passive(cell, qp, 0);
      const double frc1 = d.force_passive(cell, qp, 1);
      for (int k = 0; k < N; ++k) {
        res0[k] += strs00 * ws.wGradBF(cell, k, qp, 0) +
                   strs01 * ws.wGradBF(cell, k, qp, 1) +
                   strs02 * ws.wGradBF(cell, k, qp, 2) +
                   frc0 * ws.wBF(cell, k, qp);
        res1[k] += strs01 * ws.wGradBF(cell, k, qp, 0) +
                   strs11 * ws.wGradBF(cell, k, qp, 1) +
                   strs12 * ws.wGradBF(cell, k, qp, 2) +
                   frc1 * ws.wBF(cell, k, qp);
      }
    }
    for (int k = 0; k < N; ++k) {
      EXPECT_EQ(d.R_scalar(cell, k, 0), res0[k]) << "cell " << cell;
      EXPECT_EQ(d.R_scalar(cell, k, 1), res1[k]) << "cell " << cell;
    }
  }
}

// ---------------------------------------------------------------------------
// kMaxNodes typed-error guards (the headline bugfix)
// ---------------------------------------------------------------------------

namespace {

/// Views sized for a 10-node element: allocation is fine, only the kernel
/// guard must trip (pre-fix this was a silent stack overflow in Release).
constexpr std::size_t kBigN = 10;

}  // namespace

TEST(KMaxNodesGuard, FusedStokesChainThrowsTypedError) {
  physics::FusedStokesChain<double> chain;
  chain.UNodal = pk::View<double, 3>("U", 4, kBigN, 2);
  chain.gradBF = pk::View<double, 4>("g", 4, kBigN, 8, 3);
  chain.wGradBF = pk::View<double, 4>("wg", 4, kBigN, 8, 3);
  chain.wBF = pk::View<double, 3>("w", 4, kBigN, 8);
  chain.force_passive = pk::View<double, 3>("f", 4, 8, 2);
  chain.Residual = pk::View<double, 3>("R", 4, kBigN, 2);
  chain.numNodes = kBigN;
  chain.numQPs = 8;
  EXPECT_THROW(chain(0), mali::Error);
}

namespace {

/// Both tangent kernels at width W on a 10-node element: the linearize
/// kernel and the dot-only apply must each trip the kMaxNodes guard.
template <int W>
void expect_tangent_kernels_throw() {
  constexpr std::size_t C = 2 * W;
  pk::View<std::size_t, 2> cell_nodes("cn", C, kBigN);
  const pk::View<double, 3> ref_grad("rg", 8, kBigN, 3);
  const pk::View<double, 1> qp_data("qd", C * 8 * physics::kTangentFields);

  physics::StokesFOTangentLinearize<W> lin;
  lin.cell_nodes = cell_nodes;
  lin.coords = pk::View<double, 3>("x", C, kBigN, 3);
  lin.U = pk::View<double, 1>("U", 2 * C * kBigN);
  lin.ref_grad = ref_grad;
  lin.qp_weight = pk::View<double, 1>("qw", 8);
  lin.qp_data = qp_data;
  lin.numNodes = static_cast<int>(kBigN);
  lin.numQPs = 8;
  EXPECT_THROW(lin(pk::SimdBatch{0, W, W}), mali::Error);

  physics::StokesFOTangentApply<W> tan;
  tan.cell_nodes = cell_nodes;
  tan.X = pk::View<double, 1>("X", 2 * C * kBigN);
  tan.ref_grad = ref_grad;
  tan.qp_data = qp_data;
  tan.Tangent = pk::View<double, 3>("T", C, kBigN, 2);
  tan.numNodes = static_cast<int>(kBigN);
  tan.numQPs = 8;
  EXPECT_THROW(tan(pk::SimdBatch{0, W, W}), mali::Error);
}

}  // namespace

TEST(KMaxNodesGuard, WidthOneTangentThrowsTypedError) {
  expect_tangent_kernels_throw<1>();
}

TEST(KMaxNodesGuard, BatchedChainThrowsTypedError) {
  physics::FusedStokesChainBatched<4> chain;
  chain.UNodal = pk::View<double, 3>("U", 8, kBigN, 2);
  chain.coords = pk::View<double, 3>("x", 8, kBigN, 3);
  chain.ref_grad = pk::View<double, 3>("rg", 8, kBigN, 3);
  chain.ref_val = pk::View<double, 2>("rv", 8, kBigN);
  chain.qp_weight = pk::View<double, 1>("qw", 8);
  chain.force_passive = pk::View<double, 3>("f", 8, 8, 2);
  chain.Residual = pk::View<double, 3>("R", 8, kBigN, 2);
  chain.numNodes = kBigN;
  chain.numQPs = 8;
  EXPECT_THROW(chain(pk::SimdBatch{0, 4, 4}), mali::Error);
}

TEST(KMaxNodesGuard, BatchedTangentThrowsTypedError) {
  expect_tangent_kernels_throw<4>();
}

TEST(KMaxNodesGuard, GuardPropagatesThroughThreadedDispatch) {
  // MALI_CHECK_MSG inside a worker must surface as mali::Error in the
  // calling thread (ThreadPool rethrows), not crash or vanish.
  physics::FusedStokesChainBatched<4> chain;
  chain.UNodal = pk::View<double, 3>("U", 8, kBigN, 2);
  chain.coords = pk::View<double, 3>("x", 8, kBigN, 3);
  chain.ref_grad = pk::View<double, 3>("rg", 8, kBigN, 3);
  chain.ref_val = pk::View<double, 2>("rv", 8, kBigN);
  chain.qp_weight = pk::View<double, 1>("qw", 8);
  chain.force_passive = pk::View<double, 3>("f", 8, 8, 2);
  chain.Residual = pk::View<double, 3>("R", 8, kBigN, 2);
  chain.numNodes = kBigN;
  chain.numQPs = 8;
  EXPECT_THROW(pk::parallel_for("guard_mt",
                                pk::SimdRangePolicy<4, pk::Threads>(8), chain),
               mali::Error);
}

// ---------------------------------------------------------------------------
// Workset basal-side-set validation
// ---------------------------------------------------------------------------

TEST(WorksetValidation, BuiltWorksetsPass) {
  StokesFOProblem problem(small_config(1, ScatterMode::kSerial));
  EXPECT_NO_THROW(fem::validate_workset(problem.workset()));

  mesh::IceGeometry geom{};
  auto quads =
      std::make_shared<mesh::QuadGrid>(geom, mesh::QuadGridConfig{250.0e3});
  mesh::TriGrid tris{quads};
  const auto prism_ws = fem::build_prism_geometry(tris, geom, 3);
  EXPECT_NO_THROW(fem::validate_workset(prism_ws));
}

TEST(WorksetValidation, ReportsFaceWithOutOfRangeCell) {
  StokesFOProblem problem(small_config(1, ScatterMode::kSerial));
  fem::GeometryWorkset ws = problem.workset();  // views shared, struct local
  ASSERT_GT(ws.n_basal_faces, 2u);
  const std::size_t saved = ws.basal_face_cell(2);
  ws.basal_face_cell(2) = ws.n_cells + 5;
  try {
    fem::validate_workset(ws);
    FAIL() << "expected mali::Error";
  } catch (const mali::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("face 2"), std::string::npos) << msg;
  }
  ws.basal_face_cell(2) = saved;
}

TEST(WorksetValidation, ReportsFaceWithForeignNode) {
  StokesFOProblem problem(small_config(1, ScatterMode::kSerial));
  fem::GeometryWorkset ws = problem.workset();
  ASSERT_GT(ws.n_basal_faces, 1u);
  const std::size_t saved = ws.basal_face_node(1, 0);
  ws.basal_face_node(1, 0) = saved + 1000000;  // not a node of the cell
  try {
    fem::validate_workset(ws);
    FAIL() << "expected mali::Error";
  } catch (const mali::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("face 1"), std::string::npos) << msg;
  }
  ws.basal_face_node(1, 0) = saved;
}

TEST(WorksetValidation, ReportsFaceCountMismatch) {
  StokesFOProblem problem(small_config(1, ScatterMode::kSerial));
  fem::GeometryWorkset ws = problem.workset();
  ws.face_nodes = 5;  // arrays were built with 4
  EXPECT_THROW(fem::validate_workset(ws), mali::Error);
}
