// StokesFOResid kernel tests — the heart of the reproduction: every
// optimization variant must be numerically identical to the baseline for
// both evaluation types, and the SFad-computed Jacobian must match finite
// differences of the residual.  The PrismKernel tests run the kernel and its
// recorded trace at MALI's 6-node prism topology, the shape
// bench_prism_vs_hex models.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ad/sfad.hpp"
#include "core/kernel_traces.hpp"
#include "gpusim/exec_model.hpp"
#include "perf/data_movement.hpp"
#include "physics/eval_types.hpp"
#include "physics/stokes_fo_resid.hpp"
#include "portability/parallel.hpp"

using namespace mali;
using physics::StokesFOResid;
using Fad = physics::JacobianEval::ScalarT;

namespace {

template <class ScalarT>
struct KernelFixtureData {
  static constexpr std::size_t C = 16, N = 8, Q = 8;
  pk::View<ScalarT, 4> Ugrad{"Ugrad", C, Q, 2, 3};
  pk::View<ScalarT, 2> mu{"muLandIce", C, Q};
  pk::View<ScalarT, 3> force{"force", C, Q, 2};
  pk::View<double, 4> wGradBF{"wGradBF", C, N, Q, 3};
  pk::View<double, 3> wBF{"wBF", C, N, Q};
  pk::View<ScalarT, 3> Residual{"Residual", C, N, 2};

  explicit KernelFixtureData(unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t q = 0; q < Q; ++q) {
        assign(mu(c, q), 1.0 + 0.5 * dist(rng), static_cast<int>(q) % 16);
        for (int v = 0; v < 2; ++v) {
          assign(force(c, q, v), dist(rng), (static_cast<int>(q) + v) % 16);
          for (int d = 0; d < 3; ++d) {
            assign(Ugrad(c, q, v, d), dist(rng),
                   (static_cast<int>(q) + v + d) % 16);
          }
        }
        for (std::size_t k = 0; k < N; ++k) {
          wBF(c, k, q) = 0.5 + 0.1 * dist(rng);
          for (int d = 0; d < 3; ++d) wGradBF(c, k, q, d) = dist(rng);
        }
      }
    }
  }

  static void assign(ScalarT& dst, double v, int seed_dir) {
    if constexpr (ad::is_fad_v<ScalarT>) {
      dst = ScalarT(v, seed_dir);  // give derivatives nontrivial structure
      dst.fastAccessDx((seed_dir + 5) % 16) = 0.25 * v;
    } else {
      dst = v;
      (void)seed_dir;
    }
  }

  StokesFOResid<ScalarT> kernel() const {
    StokesFOResid<ScalarT> k;
    k.Ugrad = Ugrad;
    k.muLandIce = mu;
    k.force = force;
    k.wGradBF = wGradBF;
    k.wBF = wBF;
    k.Residual = Residual;
    k.numNodes = N;
    k.numQPs = Q;
    k.cond = false;
    return k;
  }
};

template <class ScalarT, class Tag>
std::vector<double> run_variant(const KernelFixtureData<ScalarT>& data) {
  auto k = data.kernel();
  data.Residual.fill(ScalarT(-999.0));  // poison: variants must overwrite
  pk::parallel_for("k", pk::RangePolicy<pk::Serial, Tag>(data.C), k);
  std::vector<double> out;
  for (std::size_t c = 0; c < data.C; ++c) {
    for (std::size_t n = 0; n < data.N; ++n) {
      for (int v = 0; v < 2; ++v) {
        const ScalarT& r = data.Residual(c, n, v);
        out.push_back(ad::value_of(r));
        if constexpr (ad::is_fad_v<ScalarT>) {
          for (int l = 0; l < 16; ++l) out.push_back(r.dx(l));
        }
      }
    }
  }
  return out;
}

template <class ScalarT>
void expect_all_variants_identical(unsigned seed, double tol) {
  KernelFixtureData<ScalarT> data(seed);
  const auto base = run_variant<ScalarT, physics::LandIce_3D_Tag>(data);
  const auto opt = run_variant<ScalarT, physics::LandIce_3D_Opt_Tag<8>>(data);
  const auto loop =
      run_variant<ScalarT, physics::LandIce_3D_LoopOptOnly_Tag<8>>(data);
  const auto fused = run_variant<ScalarT, physics::LandIce_3D_FusedOnly_Tag>(data);
  const auto local =
      run_variant<ScalarT, physics::LandIce_3D_LocalAccumOnly_Tag>(data);
  ASSERT_EQ(base.size(), opt.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const double scale = std::max(1.0, std::abs(base[i]));
    EXPECT_NEAR(opt[i], base[i], tol * scale) << "optimized @" << i;
    EXPECT_NEAR(loop[i], base[i], tol * scale) << "loop-opt @" << i;
    EXPECT_NEAR(fused[i], base[i], tol * scale) << "fused @" << i;
    EXPECT_NEAR(local[i], base[i], tol * scale) << "local-accum @" << i;
  }
}

}  // namespace

class KernelEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelEquivalence, ResidualVariantsAgree) {
  expect_all_variants_identical<double>(GetParam(), 1e-13);
}

TEST_P(KernelEquivalence, JacobianVariantsAgree) {
  expect_all_variants_identical<Fad>(GetParam(), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalence,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

TEST(Kernel, ResidualIsLinearInViscosityStress) {
  // With zero force the residual is linear in mu: doubling mu doubles it.
  KernelFixtureData<double> data(7);
  data.force.fill(0.0);
  const auto r1 = run_variant<double, physics::LandIce_3D_Opt_Tag<8>>(data);
  for (std::size_t c = 0; c < data.C; ++c) {
    for (std::size_t q = 0; q < data.Q; ++q) data.mu(c, q) *= 2.0;
  }
  const auto r2 = run_variant<double, physics::LandIce_3D_Opt_Tag<8>>(data);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_NEAR(r2[i], 2.0 * r1[i], 1e-12 * std::max(1.0, std::abs(r1[i])));
  }
}

TEST(Kernel, ZeroInputsGiveZeroResidual) {
  KernelFixtureData<double> data(11);
  data.Ugrad.fill(0.0);
  data.mu.fill(0.0);
  data.force.fill(0.0);
  const auto r = run_variant<double, physics::LandIce_3D_Tag>(data);
  for (double v : r) EXPECT_EQ(v, 0.0);
}

TEST(Kernel, ForceOnlyContribution) {
  // With mu = 0, Residual(c,n,v) = sum_q force(c,q,v) * wBF(c,n,q).
  KernelFixtureData<double> data(13);
  data.mu.fill(0.0);
  const auto r = run_variant<double, physics::LandIce_3D_Opt_Tag<8>>(data);
  std::size_t idx = 0;
  for (std::size_t c = 0; c < data.C; ++c) {
    for (std::size_t n = 0; n < data.N; ++n) {
      for (int v = 0; v < 2; ++v) {
        double expect = 0.0;
        for (std::size_t q = 0; q < data.Q; ++q) {
          expect += data.force(c, q, v) * data.wBF(c, n, q);
        }
        EXPECT_NEAR(r[idx++], expect, 1e-12);
      }
    }
  }
}

TEST(Kernel, StressSymmetryBetweenComponents) {
  // Swapping the roles of u and v (Ugrad components and force components)
  // swaps the residual components — the FO stress form is symmetric.
  KernelFixtureData<double> a(17);
  KernelFixtureData<double> b(17);
  for (std::size_t c = 0; c < a.C; ++c) {
    for (std::size_t q = 0; q < a.Q; ++q) {
      // b: swap components and the x/y derivative directions.
      for (int d = 0; d < 3; ++d) {
        const int ds = d == 2 ? 2 : 1 - d;
        b.Ugrad(c, q, 0, d) = a.Ugrad(c, q, 1, ds);
        b.Ugrad(c, q, 1, d) = a.Ugrad(c, q, 0, ds);
      }
      b.force(c, q, 0) = a.force(c, q, 1);
      b.force(c, q, 1) = a.force(c, q, 0);
      for (std::size_t k = 0; k < a.N; ++k) {
        const double g0 = a.wGradBF(c, k, q, 0);
        b.wGradBF(c, k, q, 0) = a.wGradBF(c, k, q, 1);
        b.wGradBF(c, k, q, 1) = g0;
      }
    }
  }
  const auto ra = run_variant<double, physics::LandIce_3D_Opt_Tag<8>>(a);
  const auto rb = run_variant<double, physics::LandIce_3D_Opt_Tag<8>>(b);
  // ra[(c,n,0)] should equal rb[(c,n,1)] and vice versa.
  for (std::size_t i = 0; i < ra.size(); i += 2) {
    EXPECT_NEAR(ra[i], rb[i + 1], 1e-12 * std::max(1.0, std::abs(ra[i])));
    EXPECT_NEAR(ra[i + 1], rb[i], 1e-12 * std::max(1.0, std::abs(ra[i + 1])));
  }
}

// ---------------------------------------------------------------------------
// Non-default node counts.  numNodes is a runtime field: the tag-templated
// variants carry the count in their type, the runtime variants must honor
// it, and LocalAccumOnly (fixed kMaxNodes = 8 accumulators) must refuse
// larger elements instead of silently overrunning its stack arrays.
// ---------------------------------------------------------------------------

namespace {

struct VarNodeData {
  std::size_t C, N, Q;
  pk::View<double, 4> Ugrad;
  pk::View<double, 2> mu;
  pk::View<double, 3> force;
  pk::View<double, 4> wGradBF;
  pk::View<double, 3> wBF;
  pk::View<double, 3> Residual;

  VarNodeData(std::size_t c, std::size_t n, std::size_t q, unsigned seed)
      : C(c),
        N(n),
        Q(q),
        Ugrad("Ugrad", C, Q, 2, 3),
        mu("mu", C, Q),
        force("force", C, Q, 2),
        wGradBF("wGradBF", C, N, Q, 3),
        wBF("wBF", C, N, Q),
        Residual("Residual", C, N, 2) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (std::size_t cc = 0; cc < C; ++cc) {
      for (std::size_t qq = 0; qq < Q; ++qq) {
        mu(cc, qq) = 1.0 + 0.5 * dist(rng);
        for (int v = 0; v < 2; ++v) {
          force(cc, qq, v) = dist(rng);
          for (int d = 0; d < 3; ++d) Ugrad(cc, qq, v, d) = dist(rng);
        }
        for (std::size_t k = 0; k < N; ++k) {
          wBF(cc, k, qq) = 0.5 + 0.1 * dist(rng);
          for (int d = 0; d < 3; ++d) wGradBF(cc, k, qq, d) = dist(rng);
        }
      }
    }
  }

  StokesFOResid<double> kernel() const {
    StokesFOResid<double> k;
    k.Ugrad = Ugrad;
    k.muLandIce = mu;
    k.force = force;
    k.wGradBF = wGradBF;
    k.wBF = wBF;
    k.Residual = Residual;
    k.numNodes = static_cast<unsigned>(N);
    k.numQPs = static_cast<unsigned>(Q);
    k.cond = false;
    return k;
  }

  template <class Tag>
  std::vector<double> run() const {
    auto k = kernel();
    Residual.fill(-999.0);
    pk::parallel_for("k", pk::RangePolicy<pk::Serial, Tag>(C), k);
    std::vector<double> out;
    for (std::size_t cc = 0; cc < C; ++cc) {
      for (std::size_t n = 0; n < N; ++n) {
        for (int v = 0; v < 2; ++v) out.push_back(Residual(cc, n, v));
      }
    }
    return out;
  }
};

}  // namespace

TEST(KernelNodeCounts, AblationVariantsAgreeWithFourNodes) {
  // A 4-node element (e.g. a degenerate prism workset) is within every
  // variant's capacity; all must agree with the baseline.
  VarNodeData data(8, 4, 8, 77u);
  const auto base = data.run<physics::LandIce_3D_Tag>();
  const auto opt = data.run<physics::LandIce_3D_Opt_Tag<4>>();
  const auto loop = data.run<physics::LandIce_3D_LoopOptOnly_Tag<4>>();
  const auto fused = data.run<physics::LandIce_3D_FusedOnly_Tag>();
  const auto local = data.run<physics::LandIce_3D_LocalAccumOnly_Tag>();
  for (std::size_t i = 0; i < base.size(); ++i) {
    const double s = std::max(1.0, std::abs(base[i]));
    EXPECT_NEAR(opt[i], base[i], 1e-13 * s);
    EXPECT_NEAR(loop[i], base[i], 1e-13 * s);
    EXPECT_NEAR(fused[i], base[i], 1e-13 * s);
    EXPECT_NEAR(local[i], base[i], 1e-13 * s);
  }
}

TEST(KernelNodeCounts, LocalAccumOnlyRejectsMoreThanEightNodes) {
  // Regression: kMaxNodes = 8 is hardcoded while numNodes is runtime —
  // before the guard this overran res0/res1 on the stack.
  VarNodeData data(4, 12, 8, 78u);
  EXPECT_THROW((data.run<physics::LandIce_3D_LocalAccumOnly_Tag>()),
               mali::Error);
}

TEST(KernelNodeCounts, RuntimeBoundVariantsHandleTwelveNodes) {
  // The baseline/fused variants carry runtime bounds and the Opt tag is
  // templated on the count, so a 12-node element is fine for all of them.
  VarNodeData data(4, 12, 8, 79u);
  const auto base = data.run<physics::LandIce_3D_Tag>();
  const auto fused = data.run<physics::LandIce_3D_FusedOnly_Tag>();
  const auto opt = data.run<physics::LandIce_3D_Opt_Tag<12>>();
  const auto loop = data.run<physics::LandIce_3D_LoopOptOnly_Tag<12>>();
  for (std::size_t i = 0; i < base.size(); ++i) {
    const double s = std::max(1.0, std::abs(base[i]));
    EXPECT_NEAR(fused[i], base[i], 1e-13 * s);
    EXPECT_NEAR(opt[i], base[i], 1e-13 * s);
    EXPECT_NEAR(loop[i], base[i], 1e-13 * s);
  }
}

TEST(Kernel, JacobianValueEqualsResidual) {
  // The SFad evaluation's values must equal the double evaluation exactly.
  KernelFixtureData<double> rd(29);
  KernelFixtureData<Fad> jd(0);
  // Copy the double data into the Fad fixture (passive values).
  for (std::size_t c = 0; c < rd.C; ++c) {
    for (std::size_t q = 0; q < rd.Q; ++q) {
      jd.mu(c, q) = Fad(rd.mu(c, q));
      for (int v = 0; v < 2; ++v) {
        jd.force(c, q, v) = Fad(rd.force(c, q, v));
        for (int d = 0; d < 3; ++d) {
          jd.Ugrad(c, q, v, d) = Fad(rd.Ugrad(c, q, v, d));
        }
      }
      for (std::size_t k = 0; k < rd.N; ++k) {
        jd.wBF(c, k, q) = rd.wBF(c, k, q);
        for (int d = 0; d < 3; ++d) jd.wGradBF(c, k, q, d) = rd.wGradBF(c, k, q, d);
      }
    }
  }
  const auto r = run_variant<double, physics::LandIce_3D_Tag>(rd);
  const auto j = run_variant<Fad, physics::LandIce_3D_Tag>(jd);
  // j interleaves value + 16 derivatives per entry.
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_NEAR(j[i * 17], r[i], 1e-13 * std::max(1.0, std::abs(r[i])));
  }
}

// ---- kernels on the prism topology ----

namespace {

template <class ScalarT>
struct PrismKernelData {
  static constexpr std::size_t C = 10, N = 6, Q = 6;
  pk::View<ScalarT, 4> Ugrad{"Ugrad", C, Q, 2, 3};
  pk::View<ScalarT, 2> mu{"muLandIce", C, Q};
  pk::View<ScalarT, 3> force{"force", C, Q, 2};
  pk::View<double, 4> wGradBF{"wGradBF", C, N, Q, 3};
  pk::View<double, 3> wBF{"wBF", C, N, Q};
  pk::View<ScalarT, 3> Residual{"Residual", C, N, 2};

  explicit PrismKernelData(unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t q = 0; q < Q; ++q) {
        mu(c, q) = ScalarT(1.0 + 0.3 * dist(rng));
        for (int v = 0; v < 2; ++v) {
          force(c, q, v) = ScalarT(dist(rng));
          for (int d = 0; d < 3; ++d) Ugrad(c, q, v, d) = ScalarT(dist(rng));
        }
        for (std::size_t k = 0; k < N; ++k) {
          wBF(c, k, q) = dist(rng);
          for (int d = 0; d < 3; ++d) wGradBF(c, k, q, d) = dist(rng);
        }
      }
    }
  }

  physics::StokesFOResid<ScalarT> kernel() const {
    physics::StokesFOResid<ScalarT> k;
    k.Ugrad = Ugrad;
    k.muLandIce = mu;
    k.force = force;
    k.wGradBF = wGradBF;
    k.wBF = wBF;
    k.Residual = Residual;
    k.numNodes = N;
    k.numQPs = Q;
    return k;
  }
};

}  // namespace

TEST(PrismKernel, BaselineAndOptimizedAgreeOnSixNodes) {
  using Fad12 = ad::SFad<double, 12>;
  PrismKernelData<Fad12> data(77);
  auto k = data.kernel();
  pk::parallel_for("b", pk::RangePolicy<pk::Serial, physics::LandIce_3D_Tag>(
                            data.C),
                   k);
  std::vector<double> base;
  for (std::size_t c = 0; c < data.C; ++c) {
    for (std::size_t n = 0; n < data.N; ++n) {
      for (int v = 0; v < 2; ++v) {
        base.push_back(data.Residual(c, n, v).val());
        for (int l = 0; l < 12; ++l) base.push_back(data.Residual(c, n, v).dx(l));
      }
    }
  }
  pk::parallel_for(
      "o",
      pk::RangePolicy<pk::Serial, physics::LandIce_3D_Opt_Tag<6>>(data.C), k);
  std::size_t i = 0;
  for (std::size_t c = 0; c < data.C; ++c) {
    for (std::size_t n = 0; n < data.N; ++n) {
      for (int v = 0; v < 2; ++v) {
        EXPECT_NEAR(data.Residual(c, n, v).val(), base[i++], 1e-13);
        for (int l = 0; l < 12; ++l) {
          EXPECT_NEAR(data.Residual(c, n, v).dx(l), base[i++], 1e-13);
        }
      }
    }
  }
}

TEST(PrismKernel, TraceMinBytesMatchClosedForm) {
  for (auto kind : {core::KernelKind::kResidual, core::KernelKind::kJacobian}) {
    const auto rec = core::record_kernel_trace(
        kind, physics::KernelVariant::kOptimized, 2048, 6, 6);
    const auto from_trace = gpusim::ExecModel::theoretical_min_bytes(rec, 2048);
    const auto closed = 2048u * perf::min_bytes_per_cell(
                                    perf::stokes_fo_resid_arrays(
                                        6, 6, core::scalar_bytes(kind, 6)));
    EXPECT_EQ(from_trace, closed) << core::to_string(kind);
  }
}

TEST(PrismKernel, JacobianScalarIsThirteenDoubles) {
  EXPECT_EQ(core::scalar_bytes(core::KernelKind::kJacobian, 6),
            13u * sizeof(double));
  EXPECT_EQ(core::scalar_bytes(core::KernelKind::kJacobian, 8),
            17u * sizeof(double));
  EXPECT_EQ(core::scalar_bytes(core::KernelKind::kResidual, 6),
            sizeof(double));
}

TEST(PrismKernel, UnsupportedTopologyThrows) {
  EXPECT_THROW(core::record_kernel_trace(core::KernelKind::kResidual,
                                         physics::KernelVariant::kOptimized,
                                         64, 4, 4),
               mali::Error);
}
