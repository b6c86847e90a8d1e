// Fused evaluator-chain tests: numerical equivalence with the staged
// pipeline (VelocityGradient -> ViscosityFO -> BodyForce -> StokesFOResid)
// for both evaluation types, the batched SFad chain's bytes against the
// scalar one, and the data-movement properties of the chain traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "core/chain_traces.hpp"
#include "gpusim/exec_model.hpp"
#include "physics/element_engine.hpp"
#include "physics/eval_types.hpp"
#include "physics/evaluators.hpp"
#include "physics/fused_chain.hpp"
#include "physics/fused_chain_sfad_batched.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "physics/stokes_fo_resid.hpp"
#include "portability/parallel.hpp"
#include "portability/simd.hpp"

using namespace mali;
using Fad = physics::JacobianEval::ScalarT;

namespace {

template <class ScalarT>
struct ChainData {
  static constexpr std::size_t C = 12, N = 8, Q = 8;
  pk::View<ScalarT, 3> UNodal{"UNodal", C, N, 2};
  pk::View<double, 4> gradBF{"gradBF", C, N, Q, 3};
  pk::View<double, 4> wGradBF{"wGradBF", C, N, Q, 3};
  pk::View<double, 3> wBF{"wBF", C, N, Q};
  pk::View<double, 3> force_passive{"force_passive", C, Q, 2};
  // staged intermediates
  pk::View<ScalarT, 4> Ugrad{"Ugrad", C, Q, 2, 3};
  pk::View<ScalarT, 2> mu{"muLandIce", C, Q};
  pk::View<ScalarT, 3> force{"force", C, Q, 2};
  pk::View<ScalarT, 3> R_staged{"R_staged", C, N, 2};
  pk::View<ScalarT, 3> R_fused{"R_fused", C, N, 2};

  explicit ChainData(unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t n = 0; n < N; ++n) {
        for (int v = 0; v < 2; ++v) {
          // Velocities O(100 m/yr) with Fad seeding for the Jacobian path.
          if constexpr (ad::is_fad_v<ScalarT>) {
            UNodal(c, n, v) =
                ScalarT(100.0 * dist(rng), static_cast<int>(2 * n) + v);
          } else {
            UNodal(c, n, v) = 100.0 * dist(rng);
          }
        }
        for (std::size_t q = 0; q < Q; ++q) {
          wBF(c, n, q) = dist(rng);
          for (int d = 0; d < 3; ++d) {
            gradBF(c, n, q, d) = 1e-5 * dist(rng);  // 1/m scale gradients
            wGradBF(c, n, q, d) = dist(rng);
          }
        }
      }
      for (std::size_t q = 0; q < Q; ++q) {
        force_passive(c, q, 0) = 10.0 * dist(rng);
        force_passive(c, q, 1) = 10.0 * dist(rng);
      }
    }
  }
};

template <class ScalarT>
void run_staged(ChainData<ScalarT>& d) {
  physics::VelocityGradient<ScalarT> vg{d.UNodal, d.gradBF, d.Ugrad,
                                        ChainData<ScalarT>::N,
                                        ChainData<ScalarT>::Q};
  pk::parallel_for("vg", pk::RangePolicy<pk::Serial>(d.C), vg);
  physics::ViscosityFO<ScalarT> visc;
  visc.Ugrad = d.Ugrad;
  visc.muLandIce = d.mu;
  visc.numQPs = ChainData<ScalarT>::Q;
  pk::parallel_for("visc", pk::RangePolicy<pk::Serial>(d.C), visc);
  physics::BodyForceFO<ScalarT> bf{d.force_passive, d.force,
                                   ChainData<ScalarT>::Q};
  pk::parallel_for("bf", pk::RangePolicy<pk::Serial>(d.C), bf);
  physics::StokesFOResid<ScalarT> resid;
  resid.Ugrad = d.Ugrad;
  resid.muLandIce = d.mu;
  resid.force = d.force;
  resid.wGradBF = d.wGradBF;
  resid.wBF = d.wBF;
  resid.Residual = d.R_staged;
  resid.numNodes = ChainData<ScalarT>::N;
  resid.numQPs = ChainData<ScalarT>::Q;
  pk::parallel_for(
      "resid",
      pk::RangePolicy<pk::Serial, physics::LandIce_3D_Opt_Tag<8>>(d.C), resid);
}

template <class ScalarT>
void run_fused(ChainData<ScalarT>& d) {
  physics::FusedStokesChain<ScalarT> fused;
  fused.UNodal = d.UNodal;
  fused.gradBF = d.gradBF;
  fused.wGradBF = d.wGradBF;
  fused.wBF = d.wBF;
  fused.force_passive = d.force_passive;
  fused.Residual = d.R_fused;
  fused.numNodes = ChainData<ScalarT>::N;
  fused.numQPs = ChainData<ScalarT>::Q;
  pk::parallel_for("fused", pk::RangePolicy<pk::Serial>(d.C), fused);
}

}  // namespace

class FusedChainEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(FusedChainEquivalence, ResidualPathMatchesStaged) {
  ChainData<double> d(GetParam());
  run_staged(d);
  run_fused(d);
  for (std::size_t c = 0; c < d.C; ++c) {
    for (std::size_t n = 0; n < d.N; ++n) {
      for (int v = 0; v < 2; ++v) {
        const double ref = d.R_staged(c, n, v);
        EXPECT_NEAR(d.R_fused(c, n, v), ref,
                    1e-11 * std::max(1.0, std::abs(ref)));
      }
    }
  }
}

TEST_P(FusedChainEquivalence, JacobianPathMatchesStaged) {
  ChainData<Fad> d(GetParam() + 100);
  run_staged(d);
  run_fused(d);
  for (std::size_t c = 0; c < d.C; ++c) {
    for (std::size_t n = 0; n < d.N; ++n) {
      for (int v = 0; v < 2; ++v) {
        const Fad& ref = d.R_staged(c, n, v);
        const Fad& got = d.R_fused(c, n, v);
        EXPECT_NEAR(got.val(), ref.val(),
                    1e-11 * std::max(1.0, std::abs(ref.val())));
        for (int l = 0; l < 16; ++l) {
          EXPECT_NEAR(got.dx(l), ref.dx(l),
                      1e-10 * std::max(1.0, std::abs(ref.dx(l))));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedChainEquivalence,
                         ::testing::Values(1u, 7u, 42u));

TEST(ChainTraces, StagedStagesHaveExpectedShapes) {
  const auto stages = core::record_chain_stages(core::KernelKind::kJacobian,
                                                4096);
  ASSERT_EQ(stages.size(), 4u);
  EXPECT_EQ(stages[0].name, "VelocityGradient");
  EXPECT_EQ(stages[3].name, "StokesFOResid");
  for (const auto& st : stages) {
    EXPECT_FALSE(st.trace.empty()) << st.name;
    EXPECT_GT(st.info.flops_per_cell, 0.0) << st.name;
  }
}

TEST(ChainTraces, FusedEliminatesIntermediateArrays) {
  const auto fused = core::record_fused_chain(core::KernelKind::kJacobian,
                                              4096);
  for (const auto& a : fused.trace.arrays()) {
    EXPECT_NE(a.name, "Ugrad");
    EXPECT_NE(a.name, "muLandIce");
    EXPECT_NE(a.name, "force");
  }
  // Residual written once per element, like the optimized kernel.
  int residual_id = -1;
  for (std::size_t i = 0; i < fused.trace.arrays().size(); ++i) {
    if (fused.trace.arrays()[i].name == "Residual") {
      residual_id = static_cast<int>(i);
    }
  }
  ASSERT_GE(residual_id, 0);
  std::size_t writes = 0;
  for (const auto& r : fused.trace.records()) {
    if (r.array_id == residual_id) {
      EXPECT_EQ(r.kind, gpusim::AccessKind::kWrite);
      ++writes;
    }
  }
  EXPECT_EQ(writes, 16u);
}

TEST(ChainTraces, FusedMinBytesBelowStagedSum) {
  const std::size_t cells = 8192;
  for (auto kind : {core::KernelKind::kResidual, core::KernelKind::kJacobian}) {
    const auto stages = core::record_chain_stages(kind, cells);
    std::uint64_t staged_min = 0;
    for (const auto& st : stages) {
      staged_min += gpusim::ExecModel::theoretical_min_bytes(st.trace, cells);
    }
    const auto fused = core::record_fused_chain(kind, cells);
    const auto fused_min =
        gpusim::ExecModel::theoretical_min_bytes(fused.trace, cells);
    EXPECT_LT(fused_min, staged_min) << core::to_string(kind);
    if (kind == core::KernelKind::kJacobian) {
      EXPECT_LT(static_cast<double>(fused_min),
                0.5 * static_cast<double>(staged_min))
          << "dropping the SFad intermediates should halve the minimum";
    }
  }
}

// ---------------------------------------------------------------------------
// FusedStokesChainSfadBatched: the optimized Jacobian's SFad chain W cells
// per pack must reproduce FusedStokesChain<SFad<16>> byte for byte (value
// and all 16 derivatives) at every width and on both exec spaces, and must
// never store a dead lane of a ragged tail.
// ---------------------------------------------------------------------------

namespace {

/// Inputs of the SFad chain for the first `cells` cells of a problem, copied
/// into views of exactly that many rows (so a read past the last cell is a
/// bounds error, not a read of ghost data), and the state U.
struct SfadChainInputs {
  std::size_t C = 0;
  physics::StokesFOConfig cfg;
  pk::View<double, 1> U;
  pk::View<std::size_t, 2> cell_nodes;
  pk::View<double, 4> gradBF, wGradBF;
  pk::View<double, 3> wBF, force_passive;
  pk::View<double, 2> flow_factor;

  SfadChainInputs(const physics::StokesFOConfig& c,
                  const std::vector<double>& state, std::size_t cells)
      : cfg(c) {
    physics::StokesFOProblem p(cfg);
    const auto& a = p.element_arrays();
    C = std::min(cells, p.workset().n_cells);
    const std::size_t N = 8, Q = 8;
    U = physics::to_view(state.empty() ? p.analytic_initial_guess() : state);
    cell_nodes = pk::View<std::size_t, 2>("cell_nodes", C, N);
    gradBF = pk::View<double, 4>("gradBF", C, N, Q, 3);
    wGradBF = pk::View<double, 4>("wGradBF", C, N, Q, 3);
    wBF = pk::View<double, 3>("wBF", C, N, Q);
    force_passive = pk::View<double, 3>("force_passive", C, Q, 2);
    if (a.flow_factor.allocated()) {
      flow_factor = pk::View<double, 2>("flow_factor", C, Q);
    }
    for (std::size_t cell = 0; cell < C; ++cell) {
      for (std::size_t k = 0; k < N; ++k) {
        cell_nodes(cell, k) = a.cell_nodes(cell, k);
        for (std::size_t q = 0; q < Q; ++q) {
          wBF(cell, k, q) = a.wBF(cell, k, q);
          for (int d = 0; d < 3; ++d) {
            gradBF(cell, k, q, d) = a.gradBF(cell, k, q, d);
            wGradBF(cell, k, q, d) = a.wGradBF(cell, k, q, d);
          }
        }
      }
      for (std::size_t q = 0; q < Q; ++q) {
        force_passive(cell, q, 0) = a.force_passive(cell, q, 0);
        force_passive(cell, q, 1) = a.force_passive(cell, q, 1);
        if (flow_factor.allocated()) {
          flow_factor(cell, q) = a.flow_factor(cell, q);
        }
      }
    }
  }

  template <class Chain>
  void configure(Chain& k, const pk::View<Fad, 3>& R) const {
    k.U = U;
    k.cell_nodes = cell_nodes;
    k.gradBF = gradBF;
    k.wGradBF = wGradBF;
    k.wBF = wBF;
    k.force_passive = force_passive;
    k.flow_factor = flow_factor;
    k.Residual = R;
    k.glen_A = cfg.constants.glen_A;
    k.glen_n = cfg.constants.glen_n;
    k.eps_reg2 = cfg.constants.eps_reg2;
    k.constant_mu = cfg.mms.enabled ? cfg.mms.mu0 : 0.0;
    k.prepare();
  }
};

/// JacobianPin's perturbed state on the problem cfg describes.
std::vector<double> perturbed_state(const physics::StokesFOConfig& cfg) {
  physics::StokesFOProblem p(cfg);
  auto U = p.analytic_initial_guess();
  for (std::size_t i = 0; i < U.size(); ++i) {
    U[i] += 0.01 * std::sin(0.1 * static_cast<double>(i)) *
            (1.0 + std::abs(U[i]));
  }
  return U;
}

physics::StokesFOConfig sfad_config() {
  physics::StokesFOConfig cfg;
  cfg.dx_m = 200.0e3;
  cfg.n_layers = 3;
  return cfg;
}

/// Rows past the chain's range, which no lane may write.
constexpr std::size_t kGuardRows = 8;

/// Runs the scalar chain and the batched one at W = 1, 2, 4 and 8 on the
/// serial and the threaded exec space, and compares every SFad byte.
void expect_batched_sfad_bitwise(const SfadChainInputs& in) {
  const std::size_t C = in.C;
  ASSERT_GT(C, 0u);
  const Fad sentinel(-7.0, 3);
  pk::View<Fad, 3> ref("R_scalar", C, 8, 2);
  physics::FusedStokesChain<Fad> scalar;
  in.configure(scalar, ref);
  pk::parallel_for("scalar", pk::RangePolicy<pk::Serial>(C), scalar);

  std::size_t nonzero_dx = 0;
  for (std::size_t c = 0; c < C; ++c) {
    for (int k = 0; k < 8; ++k) {
      for (int i = 0; i < 16; ++i) nonzero_dx += ref(c, k, 0).dx(i) != 0.0;
    }
  }
  EXPECT_GT(nonzero_dx, 0u) << "the reference Jacobian is all zero";

  const auto check = [&]<int W, class Exec>(const char* space) {
    pk::View<Fad, 3> got("R_batched", C + kGuardRows, 8, 2);
    for (std::size_t i = 0; i < got.size(); ++i) got.data()[i] = sentinel;
    physics::FusedStokesChainSfadBatched<W> batched;
    in.configure(batched, got);
    pk::parallel_for("batched", pk::SimdRangePolicy<W, Exec>(C), batched);
    std::size_t differing = 0;
    for (std::size_t c = 0; c < C; ++c) {
      for (int k = 0; k < 8; ++k) {
        for (int comp = 0; comp < 2; ++comp) {
          differing += std::memcmp(&ref(c, k, comp), &got(c, k, comp),
                                   sizeof(Fad)) != 0;
        }
      }
    }
    EXPECT_EQ(differing, 0u) << "W = " << W << " on " << space << ": "
                             << differing << " of " << C * 16
                             << " element SFads differ";
    std::size_t written = 0;
    for (std::size_t c = C; c < C + kGuardRows; ++c) {
      for (int k = 0; k < 8; ++k) {
        for (int comp = 0; comp < 2; ++comp) {
          written += std::memcmp(&got(c, k, comp), &sentinel,
                                 sizeof(Fad)) != 0;
        }
      }
    }
    EXPECT_EQ(written, 0u) << "W = " << W << " on " << space
                           << " stored a dead lane";
  };
  const auto both = [&]<int W>() {
    check.template operator()<W, pk::Serial>("Serial");
    check.template operator()<W, pk::Threads>("Threads");
  };
  both.template operator()<1>();
  both.template operator()<2>();
  both.template operator()<4>();
  both.template operator()<8>();
}

}  // namespace

TEST(FusedSfadBatched, GlenLawMatchesScalarBitwise) {
  expect_batched_sfad_bitwise(SfadChainInputs(sfad_config(), {}, 64));
}

TEST(FusedSfadBatched, ThermalFlowFactorMatchesScalarBitwise) {
  auto cfg = sfad_config();
  cfg.thermal_viscosity = true;
  const SfadChainInputs in(cfg, perturbed_state(cfg), 64);
  ASSERT_TRUE(in.flow_factor.allocated());
  expect_batched_sfad_bitwise(in);
}

TEST(FusedSfadBatched, ConstantViscosityMatchesScalarBitwise) {
  auto cfg = sfad_config();
  cfg.mms.enabled = true;
  expect_batched_sfad_bitwise(SfadChainInputs(cfg, perturbed_state(cfg), 64));
}

// U = 0: every velocity gradient is zero, so eps2 + eps_reg2 is the only
// pow input and the derivatives carry signed zeros through every product.
TEST(FusedSfadBatched, ZeroVelocityMatchesScalarBitwise) {
  const auto cfg = sfad_config();
  physics::StokesFOProblem p(cfg);
  const std::vector<double> zero(p.n_dofs(), 0.0);
  expect_batched_sfad_bitwise(SfadChainInputs(cfg, zero, 64));
}

TEST(FusedSfadBatched, PerturbedStateMatchesScalarBitwise) {
  const auto cfg = sfad_config();
  expect_batched_sfad_bitwise(
      SfadChainInputs(cfg, perturbed_state(cfg), 1u << 20));
}

// 29 cells: a ragged tail at W = 2, 4 and 8, read from exact-size views.
TEST(FusedSfadBatched, RaggedCellCountMatchesScalarBitwise) {
  const auto cfg = sfad_config();
  const SfadChainInputs in(cfg, perturbed_state(cfg), 29);
  ASSERT_EQ(in.C, 29u);
  expect_batched_sfad_bitwise(in);
}
