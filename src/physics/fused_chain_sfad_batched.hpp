#pragma once
// FusedStokesChainSfadBatched — the SFad<16> fused chain of the optimized
// Jacobian, W cells per pack.  Every SFad lane-variable of FusedStokesChain
// (un, g, eps2, mu, strs*, res*) holds one pack for its value and one per
// derivative slot, lane l holding cell c0 + l.  Each operation does, per
// lane and slot, exactly what the ad::SFad operator it replaces does: the
// product rule as a.dx * b.val + a.val * b.dx, pow's scale as
// e * pow(v, e - 1), a passive factor T * SFad as SFad * T, and every sum in
// the scalar chain's association.  So every lane's bits are the scalar
// chain's and the result does not depend on W (the FusedSfadBatched tests
// compare the two byte for byte).
//
// An SFad operator's slot i reads only slot i of its operands and their
// values, so each quadrature point runs in two passes: the values first
// (the pow calls included), then the derivatives slot by slot, which keeps
// one slot's stresses in registers while it is added into all 16 element
// residuals.
//
// Like the scalar chain with U set, the kernel gathers its nodal velocities
// from the global state, and it reads the stored gradBF / wGradBF / wBF.
// Seeding is sparse: the scalar chain seeds un[k][c] along slot 2k + c and
// accumulates g[c][d] += un[k][c] * gb_k over every slot, which leaves
// exactly +0 + gb_k in slot 2k + c and +0 in every other slot (each other
// term is a signed zero, and +0 + -0 = +0) for finite gradients.  The
// kernel writes those slots directly.
//
// A ragged tail loads its dead lanes as zeros and never stores them, so the
// kernel runs over exact cell ranges.

#include <cmath>
#include <cstddef>

#include "ad/sfad.hpp"
#include "physics/fused_chain_batched.hpp"
#include "portability/common.hpp"
#include "portability/simd.hpp"
#include "portability/view.hpp"

namespace mali::physics {

template <int W>
class FusedStokesChainSfadBatched {
 public:
  using Pack = pk::simd<double, W>;
  using ScalarT = ad::SFad<double, 16>;
  static constexpr int kMaxNodes = 8;
  static constexpr int kDeriv = ScalarT::num_deriv;

  // Inputs.
  pk::View<double, 1> U;                ///< global solution
  pk::View<std::size_t, 2> cell_nodes;  ///< (C, N) global node ids
  pk::View<double, 4> gradBF;           ///< (C, N, Q, 3)
  pk::View<double, 4> wGradBF;          ///< (C, N, Q, 3)
  pk::View<double, 3> wBF;              ///< (C, N, Q)
  pk::View<double, 3> force_passive;    ///< (C, Q, 2)
  pk::View<double, 2> flow_factor;      ///< (C, Q) thermal A(T); optional
  // Output.
  pk::View<ScalarT, 3> Residual;  ///< (C, N, 2)

  double glen_A = 1.0e-16;
  double glen_n = 3.0;
  double eps_reg2 = 1.0e-10;
  double constant_mu = 0.0;  ///< > 0 bypasses Glen's law (MMS runs)
  unsigned int numNodes = 8;
  unsigned int numQPs = 8;

  /// Hoists the loop-invariant Glen's-law constants; call once after setting
  /// glen_A / glen_n (same contract as FusedStokesChain::prepare).
  void prepare() {
    coeff_ = 0.5 * std::pow(glen_A, -1.0 / glen_n);
    expo_ = (1.0 - glen_n) / (2.0 * glen_n);
  }

  void operator()(const pk::SimdBatch& b) const {
    MALI_CHECK_MSG(numNodes <= kMaxNodes,
                   "FusedStokesChainSfadBatched supports at most 8 nodes");
    if (b.full()) {
      compute<true>(b.begin, W);
    } else {
      compute<false>(b.begin, b.n_valid);
    }
  }

 private:
  template <bool Full>
  MALI_INLINE Pack load(const double& p, int nv) const {
    return detail::load_lanes<Full, W>(p, nv);
  }

  /// The values of one quadrature point that every derivative slot reads.
  struct Qp {
    const Pack (&g)[2][3];
    Pack s, a00, a11, mu, mu2, dpow, coeff;
    bool glen;
  };

  /// Derivative slot i of the chain, seeded along component Comp with the
  /// gradients gbz (zero unless `seeded`), added into res_dx[..][..][i].
  template <int Comp>
  MALI_INLINE static void derivative_slot(
      const Qp& v, const Pack (&gbz)[3], bool seeded,
      const Pack (&wgb)[kMaxNodes][3], int N,
      Pack (&res_dx)[kMaxNodes][2][kDeriv], int i) {
    const auto& g = v.g;
    Pack dg[2][3];
    for (int d = 0; d < 3; ++d) {
      dg[Comp][d] = seeded ? gbz[d] : Pack::zero();
      dg[1 - Comp][d] = Pack::zero();
    }
    const Pack ds = dg[0][1] + dg[1][0];

    Pack dmu = Pack::zero();
    if (v.glen) {
      const Pack deps2 =
          (dg[0][0] * g[0][0] + g[0][0] * dg[0][0]) +
          (dg[1][1] * g[1][1] + g[1][1] * dg[1][1]) +
          (dg[0][0] * g[1][1] + g[0][0] * dg[1][1]) +
          ((ds * v.s + v.s * ds) + (dg[0][2] * g[0][2] + g[0][2] * dg[0][2]) +
           (dg[1][2] * g[1][2] + g[1][2] * dg[1][2])) *
              0.25;
      dmu = v.dpow * deps2 * v.coeff;
    }
    const Pack dmu2 = dmu * 2.0;
    const Pack dstrs00 = dmu2 * v.a00 + v.mu2 * (dg[0][0] * 2.0 + dg[1][1]);
    const Pack dstrs11 = dmu2 * v.a11 + v.mu2 * (dg[1][1] * 2.0 + dg[0][0]);
    const Pack dstrs01 = dmu * v.s + v.mu * ds;
    const Pack dstrs02 = dmu * g[0][2] + v.mu * dg[0][2];
    const Pack dstrs12 = dmu * g[1][2] + v.mu * dg[1][2];
    for (int k = 0; k < N; ++k) {
      res_dx[k][0][i] += dstrs00 * wgb[k][0] + dstrs01 * wgb[k][1] +
                         dstrs02 * wgb[k][2];
      res_dx[k][1][i] += dstrs01 * wgb[k][0] + dstrs11 * wgb[k][1] +
                         dstrs12 * wgb[k][2];
    }
  }

  template <bool Full>
  void compute(std::size_t c0, int nv) const {
    const auto c = static_cast<int>(c0);
    const bool thermal = flow_factor.allocated();
    const bool glen = !(constant_mu > 0.0);
    const int N = static_cast<int>(numNodes);
    const int Q = static_cast<int>(numQPs);

    // Nodal values, gathered per lane; dead lanes stay zero.
    Pack un[kMaxNodes][2];
    for (int k = 0; k < N; ++k) {
      for (int comp = 0; comp < 2; ++comp) {
        un[k][comp] = Pack::zero();
        for (int l = 0; l < nv; ++l) {
          const std::size_t gnode = cell_nodes(c0 + l, k);
          un[k][comp][l] = U(2 * gnode + static_cast<std::size_t>(comp));
        }
      }
    }

    // The element residuals: res[k][comp] and res_dx[k][comp][slot].
    Pack res[kMaxNodes][2];
    Pack res_dx[kMaxNodes][2][kDeriv];
    for (int k = 0; k < N; ++k) {
      for (int comp = 0; comp < 2; ++comp) {
        res[k][comp] = Pack::zero();
        for (int i = 0; i < kDeriv; ++i) res_dx[k][comp][i] = Pack::zero();
      }
    }

    for (int qp = 0; qp < Q; ++qp) {
      // ---- values ----
      // gbz[k][d] is slot 2k + comp of g[comp][d] (see the header comment).
      Pack gbz[kMaxNodes][3];
      Pack wgb[kMaxNodes][3];
      Pack g[2][3];
      for (int comp = 0; comp < 2; ++comp) {
        for (int d = 0; d < 3; ++d) g[comp][d] = Pack::zero();
      }
      for (int k = 0; k < N; ++k) {
        for (int d = 0; d < 3; ++d) {
          const Pack gb = load<Full>(gradBF(c, k, qp, d), nv);
          g[0][d] += un[k][0] * gb;
          g[1][d] += un[k][1] * gb;
          gbz[k][d] = Pack::zero() + gb;
          wgb[k][d] = load<Full>(wGradBF(c, k, qp, d), nv);
        }
      }
      const Pack s = g[0][1] + g[1][0];

      // Glen's-law viscosity: mu = coeff * pow(eps2 + eps_reg2, expo), with
      // dpow = expo * pow(eps2 + eps_reg2, expo - 1) the pow's slot scale.
      Pack mu = Pack::broadcast(constant_mu);
      Pack dpow = Pack::zero();
      Pack coeff = Pack::broadcast(coeff_);
      if (glen) {
        const Pack eps2 = g[0][0] * g[0][0] + g[1][1] * g[1][1] +
                          g[0][0] * g[1][1] +
                          0.25 * (s * s + g[0][2] * g[0][2] +
                                  g[1][2] * g[1][2]);
        const Pack base = eps2 + eps_reg2;
        if (thermal) {
          coeff = 0.5 * pk::lane_pow(load<Full>(flow_factor(c, qp), nv),
                                     -1.0 / glen_n);
        }
        mu = pk::lane_pow(base, expo_) * coeff;
        dpow = expo_ * pk::lane_pow(base, expo_ - 1.0);
      }

      // Stresses: strs00 = (mu * 2) * a00 with a00 = g00 * 2 + g11, etc.
      const Pack mu2 = mu * 2.0;
      const Pack a00 = g[0][0] * 2.0 + g[1][1];
      const Pack a11 = g[1][1] * 2.0 + g[0][0];
      const Pack strs00 = mu2 * a00;
      const Pack strs11 = mu2 * a11;
      const Pack strs01 = mu * s;
      const Pack strs02 = mu * g[0][2];
      const Pack strs12 = mu * g[1][2];
      const Pack frc0 = load<Full>(force_passive(c, qp, 0), nv);
      const Pack frc1 = load<Full>(force_passive(c, qp, 1), nv);
      for (int k = 0; k < N; ++k) {
        const Pack wbf = load<Full>(wBF(c, k, qp), nv);
        res[k][0] += strs00 * wgb[k][0] + strs01 * wgb[k][1] +
                     strs02 * wgb[k][2] + frc0 * wbf;
        res[k][1] += strs01 * wgb[k][0] + strs11 * wgb[k][1] +
                     strs12 * wgb[k][2] + frc1 * wbf;
      }

      // ---- derivatives, slot by slot ----
      // Slot 2k + comp seeds g[comp][d] with gbz[k][d]; the other component
      // (and every slot of a missing node k >= N) carries +0.
      const Qp v{g, s, a00, a11, mu, mu2, dpow, coeff, glen};
      for (int k = 0; k < kMaxNodes; ++k) {
        const bool seeded = k < N;
        derivative_slot<0>(v, gbz[k], seeded, wgb, N, res_dx, 2 * k);
        derivative_slot<1>(v, gbz[k], seeded, wgb, N, res_dx, 2 * k + 1);
      }
    }

    // Lane l back into cell c0 + l's SFad; dead lanes are never stored.
    for (int k = 0; k < N; ++k) {
      for (int comp = 0; comp < 2; ++comp) {
        for (int l = 0; l < nv; ++l) {
          ScalarT& out = Residual(c0 + l, k, comp);
          out.val() = res[k][comp][l];
          for (int i = 0; i < kDeriv; ++i) {
            out.fastAccessDx(i) = res_dx[k][comp][i][l];
          }
        }
      }
    }
  }

  double coeff_ = 0.5 * std::pow(1.0e-16, -1.0 / 3.0);
  double expo_ = (1.0 - 3.0) / (2.0 * 3.0);
};

}  // namespace mali::physics
