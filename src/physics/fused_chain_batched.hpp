#pragma once
// FusedStokesChainBatched — the SIMD element-batched form of the fused
// residual chain.  Where FusedStokesChain streams precomputed gradBF /
// wGradBF / wBF arrays (~480 doubles per cell, bandwidth-bound), the batched
// kernel reads only nodal coordinates, nodal velocities and the per-qp body
// force (~70 doubles per cell) and recomputes the isoparametric geometry in
// pack registers, so every lane-variable (un, g, mu, strs, ...) holds W
// neighbouring cells.  That trade-FLOPs-for-bytes step plus the W-wide
// lanes is the measured source of the >= 1.5x fused-residual speedup
// bench_simd_batch gates on.
//
// Numerics: the recomputed geometry replicates fem/cell_geometry.cpp
// operation for operation, and every downstream sum mirrors
// FusedStokesChain's association term by term, so a lane's arithmetic is
// the scalar kernel's and the result does not depend on W.  Against the
// staged StokesFOResid chain (the `--simd off` reference) the contract is
// <= 1e-14 per dof: on thin, wide ice cells the per-dof accumulation
// cancels ~2 orders of magnitude, so any reassociation would amplify ulp
// noise past it.
//
// LayoutLeft puts the W cells of a batch contiguous in memory, so loads /
// stores are plain full-width moves; ragged tails use load_n / store_n on
// the valid lanes (dead lanes compute on zeros and are never stored).

#include <cmath>
#include <cstddef>

#include "portability/common.hpp"
#include "portability/simd.hpp"
#include "portability/view.hpp"

namespace mali::physics {

namespace detail {

/// W contiguous lanes: a full-width load, or lanes [0, nv) with the dead
/// lanes of a ragged tail zero-filled.
template <bool Full, int W>
MALI_INLINE pk::simd<double, W> load_lanes(const double& p, int nv) {
  if constexpr (Full) {
    (void)nv;
    return pk::simd<double, W>::load(&p);
  } else {
    return pk::simd<double, W>::load_n(&p, nv);
  }
}

/// Inverse Jacobian `inv` of the isoparametric map at quadrature point qp,
/// from the nodal coordinate packs xn[k][i]; returns its determinant.
/// Replicates fem/cell_geometry.cpp operation for operation (same J
/// accumulation order, same cofactor expansion as its invert3), so every
/// lane reproduces the stored geometry bitwise.
template <int W>
MALI_INLINE pk::simd<double, W> invert_map_jacobian(
    const pk::simd<double, W> (&xn)[8][3], int N,
    const pk::View<double, 3>& ref_grad, int qp,
    pk::simd<double, W> (&inv)[3][3]) {
  using Pack = pk::simd<double, W>;
  Pack J[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) J[i][j] = Pack::zero();
  }
  for (int k = 0; k < N; ++k) {
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) J[i][j] += xn[k][i] * ref_grad(qp, k, j);
    }
  }
  const Pack det = J[0][0] * (J[1][1] * J[2][2] - J[1][2] * J[2][1]) -
                   J[0][1] * (J[1][0] * J[2][2] - J[1][2] * J[2][0]) +
                   J[0][2] * (J[1][0] * J[2][1] - J[1][1] * J[2][0]);
  const Pack inv_det = 1.0 / det;
  inv[0][0] = (J[1][1] * J[2][2] - J[1][2] * J[2][1]) * inv_det;
  inv[0][1] = (J[0][2] * J[2][1] - J[0][1] * J[2][2]) * inv_det;
  inv[0][2] = (J[0][1] * J[1][2] - J[0][2] * J[1][1]) * inv_det;
  inv[1][0] = (J[1][2] * J[2][0] - J[1][0] * J[2][2]) * inv_det;
  inv[1][1] = (J[0][0] * J[2][2] - J[0][2] * J[2][0]) * inv_det;
  inv[1][2] = (J[0][2] * J[1][0] - J[0][0] * J[1][2]) * inv_det;
  inv[2][0] = (J[1][0] * J[2][1] - J[1][1] * J[2][0]) * inv_det;
  inv[2][1] = (J[0][1] * J[2][0] - J[0][0] * J[2][1]) * inv_det;
  inv[2][2] = (J[0][0] * J[1][1] - J[0][1] * J[1][0]) * inv_det;
  return det;
}

}  // namespace detail

template <int W>
class FusedStokesChainBatched {
 public:
  using Pack = pk::simd<double, W>;
  static constexpr int kMaxNodes = 8;
  static constexpr int width = W;

  // Inputs.
  pk::View<double, 3> UNodal;        ///< (C, N, 2) gathered solution
  pk::View<double, 3> coords;        ///< (C, N, 3) nodal coordinates
  pk::View<double, 3> ref_grad;      ///< (Q, N, 3) reference basis gradients
  pk::View<double, 2> ref_val;       ///< (Q, N) reference basis values
  pk::View<double, 1> qp_weight;     ///< (Q) quadrature weights
  pk::View<double, 3> force_passive; ///< (C, Q, 2)
  pk::View<double, 2> flow_factor;   ///< (C, Q) thermal A(T); optional
  // Output.
  pk::View<double, 3> Residual;  ///< (C, N, 2)

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
                   "FusedStokesChainBatched supports at most 8 nodes");
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

  template <bool Full>
  void compute(std::size_t c0, int nv) const {
    using std::pow;
    const auto c = static_cast<int>(c0);
    const bool thermal = flow_factor.allocated();
    const int N = static_cast<int>(numNodes);
    const int Q = static_cast<int>(numQPs);

    // Nodal packs: lane l holds cell c0 + l.  Dead lanes of a ragged tail
    // are zero-filled; they produce garbage (det = 0) that never reaches
    // memory because the stores below are lane-masked.
    Pack un[kMaxNodes][2];
    Pack xn[kMaxNodes][3];
    for (int k = 0; k < N; ++k) {
      un[k][0] = load<Full>(UNodal(c, k, 0), nv);
      un[k][1] = load<Full>(UNodal(c, k, 1), nv);
      for (int d = 0; d < 3; ++d) xn[k][d] = load<Full>(coords(c, k, d), nv);
    }

    Pack res0[kMaxNodes];
    Pack res1[kMaxNodes];
    for (int k = 0; k < N; ++k) {
      res0[k] = Pack::zero();
      res1[k] = Pack::zero();
    }

    for (int qp = 0; qp < Q; ++qp) {
      Pack inv[3][3];
      const Pack det = detail::invert_map_jacobian<W>(xn, N, ref_grad, qp, inv);
      const Pack w = qp_weight(qp) * det;

      // Physical gradients + velocity gradient, in the scalar kernel's
      // node-major order: gb[k][d] reproduces the stored gradBF bitwise,
      // wgb/wbf reproduce wGradBF/wBF, and g accumulates exactly as
      // FusedStokesChain's node loop does.
      Pack wgb[kMaxNodes][3];
      Pack wbf[kMaxNodes];
      Pack g[2][3];
      for (int comp = 0; comp < 2; ++comp) {
        for (int d = 0; d < 3; ++d) g[comp][d] = Pack::zero();
      }
      for (int k = 0; k < N; ++k) {
        wbf[k] = ref_val(qp, k) * w;
        for (int d = 0; d < 3; ++d) {
          Pack gb = Pack::zero();
          for (int j = 0; j < 3; ++j) gb += inv[j][d] * ref_grad(qp, k, j);
          wgb[k][d] = gb * w;
          g[0][d] += un[k][0] * gb;
          g[1][d] += un[k][1] * gb;
        }
      }

      // Glen's-law viscosity (W lanes; pow is the per-lane serial part).
      const Pack eps2 =
          g[0][0] * g[0][0] + g[1][1] * g[1][1] + g[0][0] * g[1][1] +
          0.25 * ((g[0][1] + g[1][0]) * (g[0][1] + g[1][0]) +
                  g[0][2] * g[0][2] + g[1][2] * g[1][2]);
      Pack mu;
      if (constant_mu > 0.0) {
        mu = Pack::broadcast(constant_mu);
      } else if (thermal) {
        const Pack coeff =
            0.5 * pk::lane_pow(load<Full>(flow_factor(c, qp), nv),
                               -1.0 / glen_n);
        mu = coeff * pk::lane_pow(eps2 + eps_reg2, expo_);
      } else {
        mu = coeff_ * pk::lane_pow(eps2 + eps_reg2, expo_);
      }

      // Stress components and body force, as in FusedStokesChain.
      const Pack strs00 = 2.0 * mu * (2.0 * g[0][0] + g[1][1]);
      const Pack strs11 = 2.0 * mu * (2.0 * g[1][1] + g[0][0]);
      const Pack strs01 = mu * (g[0][1] + g[1][0]);
      const Pack strs02 = mu * g[0][2];
      const Pack strs12 = mu * g[1][2];
      const Pack frc0 = load<Full>(force_passive(c, qp, 0), nv);
      const Pack frc1 = load<Full>(force_passive(c, qp, 1), nv);

      for (int k = 0; k < N; ++k) {
        res0[k] += strs00 * wgb[k][0] + strs01 * wgb[k][1] +
                   strs02 * wgb[k][2] + frc0 * wbf[k];
        res1[k] += strs01 * wgb[k][0] + strs11 * wgb[k][1] +
                   strs12 * wgb[k][2] + frc1 * wbf[k];
      }
    }

    for (int k = 0; k < N; ++k) {
      if constexpr (Full) {
        res0[k].store(&Residual(c, k, 0));
        res1[k].store(&Residual(c, k, 1));
      } else {
        res0[k].store_n(&Residual(c, k, 0), nv);
        res1[k].store_n(&Residual(c, k, 1), nv);
      }
    }
  }

  double coeff_ = 0.5 * std::pow(1.0e-16, -1.0 / 3.0);
  double expo_ = (1.0 - 3.0) / (2.0 * 3.0);
};

}  // namespace mali::physics
