#pragma once
// Matrix-free Blatter–Pattyn Jacobian apply:  v ↦ J(U)·v  per element, with
// no global matrix ever formed, split into two kernels.
//
//   StokesFOTangentLinearize<W>  once per linearization state U: gathers U
//       and the nodal coordinates, rebuilds the isoparametric map in
//       registers (replicating fem/cell_geometry.cpp operation for
//       operation, so the physical gradients are bitwise the stored
//       gradBF), and writes everything the tangent needs that depends only
//       on U into a quadrature-point cache.
//   StokesFOTangentApply<W>      once per Krylov apply: gathers only the
//       direction x, rebuilds g = inv·ref_grad from the cached inverse map,
//       and evaluates the derivative half of the forward-AD residual chain.
//
// The cache is pack-contiguous (AoSoA): one slab per W-cell pack, laid out
// (qp, field, lane), with kTangentFields doubles per quadrature point and
// lane (see tangent_field); thermal runs add the per-qp flow-law
// coefficient.  The trade: each apply streams ~17 doubles per quadrature
// point that could be recomputed from the 5 nodal doubles of coordinates
// and U, and in exchange skips the map inversion, ∇U and the two or three
// pow calls per quadrature point — compute-bound work that would otherwise
// repeat on each of the ~300 applies per Newton step.  (Caching the 24
// physical gradients instead of the 9-entry inverse would skip more work
// but stream more bytes than the assembled SpMV; see perf/data_movement.)
//
// Differentiation: one-directional forward AD.  Each nodal value is
// { U_l, dot = x_l }; running the residual arithmetic (GatherSolution →
// VelocityGradient → ViscosityFO → StokesFOResid stress terms →
// BasalFrictionResid) on such pairs makes the element residual's
// derivative the element tangent (J_e · x_e).  The linearize kernel holds
// the value half; the apply kernel evaluates the derivative half term for
// term in the order of the {val, dot} product rules (a·b)' = a'·b + a·b',
// with every value operand read from the cache — so under
// -ffp-contract=off the split reproduces a single-pass {val, dot}
// forward-AD evaluation bit for bit.  The passive body force drops out (zero derivative).  Every sum
// keeps one association regardless of W — the per-dof accumulation cancels
// heavily on real ice cells and any reassociation would amplify ulp noise —
// so W = 1 is the scalar reference and wider packs match it to <= 1e-14
// per dof (tests/test_simd_batch.cpp).  Agreement with the assembled SpMV
// is limited only by FP reassociation of the derivative accumulation
// (tests/test_operator_equivalence.cpp).
//
// The per-cell tangent is written to a plain double Tangent(C, N, 2) view
// and scattered into the global result with scatter_add (serial / colored —
// the double path, J == nullptr).

#include <cmath>
#include <cstddef>

#include "ad/sfad.hpp"
#include "physics/flow_law.hpp"
#include "physics/fused_chain_batched.hpp"
#include "portability/common.hpp"
#include "portability/simd.hpp"
#include "portability/view.hpp"

namespace mali::physics {

/// Field slots of one quadrature point in the tangent cache.
namespace tangent_field {
constexpr int kInv = 0;     ///< 9: inverse map Jacobian, inv[j][d] at 3j + d
constexpr int kW = 9;       ///< qp_weight · det
constexpr int kDuDx = 10;   ///< ∂u/∂x
constexpr int kDvDy = 11;   ///< ∂v/∂y
constexpr int kShear = 12;  ///< ∂u/∂y + ∂v/∂x
constexpr int kDuDz = 13;   ///< ∂u/∂z
constexpr int kDvDz = 14;   ///< ∂v/∂z
constexpr int kMu = 15;     ///< viscosity μ
constexpr int kGlen = 16;   ///< e·(ε² + ε_reg²)^(e−1), dμ/dε² without coeff
constexpr int kCoeff = 17;  ///< 0.5·A(T)^(−1/n), flow-factor runs only
}  // namespace tangent_field

/// Doubles per quadrature point and lane: 17 with a uniform flow factor,
/// 18 with a per-qp A(T) field.
constexpr int kTangentFields = 17;
constexpr int kTangentFieldsThermal = 18;

/// Writes the tangent cache of W cells per dispatch: the slab of the pack
/// starting at cell b.begin.  Batches with dead lanes (ragged tail) compute
/// on zero-filled lanes; the slab is whole-pack sized, so those lanes are
/// stored too and never reach an output.
template <int W>
class StokesFOTangentLinearize {
 public:
  using Pack = pk::simd<double, W>;
  static constexpr int kMaxNodes = 8;
  static constexpr int width = W;

  // Cell-range inputs (windowed to the block by the caller).
  pk::View<std::size_t, 2> cell_nodes;  ///< (C, N)
  pk::View<double, 3> coords;           ///< (C, N, 3)
  pk::View<double, 2> flow_factor;      ///< (C, Q) optional A(T) field
  pk::View<double, 1> U;                ///< linearization state (global)
  // Reference element data (shared across cells; stays in cache).
  pk::View<double, 3> ref_grad;   ///< (Q, N, 3)
  pk::View<double, 1> qp_weight;  ///< (Q)
  // Output: packs x Q x fields x W.
  pk::View<double, 1> qp_data;

  double glen_A = 1.0e-16;
  double glen_n = 3.0;
  double eps_reg2 = 1.0e-10;
  double constant_mu = 0.0;  ///< > 0: constant-viscosity bypass
  int numNodes = 8;
  int numQPs = 8;

  /// Hoists the loop-invariant Glen's-law constants (see
  /// FusedStokesChain::prepare for the bitwise contract).
  void prepare() {
    coeff_ = 0.5 * std::pow(glen_A, -1.0 / glen_n);
    expo_ = (1.0 - glen_n) / (2.0 * glen_n);
  }

  /// 0.5·A^(−1/n) of the uniform flow factor (valid after prepare()).
  [[nodiscard]] double coeff() const noexcept { return coeff_; }

  void operator()(const pk::SimdBatch& b) const {
    MALI_CHECK_MSG(numNodes <= kMaxNodes,
                   "StokesFOTangentLinearize supports at most 8 nodes");
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
    namespace F = tangent_field;
    const auto c = static_cast<int>(c0);
    const bool thermal = flow_factor.allocated();
    const int N = numNodes;
    const int Q = numQPs;
    const int fields = thermal ? kTangentFieldsThermal : kTangentFields;
    double* slab = qp_data.data() + c0 * static_cast<std::size_t>(Q * fields);

    // Gather: the dof indirection is per-lane scalar (gather hardware is
    // not assumed); coordinates are contiguous pack loads.
    Pack un[kMaxNodes][2];
    Pack xn[kMaxNodes][3];
    for (int k = 0; k < N; ++k) {
      for (int comp = 0; comp < 2; ++comp) {
        Pack& u = un[k][comp];
        u = Pack::zero();
        for (int l = 0; l < nv; ++l) {
          const std::size_t gnode = cell_nodes(c + l, k);
          u[l] = U(2 * gnode + static_cast<std::size_t>(comp));
        }
      }
      for (int d = 0; d < 3; ++d) xn[k][d] = load<Full>(coords(c, k, d), nv);
    }

    for (int qp = 0; qp < Q; ++qp) {
      double* f = slab + static_cast<std::size_t>(qp * fields * W);
      auto put = [f](int field, const Pack& v) { v.store(f + field * W); };

      Pack inv[3][3];
      const Pack det = detail::invert_map_jacobian<W>(xn, N, ref_grad, qp, inv);
      for (int j = 0; j < 3; ++j) {
        for (int d = 0; d < 3; ++d) put(F::kInv + 3 * j + d, inv[j][d]);
      }
      put(F::kW, qp_weight(qp) * det);

      // Physical basis gradients g[k][d] == gradBF(c, k, qp, d).
      Pack g[kMaxNodes][3];
      for (int k = 0; k < N; ++k) {
        for (int d = 0; d < 3; ++d) {
          Pack s = Pack::zero();
          for (int j = 0; j < 3; ++j) s += inv[j][d] * ref_grad(qp, k, j);
          g[k][d] = s;
        }
      }

      // Velocity gradient, same contraction as VelocityGradient: comp-major,
      // d, then the node sum innermost.
      Pack Ugrad[2][3];
      for (int comp = 0; comp < 2; ++comp) {
        for (int d = 0; d < 3; ++d) {
          Pack acc = Pack::zero();
          for (int k = 0; k < N; ++k) acc += un[k][comp] * g[k][d];
          Ugrad[comp][d] = acc;
        }
      }
      const Pack shear = Ugrad[0][1] + Ugrad[1][0];
      put(F::kDuDx, Ugrad[0][0]);
      put(F::kDvDy, Ugrad[1][1]);
      put(F::kShear, shear);
      put(F::kDuDz, Ugrad[0][2]);
      put(F::kDvDz, Ugrad[1][2]);

      if (constant_mu > 0.0) {
        put(F::kMu, Pack::broadcast(constant_mu));
        put(F::kGlen, Pack::zero());
      } else {
        const Pack eps2 = Ugrad[0][0] * Ugrad[0][0] +
                          Ugrad[1][1] * Ugrad[1][1] +
                          Ugrad[0][0] * Ugrad[1][1] +
                          0.25 * (shear * shear + Ugrad[0][2] * Ugrad[0][2] +
                                  Ugrad[1][2] * Ugrad[1][2]);
        const Pack base = eps2 + eps_reg2;
        const Pack powed = pk::lane_pow(base, expo_);
        put(F::kGlen, expo_ * pk::lane_pow(base, expo_ - 1.0));
        if (thermal) {
          const Pack ff = load<Full>(flow_factor(c, qp), nv);
          const Pack coeff = 0.5 * pk::lane_pow(ff, -1.0 / glen_n);
          put(F::kMu, coeff * powed);
          put(F::kCoeff, coeff);
        } else {
          put(F::kMu, coeff_ * powed);
        }
      }
    }
  }

  double coeff_ = 0.5 * std::pow(1.0e-16, -1.0 / 3.0);
  double expo_ = (1.0 - 3.0) / (2.0 * 3.0);
};

/// Dot-only tangent apply: writes (does not accumulate into)
/// Tangent(cell, node, comp) = (J_e · x_e)(node, comp) for W cells per
/// dispatch from the cache StokesFOTangentLinearize<W> wrote.  Batches
/// with dead lanes compute on zero-filled lanes and mask the stores.
template <int W>
class StokesFOTangentApply {
 public:
  using Pack = pk::simd<double, W>;
  static constexpr int kMaxNodes = 8;
  static constexpr int width = W;

  pk::View<std::size_t, 2> cell_nodes;  ///< (C, N) windowed
  pk::View<double, 1> X;                ///< direction (global)
  pk::View<double, 3> ref_grad;         ///< (Q, N, 3)
  pk::View<double, 1> qp_data;          ///< the linearize kernel's output
  // Output.
  pk::View<double, 3> Tangent;  ///< (C, N, 2)

  /// Per-qp coefficient slot present (a flow-factor field was cached).
  bool thermal = false;
  /// Constant viscosity: μ is passive, so its derivative is zero.
  bool constant_mu = false;
  /// 0.5·A^(−1/n) of the uniform flow factor (unused when thermal).
  double coeff = 0.0;
  int numNodes = 8;
  int numQPs = 8;

  void operator()(const pk::SimdBatch& b) const {
    MALI_CHECK_MSG(numNodes <= kMaxNodes,
                   "StokesFOTangentApply supports at most 8 nodes");
    if (b.full()) {
      compute<true>(b.begin, W);
    } else {
      compute<false>(b.begin, b.n_valid);
    }
  }

 private:
  template <bool Full>
  void compute(std::size_t c0, int nv) const {
    namespace F = tangent_field;
    const auto c = static_cast<int>(c0);
    const int N = numNodes;
    const int Q = numQPs;
    const int fields = thermal ? kTangentFieldsThermal : kTangentFields;
    const double* slab =
        qp_data.data() + c0 * static_cast<std::size_t>(Q * fields);

    Pack xl[kMaxNodes][2];
    for (int k = 0; k < N; ++k) {
      for (int comp = 0; comp < 2; ++comp) {
        Pack& x = xl[k][comp];
        x = Pack::zero();
        for (int l = 0; l < nv; ++l) {
          const std::size_t gnode = cell_nodes(c + l, k);
          x[l] = X(2 * gnode + static_cast<std::size_t>(comp));
        }
      }
    }

    Pack res0[kMaxNodes];
    Pack res1[kMaxNodes];
    for (int k = 0; k < N; ++k) {
      res0[k] = Pack::zero();
      res1[k] = Pack::zero();
    }

    for (int qp = 0; qp < Q; ++qp) {
      const double* f = slab + static_cast<std::size_t>(qp * fields * W);
      auto get = [f](int field) { return Pack::load(f + field * W); };

      Pack inv[3][3];
      for (int j = 0; j < 3; ++j) {
        for (int d = 0; d < 3; ++d) inv[j][d] = get(F::kInv + 3 * j + d);
      }
      const Pack w = get(F::kW);

      Pack g[kMaxNodes][3];
      for (int k = 0; k < N; ++k) {
        for (int d = 0; d < 3; ++d) {
          Pack s = Pack::zero();
          for (int j = 0; j < 3; ++j) s += inv[j][d] * ref_grad(qp, k, j);
          g[k][d] = s;
        }
      }

      // Derivative of the velocity gradient: (U_k g)' = x_k g.
      Pack dU[2][3];
      for (int comp = 0; comp < 2; ++comp) {
        for (int d = 0; d < 3; ++d) {
          Pack acc = Pack::zero();
          for (int k = 0; k < N; ++k) acc += xl[k][comp] * g[k][d];
          dU[comp][d] = acc;
        }
      }

      // Values at the linearization state.
      const Pack a = get(F::kDuDx);
      const Pack bb = get(F::kDvDy);
      const Pack s = get(F::kShear);
      const Pack cz = get(F::kDuDz);
      const Pack dz = get(F::kDvDz);
      const Pack mu = get(F::kMu);
      const Pack ds = dU[0][1] + dU[1][0];

      // μ' = coeff · (e (ε²+ε_reg²)^(e−1) · (ε²)').
      Pack dmu = Pack::zero();
      if (!constant_mu) {
        const Pack deps2 =
            dU[0][0] * a + a * dU[0][0] + (dU[1][1] * bb + bb * dU[1][1]) +
            (dU[0][0] * bb + a * dU[1][1]) +
            0.25 * ((ds * s + s * ds) + (dU[0][2] * cz + cz * dU[0][2]) +
                    (dU[1][2] * dz + dz * dU[1][2]));
        const Pack dpowed = get(F::kGlen) * deps2;
        dmu = thermal ? get(F::kCoeff) * dpowed : coeff * dpowed;
      }

      // (2μ (2 u_x + v_y))' and friends, as the product rule orders them.
      const Pack mu2 = 2.0 * mu;
      const Pack dmu2 = 2.0 * dmu;
      const Pack dstrs00 = dmu2 * (2.0 * a + bb) +
                           mu2 * (2.0 * dU[0][0] + dU[1][1]);
      const Pack dstrs11 = dmu2 * (2.0 * bb + a) +
                           mu2 * (2.0 * dU[1][1] + dU[0][0]);
      const Pack dstrs01 = dmu * s + mu * ds;
      const Pack dstrs02 = dmu * cz + mu * dU[0][2];
      const Pack dstrs12 = dmu * dz + mu * dU[1][2];

      // wGradBF == g * w.
      for (int k = 0; k < N; ++k) {
        res0[k] += dstrs00 * (g[k][0] * w) + dstrs01 * (g[k][1] * w) +
                   dstrs02 * (g[k][2] * w);
        res1[k] += dstrs01 * (g[k][0] * w) + dstrs11 * (g[k][1] * w) +
                   dstrs12 * (g[k][2] * w);
      }
    }

    for (int k = 0; k < N; ++k) {
      if constexpr (Full) {
        res0[k].store(&Tangent(c, k, 0));
        res1[k].store(&Tangent(c, k, 1));
      } else {
        res0[k].store_n(&Tangent(c, k, 0), nv);
        res1[k].store_n(&Tangent(c, k, 1), nv);
      }
    }
  }
};

/// Tangent of the basal sliding residual: accumulates d/dx of
/// friction(u)·u · wBF into the Tangent view of layer-0 cells.  Face-local
/// node k is cell-local node k (bottom face), exactly as in
/// BasalFrictionResid.  Faces may run in parallel: each writes only its
/// own cell's rows, and no cell owns two faces (attach_basal_faces checks),
/// so the accumulation is deterministic in any order.
struct BasalFrictionTangent {
  using Fad = ad::SFad<double, 1>;

  pk::View<std::size_t, 1> face_cell_local;  ///< (F) cell index in Tangent
  pk::View<double, 3> face_wBF;              ///< (F, 4, Qf)
  pk::View<double, 1> face_beta;             ///< (F)
  pk::View<double, 2> face_BF;               ///< (4, Qf) reference values
  pk::View<std::size_t, 2> cell_nodes;       ///< (C, N) windowed
  pk::View<double, 1> U;                     ///< global state
  pk::View<double, 1> X;                     ///< global direction
  pk::View<double, 3> Tangent;               ///< (C, N, 2), accumulated
  unsigned int faceQPs = 4;
  SlidingConfig sliding{};

  MALI_KERNEL_FUNCTION void operator()(const int& face) const {
    const std::size_t cell = face_cell_local(face);
    Fad Ul[4][2];
    for (int k = 0; k < 4; ++k) {
      const std::size_t gnode = cell_nodes(cell, k);
      for (int comp = 0; comp < 2; ++comp) {
        const std::size_t dof = 2 * gnode + static_cast<std::size_t>(comp);
        Ul[k][comp] = Fad(U(dof));
        Ul[k][comp].fastAccessDx(0) = X(dof);
      }
    }
    for (unsigned int qp = 0; qp < faceQPs; ++qp) {
      Fad uq(0.0), vq(0.0);
      for (int k = 0; k < 4; ++k) {
        uq += Ul[k][0] * face_BF(k, qp);
        vq += Ul[k][1] * face_BF(k, qp);
      }
      const Fad friction = friction_factor(sliding, face_beta(face), uq, vq);
      for (int k = 0; k < 4; ++k) {
        const double w = face_wBF(face, k, qp);
        Tangent(cell, k, 0) += (friction * uq).dx(0) * w;
        Tangent(cell, k, 1) += (friction * vq).dx(0) * w;
      }
    }
  }
};

}  // namespace mali::physics
