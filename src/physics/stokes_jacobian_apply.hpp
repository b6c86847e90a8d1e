#pragma once
// Matrix-free Blatter–Pattyn Jacobian apply:  v ↦ J(U)·v  per element, with
// no global matrix ever formed.
//
// The assembled path streams the CRS Jacobian (nnz·(value + column index)
// plus the row pointer) through GMRES every iteration — the dominant
// steady-state HBM traffic in the paper's time-oriented model.  The tangent
// kernel below replaces that stream with a fused per-cell evaluation that
// reads only the solution, the direction, the connectivity, and the nodal
// coordinates, and *recomputes* the cell geometry (Jacobian of the
// isoparametric map, its inverse, the physical basis gradients) in
// registers instead of streaming the precomputed wGradBF/wBF arrays.  That
// classic trade-FLOPs-for-bytes step is what makes the modeled
// bytes/GMRES-iteration strictly smaller than the assembled SpMV (see
// perf/data_movement.hpp).
//
// Differentiation: one-directional forward AD, W cells per pack.  `FadPack`
// is the batched SFad<1> — a {val, dot} pair of pk::simd packs whose
// operators apply the scalar SFad derivative formulas lane-wise.  Each nodal
// value is seeded as { U_l, dot = x_l }, so after running the *same*
// residual arithmetic as the assembled chain (GatherSolution →
// VelocityGradient → ViscosityFO → StokesFOResid stress terms →
// BasalFrictionResid), the element residual's derivative IS the element
// tangent (J_e · x_e).  The passive body force drops out (zero derivative),
// and the geometry recomputation replicates fem/cell_geometry.cpp operation
// for operation, so the physical gradients are bitwise identical to the
// stored gradBF/wGradBF.  Every sum keeps one association regardless of W —
// the per-dof accumulation cancels heavily on real ice cells and any
// reassociation would amplify ulp noise — so W = 1 is the scalar reference
// and wider packs match it to <= 1e-14 per dof (tests/test_simd_batch.cpp).
// Agreement with the assembled SpMV is limited only by FP reassociation of
// the derivative accumulation (tests/test_operator_equivalence.cpp).
//
// The per-cell tangent is written to a plain double Tangent(C, N, 2) view
// and scattered into the global result with scatter_add (serial / colored /
// atomic — the double path, J == nullptr).

#include <cmath>
#include <cstddef>

#include "ad/sfad.hpp"
#include "physics/flow_law.hpp"
#include "physics/fused_chain_batched.hpp"
#include "portability/common.hpp"
#include "portability/simd.hpp"
#include "portability/view.hpp"

namespace mali::physics {

/// Batched SFad<double, 1>: W values and W directional derivatives.  The
/// operator set is the subset the tangent kernel needs, each the lane-wise
/// transcription of ad::SFad's scalar formula.
template <int W>
struct FadPack {
  using Pack = pk::simd<double, W>;

  Pack val;
  Pack dot;

  [[nodiscard]] MALI_INLINE static FadPack zero() {
    return {Pack::zero(), Pack::zero()};
  }
  [[nodiscard]] MALI_INLINE static FadPack constant(double c) {
    return {Pack::broadcast(c), Pack::zero()};
  }

  MALI_INLINE FadPack& operator+=(const FadPack& o) {
    val += o.val;
    dot += o.dot;
    return *this;
  }

  friend MALI_INLINE FadPack operator+(FadPack a, const FadPack& b) {
    return a += b;
  }
  friend MALI_INLINE FadPack operator+(const FadPack& a, double b) {
    return {a.val + b, a.dot};
  }
  friend MALI_INLINE FadPack operator*(const FadPack& a, const FadPack& b) {
    return {a.val * b.val, a.dot * b.val + a.val * b.dot};
  }
  friend MALI_INLINE FadPack operator*(double a, const FadPack& b) {
    return {a * b.val, a * b.dot};
  }
  friend MALI_INLINE FadPack operator*(const Pack& a, const FadPack& b) {
    return {a * b.val, a * b.dot};
  }
  friend MALI_INLINE FadPack operator*(const FadPack& a, const Pack& b) {
    return {a.val * b, a.dot * b};
  }

  /// d/dx pow(a, e) = e * a^(e-1) * a', as in ad::SFad's pow.
  friend MALI_INLINE FadPack pow(const FadPack& a, double e) {
    FadPack r;
    r.val = pk::lane_pow(a.val, e);
    const Pack scale = e * pk::lane_pow(a.val, e - 1.0);
    r.dot = scale * a.dot;
    return r;
  }
};

/// Fused per-cell tangent: writes (does not accumulate into)
/// Tangent(cell, node, comp) = (J_e · x_e)(node, comp) for W cells per
/// dispatch; the passive force term contributes nothing to the Jacobian.
/// Batches with dead lanes (ragged tail) compute on zero-filled lanes and
/// mask the stores.
template <int W>
class StokesFOTangentBatched {
 public:
  using Pack = pk::simd<double, W>;
  using Fad = FadPack<W>;
  static constexpr int kMaxNodes = 8;
  static constexpr int width = W;

  // Cell-range inputs (windowed to the workset by the caller).
  pk::View<std::size_t, 2> cell_nodes;  ///< (C, N)
  pk::View<double, 3> coords;           ///< (C, N, 3)
  pk::View<double, 2> flow_factor;      ///< (C, Q) optional A(T) field
  // Global vectors.
  pk::View<double, 1> U;  ///< linearization state (2 dofs/node)
  pk::View<double, 1> X;  ///< direction
  // Reference element data (shared across cells; stays in cache).
  pk::View<double, 3> ref_grad;   ///< (Q, N, 3)
  pk::View<double, 1> qp_weight;  ///< (Q)
  // Output.
  pk::View<double, 3> Tangent;  ///< (C, N, 2)

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

  void operator()(const pk::SimdBatch& b) const {
    MALI_CHECK_MSG(numNodes <= kMaxNodes,
                   "StokesFOTangentBatched supports at most 8 nodes");
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
    const auto c = static_cast<int>(c0);
    const bool thermal = flow_factor.allocated();
    const int N = numNodes;
    const int Q = numQPs;

    // Gather: the dof indirection is per-lane scalar (gather hardware is
    // not assumed); coordinates are contiguous pack loads.
    Fad Ul[kMaxNodes][2];
    Pack xn[kMaxNodes][3];
    for (int k = 0; k < N; ++k) {
      for (int comp = 0; comp < 2; ++comp) {
        Fad& f = Ul[k][comp];
        f = Fad::zero();
        for (int l = 0; l < nv; ++l) {
          const std::size_t gnode = cell_nodes(c + l, k);
          const std::size_t dof = 2 * gnode + static_cast<std::size_t>(comp);
          f.val[l] = U(dof);
          f.dot[l] = X(dof);
        }
      }
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

      // Physical basis gradients g[k][d] == gradBF(c, k, qp, d), all nodes
      // before the velocity gradient.
      Pack g[kMaxNodes][3];
      for (int k = 0; k < N; ++k) {
        for (int d = 0; d < 3; ++d) {
          Pack s = Pack::zero();
          for (int j = 0; j < 3; ++j) s += inv[j][d] * ref_grad(qp, k, j);
          g[k][d] = s;
        }
      }

      // Velocity gradient (active), same contraction as VelocityGradient:
      // comp-major, d, then the node sum innermost.
      Fad Ugrad[2][3];
      for (int comp = 0; comp < 2; ++comp) {
        for (int d = 0; d < 3; ++d) {
          Fad acc = Fad::zero();
          for (int k = 0; k < N; ++k) acc += Ul[k][comp] * g[k][d];
          Ugrad[comp][d] = acc;
        }
      }

      Fad mu;
      if (constant_mu > 0.0) {
        mu = Fad::constant(constant_mu);
      } else {
        const Fad eps2 =
            Ugrad[0][0] * Ugrad[0][0] + Ugrad[1][1] * Ugrad[1][1] +
            Ugrad[0][0] * Ugrad[1][1] +
            0.25 * ((Ugrad[0][1] + Ugrad[1][0]) * (Ugrad[0][1] + Ugrad[1][0]) +
                    Ugrad[0][2] * Ugrad[0][2] + Ugrad[1][2] * Ugrad[1][2]);
        const Fad powed = pow(eps2 + eps_reg2, expo_);
        if (thermal) {
          const Pack ff = load<Full>(flow_factor(c, qp), nv);
          const Pack coeff = 0.5 * pk::lane_pow(ff, -1.0 / glen_n);
          mu = coeff * powed;
        } else {
          mu = coeff_ * powed;
        }
      }

      const Fad strs00 = 2.0 * mu * (2.0 * Ugrad[0][0] + Ugrad[1][1]);
      const Fad strs11 = 2.0 * mu * (2.0 * Ugrad[1][1] + Ugrad[0][0]);
      const Fad strs01 = mu * (Ugrad[1][0] + Ugrad[0][1]);
      const Fad strs02 = mu * Ugrad[0][2];
      const Fad strs12 = mu * Ugrad[1][2];

      // Only the directional derivative reaches the output; wGradBF == g*w.
      // Body force: passive (independent of U) — zero tangent, skipped.
      for (int k = 0; k < N; ++k) {
        res0[k] += strs00.dot * (g[k][0] * w) + strs01.dot * (g[k][1] * w) +
                   strs02.dot * (g[k][2] * w);
        res1[k] += strs01.dot * (g[k][0] * w) + strs11.dot * (g[k][1] * w) +
                   strs12.dot * (g[k][2] * w);
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

  double coeff_ = 0.5 * std::pow(1.0e-16, -1.0 / 3.0);
  double expo_ = (1.0 - 3.0) / (2.0 * 3.0);
};

/// Tangent of the basal sliding residual: accumulates d/dx of
/// friction(u)·u · wBF into the Tangent view of layer-0 cells.  Face-local
/// node k is cell-local node k (bottom face), exactly as in
/// BasalFrictionResid.  Run serially over faces, mirroring the assembled
/// chain (multiple faces never share a cell, but the serial order keeps the
/// accumulation deterministic and identical to the assembled path).
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
