#pragma once
// FusedStokesChain — the evaluator chain collapsed into a single kernel:
// velocity gradient, Glen's-law viscosity, body force and the StokesFOResid
// accumulation computed per cell with every intermediate (Ugrad, mu, force)
// kept in registers.  The intermediate fields never touch memory, which is
// the cross-kernel continuation of the paper's local-accumulation idea.
// Numerically identical to the staged pipeline (asserted in tests).
//
// The nodal velocities come either from a gathered UNodal field or, with U
// and cell_nodes set, straight from the global state: each cell gathers
// (and, for SFad scalars, seeds) its 16 values into registers, so the
// SFad Jacobian keeps no whole-mesh input field at all.

#include <cmath>
#include <cstddef>

#include "ad/scalar_traits.hpp"
#include "portability/common.hpp"
#include "portability/view.hpp"

namespace mali::physics {

template <class ScalarType, template <class, std::size_t> class ViewT = pk::View>
class FusedStokesChain {
 public:
  using ScalarT = ScalarType;
  static constexpr int kMaxNodes = 8;

  // Inputs.
  ViewT<ScalarT, 3> UNodal;        ///< (C, N, 2) gathered solution, or
  pk::View<double, 1> U;           ///< global solution (used when allocated)
  pk::View<std::size_t, 2> cell_nodes;  ///< (C, N) global node ids, with U
  ViewT<double, 4> gradBF;         ///< (C, N, Q, 3)
  ViewT<double, 4> wGradBF;        ///< (C, N, Q, 3)
  ViewT<double, 3> wBF;            ///< (C, N, Q)
  ViewT<double, 3> force_passive;  ///< (C, Q, 2)
  ViewT<double, 2> flow_factor;    ///< (C, Q) thermal A(T); optional
  // Output.
  ViewT<ScalarT, 3> Residual;  ///< (C, N, 2)

  double glen_A = 1.0e-16;
  double glen_n = 3.0;
  double eps_reg2 = 1.0e-10;
  double constant_mu = 0.0;  ///< > 0 bypasses Glen's law (MMS runs)
  unsigned int numNodes = 8;
  unsigned int numQPs = 8;

  /// Hoists the loop-invariant Glen's-law constants out of the per-cell
  /// kernel; call once after setting glen_A / glen_n.  The hoisted values
  /// are computed by the exact expressions the kernel previously evaluated
  /// per cell, so residuals are bitwise identical (pinned in tests).
  void prepare() {
    coeff_ = 0.5 * std::pow(glen_A, -1.0 / glen_n);
    expo_ = (1.0 - glen_n) / (2.0 * glen_n);
  }

  MALI_KERNEL_FUNCTION void operator()(const int& cell) const {
    using std::pow;
    MALI_CHECK_MSG(numNodes <= kMaxNodes,
                   "FusedStokesChain supports at most 8 nodes");
    const bool thermal = flow_factor.allocated();

    // Nodal values: each read exactly once from memory.
    ScalarT un[kMaxNodes][2];
    if (U.allocated()) {
      for (std::size_t node = 0; node < numNodes; ++node) {
        const std::size_t gnode = cell_nodes(cell, node);
        for (int comp = 0; comp < 2; ++comp) {
          un[node][comp] = ad::seeded<ScalarT>(
              U(2 * gnode + static_cast<std::size_t>(comp)),
              static_cast<int>(2 * node) + comp);
        }
      }
    } else {
      for (std::size_t node = 0; node < numNodes; ++node) {
        un[node][0] = UNodal(cell, node, 0);
        un[node][1] = UNodal(cell, node, 1);
      }
    }

    ScalarT res0[kMaxNodes] = {};
    ScalarT res1[kMaxNodes] = {};

    for (std::size_t qp = 0; qp < numQPs; ++qp) {
      // Velocity gradient, in registers.
      ScalarT g[2][3] = {};
      for (std::size_t node = 0; node < numNodes; ++node) {
        for (int d = 0; d < 3; ++d) {
          const double gb = gradBF(cell, node, qp, d);
          g[0][d] += un[node][0] * gb;
          g[1][d] += un[node][1] * gb;
        }
      }

      // Glen's-law viscosity, in registers.  coeff_/expo_ are hoisted to
      // prepare(); the thermal path still pays a per-qp pow because the flow
      // factor A(T) varies per quadrature point.
      const ScalarT eps2 =
          g[0][0] * g[0][0] + g[1][1] * g[1][1] + g[0][0] * g[1][1] +
          0.25 * ((g[0][1] + g[1][0]) * (g[0][1] + g[1][0]) +
                  g[0][2] * g[0][2] + g[1][2] * g[1][2]);
      ScalarT mu;
      if (constant_mu > 0.0) {
        mu = constant_mu;
      } else {
        const double coeff =
            thermal ? 0.5 * pow(flow_factor(cell, qp), -1.0 / glen_n) : coeff_;
        mu = coeff * pow(eps2 + eps_reg2, expo_);
      }

      // Stress components and body force.
      const ScalarT strs00 = 2.0 * mu * (2.0 * g[0][0] + g[1][1]);
      const ScalarT strs11 = 2.0 * mu * (2.0 * g[1][1] + g[0][0]);
      const ScalarT strs01 = mu * (g[0][1] + g[1][0]);
      const ScalarT strs02 = mu * g[0][2];
      const ScalarT strs12 = mu * g[1][2];
      const double frc0 = force_passive(cell, qp, 0);
      const double frc1 = force_passive(cell, qp, 1);

      for (std::size_t node = 0; node < numNodes; ++node) {
        res0[node] += strs00 * wGradBF(cell, node, qp, 0) +
                      strs01 * wGradBF(cell, node, qp, 1) +
                      strs02 * wGradBF(cell, node, qp, 2) +
                      frc0 * wBF(cell, node, qp);
        res1[node] += strs01 * wGradBF(cell, node, qp, 0) +
                      strs11 * wGradBF(cell, node, qp, 1) +
                      strs12 * wGradBF(cell, node, qp, 2) +
                      frc1 * wBF(cell, node, qp);
      }
    }

    for (std::size_t node = 0; node < numNodes; ++node) {
      Residual(cell, node, 0) = res0[node];
      Residual(cell, node, 1) = res1[node];
    }
  }

 private:
  // Hoisted Glen's-law constants (see prepare()).  Initialized for the
  // default glen_A / glen_n so a chain used without prepare() still runs the
  // documented configuration.
  double coeff_ = 0.5 * std::pow(1.0e-16, -1.0 / 3.0);
  double expo_ = (1.0 - 3.0) / (2.0 * 3.0);
};

}  // namespace mali::physics
