#pragma once
// Field evaluators upstream/downstream of the StokesFOResid kernel,
// mirroring Albany's evaluator chain:
//
//   GatherSolution  -> UNodal(C,N,2)       (seeds SFad for the Jacobian)
//   VelocityGradient-> Ugrad(C,Q,2,3)
//   ViscosityFO     -> muLandIce(C,Q)      (Glen's law)
//   [StokesFOResid  -> Residual(C,N,2)]    (see stokes_fo_resid.hpp)
//   BasalFrictionResid adds the basal sliding term to Residual
//   ScatterResidual -> global F (and CRS Jacobian from SFad derivatives)

#include <cmath>
#include <cstddef>

#include "ad/scalar_traits.hpp"
#include "fem/workset.hpp"
#include "physics/flow_law.hpp"
#include "portability/common.hpp"
#include "portability/view.hpp"

namespace mali::physics {

/// Gathers the global solution into element-local nodal values, seeding
/// derivative components for Fad scalar types (node-major: dof = 2*node+c).
template <class ScalarT>
struct GatherSolution {
  pk::View<double, 1> U;                ///< global solution (2 dofs/node)
  pk::View<std::size_t, 2> cell_nodes;  ///< (C, N)
  pk::View<ScalarT, 3> UNodal;          ///< (C, N, 2)
  unsigned int numNodes = 8;

  MALI_KERNEL_FUNCTION void operator()(const int& cell) const {
    for (unsigned int node = 0; node < numNodes; ++node) {
      const std::size_t gnode = cell_nodes(cell, node);
      for (int comp = 0; comp < 2; ++comp) {
        UNodal(cell, node, comp) = ad::seeded<ScalarT>(
            U(2 * gnode + static_cast<std::size_t>(comp)),
            static_cast<int>(2 * node) + comp);
      }
    }
  }
};

/// Ugrad(c,q,comp,d) = sum_n UNodal(c,n,comp) * gradBF(c,n,q,d).
/// Templated on the view template so the gpusim chain analysis can trace it.
template <class ScalarT, template <class, std::size_t> class ViewT = pk::View>
struct VelocityGradient {
  ViewT<ScalarT, 3> UNodal;   ///< (C, N, 2)
  ViewT<double, 4> gradBF;    ///< (C, N, Q, 3)
  ViewT<ScalarT, 4> Ugrad;    ///< (C, Q, 2, 3)
  unsigned int numNodes = 8;
  unsigned int numQPs = 8;

  MALI_KERNEL_FUNCTION void operator()(const int& cell) const {
    for (unsigned int qp = 0; qp < numQPs; ++qp) {
      for (int comp = 0; comp < 2; ++comp) {
        for (int d = 0; d < 3; ++d) {
          ScalarT g(0.0);
          for (unsigned int node = 0; node < numNodes; ++node) {
            g += UNodal(cell, node, comp) * gradBF(cell, node, qp, d);
          }
          Ugrad(cell, qp, comp, d) = g;
        }
      }
    }
  }
};

/// Glen's-law effective viscosity:
///   mu = 1/2 A^{-1/n} (eps_e^2 + eps_reg^2)^{(1-n)/(2n)}
/// with the Blatter–Pattyn effective strain rate
///   eps_e^2 = u_x^2 + v_y^2 + u_x v_y + 1/4 (u_y + v_x)^2
///           + 1/4 u_z^2 + 1/4 v_z^2.
/// The flow-rate factor A is either the uniform `glen_A` or, when the
/// `flow_factor` view is allocated, a per-quadrature-point field (the
/// temperature-dependent Paterson–Budd factor).
template <class ScalarT, template <class, std::size_t> class ViewT = pk::View>
struct ViscosityFO {
  ViewT<ScalarT, 4> Ugrad;          ///< (C, Q, 2, 3)
  ViewT<ScalarT, 2> muLandIce;      ///< (C, Q)
  pk::View<double, 2> flow_factor;  ///< (C, Q) optional A(T) field
  double glen_A = 1.0e-16;
  double glen_n = 3.0;
  double eps_reg2 = 1.0e-10;
  unsigned int numQPs = 8;
  /// > 0: bypass Glen's law with a constant viscosity (linear operator,
  /// used by the manufactured-solution verification).
  double constant_mu = 0.0;

  MALI_KERNEL_FUNCTION void operator()(const int& cell) const {
    using std::pow;
    if (constant_mu > 0.0) {
      for (unsigned int qp = 0; qp < numQPs; ++qp) {
        muLandIce(cell, qp) = ScalarT(constant_mu);
      }
      return;
    }
    const bool thermal = flow_factor.allocated();
    const double coeff0 = 0.5 * pow(glen_A, -1.0 / glen_n);
    const double expo = (1.0 - glen_n) / (2.0 * glen_n);
    for (unsigned int qp = 0; qp < numQPs; ++qp) {
      const double coeff =
          thermal ? 0.5 * pow(flow_factor(cell, qp), -1.0 / glen_n) : coeff0;
      const ScalarT ux = Ugrad(cell, qp, 0, 0);
      const ScalarT uy = Ugrad(cell, qp, 0, 1);
      const ScalarT uz = Ugrad(cell, qp, 0, 2);
      const ScalarT vx = Ugrad(cell, qp, 1, 0);
      const ScalarT vy = Ugrad(cell, qp, 1, 1);
      const ScalarT vz = Ugrad(cell, qp, 1, 2);
      const ScalarT eps2 = ux * ux + vy * vy + ux * vy +
                           0.25 * ((uy + vx) * (uy + vx) + uz * uz + vz * vz);
      muLandIce(cell, qp) = coeff * pow(eps2 + eps_reg2, expo);
    }
  }
};

/// Copies the (passive) driving-stress body force into the ScalarT-typed
/// field the residual kernel consumes: f = rho g grad(s) at each qp.
template <class ScalarT, template <class, std::size_t> class ViewT = pk::View>
struct BodyForceFO {
  ViewT<double, 3> force_passive;  ///< (C, Q, 2) precomputed rho*g*grad(s)
  ViewT<ScalarT, 3> force;         ///< (C, Q, 2)
  unsigned int numQPs = 8;

  MALI_KERNEL_FUNCTION void operator()(const int& cell) const {
    for (unsigned int qp = 0; qp < numQPs; ++qp) {
      force(cell, qp, 0) = ScalarT(force_passive(cell, qp, 0));
      force(cell, qp, 1) = ScalarT(force_passive(cell, qp, 1));
    }
  }
};

/// Adds the basal sliding term  int_basal tau_b(u) . phi  to the residual
/// of layer-0 cells.  Face-local node k is cell-local node k (bottom face),
/// whose velocity is gathered from U (seeded for Fad scalars, as
/// GatherSolution seeds it).  The sliding law is configurable: linear (the
/// paper's test) or Weertman power law, with the friction factor
/// differentiated through ScalarT.  Each face writes only its own cell's
/// rows, so faces of distinct cells may run concurrently.
template <class ScalarT>
struct BasalFrictionResid {
  pk::View<std::size_t, 1> basal_face_cell;  ///< (F)
  pk::View<double, 3> basal_wBF;             ///< (F, 4, Qf)
  pk::View<double, 1> basal_beta;            ///< (F)
  pk::View<double, 1> U;                     ///< global solution
  pk::View<std::size_t, 2> cell_nodes;       ///< (C, N)
  pk::View<ScalarT, 3> Residual;             ///< (C, N, 2)
  /// Reference QUAD4 basis values at the face quadrature points (k, q).
  pk::View<double, 2> face_BF;
  unsigned int faceQPs = 4;
  SlidingConfig sliding{};

  MALI_KERNEL_FUNCTION void operator()(const int& face) const {
    const std::size_t cell = basal_face_cell(face);
    ScalarT ul[4][2];
    for (int k = 0; k < 4; ++k) {
      const std::size_t gnode = cell_nodes(cell, k);
      for (int comp = 0; comp < 2; ++comp) {
        ul[k][comp] = ad::seeded<ScalarT>(
            U(2 * gnode + static_cast<std::size_t>(comp)), 2 * k + comp);
      }
    }
    for (unsigned int qp = 0; qp < faceQPs; ++qp) {
      ScalarT uq(0.0), vq(0.0);
      for (int k = 0; k < 4; ++k) {
        uq += ul[k][0] * face_BF(k, qp);
        vq += ul[k][1] * face_BF(k, qp);
      }
      const ScalarT friction =
          friction_factor(sliding, basal_beta(face), uq, vq);
      for (int k = 0; k < 4; ++k) {
        const double w = basal_wBF(face, k, qp);
        Residual(cell, k, 0) += friction * uq * w;
        Residual(cell, k, 1) += friction * vq * w;
      }
    }
  }
};

}  // namespace mali::physics
