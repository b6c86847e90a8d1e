#include "fem/cell_geometry.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <vector>

#include "fem/hex8.hpp"
#include "fem/quadrature.hpp"
#include "portability/common.hpp"
#include "portability/parallel.hpp"
#include "portability/simd.hpp"

namespace mali::fem {

namespace {

/// 3x3 inverse and determinant.
double invert3(const std::array<std::array<double, 3>, 3>& m,
               std::array<std::array<double, 3>, 3>& inv) {
  const double det =
      m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) -
      m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0]) +
      m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
  const double inv_det = 1.0 / det;
  inv[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_det;
  inv[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_det;
  inv[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_det;
  inv[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_det;
  inv[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_det;
  inv[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_det;
  inv[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_det;
  inv[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_det;
  inv[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_det;
  return det;
}

/// Fills the ghost rows [n_cells, n_cells_padded) of the per-cell arrays
/// with copies of the last real cell so full-width pack loads stay on
/// finite geometry.
void replicate_ghost_cells(GeometryWorkset& ws) {
  const std::size_t C = ws.n_cells;
  const std::size_t Cp = ws.n_cells_padded;
  if (C == 0 || Cp <= C) return;
  const std::size_t src = C - 1;
  const int N = ws.num_nodes;
  const int Q = ws.num_qps;
  for (std::size_t c = C; c < Cp; ++c) {
    for (int k = 0; k < N; ++k) {
      ws.cell_nodes(c, k) = ws.cell_nodes(src, k);
      for (int d = 0; d < 3; ++d) ws.coords(c, k, d) = ws.coords(src, k, d);
      for (int q = 0; q < Q; ++q) {
        ws.wBF(c, k, q) = ws.wBF(src, k, q);
        for (int d = 0; d < 3; ++d) {
          ws.gradBF(c, k, q, d) = ws.gradBF(src, k, q, d);
          ws.wGradBF(c, k, q, d) = ws.wGradBF(src, k, q, d);
        }
      }
    }
    for (int q = 0; q < Q; ++q) ws.detJ(c, q) = ws.detJ(src, q);
  }
}

}  // namespace

std::size_t padded_cells(std::size_t n_cells) {
  return n_cells + static_cast<std::size_t>(pk::kSimdMaxWidth - 1);
}

void validate_workset(const GeometryWorkset& ws) {
  const std::size_t F = ws.n_basal_faces;
  if (F == 0) return;
  MALI_CHECK_MSG(ws.face_nodes > 0 && ws.face_qps > 0,
                 "workset basal side set: non-positive face_nodes/face_qps");
  const auto fn = static_cast<std::size_t>(ws.face_nodes);
  const auto fq = static_cast<std::size_t>(ws.face_qps);
  MALI_CHECK_MSG(ws.basal_face_cell.extent(0) == F &&
                     ws.basal_face_node.extent(0) == F &&
                     ws.basal_wBF.extent(0) == F && ws.basal_beta.extent(0) == F,
                 "workset basal side set: face-count extent mismatch against "
                 "n_basal_faces = " +
                     std::to_string(F));
  MALI_CHECK_MSG(ws.basal_face_node.extent(1) == fn,
                 "workset basal side set: basal_face_node holds " +
                     std::to_string(ws.basal_face_node.extent(1)) +
                     " nodes per face but face_nodes = " +
                     std::to_string(ws.face_nodes));
  MALI_CHECK_MSG(ws.basal_wBF.extent(1) == fn && ws.basal_wBF.extent(2) == fq,
                 "workset basal side set: basal_wBF built as (" +
                     std::to_string(ws.basal_wBF.extent(1)) + ", " +
                     std::to_string(ws.basal_wBF.extent(2)) +
                     ") per face but face_nodes/face_qps say (" +
                     std::to_string(ws.face_nodes) + ", " +
                     std::to_string(ws.face_qps) + ")");
  const int N = ws.num_nodes;
  for (std::size_t f = 0; f < F; ++f) {
    const std::size_t cell = ws.basal_face_cell(f);
    MALI_CHECK_MSG(cell < ws.n_cells,
                   "workset basal side set: face " + std::to_string(f) +
                       " references cell " + std::to_string(cell) +
                       " past n_cells = " + std::to_string(ws.n_cells));
    for (int k = 0; k < ws.face_nodes; ++k) {
      const std::size_t node = ws.basal_face_node(f, k);
      bool found = false;
      for (int j = 0; j < N && !found; ++j) {
        found = ws.cell_nodes(cell, j) == node;
      }
      MALI_CHECK_MSG(found, "workset basal side set: face " +
                                std::to_string(f) + " node " +
                                std::to_string(k) + " (global id " +
                                std::to_string(node) +
                                ") is not a node of owning cell " +
                                std::to_string(cell));
    }
  }
}

GeometryWorkset build_geometry(const mesh::ExtrudedMesh& mesh,
                               const mesh::IceGeometry& geom) {
  GeometryWorkset ws;
  const std::size_t C = mesh.n_cells();
  const std::size_t Cp = padded_cells(C);
  constexpr int N = Hex8Basis::num_nodes;
  const auto qps = gauss_hex(2);
  const int Q = static_cast<int>(qps.size());

  ws.n_cells = C;
  ws.n_cells_padded = Cp;
  ws.num_nodes = N;
  ws.num_qps = Q;
  ws.cell_nodes = pk::View<std::size_t, 2>("cell_nodes", Cp, N);
  ws.coords = pk::View<double, 3>("coords", Cp, N, 3);
  ws.wBF = pk::View<double, 3>("wBF", Cp, N, Q);
  ws.wGradBF = pk::View<double, 4>("wGradBF", Cp, N, Q, 3);
  ws.gradBF = pk::View<double, 4>("gradBF", Cp, N, Q, 3);
  ws.detJ = pk::View<double, 2>("detJ", Cp, Q);

  // Precompute reference basis values/gradients at the quadrature points.
  std::vector<std::array<double, N>> ref_val(static_cast<std::size_t>(Q));
  std::vector<std::array<std::array<double, 3>, N>> ref_grad(
      static_cast<std::size_t>(Q));
  for (int q = 0; q < Q; ++q) {
    for (int k = 0; k < N; ++k) {
      ref_val[q][k] = Hex8Basis::value(k, qps[q].xi, qps[q].eta, qps[q].zeta);
      ref_grad[q][k] =
          Hex8Basis::gradient(k, qps[q].xi, qps[q].eta, qps[q].zeta);
    }
  }

  std::atomic<bool> bad_jacobian{false};
  pk::parallel_for("build_geometry", C, [&](int ci) {
    const auto c = static_cast<std::size_t>(ci);
    std::array<std::array<double, 3>, N> xn{};
    for (int k = 0; k < N; ++k) {
      const std::size_t node = mesh.cell_node(c, k);
      ws.cell_nodes(c, k) = node;
      xn[k] = {mesh.node_x(node), mesh.node_y(node), mesh.node_z(node)};
      for (int d = 0; d < 3; ++d) ws.coords(c, k, d) = xn[k][d];
    }
    for (int q = 0; q < Q; ++q) {
      // J[i][j] = d x_i / d xi_j
      std::array<std::array<double, 3>, 3> J{};
      for (int k = 0; k < N; ++k) {
        for (int i = 0; i < 3; ++i) {
          for (int j = 0; j < 3; ++j) {
            J[i][j] += xn[k][i] * ref_grad[q][k][j];
          }
        }
      }
      std::array<std::array<double, 3>, 3> Jinv{};
      const double det = invert3(J, Jinv);
      if (!(det > 0.0)) bad_jacobian = true;
      ws.detJ(c, q) = det;
      const double w = qps[q].weight * det;
      for (int k = 0; k < N; ++k) {
        ws.wBF(c, k, q) = ref_val[q][k] * w;
        for (int d = 0; d < 3; ++d) {
          // Physical gradient: (J^{-T} grad_ref)_d = sum_j Jinv[j][d] * g[j].
          double g = 0.0;
          for (int j = 0; j < 3; ++j) g += Jinv[j][d] * ref_grad[q][k][j];
          ws.gradBF(c, k, q, d) = g;
          ws.wGradBF(c, k, q, d) = g * w;
        }
      }
    }
  });
  MALI_CHECK_MSG(!bad_jacobian.load(),
                 "degenerate element: non-positive Jacobian determinant");

  // ---- basal side set: bottom faces of layer-0 cells ----
  const auto basal = mesh.basal_cells();
  const std::size_t F = basal.size();
  const auto fqps = gauss_quad(2);
  const int Qf = static_cast<int>(fqps.size());
  ws.n_basal_faces = F;
  ws.face_qps = Qf;
  ws.basal_face_cell = pk::View<std::size_t, 1>("basal_face_cell", F);
  ws.basal_face_node = pk::View<std::size_t, 2>("basal_face_node", F, 4);
  ws.basal_wBF = pk::View<double, 3>("basal_wBF", F, 4, Qf);
  ws.basal_beta = pk::View<double, 1>("basal_beta", F);

  pk::parallel_for("build_basal_faces", F, [&](int fi) {
    const auto f = static_cast<std::size_t>(fi);
    const std::size_t cell = basal[f];
    ws.basal_face_cell(f) = cell;
    std::array<std::array<double, 3>, 4> xn{};
    double cx = 0.0, cy = 0.0;
    for (int k = 0; k < 4; ++k) {
      const std::size_t node = mesh.cell_node(cell, k);  // bottom face = 0..3
      ws.basal_face_node(f, k) = node;
      xn[k] = {mesh.node_x(node), mesh.node_y(node), mesh.node_z(node)};
      cx += 0.25 * xn[k][0];
      cy += 0.25 * xn[k][1];
    }
    ws.basal_beta(f) = geom.basal_friction(cx, cy);
    for (int q = 0; q < Qf; ++q) {
      // Surface measure: |t_xi x t_eta|.
      std::array<double, 3> txi{}, teta{};
      for (int k = 0; k < 4; ++k) {
        const auto g = Quad4Basis::gradient(k, fqps[q].xi, fqps[q].eta);
        for (int d = 0; d < 3; ++d) {
          txi[d] += xn[k][d] * g[0];
          teta[d] += xn[k][d] * g[1];
        }
      }
      const double nx = txi[1] * teta[2] - txi[2] * teta[1];
      const double ny = txi[2] * teta[0] - txi[0] * teta[2];
      const double nz = txi[0] * teta[1] - txi[1] * teta[0];
      const double area = std::sqrt(nx * nx + ny * ny + nz * nz);
      for (int k = 0; k < 4; ++k) {
        ws.basal_wBF(f, k, q) =
            Quad4Basis::value(k, fqps[q].xi, fqps[q].eta) * area *
            fqps[q].weight;
      }
    }
  });

  replicate_ghost_cells(ws);
  validate_workset(ws);
  return ws;
}

}  // namespace mali::fem
