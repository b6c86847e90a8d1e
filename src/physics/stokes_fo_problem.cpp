#include "physics/stokes_fo_problem.hpp"

#include <cmath>
#include <string>

#include "fem/cell_geometry.hpp"
#include "fem/hex8.hpp"
#include "fem/quadrature.hpp"
#include "physics/matrix_free_operator.hpp"
#include "portability/parallel.hpp"
#include "portability/simd.hpp"

namespace mali::physics {

const char* to_string(KernelVariant v) {
  switch (v) {
    case KernelVariant::kBaseline:
      return "baseline";
    case KernelVariant::kOptimized:
      return "optimized";
    case KernelVariant::kLoopOptOnly:
      return "loop-opt-only";
    case KernelVariant::kFusedOnly:
      return "fusion-only";
    case KernelVariant::kLocalAccumOnly:
      return "local-accum-only";
  }
  return "unknown";
}

int simd_width_from_string(const std::string& s) {
  if (s == "auto") return 0;
  if (s == "off") return 1;
  int w = -1;
  if (s == "1" || s == "2" || s == "4" || s == "8") w = s[0] - '0';
  MALI_CHECK_MSG(w > 0 && pk::simd_width_valid(w),
                 "--simd expects auto, off, or a width in {1, 2, 4, 8}; got '" +
                     s + "'");
  return w;
}

StokesFOProblem::StokesFOProblem(StokesFOConfig cfg)
    : cfg_(cfg), geom_(cfg.geometry) {
  base_ = std::make_shared<mesh::QuadGrid>(geom_,
                                           mesh::QuadGridConfig{cfg_.dx_m});
  mesh_ = std::make_unique<mesh::ExtrudedMesh>(
      base_, geom_, mesh::ExtrudedMeshConfig{cfg_.n_layers});
  dof_map_ = std::make_unique<fem::DofMap>(*mesh_, cfg_.mms.enabled);
  ws_ = fem::build_geometry(*mesh_, geom_);

  // Driving-stress body force at quadrature points: f = rho g grad(s),
  // evaluated at the qp's horizontal position via the trilinear map.
  const std::size_t C = ws_.n_cells;
  const std::size_t Cp = ws_.n_cells_padded;
  const int N = ws_.num_nodes;
  const int Q = ws_.num_qps;
  elems_.num_nodes = N;
  elems_.num_qps = Q;
  elems_.face_qps = ws_.face_qps;
  elems_.cell_nodes = ws_.cell_nodes;
  elems_.coords = ws_.coords;
  elems_.gradBF = ws_.gradBF;
  elems_.wGradBF = ws_.wGradBF;
  elems_.wBF = ws_.wBF;
  // Padded like the geometry arrays; the zero-initialized ghost rows are
  // loaded (and discarded) by full-width pack loads of the batched chain.
  auto& force_passive = elems_.force_passive;
  force_passive = pk::View<double, 3>("force_passive", Cp, Q, 2);
  const auto qps = fem::gauss_hex(2);
  const double rho_g = cfg_.constants.rho_g();
  if (cfg_.mms.enabled) {
    double fu = 0.0, fv = 0.0;
    mms_forcing(cfg_.mms, fu, fv);
    pk::parallel_for("mms_force", C, [&](int ci) {
      const auto c = static_cast<std::size_t>(ci);
      for (int q = 0; q < Q; ++q) {
        force_passive(c, q, 0) = fu;
        force_passive(c, q, 1) = fv;
      }
    });
  } else {
    pk::parallel_for("body_force", C, [&](int ci) {
      const auto c = static_cast<std::size_t>(ci);
      for (int q = 0; q < Q; ++q) {
        double x = 0.0, y = 0.0;
        for (int k = 0; k < N; ++k) {
          const double bf =
              fem::Hex8Basis::value(k, qps[static_cast<std::size_t>(q)].xi,
                                    qps[static_cast<std::size_t>(q)].eta,
                                    qps[static_cast<std::size_t>(q)].zeta);
          x += bf * ws_.coords(c, k, 0);
          y += bf * ws_.coords(c, k, 1);
        }
        double dsdx = 0.0, dsdy = 0.0;
        geom_.surface_gradient(x, y, dsdx, dsdy);
        force_passive(c, q, 0) = rho_g * dsdx;
        force_passive(c, q, 1) = rho_g * dsdy;
      }
    });
  }

  // Imposed Dirichlet values: zero except in MMS mode, where boundary nodes
  // carry the exact manufactured field.
  dirichlet_values_.assign(n_dofs(), 0.0);
  if (cfg_.mms.enabled) {
    const auto exact = mms_exact();
    for (std::size_t d : dof_map_->dirichlet_dofs()) {
      dirichlet_values_[d] = exact[d];
    }
  }

  // Temperature-dependent flow factor at quadrature points (thermal mode),
  // from the geometry's temperature field.
  if (cfg_.thermal_viscosity) {
    set_temperature_field([this](double x, double y, double sigma) {
      return geom_.temperature(x, y, sigma);
    });
  }

  // Reference HEX8 values/gradients + quadrature weights for the kernels
  // that rebuild the cell geometry in registers (matrix-free tangent and
  // the batched fused chains).
  elems_.ref_grad = pk::View<double, 3>("ref_grad", Q, N, 3);
  elems_.ref_val = pk::View<double, 2>("ref_val", Q, N);
  elems_.qp_weights = pk::View<double, 1>("qp_weights", Q);
  for (int q = 0; q < Q; ++q) {
    const auto& qp = qps[static_cast<std::size_t>(q)];
    elems_.qp_weights(q) = qp.weight;
    for (int k = 0; k < N; ++k) {
      elems_.ref_val(q, k) = fem::Hex8Basis::value(k, qp.xi, qp.eta, qp.zeta);
      const auto grad = fem::Hex8Basis::gradient(k, qp.xi, qp.eta, qp.zeta);
      for (int d = 0; d < 3; ++d) elems_.ref_grad(q, k, d) = grad[d];
    }
  }

  // Reference QUAD4 basis values at the face quadrature points.
  const auto fqps = fem::gauss_quad(2);
  elems_.face_BF = pk::View<double, 2>("face_BF", 4, fqps.size());
  for (int k = 0; k < 4; ++k) {
    for (std::size_t q = 0; q < fqps.size(); ++q) {
      elems_.face_BF(k, q) = fem::Quad4Basis::value(k, fqps[q].xi, fqps[q].eta);
    }
  }

  // Workset blocks: chunk the cells and attach each basal face to the
  // workset owning its cell, with cell ids localized to the chunk.
  const std::size_t ws_size =
      cfg_.workset_size == 0 ? C : std::min(cfg_.workset_size, C);
  for (std::size_t c0 = 0; c0 < C; c0 += ws_size) {
    CellBlock range;
    range.offset = c0;
    range.count = std::min(ws_size, C - c0);
    attach_basal_faces(range, ws_, [](std::size_t cell) { return cell; });
    // Node-sharing coloring of this chunk: cells of one color touch disjoint
    // global rows, so the colored scatter can add without atomics or locks.
    // The lattice parity coloring gives the optimal <= 8 colors on the
    // structured extrusion (greedy first-fit would exceed the node-degree
    // bound across ice-mask holes).
    range.coloring = mesh::lattice_color_cells(*mesh_, c0, range.count);
    blocks_.push_back(std::move(range));
  }

  // Pristine basal friction field, kept so set_basal_friction_scale is a
  // pure function of the scale (beta = scale * beta0, never a chain of
  // in-place rescales that would drift bitwise with call order).
  beta0_global_.resize(ws_.n_basal_faces);
  for (std::size_t f = 0; f < ws_.n_basal_faces; ++f) {
    beta0_global_[f] = ws_.basal_beta(f);
  }
}

void StokesFOProblem::set_basal_friction_scale(double scale) {
  MALI_CHECK_MSG(std::isfinite(scale) && scale > 0.0,
                 "basal friction scale must be positive and finite");
  basal_friction_scale_ = scale;
  ++revision_;
  // Rewrite the workset source field (the dist subdomains stage from ws_)
  // from the pristine copy, then restage every block's faces from it.
  for (std::size_t f = 0; f < beta0_global_.size(); ++f) {
    ws_.basal_beta(f) = beta0_global_[f] * scale;
  }
  for (auto& range : blocks_) {
    attach_basal_faces(range, ws_, [](std::size_t cell) { return cell; });
  }
}

linalg::CrsMatrix StokesFOProblem::create_matrix() const {
  return linalg::CrsMatrix(dof_map_->row_ptr(), dof_map_->cols());
}

linalg::ExtrusionInfo StokesFOProblem::extrusion_info() const {
  linalg::ExtrusionInfo info;
  info.n_nodes = mesh_->n_nodes();
  info.levels = mesh_->levels();
  info.dofs_per_node = fem::DofMap::dofs_per_node;
  const std::size_t n_cols = base_->n_nodes();
  info.column_x.resize(n_cols);
  info.column_y.resize(n_cols);
  for (std::size_t c = 0; c < n_cols; ++c) {
    info.column_x[c] = base_->node_x(c);
    info.column_y[c] = base_->node_y(c);
  }
  info.dx = base_->dx();
  return info;
}

template <class Diagonal>
void StokesFOProblem::update_dirichlet_scale(const Diagonal& diagonal) {
  double mean_diag = 0.0;
  std::size_t count = 0;
  for (std::size_t r = 0; r < n_dofs(); ++r) {
    if (dof_map_->is_dirichlet_dof(r)) continue;
    mean_diag += std::abs(diagonal(r));
    ++count;
  }
  if (count > 0 && mean_diag > 0.0) {
    dirichlet_scale_ = mean_diag / static_cast<double>(count);
  }
}

template <class EvalT>
FieldSet<typename EvalT::ScalarT>& StokesFOProblem::evaluate_fields(
    const std::vector<double>& U) {
  MALI_CHECK(U.size() == n_dofs());
  CellBlock all;  // the whole mesh; staging needs no faces or coloring
  all.count = ws_.n_cells;
  return engine_.stage<EvalT, pk::DefaultExec>(all, to_view(U));
}

template FieldSet<ResidualEval::ScalarT>&
StokesFOProblem::evaluate_fields<ResidualEval>(const std::vector<double>&);
template FieldSet<JacobianEval::ScalarT>&
StokesFOProblem::evaluate_fields<JacobianEval>(const std::vector<double>&);

template <class EvalT>
void StokesFOProblem::run_resid_kernel(KernelVariant v) {
  CellBlock all;
  all.count = ws_.n_cells;
  engine_.run_resid_kernel<EvalT, pk::DefaultExec>(v, all);
}

template void StokesFOProblem::run_resid_kernel<ResidualEval>(KernelVariant);
template void StokesFOProblem::run_resid_kernel<JacobianEval>(KernelVariant);

template <class EvalT>
void StokesFOProblem::assemble(const std::vector<double>& U,
                               std::vector<double>& F, linalg::CrsMatrix* J) {
  MALI_CHECK(U.size() == n_dofs());
  const auto Uview = to_view(U);
  F.assign(n_dofs(), 0.0);
  for (const CellBlock& b : blocks_) {
    engine_.assemble<EvalT, pk::DefaultExec>(b, Uview, F, J);
  }

  // Dirichlet rows: u = 0 on the lateral margin.  The rows are scaled to
  // the interior stiffness magnitude so the preconditioners (in particular
  // the AMG's Galerkin coarse operators) do not see a 1e13:1 scale split.
  if (J != nullptr) {
    update_dirichlet_scale([J](std::size_t r) { return J->diagonal(r); });
  }
  for (std::size_t d : dof_map_->dirichlet_dofs()) {
    F[d] = dirichlet_scale_ * (U[d] - dirichlet_values_[d]);
    if (J != nullptr) {
      J->set_identity_row(d);
      J->set(d, d, dirichlet_scale_);
    }
  }
}

void StokesFOProblem::residual(const std::vector<double>& U,
                               std::vector<double>& F) {
  assemble<ResidualEval>(U, F, nullptr);
}

void StokesFOProblem::residual_and_jacobian(const std::vector<double>& U,
                                            std::vector<double>& F,
                                            linalg::CrsMatrix& J) {
  J.set_zero();
  assemble<JacobianEval>(U, F, &J);
}

template <class Exec>
void StokesFOProblem::linearize_tangent(const std::vector<double>& U,
                                        TangentCache& lin) {
  MALI_CHECK(U.size() == n_dofs());
  const auto Uview = to_view(U);
  lin.blocks.resize(blocks_.size());
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    engine_.linearize_tangent<Exec>(blocks_[i], Uview, lin.blocks[i]);
  }
  lin.revision = revision_;
  lin.dirichlet_scale = dirichlet_scale_;
}

void StokesFOProblem::check_fresh(const TangentCache& lin) const {
  if (lin.revision != revision_) {
    throw StaleLinearizationError(
        "tangent linearization is stale: the problem changed since it was "
        "built");
  }
  MALI_CHECK(lin.blocks.size() == blocks_.size());
}

template <class Exec>
void StokesFOProblem::apply_tangent(const TangentCache& lin,
                                    const std::vector<double>& x,
                                    std::vector<double>& y) {
  check_fresh(lin);
  MALI_CHECK(x.size() == n_dofs());
  MALI_CHECK_MSG(&x != &y, "apply_tangent: aliased in/out");
  const auto Xview = to_view(x);
  y.assign(n_dofs(), 0.0);
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    engine_.apply_tangent<Exec>(blocks_[i], lin.blocks[i], Xview, y);
  }

  // Dirichlet rows act exactly like the assembled scaled identity rows.
  for (std::size_t d : dof_map_->dirichlet_dofs()) {
    y[d] = lin.dirichlet_scale * x[d];
  }
}

template <class Exec>
void StokesFOProblem::assemble_tangent(const TangentCache& lin,
                                       linalg::CrsMatrix& J) {
  check_fresh(lin);
  MALI_CHECK_MSG(J.n_rows() == n_dofs(),
                 "assemble_tangent: matrix has " + std::to_string(J.n_rows()) +
                     " rows, the problem " + std::to_string(n_dofs()) +
                     " dofs");
  J.set_zero();
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    engine_.assemble_tangent<Exec>(blocks_[i], lin.blocks[i], J);
  }
  // The scaled identity rows apply_tangent gives Dirichlet dofs.
  for (std::size_t d : dof_map_->dirichlet_dofs()) {
    J.set_identity_row(d);
    J.set(d, d, lin.dirichlet_scale);
  }
}

template <class Exec>
void StokesFOProblem::apply_jacobian(const std::vector<double>& U,
                                     const std::vector<double>& x,
                                     std::vector<double>& y) {
  TangentCache lin;
  linearize_tangent<Exec>(U, lin);
  apply_tangent<Exec>(lin, x, y);
}

template void StokesFOProblem::linearize_tangent<pk::Serial>(
    const std::vector<double>&, TangentCache&);
template void StokesFOProblem::linearize_tangent<pk::Threads>(
    const std::vector<double>&, TangentCache&);
template void StokesFOProblem::apply_tangent<pk::Serial>(
    const TangentCache&, const std::vector<double>&, std::vector<double>&);
template void StokesFOProblem::apply_tangent<pk::Threads>(
    const TangentCache&, const std::vector<double>&, std::vector<double>&);
template void StokesFOProblem::assemble_tangent<pk::Serial>(
    const TangentCache&, linalg::CrsMatrix&);
template void StokesFOProblem::assemble_tangent<pk::Threads>(
    const TangentCache&, linalg::CrsMatrix&);
template void StokesFOProblem::apply_jacobian<pk::Serial>(
    const std::vector<double>&, const std::vector<double>&,
    std::vector<double>&);
template void StokesFOProblem::apply_jacobian<pk::Threads>(
    const std::vector<double>&, const std::vector<double>&,
    std::vector<double>&);

std::vector<double> StokesFOProblem::jacobian_block_diagonal(
    const std::vector<double>& U) {
  MALI_CHECK(U.size() == n_dofs());
  const auto Uview = to_view(U);
  // One 2x2 block per node (dof = 2*node + comp): 2 * n_dofs doubles.
  std::vector<double> blocks(2 * n_dofs(), 0.0);
  for (const CellBlock& b : blocks_) {
    engine_.accumulate_node_blocks<pk::DefaultExec>(b, Uview, blocks);
  }

  // Dirichlet scale from the mean interior |diagonal|, as in the assembled
  // path; then Dirichlet-node blocks become scale * I (their rows are
  // scaled identity rows in the assembled matrix).  dof r = 2 node + comp
  // sits at block entry (comp, comp).
  update_dirichlet_scale(
      [&blocks](std::size_t r) { return blocks[r / 2 * 4 + r % 2 * 3]; });
  for (std::size_t d : dof_map_->dirichlet_dofs()) {
    const std::size_t node = d / 2;
    const std::size_t comp = d % 2;
    blocks[node * 4 + comp * 2 + 0] = 0.0;
    blocks[node * 4 + comp * 2 + 1] = 0.0;
    blocks[node * 4 + comp * 2 + comp] = dirichlet_scale_;
  }
  return blocks;
}

std::unique_ptr<linalg::LinearOperator> StokesFOProblem::jacobian_operator(
    const std::vector<double>& U) {
  auto op = std::make_unique<MatrixFreeStokesOperator>(*this);
  op->linearize(U);
  return op;
}

double StokesFOProblem::mean_velocity(const std::vector<double>& U) const {
  MALI_CHECK(U.size() == n_dofs());
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t node = 0; node < mesh_->n_nodes(); ++node) {
    if (mesh_->is_dirichlet_node(node)) continue;
    const double u = U[fem::DofMap::dof(node, 0)];
    const double v = U[fem::DofMap::dof(node, 1)];
    sum += std::sqrt(u * u + v * v);
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

void StokesFOProblem::set_temperature_field(
    const std::function<double(double, double, double)>& temperature) {
  const std::size_t C = ws_.n_cells;
  const int N = ws_.num_nodes;
  const int Q = ws_.num_qps;
  ++revision_;
  auto& flow_factor = elems_.flow_factor;
  if (!flow_factor.allocated()) {
    flow_factor = pk::View<double, 2>("flow_factor", ws_.n_cells_padded, Q);
  }
  const auto qps = fem::gauss_hex(2);
  pk::parallel_for("set_temperature", C, [&](int ci) {
    const auto c = static_cast<std::size_t>(ci);
    for (int q = 0; q < Q; ++q) {
      double x = 0.0, y = 0.0, z = 0.0;
      for (int k = 0; k < N; ++k) {
        const auto& qp = qps[static_cast<std::size_t>(q)];
        const double bf = fem::Hex8Basis::value(k, qp.xi, qp.eta, qp.zeta);
        x += bf * ws_.coords(c, k, 0);
        y += bf * ws_.coords(c, k, 1);
        z += bf * ws_.coords(c, k, 2);
      }
      const double h =
          std::max(geom_.thickness(x, y), geom_.config().min_thickness_m);
      const double sigma = std::clamp((z - geom_.bed(x, y)) / h, 0.0, 1.0);
      flow_factor(c, q) = paterson_budd_A(temperature(x, y, sigma));
    }
  });
}

double StokesFOProblem::mms_error(const std::vector<double>& U) const {
  MALI_CHECK(U.size() == n_dofs());
  const auto exact = mms_exact();
  double err2 = 0.0;
  for (std::size_t i = 0; i < U.size(); ++i) {
    const double e = U[i] - exact[i];
    err2 += e * e;
  }
  return std::sqrt(err2 / static_cast<double>(U.size()));
}

std::vector<double> StokesFOProblem::mms_exact() const {
  std::vector<double> exact(n_dofs(), 0.0);
  for (std::size_t node = 0; node < mesh_->n_nodes(); ++node) {
    double u = 0.0, v = 0.0;
    mms_velocity(cfg_.mms, mesh_->node_x(node), mesh_->node_y(node),
                 mesh_->node_z(node), u, v);
    exact[fem::DofMap::dof(node, 0)] = u;
    exact[fem::DofMap::dof(node, 1)] = v;
  }
  return exact;
}

std::vector<double> StokesFOProblem::analytic_initial_guess() const {
  // Shallow-ice-like speeds: u ~ -Gamma H^{n+1} |grad s|^{n-1} grad s with a
  // simple vertical profile, giving the kernels realistic strain rates.
  std::vector<double> U(n_dofs(), 0.0);
  const double n = cfg_.constants.glen_n;
  const double gamma = 2.0 * cfg_.constants.glen_A *
                       std::pow(cfg_.constants.rho_g(), n) / (n + 2.0);
  for (std::size_t node = 0; node < mesh_->n_nodes(); ++node) {
    if (mesh_->is_dirichlet_node(node)) continue;
    const double x = mesh_->node_x(node);
    const double y = mesh_->node_y(node);
    const double H = geom_.thickness(x, y);
    double dsdx = 0.0, dsdy = 0.0;
    geom_.surface_gradient(x, y, dsdx, dsdy);
    const double slope = std::hypot(dsdx, dsdy);
    const double level = static_cast<double>(mesh_->level_of(node));
    const double sigma = level / static_cast<double>(cfg_.n_layers);
    // Vertical shape function of the SIA profile.
    const double shape = 1.0 - std::pow(1.0 - sigma, n + 1.0);
    const double speed =
        gamma * std::pow(H, n + 1.0) * std::pow(slope, n - 1.0) * shape;
    U[fem::DofMap::dof(node, 0)] = -speed * dsdx;
    U[fem::DofMap::dof(node, 1)] = -speed * dsdy;
  }
  return U;
}

}  // namespace mali::physics
