#include "dist/subdomain.hpp"

#include <algorithm>

#include "fem/cell_geometry.hpp"
#include "portability/common.hpp"

namespace mali::dist {

using physics::JacobianEval;
using physics::ResidualEval;

void gather_owned(const std::vector<double>& global,
                  const std::vector<std::size_t>& idx,
                  std::vector<double>& owned) {
  owned.resize(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) owned[i] = global[idx[i]];
}

void scatter_owned(const std::vector<double>& owned,
                   const std::vector<std::size_t>& idx,
                   std::vector<double>& global) {
  MALI_CHECK(owned.size() == idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) global[idx[i]] = owned[i];
}

Subdomain::Subdomain(const physics::StokesFOProblem& problem,
                     const mesh::Partition& part, int rank)
    : problem_(&problem), engine_(elems_, problem.config(), phase_timers_) {
  MALI_CHECK(rank >= 0 && rank < part.n_parts);
  const auto r = static_cast<std::size_t>(rank);
  const fem::GeometryWorkset& ws = problem.workset();
  const physics::ElementArrays& src = problem.element_arrays();
  const mesh::ExtrudedMesh& mesh = problem.mesh();
  const auto L = static_cast<std::size_t>(mesh.n_layers());
  const int N = ws.num_nodes;
  const int Q = ws.num_qps;

  // ---- local cell list: interior base cells first, then boundary ----
  // A base cell is interior iff all 4 of its columns are owned by this
  // rank; its layers then read no ghost data during assembly.  Within each
  // class, base cells ascend and layers ascend, so a single-rank Subdomain
  // (everything interior) visits cells in exactly the serial order.
  std::vector<std::size_t> local_cells;
  local_cells.reserve(part.part_cells[r].size() * L);
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::size_t bc : part.part_cells[r]) {
      bool interior = true;
      for (int k = 0; k < 4; ++k) {
        const std::size_t col = mesh.base().cell_node(bc, k);
        if (part.column_owner[col] != rank) {
          interior = false;
          break;
        }
      }
      if ((pass == 0) != interior) continue;
      for (std::size_t layer = 0; layer < L; ++layer) {
        local_cells.push_back(mesh.cell_id(bc, layer));
      }
    }
    if (pass == 0) n_interior_ = local_cells.size();
  }
  n_cells_ = local_cells.size();
  const std::size_t C = n_cells_;

  // ---- stage compact element data (global node ids retained) ----
  // Padded like the problem's arrays; the ghost rows replicate the last
  // local cell so full-width pack loads past it read finite geometry.
  const std::size_t Cp = fem::padded_cells(C);
  elems_ = src;  // sizes and the shared reference element data
  elems_.cell_nodes = pk::View<std::size_t, 2>("sd_cell_nodes", Cp, N);
  elems_.coords = pk::View<double, 3>("sd_coords", Cp, N, 3);
  elems_.gradBF = pk::View<double, 4>("sd_gradBF", Cp, N, Q, 3);
  elems_.wGradBF = pk::View<double, 4>("sd_wGradBF", Cp, N, Q, 3);
  elems_.wBF = pk::View<double, 3>("sd_wBF", Cp, N, Q);
  elems_.force_passive = pk::View<double, 3>("sd_force_passive", Cp, Q, 2);
  const bool thermal = src.flow_factor.allocated();
  elems_.flow_factor = thermal ? pk::View<double, 2>("sd_flow_factor", Cp, Q)
                               : pk::View<double, 2>{};
  for (std::size_t c = 0; C > 0 && c < Cp; ++c) {
    const std::size_t g = local_cells[std::min(c, C - 1)];
    for (int k = 0; k < N; ++k) {
      elems_.cell_nodes(c, k) = src.cell_nodes(g, k);
      for (int d = 0; d < 3; ++d) elems_.coords(c, k, d) = src.coords(g, k, d);
      for (int q = 0; q < Q; ++q) {
        elems_.wBF(c, k, q) = src.wBF(g, k, q);
        for (int d = 0; d < 3; ++d) {
          elems_.gradBF(c, k, q, d) = src.gradBF(g, k, q, d);
          elems_.wGradBF(c, k, q, d) = src.wGradBF(g, k, q, d);
        }
      }
    }
    for (int q = 0; q < Q; ++q) {
      elems_.force_passive(c, q, 0) = src.force_passive(g, q, 0);
      elems_.force_passive(c, q, 1) = src.force_passive(g, q, 1);
      if (thermal) elems_.flow_factor(c, q) = src.flow_factor(g, q);
    }
  }

  // ---- segments + their basal faces and colorings ----
  segments_[kInterior].offset = 0;
  segments_[kInterior].count = n_interior_;
  segments_[kBoundary].offset = n_interior_;
  segments_[kBoundary].count = n_cells_ - n_interior_;

  // Cells this rank does not hold map past every segment.
  std::vector<std::size_t> global_to_local_cell(mesh.n_cells(), C);
  for (std::size_t c = 0; c < C; ++c) global_to_local_cell[local_cells[c]] = c;
  for (physics::CellBlock& seg : segments_) {
    physics::attach_basal_faces(
        seg, ws, [&](std::size_t g) { return global_to_local_cell[g]; });
    // Greedy coloring on the staged connectivity: the segment is an
    // arbitrary cell subset (not a contiguous lattice range), which is
    // exactly the case greedy_color_cells handles.
    seg.coloring = mesh::greedy_color_cells(elems_.cell_nodes, seg.offset,
                                            seg.count, N);
  }

  // ---- ownership index sets ----
  const std::size_t levels = mesh.levels();
  node_is_local_.assign(mesh.n_nodes(), 0);
  node_is_owned_.assign(mesh.n_nodes(), 0);
  owned_dofs_.reserve(part.owned_column_ids[r].size() * levels * 2);
  for (const std::size_t col : part.owned_column_ids[r]) {
    for (std::size_t l = 0; l < levels; ++l) {
      const std::size_t node = mesh.node_id(col, l);
      node_is_owned_[node] = 1;
      owned_dofs_.push_back(2 * node);
      owned_dofs_.push_back(2 * node + 1);
    }
  }
  local_dofs_.reserve(part.local_columns[r].size() * levels * 2);
  for (const std::size_t col : part.local_columns[r]) {
    for (std::size_t l = 0; l < levels; ++l) {
      const std::size_t node = mesh.node_id(col, l);
      node_is_local_[node] = 1;
      local_dofs_.push_back(2 * node);
      local_dofs_.push_back(2 * node + 1);
    }
  }
  for (const std::size_t d : problem.dof_map().dirichlet_dofs()) {
    if (node_is_owned_[d / 2] != 0) owned_dirichlet_dofs_.push_back(d);
  }
}

void Subdomain::assemble_residual_segment(int seg, const std::vector<double>& x,
                                          std::vector<double>& F) {
  MALI_CHECK(seg == kInterior || seg == kBoundary);
  MALI_CHECK(x.size() == problem_->n_dofs());
  MALI_CHECK(F.size() == problem_->n_dofs());
  pk::Timer timer;
  engine_.assemble<ResidualEval, pk::Serial>(segments_[seg],
                                             physics::to_view(x), F, nullptr);
  kernel_s_ += timer.seconds();
}

void Subdomain::assemble_jacobian_segment(int seg, const std::vector<double>& x,
                                          std::vector<double>& F,
                                          linalg::CrsMatrix& J) {
  MALI_CHECK(seg == kInterior || seg == kBoundary);
  MALI_CHECK(x.size() == problem_->n_dofs());
  MALI_CHECK(F.size() == problem_->n_dofs());
  pk::Timer timer;
  engine_.assemble<JacobianEval, pk::Serial>(segments_[seg],
                                             physics::to_view(x), F, &J);
  kernel_s_ += timer.seconds();
}

void Subdomain::linearize_tangent(
    const std::vector<double>& U,
    std::vector<physics::TangentLinearization>& lin) {
  MALI_CHECK(U.size() == problem_->n_dofs());
  pk::Timer timer;
  const auto Uview = physics::to_view(U);
  lin.resize(2);
  for (std::size_t seg = 0; seg < 2; ++seg) {
    engine_.linearize_tangent<pk::Serial>(segments_[seg], Uview, lin[seg]);
  }
  kernel_s_ += timer.seconds();
}

void Subdomain::apply_tangent(
    const std::vector<physics::TangentLinearization>& lin,
    const std::vector<double>& x, std::vector<double>& y) {
  MALI_CHECK(lin.size() == 2);
  MALI_CHECK(x.size() == problem_->n_dofs());
  MALI_CHECK(y.size() == problem_->n_dofs());
  pk::Timer timer;
  const auto Xview = physics::to_view(x);
  for (std::size_t seg = 0; seg < 2; ++seg) {
    engine_.apply_tangent<pk::Serial>(segments_[seg], lin[seg], Xview, y);
  }
  kernel_s_ += timer.seconds();
}

std::vector<double> Subdomain::partial_node_blocks(
    const std::vector<double>& U) {
  MALI_CHECK(U.size() == problem_->n_dofs());
  pk::Timer timer;
  const auto Uview = physics::to_view(U);
  std::vector<double> blocks(2 * problem_->n_dofs(), 0.0);
  for (const physics::CellBlock& seg : segments_) {
    engine_.accumulate_node_blocks<pk::Serial>(seg, Uview, blocks);
  }
  kernel_s_ += timer.seconds();
  return blocks;
}

}  // namespace mali::dist
