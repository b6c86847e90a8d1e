#include "physics/element_engine.hpp"

#include <algorithm>
#include <iterator>
#include <type_traits>

#include "fem/cell_geometry.hpp"
#include "physics/evaluators.hpp"
#include "physics/fused_chain.hpp"
#include "physics/fused_chain_batched.hpp"
#include "physics/fused_chain_sfad_batched.hpp"
#include "physics/scatter.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "physics/stokes_fo_resid.hpp"
#include "physics/stokes_jacobian_apply.hpp"
#include "portability/parallel.hpp"
#include "portability/simd.hpp"

namespace mali::physics {

namespace {

/// Calls f.template operator()<W>() with W the batch width w.
template <class F>
void dispatch_simd_width(int w, F&& f) {
  switch (w) {
    case 1:
      f.template operator()<1>();
      break;
    case 2:
      f.template operator()<2>();
      break;
    case 8:
      f.template operator()<8>();
      break;
    default:
      f.template operator()<4>();
      break;
  }
}

/// `count` rounded up to a whole number of width-W packs.
template <int W>
std::size_t pack_count(std::size_t count) {
  const auto w = static_cast<std::size_t>(W);
  return (count + w - 1) / w * w;
}

/// Window of the optional (thermal-only) flow-factor view.
pk::View<double, 2> flow_factor_window(const pk::View<double, 2>& v,
                                       std::size_t offset, std::size_t count) {
  return v.allocated() ? v.window(offset, count) : pk::View<double, 2>{};
}

/// Copies the Glen's-law constants and element sizes into a fused kernel
/// and hoists its loop invariants.
template <class Kernel>
void set_flow_law(Kernel& k, const StokesFOConfig& cfg,
                  const ElementArrays& a) {
  k.glen_A = cfg.constants.glen_A;
  k.glen_n = cfg.constants.glen_n;
  k.eps_reg2 = cfg.constants.eps_reg2;
  k.constant_mu = cfg.mms.enabled ? cfg.mms.mu0 : 0.0;
  k.numNodes = static_cast<decltype(k.numNodes)>(a.num_nodes);
  k.numQPs = static_cast<decltype(k.numQPs)>(a.num_qps);
  k.prepare();
}

}  // namespace

template <class ScalarT>
void FieldSet<ScalarT>::allocate(std::size_t C, int N, int Q,
                                 FieldStage stage) {
  // The cell axis is padded like the element arrays (fem::padded_cells) so
  // the batched kernels may run every batch — including the ragged tail —
  // at full pack width; ghost rows are compute scratch, never scattered.
  const std::size_t Cp = fem::padded_cells(C);
  const auto ensure = [Cp](auto& v, const char* label, auto... extents) {
    if (!v.allocated() || v.extent(0) < Cp) {  // big enough: reuse
      v = std::decay_t<decltype(v)>(label, Cp, extents...);
    }
  };
  ensure(Residual, "Residual", N, 2);
  if (stage == FieldStage::kResidual) return;
  ensure(UNodal, "UNodal", N, 2);
  if (stage == FieldStage::kGathered) return;
  ensure(Ugrad, "Ugrad", Q, 2, 3);
  ensure(mu, "muLandIce", Q);
  ensure(force, "force", Q, 2);
}

template <class ScalarT>
bool FieldSet<ScalarT>::staged(std::size_t C) const noexcept {
  const auto holds = [C](const auto& v) {
    return v.allocated() && v.extent(0) >= C;
  };
  return holds(UNodal) && holds(Ugrad) && holds(mu) && holds(force) &&
         holds(Residual);
}

template struct FieldSet<ResidualEval::ScalarT>;
template struct FieldSet<JacobianEval::ScalarT>;

pk::View<double, 1> to_view(const std::vector<double>& v) {
  pk::View<double, 1> view("vector", v.size());
  std::copy(v.begin(), v.end(), view.data());
  return view;
}

const pk::View<double, 1>& copy_to_view(const std::vector<double>& v,
                                        pk::View<double, 1>& view) {
  if (!view.allocated() || view.size() != v.size()) {
    view = pk::View<double, 1>("vector", v.size());
  }
  std::copy(v.begin(), v.end(), view.data());
  return view;
}

int ElementEngine::simd_width() const noexcept {
  return cfg_->simd_width == 0 ? pk::kSimdNativeWidth : cfg_->simd_width;
}

template <class EvalT, class Exec>
FieldSet<typename EvalT::ScalarT>& ElementEngine::stage(
    const CellBlock& b, const pk::View<double, 1>& U, bool gather_only) {
  using ScalarT = typename EvalT::ScalarT;
  using Policy = pk::RangePolicy<Exec>;
  const ElementArrays& a = *arrays_;
  const StokesFOConfig& cfg = *cfg_;
  const std::size_t cnt = b.count;
  const auto N = static_cast<unsigned>(a.num_nodes);
  const auto Q = static_cast<unsigned>(a.num_qps);
  auto& f = fields<ScalarT>();
  f.allocate(cnt, a.num_nodes, a.num_qps,
             gather_only ? FieldStage::kGathered : FieldStage::kStaged);

  GatherSolution<ScalarT> gather{U, a.cell_nodes.window(b.offset, cnt),
                                 f.UNodal, N};
  pk::parallel_for("gather", Policy(cnt), gather);
  if (gather_only) return f;

  VelocityGradient<ScalarT> vgrad{f.UNodal, a.gradBF.window(b.offset, cnt),
                                  f.Ugrad, N, Q};
  pk::parallel_for("velocity_gradient", Policy(cnt), vgrad);

  ViscosityFO<ScalarT> visc{f.Ugrad,
                            f.mu,
                            flow_factor_window(a.flow_factor, b.offset, cnt),
                            cfg.constants.glen_A,
                            cfg.constants.glen_n,
                            cfg.constants.eps_reg2,
                            Q,
                            cfg.mms.enabled ? cfg.mms.mu0 : 0.0};
  pk::parallel_for("viscosity", Policy(cnt), visc);

  BodyForceFO<ScalarT> bf{a.force_passive.window(b.offset, cnt), f.force, Q};
  pk::parallel_for("body_force_copy", Policy(cnt), bf);
  return f;
}

template <class EvalT, class Exec>
void ElementEngine::run_resid_kernel(KernelVariant v, const CellBlock& b) {
  using ScalarT = typename EvalT::ScalarT;
  using pk::RangePolicy;
  const ElementArrays& a = *arrays_;
  auto& f = fields<ScalarT>();
  const std::size_t cnt = b.count;
  MALI_CHECK_MSG(f.staged(cnt),
                 "run_resid_kernel: stage the whole chain first (a fused "
                 "evaluation or a gather-only stage leaves the staged "
                 "fields unallocated)");

  StokesFOResid<ScalarT> kernel;
  kernel.Ugrad = f.Ugrad;
  kernel.muLandIce = f.mu;
  kernel.force = f.force;
  kernel.wGradBF = a.wGradBF.window(b.offset, cnt);
  kernel.wBF = a.wBF.window(b.offset, cnt);
  kernel.Residual = f.Residual;
  kernel.numNodes = static_cast<unsigned>(a.num_nodes);
  kernel.numQPs = static_cast<unsigned>(a.num_qps);
  kernel.cond = false;
  switch (v) {
    case KernelVariant::kBaseline:
      pk::parallel_for("StokesFOResid", RangePolicy<Exec, LandIce_3D_Tag>(cnt),
                       kernel);
      break;
    case KernelVariant::kOptimized:
      pk::parallel_for("StokesFOResid",
                       RangePolicy<Exec, LandIce_3D_Opt_Tag<8>>(cnt), kernel);
      break;
    case KernelVariant::kLoopOptOnly:
      pk::parallel_for("StokesFOResid",
                       RangePolicy<Exec, LandIce_3D_LoopOptOnly_Tag<8>>(cnt),
                       kernel);
      break;
    case KernelVariant::kFusedOnly:
      pk::parallel_for("StokesFOResid",
                       RangePolicy<Exec, LandIce_3D_FusedOnly_Tag>(cnt),
                       kernel);
      break;
    case KernelVariant::kLocalAccumOnly:
      pk::parallel_for("StokesFOResid",
                       RangePolicy<Exec, LandIce_3D_LocalAccumOnly_Tag>(cnt),
                       kernel);
      break;
  }
}

template <class Exec>
void ElementEngine::run_fused_batched(const CellBlock& b) {
  const ElementArrays& a = *arrays_;
  dispatch_simd_width(simd_width(), [&]<int W>() {
    const std::size_t cnt_pad = pack_count<W>(b.count);
    FusedStokesChainBatched<W> chain;
    chain.UNodal = res_fields_.UNodal;
    chain.coords = a.coords.window(b.offset, cnt_pad);
    chain.ref_grad = a.ref_grad;
    chain.ref_val = a.ref_val;
    chain.qp_weight = a.qp_weights;
    chain.force_passive = a.force_passive.window(b.offset, cnt_pad);
    chain.flow_factor = flow_factor_window(a.flow_factor, b.offset, cnt_pad);
    chain.Residual = res_fields_.Residual;
    set_flow_law(chain, *cfg_, a);
    pk::parallel_for("FusedStokesChainBatched",
                     pk::SimdRangePolicy<W, Exec>(cnt_pad), chain);
  });
}

template <class Exec>
void ElementEngine::run_fused_sfad(const CellBlock& b,
                                  const pk::View<double, 1>& U) {
  const ElementArrays& a = *arrays_;
  const std::size_t cnt = b.count;
  // Both chains run over exactly the block's cells (the batched one masks
  // its ragged tail).
  const auto setup = [&](auto& chain) {
    chain.U = U;
    chain.cell_nodes = a.cell_nodes.window(b.offset, cnt);
    chain.gradBF = a.gradBF.window(b.offset, cnt);
    chain.wGradBF = a.wGradBF.window(b.offset, cnt);
    chain.wBF = a.wBF.window(b.offset, cnt);
    chain.force_passive = a.force_passive.window(b.offset, cnt);
    chain.flow_factor = flow_factor_window(a.flow_factor, b.offset, cnt);
    chain.Residual = jac_fields_.Residual;
    set_flow_law(chain, *cfg_, a);
  };
  dispatch_simd_width(simd_width(), [&]<int W>() {
    if constexpr (W == 1) {
      FusedStokesChain<JacobianEval::ScalarT> chain;
      setup(chain);
      pk::parallel_for("FusedStokesChain", pk::RangePolicy<Exec>(cnt), chain);
    } else {
      FusedStokesChainSfadBatched<W> chain;
      setup(chain);
      pk::parallel_for("FusedStokesChainSfadBatched",
                       pk::SimdRangePolicy<W, Exec>(cnt), chain);
    }
  });
}

template <class EvalT, class Exec>
FieldSet<typename EvalT::ScalarT>& ElementEngine::evaluate(
    const CellBlock& b, const pk::View<double, 1>& U) {
  using ScalarT = typename EvalT::ScalarT;
  const ElementArrays& a = *arrays_;
  const StokesFOConfig& cfg = *cfg_;
  // The SFad Jacobian of the optimized variant runs the fused chain, W cells
  // per pack (W = 1: the scalar chain); the ablations Table III measures run
  // the staged chain scalar.
  const bool fused_sfad =
      ad::is_fad_v<ScalarT> && cfg.variant == KernelVariant::kOptimized;
  const bool batched = std::is_same_v<ScalarT, double> && simd_width() > 1;
  auto& f = fields<ScalarT>();

  pk::Timer phase_timer;
  if (fused_sfad) {
    f.allocate(b.count, a.num_nodes, a.num_qps, FieldStage::kResidual);
  } else {
    stage<EvalT, Exec>(b, U, /*gather_only=*/batched);
  }
  timers_->add("evaluate", phase_timer.seconds());
  phase_timer.reset();

  if (fused_sfad) {
    if constexpr (ad::is_fad_v<ScalarT>) run_fused_sfad<Exec>(b, U);
  } else if (batched) {
    run_fused_batched<Exec>(b);
  } else {
    run_resid_kernel<EvalT, Exec>(cfg.variant, b);
  }
  // Basal friction (adds to Residual); the manufactured verification
  // imposes Dirichlet values at the bed instead.  attach_basal_faces gives
  // each cell at most one face, so the faces' rows are disjoint and their
  // order cannot move a bit.
  if (!cfg.mms.enabled) {
    BasalFrictionResid<ScalarT> friction{
        b.face_cell_local,
        b.face_wBF,
        b.face_beta,
        U,
        a.cell_nodes.window(b.offset, b.count),
        f.Residual,
        a.face_BF,
        static_cast<unsigned>(a.face_qps),
        cfg.sliding};
    pk::parallel_for("basal_friction",
                     pk::RangePolicy<Exec>(b.face_cell_local.size()),
                     friction);
  }
  timers_->add("kernel", phase_timer.seconds());
  return f;
}

template <class Exec>
const CrsSlotTable& ElementEngine::slot_table(const CellBlock& b,
                                              const linalg::CrsMatrix& J) {
  auto it = std::find_if(slot_tables_.begin(), slot_tables_.end(),
                         [&b](const BlockSlots& s) {
                           return s.offset == b.offset && s.count == b.count;
                         });
  if (it == slot_tables_.end()) {
    slot_tables_.push_back({b.offset, b.count, {}});
    it = std::prev(slot_tables_.end());
  }
  if (!it->table.serves(J)) {
    it->table = {};  // free the stale table before building its successor
    it->table = build_slot_table<Exec>(
        arrays_->cell_nodes.window(b.offset, b.count), b.count, J);
  }
  return it->table;
}

template <class EvalT, class Exec>
void ElementEngine::assemble(const CellBlock& b, const pk::View<double, 1>& U,
                             std::vector<double>& F, linalg::CrsMatrix* J) {
  if (b.count == 0) return;
  auto& f = evaluate<EvalT, Exec>(b, U);
  pk::Timer phase_timer;
  // Element residuals/Jacobians into the global F / CRS matrix (rows are
  // shared between cells, so the colored mode relies on the coloring).
  const CrsSlotTable* slots = nullptr;
  if constexpr (ad::is_fad_v<typename EvalT::ScalarT>) {
    if (J != nullptr) slots = &slot_table<Exec>(b, *J);
  }
  scatter_add<Exec>(cfg_->scatter, b.coloring,
                    arrays_->cell_nodes.window(b.offset, b.count), f.Residual,
                    b.count, arrays_->num_nodes, F, J, slots);
  timers_->add("scatter", phase_timer.seconds());
}

template <class Exec>
void ElementEngine::linearize_tangent(const CellBlock& b,
                                      const pk::View<double, 1>& U,
                                      TangentLinearization& lin) {
  const ElementArrays& a = *arrays_;
  const std::size_t cnt = b.count;
  lin.width = simd_width();
  lin.fields = a.flow_factor.allocated() ? kTangentFieldsThermal
                                         : kTangentFields;
  lin.U = U;
  dispatch_simd_width(lin.width, [&]<int W>() {
    const std::size_t cnt_pad = pack_count<W>(cnt);
    const std::size_t size = cnt_pad * static_cast<std::size_t>(
                                           a.num_qps * lin.fields);
    if (!lin.qp_data.allocated() || lin.qp_data.size() != size) {
      lin.qp_data = pk::View<double, 1>("tangent_qp_data", size);
    }
    StokesFOTangentLinearize<W> k;
    k.cell_nodes = a.cell_nodes.window(b.offset, cnt_pad);
    k.coords = a.coords.window(b.offset, cnt_pad);
    k.flow_factor = flow_factor_window(a.flow_factor, b.offset, cnt_pad);
    k.U = U;
    k.ref_grad = a.ref_grad;
    k.qp_weight = a.qp_weights;
    k.qp_data = lin.qp_data;
    set_flow_law(k, *cfg_, a);
    lin.coeff = k.coeff();
    lin.constant_mu = k.constant_mu > 0.0;
    pk::parallel_for("tangent_linearize",
                     pk::SimdRangePolicy<W, Exec>(cnt_pad), k);
  });
}

template <class Exec>
void ElementEngine::element_tangents(const CellBlock& b,
                                     const TangentLinearization& lin,
                                     const pk::View<std::size_t, 2>& x_nodes,
                                     std::size_t x_offset,
                                     const pk::View<double, 1>& X) {
  const ElementArrays& a = *arrays_;
  const StokesFOConfig& cfg = *cfg_;
  const std::size_t cnt = b.count;
  if (!tangent_.allocated() || tangent_.extent(0) < fem::padded_cells(cnt)) {
    tangent_ = pk::View<double, 3>("tangent", fem::padded_cells(cnt),
                                   a.num_nodes, 2);
  }

  // Dot-only tangent: gather x + g = inv ref_grad + the derivative half of
  // the stress, W cells per pack, over the cached quadrature-point data.
  dispatch_simd_width(lin.width, [&]<int W>() {
    const std::size_t cnt_pad = pack_count<W>(cnt);
    MALI_CHECK_MSG(lin.qp_data.size() ==
                       cnt_pad * static_cast<std::size_t>(a.num_qps *
                                                          lin.fields),
                   "tangent linearization does not match the block");
    StokesFOTangentApply<W> tangent;
    tangent.cell_nodes = x_nodes.window(x_offset, cnt_pad);
    tangent.X = X;
    tangent.ref_grad = a.ref_grad;
    tangent.qp_data = lin.qp_data;
    tangent.Tangent = tangent_;
    tangent.thermal = lin.fields == kTangentFieldsThermal;
    tangent.constant_mu = lin.constant_mu;
    tangent.coeff = lin.coeff;
    tangent.numNodes = a.num_nodes;
    tangent.numQPs = a.num_qps;
    pk::parallel_for("jacobian_tangent", pk::SimdRangePolicy<W, Exec>(cnt_pad),
                     tangent);
  });

  if (!cfg.mms.enabled) {
    BasalFrictionTangent friction{b.face_cell_local,
                                  b.face_wBF,
                                  b.face_beta,
                                  a.face_BF,
                                  a.cell_nodes.window(b.offset, cnt),
                                  x_nodes.window(x_offset, cnt),
                                  lin.U,
                                  X,
                                  tangent_,
                                  static_cast<unsigned>(a.face_qps),
                                  cfg.sliding};
    // One face per cell (attach_basal_faces): disjoint rows, any order.
    pk::parallel_for("basal_friction_tangent",
                     pk::RangePolicy<Exec>(b.face_cell_local.size()),
                     friction);
  }
}

template <class Exec>
void ElementEngine::apply_tangent(const CellBlock& b,
                                  const TangentLinearization& lin,
                                  const pk::View<double, 1>& X,
                                  std::vector<double>& y) {
  if (b.count == 0) return;
  const ElementArrays& a = *arrays_;
  element_tangents<Exec>(b, lin, a.cell_nodes, b.offset, X);
  scatter_add<Exec>(cfg_->scatter, b.coloring,
                    a.cell_nodes.window(b.offset, b.count), tangent_, b.count,
                    a.num_nodes, y, nullptr);
}

template <class Exec>
void ElementEngine::assemble_tangent(const CellBlock& b,
                                     const TangentLinearization& lin,
                                     linalg::CrsMatrix& J) {
  if (b.count == 0) return;
  const ElementArrays& a = *arrays_;
  const int N = a.num_nodes;
  MALI_CHECK_MSG(2 * N == kNumLocalDofs,
                 "tangent assembly needs 8-node cells (16 local dofs)");
  const std::size_t cnt = b.count;
  const std::size_t cnt_pad = fem::padded_cells(cnt);
  const auto uN = static_cast<std::size_t>(N);
  const auto cell_nodes = a.cell_nodes.window(b.offset, cnt);

  // Every cell reads the direction through the node map (c, k) -> k, so a
  // 16-entry X = e_l is the unit direction l of every cell at once; the
  // state is read through the block's own cell_nodes.  The map is the
  // engine's, grown on demand and reused by later calls.
  if (!tangent_local_.allocated() || tangent_local_.extent(0) < cnt_pad) {
    tangent_local_ =
        pk::View<std::size_t, 2>("tangent_local_nodes", cnt_pad, N);
    const auto& local = tangent_local_;
    pk::parallel_for("tangent_local_map", pk::RangePolicy<Exec>(cnt_pad),
                     [&](int c) {
                       for (std::size_t k = 0; k < uN; ++k) local(c, k) = k;
                     });
  }
  pk::View<double, 1> X("tangent_unit_direction", 2 * uN);

  auto& f = jac_fields_;
  f.allocate(cnt, N, a.num_qps, FieldStage::kResidual);
  for (int l = 0; l < kNumLocalDofs; ++l) {
    const auto ul = static_cast<std::size_t>(l);
    if (ul > 0) X(ul - 1) = 0.0;
    X(ul) = 1.0;
    element_tangents<Exec>(b, lin, tangent_local_, 0, X);
    pk::parallel_for("tangent_column", pk::RangePolicy<Exec>(cnt),
                     [&](int c) {
                       for (int k = 0; k < N; ++k) {
                         for (int comp = 0; comp < 2; ++comp) {
                           auto& R = f.Residual(c, k, comp);
                           if (l == 0) R.val() = 0.0;
                           R.fastAccessDx(l) = tangent_(c, k, comp);
                         }
                       }
                     });
  }
  // The matrix scatter also adds the (zero) element residuals into a
  // vector, which is discarded (and so stays zero across calls).
  tangent_F_.resize(lin.U.size(), 0.0);
  scatter_add<Exec>(cfg_->scatter, b.coloring, cell_nodes, f.Residual, cnt, N,
                    tangent_F_, &J, &slot_table<Exec>(b, J));
}

template <class Exec>
void ElementEngine::accumulate_node_blocks(const CellBlock& b,
                                           const pk::View<double, 1>& U,
                                           std::vector<double>& blocks) {
  if (b.count == 0) return;
  const auto& f = evaluate<JacobianEval, Exec>(b, U);
  const int N = arrays_->num_nodes;
  for (std::size_t c = 0; c < b.count; ++c) {
    for (int node = 0; node < N; ++node) {
      const std::size_t gnode = arrays_->cell_nodes(b.offset + c, node);
      for (int r = 0; r < 2; ++r) {
        const auto& R = f.Residual(c, node, r);
        for (int col = 0; col < 2; ++col) {
          blocks[gnode * 4 + static_cast<std::size_t>(r * 2 + col)] +=
              R.dx(2 * node + col);
        }
      }
    }
  }
}

// ---- explicit instantiations: both evaluation types, both exec spaces ----
// (the bench-only staging entry points on the default space alone)

template FieldSet<ResidualEval::ScalarT>&
ElementEngine::stage<ResidualEval, pk::DefaultExec>(
    const CellBlock&, const pk::View<double, 1>&, bool);
template FieldSet<JacobianEval::ScalarT>&
ElementEngine::stage<JacobianEval, pk::DefaultExec>(
    const CellBlock&, const pk::View<double, 1>&, bool);
template void ElementEngine::run_resid_kernel<ResidualEval, pk::DefaultExec>(
    KernelVariant, const CellBlock&);
template void ElementEngine::run_resid_kernel<JacobianEval, pk::DefaultExec>(
    KernelVariant, const CellBlock&);

template void ElementEngine::assemble<ResidualEval, pk::Serial>(
    const CellBlock&, const pk::View<double, 1>&, std::vector<double>&,
    linalg::CrsMatrix*);
template void ElementEngine::assemble<ResidualEval, pk::Threads>(
    const CellBlock&, const pk::View<double, 1>&, std::vector<double>&,
    linalg::CrsMatrix*);
template void ElementEngine::assemble<JacobianEval, pk::Serial>(
    const CellBlock&, const pk::View<double, 1>&, std::vector<double>&,
    linalg::CrsMatrix*);
template void ElementEngine::assemble<JacobianEval, pk::Threads>(
    const CellBlock&, const pk::View<double, 1>&, std::vector<double>&,
    linalg::CrsMatrix*);

template void ElementEngine::linearize_tangent<pk::Serial>(
    const CellBlock&, const pk::View<double, 1>&, TangentLinearization&);
template void ElementEngine::linearize_tangent<pk::Threads>(
    const CellBlock&, const pk::View<double, 1>&, TangentLinearization&);

template void ElementEngine::apply_tangent<pk::Serial>(
    const CellBlock&, const TangentLinearization&, const pk::View<double, 1>&,
    std::vector<double>&);
template void ElementEngine::apply_tangent<pk::Threads>(
    const CellBlock&, const TangentLinearization&, const pk::View<double, 1>&,
    std::vector<double>&);

template void ElementEngine::assemble_tangent<pk::Serial>(
    const CellBlock&, const TangentLinearization&, linalg::CrsMatrix&);
template void ElementEngine::assemble_tangent<pk::Threads>(
    const CellBlock&, const TangentLinearization&, linalg::CrsMatrix&);

template void ElementEngine::accumulate_node_blocks<pk::Serial>(
    const CellBlock&, const pk::View<double, 1>&, std::vector<double>&);
template void ElementEngine::accumulate_node_blocks<pk::Threads>(
    const CellBlock&, const pk::View<double, 1>&, std::vector<double>&);

}  // namespace mali::physics
