#pragma once
// ElementEngine — the one element-assembly path of the FO Stokes problem,
// shared by the serial StokesFOProblem (one CellBlock per workset) and each
// dist::Subdomain (one CellBlock per overlap segment).  Callers own the
// element data (ElementArrays, in their own cell numbering); the engine owns
// the scratch fields and runs, on the execution space the caller names:
//
//   residual  gather -> batched fused chain (simd width > 1), or the staged
//             gather -> VelocityGradient -> ViscosityFO -> BodyForceFO ->
//             StokesFOResid<variant> chain (width 1, the bitwise reference)
//             -> basal friction -> scatter
//   Jacobian  kOptimized (the default): FusedStokesChain<SFad<16>> per
//             cell, gathering and seeding its velocities from U, straight
//             into the element Residual -- the only whole-mesh SFad field;
//             the four ablation variants: the staged chain on SFad<16>
//             (Table III reproduces them).  Always scalar.  -> basal
//             friction -> scatter through the block's CRS slot table
//   tangent   linearize: StokesFOTangentLinearize<W> (W = 1 included)
//             fills the block's quadrature-point cache, once per state U;
//             apply: StokesFOTangentApply<W> over that cache -> basal
//             friction tangent -> scatter; assemble: the same two kernels
//             on each of the 16 cell-local unit directions -> the SFad
//             Residual's derivative slots -> matrix scatter through the
//             block's CRS slot table
//
// so `simd_width` means the same thing on every path.  Batched kernels run
// over the block rounded up to whole packs; per-cell arrays have
// fem::padded_cells(n) rows with finite ghost rows, so the extra lanes read
// valid data and their results are never scattered.  A block's CRS slot
// table (physics/scatter.hpp) is built the first time the block is
// scattered into a matrix graph and rebuilt only when the graph changes.

#include <cstddef>
#include <string>
#include <vector>

#include "fem/workset.hpp"
#include "linalg/crs_matrix.hpp"
#include "mesh/coloring.hpp"
#include "physics/eval_types.hpp"
#include "physics/scatter.hpp"
#include "portability/timer.hpp"
#include "portability/view.hpp"

namespace mali::physics {

struct StokesFOConfig;
enum class KernelVariant;

/// Per-cell element data, indexed by the owner's cell numbering.  Per-cell
/// views are allocated at fem::padded_cells(n_cells) rows.
struct ElementArrays {
  int num_nodes = 8;
  int num_qps = 8;
  int face_qps = 4;
  pk::View<std::size_t, 2> cell_nodes;  ///< (C, N) global node ids
  pk::View<double, 3> coords;           ///< (C, N, 3)
  pk::View<double, 4> gradBF;           ///< (C, N, Q, 3)
  pk::View<double, 4> wGradBF;          ///< (C, N, Q, 3)
  pk::View<double, 3> wBF;              ///< (C, N, Q)
  pk::View<double, 3> force_passive;    ///< (C, Q, 2) rho*g*grad(s) at qps
  pk::View<double, 2> flow_factor;      ///< (C, Q) A(T), thermal mode only
  // Reference element data (shared by every cell).
  pk::View<double, 3> ref_grad;    ///< (Q, N, 3) dN_k/d(xi,eta,zeta)
  pk::View<double, 2> ref_val;     ///< (Q, N) N_k at the qps
  pk::View<double, 1> qp_weights;  ///< (Q)
  pk::View<double, 2> face_BF;     ///< (4, Qf) reference face basis
};

/// Cells [offset, offset + count) of an ElementArrays, the basal faces whose
/// cell lies in that range, and a conflict-free coloring of the range.
struct CellBlock {
  std::size_t offset = 0;
  std::size_t count = 0;
  pk::View<std::size_t, 1> face_cell_local;  ///< (F) cell - offset
  pk::View<double, 3> face_wBF;              ///< (F, 4, Qf)
  pk::View<double, 1> face_beta;             ///< (F)
  mesh::CellColoring coloring;               ///< over the block's cells
};

/// Stages onto `b` the basal faces of `ws` whose cell lies in the block, in
/// global face order; `local_cell(g)` maps global cell g to the owner's
/// numbering (any value outside the block skips the face).  The basal
/// friction kernels run a block's faces in parallel, each writing only its
/// own cell's rows, so no cell may own two faces (throws mali::Error).
template <class LocalCell>
void attach_basal_faces(CellBlock& b, const fem::GeometryWorkset& ws,
                        LocalCell&& local_cell) {
  std::vector<std::size_t> faces;
  std::vector<char> has_face(b.count, 0);
  for (std::size_t f = 0; f < ws.n_basal_faces; ++f) {
    const std::size_t l = local_cell(ws.basal_face_cell(f));
    if (l < b.offset || l >= b.offset + b.count) continue;
    MALI_CHECK_MSG(has_face[l - b.offset] == 0,
                   "cell " + std::to_string(ws.basal_face_cell(f)) +
                       " has two basal faces");
    has_face[l - b.offset] = 1;
    faces.push_back(f);
  }
  const std::size_t F = faces.size();
  const int Qf = ws.face_qps;
  b.face_cell_local = pk::View<std::size_t, 1>("face_cell_local", F);
  b.face_wBF = pk::View<double, 3>("face_wBF", F, 4, Qf);
  b.face_beta = pk::View<double, 1>("face_beta", F);
  for (std::size_t i = 0; i < F; ++i) {
    const std::size_t f = faces[i];
    b.face_cell_local(i) = local_cell(ws.basal_face_cell(f)) - b.offset;
    b.face_beta(i) = ws.basal_beta(f);
    for (int k = 0; k < 4; ++k) {
      for (int q = 0; q < Qf; ++q) b.face_wBF(i, k, q) = ws.basal_wBF(f, k, q);
    }
  }
}

/// How far into the staged chain a path writes its fields: only the
/// element Residual (the fused chains gathering from U), the gathered UNodal
/// too, or every intermediate of the staged chain.
enum class FieldStage { kResidual, kGathered, kStaged };

/// Per-evaluation-type field storage (double for Residual, SFad<double,16>
/// for Jacobian).  Each field is allocated lazily, the first time a path
/// writes it: the SFad Jacobian of KernelVariant::kOptimized allocates only
/// Residual, ~2.2 kB per cell, against ~14 kB for the whole staged set.
template <class ScalarT>
struct FieldSet {
  pk::View<ScalarT, 3> UNodal;    ///< (C, N, 2)
  pk::View<ScalarT, 4> Ugrad;     ///< (C, Q, 2, 3)
  pk::View<ScalarT, 2> mu;        ///< (C, Q)
  pk::View<ScalarT, 3> force;     ///< (C, Q, 2)
  pk::View<ScalarT, 3> Residual;  ///< (C, N, 2)

  /// Allocates the fields up to `stage` for C cells, keeping any that are
  /// already large enough.
  void allocate(std::size_t C, int N, int Q, FieldStage stage);

  /// Whether every staged-chain field holds at least C cells.
  [[nodiscard]] bool staged(std::size_t C) const noexcept;
};

/// One CellBlock's tangent linearization: the pack-contiguous
/// quadrature-point cache the dot-only apply reads (one slab per W-cell
/// pack, laid out (qp, field, lane); see physics/stokes_jacobian_apply.hpp)
/// and the state the basal friction tangent still reads.  It is only valid
/// with the engine and block that built it.
struct TangentLinearization {
  int width = 0;   ///< pack width W the slabs are laid out for
  int fields = 0;  ///< doubles per qp and lane: 17, or 18 with A(T)
  /// Constant viscosity (manufactured-solution runs): mu' = 0.
  bool constant_mu = false;
  double coeff = 0.0;           ///< 0.5 A^(-1/n) of a uniform flow factor
  pk::View<double, 1> qp_data;  ///< packs x Q x fields x W
  pk::View<double, 1> U;        ///< linearization state (global)
};

/// Copies a global vector into a view the kernels can read.
[[nodiscard]] pk::View<double, 1> to_view(const std::vector<double>& v);

/// Copies v into `view`, reallocating it only when the sizes differ, and
/// returns it: the reusable staging of a caller's vector for the kernels.
/// Unlike to_view, the result is overwritten by the next call, so only
/// callers that are done with it by then may use it.
const pk::View<double, 1>& copy_to_view(const std::vector<double>& v,
                                        pk::View<double, 1>& view);

class ElementEngine {
 public:
  /// `arrays`, `cfg` and `timers` are the owner's and must outlive the
  /// engine; they are read at every call, so later changes to them (new
  /// constants, a thermal flow factor, another variant) take effect.
  ElementEngine(const ElementArrays& arrays, const StokesFOConfig& cfg,
                pk::TimerRegistry& timers)
      : arrays_(&arrays), cfg_(&cfg), timers_(&timers) {}

  /// The SIMD batch width the double-valued kernels run at: the config's
  /// simd_width with 0 ("auto") resolved to pk::kSimdNativeWidth.
  [[nodiscard]] int simd_width() const noexcept;

  /// The staged evaluator chain up to (not including) StokesFOResid:
  /// gather -> VelocityGradient -> ViscosityFO -> BodyForceFO, or the
  /// gather alone.  Fields are indexed relative to b.offset.  Callers
  /// outside the engine use Exec = pk::DefaultExec (so does
  /// run_resid_kernel); the other entry points take Serial or Threads.
  template <class EvalT, class Exec>
  FieldSet<typename EvalT::ScalarT>& stage(const CellBlock& b,
                                           const pk::View<double, 1>& U,
                                           bool gather_only = false);

  /// The paper's StokesFOResid variant `v` over the block's staged fields;
  /// throws mali::Error unless stage() has allocated all of them.
  template <class EvalT, class Exec>
  void run_resid_kernel(KernelVariant v, const CellBlock& b);

  /// Element residuals (SFad element Jacobians for JacobianEval) of the
  /// block, scatter-added into F (and J, through the block's CRS slot table)
  /// with the configured ScatterMode.  Adds the "evaluate", "kernel" and
  /// "scatter" phase timings.  Throws mali::Error when J's graph misses an
  /// element coupling.
  template <class EvalT, class Exec>
  void assemble(const CellBlock& b, const pk::View<double, 1>& U,
                std::vector<double>& F, linalg::CrsMatrix* J);

  /// Fills lin with the block's tangent cache at state U (the slabs are
  /// reused when lin already has the right size).
  template <class Exec>
  void linearize_tangent(const CellBlock& b, const pk::View<double, 1>& U,
                         TangentLinearization& lin);

  /// y += J_b(U) X: the block's element tangents from the cache that
  /// linearize_tangent(b, U, lin) built, scattered.
  template <class Exec>
  void apply_tangent(const CellBlock& b, const TangentLinearization& lin,
                     const pk::View<double, 1>& X, std::vector<double>& y);

  /// J += the block's element tangent matrices, built from the cache
  /// linearize_tangent(b, U, lin) built and scattered with the configured
  /// ScatterMode through the block's CRS slot table.  Column l of every
  /// cell's 16x16 tangent is the apply's tangent kernels run on the
  /// cell-local unit direction e_l, stored in the SFad Residual's dx(l)
  /// slot; so each entry is the exact value colored operator probing reads,
  /// summed in the same scatter order.
  /// Throws mali::Error when J's graph misses an element coupling.
  template <class Exec>
  void assemble_tangent(const CellBlock& b, const TangentLinearization& lin,
                        linalg::CrsMatrix& J);

  /// blocks += the per-node 2x2 diagonal blocks of the block's SFad element
  /// Jacobians (row-major, 4 doubles per node).
  template <class Exec>
  void accumulate_node_blocks(const CellBlock& b, const pk::View<double, 1>& U,
                              std::vector<double>& blocks);

  /// The field set of one evaluation type (double or SFad<double,16>), with
  /// the fields the engine's paths have allocated so far.
  template <class ScalarT>
  [[nodiscard]] const FieldSet<ScalarT>& field_set() const noexcept {
    if constexpr (ad::is_fad_v<ScalarT>) {
      return jac_fields_;
    } else {
      return res_fields_;
    }
  }

 private:
  /// Element residuals (or SFad element Jacobians) of the block including
  /// basal friction, left in fields().Residual.
  template <class EvalT, class Exec>
  FieldSet<typename EvalT::ScalarT>& evaluate(const CellBlock& b,
                                              const pk::View<double, 1>& U);

  /// tangent_ = the block's per-cell tangents (viscous and basal friction)
  /// in direction X.  `nodes` rows [node_offset, node_offset + count) map
  /// each cell's nodes into the index space of U and X (and stay readable
  /// up to the block's padded cell count).
  template <class Exec>
  void element_tangents(const CellBlock& b, const TangentLinearization& lin,
                        const pk::View<std::size_t, 2>& nodes,
                        std::size_t node_offset, const pk::View<double, 1>& U,
                        const pk::View<double, 1>& X);

  /// FusedStokesChainBatched over the block's gathered velocities.
  template <class Exec>
  void run_fused_batched(const CellBlock& b);

  /// FusedStokesChain<SFad<16>> over the block, gathering from U, into the
  /// SFad Residual.
  template <class Exec>
  void run_fused_sfad(const CellBlock& b, const pk::View<double, 1>& U);

  /// The block's CRS slot table in J's graph: built on first use, rebuilt
  /// when J carries another graph.
  template <class Exec>
  const CrsSlotTable& slot_table(const CellBlock& b,
                                 const linalg::CrsMatrix& J);

  template <class ScalarT>
  FieldSet<ScalarT>& fields() {
    if constexpr (ad::is_fad_v<ScalarT>) {
      return jac_fields_;
    } else {
      return res_fields_;
    }
  }

  const ElementArrays* arrays_;
  const StokesFOConfig* cfg_;
  pk::TimerRegistry* timers_;

  FieldSet<ResidualEval::ScalarT> res_fields_;
  FieldSet<JacobianEval::ScalarT> jac_fields_;
  pk::View<double, 3> tangent_;  ///< (C, N, 2) per-cell J_e x_e scratch

  /// assemble_tangent's scratch, kept for later calls: the cell-local node
  /// map, the state gathered into it and the unit direction (grown to the
  /// largest padded block), and the scatter's discarded residual vector.
  pk::View<std::size_t, 2> tangent_local_;
  pk::View<double, 1> tangent_U_;
  pk::View<double, 1> tangent_X_;
  std::vector<double> tangent_F_;

  /// One slot table per block the engine has scattered into a matrix,
  /// identified by the block's cell range (the engine's cell_nodes are
  /// fixed, so the range determines the cells' couplings).
  struct BlockSlots {
    std::size_t offset = 0;
    std::size_t count = 0;
    CrsSlotTable table;
  };
  std::vector<BlockSlots> slot_tables_;
};

}  // namespace mali::physics
