#pragma once
// Semicoarsening algebraic multigrid for extruded (layered) meshes — the
// stand-in for MALI's matrix-dependent semicoarsening AMG preconditioner
// (MDSC-AMG, Tuminaro et al. 2016).
//
// Ice-sheet meshes are extremely anisotropic: 16 km horizontally versus
// tens of meters vertically, so the strong matrix couplings run along mesh
// columns.  The hierarchy therefore first coarsens *only* in the vertical
// (pairwise aggregation of adjacent levels within each column) until each
// column has collapsed to a single node, then switches to 2x2 horizontal
// aggregation of columns — exactly the structure-exploiting strategy of the
// paper's preconditioner.  Galerkin coarse operators (A_c = P^T A P with
// piecewise-constant P), column-line smoothing, and a banded LU coarse
// solve (the 2D coarsest level factored inside its band) complete the
// V-cycle.
//
// Setup splits into a symbolic and a numeric half.  The aggregation, each
// level's Galerkin plan over graph nodes (coarse pattern, inverse
// aggregation map, one coarse block position per fine block) and the
// smoother coloring depend only on the ExtrusionInfo and the fine graph, so
// they are built on the first compute() and replayed by every later one
// whose matrix shares that graph object (CrsMatrix::graph); any other graph
// rebuilds them.  Every level keeps the fine graph's block size, so a
// node-paired fine matrix gives node-paired coarse levels.  Each compute()
// then runs the numeric Galerkin pass (parallel over coarse node rows) and
// refactors the smoothers.
//
// The smoother is column-line relaxation (ColumnLineSmoother): each
// column's in-column block is solved exactly, columns colored by their 2x2
// lattice parity so one color's columns run in parallel.
//
// Threading: apply() is one pk team region (ThreadPool::team) for the
// whole V-cycle.  Each phase of a level gives every member a fixed
// contiguous slice of its items: each color's columns in the smoother
// sweeps, the aggregates in the fused residual and restriction, the node
// rows in the prolongation and the second residual.  So the same thread
// touches the same rows of A in every pass and every cycle.  Barriers
// separate the phases, and rank 0 alone runs the coarse solve.  The
// numeric Galerkin pass and the smoother factorization run on the pool
// when they touch at least a few thousand matrix entries, inline below
// that.  Each item of a phase writes only its own outputs, in a fixed
// order, so every result is independent of the thread count.
//
// The preconditioner is consumable from either side of the Jacobian split:
//  * compute(const CrsMatrix&) — the classic assembled path;
//  * compute(const LinearOperator&) — unwraps A.matrix() when one exists;
//    otherwise the operator writes its own fine matrix onto the structural
//    3x3x3 lattice graph through LinearOperator::assemble (the matrix-free
//    Stokes operator does, from its tangent cache), and an operator without
//    that capability is *probed* instead, via the structure-aware coloring
//    of linalg::StructuredProbing (a constant 27 * dofs_per_node applies).
//    The graph is built once per AMG; the usual Galerkin hierarchy is built
//    on the resulting matrix, and the operator is not kept.
// See DESIGN.md §10 for the assembly and probing contracts.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "linalg/banded_lu.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/preconditioner.hpp"
#include "portability/thread_pool.hpp"

namespace mali::linalg {

struct AmgConfig {
  int max_levels = 12;
  /// Coarsest-level size at or below which it is solved by banded LU.
  std::size_t coarse_max_dofs = 1200;
  /// Column-line sweeps per smoother application, at least 1; the pre-
  /// and the post-smoother both use it.
  int pre_sweeps = 1;
  int coarse_sgs_sweeps = 40;  ///< fallback if the coarsest level stays large
};

/// Mesh structure the semicoarsening (and the operator probing) needs:
/// which column and vertical level each node belongs to, plus column
/// coordinates for the horizontal phase.
///
/// Layout contract: node ids follow the extruded layout
///   node = column * levels + level
/// (levels fastest within a column — exactly mesh::ExtrudedMesh::node_id),
/// dofs are grouped per node as dof = node * dofs_per_node + component, and
/// column_x/column_y place each column on a dx-spaced lattice (holes from
/// the ice mask are fine; duplicate lattice sites are not).  Both the
/// hierarchy build and StructuredProbing rely on this contract.
struct ExtrusionInfo {
  std::size_t n_nodes = 0;
  std::size_t levels = 0;            ///< vertical levels per column
  int dofs_per_node = 2;
  std::vector<double> column_x;      ///< per column
  std::vector<double> column_y;
  double dx = 1.0;                   ///< horizontal spacing
};

/// Symmetric colored column-line relaxation: block Gauss–Seidel whose
/// blocks are mesh columns.
///
/// Dofs [c * column_dofs, (c+1) * column_dofs) form column c (the extruded
/// layout of ExtrusionInfo at any hierarchy level); column_color[c] in 0..3
/// is the parity of its 2x2 lattice position.  On the 27-point extruded
/// stencil two columns of one color never couple, so one color's columns
/// relax concurrently and the result does not depend on the thread count.
/// compute() checks the coloring against the matrix graph, records where
/// each node row's in-column blocks start and end (sorted node rows make
/// them one run; a row whose in-column entries are split throws mali::Error
/// naming the level and row), and factors each column's in-column block: banded
/// (block-tridiagonal in 2x2 node blocks on an extruded mesh), LU without
/// pivoting.  One sweep relaxes the colors forward (0 -> 3), then back
/// (3 -> 0), from z = 0; a row's relaxation subtracts the entries before
/// its run, then those after it, in row order.  apply() is one pk team
/// region, a barrier after each color.
class ColumnLineSmoother final : public Preconditioner {
 public:
  /// `level` only names the hierarchy level in error messages.
  ColumnLineSmoother(std::size_t column_dofs,
                     std::vector<std::uint8_t> column_color,
                     std::size_t level = 0, int sweeps = 1);

  using Preconditioner::compute;  // operator form: requires A.matrix()
  /// Plans on A's graph — throws mali::Error naming the level when two
  /// same-color columns couple, or a row's in-column entries are not one
  /// run — then factors.  A must outlive the applies.
  void compute(const CrsMatrix& A) override;
  /// Refactors the in-column blocks from new values on the graph the last
  /// compute() planned on, replaying its plan (band and in-column runs);
  /// throws mali::Error on a zero pivot, naming the lowest such column.
  void refactor(const CrsMatrix& A);
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override;
  [[nodiscard]] const char* name() const override { return "column-line"; }

  /// Half-bandwidth of the in-column blocks (dof offset from the diagonal).
  [[nodiscard]] std::size_t bandwidth() const noexcept { return band_; }

 private:
  /// Fills and factors the in-column bands, on a graph of block B.
  template <int B>
  void factor();
  friend class SemicoarseningAmg;
  /// Relaxes column c; correct, when set, gets the result added.
  template <int B>
  void relax_column(std::size_t c, const double* r, double* z,
                    double* correct) const;
  /// The smoother's sweeps as one member of a team region, from a z that
  /// holds zeros wherever a column reads it before relaxing it; ends with
  /// a barrier.  correct, when set, gets every column's final values
  /// added, at the column's last relaxation.
  template <int B>
  void smooth(const pk::ThreadPool::Team& team, const double* r, double* z,
              double* correct) const;

  std::size_t m_;  ///< dofs per column
  std::vector<std::uint8_t> color_;
  std::size_t level_;
  int sweeps_;
  std::vector<std::size_t> by_color_[4];  ///< column ids per color
  std::size_t band_ = 0;
  /// Per node row I of the graph, its in-column blocks [brp[I] + lo,
  /// brp[I] + hi): one run, since node rows are sorted and a column's dofs
  /// are contiguous.  The sweep reads the blocks on either side of it.
  struct Run {
    std::uint32_t lo, hi;
  };
  std::vector<Run> runs_;
  std::shared_ptr<const CrsGraph> graph_;  ///< the graph planned on
  const CrsMatrix* A_ = nullptr;
  /// Per column, an m x (2 band + 1) row-major band holding the unit-lower
  /// L (below the diagonal) and U (diagonal and above).
  std::vector<double> lu_;
};

class StructuredProbing;

class SemicoarseningAmg final : public Preconditioner {
 public:
  SemicoarseningAmg(ExtrusionInfo info, AmgConfig cfg = {});
  ~SemicoarseningAmg() override;

  void compute(const CrsMatrix& A) override;
  /// Operator form: unwraps A.matrix() when assembled.  Otherwise the fine
  /// matrix lives on the structural 3x3x3 lattice graph of the
  /// ExtrusionInfo (see StructuredProbing), built on the first such call
  /// and kept: A.assemble() fills it when A supports that, and colored
  /// probing (probe_applies() operator applies) fills it when A does not.
  /// Errors from A.assemble (a stale linearization, say) propagate.  A is
  /// not kept: the V-cycle runs on the fine matrix alone.
  void compute(const LinearOperator& A) override;
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override;
  [[nodiscard]] const char* name() const override {
    return "semicoarsening-amg";
  }

  [[nodiscard]] std::size_t n_levels() const noexcept {
    return levels_.size();
  }
  [[nodiscard]] std::size_t level_dofs(std::size_t l) const {
    return levels_[l].A.n_rows();
  }
  [[nodiscard]] std::size_t level_nnz(std::size_t l) const {
    return levels_[l].A.nnz();
  }
  /// Level l's matrix: 0 is the fine matrix the hierarchy was built on
  /// (assembled copy, operator-assembled or probed), then the Galerkin
  /// coarse operators.
  [[nodiscard]] const CrsMatrix& level_matrix(std::size_t l) const {
    MALI_CHECK_MSG(l < levels_.size(), "AMG: no such level");
    return levels_[l].A;
  }
  /// Level l's fine dof -> level l+1 dof map (empty on the coarsest),
  /// expanded from the plan's node map on each call.
  [[nodiscard]] std::vector<std::size_t> level_aggregation(
      std::size_t l) const;

  /// Operator applies the last compute() spent probing the fine matrix:
  /// 0 on the assembled path and for operators that assemble themselves.
  [[nodiscard]] std::size_t probe_applies() const noexcept {
    return probe_applies_;
  }
  /// True when the last compute() got its fine matrix from the operator's
  /// own LinearOperator::assemble (no probe applies).
  [[nodiscard]] bool fine_operator_assembled() const noexcept {
    return fine_operator_assembled_;
  }
  /// Always false: every level runs on its matrix.  Kept because the
  /// bench/e2e harness still reads it.
  [[nodiscard]] bool fine_matrix_free() const noexcept { return false; }

  // ---- recycling instrumentation (ensemble engine / tests / bench) ----
  /// compute() calls that derived the hierarchy structure from scratch
  /// (the first one, and any whose fine graph is not level 0's).
  [[nodiscard]] std::size_t hierarchy_builds() const noexcept {
    return hierarchy_builds_;
  }
  /// compute() calls that replayed the cached structure: same fine graph
  /// object, so only the numeric Galerkin pass and the smoother setups ran.
  [[nodiscard]] std::size_t structure_reuses() const noexcept {
    return structure_reuses_;
  }

  /// Seconds one level's V-cycle phases took, summed over every apply()
  /// since the hierarchy was built.  Rank 0 of the team reads the clock at
  /// the barriers that end the phases.
  struct LevelTimes {
    double pre_smooth_s = 0.0;
    double restrict_s = 0.0;     ///< residual + restriction
    double prolong_s = 0.0;      ///< prolongation + residual
    double post_smooth_s = 0.0;  ///< the correction folded in
    double coarse_s = 0.0;       ///< the coarsest level's solve
  };
  /// One entry per level.
  [[nodiscard]] const std::vector<LevelTimes>& level_times() const noexcept {
    return times_;
  }

 private:
  struct Level {
    CrsMatrix A;
    // Galerkin plan to the next level (empty on the coarsest), a pure
    // function of the fine graph: built once per hierarchy, replayed by
    // every numeric pass and every restriction.  It maps graph nodes (B =
    // A.graph()->block dofs each, whose components stay separate): dof
    // B i + e aggregates into dof B agg[i] + e of the next level.
    std::vector<std::uint32_t> agg;  ///< fine node -> coarse node
    std::size_t n_coarse = 0;        ///< dofs of the next level
    /// Inverse of agg: coarse node I aggregates the fine nodes
    /// members[member_ptr[I] .. member_ptr[I+1]), in ascending order.
    std::vector<std::uint32_t> member_ptr, members;
    /// Fine block p -> its position in its coarse node row of the next
    /// level's graph (the block its B x B entries add into).
    std::vector<std::uint32_t> slot;
    // Column structure for the column-line smoother.
    std::size_t column_dofs = 0;
    std::vector<std::uint8_t> column_color;
    std::optional<ColumnLineSmoother> smoother;  ///< none on the coarsest
    // scratch for the V-cycle, sized before its team region
    mutable std::vector<double> r, z, rc, zc;
  };

  /// Refreshes the hierarchy from a new fine matrix: replays the cached
  /// plans when A shares level 0's graph, rebuilds them otherwise; then
  /// runs the numeric Galerkin pass and the coarse factorization.
  void load_fine(const CrsMatrix& A);
  void build_hierarchy(const CrsMatrix& A_fine);
  /// Coarse values of level l+1 from level l's values and plan.
  void galerkin_values(std::size_t l);
  template <int B>
  void galerkin_values(std::size_t l);
  /// Banded LU (or the SGS fallback) for the coarsest level.
  void factor_coarse();
  void setup_smoothers();
  struct PhaseClock;
  /// Level l's cycle on b into z as one member of the team region; z holds
  /// zeros on entry.
  template <int B>
  void vcycle(const pk::ThreadPool::Team& team, PhaseClock& clock,
              std::size_t l, const std::vector<double>& b,
              std::vector<double>& z) const;

  ExtrusionInfo info_;
  AmgConfig cfg_;
  std::vector<Level> levels_;

  std::size_t probe_applies_ = 0;
  bool fine_operator_assembled_ = false;
  /// Operator path only, built on its first compute(): the lattice graph
  /// and probe coloring, and the fine matrix on that graph.
  std::unique_ptr<const StructuredProbing> probing_;
  CrsMatrix fine_;

  std::size_t hierarchy_builds_ = 0;
  std::size_t structure_reuses_ = 0;
  mutable std::vector<LevelTimes> times_;  ///< written by rank 0 only

  // Coarse solve: banded LU factored from levels_.back().A into a buffer
  // every compute() reuses, or SGS sweeps when the coarsest level stays
  // above coarse_max_dofs (max_levels reached first).
  BandedLu coarse_lu_;
  bool use_direct_coarse_ = false;
  std::unique_ptr<SymGaussSeidelPreconditioner> coarse_sgs_;
};

}  // namespace mali::linalg
