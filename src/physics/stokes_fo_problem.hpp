#pragma once
// StokesFOProblem — the full first-order Stokes velocity solve: builds the
// synthetic Antarctica mesh and FE arrays, runs the element chain (gather →
// Ugrad → viscosity → StokesFOResid variant → basal friction → scatter)
// through the ElementEngine one workset at a time, and implements the
// NonlinearProblem interface for the damped Newton solver.  This is the
// MiniMALI analog of Albany's LandIce problem.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fem/dof_map.hpp"
#include "fem/workset.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/linear_operator.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "mesh/coloring.hpp"
#include "mesh/extruded_mesh.hpp"
#include "mesh/ice_geometry.hpp"
#include "nonlinear/newton.hpp"
#include "physics/constants.hpp"
#include "physics/element_engine.hpp"
#include "physics/eval_types.hpp"
#include "physics/flow_law.hpp"
#include "physics/manufactured.hpp"
#include "physics/scatter.hpp"
#include "portability/timer.hpp"
#include "portability/view.hpp"

namespace mali::physics {

enum class KernelVariant {
  kBaseline,
  kOptimized,
  kLoopOptOnly,
  kFusedOnly,
  kLocalAccumOnly,
};

[[nodiscard]] const char* to_string(KernelVariant v);

/// A cached tangent linearization applied after the problem changed under
/// it (StokesFOProblem::revision() moved since it was built).
class StaleLinearizationError : public Error {
 public:
  using Error::Error;
};

/// The problem's tangent linearization: one cache per workset block, and
/// the problem revision and Dirichlet row scale it was built at.
struct TangentCache {
  std::vector<TangentLinearization> blocks;
  std::uint64_t revision = 0;
  double dirichlet_scale = 1.0;
};

struct StokesFOConfig {
  mesh::IceGeometryConfig geometry{};
  double dx_m = 16.0e3;  ///< the paper's 16 km resolution
  int n_layers = 20;     ///< the paper's 20 extrusion layers
  PhysicalConstants constants{};
  KernelVariant variant = KernelVariant::kOptimized;
  /// Cells per workset for chunked assembly (0 = one workset covering the
  /// whole mesh).  Albany assembles in worksets to bound device memory; the
  /// field buffers here are allocated at the workset size, so the 17-wide
  /// SFad arrays of the Jacobian evaluation shrink proportionally.
  std::size_t workset_size = 0;
  /// Temperature-dependent Paterson–Budd flow factor instead of uniform A.
  bool thermal_viscosity = false;
  /// Basal sliding law (the paper's test uses the linear default).
  SlidingConfig sliding{};
  /// Element→global scatter strategy (see physics/scatter.hpp).  The colored
  /// default parallelizes the assembly epilogue while keeping a fixed,
  /// thread-count-independent summation order; results differ from kSerial
  /// only by FP reassociation (pinned to ≤1e-13 relative by the tests).
  ScatterMode scatter = ScatterMode::kColored;
  /// Manufactured-solution verification mode: constant viscosity, analytic
  /// forcing, the exact field imposed on every boundary node, no friction.
  MmsConfig mms{};
  /// Jacobian representation for the Newton solve: assembled CRS (default)
  /// or the matrix-free per-element tangent apply (no global matrix).
  linalg::JacobianMode jacobian = linalg::JacobianMode::kAssembled;
  /// SIMD element-batch width for the double-valued fused kernels (residual
  /// chain and matrix-free tangent), on the serial and the distributed
  /// paths alike: 1 = scalar reference path (default, so stored references
  /// and bit-pinned tests are undisturbed), 2/4/8 = batch that many cells
  /// per pack, 0 = auto (pk::kSimdNativeWidth).  The SFad assembled-Jacobian
  /// chain always runs scalar.
  int simd_width = 1;
};

/// Parses a `--simd` CLI value: "auto" → 0, "off" → 1, else a width in
/// {1, 2, 4, 8}.  Throws mali::Error on anything else.
[[nodiscard]] int simd_width_from_string(const std::string& s);

class StokesFOProblem final : public nonlinear::NonlinearProblem {
 public:
  explicit StokesFOProblem(StokesFOConfig cfg);
  // The element engine holds pointers to this object's arrays and config.
  StokesFOProblem(const StokesFOProblem&) = delete;
  StokesFOProblem& operator=(const StokesFOProblem&) = delete;

  // ---- NonlinearProblem ----
  [[nodiscard]] std::size_t n_dofs() const override {
    return dof_map_->n_dofs();
  }
  void residual(const std::vector<double>& U, std::vector<double>& F) override;
  void residual_and_jacobian(const std::vector<double>& U,
                             std::vector<double>& F,
                             linalg::CrsMatrix& J) override;
  [[nodiscard]] linalg::CrsMatrix create_matrix() const override;
  /// Matrix-free Jacobian operator linearized at U (see
  /// physics/matrix_free_operator.hpp); used by the JFNK Newton path.
  [[nodiscard]] std::unique_ptr<linalg::LinearOperator> jacobian_operator(
      const std::vector<double>& U) override;

  // ---- matrix-free Jacobian ----

  /// Builds the tangent cache of every workset block at state U and
  /// records the current revision() and dirichlet_scale() in it (existing
  /// slabs of the right size are reused).
  template <class Exec = pk::DefaultExec>
  void linearize_tangent(const std::vector<double>& U, TangentCache& lin);

  /// y = J(U) x from the cache linearize_tangent(U, lin) built, at the
  /// configured SIMD width — no global matrix is formed.  Exec selects the
  /// pk execution space for the tangent and the scatter.  Dirichlet rows act
  /// as y[d] = lin.dirichlet_scale * x[d], matching the assembled scaled
  /// identity rows.  x and y must be distinct.  Throws
  /// StaleLinearizationError if revision() moved since the cache was built.
  template <class Exec = pk::DefaultExec>
  void apply_tangent(const TangentCache& lin, const std::vector<double>& x,
                     std::vector<double>& y);

  /// Overwrites J's values with J(U) from the cache linearize_tangent(U,
  /// lin) built: each cell's element tangent from the apply's own kernels
  /// on the 16 cell-local unit directions, scattered in the configured
  /// order, and Dirichlet rows set to lin.dirichlet_scale * I.  Bitwise the
  /// matrix colored probing of apply_tangent reads (up to the sign of
  /// zeros).  J's graph must hold every element coupling.  Throws
  /// StaleLinearizationError if revision() moved since the cache was
  /// built, and mali::Error when J has the wrong size or misses a coupling.
  template <class Exec = pk::DefaultExec>
  void assemble_tangent(const TangentCache& lin, linalg::CrsMatrix& J);

  /// y = J(U) x: linearize_tangent at U, then apply_tangent.
  template <class Exec = pk::DefaultExec>
  void apply_jacobian(const std::vector<double>& U,
                      const std::vector<double>& x, std::vector<double>& y);

  /// Per-node 2x2 diagonal blocks of J(U) (row-major, n_nodes blocks →
  /// 2 * n_dofs doubles), extracted from the SFad<16> element Jacobian
  /// without assembling the global matrix.  Also refreshes the Dirichlet
  /// row scale from the mean interior diagonal, exactly as the assembled
  /// path does, and writes scale * I into Dirichlet-node blocks.
  [[nodiscard]] std::vector<double> jacobian_block_diagonal(
      const std::vector<double>& U);

  /// Scale applied to Dirichlet rows (see dirichlet_scale_ below).
  [[nodiscard]] double dirichlet_scale() const noexcept {
    return dirichlet_scale_;
  }

  // ---- accessors ----
  [[nodiscard]] const StokesFOConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const mesh::IceGeometry& geometry() const noexcept {
    return geom_;
  }
  [[nodiscard]] const mesh::ExtrudedMesh& mesh() const noexcept {
    return *mesh_;
  }
  [[nodiscard]] const fem::GeometryWorkset& workset() const noexcept {
    return ws_;
  }
  [[nodiscard]] const fem::DofMap& dof_map() const noexcept {
    return *dof_map_;
  }
  [[nodiscard]] ScatterMode scatter_mode() const noexcept {
    return cfg_.scatter;
  }
  void set_scatter_mode(ScatterMode m) noexcept { cfg_.scatter = m; }

  /// Node-sharing cell coloring of workset w (computed once at construction;
  /// used by the colored scatter and exposed for tests/benches).
  [[nodiscard]] const mesh::CellColoring& workset_coloring(
      std::size_t w) const {
    return blocks_.at(w).coloring;
  }
  [[nodiscard]] std::size_t n_worksets() const noexcept {
    return blocks_.size();
  }

  /// Accumulated per-phase assembly timings ("evaluate", "kernel",
  /// "scatter"), reported via perf::phase_table.
  [[nodiscard]] const pk::TimerRegistry& phase_timers() const noexcept {
    return phase_timers_;
  }
  void reset_phase_timers() { phase_timers_.clear(); }

  /// Extrusion structure for the semicoarsening AMG preconditioner.
  [[nodiscard]] linalg::ExtrusionInfo extrusion_info() const;

  /// Runs the evaluator chain up to (but not including) StokesFOResid for
  /// the given solution — used to stage realistic kernel inputs for the
  /// benches.  EvalT is ResidualEval or JacobianEval.
  template <class EvalT>
  FieldSet<typename EvalT::ScalarT>& evaluate_fields(
      const std::vector<double>& U);

  /// Runs only the StokesFOResid kernel variant over all cells on the
  /// currently staged fields (CPU wall-clock benchmarking).
  template <class EvalT>
  void run_resid_kernel(KernelVariant v);

  /// Mean surface speed (m/yr) over non-Dirichlet nodes — the quantity the
  /// paper's acceptance test compares against a stored reference.
  [[nodiscard]] double mean_velocity(const std::vector<double>& U) const;

  /// Nodal L2 error against the manufactured solution (MMS mode only).
  [[nodiscard]] double mms_error(const std::vector<double>& U) const;

  /// The manufactured solution sampled at every node (MMS mode only).
  [[nodiscard]] std::vector<double> mms_exact() const;

  /// Sets the strain-rate regularization (eps_reg^2), the parameter
  /// Albany's homotopy walks to tame the Glen's-law nonlinearity.
  void set_regularization(double eps_reg2) noexcept {
    cfg_.constants.eps_reg2 = eps_reg2;
    ++revision_;
  }

  /// Replaces the physical-constants block (Glen A, exponent n, eps_reg2,
  /// rho, g) read by every subsequent assembly — the ensemble engine's
  /// parameter-sweep hook.  Mesh, geometry, partition, and coloring are
  /// untouched, which is what makes setup sharing across members valid.
  void set_constants(const PhysicalConstants& c) noexcept {
    cfg_.constants = c;
    ++revision_;
  }

  /// Scales basal friction uniformly: beta(x) = scale * beta0(x), where
  /// beta0 is the construction-time field.  Pure in `scale` — the staged
  /// values are recomputed from pristine copies, never rescaled in place,
  /// so any call history ending at the same scale is bit-identical.
  void set_basal_friction_scale(double scale);
  [[nodiscard]] double basal_friction_scale() const noexcept {
    return basal_friction_scale_;
  }

  /// Replaces the flow-rate factor field with A(T) evaluated from the given
  /// temperature function T(x, y, sigma) — the hook a thermal solver uses
  /// to couple into the viscosity (see examples/thermal_coupling).
  void set_temperature_field(
      const std::function<double(double, double, double)>& temperature);

  /// Counts the changes to what the Jacobian depends on besides the state:
  /// set_constants, set_regularization, set_basal_friction_scale and
  /// set_temperature_field each bump it.  A tangent linearization records
  /// the revision it was built at and refuses to apply at another.
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }

  /// Physically-motivated initial guess (shallow-ice-like surface speeds),
  /// used to stage realistic kernel inputs without a full solve.
  [[nodiscard]] std::vector<double> analytic_initial_guess() const;

  /// The element data the engine reads (dist::Subdomain stages per-rank
  /// copies of it).
  [[nodiscard]] const ElementArrays& element_arrays() const noexcept {
    return elems_;
  }
  [[nodiscard]] const std::vector<double>& dirichlet_values() const noexcept {
    return dirichlet_values_;
  }

  /// The element engine every assembly of this problem runs through.
  [[nodiscard]] const ElementEngine& engine() const noexcept {
    return engine_;
  }

 private:
  template <class EvalT>
  void assemble(const std::vector<double>& U, std::vector<double>& F,
                linalg::CrsMatrix* J);

  /// Throws StaleLinearizationError unless lin was built at revision().
  void check_fresh(const TangentCache& lin) const;

  /// Sets dirichlet_scale_ to the mean |diagonal(r)| over non-Dirichlet
  /// rows (unchanged when that is zero).
  template <class Diagonal>
  void update_dirichlet_scale(const Diagonal& diagonal);

  /// One block per workset, with the basal faces it owns.
  std::vector<CellBlock> blocks_;

  StokesFOConfig cfg_;
  mesh::IceGeometry geom_;
  std::shared_ptr<const mesh::QuadGrid> base_;
  std::unique_ptr<mesh::ExtrudedMesh> mesh_;
  std::unique_ptr<fem::DofMap> dof_map_;
  fem::GeometryWorkset ws_;
  /// ws_'s per-cell arrays plus the body force, the thermal flow factor and
  /// the reference element data the kernels read.
  ElementArrays elems_;

  /// Scale applied to Dirichlet rows/residual entries, updated from the
  /// mean interior diagonal at each Jacobian assembly (keeps the system
  /// well-conditioned for the multigrid; the solution is unaffected by the
  /// row scaling).
  double dirichlet_scale_ = 1.0;
  /// Imposed Dirichlet values (zero except in MMS mode).
  std::vector<double> dirichlet_values_;
  /// Pristine basal friction (construction-time ws_.basal_beta) and the
  /// currently applied uniform scale (set_basal_friction_scale).
  std::vector<double> beta0_global_;
  double basal_friction_scale_ = 1.0;
  std::uint64_t revision_ = 0;  ///< see revision()
  /// Per-phase assembly wall-clock (evaluate / kernel / scatter).
  pk::TimerRegistry phase_timers_;
  /// The caller's vector, staged for the kernels of one residual, Jacobian,
  /// tangent apply or block-diagonal call and reused by the next.
  pk::View<double, 1> input_;
  ElementEngine engine_{elems_, cfg_, phase_timers_};
};

}  // namespace mali::physics
