#pragma once
// Closed-form theoretical minimum data movement for the StokesFOResid
// kernels, computed the way the paper describes: from the multidimensional
// array shapes and the number of unique reads/writes the numerical method
// requires.  This is the analytic counterpart of
// gpusim::ExecModel::theoretical_min_bytes (which derives the same quantity
// from the recorded trace); the two are cross-checked in the tests.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mali::perf {

/// Description of one array the kernel touches.
struct ArrayAccessSpec {
  std::string name;
  std::size_t elements_per_cell = 0;  ///< unique elements per cell
  std::size_t elem_bytes = 0;
  bool is_output = false;  ///< outputs count writes; inputs count reads
};

/// Minimum bytes per cell: every unique input element read once from HBM,
/// every unique output element written once.
[[nodiscard]] inline std::size_t min_bytes_per_cell(
    const std::vector<ArrayAccessSpec>& arrays) {
  std::size_t b = 0;
  for (const auto& a : arrays) b += a.elements_per_cell * a.elem_bytes;
  return b;
}

/// The StokesFOResid array set for a hexahedral workset.
/// `scalar_bytes` is sizeof(double) for the Residual evaluation and
/// sizeof(SFad<double,16>) for the Jacobian — the paper's "the Jacobian
/// kernel is expected to move 16 times more data".
[[nodiscard]] inline std::vector<ArrayAccessSpec> stokes_fo_resid_arrays(
    std::size_t num_nodes, std::size_t num_qps, std::size_t scalar_bytes,
    std::size_t mesh_scalar_bytes = sizeof(double)) {
  const std::size_t dims = 3;
  const std::size_t vec = 2;  // velocity components
  return {
      {"Ugrad", num_qps * vec * dims, scalar_bytes, false},
      {"muLandIce", num_qps, scalar_bytes, false},
      {"force", num_qps * vec, scalar_bytes, false},
      {"wGradBF", num_nodes * num_qps * dims, mesh_scalar_bytes, false},
      {"wBF", num_nodes * num_qps, mesh_scalar_bytes, false},
      {"Residual", num_nodes * vec, scalar_bytes, true},
  };
}

/// Minimum bytes for a full workset.
[[nodiscard]] inline std::size_t stokes_fo_resid_min_bytes(
    std::size_t n_cells, std::size_t num_nodes, std::size_t num_qps,
    std::size_t scalar_bytes) {
  return n_cells * min_bytes_per_cell(stokes_fo_resid_arrays(
                       num_nodes, num_qps, scalar_bytes));
}

/// The SIMD-batched fused residual's array set (FusedStokesChainBatched):
/// the kernel reads only nodal velocities, nodal coordinates and the per-qp
/// body force, recomputing geometry in pack registers, so the streamed
/// wGradBF/wBF/Ugrad/mu arrays of the staged chain disappear.  Reference
/// basis data (ref_grad/ref_val/qp_weight) is shared across all cells and
/// stays cache-resident — it is excluded, exactly as the per-cell byte
/// models above exclude it.  `thermal` adds the per-qp flow factor A(T).
[[nodiscard]] inline std::vector<ArrayAccessSpec> batched_fused_resid_arrays(
    std::size_t num_nodes, std::size_t num_qps, bool thermal = false) {
  const std::size_t dims = 3;
  const std::size_t vec = 2;
  std::vector<ArrayAccessSpec> arrays = {
      {"UNodal", num_nodes * vec, sizeof(double), false},
      {"coords", num_nodes * dims, sizeof(double), false},
      {"force", num_qps * vec, sizeof(double), false},
      {"Residual", num_nodes * vec, sizeof(double), true},
  };
  if (thermal) {
    arrays.push_back({"flow_factor", num_qps, sizeof(double), false});
  }
  return arrays;
}

/// Minimum bytes per batched fused-residual workset (72 doubles/cell for
/// hex8, 80 with the thermal flow factor — vs ~496 for the streamed chain).
[[nodiscard]] inline std::size_t batched_fused_resid_min_bytes(
    std::size_t n_cells, std::size_t num_nodes, std::size_t num_qps,
    bool thermal = false) {
  return n_cells *
         min_bytes_per_cell(batched_fused_resid_arrays(num_nodes, num_qps,
                                                       thermal));
}

// ---------------------------------------------------------------------------
// Jacobian-apply data movement: assembled SpMV vs matrix-free tangent.
//
// In the assembled path the steady-state GMRES traffic is the CRS matrix
// stream — nnz values + the node-paired graph (a 32-bit node column per
// 2x2 block and a 32-bit pointer per node row) — plus the in and out
// vectors, *every* iteration.  The matrix-free apply replaces that with
// per-cell reads of connectivity, the direction, and the quadrature-point
// tangent cache built once per linearization (17 doubles per qp: the map
// inverse, qp_weight·det, five velocity-gradient terms, μ and the Glen's-law
// derivative factor; 18 with a per-qp A(T)), scattering the per-cell
// tangent back.  The cache costs ~1.1 KB per cell (about one cell per node,
// so ~550 B per row) against the CRS stream's ~54 nnz/row * 9 bytes, so the
// modeled bytes/GMRES-iteration of the matrix-free apply sit above the
// assembled path's; it still skips the assembly and never stores a matrix.
// ---------------------------------------------------------------------------

/// Bytes of the node-paired sparsity graph (linalg/crs_matrix.hpp) of an
/// n_rows-row velocity matrix with nnz scalar entries: one 32-bit node
/// column per 2x2 block and one 32-bit pointer per node row.  The values
/// add 8 B per entry, so a matrix stores ~9 B per entry.
[[nodiscard]] inline std::size_t paired_graph_bytes(std::size_t n_rows,
                                                    std::size_t nnz) {
  constexpr std::size_t kIdx = sizeof(std::uint32_t);
  return nnz / 4 * kIdx + (n_rows / 2 + 1) * kIdx;
}

/// Byte model for one operator apply y = J x on the FO Stokes mesh.
struct JacobianApplyModel {
  std::size_t n_rows = 0;        ///< matrix rows (2 dofs/node)
  std::size_t nnz = 0;           ///< assembled CRS nonzeros
  std::size_t n_cells = 0;       ///< hexahedral cells
  std::size_t n_nodes = 0;       ///< mesh nodes
  std::size_t num_nodes = 8;     ///< nodes per cell
  std::size_t n_basal_faces = 0; ///< layer-0 faces (0 in MMS mode)
  std::size_t face_qps = 4;      ///< face quadrature points
  std::size_t num_qps = 8;       ///< quadrature points per cell
  bool thermal = false;          ///< per-qp A(T) field (one more cached double)
  static constexpr std::size_t kIdx = sizeof(std::size_t);
  static constexpr std::size_t kVal = sizeof(double);

  /// Streamed bytes of the assembled CRS SpMV: the full matrix (values +
  /// node-paired graph) plus x read once and y written once.
  [[nodiscard]] std::size_t assembled_stream_bytes() const {
    return nnz * kVal + paired_graph_bytes(n_rows, nnz) + 2 * n_rows * kVal;
  }

  /// Theoretical minimum for the assembled SpMV — identical to the stream:
  /// every stored entry must be read at least once, so the CRS stream is
  /// irreducible.
  [[nodiscard]] std::size_t assembled_min_bytes() const {
    return assembled_stream_bytes();
  }

  /// Doubles per quadrature point in the tangent cache.
  [[nodiscard]] std::size_t cache_fields() const { return thermal ? 18 : 17; }

  /// Bytes of one cell's tangent cache.
  [[nodiscard]] std::size_t cache_bytes_per_cell() const {
    return num_qps * cache_fields() * kVal;
  }

  /// Streamed bytes of the matrix-free tangent apply, per the kernels'
  /// actual array traffic: connectivity + x gathers, the tangent-cache
  /// read, the per-cell Tangent write + scatter read, the y
  /// read-modify-write in the scatter, and the basal-face arrays with the
  /// friction tangent's U gather (the viscous kernel no longer reads U or
  /// the nodal coordinates).  No wGradBF/wBF/gradBF and no matrix stream.
  [[nodiscard]] std::size_t matrix_free_stream_bytes() const {
    const std::size_t per_cell =
        num_nodes * kIdx +            // cell_nodes
        num_nodes * 2 * kVal +        // x gather
        cache_bytes_per_cell() +      // tangent cache
        2 * num_nodes * 2 * kVal +    // Tangent write + scatter read
        2 * num_nodes * 2 * kVal;     // y read-modify-write in the scatter
    const std::size_t per_face =
        kIdx +                        // face -> cell
        kVal +                        // beta
        4 * face_qps * kVal +         // face wBF
        4 * 2 * kVal +                // U gather (4 bed nodes)
        2 * 4 * 2 * kVal;             // Tangent read-modify-write (4 nodes)
    return n_cells * per_cell + n_basal_faces * per_face;
  }

  /// Theoretical minimum for the matrix-free apply: each unique input read
  /// once (x, U at the bed — about one node per basal face — the tangent
  /// cache, connectivity), y written once.
  [[nodiscard]] std::size_t matrix_free_min_bytes() const {
    return n_rows * kVal +                // x, unique
           n_basal_faces * 2 * kVal +     // U at the bed nodes
           n_cells * cache_bytes_per_cell() +
           n_cells * num_nodes * kIdx +   // connectivity (irreducible)
           n_rows * kVal;                 // y written once
  }

  /// Bytes of one linearization's tangent-cache build: connectivity, the U
  /// and nodal-coordinate gathers, the A(T) field when thermal, and the
  /// cache write.  Paid once per Newton step, not per GMRES iteration.
  [[nodiscard]] std::size_t matrix_free_linearize_bytes() const {
    const std::size_t per_cell =
        num_nodes * kIdx +                 // cell_nodes
        num_nodes * 2 * kVal +             // U gather
        num_nodes * 3 * kVal +             // coords
        (thermal ? num_qps * kVal : 0) +   // flow factor
        cache_bytes_per_cell();            // cache write
    return n_cells * per_cell;
  }
};

// ---------------------------------------------------------------------------
// MDSC-AMG data movement on the matrix-free path: what making the
// production preconditioner consumable by the matrix-free operator costs
// and saves.
//
// Setup gets the fine matrix one of two ways: the operator assembles it
// from its tangent cache (the cache read once per local unit direction, 16
// on hex8, plus one pass over the fine CRS arrays), or — for operators
// without that capability — a constant number of probe operator applies
// (27 * dofs/node on the extruded lattice) reconstruct it.  Either way one
// stream of each level's CRS matrix follows for the Galerkin build; the
// setup is amortized over every GMRES iteration of the Newton step.  Per
// V-cycle, each level streams its matrix twice per smoother application
// (the forward and the backward color sweep) and once per residual.
// ---------------------------------------------------------------------------

/// Byte model for the matrix-free AMG setup and V-cycle on the FO Stokes
/// mesh.
struct AmgCycleModel {
  /// Bytes of one fine operator apply (JacobianApplyModel::
  /// matrix_free_stream_bytes(), or assembled_stream_bytes() when the fine
  /// operator is an assembled SpMV).
  std::size_t fine_apply_bytes = 0;
  std::size_t probe_applies = 0;       ///< colored probe applies at setup
  /// True when the operator assembled the fine matrix from its tangent
  /// cache (then probe_applies is 0).
  bool tangent_assembled = false;
  /// Bytes of the whole tangent cache (JacobianApplyModel::n_cells *
  /// cache_bytes_per_cell()), read once per direction when assembling.
  std::size_t tangent_cache_bytes = 0;
  /// Local unit directions the assembly runs: 2 dofs x 8 hex8 nodes.
  static constexpr std::size_t kTangentDirections = 16;
  std::vector<std::size_t> level_rows; ///< dofs per level (0 = fine)
  std::vector<std::size_t> level_nnz;  ///< CRS nonzeros per level
  int pre_sweeps = 1;
  int post_sweeps = 1;
  /// Read by nothing; kept because the bench/e2e harness still sets it.
  bool fine_matrix_free = false;
  static constexpr std::size_t kVal = sizeof(double);

  /// One CRS stream of level l (values + node-paired graph + in/out
  /// vectors) — the SpMV traffic a smoother sweep or residual pays.
  [[nodiscard]] std::size_t level_stream_bytes(std::size_t l) const {
    return level_nnz[l] * kVal +
           paired_graph_bytes(level_rows[l], level_nnz[l]) +
           2 * level_rows[l] * kVal;
  }

  /// Bytes one application of level l's column-line smoother is modeled to
  /// move: the forward and the backward color sweep each stream the matrix
  /// once.  The sweep as run makes 4 + 3 = 7 color passes (the backward one
  /// starts at color 2), each reading the off-column entries of a quarter
  /// of the columns, so it reads 7/4 of the level's off-column entries per
  /// application, plus the in-column band factors.  The modeled number stays
  /// as it is on purpose, so recorded modeled V-cycle bytes (and the
  /// gbps_computed they feed) stay comparable across commits.
  [[nodiscard]] std::size_t smoother_bytes(std::size_t l) const {
    return 2 * level_stream_bytes(l);
  }

  /// Bytes of the fine matrix's tangent assembly (0 unless
  /// tangent_assembled): the cache read once per local unit direction plus
  /// one pass over the fine CRS arrays (values written, graph searched by
  /// the scatter).
  [[nodiscard]] std::size_t tangent_assembly_bytes() const {
    if (!tangent_assembled || level_nnz.empty()) return 0;
    return kTangentDirections * tangent_cache_bytes + level_nnz[0] * kVal +
           paired_graph_bytes(level_rows[0], level_nnz[0]);
  }

  /// Setup traffic: building the fine matrix (probe applies or tangent
  /// assembly) plus one Galerkin stream per level (each coarse matrix is
  /// built by streaming the finer one once).
  [[nodiscard]] std::size_t setup_bytes() const {
    std::size_t b = probe_applies * fine_apply_bytes + tangent_assembly_bytes();
    for (std::size_t l = 0; l < level_nnz.size(); ++l) {
      b += level_stream_bytes(l);
    }
    return b;
  }

  /// One V-cycle: per non-coarsest level, pre/post smoothing plus two
  /// residual computations and the (vector-sized) transfer traffic; the
  /// coarsest level is modeled as one CRS matrix stream.  The banded LU
  /// solve actually streams its factors' band (and the SGS fallback, when
  /// max_levels stops the hierarchy early, its sweeps); the CRS stream is
  /// kept so that recorded modeled V-cycle bytes stay comparable.
  [[nodiscard]] std::size_t vcycle_bytes() const {
    if (level_nnz.empty()) return 0;
    std::size_t b = 0;
    for (std::size_t l = 0; l + 1 < level_nnz.size(); ++l) {
      b += static_cast<std::size_t>(pre_sweeps + post_sweeps) *
               smoother_bytes(l) +
           2 * level_stream_bytes(l) + 4 * level_rows[l] * kVal;
    }
    b += level_stream_bytes(level_nnz.size() - 1);
    return b;
  }
};

}  // namespace mali::perf
