#pragma once
// Rank-parallel domain-decomposed FO Stokes solve (DESIGN.md §12).
//
// solve_distributed() runs the full damped-Newton/GMRES solve SPMD across N
// in-process ranks (dedicated threads over a CommWorld):
//
//   rank r:  Subdomain (owned cells, interior-first)     [dist/subdomain.hpp]
//            HaloExchange plans (dof stride 2, block stride 4)
//            RankStokesProblem  — residual = import ghosts (optionally
//              overlapped with interior assembly) + evaluator chain +
//              export_add + owner Dirichlet rows
//            DistStokesOperator — J(U) as a partial per-rank operator
//              (assembled partial CRS or per-element tangent apply) wrapped
//              in the same import/export protocol
//            DistInnerProduct   — owned-entry reduction + deterministic
//              allreduce, injected into Newton AND GMRES so every branch
//              (convergence tests, line-search damping, restart decisions)
//              is bit-identical on all ranks
//
// Every vector the rank's Newton, Krylov and preconditioner see has OWNED
// extent: entry i is the rank's owned_dofs()[i] (ascending global dof ids).
// Global-extent arrays survive only as private scratch inside the problem
// and the operator, where the Subdomain kernels and the HaloExchange need
// them: each call scatters its owned input into scratch, imports the ghosts,
// runs the kernel and export_add, overrides the owned Dirichlet rows, and
// gathers the owned rows back out.  solve_distributed gathers each rank's
// start vector from the global-extent U and scatters the result back.
//
// Equivalence contract: for any rank count, decomposition, jacobian mode,
// and overlap setting, the converged solution matches the single-rank solve
// to solver tolerance (pinned at <= 1e-10 relative per dof by
// tests/test_dist.cpp); overlap on/off is bit-identical by construction
// (identical assembly order, only the exchange interleaving changes).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/communicator.hpp"
#include "dist/halo_exchange.hpp"
#include "dist/subdomain.hpp"
#include "linalg/inner_product.hpp"
#include "linalg/linear_operator.hpp"
#include "mesh/partition.hpp"
#include "nonlinear/newton.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "resilience/comm_fault.hpp"
#include "resilience/fault_injector.hpp"

namespace mali::dist {

/// Rank-reduced inner product over owned-extent vectors: each rank sums
/// its entries in order, then the deterministic allreduce combines the rank
/// partials in fixed rank order — every rank sees the bit-identical scalar.
class DistInnerProduct final : public linalg::InnerProduct {
 public:
  /// `n_owned`: the extent every reduced vector must have.
  DistInnerProduct(Communicator& comm, std::size_t n_owned)
      : comm_(&comm), n_owned_(n_owned) {}

  [[nodiscard]] double dot(const std::vector<double>& x,
                           const std::vector<double>& y) const override {
    return comm_->allreduce_sum(local_dot(x, y));
  }

  /// All n partials ride ONE allreduce_n collective instead of n scalar
  /// rounds.  Per value the reassociation is identical to dot(), so each
  /// out[k] is bit-identical to the scalar path.
  void dot_batch(const std::vector<linalg::DotPair>& pairs,
                 std::vector<double>& out) const override {
    out = comm_->allreduce_n(local_partials(pairs));
  }

  /// Split-phase: post deposits the rank's partials and returns without
  /// synchronizing — the pipelined solvers run their operator apply (halo
  /// import + local kernel + export) in the reduction's shadow; finish
  /// completes the rank-ordered combine.  Values match dot_batch bitwise.
  void post(const std::vector<linalg::DotPair>& pairs,
            Pending& pending) const override {
    MALI_CHECK_MSG(!pending.active,
                   "InnerProduct::post: reduction already pending");
    comm_->allreduce_post(local_partials(pairs));
    pending.active = true;
  }
  void finish(Pending& pending, std::vector<double>& out) const override {
    MALI_CHECK_MSG(pending.active, "InnerProduct::finish without a post");
    out = comm_->allreduce_finish();
    pending.active = false;
  }

 private:
  [[nodiscard]] double local_dot(const std::vector<double>& x,
                                 const std::vector<double>& y) const {
    MALI_CHECK_MSG(x.size() == n_owned_ && y.size() == n_owned_,
                   "DistInnerProduct: vectors must have the rank's owned "
                   "extent");
    double local = 0.0;
    for (std::size_t i = 0; i < n_owned_; ++i) local += x[i] * y[i];
    return local;
  }

  [[nodiscard]] std::vector<double> local_partials(
      const std::vector<linalg::DotPair>& pairs) const {
    std::vector<double> local(pairs.size());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      local[k] = local_dot(*pairs[k].x, *pairs[k].y);
    }
    return local;
  }

  Communicator* comm_;
  std::size_t n_owned_;
};

/// Per-rank state shared between the residual and the operator: the
/// Dirichlet row scale is refreshed (collectively, so all ranks agree) at
/// each linearization, exactly as the serial problem refreshes it.
struct RankContext {
  double dirichlet_scale = 1.0;
};

/// The rank's rows of the global Jacobian J(U), on owned-extent vectors:
/// applies only the rank's own cells' contributions in global-extent
/// scratch, export_adds the ghost-row partials to their owners, and returns
/// the completed owned rows.  Two internal modes mirror the serial solver's
/// JacobianMode:
///  - kAssembled:  a partial CRS matrix (global sparsity, only local cells
///    scattered) applied with a hand-rolled serial row loop over the local
///    rows (CrsMatrix::apply is pool-parallel and must not run inside a
///    rank thread);
///  - kMatrixFree: the per-element tangent apply over the rank's
///    quadrature-point cache, built once at linearize().
/// linearize() also completes the per-node 2x2 diagonal blocks across ranks
/// (export_add + import on the stride-4 plan) and refreshes the shared
/// Dirichlet scale, so Jacobi/block-Jacobi preconditioners work unchanged
/// through the standard diagonal()/block_diagonal() capabilities, which
/// return the rank's owned nodes only.
class DistStokesOperator final : public linalg::LinearOperator {
 public:
  DistStokesOperator(Subdomain& sub, HaloExchange& halo_dof,
                     HaloExchange& halo_blocks, Communicator& comm,
                     linalg::JacobianMode mode, RankContext& ctx);

  /// Collective: imports ghosts of the owned-extent U, assembles the
  /// partial Jacobian (or builds the rank's tangent cache), completes the
  /// block diagonal, and refreshes ctx.dirichlet_scale via an allreduce.
  void linearize(const std::vector<double>& U);

  [[nodiscard]] std::size_t rows() const override;
  [[nodiscard]] std::size_t cols() const override;

  /// Collective: every rank must call apply the same number of times (the
  /// injected inner product guarantees GMRES does exactly that).  x must
  /// have owned extent.  Throws physics::StaleLinearizationError if the
  /// problem's revision moved since linearize().
  void apply(const std::vector<double>& x,
             std::vector<double>& y) const override;

  bool diagonal(std::vector<double>& d) const override;
  bool block_diagonal(int bs, std::vector<double>& blocks) const override;

  [[nodiscard]] const linalg::CrsMatrix* matrix() const override {
    return nullptr;  // the partial matrix is NOT the global operator
  }
  [[nodiscard]] const char* name() const override {
    return mode_ == linalg::JacobianMode::kAssembled ? "dist-assembled"
                                                     : "dist-matrix-free";
  }

 private:
  Subdomain* sub_;
  HaloExchange* halo_dof_;
  HaloExchange* halo_blk_;
  Communicator* comm_;
  linalg::JacobianMode mode_;
  RankContext* ctx_;

  std::size_t n_owned_;
  std::vector<double> blocks_;  ///< completed 2x2 blocks of owned nodes
  std::unique_ptr<linalg::CrsMatrix> J_;  ///< partial, assembled mode only
  /// Tangent cache per segment, matrix-free mode only.
  std::vector<physics::TangentLinearization> lin_;
  std::uint64_t revision_ = 0;  ///< problem revision at linearize()
  /// Global-extent apply scratch: x with imported ghosts, and the y
  /// accumulator.  Entries outside local_dofs() stay zero.
  mutable std::vector<double> x_;
  mutable std::vector<double> y_;
  bool linearized_ = false;
};

/// The NonlinearProblem each rank hands to the (unchanged) NewtonSolver,
/// over owned-extent vectors.  Always drives the matrix-free Newton path —
/// jacobian_operator() returns a freshly linearized DistStokesOperator
/// whose *internal* mode is the configured JacobianMode.  residual()
/// implements the split-phase halo protocol; with `overlap` the import is
/// overlapped with interior-cell assembly, and the result is bit-identical
/// either way.
class RankStokesProblem final : public nonlinear::NonlinearProblem {
 public:
  RankStokesProblem(Subdomain& sub, HaloExchange& halo_dof,
                    HaloExchange& halo_blocks, Communicator& comm,
                    linalg::JacobianMode mode, bool overlap, RankContext& ctx);

  [[nodiscard]] std::size_t n_dofs() const override {
    return sub_->owned_dofs().size();
  }
  void residual(const std::vector<double>& U, std::vector<double>& F) override;
  void residual_and_jacobian(const std::vector<double>& U,
                             std::vector<double>& F,
                             linalg::CrsMatrix& J) override;
  [[nodiscard]] linalg::CrsMatrix create_matrix() const override;
  [[nodiscard]] std::unique_ptr<linalg::LinearOperator> jacobian_operator(
      const std::vector<double>& U) override;

 private:
  Subdomain* sub_;
  HaloExchange* halo_dof_;
  HaloExchange* halo_blk_;
  Communicator* comm_;
  linalg::JacobianMode mode_;
  bool overlap_;
  RankContext* ctx_;
  /// Global-extent scratch: U with imported ghosts, and the residual
  /// accumulator.  Entries outside local_dofs() stay zero.
  std::vector<double> scratch_;
  std::vector<double> F_;
};

enum class Decomp { kStrips, kBlocks };

[[nodiscard]] const char* to_string(Decomp d);
[[nodiscard]] Decomp decomp_from_string(const std::string& s);

/// Builds the partition a distributed run uses: strips, or a px x py block
/// grid with px the largest factor of n_ranks <= sqrt(n_ranks).
[[nodiscard]] mesh::Partition make_partition(const mesh::QuadGrid& grid,
                                             int n_ranks, Decomp decomp);

struct DistConfig {
  int ranks = 2;
  Decomp decomp = Decomp::kStrips;
  /// Overlap the halo import with interior-cell assembly (split-phase
  /// post_import / finish_import).  Results are bit-identical either way.
  bool overlap = false;
  /// Internal Jacobian representation of DistStokesOperator.
  linalg::JacobianMode jacobian = linalg::JacobianMode::kMatrixFree;
  /// Inner Krylov method for every rank's Newton solve.  The pipelined
  /// variants overlap the fused rank-ordered allreduce with the halo-split
  /// operator apply (DESIGN.md §13); the equivalence contract above holds
  /// for all kinds.
  linalg::KrylovKind krylov = linalg::KrylovKind::kGmres;
  /// Per-rank preconditioner: none | jacobi | block-jacobi.  (Stronger
  /// matrix-dependent preconditioners need the full assembled rows and are
  /// not available per-subdomain.)
  std::string precond = "block-jacobi";
  nonlinear::NewtonConfig newton{};
  bool verbose = false;  ///< rank 0 prints Newton progress

  // ---- fault tolerance (DESIGN.md §16) --------------------------------
  /// Comm-layer guards: checksum framing + bounded waits.  Off by default;
  /// the clean path with guards on is bit-identical (pinned by tests).
  CommGuardConfig guards{};
  /// Solver-level guard decorators (whole-vector finite checks) around
  /// every rank's problem/preconditioner — the same seed on every rank
  /// makes any detection lockstep-identical, so a typed SolverFaultError
  /// surfaces collectively instead of desynchronizing the ranks.
  bool solver_guards = false;
  /// Deterministic comm-level fault injection (tests / CLI).  Every rank
  /// holds its own injector built from this spec; only the seeded victim
  /// rank acts.
  bool inject_comm_fault = false;
  resilience::CommFaultSpec comm_fault{};
  /// Deterministic solver-level fault injection on every rank (implies the
  /// guard decorators above).
  bool inject_solver_fault = false;
  resilience::FaultSpec solver_fault{};
  /// Coordinated restarts: after a typed comm/solver fault poisons the
  /// world, rebuild it and re-solve, up to max_restarts times.  Injectors
  /// persist across attempts (a one-shot fault does not refire), so the
  /// retry IS the transient-fault recovery.
  int max_restarts = 0;
  /// Base delay before restart attempt k, doubled per attempt (seconds).
  double restart_backoff_s = 0.0;
  /// Replicated distributed checkpoint: each rank mirrors its owned state
  /// to its successor every accepted Newton step; a restart seeds from the
  /// last consistent iterate instead of re-converging from scratch.
  bool checkpoint = false;
};

/// One failed solve attempt in the coordinated-restart loop.
struct DistRestartAttempt {
  int attempt = 0;     ///< 0-based attempt that failed
  std::string error;   ///< what the attempt died with
  /// True when the world agreed on a typed comm fault for this attempt
  /// (`fault` then holds the agreed record).
  bool comm_fault = false;
  resilience::CommFault fault{};
  /// True when the NEXT attempt was seeded from the replicated checkpoint.
  bool rolled_back = false;

  [[nodiscard]] std::string to_string() const;
};

/// Structured log of the coordinated-restart loop — the distributed
/// counterpart of resilience::RecoveryLog, one entry per failed attempt.
struct DistRecoveryLog {
  std::vector<DistRestartAttempt> attempts;

  [[nodiscard]] bool empty() const noexcept { return attempts.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return attempts.size(); }
  [[nodiscard]] std::string to_string() const;
  /// Last `n` entries, for compact failure reports (the CLI prints this).
  [[nodiscard]] std::string tail(std::size_t n = 8) const;
};

struct DistRankReport {
  std::size_t owned_cells = 0;    ///< base cells
  std::size_t owned_columns = 0;
  std::size_t halo_columns = 0;
  int n_neighbors = 0;
  HaloStats halo;        ///< dof-plan + block-plan exchanges combined
  CommCounters comm;     ///< this rank's reduction/message traffic
  double kernel_s = 0.0; ///< assembly/tangent kernel wall-clock
  double total_s = 0.0;  ///< whole-rank solve wall-clock
  nonlinear::NewtonResult newton;
};

struct DistResult {
  std::vector<double> U;  ///< gathered solution (owned entries per rank)
  mesh::Partition partition;
  std::vector<DistRankReport> ranks;
  bool converged = false;
  int newton_iters = 0;
  double residual_norm = 0.0;
  /// Restarts it took to produce this result (0 on the clean path) and the
  /// per-failure log.
  int restarts = 0;
  DistRecoveryLog recovery;
};

/// Runs the domain-decomposed Newton solve over cfg.ranks in-process ranks.
/// `U0` (global extent) seeds every rank; nullptr means zero.  The shared
/// problem is only read.  On a rank failure the CommWorld is poisoned (no
/// rank deadlocks in a collective); with cfg.max_restarts the solve is
/// retried — rolled back to the replicated checkpoint when one exists —
/// and only a fault that survives the whole restart budget propagates
/// (typed: CommFaultError / SolverFaultError).  `log_out`, when non-null,
/// receives the restart log even when the solve ultimately throws (the CLI
/// prints its tail on failure).
[[nodiscard]] DistResult solve_distributed(
    const physics::StokesFOProblem& problem, const DistConfig& cfg,
    const std::vector<double>* U0 = nullptr,
    DistRecoveryLog* log_out = nullptr);

}  // namespace mali::dist
