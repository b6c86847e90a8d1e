#include "dist/dist_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "dist/dist_checkpoint.hpp"
#include "linalg/block_jacobi.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/preconditioner.hpp"
#include "portability/common.hpp"
#include "portability/thread_pool.hpp"
#include "portability/timer.hpp"
#include "resilience/guards.hpp"

namespace mali::dist {

// ---------------------------------------------------------------------------
// Decomp helpers
// ---------------------------------------------------------------------------

const char* to_string(Decomp d) {
  switch (d) {
    case Decomp::kStrips: return "strips";
    case Decomp::kBlocks: return "blocks";
  }
  return "?";
}

Decomp decomp_from_string(const std::string& s) {
  if (s == "strips") return Decomp::kStrips;
  if (s == "blocks") return Decomp::kBlocks;
  MALI_CHECK_MSG(false, "unknown decomposition '" + s +
                            "' (expected strips|blocks)");
  return Decomp::kStrips;
}

mesh::Partition make_partition(const mesh::QuadGrid& grid, int n_ranks,
                               Decomp decomp) {
  MALI_CHECK_MSG(n_ranks >= 1, "distributed solve needs at least one rank");
  if (decomp == Decomp::kStrips || n_ranks == 1) {
    return mesh::partition_strips(grid, n_ranks);
  }
  // px = the largest factor of n_ranks that is <= sqrt(n_ranks).
  int px = static_cast<int>(std::sqrt(static_cast<double>(n_ranks)));
  while (px > 1 && n_ranks % px != 0) --px;
  const int py = n_ranks / px;
  return mesh::partition_blocks(grid, px, py);
}

// ---------------------------------------------------------------------------
// DistStokesOperator
// ---------------------------------------------------------------------------

DistStokesOperator::DistStokesOperator(Subdomain& sub, HaloExchange& halo_dof,
                                       HaloExchange& halo_blocks,
                                       Communicator& comm,
                                       linalg::JacobianMode mode,
                                       RankContext& ctx)
    : sub_(&sub),
      halo_dof_(&halo_dof),
      halo_blk_(&halo_blocks),
      comm_(&comm),
      mode_(mode),
      ctx_(&ctx),
      n_owned_(sub.owned_dofs().size()) {}

std::size_t DistStokesOperator::rows() const { return n_owned_; }
std::size_t DistStokesOperator::cols() const { return n_owned_; }

void DistStokesOperator::linearize(const std::vector<double>& U) {
  const physics::StokesFOProblem& prob = sub_->problem();
  const std::size_t n = prob.n_dofs();
  MALI_CHECK_MSG(U.size() == n_owned_,
                 "DistStokesOperator::linearize: U must have owned extent");
  const std::size_t n_nodes = n / 2;

  std::vector<double> Ug(n, 0.0);  // global-extent U, ghosts imported
  scatter_owned(U, sub_->owned_dofs(), Ug);
  halo_dof_->import_ghosts(Ug);
  x_.assign(n, 0.0);
  y_.assign(n, 0.0);

  std::vector<double> blocks;  // global-extent per-node 2x2 blocks
  if (mode_ == linalg::JacobianMode::kAssembled) {
    if (!J_) J_ = std::make_unique<linalg::CrsMatrix>(prob.create_matrix());
    J_->set_zero();
    std::vector<double> Fdummy(n, 0.0);
    sub_->assemble_jacobian_segment(Subdomain::kInterior, Ug, Fdummy, *J_);
    sub_->assemble_jacobian_segment(Subdomain::kBoundary, Ug, Fdummy, *J_);
    // Extract this rank's partial per-node 2x2 diagonal blocks from the
    // partial matrix (zero everywhere the rank's cells did not touch).
    blocks.assign(2 * n, 0.0);
    const std::vector<char>& local = sub_->node_is_local();
    for (std::size_t node = 0; node < n_nodes; ++node) {
      if (!local[node]) continue;
      for (int r = 0; r < 2; ++r) {
        for (int c = 0; c < 2; ++c) {
          blocks[node * 4 + static_cast<std::size_t>(r) * 2 +
                 static_cast<std::size_t>(c)] =
              J_->get(2 * node + static_cast<std::size_t>(r),
                      2 * node + static_cast<std::size_t>(c));
        }
      }
    }
  } else {
    sub_->linearize_tangent(Ug, lin_);
    blocks = sub_->partial_node_blocks(Ug);
  }

  // Complete the block diagonal at the owners and agree on the Dirichlet row
  // scale collectively (same formula as the serial problem: mean |diag| over
  // non-Dirichlet dofs).
  halo_blk_->export_add(blocks);

  const fem::DofMap& dm = prob.dof_map();
  const std::vector<char>& owned = sub_->node_is_owned();
  double sum = 0.0;
  double cnt = 0.0;
  for (std::size_t node = 0; node < n_nodes; ++node) {
    if (!owned[node]) continue;
    for (int c = 0; c < 2; ++c) {
      const std::size_t d = 2 * node + static_cast<std::size_t>(c);
      if (dm.is_dirichlet_dof(d)) continue;
      sum += std::abs(blocks[node * 4 + static_cast<std::size_t>(c) * 3]);
      cnt += 1.0;
    }
  }
  const std::vector<double> g = comm_->allreduce_sum(std::vector<double>{sum, cnt});
  if (g[1] > 0.0 && g[0] > 0.0) ctx_->dirichlet_scale = g[0] / g[1];

  // Keep the owned nodes' blocks, in owned-dof order.  Dirichlet nodes get
  // scale * I to match the owner's row override (MMS/Dirichlet columns pin
  // both components of a node together).
  const std::vector<std::size_t>& owned_dofs = sub_->owned_dofs();
  blocks_.resize(2 * n_owned_);
  for (std::size_t k = 0; 2 * k < n_owned_; ++k) {
    const std::size_t node = owned_dofs[2 * k] / 2;
    double* b = blocks_.data() + 4 * k;
    if (dm.is_dirichlet_dof(2 * node)) {
      b[0] = ctx_->dirichlet_scale; b[1] = 0.0;
      b[2] = 0.0; b[3] = ctx_->dirichlet_scale;
    } else {
      std::copy_n(blocks.data() + 4 * node, 4, b);
    }
  }

  revision_ = prob.revision();
  linearized_ = true;
}

void DistStokesOperator::apply(const std::vector<double>& x,
                               std::vector<double>& y) const {
  MALI_CHECK(linearized_);
  MALI_CHECK(&x != &y);
  MALI_CHECK_MSG(x.size() == n_owned_,
                 "DistStokesOperator::apply: x must have owned extent");
  if (sub_->problem().revision() != revision_) {
    throw physics::StaleLinearizationError(
        "DistStokesOperator: the problem changed since linearize()");
  }

  const std::vector<std::size_t>& owned = sub_->owned_dofs();
  scatter_owned(x, owned, x_);
  halo_dof_->import_ghosts(x_);
  for (const std::size_t row : sub_->local_dofs()) y_[row] = 0.0;

  if (mode_ == linalg::JacobianMode::kAssembled) {
    // Hand-rolled serial row loop over the rows this rank's cells touch:
    // CrsMatrix::apply is pool-parallel and must not run inside a rank
    // thread.  Couplings to non-local dofs have zero VALUES in the partial
    // matrix and meet zero x_ entries there.
    const linalg::CrsGraph& g = *J_->graph();
    const std::vector<double>& vals = J_->values();
    for (const std::size_t row : sub_->local_dofs()) {
      double acc = 0.0;
      g.for_row(row, [&](std::size_t k, std::size_t c) {
        acc += vals[k] * x_[c];
      });
      y_[row] = acc;
    }
  } else {
    sub_->apply_tangent(lin_, x_, y_);
  }

  halo_dof_->export_add(y_);

  for (const std::size_t d : sub_->owned_dirichlet_dofs()) {
    y_[d] = ctx_->dirichlet_scale * x_[d];
  }
  gather_owned(y_, owned, y);
}

bool DistStokesOperator::diagonal(std::vector<double>& d) const {
  MALI_CHECK(linearized_);
  d.resize(n_owned_);
  for (std::size_t k = 0; 2 * k < n_owned_; ++k) {
    d[2 * k] = blocks_[4 * k];
    d[2 * k + 1] = blocks_[4 * k + 3];
  }
  return true;
}

bool DistStokesOperator::block_diagonal(int bs,
                                        std::vector<double>& blocks) const {
  if (bs != 2) return false;
  MALI_CHECK(linearized_);
  blocks = blocks_;
  return true;
}

// ---------------------------------------------------------------------------
// RankStokesProblem
// ---------------------------------------------------------------------------

RankStokesProblem::RankStokesProblem(Subdomain& sub, HaloExchange& halo_dof,
                                     HaloExchange& halo_blocks,
                                     Communicator& comm,
                                     linalg::JacobianMode mode, bool overlap,
                                     RankContext& ctx)
    : sub_(&sub),
      halo_dof_(&halo_dof),
      halo_blk_(&halo_blocks),
      comm_(&comm),
      mode_(mode),
      overlap_(overlap),
      ctx_(&ctx),
      scratch_(sub.problem().n_dofs(), 0.0),
      F_(sub.problem().n_dofs(), 0.0) {}

void RankStokesProblem::residual(const std::vector<double>& U,
                                 std::vector<double>& F) {
  const std::vector<std::size_t>& owned = sub_->owned_dofs();
  MALI_CHECK_MSG(U.size() == owned.size(),
                 "RankStokesProblem::residual: U must have owned extent");

  scatter_owned(U, owned, scratch_);
  for (const std::size_t row : sub_->local_dofs()) F_[row] = 0.0;
  if (overlap_) {
    // Split-phase: post the ghost import, assemble the interior cells (which
    // by construction read only owned columns), then complete the import
    // before the boundary cells that need the ghosts.
    halo_dof_->post_import(scratch_);
    sub_->assemble_residual_segment(Subdomain::kInterior, scratch_, F_);
    halo_dof_->finish_import(scratch_);
  } else {
    halo_dof_->import_ghosts(scratch_);
    sub_->assemble_residual_segment(Subdomain::kInterior, scratch_, F_);
  }
  sub_->assemble_residual_segment(Subdomain::kBoundary, scratch_, F_);
  halo_dof_->export_add(F_);

  const std::vector<double>& g = sub_->problem().dirichlet_values();
  for (const std::size_t d : sub_->owned_dirichlet_dofs()) {
    F_[d] = ctx_->dirichlet_scale * (scratch_[d] - g[d]);
  }
  gather_owned(F_, owned, F);
}

void RankStokesProblem::residual_and_jacobian(const std::vector<double>&,
                                              std::vector<double>&,
                                              linalg::CrsMatrix&) {
  MALI_CHECK_MSG(false,
                 "distributed solve is matrix-free at the Newton level; the "
                 "assembled fallback path is not supported per-rank");
}

linalg::CrsMatrix RankStokesProblem::create_matrix() const {
  MALI_CHECK_MSG(false,
                 "distributed solve is matrix-free at the Newton level; a "
                 "rank has no assembled owned-extent matrix");
  return {};
}

std::unique_ptr<linalg::LinearOperator> RankStokesProblem::jacobian_operator(
    const std::vector<double>& U) {
  auto op = std::make_unique<DistStokesOperator>(*sub_, *halo_dof_, *halo_blk_,
                                                 *comm_, mode_, *ctx_);
  op->linearize(U);
  return op;
}

// ---------------------------------------------------------------------------
// solve_distributed
// ---------------------------------------------------------------------------

namespace {

std::unique_ptr<linalg::Preconditioner> make_rank_precond(
    const std::string& name) {
  if (name == "none" || name == "identity") {
    return std::make_unique<linalg::IdentityPreconditioner>();
  }
  if (name == "jacobi") return std::make_unique<linalg::JacobiPreconditioner>();
  if (name == "block-jacobi") {
    return std::make_unique<linalg::BlockJacobiPreconditioner>(2);
  }
  MALI_CHECK_MSG(false, "distributed solve: unknown preconditioner '" + name +
                            "' (expected none|jacobi|block-jacobi)");
  return nullptr;
}

void accumulate(HaloStats& into, const HaloStats& s) {
  into.pack_s += s.pack_s;
  into.exchange_s += s.exchange_s;
  into.unpack_s += s.unpack_s;
  into.bytes_sent += s.bytes_sent;
  into.exchanges += s.exchanges;
}

}  // namespace

std::string DistRestartAttempt::to_string() const {
  std::ostringstream os;
  os << "attempt " << attempt << ": ";
  if (comm_fault) {
    os << fault.describe();
  } else {
    os << error;
  }
  if (rolled_back) os << " -> rolled back to replicated checkpoint";
  return os.str();
}

std::string DistRecoveryLog::to_string() const {
  std::ostringstream os;
  for (const DistRestartAttempt& a : attempts) os << a.to_string() << '\n';
  return os.str();
}

std::string DistRecoveryLog::tail(std::size_t n) const {
  std::ostringstream os;
  const std::size_t from = attempts.size() > n ? attempts.size() - n : 0;
  if (from > 0) os << "... (" << from << " earlier attempts)\n";
  for (std::size_t i = from; i < attempts.size(); ++i) {
    os << attempts[i].to_string() << '\n';
  }
  return os.str();
}

DistResult solve_distributed(const physics::StokesFOProblem& problem,
                             const DistConfig& cfg,
                             const std::vector<double>* U0,
                             DistRecoveryLog* log_out) {
  MALI_CHECK_MSG(cfg.ranks >= 1, "DistConfig.ranks must be >= 1");
  const std::size_t n = problem.n_dofs();
  const auto N = static_cast<std::size_t>(cfg.ranks);

  const mesh::Partition part =
      make_partition(problem.mesh().base(), cfg.ranks, cfg.decomp);

  std::vector<double> U_init(n, 0.0);
  if (U0 != nullptr) {
    MALI_CHECK(U0->size() == n);
    U_init = *U0;
  }

  // Injectors persist ACROSS restart attempts (one per rank: the per-site
  // counters are thread-local by construction), so a one-shot injected
  // fault fires once and the retried attempt runs clean — the restart loop
  // is the transient-fault recovery, not a fault replay.
  const bool use_solver_guards = cfg.solver_guards || cfg.inject_solver_fault;
  std::vector<std::unique_ptr<resilience::CommFaultInjector>> comm_inj;
  std::vector<std::unique_ptr<resilience::FaultInjector>> solver_inj;
  for (std::size_t r = 0; r < N; ++r) {
    comm_inj.push_back(
        cfg.inject_comm_fault
            ? std::make_unique<resilience::CommFaultInjector>(cfg.comm_fault)
            : nullptr);
    solver_inj.push_back(
        cfg.inject_solver_fault
            ? std::make_unique<resilience::FaultInjector>(cfg.solver_fault)
            : nullptr);
  }

  DistCheckpoint ckpt;
  if (cfg.checkpoint) ckpt.U.assign(n, 0.0);

  DistRecoveryLog rlog;
  const int total_attempts = 1 + std::max(0, cfg.max_restarts);

  for (int attempt = 0;; ++attempt) {
    if (attempt > 0 && cfg.restart_backoff_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          cfg.restart_backoff_s * static_cast<double>(1 << (attempt - 1))));
    }
    // Coordinated rollback: a later attempt resumes from the last
    // globally-consistent accepted Newton iterate the mirror replicated.
    const bool rolled_back = attempt > 0 && cfg.checkpoint && ckpt.valid;

    DistResult result;
    result.U = rolled_back ? ckpt.U : U_init;
    std::vector<double>& U_shared = result.U;
    result.ranks.resize(N);
    std::vector<std::exception_ptr> errs(N);

    // A FRESH world per attempt: the previous one is poisoned beyond reuse
    // (mailboxes, barrier generations, abort flag) — exactly like
    // re-spawning the job after a node loss.
    CommWorld world(cfg.ranks);
    world.set_guards(cfg.guards);

    pk::ThreadPool::parallel_tasks(N, [&](std::size_t r) {
      try {
        const pk::Timer t_total;
        Communicator comm(world, static_cast<int>(r));
        if (comm_inj[r]) comm.set_fault_injector(comm_inj[r].get());
        Subdomain sub(problem, part, static_cast<int>(r));
        HaloExchange halo_dof(comm, part, static_cast<int>(r),
                              problem.mesh().levels(), /*per_node=*/2,
                              /*tag_base=*/0);
        HaloExchange halo_blk(comm, part, static_cast<int>(r),
                              problem.mesh().levels(), /*per_node=*/4,
                              /*tag_base=*/8);
        RankContext ctx;
        DistInnerProduct ip(comm, sub.owned_dofs().size());
        RankStokesProblem rank_problem(sub, halo_dof, halo_blk, comm,
                                       cfg.jacobian, cfg.overlap, ctx);
        // Guard decorators when armed: the residual/operator outputs are
        // zero-initialized and fully finite on the clean path, and every
        // rank holds the same seed, so a detection (organic or injected)
        // throws the identical typed SolverFaultError in lockstep.
        resilience::GuardedProblem guarded(rank_problem, {},
                                           solver_inj[r].get());
        nonlinear::NonlinearProblem& prob =
            use_solver_guards
                ? static_cast<nonlinear::NonlinearProblem&>(guarded)
                : rank_problem;

        nonlinear::NewtonConfig ncfg = cfg.newton;
        ncfg.jacobian = linalg::JacobianMode::kMatrixFree;
        ncfg.krylov = cfg.krylov;
        ncfg.inner = &ip;
        ncfg.gmres.inner = &ip;
        // The per-rank recovery ladder stays disabled: rungs retry solves
        // locally, which would desynchronize the SPMD lockstep.  The
        // coordinated restart loop around this body is the distributed
        // recovery path.
        ncfg.recovery = resilience::RecoveryConfig{};
        ncfg.verbose = cfg.verbose && r == 0;
        ncfg.gmres.verbose = ncfg.gmres.verbose && r == 0;

        std::unique_ptr<linalg::Preconditioner> M =
            make_rank_precond(cfg.precond);
        resilience::GuardedPreconditioner guarded_M(*M, solver_inj[r].get());
        linalg::Preconditioner& M_use =
            use_solver_guards ? static_cast<linalg::Preconditioner&>(guarded_M)
                              : *M;

        // Replicated checkpoint mirror, fed from the accepted-step hook
        // (SPMD lockstep, so the mirror traffic is itself collective).
        std::unique_ptr<CheckpointMirror> mirror;
        if (cfg.checkpoint) {
          mirror = std::make_unique<CheckpointMirror>(problem.mesh(), part,
                                                      comm, ckpt);
          ncfg.on_accepted_step = [&mirror](int step,
                                            const std::vector<double>& Uacc,
                                            double fnorm) {
            mirror->capture(Uacc, fnorm, step);
          };
        }

        // Each rank reads and later writes only its own owned entries of
        // the shared global-extent U.
        std::vector<double> U;
        gather_owned(U_shared, sub.owned_dofs(), U);
        comm.barrier();  // every rank starts the solve together

        nonlinear::NewtonSolver newton(ncfg);
        const nonlinear::NewtonResult nr = newton.solve(prob, M_use, U);

        comm.barrier();  // everyone done solving before gathering
        scatter_owned(U, sub.owned_dofs(), U_shared);

        DistRankReport& rep = result.ranks[r];
        rep.owned_cells = part.owned_cells[r];
        rep.owned_columns = part.owned_column_ids[r].size();
        rep.halo_columns = part.ghost_column_ids[r].size();
        rep.n_neighbors = part.neighbor_count(static_cast<int>(r));
        accumulate(rep.halo, halo_dof.stats());
        accumulate(rep.halo, halo_blk.stats());
        rep.comm = comm.counters();
        rep.kernel_s = sub.kernel_seconds();
        rep.total_s = t_total.seconds();
        rep.newton = nr;
      } catch (const CommAborted&) {
        // Another rank failed first; its error is the one worth reporting.
      } catch (const resilience::CommFaultError& e) {
        errs[r] = std::current_exception();
        world.abort_with(e.fault());  // typed poison: deterministic agreement
      } catch (...) {
        errs[r] = std::current_exception();
        world.abort();
      }
    });

    std::exception_ptr first;
    for (const std::exception_ptr& e : errs) {
      if (e) {
        first = e;
        break;
      }
    }

    if (!first) {
      result.partition = part;
      result.restarts = attempt;
      result.recovery = rlog;
      if (log_out != nullptr) *log_out = rlog;
      const nonlinear::NewtonResult& nr0 = result.ranks[0].newton;
      result.converged = nr0.converged;
      result.newton_iters = nr0.iterations;
      result.residual_norm = nr0.residual_norm;
      return result;
    }

    DistRestartAttempt a;
    a.attempt = attempt;
    a.fault = world.fault();
    a.comm_fault = a.fault.type != resilience::CommFaultType::kNone;
    try {
      std::rethrow_exception(first);
    } catch (const std::exception& e) {
      a.error = e.what();
    } catch (...) {
      a.error = "unknown error";
    }
    a.rolled_back = cfg.checkpoint && ckpt.valid && attempt + 1 < total_attempts;
    if (cfg.verbose) {
      std::printf("dist restart: %s\n", a.to_string().c_str());
    }
    rlog.attempts.push_back(std::move(a));
    if (log_out != nullptr) *log_out = rlog;
    if (attempt + 1 >= total_attempts) std::rethrow_exception(first);
  }
}

}  // namespace mali::dist
