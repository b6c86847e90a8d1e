// mali — the MiniMALI command-line driver.
//
//   mali solve     [--dx-km F] [--layers N] [--steps N] [--variant NAME]
//                  [--thermal] [--weertman] [--csv PATH] [--ppm PATH]
//   mali study     [--cells N] [--scale F] [--out report.md]
//   mali transport [--dx-km F] [--years F] [--ppm PATH]
//   mali ensemble  --manifest FILE [--out results.json] [--cache DIR]
//   mali export-jacobian [--dx-km F] [--layers N] --out PATH.mtx
//   mali archs
//
// Every subcommand exercises the public library API only, and rejects a
// flag its usage() entry does not list (exit 2, before any work).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <sstream>

#include "core/report_generator.hpp"
#include "core/study.hpp"
#include "dist/dist_solver.hpp"
#include "ensemble/engine.hpp"
#include "perf/phase_report.hpp"
#include "io/field_writer.hpp"
#include "io/vtk_writer.hpp"
#include "linalg/block_jacobi.hpp"
#include "linalg/linear_operator.hpp"
#include "linalg/matrix_market.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "perf/data_movement.hpp"
#include "perf/reduction_latency.hpp"
#include "mpas/fv_transport.hpp"
#include "nonlinear/newton.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "resilience/comm_fault.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/guards.hpp"
#include "timestepping/forecast_driver.hpp"
#include "util/parse_number.hpp"

namespace {

using namespace mali;

/// Tiny flag parser: --key value and --key (boolean) forms.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }
  [[nodiscard]] bool has(const std::string& k) const {
    return values_.count(k) > 0;
  }
  /// Numeric flag value: the whole value must parse as a finite number.
  [[nodiscard]] double num(const std::string& k, double dflt) const {
    auto it = values_.find(k);
    return it == values_.end() || it->second.empty()
               ? dflt
               : util::parse_finite("--" + k, it->second);
  }
  /// Integer flag value: as num(), and a fractional part is rejected too.
  [[nodiscard]] int integer(const std::string& k, int dflt) const {
    auto it = values_.find(k);
    return it == values_.end() || it->second.empty()
               ? dflt
               : util::parse_int("--" + k, it->second);
  }
  [[nodiscard]] std::string str(const std::string& k,
                                const std::string& dflt = "") const {
    auto it = values_.find(k);
    return it == values_.end() ? dflt : it->second;
  }
  /// The first given flag (by name) that `known` does not list, or "".
  [[nodiscard]] std::string first_unknown(
      const std::set<std::string>& known) const {
    for (const auto& kv : values_) {
      if (known.count(kv.first) == 0) return kv.first;
    }
    return "";
  }

 private:
  std::map<std::string, std::string> values_;
};

/// The flags each subcommand takes: exactly those its usage() entry lists.
/// forecast and export-jacobian build the same problem as solve, so they
/// take its problem flags too.
const std::set<std::string>* command_flags(const std::string& cmd) {
  const std::vector<std::string> problem = {
      "dx-km", "layers", "variant", "scatter", "jacobian",
      "simd",  "workset", "thermal", "weertman", "mms"};
  const std::vector<std::string> dist_comm = {
      "ranks", "decomp", "comm-guards", "comm-timeout", "max-restarts",
      "restart-backoff"};
  const auto join = [](std::initializer_list<std::vector<std::string>> ls) {
    std::set<std::string> s;
    for (const auto& l : ls) s.insert(l.begin(), l.end());
    return s;
  };
  static const std::map<std::string, std::set<std::string>> table = {
      {"solve",
       join({problem, dist_comm,
             {"steps", "phases", "krylov", "precond", "csv", "ppm", "vtk",
              "resilience", "guards", "inject-fault", "checkpoint",
              "halo-overlap"}})},
      {"study", {"cells", "scale", "out"}},
      {"transport", {"dx-km", "years", "ppm"}},
      {"forecast",
       join({problem, dist_comm,
             {"years", "dt-init", "dt-min", "dt-max", "dt-growth",
              "dt-backoff", "cfl", "forcing", "velocity-every", "no-thermal",
              "thermal-steady", "flux", "min-thickness", "checkpoint-every",
              "checkpoint", "restart", "quiet", "ppm", "steps", "krylov",
              "precond", "inject-fault", "resilience"}})},
      {"ensemble",
       {"manifest", "out", "cache", "rank-groups", "ranks-per-group",
        "no-warm-start", "no-cache", "no-stats", "expect-cached",
        "member-retries", "retry-backoff", "resilience", "inject-fault",
        "fault-member", "quiet"}},
      {"export-jacobian", join({problem, {"out"}})},
      {"launch-bounds", {"max-threads", "min-blocks", "cells", "scale"}},
      {"archs", {}},
  };
  const auto it = table.find(cmd);
  return it == table.end() ? nullptr : &it->second;
}

physics::StokesFOConfig problem_config(const Args& args) {
  physics::StokesFOConfig cfg;
  cfg.dx_m = args.num("dx-km", 64.0) * 1e3;
  cfg.n_layers = args.integer("layers", 10);
  if (args.has("thermal")) cfg.thermal_viscosity = true;
  if (args.has("weertman")) cfg.sliding.law = physics::SlidingLaw::kWeertman;
  if (args.has("workset")) {
    cfg.workset_size = static_cast<std::size_t>(args.integer("workset", 0));
  }
  const std::string variant = args.str("variant", "optimized");
  const std::map<std::string, physics::KernelVariant> variants = {
      {"baseline", physics::KernelVariant::kBaseline},
      {"optimized", physics::KernelVariant::kOptimized},
      {"loop-opt", physics::KernelVariant::kLoopOptOnly},
      {"fused", physics::KernelVariant::kFusedOnly},
      {"local-accum", physics::KernelVariant::kLocalAccumOnly},
  };
  const auto it = variants.find(variant);
  if (it == variants.end()) {
    throw Error("unknown kernel variant: " + variant +
                " (expected baseline|optimized|loop-opt|fused|local-accum)");
  }
  cfg.variant = it->second;
  // Element→global scatter strategy (serial | colored).
  cfg.scatter =
      physics::scatter_mode_from_string(args.str("scatter", "colored"));
  // Jacobian representation (assembled | matrix-free).
  cfg.jacobian =
      linalg::jacobian_mode_from_string(args.str("jacobian", "assembled"));
  // SIMD element batching for the fused residual/tangent kernels
  // (auto | off | 1 | 2 | 4 | 8).  The CLI defaults to auto (native
  // width); the in-code config default stays scalar.
  cfg.simd_width = physics::simd_width_from_string(args.str("simd", "auto"));
  // Manufactured-solution mode (verification runs and the AMG equivalence
  // checks use it).
  if (args.has("mms")) cfg.mms.enabled = true;
  return cfg;
}

/// The preconditioner named by --precond.  All three are consumable from
/// both Jacobian modes: on the matrix-free path the operator assembles the
/// AMG's fine matrix from its tangent cache, and the column-line smoother
/// runs on that matrix, reproducing the assembled+AMG GMRES counts exactly.
std::unique_ptr<linalg::Preconditioner> make_preconditioner(
    const Args& args, const physics::StokesFOProblem& problem) {
  const std::string precond = args.str("precond", "amg");
  if (precond == "jacobi") {
    return std::make_unique<linalg::JacobiPreconditioner>();
  }
  if (precond == "block-jacobi") {
    return std::make_unique<linalg::BlockJacobiPreconditioner>(2);
  }
  MALI_CHECK_MSG(precond == "amg", "unknown --precond: " + precond +
                                       " (jacobi | block-jacobi | amg)");
  return std::make_unique<linalg::SemicoarseningAmg>(
      problem.extrusion_info());
}

/// perf::JacobianApplyModel filled in from the problem's mesh/graph sizes.
perf::JacobianApplyModel jacobian_apply_model(
    physics::StokesFOProblem& problem) {
  perf::JacobianApplyModel m;
  m.n_rows = problem.n_dofs();
  m.nnz = problem.dof_map().graph()->nnz();
  m.n_cells = problem.mesh().n_cells();
  m.n_nodes = problem.mesh().n_nodes();
  m.num_nodes = problem.workset().num_nodes;
  m.num_qps = problem.workset().num_qps;
  m.thermal = problem.element_arrays().flow_factor.allocated();
  m.n_basal_faces =
      problem.config().mms.enabled ? 0 : problem.mesh().base().n_cells();
  return m;
}

/// Modeled HBM traffic of one Jacobian apply (y = J x) in both modes, per
/// perf::JacobianApplyModel — the bytes a GMRES iteration streams.
void print_jacobian_apply_model(physics::StokesFOProblem& problem) {
  const perf::JacobianApplyModel m = jacobian_apply_model(problem);
  const double asm_b = static_cast<double>(m.assembled_stream_bytes());
  const double mf_b = static_cast<double>(m.matrix_free_stream_bytes());
  std::printf("modeled bytes per GMRES iteration (operator apply only):\n");
  std::printf("  assembled SpMV  %10.3f MB  (min %10.3f MB)\n", asm_b / 1e6,
              m.assembled_min_bytes() / 1e6);
  std::printf("  matrix-free     %10.3f MB  (min %10.3f MB)  %.2fx the SpMV\n",
              mf_b / 1e6, m.matrix_free_min_bytes() / 1e6, mf_b / asm_b);
}

/// How the AMG's last compute() got its fine matrix, for reports:
/// "tangent-assembled", "probed (N applies)" or "assembled".
std::string fine_matrix_source(const linalg::SemicoarseningAmg& amg) {
  if (amg.fine_operator_assembled()) return "tangent-assembled";
  if (amg.probe_applies() > 0) {
    return "probed (" + std::to_string(amg.probe_applies()) + " applies)";
  }
  return "assembled";
}

/// Modeled setup and V-cycle traffic of the semicoarsening AMG, per
/// perf::AmgCycleModel — what building the preconditioner costs and what
/// each application streams.
void print_amg_cycle_model(physics::StokesFOProblem& problem,
                           const linalg::SemicoarseningAmg& amg,
                           bool matrix_free) {
  const perf::JacobianApplyModel j = jacobian_apply_model(problem);
  perf::AmgCycleModel m;
  m.fine_apply_bytes = matrix_free ? j.matrix_free_stream_bytes()
                                   : j.assembled_stream_bytes();
  m.probe_applies = amg.probe_applies();
  m.tangent_assembled = amg.fine_operator_assembled();
  m.tangent_cache_bytes = j.n_cells * j.cache_bytes_per_cell();
  for (std::size_t l = 0; l < amg.n_levels(); ++l) {
    m.level_rows.push_back(amg.level_dofs(l));
    m.level_nnz.push_back(amg.level_nnz(l));
  }
  std::printf(
      "modeled AMG traffic (%zu levels):\n"
      "  setup  %10.3f MB  (%s fine matrix + Galerkin streams)\n"
      "  V-cycle %9.3f MB per application\n",
      amg.n_levels(), m.setup_bytes() / 1e6, fine_matrix_source(amg).c_str(),
      m.vcycle_bytes() / 1e6);
}

/// The AMG's V-cycle phases per level, in seconds summed over every apply:
/// what rank 0 of each cycle's team region read at the phase barriers.
void print_vcycle_phases(const linalg::SemicoarseningAmg& amg) {
  perf::Table t({"Level", "rows", "pre-smooth", "residual+restrict",
                 "prolong+residual", "post-smooth", "coarse"});
  for (std::size_t l = 0; l < amg.level_times().size(); ++l) {
    const auto& p = amg.level_times()[l];
    t.add_row({std::to_string(l), std::to_string(amg.level_dofs(l)),
               perf::fmt(p.pre_smooth_s, 4), perf::fmt(p.restrict_s, 4),
               perf::fmt(p.prolong_s, 4), perf::fmt(p.post_smooth_s, 4),
               perf::fmt(p.coarse_s, 4)});
  }
  std::printf("AMG V-cycle phases per level (s, all applies):\n");
  std::ostringstream os;
  t.print(os);
  std::fputs(os.str().c_str(), stdout);
}

/// Distributed fault-tolerance surface shared by `solve --ranks` and
/// `forecast --ranks` (DESIGN.md §16): comm-guard flags, the "comm:"
/// fault-spec dispatch, and the --resilience mapping onto the coordinated
/// restart loop.  When `dispatch_solver_fault` is false a non-comm
/// --inject-fault spec is left for the caller (the forecast carries solver
/// faults through its one-shot injector, not through DistConfig).
void configure_dist_resilience(const Args& args, dist::DistConfig& dcfg,
                               bool dispatch_solver_fault) {
  if (args.has("comm-guards")) dcfg.guards.checksums = true;
  dcfg.guards.timeout_s =
      args.num("comm-timeout", args.has("comm-guards") ? 30.0 : 0.0);
  dcfg.max_restarts = args.integer("max-restarts", 0);
  dcfg.restart_backoff_s = args.num("restart-backoff", 0.0);
  if (args.has("inject-fault")) {
    const std::string spec = args.str("inject-fault");
    if (resilience::is_comm_fault_spec(spec)) {
      dcfg.inject_comm_fault = true;
      dcfg.comm_fault = resilience::comm_fault_spec_from_string(spec);
      // Detection needs the guards armed: checksums catch corruption,
      // bounded waits catch drops, stragglers, and dead ranks.
      dcfg.guards.checksums = true;
      if (dcfg.guards.timeout_s <= 0.0) dcfg.guards.timeout_s = 0.25;
      std::printf("comm fault injection: %s\n",
                  resilience::to_string(dcfg.comm_fault).c_str());
    } else if (dispatch_solver_fault) {
      dcfg.inject_solver_fault = true;
      dcfg.solver_fault = resilience::fault_spec_from_string(spec);
      std::printf("fault injection: %s\n",
                  resilience::to_string(dcfg.solver_fault).c_str());
    }
  }
  if (args.has("resilience")) {
    dcfg.solver_guards = true;
    dcfg.guards.checksums = true;
    dcfg.checkpoint = true;
    if (dcfg.max_restarts < 2) dcfg.max_restarts = 2;
  }
  // Rollback is pointless without a checkpoint to roll back to.
  if (dcfg.max_restarts > 0) dcfg.checkpoint = true;
}

/// `mali solve --ranks N`: the in-process domain-decomposed solve.  The
/// SPMD rank runtime mirrors an MPI run (real halo exchange, rank-reduced
/// norms); the per-rank preconditioners are the subdomain-local ones
/// (none | jacobi | block-jacobi).
int cmd_solve_distributed(const Args& args) {
  physics::StokesFOProblem problem(problem_config(args));
  dist::DistConfig dcfg;
  dcfg.ranks = args.integer("ranks", 2);
  dcfg.decomp = dist::decomp_from_string(args.str("decomp", "strips"));
  dcfg.overlap = args.has("halo-overlap");
  dcfg.jacobian = problem.config().jacobian;
  dcfg.precond = args.str("precond", "block-jacobi");
  dcfg.krylov = linalg::krylov_kind_from_string(args.str("krylov", "gmres"));
  dcfg.newton.max_iters = args.integer("steps", 8);
  dcfg.verbose = true;
  configure_dist_resilience(args, dcfg, /*dispatch_solver_fault=*/true);
  if (args.has("checkpoint")) dcfg.checkpoint = true;
  if (args.has("guards")) dcfg.solver_guards = true;

  std::printf(
      "mesh: %zu hexahedra, %zu dofs (%s Jacobian)\n"
      "distributed: %d ranks, %s decomposition, %s preconditioner, %s "
      "krylov, halo overlap %s\n",
      problem.mesh().n_cells(), problem.n_dofs(),
      linalg::to_string(problem.config().jacobian), dcfg.ranks,
      dist::to_string(dcfg.decomp), dcfg.precond.c_str(),
      linalg::to_string(dcfg.krylov), dcfg.overlap ? "on" : "off");
  if (dcfg.guards.checksums || dcfg.guards.bounded()) {
    std::printf("comm guards: checksums %s, wait timeout %s\n",
                dcfg.guards.checksums ? "on" : "off",
                dcfg.guards.bounded()
                    ? (std::to_string(dcfg.guards.timeout_s) + " s").c_str()
                    : "unbounded");
  }
  if (dcfg.max_restarts > 0) {
    std::printf("coordinated restart: up to %d attempt(s)%s\n",
                dcfg.max_restarts,
                dcfg.checkpoint ? ", replicated checkpoint rollback" : "");
  }

  const auto U0 = problem.analytic_initial_guess();
  dist::DistResult res;
  dist::DistRecoveryLog rlog;
  try {
    res = dist::solve_distributed(problem, dcfg, &U0, &rlog);
  } catch (const resilience::CommFaultError& e) {
    // Typed comm fault that survived the restart budget: fail loudly with
    // the fault record and the restart log's tail, never a hang.
    std::fprintf(stderr, "%s\n", e.fault().describe().c_str());
    if (!rlog.empty()) {
      std::fprintf(stderr, "last restart attempts:\n%s", rlog.tail().c_str());
    }
    return 3;
  } catch (const resilience::SolverFaultError& e) {
    std::fprintf(stderr, "%s\n", e.fault().describe().c_str());
    if (!rlog.empty()) {
      std::fprintf(stderr, "last restart attempts:\n%s", rlog.tail().c_str());
    }
    return 3;
  }
  if (res.restarts > 0) {
    std::printf("coordinated restarts: %d (recovered)\n%s", res.restarts,
                res.recovery.to_string().c_str());
  }

  std::printf("\n%-5s %11s %10s %10s %5s %12s %12s %12s %11s\n", "rank",
              "cells", "owned cols", "halo cols", "nbrs", "kernel (s)",
              "halo (s)", "total (s)", "halo MB");
  for (std::size_t r = 0; r < res.ranks.size(); ++r) {
    const auto& rep = res.ranks[r];
    std::printf("%-5zu %11zu %10zu %10zu %5d %12.4f %12.4f %12.4f %11.3f\n",
                r, rep.owned_cells, rep.owned_columns, rep.halo_columns,
                rep.n_neighbors, rep.kernel_s, rep.halo.total_s(),
                rep.total_s,
                static_cast<double>(rep.halo.bytes_sent) / 1e6);
  }
  std::printf("partition imbalance: %.3f, max neighbors: %d\n",
              res.partition.imbalance(), res.partition.max_neighbors());
  // Reduction-latency model next to the measured reduction counts (rank 0
  // is representative: the injected inner product keeps all ranks in
  // lockstep, so every rank issues the identical collective sequence).
  perf::ReductionLatencyModel rlm;
  rlm.ranks = dcfg.ranks;
  rlm.restart = dcfg.newton.gmres.restart;
  const dist::CommCounters& cc = res.ranks[0].comm;
  std::printf(
      "reductions (rank 0, measured): %zu collectives, %zu values reduced\n"
      "reduction model @ %d ranks: classic gmres %.1f reductions/iter "
      "(%.2f us sync), pipelined 1 (%.2f us, %.1fx less sync)\n",
      cc.allreduces, cc.reduced_values, dcfg.ranks,
      rlm.classic_gmres_avg_reductions(),
      rlm.classic_gmres_sync_per_iter_s() * 1e6,
      rlm.pipelined_gmres_sync_per_iter_s() * 1e6, rlm.gmres_sync_ratio());
  std::printf("Newton: %s in %d steps, ||F|| = %.3e\n",
              res.converged ? "converged" : "NOT converged",
              res.newton_iters, res.residual_norm);
  std::printf("mean velocity: %.6f m/yr\n",
              problem.mean_velocity(res.U));
  return res.converged ? 0 : 1;
}

int cmd_solve(const Args& args) {
  if (args.has("ranks")) return cmd_solve_distributed(args);
  physics::StokesFOProblem problem(problem_config(args));
  const bool matrix_free =
      problem.config().jacobian == linalg::JacobianMode::kMatrixFree;
  std::printf("mesh: %zu hexahedra, %zu dofs (%s Jacobian)\n",
              problem.mesh().n_cells(), problem.n_dofs(),
              linalg::to_string(problem.config().jacobian));
  // Every preconditioner works under either Jacobian mode; the AMG probes
  // its fine matrix from operator applies on the matrix-free path.
  std::unique_ptr<linalg::Preconditioner> M =
      make_preconditioner(args, problem);
  std::printf("preconditioner: %s\n", M->name());
  nonlinear::NewtonConfig ncfg;
  ncfg.max_iters = args.integer("steps", 8);
  ncfg.verbose = true;
  ncfg.jacobian = problem.config().jacobian;
  // Inner Krylov method; the pipelined variants complete their fused
  // reduction immediately in this serial path (same math, one reduction).
  ncfg.krylov = linalg::krylov_kind_from_string(args.str("krylov", "gmres"));
  std::printf("krylov: %s\n", linalg::to_string(ncfg.krylov));

  // ---- resilience surface ----
  // --inject-fault plants a deterministic fault (see fault_spec_from_string
  // for the kind:site[:evaluation][:repeat] grammar); --guards wraps the
  // problem in NaN/Inf validation decorators (implied by injection);
  // --resilience arms the Newton recovery ladder; --checkpoint also writes
  // the last good state to disk (implies --resilience).
  std::unique_ptr<resilience::FaultInjector> injector;
  if (args.has("inject-fault")) {
    const auto spec =
        resilience::fault_spec_from_string(args.str("inject-fault"));
    injector = std::make_unique<resilience::FaultInjector>(spec);
    std::printf("fault injection: %s\n", resilience::to_string(spec).c_str());
  }
  const bool resilience_on = args.has("resilience") || args.has("checkpoint");
  if (resilience_on) {
    ncfg.recovery.enabled = true;
    ncfg.recovery.verbose = true;
    ncfg.recovery.checkpoint_path = args.str("checkpoint");
    // Preconditioner escalation, weakest to strongest.  The AMG rung
    // rebuilds from the problem's extrusion structure, so it works from
    // both Jacobian modes (probing on the matrix-free path).
    const linalg::ExtrusionInfo extrusion = problem.extrusion_info();
    ncfg.recovery.precond_ladder = {
        [] {
          return std::make_unique<linalg::JacobiPreconditioner>();
        },
        [] {
          return std::make_unique<linalg::BlockJacobiPreconditioner>(2);
        },
        [extrusion] {
          return std::make_unique<linalg::SemicoarseningAmg>(
              extrusion, linalg::AmgConfig{});
        },
    };
  }
  // The forced-stagnation site lives in the solver (the guards never see
  // the inner GMRES); hand the injector over regardless of --resilience so
  // injection without recovery still records the linear failure.
  ncfg.recovery.injector = injector.get();

  const bool guards_on = args.has("guards") || injector != nullptr;
  resilience::GuardedProblem guarded(problem, {}, injector.get());
  resilience::GuardedPreconditioner guarded_M(*M, injector.get());
  nonlinear::NonlinearProblem& prob =
      guards_on ? static_cast<nonlinear::NonlinearProblem&>(guarded) : problem;
  linalg::Preconditioner& precond =
      guards_on ? static_cast<linalg::Preconditioner&>(guarded_M) : *M;
  if (guards_on) std::printf("guards: NaN/Inf validation enabled\n");

  nonlinear::NewtonSolver newton(ncfg);
  auto U = problem.analytic_initial_guess();
  nonlinear::NewtonResult r;
  try {
    r = newton.solve(prob, precond, U);
  } catch (const resilience::SolverFaultError& e) {
    // Guard fault with recovery disabled (or its budget exhausted): fail
    // loudly with the typed record and a nonzero exit.
    std::fprintf(stderr, "%s\n", e.fault().describe().c_str());
    return 3;
  }
  std::printf("||F||: %.3e -> %.3e in %d steps (%zu GMRES iterations)\n",
              r.initial_norm, r.residual_norm, r.iterations,
              r.total_linear_iters);
  if (!r.recovery.empty()) {
    std::printf("recovery ladder: %zu attempt(s), %d fault(s) detected, %d "
                "step(s) recovered\n",
                r.recovery.size(), r.recovery.faults_detected,
                r.recovery.steps_recovered);
    std::fputs(r.recovery.to_string().c_str(), stdout);
  }
  if (r.faulted) {
    std::fprintf(stderr, "%s\n", r.fault.describe().c_str());
    if (!r.recovery.empty()) {
      std::fprintf(stderr, "last recovery attempts:\n%s",
                   r.recovery.tail().c_str());
    }
    return 3;
  }
  if (r.linear_failures > 0) {
    std::printf("WARNING: %d Newton step(s) took an inexact direction (inner "
                "GMRES missed its tolerance)\n",
                r.linear_failures);
  }
  if (r.line_search_stalled) {
    std::printf("WARNING: line search stalled at minimum damping on at least "
                "one step\n");
  }
  std::printf("mean velocity: %.6f m/yr\n", problem.mean_velocity(U));
  print_jacobian_apply_model(problem);
  const auto* amg = dynamic_cast<const linalg::SemicoarseningAmg*>(M.get());
  if (amg != nullptr) print_amg_cycle_model(problem, *amg, matrix_free);
  if (args.has("phases")) {
    std::printf("per-phase assembly breakdown (%s scatter):\n",
                physics::to_string(problem.scatter_mode()));
    std::ostringstream os;
    perf::print_phase_report(os, problem.phase_timers());
    std::fputs(os.str().c_str(), stdout);
    if (amg != nullptr) print_vcycle_phases(*amg);
  }

  const auto& base = problem.mesh().base();
  if (args.has("csv")) {
    std::vector<double> u(base.n_nodes()), v(base.n_nodes());
    const auto& msh = problem.mesh();
    for (std::size_t col = 0; col < base.n_nodes(); ++col) {
      const std::size_t n = msh.node_id(col, msh.levels() - 1);
      u[col] = U[2 * n];
      v[col] = U[2 * n + 1];
    }
    io::write_node_csv(args.str("csv"), base, {"u_surface", "v_surface"},
                       {&u, &v});
    std::printf("surface velocity written to %s\n", args.str("csv").c_str());
  }
  if (args.has("ppm")) {
    const auto& msh = problem.mesh();
    std::vector<double> speed(base.n_cells(), 0.0);
    for (std::size_t c = 0; c < base.n_cells(); ++c) {
      for (int k = 0; k < 4; ++k) {
        const std::size_t n =
            msh.node_id(base.cell_node(c, k), msh.levels() - 1);
        speed[c] += 0.25 * std::hypot(U[2 * n], U[2 * n + 1]);
      }
    }
    io::HeatmapConfig hm;
    hm.log_scale = true;
    hm.pixels_per_cell = 6;
    io::write_heatmap_ppm(args.str("ppm"), base, speed, hm);
    std::printf("speed map written to %s\n", args.str("ppm").c_str());
  }
  if (args.has("vtk")) {
    std::vector<double> speed(problem.mesh().n_nodes());
    for (std::size_t n = 0; n < speed.size(); ++n) {
      speed[n] = std::hypot(U[2 * n], U[2 * n + 1]);
    }
    io::write_vtk(args.str("vtk"), problem.mesh(), {{"speed", &speed}},
                  {{"velocity", &U}});
    std::printf("ParaView snapshot written to %s\n", args.str("vtk").c_str());
  }
  return r.residual_norm < r.initial_norm ? 0 : 1;
}

int cmd_study(const Args& args) {
  core::StudyConfig cfg;
  cfg.n_cells = static_cast<std::size_t>(args.integer("cells", 262144));
  cfg.sim.scale = args.num("scale", 0.25);
  const core::OptimizationStudy study(cfg);
  const auto path = args.str("out", "mali_report.md");
  core::write_markdown_report(study, path);
  std::printf("study report written to %s\n", path.c_str());
  return 0;
}

int cmd_transport(const Args& args) {
  mesh::IceGeometry geom;
  const mesh::QuadGrid grid(geom, {args.num("dx-km", 100.0) * 1e3});
  mpas::TransportConfig tcfg;
  tcfg.flux = mpas::FluxScheme::kVanLeerMuscl;
  tcfg.time = mpas::TimeScheme::kHeunRk2;
  mpas::FvTransport fv(grid, tcfg);

  std::vector<double> H(fv.n_cells()), smb(fv.n_cells());
  std::vector<double> u(fv.n_cells(), 0.0), v(fv.n_cells(), 0.0);
  for (std::size_t c = 0; c < fv.n_cells(); ++c) {
    double x, y;
    grid.cell_centroid(c, x, y);
    H[c] = geom.thickness(x, y);
    smb[c] = geom.surface_mass_balance(x, y);
  }
  const double years = args.num("years", 500.0);
  const double dt = 5.0;
  const double v0 = fv.volume(H);
  for (double t = 0.0; t < years; t += dt) fv.step(H, u, v, smb, dt);
  std::printf("SMB-only transport over %.0f yr: volume %.4e -> %.4e km^3 "
              "(%+.2f%%)\n",
              years, v0 / 1e9, fv.volume(H) / 1e9,
              100.0 * (fv.volume(H) / v0 - 1.0));
  if (args.has("ppm")) {
    io::write_heatmap_ppm(args.str("ppm"), grid, H, {});
    std::printf("thickness map written to %s\n", args.str("ppm").c_str());
  }
  return 0;
}

int cmd_forecast(const Args& args) {
  physics::StokesFOProblem problem(problem_config(args));
  std::printf("mesh: %zu hexahedra, %zu dofs (%s Jacobian)\n",
              problem.mesh().n_cells(), problem.n_dofs(),
              linalg::to_string(problem.config().jacobian));

  timestepping::ForecastConfig fcfg;
  fcfg.years = args.num("years", 10.0);
  fcfg.controller.dt_init = args.num("dt-init", 1.0);
  fcfg.controller.dt_min = args.num("dt-min", 1.0 / 1024.0);
  fcfg.controller.dt_max = args.num("dt-max", 10.0);
  fcfg.controller.growth = args.num("dt-growth", 1.25);
  fcfg.controller.backoff = args.num("dt-backoff", 0.5);
  fcfg.controller.cfl_fraction = args.num("cfl", 0.5);
  fcfg.forcing = args.str("forcing", "constant");
  fcfg.velocity_every = args.integer("velocity-every", 1);
  fcfg.thermal_enabled = !args.has("no-thermal");
  fcfg.thermal_steady = args.has("thermal-steady");
  fcfg.transport.flux = args.str("flux", "muscl") == "upwind"
                            ? mpas::FluxScheme::kUpwind
                            : mpas::FluxScheme::kVanLeerMuscl;
  fcfg.transport.time = mpas::TimeScheme::kHeunRk2;
  fcfg.transport.min_thickness = args.num("min-thickness", 0.0);
  fcfg.newton.max_iters = args.integer("steps", 8);
  fcfg.newton.krylov =
      linalg::krylov_kind_from_string(args.str("krylov", "gmres"));
  fcfg.make_precond = [&args](const physics::StokesFOProblem& p) {
    return make_preconditioner(args, p);
  };
  fcfg.ranks = args.integer("ranks", 1);
  if (fcfg.ranks > 1) {
    fcfg.dist.decomp =
        dist::decomp_from_string(args.str("decomp", "strips"));
    fcfg.dist.krylov = fcfg.newton.krylov;
    fcfg.dist.newton.max_iters = fcfg.newton.max_iters;
    // Comm faults and --resilience map onto the coordinated-restart loop;
    // solver fault specs stay on the injector path below (the driver
    // carries them into exactly one distributed solve).
    configure_dist_resilience(args, fcfg.dist,
                              /*dispatch_solver_fault=*/false);
  } else {
    MALI_CHECK_MSG(!(args.has("inject-fault") &&
                     resilience::is_comm_fault_spec(args.str("inject-fault"))),
                   "forecast: comm fault injection (--inject-fault comm:*) "
                   "requires --ranks > 1");
  }
  fcfg.checkpoint_every = args.integer("checkpoint-every", 0);
  if (args.has("checkpoint")) fcfg.checkpoint_path = args.str("checkpoint");
  fcfg.restart_path = args.str("restart", "");
  fcfg.verbose = !args.has("quiet");

  std::unique_ptr<resilience::FaultInjector> injector;
  if (args.has("inject-fault") &&
      !resilience::is_comm_fault_spec(args.str("inject-fault"))) {
    const auto spec =
        resilience::fault_spec_from_string(args.str("inject-fault"));
    injector = std::make_unique<resilience::FaultInjector>(spec);
    std::printf("fault injection: %s\n", resilience::to_string(spec).c_str());
    fcfg.injector = injector.get();
  }
  if (args.has("resilience")) {
    fcfg.newton.recovery.enabled = true;
    const linalg::ExtrusionInfo extrusion = problem.extrusion_info();
    fcfg.newton.recovery.precond_ladder = {
        [] { return std::make_unique<linalg::JacobiPreconditioner>(); },
        [] { return std::make_unique<linalg::BlockJacobiPreconditioner>(2); },
        [extrusion] {
          return std::make_unique<linalg::SemicoarseningAmg>(
              extrusion, linalg::AmgConfig{});
        },
    };
  }

  std::printf("forecast: %.4g yr horizon, forcing %s, velocity every %d "
              "step(s)%s%s\n",
              fcfg.years, fcfg.forcing.c_str(), fcfg.velocity_every,
              fcfg.thermal_enabled ? ", thermal coupled" : "",
              fcfg.ranks > 1 ? (", " + std::to_string(fcfg.ranks) +
                                " in-process ranks").c_str()
                             : "");

  timestepping::ForecastDriver driver(problem, fcfg);
  const timestepping::ForecastResult res = driver.run();

  double smb = 0.0, calving = 0.0, clamp = 0.0;
  for (const auto& row : res.ledger) {
    smb += row.smb;
    calving += row.calving;
    clamp += row.clamp;
  }
  std::printf(
      "forecast complete: %d step(s) to t = %.4f yr (%d rejection(s), %d "
      "velocity solve(s))\n"
      "volume %.6e -> %.6e km^3; budget smb %+.4e calving %.4e clamp %.4e "
      "km^3; max |mass residual| %.3e (relative)\n",
      res.steps, res.t_final, res.rejections, res.velocity_solves,
      res.volume_initial / 1e9, res.volume_final / 1e9, smb / 1e9,
      calving / 1e9, clamp / 1e9, res.max_mass_residual);
  double total_s = 0.0;
  for (const auto& [name, e] : res.timers.entries()) total_s += e.total;
  if (total_s > 0.0) {
    std::printf("phase split:");
    for (const auto& [name, e] : res.timers.entries()) {
      std::printf("  %s %.3fs (%.1f%%, %zu calls)", name.c_str(), e.total,
                  100.0 * e.total / total_s, e.count);
    }
    std::printf("\n");
  }
  std::printf("mean velocity: %.6f m/yr\n", res.mean_velocity);
  if (!res.dist_recovery.empty()) {
    // Coordinated restarts that happened inside distributed velocity
    // solves; on a failed forecast the tail goes to stderr with the exit.
    std::FILE* to = res.completed ? stdout : stderr;
    std::fprintf(to, "distributed recovery log (%zu attempt(s)):\n%s",
                 res.dist_recovery.size(), res.dist_recovery.tail().c_str());
  }

  if (args.has("ppm")) {
    io::HeatmapConfig hm;
    hm.pixels_per_cell = 6;
    io::write_heatmap_ppm(args.str("ppm"), problem.mesh().base(), res.H, hm);
    std::printf("final thickness map written to %s\n",
                args.str("ppm").c_str());
  }
  return res.completed ? 0 : 1;
}

/// `mali ensemble --manifest FILE`: run a scenario ensemble through the
/// EnsembleEngine (shared problem, shared AMG, warm starts, result
/// cache) and emit the mali-ensemble-results-v1 JSON document.
/// --expect-cached turns a rerun into an assertion that every member was
/// served from the cache (the CI smoke uses it: second run must be free).
int cmd_ensemble(const Args& args) {
  MALI_CHECK_MSG(args.has("manifest"),
                 "ensemble requires --manifest PATH (key = value manifest, "
                 "see DESIGN.md section 15)");
  ensemble::EnsembleManifest manifest =
      ensemble::load_manifest(args.str("manifest"));
  // Scheduling is a label, not physics: overriding the group count on the
  // command line never changes a member's result (or its cache key).
  if (args.has("rank-groups")) {
    manifest.rank_groups = args.integer("rank-groups", 1);
    MALI_CHECK_MSG(manifest.rank_groups >= 1,
                   "ensemble: --rank-groups must be >= 1");
  }

  ensemble::EnsembleConfig ecfg;
  ecfg.warm_start = !args.has("no-warm-start");
  ecfg.use_cache = !args.has("no-cache");
  ecfg.cache_dir = args.str("cache", "");
  ecfg.ranks_per_group = args.integer("ranks-per-group", 1);
  ecfg.verbose = !args.has("quiet");

  // ---- graceful degradation (DESIGN.md §16) ----
  ecfg.member_retries = args.integer("member-retries", 0);
  ecfg.retry_backoff_s = args.num("retry-backoff", 0.0);
  ecfg.resilience = args.has("resilience");
  if (args.has("inject-fault")) {
    const std::string spec = args.str("inject-fault");
    MALI_CHECK_MSG(!resilience::is_comm_fault_spec(spec),
                   "ensemble: --inject-fault takes the solver grammar "
                   "(kind:site[:eval][:repeat]); comm faults are exercised "
                   "through `mali solve --ranks` / `mali forecast --ranks`");
    ecfg.inject_fault = true;
    ecfg.fault = resilience::fault_spec_from_string(spec);
    ecfg.fault_member = args.integer("fault-member", -1);
    if (ecfg.verbose) {
      std::printf("fault injection: %s (member %s)\n",
                  resilience::to_string(ecfg.fault).c_str(),
                  ecfg.fault_member < 0
                      ? "all"
                      : std::to_string(ecfg.fault_member).c_str());
    }
  }

  if (ecfg.verbose) {
    std::printf("ensemble '%s': %zu member(s), %d rank group(s), cache %s\n",
                manifest.name.c_str(), manifest.n_members(),
                manifest.rank_groups,
                ecfg.use_cache
                    ? (ecfg.cache_dir.empty() ? "memory" : ecfg.cache_dir.c_str())
                    : "off");
  }

  ensemble::EnsembleEngine engine(manifest, ecfg);
  const auto out = engine.run();

  const std::string doc =
      ensemble::EnsembleEngine::results_json(out, manifest,
                                             !args.has("no-stats"));
  const std::string path = args.str("out", "");
  if (!path.empty()) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    MALI_CHECK_MSG(f != nullptr, "ensemble: cannot open --out " + path);
    std::fputs(doc.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    if (ecfg.verbose) {
      std::printf("results written to %s\n", path.c_str());
    }
  } else {
    std::fputs(doc.c_str(), stdout);
    std::fputc('\n', stdout);
  }

  if (ecfg.verbose) {
    std::printf("ensemble done: %zu member(s), %zu cache hit(s), %zu "
                "computed, %zu warm start(s), AMG %zu build(s) + %zu "
                "reuse(s), %.3f s\n",
                out.stats.members, out.stats.cache_hits,
                out.stats.cache_misses, out.stats.warm_starts,
                out.stats.amg_builds, out.stats.amg_reuses,
                out.stats.wall_seconds);
  }
  if (out.stats.retried > 0 || out.stats.quarantined > 0) {
    std::printf("degradation: %zu member(s) retried, %zu quarantined "
                "(batch completed; see each member's \"status\")\n",
                out.stats.retried, out.stats.quarantined);
  }
  if (args.has("expect-cached") && out.stats.cache_misses != 0) {
    std::fprintf(stderr,
                 "error: --expect-cached but %zu member(s) were computed "
                 "instead of served from the cache\n",
                 out.stats.cache_misses);
    return 4;
  }
  return 0;
}

int cmd_export_jacobian(const Args& args) {
  MALI_CHECK_MSG(args.has("out"), "export-jacobian requires --out PATH.mtx");
  auto cfg = problem_config(args);
  physics::StokesFOProblem problem(cfg);
  const auto U = problem.analytic_initial_guess();
  std::vector<double> F;
  auto J = problem.create_matrix();
  problem.residual_and_jacobian(U, F, J);
  linalg::write_matrix_market(args.str("out"), J);
  linalg::write_matrix_market(args.str("out") + ".rhs", F);
  std::printf("Jacobian (%zu dofs, %zu nnz) written to %s (+.rhs)\n",
              J.n_rows(), J.nnz(), args.str("out").c_str());
  return 0;
}

int cmd_launch_bounds(const Args& args) {
  core::StudyConfig cfg;
  cfg.n_cells = static_cast<std::size_t>(args.integer("cells", 262144));
  cfg.sim.scale = args.num("scale", 0.25);
  const core::OptimizationStudy study(cfg);
  const pk::LaunchConfig launch{
      static_cast<unsigned>(args.integer("max-threads", 0)),
      static_cast<unsigned>(args.integer("min-blocks", 0))};
  std::printf("LaunchBounds<%u,%u> on the modeled MI250X GCD (%zu cells):\n",
              launch.max_threads, launch.min_blocks, cfg.n_cells);
  for (const auto kind :
       {core::KernelKind::kJacobian, core::KernelKind::kResidual}) {
    const auto dflt = study.simulate(study.mi250x_gcd(), kind,
                                     physics::KernelVariant::kOptimized, {});
    const auto sim = study.simulate(study.mi250x_gcd(), kind,
                                    physics::KernelVariant::kOptimized,
                                    launch);
    std::printf(
        "  %-8s  time %.3e s  arch VGPRs %3d  accum VGPRs %3d  occupancy "
        "%4.0f%%  speedup vs default %.2fx\n",
        core::to_string(kind), sim.time_s, sim.launch.alloc.arch_vgprs,
        sim.launch.alloc.accum_vgprs, 100.0 * sim.launch.occupancy,
        dflt.time_s / sim.time_s);
  }
  return 0;
}

int cmd_archs() {
  for (const auto& a : {gpusim::make_a100(), gpusim::make_mi250x_gcd(),
                        gpusim::make_pvc_stack()}) {
    std::printf("%-22s  %.2f TB/s HBM, %.1f TF64, %3zu MB L2, %d %s, "
                "wave %d\n",
                a.name.c_str(), a.hbm_bw_bytes_per_s / 1e12,
                a.fp64_flops / 1e12, a.l2_bytes >> 20, a.n_sm,
                a.has_accum_vgprs ? "CUs" : "SMs/Xe", a.warp_size);
  }
  return 0;
}

void usage() {
  std::printf(
      "mali <command> [flags]\n\n"
      "commands:\n"
      "  solve            velocity solve on the synthetic Antarctica\n"
      "                   [--dx-km F] [--layers N] [--steps N]\n"
      "                   [--variant baseline|optimized|loop-opt|fused|local-accum]\n"
      "                   [--scatter serial|colored] [--phases]\n"
      "                   [--jacobian assembled|matrix-free]\n"
      "                   [--simd auto|off|1|2|4|8]\n"
      "                     SIMD element batching of the fused kernels;\n"
      "                     auto picks the native pack width\n"
      "                   [--krylov gmres|pipe-gmres|cg|pipe-cg]\n"
      "                     pipelined variants: one fused allreduce per\n"
      "                     iteration, overlapped with the operator apply\n"
      "                   [--precond jacobi|block-jacobi|amg] [--mms]\n"
      "                   [--thermal] [--weertman] [--workset N]\n"
      "                   [--csv PATH] [--ppm PATH] [--vtk PATH]\n"
      "                   [--resilience] [--guards]\n"
      "                   [--inject-fault KIND:SITE[:EVAL][:repeat]]\n"
      "                     kinds: nan|inf|stagnation|precond-fail\n"
      "                     sites: residual|operator-apply|jacobian|\n"
      "                            linear-solve|precond-setup\n"
      "                   [--checkpoint PATH]  (implies --resilience)\n"
      "                   [--ranks N] in-process domain-decomposed solve\n"
      "                     [--decomp strips|blocks] [--halo-overlap]\n"
      "                     [--precond none|jacobi|block-jacobi]\n"
      "                     [--krylov gmres|pipe-gmres|cg|pipe-cg]\n"
      "                     [--comm-guards] checksum + bounded-wait comm\n"
      "                     [--comm-timeout S] typed fault instead of hang\n"
      "                     [--max-restarts N] [--restart-backoff S]\n"
      "                     [--checkpoint] replicated in-memory rollback\n"
      "                     [--resilience] = guards + checkpoint +\n"
      "                       max-restarts 2 (coordinated restart loop)\n"
      "                     [--inject-fault comm:KIND:SITE[:EVAL][:repeat]]\n"
      "                       kinds: drop|corrupt|delay|rank-death|straggler\n"
      "                       sites: halo-send|halo-recv|allreduce|barrier\n"
      "  study            run the GPU optimization study -> markdown report\n"
      "                   [--cells N] [--scale F] [--out PATH]\n"
      "  transport        Eq. 2 thickness transport demo [--dx-km F]\n"
      "                   [--years F] [--ppm PATH]\n"
      "  forecast         transient velocity-thickness-thermal forecast\n"
      "                   [--years F] [--dx-km F] [--layers N]\n"
      "                   [--dt-init F] [--dt-min F] [--dt-max F]\n"
      "                   [--dt-growth F] [--dt-backoff F] [--cfl F]\n"
      "                   [--forcing constant[:offset=F] |\n"
      "                             ramp:anomaly=F[,start=F][,end=F] |\n"
      "                             cycle:amplitude=F[,period=F][,phase=F]]\n"
      "                   [--velocity-every N]  (0 freeze, <0 zero velocity)\n"
      "                   [--no-thermal] [--thermal-steady]\n"
      "                   [--flux upwind|muscl] [--min-thickness F]\n"
      "                   [--checkpoint-every K] [--checkpoint PATH]\n"
      "                   [--restart PATH] [--quiet] [--ppm PATH]\n"
      "                   plus solve's problem flags (--variant/--scatter/\n"
      "                   --jacobian/--simd/--workset/--thermal/--weertman/\n"
      "                   --mms) and its --krylov/--precond/--steps/--ranks/\n"
      "                   --decomp/--inject-fault/--resilience\n"
      "                   (--ranks > 1 also takes solve's --comm-guards/\n"
      "                   --comm-timeout/--max-restarts/--restart-backoff\n"
      "                   and comm:* fault specs; failed runs print the\n"
      "                   recovery log tail)\n"
      "  ensemble         batched scenario sweep with amortized setup\n"
      "                   --manifest PATH  (key = value manifest; keys:\n"
      "                     name, dx_km, layers, years, velocity_every,\n"
      "                     newton_max_iters, newton_tol, rank_groups,\n"
      "                     sweep.glen_n, sweep.glen_A,\n"
      "                     sweep.friction_scale, sweep.forcing)\n"
      "                   [--out results.json]  (default: stdout)\n"
      "                   [--cache DIR] persist the result cache on disk\n"
      "                   [--rank-groups N] override the manifest's groups\n"
      "                   [--ranks-per-group N] [--no-warm-start]\n"
      "                   [--no-cache] [--no-stats]\n"
      "                   [--expect-cached] exit nonzero unless every\n"
      "                     member was served from the cache\n"
      "                   [--member-retries N] [--retry-backoff S]\n"
      "                     failed members retry then quarantine; the\n"
      "                     batch never aborts on one member's fault\n"
      "                   [--resilience] arm each member's recovery path\n"
      "                   [--inject-fault KIND:SITE[:EVAL][:repeat]]\n"
      "                     [--fault-member ID] restrict to one member\n"
      "                   [--quiet]\n"
      "  export-jacobian  assemble and dump the Jacobian as MatrixMarket\n"
      "                   --out PATH.mtx [--dx-km F] [--layers N]\n"
      "                   plus solve's problem flags\n"
      "  launch-bounds    evaluate a LaunchBounds<T,B> choice on the GCD\n"
      "                   [--max-threads N] [--min-blocks N] [--cells N]\n"
      "                   [--scale F]\n"
      "  archs            list the modeled GPU architectures\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args(argc, argv, 2);
  if (const auto* known = command_flags(cmd)) {
    const std::string bad = args.first_unknown(*known);
    if (!bad.empty()) {
      std::fprintf(stderr, "unknown flag --%s for 'mali %s'\n", bad.c_str(),
                   cmd.c_str());
      return 2;
    }
  }
  try {
    if (cmd == "solve") return cmd_solve(args);
    if (cmd == "study") return cmd_study(args);
    if (cmd == "transport") return cmd_transport(args);
    if (cmd == "forecast") return cmd_forecast(args);
    if (cmd == "ensemble") return cmd_ensemble(args);
    if (cmd == "export-jacobian") return cmd_export_jacobian(args);
    if (cmd == "launch-bounds") return cmd_launch_bounds(args);
    if (cmd == "archs") return cmd_archs();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
