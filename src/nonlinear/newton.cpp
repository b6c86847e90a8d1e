#include "nonlinear/newton.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "portability/common.hpp"
#include "resilience/checkpoint.hpp"

namespace mali::nonlinear {

namespace {

using resilience::FaultSite;
using resilience::FaultType;
using resilience::RecoveryRung;
using resilience::SolverFault;
using resilience::SolverFaultError;

SolverFault make_fault(FaultType type, FaultSite site, double value,
                       int newton_step, const std::string& msg) {
  SolverFault f;
  f.type = type;
  f.site = site;
  f.value = value;
  f.newton_step = newton_step;
  f.message = msg;
  return f;
}

/// The rung a trigger starts the ladder at: linear-solve trouble wants a
/// better direction (grow the Krylov budget first); preconditioner-setup
/// failures climb the preconditioner ladder; everything numerical
/// (NaN/Inf poison, diverged states) starts with a gentler step.
RecoveryRung start_rung(FaultType t) {
  switch (t) {
    case FaultType::kLinearSolveFailure:
    case FaultType::kLineSearchStall:
      return RecoveryRung::kGrowKrylov;
    case FaultType::kPrecondSetupFailure:
      return RecoveryRung::kClimbPreconditioner;
    default:
      return RecoveryRung::kRedampStep;
  }
}

}  // namespace

NewtonResult NewtonSolver::solve(NonlinearProblem& problem,
                                 linalg::Preconditioner& M,
                                 std::vector<double>& U) const {
  const std::size_t n = problem.n_dofs();
  MALI_CHECK(U.size() == n);
  const resilience::RecoveryConfig& rc = cfg_.recovery;

  NewtonResult result;
  const linalg::InnerProduct& ip = linalg::inner_or_default(cfg_.inner);
  std::vector<double> F(n), F_trial(n), rhs(n), dU(n), U_trial(n);
  bool matrix_free = cfg_.jacobian == linalg::JacobianMode::kMatrixFree;
  // Matrix-free mode never creates the global matrix — that is the point
  // (unless the recovery ladder's assembled fallback engages).
  linalg::CrsMatrix J;
  bool have_matrix = false;
  if (!matrix_free) {
    J = problem.create_matrix();
    have_matrix = true;
  }

  // ---- recovery-ladder state (escalations persist across steps) ----
  linalg::GmresConfig gcfg = cfg_.gmres;
  double damping_cap = 1.0;              ///< line-search starting damping
  std::unique_ptr<linalg::Preconditioner> ladder_M;
  linalg::Preconditioner* Mp = &M;
  int precond_rung = -1;
  int total_attempts = 0;
  bool refresh_fnorm = false;  ///< recompute ||F|| after a restore
  resilience::SolverCheckpoint last_good;

  const auto capture_checkpoint = [&](const std::vector<double>& Ugood,
                                      double fn, int step) {
    if (!rc.enabled) return;
    last_good.U = Ugood;
    last_good.residual_norm = fn;
    last_good.newton_step = step;
    last_good.valid = true;
    if (!rc.checkpoint_path.empty()) last_good.save(rc.checkpoint_path);
  };

  // ---- initial residual ----
  problem.set_newton_step(0);
  double fnorm = 0.0;
  {
    int tries = 0;
    for (;;) {
      bool fault_hit = false;
      SolverFault fault;
      try {
        problem.residual(U, F);
        fnorm = ip.norm2(F);
      } catch (const SolverFaultError& e) {
        if (!rc.enabled) throw;
        fault_hit = true;
        fault = e.fault();
      }
      if (!fault_hit && std::isfinite(fnorm)) {
        if (!result.recovery.attempts.empty()) {
          for (auto& a : result.recovery.attempts) a.succeeded = true;
          ++result.recovery.steps_recovered;
        }
        break;
      }
      if (!fault_hit) {
        fault = make_fault(FaultType::kNonFiniteResidualNorm,
                           FaultSite::kResidual, fnorm, 0,
                           "initial residual norm is not finite");
      } else {
        ++result.recovery.faults_detected;
      }
      if (!rc.enabled || ++tries >= rc.max_attempts_per_step ||
          ++total_attempts >= rc.max_total_attempts) {
        if (fault_hit) throw SolverFaultError(fault);
        result.faulted = true;
        result.fault = fault;
        result.residual_norm = fnorm;
        result.initial_norm = fnorm;
        return result;
      }
      resilience::RecoveryAttempt a;
      a.newton_step = 0;
      a.rung = RecoveryRung::kRestoreCheckpoint;
      a.trigger = fault;
      a.action = "re-evaluate initial residual";
      result.recovery.attempts.push_back(std::move(a));
      if (rc.verbose) {
        std::printf("recovery: initial residual faulted (%s) — retrying\n",
                    resilience::to_string(fault.type));
      }
    }
  }
  result.initial_norm = fnorm;
  result.history.push_back(fnorm);
  capture_checkpoint(U, fnorm, 0);

  const auto is_converged = [&](double f) {
    return f < cfg_.abs_tol ||
           (result.initial_norm > 0.0 && f < cfg_.rel_tol * result.initial_norm);
  };

  for (int it = 0; it < cfg_.max_iters; ++it) {
    if (is_converged(fnorm)) {
      result.converged = true;
      break;
    }
    problem.set_newton_step(it + 1);

    // The damping cap is a per-step escalation: unlike the Krylov budget or
    // the preconditioner ladder (which stay escalated — they only make
    // later steps stronger), a halved starting damping would handicap
    // every subsequent step, so it resets here and only binds the retries
    // of the step that tripped.
    damping_cap = 1.0;

    const std::size_t step_first_attempt = result.recovery.attempts.size();
    int step_attempts = 0;
    int next_rung = 0;  ///< per-step ladder position (settings persist)

    linalg::GmresResult lin;
    double trial_norm = fnorm;
    double damping = 1.0;

    for (;;) {  // ---- attempt loop (runs once on the clean path) ----
      bool fault_hit = false;
      bool stalled = false;
      SolverFault fault;
      try {
        std::unique_ptr<linalg::LinearOperator> op;
        if (matrix_free) {
          // JFNK-style step with the exact element tangent: linearize the
          // problem's operator at U and build the preconditioner from its
          // diagonal extraction.
          op = problem.jacobian_operator(U);
          MALI_CHECK_MSG(op != nullptr,
                         "matrix-free Newton requires the problem to provide "
                         "a jacobian_operator");
          Mp->compute(*op);
          // Re-evaluate F at U *after* linearizing: forming the operator
          // may refresh problem state the residual depends on (the FO
          // problem recomputes its Dirichlet row scale, exactly as
          // assembled residual_and_jacobian does), and GMRES needs F
          // consistent with J.
          problem.residual(U, F);
          fnorm = ip.norm2(F);
          refresh_fnorm = false;
          if (!std::isfinite(fnorm)) {
            throw SolverFaultError(make_fault(
                FaultType::kNonFiniteResidualNorm, FaultSite::kResidual,
                fnorm, it + 1, "residual norm non-finite at linearization"));
          }
        } else {
          if (!have_matrix) {
            J = problem.create_matrix();
            have_matrix = true;
          }
          J.set_zero();
          problem.residual_and_jacobian(U, F, J);
          Mp->compute(J);
          if (refresh_fnorm) {
            // A checkpoint restore invalidated the cached ||F||; re-anchor
            // it to the state the linearization just evaluated.
            fnorm = ip.norm2(F);
            refresh_fnorm = false;
            if (!std::isfinite(fnorm)) {
              throw SolverFaultError(make_fault(
                  FaultType::kNonFiniteResidualNorm, FaultSite::kResidual,
                  fnorm, it + 1,
                  "residual norm non-finite after checkpoint restore"));
            }
          }
        }

        // Solve J dU = -F.
        for (std::size_t i = 0; i < n; ++i) rhs[i] = -F[i];
        std::fill(dU.begin(), dU.end(), 0.0);
        lin = matrix_free
                  ? linalg::solve_krylov(cfg_.krylov, gcfg, *op, *Mp, rhs, dU)
                  : linalg::solve_krylov(cfg_.krylov, gcfg,
                                         linalg::AssembledOperator(J), *Mp,
                                         rhs, dU);
        // Solver-level injection site: forced GMRES stagnation.
        if (rc.injector != nullptr &&
            rc.injector->fire(FaultSite::kLinearSolve)) {
          lin.converged = false;
          lin.breakdown = true;
          lin.reason = "injected GMRES stagnation";
        }
        result.total_linear_iters += lin.iterations;
        // Record (instead of silently ignoring) inner solves that missed
        // their tolerance; without the recovery ladder the inexact step is
        // still attempted — the line search below is the safety net.
        if (!lin.converged) {
          ++result.linear_failures;
          if (cfg_.verbose) {
            std::printf(
                "newton step %2d  WARNING: linear solve failed (%zu iters, "
                "rel res %.2e%s%s)\n",
                it + 1, lin.iterations, lin.rel_residual,
                lin.breakdown ? ", breakdown: " : "",
                lin.breakdown ? lin.reason.c_str() : "");
          }
        }

        // Damped update with backtracking on ||F||.
        damping = damping_cap;
        trial_norm = fnorm;
        while (true) {
          for (std::size_t i = 0; i < n; ++i) {
            U_trial[i] = U[i] + damping * dU[i];
          }
          problem.residual(U_trial, F_trial);
          trial_norm = ip.norm2(F_trial);
          if (!cfg_.line_search || trial_norm < fnorm ||
              damping <= cfg_.min_damping) {
            break;
          }
          damping *= 0.5;
        }
        // Damping bottomed out without a decrease: the direction is not a
        // descent direction for ||F|| (bad linear solve or bad
        // linearization).
        if (cfg_.line_search && damping <= cfg_.min_damping &&
            trial_norm >= fnorm) {
          stalled = true;
          result.line_search_stalled = true;
          if (cfg_.verbose) {
            std::printf(
                "newton step %2d  WARNING: line search stalled at damping "
                "%.4f (||F|| %.3e -> %.3e)\n",
                it + 1, damping, fnorm, trial_norm);
          }
        }
      } catch (const SolverFaultError& e) {
        if (!rc.enabled) throw;
        fault_hit = true;
        fault = e.fault();
        ++result.recovery.faults_detected;
      }

      const bool non_finite_trial = !fault_hit && !std::isfinite(trial_norm);
      const bool quality_trigger =
          !lin.converged || stalled || non_finite_trial;
      if (!fault_hit && (!rc.enabled || !quality_trigger)) {
        // Clean attempt (or recovery disabled): accept the step.
        if (result.recovery.attempts.size() > step_first_attempt) {
          for (std::size_t i = step_first_attempt;
               i < result.recovery.attempts.size(); ++i) {
            result.recovery.attempts[i].succeeded = true;
          }
          ++result.recovery.steps_recovered;
        }
        break;
      }

      // ---- a trigger fired: escalate through the ladder ----
      if (!fault_hit) {
        if (non_finite_trial) {
          fault = make_fault(FaultType::kNonFiniteResidualNorm,
                             FaultSite::kResidual, trial_norm, it + 1,
                             "trial residual norm non-finite in line search");
        } else if (!lin.converged) {
          fault = make_fault(
              FaultType::kLinearSolveFailure, FaultSite::kLinearSolve,
              lin.rel_residual, it + 1,
              lin.breakdown ? lin.reason : "GMRES missed its tolerance");
        } else {
          fault = make_fault(FaultType::kLineSearchStall,
                             FaultSite::kResidual, trial_norm, it + 1,
                             "line search bottomed out at min damping");
        }
      }

      ++step_attempts;
      ++total_attempts;
      if (step_attempts > rc.max_attempts_per_step ||
          total_attempts > rc.max_total_attempts) {
        if (fault_hit) throw SolverFaultError(fault);  // fail loudly
        if (non_finite_trial) {
          result.faulted = true;
          result.fault = fault;
          result.residual_norm = trial_norm;
          return result;
        }
        // Quality triggers with an exhausted budget: take the inexact /
        // stalled step like the classic path would and move on.
        break;
      }

      // Pick the next applicable rung at or above the trigger's start.
      int r = std::max(static_cast<int>(start_rung(fault.type)), next_rung);
      const auto applicable = [&](RecoveryRung rung) {
        switch (rung) {
          case RecoveryRung::kRedampStep:
            return damping_cap * rc.redamp_factor >= cfg_.min_damping;
          case RecoveryRung::kGrowKrylov:
            return true;
          case RecoveryRung::kClimbPreconditioner:
            return precond_rung + 1 <
                   static_cast<int>(rc.precond_ladder.size());
          case RecoveryRung::kAssembledFallback:
            return matrix_free;
          case RecoveryRung::kRestoreCheckpoint:
            return true;
        }
        return false;
      };
      constexpr int kLastRung =
          static_cast<int>(RecoveryRung::kRestoreCheckpoint);
      r = std::min(r, kLastRung);
      while (!applicable(static_cast<RecoveryRung>(r)) && r < kLastRung) ++r;
      const auto rung = static_cast<RecoveryRung>(r);
      next_rung = std::min(r + 1, kLastRung);

      std::ostringstream action;
      switch (rung) {
        case RecoveryRung::kRedampStep:
          damping_cap *= rc.redamp_factor;
          action << "starting damping capped at " << damping_cap;
          break;
        case RecoveryRung::kGrowKrylov:
          gcfg.restart = static_cast<std::size_t>(
              static_cast<double>(gcfg.restart) * rc.krylov_growth);
          gcfg.max_iters = static_cast<std::size_t>(
              static_cast<double>(gcfg.max_iters) * rc.krylov_growth);
          action << "GMRES budget grown to restart " << gcfg.restart
                 << ", max_iters " << gcfg.max_iters;
          break;
        case RecoveryRung::kClimbPreconditioner:
          ++precond_rung;
          ladder_M = rc.precond_ladder[static_cast<std::size_t>(
              precond_rung)]();
          MALI_CHECK_MSG(ladder_M != nullptr,
                         "precond_ladder factory returned null");
          Mp = ladder_M.get();
          action << "preconditioner climbed to " << Mp->name();
          break;
        case RecoveryRung::kAssembledFallback:
          matrix_free = false;
          action << "matrix-free Jacobian replaced by assembled";
          break;
        case RecoveryRung::kRestoreCheckpoint:
          // An uncaptured checkpoint (recovery off at entry) restores the
          // current state.
          if (last_good.valid) {
            MALI_CHECK(last_good.U.size() == n);
            U = last_good.U;
            fnorm = last_good.residual_norm;
          }
          refresh_fnorm = true;  // re-anchor ||F|| at next linearization
          action << "restored checkpoint from step " << last_good.newton_step
                 << " (||F|| " << fnorm << ")";
          break;
      }

      resilience::RecoveryAttempt a;
      a.newton_step = it + 1;
      a.rung = rung;
      a.trigger = fault;
      a.action = action.str();
      result.recovery.attempts.push_back(std::move(a));
      if (rc.verbose) {
        std::printf("recovery: step %d trigger [%s] -> rung %s (%s)\n",
                    it + 1, resilience::to_string(fault.type),
                    resilience::to_string(rung), action.str().c_str());
      }
    }

    U = U_trial;
    F = F_trial;
    fnorm = trial_norm;
    result.iterations = it + 1;
    result.history.push_back(fnorm);
    if (cfg_.verbose) {
      std::printf(
          "newton step %2d  ||F|| = %.6e  (gmres iters %4zu, rel res %.2e, "
          "damping %.3f)\n",
          it + 1, fnorm, lin.iterations, lin.rel_residual, damping);
    }
    // Typed failure instead of looping to max_iters on NaN: a non-finite
    // accepted norm means the state is poisoned and further iteration is
    // meaningless.
    if (!std::isfinite(fnorm)) {
      result.faulted = true;
      result.fault =
          make_fault(FaultType::kNonFiniteResidualNorm, FaultSite::kResidual,
                     fnorm, it + 1, "accepted residual norm is not finite");
      result.residual_norm = fnorm;
      return result;
    }
    if (!last_good.valid || fnorm < last_good.residual_norm) {
      capture_checkpoint(U, fnorm, it + 1);
    }
    // Accepted-step hook, after the finite check: observers (and the SPMD
    // checkpoint mirror) only ever see healthy iterates, and every rank of
    // a distributed solve reaches this point in lockstep.
    if (cfg_.on_accepted_step) cfg_.on_accepted_step(it + 1, U, fnorm);
  }

  result.residual_norm = fnorm;
  if (is_converged(fnorm)) result.converged = true;
  return result;
}

}  // namespace mali::nonlinear
