#pragma once
// Recovery-ladder configuration and the structured RecoveryLog the Newton
// solver fills in.  See DESIGN.md §11 for the ladder ordering contract.
//
// The ladder is a bounded escalation the solver walks when a step trips a
// guard (typed SolverFault), the inner linear solve fails, or the line
// search stalls:
//
//   1. kRedampStep           cap the line-search starting damping (halve it)
//   2. kGrowKrylov           double the GMRES restart and iteration cap
//   3. kClimbPreconditioner  switch to the next (stronger) preconditioner
//                            in `precond_ladder` (jacobi → block-jacobi →
//                            AMG in the CLI wiring)
//   4. kAssembledFallback    matrix-free → assembled Jacobian
//   5. kRestoreCheckpoint    restore the last good SolverCheckpoint
//
// Strengthening escalations persist for the remainder of the solve (a
// grown restart stays grown, a climbed preconditioner stays climbed); the
// damping cap is per-step — it binds the retries of the step that tripped
// and resets afterwards, since a permanently halved step would handicap
// the rest of the solve.  Inapplicable rungs are skipped (e.g.
// kAssembledFallback on an already-assembled solve), and the whole ladder
// is bounded by per-step and total attempt budgets.  Every attempt — trigger, rung,
// action, outcome — is appended to the RecoveryLog surfaced in
// NewtonResult, the CLI report, and the tests.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "linalg/preconditioner.hpp"
#include "resilience/fault.hpp"
#include "resilience/fault_injector.hpp"

namespace mali::resilience {

enum class RecoveryRung {
  kRedampStep,
  kGrowKrylov,
  kClimbPreconditioner,
  kAssembledFallback,
  kRestoreCheckpoint,
};

[[nodiscard]] const char* to_string(RecoveryRung r);

struct RecoveryConfig {
  /// Master switch.  Off (the default) leaves the Newton solver's clean
  /// path bit-identical to the pre-resilience behavior: faults propagate
  /// as SolverFaultError, linear failures and stalls are recorded but not
  /// retried.
  bool enabled = false;
  /// Ladder attempts allowed for one Newton step before giving up.
  int max_attempts_per_step = 6;
  /// Ladder attempts allowed across the whole solve.
  int max_total_attempts = 16;
  /// Multiplier kRedampStep applies to the line-search starting damping.
  double redamp_factor = 0.5;
  /// Multiplier kGrowKrylov applies to the GMRES restart / iteration cap.
  double krylov_growth = 2.0;
  /// Preconditioner escalation, weakest to strongest.  Empty disables the
  /// kClimbPreconditioner rung.  The CLI wires jacobi → block-jacobi →
  /// AMG here.
  std::vector<std::function<std::unique_ptr<linalg::Preconditioner>()>>
      precond_ladder;
  /// When non-empty, every accepted Newton step also writes the checkpoint
  /// here (SolverCheckpoint::save).
  std::string checkpoint_path;
  /// Solver-level injection site (forced GMRES stagnation).  The NaN/Inf
  /// poison sites live in the guard decorators instead; see
  /// resilience/guards.hpp.  Not owned.
  FaultInjector* injector = nullptr;
  /// Verbose ladder logging to stdout.
  bool verbose = false;
};

/// One ladder attempt: what tripped, which rung was applied, and whether
/// the retried step then went through cleanly.
struct RecoveryAttempt {
  int newton_step = 0;   ///< 1-based Newton step being retried
  RecoveryRung rung = RecoveryRung::kRedampStep;
  SolverFault trigger;   ///< the event that caused the escalation
  std::string action;    ///< human-readable description of what changed
  bool succeeded = false;
};

struct RecoveryLog {
  std::vector<RecoveryAttempt> attempts;
  int faults_detected = 0;   ///< guard faults seen (injected or organic)
  int steps_recovered = 0;   ///< Newton steps that went through on a retry

  [[nodiscard]] bool empty() const noexcept { return attempts.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return attempts.size(); }
  /// True iff some attempt applied `rung`.
  [[nodiscard]] bool tried(RecoveryRung rung) const;
  /// One line per attempt, most recent last.
  [[nodiscard]] std::string to_string() const;
  /// The last `n` attempt lines (the CLI failure report).
  [[nodiscard]] std::string tail(std::size_t n = 8) const;
};

}  // namespace mali::resilience
