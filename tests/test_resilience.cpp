// Solver resilience layer, end to end:
//
//   * FaultSpec grammar, kind/site compatibility, and round-trip;
//   * deterministic seeded injection (per-site counters, stable target dof);
//   * guard decorators detect NaN/Inf at every site with the correct typed
//     SolverFault (type, site, first offending dof) and pass clean
//     evaluations through untouched;
//   * the Newton recovery ladder: every fault kind x site x Jacobian mode
//     either recovers (solution within 1e-5 of the clean run) or fails
//     loudly with the matching SolverFault — never a silent NaN;
//   * typed non-finite Newton exits (satellite: no iterating to the cap on
//     NaN), and Krylov non-finite breakdown reporting;
//   * SolverCheckpoint: bit-exact round trip (NaN / -0.0 / denormals) and
//     a readable on-disk mirror of the last good Newton state;
//   * continuation back-stepping: an inner divergence restores the
//     pre-step state and retries at the geometric mean (halved log-space
//     reduction); a retry that also diverges stops the walk early;
//   * the clean path is bit-identical with the ladder armed or not.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "linalg/block_jacobi.hpp"
#include "linalg/gmres.hpp"
#include "linalg/krylov.hpp"
#include "linalg/linear_operator.hpp"
#include "linalg/preconditioner.hpp"
#include "nonlinear/continuation.hpp"
#include "nonlinear/newton.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/comm_fault.hpp"
#include "resilience/fault.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/guards.hpp"
#include "resilience/recovery.hpp"

using namespace mali;
using namespace mali::resilience;
using physics::StokesFOConfig;
using physics::StokesFOProblem;

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

StokesFOConfig mms_config(linalg::JacobianMode mode) {
  StokesFOConfig cfg;
  cfg.dx_m = 250.0e3;
  cfg.n_layers = 4;
  cfg.mms.enabled = true;
  cfg.jacobian = mode;
  return cfg;
}

struct SolveOutcome {
  nonlinear::NewtonResult newton;
  double mean_velocity = 0.0;
};

/// Runs the MMS Newton solve, optionally with injection / guards / the
/// recovery ladder.  Both Jacobian modes use the same 2x2 block-Jacobi
/// preconditioner so outcomes are comparable.
SolveOutcome run_mms(linalg::JacobianMode mode, FaultInjector* injector,
                     bool guards, bool recovery,
                     const std::string& checkpoint_path = "") {
  StokesFOProblem p(mms_config(mode));
  linalg::BlockJacobiPreconditioner M(2);
  nonlinear::NewtonConfig ncfg;
  ncfg.jacobian = mode;
  if (recovery) {
    ncfg.recovery.enabled = true;
    ncfg.recovery.checkpoint_path = checkpoint_path;
    ncfg.recovery.precond_ladder = {
        [] { return std::make_unique<linalg::JacobiPreconditioner>(); },
        [] { return std::make_unique<linalg::BlockJacobiPreconditioner>(2); },
    };
  }
  ncfg.recovery.injector = injector;

  GuardedProblem guarded(p, {}, injector);
  GuardedPreconditioner guarded_M(M, injector);
  nonlinear::NonlinearProblem& prob =
      guards ? static_cast<nonlinear::NonlinearProblem&>(guarded) : p;
  linalg::Preconditioner& precond =
      guards ? static_cast<linalg::Preconditioner&>(guarded_M) : M;

  std::vector<double> U(p.n_dofs(), 0.0);
  SolveOutcome out;
  out.newton = nonlinear::NewtonSolver(ncfg).solve(prob, precond, U);
  out.mean_velocity = p.mean_velocity(U);
  return out;
}

/// Scalar toy problem F(u) = u - parameter (solution u == parameter) whose
/// residual is poisoned with NaN whenever the parameter sits inside
/// (window_lo, window_hi) — the continuation back-step tests walk through
/// that window.
class ScalarProblem : public nonlinear::NonlinearProblem {
 public:
  double parameter = 1.0;
  double window_lo = 0.0, window_hi = 0.0;  ///< empty window by default

  [[nodiscard]] std::size_t n_dofs() const override { return 1; }
  void residual(const std::vector<double>& U,
                std::vector<double>& F) override {
    F.resize(1);
    F[0] = poisoned() ? kNan : U[0] - parameter;
  }
  void residual_and_jacobian(const std::vector<double>& U,
                             std::vector<double>& F,
                             linalg::CrsMatrix& J) override {
    residual(U, F);
    J.set(0, 0, 1.0);
  }
  [[nodiscard]] linalg::CrsMatrix create_matrix() const override {
    return linalg::CrsMatrix({0, 1}, {0});
  }

 private:
  [[nodiscard]] bool poisoned() const {
    return parameter > window_lo && parameter < window_hi;
  }
};

/// F(u) = u with a wrong-sign Jacobian: every Newton direction points
/// uphill, so the line search stalls on every step — the persistent
/// quality trigger that pushes the ladder all the way to the
/// checkpoint-restore rung.
class UphillProblem : public nonlinear::NonlinearProblem {
 public:
  [[nodiscard]] std::size_t n_dofs() const override { return 1; }
  void residual(const std::vector<double>& U,
                std::vector<double>& F) override {
    F.resize(1);
    F[0] = U[0];
  }
  void residual_and_jacobian(const std::vector<double>& U,
                             std::vector<double>& F,
                             linalg::CrsMatrix& J) override {
    residual(U, F);
    J.set(0, 0, -1.0);  // wrong sign on purpose
  }
  [[nodiscard]] linalg::CrsMatrix create_matrix() const override {
    return linalg::CrsMatrix({0, 1}, {0});
  }
};

/// n x n identity-graph operator whose apply output is poisoned at one dof.
class PoisonedOperator : public linalg::LinearOperator {
 public:
  PoisonedOperator(std::size_t n, std::size_t bad_dof, double value)
      : n_(n), bad_(bad_dof), value_(value) {}
  [[nodiscard]] std::size_t rows() const override { return n_; }
  [[nodiscard]] std::size_t cols() const override { return n_; }
  void apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    y = x;
    y[bad_] = value_;
  }
  [[nodiscard]] const char* name() const override { return "poisoned"; }

 private:
  std::size_t n_, bad_;
  double value_;
};

}  // namespace

// ---------------------------------------------------------------------------
// FaultSpec grammar
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesAndRoundTrips) {
  const FaultSpec s = fault_spec_from_string("nan:residual:2");
  EXPECT_EQ(s.kind, FaultKind::kNanPoison);
  EXPECT_EQ(s.site, FaultSite::kResidual);
  EXPECT_EQ(s.at_evaluation, 2u);
  EXPECT_FALSE(s.repeat);
  EXPECT_EQ(to_string(s), "nan:residual:2");

  const FaultSpec r = fault_spec_from_string("inf:operator-apply:5:repeat");
  EXPECT_EQ(r.kind, FaultKind::kInfPoison);
  EXPECT_EQ(r.site, FaultSite::kOperatorApply);
  EXPECT_TRUE(r.repeat);
  EXPECT_EQ(to_string(r), "inf:operator-apply:5:repeat");

  // Evaluation defaults to 0 when omitted.
  EXPECT_EQ(fault_spec_from_string("stagnation:linear-solve").at_evaluation,
            0u);
}

TEST(FaultSpec, RejectsMalformedAndIncompatibleSpecs) {
  EXPECT_THROW((void)fault_spec_from_string("nan"), Error);
  EXPECT_THROW((void)fault_spec_from_string("bogus:residual"), Error);
  EXPECT_THROW((void)fault_spec_from_string("nan:bogus-site"), Error);
  EXPECT_THROW((void)fault_spec_from_string("nan:residual:1:sometimes"), Error);
  // Kind/site compatibility: poison wants an output site, stagnation wants
  // the linear solve, precond-fail wants preconditioner setup.
  EXPECT_THROW((void)fault_spec_from_string("nan:linear-solve"), Error);
  EXPECT_THROW((void)fault_spec_from_string("stagnation:residual"), Error);
  EXPECT_THROW((void)fault_spec_from_string("precond-fail:jacobian"), Error);
}

// ---------------------------------------------------------------------------
// Deterministic injection
// ---------------------------------------------------------------------------

TEST(FaultInjector, FiresAtTheConfiguredEvaluationOnly) {
  FaultInjector inj(fault_spec_from_string("nan:residual:2"));
  EXPECT_FALSE(inj.fire(FaultSite::kResidual));          // eval 0
  EXPECT_FALSE(inj.fire(FaultSite::kOperatorApply));     // other site
  EXPECT_FALSE(inj.fire(FaultSite::kResidual));          // eval 1
  EXPECT_TRUE(inj.fire(FaultSite::kResidual));           // eval 2 fires
  EXPECT_FALSE(inj.fire(FaultSite::kResidual));          // single-shot
  EXPECT_EQ(inj.fired(), 1);
  EXPECT_EQ(inj.count(FaultSite::kResidual), 4u);
  EXPECT_EQ(inj.count(FaultSite::kOperatorApply), 1u);
  EXPECT_TRUE(std::isnan(inj.poison()));
}

TEST(FaultInjector, RepeatFiresFromTheConfiguredEvaluationOn) {
  FaultInjector inj(fault_spec_from_string("inf:residual:1:repeat"));
  EXPECT_FALSE(inj.fire(FaultSite::kResidual));
  EXPECT_TRUE(inj.fire(FaultSite::kResidual));
  EXPECT_TRUE(inj.fire(FaultSite::kResidual));
  EXPECT_EQ(inj.fired(), 2);
  EXPECT_TRUE(std::isinf(inj.poison()));
}

TEST(FaultInjector, TargetDofIsSeededAndStable) {
  FaultSpec spec = fault_spec_from_string("nan:residual:0");
  const FaultInjector a(spec), b(spec);
  EXPECT_EQ(a.target_dof(1000), b.target_dof(1000));
  EXPECT_LT(a.target_dof(1000), 1000u);
  // A different seed moves the target (with overwhelming probability for
  // this particular pair).
  spec.seed = 12345;
  const FaultInjector c(spec);
  EXPECT_NE(a.target_dof(1000000), c.target_dof(1000000));
}

TEST(FaultInjector, MemberSaltDivergesPerMemberAndKeepsLegacyBits) {
  // The ensemble engine runs many members against the same seed; the
  // member salt must move the fault site between members (otherwise every
  // member of an injected ensemble corrupts the identical dof and the
  // sweep measures one fault, not N).  Member 0 is the un-salted legacy
  // path: its target must be bit-for-bit what a memberless spec produces.
  FaultSpec spec = fault_spec_from_string("nan:residual:0");
  const FaultInjector legacy(spec);
  spec.member = 0;
  const FaultInjector member0(spec);
  for (const std::size_t n : {7u, 1000u, 1000000u}) {
    EXPECT_EQ(legacy.target_dof(n), member0.target_dof(n)) << n;
  }

  // Distinct members must hit distinct dofs somewhere in a large space
  // (equal targets for all of these pairs would mean the salt is dead).
  const std::size_t n = 1000000;
  std::set<std::size_t> targets;
  for (unsigned m = 0; m < 8; ++m) {
    FaultSpec s = fault_spec_from_string("nan:residual:0");
    s.member = m;
    targets.insert(FaultInjector(s).target_dof(n));
  }
  EXPECT_GT(targets.size(), 6u);

  // Salting is deterministic: same member, same target.
  FaultSpec s1 = fault_spec_from_string("nan:residual:0");
  s1.member = 3;
  EXPECT_EQ(FaultInjector(s1).target_dof(n), FaultInjector(s1).target_dof(n));
}

// ---------------------------------------------------------------------------
// Guard decorators
// ---------------------------------------------------------------------------

TEST(Guards, DetectInjectedResidualPoisonWithTypedFault) {
  ScalarProblem p;
  p.parameter = 0.0;
  FaultInjector inj(fault_spec_from_string("nan:residual:0"));
  GuardedProblem guarded(p, {}, &inj);
  std::vector<double> U{1.0}, F;
  try {
    guarded.residual(U, F);
    FAIL() << "guard did not throw";
  } catch (const SolverFaultError& e) {
    EXPECT_EQ(e.fault().type, FaultType::kNonFiniteResidual);
    EXPECT_EQ(e.fault().site, FaultSite::kResidual);
    EXPECT_EQ(e.fault().dof, inj.target_dof(1));
    EXPECT_TRUE(std::isnan(e.fault().value));
    EXPECT_EQ(e.fault().evaluation, 0u);
  }
}

TEST(Guards, DetectOrganicOperatorApplyPoisonAtTheRightDof) {
  auto op = std::make_unique<PoisonedOperator>(8, 5, kInf);
  GuardedOperator guarded(std::move(op), {}, nullptr);
  std::vector<double> x(8, 1.0), y;
  try {
    guarded.apply(x, y);
    FAIL() << "guard did not throw";
  } catch (const SolverFaultError& e) {
    EXPECT_EQ(e.fault().type, FaultType::kNonFiniteOperatorApply);
    EXPECT_EQ(e.fault().site, FaultSite::kOperatorApply);
    EXPECT_EQ(e.fault().dof, 5u);
    EXPECT_TRUE(std::isinf(e.fault().value));
  }
}

TEST(Guards, DetectInjectedJacobianPoison) {
  ScalarProblem p;
  FaultInjector inj(fault_spec_from_string("inf:jacobian:0"));
  GuardedProblem guarded(p, {}, &inj);
  std::vector<double> U{0.5}, F;
  auto J = guarded.create_matrix();
  EXPECT_THROW(guarded.residual_and_jacobian(U, F, J), SolverFaultError);
}

TEST(Guards, BoundCheckRejectsDivergedInput) {
  ScalarProblem p;
  GuardConfig gcfg;
  gcfg.max_solution_norm = 1.0e6;
  GuardedProblem guarded(p, gcfg);
  std::vector<double> U{1.0e7}, F;
  try {
    guarded.residual(U, F);
    FAIL() << "guard did not throw";
  } catch (const SolverFaultError& e) {
    EXPECT_EQ(e.fault().type, FaultType::kSolutionDiverged);
    EXPECT_DOUBLE_EQ(e.fault().value, 1.0e7);
  }
}

TEST(Guards, CleanEvaluationsPassThroughUntouched) {
  ScalarProblem p;
  p.parameter = 2.0;
  GuardedProblem guarded(p);
  std::vector<double> U{5.0}, F_guarded, F_plain;
  guarded.residual(U, F_guarded);
  p.residual(U, F_plain);
  ASSERT_EQ(F_guarded.size(), F_plain.size());
  EXPECT_EQ(F_guarded[0], F_plain[0]);
  EXPECT_EQ(guarded.residual_evaluations(), 1u);
}

// ---------------------------------------------------------------------------
// Typed Newton exits and Krylov breakdown reporting
// ---------------------------------------------------------------------------

TEST(TypedExits, NewtonReturnsTypedFaultOnNonFiniteNormInsteadOfIterating) {
  // Organic NaN with no guards and no recovery: the solver must exit with
  // a typed record immediately, not run to max_iters on garbage.
  ScalarProblem p;
  p.parameter = 1.0e-3;
  p.window_lo = 0.0;
  p.window_hi = 1.0;  // always poisoned
  linalg::JacobiPreconditioner M;
  std::vector<double> U{0.0};
  const auto r =
      nonlinear::NewtonSolver(nonlinear::NewtonConfig{}).solve(p, M, U);
  EXPECT_TRUE(r.faulted);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.fault.type, FaultType::kNonFiniteResidualNorm);
  EXPECT_EQ(r.iterations, 0);
}

TEST(TypedExits, GmresReportsNonFiniteBreakdownInsteadOfConverging) {
  const std::size_t n = 4;
  const PoisonedOperator A(n, 2, kNan);
  linalg::IdentityPreconditioner M;
  std::vector<double> b(n, 1.0), x;
  const linalg::Gmres gmres{linalg::GmresConfig{}};
  const auto r = gmres.solve(A, M, b, x);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  EXPECT_NE(r.reason.find("non-finite"), std::string::npos);
  EXPECT_EQ(r.iterations, 0u);  // detected before any Arnoldi work
}

TEST(TypedExits, CgReportsNonFiniteBreakdown) {
  const std::size_t n = 4;
  const PoisonedOperator A(n, 1, kInf);
  linalg::IdentityPreconditioner M;
  std::vector<double> b(n, 1.0), x;
  const auto cg =
      linalg::ConjugateGradient(linalg::KrylovConfig{}).solve(A, M, b, x);
  EXPECT_TRUE(cg.breakdown);
  EXPECT_FALSE(cg.converged);
}

// ---------------------------------------------------------------------------
// Recovery matrix: every fault kind x site x Jacobian mode
// ---------------------------------------------------------------------------

namespace {

struct MatrixCase {
  const char* spec;
  linalg::JacobianMode mode;
  bool guard_fault;  ///< detected by a guard (vs the linear-solve site)
};

const MatrixCase kMatrixCases[] = {
    {"nan:residual:2", linalg::JacobianMode::kAssembled, true},
    {"inf:residual:2", linalg::JacobianMode::kAssembled, true},
    {"nan:jacobian:1", linalg::JacobianMode::kAssembled, true},
    {"inf:jacobian:1", linalg::JacobianMode::kAssembled, true},
    {"stagnation:linear-solve:1", linalg::JacobianMode::kAssembled, false},
    {"precond-fail:precond-setup:1", linalg::JacobianMode::kAssembled, true},
    {"nan:residual:2", linalg::JacobianMode::kMatrixFree, true},
    {"inf:residual:2", linalg::JacobianMode::kMatrixFree, true},
    {"nan:operator-apply:3", linalg::JacobianMode::kMatrixFree, true},
    {"inf:operator-apply:3", linalg::JacobianMode::kMatrixFree, true},
    {"stagnation:linear-solve:1", linalg::JacobianMode::kMatrixFree, false},
    {"precond-fail:precond-setup:1", linalg::JacobianMode::kMatrixFree, true},
};

}  // namespace

TEST(RecoveryMatrix, EveryFaultKindAndSiteRecoversToTheCleanSolution) {
  for (const auto mode :
       {linalg::JacobianMode::kAssembled, linalg::JacobianMode::kMatrixFree}) {
    const SolveOutcome clean = run_mms(mode, nullptr, false, false);
    ASSERT_TRUE(clean.newton.converged);
    for (const auto& c : kMatrixCases) {
      if (c.mode != mode) continue;
      SCOPED_TRACE(std::string(c.spec) + " / " + linalg::to_string(mode));
      FaultInjector inj(fault_spec_from_string(c.spec));
      const SolveOutcome hurt = run_mms(mode, &inj, true, true);
      EXPECT_EQ(inj.fired(), 1);
      EXPECT_TRUE(hurt.newton.converged);
      EXPECT_FALSE(hurt.newton.faulted);
      // Recovered to the clean solution within far less than the 1e-5
      // acceptance band.
      EXPECT_NEAR(hurt.mean_velocity / clean.mean_velocity, 1.0, 1e-5);
      // The ladder actually engaged and every attempt is accounted for.
      ASSERT_FALSE(hurt.newton.recovery.empty());
      EXPECT_GE(hurt.newton.recovery.steps_recovered, 1);
      EXPECT_EQ(hurt.newton.recovery.faults_detected, c.guard_fault ? 1 : 0);
      for (const auto& a : hurt.newton.recovery.attempts) {
        EXPECT_TRUE(a.succeeded);
        EXPECT_NE(a.trigger.type, FaultType::kNone);
      }
    }
  }
}

TEST(RecoveryMatrix, TriggerAwareStartRungs) {
  // Stagnation starts at grow-krylov, precond failure at the
  // preconditioner ladder — not at the generic re-damp rung.
  FaultInjector stag(fault_spec_from_string("stagnation:linear-solve:1"));
  const auto r1 =
      run_mms(linalg::JacobianMode::kAssembled, &stag, true, true).newton;
  ASSERT_FALSE(r1.recovery.empty());
  EXPECT_TRUE(r1.recovery.tried(RecoveryRung::kGrowKrylov));
  EXPECT_FALSE(r1.recovery.tried(RecoveryRung::kRedampStep));

  FaultInjector pf(fault_spec_from_string("precond-fail:precond-setup:1"));
  const auto r2 =
      run_mms(linalg::JacobianMode::kAssembled, &pf, true, true).newton;
  ASSERT_FALSE(r2.recovery.empty());
  EXPECT_TRUE(r2.recovery.tried(RecoveryRung::kClimbPreconditioner));
}

TEST(RecoveryMatrix, FailsLoudlyWithoutTheLadder) {
  // Same injected fault, recovery disabled: the typed error must reach the
  // caller — no silent NaN propagation, no recovery on the sly.
  FaultInjector inj(fault_spec_from_string("nan:residual:2"));
  try {
    run_mms(linalg::JacobianMode::kAssembled, &inj, true, false);
    FAIL() << "guard fault did not propagate";
  } catch (const SolverFaultError& e) {
    EXPECT_EQ(e.fault().type, FaultType::kNonFiniteResidual);
    EXPECT_EQ(e.fault().site, FaultSite::kResidual);
  }
}

TEST(RecoveryMatrix, InjectedRunsAreDeterministic) {
  FaultInjector a(fault_spec_from_string("nan:residual:2"));
  FaultInjector b(fault_spec_from_string("nan:residual:2"));
  const auto ra = run_mms(linalg::JacobianMode::kAssembled, &a, true, true);
  const auto rb = run_mms(linalg::JacobianMode::kAssembled, &b, true, true);
  ASSERT_EQ(ra.newton.history.size(), rb.newton.history.size());
  for (std::size_t i = 0; i < ra.newton.history.size(); ++i) {
    EXPECT_EQ(ra.newton.history[i], rb.newton.history[i]) << "step " << i;
  }
  ASSERT_EQ(ra.newton.recovery.size(), rb.newton.recovery.size());
  for (std::size_t i = 0; i < ra.newton.recovery.size(); ++i) {
    EXPECT_EQ(ra.newton.recovery.attempts[i].rung,
              rb.newton.recovery.attempts[i].rung);
    EXPECT_EQ(ra.newton.recovery.attempts[i].trigger.dof,
              rb.newton.recovery.attempts[i].trigger.dof);
  }
  EXPECT_EQ(ra.mean_velocity, rb.mean_velocity);
}

TEST(RecoveryMatrix, InitialResidualFaultIsRetried) {
  // Fire on the very first residual evaluation (newton_step 0): the
  // pre-loop retry loop must absorb it.
  FaultInjector inj(fault_spec_from_string("nan:residual:0"));
  const auto out = run_mms(linalg::JacobianMode::kAssembled, &inj, true, true);
  EXPECT_TRUE(out.newton.converged);
  ASSERT_FALSE(out.newton.recovery.empty());
  EXPECT_EQ(out.newton.recovery.attempts.front().newton_step, 0);
  EXPECT_TRUE(out.newton.recovery.attempts.front().succeeded);
}

TEST(RecoveryLadder, PersistentStallWalksToCheckpointRestore) {
  // A wrong-sign Jacobian stalls the line search on every attempt; the
  // ladder must escalate grow-krylov -> (skipped rungs) -> restore, call
  // on_restore, and finally accept the inexact step when the per-step
  // budget runs out — bounded, logged, no infinite loop.
  UphillProblem p;
  linalg::JacobiPreconditioner M;
  nonlinear::NewtonConfig ncfg;
  ncfg.max_iters = 1;
  ncfg.recovery.enabled = true;
  ncfg.recovery.max_attempts_per_step = 3;
  int restores = 0;
  ncfg.recovery.on_restore = [&](SolverCheckpoint&) { ++restores; };
  std::vector<double> U{1.0};
  const auto r = nonlinear::NewtonSolver(ncfg).solve(p, M, U);
  EXPECT_TRUE(r.line_search_stalled);
  EXPECT_FALSE(r.faulted);
  EXPECT_TRUE(r.recovery.tried(RecoveryRung::kGrowKrylov));
  EXPECT_TRUE(r.recovery.tried(RecoveryRung::kRestoreCheckpoint));
  // Inapplicable rungs were skipped: no preconditioner ladder was
  // configured and the solve is already assembled.
  EXPECT_FALSE(r.recovery.tried(RecoveryRung::kClimbPreconditioner));
  EXPECT_FALSE(r.recovery.tried(RecoveryRung::kAssembledFallback));
  EXPECT_GE(restores, 1);
  EXPECT_LE(static_cast<int>(r.recovery.size()),
            ncfg.recovery.max_attempts_per_step);
}

// ---------------------------------------------------------------------------
// Clean-path bit-identity
// ---------------------------------------------------------------------------

TEST(CleanPath, BitIdenticalWithRecoveryArmedAndWithGuards) {
  const auto base = run_mms(linalg::JacobianMode::kAssembled, nullptr,
                            false, false);
  const auto armed = run_mms(linalg::JacobianMode::kAssembled, nullptr,
                             false, true);
  const auto guarded = run_mms(linalg::JacobianMode::kAssembled, nullptr,
                               true, true);
  ASSERT_EQ(base.newton.history.size(), armed.newton.history.size());
  ASSERT_EQ(base.newton.history.size(), guarded.newton.history.size());
  for (std::size_t i = 0; i < base.newton.history.size(); ++i) {
    EXPECT_EQ(base.newton.history[i], armed.newton.history[i]) << i;
    EXPECT_EQ(base.newton.history[i], guarded.newton.history[i]) << i;
  }
  EXPECT_EQ(base.mean_velocity, armed.mean_velocity);
  EXPECT_EQ(base.mean_velocity, guarded.mean_velocity);
  EXPECT_TRUE(armed.newton.recovery.empty());
  EXPECT_TRUE(guarded.newton.recovery.empty());
  EXPECT_EQ(base.newton.total_linear_iters, armed.newton.total_linear_iters);
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

TEST(Checkpoint, RoundTripsBitExactly) {
  SolverCheckpoint c;
  c.U = {0.0, -0.0, kNan, kInf, -kInf, 5e-324 /* denormal */, 1.0 / 3.0};
  c.residual_norm = 1.23456789e-7;
  c.parameter = 1.0e-10;
  c.newton_step = 5;
  c.valid = true;
  const std::string path = "test_resilience_ckpt.bin";
  c.save(path);
  const SolverCheckpoint r = load_checkpoint(path);
  std::remove(path.c_str());

  ASSERT_TRUE(r.valid);
  ASSERT_EQ(r.U.size(), c.U.size());
  // Bit-exact: memcmp, not ==, so -0.0 and NaN payloads count.
  EXPECT_EQ(std::memcmp(r.U.data(), c.U.data(),
                        c.U.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&r.residual_norm, &c.residual_norm, sizeof(double)),
            0);
  EXPECT_DOUBLE_EQ(r.parameter, c.parameter);
  EXPECT_EQ(r.newton_step, c.newton_step);
}

TEST(Checkpoint, LoadRejectsMissingAndMalformedFiles) {
  EXPECT_THROW(load_checkpoint("no_such_checkpoint_file.bin"), Error);
  const std::string path = "test_resilience_bad_ckpt.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a checkpoint", f);
  std::fclose(f);
  EXPECT_THROW(load_checkpoint(path), Error);
  std::remove(path.c_str());
}

TEST(Checkpoint, NewtonMirrorsLastGoodStateToDisk) {
  const std::string path = "test_resilience_newton_ckpt.bin";
  const auto out =
      run_mms(linalg::JacobianMode::kAssembled, nullptr, false, true, path);
  ASSERT_TRUE(out.newton.converged);
  const SolverCheckpoint c = load_checkpoint(path);
  std::remove(path.c_str());
  EXPECT_TRUE(c.valid);
  EXPECT_GT(c.newton_step, 0);
  // The mirrored state is the best accepted iterate: its norm appears in
  // the Newton history verbatim.
  bool found = false;
  for (const double h : out.newton.history) {
    if (std::memcmp(&h, &c.residual_norm, sizeof(double)) == 0) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(c.U.size(),
            StokesFOProblem(mms_config(linalg::JacobianMode::kAssembled))
                .n_dofs());
}

// ---------------------------------------------------------------------------
// Continuation back-stepping
// ---------------------------------------------------------------------------

TEST(ContinuationBackstep, RetriesAtTheGeometricMeanAndFinishes) {
  ScalarProblem p;
  p.window_lo = 8.0e-5;   // the walk's 1e-4 step lands in the window...
  p.window_hi = 2.0e-4;   // ...but the geometric-mean retry (3.16e-4) not
  linalg::JacobiPreconditioner M;
  nonlinear::ContinuationConfig ccfg;
  ccfg.start_parameter = 1.0e-2;
  ccfg.target_parameter = 1.0e-5;
  ccfg.reduction = 0.1;
  std::vector<double> U{0.0};
  const auto r = nonlinear::continuation_solve(
      p, M, [&](double e) { p.parameter = e; }, U, ccfg);

  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.stopped_early);
  EXPECT_EQ(r.backsteps, 1);
  ASSERT_EQ(r.backstep_steps.size(), 1u);
  ASSERT_EQ(r.parameters.size(), r.inner.size());
  // The recorded retry ran at sqrt(last_good * failed) — the halved
  // (log-space) reduction.
  const auto k = static_cast<std::size_t>(r.backstep_steps[0]);
  EXPECT_NEAR(r.parameters[k], std::sqrt(1.0e-3 * 1.0e-4),
              1e-12 * r.parameters[k]);
  EXPECT_DOUBLE_EQ(r.final_parameter, 1.0e-5);
  // The walk ends converged at the target with the physical solution.
  EXPECT_NEAR(U[0], 1.0e-5, 1e-10);
}

TEST(ContinuationBackstep, StopsEarlyWhenTheRetryAlsoDiverges) {
  ScalarProblem p;
  p.window_lo = 5.0e-5;  // swallows both the 1e-4 step and the 3.16e-4
  p.window_hi = 5.0e-4;  // geometric-mean retry
  linalg::JacobiPreconditioner M;
  nonlinear::ContinuationConfig ccfg;
  ccfg.start_parameter = 1.0e-2;
  ccfg.target_parameter = 1.0e-6;
  ccfg.reduction = 0.1;
  std::vector<double> U{0.0};
  const auto r = nonlinear::continuation_solve(
      p, M, [&](double e) { p.parameter = e; }, U, ccfg);

  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.stopped_early);
  EXPECT_EQ(r.backsteps, 1);
  // The problem is left at the last good parameter, with the last good
  // solution restored (the 1e-3 solve's answer, not poisoned garbage).
  EXPECT_DOUBLE_EQ(p.parameter, 1.0e-3);
  EXPECT_TRUE(std::isfinite(U[0]));
  EXPECT_NEAR(U[0], 1.0e-3, 1e-9);
}

TEST(ContinuationBackstep, StopsWithoutRetryWhenTheFirstStepDiverges) {
  ScalarProblem p;
  p.window_lo = 5.0e-3;  // the start parameter itself is poisoned
  p.window_hi = 5.0e-2;
  linalg::JacobiPreconditioner M;
  nonlinear::ContinuationConfig ccfg;
  ccfg.start_parameter = 1.0e-2;
  ccfg.target_parameter = 1.0e-6;
  ccfg.reduction = 0.1;
  std::vector<double> U{0.0};
  const auto r = nonlinear::continuation_solve(
      p, M, [&](double e) { p.parameter = e; }, U, ccfg);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.stopped_early);
  EXPECT_EQ(r.backsteps, 0);  // nothing good to back-step toward
}

// ---------------------------------------------------------------------------
// RecoveryLog formatting (the CLI failure report)
// ---------------------------------------------------------------------------

TEST(RecoveryLog, ToStringAndTailNameTheRungsAndTriggers) {
  FaultInjector inj(fault_spec_from_string("nan:residual:2"));
  const auto out = run_mms(linalg::JacobianMode::kAssembled, &inj, true, true);
  ASSERT_FALSE(out.newton.recovery.empty());
  const std::string s = out.newton.recovery.to_string();
  EXPECT_NE(s.find("redamp-step"), std::string::npos);
  EXPECT_NE(s.find("non-finite-residual"), std::string::npos);
  EXPECT_FALSE(out.newton.recovery.tail(1).empty());
}

// ---------------------------------------------------------------------------
// Comm-layer fault taxonomy (DESIGN.md §16): the "comm:"-prefixed spec
// grammar, its round-trip, and the deterministic injector.  The legacy
// (un-prefixed) solver grammar must be completely untouched by the
// extension — the CLI dispatches on the prefix.
// ---------------------------------------------------------------------------

TEST(CommFaultSpec, PrefixDispatchSeparatesTheTwoGrammars) {
  EXPECT_TRUE(resilience::is_comm_fault_spec("comm:drop:halo-send"));
  EXPECT_TRUE(resilience::is_comm_fault_spec("comm:corrupt:allreduce:3"));
  EXPECT_FALSE(resilience::is_comm_fault_spec("nan:residual"));
  EXPECT_FALSE(resilience::is_comm_fault_spec("drop:halo-send"));
  EXPECT_FALSE(resilience::is_comm_fault_spec(""));
  // The legacy grammar still parses exactly as before.
  const auto legacy = resilience::fault_spec_from_string("nan:residual:2");
  EXPECT_EQ(legacy.kind, resilience::FaultKind::kNanPoison);
  EXPECT_EQ(legacy.at_evaluation, 2u);
}

TEST(CommFaultSpec, ParsesEveryKindAndSiteAndRoundTrips) {
  const char* kinds[] = {"drop", "corrupt", "delay", "rank-death",
                         "straggler"};
  const char* sites[] = {"halo-send", "halo-recv", "allreduce", "barrier"};
  for (const char* k : kinds) {
    for (const char* s : sites) {
      const std::string text =
          std::string("comm:") + k + ":" + s + ":5";
      const auto spec = resilience::comm_fault_spec_from_string(text);
      EXPECT_EQ(resilience::to_string(spec.kind), std::string(k));
      EXPECT_EQ(resilience::to_string(spec.site), std::string(s));
      EXPECT_EQ(spec.at_evaluation, 5u);
      EXPECT_FALSE(spec.repeat);
      // to_string -> from_string is the identity on the parsed fields.
      const auto again =
          resilience::comm_fault_spec_from_string(resilience::to_string(spec));
      EXPECT_EQ(again.kind, spec.kind);
      EXPECT_EQ(again.site, spec.site);
      EXPECT_EQ(again.at_evaluation, spec.at_evaluation);
      EXPECT_EQ(again.repeat, spec.repeat);
    }
  }
}

TEST(CommFaultSpec, DefaultsAndRepeatTrailer) {
  const auto bare = resilience::comm_fault_spec_from_string("comm:drop:barrier");
  EXPECT_EQ(bare.at_evaluation, 0u);
  EXPECT_FALSE(bare.repeat);
  const auto rep = resilience::comm_fault_spec_from_string(
      "comm:straggler:halo-recv:0:repeat");
  EXPECT_EQ(rep.kind, resilience::CommFaultKind::kStraggler);
  EXPECT_TRUE(rep.repeat);
  EXPECT_EQ(resilience::to_string(rep), "comm:straggler:halo-recv:0:repeat");
}

TEST(CommFaultSpec, MalformedSpecsAreTypedErrors) {
  for (const char* bad :
       {"comm:", "comm:drop", "comm:bogus:halo-send", "comm:drop:bogus",
        "comm:drop:halo-send:1:sometimes", "comm:drop:halo-send:1:repeat:x",
        "nan:residual"}) {
    EXPECT_THROW((void)resilience::comm_fault_spec_from_string(bad),
                 mali::Error)
        << "spec '" << bad << "' must be rejected";
  }
}

TEST(CommFaultInjector, CountsPerSiteAndFiresAtTheConfiguredEvaluation) {
  resilience::CommFaultSpec spec;
  spec.kind = resilience::CommFaultKind::kDrop;
  spec.site = resilience::CommSite::kAllreduce;
  spec.at_evaluation = 2;
  resilience::CommFaultInjector inj(spec);
  // Evaluations of OTHER sites never fire and never advance this site.
  EXPECT_FALSE(inj.fire(resilience::CommSite::kHaloSend));
  EXPECT_FALSE(inj.fire(resilience::CommSite::kBarrier));
  EXPECT_FALSE(inj.fire(resilience::CommSite::kAllreduce));  // eval 0
  EXPECT_FALSE(inj.fire(resilience::CommSite::kAllreduce));  // eval 1
  EXPECT_TRUE(inj.fire(resilience::CommSite::kAllreduce));   // eval 2: fires
  EXPECT_FALSE(inj.fire(resilience::CommSite::kAllreduce));  // one-shot
  EXPECT_EQ(inj.fired(), 1);
  EXPECT_EQ(inj.count(resilience::CommSite::kAllreduce), 4u);
  EXPECT_EQ(inj.count(resilience::CommSite::kHaloSend), 1u);

  resilience::CommFaultSpec rep = spec;
  rep.repeat = true;
  resilience::CommFaultInjector inj2(rep);
  int fired = 0;
  for (int i = 0; i < 6; ++i) {
    if (inj2.fire(resilience::CommSite::kAllreduce)) ++fired;
  }
  EXPECT_EQ(fired, 4) << "repeat fires at every evaluation >= at_evaluation";
}

TEST(CommFaultInjector, VictimChoiceIsStableSeededAndMemberDecorrelated) {
  resilience::CommFaultSpec spec;
  resilience::CommFaultInjector a(spec), b(spec);
  for (const int n : {1, 2, 4, 7, 64}) {
    const int victim = a.target_rank(n);
    EXPECT_EQ(victim, b.target_rank(n)) << "victim must be instance-stable";
    EXPECT_GE(victim, 0);
    EXPECT_LT(victim, n);
  }
  // The member salt decorrelates ensemble members: across a handful of
  // member ids at least one must pick a different victim at 7 ranks.
  const int base = a.target_rank(7);
  bool differs = false;
  for (unsigned m = 1; m <= 8 && !differs; ++m) {
    resilience::CommFaultSpec salted = spec;
    salted.member = m;
    differs = resilience::CommFaultInjector(salted).target_rank(7) != base;
  }
  EXPECT_TRUE(differs);
  // Counting evaluations never moves the victim (stable mid-run).
  (void)a.fire(resilience::CommSite::kAllreduce);
  EXPECT_EQ(a.target_rank(7), base);
}
