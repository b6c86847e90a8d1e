// Assembled vs matrix-free Jacobian apply on the reduced Antarctica mesh.
//
// The assembled path pays the element loop once per Newton step (assembly)
// and then streams the CRS matrix through HBM on *every* GMRES iteration;
// the matrix-free path pays a linearization once per Newton step (the
// quadrature-point tangent cache: map inverse, velocity gradient,
// viscosity and its Glen's-law derivative factor) and then streams that
// cache plus the direction on every apply, evaluating only the derivative
// half of the element chain.  This bench times both setups and applies,
// runs a preconditioned GMRES solve in each mode, and prints the measured
// times next to the perf::JacobianApplyModel byte model.
//
//   bench_matrix_free [--dx-km F] [--layers N] [--reps N]
//
// Thread count follows MALI_NUM_THREADS (default: hardware concurrency).
// See bench_amg_matrix_free for the preconditioner side of the story:
// block-Jacobi vs the operator-probed semicoarsening AMG on this same
// matrix-free operator.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "linalg/block_jacobi.hpp"
#include "linalg/gmres.hpp"
#include "linalg/linear_operator.hpp"
#include "perf/data_movement.hpp"
#include "perf/report.hpp"
#include "physics/matrix_free_operator.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "portability/thread_pool.hpp"
#include "portability/timer.hpp"

using namespace mali;

namespace {

double arg_num(int argc, char** argv, const std::string& key, double dflt) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (key == argv[i]) return std::atof(argv[i + 1]);
  }
  return dflt;
}

}  // namespace

int main(int argc, char** argv) {
  physics::StokesFOConfig cfg;
  cfg.dx_m = arg_num(argc, argv, "--dx-km", 64.0) * 1e3;
  cfg.n_layers = static_cast<int>(arg_num(argc, argv, "--layers", 10));
  const int reps = static_cast<int>(arg_num(argc, argv, "--reps", 10));

  physics::StokesFOProblem problem(cfg);
  const auto U = problem.analytic_initial_guess();
  const std::size_t n = problem.n_dofs();
  std::printf(
      "Assembled vs matrix-free Jacobian apply — %zu cells, %zu dofs, %zu "
      "threads, %d reps\n\n",
      problem.mesh().n_cells(), n, pk::ThreadPool::instance().size(), reps);

  // Random apply direction (fixed seed: run-to-run comparable).
  std::mt19937_64 rng(20240814);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> x(n), y(n), F(n);
  for (auto& v : x) v = dist(rng);

  // ---- assembled path: setup = assembly, apply = SpMV ----
  auto J = problem.create_matrix();
  pk::Timer timer;
  problem.residual_and_jacobian(U, F, J);  // warm-up (allocates buffers)
  timer.reset();
  J.set_zero();
  problem.residual_and_jacobian(U, F, J);
  const double asm_setup_s = timer.seconds();
  const linalg::AssembledOperator Jop(J);
  Jop.apply(x, y);  // warm-up
  timer.reset();
  for (int r = 0; r < reps; ++r) Jop.apply(x, y);
  const double asm_apply_s = timer.seconds() / reps;

  // ---- matrix-free path: setup = linearize (tangent cache + block
  //      diagonal), apply = dot-only per-element tangent + scatter ----
  timer.reset();
  const auto op = problem.jacobian_operator(U);
  const double mf_setup_s = timer.seconds();
  op->apply(x, y);  // warm-up
  timer.reset();
  for (int r = 0; r < reps; ++r) op->apply(x, y);
  const double mf_apply_s = timer.seconds() / reps;

  // ---- byte model (perf/data_movement.hpp) ----
  perf::JacobianApplyModel m;
  m.n_rows = n;
  m.nnz = J.nnz();
  m.n_cells = problem.mesh().n_cells();
  m.n_nodes = problem.mesh().n_nodes();
  m.num_nodes = problem.workset().num_nodes;
  m.num_qps = problem.workset().num_qps;
  m.thermal = cfg.thermal_viscosity;
  m.n_basal_faces = problem.mesh().base().n_cells();
  const double asm_bytes = static_cast<double>(m.assembled_stream_bytes());
  const double mf_bytes = static_cast<double>(m.matrix_free_stream_bytes());

  perf::Table t({"Jacobian mode", "setup (ms)", "apply (ms)",
                 "modeled MB/apply", "min MB", "bytes vs assembled"});
  t.add_row({"assembled SpMV", perf::fmt(asm_setup_s * 1e3, 4),
             perf::fmt(asm_apply_s * 1e3, 4), perf::fmt(asm_bytes / 1e6, 4),
             perf::fmt(m.assembled_min_bytes() / 1e6, 4),
             perf::fmt_speedup(1.0)});
  t.add_row({"matrix-free", perf::fmt(mf_setup_s * 1e3, 4),
             perf::fmt(mf_apply_s * 1e3, 4), perf::fmt(mf_bytes / 1e6, 4),
             perf::fmt(m.matrix_free_min_bytes() / 1e6, 4),
             perf::fmt_speedup(asm_bytes / mf_bytes)});
  t.print(std::cout);
  std::printf("matrix-free linearization (tangent cache build): %.4f MB "
              "modeled per Newton step\n",
              m.matrix_free_linearize_bytes() / 1e6);

  // ---- one preconditioned GMRES solve per mode, side by side ----
  std::vector<double> rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = -F[i];
  linalg::GmresConfig gcfg;
  const linalg::Gmres gmres(gcfg);
  linalg::BlockJacobiPreconditioner M(2);

  std::vector<double> dU(n, 0.0);
  M.compute(Jop);
  timer.reset();
  const auto asm_lin = gmres.solve(Jop, M, rhs, dU);
  const double asm_solve_s = timer.seconds();

  std::fill(dU.begin(), dU.end(), 0.0);
  M.compute(*op);
  timer.reset();
  const auto mf_lin = gmres.solve(*op, M, rhs, dU);
  const double mf_solve_s = timer.seconds();

  std::printf("\nBlock-Jacobi GMRES on J dU = -F (rel tol %.0e):\n",
              gcfg.rel_tol);
  perf::Table s({"Jacobian mode", "iterations", "rel residual", "solve (s)",
                 "modeled GB streamed"});
  s.add_row({"assembled SpMV", std::to_string(asm_lin.iterations),
             perf::fmt_sci(asm_lin.rel_residual), perf::fmt(asm_solve_s, 4),
             perf::fmt(asm_bytes * asm_lin.iterations / 1e9, 4)});
  s.add_row({"matrix-free", std::to_string(mf_lin.iterations),
             perf::fmt_sci(mf_lin.rel_residual), perf::fmt(mf_solve_s, 4),
             perf::fmt(mf_bytes * mf_lin.iterations / 1e9, 4)});
  s.print(std::cout);

  std::printf(
      "\nReading: identical preconditioning gives (near-)identical GMRES\n"
      "iteration counts — the operators agree to FP reassociation.  The\n"
      "matrix-free apply streams the cached quadrature-point data instead\n"
      "of the matrix: the modeled bytes/iteration are %.2fx fewer than\n"
      "the assembled SpMV's, while each apply evaluates only the\n"
      "derivative half of the element chain.\n",
      asm_bytes / mf_bytes);
  return 0;
}
