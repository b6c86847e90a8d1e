// Matrix-free GMRES preconditioning: block-Jacobi vs the semicoarsening
// AMG on the matrix-free operator, and how the AMG gets its fine matrix.
//
// The matrix-free Jacobian path never assembles the global matrix, which
// historically cut it off from the production preconditioner (MDSC-AMG
// consumes a CRS matrix).  SemicoarseningAmg::compute(const LinearOperator&)
// closes that gap: the operator writes its own fine matrix onto the
// structural lattice graph from its tangent cache (LinearOperator::
// assemble), or — for an operator without that capability — a constant
// number of colored probe applies (<= 27 * dofs_per_node on the extruded
// lattice) reconstruct it, once per Newton step.  The usual Galerkin
// hierarchy is built on it, and with the Chebyshev smoother the fine level
// afterwards runs entirely through the live operator.
//
// This bench answers three questions on the reduced Antarctica mesh:
//   0. fine-matrix build — tangent assembly vs colored probing: wall time
//      of the build and of a whole AMG compute(), operator applies spent,
//      and whether the two matrices are bitwise equal (-0 == +0);
//   1. single linear solve — GMRES iterations and wall time under
//      block-Jacobi vs the AMG (same matrix-free operator, same rhs);
//   2. full Newton run at equal tolerance — total GMRES iterations in
//      matrix-free mode with each preconditioner, plus the assembled+AMG
//      reference trajectory.
// The setup cost is reported against the per-iteration savings via
// perf::AmgCycleModel.
//
//   bench_amg_matrix_free [--dx-km F] [--layers N] [--steps N] [--out PATH]
//
// --out writes question 0 as a JSON record (bench/problem/rows schema).
// Exits non-zero unless the matrices are bitwise equal, tangent assembly
// spends no operator applies, and the AMG beats block-Jacobi on total
// GMRES iterations.  Thread count follows MALI_NUM_THREADS (default:
// hardware concurrency).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "linalg/block_jacobi.hpp"
#include "linalg/gmres.hpp"
#include "linalg/linear_operator.hpp"
#include "linalg/operator_probing.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "nonlinear/newton.hpp"
#include "perf/data_movement.hpp"
#include "perf/report.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "portability/thread_pool.hpp"
#include "portability/timer.hpp"
#include "util/hash.hpp"
#include "util/json_writer.hpp"

using namespace mali;

namespace {

double arg_num(int argc, char** argv, const std::string& key, double dflt) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (key == argv[i]) return std::atof(argv[i + 1]);
  }
  return dflt;
}

std::string arg_str(int argc, char** argv, const std::string& key) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (key == argv[i]) return argv[i + 1];
  }
  return {};
}

/// Forwards everything but assemble(), so the AMG falls back to probing.
class ProbeOnlyOperator final : public linalg::LinearOperator {
 public:
  explicit ProbeOnlyOperator(const linalg::LinearOperator& inner)
      : inner_(&inner) {}
  [[nodiscard]] std::size_t rows() const override { return inner_->rows(); }
  [[nodiscard]] std::size_t cols() const override { return inner_->cols(); }
  void apply(const std::vector<double>& x,
             std::vector<double>& y) const override {
    inner_->apply(x, y);
  }
  bool diagonal(std::vector<double>& d) const override {
    return inner_->diagonal(d);
  }
  bool block_diagonal(int bs, std::vector<double>& blocks) const override {
    return inner_->block_diagonal(bs, blocks);
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  const linalg::LinearOperator* inner_;
};

/// Median wall time of `reps` calls of f.
template <class F>
double median_seconds(int reps, F&& f) {
  std::vector<double> t;
  pk::Timer timer;
  for (int r = 0; r < reps; ++r) {
    timer.reset();
    f();
    t.push_back(timer.seconds());
  }
  std::sort(t.begin(), t.end());
  const std::size_t n = t.size();
  return n % 2 == 1 ? t[n / 2] : 0.5 * (t[n / 2 - 1] + t[n / 2]);
}

/// fnv1a64 of A's values with -0 canonicalized to +0.
std::uint64_t value_hash(const linalg::CrsMatrix& A) {
  std::vector<double> v = A.values();
  for (double& x : v) {
    if (x == 0.0) x = 0.0;
  }
  return util::fnv1a64(v.data(), v.size() * sizeof(double));
}

/// The AMG's fine-matrix source, for tables.
std::string amg_label(const linalg::SemicoarseningAmg& amg) {
  if (amg.fine_operator_assembled()) return "tangent-assembled AMG";
  return "probed AMG (" + std::to_string(amg.probe_applies()) + " applies)";
}

struct BuildRow {
  const char* fine_matrix;
  double build_s = 0.0;      ///< fine matrix alone
  double amg_setup_s = 0.0;  ///< one whole compute() on a built hierarchy
  std::size_t setup_applies = 0;
};

physics::StokesFOConfig make_config(int argc, char** argv) {
  physics::StokesFOConfig cfg;
  cfg.dx_m = arg_num(argc, argv, "--dx-km", 64.0) * 1e3;
  cfg.n_layers = static_cast<int>(arg_num(argc, argv, "--layers", 10));
  cfg.jacobian = linalg::JacobianMode::kMatrixFree;
  return cfg;
}

struct NewtonRun {
  nonlinear::NewtonResult result;
  double seconds = 0.0;
};

NewtonRun run_newton(physics::StokesFOConfig cfg, linalg::JacobianMode mode,
                     linalg::Preconditioner& M, int steps) {
  cfg.jacobian = mode;
  physics::StokesFOProblem problem(cfg);
  nonlinear::NewtonConfig ncfg;
  ncfg.max_iters = steps;
  ncfg.jacobian = mode;
  const nonlinear::NewtonSolver newton(ncfg);
  auto U = problem.analytic_initial_guess();
  pk::Timer timer;
  NewtonRun run;
  run.result = newton.solve(problem, M, U);
  run.seconds = timer.seconds();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const physics::StokesFOConfig cfg = make_config(argc, argv);
  const int steps = static_cast<int>(arg_num(argc, argv, "--steps", 8));
  constexpr int reps = 5;  // timed repetitions of each fine-matrix build
  const std::string out_path = arg_str(argc, argv, "--out");

  physics::StokesFOProblem problem(cfg);
  const std::size_t n = problem.n_dofs();
  std::printf(
      "Matrix-free preconditioning: block-Jacobi vs semicoarsening AMG — "
      "%zu cells, %zu dofs, %zu threads\n\n",
      problem.mesh().n_cells(), n, pk::ThreadPool::instance().size());

  const auto U = problem.analytic_initial_guess();
  const auto op = problem.jacobian_operator(U);

  // ---- 0. fine-matrix build: tangent assembly vs colored probing ----
  const linalg::StructuredProbing probing(problem.extrusion_info());
  const ProbeOnlyOperator probe_only(*op);
  linalg::CrsMatrix assembled = probing.structure();
  linalg::CrsMatrix probed = probing.structure();
  BuildRow rows[2] = {{"probed"}, {"tangent-assembled"}};
  rows[0].build_s =
      median_seconds(reps, [&] { probing.probe(*op, probed); });
  rows[1].build_s =
      median_seconds(reps, [&] { (void)op->assemble(assembled); });
  const bool bitwise_equal = value_hash(assembled) == value_hash(probed);
  {
    linalg::SemicoarseningAmg amg_probe(problem.extrusion_info());
    linalg::SemicoarseningAmg amg_tangent(problem.extrusion_info());
    amg_probe.compute(probe_only);  // the first compute() builds the plans
    amg_tangent.compute(*op);
    rows[0].amg_setup_s =
        median_seconds(reps, [&] { amg_probe.compute(probe_only); });
    rows[1].amg_setup_s =
        median_seconds(reps, [&] { amg_tangent.compute(*op); });
    rows[0].setup_applies = amg_probe.probe_applies();
    rows[1].setup_applies = amg_tangent.probe_applies();
  }
  const bool no_applies = rows[1].setup_applies == 0 &&
                          rows[0].setup_applies == probing.n_probes();
  std::printf("AMG fine matrix (%zu nonzeros), median of %d:\n",
              probing.graph_nnz(), reps);
  perf::Table bt({"fine matrix", "build (ms)", "AMG compute (ms)",
                  "operator applies"});
  for (const BuildRow& r : rows) {
    bt.add_row({r.fine_matrix, perf::fmt(r.build_s * 1e3, 4),
                perf::fmt(r.amg_setup_s * 1e3, 4),
                std::to_string(r.setup_applies)});
  }
  bt.print(std::cout);
  std::printf("tangent-assembled == probed (bitwise, -0 == +0): %s\n\n",
              bitwise_equal ? "yes" : "NO");

  if (!out_path.empty()) {
    util::JsonWriter w;
    w.begin_object();
    w.key("bench").value("amg_tangent_assembly");
    w.key("problem").begin_object();
    w.key("dx_km").value(cfg.dx_m / 1e3);
    w.key("layers").value(cfg.n_layers);
    w.key("cells").value(problem.mesh().n_cells());
    w.key("dofs").value(n);
    w.key("fine_nnz").value(probing.graph_nnz());
    w.key("threads").value(pk::ThreadPool::instance().size());
    w.key("reps").value(reps);
    w.end_object();
    w.key("rows").begin_array();
    for (const BuildRow& r : rows) {
      w.begin_object();
      w.key("fine_matrix").value(r.fine_matrix);
      w.key("build_s").value(r.build_s);
      w.key("amg_setup_s").value(r.amg_setup_s);
      w.key("setup_applies").value(r.setup_applies);
      w.end_object();
    }
    w.end_array();
    w.key("build_speedup").value(rows[0].build_s / rows[1].build_s);
    w.key("bitwise_equal").value(bitwise_equal);
    w.end_object();
    if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
      std::fputs(w.str().c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("wrote %s\n\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "could not open %s for writing\n",
                   out_path.c_str());
      return 1;
    }
  }

  // ---- 1. single linear solve at the analytic initial guess ----
  std::vector<double> F(n);
  problem.residual(U, F);
  std::vector<double> rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = -F[i];

  linalg::GmresConfig gcfg;
  const linalg::Gmres gmres(gcfg);
  pk::Timer timer;

  linalg::BlockJacobiPreconditioner bj(2);
  timer.reset();
  bj.compute(*op);
  const double bj_setup_s = timer.seconds();
  std::vector<double> dU(n, 0.0);
  timer.reset();
  const auto bj_lin = gmres.solve(*op, bj, rhs, dU);
  const double bj_solve_s = timer.seconds();

  linalg::AmgConfig acfg;
  acfg.smoother = linalg::AmgSmoother::kChebyshev;
  linalg::SemicoarseningAmg amg(problem.extrusion_info(), acfg);
  timer.reset();
  amg.compute(*op);
  const double amg_setup_s = timer.seconds();
  std::fill(dU.begin(), dU.end(), 0.0);
  timer.reset();
  const auto amg_lin = gmres.solve(*op, amg, rhs, dU);
  const double amg_solve_s = timer.seconds();

  std::printf("Single GMRES solve of J dU = -F (rel tol %.0e), matrix-free "
              "operator:\n",
              gcfg.rel_tol);
  perf::Table t({"preconditioner", "setup (ms)", "iterations", "rel residual",
                 "solve (ms)"});
  t.add_row({"block-Jacobi", perf::fmt(bj_setup_s * 1e3, 4),
             std::to_string(bj_lin.iterations),
             perf::fmt_sci(bj_lin.rel_residual),
             perf::fmt(bj_solve_s * 1e3, 4)});
  t.add_row({amg_label(amg), perf::fmt(amg_setup_s * 1e3, 4),
             std::to_string(amg_lin.iterations),
             perf::fmt_sci(amg_lin.rel_residual),
             perf::fmt(amg_solve_s * 1e3, 4)});
  t.print(std::cout);

  // ---- byte model: what the probe costs, what each V-cycle streams ----
  perf::JacobianApplyModel jm;
  jm.n_rows = n;
  jm.nnz = problem.create_matrix().nnz();
  jm.n_cells = problem.mesh().n_cells();
  jm.n_nodes = problem.mesh().n_nodes();
  jm.num_nodes = problem.workset().num_nodes;
  jm.n_basal_faces =
      problem.config().mms.enabled ? 0 : problem.mesh().base().n_cells();
  perf::AmgCycleModel am;
  am.fine_apply_bytes = jm.matrix_free_stream_bytes();
  am.probe_applies = amg.probe_applies();
  am.tangent_assembled = amg.fine_operator_assembled();
  am.tangent_cache_bytes = jm.n_cells * jm.cache_bytes_per_cell();
  am.fine_matrix_free = amg.fine_matrix_free();
  for (std::size_t l = 0; l < amg.n_levels(); ++l) {
    am.level_rows.push_back(amg.level_dofs(l));
    am.level_nnz.push_back(amg.level_nnz(l));
  }
  std::printf(
      "\nperf::AmgCycleModel — %zu levels, %s:\n"
      "  setup %.3f MB streamed, V-cycle %.3f MB per application\n"
      "  (one matrix-free operator apply streams %.3f MB)\n",
      amg.n_levels(), amg_label(amg).c_str(), am.setup_bytes() / 1e6,
      am.vcycle_bytes() / 1e6, am.fine_apply_bytes / 1e6);

  // ---- 2. full Newton runs at equal tolerance ----
  std::printf("\nFull Newton run (max %d steps, linear tol %.0e):\n", steps,
              gcfg.rel_tol);
  linalg::BlockJacobiPreconditioner bj2(2);
  const auto run_bj =
      run_newton(cfg, linalg::JacobianMode::kMatrixFree, bj2, steps);
  linalg::SemicoarseningAmg amg_mf(problem.extrusion_info(), acfg);
  const auto run_amg =
      run_newton(cfg, linalg::JacobianMode::kMatrixFree, amg_mf, steps);
  linalg::SemicoarseningAmg amg_asm(problem.extrusion_info());
  const auto run_ref =
      run_newton(cfg, linalg::JacobianMode::kAssembled, amg_asm, steps);

  perf::Table nt({"configuration", "newton steps", "total GMRES iters",
                  "final ||F||", "time (s)"});
  const auto row = [&](const char* name, const NewtonRun& r) {
    nt.add_row({name, std::to_string(r.result.iterations),
                std::to_string(r.result.total_linear_iters),
                perf::fmt_sci(r.result.residual_norm),
                perf::fmt(r.seconds, 4)});
  };
  row("matrix-free + block-Jacobi", run_bj);
  row(("matrix-free + " + amg_label(amg_mf)).c_str(), run_amg);
  row("assembled + AMG (reference)", run_ref);
  nt.print(std::cout);

  std::printf(
      "\nReading: the AMG's fine matrix costs %zu operator applies per\n"
      "Newton step (%s) and the setup is repaid by the multigrid iteration\n"
      "count — total GMRES iterations drop well below block-Jacobi while\n"
      "matching the assembled+AMG reference, so the matrix-free path keeps\n"
      "its bytes/iteration advantage without giving up the production\n"
      "preconditioner.\n",
      amg.probe_applies(), amg_label(amg).c_str());
  const bool amg_wins =
      run_amg.result.total_linear_iters < run_bj.result.total_linear_iters;
  std::printf("AMG total iters %s block-Jacobi (%zu vs %zu)\n",
              amg_wins ? "<" : ">=", run_amg.result.total_linear_iters,
              run_bj.result.total_linear_iters);
  return amg_wins && bitwise_equal && no_applies ? 0 : 1;
}
