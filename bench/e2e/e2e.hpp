#pragma once
// bench_e2e core: the seed -> input mapping, an in-memory span tracer with
// self-time arithmetic, timing decorators around the library's public layer
// interfaces, and the four whole-run workloads.  Everything here goes
// through the public API only (the decorators follow the pattern of
// resilience/guards.hpp); nothing under src/ knows it is being measured.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "linalg/inner_product.hpp"
#include "linalg/linear_operator.hpp"
#include "linalg/preconditioner.hpp"
#include "nonlinear/newton.hpp"

namespace mali::e2e {

// ---- inputs ---------------------------------------------------------------

/// The only numbers a workload takes from its seed.  The library receives
/// them through set_basal_friction_scale / set_constants / the forcing spec.
struct Inputs {
  double friction_scale = 1.0;  ///< in [0.85, 1.15]
  double glen_A = 1.0e-16;      ///< in [0.8, 1.2] * 1e-16
  double ramp_anomaly = 0.0;    ///< in [-0.3, 0] m/yr (forecast only)
};

/// std::mt19937_64(seed), raw outputs mapped to [0, 1) by their top 53 bits
/// (the standard distributions are implementation-defined, this is not).
[[nodiscard]] Inputs inputs_from_seed(std::uint64_t seed);

// ---- trace ----------------------------------------------------------------

struct Span {
  int id = 0;
  int parent = -1;  ///< -1 for a root span
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Records nested spans in memory on one thread (the thread that drives the
/// solve; the library's pool threads never call a decorator).  Spans open and
/// close only through Scope, so they always nest.
class Tracer {
 public:
  Tracer();
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// One span, from construction to destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(&t) { t.begin(name); }
    ~Scope() { t_->end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

 private:
  void begin(const char* name);
  void end() noexcept;
  [[nodiscard]] double now_us() const noexcept;
  std::int64_t epoch_ns_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

struct LayerTotals {
  std::size_t calls = 0;
  double total_s = 0.0;
  /// Sum over the layer's spans of duration minus the part of the span's
  /// interval its child spans cover.
  double self_s = 0.0;
};

/// Per-name call counts, total and self times.
[[nodiscard]] std::map<std::string, LayerTotals> layer_totals(
    const std::vector<Span>& spans);

/// Spans named `child` whose parent span is named `parent`.
[[nodiscard]] std::size_t count_nested(const std::vector<Span>& spans,
                                       const std::string& parent,
                                       const std::string& child);

// ---- decorators -----------------------------------------------------------

/// Times every apply as "physics.tangent_apply".  Owns the inner operator.
class TracedOperator final : public linalg::LinearOperator {
 public:
  TracedOperator(std::unique_ptr<linalg::LinearOperator> inner, Tracer& t)
      : inner_(std::move(inner)), t_(&t) {}
  [[nodiscard]] std::size_t rows() const override { return inner_->rows(); }
  [[nodiscard]] std::size_t cols() const override { return inner_->cols(); }
  void apply(const std::vector<double>& x,
             std::vector<double>& y) const override;
  bool diagonal(std::vector<double>& d) const override {
    return inner_->diagonal(d);
  }
  bool block_diagonal(int bs, std::vector<double>& blocks) const override {
    return inner_->block_diagonal(bs, blocks);
  }
  [[nodiscard]] const linalg::CrsMatrix* matrix() const override {
    return inner_->matrix();
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<linalg::LinearOperator> inner_;
  Tracer* t_;
};

/// Times residual() as "physics.residual", residual_and_jacobian() as
/// "physics.jacobian_assembly" and jacobian_operator() as
/// "physics.linearize", and wraps the returned operator in a TracedOperator.
/// Does not own the inner problem.
class TracedProblem final : public nonlinear::NonlinearProblem {
 public:
  TracedProblem(nonlinear::NonlinearProblem& inner, Tracer& t)
      : inner_(&inner), t_(&t) {}
  [[nodiscard]] std::size_t n_dofs() const override {
    return inner_->n_dofs();
  }
  void residual(const std::vector<double>& U,
                std::vector<double>& F) override;
  void residual_and_jacobian(const std::vector<double>& U,
                             std::vector<double>& F,
                             linalg::CrsMatrix& J) override;
  [[nodiscard]] linalg::CrsMatrix create_matrix() const override {
    return inner_->create_matrix();
  }
  [[nodiscard]] std::unique_ptr<linalg::LinearOperator> jacobian_operator(
      const std::vector<double>& U) override;
  void set_newton_step(int step) override { inner_->set_newton_step(step); }

 private:
  nonlinear::NonlinearProblem* inner_;
  Tracer* t_;
};

/// Times compute() as "linalg.precond_setup" and apply() as
/// "linalg.precond_apply".  Owns the inner preconditioner.
class TracedPreconditioner final : public linalg::Preconditioner {
 public:
  TracedPreconditioner(std::unique_ptr<linalg::Preconditioner> inner,
                       Tracer& t)
      : inner_(std::move(inner)), t_(&t) {}
  void compute(const linalg::CrsMatrix& A) override;
  void compute(const linalg::LinearOperator& A) override;
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override;
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<linalg::Preconditioner> inner_;
  Tracer* t_;
};

/// Times every reduction as "linalg.reductions", delegating the arithmetic
/// to serial_inner_product() so results stay bit-identical.  Set it as both
/// NewtonConfig::inner and GmresConfig::inner.
class TracedInnerProduct final : public linalg::InnerProduct {
 public:
  explicit TracedInnerProduct(Tracer& t) : t_(&t) {}
  [[nodiscard]] double dot(const std::vector<double>& x,
                           const std::vector<double>& y) const override;
  [[nodiscard]] double norm2(const std::vector<double>& x) const override;
  void dot_batch(const std::vector<linalg::DotPair>& pairs,
                 std::vector<double>& out) const override;

 private:
  Tracer* t_;
};

// ---- workloads ------------------------------------------------------------

inline constexpr const char* kWorkloads[] = {"solve_amg", "solve_jfnk",
                                             "solve_dist4", "forecast_thermal"};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Outcome of one workload in one process: untraced (end-to-end metrics) or
/// traced (per-layer metrics).
struct WorkloadRun {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  Inputs inputs;
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> solve_seconds;  ///< every timed solve of the run
  std::vector<double> setup_seconds;  ///< every timed construction
  double mean_velocity = 0.0;
  [[nodiscard]] bool correct() const;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measuring time of an untraced run: it times floor(seconds / 8)
  /// solves (at least one) on fresh problems and reports their median.
  /// The count depends on nothing measured, so every run of a workload
  /// times the same number of solves.  Ignored when traced.
  double seconds = 0.0;
  /// Directory for the forecast's transient checkpoints (created and
  /// removed by the run).
  std::string scratch_dir = ".";
};

/// Runs one workload untraced, or, with a tracer, once untraced and once
/// traced (the untraced solve is the reference for trace.overhead_frac).
/// Throws mali::Error on an unknown workload name.
[[nodiscard]] WorkloadRun run_workload(const RunOptions& opt,
                                       Tracer* tracer = nullptr);

/// Newton ||F|| history of a 200 km / 5-layer solve through the decorators
/// (tracer set) or undecorated (nullptr).  The self-test pins the two.
[[nodiscard]] std::vector<double> small_solve_history(bool matrix_free,
                                                      Tracer* tracer);

/// One row of the bench record ("bench"/"problem"/"rows" schema).
[[nodiscard]] std::string row_json(const WorkloadRun& run);
/// The whole record around already-rendered rows.
[[nodiscard]] std::string record_json(std::uint64_t seed,
                                      const std::vector<std::string>& rows);
/// The one-line result object: correct, attempted, failed, metrics.
[[nodiscard]] std::string result_line(const WorkloadRun& run);
/// Spans plus per-layer totals, written by --trace.
[[nodiscard]] std::string trace_json(const WorkloadRun& run,
                                     const Tracer& tracer);

}  // namespace mali::e2e
