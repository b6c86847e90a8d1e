#include "e2e.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <random>
#include <sstream>

#include "dist/dist_solver.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "perf/data_movement.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "portability/common.hpp"
#include "portability/parallel.hpp"
#include "portability/timer.hpp"
#include "timestepping/forecast_driver.hpp"
#include "util/fp_format.hpp"
#include "util/json_writer.hpp"

namespace mali::e2e {

// ---- inputs ---------------------------------------------------------------

Inputs inputs_from_seed(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto unit = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  Inputs in;
  in.friction_scale = 0.85 + 0.30 * unit();
  in.glen_A = (0.8 + 0.4 * unit()) * 1.0e-16;
  in.ramp_anomaly = -0.3 * unit();
  return in;
}

// ---- trace ----------------------------------------------------------------

namespace {

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) { spans_.reserve(1 << 16); }

double Tracer::now_us() const noexcept {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-3;
}

void Tracer::begin(const char* name) {
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.name = name;
  s.start_us = now_us();
  spans_.push_back(s);
  open_.push_back(s.id);
}

void Tracer::end() noexcept {
  spans_[static_cast<std::size_t>(open_.back())].end_us = now_us();
  open_.pop_back();
}

std::map<std::string, LayerTotals> layer_totals(
    const std::vector<Span>& spans) {
  // Children grouped under their parent's index, merged as intervals
  // clipped to the parent, so overlapping or out-of-range children are
  // never counted twice.
  std::map<int, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    const auto p = index.find(s.parent);
    if (p != index.end()) kids[p->second].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cursor = s.start_us;
    for (const auto& [b, e] : iv) {
      const double lo = std::max(b, cursor);
      const double hi = std::min(e, s.end_us);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    LayerTotals& t = out[s.name];
    ++t.calls;
    const double dur = s.end_us - s.start_us;
    t.total_s += dur * 1e-6;
    t.self_s += (dur - covered) * 1e-6;
  }
  return out;
}

std::size_t count_nested(const std::vector<Span>& spans,
                         const std::string& parent, const std::string& child) {
  std::map<int, const char*> names;
  for (const Span& s : spans) names[s.id] = s.name;
  std::size_t n = 0;
  for (const Span& s : spans) {
    const auto p = names.find(s.parent);
    if (p != names.end() && child == s.name && parent == p->second) ++n;
  }
  return n;
}

// ---- decorators -----------------------------------------------------------

void TracedOperator::apply(const std::vector<double>& x,
                           std::vector<double>& y) const {
  const Tracer::Scope s(*t_, "physics.tangent_apply");
  inner_->apply(x, y);
}

void TracedProblem::residual(const std::vector<double>& U,
                             std::vector<double>& F) {
  const Tracer::Scope s(*t_, "physics.residual");
  inner_->residual(U, F);
}

void TracedProblem::residual_and_jacobian(const std::vector<double>& U,
                                          std::vector<double>& F,
                                          linalg::CrsMatrix& J) {
  const Tracer::Scope s(*t_, "physics.jacobian_assembly");
  inner_->residual_and_jacobian(U, F, J);
}

std::unique_ptr<linalg::LinearOperator> TracedProblem::jacobian_operator(
    const std::vector<double>& U) {
  std::unique_ptr<linalg::LinearOperator> op;
  {
    const Tracer::Scope s(*t_, "physics.linearize");
    op = inner_->jacobian_operator(U);
  }
  if (op == nullptr) return nullptr;
  return std::make_unique<TracedOperator>(std::move(op), *t_);
}

void TracedPreconditioner::compute(const linalg::CrsMatrix& A) {
  const Tracer::Scope s(*t_, "linalg.precond_setup");
  inner_->compute(A);
}

void TracedPreconditioner::compute(const linalg::LinearOperator& A) {
  const Tracer::Scope s(*t_, "linalg.precond_setup");
  inner_->compute(A);
}

void TracedPreconditioner::apply(const std::vector<double>& r,
                                 std::vector<double>& z) const {
  const Tracer::Scope s(*t_, "linalg.precond_apply");
  inner_->apply(r, z);
}

double TracedInnerProduct::dot(const std::vector<double>& x,
                               const std::vector<double>& y) const {
  const Tracer::Scope s(*t_, "linalg.reductions");
  return linalg::serial_inner_product().dot(x, y);
}

double TracedInnerProduct::norm2(const std::vector<double>& x) const {
  const Tracer::Scope s(*t_, "linalg.reductions");
  return linalg::serial_inner_product().norm2(x);
}

void TracedInnerProduct::dot_batch(const std::vector<linalg::DotPair>& pairs,
                                   std::vector<double>& out) const {
  const Tracer::Scope s(*t_, "linalg.reductions");
  linalg::serial_inner_product().dot_batch(pairs, out);
}

// ---- workloads ------------------------------------------------------------

namespace {

constexpr double kRelTarget = 1.0e-8;  ///< ||F|| <= kRelTarget * ||F0||
constexpr double kForecastYears = 40.0;
constexpr int kSetupRepeats = 5;
constexpr double kNominalSolveSeconds = 8.0;

enum class Kind { kSerialSolve, kDistSolve, kForecast };

struct Spec {
  const char* name;
  Kind kind;
  double dx_km;
  int layers;
  linalg::JacobianMode jacobian;
  /// Mean velocity (m/yr) at seed 1, held to rtol 1e-5 (the paper's
  /// Section III-B acceptance tolerance); 0 = no reference.  Recorded with
  /// the baseline in bench/e2e/baseline.json.
  double seed1_mean_velocity;
};

constexpr Spec kSpecs[] = {
    {"solve_amg", Kind::kSerialSolve, 48.0, 10,
     linalg::JacobianMode::kAssembled, 218.52571582355387},
    {"solve_jfnk", Kind::kSerialSolve, 64.0, 10,
     linalg::JacobianMode::kMatrixFree, 227.44907213031163},
    {"solve_dist4", Kind::kDistSolve, 80.0, 5,
     linalg::JacobianMode::kMatrixFree, 229.98529709791021},
    {"forecast_thermal", Kind::kForecast, 100.0, 5,
     linalg::JacobianMode::kAssembled, 113.09651833141852},
};
constexpr double kMeanVelocityRtol = 1.0e-5;

/// Every per-layer metric a traced run reports, with its unit.  A layer a
/// workload does not exercise reports 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"physics.residual.calls", "count"},
    {"physics.residual.s", "s"},
    {"physics.jacobian_assembly.calls", "count"},
    {"physics.jacobian_assembly.s", "s"},
    {"physics.phase.evaluate_s", "s"},
    {"physics.phase.kernel_s", "s"},
    {"physics.phase.scatter_s", "s"},
    {"physics.linearize.s", "s"},
    {"physics.tangent_apply.calls", "count"},
    {"physics.tangent_apply.s", "s"},
    {"physics.tangent_apply.gbps_computed", "GB/s"},
    {"linalg.precond_setup.calls", "count"},
    {"linalg.precond_setup.self_s", "s"},
    {"linalg.amg.levels", "count"},
    {"linalg.amg.probe_applies", "count"},
    {"linalg.precond_apply.calls", "count"},
    {"linalg.precond_apply.s", "s"},
    {"linalg.precond_apply.gbps_computed", "GB/s"},
    {"linalg.krylov.iters", "count"},
    {"linalg.krylov.self_s", "s"},
    {"linalg.reductions.calls", "count"},
    {"linalg.reductions.s", "s"},
    {"nonlinear.newton.iters", "count"},
    {"nonlinear.linear_failures", "count"},
    {"dist.kernel_s.max", "s"},
    {"dist.halo_s.max", "s"},
    {"dist.halo_exchange_s.max", "s"},
    {"dist.other_s.max", "s"},
    {"dist.halo.bytes", "B"},
    {"dist.halo.exchanges", "count"},
    {"dist.allreduces", "count"},
    {"dist.reduced_values", "count"},
    {"dist.p2p_sends", "count"},
    {"dist.imbalance", "ratio"},
    {"timestepping.velocity_s", "s"},
    {"timestepping.transport_s", "s"},
    {"timestepping.thermal_s", "s"},
    {"timestepping.steps", "count"},
    {"timestepping.rejections", "count"},
    {"timestepping.velocity_solves", "count"},
    {"io.checkpoint.calls", "count"},
    {"io.checkpoint.s", "s"},
    {"io.checkpoint.bytes", "B"},
    {"host.stream_triad_gbps", "GB/s"},
    {"physics.tangent_apply.bw_frac", "ratio"},
    {"linalg.precond_apply.bw_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

using LayerValues = std::map<std::string, double>;

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw Error("unknown workload: " + name +
              " (solve_amg | solve_jfnk | solve_dist4 | forecast_thermal)");
}

double median(std::vector<double> v) {
  MALI_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// A problem with the seed's inputs applied, plus its initial guess.
struct Staged {
  std::unique_ptr<physics::StokesFOProblem> problem;
  std::vector<double> U0;
};

Staged stage(const Spec& spec, const Inputs& in) {
  physics::StokesFOConfig cfg;
  cfg.dx_m = spec.dx_km * 1e3;
  cfg.n_layers = spec.layers;
  cfg.jacobian = spec.jacobian;
  cfg.simd_width = 0;  // native width, what the CLI's `--simd auto` runs
  Staged st;
  st.problem = std::make_unique<physics::StokesFOProblem>(cfg);
  st.problem->set_basal_friction_scale(in.friction_scale);
  physics::PhysicalConstants c = st.problem->config().constants;
  c.glen_A = in.glen_A;
  st.problem->set_constants(c);
  st.U0 = st.problem->analytic_initial_guess();
  return st;
}

/// What one timed solve produced.
struct SolveOutcome {
  double seconds = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Check> checks;
  double mean_velocity = 0.0;
  std::vector<double> history;  ///< Newton ||F|| (serial solves)
  LayerValues layers;           ///< traced solves only
};

void add_check(SolveOutcome& o, std::string name, bool ok,
               std::string detail) {
  o.checks.push_back({std::move(name), ok, std::move(detail)});
}

template <class... Args>
std::string fmt(const char* f, Args... args) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), f, args...);
  return buf;
}

/// ||F(U)|| recomputed with an untimed, undecorated residual() call.
void check_residual(SolveOutcome& o, physics::StokesFOProblem& problem,
                    const std::vector<double>& U, double initial_norm,
                    double slack) {
  std::vector<double> F;
  problem.residual(U, F);
  const double fn = linalg::norm2(F);
  const double bound = slack * kRelTarget * initial_norm;
  add_check(o, "residual", std::isfinite(fn) && fn <= bound,
            fmt("||F(U)|| = %.6e, bound %.6e", fn, bound));
}

void check_mean_velocity(SolveOutcome& o, const Spec& spec,
                         std::uint64_t seed, double mv) {
  o.mean_velocity = mv;
  add_check(o, "mean_velocity_finite", std::isfinite(mv),
            fmt("mean velocity %.17g m/yr", mv));
  const double ref = spec.seed1_mean_velocity;
  if (seed != 1 || ref == 0.0) return;
  const double rel = std::abs(mv - ref) / ref;
  add_check(o, "mean_velocity_seed1", rel <= kMeanVelocityRtol,
            fmt("relative error %.3e against %.17g", rel, ref));
}

nonlinear::NewtonConfig solve_newton_config(linalg::JacobianMode mode) {
  nonlinear::NewtonConfig n;
  n.max_iters = 50;
  n.abs_tol = 0.0;  // only the relative target counts
  n.rel_tol = kRelTarget;
  n.jacobian = mode;  // GMRES keeps the paper's 1e-6
  return n;
}

/// Byte model of one Jacobian apply on this problem (perf::data_movement).
perf::JacobianApplyModel apply_model(const physics::StokesFOProblem& p) {
  perf::JacobianApplyModel m;
  m.n_rows = p.n_dofs();
  m.nnz = p.create_matrix().nnz();  // graph only
  m.n_cells = p.mesh().n_cells();
  m.n_nodes = p.mesh().n_nodes();
  m.num_nodes = static_cast<std::size_t>(p.workset().num_nodes);
  m.n_basal_faces = p.mesh().base().n_cells();
  return m;
}

double gbps(double calls, double bytes_per_call, double seconds) {
  return seconds > 0.0 ? calls * bytes_per_call / seconds * 1e-9 : 0.0;
}

/// Per-layer values shared by the serial and forecast paths: span totals,
/// assembly phase timers, and the byte models of the tangent apply and the
/// AMG V-cycle.
void fill_layers(LayerValues& L, const std::vector<Span>& spans,
                 const physics::StokesFOProblem& problem,
                 const linalg::SemicoarseningAmg& amg) {
  const auto totals = layer_totals(spans);
  const auto get = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? LayerTotals{} : it->second;
  };
  const LayerTotals res = get("physics.residual");
  const LayerTotals jac = get("physics.jacobian_assembly");
  const LayerTotals lin = get("physics.linearize");
  const LayerTotals tan = get("physics.tangent_apply");
  const LayerTotals ps = get("linalg.precond_setup");
  const LayerTotals pa = get("linalg.precond_apply");
  const LayerTotals red = get("linalg.reductions");
  L["physics.residual.calls"] = static_cast<double>(res.calls);
  L["physics.residual.s"] = res.total_s;
  L["physics.jacobian_assembly.calls"] = static_cast<double>(jac.calls);
  L["physics.jacobian_assembly.s"] = jac.total_s;
  const pk::TimerRegistry& ph = problem.phase_timers();
  L["physics.phase.evaluate_s"] = ph.total("evaluate");
  L["physics.phase.kernel_s"] = ph.total("kernel");
  L["physics.phase.scatter_s"] = ph.total("scatter");
  L["physics.linearize.s"] = lin.total_s;
  L["physics.tangent_apply.calls"] = static_cast<double>(tan.calls);
  L["physics.tangent_apply.s"] = tan.total_s;
  L["linalg.precond_setup.calls"] = static_cast<double>(ps.calls);
  L["linalg.precond_setup.self_s"] = ps.self_s;
  L["linalg.amg.levels"] = static_cast<double>(amg.n_levels());
  L["linalg.amg.probe_applies"] = static_cast<double>(
      count_nested(spans, "linalg.precond_setup", "physics.tangent_apply"));
  L["linalg.precond_apply.calls"] = static_cast<double>(pa.calls);
  L["linalg.precond_apply.s"] = pa.total_s;
  L["linalg.reductions.calls"] = static_cast<double>(red.calls);
  L["linalg.reductions.s"] = red.total_s;

  const perf::JacobianApplyModel jm = apply_model(problem);
  const bool mf =
      problem.config().jacobian == linalg::JacobianMode::kMatrixFree;
  L["physics.tangent_apply.gbps_computed"] =
      gbps(static_cast<double>(tan.calls),
           static_cast<double>(jm.matrix_free_stream_bytes()), tan.total_s);
  perf::AmgCycleModel am;
  am.fine_apply_bytes =
      mf ? jm.matrix_free_stream_bytes() : jm.assembled_stream_bytes();
  am.probe_applies = amg.probe_applies();
  am.fine_matrix_free = amg.fine_matrix_free();
  for (std::size_t l = 0; l < amg.n_levels(); ++l) {
    am.level_rows.push_back(amg.level_dofs(l));
    am.level_nnz.push_back(amg.level_nnz(l));
  }
  L["linalg.precond_apply.gbps_computed"] =
      gbps(static_cast<double>(pa.calls),
           static_cast<double>(am.vcycle_bytes()), pa.total_s);
}

SolveOutcome solve_serial(const Spec& spec, Staged& st, std::uint64_t seed,
                          Tracer* tr) {
  physics::StokesFOProblem& problem = *st.problem;
  auto amg = std::make_unique<linalg::SemicoarseningAmg>(
      problem.extrusion_info(), linalg::AmgConfig{});
  const linalg::SemicoarseningAmg& amg_ref = *amg;
  std::unique_ptr<linalg::Preconditioner> M = std::move(amg);
  nonlinear::NonlinearProblem* prob = &problem;
  nonlinear::NewtonConfig ncfg = solve_newton_config(spec.jacobian);
  std::optional<TracedInnerProduct> ip;
  std::optional<TracedProblem> traced;
  if (tr != nullptr) {
    ip.emplace(*tr);
    ncfg.inner = &*ip;
    ncfg.gmres.inner = &*ip;
    M = std::make_unique<TracedPreconditioner>(std::move(M), *tr);
    traced.emplace(problem, *tr);
    prob = &*traced;
  }
  problem.reset_phase_timers();

  std::vector<double> U = st.U0;
  nonlinear::NewtonResult r;
  SolveOutcome o;
  const pk::Timer timer;
  {
    std::optional<Tracer::Scope> span;
    if (tr != nullptr) span.emplace(*tr, "nonlinear.newton");
    r = nonlinear::NewtonSolver(ncfg).solve(*prob, *M, U);
  }
  o.seconds = timer.seconds();
  o.history = r.history;

  add_check(o, "newton_converged", r.converged && !r.faulted,
            fmt("%d Newton steps, %zu GMRES iterations, %d linear failures",
                r.iterations, r.total_linear_iters, r.linear_failures));
  check_residual(o, problem, U, r.initial_norm, 1.0);
  check_mean_velocity(o, spec, seed, problem.mean_velocity(U));

  if (tr != nullptr) {
    LayerValues& L = o.layers;
    fill_layers(L, tr->spans(), problem, amg_ref);
    L["linalg.krylov.iters"] = static_cast<double>(r.total_linear_iters);
    L["linalg.krylov.self_s"] =
        layer_totals(tr->spans())["nonlinear.newton"].self_s;
    L["nonlinear.newton.iters"] = r.iterations;
    L["nonlinear.linear_failures"] = r.linear_failures;
  }
  return o;
}

SolveOutcome solve_dist4(const Spec& spec, Staged& st, std::uint64_t seed,
                         Tracer* tr) {
  dist::DistConfig d;
  d.ranks = 4;
  d.decomp = dist::Decomp::kStrips;
  d.overlap = true;
  d.jacobian = linalg::JacobianMode::kMatrixFree;
  d.krylov = linalg::KrylovKind::kPipeGmres;
  d.precond = "block-jacobi";
  d.newton = solve_newton_config(linalg::JacobianMode::kMatrixFree);

  dist::DistResult res;
  SolveOutcome o;
  const pk::Timer timer;
  {
    std::optional<Tracer::Scope> span;
    if (tr != nullptr) span.emplace(*tr, "dist.solve");
    res = dist::solve_distributed(*st.problem, d, &st.U0);
  }
  o.seconds = timer.seconds();

  const nonlinear::NewtonResult& r0 = res.ranks.at(0).newton;
  add_check(o, "newton_converged", res.converged && !r0.faulted,
            fmt("%d Newton steps, %zu GMRES iterations, %d linear failures",
                res.newton_iters, r0.total_linear_iters, r0.linear_failures));
  // The rank-ordered reduction rounds differently from the serial norm.
  check_residual(o, *st.problem, res.U, r0.initial_norm, 1.01);
  check_mean_velocity(o, spec, seed, st.problem->mean_velocity(res.U));

  if (tr != nullptr) {
    LayerValues& L = o.layers;
    double kernel = 0.0, halo = 0.0, exch = 0.0, other = 0.0;
    double bytes = 0.0, exchanges = 0.0, sends = 0.0;
    for (const dist::DistRankReport& rep : res.ranks) {
      kernel = std::max(kernel, rep.kernel_s);
      halo = std::max(halo, rep.halo.total_s());
      exch = std::max(exch, rep.halo.exchange_s);
      other = std::max(other, rep.total_s - rep.kernel_s - rep.halo.total_s());
      bytes += static_cast<double>(rep.halo.bytes_sent);
      exchanges += static_cast<double>(rep.halo.exchanges);
      sends += static_cast<double>(rep.comm.sends);
    }
    L["dist.kernel_s.max"] = kernel;
    L["dist.halo_s.max"] = halo;
    L["dist.halo_exchange_s.max"] = exch;
    L["dist.other_s.max"] = other;
    L["dist.halo.bytes"] = bytes;
    L["dist.halo.exchanges"] = exchanges;
    // The injected inner product keeps ranks in lockstep: rank 0 is exact.
    L["dist.allreduces"] = static_cast<double>(res.ranks[0].comm.allreduces);
    L["dist.reduced_values"] =
        static_cast<double>(res.ranks[0].comm.reduced_values);
    L["dist.p2p_sends"] = sends;
    L["dist.imbalance"] = res.partition.imbalance();
    L["linalg.krylov.iters"] = static_cast<double>(r0.total_linear_iters);
    L["linalg.krylov.self_s"] = other;  // Krylov plus waiting, per rank
    L["nonlinear.newton.iters"] = res.newton_iters;
    L["nonlinear.linear_failures"] = r0.linear_failures;
  }
  return o;
}

SolveOutcome solve_forecast(const Spec& spec, Staged& st, const Inputs& in,
                            std::uint64_t seed, const std::string& scratch,
                            Tracer* tr) {
  physics::StokesFOProblem& problem = *st.problem;
  timestepping::ForecastConfig f;
  f.years = kForecastYears;
  f.controller.dt_max = 2.0;
  f.forcing = "ramp:anomaly=" + util::format_double(in.ramp_anomaly) +
              ",end=" + util::format_double(kForecastYears);
  f.thermal_enabled = true;
  f.checkpoint_every = 1;
  f.checkpoint_path =
      (std::filesystem::path(scratch) / "forecast.tckpt").string();
  f.initial_U = st.U0;
  const linalg::SemicoarseningAmg* amg = nullptr;
  std::optional<TracedInnerProduct> ip;
  if (tr != nullptr) {
    ip.emplace(*tr);
    f.newton.inner = &*ip;
    f.newton.gmres.inner = &*ip;
    f.make_precond = [tr, &amg](const physics::StokesFOProblem& p) {
      auto m = std::make_unique<linalg::SemicoarseningAmg>(
          p.extrusion_info(), linalg::AmgConfig{});
      amg = m.get();
      return std::make_unique<TracedPreconditioner>(std::move(m), *tr);
    };
  }
  problem.reset_phase_timers();

  // The driver owns the preconditioner the layer metrics read below.
  std::optional<timestepping::ForecastDriver> driver;
  timestepping::ForecastResult res;
  SolveOutcome o;
  const pk::Timer timer;
  {
    std::optional<Tracer::Scope> span;
    if (tr != nullptr) span.emplace(*tr, "timestepping.forecast");
    driver.emplace(problem, f);
    res = driver->run();
  }
  o.seconds = timer.seconds();

  add_check(o, "completed", res.completed,
            fmt("t_final %.6g yr of %.6g", res.t_final, kForecastYears));
  add_check(o, "mass_residual", res.max_mass_residual <= 1e-12,
            fmt("max |mass residual| %.3e (bound %.0e)",
                res.max_mass_residual, 1e-12));
  check_mean_velocity(o, spec, seed, res.mean_velocity);

  if (tr != nullptr) {
    LayerValues& L = o.layers;
    fill_layers(L, tr->spans(), problem, *amg);
    // The driver calls the problem itself, so residual and Jacobian calls
    // have no spans here; their time is in physics.phase.*.
    double newton_iters = 0.0;
    for (const auto& row : res.ledger) newton_iters += row.newton_iters;
    const double velocity = res.timers.total("velocity");
    // Right-preconditioned GMRES applies M exactly once per iteration.
    L["linalg.krylov.iters"] = L["linalg.precond_apply.calls"];
    L["linalg.krylov.self_s"] =
        velocity - L["linalg.precond_setup.self_s"] -
        L["linalg.precond_apply.s"] - L["linalg.reductions.s"] -
        L["physics.phase.evaluate_s"] - L["physics.phase.kernel_s"] -
        L["physics.phase.scatter_s"];
    L["nonlinear.newton.iters"] = newton_iters;
    L["timestepping.velocity_s"] = velocity;
    L["timestepping.transport_s"] = res.timers.total("transport");
    L["timestepping.thermal_s"] = res.timers.total("thermal");
    L["timestepping.steps"] = res.steps;
    L["timestepping.rejections"] = res.rejections;
    L["timestepping.velocity_solves"] = res.velocity_solves;
    const double ckpt_calls = static_cast<double>(res.timers.count("io"));
    L["io.checkpoint.calls"] = ckpt_calls;
    L["io.checkpoint.s"] = res.timers.total("io");
    std::error_code ec;
    const auto size = std::filesystem::file_size(f.checkpoint_path, ec);
    L["io.checkpoint.bytes"] =
        ec ? 0.0 : ckpt_calls * static_cast<double>(size);
  }

  // Every step attempt is an operation; a rejected one failed, and a
  // failed final check fails them all.
  o.attempted = static_cast<std::size_t>(res.steps + res.rejections);
  o.failed = static_cast<std::size_t>(res.rejections);
  return o;
}

/// Removes the forecast's checkpoint directory however the run ends.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

SolveOutcome run_once(const Spec& spec, Staged& st, const Inputs& in,
                      const RunOptions& opt, Tracer* tr) {
  SolveOutcome o;
  switch (spec.kind) {
    case Kind::kSerialSolve:
      o = solve_serial(spec, st, opt.seed, tr);
      break;
    case Kind::kDistSolve:
      o = solve_dist4(spec, st, opt.seed, tr);
      break;
    case Kind::kForecast: {
      const ScratchDir dir(std::filesystem::path(opt.scratch_dir) /
                           ("e2e-ckpt-" + std::to_string(::getpid())));
      o = solve_forecast(spec, st, in, opt.seed, dir.path.string(), tr);
      break;
    }
  }
  const bool ok = std::all_of(o.checks.begin(), o.checks.end(),
                              [](const Check& c) { return c.ok; });
  if (o.attempted == 0) o.attempted = 1;
  if (!ok) o.failed = o.attempted;
  return o;
}

/// STREAM triad bandwidth in GB/s (best of several passes) with each array
/// at least four times the last-level cache.
double stream_triad_gbps() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  const auto n = static_cast<std::size_t>(4 * llc) / sizeof(double);
  // Left uninitialized so the first touch happens on the pool threads
  // that run the triad.
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  pk::parallel_for("triad_init", n, [&](std::size_t i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  });
  double best = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const pk::Timer t;
    pk::parallel_for("triad", n,
                     [&](std::size_t i) { a[i] = b[i] + 3.0 * c[i]; });
    const double s = t.seconds();
    best = std::max(best, 3.0 * static_cast<double>(n * sizeof(double)) / s);
  }
  MALI_CHECK_MSG(a[n / 2] == 7.0, "stream triad produced a wrong value");
  return best * 1e-9;
}

}  // namespace

bool WorkloadRun::correct() const {
  return attempted > 0 && failed == 0 &&
         std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

WorkloadRun run_workload(const RunOptions& opt, Tracer* tracer) {
  const Spec& spec = find_spec(opt.workload);
  WorkloadRun run;
  run.workload = spec.name;
  run.seed = opt.seed;
  run.traced = tracer != nullptr;
  run.inputs = inputs_from_seed(opt.seed);

  // Setup: a single construction varies by more than 10%, so time several
  // and keep the last one for the first solve.
  std::optional<Staged> st;
  for (int i = 0; i < kSetupRepeats; ++i) {
    st.reset();
    const pk::Timer t;
    st.emplace(stage(spec, run.inputs));
    run.setup_seconds.push_back(t.seconds());
  }

  const auto record = [&run](const SolveOutcome& o) {
    run.solve_seconds.push_back(o.seconds);
    run.attempted += o.attempted;
    run.failed += o.failed;
    run.checks.insert(run.checks.end(), o.checks.begin(), o.checks.end());
    run.mean_velocity = o.mean_velocity;
  };

  // Untraced solves on fresh problems.  Each workload solves in about 8 s
  // on a 4-core host; the count is fixed by `seconds` alone, because letting
  // the measured speed decide it mixes runs whose median does and does not
  // include the first, slower solve.
  const int solves =
      tracer != nullptr
          ? 1
          : std::max(1, static_cast<int>(opt.seconds / kNominalSolveSeconds));
  double rss_mb = 0.0;
  for (int i = 0; i < solves; ++i) {
    if (i > 0) {
      st.reset();
      st.emplace(stage(spec, run.inputs));
    }
    record(run_once(spec, *st, run.inputs, opt, nullptr));
    // The high-water mark of setup plus one solve, what a single run costs;
    // later repetitions only add allocator noise.
    if (i == 0) rss_mb = peak_rss_mb();
  }

  if (tracer == nullptr) {
    run.metrics = {
        {"time_to_solution_s", median(run.solve_seconds), "s"},
        {"setup_s", median(run.setup_seconds), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"failed_frac",
         static_cast<double>(run.failed) / static_cast<double>(run.attempted),
         "ratio"},
    };
    return run;
  }

  st.reset();
  st.emplace(stage(spec, run.inputs));
  const double untraced_s = run.solve_seconds.front();
  SolveOutcome o = run_once(spec, *st, run.inputs, opt, tracer);
  record(o);
  st.reset();

  LayerValues& L = o.layers;
  const double triad = stream_triad_gbps();
  L["host.stream_triad_gbps"] = triad;
  L["physics.tangent_apply.bw_frac"] =
      L["physics.tangent_apply.gbps_computed"] / triad;
  L["linalg.precond_apply.bw_frac"] =
      L["linalg.precond_apply.gbps_computed"] / triad;
  L["trace.overhead_frac"] = o.seconds / untraced_s - 1.0;

  // Self times partition the root span, so they must sum to the traced
  // solve's wall time.
  double self_sum = 0.0;
  for (const auto& [name, t] : layer_totals(tracer->spans())) {
    self_sum += t.self_s;
  }
  const double rel = std::abs(self_sum - o.seconds) / o.seconds;
  run.checks.push_back({"trace_self_sum", rel <= 0.02,
                        fmt("self times sum to %.6f s of %.6f s traced",
                            self_sum, o.seconds)});

  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = L.find(name);
    run.metrics.push_back({name, it == L.end() ? 0.0 : it->second, unit});
  }
  return run;
}

std::vector<double> small_solve_history(bool matrix_free, Tracer* tracer) {
  const Spec spec{"small", Kind::kSerialSolve, 200.0, 5,
                  matrix_free ? linalg::JacobianMode::kMatrixFree
                              : linalg::JacobianMode::kAssembled,
                  0.0};
  Staged st = stage(spec, Inputs{});
  return solve_serial(spec, st, 0, tracer).history;
}

// ---- output ---------------------------------------------------------------

std::string row_json(const WorkloadRun& run) {
  util::JsonWriter w;
  w.begin_object();
  w.key("workload").value(run.workload);
  w.key("mode").value(run.traced ? "traced" : "untraced");
  w.key("seed").value(static_cast<std::size_t>(run.seed));
  w.key("inputs").begin_object();
  w.key("friction_scale").value(run.inputs.friction_scale);
  w.key("glen_A").value(run.inputs.glen_A);
  w.key("ramp_anomaly").value(run.inputs.ramp_anomaly);
  w.end_object();
  w.key("correct").value(run.correct());
  w.key("attempted").value(run.attempted);
  w.key("failed").value(run.failed);
  w.key("mean_velocity").value(run.mean_velocity);
  w.key("solve_seconds").begin_array();
  for (const double s : run.solve_seconds) w.value(s);
  w.end_array();
  w.key("setup_seconds").begin_array();
  for (const double s : run.setup_seconds) w.value(s);
  w.end_array();
  w.key("metrics").begin_object();
  for (const Metric& m : run.metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.key("checks").begin_array();
  for (const Check& c : run.checks) {
    w.begin_object();
    w.key("name").value(c.name);
    w.key("ok").value(c.ok);
    w.key("detail").value(c.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string record_json(std::uint64_t seed,
                        const std::vector<std::string>& rows) {
  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("e2e");
  w.key("problem").begin_object();
  w.key("seed").value(static_cast<std::size_t>(seed));
  w.key("workloads").begin_array();
  for (const Spec& s : kSpecs) w.value(s.name);
  w.end_array();
  w.end_object();
  w.key("rows").begin_array();
  for (const std::string& r : rows) w.value_fragment(r);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string result_line(const WorkloadRun& run) {
  std::ostringstream os;
  os << "{\"correct\": " << (run.correct() ? "true" : "false")
     << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << util::format_double(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string trace_json(const WorkloadRun& run, const Tracer& tracer) {
  std::ostringstream os;
  os << "{\"bench\": \"e2e_trace\", \"problem\": {\"workload\": \""
     << run.workload << "\", \"seed\": " << run.seed << "},\n\"layers\": [";
  bool first = true;
  for (const auto& [name, t] : layer_totals(tracer.spans())) {
    os << (first ? "\n" : ",\n") << "  {\"name\": \"" << name
       << "\", \"calls\": " << t.calls
       << ", \"total_s\": " << util::format_double(t.total_s)
       << ", \"self_s\": " << util::format_double(t.self_s) << "}";
    first = false;
  }
  os << "],\n\"spans\": [";
  first = true;
  for (const Span& s : tracer.spans()) {
    os << (first ? "\n" : ",\n") << "  [" << s.id << ", " << s.parent
       << ", \"" << s.name << "\", " << util::format_double(s.start_us)
       << ", " << util::format_double(s.end_us) << "]";
    first = false;
  }
  os << "]}\n";
  return os.str();
}

}  // namespace mali::e2e
