// Ensemble engine throughput (DESIGN.md §15): members/hour for the same
// parameter sweep run three ways —
//
//   cold      one fresh StokesFOProblem + fresh AMG per member, Newton
//             from the analytic guess (what a naive per-member script pays),
//   amortized the EnsembleEngine: ONE shared problem, ONE AMG whose
//             hierarchy structure is replayed, neighbor warm starts,
//   cached    the engine rerun against its populated cache (every member
//             a hit, zero solves).
//
// The acceptance criteria this bench demonstrates and records:
//   * the amortized path is faster than the cold path (exit 2 otherwise),
//   * the cached rerun serves every member (no misses), and
//   * the members section of the results document is byte-identical
//     between the computing run and the cache-served rerun.
//
//   ./bench_ensemble [--dx-km=F] [--layers=N] [--years=F]
//                    [--out=BENCH_ensemble.json]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ensemble/engine.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "timestepping/forecast_driver.hpp"
#include "util/fp_format.hpp"
#include "util/json_writer.hpp"

using namespace mali;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

ensemble::EnsembleManifest make_manifest(double dx_km, int layers,
                                         double years) {
  ensemble::EnsembleManifest m;
  m.name = "bench-sweep";
  m.dx_km = dx_km;
  m.layers = layers;
  m.years = years;
  m.velocity_every = 1;
  // The engine's criterion is purely absolute, in the dome's momentum
  // residual units (||F|| starts ~2e16 and floors near 1e7): 1e9 is
  // genuinely reachable, so a cold start pays ~11 Newton iterations and a
  // warm start from a neighbor member stops after 2-3.  An unreachable
  // tolerance would run every member to max_iters and hide the warm-start
  // savings entirely.
  m.newton_max_iters = 40;
  m.newton_tol = 1e9;
  m.rank_groups = 1;
  m.glen_n = {3.0};
  m.glen_A = {0.8e-16, 1.0e-16, 1.2e-16};
  m.friction_scale = {0.85, 1.0, 1.15};
  m.forcing = {"constant"};
  return m;
}

/// The naive per-member loop: everything rebuilt from scratch, every time.
double run_cold(const ensemble::EnsembleManifest& m) {
  const auto members = ensemble::expand_members(m);
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& p : members) {
    physics::StokesFOConfig pcfg;
    pcfg.dx_m = m.dx_km * 1e3;
    pcfg.n_layers = m.layers;
    physics::StokesFOProblem problem(pcfg);
    physics::PhysicalConstants c = problem.config().constants;
    c.glen_n = p.glen_n;
    c.glen_A = p.glen_A;
    problem.set_constants(c);
    problem.set_basal_friction_scale(p.friction_scale);

    timestepping::ForecastConfig fcfg;
    fcfg.years = m.years;
    fcfg.velocity_every = m.velocity_every;
    fcfg.forcing = p.forcing;
    fcfg.thermal_enabled = false;
    fcfg.newton.max_iters = m.newton_max_iters;
    fcfg.newton.abs_tol = m.newton_tol;
    fcfg.newton.rel_tol = 0.0;  // mirror the engine's absolute criterion
    // A fresh AMG per member, like the engine's but never shared.
    fcfg.make_precond = [](const physics::StokesFOProblem& prob) {
      return std::unique_ptr<linalg::Preconditioner>(
          std::make_unique<linalg::SemicoarseningAmg>(prob.extrusion_info()));
    };
    timestepping::ForecastDriver driver(problem, fcfg);
    (void)driver.run();
  }
  return seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  double dx_km = 220.0;
  int layers = 3;
  double years = 0.5;
  std::string out_path = "BENCH_ensemble.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dx-km=", 8) == 0) dx_km = std::atof(argv[i] + 8);
    if (std::strncmp(argv[i], "--layers=", 9) == 0) layers = std::atoi(argv[i] + 9);
    if (std::strncmp(argv[i], "--years=", 8) == 0) years = std::atof(argv[i] + 8);
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  const ensemble::EnsembleManifest manifest =
      make_manifest(dx_km, layers, years);
  const std::size_t n = manifest.n_members();
  std::printf("ensemble bench: dome dx=%.0f km, %d layers, %.2f yr horizon, "
              "%zu members\n\n",
              dx_km, layers, years, n);

  // ---- cold: fresh problem + fresh AMG per member ----
  const double cold_s = run_cold(manifest);
  std::printf("%-10s %9.3f s  (%0.1f members/hr)\n", "cold", cold_s,
              cold_s > 0.0 ? 3600.0 * n / cold_s : 0.0);

  // ---- amortized: the engine (shared problem, shared AMG, warm starts)
  ensemble::EnsembleConfig ecfg;
  ecfg.use_cache = true;  // populates the cache the rerun below reads
  ensemble::EnsembleEngine engine(manifest, ecfg);
  const auto t1 = std::chrono::steady_clock::now();
  const auto warm_out = engine.run();
  const double warm_s = seconds_since(t1);
  std::printf("%-10s %9.3f s  (%0.1f members/hr)  %zu warm start(s), AMG "
              "%zu build(s) + %zu reuse(s)\n",
              "amortized", warm_s, warm_s > 0.0 ? 3600.0 * n / warm_s : 0.0,
              warm_out.stats.warm_starts, warm_out.stats.amg_builds,
              warm_out.stats.amg_reuses);

  // ---- cached: same engine, same manifest — every member a hit ----
  const auto t2 = std::chrono::steady_clock::now();
  const auto cached_out = engine.run();
  const double cached_s = seconds_since(t2);
  std::printf("%-10s %9.3f s  (%zu hit(s), %zu miss(es))\n", "cached",
              cached_s, cached_out.stats.cache_hits,
              cached_out.stats.cache_misses);

  const double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;
  const std::string warm_members =
      ensemble::EnsembleEngine::members_json(warm_out);
  const std::string cached_members =
      ensemble::EnsembleEngine::members_json(cached_out);
  const bool warm_faster = warm_s < cold_s;
  const bool all_cached = cached_out.stats.cache_misses == 0;
  const bool bit_identical = warm_members == cached_members;

  std::printf("\namortized speedup vs cold:     %.2fx  %s\n", speedup,
              warm_faster ? "PASS" : "FAIL");
  std::printf("cached rerun all hits:         %s\n",
              all_cached ? "PASS" : "FAIL");
  std::printf("members section bit-identical: %s\n",
              bit_identical ? "PASS" : "FAIL");

  // JSON record for CI artifact upload and the repo-root snapshot.  Fixed
  // key order, doubles shortest-round-trip (never truncated).
  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("ensemble");
  w.key("problem").begin_object();
  w.key("dx_km").value(dx_km);
  w.key("layers").value(layers);
  w.key("years").value(years);
  w.key("members").value(n);
  w.end_object();
  w.key("cold_s").value(cold_s);
  w.key("amortized_s").value(warm_s);
  w.key("cached_s").value(cached_s);
  w.key("speedup").value(speedup);
  w.key("members_per_hour_cold").value(cold_s > 0.0 ? 3600.0 * n / cold_s
                                                    : 0.0);
  w.key("members_per_hour_amortized")
      .value(warm_s > 0.0 ? 3600.0 * n / warm_s : 0.0);
  w.key("warm_starts").value(warm_out.stats.warm_starts);
  w.key("amg_builds").value(warm_out.stats.amg_builds);
  w.key("amg_reuses").value(warm_out.stats.amg_reuses);
  w.key("cached_rerun_hits").value(cached_out.stats.cache_hits);
  w.key("cached_rerun_misses").value(cached_out.stats.cache_misses);
  w.key("warm_faster_than_cold").value(warm_faster);
  w.key("cached_all_hits").value(all_cached);
  w.key("members_bit_identical").value(bit_identical);
  w.end_object();
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(w.str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "could not open %s for writing\n", out_path.c_str());
    return 1;
  }
  return (warm_faster && all_cached && bit_identical) ? 0 : 2;
}
