// Component benchmarks (google-benchmark): the substrate pieces the solve
// spends its time in — sparse matrix-vector products, preconditioner
// applications, AMG V-cycles, residual/Jacobian assembly, the thermal
// model's A(T) coupling, and the cache simulator's probe throughput (which
// sets the cost of full-scale modeled replays).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <random>
#include <utility>

#include "gpusim/cache_sim.hpp"
#include "linalg/gmres.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "perf/data_movement.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "physics/thermal_model.hpp"

using namespace mali;

namespace {

struct SolverFixture {
  std::unique_ptr<physics::StokesFOProblem> problem;
  linalg::CrsMatrix J;
  std::vector<double> U, F, x, b;
  std::unique_ptr<linalg::SemicoarseningAmg> amg;

  SolverFixture(int dx_km, int layers) {
    physics::StokesFOConfig cfg;
    cfg.dx_m = dx_km * 1.0e3;
    cfg.n_layers = layers;
    problem = std::make_unique<physics::StokesFOProblem>(cfg);
    // Assemble at the first Newton iterate (U = 0): the system every solve
    // in the paper's test starts from.
    U.assign(problem->n_dofs(), 0.0);
    J = problem->create_matrix();
    problem->residual_and_jacobian(U, F, J);
    amg = std::make_unique<linalg::SemicoarseningAmg>(
        problem->extrusion_info());
    amg->compute(J);
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> dist(-1, 1);
    b.resize(problem->n_dofs());
    for (auto& v : b) v = dist(rng);
    x.assign(b.size(), 0.0);
  }
};

/// The fixture at dx_km / layers, built on first use and kept.  The
/// default, 64 km / 10 layers, is the one every benchmark runs; the SpMV
/// and the V-cycle also run at forecast size, 100 km / 5 layers, whose
/// AMG levels are small (4380 rows down to 1460).
SolverFixture& fixture(int dx_km = 64, int layers = 10) {
  static std::map<std::pair<int, int>, std::unique_ptr<SolverFixture>> built;
  auto& f = built[{dx_km, layers}];
  if (!f) f = std::make_unique<SolverFixture>(dx_km, layers);
  return *f;
}

SolverFixture& sized_fixture(const benchmark::State& state) {
  return fixture(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
}

}  // namespace

static void BM_SpMV(benchmark::State& state) {
  auto& f = sized_fixture(state);
  for (auto _ : state) {
    f.J.apply(f.b, f.x);
    benchmark::DoNotOptimize(f.x.data());
  }
  state.counters["nnz"] = static_cast<double>(f.J.nnz());
  perf::JacobianApplyModel m;
  m.n_rows = f.J.n_rows();
  m.nnz = f.J.nnz();
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.assembled_stream_bytes()));
}
BENCHMARK(BM_SpMV)
    ->ArgNames({"dx_km", "layers"})
    ->Args({64, 10})
    ->Args({100, 5})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

static void BM_AmgVCycle(benchmark::State& state) {
  auto& f = sized_fixture(state);
  for (auto _ : state) {
    f.amg->apply(f.b, f.x);
    benchmark::DoNotOptimize(f.x.data());
  }
}
BENCHMARK(BM_AmgVCycle)
    ->ArgNames({"dx_km", "layers"})
    ->Args({64, 10})
    ->Args({100, 5})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

static void BM_GmresSolveAmg(benchmark::State& state) {
  auto& f = fixture();
  linalg::GmresConfig cfg;
  cfg.rel_tol = 1e-6;  // the paper's linear tolerance
  cfg.max_iters = 500;
  const linalg::Gmres gmres(cfg);
  for (auto _ : state) {
    f.x.assign(f.b.size(), 0.0);
    const auto r = gmres.solve(f.J, *f.amg, f.b, f.x);
    state.counters["iters"] = static_cast<double>(r.iterations);
  }
}
BENCHMARK(BM_GmresSolveAmg)->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(3);

static void BM_ResidualAssembly(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    f.problem->residual(f.U, f.F);
    benchmark::DoNotOptimize(f.F.data());
  }
  state.counters["cells"] = static_cast<double>(f.problem->workset().n_cells);
}
BENCHMARK(BM_ResidualAssembly)->Unit(benchmark::kMillisecond)->UseRealTime();

static void BM_JacobianAssembly(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    f.problem->residual_and_jacobian(f.U, f.F, f.J);
    benchmark::DoNotOptimize(f.F.data());
  }
  state.counters["cells"] = static_cast<double>(f.problem->workset().n_cells);
}
BENCHMARK(BM_JacobianAssembly)->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(10);

// One A(T) coupling: every quadrature point reads its nearest column's
// temperature from a ThermalModel, as each forecast thermal phase does.
static void BM_TemperatureCoupling(benchmark::State& state) {
  physics::StokesFOConfig cfg;
  cfg.dx_m = static_cast<double>(state.range(0)) * 1.0e3;
  cfg.n_layers = static_cast<int>(state.range(1));
  physics::StokesFOProblem problem(cfg);
  const physics::ThermalModel thermal(problem.mesh(), problem.geometry());
  for (auto _ : state) {
    problem.set_temperature_field([&](double x, double y, double sigma) {
      return thermal.temperature_at(x, y, sigma);
    });
    benchmark::ClobberMemory();
  }
  state.counters["cells"] = static_cast<double>(problem.workset().n_cells);
  state.counters["columns"] = static_cast<double>(thermal.n_columns());
}
BENCHMARK(BM_TemperatureCoupling)
    ->ArgNames({"dx_km", "layers"})
    ->Args({100, 5})
    ->Args({32, 10})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

static void BM_CacheSimProbe(benchmark::State& state) {
  gpusim::CacheSim cache(8 << 20, 64, 16, gpusim::CacheSim::Replacement::kRandom);
  const std::uint64_t span = 64 << 20;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    cache.access(addr % span, 4096, false);
    addr += 4096 * 7;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
  state.counters["hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_CacheSimProbe);
