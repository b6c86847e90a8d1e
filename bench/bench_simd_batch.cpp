// SIMD element batching of the fused kernels: scalar FusedStokesChain
// (streams the precomputed gradBF/wGradBF/wBF arrays, ~496 doubles/cell)
// vs FusedStokesChainBatched<W> (recomputes geometry in pack registers
// from nodal data, ~72 doubles/cell), plus the matrix-free tangent apply
// StokesFOTangentApply<W> over its StokesFOTangentLinearize<W> cache (built
// once per arm, outside the timed loop, as the solver builds it once per
// linearization) at W = 1 (the scalar reference the solver runs at
// `--simd off`) vs the native width.  Reports per-element time
// and the achieved bandwidth against the perf:: byte models, and GATES on
// the fused-residual speedup: the native-width batched kernel must be
// >= 1.5x the scalar chain (the tentpole claim of the SIMD PR).
//
//   ./bench_simd_batch [--dx-km=F] [--layers=N] [--reps=N]
//                      [--gate=F] [--out=BENCH_simd.json]
//
// Both arms run on the serial execution space: the gate measures the
// per-core kernel speedup, not thread scaling.  Exit status: 0 when the
// gate holds, 2 when it does not, 1 on I/O failure.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perf/data_movement.hpp"
#include "physics/fused_chain.hpp"
#include "physics/fused_chain_batched.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "physics/stokes_jacobian_apply.hpp"
#include "portability/simd.hpp"
#include "portability/timer.hpp"
#include "util/json_writer.hpp"

using namespace mali;

namespace {

struct Arm {
  std::string kernel;
  int width = 1;
  double ns_per_cell = 0.0;
  double gbps = 0.0;
  double speedup = 1.0;   // vs the scalar arm of the same kernel
  double max_rel = 0.0;   // max relative dof difference vs the scalar arm
};

double max_rel_diff(const pk::View<double, 3>& a, const pk::View<double, 3>& b,
                    std::size_t C, int N) {
  double m = 0.0;
  for (std::size_t c = 0; c < C; ++c) {
    for (int k = 0; k < N; ++k) {
      for (int comp = 0; comp < 2; ++comp) {
        const double ref = a(c, k, comp);
        const double d = std::abs(b(c, k, comp) - ref);
        m = std::max(m, d / std::max(1.0, std::abs(ref)));
      }
    }
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  double dx_km = 32.0, gate = 1.5;
  int layers = 10, reps = 20;
  std::string out_path = "BENCH_simd.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dx-km=", 8) == 0) dx_km = std::atof(argv[i] + 8);
    if (std::strncmp(argv[i], "--layers=", 9) == 0) layers = std::atoi(argv[i] + 9);
    if (std::strncmp(argv[i], "--reps=", 7) == 0) reps = std::atoi(argv[i] + 7);
    if (std::strncmp(argv[i], "--gate=", 7) == 0) gate = std::atof(argv[i] + 7);
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  physics::StokesFOConfig cfg;
  cfg.dx_m = dx_km * 1e3;
  cfg.n_layers = layers;
  physics::StokesFOProblem problem(cfg);
  const auto& ws = problem.workset();
  const std::size_t C = ws.n_cells;
  const int N = ws.num_nodes;
  const int Q = ws.num_qps;
  const auto U = problem.analytic_initial_guess();
  std::printf("SIMD element batching — dx=%.0f km, %d layers: %zu cells "
              "(%zu padded), native width %d, best of %d reps\n\n",
              dx_km, layers, C, ws.n_cells_padded, pk::kSimdNativeWidth, reps);

  // Stage realistic inputs: gathers UNodal for the whole-mesh workset.
  auto& f = problem.evaluate_fields<physics::ResidualEval>(U);

  // ---- scalar fused residual (streams the precomputed FE arrays) ----
  physics::FusedStokesChain<double> scalar_chain;
  scalar_chain.UNodal = f.UNodal;
  scalar_chain.gradBF = ws.gradBF;
  scalar_chain.wGradBF = ws.wGradBF;
  scalar_chain.wBF = ws.wBF;
  scalar_chain.force_passive = problem.element_arrays().force_passive;
  scalar_chain.Residual = f.Residual;
  scalar_chain.glen_A = cfg.constants.glen_A;
  scalar_chain.glen_n = cfg.constants.glen_n;
  scalar_chain.eps_reg2 = cfg.constants.eps_reg2;
  scalar_chain.numNodes = static_cast<unsigned>(N);
  scalar_chain.numQPs = static_cast<unsigned>(Q);
  scalar_chain.prepare();

  pk::Timer timer;
  auto time_best = [&](auto&& run) {
    run();  // warm-up
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      timer.reset();
      run();
      best = std::min(best, timer.seconds());
    }
    return best;
  };

  const double t_scalar = time_best([&] {
    pk::parallel_for("FusedStokesChain", pk::RangePolicy<pk::Serial>(C),
                     scalar_chain);
  });
  pk::View<double, 3> res_scalar("res_scalar", ws.n_cells_padded,
                                 static_cast<std::size_t>(N), 2);
  for (std::size_t c = 0; c < C; ++c) {
    for (int k = 0; k < N; ++k) {
      res_scalar(c, k, 0) = f.Residual(c, k, 0);
      res_scalar(c, k, 1) = f.Residual(c, k, 1);
    }
  }

  // Streaming-chain byte model: the fused chain's actual array traffic.
  const std::vector<perf::ArrayAccessSpec> scalar_arrays = {
      {"UNodal", static_cast<std::size_t>(N) * 2, sizeof(double), false},
      {"gradBF", static_cast<std::size_t>(N * Q * 3), sizeof(double), false},
      {"wGradBF", static_cast<std::size_t>(N * Q * 3), sizeof(double), false},
      {"wBF", static_cast<std::size_t>(N * Q), sizeof(double), false},
      {"force", static_cast<std::size_t>(Q) * 2, sizeof(double), false},
      {"Residual", static_cast<std::size_t>(N) * 2, sizeof(double), true},
  };
  const double scalar_bytes =
      static_cast<double>(C * perf::min_bytes_per_cell(scalar_arrays));
  const double batched_bytes =
      static_cast<double>(perf::batched_fused_resid_min_bytes(
          C, static_cast<std::size_t>(N), static_cast<std::size_t>(Q)));

  std::vector<Arm> arms;
  arms.push_back({"fused residual (scalar)", 1, t_scalar / C * 1e9,
                  scalar_bytes / t_scalar / 1e9, 1.0, 0.0});

  // ---- batched fused residual, W in {2, 4, 8} ----
  double native_speedup = 0.0;
  auto run_batched_resid = [&]<int W>() {
    const std::size_t cnt_pad =
        (C + static_cast<std::size_t>(W) - 1) / W * static_cast<std::size_t>(W);
    physics::FusedStokesChainBatched<W> chain;
    chain.UNodal = f.UNodal;
    chain.coords = ws.coords;
    chain.ref_grad = problem.element_arrays().ref_grad;
    chain.ref_val = problem.element_arrays().ref_val;
    chain.qp_weight = problem.element_arrays().qp_weights;
    chain.force_passive = problem.element_arrays().force_passive;
    chain.Residual = f.Residual;
    chain.glen_A = cfg.constants.glen_A;
    chain.glen_n = cfg.constants.glen_n;
    chain.eps_reg2 = cfg.constants.eps_reg2;
    chain.numNodes = static_cast<unsigned>(N);
    chain.numQPs = static_cast<unsigned>(Q);
    chain.prepare();
    const double t = time_best([&] {
      pk::parallel_for("FusedStokesChainBatched",
                       pk::SimdRangePolicy<W, pk::Serial>(cnt_pad), chain);
    });
    Arm a;
    a.kernel = "fused residual (batched)";
    a.width = W;
    a.ns_per_cell = t / C * 1e9;
    a.gbps = batched_bytes / t / 1e9;
    a.speedup = t_scalar / t;
    a.max_rel = max_rel_diff(res_scalar, f.Residual, C, N);
    arms.push_back(a);
    if (W == pk::kSimdNativeWidth) native_speedup = a.speedup;
  };
  run_batched_resid.template operator()<2>();
  run_batched_resid.template operator()<4>();
  run_batched_resid.template operator()<8>();
  if (native_speedup == 0.0) native_speedup = arms.back().speedup;

  // ---- matrix-free tangent: width 1 vs native-width batched ----
  const std::size_t n = problem.n_dofs();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.1 * static_cast<double>(i + 1));
  }
  pk::View<double, 1> Uview("Uview", n);
  pk::View<double, 1> Xview("Xview", n);
  for (std::size_t i = 0; i < n; ++i) {
    Uview(i) = U[i];
    Xview(i) = x[i];
  }
  pk::View<double, 3> tan_out("tan_out", ws.n_cells_padded,
                              static_cast<std::size_t>(N), 2);
  pk::View<double, 3> tan_scalar("tan_scalar", ws.n_cells_padded,
                                 static_cast<std::size_t>(N), 2);
  // Both tangent arms read the same cache and nodal data (the batched one
  // changes the flop schedule, not the traffic) — one shared byte model.
  perf::JacobianApplyModel jm;
  jm.n_cells = C;
  jm.num_nodes = static_cast<std::size_t>(N);
  jm.n_basal_faces = 0;
  const double tan_bytes = static_cast<double>(jm.matrix_free_stream_bytes());
  double t_tan_scalar = 0.0;

  auto run_tan = [&]<int W>() {
    const std::size_t cnt_pad =
        (C + static_cast<std::size_t>(W) - 1) / W * static_cast<std::size_t>(W);
    physics::StokesFOTangentLinearize<W> lin;
    lin.cell_nodes = ws.cell_nodes;
    lin.coords = ws.coords;
    lin.U = Uview;
    lin.ref_grad = problem.element_arrays().ref_grad;
    lin.qp_weight = problem.element_arrays().qp_weights;
    lin.qp_data = pk::View<double, 1>(
        "qp_data", cnt_pad * static_cast<std::size_t>(
                                 Q * physics::kTangentFields));
    lin.glen_A = cfg.constants.glen_A;
    lin.glen_n = cfg.constants.glen_n;
    lin.eps_reg2 = cfg.constants.eps_reg2;
    lin.numNodes = N;
    lin.numQPs = Q;
    lin.prepare();
    pk::parallel_for("StokesFOTangentLinearize",
                     pk::SimdRangePolicy<W, pk::Serial>(cnt_pad), lin);

    physics::StokesFOTangentApply<W> tan;
    tan.cell_nodes = ws.cell_nodes;
    tan.X = Xview;
    tan.ref_grad = lin.ref_grad;
    tan.qp_data = lin.qp_data;
    tan.Tangent = tan_out;
    tan.coeff = lin.coeff();
    tan.numNodes = N;
    tan.numQPs = Q;
    const double t = time_best([&] {
      pk::parallel_for("StokesFOTangentApply",
                       pk::SimdRangePolicy<W, pk::Serial>(cnt_pad), tan);
    });
    if constexpr (W == 1) {
      tan_scalar.deep_copy_from(tan_out);
      t_tan_scalar = t;
      arms.push_back({"mf tangent (scalar)", 1, t / C * 1e9,
                      tan_bytes / t / 1e9, 1.0, 0.0});
      return;
    }
    Arm a;
    a.kernel = "mf tangent (batched)";
    a.width = W;
    a.ns_per_cell = t / C * 1e9;
    a.gbps = tan_bytes / t / 1e9;
    a.speedup = t_tan_scalar / t;
    a.max_rel = max_rel_diff(tan_scalar, tan_out, C, N);
    arms.push_back(a);
  };
  run_tan.template operator()<1>();
  if (pk::kSimdNativeWidth == 8) {
    run_tan.template operator()<8>();
  } else {
    run_tan.template operator()<4>();
  }

  std::printf("%-26s %5s %12s %10s %9s %10s\n", "kernel", "W", "ns/cell",
              "GB/s", "speedup", "max rel");
  for (const auto& a : arms) {
    std::printf("%-26s %5d %12.1f %10.2f %8.2fx %10.1e\n", a.kernel.c_str(),
                a.width, a.ns_per_cell, a.gbps, a.speedup, a.max_rel);
  }

  const bool gate_ok = native_speedup >= gate;
  bool equiv_ok = true;
  for (const auto& a : arms) equiv_ok = equiv_ok && a.max_rel <= 1e-13;
  std::printf("\nfused residual, native W=%d: %.2fx (gate >= %.2fx): %s\n",
              pk::kSimdNativeWidth, native_speedup, gate,
              gate_ok ? "PASS" : "FAIL");
  std::printf("batched == scalar (<= 1e-13 rel):  %s\n",
              equiv_ok ? "PASS" : "FAIL");

  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("simd_batch");
  w.key("problem").begin_object();
  w.key("dx_km").value(dx_km);
  w.key("layers").value(layers);
  w.key("cells").value(C);
  w.key("cells_padded").value(ws.n_cells_padded);
  w.end_object();
  w.key("native_width").value(pk::kSimdNativeWidth);
  w.key("reps").value(reps);
  w.key("rows").begin_array();
  for (const auto& a : arms) {
    w.begin_object();
    w.key("kernel").value(a.kernel);
    w.key("width").value(a.width);
    w.key("ns_per_cell").value(a.ns_per_cell);
    w.key("gbps").value(a.gbps);
    w.key("speedup").value(a.speedup);
    w.key("max_rel").value(a.max_rel);
    w.end_object();
  }
  w.end_array();
  w.key("gate").value(gate);
  w.key("native_speedup").value(native_speedup);
  w.key("gate_ok").value(gate_ok);
  w.key("equiv_ok").value(equiv_ok);
  w.end_object();
  if (std::FILE* fp = std::fopen(out_path.c_str(), "w")) {
    std::fputs(w.str().c_str(), fp);
    std::fputc('\n', fp);
    std::fclose(fp);
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "could not open %s for writing\n", out_path.c_str());
    return 1;
  }
  return (gate_ok && equiv_ok) ? 0 : 2;
}
