#pragma once
// Closed-form reduction-latency accounting for the Krylov solvers — the
// synchronization counterpart of the byte models in data_movement.hpp.
//
// At scale the allreduce latency, not arithmetic or bandwidth, bounds each
// Krylov iteration: every dot product is a blocking collective whose cost
// grows like log2(ranks) network hops.  The model below counts reductions
// per iteration for the classic and pipelined solvers and converts them to
// modeled synchronization time with the same Slingshot-style constants
// gpusim::NetworkModel uses, so benches can print the analytic expectation
// next to the measured numbers (the ROADMAP's model-vs-measured idiom).
//
// Reduction counts per iteration, by construction of the solvers:
//   classic GMRES, Arnoldi step j:  1 (pre-orth norm) + j+1 (MGS dots)
//                                   + 1 (post-orth norm)        = j + 3
//   pipelined GMRES, any step:      1 fused batch (j+2 values)  = 1
// (Cycle-constant setup reductions — ||b||, the restart residual norm, the
// true-residual confirm — are excluded: they do not scale with iterations.)

#include <cmath>
#include <cstddef>

namespace mali::perf {

/// Latency model for the per-iteration reduction traffic of a Krylov solve.
struct ReductionLatencyModel {
  int ranks = 1;
  std::size_t restart = 100;           ///< GMRES cycle length m
  double message_latency_s = 2.0e-6;   ///< per hop (gpusim::NetworkModel)
  double nic_bw_bytes_per_s = 25.0e9;  ///< Slingshot-11 per direction

  /// Average over a full restart cycle: sum_{j=0}^{m-1} (j+3) / m.
  [[nodiscard]] double classic_gmres_avg_reductions() const {
    const double m = static_cast<double>(restart);
    return (m + 5.0) / 2.0;
  }

  /// Modeled wall-clock of one allreduce of `values` doubles: a
  /// reduce+broadcast tree is 2*ceil(log2(ranks)) hops, each paying the
  /// message latency plus the (tiny) payload serialization.
  [[nodiscard]] double allreduce_latency_s(std::size_t values) const {
    if (ranks <= 1) return 0.0;
    const double hops =
        2.0 * std::ceil(std::log2(static_cast<double>(ranks)));
    const double payload =
        static_cast<double>(values) * 8.0 / nic_bw_bytes_per_s;
    return hops * (message_latency_s + payload);
  }

  /// Modeled synchronization time per iteration.  Classic GMRES pays its
  /// j+3 scalar reductions back to back; the pipelined solver pays ONE
  /// batched reduction — and overlaps it with the operator apply, so any
  /// apply slower than one allreduce hides the reduction entirely (the
  /// exposed time reported here is the un-overlapped upper bound).
  [[nodiscard]] double classic_gmres_sync_per_iter_s() const {
    return classic_gmres_avg_reductions() * allreduce_latency_s(1);
  }
  [[nodiscard]] double pipelined_gmres_sync_per_iter_s() const {
    // Average fused batch width over a cycle: j+2 values at step j.
    const double m = static_cast<double>(restart);
    const double avg_values = (m + 3.0) / 2.0;
    return allreduce_latency_s(
        static_cast<std::size_t>(std::ceil(avg_values)));
  }

  /// Classic-over-pipelined modeled sync ratio (GMRES) — the headroom
  /// latency-hiding buys before any overlap is even counted.
  [[nodiscard]] double gmres_sync_ratio() const {
    const double p = pipelined_gmres_sync_per_iter_s();
    return p > 0.0 ? classic_gmres_sync_per_iter_s() / p : 1.0;
  }
};

}  // namespace mali::perf
