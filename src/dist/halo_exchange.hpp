#pragma once
// Halo-exchange plan for column-decomposed extruded meshes.
//
// Built once per (partition, rank, values-per-node) from the symmetric
// send/recv ghost-column lists in mesh::Partition, the plan flattens each
// column into its per-level, per-component vector entries and provides the
// two primitive exchanges of the solve (see DESIGN.md §12):
//
//  - import_ghosts(x): owners send their values for the columns a neighbor
//    ghosts; ghosts are ASSIGNED.  Run before any kernel that reads ghost
//    columns (residual/tangent assembly reading U).  Split-phase variants
//    (post_import / finish_import) let the caller overlap the exchange with
//    interior-cell assembly.
//
//  - export_add(x): the reverse flow — each rank packs the PARTIAL sums its
//    own cells accumulated at ghost columns and sends them to the owner,
//    which ADDS them into its entries.  Run after scatter so owned rows
//    hold complete (globally assembled) values.
//
// Both sides pack/unpack the shared column lists in the same (ascending
// global id) order, so buffers align index-for-index without headers.
//
// The plans act on GLOBAL-extent vectors, which exist only as private
// scratch of the rank's problem and operator (the rank's solvers work on
// owned-extent vectors, see dist/dist_solver.hpp): entry i is authoritative
// iff the rank owns column i (after export_add), ghost entries are valid
// after import_ghosts, and no other entry is read or written.  Wall-clock
// for pack/exchange/unpack is accumulated in stats() — this is the
// "measured halo time" that bench_weak_scaling reports next to the
// NetworkModel prediction.

#include <cstddef>
#include <vector>

#include "dist/communicator.hpp"
#include "mesh/partition.hpp"

namespace mali::dist {

struct HaloStats {
  double pack_s = 0.0;      ///< time packing send buffers
  double exchange_s = 0.0;  ///< time in send/recv (includes wait)
  double unpack_s = 0.0;    ///< time scattering received values
  std::size_t bytes_sent = 0;
  std::size_t exchanges = 0;  ///< completed import/export operations
  [[nodiscard]] double total_s() const { return pack_s + exchange_s + unpack_s; }
};

class HaloExchange {
 public:
  /// `per_node` values per 3D node (2 for velocity dof vectors, 4 for the
  /// 2x2 node blocks of the block-Jacobi preconditioner); `levels` vertical
  /// levels per column; `tag_base` separates plans sharing a Communicator.
  HaloExchange(Communicator& comm, const mesh::Partition& part, int rank,
               std::size_t levels, std::size_t per_node, int tag_base = 0);

  /// Owner -> ghost assignment (blocking).
  void import_ghosts(std::vector<double>& x);
  /// Split-phase import: post sends (pack + send, no wait on receives)...
  void post_import(const std::vector<double>& x);
  /// ...then complete the receives, assigning ghost entries.
  void finish_import(std::vector<double>& x);

  /// Ghost partials -> owner add (blocking).  Ghost entries of x still hold
  /// the local partials afterwards; call import_ghosts to refresh them with
  /// the assembled values if they will be read.
  void export_add(std::vector<double>& x);

  [[nodiscard]] const HaloStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = {}; }

  [[nodiscard]] std::size_t n_neighbors() const noexcept {
    return neighbors_.size();
  }
  /// Total vector entries this rank sends per import (ghost entries per
  /// export); the payload the NetworkModel's halo_bytes models.
  [[nodiscard]] std::size_t send_entries() const;
  [[nodiscard]] std::size_t recv_entries() const;

 private:
  Communicator* comm_;
  int tag_base_;
  std::vector<int> neighbors_;
  /// Per neighbor: flattened vector-entry indices of the columns this rank
  /// OWNS and the neighbor ghosts (import-send / export-recv side)...
  std::vector<std::vector<std::size_t>> send_idx_;
  /// ...and of the columns this rank ghosts from the neighbor
  /// (import-recv / export-send side).
  std::vector<std::vector<std::size_t>> recv_idx_;
  std::vector<std::vector<double>> buf_;  ///< reusable pack buffers
  HaloStats stats_;
};

}  // namespace mali::dist
