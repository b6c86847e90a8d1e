#pragma once
// Replicated distributed checkpoint for the coordinated-rollback rung of
// the comm fault-tolerance ladder (DESIGN.md §16).
//
// Each accepted Newton step, every rank MIRRORS its owned-extent solution
// vector, as is, to its successor rank ((r+1) mod N) as real point-to-point
// traffic — checksum-framed like any other message when guards are on — and
// scatters the state received from its predecessor into a shared
// global-extent DistCheckpoint.  The scatter indices are the PREDECESSOR's
// owned dofs, derived locally from the partition (both endpoints know the
// ownership map, so no index traffic is needed), and ownership is disjoint
// across ranks, so the shared-vector writes never race.
//
// After a comm fault poisons the world, the restart loop seeds the next
// attempt's initial guess from the checkpoint: the retried solve resumes
// from the last globally-consistent accepted Newton state instead of
// re-converging from scratch.  In a real multi-node MALI run the mirror is
// what survives a node loss — the neighbor holds the dead rank's state;
// the in-process surrogate keeps the same traffic pattern and replication
// discipline so the protocol is exercised end to end.

#include <cstddef>
#include <vector>

#include "dist/communicator.hpp"
#include "mesh/extruded_mesh.hpp"
#include "mesh/partition.hpp"

namespace mali::dist {

/// The replicated rollback state: last accepted Newton iterate (global
/// extent, assembled from every rank's mirrored contribution) plus the
/// metadata the restart loop logs.  Owned by solve_distributed, shared
/// across rank threads; `U` must be pre-sized before the ranks start.
struct DistCheckpoint {
  std::vector<double> U;
  double residual_norm = 0.0;
  int newton_step = 0;
  bool valid = false;
};

/// Per-rank mirror endpoint.  capture() is collective: every rank must call
/// it the same number of times (it is driven from the SPMD-lockstep
/// accepted-step hook of NewtonSolver, which guarantees exactly that).
class CheckpointMirror {
 public:
  /// `tag_base` reserves a tag channel distinct from the halo plans (dof
  /// plan: 0/1, block plan: 8/9).
  CheckpointMirror(const mesh::ExtrudedMesh& mesh, const mesh::Partition& part,
                   Communicator& comm, DistCheckpoint& ckpt, int tag_base = 16);

  /// Mirrors this rank's owned-extent `U` to the successor, scatters the
  /// predecessor's into the shared checkpoint, and (on rank 0) stamps the
  /// metadata and marks the checkpoint valid.
  void capture(const std::vector<double>& U, double fnorm, int step);

  /// Mirror messages exchanged so far on this rank.
  [[nodiscard]] std::size_t captures() const noexcept { return captures_; }

 private:
  Communicator* comm_;
  DistCheckpoint* ckpt_;
  int tag_base_;
  std::size_t n_owned_ = 0;             ///< this rank's owned extent
  std::vector<std::size_t> pred_dofs_;  ///< predecessor's owned dofs
  std::size_t captures_ = 0;
};

}  // namespace mali::dist
