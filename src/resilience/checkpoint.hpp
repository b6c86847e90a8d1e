#pragma once
// SolverCheckpoint — the "last good state" the Newton recovery ladder's
// final rung restores: the solution vector, its residual norm, and the
// Newton step it was taken at.  Kept in-memory by the solver; optionally
// mirrored on disk so a crashed run can restart from the last accepted
// step.
//
// Both checkpoints here are io::Record files (io/record.hpp; DESIGN.md §11
// and §14): checksummed, written to a temp file, fsynced and renamed into
// place, so a crash mid-save keeps the previous checkpoint and a corrupt
// or truncated file loads as a mali::Error, never as state.

#include <cstddef>
#include <string>
#include <vector>

namespace mali::resilience {

struct SolverCheckpoint {
  std::vector<double> U;        ///< the accepted solution
  double residual_norm = 0.0;   ///< ||F(U)||
  int newton_step = 0;          ///< step the checkpoint was taken after
  bool valid = false;           ///< false until first capture

  /// Replaces `path` with the checkpoint (bit-exact round trip).
  void save(const std::string& path) const;
};

/// Reads a checkpoint written by SolverCheckpoint::save.  Throws
/// mali::Error on a missing, truncated or corrupt file.
[[nodiscard]] SolverCheckpoint load_checkpoint(const std::string& path);

/// TransientCheckpoint — the full prognostic state of a coupled forecast
/// run: cell thickness, flattened column temperatures, the last velocity
/// solution, the model time, the adaptive dt, and the step index.  A
/// restarted run that loads one of these reproduces the uninterrupted run
/// bit-for-bit (DESIGN.md §14).
struct TransientCheckpoint {
  std::vector<double> H;  ///< cell-centred thickness
  std::vector<double> T;  ///< column temperatures, column*levels + level
  std::vector<double> U;  ///< velocity solution (2 dofs per 3D node)
  double t = 0.0;         ///< model time, years
  double dt = 0.0;        ///< adaptive step size at capture
  int step = 0;           ///< completed step count
  bool valid = false;     ///< false until first capture

  /// Replaces `path` with the checkpoint (bit-exact round trip).
  void save(const std::string& path) const;
};

/// Reads a checkpoint written by TransientCheckpoint::save.  Throws
/// mali::Error on a missing, truncated or corrupt file.
[[nodiscard]] TransientCheckpoint load_transient_checkpoint(
    const std::string& path);

}  // namespace mali::resilience
