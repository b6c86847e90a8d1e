#pragma once
// Field output: CSV tables and PPM heatmap rendering of base-grid fields —
// how MiniMALI produces its analog of the paper's Fig. 1 (the Antarctic
// surface-speed map) without any plotting dependency.

#include <cstddef>
#include <string>
#include <vector>

#include "mesh/quad_grid.hpp"

namespace mali::io {

/// Simple RGB triple.
struct Rgb {
  unsigned char r = 0, g = 0, b = 0;
};

/// Perceptually-reasonable blue->cyan->yellow->red colormap on [0,1].
[[nodiscard]] Rgb heat_color(double t);

struct HeatmapConfig {
  int pixels_per_cell = 4;
  bool log_scale = false;     ///< color by log10(1 + value)
  double vmin = 0.0;          ///< lower color bound (vmin == vmax: auto)
  double vmax = 0.0;
  Rgb background{15, 15, 30}; ///< color outside the ice mask
};

/// Renders a cell-centred field on the quad grid to a binary PPM (P6).
/// Returns the written path.  Throws mali::Error on I/O failure.
std::string write_heatmap_ppm(const std::string& path,
                              const mesh::QuadGrid& grid,
                              const std::vector<double>& cell_field,
                              HeatmapConfig cfg = {});

/// Writes (x, y, value...) rows for node-centred fields.
void write_node_csv(const std::string& path, const mesh::QuadGrid& grid,
                    const std::vector<std::string>& column_names,
                    const std::vector<const std::vector<double>*>& columns);

// ---- solver checkpoint files -----------------------------------------
//
// The binary format behind resilience::SolverCheckpoint (DESIGN.md §11):
//   bytes  0..7   magic "MALICKPT"
//   bytes  8..11  uint32 version (currently 1)
//   bytes 12..15  int32  newton_step
//   bytes 16..23  double residual_norm
//   bytes 24..31  double parameter (the Newton solver writes 0)
//   bytes 32..39  uint64 n (number of solution dofs)
//   bytes 40..    n raw little-endian doubles (the solution vector U)
// Doubles are written bit-for-bit (native IEEE-754 layout), so a
// write/read round-trip is exact — including NaN payloads, -0.0, and
// denormals.  The format is host-endian; checkpoints are scratch files
// for in-run restart, not an archival format.

/// Writes one solution checkpoint.  Throws mali::Error on I/O failure.
void write_solver_checkpoint(const std::string& path,
                             const std::vector<double>& U,
                             double residual_norm, double parameter,
                             int newton_step);

/// Reads a checkpoint written by write_solver_checkpoint, validating the
/// magic/version/size.  Throws mali::Error on a malformed file.
void read_solver_checkpoint(const std::string& path, std::vector<double>& U,
                            double& residual_norm, double& parameter,
                            int& newton_step);

// ---- transient checkpoint files --------------------------------------
//
// The transient (forecast) checkpoint extends the solver format with the
// full prognostic state of a coupled run (DESIGN.md §14):
//   bytes  0..7   magic "MALITCKP"
//   bytes  8..11  uint32 version (currently 1)
//   bytes 12..15  int32  step index
//   bytes 16..23  double model time t (years)
//   bytes 24..31  double current dt (years)
//   then three length-prefixed vectors, each uint64 n + n raw doubles:
//     H (cell thickness), T (flattened column temperatures), U (velocity)
// Same bit-exact host-endian contract as the solver checkpoint.

/// Writes one transient checkpoint.  Throws mali::Error on I/O failure.
void write_transient_checkpoint(const std::string& path,
                                const std::vector<double>& H,
                                const std::vector<double>& T,
                                const std::vector<double>& U, double t,
                                double dt, int step);

/// Reads a checkpoint written by write_transient_checkpoint, validating
/// the magic/version/sizes.  Throws mali::Error on a malformed file.
void read_transient_checkpoint(const std::string& path,
                               std::vector<double>& H, std::vector<double>& T,
                               std::vector<double>& U, double& t, double& dt,
                               int& step);

}  // namespace mali::io
