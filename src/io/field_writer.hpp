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

}  // namespace mali::io
