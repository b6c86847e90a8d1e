#include "io/field_writer.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "portability/common.hpp"

namespace mali::io {

Rgb heat_color(double t) {
  t = std::clamp(t, 0.0, 1.0);
  // Piecewise-linear blue -> cyan -> yellow -> red ramp.
  auto lerp = [](double a, double b, double s) { return a + (b - a) * s; };
  double r, g, b;
  if (t < 1.0 / 3.0) {
    const double s = 3.0 * t;
    r = 0.05;
    g = lerp(0.1, 0.8, s);
    b = lerp(0.6, 0.9, s);
  } else if (t < 2.0 / 3.0) {
    const double s = 3.0 * (t - 1.0 / 3.0);
    r = lerp(0.05, 0.95, s);
    g = lerp(0.8, 0.9, s);
    b = lerp(0.9, 0.15, s);
  } else {
    const double s = 3.0 * (t - 2.0 / 3.0);
    r = lerp(0.95, 0.85, s);
    g = lerp(0.9, 0.1, s);
    b = 0.15;
  }
  return Rgb{static_cast<unsigned char>(255.0 * r),
             static_cast<unsigned char>(255.0 * g),
             static_cast<unsigned char>(255.0 * b)};
}

std::string write_heatmap_ppm(const std::string& path,
                              const mesh::QuadGrid& grid,
                              const std::vector<double>& cell_field,
                              HeatmapConfig cfg) {
  MALI_CHECK(cell_field.size() == grid.n_cells());
  MALI_CHECK(cfg.pixels_per_cell >= 1);

  // Lattice extents from the centroids.
  const std::size_t n = grid.n_cells();
  std::vector<double> cx(n), cy(n);
  double xmin = 1e300, xmax = -1e300, ymin = 1e300, ymax = -1e300;
  for (std::size_t c = 0; c < n; ++c) {
    grid.cell_centroid(c, cx[c], cy[c]);
    xmin = std::min(xmin, cx[c]);
    xmax = std::max(xmax, cx[c]);
    ymin = std::min(ymin, cy[c]);
    ymax = std::max(ymax, cy[c]);
  }
  const double dx = grid.dx();
  const auto ni = static_cast<long>(std::llround((xmax - xmin) / dx)) + 1;
  const auto nj = static_cast<long>(std::llround((ymax - ymin) / dx)) + 1;

  // Map cells into the lattice raster.
  std::vector<long> raster(static_cast<std::size_t>(ni * nj), -1);
  for (std::size_t c = 0; c < n; ++c) {
    const long i = std::llround((cx[c] - xmin) / dx);
    const long j = std::llround((cy[c] - ymin) / dx);
    raster[static_cast<std::size_t>(j * ni + i)] = static_cast<long>(c);
  }

  auto transform = [&](double v) {
    return cfg.log_scale ? std::log10(1.0 + std::max(0.0, v)) : v;
  };
  double vmin = cfg.vmin, vmax = cfg.vmax;
  if (vmin == vmax) {
    vmin = 1e300;
    vmax = -1e300;
    for (double v : cell_field) {
      vmin = std::min(vmin, transform(v));
      vmax = std::max(vmax, transform(v));
    }
    if (vmin >= vmax) vmax = vmin + 1.0;
  }

  const int p = cfg.pixels_per_cell;
  const long W = ni * p, H = nj * p;
  std::ofstream os(path, std::ios::binary);
  MALI_CHECK_MSG(os.good(), "cannot open output file: " + path);
  os << "P6\n" << W << ' ' << H << "\n255\n";
  std::vector<unsigned char> row(static_cast<std::size_t>(W) * 3);
  for (long jy = H - 1; jy >= 0; --jy) {  // north up
    const long j = jy / p;
    for (long ix = 0; ix < W; ++ix) {
      const long i = ix / p;
      const long cell = raster[static_cast<std::size_t>(j * ni + i)];
      Rgb color = cfg.background;
      if (cell >= 0) {
        const double t = (transform(cell_field[static_cast<std::size_t>(cell)]) - vmin) /
                         (vmax - vmin);
        color = heat_color(t);
      }
      row[static_cast<std::size_t>(ix) * 3 + 0] = color.r;
      row[static_cast<std::size_t>(ix) * 3 + 1] = color.g;
      row[static_cast<std::size_t>(ix) * 3 + 2] = color.b;
    }
    os.write(reinterpret_cast<const char*>(row.data()),
             static_cast<std::streamsize>(row.size()));
  }
  MALI_CHECK_MSG(os.good(), "write failed: " + path);
  return path;
}

void write_node_csv(const std::string& path, const mesh::QuadGrid& grid,
                    const std::vector<std::string>& column_names,
                    const std::vector<const std::vector<double>*>& columns) {
  MALI_CHECK(column_names.size() == columns.size());
  for (const auto* col : columns) {
    MALI_CHECK(col != nullptr && col->size() == grid.n_nodes());
  }
  std::ofstream os(path);
  MALI_CHECK_MSG(os.good(), "cannot open output file: " + path);
  os << "x_m,y_m";
  for (const auto& name : column_names) os << ',' << name;
  os << '\n';
  for (std::size_t nd = 0; nd < grid.n_nodes(); ++nd) {
    os << grid.node_x(nd) << ',' << grid.node_y(nd);
    for (const auto* col : columns) os << ',' << (*col)[nd];
    os << '\n';
  }
  MALI_CHECK_MSG(os.good(), "write failed: " + path);
}

}  // namespace mali::io
