#include "mesh/quad_grid.hpp"

#include <cmath>

namespace mali::mesh {

QuadGrid::QuadGrid(const IceGeometry& geom, QuadGridConfig cfg) : cfg_(cfg) {
  MALI_CHECK(cfg.dx_m > 0.0);
  long ni = 0;
  double x0 = 0.0, y0 = 0.0;
  if (geom.config().square_mask) {
    // Verification mode: anchor the lattice on the square mask so that
    // refinements with dx dividing the radius produce nested domains.
    const double R = geom.config().radius_m;
    ni = static_cast<long>(std::llround(2.0 * R / cfg.dx_m));
    MALI_CHECK_MSG(std::abs(static_cast<double>(ni) * cfg.dx_m - 2.0 * R) <
                       1e-6 * R,
                   "square-mask grids require dx to divide the radius");
    x0 = -R;
    y0 = -R;
  } else {
    const double margin = 1.10;
    const double R =
        geom.config().radius_m * (1.0 + geom.config().lobe_amplitude);
    const double half = R * margin;
    ni = static_cast<long>(std::ceil(2.0 * half / cfg.dx_m));
    x0 = -half;
    y0 = -half;
  }
  // Lattice cell (i, j) spans [x0 + i dx, x0 + (i+1) dx] x [...].
  x0_ = x0;
  y0_ = y0;
  ni_ = ni;

  // Pass 1: find active cells (ice at the centroid).
  std::vector<std::pair<long, long>> active;
  std::vector<signed char> cell_active(
      static_cast<std::size_t>(ni) * static_cast<std::size_t>(ni), 0);
  for (long j = 0; j < ni; ++j) {
    for (long i = 0; i < ni; ++i) {
      const double cx = x0 + (static_cast<double>(i) + 0.5) * cfg.dx_m;
      const double cy = y0 + (static_cast<double>(j) + 0.5) * cfg.dx_m;
      if (geom.has_ice(cx, cy)) {
        active.emplace_back(i, j);
        cell_active[static_cast<std::size_t>(j * ni + i)] = 1;
      }
    }
  }
  MALI_CHECK_MSG(!active.empty(), "ice geometry produced no active cells");

  // Pass 2: compact node numbering, in first-touch order over the active
  // cells' corners.
  lattice_.assign(lattice_index(ni, ni) + 1, kNoNode);
  auto get_node = [&](long i, long j) -> std::size_t {
    std::size_t& id = lattice_[lattice_index(i, j)];
    if (id == kNoNode) {
      id = xs_.size();
      xs_.push_back(x0 + static_cast<double>(i) * cfg.dx_m);
      ys_.push_back(y0 + static_cast<double>(j) * cfg.dx_m);
    }
    return id;
  };

  cells_.reserve(active.size() * 4);
  for (auto [i, j] : active) {
    // CCW: (i,j), (i+1,j), (i+1,j+1), (i,j+1).
    cells_.push_back(get_node(i, j));
    cells_.push_back(get_node(i + 1, j));
    cells_.push_back(get_node(i + 1, j + 1));
    cells_.push_back(get_node(i, j + 1));
  }

  // Pass 3: margin nodes — any node whose four surrounding lattice cells are
  // not all active.
  margin_.assign(xs_.size(), false);
  auto active_at = [&](long i, long j) -> bool {
    if (i < 0 || j < 0 || i >= ni || j >= ni) return false;
    return cell_active[static_cast<std::size_t>(j * ni + i)] != 0;
  };
  for (long j = 0; j <= ni; ++j) {
    for (long i = 0; i <= ni; ++i) {
      const std::size_t id = lattice_[lattice_index(i, j)];
      if (id == kNoNode) continue;
      const bool interior = active_at(i, j) && active_at(i - 1, j) &&
                            active_at(i, j - 1) && active_at(i - 1, j - 1);
      margin_[id] = !interior;
    }
  }
}

std::size_t QuadGrid::nearest_node(double x, double y) const {
  const double fi = std::floor((x - x0_) / cfg_.dx_m);
  const double fj = std::floor((y - y0_) / cfg_.dx_m);
  const auto n = static_cast<double>(ni_);
  // Negated so a NaN coordinate falls through to the scan.
  if (!(fi >= 0.0 && fi < n && fj >= 0.0 && fj < n)) {
    return scan_nearest_node(x, y);
  }
  const auto i = static_cast<long>(fi);
  const auto j = static_cast<long>(fj);
  const std::size_t corners[4] = {
      lattice_[lattice_index(i, j)], lattice_[lattice_index(i + 1, j)],
      lattice_[lattice_index(i, j + 1)], lattice_[lattice_index(i + 1, j + 1)]};
  std::size_t best = kNoNode;
  double best_d = 0.0;
  for (const std::size_t c : corners) {
    if (c == kNoNode) return scan_nearest_node(x, y);
    const double d = std::hypot(xs_[c] - x, ys_[c] - y);
    if (best == kNoNode || d < best_d || (d == best_d && c < best)) {
      best = c;
      best_d = d;
    }
  }
  return best;
}

std::size_t QuadGrid::scan_nearest_node(double x, double y) const {
  std::size_t best = 0;
  double best_d = 1e300;
  for (std::size_t n = 0; n < xs_.size(); ++n) {
    const double d = std::hypot(xs_[n] - x, ys_[n] - y);
    if (d < best_d) {
      best_d = d;
      best = n;
    }
  }
  return best;
}

}  // namespace mali::mesh
