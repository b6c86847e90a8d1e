#include "physics/thermal_model.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "fem/dof_map.hpp"
#include "portability/parallel.hpp"

namespace mali::physics {

ThermalModel::ThermalModel(const mesh::ExtrudedMesh& mesh,
                           const mesh::IceGeometry& geom,
                           TemperatureColumnConfig cfg)
    : mesh_(mesh),
      geom_(geom),
      cfg_(cfg),
      n_cols_(mesh.base().n_nodes()),
      levels_(mesh.levels()) {
  solvers_.reserve(n_cols_);
  T_.resize(n_cols_);
  for (std::size_t col = 0; col < n_cols_; ++col) {
    std::vector<double> z(levels_);
    for (std::size_t lev = 0; lev < levels_; ++lev) {
      z[lev] = mesh_.node_z(mesh_.node_id(col, lev));
    }
    solvers_.emplace_back(std::move(z), cfg_);
    // Initialize from the geometry's analytic temperature field.
    T_[col].resize(levels_);
    for (std::size_t lev = 0; lev < levels_; ++lev) {
      const double sigma = static_cast<double>(lev) /
                           static_cast<double>(levels_ - 1);
      T_[col][lev] = geom_.temperature(mesh_.base().node_x(col),
                                       mesh_.base().node_y(col), sigma);
    }
  }
}

double ThermalModel::temperature_at(double x, double y, double sigma) const {
  const std::size_t col = mesh_.base().nearest_node(x, y);
  const double pos =
      std::clamp(sigma, 0.0, 1.0) * static_cast<double>(levels_ - 1);
  const auto lev = std::min(levels_ - 2, static_cast<std::size_t>(pos));
  const double frac = pos - static_cast<double>(lev);
  return (1.0 - frac) * T_[col][lev] + frac * T_[col][lev + 1];
}

std::vector<std::vector<double>> ThermalModel::strain_heating(
    const std::vector<double>& U, const PhysicalConstants& constants) const {
  MALI_CHECK(U.size() == 2 * mesh_.n_nodes());
  std::vector<std::vector<double>> q(n_cols_,
                                     std::vector<double>(levels_, 0.0));
  const double A = constants.glen_A;
  const double n = constants.glen_n;
  pk::parallel_for("strain_heating", n_cols_, [&](int ci) {
    const auto col = static_cast<std::size_t>(ci);
    for (std::size_t lev = 0; lev + 1 < levels_; ++lev) {
      const std::size_t n0 = mesh_.node_id(col, lev);
      const std::size_t n1 = mesh_.node_id(col, lev + 1);
      const double dz =
          std::max(1.0, mesh_.node_z(n1) - mesh_.node_z(n0));
      const double dudz = (U[2 * n1] - U[2 * n0]) / dz;
      const double dvdz = (U[2 * n1 + 1] - U[2 * n0 + 1]) / dz;
      const double eps = std::max(0.5 * std::hypot(dudz, dvdz), 1e-7);
      const double mu =
          0.5 * std::pow(A, -1.0 / n) * std::pow(eps, (1.0 - n) / n);
      q[col][lev] += 2.0 * mu * eps * eps;  // Pa/yr = J/(m^3 yr)
    }
  });
  return q;
}

ColumnForcing ThermalModel::forcing_for(
    std::size_t col, const std::vector<std::vector<double>>& heating) const {
  ColumnForcing f;
  f.surface_temperature = geom_.temperature(mesh_.base().node_x(col),
                                            mesh_.base().node_y(col), 1.0);
  if (!heating.empty()) f.strain_heating = heating[col];
  return f;
}

void ThermalModel::solve_steady(
    const std::vector<std::vector<double>>& heating) {
  MALI_CHECK(heating.empty() || heating.size() == n_cols_);
  pk::parallel_for("thermal_steady", n_cols_, [&](int ci) {
    const auto col = static_cast<std::size_t>(ci);
    T_[col] = solvers_[col].steady_state(forcing_for(col, heating));
  });
}

void ThermalModel::step(double dt,
                        const std::vector<std::vector<double>>& heating) {
  MALI_CHECK(heating.empty() || heating.size() == n_cols_);
  pk::parallel_for("thermal_step", n_cols_, [&](int ci) {
    const auto col = static_cast<std::size_t>(ci);
    solvers_[col].step(T_[col], forcing_for(col, heating), dt);
  });
}

double ThermalModel::max_bed_temperature() const {
  double m = 0.0;
  for (const auto& col : T_) m = std::max(m, col.front());
  return m;
}

std::vector<double> ThermalModel::temperatures_flat() const {
  std::vector<double> flat(n_cols_ * levels_);
  for (std::size_t col = 0; col < n_cols_; ++col) {
    for (std::size_t lev = 0; lev < levels_; ++lev) {
      flat[col * levels_ + lev] = T_[col][lev];
    }
  }
  return flat;
}

void ThermalModel::set_temperatures_flat(const std::vector<double>& flat) {
  MALI_CHECK_MSG(flat.size() == n_cols_ * levels_,
                 "ThermalModel::set_temperatures_flat: expected " +
                     std::to_string(n_cols_ * levels_) + " values, got " +
                     std::to_string(flat.size()));
  for (std::size_t col = 0; col < n_cols_; ++col) {
    for (std::size_t lev = 0; lev < levels_; ++lev) {
      T_[col][lev] = flat[col * levels_ + lev];
    }
  }
}

}  // namespace mali::physics
