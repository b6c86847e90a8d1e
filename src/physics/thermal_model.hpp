#pragma once
// ThermalModel — the mesh-wide thermal state: one TemperatureColumnSolver
// per extruded column, strain heating derived from a velocity solution,
// and the interpolation hooks the viscosity needs.  This is the library
// form of the thermo-mechanical coupling demonstrated in
// examples/thermal_coupling.

#include <cstddef>
#include <vector>

#include "mesh/extruded_mesh.hpp"
#include "mesh/ice_geometry.hpp"
#include "physics/constants.hpp"
#include "physics/temperature_solver.hpp"

namespace mali::physics {

class ThermalModel {
 public:
  ThermalModel(const mesh::ExtrudedMesh& mesh, const mesh::IceGeometry& geom,
               TemperatureColumnConfig cfg = {});

  [[nodiscard]] std::size_t n_columns() const noexcept { return n_cols_; }
  [[nodiscard]] std::size_t levels() const noexcept { return levels_; }

  /// Temperature at (column, level).
  [[nodiscard]] double temperature(std::size_t column,
                                   std::size_t level) const {
    return T_[column][level];
  }

  /// Temperature at an arbitrary point: the nearest column, linear in
  /// sigma.  The column is QuadGrid::nearest_node — O(1) on the base
  /// lattice for any point of an active cell, ties to the lowest column
  /// index.  The signature matches StokesFOProblem::set_temperature_field.
  [[nodiscard]] double temperature_at(double x, double y, double sigma) const;

  /// Strain heating per column node from the vertical shear of a global
  /// velocity vector (2 dofs/node), Q = 4 mu eps_e^2 with Glen's law mu.
  [[nodiscard]] std::vector<std::vector<double>> strain_heating(
      const std::vector<double>& U, const PhysicalConstants& constants) const;

  /// Solves every column to steady state under the given heating
  /// (empty = no strain heating).
  void solve_steady(const std::vector<std::vector<double>>& heating = {});

  /// Advances every column by dt (backward Euler).
  void step(double dt, const std::vector<std::vector<double>>& heating = {});

  /// Warmest bed temperature across all columns (diagnostic).
  [[nodiscard]] double max_bed_temperature() const;

  /// The full temperature state flattened column-major (column * levels +
  /// level) — the transient-checkpoint serialization of the thermal state.
  [[nodiscard]] std::vector<double> temperatures_flat() const;

  /// Restores the state written by temperatures_flat().  Throws mali::Error
  /// on a size mismatch.
  void set_temperatures_flat(const std::vector<double>& flat);

 private:
  [[nodiscard]] ColumnForcing forcing_for(
      std::size_t col, const std::vector<std::vector<double>>& heating) const;

  const mesh::ExtrudedMesh& mesh_;
  const mesh::IceGeometry& geom_;
  TemperatureColumnConfig cfg_;
  std::size_t n_cols_;
  std::size_t levels_;
  std::vector<TemperatureColumnSolver> solvers_;
  std::vector<std::vector<double>> T_;  ///< (column, level)
};

}  // namespace mali::physics
