#include "resilience/checkpoint.hpp"

#include "io/record.hpp"

namespace mali::resilience {

namespace {
constexpr io::RecordFormat kSolverFormat{"MALICKPT", 2};
constexpr io::RecordFormat kTransientFormat{"MALITCKP", 2};
}  // namespace

void SolverCheckpoint::save(const std::string& path) const {
  io::write_record(path, kSolverFormat, newton_step, residual_norm, U);
}

SolverCheckpoint load_checkpoint(const std::string& path) {
  SolverCheckpoint c;
  io::read_record(path, kSolverFormat, c.newton_step, c.residual_norm, c.U);
  c.valid = true;
  return c;
}

void TransientCheckpoint::save(const std::string& path) const {
  io::write_record(path, kTransientFormat, step, t, dt, H, T, U);
}

TransientCheckpoint load_transient_checkpoint(const std::string& path) {
  TransientCheckpoint c;
  io::read_record(path, kTransientFormat, c.step, c.t, c.dt, c.H, c.T, c.U);
  c.valid = true;
  return c;
}

}  // namespace mali::resilience
