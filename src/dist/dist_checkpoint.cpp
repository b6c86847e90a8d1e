#include "dist/dist_checkpoint.hpp"

#include "portability/common.hpp"

namespace mali::dist {

namespace {

/// Owned dofs of `part` in the mirror's canonical order: owned columns
/// ascending, levels fastest, u then v — the same order Subdomain builds
/// its owned_dofs in, so the sender's owned-extent vector and the
/// receiver's scatter agree without index traffic.
std::vector<std::size_t> owned_dofs_of(const mesh::ExtrudedMesh& mesh,
                                       const mesh::Partition& part, int rank) {
  const std::size_t levels = mesh.levels();
  const auto& cols = part.owned_column_ids[static_cast<std::size_t>(rank)];
  std::vector<std::size_t> dofs;
  dofs.reserve(cols.size() * levels * 2);
  for (const std::size_t col : cols) {
    for (std::size_t l = 0; l < levels; ++l) {
      const std::size_t node = mesh.node_id(col, l);
      dofs.push_back(2 * node);
      dofs.push_back(2 * node + 1);
    }
  }
  return dofs;
}

}  // namespace

CheckpointMirror::CheckpointMirror(const mesh::ExtrudedMesh& mesh,
                                   const mesh::Partition& part,
                                   Communicator& comm, DistCheckpoint& ckpt,
                                   int tag_base)
    : comm_(&comm), ckpt_(&ckpt), tag_base_(tag_base) {
  MALI_CHECK_MSG(ckpt.U.size() == 2 * mesh.n_nodes(),
                 "DistCheckpoint::U must be pre-sized to the global extent");
  const int n = comm.size();
  const int pred = (comm.rank() + n - 1) % n;
  n_owned_ = part.owned_column_ids[static_cast<std::size_t>(comm.rank())]
                 .size() *
             mesh.levels() * 2;
  pred_dofs_ = owned_dofs_of(mesh, part, pred);
}

void CheckpointMirror::capture(const std::vector<double>& U, double fnorm,
                               int step) {
  const int n = comm_->size();
  const int succ = (comm_->rank() + 1) % n;
  const int pred = (comm_->rank() + n - 1) % n;

  MALI_CHECK_MSG(U.size() == n_owned_,
                 "checkpoint mirror: U must have the rank's owned extent");
  comm_->send(succ, tag_base_, U);

  std::vector<double> mirror = comm_->recv(pred, tag_base_);
  MALI_CHECK_MSG(mirror.size() == pred_dofs_.size(),
                 "checkpoint mirror: unexpected payload size");
  // Disjoint-by-ownership scatter: this rank is the only writer of the
  // predecessor's owned entries in the shared checkpoint.
  for (std::size_t i = 0; i < pred_dofs_.size(); ++i) {
    ckpt_->U[pred_dofs_[i]] = mirror[i];
  }
  if (comm_->rank() == 0) {
    ckpt_->residual_norm = fnorm;
    ckpt_->newton_step = step;
  }
  comm_->barrier();  // all mirrored writes landed
  if (comm_->rank() == 0) ckpt_->valid = true;
  ++captures_;
}

}  // namespace mali::dist
