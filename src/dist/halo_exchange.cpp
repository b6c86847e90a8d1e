#include "dist/halo_exchange.hpp"

#include <chrono>

#include "portability/common.hpp"

namespace mali::dist {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Flattens a sorted column list into per-entry vector indices: column col
/// covers entries [per_node*(col*levels), per_node*(col*levels + levels)).
std::vector<std::size_t> flatten(const std::vector<std::size_t>& columns,
                                 std::size_t levels, std::size_t per_node) {
  std::vector<std::size_t> idx;
  idx.reserve(columns.size() * levels * per_node);
  for (const std::size_t col : columns) {
    for (std::size_t l = 0; l < levels; ++l) {
      const std::size_t node = col * levels + l;
      for (std::size_t c = 0; c < per_node; ++c) {
        idx.push_back(node * per_node + c);
      }
    }
  }
  return idx;
}

}  // namespace

HaloExchange::HaloExchange(Communicator& comm, const mesh::Partition& part,
                           int rank, std::size_t levels, std::size_t per_node,
                           int tag_base)
    : comm_(&comm), tag_base_(tag_base) {
  MALI_CHECK(rank >= 0 && rank < part.n_parts);
  const auto r = static_cast<std::size_t>(rank);
  neighbors_ = part.neighbors[r];
  send_idx_.reserve(neighbors_.size());
  recv_idx_.reserve(neighbors_.size());
  for (std::size_t k = 0; k < neighbors_.size(); ++k) {
    send_idx_.push_back(flatten(part.send_columns[r][k], levels, per_node));
    recv_idx_.push_back(flatten(part.recv_columns[r][k], levels, per_node));
  }
  buf_.assign(neighbors_.size(), {});
}

void HaloExchange::post_import(const std::vector<double>& x) {
  const double t0 = now_s();
  for (std::size_t k = 0; k < neighbors_.size(); ++k) {
    if (send_idx_[k].empty()) continue;
    buf_[k].resize(send_idx_[k].size());
    for (std::size_t i = 0; i < send_idx_[k].size(); ++i) {
      buf_[k][i] = x[send_idx_[k][i]];
    }
  }
  const double t1 = now_s();
  for (std::size_t k = 0; k < neighbors_.size(); ++k) {
    if (send_idx_[k].empty()) continue;
    stats_.bytes_sent += buf_[k].size() * sizeof(double);
    comm_->send(neighbors_[k], tag_base_, std::move(buf_[k]));
    buf_[k].clear();
  }
  const double t2 = now_s();
  stats_.pack_s += t1 - t0;
  stats_.exchange_s += t2 - t1;
}

void HaloExchange::finish_import(std::vector<double>& x) {
  for (std::size_t k = 0; k < neighbors_.size(); ++k) {
    if (recv_idx_[k].empty()) continue;
    const double t0 = now_s();
    const std::vector<double> data = comm_->recv(neighbors_[k], tag_base_);
    const double t1 = now_s();
    MALI_CHECK_MSG(data.size() == recv_idx_[k].size(),
                   "halo import: received buffer size does not match plan");
    for (std::size_t i = 0; i < recv_idx_[k].size(); ++i) {
      x[recv_idx_[k][i]] = data[i];
    }
    stats_.exchange_s += t1 - t0;
    stats_.unpack_s += now_s() - t1;
  }
  ++stats_.exchanges;
}

void HaloExchange::import_ghosts(std::vector<double>& x) {
  post_import(x);
  finish_import(x);
}

void HaloExchange::export_add(std::vector<double>& x) {
  // Reverse flow: pack ghost partials (recv_idx_) and send to the owner;
  // receive neighbor partials for our owned columns (send_idx_) and add.
  const double t0 = now_s();
  for (std::size_t k = 0; k < neighbors_.size(); ++k) {
    if (recv_idx_[k].empty()) continue;
    buf_[k].resize(recv_idx_[k].size());
    for (std::size_t i = 0; i < recv_idx_[k].size(); ++i) {
      buf_[k][i] = x[recv_idx_[k][i]];
    }
  }
  const double t1 = now_s();
  stats_.pack_s += t1 - t0;
  for (std::size_t k = 0; k < neighbors_.size(); ++k) {
    if (recv_idx_[k].empty()) continue;
    stats_.bytes_sent += buf_[k].size() * sizeof(double);
    comm_->send(neighbors_[k], tag_base_ + 1, std::move(buf_[k]));
    buf_[k].clear();
  }
  stats_.exchange_s += now_s() - t1;
  for (std::size_t k = 0; k < neighbors_.size(); ++k) {
    if (send_idx_[k].empty()) continue;
    const double t2 = now_s();
    const std::vector<double> data = comm_->recv(neighbors_[k], tag_base_ + 1);
    const double t3 = now_s();
    MALI_CHECK_MSG(data.size() == send_idx_[k].size(),
                   "halo export: received buffer size does not match plan");
    for (std::size_t i = 0; i < send_idx_[k].size(); ++i) {
      x[send_idx_[k][i]] += data[i];
    }
    stats_.exchange_s += t3 - t2;
    stats_.unpack_s += now_s() - t3;
  }
  ++stats_.exchanges;
}

}  // namespace mali::dist
