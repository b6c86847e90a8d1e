#include "linalg/semicoarsening_amg.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

#include "linalg/operator_probing.hpp"
#include "portability/common.hpp"
#include "portability/parallel.hpp"

namespace mali::linalg {

namespace {

/// Setup loops that touch fewer than this many matrix entries run inline.
/// A pool dispatch costs little more than the loop it runs (DESIGN.md §8),
/// so the bar sits at a few thousand entries: the numeric Galerkin pass
/// and the smoother factorization of a forecast-size level thread.  Picked
/// by a sweep at 1, 2 and 4 threads when the V-cycle loops used it too,
/// flat from 2048 to 16384 (BENCH_vcycle_threads.json).
constexpr std::size_t kParallelWork = 8192;

template <class F>
void for_rows(const char* label, std::size_t n, std::size_t work_each,
              const F& f) {
  if (n * work_each < kParallelWork) {
    for (std::size_t i = 0; i < n; ++i) f(i);
  } else {
    pk::parallel_for(label, n,
                     [&f](int i) { f(static_cast<std::size_t>(i)); });
  }
}

/// The mean work of one item, total / items, at least 1.
std::size_t per_item(std::size_t total, std::size_t items) {
  return std::max<std::size_t>(1, total / std::max<std::size_t>(1, items));
}

}  // namespace

// ---- column-line smoother ----

ColumnLineSmoother::ColumnLineSmoother(std::size_t column_dofs,
                                       std::vector<std::uint8_t> column_color,
                                       std::size_t level, int sweeps)
    : m_(column_dofs),
      color_(std::move(column_color)),
      level_(level),
      sweeps_(sweeps) {
  MALI_CHECK(m_ >= 1);
  // The post-smoother's last relaxations carry the V-cycle's correction.
  MALI_CHECK_MSG(sweeps_ >= 1, "column-line smoother: needs a sweep");
  for (std::size_t c = 0; c < color_.size(); ++c) {
    MALI_CHECK(color_[c] < 4);
    by_color_[color_[c]].push_back(c);
  }
}

void ColumnLineSmoother::compute(const CrsMatrix& A) {
  MALI_CHECK_MSG(A.n_rows() == color_.size() * m_,
                 "column-line smoother: matrix rows != columns x column dofs");
  const CrsGraph& g = *A.graph();
  const auto B = static_cast<std::size_t>(g.block);
  MALI_CHECK_MSG(m_ % B == 0,
                 "column-line smoother: a column splits a graph block");
  // Planned into locals: a throw leaves the last plan whole.
  std::size_t band = 0;
  std::vector<Run> runs(g.n_node_rows());
  for (std::size_t I = 0; I < g.n_node_rows(); ++I) {
    const std::size_t c = B * I / m_;
    const std::size_t b0 = g.brp[I], b1 = g.brp[I + 1];
    // [lo, hi) spans the node row's in-column blocks, in_column counts them.
    std::size_t lo = b1, hi = b0, in_column = 0;
    for (std::size_t p = b0; p < b1; ++p) {
      const std::size_t J = g.bcols[p];
      const std::size_t cj = B * J / m_;
      if (cj == c) {
        for (std::size_t e = 0; e < B; ++e) {
          for (std::size_t d = 0; d < B; ++d) {
            const std::size_t i = B * I + e, j = B * J + d;
            band = std::max(band, i > j ? i - j : j - i);
          }
        }
        lo = std::min(lo, p);
        hi = p + 1;
        ++in_column;
      } else if (color_[cj] == color_[c]) {
        throw Error("AMG level " + std::to_string(level_) +
                    ": columns " + std::to_string(c) + " and " +
                    std::to_string(cj) +
                    " share a color but couple; the column-line coloring "
                    "needs a 27-point extruded stencil");
      }
    }
    if (in_column == 0) lo = hi = b0;
    if (hi - lo != in_column) {
      throw Error("AMG level " + std::to_string(level_) +
                  ": the in-column entries of row " + std::to_string(B * I) +
                  " do not form one run; the column-line sweep needs "
                  "sorted rows");
    }
    runs[I] = {static_cast<std::uint32_t>(lo - b0),
               static_cast<std::uint32_t>(hi - b0)};
  }
  band_ = band;
  runs_ = std::move(runs);
  graph_ = A.graph();
  refactor(A);
}

void ColumnLineSmoother::refactor(const CrsMatrix& A) {
  MALI_CHECK_MSG(A.graph() == graph_,
                 "column-line smoother: refactor() on a graph compute() did "
                 "not plan");
  A_ = &A;
  with_block(*graph_, [&](auto B) { factor<decltype(B)::value>(); });
}

template <int B>
void ColumnLineSmoother::factor() {
  const CrsMatrix& A = *A_;
  const std::size_t m = m_, b = band_, w = 2 * band_ + 1;
  lu_.assign(color_.size() * m * w, 0.0);
  const CrsGraph& g = *graph_;
  const auto* brp = g.brp.data();
  const auto* bcols = g.bcols.data();
  const auto* vs = A.values().data();
  const Run* runs = runs_.data();
  // The lowest level row at a singular pivot, so the error names the same
  // column whichever thread reaches which column first.
  std::atomic<std::size_t> singular{CrsMatrix::npos};
  for_rows("column_line_factor", color_.size(),
           per_item(A.nnz(), color_.size()),
           [&](std::size_t c) {
    const std::size_t base = c * m;
    double* band = lu_.data() + c * m * w;  // (t, s) at band[t*w + s-t+b]
    for (std::size_t I = base / B; I < (base + m) / B; ++I) {
      const std::size_t b0 = brp[I], nb = brp[I + 1] - b0;
      for (std::size_t e = 0; e < B; ++e) {
        const std::size_t t = B * I + e - base;
        const double* v = vs + B * B * b0 + e * B * nb;  // row B I + e
        for (std::size_t j = runs[I].lo; j < runs[I].hi; ++j) {
          for (std::size_t d = 0; d < B; ++d) {
            const std::size_t col = B * std::size_t{bcols[b0 + j]} + d;
            band[t * w + col - base + b - t] = v[B * j + d];
          }
        }
      }
    }
    // Doolittle LU without pivoting, confined to the band.
    for (std::size_t t = 0; t < m; ++t) {
      const double* row_t = band + t * w + b - t;  // row_t[s] = (t, s)
      const double pivot = row_t[t];
      if (pivot == 0.0 || !std::isfinite(pivot)) {
        std::size_t seen = singular.load();
        while (base + t < seen &&
               !singular.compare_exchange_weak(seen, base + t)) {
        }
        return;
      }
      const std::size_t last = std::min(t + b, m - 1);
      for (std::size_t i = t + 1; i <= last; ++i) {
        double* row_i = band + i * w + b - i;
        const double l = row_i[t] / pivot;
        row_i[t] = l;
        for (std::size_t s = t + 1; s <= last; ++s) row_i[s] -= l * row_t[s];
      }
    }
  });
  if (const std::size_t i = singular.load(); i != CrsMatrix::npos) {
    throw Error("AMG level " + std::to_string(level_) + ": column " +
                std::to_string(i / m) + " has a singular in-column pivot " +
                "at row " + std::to_string(i % m));
  }
}

template <int B>
void ColumnLineSmoother::relax_column(std::size_t c, const double* r,
                                      double* z, double* correct) const {
  const std::size_t m = m_, b = band_, w = 2 * band_ + 1;
  const CrsGraph& g = *graph_;
  const auto* brp = g.brp.data();
  const auto* bcols = g.bcols.data();
  const auto* vs = A_->values().data();
  const Run* runs = runs_.data();
  const std::size_t base = c * m;
  double* x = z + base;
  // Right-hand side: r minus the couplings to other (other-color) columns,
  // the blocks before and after the node row's in-column run, in row
  // order.  The run is skipped, so x can take the sum in place.
  for (std::size_t I = base / B; I < (base + m) / B; ++I) {
    const std::size_t b0 = brp[I], nb = brp[I + 1] - b0;
    const std::uint32_t* bc = bcols + b0;
    const double* v = vs + B * B * b0;  // row B I + e at v + e B nb
    double acc[B];
    for (int e = 0; e < B; ++e) acc[e] = r[B * I + e];
    const auto subtract = [&](std::size_t j) {
      const double* zj = z + B * static_cast<std::size_t>(bc[j]);
      for (int e = 0; e < B; ++e) {
        const double* row = v + e * B * nb;
        for (int d = 0; d < B; ++d) acc[e] -= row[B * j + d] * zj[d];
      }
    };
    for (std::size_t j = 0; j < runs[I].lo; ++j) subtract(j);
    for (std::size_t j = runs[I].hi; j < nb; ++j) subtract(j);
    for (int e = 0; e < B; ++e) x[B * I + e - base] = acc[e];
  }
  // Banded solve: L y = rhs, then U x = y.
  const double* band = lu_.data() + c * m * w;
  for (std::size_t t = 1; t < m; ++t) {
    const double* row_t = band + t * w + b - t;
    double acc = x[t];
    for (std::size_t s = t > b ? t - b : 0; s < t; ++s) {
      acc -= row_t[s] * x[s];
    }
    x[t] = acc;
  }
  for (std::size_t t = m; t-- > 0;) {
    const double* row_t = band + t * w + b - t;
    double acc = x[t];
    const std::size_t last = std::min(t + b, m - 1);
    for (std::size_t s = t + 1; s <= last; ++s) acc -= row_t[s] * x[s];
    x[t] = acc / row_t[t];
  }
  if (correct != nullptr) {
    for (std::size_t t = 0; t < m; ++t) correct[base + t] += x[t];
  }
}

template <int B>
void ColumnLineSmoother::smooth(const pk::ThreadPool::Team& team,
                                const double* r, double* z,
                                double* correct) const {
  // Each member relaxes its fixed slice of the color's columns, and the
  // barrier publishes them before the next color reads them.
  const auto relax = [&](int color, bool last) {
    const auto& columns = by_color_[color];
    const auto [begin, end] = team.slice(columns.size());
    for (std::size_t n = begin; n < end; ++n) {
      relax_column<B>(columns[n], r, z, last ? correct : nullptr);
    }
    team.barrier();
  };
  for (int sweep = 0; sweep < sweeps_; ++sweep) {
    // A column's last relaxation is in the last sweep: color 3's forward,
    // the others' backward.
    const bool last_sweep = sweep + 1 == sweeps_;
    for (int color = 0; color < 4; ++color) {
      relax(color, last_sweep && color == 3);
    }
    // Back from color 2: relaxing color 3 again right away would
    // reproduce the same values, since its neighbours have not moved.
    for (int color = 2; color >= 0; --color) relax(color, last_sweep);
  }
}

void ColumnLineSmoother::apply(const std::vector<double>& r,
                               std::vector<double>& z) const {
  MALI_CHECK_MSG(A_ != nullptr, "column-line smoother: compute() not called");
  z.assign(A_->n_rows(), 0.0);
  with_block(*graph_, [&](auto B) {
    pk::ThreadPool::instance().team([&](const pk::ThreadPool::Team& team) {
      smooth<decltype(B)::value>(team, r.data(), z.data(), nullptr);
    });
  });
}

// ---- semicoarsening AMG ----

SemicoarseningAmg::SemicoarseningAmg(ExtrusionInfo info, AmgConfig cfg)
    : info_(std::move(info)), cfg_(cfg) {
  MALI_CHECK(info_.levels >= 1);
  MALI_CHECK(info_.n_nodes % info_.levels == 0);
}

SemicoarseningAmg::~SemicoarseningAmg() = default;

void SemicoarseningAmg::compute(const CrsMatrix& A) {
  probe_applies_ = 0;
  fine_operator_assembled_ = false;
  load_fine(A);
  setup_smoothers();
}

void SemicoarseningAmg::compute(const LinearOperator& A) {
  if (A.matrix() != nullptr) {
    compute(*A.matrix());
    return;
  }
  // Matrix-free: the operator writes its own fine matrix onto the
  // structural lattice graph (a pure function of the ExtrusionInfo, so
  // built once), or — lacking that capability — it is reconstructed by
  // colored probing, a constant 27 * dofs_per_node operator applies.
  // Either way the assembled hierarchy build is then reused verbatim.
  probe_applies_ = 0;
  fine_operator_assembled_ = false;
  if (!probing_) {
    probing_ = std::make_unique<const StructuredProbing>(info_);
    fine_ = probing_->structure();
  }
  if (A.assemble(fine_)) {
    fine_operator_assembled_ = true;
  } else {
    probing_->probe(A, fine_);
    probe_applies_ = probing_->n_probes();
  }
  load_fine(fine_);
  setup_smoothers();
}

void SemicoarseningAmg::load_fine(const CrsMatrix& A) {
  // The hierarchy structure (aggregation, Galerkin plans, coarse patterns)
  // is a pure function of the ExtrusionInfo and the fine graph — never of
  // matrix values — so the graph level 0 shares (it is a copy of the fine
  // matrix it was built from) replays it exactly and only the numeric pass
  // runs against the new values.
  if (!levels_.empty() && levels_.front().A.graph() == A.graph()) {
    ++structure_reuses_;
    levels_.front().A.values() = A.values();
  } else {
    build_hierarchy(A);
    ++hierarchy_builds_;
    times_.assign(levels_.size(), {});
  }
  for (std::size_t l = 0; l + 1 < levels_.size(); ++l) galerkin_values(l);
  factor_coarse();
}

void SemicoarseningAmg::build_hierarchy(const CrsMatrix& A_fine) {
  levels_.clear();

  const int dpn = info_.dofs_per_node;
  const std::size_t n_columns = info_.n_nodes / info_.levels;

  // Per-level node structure (column id, vertical level, lattice coords).
  std::size_t cur_levels = info_.levels;
  std::vector<double> col_x = info_.column_x;
  std::vector<double> col_y = info_.column_y;
  double cur_dx = info_.dx;
  MALI_CHECK(col_x.size() == n_columns && col_y.size() == n_columns);

  levels_.emplace_back();
  levels_.back().A = A_fine;

  for (int l = 0; l + 1 < cfg_.max_levels; ++l) {
    Level& fine = levels_.back();
    const std::size_t n_dofs = fine.A.n_rows();
    if (n_dofs <= cfg_.coarse_max_dofs) break;

    const std::size_t n_cols_now = col_x.size();
    const std::size_t n_nodes_now = n_cols_now * cur_levels;
    MALI_CHECK(n_dofs == n_nodes_now * static_cast<std::size_t>(dpn));
    double xmin = col_x[0], ymin = col_y[0];
    for (std::size_t c = 0; c < n_cols_now; ++c) {
      xmin = std::min(xmin, col_x[c]);
      ymin = std::min(ymin, col_y[c]);
    }
    const auto lattice = [&](double v, double vmin) {
      return static_cast<std::uint64_t>(std::llround((v - vmin) / cur_dx));
    };

    // Smoother coloring: the parity of each column's 2x2 lattice position.
    fine.column_dofs = cur_levels * static_cast<std::size_t>(dpn);
    fine.column_color.resize(n_cols_now);
    for (std::size_t c = 0; c < n_cols_now; ++c) {
      fine.column_color[c] = static_cast<std::uint8_t>(
          (lattice(col_x[c], xmin) & 1) | (lattice(col_y[c], ymin) & 1) << 1);
    }

    std::vector<std::size_t> node_agg(n_nodes_now);
    std::size_t n_coarse_nodes = 0;
    std::size_t next_levels = cur_levels;
    std::vector<double> next_x = col_x, next_y = col_y;

    if (cur_levels > 1) {
      // ---- vertical semicoarsening: pair adjacent levels per column ----
      next_levels = (cur_levels + 1) / 2;
      n_coarse_nodes = n_cols_now * next_levels;
      for (std::size_t c = 0; c < n_cols_now; ++c) {
        for (std::size_t lev = 0; lev < cur_levels; ++lev) {
          node_agg[c * cur_levels + lev] = c * next_levels + lev / 2;
        }
      }
    } else {
      // ---- horizontal phase: 2x2 column aggregation on the lattice ----
      std::unordered_map<std::uint64_t, std::size_t> block_id;
      std::vector<std::size_t> col_agg(n_cols_now);
      next_x.clear();
      next_y.clear();
      for (std::size_t c = 0; c < n_cols_now; ++c) {
        const std::uint64_t i = lattice(col_x[c], xmin) / 2;
        const std::uint64_t j = lattice(col_y[c], ymin) / 2;
        const std::uint64_t key = (i << 32) | j;
        auto [it, inserted] = block_id.try_emplace(key, next_x.size());
        if (inserted) {
          next_x.push_back(xmin + static_cast<double>(i) * 2.0 * cur_dx);
          next_y.push_back(ymin + static_cast<double>(j) * 2.0 * cur_dx);
        }
        col_agg[c] = it->second;
      }
      n_coarse_nodes = next_x.size();
      for (std::size_t c = 0; c < n_cols_now; ++c) node_agg[c] = col_agg[c];
      cur_dx *= 2.0;
    }

    // The plan runs over graph nodes of B dofs: mesh nodes on a paired
    // graph, dofs on a block-1 one (components stay separate either way).
    const auto B = static_cast<std::size_t>(fine.A.graph()->block);
    MALI_CHECK_MSG(static_cast<std::size_t>(dpn) % B == 0,
                   "AMG: a node-paired graph needs an even dofs_per_node");
    const std::size_t per_node = static_cast<std::size_t>(dpn) / B;
    const std::size_t n_fine = n_nodes_now * per_node;
    const std::size_t n_coarse = n_coarse_nodes * per_node;
    fine.n_coarse = n_coarse * B;
    fine.agg.resize(n_fine);
    for (std::size_t i = 0; i < n_fine; ++i) {
      fine.agg[i] = static_cast<std::uint32_t>(
          node_agg[i / per_node] * per_node + i % per_node);
    }

    // Inverse of agg by counting sort: members stay in ascending fine order.
    fine.member_ptr.assign(n_coarse + 1, 0);
    for (std::size_t i = 0; i < n_fine; ++i) ++fine.member_ptr[fine.agg[i] + 1];
    for (std::size_t I = 0; I < n_coarse; ++I) {
      fine.member_ptr[I + 1] += fine.member_ptr[I];
    }
    fine.members.resize(n_fine);
    {
      std::vector<std::uint32_t> fill(fine.member_ptr.begin(),
                                      fine.member_ptr.end() - 1);
      for (std::size_t i = 0; i < n_fine; ++i) {
        fine.members[fill[fine.agg[i]]++] = static_cast<std::uint32_t>(i);
      }
    }

    // Symbolic Galerkin product P^T A P over graph nodes: each coarse node
    // row's pattern is the set of aggregates its members' blocks hit (a
    // marker array dedups), sorted; every fine block then records its
    // position in that coarse node row.  A block of B x B fine entries
    // feeds one block of the coarse row, so the coarse graph has the fine
    // graph's block size: pairing carries down the hierarchy.
    const CrsGraph& g = *fine.A.graph();
    CrsGraph coarse_graph;
    coarse_graph.block = g.block;
    coarse_graph.brp.assign(n_coarse + 1, 0);
    auto& ccols = coarse_graph.bcols;
    std::vector<std::size_t> marker(n_coarse, CrsMatrix::npos);
    std::vector<std::size_t> pos(n_coarse);
    fine.slot.resize(g.bcols.size());
    for (std::size_t I = 0; I < n_coarse; ++I) {
      const std::size_t row_begin = ccols.size();
      for (std::size_t m = fine.member_ptr[I]; m < fine.member_ptr[I + 1];
           ++m) {
        const std::size_t i = fine.members[m];
        for (std::size_t p = g.brp[i]; p < g.brp[i + 1]; ++p) {
          const std::uint32_t J = fine.agg[g.bcols[p]];
          if (marker[J] != I) {
            marker[J] = I;
            ccols.push_back(J);
          }
        }
      }
      std::sort(ccols.begin() + static_cast<std::ptrdiff_t>(row_begin),
                ccols.end());
      for (std::size_t p = row_begin; p < ccols.size(); ++p) {
        pos[ccols[p]] = p - row_begin;
      }
      for (std::size_t m = fine.member_ptr[I]; m < fine.member_ptr[I + 1];
           ++m) {
        const std::size_t i = fine.members[m];
        for (std::size_t p = g.brp[i]; p < g.brp[i + 1]; ++p) {
          fine.slot[p] =
              static_cast<std::uint32_t>(pos[fine.agg[g.bcols[p]]]);
        }
      }
      MALI_CHECK_MSG(ccols.size() <= UINT32_MAX,
                     "AMG: coarse level too large for 32-bit node columns");
      coarse_graph.brp[I + 1] = static_cast<std::uint32_t>(ccols.size());
    }

    Level coarse;
    coarse.A = CrsMatrix(
        std::make_shared<const CrsGraph>(std::move(coarse_graph)));
    levels_.push_back(std::move(coarse));  // may reallocate: `fine` dangles

    cur_levels = next_levels;
    col_x = std::move(next_x);
    col_y = std::move(next_y);
    if (levels_.back().A.n_rows() == n_dofs) {
      break;  // no coarsening progress — stop
    }
  }
}

void SemicoarseningAmg::galerkin_values(std::size_t l) {
  with_block(*levels_[l].A.graph(),
             [&](auto B) { galerkin_values<decltype(B)::value>(l); });
}

template <int B>
void SemicoarseningAmg::galerkin_values(std::size_t l) {
  // A_c = P^T A P for the piecewise-constant P.  Each coarse entry starts
  // at +0.0 and sums its fine entries member by member (ascending), each
  // row's entries in order: the order a per-row accumulation over the
  // fine rows produces, so the values are independent of the thread count.
  const Level& fine = levels_[l];
  const CrsGraph& g = *fine.A.graph();
  const auto* brp = g.brp.data();
  const auto* vs = fine.A.values().data();
  const auto* slot = fine.slot.data();
  const auto* mp = fine.member_ptr.data();
  const auto* members = fine.members.data();
  CrsMatrix& Ac = levels_[l + 1].A;
  const auto* cbrp = Ac.graph()->brp.data();
  double* cv = Ac.values().data();
  const std::size_t n_coarse = fine.member_ptr.size() - 1;
  for_rows("amg_galerkin", n_coarse, per_item(fine.A.nnz(), n_coarse),
           [&](std::size_t I) {
    const std::size_t cb0 = cbrp[I], cnb = cbrp[I + 1] - cb0;
    double* ci = cv + B * B * cb0;  // coarse row B I + e at ci + e B cnb
    std::fill(ci, ci + B * B * cnb, 0.0);
    for (std::size_t m = mp[I]; m < mp[I + 1]; ++m) {
      const std::size_t i = members[m];
      const std::size_t b0 = brp[i], nb = brp[i + 1] - b0;
      const double* v = vs + B * B * b0;
      for (int e = 0; e < B; ++e) {
        double* crow = ci + e * B * cnb;
        const double* row = v + e * B * nb;
        for (std::size_t j = 0; j < nb; ++j) {
          const std::size_t q = B * static_cast<std::size_t>(slot[b0 + j]);
          for (int d = 0; d < B; ++d) crow[q + d] += row[B * j + d];
        }
      }
    }
  });
}

void SemicoarseningAmg::factor_coarse() {
  const CrsMatrix& Ac = levels_.back().A;
  const std::size_t coarse_n = Ac.n_rows();
  use_direct_coarse_ = coarse_n <= cfg_.coarse_max_dofs;
  if (!use_direct_coarse_) {
    coarse_sgs_ = std::make_unique<SymGaussSeidelPreconditioner>(
        cfg_.coarse_sgs_sweeps);
    coarse_sgs_->compute(Ac);
    return;
  }
  coarse_sgs_.reset();
  coarse_lu_.factor(Ac);
}

void SemicoarseningAmg::setup_smoothers() {
  // The coarsest level is solved, never smoothed: no smoother there.
  for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
    Level& lvl = levels_[l];
    if (lvl.smoother) {
      // Replayed hierarchy: the coloring and band plan still hold.
      lvl.smoother->refactor(lvl.A);
    } else {
      lvl.smoother.emplace(lvl.column_dofs, lvl.column_color, l,
                           cfg_.pre_sweeps);
      lvl.smoother->compute(lvl.A);
    }
  }
}

std::vector<std::size_t> SemicoarseningAmg::level_aggregation(
    std::size_t l) const {
  const Level& lvl = levels_[l];
  const auto B = static_cast<std::size_t>(lvl.A.graph()->block);
  std::vector<std::size_t> agg(B * lvl.agg.size());
  for (std::size_t i = 0; i < agg.size(); ++i) {
    agg[i] = B * lvl.agg[i / B] + i % B;
  }
  return agg;
}

/// Rank 0's stopwatch over the V-cycle phases: each lap, read after a
/// barrier, adds the time since the last one to a level's phase.
struct SemicoarseningAmg::PhaseClock {
  bool on;
  std::chrono::steady_clock::time_point last;
  void lap(double& seconds) {
    if (!on) return;
    const auto now = std::chrono::steady_clock::now();
    seconds += std::chrono::duration<double>(now - last).count();
    last = now;
  }
};

template <int B>
void SemicoarseningAmg::vcycle(const pk::ThreadPool::Team& team,
                               PhaseClock& clock, std::size_t l,
                               const std::vector<double>& b,
                               std::vector<double>& z) const {
  // z holds zeros on entry.  Every phase ends with a barrier, so the next
  // one reads what all members wrote.
  LevelTimes& times = times_[l];
  if (l + 1 == levels_.size()) {
    if (team.rank() == 0) {
      if (use_direct_coarse_) {
        z = b;
        coarse_lu_.solve(z);
      } else {
        coarse_sgs_->apply(b, z);
      }
    }
    team.barrier();
    clock.lap(times.coarse_s);
    return;
  }

  const Level& lvl = levels_[l];
  const CrsGraph& g = *lvl.A.graph();
  const double* vs = lvl.A.values().data();

  lvl.smoother->smooth<B>(team, b.data(), z.data(), nullptr);
  clock.lap(times.pre_smooth_s);

  // Residual fused into restriction (P^T sums each aggregate's members,
  // ascending), so it is never stored; the coarse level's z starts at 0.
  {
    const auto [begin, end] = team.slice(lvl.member_ptr.size() - 1);
    for (std::size_t I = begin; I < end; ++I) {
      double acc[B] = {};
      for (std::size_t m = lvl.member_ptr[I]; m < lvl.member_ptr[I + 1];
           ++m) {
        const std::size_t i = lvl.members[m];
        double Az[B];
        node_row_dot<B>(g, vs, i, z.data(), Az);
        for (int e = 0; e < B; ++e) acc[e] += b[B * i + e] - Az[e];
      }
      for (int e = 0; e < B; ++e) {
        lvl.rc[B * I + e] = acc[e];
        lvl.zc[B * I + e] = 0.0;
      }
    }
  }
  team.barrier();
  clock.lap(times.restrict_s);

  vcycle<B>(team, clock, l + 1, lvl.rc, lvl.zc);

  // Prolongation (zeroing the post-smoother's z), then the residual over
  // the same node rows.
  const auto [begin, end] = team.slice(g.n_node_rows());
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t I = lvl.agg[i];
    for (int e = 0; e < B; ++e) {
      z[B * i + e] += lvl.zc[B * I + e];
      lvl.z[B * i + e] = 0.0;
    }
  }
  team.barrier();
  for (std::size_t I = begin; I < end; ++I) {
    double acc[B];
    node_row_dot<B>(g, vs, I, z.data(), acc);
    for (int e = 0; e < B; ++e) lvl.r[B * I + e] = b[B * I + e] - acc[e];
  }
  team.barrier();
  clock.lap(times.prolong_s);

  // Post-smooth the residual equation; each column's last relaxation adds
  // the correction into z.
  lvl.smoother->smooth<B>(team, lvl.r.data(), lvl.z.data(), z.data());
  clock.lap(times.post_smooth_s);
}

void SemicoarseningAmg::apply(const std::vector<double>& r,
                              std::vector<double>& z) const {
  MALI_CHECK_MSG(!levels_.empty(), "AMG: compute() not called");
  z.assign(r.size(), 0.0);
  // The region may not resize a vector: size the scratch first.
  for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
    const Level& lvl = levels_[l];
    lvl.r.resize(lvl.A.n_rows());
    lvl.z.resize(lvl.A.n_rows());
    lvl.rc.resize(lvl.n_coarse);
    lvl.zc.resize(lvl.n_coarse);
  }
  // Every level has the fine graph's block size.
  with_block(*levels_.front().A.graph(), [&](auto B) {
    pk::ThreadPool::instance().team([&](const pk::ThreadPool::Team& team) {
      PhaseClock clock{team.rank() == 0, {}};
      if (clock.on) clock.last = std::chrono::steady_clock::now();
      vcycle<decltype(B)::value>(team, clock, 0, r, z);
    });
  });
}

}  // namespace mali::linalg
