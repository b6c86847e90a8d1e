#include "linalg/semicoarsening_amg.hpp"

#include <algorithm>
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

/// Loops over fewer than this many rows run inline: a pool dispatch costs
/// more than the loop.
constexpr std::size_t kParallelRows = 4096;

/// f(i) for i in [0, n), where item i covers `rows_each` matrix rows.
template <class F>
void for_rows(const char* label, std::size_t n, const F& f,
              std::size_t rows_each = 1) {
  if (n * rows_each < kParallelRows) {
    for (std::size_t i = 0; i < n; ++i) f(i);
  } else {
    pk::parallel_for(label, n,
                     [&f](int i) { f(static_cast<std::size_t>(i)); });
  }
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
  for (std::size_t c = 0; c < color_.size(); ++c) {
    MALI_CHECK(color_[c] < 4);
    by_color_[color_[c]].push_back(c);
  }
}

void ColumnLineSmoother::compute(const CrsMatrix& A) {
  MALI_CHECK_MSG(A.n_rows() == color_.size() * m_,
                 "column-line smoother: matrix rows != columns x column dofs");
  const auto& rp = A.row_ptr();
  const auto& cs = A.cols();
  band_ = 0;
  for (std::size_t i = 0; i < A.n_rows(); ++i) {
    const std::size_t c = i / m_;
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
      const std::size_t j = cs[k];
      const std::size_t cj = j / m_;
      if (cj == c) {
        band_ = std::max(band_, i > j ? i - j : j - i);
      } else if (color_[cj] == color_[c]) {
        throw Error("AMG level " + std::to_string(level_) +
                    ": columns " + std::to_string(c) + " and " +
                    std::to_string(cj) +
                    " share a color but couple; the column-line coloring "
                    "needs a 27-point extruded stencil");
      }
    }
  }
  refactor(A);
}

void ColumnLineSmoother::refactor(const CrsMatrix& A) {
  MALI_CHECK(A.n_rows() == color_.size() * m_);
  A_ = &A;
  const std::size_t m = m_, b = band_, w = 2 * band_ + 1;
  lu_.assign(color_.size() * m * w, 0.0);
  const auto* rp = A.row_ptr().data();
  const auto* cs = A.cols().data();
  const auto* vs = A.values().data();
  for_rows("column_line_factor", color_.size(), [&](std::size_t c) {
    const std::size_t base = c * m;
    double* band = lu_.data() + c * m * w;  // (t, s) at band[t*w + s-t+b]
    for (std::size_t t = 0; t < m; ++t) {
      for (std::size_t k = rp[base + t]; k < rp[base + t + 1]; ++k) {
        const std::size_t s = cs[k] - base;
        if (s < m) band[t * w + s + b - t] = vs[k];
      }
    }
    // Doolittle LU without pivoting, confined to the band.
    for (std::size_t t = 0; t < m; ++t) {
      const double* row_t = band + t * w + b - t;  // row_t[s] = (t, s)
      const double pivot = row_t[t];
      if (pivot == 0.0 || !std::isfinite(pivot)) {
        throw Error("AMG level " + std::to_string(level_) + ": column " +
                    std::to_string(c) + " has a singular in-column pivot " +
                    "at row " + std::to_string(t));
      }
      const std::size_t last = std::min(t + b, m - 1);
      for (std::size_t i = t + 1; i <= last; ++i) {
        double* row_i = band + i * w + b - i;
        const double l = row_i[t] / pivot;
        row_i[t] = l;
        for (std::size_t s = t + 1; s <= last; ++s) row_i[s] -= l * row_t[s];
      }
    }
  }, m);
}

void ColumnLineSmoother::relax_color(int color, const std::vector<double>& r,
                                     std::vector<double>& z) const {
  const std::size_t m = m_, b = band_, w = 2 * band_ + 1;
  const auto* rp = A_->row_ptr().data();
  const auto* cs = A_->cols().data();
  const auto* vs = A_->values().data();
  const auto& columns = by_color_[color];
  for_rows("column_line_relax", columns.size(), [&](std::size_t n) {
    const std::size_t c = columns[n];
    const std::size_t base = c * m;
    double* x = z.data() + base;
    // Right-hand side: r minus the couplings to other (other-color)
    // columns.  In-column entries are skipped, so x can take it in place.
    for (std::size_t t = 0; t < m; ++t) {
      double acc = r[base + t];
      for (std::size_t k = rp[base + t]; k < rp[base + t + 1]; ++k) {
        if (cs[k] - base >= m) acc -= vs[k] * z[cs[k]];
      }
      x[t] = acc;
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
  }, m);
}

void ColumnLineSmoother::apply(const std::vector<double>& r,
                               std::vector<double>& z) const {
  MALI_CHECK_MSG(A_ != nullptr, "column-line smoother: compute() not called");
  z.assign(A_->n_rows(), 0.0);
  for (int sweep = 0; sweep < sweeps_; ++sweep) {
    for (int color = 0; color < 4; ++color) relax_color(color, r, z);
    // Back from color 2: relaxing color 3 again right away would reproduce
    // the same values, since its neighbours have not moved.
    for (int color = 2; color >= 0; --color) relax_color(color, r, z);
  }
}

// ---- semicoarsening AMG ----

SemicoarseningAmg::SemicoarseningAmg(ExtrusionInfo info, AmgConfig cfg)
    : info_(std::move(info)), cfg_(cfg) {
  MALI_CHECK(info_.levels >= 1);
  MALI_CHECK(info_.n_nodes % info_.levels == 0);
}

SemicoarseningAmg::~SemicoarseningAmg() = default;

void SemicoarseningAmg::compute(const CrsMatrix& A) {
  fine_op_ = nullptr;
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
  fine_op_ = nullptr;
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
  // With the Chebyshev smoother the fine level stays fully matrix-free:
  // level-0 smoothing and residuals go through the live operator (it must
  // outlive every apply() until the next compute()); the fine matrix is
  // then only streamed once per setup, during the Galerkin build.
  if (cfg_.smoother == AmgSmoother::kChebyshev) fine_op_ = &A;
  setup_smoothers();
}

void SemicoarseningAmg::load_fine(const CrsMatrix& A) {
  // The hierarchy structure (aggregation, Galerkin plans, coarse patterns)
  // is a pure function of the ExtrusionInfo and the fine graph — never of
  // matrix values — so an unchanged graph replays it exactly and only the
  // numeric pass runs against the new values.
  if (!levels_.empty() && levels_.front().A.row_ptr() == A.row_ptr() &&
      levels_.front().A.cols() == A.cols()) {
    ++structure_reuses_;
    levels_.front().A.values() = A.values();
  } else {
    build_hierarchy(A);
    ++hierarchy_builds_;
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

    // Expand node aggregation to dofs (components stay separate).
    fine.agg.resize(n_dofs);
    for (std::size_t nd = 0; nd < n_nodes_now; ++nd) {
      for (int c = 0; c < dpn; ++c) {
        fine.agg[nd * static_cast<std::size_t>(dpn) +
                 static_cast<std::size_t>(c)] =
            node_agg[nd] * static_cast<std::size_t>(dpn) +
            static_cast<std::size_t>(c);
      }
    }
    const std::size_t n_coarse =
        n_coarse_nodes * static_cast<std::size_t>(dpn);
    fine.n_coarse = n_coarse;

    // Inverse of agg by counting sort: members stay in ascending fine order.
    fine.member_ptr.assign(n_coarse + 1, 0);
    for (std::size_t i = 0; i < n_dofs; ++i) ++fine.member_ptr[fine.agg[i] + 1];
    for (std::size_t I = 0; I < n_coarse; ++I) {
      fine.member_ptr[I + 1] += fine.member_ptr[I];
    }
    fine.members.resize(n_dofs);
    {
      std::vector<std::size_t> fill(fine.member_ptr.begin(),
                                    fine.member_ptr.end() - 1);
      for (std::size_t i = 0; i < n_dofs; ++i) {
        fine.members[fill[fine.agg[i]]++] = i;
      }
    }

    // Symbolic Galerkin product P^T A P: each coarse row's pattern is the
    // set of aggregates its members' nonzeros hit (a marker array dedups),
    // sorted; every fine nonzero then records the coarse slot it feeds.
    const auto& rp = fine.A.row_ptr();
    const auto& cs = fine.A.cols();
    std::vector<std::size_t> crp(n_coarse + 1, 0), ccols;
    std::vector<std::size_t> marker(n_coarse, CrsMatrix::npos);
    std::vector<std::size_t> pos(n_coarse);
    fine.slot.resize(fine.A.nnz());
    for (std::size_t I = 0; I < n_coarse; ++I) {
      const std::size_t row_begin = ccols.size();
      for (std::size_t m = fine.member_ptr[I]; m < fine.member_ptr[I + 1];
           ++m) {
        const std::size_t i = fine.members[m];
        for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
          const std::size_t J = fine.agg[cs[k]];
          if (marker[J] != I) {
            marker[J] = I;
            ccols.push_back(J);
          }
        }
      }
      std::sort(ccols.begin() + static_cast<std::ptrdiff_t>(row_begin),
                ccols.end());
      for (std::size_t p = row_begin; p < ccols.size(); ++p) {
        pos[ccols[p]] = p;
      }
      for (std::size_t m = fine.member_ptr[I]; m < fine.member_ptr[I + 1];
           ++m) {
        const std::size_t i = fine.members[m];
        for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
          fine.slot[k] = static_cast<std::uint32_t>(pos[fine.agg[cs[k]]]);
        }
      }
      crp[I + 1] = ccols.size();
    }
    MALI_CHECK_MSG(ccols.size() <= UINT32_MAX,
                   "AMG: coarse level too large for 32-bit Galerkin slots");

    Level coarse;
    coarse.A = CrsMatrix(std::move(crp), std::move(ccols));
    levels_.push_back(std::move(coarse));  // may reallocate: `fine` dangles

    cur_levels = next_levels;
    col_x = std::move(next_x);
    col_y = std::move(next_y);
    if (levels_.back().A.n_rows() == n_coarse && n_coarse == n_dofs) {
      break;  // no coarsening progress — stop
    }
  }
}

void SemicoarseningAmg::galerkin_values(std::size_t l) {
  // A_c = P^T A P for the piecewise-constant P.  Each coarse entry starts
  // at +0.0 and sums its fine nonzeros member by member (ascending), each
  // row's nonzeros in order: the order a per-row accumulation over the
  // fine rows produces, so the values are independent of the thread count.
  const Level& fine = levels_[l];
  const auto* rp = fine.A.row_ptr().data();
  const auto* vs = fine.A.values().data();
  const auto* slot = fine.slot.data();
  const auto* mp = fine.member_ptr.data();
  const auto* members = fine.members.data();
  CrsMatrix& Ac = levels_[l + 1].A;
  const auto* crp = Ac.row_ptr().data();
  double* cv = Ac.values().data();
  for_rows("amg_galerkin", fine.n_coarse, [&](std::size_t I) {
    for (std::size_t p = crp[I]; p < crp[I + 1]; ++p) cv[p] = 0.0;
    for (std::size_t m = mp[I]; m < mp[I + 1]; ++m) {
      const std::size_t i = members[m];
      for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) cv[slot[k]] += vs[k];
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
  DenseMatrix dense(coarse_n, coarse_n);
  const auto& rp = Ac.row_ptr();
  const auto& cs = Ac.cols();
  const auto& vs = Ac.values();
  for (std::size_t i = 0; i < coarse_n; ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
      dense(i, cs[k]) = vs[k];
    }
  }
  coarse_lu_.factor(std::move(dense));
}

void SemicoarseningAmg::setup_smoothers() {
  // The coarsest level is solved, never smoothed: no smoother there.
  for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
    Level& lvl = levels_[l];
    if (cfg_.smoother == AmgSmoother::kChebyshev) {
      ChebyshevConfig ccfg = cfg_.cheb;
      if (l < cheb_hints_.size() && cheb_hints_[l] > 0.0) {
        ccfg.lambda_hint = cheb_hints_[l];  // skip this level's power iters
      }
      auto cheb = std::make_unique<ChebyshevSmoother>(ccfg);
      if (l == 0 && fine_op_ != nullptr) {
        // Matrix-free fine level: operator applies + fine diagonal only.
        const std::size_t n = lvl.A.n_rows();
        std::vector<double> diag(n);
        for (std::size_t i = 0; i < n; ++i) diag[i] = lvl.A.diagonal(i);
        cheb->compute(*fine_op_, std::move(diag));
      } else {
        cheb->compute(lvl.A);
      }
      lvl.smoother = std::move(cheb);
    } else if (lvl.smoother != nullptr) {
      // Replayed hierarchy: the coloring and band plan still hold.
      static_cast<ColumnLineSmoother&>(*lvl.smoother).refactor(lvl.A);
    } else {
      auto line = std::make_unique<ColumnLineSmoother>(
          lvl.column_dofs, lvl.column_color, l, cfg_.pre_sweeps);
      line->compute(lvl.A);
      lvl.smoother = std::move(line);
    }
  }
}

std::vector<double> SemicoarseningAmg::chebyshev_lambda_estimates() const {
  std::vector<double> est;
  for (const Level& lvl : levels_) {
    if (lvl.smoother == nullptr) continue;  // the coarsest level
    const auto* cheb =
        dynamic_cast<const ChebyshevSmoother*>(lvl.smoother.get());
    if (cheb == nullptr) return {};  // column-line: nothing to recycle
    est.push_back(cheb->lambda_estimate());
  }
  return est;
}

void SemicoarseningAmg::level_residual(std::size_t l,
                                       const std::vector<double>& b,
                                       const std::vector<double>& z,
                                       std::vector<double>& r) const {
  const Level& lvl = levels_[l];
  const std::size_t n = lvl.A.n_rows();
  r.resize(n);
  if (l == 0 && fine_op_ != nullptr) {
    fine_op_->apply(z, lvl.tmp);
    for_rows("amg_residual", n,
             [&](std::size_t i) { r[i] = b[i] - lvl.tmp[i]; });
    return;
  }
  // Fused SpMV + subtraction: the row sum in CrsMatrix::apply's order.
  const auto* rp = lvl.A.row_ptr().data();
  const auto* cs = lvl.A.cols().data();
  const auto* vs = lvl.A.values().data();
  for_rows("amg_residual", n, [&](std::size_t i) {
    double acc = 0.0;
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) acc += vs[k] * z[cs[k]];
    r[i] = b[i] - acc;
  });
}

void SemicoarseningAmg::vcycle(std::size_t l, const std::vector<double>& r,
                               std::vector<double>& z) const {
  const Level& lvl = levels_[l];
  const std::size_t n = lvl.A.n_rows();

  if (l + 1 == levels_.size()) {
    if (use_direct_coarse_) {
      z = r;
      coarse_lu_.solve(z);
    } else {
      coarse_sgs_->apply(r, z);
    }
    return;
  }

  // Pre-smooth.
  lvl.smoother->apply(r, z);

  // Residual and restriction (P^T = sum over aggregate members, ascending).
  level_residual(l, r, z, lvl.r);
  lvl.rc.resize(lvl.n_coarse);
  for_rows("amg_restrict", lvl.n_coarse, [&](std::size_t I) {
    double acc = 0.0;
    for (std::size_t m = lvl.member_ptr[I]; m < lvl.member_ptr[I + 1]; ++m) {
      acc += lvl.r[lvl.members[m]];
    }
    lvl.rc[I] = acc;
  });

  // Coarse correction and prolongation.
  lvl.zc.assign(lvl.n_coarse, 0.0);
  vcycle(l + 1, lvl.rc, lvl.zc);
  for_rows("amg_prolong", n,
           [&](std::size_t i) { z[i] += lvl.zc[lvl.agg[i]]; });

  // Post-smooth: one more smoother pass on the residual equation.
  level_residual(l, r, z, lvl.r);
  lvl.z.resize(n);
  lvl.smoother->apply(lvl.r, lvl.z);
  for_rows("amg_correct", n, [&](std::size_t i) { z[i] += lvl.z[i]; });
}

void SemicoarseningAmg::apply(const std::vector<double>& r,
                              std::vector<double>& z) const {
  MALI_CHECK_MSG(!levels_.empty(), "AMG: compute() not called");
  z.assign(r.size(), 0.0);
  vcycle(0, r, z);
}

}  // namespace mali::linalg
