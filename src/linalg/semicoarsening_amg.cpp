#include "linalg/semicoarsening_amg.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "linalg/operator_probing.hpp"
#include "portability/common.hpp"

namespace mali::linalg {

namespace {

/// Galerkin triple product A_c = P^T A P for piecewise-constant P given by
/// the aggregate map (fine dof -> coarse dof).
CrsMatrix galerkin_coarse(const CrsMatrix& A,
                          const std::vector<std::size_t>& agg,
                          std::size_t n_coarse) {
  const auto& rp = A.row_ptr();
  const auto& cs = A.cols();
  const auto& vs = A.values();
  const std::size_t n = A.n_rows();

  // Accumulate coarse rows via a per-row hash map (rows are short).
  std::vector<std::unordered_map<std::size_t, double>> rows(n_coarse);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t I = agg[i];
    auto& row = rows[I];
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
      row[agg[cs[k]]] += vs[k];
    }
  }

  std::vector<std::size_t> crp(n_coarse + 1, 0);
  for (std::size_t I = 0; I < n_coarse; ++I) crp[I + 1] = crp[I] + rows[I].size();
  std::vector<std::size_t> ccols(crp.back());
  for (std::size_t I = 0; I < n_coarse; ++I) {
    std::size_t p = crp[I];
    for (const auto& [J, v] : rows[I]) ccols[p++] = J;
    std::sort(ccols.begin() + static_cast<std::ptrdiff_t>(crp[I]),
              ccols.begin() + static_cast<std::ptrdiff_t>(crp[I + 1]));
  }
  CrsMatrix Ac(std::move(crp), std::move(ccols));
  for (std::size_t I = 0; I < n_coarse; ++I) {
    for (const auto& [J, v] : rows[I]) Ac.add(I, J, v);
  }
  return Ac;
}

}  // namespace

SemicoarseningAmg::SemicoarseningAmg(ExtrusionInfo info, AmgConfig cfg)
    : info_(std::move(info)), cfg_(cfg) {
  MALI_CHECK(info_.levels >= 1);
  MALI_CHECK(info_.n_nodes % info_.levels == 0);
}

void SemicoarseningAmg::compute(const CrsMatrix& A) {
  fine_op_ = nullptr;
  probe_applies_ = 0;
  build_hierarchy(CrsMatrix(A));
  setup_smoothers();
}

void SemicoarseningAmg::compute(const LinearOperator& A) {
  if (A.matrix() != nullptr) {
    compute(*A.matrix());
    return;
  }
  // Matrix-free: reconstruct the fine matrix by colored probing — a
  // constant 27 * dofs_per_node operator applies on the extruded lattice —
  // then reuse the assembled hierarchy build verbatim.
  fine_op_ = nullptr;
  const StructuredProbing probing(info_);
  CrsMatrix probed = probing.probe(A);
  probe_applies_ = probing.n_probes();
  build_hierarchy(std::move(probed));
  // With the Chebyshev smoother the fine level stays fully matrix-free:
  // level-0 smoothing and residuals go through the live operator (it must
  // outlive every apply() until the next compute()); the probed matrix is
  // then only streamed once per setup, during the Galerkin build.
  if (cfg_.smoother == AmgSmoother::kChebyshev) fine_op_ = &A;
  setup_smoothers();
}

void SemicoarseningAmg::build_hierarchy(CrsMatrix A_fine) {
  levels_.clear();
  use_direct_coarse_ = false;

  // Recycled path: the aggregation maps are a pure function of the
  // ExtrusionInfo, so once cached they replay exactly — only the Galerkin
  // products run against the new matrix values.  Bit-identical to a fresh
  // build by construction (the derivation below produces these same maps).
  if (cfg_.reuse_structure && have_cached_structure_) {
    MALI_CHECK_MSG(A_fine.n_rows() == cached_fine_rows_,
                   "AMG reuse_structure: fine matrix size changed since the "
                   "cached build");
    ++structure_reuses_;
    levels_.emplace_back();
    levels_.back().A = std::move(A_fine);
    for (std::size_t l = 0; l < cached_agg_.size(); ++l) {
      Level& fine = levels_.back();
      fine.agg = cached_agg_[l];
      fine.n_coarse = cached_n_coarse_[l];
      Level coarse;
      coarse.A = galerkin_coarse(fine.A, fine.agg, fine.n_coarse);
      levels_.push_back(std::move(coarse));
    }
    factor_coarse();
    return;
  }

  const int dpn = info_.dofs_per_node;
  const std::size_t n_columns = info_.n_nodes / info_.levels;

  // Per-level node structure (column id, vertical level, lattice coords).
  std::size_t cur_levels = info_.levels;
  std::vector<double> col_x = info_.column_x;
  std::vector<double> col_y = info_.column_y;
  double cur_dx = info_.dx;
  MALI_CHECK(col_x.size() == n_columns && col_y.size() == n_columns);

  levels_.emplace_back();
  levels_.back().A = std::move(A_fine);

  for (int l = 0; l + 1 < cfg_.max_levels; ++l) {
    Level& fine = levels_.back();
    const std::size_t n_dofs = fine.A.n_rows();
    if (n_dofs <= cfg_.coarse_max_dofs) break;

    const std::size_t n_cols_now = col_x.size();
    const std::size_t n_nodes_now = n_cols_now * cur_levels;
    MALI_CHECK(n_dofs == n_nodes_now * static_cast<std::size_t>(dpn));

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
      double xmin = col_x[0], ymin = col_y[0];
      for (std::size_t c = 0; c < n_cols_now; ++c) {
        xmin = std::min(xmin, col_x[c]);
        ymin = std::min(ymin, col_y[c]);
      }
      next_x.clear();
      next_y.clear();
      for (std::size_t c = 0; c < n_cols_now; ++c) {
        const auto i = static_cast<std::uint64_t>(
            std::llround((col_x[c] - xmin) / cur_dx) / 2);
        const auto j = static_cast<std::uint64_t>(
            std::llround((col_y[c] - ymin) / cur_dx) / 2);
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

    Level coarse;
    coarse.A = galerkin_coarse(fine.A, fine.agg, n_coarse);
    levels_.push_back(std::move(coarse));  // may reallocate: `fine` dangles

    cur_levels = next_levels;
    col_x = std::move(next_x);
    col_y = std::move(next_y);
    if (levels_.back().A.n_rows() == n_coarse && n_coarse == n_dofs) {
      break;  // no coarsening progress — stop
    }
  }

  ++hierarchy_builds_;
  if (cfg_.reuse_structure) {
    have_cached_structure_ = true;
    cached_fine_rows_ = levels_.front().A.n_rows();
    cached_agg_.clear();
    cached_n_coarse_.clear();
    for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
      cached_agg_.push_back(levels_[l].agg);
      cached_n_coarse_.push_back(levels_[l].n_coarse);
    }
  }
  factor_coarse();
}

void SemicoarseningAmg::factor_coarse() {
  const CrsMatrix& Ac = levels_.back().A;
  const std::size_t coarse_n = Ac.n_rows();
  if (coarse_n <= cfg_.coarse_max_dofs) {
    use_direct_coarse_ = true;
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
}

void SemicoarseningAmg::setup_smoothers() {
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    Level& lvl = levels_[l];
    if (cfg_.smoother == AmgSmoother::kChebyshev) {
      ChebyshevConfig ccfg = cfg_.cheb;
      if (l < cheb_hints_.size() && cheb_hints_[l] > 0.0) {
        ccfg.lambda_hint = cheb_hints_[l];  // skip this level's power iters
      }
      auto cheb = std::make_unique<ChebyshevSmoother>(ccfg);
      if (l == 0 && fine_op_ != nullptr) {
        // Matrix-free fine level: operator applies + probed diagonal only.
        const std::size_t n = lvl.A.n_rows();
        std::vector<double> diag(n);
        for (std::size_t i = 0; i < n; ++i) diag[i] = lvl.A.diagonal(i);
        cheb->compute(*fine_op_, std::move(diag));
      } else {
        cheb->compute(lvl.A);
      }
      lvl.smoother = std::move(cheb);
    } else {
      auto sgs = std::make_unique<SymGaussSeidelPreconditioner>(
          cfg_.pre_sweeps);
      sgs->compute(lvl.A);
      lvl.smoother = std::move(sgs);
    }
  }
}

std::vector<double> SemicoarseningAmg::chebyshev_lambda_estimates() const {
  std::vector<double> est;
  for (const Level& lvl : levels_) {
    const auto* cheb =
        dynamic_cast<const ChebyshevSmoother*>(lvl.smoother.get());
    if (cheb == nullptr) return {};  // SGS hierarchy: nothing to recycle
    est.push_back(cheb->lambda_estimate());
  }
  return est;
}

void SemicoarseningAmg::level_apply(std::size_t l,
                                    const std::vector<double>& x,
                                    std::vector<double>& y) const {
  if (l == 0 && fine_op_ != nullptr) {
    fine_op_->apply(x, y);
  } else {
    levels_[l].A.apply(x, y);
  }
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
      SymGaussSeidelPreconditioner sgs(cfg_.coarse_sgs_sweeps);
      sgs.compute(lvl.A);
      sgs.apply(r, z);
    }
    return;
  }

  // Pre-smooth.
  lvl.smoother->apply(r, z);

  // Residual and restriction (P^T = sum over aggregate members).
  lvl.tmp.resize(n);
  level_apply(l, z, lvl.tmp);
  lvl.r.resize(n);
  for (std::size_t i = 0; i < n; ++i) lvl.r[i] = r[i] - lvl.tmp[i];
  lvl.rc.assign(lvl.n_coarse, 0.0);
  for (std::size_t i = 0; i < n; ++i) lvl.rc[lvl.agg[i]] += lvl.r[i];

  // Coarse correction and prolongation.
  lvl.zc.assign(lvl.n_coarse, 0.0);
  vcycle(l + 1, lvl.rc, lvl.zc);
  for (std::size_t i = 0; i < n; ++i) z[i] += lvl.zc[lvl.agg[i]];

  // Post-smooth: one more smoother pass on the residual equation.
  level_apply(l, z, lvl.tmp);
  for (std::size_t i = 0; i < n; ++i) lvl.r[i] = r[i] - lvl.tmp[i];
  lvl.z.resize(n);
  lvl.smoother->apply(lvl.r, lvl.z);
  for (std::size_t i = 0; i < n; ++i) z[i] += lvl.z[i];
}

void SemicoarseningAmg::apply(const std::vector<double>& r,
                              std::vector<double>& z) const {
  MALI_CHECK_MSG(!levels_.empty(), "AMG: compute() not called");
  z.assign(r.size(), 0.0);
  vcycle(0, r, z);
}

}  // namespace mali::linalg
