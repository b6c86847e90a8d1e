#pragma once
// Banded LU with partial pivoting, factored straight from a CrsMatrix — the
// direct solve behind the AMG coarsest level.
//
// The lower and upper bandwidths kl/ku come from the matrix graph, and the
// factors live in LAPACK dgbtrf storage: column-major, leading dimension
// 2 kl + ku + 1, entry (i, j) in row kl + ku + i - j of column j, the top
// kl rows left for the fill that row swaps bring in.  Pivoting is the
// textbook dense one confined to the band: the largest |a| over rows
// k..k+kl (the first row wins a tie), the swap applied to columns
// k..k+kl+ku, the multipliers left where they were computed.  solve()
// interleaves each swap with its forward-elimination column, as dgbtrs
// does.  Every row therefore sees the floating-point operations an
// unconfined dense LU performs on its nonzeros, in the same order; with
// kl = ku = n - 1 (a full graph) this is that dense LU.

#include <cstddef>
#include <vector>

#include "linalg/crs_matrix.hpp"

namespace mali::linalg {

class BandedLu {
 public:
  /// Factors the square matrix A (every column index below n_rows).
  /// Throws mali::Error on a zero pivot.  The band buffer is reused by
  /// later factors of the same or a smaller band.
  void factor(const CrsMatrix& A);

  [[nodiscard]] bool factored() const noexcept { return n_ > 0; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  /// Bandwidths below (kl) and above (ku) the diagonal of the last factor.
  [[nodiscard]] std::size_t lower_bandwidth() const noexcept { return kl_; }
  [[nodiscard]] std::size_t upper_bandwidth() const noexcept { return ku_; }

  /// Solves A x = b in place (x holds b on entry).
  void solve(std::vector<double>& x) const;

 private:
  /// Index of entry (i, j) in ab_: row kl + ku + i - j of column j.
  [[nodiscard]] std::size_t at(std::size_t i, std::size_t j) const noexcept {
    return kl_ + ku_ + i + j * (ld_ - 1);
  }

  std::size_t n_ = 0, kl_ = 0, ku_ = 0, ld_ = 1;
  std::vector<double> ab_;  ///< band storage, ld_ x n_
  std::vector<std::size_t> piv_;
};

}  // namespace mali::linalg
