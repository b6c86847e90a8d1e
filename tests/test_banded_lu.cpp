// Banded LU tests: solves against known systems, a pivot that swaps rows
// inside the band, singularity and misuse errors, and random nonsymmetric
// banded matrices whose band-confined solves are bitwise those of the same
// matrix stored on a full graph (kl = ku = n - 1, the unconfined dense LU),
// and a node-paired graph against a block-1 graph of the same pattern.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "linalg/banded_lu.hpp"

using namespace mali::linalg;

namespace {

/// Row-major dense entries -> CrsMatrix.  With `full_graph` every (i, j) is
/// a graph entry (zeros included); otherwise only the nonzeros are.
CrsMatrix to_crs(const std::vector<std::vector<double>>& a, bool full_graph) {
  const std::size_t n = a.size();
  std::vector<std::size_t> rp{0}, cols;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (full_graph || a[i][j] != 0.0) cols.push_back(j);
    }
    rp.push_back(cols.size());
  }
  CrsMatrix A(rp, cols);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (full_graph || a[i][j] != 0.0) A.set(i, j, a[i][j]);
    }
  }
  return A;
}

std::vector<double> multiply(const std::vector<std::vector<double>>& a,
                             const std::vector<double>& x) {
  std::vector<double> y(a.size(), 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < x.size(); ++j) y[i] += a[i][j] * x[j];
  }
  return y;
}

}  // namespace

TEST(BandedLu, SolvesKnownSystem) {
  BandedLu lu;
  lu.factor(to_crs({{2.0, 1.0}, {1.0, 3.0}}, false));
  EXPECT_EQ(lu.size(), 2u);
  EXPECT_EQ(lu.lower_bandwidth(), 1u);
  EXPECT_EQ(lu.upper_bandwidth(), 1u);
  std::vector<double> x = {5.0, 10.0};  // b
  lu.solve(x);
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

TEST(BandedLu, PivotingSwapsInsideTheBand) {
  // Tridiagonal with a zero leading entry: the first pivot swaps rows 0
  // and 1, which fills row 0 out to column kl + ku = 2.
  const std::vector<std::vector<double>> a = {{0.0, 1.0, 0.0, 0.0, 0.0},
                                              {1.0, 0.0, 2.0, 0.0, 0.0},
                                              {0.0, 1.0, 4.0, 1.0, 0.0},
                                              {0.0, 0.0, 1.0, 4.0, 1.0},
                                              {0.0, 0.0, 0.0, 1.0, 4.0}};
  BandedLu lu;
  lu.factor(to_crs(a, false));
  EXPECT_EQ(lu.lower_bandwidth(), 1u);
  EXPECT_EQ(lu.upper_bandwidth(), 1u);
  const std::vector<double> want = {1.0, -2.0, 3.0, -4.0, 5.0};
  std::vector<double> x = multiply(a, want);
  lu.solve(x);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(x[i], want[i], 1e-14) << "x[" << i << "]";
  }
}

TEST(BandedLu, FirstRowWinsAPivotTie) {
  // |a00| == |a10|: the pivot stays on row 0.  On these values the two
  // pivot choices round differently, so the bits show which one ran.
  const double a = 5.0, b = 0.9, c = -5.0, d = 1.5, r0 = 0.9, r1 = 1.7;
  const auto eliminate = [](double p, double q, double s, double t,
                            double y0, double y1) {
    // [[p, q], [s, t]] x = [y0, y1] in BandedLu's operation order.
    const double l = s * (1.0 / p);
    const double u = t - l * q;
    double x1 = y1 - l * y0;
    x1 /= u;
    double x0 = y0 - q * x1;
    x0 /= p;
    return std::vector<double>{x0, x1};
  };
  const auto kept = eliminate(a, b, c, d, r0, r1);
  ASSERT_NE(kept, eliminate(c, d, a, b, r1, r0));  // the tie is visible

  BandedLu lu;
  lu.factor(to_crs({{a, b}, {c, d}}, false));
  std::vector<double> x = {r0, r1};
  lu.solve(x);
  EXPECT_EQ(x, kept);
}

TEST(BandedLu, SingularThrows) {
  BandedLu lu;
  EXPECT_THROW(lu.factor(to_crs({{1.0, 2.0}, {2.0, 4.0}}, false)),
               mali::Error);
  EXPECT_FALSE(lu.factored());
}

TEST(BandedLu, NonSquareThrows) {
  // One row, two columns.
  const CrsMatrix A(std::vector<std::size_t>{0, 2},
                    std::vector<std::size_t>{0, 1});
  BandedLu lu;
  EXPECT_THROW(lu.factor(A), mali::Error);
}

TEST(BandedLu, UseBeforeFactorThrows) {
  BandedLu lu;
  std::vector<double> x = {1.0};
  EXPECT_THROW(lu.solve(x), mali::Error);
}

class BandedLuFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(BandedLuFuzz, BandSolvesAreTheFullGraphSolves) {
  // Random nonsymmetric band, small diagonal so that partial pivoting
  // swaps rows; kl != ku so the two bandwidths are not interchangeable.
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  const std::size_t n = 40, kl = 3, ku = 5;
  std::vector<std::vector<double>> a(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i > kl ? i - kl : 0; j <= std::min(n - 1, i + ku);
         ++j) {
      a[i][j] = i == j ? 0.1 * uni(rng) : uni(rng);
    }
  }
  BandedLu band, full;
  band.factor(to_crs(a, false));
  full.factor(to_crs(a, true));
  ASSERT_EQ(band.lower_bandwidth(), kl);
  ASSERT_EQ(band.upper_bandwidth(), ku);
  ASSERT_EQ(full.lower_bandwidth(), n - 1);
  ASSERT_EQ(full.upper_bandwidth(), n - 1);

  for (int rhs = 0; rhs < 3; ++rhs) {
    std::vector<double> b(n);
    for (auto& v : b) v = uni(rng);
    std::vector<double> xb = b, xf = b;
    band.solve(xb);
    full.solve(xf);
    EXPECT_EQ(std::memcmp(xb.data(), xf.data(), n * sizeof(double)), 0)
        << "rhs " << rhs;
    const auto r = multiply(a, xb);
    double xmax = 1.0;
    for (double v : xb) xmax = std::max(xmax, std::abs(v));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(r[i], b[i], 1e-10 * xmax) << "row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandedLuFuzz, ::testing::Values(1u, 2u, 3u));

TEST(BandedLu, PairedGraphFactorsAndSolvesAsTheScalarGraph) {
  // A node-paired graph (2x2 blocks, node columns within 2 nodes of the
  // diagonal) and a block-1 graph of the same pattern and values: the
  // band scan, the fill and so every solve are bit for bit the same.
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  const std::size_t nodes = 20, reach = 2;
  auto g = std::make_shared<CrsGraph>();
  g->block = 2;
  g->brp.push_back(0);
  for (std::size_t I = 0; I < nodes; ++I) {
    for (std::size_t J = I > reach ? I - reach : 0;
         J <= std::min(nodes - 1, I + reach); ++J) {
      g->bcols.push_back(static_cast<std::uint32_t>(J));
    }
    g->brp.push_back(static_cast<std::uint32_t>(g->bcols.size()));
  }
  CrsMatrix paired(std::shared_ptr<const CrsGraph>(std::move(g)));
  for (auto& v : paired.values()) v = uni(rng);
  CrsMatrix scalar(paired.graph()->scalar_row_ptr(),
                   paired.graph()->scalar_cols());
  scalar.values() = paired.values();
  ASSERT_EQ(scalar.graph()->block, 1);

  BandedLu lp, ls;
  lp.factor(paired);
  ls.factor(scalar);
  EXPECT_EQ(lp.lower_bandwidth(), 2 * reach + 1);
  EXPECT_EQ(lp.upper_bandwidth(), 2 * reach + 1);
  EXPECT_EQ(ls.lower_bandwidth(), lp.lower_bandwidth());
  EXPECT_EQ(ls.upper_bandwidth(), lp.upper_bandwidth());
  for (int rhs = 0; rhs < 3; ++rhs) {
    std::vector<double> xp(2 * nodes);
    for (auto& v : xp) v = uni(rng);
    std::vector<double> xs = xp;
    lp.solve(xp);
    ls.solve(xs);
    EXPECT_EQ(std::memcmp(xp.data(), xs.data(), xp.size() * sizeof(double)),
              0)
        << "rhs " << rhs;
  }
}
