// Matrix-free tangent: bitwise pins of the apply, and the contract of the
// cached linearization (stale-revision guard, operator independence).
//
// The pins hash the raw bytes of J(U) x (util::fnv1a64) at every SIMD width
// on the Glen's-law dome, a thermal dome (set_temperature_field) and the
// manufactured solution, plus each rank's partial Subdomain tangent at 2
// and 4 ranks.  The values were recorded when the tangent still ran the
// whole {val, dot} forward-AD chain on every apply; the linearize +
// dot-only apply split must reproduce every bit of them.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "dist/communicator.hpp"
#include "dist/dist_solver.hpp"
#include "dist/halo_exchange.hpp"
#include "dist/subdomain.hpp"
#include "physics/matrix_free_operator.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "portability/thread_pool.hpp"
#include "util/hash.hpp"

using namespace mali;
using physics::StokesFOConfig;
using physics::StokesFOProblem;

namespace {

enum class Case { kGlenDome, kThermalDome, kMms };

const char* name(Case c) {
  switch (c) {
    case Case::kGlenDome:
      return "glen dome";
    case Case::kThermalDome:
      return "thermal dome";
    case Case::kMms:
      return "mms";
  }
  return "?";
}

StokesFOConfig make_config(Case c, int width) {
  StokesFOConfig cfg;
  cfg.dx_m = 150.0e3;
  cfg.n_layers = 4;
  cfg.simd_width = width;
  if (c == Case::kGlenDome) {
    // Ragged worksets: blocks that are not whole packs.
    cfg.workset_size = 301;
  }
  if (c == Case::kMms) {
    cfg.dx_m = 100.0e3;
    cfg.n_layers = 3;
    cfg.mms.enabled = true;
    cfg.geometry.square_mask = true;
  }
  return cfg;
}

/// A cold, sigma-graded temperature with a weak horizontal trend, so the
/// flow factor differs from one quadrature point to the next.
void set_test_temperature(StokesFOProblem& p) {
  p.set_temperature_field([](double x, double y, double sigma) {
    return 243.0 + 25.0 * sigma + 1.0e-6 * (x - 0.5 * y);
  });
}

/// The linearization state (a perturbed initial guess) and a direction.
void state_and_direction(const StokesFOProblem& p, Case c,
                         std::vector<double>& U, std::vector<double>& x) {
  U = c == Case::kMms ? p.mms_exact() : p.analytic_initial_guess();
  x.resize(U.size());
  for (std::size_t i = 0; i < U.size(); ++i) {
    const auto s = static_cast<double>(i);
    U[i] += 0.01 * std::sin(0.1 * s) * (1.0 + std::abs(U[i]));
    x[i] = std::cos(0.3 * s);
  }
}

std::uint64_t hash_of(const std::vector<double>& v) {
  return util::fnv1a64(v.data(), v.size() * sizeof(double));
}

}  // namespace

TEST(TangentPin, ApplyJacobianBytesAtEveryWidth) {
  struct Pin {
    Case c;
    int width;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {Case::kGlenDome, 1, 0xe8ab1e93f100e25dull},
      {Case::kGlenDome, 2, 0xe8ab1e93f100e25dull},
      {Case::kGlenDome, 4, 0xe8ab1e93f100e25dull},
      {Case::kGlenDome, 8, 0xe8ab1e93f100e25dull},
      {Case::kThermalDome, 1, 0x350517814ebcc941ull},
      {Case::kThermalDome, 2, 0x350517814ebcc941ull},
      {Case::kThermalDome, 4, 0x350517814ebcc941ull},
      {Case::kThermalDome, 8, 0x350517814ebcc941ull},
      {Case::kMms, 1, 0x1bffb70fd4d02492ull},
      {Case::kMms, 2, 0x1bffb70fd4d02492ull},
      {Case::kMms, 4, 0x1bffb70fd4d02492ull},
      {Case::kMms, 8, 0x1bffb70fd4d02492ull},
  };
  for (const Pin& pin : pins) {
    StokesFOProblem p(make_config(pin.c, pin.width));
    if (pin.c == Case::kThermalDome) set_test_temperature(p);
    std::vector<double> U, x, y;
    state_and_direction(p, pin.c, U, x);
    p.apply_jacobian(U, x, y);
    EXPECT_EQ(hash_of(y), pin.hash)
        << name(pin.c) << ", width " << pin.width << ": 0x" << std::hex
        << hash_of(y);
  }
}

TEST(TangentPin, SubdomainApplyTangentBytesAtTwoAndFourRanks) {
  // Thermal dome with basal friction; every rank's partial (pre-export)
  // tangent, concatenated in rank order.
  struct Pin {
    int ranks;
    int width;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {2, 1, 0x9b16d4876b6eea5aull},
      {2, 2, 0x9b16d4876b6eea5aull},
      {2, 4, 0x9b16d4876b6eea5aull},
      {2, 8, 0x9b16d4876b6eea5aull},
      {4, 1, 0x5bde859ebfadf550ull},
      {4, 2, 0x5bde859ebfadf550ull},
      {4, 4, 0x5bde859ebfadf550ull},
      {4, 8, 0x5bde859ebfadf550ull},
  };
  for (const Pin& pin : pins) {
    StokesFOProblem p(make_config(Case::kThermalDome, pin.width));
    set_test_temperature(p);
    std::vector<double> U, x;
    state_and_direction(p, Case::kThermalDome, U, x);
    const auto part =
        dist::make_partition(p.mesh().base(), pin.ranks, dist::Decomp::kStrips);
    std::vector<double> all;
    for (int r = 0; r < pin.ranks; ++r) {
      dist::Subdomain sub(p, part, r);
      std::vector<physics::TangentLinearization> lin;
      sub.linearize_tangent(U, lin);
      std::vector<double> y(p.n_dofs(), 0.0);
      sub.apply_tangent(lin, x, y);
      all.insert(all.end(), y.begin(), y.end());
    }
    EXPECT_EQ(hash_of(all), pin.hash)
        << pin.ranks << " ranks, width " << pin.width << ": 0x" << std::hex
        << hash_of(all);
  }
}

// ---------------------------------------------------------------------------
// Stale-linearization guard: the cache is a snapshot of the problem at
// linearize(), so an apply after a setter moved revision() must refuse.
// ---------------------------------------------------------------------------

namespace {

/// The four problem setters the cached tangent depends on.
const std::function<void(StokesFOProblem&)> kMutations[] = {
    [](StokesFOProblem& p) {
      physics::PhysicalConstants c = p.config().constants;
      c.glen_A *= 1.1;
      p.set_constants(c);
    },
    [](StokesFOProblem& p) { p.set_regularization(2.0e-10); },
    [](StokesFOProblem& p) { p.set_basal_friction_scale(1.2); },
    [](StokesFOProblem& p) { set_test_temperature(p); },
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

TEST(StaleLinearization, ApplyAfterAMutationThrowsTyped) {
  for (const auto& mutate : kMutations) {
    StokesFOProblem p(make_config(Case::kGlenDome, 4));
    std::vector<double> U, x, y;
    state_and_direction(p, Case::kGlenDome, U, x);
    physics::MatrixFreeStokesOperator op(p);
    op.linearize(U);
    op.apply(x, y);
    mutate(p);
    EXPECT_THROW(op.apply(x, y), physics::StaleLinearizationError);
  }
}

TEST(StaleLinearization, RelinearizedOperatorMatchesAFreshOneBitwise) {
  StokesFOProblem p(make_config(Case::kGlenDome, 4));
  std::vector<double> U, x, y_re, y_fresh;
  state_and_direction(p, Case::kGlenDome, U, x);
  physics::MatrixFreeStokesOperator op(p);
  op.linearize(U);
  for (const auto& mutate : kMutations) mutate(p);
  op.linearize(U);
  op.apply(x, y_re);

  physics::MatrixFreeStokesOperator fresh(p);
  fresh.linearize(U);
  fresh.apply(x, y_fresh);
  EXPECT_TRUE(same_bits(y_re, y_fresh));
  // The linearize-then-apply convenience runs the same two kernels.
  std::vector<double> y_conv;
  p.apply_jacobian(U, x, y_conv);
  EXPECT_TRUE(same_bits(y_conv, y_fresh));
}

TEST(StaleLinearization, TwoLiveOperatorsNeverClobberEachOther) {
  StokesFOProblem p(make_config(Case::kThermalDome, 4));
  set_test_temperature(p);
  std::vector<double> Ua, Ub, x;
  state_and_direction(p, Case::kThermalDome, Ua, x);
  Ub = Ua;
  for (double& u : Ub) u *= 1.5;

  physics::MatrixFreeStokesOperator a(p);
  physics::MatrixFreeStokesOperator b(p);
  a.linearize(Ua);
  b.linearize(Ub);
  std::vector<double> ya, yb;
  a.apply(x, ya);
  b.apply(x, yb);
  EXPECT_FALSE(same_bits(ya, yb));

  // Each live operator equals a fresh one at its state, also after later
  // linearizations of the shared problem (which move its Dirichlet scale).
  physics::MatrixFreeStokesOperator fresh_a(p);
  physics::MatrixFreeStokesOperator fresh_b(p);
  std::vector<double> y_fa, y_fb, ya_again;
  fresh_a.linearize(Ua);
  fresh_a.apply(x, y_fa);
  fresh_b.linearize(Ub);
  fresh_b.apply(x, y_fb);
  EXPECT_TRUE(same_bits(ya, y_fa));
  EXPECT_TRUE(same_bits(yb, y_fb));
  a.apply(x, ya_again);
  EXPECT_TRUE(same_bits(ya, ya_again));
}

TEST(StaleLinearization, DistributedApplyAfterAMutationThrowsTyped) {
  // Two ranks linearize, rank 0 mutates the shared problem between
  // barriers, and both ranks' applies must refuse the stale cache.
  StokesFOProblem p(make_config(Case::kGlenDome, 4));
  std::vector<double> U, x;
  state_and_direction(p, Case::kGlenDome, U, x);
  constexpr int kRanks = 2;
  const auto part =
      dist::make_partition(p.mesh().base(), kRanks, dist::Decomp::kStrips);
  std::atomic<int> applied{0};
  std::atomic<int> refused{0};
  dist::CommWorld world(kRanks);
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    const int rank = static_cast<int>(r);
    dist::Communicator comm(world, rank);
    dist::Subdomain sub(p, part, rank);
    dist::HaloExchange halo_dof(comm, part, rank, p.mesh().levels(), 2, 0);
    dist::HaloExchange halo_blk(comm, part, rank, p.mesh().levels(), 4, 8);
    dist::RankContext ctx;
    dist::RankStokesProblem rp(sub, halo_dof, halo_blk, comm,
                               linalg::JacobianMode::kMatrixFree,
                               /*overlap=*/false, ctx);
    std::vector<double> Ur, xr, y;
    dist::gather_owned(U, sub.owned_dofs(), Ur);
    dist::gather_owned(x, sub.owned_dofs(), xr);
    const auto op = rp.jacobian_operator(Ur);
    op->apply(xr, y);
    applied += 1;
    comm.barrier();
    if (rank == 0) p.set_regularization(3.0e-10);
    comm.barrier();
    try {
      op->apply(xr, y);
    } catch (const physics::StaleLinearizationError&) {
      refused += 1;
    }
  });
  EXPECT_EQ(applied.load(), kRanks);
  EXPECT_EQ(refused.load(), kRanks);
}
