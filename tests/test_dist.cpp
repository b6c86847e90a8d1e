// Rank-parallel domain-decomposed solve (src/dist/, DESIGN.md §12).
//
// The headline contract: for any rank count, decomposition, and Jacobian
// mode, the converged distributed MMS solution matches the single-process
// solve within 1e-10 relative per dof.  Below that sit unit tests of the
// in-process communicator (barrier, deterministic allreduce, tagged
// send/recv, abort poisoning) and the halo exchange plans (import assigns
// ghosts, export accumulates partials back at the owners, overlap split is
// bit-identical to the blocking import).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <numeric>
#include <vector>

#include "dist/communicator.hpp"
#include "dist/dist_solver.hpp"
#include "dist/halo_exchange.hpp"
#include "dist/subdomain.hpp"
#include "linalg/block_jacobi.hpp"
#include "linalg/gmres.hpp"
#include "linalg/pipelined_krylov.hpp"
#include "linalg/preconditioner.hpp"
#include "mesh/ice_geometry.hpp"
#include "mesh/partition.hpp"
#include "nonlinear/newton.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "portability/simd.hpp"
#include "portability/thread_pool.hpp"
#include "util/hash.hpp"

using namespace mali;

namespace {

physics::StokesFOConfig small_mms(double dx_km = 100.0, int layers = 3) {
  physics::StokesFOConfig cfg;
  cfg.dx_m = dx_km * 1e3;
  cfg.n_layers = layers;
  cfg.mms.enabled = true;
  cfg.geometry.square_mask = true;
  return cfg;
}

nonlinear::NewtonConfig tight_newton() {
  nonlinear::NewtonConfig n;
  n.max_iters = 4;  // linear MMS operator: one step + verification slack
  n.rel_tol = 1e-12;
  n.gmres.rel_tol = 1e-12;
  n.gmres.max_iters = 4000;
  return n;
}

/// Reference single-process matrix-free solve for the equivalence checks.
std::vector<double> reference_solution(physics::StokesFOProblem& p) {
  nonlinear::NewtonConfig ncfg = tight_newton();
  ncfg.jacobian = linalg::JacobianMode::kMatrixFree;
  linalg::BlockJacobiPreconditioner M(2);
  std::vector<double> U(p.n_dofs(), 0.0);
  const auto r = nonlinear::NewtonSolver(ncfg).solve(p, M, U);
  EXPECT_TRUE(r.converged);
  return U;
}

void expect_match(const std::vector<double>& ref,
                  const std::vector<double>& got, const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  double uinf = 0.0;
  for (const double v : ref) uinf = std::max(uinf, std::abs(v));
  const double tol = 1e-10 * (1.0 + uinf);
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    worst = std::max(worst, std::abs(ref[i] - got[i]));
  }
  EXPECT_LE(worst, tol) << what << ": max |diff| = " << worst;
}

}  // namespace

// ---------------------------------------------------------------------------
// Communicator
// ---------------------------------------------------------------------------

TEST(Communicator, DeterministicAllreduceIsIdenticalOnAllRanks) {
  constexpr int kRanks = 7;
  dist::CommWorld world(kRanks);
  std::vector<double> sums(kRanks, 0.0);
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    // Values chosen so naive reduction order matters in floating point.
    const double local = 1.0e16 * ((r % 2 == 0) ? 1.0 : -1.0) +
                         static_cast<double>(r) * 1e-3;
    sums[r] = comm.allreduce_sum(local);
  });
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(sums[0], sums[static_cast<std::size_t>(r)])
        << "allreduce must be BIT-identical across ranks";
  }
}

TEST(Communicator, VectorAllreduceAndBarrier) {
  constexpr int kRanks = 4;
  dist::CommWorld world(kRanks);
  std::vector<std::vector<double>> out(kRanks);
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    const std::vector<double> local{static_cast<double>(r), 1.0};
    for (int it = 0; it < 3; ++it) comm.barrier();
    out[r] = comm.allreduce_sum(local);
  });
  for (int r = 0; r < kRanks; ++r) {
    ASSERT_EQ(out[static_cast<std::size_t>(r)].size(), 2u);
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(r)][0], 0.0 + 1 + 2 + 3);
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(r)][1], 4.0);
  }
}

TEST(Communicator, TaggedSendRecvIsFifoPerTag) {
  dist::CommWorld world(2);
  std::vector<double> got;
  pk::ThreadPool::parallel_tasks(2, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    if (r == 0) {
      comm.send(1, /*tag=*/3, {1.0});
      comm.send(1, /*tag=*/5, {2.0});
      comm.send(1, /*tag=*/3, {3.0});
    } else {
      const auto a = comm.recv(0, 3);
      const auto b = comm.recv(0, 5);
      const auto c = comm.recv(0, 3);
      got = {a[0], b[0], c[0]};
    }
  });
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Communicator, AbortPoisonsBlockedCollectives) {
  constexpr int kRanks = 3;
  dist::CommWorld world(kRanks);
  std::atomic<int> aborted{0};
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    try {
      if (r == 0) {
        world.abort();  // never enters the barrier
      } else {
        comm.barrier();  // would deadlock without poisoning
      }
    } catch (const dist::CommAborted&) {
      ++aborted;
    }
  });
  EXPECT_EQ(aborted.load(), kRanks - 1)
      << "every blocked rank must unwind via CommAborted";
}

TEST(Communicator, BatchedAllreduceMatchesScalarLoopAndCountsOneCollective) {
  // allreduce_n is the message-count lever the pipelined solvers pull: n
  // partials ride one collective.  Per value the rank-ordered combine is
  // the same as n scalar rounds, so results must agree BITWISE — and the
  // counters must show 1 collective/n values vs n collectives/n values.
  constexpr int kRanks = 4;
  constexpr std::size_t kN = 5;
  dist::CommWorld world(kRanks);
  std::vector<std::vector<double>> batched(kRanks), scalar(kRanks);
  std::vector<dist::CommCounters> after_batch(kRanks), after_scalar(kRanks);
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    // Magnitude-staggered values so a different reduction order would
    // change the floating-point result.
    std::vector<double> local(kN);
    for (std::size_t k = 0; k < kN; ++k) {
      local[k] = std::pow(10.0, static_cast<double>(r) * 4.0 - 8.0) +
                 static_cast<double>(k) * 1e-7;
    }
    comm.reset_counters();
    batched[r] = comm.allreduce_n(local);
    after_batch[r] = comm.counters();
    scalar[r].resize(kN);
    for (std::size_t k = 0; k < kN; ++k) {
      scalar[r][k] = comm.allreduce_sum(local[k]);
    }
    after_scalar[r] = comm.counters();
  });
  for (int r = 0; r < kRanks; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    ASSERT_EQ(batched[ur].size(), kN);
    for (std::size_t k = 0; k < kN; ++k) {
      EXPECT_EQ(batched[ur][k], scalar[ur][k])
          << "rank " << r << " value " << k
          << ": batched combine must be bit-identical to the scalar path";
    }
    EXPECT_EQ(after_batch[ur].allreduces, 1u);
    EXPECT_EQ(after_batch[ur].reduced_values, kN);
    EXPECT_EQ(after_scalar[ur].allreduces, 1u + kN);
    EXPECT_EQ(after_scalar[ur].reduced_values, 2u * kN);
  }
}

TEST(Communicator, SplitPhaseAllreduceMatchesBlockingWithTrafficInFlight) {
  // post/finish is blocking allreduce_n cut in two: between the halves a
  // rank may run arbitrary point-to-point traffic (that is the overlap the
  // pipelined solvers exploit).  The combined value must still be
  // bit-identical, and the collective must be counted exactly once.
  constexpr int kRanks = 3;
  dist::CommWorld world(kRanks);
  std::vector<std::vector<double>> blocking(kRanks), split(kRanks);
  std::vector<std::vector<double>> echoed(kRanks);
  std::vector<dist::CommCounters> counts(kRanks);
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    const std::vector<double> local{1.0e12 * static_cast<double>(r) + 0.5,
                                    -3.0e-9 * static_cast<double>(r + 1)};
    blocking[r] = comm.allreduce_n(local);
    comm.reset_counters();
    comm.allreduce_post(local);
    // Point-to-point ring traffic while the reduction is pending.
    const int next = (static_cast<int>(r) + 1) % kRanks;
    const int prev = (static_cast<int>(r) + kRanks - 1) % kRanks;
    comm.send(next, /*tag=*/77, {static_cast<double>(r)});
    echoed[r] = comm.recv(prev, /*tag=*/77);
    split[r] = comm.allreduce_finish();
    counts[r] = comm.counters();
  });
  for (int r = 0; r < kRanks; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    EXPECT_EQ(split[ur], blocking[ur])
        << "rank " << r << ": split-phase combine must match blocking";
    ASSERT_EQ(echoed[ur].size(), 1u);
    EXPECT_EQ(echoed[ur][0],
              static_cast<double>((r + kRanks - 1) % kRanks));
    EXPECT_EQ(counts[ur].allreduces, 1u);
    EXPECT_EQ(counts[ur].reduced_values, 2u);
    EXPECT_EQ(counts[ur].sends, 1u);
    EXPECT_EQ(counts[ur].recvs, 1u);
  }
}

TEST(Communicator, DistInnerProductBatchAndSplitPhaseMatchScalarDots) {
  // The DistInnerProduct reduces each rank's owned-extent partials; its
  // dot_batch and post/finish paths must be bit-identical to a loop of
  // scalar dots, and the batch must cost exactly one collective.
  constexpr int kRanks = 3;
  constexpr std::size_t kN = 31;
  dist::CommWorld world(kRanks);
  // Disjoint round-robin ownership covering every dof.
  std::vector<std::vector<std::size_t>> owned(kRanks);
  for (std::size_t d = 0; d < kN; ++d) {
    owned[d % kRanks].push_back(d);
  }
  std::vector<double> x(kN), y(kN), z(kN);
  for (std::size_t d = 0; d < kN; ++d) {
    x[d] = std::sin(static_cast<double>(d) + 0.3) * 1e8;
    y[d] = std::cos(0.7 * static_cast<double>(d)) * 1e-8;
    z[d] = static_cast<double>(d % 7) - 3.0;
  }
  std::vector<std::vector<double>> via_dot(kRanks), via_batch(kRanks),
      via_split(kRanks);
  std::vector<dist::CommCounters> counts(kRanks);
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    const dist::DistInnerProduct ip(comm, owned[r].size());
    std::vector<double> xr, yr, zr;
    dist::gather_owned(x, owned[r], xr);
    dist::gather_owned(y, owned[r], yr);
    dist::gather_owned(z, owned[r], zr);
    const std::vector<linalg::DotPair> pairs{
        {&xr, &yr}, {&xr, &zr}, {&yr, &yr}};
    via_dot[r] = {ip.dot(xr, yr), ip.dot(xr, zr), ip.dot(yr, yr)};
    comm.reset_counters();
    ip.dot_batch(pairs, via_batch[r]);
    counts[r] = comm.counters();
    linalg::InnerProduct::Pending pending;
    ip.post(pairs, pending);
    ip.finish(pending, via_split[r]);
  });
  for (int r = 0; r < kRanks; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    EXPECT_EQ(via_batch[ur], via_dot[ur]) << "rank " << r;
    EXPECT_EQ(via_split[ur], via_dot[ur]) << "rank " << r;
    EXPECT_EQ(via_dot[ur], via_dot[0])
        << "reductions must agree across ranks bitwise";
    EXPECT_EQ(counts[ur].allreduces, 1u);
    EXPECT_EQ(counts[ur].reduced_values, 3u);
  }
}

namespace {

/// Runs DistInnerProduct under a solver that holds a replicated,
/// global-extent system: every pair is gathered to the rank's owned slice
/// first, so each reduction sums exactly the rank's owned entries.
class OwnedSliceInnerProduct final : public linalg::InnerProduct {
 public:
  OwnedSliceInnerProduct(dist::Communicator& comm,
                         const std::vector<std::size_t>& owned)
      : ip_(comm, owned.size()), owned_(&owned) {}

  [[nodiscard]] double dot(const std::vector<double>& x,
                           const std::vector<double>& y) const override {
    std::vector<double> xo, yo;
    dist::gather_owned(x, *owned_, xo);
    dist::gather_owned(y, *owned_, yo);
    return ip_.dot(xo, yo);
  }
  void dot_batch(const std::vector<linalg::DotPair>& pairs,
                 std::vector<double>& out) const override {
    ip_.dot_batch(slice(pairs), out);
  }
  void post(const std::vector<linalg::DotPair>& pairs,
            Pending& pending) const override {
    ip_.post(slice(pairs), pending);
  }
  void finish(Pending& pending, std::vector<double>& out) const override {
    ip_.finish(pending, out);
  }

 private:
  /// The sliced pairs point into slices_, which lives until the next call.
  [[nodiscard]] std::vector<linalg::DotPair> slice(
      const std::vector<linalg::DotPair>& pairs) const {
    slices_.resize(2 * pairs.size());
    std::vector<linalg::DotPair> sliced(pairs.size());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      dist::gather_owned(*pairs[k].x, *owned_, slices_[2 * k]);
      dist::gather_owned(*pairs[k].y, *owned_, slices_[2 * k + 1]);
      sliced[k] = {&slices_[2 * k], &slices_[2 * k + 1]};
    }
    return sliced;
  }

  dist::DistInnerProduct ip_;
  const std::vector<std::size_t>* owned_;
  mutable std::vector<std::vector<double>> slices_;
};

}  // namespace

TEST(Communicator, OneAllreducePerPipelinedGmresIterationAtTwoRanks) {
  // The acceptance criterion, measured: a replicated system solved on two
  // ranks through the DistInnerProduct.  Pipelined GMRES must issue
  // exactly ONE collective per iteration plus the three cycle constants
  // (||b||, restart beta norm, true-residual confirm); classic GMRES pays
  // j+3 scalar collectives at Arnoldi step j.  Iterates stay bit-identical
  // across ranks because every branch hangs off the same reduced values.
  constexpr int kRanks = 2;
  const std::size_t n = 120;
  linalg::CrsMatrix A = [&] {
    std::vector<std::size_t> rp{0}, cols;
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) cols.push_back(i - 1);
      cols.push_back(i);
      if (i + 1 < n) cols.push_back(i + 1);
      rp.push_back(cols.size());
    }
    linalg::CrsMatrix m(rp, cols);
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) m.set(i, i - 1, -1.4);
      m.set(i, i, 3.1);
      if (i + 1 < n) m.set(i, i + 1, -0.6);
    }
    return m;
  }();
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = std::sin(static_cast<double>(i) * 0.13) + 0.2;
  }
  linalg::JacobiPreconditioner M;
  M.compute(A);

  // Disjoint halves: rank 0 owns [0, n/2), rank 1 owns [n/2, n).
  std::vector<std::vector<std::size_t>> owned(kRanks);
  for (std::size_t d = 0; d < n; ++d) owned[d < n / 2 ? 0 : 1].push_back(d);

  for (const bool pipelined : {false, true}) {
    dist::CommWorld world(kRanks);
    std::vector<std::vector<double>> x(kRanks);
    std::vector<linalg::GmresResult> res(kRanks);
    std::vector<dist::CommCounters> counts(kRanks);
    pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
      dist::Communicator comm(world, static_cast<int>(r));
      const OwnedSliceInnerProduct ip(comm, owned[r]);
      linalg::GmresConfig gc;
      gc.rel_tol = 1e-8;
      gc.max_iters = 400;
      gc.restart = 200;
      gc.inner = &ip;
      comm.reset_counters();
      res[r] = pipelined
                   ? linalg::PipelinedGmres(gc).solve(A, M, b, x[r])
                   : linalg::Gmres(gc).solve(A, M, b, x[r]);
      counts[r] = comm.counters();
    });
    ASSERT_TRUE(res[0].converged);
    ASSERT_LT(res[0].iterations, 200u) << "count pins assume a single cycle";
    EXPECT_EQ(x[0], x[1]) << "iterates must be bit-identical across ranks";
    const std::size_t it = res[0].iterations;
    for (int r = 0; r < kRanks; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      EXPECT_EQ(res[ur].iterations, it);
      if (pipelined) {
        EXPECT_EQ(counts[ur].allreduces, it + 3u)
            << "pipelined GMRES: 1 fused collective per iteration + 3 "
               "cycle-constant norms";
      } else {
        // sum_{j=0}^{it-1} (j+3) MGS collectives + the same 3 constants.
        EXPECT_EQ(counts[ur].allreduces, it * (it + 5u) / 2u + 3u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// HaloExchange
// ---------------------------------------------------------------------------

namespace {

struct HaloFixture {
  mesh::IceGeometry geom{};
  mesh::QuadGrid grid{geom, mesh::QuadGridConfig{150.0e3}};
};

}  // namespace

TEST(HaloExchange, ImportAssignsExactlyTheGhostEntries) {
  HaloFixture f;
  constexpr int kRanks = 4;
  constexpr std::size_t kLevels = 3;
  const auto part = mesh::partition_strips(f.grid, kRanks);
  const std::size_t n = f.grid.n_nodes() * kLevels * 2;
  dist::CommWorld world(kRanks);
  std::vector<std::vector<double>> xs(kRanks);
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    dist::HaloExchange halo(comm, part, static_cast<int>(r), kLevels, 2, 0);
    // Owned entries get a rank-independent function of the global index;
    // everything else is poisoned with a rank-dependent marker.
    std::vector<double> x(n, 1000.0 + static_cast<double>(r));
    for (const std::size_t col :
         part.owned_column_ids[static_cast<std::size_t>(r)]) {
      for (std::size_t l = 0; l < kLevels; ++l) {
        for (std::size_t c = 0; c < 2; ++c) {
          const std::size_t i = (col * kLevels + l) * 2 + c;
          x[i] = std::sin(static_cast<double>(i));
        }
      }
    }
    halo.import_ghosts(x);
    xs[r] = std::move(x);
  });
  for (int r = 0; r < kRanks; ++r) {
    const auto rs = static_cast<std::size_t>(r);
    for (const std::size_t col : part.ghost_column_ids[rs]) {
      for (std::size_t l = 0; l < kLevels; ++l) {
        for (std::size_t c = 0; c < 2; ++c) {
          const std::size_t i = (col * kLevels + l) * 2 + c;
          EXPECT_EQ(xs[rs][i], std::sin(static_cast<double>(i)))
              << "ghost entry must carry the owner's value";
        }
      }
    }
  }
}

TEST(HaloExchange, ExportAddCompletesPartialSumsAtOwners) {
  HaloFixture f;
  constexpr int kRanks = 3;
  constexpr std::size_t kLevels = 2;
  const auto part = mesh::partition_strips(f.grid, kRanks);
  const std::size_t n = f.grid.n_nodes() * kLevels * 2;
  dist::CommWorld world(kRanks);
  std::vector<std::vector<double>> fs(kRanks);
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    dist::HaloExchange halo(comm, part, static_cast<int>(r), kLevels, 2, 0);
    // Each rank deposits 1.0 on every local (owned + ghost) entry.
    std::vector<double> F(n, 0.0);
    const auto rs = static_cast<std::size_t>(r);
    for (const std::size_t col : part.local_columns[rs]) {
      for (std::size_t l = 0; l < kLevels; ++l) {
        for (std::size_t c = 0; c < 2; ++c) {
          F[(col * kLevels + l) * 2 + c] = 1.0;
        }
      }
    }
    halo.export_add(F);
    fs[r] = std::move(F);
  });
  // After the export, each owner's entry equals the number of parts whose
  // local set contains the column.
  for (int r = 0; r < kRanks; ++r) {
    const auto rs = static_cast<std::size_t>(r);
    for (const std::size_t col : part.owned_column_ids[rs]) {
      int holders = 0;
      for (int q = 0; q < kRanks; ++q) {
        const auto& lc = part.local_columns[static_cast<std::size_t>(q)];
        if (std::find(lc.begin(), lc.end(), col) != lc.end()) ++holders;
      }
      EXPECT_EQ(fs[rs][col * kLevels * 2], static_cast<double>(holders));
    }
  }
}

TEST(HaloExchange, ExportAddLeavesGhostPartialsInPlace) {
  // export_add only completes owned entries: a ghost keeps the local
  // partial it held (the linearization reads owned node blocks only, so it
  // exports without a refreshing import).
  HaloFixture f;
  constexpr int kRanks = 4;
  constexpr std::size_t kLevels = 2;
  constexpr std::size_t kPerNode = 4;  // the 2x2 node-block plan
  const auto part = mesh::partition_strips(f.grid, kRanks);
  const std::size_t n = f.grid.n_nodes() * kLevels * kPerNode;
  dist::CommWorld world(kRanks);
  std::vector<std::vector<double>> before(kRanks), after(kRanks);
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    dist::HaloExchange halo(comm, part, static_cast<int>(r), kLevels,
                            kPerNode, 0);
    std::vector<double> x(n, 0.0);
    for (const std::size_t col : part.local_columns[r]) {
      for (std::size_t i = col * kLevels * kPerNode;
           i < (col + 1) * kLevels * kPerNode; ++i) {
        x[i] = std::cos(static_cast<double>(i + 7 * r));
      }
    }
    before[r] = x;
    halo.export_add(x);
    after[r] = std::move(x);
  });
  std::size_t ghosts = 0;
  for (int r = 0; r < kRanks; ++r) {
    const auto rs = static_cast<std::size_t>(r);
    ghosts += part.ghost_column_ids[rs].size();
    for (const std::size_t col : part.ghost_column_ids[rs]) {
      for (std::size_t i = col * kLevels * kPerNode;
           i < (col + 1) * kLevels * kPerNode; ++i) {
        EXPECT_EQ(after[rs][i], before[rs][i]) << "rank " << r << " entry " << i;
      }
    }
  }
  EXPECT_GT(ghosts, 0u);
}

TEST(HaloExchange, StatsCountExchangesAndBytesAndResetClears) {
  // An import sends the owned columns each neighbor ghosts; an export sends
  // the ghost columns back.  Each completed operation counts once.
  HaloFixture f;
  constexpr int kRanks = 3;
  constexpr std::size_t kLevels = 3;
  constexpr std::size_t kPerNode = 4;
  const auto part = mesh::partition_strips(f.grid, kRanks);
  const std::size_t n = f.grid.n_nodes() * kLevels * kPerNode;
  dist::CommWorld world(kRanks);
  std::vector<dist::HaloStats> after_import(kRanks), after_export(kRanks),
      after_reset(kRanks);
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    dist::HaloExchange halo(comm, part, static_cast<int>(r), kLevels,
                            kPerNode, 0);
    std::vector<double> x(n, 1.0);
    halo.import_ghosts(x);
    after_import[r] = halo.stats();
    halo.export_add(x);
    after_export[r] = halo.stats();
    halo.reset_stats();
    after_reset[r] = halo.stats();
  });
  const std::size_t per_column = kLevels * kPerNode * sizeof(double);
  std::size_t total_send = 0, total_recv = 0;
  for (int r = 0; r < kRanks; ++r) {
    const auto rs = static_cast<std::size_t>(r);
    std::size_t send_cols = 0, recv_cols = 0;
    for (const auto& cols : part.send_columns[rs]) send_cols += cols.size();
    for (const auto& cols : part.recv_columns[rs]) recv_cols += cols.size();
    total_send += send_cols;
    total_recv += recv_cols;
    EXPECT_EQ(after_import[rs].exchanges, 1u);
    EXPECT_EQ(after_import[rs].bytes_sent, send_cols * per_column);
    EXPECT_EQ(after_export[rs].exchanges, 2u);
    EXPECT_EQ(after_export[rs].bytes_sent,
              (send_cols + recv_cols) * per_column);
    EXPECT_EQ(after_reset[rs].exchanges, 0u);
    EXPECT_EQ(after_reset[rs].bytes_sent, 0u);
    EXPECT_EQ(after_reset[rs].total_s(), 0.0);
  }
  // Every column sent by an import is received once.
  EXPECT_GT(total_send, 0u);
  EXPECT_EQ(total_send, total_recv);
}

TEST(HaloExchange, SplitPhaseImportMatchesBlockingImport) {
  // post_import + finish_import, with a write to the owned entries in
  // between, assigns the ghosts the values posted, bit for bit the
  // blocking import's.
  HaloFixture f;
  constexpr int kRanks = 4;
  constexpr std::size_t kLevels = 3;
  const auto part = mesh::partition_blocks(f.grid, 2, 2);
  const std::size_t n = f.grid.n_nodes() * kLevels * 2;
  dist::CommWorld world(kRanks);
  std::vector<std::vector<double>> blocking(kRanks), split(kRanks);
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    dist::HaloExchange halo(comm, part, static_cast<int>(r), kLevels, 2, 0);
    std::vector<double> x(n, -1.0);
    for (const std::size_t col : part.owned_column_ids[r]) {
      for (std::size_t i = col * kLevels * 2; i < (col + 1) * kLevels * 2;
           ++i) {
        x[i] = std::sin(0.1 * static_cast<double>(i));
      }
    }
    std::vector<double> y = x;
    halo.import_ghosts(x);
    blocking[r] = std::move(x);
    halo.post_import(y);
    for (const std::size_t col : part.owned_column_ids[r]) {
      y[col * kLevels * 2] += 1.0;  // owned work overlapping the exchange
    }
    halo.finish_import(y);
    split[r] = std::move(y);
  });
  std::size_t ghosts = 0;
  for (int r = 0; r < kRanks; ++r) {
    const auto rs = static_cast<std::size_t>(r);
    ghosts += part.ghost_column_ids[rs].size();
    for (const std::size_t col : part.ghost_column_ids[rs]) {
      for (std::size_t i = col * kLevels * 2; i < (col + 1) * kLevels * 2;
           ++i) {
        EXPECT_EQ(std::memcmp(&split[rs][i], &blocking[rs][i], sizeof(double)),
                  0)
            << "rank " << r << " entry " << i;
        EXPECT_EQ(split[rs][i], std::sin(0.1 * static_cast<double>(i)));
      }
    }
  }
  EXPECT_GT(ghosts, 0u);
}

// ---------------------------------------------------------------------------
// Distributed residual protocol
// ---------------------------------------------------------------------------

TEST(DistResidual, MatchesSerialAndOverlapIsBitIdentical) {
  physics::StokesFOProblem problem(small_mms());
  const std::size_t n = problem.n_dofs();
  // A non-trivial state: the exact MMS field plus a smooth perturbation.
  std::vector<double> U = problem.mms_exact();
  for (std::size_t i = 0; i < n; ++i) {
    U[i] += 0.01 * std::sin(0.1 * static_cast<double>(i));
  }
  std::vector<double> F_serial;
  problem.residual(U, F_serial);

  for (const int ranks : {2, 4}) {
    const auto part = dist::make_partition(problem.mesh().base(), ranks,
                                           dist::Decomp::kStrips);
    for (const bool overlap : {false, true}) {
      dist::CommWorld world(ranks);
      std::vector<double> F(n, 0.0);
      pk::ThreadPool::parallel_tasks(
          static_cast<std::size_t>(ranks), [&](std::size_t r) {
            dist::Communicator comm(world, static_cast<int>(r));
            dist::Subdomain sub(problem, part, static_cast<int>(r));
            dist::HaloExchange halo_dof(comm, part, static_cast<int>(r),
                                        problem.mesh().levels(), 2, 0);
            dist::HaloExchange halo_blk(comm, part, static_cast<int>(r),
                                        problem.mesh().levels(), 4, 8);
            dist::RankContext ctx;
            dist::RankStokesProblem rp(sub, halo_dof, halo_blk, comm,
                                       linalg::JacobianMode::kMatrixFree,
                                       overlap, ctx);
            std::vector<double> Ur, Fr;
            dist::gather_owned(U, sub.owned_dofs(), Ur);
            rp.residual(Ur, Fr);
            comm.barrier();
            dist::scatter_owned(Fr, sub.owned_dofs(), F);
          });
      // The serial problem scales Dirichlet rows by its own mean-|diag|;
      // the dist run agrees on a collectively-computed scale that can
      // differ, so compare non-Dirichlet rows exactly and Dirichlet rows
      // up to the scale ratio (both are scale * (U - g)).
      double worst = 0.0;
      for (std::size_t d = 0; d < n; ++d) {
        if (problem.dof_map().is_dirichlet_dof(d)) continue;
        worst = std::max(worst, std::abs(F[d] - F_serial[d]));
      }
      double fnorm = 0.0;
      for (const double v : F_serial) fnorm = std::max(fnorm, std::abs(v));
      EXPECT_LE(worst, 1e-10 * (1.0 + fnorm))
          << "ranks=" << ranks << " overlap=" << overlap;

      if (!overlap) continue;
      // Overlap on/off must be BIT-identical: rerun with overlap=false in
      // the same decomposition and compare exactly.
      dist::CommWorld world2(ranks);
      std::vector<double> F2(n, 0.0);
      pk::ThreadPool::parallel_tasks(
          static_cast<std::size_t>(ranks), [&](std::size_t r) {
            dist::Communicator comm(world2, static_cast<int>(r));
            dist::Subdomain sub(problem, part, static_cast<int>(r));
            dist::HaloExchange halo_dof(comm, part, static_cast<int>(r),
                                        problem.mesh().levels(), 2, 0);
            dist::HaloExchange halo_blk(comm, part, static_cast<int>(r),
                                        problem.mesh().levels(), 4, 8);
            dist::RankContext ctx;
            dist::RankStokesProblem rp(sub, halo_dof, halo_blk, comm,
                                       linalg::JacobianMode::kMatrixFree,
                                       /*overlap=*/false, ctx);
            std::vector<double> Ur, Fr;
            dist::gather_owned(U, sub.owned_dofs(), Ur);
            rp.residual(Ur, Fr);
            comm.barrier();
            dist::scatter_owned(Fr, sub.owned_dofs(), F2);
          });
      for (std::size_t d = 0; d < n; ++d) {
        ASSERT_EQ(F[d], F2[d])
            << "overlap must not change a single bit (dof " << d << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD element batching on the distributed path: the Subdomain runs the same
// engine as the serial problem, so `simd_width` applies per rank.
// ---------------------------------------------------------------------------

namespace {

/// Distributed residual F(U) and matrix-free tangent J(U) x over a strips
/// decomposition, each entry taken from its owning rank.
struct DistEval {
  std::vector<double> F;
  std::vector<double> Jx;
  /// True iff some rank's interior segment is not a whole number of packs,
  /// so its last pack reads boundary-cell rows.
  bool interior_pack_crosses = false;
};

DistEval dist_evaluate(const physics::StokesFOProblem& problem, int ranks,
                       bool overlap, const std::vector<double>& U,
                       const std::vector<double>& x) {
  const auto part =
      dist::make_partition(problem.mesh().base(), ranks, dist::Decomp::kStrips);
  const std::size_t n = problem.n_dofs();
  const auto w = static_cast<std::size_t>(problem.engine().simd_width());
  DistEval out{std::vector<double>(n, 0.0), std::vector<double>(n, 0.0)};
  std::atomic<bool> crosses{false};
  dist::CommWorld world(ranks);
  pk::ThreadPool::parallel_tasks(
      static_cast<std::size_t>(ranks), [&](std::size_t r) {
        dist::Communicator comm(world, static_cast<int>(r));
        dist::Subdomain sub(problem, part, static_cast<int>(r));
        dist::HaloExchange halo_dof(comm, part, static_cast<int>(r),
                                    problem.mesh().levels(), 2, 0);
        dist::HaloExchange halo_blk(comm, part, static_cast<int>(r),
                                    problem.mesh().levels(), 4, 8);
        dist::RankContext ctx;
        dist::RankStokesProblem rp(sub, halo_dof, halo_blk, comm,
                                   linalg::JacobianMode::kMatrixFree, overlap,
                                   ctx);
        std::vector<double> Ur, xr, F, y;
        dist::gather_owned(U, sub.owned_dofs(), Ur);
        dist::gather_owned(x, sub.owned_dofs(), xr);
        rp.residual(Ur, F);
        rp.jacobian_operator(Ur)->apply(xr, y);
        comm.barrier();
        dist::scatter_owned(F, sub.owned_dofs(), out.F);
        dist::scatter_owned(y, sub.owned_dofs(), out.Jx);
        const std::size_t n_int = sub.n_interior_cells();
        if (n_int % w != 0 && n_int < sub.n_cells()) crosses = true;
      });
  out.interior_pack_crosses = crosses;
  return out;
}

/// max |got - ref| over non-Dirichlet rows (the Dirichlet row scale is
/// agreed collectively on the distributed path and may differ).
double worst_interior_diff(const physics::StokesFOProblem& problem,
                           const std::vector<double>& ref,
                           const std::vector<double>& got) {
  double worst = 0.0;
  for (std::size_t d = 0; d < ref.size(); ++d) {
    if (problem.dof_map().is_dirichlet_dof(d)) continue;
    worst = std::max(worst, std::abs(got[d] - ref[d]));
  }
  return worst;
}

double max_abs(const std::vector<double>& v) {
  double m = 0.0;
  for (const double e : v) m = std::max(m, std::abs(e));
  return m;
}

}  // namespace

TEST(DistSimd, ResidualAndTangentMatchSerialAtEveryWidth) {
  // The linear MMS operator, and the thermal Glen's-law dome with basal
  // friction (staged flow factor and faces on every rank).
  for (const bool mms : {true, false}) {
    for (const int width : {2, 4, 8}) {
      physics::StokesFOConfig cfg = small_mms();
      if (!mms) {
        cfg = physics::StokesFOConfig{};
        cfg.dx_m = 250.0e3;
        cfg.n_layers = 3;
        cfg.thermal_viscosity = true;
      }
      cfg.simd_width = width;
      physics::StokesFOProblem problem(cfg);
      const std::size_t n = problem.n_dofs();
      std::vector<double> U =
          mms ? problem.mms_exact() : problem.analytic_initial_guess();
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        U[i] += 0.01 * std::sin(0.1 * static_cast<double>(i));
        x[i] = std::cos(0.3 * static_cast<double>(i));
      }
      std::vector<double> F_serial, Jx_serial;
      problem.residual(U, F_serial);
      problem.apply_jacobian(U, x, Jx_serial);

      for (const int ranks : {1, 2, 4, 7}) {
        const DistEval d = dist_evaluate(problem, ranks, false, U, x);
        EXPECT_LE(worst_interior_diff(problem, F_serial, d.F),
                  1e-10 * (1.0 + max_abs(F_serial)))
            << "residual, mms " << mms << ", width " << width << ", ranks "
            << ranks;
        EXPECT_LE(worst_interior_diff(problem, Jx_serial, d.Jx),
                  1e-10 * (1.0 + max_abs(Jx_serial)))
            << "tangent, mms " << mms << ", width " << width << ", ranks "
            << ranks;
      }
    }
  }
}

TEST(DistSimd, OneRankRunsTheSerialEngineBitForBit) {
  // One rank visits the cells in serial order, so with the serial scatter
  // it must reproduce the serial problem at the same width exactly.  The
  // baseline variant's staged sums associate differently from the batched
  // chain, so the width-1 residual differs: the match shows the width
  // reached the rank.
  auto make = [](int width) {
    auto cfg = small_mms();
    cfg.scatter = physics::ScatterMode::kSerial;
    cfg.variant = physics::KernelVariant::kBaseline;
    cfg.simd_width = width;
    return cfg;
  };
  physics::StokesFOProblem problem(make(4));
  physics::StokesFOProblem scalar(make(1));
  const std::size_t n = problem.n_dofs();
  std::vector<double> U = problem.mms_exact();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    U[i] += 0.01 * std::sin(0.1 * static_cast<double>(i));
    x[i] = std::cos(0.3 * static_cast<double>(i));
  }
  std::vector<double> F, Jx, F_scalar;
  problem.residual(U, F);
  problem.apply_jacobian(U, x, Jx);
  scalar.residual(U, F_scalar);
  const DistEval d = dist_evaluate(problem, 1, false, U, x);
  std::size_t width_changed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (problem.dof_map().is_dirichlet_dof(i)) continue;
    ASSERT_EQ(d.F[i], F[i]) << "residual dof " << i;
    ASSERT_EQ(d.Jx[i], Jx[i]) << "tangent dof " << i;
    width_changed += F[i] != F_scalar[i] ? 1 : 0;
  }
  EXPECT_GT(width_changed, 0u);
}

TEST(DistSimd, OverlapIsBitIdenticalWhenInteriorPacksReadBoundaryRows) {
  auto cfg = small_mms();
  cfg.simd_width = 4;
  physics::StokesFOProblem problem(cfg);
  const std::size_t n = problem.n_dofs();
  std::vector<double> U = problem.mms_exact();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    U[i] += 0.01 * std::sin(0.1 * static_cast<double>(i));
    x[i] = std::cos(0.3 * static_cast<double>(i));
  }
  bool crossed = false;
  for (const int ranks : {2, 7}) {
    const DistEval blocking = dist_evaluate(problem, ranks, false, U, x);
    const DistEval overlap = dist_evaluate(problem, ranks, true, U, x);
    crossed = crossed || overlap.interior_pack_crosses;
    for (std::size_t d = 0; d < n; ++d) {
      ASSERT_EQ(blocking.F[d], overlap.F[d]) << "ranks " << ranks << " dof " << d;
      ASSERT_EQ(blocking.Jx[d], overlap.Jx[d])
          << "ranks " << ranks << " dof " << d;
    }
  }
  EXPECT_TRUE(crossed) << "no interior segment ends mid-pack: the case this "
                          "test exists for is not exercised";
}

// ---------------------------------------------------------------------------
// Full solve equivalence: the acceptance matrix
//   N in {1, 2, 4, 7} x {strips, blocks} x {assembled, matrix-free}
// ---------------------------------------------------------------------------

namespace {

void check_solve(const physics::StokesFOProblem& problem,
                 const std::vector<double>& ref, int ranks,
                 dist::Decomp decomp, linalg::JacobianMode mode,
                 bool overlap = false,
                 linalg::KrylovKind krylov = linalg::KrylovKind::kGmres) {
  dist::DistConfig cfg;
  cfg.ranks = ranks;
  cfg.decomp = decomp;
  cfg.jacobian = mode;
  cfg.overlap = overlap;
  cfg.newton = tight_newton();
  cfg.krylov = krylov;
  const auto res = dist::solve_distributed(problem, cfg);
  EXPECT_TRUE(res.converged)
      << "ranks=" << ranks << " " << dist::to_string(decomp) << " "
      << linalg::to_string(krylov);
  ASSERT_EQ(res.ranks.size(), static_cast<std::size_t>(ranks));
  std::string what = std::string(dist::to_string(decomp)) + "/" +
                     (mode == linalg::JacobianMode::kAssembled ? "assembled"
                                                               : "mf") +
                     "/" + linalg::to_string(krylov) +
                     "/ranks=" + std::to_string(ranks);
  expect_match(ref, res.U, what.c_str());
}

}  // namespace

TEST(DistSolve, MatrixFreeMatchesSerialAcrossRanksStrips) {
  physics::StokesFOProblem problem(small_mms());
  const auto ref = reference_solution(problem);
  for (const int ranks : {1, 2, 4, 7}) {
    check_solve(problem, ref, ranks, dist::Decomp::kStrips,
                linalg::JacobianMode::kMatrixFree);
  }
}

TEST(DistSolve, MatrixFreeMatchesSerialAcrossRanksBlocks) {
  physics::StokesFOProblem problem(small_mms());
  const auto ref = reference_solution(problem);
  for (const int ranks : {2, 4, 7}) {
    check_solve(problem, ref, ranks, dist::Decomp::kBlocks,
                linalg::JacobianMode::kMatrixFree);
  }
}

TEST(DistSolve, AssembledMatchesSerialAcrossRanks) {
  physics::StokesFOProblem problem(small_mms());
  const auto ref = reference_solution(problem);
  for (const int ranks : {1, 2, 4, 7}) {
    check_solve(problem, ref, ranks, dist::Decomp::kStrips,
                linalg::JacobianMode::kAssembled);
  }
  check_solve(problem, ref, 4, dist::Decomp::kBlocks,
              linalg::JacobianMode::kAssembled);
}

TEST(DistSolve, OverlapSolveMatchesToo) {
  physics::StokesFOProblem problem(small_mms());
  const auto ref = reference_solution(problem);
  check_solve(problem, ref, 4, dist::Decomp::kStrips,
              linalg::JacobianMode::kMatrixFree, /*overlap=*/true);
  check_solve(problem, ref, 4, dist::Decomp::kBlocks,
              linalg::JacobianMode::kAssembled, /*overlap=*/true);
}

TEST(DistSimd, MatrixFreeSolveMatchesSerialAtNativeWidth) {
  auto cfg = small_mms(200.0);
  cfg.simd_width = pk::kSimdNativeWidth;
  physics::StokesFOProblem problem(cfg);
  const auto ref = reference_solution(problem);
  for (const int ranks : {2, 4, 7}) {
    check_solve(problem, ref, ranks, dist::Decomp::kStrips,
                linalg::JacobianMode::kMatrixFree);
  }
}

// ---------------------------------------------------------------------------
// Pipelined-Krylov equivalence: the same acceptance matrix with the fused
// single-reduction GMRES inside Newton.  The contract is unchanged — the
// converged distributed solution matches the serial reference within 1e-10
// relative per dof — because pipelining only restructures the reductions,
// never the mathematics the convergence test hangs off.
// ---------------------------------------------------------------------------

TEST(DistSolve, PipelinedMatrixFreeMatchesSerialAcrossRanksStrips) {
  physics::StokesFOProblem problem(small_mms());
  const auto ref = reference_solution(problem);
  for (const int ranks : {1, 2, 4, 7}) {
    check_solve(problem, ref, ranks, dist::Decomp::kStrips,
                linalg::JacobianMode::kMatrixFree, /*overlap=*/false,
                linalg::KrylovKind::kPipeGmres);
  }
}

TEST(DistSolve, PipelinedMatrixFreeMatchesSerialAcrossRanksBlocks) {
  physics::StokesFOProblem problem(small_mms());
  const auto ref = reference_solution(problem);
  for (const int ranks : {2, 4, 7}) {
    check_solve(problem, ref, ranks, dist::Decomp::kBlocks,
                linalg::JacobianMode::kMatrixFree, /*overlap=*/false,
                linalg::KrylovKind::kPipeGmres);
  }
}

TEST(DistSolve, PipelinedAssembledMatchesSerialAcrossRanks) {
  physics::StokesFOProblem problem(small_mms());
  const auto ref = reference_solution(problem);
  for (const int ranks : {1, 2, 4, 7}) {
    check_solve(problem, ref, ranks, dist::Decomp::kStrips,
                linalg::JacobianMode::kAssembled, /*overlap=*/false,
                linalg::KrylovKind::kPipeGmres);
  }
  check_solve(problem, ref, 4, dist::Decomp::kBlocks,
              linalg::JacobianMode::kAssembled, /*overlap=*/false,
              linalg::KrylovKind::kPipeGmres);
}

TEST(DistSolve, PipelinedOverlapSolveIsBitIdenticalToNonOverlap) {
  // With pipelining the reduction and the halo'd operator apply run
  // concurrently — but the combine stays rank-ordered and the overlap
  // split was proven bit-identical at the residual level, so the FULL
  // solve must not differ by a single bit either.
  physics::StokesFOProblem problem(small_mms());
  const auto ref = reference_solution(problem);

  auto run = [&](bool overlap) {
    dist::DistConfig cfg;
    cfg.ranks = 4;
    cfg.decomp = dist::Decomp::kStrips;
    cfg.jacobian = linalg::JacobianMode::kMatrixFree;
    cfg.overlap = overlap;
    cfg.newton = tight_newton();
    cfg.krylov = linalg::KrylovKind::kPipeGmres;
    const auto res = dist::solve_distributed(problem, cfg);
    EXPECT_TRUE(res.converged) << "overlap=" << overlap;
    return res.U;
  };
  const auto U_block = run(false);
  const auto U_over = run(true);
  ASSERT_EQ(U_block.size(), U_over.size());
  for (std::size_t d = 0; d < U_block.size(); ++d) {
    ASSERT_EQ(U_block[d], U_over[d])
        << "overlap changed dof " << d << " — scheduling leaked into math";
  }
  expect_match(ref, U_over, "pipelined overlap, 4 strips");
}

// ---------------------------------------------------------------------------
// Bitwise Newton-history pin at `--simd off`: the first four steps of the
// 200 km matrix-free solve on 2 strips (block-Jacobi), each ||F|| as the
// IEEE bits recorded before the Subdomain ran through the element engine
// (the serial twin is in test_jfnk).  Any reassociation of the width-1
// kernels, the staged chain or the scatter order breaks it.
// ---------------------------------------------------------------------------

TEST(NewtonHistoryPin, TwoRankStripsMatrixFreeAtWidthOne) {
  physics::StokesFOConfig cfg;
  cfg.dx_m = 200.0e3;
  cfg.n_layers = 4;
  cfg.simd_width = 1;
  cfg.jacobian = linalg::JacobianMode::kMatrixFree;
  physics::StokesFOProblem problem(cfg);
  dist::DistConfig d;
  d.ranks = 2;
  d.decomp = dist::Decomp::kStrips;
  d.jacobian = linalg::JacobianMode::kMatrixFree;
  d.newton.max_iters = 4;
  const auto U0 = problem.analytic_initial_guess();
  const auto res = dist::solve_distributed(problem, d, &U0);
  const std::vector<double>& history = res.ranks.at(0).newton.history;
  const std::uint64_t pinned[] = {0x43573e4593e896eaull, 0x4349f692f6ac38e6ull,
                                  0x43423f647bcd5ca1ull, 0x43387792fd2fad49ull,
                                  0x43313ab0f587d3c4ull};
  ASSERT_EQ(history.size(), std::size(pinned));
  for (std::size_t i = 0; i < history.size(); ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &history[i], sizeof bits);
    EXPECT_EQ(bits, pinned[i]) << "Newton step " << i << ": ||F|| = "
                               << history[i];
  }
}

// The same bitwise pin on the solve_dist4 shape (4 strips, halo overlap,
// PIPE-GMRES, block-Jacobi, matrix-free) and a 7-rank blocks classic-GMRES
// twin, on the 150 km / 4-layer dome: each ||F|| as IEEE bits, the Krylov
// iteration total, rank 0's allreduce count and a hash of the gathered U.
// Recorded while every rank still ran its solvers on global-extent vectors,
// so they pin that the owned-extent layout changes no floating-point result.

namespace {

struct DistPin {
  std::vector<std::uint64_t> history_bits;
  std::size_t linear_iters;
  std::size_t allreduces;
  std::uint64_t u_hash;
};

void expect_dist_pin(int ranks, dist::Decomp decomp, bool overlap,
                     linalg::KrylovKind krylov, const DistPin& pin) {
  physics::StokesFOConfig cfg;
  cfg.dx_m = 150.0e3;
  cfg.n_layers = 4;
  cfg.simd_width = 1;
  cfg.jacobian = linalg::JacobianMode::kMatrixFree;
  physics::StokesFOProblem problem(cfg);
  dist::DistConfig d;
  d.ranks = ranks;
  d.decomp = decomp;
  d.overlap = overlap;
  d.jacobian = linalg::JacobianMode::kMatrixFree;
  d.krylov = krylov;
  d.precond = "block-jacobi";
  d.newton.max_iters = 4;
  const auto U0 = problem.analytic_initial_guess();
  const auto res = dist::solve_distributed(problem, d, &U0);
  const nonlinear::NewtonResult& nr = res.ranks.at(0).newton;
  ASSERT_EQ(nr.history.size(), pin.history_bits.size());
  for (std::size_t i = 0; i < nr.history.size(); ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &nr.history[i], sizeof bits);
    EXPECT_EQ(bits, pin.history_bits[i])
        << "Newton step " << i << ": 0x" << std::hex << bits;
  }
  EXPECT_EQ(nr.total_linear_iters, pin.linear_iters);
  EXPECT_EQ(res.ranks.at(0).comm.allreduces, pin.allreduces);
  const std::uint64_t h =
      util::fnv1a64(res.U.data(), res.U.size() * sizeof(double));
  EXPECT_EQ(h, pin.u_hash) << "final U: 0x" << std::hex << h;
}

}  // namespace

TEST(NewtonHistoryPin, FourRankStripsPipeGmresOverlapAtWidthOne) {
  expect_dist_pin(4, dist::Decomp::kStrips, /*overlap=*/true,
                  linalg::KrylovKind::kPipeGmres,
                  {{0x43531f757379570full, 0x43373b5109f5483cull,
                    0x432c5509ea899ab3ull, 0x4324d13aecdb7fd1ull,
                    0x43219d229c48348bull},
                   879,
                   912,
                   0x24f38b58266c2f3eull});
}

TEST(NewtonHistoryPin, SevenRankBlocksClassicGmresAtWidthOne) {
  expect_dist_pin(7, dist::Decomp::kBlocks, /*overlap=*/false,
                  linalg::KrylovKind::kGmres,
                  {{0x43531f757379570full, 0x43373b5109f5490full,
                    0x432c5509ea899bcaull, 0x4324d13aecdb81fdull,
                    0x43219d229c4837acull},
                   879,
                   43348,
                   0xc98fd6c29796a2baull});
}

TEST(DistSolve, RankVectorsHaveOwnedExtent) {
  // Each rank's Newton and Krylov vectors hold only its owned entries; a
  // stray global-extent vector must throw instead of being summed or
  // applied on the wrong entries.
  physics::StokesFOProblem problem(small_mms());
  const std::size_t n = problem.n_dofs();
  const std::vector<double> U = problem.mms_exact();
  for (const int ranks : {2, 4, 7}) {
    const auto part = dist::make_partition(problem.mesh().base(), ranks,
                                           dist::Decomp::kStrips);
    dist::CommWorld world(ranks);
    std::atomic<std::size_t> covered{0};
    std::atomic<int> refused{0};
    pk::ThreadPool::parallel_tasks(
        static_cast<std::size_t>(ranks), [&](std::size_t r) {
          dist::Communicator comm(world, static_cast<int>(r));
          dist::Subdomain sub(problem, part, static_cast<int>(r));
          dist::HaloExchange halo_dof(comm, part, static_cast<int>(r),
                                      problem.mesh().levels(), 2, 0);
          dist::HaloExchange halo_blk(comm, part, static_cast<int>(r),
                                      problem.mesh().levels(), 4, 8);
          dist::RankContext ctx;
          dist::RankStokesProblem rp(sub, halo_dof, halo_blk, comm,
                                     linalg::JacobianMode::kMatrixFree,
                                     /*overlap=*/false, ctx);
          const std::size_t n_owned = sub.owned_dofs().size();
          EXPECT_EQ(rp.n_dofs(), n_owned);
          covered += n_owned;
          std::vector<double> Ur;
          dist::gather_owned(U, sub.owned_dofs(), Ur);
          const auto op = rp.jacobian_operator(Ur);
          EXPECT_EQ(op->rows(), n_owned);
          EXPECT_EQ(op->cols(), n_owned);

          // Every check fires before any communication, so all ranks throw
          // at the same point and none is left in a collective.
          const dist::DistInnerProduct ip(comm, n_owned);
          std::vector<double> out;
          EXPECT_THROW((void)rp.residual(U, out), mali::Error);
          EXPECT_THROW(op->apply(U, out), mali::Error);
          EXPECT_THROW((void)ip.dot(U, U), mali::Error);
          EXPECT_THROW((void)ip.dot(Ur, U), mali::Error);
          refused += 1;
        });
    EXPECT_EQ(covered.load(), n) << "owned extents must tile the dofs";
    EXPECT_EQ(refused.load(), ranks);
  }
}

TEST(DistSolve, NonlinearDomeProblemMatchesSerial) {
  // Full Glen-law nonlinearity + basal friction (no MMS shortcut): the
  // distributed Newton trajectory must land on the serial fixed point.
  physics::StokesFOConfig cfg;
  cfg.dx_m = 150.0e3;
  cfg.n_layers = 3;
  physics::StokesFOProblem problem(cfg);

  nonlinear::NewtonConfig ncfg;
  ncfg.max_iters = 12;
  ncfg.rel_tol = 1e-11;
  ncfg.gmres.rel_tol = 1e-11;
  ncfg.gmres.max_iters = 4000;
  ncfg.jacobian = linalg::JacobianMode::kMatrixFree;
  linalg::BlockJacobiPreconditioner M(2);
  std::vector<double> ref(problem.n_dofs(), 0.0);
  const auto r = nonlinear::NewtonSolver(ncfg).solve(problem, M, ref);
  ASSERT_TRUE(r.converged);

  dist::DistConfig dcfg;
  dcfg.ranks = 4;
  dcfg.decomp = dist::Decomp::kBlocks;
  dcfg.newton = ncfg;
  const auto res = dist::solve_distributed(problem, dcfg);
  EXPECT_TRUE(res.converged);
  expect_match(ref, res.U, "nonlinear dome, 4 blocks");
}

TEST(DistSolve, ReportsAreFilledAndHalosActive) {
  physics::StokesFOProblem problem(small_mms());
  dist::DistConfig cfg;
  cfg.ranks = 4;
  cfg.newton = tight_newton();
  const auto res = dist::solve_distributed(problem, cfg);
  ASSERT_EQ(res.ranks.size(), 4u);
  std::size_t cells = 0;
  for (const auto& rep : res.ranks) {
    cells += rep.owned_cells;
    EXPECT_GT(rep.total_s, 0.0);
    EXPECT_GT(rep.kernel_s, 0.0);
    EXPECT_GT(rep.n_neighbors, 0);
    EXPECT_GT(rep.halo.exchanges, 0u);
    EXPECT_GT(rep.halo.bytes_sent, 0u);
    EXPECT_EQ(rep.newton.converged, res.converged);
  }
  EXPECT_EQ(cells, problem.mesh().base().n_cells());
}

TEST(DistSolve, InitialGuessSeedIsHonored) {
  // Seeding with the converged solution must converge immediately (the
  // first residual already meets the relative tolerance).
  physics::StokesFOProblem problem(small_mms());
  dist::DistConfig cfg;
  cfg.ranks = 2;
  cfg.newton = tight_newton();
  const auto first = dist::solve_distributed(problem, cfg);
  ASSERT_TRUE(first.converged);
  // The seeded run's initial norm IS the converged norm, so the relative
  // test can never re-trigger; give it an absolute tolerance just above
  // the first run's converged residual and expect zero Newton steps.
  dist::DistConfig cfg2 = cfg;
  cfg2.newton.abs_tol = std::max(1e-12, 10.0 * first.residual_norm);
  const auto second = dist::solve_distributed(problem, cfg2, &first.U);
  EXPECT_TRUE(second.converged);
  EXPECT_EQ(second.newton_iters, 0);
}

TEST(DistSolve, RankFailurePropagatesWithoutDeadlock) {
  // n_parts > n_cells triggers the partition guard inside
  // solve_distributed before any rank spawns — and must throw, not hang.
  physics::StokesFOProblem problem(small_mms(400.0, 2));
  dist::DistConfig cfg;
  cfg.ranks = 100000;
  EXPECT_THROW((void)dist::solve_distributed(problem, cfg),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Comm guards: integrity checks and bounded waits (DESIGN.md §16).  The
// guard contract has two halves — a dead or straggling peer surfaces as a
// TYPED CommFaultError instead of a hang, and arming the guards on a clean
// run changes nothing, not even a bit.
// ---------------------------------------------------------------------------

TEST(CommGuards, BoundedRecvTimesOutTypedInsteadOfHanging) {
  dist::CommWorld world(2);
  dist::CommGuardConfig g;
  g.timeout_s = 0.02;
  world.set_guards(g);
  resilience::CommFault seen;
  pk::ThreadPool::parallel_tasks(2, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    if (r == 0) return;  // dead peer: the promised message never arrives
    try {
      (void)comm.recv(0, /*tag=*/7);
      ADD_FAILURE() << "recv from a dead peer must not return";
    } catch (const resilience::CommFaultError& e) {
      seen = e.fault();
    }
  });
  EXPECT_EQ(seen.type, resilience::CommFaultType::kTimeout);
  EXPECT_EQ(seen.site, resilience::CommSite::kHaloRecv);
  EXPECT_EQ(seen.rank, 1);
}

TEST(CommGuards, BoundedBarrierTimesOutTyped) {
  dist::CommWorld world(2);
  dist::CommGuardConfig g;
  g.timeout_s = 0.02;
  world.set_guards(g);
  resilience::CommFault seen;
  pk::ThreadPool::parallel_tasks(2, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    if (r == 0) return;  // never arrives at the barrier
    try {
      comm.barrier();
      ADD_FAILURE() << "barrier with a dead peer must not complete";
    } catch (const resilience::CommFaultError& e) {
      seen = e.fault();
    }
  });
  EXPECT_EQ(seen.type, resilience::CommFaultType::kTimeout);
  EXPECT_EQ(seen.site, resilience::CommSite::kBarrier);
}

TEST(CommGuards, ChecksumCatchesInFlightCorruption) {
  dist::CommWorld world(2);
  dist::CommGuardConfig g;
  g.checksums = true;
  g.timeout_s = 0.5;  // bounded so a miswired test fails, not hangs
  world.set_guards(g);
  resilience::CommFault seen;
  pk::ThreadPool::parallel_tasks(2, [&](std::size_t r) {
    if (r == 0) {
      // The corrupt flag perturbs the payload AFTER the frame was computed
      // — exactly an in-flight flip.
      world.send(0, 1, /*tag=*/3, {1.0, 2.0, 3.0}, /*corrupt=*/true);
      return;
    }
    try {
      (void)world.recv(0, 1, 3);
      ADD_FAILURE() << "corrupted frame must not verify";
    } catch (const resilience::CommFaultError& e) {
      seen = e.fault();
    }
  });
  EXPECT_EQ(seen.type, resilience::CommFaultType::kChecksumMismatch);
  EXPECT_EQ(seen.site, resilience::CommSite::kHaloRecv);
  EXPECT_EQ(seen.rank, 1);
  EXPECT_EQ(seen.source_rank, 0);
}

TEST(CommGuards, CleanFramedSendRecvRoundTripsExactly) {
  dist::CommWorld world(2);
  dist::CommGuardConfig g;
  g.checksums = true;
  g.timeout_s = 0.5;
  world.set_guards(g);
  const std::vector<double> payload{1.5, -2.25, 3.0e-17, 0.0};
  std::vector<double> got;
  pk::ThreadPool::parallel_tasks(2, [&](std::size_t r) {
    if (r == 0) {
      world.send(0, 1, 3, payload);
    } else {
      got = world.recv(0, 1, 3);
    }
  });
  EXPECT_EQ(got, payload) << "the checksum frame must be stripped exactly";
}

TEST(CommGuards, DroppedReductionDepositIsTypedIdenticallyOnEveryRank) {
  constexpr int kRanks = 3;
  dist::CommWorld world(kRanks);
  dist::CommGuardConfig g;
  g.checksums = true;  // generation counting rides the checksum switch
  g.timeout_s = 0.5;
  world.set_guards(g);
  std::vector<resilience::CommFault> seen(kRanks);
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    try {
      // Rank 1's deposit is lost on the wire; the combine must surface an
      // identical lost-contribution fault on every rank (the collective
      // fault agreement needs them to already agree).
      (void)world.allreduce_sum(static_cast<int>(r), 1.0,
                                /*skip_deposit=*/r == 1);
      ADD_FAILURE() << "combine with a missing deposit must not return";
    } catch (const resilience::CommFaultError& e) {
      seen[r] = e.fault();
    }
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(seen[static_cast<std::size_t>(r)].type,
              resilience::CommFaultType::kLostContribution);
    EXPECT_EQ(seen[static_cast<std::size_t>(r)].site,
              resilience::CommSite::kAllreduce);
    EXPECT_EQ(seen[static_cast<std::size_t>(r)].source_rank, 1)
        << "the fault must name the missing depositor";
    EXPECT_EQ(seen[static_cast<std::size_t>(r)].message, seen[0].message)
        << "detection must be bit-identical across ranks";
  }
}

TEST(CommGuards, CleanSolveIsBitIdenticalWithGuardsOn) {
  // Arming checksums + bounded waits must not move a single bit of a clean
  // solve: the frames are stripped before use and the combine order is
  // untouched.
  physics::StokesFOProblem problem(small_mms());
  auto run = [&](bool guarded) {
    dist::DistConfig cfg;
    cfg.ranks = 4;
    cfg.newton = tight_newton();
    if (guarded) {
      cfg.guards.checksums = true;
      cfg.guards.timeout_s = 10.0;
    }
    const auto res = dist::solve_distributed(problem, cfg);
    EXPECT_TRUE(res.converged);
    return res.U;
  };
  const auto plain = run(false);
  const auto guarded = run(true);
  ASSERT_EQ(plain.size(), guarded.size());
  for (std::size_t d = 0; d < plain.size(); ++d) {
    ASSERT_EQ(plain[d], guarded[d])
        << "guards changed dof " << d << " — framing leaked into the math";
  }
}

// ---------------------------------------------------------------------------
// Abort propagation through the split-phase paths: a posted-but-unfinished
// allreduce and an overlapped halo import must unwind via CommAborted on
// every blocked rank when any rank poisons the world — finish() can never
// strand a rank after abort.
// ---------------------------------------------------------------------------

TEST(Communicator, AbortUnwindsSplitPhaseAllreduceFinishOnAllRanks) {
  constexpr int kRanks = 3;
  dist::CommWorld world(kRanks);
  std::atomic<int> aborted{0};
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    try {
      if (r == 0) {
        world.abort();  // dies between the others' post and finish
      } else {
        comm.allreduce_post({static_cast<double>(r), 1.0});
        (void)comm.allreduce_finish();
        ADD_FAILURE() << "finish must not complete without rank 0's deposit";
      }
    } catch (const dist::CommAborted&) {
      ++aborted;
    }
  });
  EXPECT_EQ(aborted.load(), kRanks - 1)
      << "every rank blocked in allreduce_finish must unwind via CommAborted";
}

TEST(Communicator, AbortUnwindsOverlappedHaloImportWithoutDeadlock) {
  HaloFixture f;
  constexpr int kRanks = 4;
  constexpr std::size_t kLevels = 2;
  const auto part = mesh::partition_strips(f.grid, kRanks);
  const std::size_t n = f.grid.n_nodes() * kLevels * 2;
  dist::CommWorld world(kRanks);
  std::atomic<int> aborted{0};
  std::atomic<int> completed{0};
  pk::ThreadPool::parallel_tasks(kRanks, [&](std::size_t r) {
    dist::Communicator comm(world, static_cast<int>(r));
    if (r == 0) {
      world.abort();  // rank 0 dies before posting its halo sends
      return;
    }
    dist::HaloExchange halo(comm, part, static_cast<int>(r), kLevels, 2, 0);
    std::vector<double> x(n, 1.0);
    try {
      halo.post_import(x);
      halo.finish_import(x);
      ++completed;  // a rank with no rank-0 traffic may legitimately finish
    } catch (const dist::CommAborted&) {
      ++aborted;
    }
  });
  // The key assertion is that this test RETURNS: nobody may hang waiting
  // for rank 0's messages.  Rank 1 (rank 0's halo neighbor) can never
  // complete its import, so at least one rank must take the abort path.
  EXPECT_GE(aborted.load(), 1);
  EXPECT_EQ(aborted.load() + completed.load(), kRanks - 1);
}

// ---------------------------------------------------------------------------
// The fault matrix: every injected kind at every comm site, across rank
// counts.  The acceptance contract (ISSUE 9): each case either RECOVERS —
// converges within 1e-10/dof of the clean solution through the coordinated
// restart loop — or exits with a typed CommFaultError.  It never hangs
// (the bounded waits turn every silent loss into a typed fault) and never
// returns a silently wrong solution (checksums + generation counts).
// ---------------------------------------------------------------------------

namespace {

void run_fault_matrix(int ranks) {
  physics::StokesFOProblem problem(small_mms());
  const auto ref = reference_solution(problem);
  constexpr resilience::CommFaultKind kKinds[] = {
      resilience::CommFaultKind::kDrop, resilience::CommFaultKind::kCorrupt,
      resilience::CommFaultKind::kDelay,
      resilience::CommFaultKind::kRankDeath,
      resilience::CommFaultKind::kStraggler};
  constexpr resilience::CommSite kSites[] = {
      resilience::CommSite::kHaloSend, resilience::CommSite::kHaloRecv,
      resilience::CommSite::kAllreduce, resilience::CommSite::kBarrier};
  for (const auto kind : kKinds) {
    for (const auto site : kSites) {
      dist::DistConfig cfg;
      cfg.ranks = ranks;
      cfg.newton = tight_newton();
      cfg.guards.checksums = true;
      cfg.guards.timeout_s = 0.15;
      cfg.max_restarts = 2;
      cfg.checkpoint = true;
      cfg.inject_comm_fault = true;
      cfg.comm_fault.kind = kind;
      cfg.comm_fault.site = site;
      // The barrier site is evaluated far less often than the halo and
      // reduction sites; fire on its first evaluation so the injection
      // lands inside every solve.
      cfg.comm_fault.at_evaluation =
          site == resilience::CommSite::kBarrier ? 0 : 1;
      const std::string what = std::string("comm:") +
                               resilience::to_string(kind) + ":" +
                               resilience::to_string(site) +
                               " @ ranks=" + std::to_string(ranks);
      try {
        const auto res = dist::solve_distributed(problem, cfg);
        // Recovered (possibly through restarts): the solution must be the
        // clean one — a fault may cost retries, never accuracy.
        EXPECT_TRUE(res.converged) << what;
        expect_match(ref, res.U, what.c_str());
      } catch (const resilience::CommFaultError& e) {
        // Typed exit after the restart budget: acceptable, and the record
        // must actually describe a fault.
        EXPECT_NE(e.fault().type, resilience::CommFaultType::kNone) << what;
      }
      // Any other exception (or a hang) fails the test.
    }
  }
}

}  // namespace

TEST(CommFaultMatrix, EveryKindAtEverySiteRecoversOrExitsTypedAt2Ranks) {
  run_fault_matrix(2);
}

TEST(CommFaultMatrix, EveryKindAtEverySiteRecoversOrExitsTypedAt4Ranks) {
  run_fault_matrix(4);
}

TEST(CommFaultMatrix, EveryKindAtEverySiteRecoversOrExitsTypedAt7Ranks) {
  run_fault_matrix(7);
}

// ---------------------------------------------------------------------------
// Coordinated recovery specifics: restart accounting, checkpoint rollback,
// budget exhaustion, and the solver-fault flavour of the restart loop.
// ---------------------------------------------------------------------------

TEST(DistSolve, OneShotCommFaultRecoversThroughCoordinatedRestart) {
  physics::StokesFOProblem problem(small_mms());
  const auto ref = reference_solution(problem);
  dist::DistConfig cfg;
  cfg.ranks = 4;
  cfg.newton = tight_newton();
  cfg.guards.checksums = true;
  cfg.guards.timeout_s = 0.2;
  cfg.max_restarts = 2;
  cfg.checkpoint = true;
  cfg.inject_comm_fault = true;
  cfg.comm_fault = resilience::comm_fault_spec_from_string(
      "comm:corrupt:allreduce:2");
  const auto res = dist::solve_distributed(problem, cfg);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.restarts, 1) << "the injected fault must have cost a restart";
  ASSERT_FALSE(res.recovery.empty());
  EXPECT_TRUE(res.recovery.attempts[0].comm_fault)
      << "the failed attempt must carry the agreed typed record";
  EXPECT_EQ(res.recovery.attempts[0].fault.type,
            resilience::CommFaultType::kChecksumMismatch);
  expect_match(ref, res.U, "recovered corrupt:allreduce, 4 ranks");
}

TEST(DistSolve, RepeatCommFaultExhaustsRestartBudgetAndExitsTyped) {
  physics::StokesFOProblem problem(small_mms());
  dist::DistConfig cfg;
  cfg.ranks = 2;
  cfg.newton = tight_newton();
  cfg.guards.checksums = true;
  cfg.guards.timeout_s = 0.2;
  cfg.max_restarts = 1;
  cfg.checkpoint = true;
  cfg.inject_comm_fault = true;
  cfg.comm_fault = resilience::comm_fault_spec_from_string(
      "comm:corrupt:allreduce:1:repeat");
  dist::DistRecoveryLog rlog;
  bool threw = false;
  try {
    (void)dist::solve_distributed(problem, cfg, nullptr, &rlog);
  } catch (const resilience::CommFaultError& e) {
    threw = true;
    EXPECT_EQ(e.fault().type, resilience::CommFaultType::kChecksumMismatch);
  }
  EXPECT_TRUE(threw) << "a permanent fault must exit typed, not succeed";
  EXPECT_EQ(rlog.size(), 2u)
      << "the log must record the initial attempt and the failed restart";
  for (const auto& a : rlog.attempts) {
    EXPECT_TRUE(a.comm_fault);
    EXPECT_FALSE(a.error.empty());
  }
  EXPECT_FALSE(rlog.tail().empty());
}

TEST(DistSolve, SolverFaultOnDistPathRecoversThroughRestart) {
  // The restart loop also absorbs solver-level faults (NaN injection into
  // the guarded residual): every rank throws the identical typed error in
  // lockstep, the world aborts, and the next attempt runs clean.
  physics::StokesFOProblem problem(small_mms());
  const auto ref = reference_solution(problem);
  dist::DistConfig cfg;
  cfg.ranks = 2;
  cfg.newton = tight_newton();
  cfg.max_restarts = 2;
  cfg.checkpoint = true;
  cfg.inject_solver_fault = true;
  cfg.solver_fault = resilience::fault_spec_from_string("nan:residual:1");
  const auto res = dist::solve_distributed(problem, cfg);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.restarts, 1);
  ASSERT_FALSE(res.recovery.empty());
  EXPECT_FALSE(res.recovery.attempts[0].comm_fault)
      << "a solver fault is not a comm fault in the log";
  expect_match(ref, res.U, "recovered nan:residual, 2 ranks");
}
