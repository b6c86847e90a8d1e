// Tests for the pk execution layer: parallel_for on both backends, tag
// dispatch, launch-bounds plumbing, the thread pool and its team regions.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "portability/launch_bounds.hpp"
#include "portability/parallel.hpp"
#include "portability/thread_pool.hpp"

namespace pk = mali::pk;

TEST(ThreadPool, CoversFullRange) {
  pk::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_range(0, 100, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  pk::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_range(5, 5, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptions) {
  pk::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_range(0, 10,
                                   [](std::size_t b, std::size_t) {
                                     if (b == 0) throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  // The pool survives and remains usable.
  std::atomic<int> count{0};
  pool.parallel_range(0, 8, [&](std::size_t b, std::size_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 8);
}

namespace {

constexpr std::size_t kPoolThreads = 4;

/// Runs one dispatch over [0, n) on `pool` and expects every index visited
/// exactly once, by chunks inside the range.
void expect_exact_cover(pk::ThreadPool& pool, std::size_t n) {
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_range(0, n, [&](std::size_t b, std::size_t e) {
    ASSERT_LT(b, e);
    ASSERT_LE(e, n);
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "n " << n << " index " << i;
  }
}

}  // namespace

TEST(ThreadPool, VisitsEveryIndexOnceAcrossChunkCounts) {
  pk::ThreadPool pool(kPoolThreads);
  ASSERT_EQ(pool.size(), kPoolThreads);
  for (std::size_t n : {std::size_t{1}, kPoolThreads - 1, kPoolThreads,
                        4 * kPoolThreads + 1, std::size_t{100000}}) {
    expect_exact_cover(pool, n);
  }
}

TEST(ThreadPool, ExceptionFromFirstOrLastChunkPropagates) {
  pk::ThreadPool pool(kPoolThreads);
  const std::size_t n = 1000;
  EXPECT_THROW(pool.parallel_range(0, n,
                                   [](std::size_t b, std::size_t) {
                                     if (b == 0) throw std::runtime_error("first");
                                   }),
               std::runtime_error);
  expect_exact_cover(pool, n);
  EXPECT_THROW(pool.parallel_range(0, n,
                                   [n](std::size_t, std::size_t e) {
                                     if (e == n) throw std::logic_error("last");
                                   }),
               std::logic_error);
  expect_exact_cover(pool, n);
}

TEST(ThreadPool, NestedDispatchRunsInlineAndCovers) {
  // An inner dispatch from a chunk body must not wait on the pool its own
  // chunk occupies.
  constexpr std::size_t kOuter = 37, kInner = 101;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pk::parallel_for("outer", pk::RangePolicy<pk::Threads>(kOuter), [&](int o) {
    pk::parallel_for("inner", pk::RangePolicy<pk::Threads>(kInner), [&](int i) {
      hits[static_cast<std::size_t>(o) * kInner + static_cast<std::size_t>(i)]
          .fetch_add(1);
    });
  });
  for (std::size_t k = 0; k < hits.size(); ++k) EXPECT_EQ(hits[k].load(), 1) << k;

  pk::ThreadPool pool(kPoolThreads);
  std::atomic<std::size_t> inner_total{0};
  pool.parallel_range(0, kOuter, [&](std::size_t b, std::size_t e) {
    for (std::size_t o = b; o < e; ++o) {
      pool.parallel_range(0, kInner, [&](std::size_t ib, std::size_t ie) {
        inner_total += ie - ib;
      });
    }
  });
  EXPECT_EQ(inner_total.load(), kOuter * kInner);
}

TEST(ThreadPool, ConcurrentCallersOnTheGlobalPoolBothCover) {
  // Two dedicated threads (as in-process ranks are) dispatch at once: one
  // holds the pool, the other runs its loops inline.
  constexpr std::size_t kN = 4096;
  constexpr int kRounds = 200;
  std::vector<std::vector<std::atomic<int>>> hits(2);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
  pk::ThreadPool::parallel_tasks(2, [&](std::size_t t) {
    for (int r = 0; r < kRounds; ++r) {
      pk::parallel_for("concurrent", pk::RangePolicy<pk::Threads>(kN),
                       [&](int i) {
                         hits[t][static_cast<std::size_t>(i)].fetch_add(1);
                       });
    }
  });
  for (std::size_t t = 0; t < 2; ++t) {
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[t][i].load(), kRounds) << "caller " << t << " index " << i;
    }
  }
}

TEST(ThreadPool, ManyTinyBackToBackDispatchesComplete) {
  pk::ThreadPool pool(kPoolThreads);
  constexpr std::size_t kDispatches = 100000;
  std::atomic<std::size_t> visited{0};
  for (std::size_t d = 0; d < kDispatches; ++d) {
    pool.parallel_range(d, d + 1 + d % 5, [&](std::size_t b, std::size_t e) {
      visited.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  // Lengths cycle 1..5: 3 per dispatch on average.
  EXPECT_EQ(visited.load(), 3 * kDispatches);
}

TEST(ThreadPool, ParkedWorkersWakeForALongLoop) {
  // After an idle gap the workers have parked; a loop long enough for the
  // caller to wake them still covers its range exactly once.
  pk::ThreadPool pool(kPoolThreads);
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::vector<std::atomic<int>> hits(64);
    pool.parallel_range(0, hits.size(), [&](std::size_t b, std::size_t e) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, SingleThreadPoolRunsOnTheCaller) {
  for (std::size_t n_threads : {0, 1}) {
    pk::ThreadPool pool(n_threads);
    EXPECT_EQ(pool.size(), 1u);
    const auto caller = std::this_thread::get_id();
    std::atomic<int> foreign{0};
    std::atomic<std::size_t> visited{0};
    pool.parallel_range(0, 1000, [&](std::size_t b, std::size_t e) {
      if (std::this_thread::get_id() != caller) foreign.fetch_add(1);
      visited += e - b;
    });
    EXPECT_EQ(foreign.load(), 0);
    EXPECT_EQ(visited.load(), 1000u);
  }
}

// ---------------------------------------------------------------------------
// Team regions: one member per pool thread, phases separated by barriers.
// ---------------------------------------------------------------------------

TEST(TeamRegion, EveryRankRunsOnceOnItsOwnThread) {
  pk::ThreadPool pool(kPoolThreads);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> runs(kPoolThreads);
    std::vector<std::thread::id> ids(kPoolThreads);
    std::atomic<int> wrong_size{0};
    pool.team([&](const pk::ThreadPool::Team& t) {
      if (t.size() != kPoolThreads) wrong_size.fetch_add(1);
      runs[t.rank()].fetch_add(1);
      ids[t.rank()] = std::this_thread::get_id();
    });
    ASSERT_EQ(wrong_size.load(), 0);
    for (std::size_t r = 0; r < kPoolThreads; ++r) {
      ASSERT_EQ(runs[r].load(), 1) << "rank " << r;
      for (std::size_t q = 0; q < r; ++q) ASSERT_NE(ids[q], ids[r]);
    }
    EXPECT_EQ(ids[0], std::this_thread::get_id()) << "the caller is rank 0";
  }
}

TEST(TeamRegion, BarrierPublishesEveryRanksWrites) {
  // Plain ints: each rank writes its own slot, and after a barrier every
  // rank reads all of them.  A missing happens-before is a TSan report.
  pk::ThreadPool pool(kPoolThreads);
  constexpr int kPhases = 500;
  std::vector<int> slot(kPoolThreads, 0);
  std::atomic<int> mismatches{0};
  pool.team([&](const pk::ThreadPool::Team& t) {
    for (int phase = 1; phase <= kPhases; ++phase) {
      slot[t.rank()] = phase * static_cast<int>(t.rank() + 1);
      t.barrier();
      for (std::size_t q = 0; q < t.size(); ++q) {
        if (slot[q] != phase * static_cast<int>(q + 1)) mismatches.fetch_add(1);
      }
      t.barrier();  // every read done before the next phase writes
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(TeamRegion, SlicesCoverTheRangeInRankOrder) {
  for (std::size_t size : {std::size_t{1}, std::size_t{3}, kPoolThreads}) {
    for (std::size_t n : {std::size_t{0}, std::size_t{2}, std::size_t{17}}) {
      pk::ThreadPool pool(size);
      std::vector<std::pair<std::size_t, std::size_t>> got(size);
      pool.team([&](const pk::ThreadPool::Team& t) {
        got[t.rank()] = t.slice(n);
      });
      std::size_t next = 0;
      for (const auto& [b, e] : got) {
        ASSERT_EQ(b, next);
        ASSERT_LE(e - b, n / size + 1);
        ASSERT_GE(e - b, n / size);
        next = e;
      }
      EXPECT_EQ(next, n);
    }
  }
}

TEST(TeamRegion, RunsAsTeamOfOneOnTheCallerInsideAChunk) {
  pk::ThreadPool pool(kPoolThreads);
  std::atomic<int> foreign{0}, not_single{0}, members{0};
  pool.parallel_range(0, 16, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const auto caller = std::this_thread::get_id();
      pool.team([&](const pk::ThreadPool::Team& t) {
        if (std::this_thread::get_id() != caller) foreign.fetch_add(1);
        if (t.rank() != 0 || t.size() != 1) not_single.fetch_add(1);
        t.barrier();  // does nothing
        members.fetch_add(1);
      });
    }
  });
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(not_single.load(), 0);
  EXPECT_EQ(members.load(), 16);

  // A region opened by a member of another region runs inline too.
  std::atomic<int> nested{0};
  pool.team([&](const pk::ThreadPool::Team& outer) {
    pool.team([&](const pk::ThreadPool::Team& inner) {
      if (inner.rank() == 0 && inner.size() == 1) nested.fetch_add(1);
    });
    outer.barrier();
  });
  EXPECT_EQ(nested.load(), static_cast<int>(kPoolThreads));
}

TEST(TeamRegion, RunsAsTeamOfOneWhileAnotherTaskHoldsThePool) {
  // Task 0 holds the pool with a region whose rank 0 waits for task 1;
  // task 1's region then runs inline on task 1's own thread.
  pk::ThreadPool pool(kPoolThreads);
  std::atomic<bool> held{false}, finished{false};
  std::size_t rank = 99, size = 99;
  bool on_caller = false;
  pk::ThreadPool::parallel_tasks(2, [&](std::size_t task) {
    if (task == 0) {
      pool.team([&](const pk::ThreadPool::Team& t) {
        if (t.rank() != 0) return;
        held.store(true);
        while (!finished.load()) std::this_thread::yield();
      });
      return;
    }
    while (!held.load()) std::this_thread::yield();
    const auto caller = std::this_thread::get_id();
    pool.team([&](const pk::ThreadPool::Team& t) {
      rank = t.rank();
      size = t.size();
      on_caller = std::this_thread::get_id() == caller;
    });
    finished.store(true);
  });
  EXPECT_EQ(rank, 0u);
  EXPECT_EQ(size, 1u);
  EXPECT_TRUE(on_caller);
}

TEST(TeamRegion, ThrowingMemberReleasesTheOthersAndRethrows) {
  pk::ThreadPool pool(kPoolThreads);
  for (std::size_t thrower : {std::size_t{0}, std::size_t{1},
                              kPoolThreads - 1}) {
    std::atomic<int> returned{0};
    EXPECT_THROW(pool.team([&](const pk::ThreadPool::Team& t) {
                   if (t.rank() == thrower) throw std::runtime_error("member");
                   // The thrower never arrives: these barriers must not
                   // wait for it.
                   for (int phase = 0; phase < 10; ++phase) t.barrier();
                   returned.fetch_add(1);
                 }),
                 std::runtime_error)
        << "thrower " << thrower;
    EXPECT_LE(returned.load(), static_cast<int>(kPoolThreads - 1));
    // The pool stays usable: a full region and a dispatch still run.
    std::vector<std::atomic<int>> runs(kPoolThreads);
    pool.team([&](const pk::ThreadPool::Team& t) {
      t.barrier();
      runs[t.rank()].fetch_add(1);
    });
    for (const auto& r : runs) ASSERT_EQ(r.load(), 1);
    expect_exact_cover(pool, 1000);
  }
}

TEST(TeamRegion, CompletesAfterTheWorkersParked) {
  // Past the 2 ms spin the workers sleep on the condition variable; the
  // region must wake them, since its caller waits for them in a barrier.
  pk::ThreadPool pool(kPoolThreads);
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::vector<std::atomic<int>> runs(kPoolThreads);
    pool.team([&](const pk::ThreadPool::Team& t) {
      t.barrier();
      runs[t.rank()].fetch_add(1);
      t.barrier();
    });
    for (const auto& r : runs) ASSERT_EQ(r.load(), 1);
  }
}

TEST(TeamRegion, SingleThreadPoolRunsOneMemberOnTheCaller) {
  for (std::size_t n_threads : {0, 1}) {
    pk::ThreadPool pool(n_threads);
    int members = 0;
    pool.team([&](const pk::ThreadPool::Team& t) {
      EXPECT_EQ(t.rank(), 0u);
      EXPECT_EQ(t.size(), 1u);
      t.barrier();
      ++members;
    });
    EXPECT_EQ(members, 1);
  }
}

TEST(ParallelFor, SerialBackend) {
  std::vector<int> out(50, 0);
  pk::parallel_for("t", pk::RangePolicy<pk::Serial>(50),
                   [&](int i) { out[static_cast<std::size_t>(i)] = i * 2; });
  for (int i = 0; i < 50; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], 2 * i);
}

TEST(ParallelFor, ThreadsBackend) {
  std::vector<std::atomic<int>> out(257);
  pk::parallel_for("t", pk::RangePolicy<pk::Threads>(257),
                   [&](int i) { out[static_cast<std::size_t>(i)] = i; });
  for (int i = 0; i < 257; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)].load(), i);
}

TEST(ParallelFor, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  const auto count = [&](int) { calls.fetch_add(1); };
  pk::parallel_for("s", pk::RangePolicy<pk::Serial>(0), count);
  pk::parallel_for("t", pk::RangePolicy<pk::Threads>(0), count);
  pk::parallel_for("o", pk::RangePolicy<pk::Threads>(40, 40), count);
  pk::parallel_for("f", 0, count);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, RangeWithOffset) {
  std::vector<int> touched(20, 0);
  pk::parallel_for("t", pk::RangePolicy<pk::Serial>(5, 15),
                   [&](int i) { touched[static_cast<std::size_t>(i)] = 1; });
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(touched[static_cast<std::size_t>(i)], (i >= 5 && i < 15) ? 1 : 0);
  }
}

// Tag dispatch, Albany-style.
struct TagA {};
struct TagB {};
struct TaggedFunctor {
  mutable std::atomic<int>* a;
  mutable std::atomic<int>* b;
  void operator()(const TagA&, int) const { a->fetch_add(1); }
  void operator()(const TagB&, int) const { b->fetch_add(3); }
};

TEST(ParallelFor, TagDispatchSelectsOverload) {
  std::atomic<int> a{0}, b{0};
  TaggedFunctor f{&a, &b};
  pk::parallel_for("a", pk::RangePolicy<pk::Serial, TagA>(10), f);
  EXPECT_EQ(a.load(), 10);
  EXPECT_EQ(b.load(), 0);
  pk::parallel_for("b", pk::RangePolicy<pk::Serial, TagB>(10), f);
  EXPECT_EQ(b.load(), 30);
  pk::parallel_for("bt", pk::RangePolicy<pk::Threads, TagB>(1000), f);
  EXPECT_EQ(a.load(), 10);
  EXPECT_EQ(b.load(), 3030);
}

TEST(ParallelFor, ThreadsRangeWithOffsetVisitsEachIndexOnce) {
  std::vector<std::atomic<int>> hits(3000);
  pk::parallel_for("t", pk::RangePolicy<pk::Threads>(700, 2900), [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 700 && i < 2900) ? 1 : 0) << i;
  }
}

TEST(ParallelFor, FlatRangeOverloadCoversZeroToN) {
  std::vector<std::atomic<int>> hits(257);
  pk::parallel_for("flat", 256, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::size_t i = 0; i < 256; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(hits[256].load(), 0);
}

TEST(LaunchBounds, CompileTimeToRuntime) {
  using LB = pk::LaunchBounds<128, 2>;
  constexpr auto cfg = pk::to_launch_config<LB>();
  EXPECT_EQ(cfg.max_threads, 128u);
  EXPECT_EQ(cfg.min_blocks, 2u);
  EXPECT_FALSE(cfg.is_default());
  constexpr auto dflt = pk::to_launch_config<pk::LaunchBounds<>>();
  EXPECT_TRUE(dflt.is_default());
}

TEST(LaunchBounds, PolicyCarriesBoundsWithoutChangingResult) {
  // On the CPU backends launch bounds are a hint carried by the policy
  // type: what a parallel_for writes must not depend on them.
  using Bounded = pk::RangePolicy<pk::Threads, void, pk::LaunchBounds<256, 4>>;
  static_assert(pk::to_launch_config<Bounded::launch_bounds>() ==
                pk::LaunchConfig{256, 4});
  static_assert(
      pk::to_launch_config<pk::RangePolicy<>::launch_bounds>().is_default());
  std::vector<long> plain(5000, 0), bounded(5000, 0);
  auto fill = [](std::vector<long>& out) {
    return [&out](int i) { out[static_cast<std::size_t>(i)] = 3L * i - 1; };
  };
  pk::parallel_for("p", pk::RangePolicy<pk::Threads>(5000), fill(plain));
  pk::parallel_for("b", Bounded(5000), fill(bounded));
  EXPECT_EQ(bounded, plain);
  EXPECT_EQ(plain[4999], 3L * 4999 - 1);
  EXPECT_EQ(Bounded(10, 25).size(), 15u);
}

// Backend-equivalence sweep over sizes.
class BackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalence, SameResultBothBackends) {
  const int n = GetParam();
  std::vector<double> serial(static_cast<std::size_t>(n)),
      threaded(static_cast<std::size_t>(n));
  auto fn = [](int i) { return 0.5 * i * i - 3.0 * i; };
  pk::parallel_for("s", pk::RangePolicy<pk::Serial>(static_cast<std::size_t>(n)),
                   [&](int i) { serial[static_cast<std::size_t>(i)] = fn(i); });
  pk::parallel_for("t", pk::RangePolicy<pk::Threads>(static_cast<std::size_t>(n)),
                   [&](int i) { threaded[static_cast<std::size_t>(i)] = fn(i); });
  EXPECT_EQ(serial, threaded);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BackendEquivalence,
                         ::testing::Values(1, 2, 17, 100, 1023, 4096));
