// Tests for the pk execution layer: parallel_for/reduce on both backends,
// tag dispatch, launch-bounds plumbing and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
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

TEST(ParallelReduce, SumSerial) {
  double sum = 0.0;
  pk::parallel_reduce("s", pk::RangePolicy<pk::Serial>(100),
                      [](int i, double& acc) { acc += i; }, sum);
  EXPECT_DOUBLE_EQ(sum, 4950.0);
}

TEST(ParallelReduce, SumThreads) {
  long sum = 0;
  pk::parallel_reduce("s", pk::RangePolicy<pk::Threads>(1000),
                      [](int i, long& acc) { acc += i; }, sum);
  EXPECT_EQ(sum, 499500);
}

TEST(ParallelReduce, EmptyRangeGivesIdentity) {
  // The result is overwritten with the identity, not left at its old value.
  double serial = 7.0, threaded = 7.0;
  auto f = [](int, double& acc) { acc += 1.0; };
  pk::parallel_reduce("s", pk::RangePolicy<pk::Serial>(0), f, serial);
  pk::parallel_reduce("t", pk::RangePolicy<pk::Threads>(0), f, threaded);
  EXPECT_EQ(serial, 0.0);
  EXPECT_EQ(threaded, 0.0);
  long offset_empty = 3;
  pk::parallel_reduce("o", pk::RangePolicy<pk::Threads>(40, 40),
                      [](int, long& acc) { acc += 1; }, offset_empty);
  EXPECT_EQ(offset_empty, 0);
}

TEST(ParallelReduce, ThreadsRangeWithOffset) {
  long sum = 0;
  pk::parallel_reduce("t", pk::RangePolicy<pk::Threads>(100, 1100),
                      [](int i, long& acc) { acc += i; }, sum);
  EXPECT_EQ(sum, (100L + 1099L) * 1000L / 2);
}

struct TaggedSum {
  void operator()(const TagA&, int i, long& acc) const { acc += i; }
  void operator()(const TagB&, int i, long& acc) const { acc += 2L * i; }
};

TEST(ParallelReduce, TagDispatchSelectsOverload) {
  long a = 0, b = 0, bt = 0;
  pk::parallel_reduce("a", pk::RangePolicy<pk::Serial, TagA>(10), TaggedSum{},
                      a);
  pk::parallel_reduce("b", pk::RangePolicy<pk::Serial, TagB>(10), TaggedSum{},
                      b);
  pk::parallel_reduce("bt", pk::RangePolicy<pk::Threads, TagB>(1000),
                      TaggedSum{}, bt);
  EXPECT_EQ(a, 45);
  EXPECT_EQ(b, 90);
  EXPECT_EQ(bt, 999000);
}

// ---------------------------------------------------------------------------
// Determinism contract for reductions.
//
// The threaded parallel_reduce merges thread-local partials in completion
// order, so its result is reproducible only to FP-associativity relative to
// the serial reduction — that tolerance contract is pinned here.  For
// bitwise-reproducible CI runs, parallel_reduce_deterministic fixes the
// reduction tree with a chunk size independent of the thread schedule.
// ---------------------------------------------------------------------------

namespace {

// An ill-conditioned-enough summand: wide dynamic range so reassociation is
// visible at the ulp level but bounded.
double summand(int i) {
  return std::sin(0.1 * i) * std::exp2((i % 64) - 32);
}

}  // namespace

TEST(ParallelReduce, ThreadedMatchesSerialToAssociativityTolerance) {
  const std::size_t n = 100000;
  double serial = 0.0, threaded = 0.0;
  auto f = [](int i, double& acc) { acc += summand(i); };
  pk::parallel_reduce("s", pk::RangePolicy<pk::Serial>(n), f, serial);
  pk::parallel_reduce("t", pk::RangePolicy<pk::Threads>(n), f, threaded);
  // Contract: agreement to ~n*eps *relative to the sum's condition* Σ|x_i|
  // — NOT bitwise, and NOT relative to the (cancellation-shrunk) result;
  // the partition of the range into thread chunks is schedule-dependent.
  double abs_scale = 0.0;
  pk::parallel_reduce(
      "a", pk::RangePolicy<pk::Serial>(n),
      [](int i, double& acc) { acc += std::abs(summand(i)); }, abs_scale);
  const double tol = 1e-12 * std::max(1.0, abs_scale);
  EXPECT_NEAR(threaded, serial, tol);
}

TEST(ParallelReduceDeterministic, BitwiseReproducibleAcrossRuns) {
  const std::size_t n = 100000;
  auto f = [](int i, double& acc) { acc += summand(i); };
  double first = 0.0;
  pk::parallel_reduce_deterministic("d", n, f, first, 512);
  for (int rep = 0; rep < 10; ++rep) {
    double again = 0.0;
    pk::parallel_reduce_deterministic("d", n, f, again, 512);
    EXPECT_EQ(again, first) << "rep " << rep;  // bitwise, not approximate
  }
}

TEST(ParallelReduceDeterministic, MatchesSerialToTolerance) {
  const std::size_t n = 50000;
  auto f = [](int i, double& acc) { acc += summand(i); };
  double serial = 0.0, det = 0.0;
  pk::parallel_reduce("s", pk::RangePolicy<pk::Serial>(n), f, serial);
  pk::parallel_reduce_deterministic("d", n, f, det);
  double abs_scale = 0.0;
  pk::parallel_reduce(
      "a", pk::RangePolicy<pk::Serial>(n),
      [](int i, double& acc) { acc += std::abs(summand(i)); }, abs_scale);
  EXPECT_NEAR(det, serial, 1e-12 * std::max(1.0, abs_scale));
}

TEST(ParallelReduceDeterministic, ExactForIntegers) {
  const std::size_t n = 12345;
  long sum = 0;
  pk::parallel_reduce_deterministic(
      "i", n, [](int i, long& acc) { acc += i; }, sum, 128);
  EXPECT_EQ(sum, static_cast<long>(n) * (static_cast<long>(n) - 1) / 2);
}

TEST(ParallelReduceDeterministic, HandlesEmptyAndTinyRanges) {
  double sum = 1.0;
  pk::parallel_reduce_deterministic(
      "e", 0, [](int, double& acc) { acc += 1.0; }, sum);
  EXPECT_EQ(sum, 0.0);
  pk::parallel_reduce_deterministic(
      "one", 1, [](int i, double& acc) { acc += i + 3.0; }, sum);
  EXPECT_EQ(sum, 3.0);
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
  // type: the reduction result must not depend on them.
  using Bounded = pk::RangePolicy<pk::Threads, void, pk::LaunchBounds<256, 4>>;
  static_assert(pk::to_launch_config<Bounded::launch_bounds>() ==
                pk::LaunchConfig{256, 4});
  static_assert(
      pk::to_launch_config<pk::RangePolicy<>::launch_bounds>().is_default());
  long plain = 0, bounded = 0;
  auto f = [](int i, long& acc) { acc += 3L * i - 1; };
  pk::parallel_reduce("p", pk::RangePolicy<pk::Threads>(5000), f, plain);
  pk::parallel_reduce("b", Bounded(5000), f, bounded);
  EXPECT_EQ(bounded, plain);
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
