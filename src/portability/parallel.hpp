#pragma once
// parallel_for / parallel_reduce — the pk-layer analog of Kokkos parallel
// dispatch.  Functors may expose either `operator()(int)` or the tagged form
// `operator()(const Tag&, int)`; reductions additionally take an accumulator
// reference, as in Kokkos.  Labels are `const char*` and unused: a label is
// a literal at every call site, so no dispatch builds a std::string.

#include <cstddef>
#include <mutex>
#include <vector>

#include "portability/exec_policy.hpp"
#include "portability/thread_pool.hpp"

namespace mali::pk {

template <class ExecSpace, class WorkTag, class Bounds, class Functor>
void parallel_for(const char* /*label*/,
                  const RangePolicy<ExecSpace, WorkTag, Bounds>& policy,
                  const Functor& f) {
  if constexpr (std::is_same_v<ExecSpace, Serial>) {
    for (std::size_t i = policy.begin(); i < policy.end(); ++i) {
      detail::invoke<Functor, WorkTag>(f, i);
    }
  } else {
    ThreadPool::instance().parallel_range(
        policy.begin(), policy.end(), [&f](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) {
            detail::invoke<Functor, WorkTag>(f, i);
          }
        });
  }
}

/// Unlabeled overload, for terseness in tests and examples.
template <class ExecSpace, class WorkTag, class Bounds, class Functor>
void parallel_for(const RangePolicy<ExecSpace, WorkTag, Bounds>& policy,
                  const Functor& f) {
  parallel_for("mali::pk::parallel_for", policy, f);
}

/// Simple flat-range parallel_for over [0, n).
template <class Functor>
void parallel_for(const char* label, std::size_t n, const Functor& f) {
  parallel_for(label, RangePolicy<>(n), f);
}

/// Sum-reduction: functor signature `void(int, Value&)` (or tagged).
template <class ExecSpace, class WorkTag, class Bounds, class Functor,
          class Value>
void parallel_reduce(const char* /*label*/,
                     const RangePolicy<ExecSpace, WorkTag, Bounds>& policy,
                     const Functor& f, Value& result) {
  Value total{};
  if constexpr (std::is_same_v<ExecSpace, Serial>) {
    for (std::size_t i = policy.begin(); i < policy.end(); ++i) {
      if constexpr (std::is_void_v<WorkTag>) {
        f(static_cast<int>(i), total);
      } else {
        f(WorkTag{}, static_cast<int>(i), total);
      }
    }
  } else {
    std::mutex mu;
    ThreadPool::instance().parallel_range(
        policy.begin(), policy.end(),
        [&f, &mu, &total](std::size_t b, std::size_t e) {
          Value local{};
          for (std::size_t i = b; i < e; ++i) {
            if constexpr (std::is_void_v<WorkTag>) {
              f(static_cast<int>(i), local);
            } else {
              f(WorkTag{}, static_cast<int>(i), local);
            }
          }
          std::lock_guard<std::mutex> lk(mu);
          total += local;
        });
  }
  result = total;
}

template <class Functor, class Value>
void parallel_reduce(const char* label, std::size_t n, const Functor& f,
                     Value& result) {
  parallel_reduce(label, RangePolicy<>(n), f, result);
}

// ---------------------------------------------------------------------------
// Determinism contract
// ---------------------------------------------------------------------------
// The threaded parallel_reduce above merges thread-local partials in
// completion order, so across runs (or thread counts) results agree with the
// serial reduction only to FP-associativity — a relative error of order
// n * eps on well-conditioned sums.  Callers needing bitwise-stable results
// (CI reference comparisons, reproducibility studies) should use
// parallel_reduce_deterministic: it partitions the range into *fixed-size*
// chunks, reduces each chunk in ascending index order, and merges the chunk
// partials serially in chunk order.  The summation tree then depends only on
// (n, chunk) — never on the thread count or schedule — so repeated runs are
// bitwise identical on any machine with the same FP semantics.

/// Bitwise-reproducible sum-reduction: functor signature `void(int, Value&)`.
/// `chunk` fixes the reduction tree; 0 picks a default of 1024.
template <class Functor, class Value>
void parallel_reduce_deterministic(const char* /*label*/, std::size_t n,
                                   const Functor& f, Value& result,
                                   std::size_t chunk = 0) {
  if (chunk == 0) chunk = 1024;
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  std::vector<Value> partials(n_chunks, Value{});
  ThreadPool::instance().parallel_range(
      0, n_chunks, [&](std::size_t cb, std::size_t ce) {
        for (std::size_t c = cb; c < ce; ++c) {
          Value local{};
          const std::size_t b = c * chunk;
          const std::size_t e = std::min(n, b + chunk);
          for (std::size_t i = b; i < e; ++i) f(static_cast<int>(i), local);
          partials[c] = local;
        }
      });
  Value total{};
  for (const Value& p : partials) total += p;  // fixed merge order
  result = total;
}

}  // namespace mali::pk
