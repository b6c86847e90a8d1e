#pragma once
// parallel_for — the pk-layer analog of Kokkos parallel dispatch.  Functors
// may expose either `operator()(int)` or the tagged form
// `operator()(const Tag&, int)`, as in Kokkos.  Labels are `const char*` and
// unused: a label is a literal at every call site, so no dispatch builds a
// std::string.
//
// The layer has no reduction primitive: partials merged in thread completion
// order would make a sum depend on the schedule, and every sum in the
// library runs in a fixed order (serial loops; rank-ordered allreduces
// across ranks).

#include <cstddef>
#include <type_traits>

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

/// Simple flat-range parallel_for over [0, n).
template <class Functor>
void parallel_for(const char* label, std::size_t n, const Functor& f) {
  parallel_for(label, RangePolicy<>(n), f);
}

}  // namespace mali::pk
