#pragma once
// Common definitions for the MiniMALI portable-kernels (pk) layer.
//
// The pk layer is a from-scratch stand-in for the Kokkos programming model:
// multidimensional views, execution policies with tag dispatch, and
// parallel_for over serial or thread-pool backends.
// Kernels written against it look like the Albany kernels in the paper.

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#if defined(__GNUC__) || defined(__clang__)
#define MALI_INLINE inline __attribute__((always_inline))
#define MALI_RESTRICT __restrict__
#else
#define MALI_INLINE inline
#define MALI_RESTRICT
#endif

// Mirrors KOKKOS_INLINE_FUNCTION: marks code callable from within a kernel.
#define MALI_KERNEL_FUNCTION MALI_INLINE

namespace mali {

/// Error type thrown on precondition violations in the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_error(const char* cond, const char* file, int line,
                                     const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": check failed: " << cond;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace mali

/// Precondition check that stays on in release builds (library boundaries).
#define MALI_CHECK(cond)                                                \
  do {                                                                  \
    if (!(cond)) ::mali::detail::throw_error(#cond, __FILE__, __LINE__, ""); \
  } while (0)

#define MALI_CHECK_MSG(cond, msg)                                       \
  do {                                                                  \
    if (!(cond))                                                        \
      ::mali::detail::throw_error(#cond, __FILE__, __LINE__, (msg));    \
  } while (0)

/// Debug-only bounds checking for views (hot path).
#ifndef NDEBUG
#define MALI_ASSERT(cond) MALI_CHECK(cond)
#else
#define MALI_ASSERT(cond) ((void)0)
#endif
