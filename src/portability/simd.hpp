#pragma once
// pk::simd — explicit SIMD lane layer for element-batched kernels.
//
// A pack `simd<double, W>` holds W lane-variables; the assembly hot path
// batches W *elements* per pack so every scalar register of the scalar
// kernel (un, g, mu, strs, ...) becomes one pack register holding the same
// quantity for W neighbouring cells.  Packs are plain `T v[W]` aggregates
// with elementwise operators — GCC/Clang autovectorize the fixed-trip-count
// lane loops into SSE/AVX/NEON at -O2+, and `W = 1` degrades to scalar code
// identical to the unbatched kernel, which keeps the scalar path available
// as the bitwise reference on any architecture.
//
// Tail handling: a SimdRangePolicy of n elements dispatches ceil(n/W)
// batches; the last batch carries `n_valid < W` and kernels mask it with
// load_n/store_n (lane-count-limited moves) instead of lane masks — there
// is no masked-gather hardware dependence, so the same code is correct on
// the scalar fallback.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <type_traits>

#include "portability/common.hpp"
#include "portability/parallel.hpp"

namespace mali::pk {

// ---------------------------------------------------------------------------
// Width selection
// ---------------------------------------------------------------------------
// kSimdMaxWidth bounds the padding the workset layer must provide (allocate
// kSimdMaxWidth - 1 ghost rows past the last cell).  kSimdNativeWidth is the
// default picked by `--simd auto`.  The library is built for the host's ISA
// (DESIGN.md §18), so under AVX-512 a W=8 pack fills 256- or 512-bit
// registers, of which there are 32, and W=8 beats W=4 on the fused
// residual, the matrix-free tangent and the 4-rank matrix-free solve
// (BENCH_host_isa.json).  Without AVX-512, 4 doubles is two xmm (or one ymm)
// registers on x86-64, where W=8 gains nothing over W=4, and one NEON pair
// on aarch64.
inline constexpr int kSimdMaxWidth = 8;

inline constexpr int kSimdNativeWidth =
#if defined(__AVX512F__)
    8;
#elif defined(__x86_64__) || defined(__aarch64__) || defined(__SSE2__) || \
    defined(__ALTIVEC__)
    4;
#else
    1;
#endif

/// True iff w is a width the batched kernels support.
[[nodiscard]] constexpr bool simd_width_valid(int w) noexcept {
  return w == 1 || w == 2 || w == 4 || w == 8;
}

// ---------------------------------------------------------------------------
// Pack type
// ---------------------------------------------------------------------------

template <class T, int W>
struct simd {
  static_assert(W >= 1 && W <= kSimdMaxWidth && (W & (W - 1)) == 0,
                "pack width must be a power of two in [1, kSimdMaxWidth]");
  static_assert(std::is_floating_point_v<T>, "packs hold floating-point lanes");

  using value_type = T;
  static constexpr int width = W;

  T v[W];

  simd() = default;
  MALI_INLINE explicit simd(T x) {
    for (int l = 0; l < W; ++l) v[l] = x;
  }

  [[nodiscard]] MALI_INLINE static simd zero() { return simd(T(0)); }
  [[nodiscard]] MALI_INLINE static simd broadcast(T x) { return simd(x); }

  /// Full-width load of W contiguous lanes.
  [[nodiscard]] MALI_INLINE static simd load(const T* p) {
    simd r;
    for (int l = 0; l < W; ++l) r.v[l] = p[l];
    return r;
  }

  /// Masked load: lanes [0, n) from memory, lanes [n, W) zero-filled so the
  /// dead lanes stay finite through arithmetic.
  [[nodiscard]] MALI_INLINE static simd load_n(const T* p, int n) {
    simd r;
    for (int l = 0; l < W; ++l) r.v[l] = l < n ? p[l] : T(0);
    return r;
  }

  MALI_INLINE void store(T* p) const {
    for (int l = 0; l < W; ++l) p[l] = v[l];
  }

  /// Masked store: only lanes [0, n) reach memory.
  MALI_INLINE void store_n(T* p, int n) const {
    for (int l = 0; l < W; ++l) {
      if (l < n) p[l] = v[l];
    }
  }

  [[nodiscard]] MALI_INLINE T operator[](int l) const { return v[l]; }
  [[nodiscard]] MALI_INLINE T& operator[](int l) { return v[l]; }

  MALI_INLINE simd& operator+=(const simd& o) {
    for (int l = 0; l < W; ++l) v[l] += o.v[l];
    return *this;
  }
  MALI_INLINE simd& operator-=(const simd& o) {
    for (int l = 0; l < W; ++l) v[l] -= o.v[l];
    return *this;
  }
  MALI_INLINE simd& operator*=(const simd& o) {
    for (int l = 0; l < W; ++l) v[l] *= o.v[l];
    return *this;
  }
  MALI_INLINE simd& operator/=(const simd& o) {
    for (int l = 0; l < W; ++l) v[l] /= o.v[l];
    return *this;
  }
};

template <class T, int W>
[[nodiscard]] MALI_INLINE simd<T, W> operator+(simd<T, W> a,
                                               const simd<T, W>& b) {
  return a += b;
}
template <class T, int W>
[[nodiscard]] MALI_INLINE simd<T, W> operator-(simd<T, W> a,
                                               const simd<T, W>& b) {
  return a -= b;
}
template <class T, int W>
[[nodiscard]] MALI_INLINE simd<T, W> operator*(simd<T, W> a,
                                               const simd<T, W>& b) {
  return a *= b;
}
template <class T, int W>
[[nodiscard]] MALI_INLINE simd<T, W> operator/(simd<T, W> a,
                                               const simd<T, W>& b) {
  return a /= b;
}
template <class T, int W>
[[nodiscard]] MALI_INLINE simd<T, W> operator-(const simd<T, W>& a) {
  simd<T, W> r;
  for (int l = 0; l < W; ++l) r.v[l] = -a.v[l];
  return r;
}

// scalar (broadcast) mixed forms
template <class T, int W>
[[nodiscard]] MALI_INLINE simd<T, W> operator+(T a, const simd<T, W>& b) {
  return simd<T, W>(a) + b;
}
template <class T, int W>
[[nodiscard]] MALI_INLINE simd<T, W> operator+(const simd<T, W>& a, T b) {
  return a + simd<T, W>(b);
}
template <class T, int W>
[[nodiscard]] MALI_INLINE simd<T, W> operator-(T a, const simd<T, W>& b) {
  return simd<T, W>(a) - b;
}
template <class T, int W>
[[nodiscard]] MALI_INLINE simd<T, W> operator-(const simd<T, W>& a, T b) {
  return a - simd<T, W>(b);
}
template <class T, int W>
[[nodiscard]] MALI_INLINE simd<T, W> operator*(T a, const simd<T, W>& b) {
  return simd<T, W>(a) * b;
}
template <class T, int W>
[[nodiscard]] MALI_INLINE simd<T, W> operator*(const simd<T, W>& a, T b) {
  return a * simd<T, W>(b);
}
template <class T, int W>
[[nodiscard]] MALI_INLINE simd<T, W> operator/(const simd<T, W>& a, T b) {
  return a / simd<T, W>(b);
}
template <class T, int W>
[[nodiscard]] MALI_INLINE simd<T, W> operator/(T a, const simd<T, W>& b) {
  return simd<T, W>(a) / b;
}

/// Per-lane pow with a shared scalar exponent (Glen's-law viscosity).  libm
/// pow does not vectorize, so lanes are sequential scalar calls — this is
/// the measured-but-acceptable serial fraction of the batched chain.
template <class T, int W>
[[nodiscard]] MALI_INLINE simd<T, W> lane_pow(const simd<T, W>& a, T e) {
  simd<T, W> r;
  for (int l = 0; l < W; ++l) r.v[l] = std::pow(a.v[l], e);
  return r;
}

// ---------------------------------------------------------------------------
// Batched dispatch
// ---------------------------------------------------------------------------

/// One batch handed to a batched functor: elements [begin, begin + n_valid).
/// n_valid == W except possibly for the trailing batch of a ragged range;
/// kernels take the full-width path when `full()` and mask stores with
/// store_n(..., n_valid) otherwise.
struct SimdBatch {
  std::size_t begin = 0;
  int n_valid = 0;
  int width = 0;

  [[nodiscard]] MALI_INLINE bool full() const noexcept {
    return n_valid == width;
  }
};

/// Iterates a range of n elements as ceil(n/W) width-W batches.  Batches are
/// distributed across the exec space; the batch partition is a pure function
/// of (n, W), never of the thread count, so batched results are deterministic
/// and every element belongs to exactly one batch (conflict-free writes to
/// per-cell arrays without any coloring — the colored scatter downstream is
/// unchanged).
template <int W, class ExecSpace = DefaultExec>
class SimdRangePolicy {
 public:
  static_assert(simd_width_valid(W), "unsupported SIMD width");
  using exec_space = ExecSpace;
  static constexpr int width = W;

  explicit SimdRangePolicy(std::size_t n) : n_(n) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_batches() const noexcept {
    return (n_ + static_cast<std::size_t>(W) - 1) / static_cast<std::size_t>(W);
  }

 private:
  std::size_t n_;
};

/// Batched parallel_for: functor signature `void(const SimdBatch&)`.
template <int W, class ExecSpace, class Functor>
void parallel_for(const char* /*label*/,
                  const SimdRangePolicy<W, ExecSpace>& policy,
                  const Functor& f) {
  const std::size_t n = policy.size();
  const std::size_t nb = policy.num_batches();
  auto run_batch = [&f, n](std::size_t b) {
    const std::size_t begin = b * static_cast<std::size_t>(W);
    const int n_valid = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(W), n - begin));
    f(SimdBatch{begin, n_valid, W});
  };
  if constexpr (std::is_same_v<ExecSpace, Serial>) {
    for (std::size_t b = 0; b < nb; ++b) run_batch(b);
  } else {
    ThreadPool::instance().parallel_range(
        0, nb, [&run_batch](std::size_t b0, std::size_t b1) {
          for (std::size_t b = b0; b < b1; ++b) run_batch(b);
        });
  }
}

}  // namespace mali::pk
