#pragma once
// Scalar type traits: uniform access to the passive value and derivative
// structure of plain floating-point scalars, SFad and DFad.  The physics
// kernels are written once against ScalarT and instantiated for both the
// Residual (double) and Jacobian (SFad<double,16>) evaluations, exactly as
// Albany's template evaluation types work.

#include <type_traits>

#include "ad/dfad.hpp"
#include "ad/sfad.hpp"

namespace mali::ad {

template <class T>
struct ScalarTraits {
  using value_type = T;
  static constexpr bool is_fad = false;
  static constexpr int num_deriv = 0;
  static constexpr const T& value(const T& x) noexcept { return x; }
  static constexpr T dx(const T& /*x*/, int /*i*/) noexcept { return T(0); }
};

template <class T, int N>
struct ScalarTraits<SFad<T, N>> {
  using value_type = T;
  static constexpr bool is_fad = true;
  static constexpr int num_deriv = N;
  static constexpr const T& value(const SFad<T, N>& x) noexcept {
    return x.val();
  }
  static constexpr T dx(const SFad<T, N>& x, int i) noexcept { return x.dx(i); }
};

template <class T>
struct ScalarTraits<DFad<T>> {
  using value_type = T;
  static constexpr bool is_fad = true;
  static constexpr int num_deriv = -1;  // dynamic
  static const T& value(const DFad<T>& x) noexcept { return x.val(); }
  static T dx(const DFad<T>& x, int i) { return x.dx(i); }
};

template <class T>
inline constexpr bool is_fad_v = ScalarTraits<T>::is_fad;

/// The independent variable i with value v: seeded along derivative i for
/// SFad scalars, v itself for plain ones.
template <class T>
[[nodiscard]] constexpr T seeded(const typename ScalarTraits<T>::value_type& v,
                                 int i) {
  if constexpr (is_fad_v<T>) {
    return T(v, i);
  } else {
    return v;
  }
}

/// Passive value of any supported scalar.
template <class T>
[[nodiscard]] constexpr auto value_of(const T& x) noexcept {
  return ScalarTraits<T>::value(x);
}

}  // namespace mali::ad
