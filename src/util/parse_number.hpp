#pragma once
// Strict text-to-number parsing for user-supplied values (command-line
// flags).  Unlike atof, a value is accepted only when the WHOLE text parses
// and the result is finite, so "x", "2x", "inf" or an empty string fail
// loudly instead of silently becoming 0 or a truncated number.  The error
// names `what` (e.g. "--steps") so the user sees which value was wrong.

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "portability/common.hpp"

namespace mali::util {

/// Parses `text` as a finite double; throws mali::Error naming `what`.
[[nodiscard]] inline double parse_finite(const std::string& what,
                                         const std::string& text) {
  const char* s = text.c_str();
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) {
    throw Error(what + " expects a finite number, got '" + text + "'");
  }
  return v;
}

/// As parse_finite(), and the value must also be a whole number in int
/// range ("12", "-1", "1e3" and "4.0" pass; "2.7" and "1e10" do not).
[[nodiscard]] inline int parse_int(const std::string& what,
                                   const std::string& text) {
  const double v = parse_finite(what, text);
  if (v != std::trunc(v) || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw Error(what + " expects an integer, got '" + text + "'");
  }
  return static_cast<int>(v);
}

}  // namespace mali::util
