// Tests for the strict number parsing behind the CLI's numeric flags:
// malformed, partial, non-finite or (for integer flags) fractional values
// are rejected with an error naming the flag.

#include <gtest/gtest.h>

#include <string>

#include "util/parse_number.hpp"

using mali::util::parse_finite;
using mali::util::parse_int;

namespace {

/// The message of the mali::Error `f` throws ("" when it does not throw).
template <class F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const mali::Error& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(ParseFinite, AcceptsPlainAndExponentForms) {
  EXPECT_EQ(parse_finite("--dx-km", "200"), 200.0);
  EXPECT_EQ(parse_finite("--dx-km", "-0.25"), -0.25);
  EXPECT_EQ(parse_finite("--dx-km", "1.5e2"), 150.0);
  EXPECT_EQ(parse_finite("--dx-km", "+3"), 3.0);
  EXPECT_EQ(parse_finite("--dx-km", ".5"), 0.5);
}

TEST(ParseFinite, RejectsNonNumericText) {
  for (const char* bad : {"x", "abc", "", "-", "e5"}) {
    EXPECT_THROW((void)parse_finite("--scale", bad), mali::Error) << bad;
  }
}

TEST(ParseFinite, RejectsTrailingGarbage) {
  // atof would have read "2x" as 2 and "1.5 " as 1.5.
  for (const char* bad : {"2x", "1.5 ", "3,5", "10km", "1e"}) {
    EXPECT_THROW((void)parse_finite("--scale", bad), mali::Error) << bad;
  }
}

TEST(ParseFinite, RejectsNonFiniteValues) {
  for (const char* bad : {"inf", "-inf", "nan", "1e400", "-1e400"}) {
    EXPECT_THROW((void)parse_finite("--scale", bad), mali::Error) << bad;
  }
}

TEST(ParseFinite, ErrorNamesTheFlagAndValue) {
  const auto msg = error_of([] { (void)parse_finite("--cfl", "fast"); });
  EXPECT_NE(msg.find("--cfl"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'fast'"), std::string::npos) << msg;
}

TEST(ParseInt, AcceptsWholeValuedForms) {
  EXPECT_EQ(parse_int("--steps", "12"), 12);
  EXPECT_EQ(parse_int("--steps", "0"), 0);
  EXPECT_EQ(parse_int("--fault-member", "-1"), -1);
  EXPECT_EQ(parse_int("--cells", "1e3"), 1000);
  EXPECT_EQ(parse_int("--layers", "4.0"), 4);
}

TEST(ParseInt, RejectsFractionalPart) {
  // atof + static_cast<int> would have truncated "2.7" to 2 steps.
  for (const char* bad : {"2.7", "0.5", "-1.25", "1e-3"}) {
    EXPECT_THROW((void)parse_int("--steps", bad), mali::Error) << bad;
  }
  const auto msg = error_of([] { (void)parse_int("--steps", "2.7"); });
  EXPECT_NE(msg.find("--steps"), std::string::npos) << msg;
  EXPECT_NE(msg.find("integer"), std::string::npos) << msg;
}

TEST(ParseInt, RejectsOutOfIntRange) {
  for (const char* bad : {"1e10", "-1e10", "2147483648"}) {
    EXPECT_THROW((void)parse_int("--ranks", bad), mali::Error) << bad;
  }
  EXPECT_EQ(parse_int("--ranks", "2147483647"), 2147483647);
}

TEST(ParseInt, RejectsMalformedTextLikeParseFinite) {
  // "--ranks abc" used to pass through as 0 and fail later, deep inside
  // the distributed config; now the flag itself is reported.
  for (const char* bad : {"abc", "x", "", "4 ", "inf", "nan"}) {
    EXPECT_THROW((void)parse_int("--ranks", bad), mali::Error) << bad;
  }
  const auto msg = error_of([] { (void)parse_int("--ranks", "abc"); });
  EXPECT_NE(msg.find("--ranks"), std::string::npos) << msg;
}
