// Tests for the pk timers: TimerRegistry, ScopedTimer and Timer.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "portability/timer.hpp"

namespace pk = mali::pk;

TEST(Timers, TimerRegistryAccumulates) {
  pk::TimerRegistry reg;
  reg.add("assemble", 0.25);
  reg.add("assemble", 0.75);
  reg.add("solve", 1.5);
  EXPECT_DOUBLE_EQ(reg.total("assemble"), 1.0);
  EXPECT_EQ(reg.count("assemble"), 2u);
  EXPECT_DOUBLE_EQ(reg.total("solve"), 1.5);
  EXPECT_DOUBLE_EQ(reg.total("missing"), 0.0);
  EXPECT_EQ(reg.count("missing"), 0u);
  reg.clear();
  EXPECT_EQ(reg.entries().size(), 0u);
}

TEST(Timers, ScopedTimerReports) {
  pk::TimerRegistry reg;
  {
    pk::ScopedTimer t(reg, "region");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(reg.count("region"), 1u);
  EXPECT_GT(reg.total("region"), 1e-3);
}

TEST(Timers, TimerMeasuresElapsed) {
  pk::Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double first = t.seconds();
  EXPECT_GT(first, 1e-3);
  t.reset();
  EXPECT_LT(t.seconds(), first);
}
