// Self-test of the bench_e2e harness: the decorators must not change the
// solve, the self-time arithmetic must be exact, the seed must fix the
// inputs, and the emitted record must pass the repository's bench-record
// validator.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "e2e.hpp"

namespace {

using namespace mali::e2e;

void expect_bitwise_history(bool matrix_free) {
  const std::vector<double> plain = small_solve_history(matrix_free, nullptr);
  Tracer tracer;
  const std::vector<double> traced = small_solve_history(matrix_free, &tracer);
  ASSERT_GE(plain.size(), 2U);
  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], traced[i]) << "Newton step " << i;
  }
  const auto totals = layer_totals(tracer.spans());
  EXPECT_GT(totals.at("physics.residual").calls, 0U);
  EXPECT_GT(totals.at("linalg.precond_setup").calls, 0U);
  EXPECT_GT(totals.at("linalg.precond_apply").calls, 0U);
  EXPECT_GT(totals.at("linalg.reductions").calls, 0U);
  if (matrix_free) {
    EXPECT_GT(totals.at("physics.tangent_apply").calls, 0U);
    EXPECT_EQ(totals.count("physics.jacobian_assembly"), 0U);
  } else {
    EXPECT_GT(totals.at("physics.jacobian_assembly").calls, 0U);
    EXPECT_EQ(totals.count("physics.tangent_apply"), 0U);
  }
}

TEST(BenchE2E, DecoratorsKeepAssembledHistoryBitwise) {
  expect_bitwise_history(false);
}

TEST(BenchE2E, DecoratorsKeepMatrixFreeHistoryBitwise) {
  expect_bitwise_history(true);
}

Span span(int id, int parent, const char* name, double b, double e) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_us = b;
  s.end_us = e;
  return s;
}

TEST(BenchE2E, SelfTimeOfNestedSpans) {
  // root [0, 100] > a [10, 30], b [40, 90] > c [50, 60]
  const std::vector<Span> spans = {
      span(0, -1, "root", 0, 100), span(1, 0, "a", 10, 30),
      span(2, 0, "b", 40, 90), span(3, 2, "c", 50, 60)};
  const auto t = layer_totals(spans);
  EXPECT_DOUBLE_EQ(t.at("root").self_s, 30e-6);
  EXPECT_DOUBLE_EQ(t.at("a").self_s, 20e-6);
  EXPECT_DOUBLE_EQ(t.at("b").self_s, 40e-6);
  EXPECT_DOUBLE_EQ(t.at("c").self_s, 10e-6);
  EXPECT_DOUBLE_EQ(t.at("b").total_s, 50e-6);
  double self_sum = 0.0;
  for (const auto& [name, lt] : t) self_sum += lt.self_s;
  EXPECT_DOUBLE_EQ(self_sum, t.at("root").total_s);
}

TEST(BenchE2E, SelfTimeCountsOverlapAndOverhangOnce) {
  // Children overlapping each other and running past the parent's end
  // cover [20, 70] and [90, 100] of the parent: 60 of its 100 us.
  const std::vector<Span> spans = {
      span(0, -1, "p", 0, 100), span(1, 0, "x", 20, 50),
      span(2, 0, "x", 40, 70), span(3, 0, "y", 90, 130)};
  const auto t = layer_totals(spans);
  EXPECT_DOUBLE_EQ(t.at("p").self_s, 40e-6);
  EXPECT_EQ(t.at("x").calls, 2U);
  EXPECT_DOUBLE_EQ(t.at("x").total_s, 60e-6);
}

TEST(BenchE2E, SelfTimeOfRecordedSpans) {
  Tracer tr;
  {
    const Tracer::Scope root(tr, "root");
    { const Tracer::Scope a(tr, "leaf"); }
    { const Tracer::Scope b(tr, "leaf"); }
  }
  ASSERT_EQ(tr.spans().size(), 3U);
  EXPECT_EQ(tr.spans()[1].parent, 0);
  EXPECT_EQ(count_nested(tr.spans(), "root", "leaf"), 2U);
  const auto t = layer_totals(tr.spans());
  EXPECT_NEAR(t.at("root").self_s + t.at("leaf").total_s, t.at("root").total_s,
              1e-12);
}

TEST(BenchE2E, SeedFixesInputs) {
  const Inputs a = inputs_from_seed(1);
  const Inputs b = inputs_from_seed(1);
  const Inputs c = inputs_from_seed(2);
  EXPECT_EQ(a.friction_scale, b.friction_scale);
  EXPECT_EQ(a.glen_A, b.glen_A);
  EXPECT_EQ(a.ramp_anomaly, b.ramp_anomaly);
  EXPECT_NE(a.friction_scale, c.friction_scale);
  EXPECT_NE(a.glen_A, c.glen_A);
  EXPECT_NE(a.ramp_anomaly, c.ramp_anomaly);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Inputs in = inputs_from_seed(seed);
    EXPECT_GE(in.friction_scale, 0.85);
    EXPECT_LE(in.friction_scale, 1.15);
    EXPECT_GE(in.glen_A, 0.8e-16);
    EXPECT_LE(in.glen_A, 1.2e-16);
    EXPECT_GE(in.ramp_anomaly, -0.3);
    EXPECT_LE(in.ramp_anomaly, 0.0);
  }
}

TEST(BenchE2E, RecordPassesValidator) {
  if (std::system("python3 -c pass > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  WorkloadRun run;
  run.workload = "solve_amg";
  run.seed = 7;
  run.inputs = inputs_from_seed(7);
  run.attempted = 1;
  run.solve_seconds = {1.25};
  run.setup_seconds = {0.1, 0.2};
  run.metrics = {{"time_to_solution_s", 1.25, "s"},
                 {"setup_s", 0.15, "s"},
                 {"peak_rss_mb", 300.5, "MB"},
                 {"failed_frac", 0.0, "ratio"}};
  run.checks = {{"residual", true, "ok \"quoted\""}};
  const auto path = std::filesystem::current_path() /
                    ("test_bench_e2e_" + std::to_string(::getpid()) + ".json");
  {
    std::ofstream f(path);
    f << record_json(7, {row_json(run)});
  }
  const std::string cmd =
      std::string("python3 ") + E2E_VALIDATOR + " " + path.string();
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  std::filesystem::remove(path);

  const std::string line = result_line(run);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(
      line.rfind("{\"correct\": true, \"attempted\": 1, \"failed\": 0", 0),
      0U);
}

}  // namespace
