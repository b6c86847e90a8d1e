// bench_e2e — the repository benchmark: four whole-run solver workloads
// timed from outside the library, plus a traced per-layer breakdown.
//
//   bench_e2e [--seed N] [--workload NAME] [--seconds S] [--trace PATH]
//             [--out PATH]
//
// With --workload the named workload runs in this process: untraced it
// reports the end-to-end metrics, with --trace it runs once untraced and
// once through the timing decorators, reports the per-layer metrics and
// writes the spans to PATH.  Without --workload the binary re-executes
// itself once per workload, one after another, so every workload gets its
// own peak RSS and no allocator, pool or AMG state carries over.
//
// Every metric is printed by name with its unit; with --workload the last
// stdout line is one JSON object {correct, attempted, failed, metrics}.  The
// record (schema "bench"/"problem"/"rows") goes to --out, by default
// bench_e2e.json next to the executable.  Exit status: 0 when every output
// check passes, 1 when one fails, 2 on a usage error.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "e2e.hpp"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace mali;

struct Args {
  std::uint64_t seed = 1;
  std::string workload;
  double seconds = 0.0;
  std::string trace;
  std::string out;
  std::string row_out;  ///< internal: where a re-executed child puts its row
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "error: %s\nusage: bench_e2e [--seed N] [--workload NAME] "
               "[--seconds S] [--trace PATH] [--out PATH]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || val[0] == '-') {
        usage_error("--seed takes a non-negative integer");
      }
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds >= 0.0)) {
        usage_error("--seconds takes a non-negative number");
      }
    } else if (key == "--workload") {
      a.workload = val;
    } else if (key == "--trace") {
      a.trace = val;
    } else if (key == "--out") {
      a.out = val;
    } else if (key == "--row-out") {
      a.row_out = val;
    } else {
      usage_error("unknown flag " + key);
    }
  }
  return a;
}

fs::path exe_dir() { return fs::read_symlink("/proc/self/exe").parent_path(); }

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc);
  f << text;
  f.close();
  MALI_CHECK_MSG(f.good(), "bench_e2e: cannot write " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  MALI_CHECK_MSG(f.good(), "bench_e2e: cannot read " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// trace.json -> trace.<workload>.json
std::string per_workload_path(const std::string& path, const char* workload) {
  const fs::path p(path);
  return (p.parent_path() /
          (p.stem().string() + "." + workload + p.extension().string()))
      .string();
}

int run_one(const Args& a) {
  e2e::RunOptions opt;
  opt.workload = a.workload;
  opt.seed = a.seed;
  opt.seconds = a.seconds;
  opt.scratch_dir = exe_dir().string();
  const bool traced = !a.trace.empty();
  e2e::Tracer tracer;
  const e2e::WorkloadRun run =
      e2e::run_workload(opt, traced ? &tracer : nullptr);

  std::printf("workload %s  seed %llu  %s  (friction scale %.6f, Glen A "
              "%.6e, ramp anomaly %.6f)\n",
              run.workload.c_str(), static_cast<unsigned long long>(run.seed),
              traced ? "traced" : "untraced", run.inputs.friction_scale,
              run.inputs.glen_A, run.inputs.ramp_anomaly);
  for (const e2e::Metric& m : run.metrics) {
    std::printf("  %-38s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const e2e::Check& c : run.checks) {
    std::printf("  check %-24s %s  %s\n", c.name.c_str(),
                c.ok ? "ok  " : "FAIL", c.detail.c_str());
  }
  if (traced) {
    write_file(a.trace, e2e::trace_json(run, tracer));
    std::printf("  spans (%zu) written to %s\n", tracer.spans().size(),
                a.trace.c_str());
  }
  const std::string row = e2e::row_json(run);
  if (!a.row_out.empty()) {
    write_file(a.row_out, row);
  } else {
    write_file(a.out, e2e::record_json(a.seed, {row}));
  }
  std::printf("%s\n", e2e::result_line(run).c_str());
  std::fflush(stdout);
  return run.correct() ? 0 : 1;
}

/// Runs `argv` as a child process and returns its exit status.
int spawn_and_wait(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  std::fflush(stdout);
  pid_t pid = 0;
  const int err =
      posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ);
  MALI_CHECK_MSG(err == 0, std::string("bench_e2e: posix_spawn failed: ") +
                               std::strerror(err));
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    MALI_CHECK_MSG(errno == EINTR, "bench_e2e: waitpid failed");
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

int run_all(const Args& a) {
  const std::string self = fs::read_symlink("/proc/self/exe").string();
  std::vector<std::string> rows;
  bool all_ok = true;
  for (const char* w : e2e::kWorkloads) {
    const std::string row_path =
        (exe_dir() / ("e2e-row-" + std::to_string(::getpid()) + "-" + w +
                      ".json"))
            .string();
    std::vector<std::string> cmd = {self,        "--workload", w,
                                    "--seed",    std::to_string(a.seed),
                                    "--seconds", std::to_string(a.seconds),
                                    "--row-out", row_path};
    if (!a.trace.empty()) {
      cmd.push_back("--trace");
      cmd.push_back(per_workload_path(a.trace, w));
    }
    const int status = spawn_and_wait(cmd);
    all_ok = all_ok && status == 0;
    if (fs::exists(row_path)) {
      rows.push_back(read_file(row_path));
      fs::remove(row_path);
    } else {
      std::fprintf(stderr, "bench_e2e: workload %s exited %d without a row\n",
                   w, status);
    }
  }
  write_file(a.out, e2e::record_json(a.seed, rows));
  std::printf("record written to %s\nbench_e2e: %s\n", a.out.c_str(),
              all_ok ? "all output checks passed" : "an output check FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = parse_args(argc, argv);
  // At most four threads: the pool sizes itself from this on first use.
  if (std::getenv("MALI_NUM_THREADS") == nullptr) {
    const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
    setenv("MALI_NUM_THREADS", std::to_string(std::min(4U, hw)).c_str(), 1);
  }
  try {
    if (a.out.empty()) a.out = (exe_dir() / "bench_e2e.json").string();
    return a.workload.empty() ? run_all(a) : run_one(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
