#include "portability/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

namespace mali::pk {

namespace {

using Clock = std::chrono::steady_clock;

/// Chunks per thread: enough that a slow chunk or a late worker leaves the
/// others work to claim, few enough that claims stay rare.
constexpr std::size_t kChunksPerThread = 4;
/// How long an idle worker keeps spinning before it parks: long enough to
/// span the serial stretches between loops (an AMG V-cycle's coarse levels,
/// a GMRES orthogonalization) on the solver workloads, where 0.4 ms still
/// left a third of the dispatches to find their workers parked.
constexpr auto kSpinFor = std::chrono::milliseconds(2);
/// How long the caller works alone before it wakes parked workers.
constexpr auto kWakeAfter = std::chrono::microseconds(100);
/// Pause hints the caller spends waiting on running chunks before it starts
/// yielding its core instead.
constexpr unsigned kPausesBeforeYield = 1024;

/// True on pool workers and on a caller running its chunks: a parallel_range
/// made there runs inline.
thread_local bool tl_in_pool = false;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// The claim word: chunk count in the high 32 bits, next unclaimed chunk in
// the low 32.  A claim is one fetch_add, so `next` may run past the count by
// at most one per thread before the next dispatch stores a fresh word.
constexpr std::uint64_t pack(std::size_t chunks) noexcept {
  return static_cast<std::uint64_t>(chunks) << 32;
}
constexpr std::size_t count_of(std::uint64_t w) noexcept {
  return static_cast<std::size_t>(w >> 32);
}
constexpr std::size_t next_of(std::uint64_t w) noexcept {
  return static_cast<std::size_t>(w & 0xFFFFFFFFu);
}
constexpr bool has_unclaimed(std::uint64_t w) noexcept {
  return next_of(w) < count_of(w);
}

}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool([] {
    // MALI_NUM_THREADS overrides the hardware concurrency — used by the
    // scatter bench and the sanitizer CI to exercise real parallelism even
    // on small containers (mirrors OMP_NUM_THREADS / KOKKOS_NUM_THREADS).
    if (const char* env = std::getenv("MALI_NUM_THREADS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n > 0) return static_cast<std::size_t>(n);
    }
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }());
  return pool;
}

ThreadPool::ThreadPool(std::size_t n_threads) {
  const std::size_t n_workers = n_threads > 1 ? n_threads - 1 : 0;
  workers_.reserve(n_workers);
  try {
    for (std::size_t i = 0; i < n_workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop_workers();  // the destructor does not run for a throwing ctor
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lk(park_mu_);
    stop_.store(true);
  }
  park_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::claim(std::size_t& chunk) {
  if (!has_unclaimed(claim_.load(std::memory_order_relaxed))) return false;
  // Acquire pairs with the store that published the dispatch, so the job
  // fields read by run_chunk are the ones this word belongs to.
  const std::uint64_t w = claim_.fetch_add(1, std::memory_order_acquire);
  if (!has_unclaimed(w)) return false;
  chunk = next_of(w);
  return true;
}

void ThreadPool::run_chunk(std::size_t chunk) {
  // Balanced split: the first n % chunks chunks hold one extra index.
  const std::size_t base = n_ / chunks_;
  const std::size_t rem = n_ % chunks_;
  const std::size_t b = begin_ + chunk * base + std::min(chunk, rem);
  const std::size_t e = b + base + (chunk < rem ? 1 : 0);
  try {
    (*fn_)(b, e);
  } catch (...) {
    std::lock_guard<std::mutex> lk(error_mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  // Release: the caller may return (and republish) once this count is full.
  done_.fetch_add(1, std::memory_order_release);
}

void ThreadPool::wake_parked() {
  // Taking the lock orders this notify after any worker that has counted
  // itself parked but not yet blocked in wait().
  { std::lock_guard<std::mutex> lk(park_mu_); }
  park_cv_.notify_all();
}

void ThreadPool::worker_loop() {
  tl_in_pool = true;
  std::size_t chunk = 0;
  for (;;) {
    while (claim(chunk)) run_chunk(chunk);

    // Spin so the next dispatch finds this worker running.
    const auto idle_since = Clock::now();
    bool work = false;
    for (unsigned i = 1;; ++i) {
      if (has_unclaimed(claim_.load(std::memory_order_relaxed))) {
        work = true;
        break;
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      cpu_relax();
      if (i % 64 == 0 && Clock::now() - idle_since >= kSpinFor) break;
    }
    if (work) continue;

    // Park.  parked_ and claim_ are sequentially consistent on both sides,
    // so either this predicate sees a dispatch published before it, or that
    // dispatch's caller sees parked_ > 0 and can wake this worker.
    std::unique_lock<std::mutex> lk(park_mu_);
    parked_.fetch_add(1);
    park_cv_.wait(lk, [this] {
      return stop_.load() || has_unclaimed(claim_.load());
    });
    parked_.fetch_sub(1);
    if (stop_.load()) return;
  }
}

void ThreadPool::parallel_tasks(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  std::mutex err_mu;
  std::exception_ptr first_error;
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      try {
        fn(t);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& th : threads) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_range(std::size_t begin, std::size_t end,
                                const RangeFn& fn) {
  if (begin >= end) return;
  // Inline: no workers, a call from inside a chunk (whose caller may be
  // waiting on it), or another thread's dispatch holding the pool.
  if (workers_.empty() || tl_in_pool ||
      busy_.exchange(true, std::memory_order_acquire)) {
    fn(begin, end);
    return;
  }
  struct Holder {
    std::atomic<bool>& busy;
    ~Holder() {
      tl_in_pool = false;
      busy.store(false, std::memory_order_release);
    }
  } holder{busy_};

  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, kChunksPerThread * size());
  fn_ = &fn;
  begin_ = begin;
  n_ = n;
  chunks_ = chunks;
  done_.store(0, std::memory_order_relaxed);
  claim_.store(pack(chunks));  // publishes the fields above

  tl_in_pool = true;
  const auto start = Clock::now();
  bool woken = false;
  std::size_t chunk = 0;
  while (claim(chunk)) {
    run_chunk(chunk);
    if (!woken && parked_.load() > 0 && Clock::now() - start >= kWakeAfter &&
        has_unclaimed(claim_.load(std::memory_order_relaxed))) {
      wake_parked();
      woken = true;
    }
  }
  for (unsigned i = 0; done_.load(std::memory_order_acquire) != chunks; ++i) {
    if (i < kPausesBeforeYield) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }

  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lk(error_mu_);
    err = std::exchange(first_error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace mali::pk
