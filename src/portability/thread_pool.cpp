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
/// span the serial stretches between loops (a GMRES orthogonalization) on
/// the solver workloads, where 0.4 ms still left a third of the dispatches
/// to find their workers parked.
constexpr auto kSpinFor = std::chrono::milliseconds(2);
/// How long the caller works alone before it wakes parked workers.
constexpr auto kWakeAfter = std::chrono::microseconds(100);
/// Pause hints a thread spends waiting (on running chunks, a barrier or the
/// rest of a team) before it starts yielding its core instead.
constexpr unsigned kPausesBeforeYield = 1024;

/// True on pool workers and on a caller running its chunks or its team
/// member: a parallel_range or team made there runs inline.
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

/// Releases the pool when its holder's dispatch or region returns.
struct HoldPool {
  std::atomic<bool>& busy;
  ~HoldPool() {
    tl_in_pool = false;
    busy.store(false, std::memory_order_release);
  }
};

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
      workers_.emplace_back([this, i] { worker_loop(i + 1); });
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

template <class Done>
void ThreadPool::wait_until(const Done& done) {
  for (unsigned i = 0; !done(); ++i) {
    if (i < kPausesBeforeYield) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

void ThreadPool::record_error() {
  std::lock_guard<std::mutex> lk(error_mu_);
  if (!first_error_) first_error_ = std::current_exception();
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
    record_error();
  }
  // Release: the caller may return (and republish) once this count is full.
  done_.fetch_add(1, std::memory_order_release);
}

void ThreadPool::run_member(std::size_t rank) {
  // A member claimed after another threw skips its body: with the barrier
  // poisoned its phases would not be separated.
  if (!poisoned_.load(std::memory_order_acquire)) {
    try {
      (*team_fn_)(Team(this, rank, size()));
    } catch (...) {
      record_error();
      poisoned_.store(true, std::memory_order_release);
    }
  }
  if (rank == 0) return;  // the caller claims no chunk
  // The region's word cannot be replaced before this member counts itself
  // done, so once it shows no unclaimed chunk every worker holds a rank.
  wait_until([this] {
    return !has_unclaimed(claim_.load(std::memory_order_relaxed));
  });
  done_.fetch_add(1, std::memory_order_release);
}

void ThreadPool::team_barrier() {
  if (poisoned_.load(std::memory_order_acquire)) return;
  const std::size_t gen = generation_.load(std::memory_order_acquire);
  // The arrivals form one release sequence, so the last one acquires every
  // member's writes and its generation store publishes them to all.
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == size()) {
    arrived_.store(0, std::memory_order_relaxed);
    generation_.store(gen + 1, std::memory_order_release);
    return;
  }
  wait_until([&] {
    return generation_.load(std::memory_order_acquire) != gen ||
           poisoned_.load(std::memory_order_acquire);
  });
}

void ThreadPool::wake_parked() {
  // Taking the lock orders this notify after any worker that has counted
  // itself parked but not yet blocked in wait().
  { std::lock_guard<std::mutex> lk(park_mu_); }
  park_cv_.notify_all();
}

void ThreadPool::worker_loop(std::size_t rank) {
  tl_in_pool = true;
  std::size_t chunk = 0;
  for (;;) {
    while (claim(chunk)) {
      if (team_fn_ != nullptr) {
        run_member(rank);
      } else {
        run_chunk(chunk);
      }
    }

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
  HoldPool holder{busy_};

  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, kChunksPerThread * size());
  fn_ = &fn;
  team_fn_ = nullptr;
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
  wait_until(
      [&] { return done_.load(std::memory_order_acquire) == chunks; });
  rethrow_first_error();
}

void ThreadPool::rethrow_first_error() {
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lk(error_mu_);
    err = std::exchange(first_error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::team(const TeamFn& fn) {
  if (workers_.empty() || tl_in_pool ||
      busy_.exchange(true, std::memory_order_acquire)) {
    fn(Team(this, 0, 1));
    return;
  }
  HoldPool holder{busy_};

  const std::size_t workers = workers_.size();
  team_fn_ = &fn;
  arrived_.store(0, std::memory_order_relaxed);
  poisoned_.store(false, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  claim_.store(pack(workers));  // publishes the fields above
  // Wake parked workers now: the caller will wait for them in a barrier.
  if (parked_.load() > 0) wake_parked();

  tl_in_pool = true;
  run_member(0);
  wait_until(
      [&] { return done_.load(std::memory_order_acquire) == workers; });
  rethrow_first_error();
}

}  // namespace mali::pk
