#pragma once
// The thread pool behind the pk "Threads" backend: every threaded
// parallel_for and SIMD batch loop is one parallel_range.
//
// Dispatch model.  A pool of T threads starts T - 1 workers; the thread that
// calls parallel_range is the T-th and runs chunks like any worker.  A
// dispatch splits the range into about 4 chunks per thread and publishes
// them in one atomic word that packs the chunk count and the next unclaimed
// chunk; every thread claims chunks from it with one fetch_add until none
// are left, and the caller returns once every chunk has finished.  A late
// worker cannot claim a chunk of a finished dispatch: the word it increments
// is either exhausted or already the next dispatch's, whose job was written
// before that word was published.
//
// Idle workers spin (with a pause hint) for about 2 ms after their last
// chunk, so back-to-back loops find them running, then park on a condition
// variable.  The caller wakes parked workers only when chunks are still
// unclaimed after ~100 us of its own work: a short loop does not repay a
// wake-up, so the caller finishes it alone.
//
// A call made from inside a chunk, or while another thread's dispatch holds
// the pool (in-process ranks), runs the whole range inline on the calling
// thread instead of queueing.  The first exception a chunk throws is
// rethrown once every claimed chunk has finished; the pool stays usable.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mali::pk {

class ThreadPool {
 public:
  using RangeFn = std::function<void(std::size_t, std::size_t)>;

  /// Global pool of MALI_NUM_THREADS threads (default: the hardware
  /// concurrency), the calling thread included.
  static ThreadPool& instance();

  /// A pool of n_threads threads counting the caller: starts n_threads - 1
  /// workers (none for 0 or 1).
  explicit ThreadPool(std::size_t n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The number of threads a dispatch runs on, the caller included.
  [[nodiscard]] std::size_t size() const noexcept {
    return workers_.size() + 1;
  }

  /// Runs fn(chunk_begin, chunk_end) over disjoint chunks covering
  /// [begin, end) and returns when all have finished; the first exception a
  /// chunk throws is rethrown then.
  void parallel_range(std::size_t begin, std::size_t end, const RangeFn& fn);

  /// Runs fn(task_id) for task_id in [0, n) with GUARANTEED concurrency:
  /// each task gets its own dedicated thread (not a pool worker), so task
  /// bodies may block on each other (barriers, message waits).  This is the
  /// entry point for the in-process MPI surrogate in src/dist/ — pool
  /// workers cannot host rank bodies because n ranks may exceed the workers
  /// and a rank blocks.  Blocks until every task returns; the first
  /// exception is rethrown after all threads join.  Static (no pool state
  /// involved) but kept here so all thread-spawn policy lives in one place.
  static void parallel_tasks(std::size_t n,
                             const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Claims the next chunk of the published dispatch; false when none is
  /// left.
  bool claim(std::size_t& chunk);
  /// Runs one claimed chunk, recording its exception, and counts it done.
  void run_chunk(std::size_t chunk);
  void wake_parked();
  void stop_workers();

  // The claim word: chunk count (high 32 bits) | next unclaimed chunk (low).
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  alignas(64) std::atomic<std::size_t> done_{0};  ///< chunks finished

  // The published dispatch; written by the holder before claim_ is stored.
  alignas(64) const RangeFn* fn_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t n_ = 0;
  std::size_t chunks_ = 0;
  std::atomic<bool> busy_{false};  ///< a dispatch holds the pool

  std::mutex error_mu_;
  std::exception_ptr first_error_;  ///< guarded by error_mu_

  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<std::size_t> parked_{0};
  std::atomic<bool> stop_{false};

  std::vector<std::thread> workers_;  ///< last: started after the state
};

}  // namespace mali::pk
