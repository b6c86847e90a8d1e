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
//
// Team regions.  team(fn) runs fn once on every thread of the pool at the
// same time, the caller as rank 0 and worker w as rank w + 1, and members
// separate their phases with Team::barrier().  It is one dispatch of
// size() - 1 chunks, one per worker: a worker that finished its member
// waits until every chunk is claimed, so it cannot claim a second rank, and
// the caller wakes parked workers at once, since it will wait for them in a
// barrier.  Where parallel_range would run inline, team(fn) runs fn as rank
// 0 of a team of 1 on the calling thread, whose barriers do nothing.  A
// member that throws poisons the barrier: every later barrier returns at
// once, and the first exception is rethrown after every member returned.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace mali::pk {

class ThreadPool {
 public:
  using RangeFn = std::function<void(std::size_t, std::size_t)>;

  /// One member's handle in a team region.
  class Team {
   public:
    [[nodiscard]] std::size_t rank() const noexcept { return rank_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    /// Returns once every member has arrived; what any member wrote before
    /// it is visible to every member after it.  Does nothing in a team of
    /// 1, and returns at once after a member threw.
    void barrier() const {
      if (size_ > 1) pool_->team_barrier();
    }
    /// This member's fixed share of [0, n): contiguous, balanced (the first
    /// n % size() ranks hold one more), in rank order.
    [[nodiscard]] std::pair<std::size_t, std::size_t> slice(
        std::size_t n) const noexcept {
      const std::size_t base = n / size_, rem = n % size_;
      const std::size_t b = rank_ * base + std::min(rank_, rem);
      return {b, b + base + (rank_ < rem ? 1 : 0)};
    }

   private:
    friend class ThreadPool;
    Team(ThreadPool* pool, std::size_t rank, std::size_t size) noexcept
        : pool_(pool), rank_(rank), size_(size) {}
    ThreadPool* pool_;
    std::size_t rank_, size_;
  };
  using TeamFn = std::function<void(const Team&)>;

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

  /// Runs fn once per rank in [0, size()), each on its own thread and all at
  /// the same time (a team of 1 on the caller where parallel_range would
  /// run inline), and returns when every member has returned; the first
  /// exception a member throws is rethrown then.
  void team(const TeamFn& fn);

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
  /// Worker `rank` - 1's loop; `rank` is its rank in a team region.
  void worker_loop(std::size_t rank);
  /// Claims the next chunk of the published dispatch; false when none is
  /// left.
  bool claim(std::size_t& chunk);
  /// Runs one claimed chunk, recording its exception, and counts it done.
  void run_chunk(std::size_t chunk);
  /// Runs one team member, recording its exception (which poisons the
  /// barrier); a worker then waits until every member has been claimed.
  void run_member(std::size_t rank);
  void record_error();
  void rethrow_first_error();
  void team_barrier();
  /// Waits until `done` holds, pausing, then yielding the core.
  template <class Done>
  static void wait_until(const Done& done);
  void wake_parked();
  void stop_workers();

  // The claim word: chunk count (high 32 bits) | next unclaimed chunk (low).
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  alignas(64) std::atomic<std::size_t> done_{0};  ///< chunks finished

  // The published dispatch; written by the holder before claim_ is stored.
  alignas(64) const RangeFn* fn_ = nullptr;
  const TeamFn* team_fn_ = nullptr;  ///< set: the dispatch is a team region
  std::size_t begin_ = 0;
  std::size_t n_ = 0;
  std::size_t chunks_ = 0;
  std::atomic<bool> busy_{false};  ///< a dispatch holds the pool

  // The team barrier: members arrived at the current one, and its
  // generation, which the last arrival advances.
  alignas(64) std::atomic<std::size_t> arrived_{0};
  alignas(64) std::atomic<std::size_t> generation_{0};
  std::atomic<bool> poisoned_{false};  ///< a member threw

  std::mutex error_mu_;
  std::exception_ptr first_error_;  ///< guarded by error_mu_

  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<std::size_t> parked_{0};
  std::atomic<bool> stop_{false};

  std::vector<std::thread> workers_;  ///< last: started after the state
};

}  // namespace mali::pk
