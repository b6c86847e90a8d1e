#pragma once
// In-process MPI surrogate for the rank-parallel domain-decomposed solve.
//
// N "ranks" are N dedicated threads (pk::ThreadPool::parallel_tasks) sharing
// a CommWorld.  Each rank holds a Communicator handle exposing the minimal
// MPI-like surface the solve needs: barrier, deterministic allreduce, and
// tagged point-to-point messages.  The surrogate keeps the programming
// model honest — ranks only exchange data through explicit messages and
// reductions, never through shared state — so the code is shaped exactly
// like the MPI version MALI runs in production, while staying testable in
// one process (and under TSan).
//
// Determinism contract: allreduce_sum combines the per-rank partials in
// FIXED rank order on every rank, so all ranks receive the bit-identical
// result regardless of arrival order.  This is what keeps the injected
// rank-reduced inner products (linalg::InnerProduct) SPMD-lockstep.
//
// Failure contract: abort() poisons the world — every blocked or future
// collective/recv throws CommAborted instead of deadlocking, so one
// throwing rank cannot strand the others in a barrier.  abort_with()
// additionally records a typed resilience::CommFault: the highest severity
// among the faults reported (integrity/injected > timeout), ties to the
// lowest reporting rank.  Which ranks report depends on timing — a rank that
// wakes in a poisoned world throws CommAborted without verifying — so a
// fault several ranks could see may be recorded from any of them.
//
// Guard contract (CommGuardConfig): with a timeout configured, every
// blocking wait (barrier arrival, mailbox receive, reduction completion)
// is bounded — it re-waits `wait_retries` times with exponential backoff
// (riding out stragglers), then throws a typed CommFaultError instead of
// hanging on a dead peer.  With checksums enabled, every point-to-point
// payload is framed with an FNV-1a checksum verified at the receiver, and
// every reduction deposit is checksummed and generation-counted so a
// corrupt or missing contribution surfaces as a typed fault during the
// rank-ordered combine — identically on every rank.  Neither guard alters
// payload values or the combine order: the clean path stays bit-identical
// with guards on (pinned by tests/test_dist.cpp).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "resilience/comm_fault.hpp"

namespace mali::dist {

/// Thrown out of any blocking call after abort() — a cooperative unwind,
/// not an error in the throwing rank itself.
class CommAborted : public std::runtime_error {
 public:
  CommAborted() : std::runtime_error("communicator aborted") {}
};

/// Comm-layer guard configuration (DESIGN.md §16).  Default-constructed
/// guards are fully off: unbounded waits, no framing — the legacy
/// behavior, bit-for-bit and byte-for-byte.
struct CommGuardConfig {
  /// Frame point-to-point payloads and reduction deposits with FNV-1a
  /// checksums (verified at the receiver / during the combine) and
  /// generation-count reduction deposits (a missing contribution is a
  /// typed fault, not silent staleness).
  bool checksums = false;
  /// Bound every blocking wait to this many seconds per round; 0 keeps
  /// the legacy unbounded waits.
  double timeout_s = 0.0;
  /// Extra wait rounds before declaring a timeout (straggler tolerance):
  /// a wait spans 1 + wait_retries rounds total.
  int wait_retries = 2;
  /// Timeout multiplier per retry round (round i waits timeout_s *
  /// backoff^i).
  double backoff = 1.5;
  [[nodiscard]] bool bounded() const noexcept { return timeout_s > 0.0; }
};

/// Per-rank traffic counters (no locking — each rank only touches its own
/// Communicator).  One allreduce of n values counts as ONE collective and n
/// reduced values; that distinction is what the batched/pipelined paths are
/// measured by: fewer collectives for the same number of reduced values.
struct CommCounters {
  std::size_t allreduces = 0;      ///< completed reduction collectives
  std::size_t reduced_values = 0;  ///< total scalars combined across them
  std::size_t sends = 0;           ///< point-to-point messages sent
  std::size_t recvs = 0;           ///< point-to-point messages received
};

/// Shared state for one group of ranks.  Construct once, hand each rank a
/// Communicator{world, rank}.
class CommWorld {
 public:
  explicit CommWorld(int size);

  [[nodiscard]] int size() const noexcept { return size_; }

  /// Install the guard configuration.  Call before any rank uses the
  /// world (the restart loop sets it right after construction).
  void set_guards(const CommGuardConfig& g) { guards_ = g; }
  [[nodiscard]] const CommGuardConfig& guards() const noexcept {
    return guards_;
  }

  /// `rank`/`site` attribute a potential timeout fault to the waiting
  /// rank and the collective it was stuck in.
  void barrier(int rank = -1,
               resilience::CommSite site = resilience::CommSite::kBarrier);
  /// Deterministic sum: deposits `local`, barriers, then every rank sums
  /// the slots in rank order (identical reassociation on all ranks).
  /// `skip_deposit` / `corrupt` are the injection back-doors the guarded
  /// Communicator drives (a skipped deposit leaves the slot stale; a
  /// corrupt one is perturbed AFTER its checksum was computed).
  double allreduce_sum(int rank, double local, bool skip_deposit = false,
                       bool corrupt = false);
  /// Element-wise deterministic sum of a small fixed-size vector (all ranks
  /// must pass the same size).
  std::vector<double> allreduce_sum(int rank, const std::vector<double>& local,
                                    bool skip_deposit = false,
                                    bool corrupt = false);

  /// Split-phase vector allreduce.  allreduce_post deposits the local
  /// partials and returns WITHOUT synchronizing — the caller overlaps
  /// unrelated work (operator applies, halo point-to-point traffic) with the
  /// in-flight reduction.  allreduce_finish then barriers, combines the
  /// slots in fixed rank order (bit-identical on every rank, same contract
  /// as allreduce_sum) and barriers again to free the slots.  At most one
  /// reduction may be outstanding per rank, and under SPMD lockstep no other
  /// collective may run between a rank's post and its finish.
  void allreduce_post(int rank, const std::vector<double>& local,
                      bool skip_deposit = false, bool corrupt = false);
  std::vector<double> allreduce_finish(int rank);

  /// Mailbox send: moves `data` into the (from, to, tag) channel.  Channels
  /// are FIFO; matching relies on both endpoints executing the same global
  /// sequence of exchanges (SPMD lockstep).  With checksums on the payload
  /// is framed before queuing; `corrupt` perturbs it after framing.
  void send(int from, int to, int tag, std::vector<double> data,
            bool corrupt = false);
  /// Blocking mailbox receive from (from -> to, tag); verifies and strips
  /// the checksum frame when checksums are on (`corrupt` perturbs the
  /// payload BEFORE verification — in-flight corruption at the receiver).
  std::vector<double> recv(int from, int to, int tag, bool corrupt = false);

  /// Poison the world: wakes every blocked call, which then throws
  /// CommAborted; all future blocking calls throw immediately.
  void abort();
  /// abort() plus a typed fault record.  Of the records reported, the
  /// higher-severity fault wins (integrity/injected > timeout), ties to the
  /// lowest reporting rank.
  void abort_with(const resilience::CommFault& fault);
  /// The agreed fault record (type kNone when abort() was untyped or the
  /// world is healthy).
  [[nodiscard]] resilience::CommFault fault() const;

 private:
  void check_abort_locked() const;
  /// Bounded condition wait: waits on `cv` until `pred`, in 1+wait_retries
  /// rounds of timeout_s*backoff^i each when guards are bounded (else
  /// unbounded).  Throws a typed kTimeout CommFaultError on expiry.
  void wait_guarded(std::unique_lock<std::mutex>& lk,
                    std::condition_variable& cv,
                    const std::function<bool()>& pred, int rank,
                    resilience::CommSite site);
  /// Rank-ordered integrity scan of the reduction slots (generation +
  /// checksum); throws an identical typed fault on every rank when a
  /// contribution is missing or corrupt.  Caller holds mu_.
  void check_reduction_locked(int rank, bool vector_slots,
                              resilience::CommSite site);

  const int size_;
  CommGuardConfig guards_;
  mutable std::mutex mu_;
  std::condition_variable cv_barrier_;
  std::condition_variable cv_mail_;
  int barrier_count_ = 0;
  std::size_t barrier_gen_ = 0;
  std::vector<double> reduce_slots_;
  std::vector<std::vector<double>> reduce_vec_slots_;
  std::vector<char> reduce_posted_;  ///< per-rank: split-phase post in flight
  std::vector<std::uint64_t> reduce_gen_;        ///< deposits seen per rank
  std::vector<std::uint64_t> reduce_sums_;       ///< scalar slot checksums
  std::vector<std::uint64_t> reduce_vec_sums_;   ///< vector slot checksums
  std::map<std::tuple<int, int, int>, std::deque<std::vector<double>>> mail_;
  bool aborted_ = false;
  resilience::CommFault fault_;  ///< agreed record (kNone when untyped)
};

/// Per-rank handle: the interface the solver code sees (mirrors an MPI
/// communicator bound to a rank).  An optional per-rank CommFaultInjector
/// plants deterministic comm faults: every rank counts its own site
/// evaluations, and only the seeded victim rank acts on a firing — drop
/// skips the operation, corrupt perturbs the payload post-framing, delay /
/// straggler stall relative to the configured timeout, rank-death throws a
/// typed fault at the injection point.
class Communicator {
 public:
  Communicator(CommWorld& world, int rank) : world_(&world), rank_(rank) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return world_->size(); }

  /// Arm deterministic comm-fault injection for THIS rank's handle (not
  /// owned; one injector per rank — the per-site counters are unsynced).
  void set_fault_injector(resilience::CommFaultInjector* inj) noexcept {
    injector_ = inj;
  }

  void barrier() {
    if (inject(resilience::CommSite::kBarrier) == Inject::kSkip) return;
    world_->barrier(rank_, resilience::CommSite::kBarrier);
  }
  [[nodiscard]] double allreduce_sum(double v) {
    ++counters_.allreduces;
    ++counters_.reduced_values;
    const Inject a = inject(resilience::CommSite::kAllreduce);
    return world_->allreduce_sum(rank_, v, a == Inject::kSkip,
                                 a == Inject::kCorrupt);
  }
  [[nodiscard]] std::vector<double> allreduce_sum(
      const std::vector<double>& v) {
    return allreduce_n(v);
  }
  /// Batched reduction: all n values ride ONE collective (one message per
  /// fabric neighbor in a real MPI allreduce) instead of n scalar rounds.
  /// Gram-Schmidt and the fused pipelined recurrences go through this.
  [[nodiscard]] std::vector<double> allreduce_n(const std::vector<double>& v) {
    ++counters_.allreduces;
    counters_.reduced_values += v.size();
    const Inject a = inject(resilience::CommSite::kAllreduce);
    return world_->allreduce_sum(rank_, v, a == Inject::kSkip,
                                 a == Inject::kCorrupt);
  }
  /// Split-phase batched reduction; see CommWorld::allreduce_post/finish.
  /// Counted once, at finish, as a single collective.  The injection hook
  /// sits at the post (the deposit is the contribution being faulted).
  void allreduce_post(const std::vector<double>& v) {
    const Inject a = inject(resilience::CommSite::kAllreduce);
    world_->allreduce_post(rank_, v, a == Inject::kSkip,
                           a == Inject::kCorrupt);
  }
  [[nodiscard]] std::vector<double> allreduce_finish() {
    std::vector<double> out = world_->allreduce_finish(rank_);
    ++counters_.allreduces;
    counters_.reduced_values += out.size();
    return out;
  }
  void send(int to, int tag, std::vector<double> data) {
    ++counters_.sends;
    const Inject a = inject(resilience::CommSite::kHaloSend);
    if (a == Inject::kSkip) return;  // dropped on the wire
    world_->send(rank_, to, tag, std::move(data), a == Inject::kCorrupt);
  }
  [[nodiscard]] std::vector<double> recv(int from, int tag) {
    ++counters_.recvs;
    const Inject a = inject(resilience::CommSite::kHaloRecv);
    if (a == Inject::kSkip) {
      // The arrived message is lost; the re-receive waits for a retransmit
      // that never comes and surfaces the bounded-wait timeout.
      (void)world_->recv(from, rank_, tag);
    }
    return world_->recv(from, rank_, tag, a == Inject::kCorrupt);
  }
  void abort() { world_->abort(); }
  [[nodiscard]] CommWorld& world() noexcept { return *world_; }

  /// Traffic counters for THIS rank's handle (reductions, messages).  Tests
  /// and benches pin message counts against these; reset between phases to
  /// scope the measurement.
  [[nodiscard]] const CommCounters& counters() const noexcept {
    return counters_;
  }
  void reset_counters() noexcept { counters_ = CommCounters{}; }

 private:
  enum class Inject { kNone, kSkip, kCorrupt };
  /// Consults the injector for one evaluation of `site`; applies the
  /// victim-side effect (sleep, typed throw) and tells the caller whether
  /// to skip or corrupt the operation.
  Inject inject(resilience::CommSite site);

  CommWorld* world_;
  int rank_;
  CommCounters counters_;
  resilience::CommFaultInjector* injector_ = nullptr;
};

}  // namespace mali::dist
