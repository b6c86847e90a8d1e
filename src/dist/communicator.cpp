#include "dist/communicator.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "portability/common.hpp"
#include "util/hash.hpp"

namespace mali::dist {

namespace {

using resilience::CommFault;
using resilience::CommFaultError;
using resilience::CommFaultType;
using resilience::CommSite;

/// FNV-1a over the raw bytes of a double payload — the checksum framing of
/// DESIGN.md §16.  Byte-exact, so any single-bit payload perturbation is
/// detected; never interpreted arithmetically (the frame is bit-cast in and
/// out of a double slot untouched).
std::uint64_t fnv1a_bytes(const double* p, std::size_t n) {
  return util::fnv1a64(p, n * sizeof(double));
}

/// Fault-agreement severity: integrity and injected faults name the root
/// cause directly and outrank the timeouts they induce on peer ranks.
int severity(CommFaultType t) {
  switch (t) {
    case CommFaultType::kNone: return 0;
    case CommFaultType::kTimeout: return 1;
    case CommFaultType::kChecksumMismatch:
    case CommFaultType::kLostContribution:
    case CommFaultType::kRankDeath:
    case CommFaultType::kInjected: return 2;
  }
  return 0;
}

/// In-flight corruption model: flip the lowest mantissa bit.  A bit flip
/// always changes the byte pattern (an additive perturbation can be
/// absorbed by rounding when the payload is large), so the checksum is
/// guaranteed to catch it — the classic single-event-upset model.
void flip_bit(double* x) {
  std::uint64_t b;
  std::memcpy(&b, x, sizeof b);
  b ^= 1ull;
  std::memcpy(x, &b, sizeof b);
}

CommFault make_fault(CommFaultType type, CommSite site, int rank,
                     int source_rank, std::string msg) {
  CommFault f;
  f.type = type;
  f.site = site;
  f.rank = rank;
  f.source_rank = source_rank;
  f.message = std::move(msg);
  return f;
}

}  // namespace

CommWorld::CommWorld(int size) : size_(size) {
  MALI_CHECK_MSG(size >= 1, "CommWorld needs at least one rank");
  reduce_slots_.assign(static_cast<std::size_t>(size), 0.0);
  reduce_vec_slots_.assign(static_cast<std::size_t>(size), {});
  reduce_posted_.assign(static_cast<std::size_t>(size), 0);
  reduce_gen_.assign(static_cast<std::size_t>(size), 0);
  reduce_sums_.assign(static_cast<std::size_t>(size), 0);
  reduce_vec_sums_.assign(static_cast<std::size_t>(size), 0);
}

void CommWorld::check_abort_locked() const {
  if (aborted_) throw CommAborted();
}

void CommWorld::wait_guarded(std::unique_lock<std::mutex>& lk,
                             std::condition_variable& cv,
                             const std::function<bool()>& pred, int rank,
                             resilience::CommSite site) {
  if (!guards_.bounded()) {
    cv.wait(lk, pred);
    return;
  }
  // Round 0 waits timeout_s; each retry round stretches by `backoff`, so a
  // straggler that misses the first deadline is still collected instead of
  // being declared dead (re-wait IS the transient-fault retry).
  double round_s = guards_.timeout_s;
  const int rounds = 1 + std::max(0, guards_.wait_retries);
  for (int i = 0; i < rounds; ++i) {
    if (cv.wait_for(lk, std::chrono::duration<double>(round_s), pred)) return;
    round_s *= guards_.backoff;
  }
  std::ostringstream os;
  os << "bounded wait expired after " << rounds << " round(s) (timeout "
     << guards_.timeout_s << "s, backoff " << guards_.backoff
     << "): peer dead or stalled";
  throw CommFaultError(
      make_fault(CommFaultType::kTimeout, site, rank, -1, os.str()));
}

void CommWorld::barrier(int rank, resilience::CommSite site) {
  std::unique_lock<std::mutex> lk(mu_);
  check_abort_locked();
  const std::size_t gen = barrier_gen_;
  if (++barrier_count_ == size_) {
    barrier_count_ = 0;
    ++barrier_gen_;
    cv_barrier_.notify_all();
  } else {
    try {
      wait_guarded(
          lk, cv_barrier_, [&] { return barrier_gen_ != gen || aborted_; },
          rank, site);
    } catch (const CommFaultError&) {
      // Withdraw this rank's arrival so the abandoned barrier's count stays
      // consistent for whoever inspects the wreckage (lock is held here).
      if (barrier_gen_ == gen && barrier_count_ > 0) --barrier_count_;
      throw;
    }
  }
  check_abort_locked();
}

double CommWorld::allreduce_sum(int rank, double local, bool skip_deposit,
                                bool corrupt) {
  const auto me = static_cast<std::size_t>(rank);
  {
    std::lock_guard<std::mutex> lk(mu_);
    check_abort_locked();
    if (!skip_deposit) {
      if (guards_.checksums) {
        reduce_sums_[me] = fnv1a_bytes(&local, 1);
        ++reduce_gen_[me];
      }
      if (corrupt) flip_bit(&local);  // post-framing: in-flight corruption
      reduce_slots_[me] = local;
    }
  }
  barrier(rank, resilience::CommSite::kAllreduce);  // all deposits visible
  double sum = 0.0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    check_abort_locked();
    check_reduction_locked(rank, /*vector_slots=*/false,
                           resilience::CommSite::kAllreduce);
    // Fixed rank-order reassociation: every rank computes the identical sum.
    for (int r = 0; r < size_; ++r) {
      sum += reduce_slots_[static_cast<std::size_t>(r)];
    }
  }
  barrier(rank, resilience::CommSite::kAllreduce);  // slots free again
  return sum;
}

std::vector<double> CommWorld::allreduce_sum(int rank,
                                             const std::vector<double>& local,
                                             bool skip_deposit, bool corrupt) {
  allreduce_post(rank, local, skip_deposit, corrupt);
  return allreduce_finish(rank);
}

void CommWorld::allreduce_post(int rank, const std::vector<double>& local,
                               bool skip_deposit, bool corrupt) {
  std::lock_guard<std::mutex> lk(mu_);
  check_abort_locked();
  const auto me = static_cast<std::size_t>(rank);
  MALI_CHECK_MSG(reduce_posted_[me] == 0,
                 "allreduce_post: a reduction is already in flight");
  // The posted flag is set even for a dropped deposit: the split-phase
  // protocol keeps running and the loss is detected (typed) at the combine,
  // not as a protocol assert on the victim.
  reduce_posted_[me] = 1;
  if (skip_deposit) return;
  auto& slot = reduce_vec_slots_[me];
  slot = local;
  if (guards_.checksums) {
    reduce_vec_sums_[me] = fnv1a_bytes(slot.data(), slot.size());
    ++reduce_gen_[me];
  }
  if (corrupt && !slot.empty()) flip_bit(&slot[0]);  // post-framing corruption
  // No barrier: the caller returns to useful work.  The slot is known free
  // because the previous finish() ended with a barrier past the slot reads.
}

std::vector<double> CommWorld::allreduce_finish(int rank) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    check_abort_locked();
    MALI_CHECK_MSG(reduce_posted_[static_cast<std::size_t>(rank)] != 0,
                   "allreduce_finish without a matching allreduce_post");
  }
  barrier(rank, resilience::CommSite::kAllreduce);  // all deposits visible
  std::vector<double> sum;
  {
    std::lock_guard<std::mutex> lk(mu_);
    check_abort_locked();
    // Integrity before sizes: a dropped deposit leaves a stale slot whose
    // size may differ — that must surface as a typed lost-contribution
    // fault, not a size assert.
    check_reduction_locked(rank, /*vector_slots=*/true,
                           resilience::CommSite::kAllreduce);
    sum.assign(reduce_vec_slots_[static_cast<std::size_t>(rank)].size(), 0.0);
    for (int r = 0; r < size_; ++r) {
      const auto& s = reduce_vec_slots_[static_cast<std::size_t>(r)];
      MALI_CHECK_MSG(s.size() == sum.size(),
                     "allreduce_sum: mismatched vector sizes across ranks");
      // Fixed rank-order reassociation: identical result on every rank.
      for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += s[i];
    }
    reduce_posted_[static_cast<std::size_t>(rank)] = 0;
  }
  barrier(rank, resilience::CommSite::kAllreduce);  // slots free again
  return sum;
}

double CommWorld::allreduce_max(int rank, double local, bool skip_deposit,
                                bool corrupt) {
  const auto me = static_cast<std::size_t>(rank);
  {
    std::lock_guard<std::mutex> lk(mu_);
    check_abort_locked();
    if (!skip_deposit) {
      if (guards_.checksums) {
        reduce_sums_[me] = fnv1a_bytes(&local, 1);
        ++reduce_gen_[me];
      }
      if (corrupt) flip_bit(&local);
      reduce_slots_[me] = local;
    }
  }
  barrier(rank, resilience::CommSite::kAllreduce);
  double m = 0.0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    check_abort_locked();
    check_reduction_locked(rank, /*vector_slots=*/false,
                           resilience::CommSite::kAllreduce);
    m = reduce_slots_[0];
    for (int r = 1; r < size_; ++r) {
      m = std::max(m, reduce_slots_[static_cast<std::size_t>(r)]);
    }
  }
  barrier(rank, resilience::CommSite::kAllreduce);
  return m;
}

void CommWorld::check_reduction_locked(int rank, bool vector_slots,
                                       resilience::CommSite site) {
  if (!guards_.checksums) return;
  // Generation agreement: every rank deposits exactly once per collective
  // (lockstep), so all counters must match.  A lagging counter names the
  // rank whose contribution never arrived — detected IDENTICALLY on every
  // rank, which is what makes the ensuing recovery coordinated.
  std::uint64_t newest = 0;
  for (int r = 0; r < size_; ++r) {
    newest = std::max(newest, reduce_gen_[static_cast<std::size_t>(r)]);
  }
  for (int r = 0; r < size_; ++r) {
    if (reduce_gen_[static_cast<std::size_t>(r)] != newest) {
      std::ostringstream os;
      os << "reduction combined without a deposit from rank " << r
         << " (generation "
         << reduce_gen_[static_cast<std::size_t>(r)] << " vs " << newest
         << ")";
      throw CommFaultError(make_fault(CommFaultType::kLostContribution, site,
                                      rank, r, os.str()));
    }
  }
  for (int r = 0; r < size_; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    const std::uint64_t want =
        vector_slots ? reduce_vec_sums_[rr] : reduce_sums_[rr];
    const std::uint64_t got =
        vector_slots
            ? fnv1a_bytes(reduce_vec_slots_[rr].data(),
                          reduce_vec_slots_[rr].size())
            : fnv1a_bytes(&reduce_slots_[rr], 1);
    if (got != want) {
      std::ostringstream os;
      os << "reduction contribution from rank " << r
         << " failed checksum verification";
      throw CommFaultError(make_fault(CommFaultType::kChecksumMismatch, site,
                                      rank, r, os.str()));
    }
  }
}

void CommWorld::send(int from, int to, int tag, std::vector<double> data,
                     bool corrupt) {
  if (guards_.checksums) {
    const std::uint64_t h = fnv1a_bytes(data.data(), data.size());
    double frame;
    static_assert(sizeof frame == sizeof h, "frame must hold the checksum");
    std::memcpy(&frame, &h, sizeof frame);
    data.push_back(frame);  // bit-cast frame rides as the trailing entry
  }
  if (corrupt && !data.empty()) flip_bit(&data[0]);  // post-framing corruption
  {
    std::lock_guard<std::mutex> lk(mu_);
    check_abort_locked();
    mail_[{from, to, tag}].push_back(std::move(data));
  }
  cv_mail_.notify_all();
}

std::vector<double> CommWorld::recv(int from, int to, int tag, bool corrupt) {
  std::vector<double> data;
  {
    std::unique_lock<std::mutex> lk(mu_);
    auto& q = mail_[{from, to, tag}];
    wait_guarded(
        lk, cv_mail_, [&] { return !q.empty() || aborted_; }, to,
        resilience::CommSite::kHaloRecv);
    check_abort_locked();
    data = std::move(q.front());
    q.pop_front();
  }
  // In-flight receiver-side corruption lands before verification.
  if (corrupt && !data.empty()) flip_bit(&data[0]);
  if (guards_.checksums) {
    MALI_CHECK_MSG(!data.empty(), "recv: framed message missing its checksum");
    double frame = data.back();
    data.pop_back();
    std::uint64_t want = 0;
    std::memcpy(&want, &frame, sizeof want);
    const std::uint64_t got = fnv1a_bytes(data.data(), data.size());
    if (got != want) {
      std::ostringstream os;
      os << "point-to-point payload (tag " << tag
         << ") failed checksum verification";
      throw CommFaultError(make_fault(CommFaultType::kChecksumMismatch,
                                      resilience::CommSite::kHaloRecv, to,
                                      from, os.str()));
    }
  }
  return data;
}

void CommWorld::abort() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    aborted_ = true;
  }
  cv_barrier_.notify_all();
  cv_mail_.notify_all();
}

void CommWorld::abort_with(const resilience::CommFault& fault) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!aborted_) {
      fault_ = fault;
    } else {
      // Deterministic agreement among racing reporters: root-cause faults
      // beat induced timeouts; within a severity the lowest detecting rank
      // wins.  Every interleaving of abort_with calls converges to the same
      // record.
      const int sn = severity(fault.type);
      const int so = severity(fault_.type);
      if (sn > so ||
          (sn == so && fault.rank >= 0 &&
           (fault_.rank < 0 || fault.rank < fault_.rank))) {
        fault_ = fault;
      }
    }
    aborted_ = true;
  }
  cv_barrier_.notify_all();
  cv_mail_.notify_all();
}

bool CommWorld::aborted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return aborted_;
}

resilience::CommFault CommWorld::fault() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fault_;
}

Communicator::Inject Communicator::inject(resilience::CommSite site) {
  if (injector_ == nullptr) return Inject::kNone;
  const bool hit = injector_->fire(site);
  if (!hit || injector_->target_rank(size()) != rank_) return Inject::kNone;
  const CommGuardConfig& g = world_->guards();
  // Stall lengths are keyed to the configured timeout: a delay stays well
  // inside round 0 (benign, bit-identical), a straggler overshoots round 0
  // but lands inside the backoff rounds (recovered by re-wait, no restart).
  const double base_s = g.bounded() ? g.timeout_s : 0.0;
  const std::size_t eval = injector_->count(site) - 1;
  switch (injector_->spec().kind) {
    case resilience::CommFaultKind::kDrop:
      return Inject::kSkip;
    case resilience::CommFaultKind::kCorrupt:
      if (site == resilience::CommSite::kBarrier) {
        // A barrier arrival carries no payload to corrupt — surface the
        // injection itself as the typed event.
        CommFault f = make_fault(
            CommFaultType::kInjected, site, rank_, rank_,
            "injected corrupt barrier arrival (no payload at this site)");
        f.evaluation = eval;
        throw CommFaultError(std::move(f));
      }
      return Inject::kCorrupt;
    case resilience::CommFaultKind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(base_s > 0.0 ? 0.3 * base_s : 0.005));
      return Inject::kNone;
    case resilience::CommFaultKind::kStraggler:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(base_s > 0.0 ? 1.3 * base_s : 0.05));
      return Inject::kNone;
    case resilience::CommFaultKind::kRankDeath: {
      CommFault f = make_fault(CommFaultType::kRankDeath, site, rank_, rank_,
                               "injected rank death");
      f.evaluation = eval;
      throw CommFaultError(std::move(f));
    }
  }
  return Inject::kNone;
}

}  // namespace mali::dist
