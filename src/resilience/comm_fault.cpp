#include "resilience/comm_fault.hpp"

#include <cstdint>
#include <sstream>
#include <vector>

#include "util/hash.hpp"

namespace mali::resilience {

namespace {

constexpr const char* kPrefix = "comm:";

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : s) {
    if (c == sep) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  parts.push_back(cur);
  return parts;
}

CommFaultKind kind_from_string(const std::string& s) {
  if (s == "drop") return CommFaultKind::kDrop;
  if (s == "corrupt") return CommFaultKind::kCorrupt;
  if (s == "delay") return CommFaultKind::kDelay;
  if (s == "rank-death") return CommFaultKind::kRankDeath;
  if (s == "straggler") return CommFaultKind::kStraggler;
  throw Error("unknown comm fault kind: " + s +
              " (drop | corrupt | delay | rank-death | straggler)");
}

CommSite comm_site_from_string(const std::string& s) {
  if (s == "halo-send") return CommSite::kHaloSend;
  if (s == "halo-recv") return CommSite::kHaloRecv;
  if (s == "allreduce") return CommSite::kAllreduce;
  if (s == "barrier") return CommSite::kBarrier;
  throw Error("unknown comm fault site: " + s +
              " (halo-send | halo-recv | allreduce | barrier)");
}

}  // namespace

const char* to_string(CommFaultKind k) {
  switch (k) {
    case CommFaultKind::kDrop: return "drop";
    case CommFaultKind::kCorrupt: return "corrupt";
    case CommFaultKind::kDelay: return "delay";
    case CommFaultKind::kRankDeath: return "rank-death";
    case CommFaultKind::kStraggler: return "straggler";
  }
  return "?";
}

const char* to_string(CommSite s) {
  switch (s) {
    case CommSite::kHaloSend: return "halo-send";
    case CommSite::kHaloRecv: return "halo-recv";
    case CommSite::kAllreduce: return "allreduce";
    case CommSite::kBarrier: return "barrier";
  }
  return "?";
}

const char* to_string(CommFaultType t) {
  switch (t) {
    case CommFaultType::kNone: return "none";
    case CommFaultType::kTimeout: return "timeout";
    case CommFaultType::kChecksumMismatch: return "checksum-mismatch";
    case CommFaultType::kLostContribution: return "lost-contribution";
    case CommFaultType::kRankDeath: return "rank-death";
    case CommFaultType::kInjected: return "injected";
  }
  return "?";
}

std::string CommFault::describe() const {
  std::ostringstream os;
  os << "comm fault [" << to_string(type) << "] at " << to_string(site);
  if (rank >= 0) os << " on rank " << rank;
  if (source_rank >= 0) os << " (source rank " << source_rank << ")";
  if (!message.empty()) os << ": " << message;
  return os.str();
}

bool is_comm_fault_spec(const std::string& s) {
  return s.rfind(kPrefix, 0) == 0;
}

CommFaultSpec comm_fault_spec_from_string(const std::string& s) {
  MALI_CHECK_MSG(is_comm_fault_spec(s),
                 "comm fault spec must start with 'comm:', got: " + s);
  const auto parts = split(s.substr(std::string(kPrefix).size()), ':');
  MALI_CHECK_MSG(
      parts.size() >= 2 && parts.size() <= 4,
      "comm fault spec must be comm:kind:site[:evaluation][:repeat], got: " +
          s);
  CommFaultSpec spec;
  spec.kind = kind_from_string(parts[0]);
  spec.site = comm_site_from_string(parts[1]);
  if (parts.size() >= 3 && !parts[2].empty()) {
    spec.at_evaluation = static_cast<std::size_t>(std::stoul(parts[2]));
  }
  if (parts.size() == 4) {
    MALI_CHECK_MSG(parts[3] == "repeat",
                   "comm fault spec trailer must be 'repeat', got: " +
                       parts[3]);
    spec.repeat = true;
  }
  return spec;
}

std::string to_string(const CommFaultSpec& spec) {
  std::ostringstream os;
  os << kPrefix << to_string(spec.kind) << ':' << to_string(spec.site) << ':'
     << spec.at_evaluation;
  if (spec.repeat) os << ":repeat";
  return os.str();
}

bool CommFaultInjector::fire(CommSite site) {
  const std::size_t c = counts_[static_cast<std::size_t>(site)]++;
  if (site != spec_.site) return false;
  const bool hit =
      spec_.repeat ? c >= spec_.at_evaluation : c == spec_.at_evaluation;
  if (hit) ++fired_;
  return hit;
}

int CommFaultInjector::target_rank(int n_ranks) const {
  MALI_CHECK(n_ranks > 0);
  std::uint64_t x = spec_.seed;
  if (spec_.member != 0) {
    x ^= util::splitmix64(static_cast<std::uint64_t>(spec_.member) *
                    0xD1B54A32D192ED03ull);
  }
  // Distinct stream from the solver-level target_dof hash (the extra mix
  // keeps "which rank misbehaves" decorrelated from "which dof is
  // poisoned" under a shared seed).
  return static_cast<int>(util::splitmix64(x ^ 0xA24BAED4963EE407ull) %
                          static_cast<std::uint64_t>(n_ranks));
}

std::size_t CommFaultInjector::count(CommSite site) const {
  return counts_[static_cast<std::size_t>(site)];
}

}  // namespace mali::resilience
