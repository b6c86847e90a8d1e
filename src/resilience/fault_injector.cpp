#include "resilience/fault_injector.hpp"

#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "util/hash.hpp"

namespace mali::resilience {

namespace {

std::size_t site_index(FaultSite s) { return static_cast<std::size_t>(s); }

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

FaultKind kind_from_string(const std::string& s) {
  if (s == "nan") return FaultKind::kNanPoison;
  if (s == "inf") return FaultKind::kInfPoison;
  if (s == "stagnation") return FaultKind::kStagnation;
  if (s == "precond-fail") return FaultKind::kPrecondFailure;
  throw Error("unknown fault kind: " + s +
              " (nan | inf | stagnation | precond-fail)");
}

FaultSite site_from_string(const std::string& s) {
  if (s == "residual") return FaultSite::kResidual;
  if (s == "operator-apply") return FaultSite::kOperatorApply;
  if (s == "jacobian") return FaultSite::kJacobianAssembly;
  if (s == "linear-solve") return FaultSite::kLinearSolve;
  if (s == "precond-setup") return FaultSite::kPrecondSetup;
  throw Error("unknown fault site: " + s +
              " (residual | operator-apply | jacobian | linear-solve | "
              "precond-setup)");
}

}  // namespace

FaultSpec fault_spec_from_string(const std::string& s) {
  const auto parts = split(s, ':');
  MALI_CHECK_MSG(parts.size() >= 2 && parts.size() <= 4,
                 "fault spec must be kind:site[:evaluation][:repeat], got: " +
                     s);
  FaultSpec spec;
  spec.kind = kind_from_string(parts[0]);
  spec.site = site_from_string(parts[1]);
  if (parts.size() >= 3 && !parts[2].empty()) {
    spec.at_evaluation = static_cast<std::size_t>(std::stoul(parts[2]));
  }
  if (parts.size() == 4) {
    MALI_CHECK_MSG(parts[3] == "repeat",
                   "fault spec trailer must be 'repeat', got: " + parts[3]);
    spec.repeat = true;
  }
  // Sanity: the kind must make sense at the site.
  const bool poison = spec.kind == FaultKind::kNanPoison ||
                      spec.kind == FaultKind::kInfPoison;
  const bool poison_site = spec.site == FaultSite::kResidual ||
                           spec.site == FaultSite::kOperatorApply ||
                           spec.site == FaultSite::kJacobianAssembly;
  if (poison) {
    MALI_CHECK_MSG(poison_site, "NaN/Inf poison requires a residual, "
                                "operator-apply, or jacobian site");
  } else if (spec.kind == FaultKind::kStagnation) {
    MALI_CHECK_MSG(spec.site == FaultSite::kLinearSolve,
                   "stagnation faults require the linear-solve site");
  } else {  // kPrecondFailure
    MALI_CHECK_MSG(spec.site == FaultSite::kPrecondSetup,
                   "precond-fail faults require the precond-setup site");
  }
  return spec;
}

std::string to_string(const FaultSpec& spec) {
  std::ostringstream os;
  os << to_string(spec.kind) << ':' << to_string(spec.site) << ':'
     << spec.at_evaluation;
  if (spec.repeat) os << ":repeat";
  return os.str();
}

bool FaultInjector::fire(FaultSite site) {
  const std::size_t c = counts_[site_index(site)]++;
  if (site != spec_.site) return false;
  const bool hit =
      spec_.repeat ? c >= spec_.at_evaluation : c == spec_.at_evaluation;
  if (hit) ++fired_;
  return hit;
}

std::size_t FaultInjector::target_dof(std::size_t n) const {
  MALI_CHECK(n > 0);
  // member == 0 must reproduce the legacy splitmix64(seed) bits exactly
  // (test_resilience pins them), so the salt is mixed in only when set.
  std::uint64_t x = spec_.seed;
  if (spec_.member != 0) {
    x ^= util::splitmix64(static_cast<std::uint64_t>(spec_.member) *
                    0xD1B54A32D192ED03ull);
  }
  return static_cast<std::size_t>(util::splitmix64(x) % n);
}

double FaultInjector::poison() const {
  return spec_.kind == FaultKind::kInfPoison
             ? std::numeric_limits<double>::infinity()
             : std::numeric_limits<double>::quiet_NaN();
}

std::size_t FaultInjector::count(FaultSite site) const {
  return counts_[site_index(site)];
}

}  // namespace mali::resilience
