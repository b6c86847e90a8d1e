#pragma once
// Inner-product abstraction for the Krylov solvers.
//
// Every control-flow branch in GMRES/CG (and the Newton damping
// loop) is driven by dot products and norms.  Injecting the inner product
// lets the distributed runtime (src/dist/) replace them with rank-reduced
// versions: each rank sums only the dofs it OWNS and the partial sums are
// combined with a deterministic rank-ordered allreduce.  Because every rank
// then sees bit-identical scalars, the unmodified solver code runs in SPMD
// lockstep — same branches, same iteration counts — across all ranks.
//
// The default (`serial_inner_product()`) reduces over all entries with the
// serial kernels from crs_matrix.hpp, which is the single-process behavior
// the solvers always had.

#include <cmath>
#include <vector>

#include "linalg/crs_matrix.hpp"
#include "portability/common.hpp"

namespace mali::linalg {

/// One <x, y> pair of a batched reduction request.  Pointees must stay alive
/// (and, for split-phase use, unmodified) until the reduction completes.
struct DotPair {
  const std::vector<double>* x = nullptr;
  const std::vector<double>* y = nullptr;
};

class InnerProduct {
 public:
  virtual ~InnerProduct() = default;

  /// Reduced dot product <x, y>.  Implementations over distributed vectors
  /// must (a) touch only entries the calling rank owns and (b) return the
  /// identical value on every rank.
  [[nodiscard]] virtual double dot(const std::vector<double>& x,
                                   const std::vector<double>& y) const = 0;

  /// sqrt(<x, x>); override only to change the reduction, not the sqrt.
  [[nodiscard]] virtual double norm2(const std::vector<double>& x) const {
    return std::sqrt(dot(x, x));
  }

  /// Caller-owned scratch for a split-phase reduction.  Keeping the pending
  /// state out of the InnerProduct lets a shared (even static) instance stay
  /// stateless, so concurrent solves on different threads never race.
  struct Pending {
    std::vector<double> values;
    bool active = false;
  };

  /// Batched reduction: out[k] = <pairs[k].x, pairs[k].y> for every pair,
  /// combined in ONE collective.  This is what lets the fused-Gram-Schmidt
  /// solvers replace j+1 scalar allreduces with a single n-value message.
  /// Each out[k] must be bit-identical to dot(*pairs[k].x, *pairs[k].y).
  virtual void dot_batch(const std::vector<DotPair>& pairs,
                         std::vector<double>& out) const {
    out.resize(pairs.size());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      out[k] = dot(*pairs[k].x, *pairs[k].y);
    }
  }

  /// Split-phase batched reduction.  post() computes the local partial sums
  /// and initiates the global combine; finish() completes it and yields the
  /// same values dot_batch would.  Between the two calls the caller may run
  /// unrelated work (preconditioner + operator applies) whose cost hides the
  /// reduction latency.  Exactly one finish() must follow each post() on the
  /// same Pending; nesting posts on one Pending is a contract violation.
  ///
  /// The serial default completes immediately at post() — finish() is then a
  /// plain copy, so single-process runs pay nothing for the split.
  virtual void post(const std::vector<DotPair>& pairs, Pending& pending) const {
    MALI_CHECK_MSG(!pending.active,
                   "InnerProduct::post: reduction already pending");
    dot_batch(pairs, pending.values);
    pending.active = true;
  }
  virtual void finish(Pending& pending, std::vector<double>& out) const {
    MALI_CHECK_MSG(pending.active, "InnerProduct::finish without a post");
    out = pending.values;
    pending.active = false;
  }
};

/// All-entry serial reduction — the non-distributed default.
class SerialInnerProduct final : public InnerProduct {
 public:
  [[nodiscard]] double dot(const std::vector<double>& x,
                           const std::vector<double>& y) const override {
    return linalg::dot(x, y);
  }
  [[nodiscard]] double norm2(const std::vector<double>& x) const override {
    return linalg::norm2(x);
  }
};

[[nodiscard]] inline const InnerProduct& serial_inner_product() {
  static const SerialInnerProduct ip;
  return ip;
}

/// Config-plumbing helper: the injected inner product, or the serial
/// default when none was set.
[[nodiscard]] inline const InnerProduct& inner_or_default(
    const InnerProduct* inner) {
  return inner != nullptr ? *inner : serial_inner_product();
}

}  // namespace mali::linalg
