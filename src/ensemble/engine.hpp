#pragma once
// EnsembleEngine — batched many-run execution with amortized setup
// (DESIGN.md §15).  One engine run executes every member of a manifest's
// parameter sweep over ONE shared StokesFOProblem (mesh, partition,
// coloring, staged worksets built once), with two reuse mechanisms the
// cold per-member path pays for every time:
//
//   * AMG hierarchy recycling — one shared SemicoarseningAmg: its
//     aggregation, Galerkin plans and smoother colorings derive once, every
//     later Newton linearization of every member replays them (the fine
//     graph never changes, and a replay is bit-identical to a rebuild);
//   * Newton warm starts — each member starts from the final velocity of
//     the nearest already-completed member (L1 distance in sweep-index
//     space, ties to the lower id), instead of the analytic guess.
//
// A content-hashed result cache (ensemble/result_cache.hpp) makes repeated
// members free and bit-exact.  Determinism contract: members execute in
// Schedule::execution_order() (a pure function of the manifest), every
// member's result is pinned at first computation, and the members section
// of the results document is byte-identical between a computing run and a
// cache-served rerun.  Warm starts change only the iteration path; warm
// and cold converge to the same root within the Newton tolerance (pinned
// <= 1e-10/dof by test_ensemble).

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "ensemble/manifest.hpp"
#include "ensemble/result_cache.hpp"
#include "ensemble/scheduler.hpp"
#include "resilience/fault_injector.hpp"

namespace mali::ensemble {

struct EnsembleConfig {
  bool warm_start = true;   ///< neighbor warm starts for Newton
  bool use_cache = true;    ///< consult/populate the result cache
  std::string cache_dir;    ///< disk cache location (empty = memory only)
  /// Ranks per member velocity solve (> 1 uses the PR-5 in-process SPMD
  /// runtime; the shared-AMG recycling applies to the serial path only).
  int ranks_per_group = 1;
  bool verbose = false;

  // ---- graceful degradation (DESIGN.md §16) ---------------------------
  /// Failed member solves are retried up to this many times before the
  /// member is quarantined; the batch never aborts on a member failure.
  int member_retries = 0;
  /// Base delay before retry attempt k, doubled per attempt (seconds).
  double retry_backoff_s = 0.0;
  /// Arm the PR-4 resilience surface inside each member's forecast (the
  /// serial recovery ladder / the distributed coordinated-restart loop,
  /// depending on ranks_per_group).
  bool resilience = false;
  /// Deterministic member fault injection (CLI / tests).  The member id is
  /// mixed into the spec's member salt, so ensemble members fault
  /// decorrelated dofs.
  bool inject_fault = false;
  resilience::FaultSpec fault{};
  /// Restrict injection to one member id; -1 injects into every member.
  int fault_member = -1;
  /// Test seam: invoked before each attempt of each member (member id,
  /// 0-based attempt).  A throwing seam counts as that attempt's failure,
  /// which is how tests exercise the retried/quarantined paths without
  /// depending on driver-internal fault absorption.
  std::function<void(std::size_t, int)> before_attempt;
};

/// Non-deterministic run accounting (never part of the members document).
struct EnsembleStats {
  std::size_t members = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t warm_starts = 0;
  std::size_t retried = 0;      ///< members that needed >= 1 retry
  std::size_t quarantined = 0;  ///< members that exhausted the retry budget
  std::size_t amg_builds = 0;   ///< hierarchy derivations from scratch
  std::size_t amg_reuses = 0;   ///< hierarchy builds served from the cache
  double wall_seconds = 0.0;
};

class EnsembleEngine {
 public:
  struct RunOutput {
    std::vector<MemberParams> members;   ///< by member id
    std::vector<MemberRecord> records;   ///< by member id
    Schedule schedule;
    EnsembleStats stats;
  };

  EnsembleEngine(EnsembleManifest manifest, EnsembleConfig cfg = {});

  /// Executes every member (or serves it from the cache) and returns the
  /// full result set.  Throws mali::Error on malformed member forcing
  /// specs or solver-configuration errors; member solve failures surface
  /// as the driver's typed errors.
  [[nodiscard]] RunOutput run();

  [[nodiscard]] const EnsembleManifest& manifest() const noexcept {
    return manifest_;
  }
  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }

  /// Canonical cache-key string for one member: schema version + mesh +
  /// run/solver settings + sweep parameters, doubles shortest-round-trip.
  /// Everything that pins the result enters; labels (manifest name) and
  /// scheduling hints (rank_groups) do not.
  [[nodiscard]] static std::string member_canonical_key(
      const EnsembleManifest& m, const MemberParams& p, int ranks);

  /// Deterministic members section: a JSON array with one fixed-key-order
  /// object per member, byte-identical between a computing run and a
  /// cache-served rerun of the same manifest.
  [[nodiscard]] static std::string members_json(const RunOutput& out);

  /// Full results document: schema header, canonical manifest, schedule,
  /// the members section, and (optionally) the run stats.
  [[nodiscard]] static std::string results_json(const RunOutput& out,
                                                const EnsembleManifest& m,
                                                bool include_stats);

 private:
  EnsembleManifest manifest_;
  EnsembleConfig cfg_;
  ResultCache cache_;
};

}  // namespace mali::ensemble
