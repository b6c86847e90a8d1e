#pragma once
// Content-hashed ensemble result cache.  A member's cache key is the
// FNV-1a hash of a canonical string covering everything that determines
// its result bit-for-bit: mesh spec, run/solver settings, and the member's
// sweep parameters, all doubles formatted shortest-round-trip
// (engine.hpp's member_canonical_key builds it).  A hit returns the
// record stored at first computation — repeated members are free and
// pinned bit-exact.  Warm-start donors do NOT enter the key: warm starts
// change only the Newton iteration path, and the converged result agrees
// with a cold start to the Newton tolerance (pinned <= 1e-10/dof by
// test_ensemble); the cached record is whatever was computed first.
//
// The cache is two-level: an in-memory map for this process plus an
// optional on-disk store (one "MALIENSR" io::Record file per key under the
// cache dir) so later runs of `mali ensemble` are served across processes.
// Records are written to a temp file, fsynced and renamed into place, so
// processes sharing the dir never see a half-written record.  A disk hit
// must pass the record's checksum and match the full canonical string,
// not just the 64-bit hash: a corrupt, truncated or older-version record
// or a hash collision degrades to a miss, never a wrong result.

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace mali::ensemble {

/// Everything a completed member run produced that downstream consumers
/// need: the deterministic scalar diagnostics for the results document,
/// plus the final fields (U doubles as the warm-start donor state).
struct MemberRecord {
  std::string canonical;  ///< full canonical key (collision guard)
  /// Degradation status: "ok" (first attempt succeeded), "retried"
  /// (succeeded after >= 1 failed attempt), "quarantined" (every attempt
  /// in the retry budget failed; the scalar diagnostics and fields below
  /// are absent/zero and the record is never cached or warm-start donated).
  std::string status = "ok";
  int attempts = 1;   ///< solve attempts consumed (1 on the clean path)
  std::string fault;  ///< last failure message ("" when attempts == 1)
  int steps = 0;
  int velocity_solves = 0;
  int newton_iters = 0;  ///< summed over accepted steps
  int rejections = 0;
  double volume_initial = 0.0;
  double volume_final = 0.0;
  double mean_velocity = 0.0;
  double max_mass_residual = 0.0;
  std::vector<double> U;  ///< final velocity (warm-start donor)
  std::vector<double> H;  ///< final thickness
};

class ResultCache {
 public:
  /// `dir` empty = memory-only; otherwise disk records live under it.  The
  /// directory (and its parents) is created here; throws mali::Error naming
  /// it when that fails.
  explicit ResultCache(std::string dir = "");

  /// Lookup by canonical key: memory first, then disk (a disk hit is
  /// promoted into memory).  Returns nullptr on a miss.  A disk record
  /// that fails any io::Record check, or whose stored canonical string
  /// mismatches (hash collision), is treated as a miss.
  [[nodiscard]] const MemberRecord* find(const std::string& canonical);

  /// Stores a record under its canonical key (in memory, and on disk when
  /// a cache dir is configured).  Overwrites any previous record.  Throws
  /// mali::Error when the disk record cannot be written.
  void store(const MemberRecord& rec);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// FNV-1a 64-bit hash — the content hash behind every key.
  [[nodiscard]] static std::uint64_t fnv1a(const std::string& s);
  /// Fixed-width lowercase hex of a key hash (filenames, JSON "key").
  [[nodiscard]] static std::string key_hex(std::uint64_t h);

 private:
  [[nodiscard]] std::string path_for(const std::string& canonical) const;

  std::string dir_;
  std::unordered_map<std::string, MemberRecord> mem_;
};

}  // namespace mali::ensemble
