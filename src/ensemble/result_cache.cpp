#include "ensemble/result_cache.hpp"

#include <cstdio>
#include <filesystem>

#include "io/record.hpp"
#include "portability/common.hpp"
#include "util/hash.hpp"

namespace mali::ensemble {

namespace {

// v2 added the degradation fields (status / attempts / fault); v3 moved to
// the checksummed io::Record layout.  Any reader error, a version mismatch
// included, is a miss, so old files degrade to recomputation, never to a
// misparse.
constexpr io::RecordFormat kFormat{"MALIENSR", 3};

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  MALI_CHECK_MSG(!ec, "ResultCache: cannot create cache directory '" + dir_ +
                          "': " + ec.message());
}

std::uint64_t ResultCache::fnv1a(const std::string& s) {
  return util::fnv1a64(s.data(), s.size());
}

std::string ResultCache::key_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string ResultCache::path_for(const std::string& canonical) const {
  return dir_ + "/" + key_hex(fnv1a(canonical)) + ".ensr";
}

const MemberRecord* ResultCache::find(const std::string& canonical) {
  const auto it = mem_.find(canonical);
  if (it != mem_.end()) return &it->second;
  if (dir_.empty()) return nullptr;

  MemberRecord rec;
  try {
    io::read_record(path_for(canonical), kFormat, rec.canonical, rec.status,
                    rec.attempts, rec.fault, rec.steps, rec.velocity_solves,
                    rec.newton_iters, rec.rejections, rec.volume_initial,
                    rec.volume_final, rec.mean_velocity,
                    rec.max_mass_residual, rec.U, rec.H);
  } catch (const Error&) {
    return nullptr;  // missing, truncated, corrupt or older-version record
  }
  // The filename is only the 64-bit hash; the stored canonical string is
  // the real key.  A mismatch (a hash collision) is a miss.
  if (rec.canonical != canonical) return nullptr;

  const auto [pos, inserted] = mem_.emplace(canonical, std::move(rec));
  (void)inserted;
  return &pos->second;
}

void ResultCache::store(const MemberRecord& rec) {
  MALI_CHECK_MSG(!rec.canonical.empty(),
                 "ResultCache: record has no canonical key");
  mem_[rec.canonical] = rec;
  if (dir_.empty()) return;

  io::write_record(path_for(rec.canonical), kFormat, rec.canonical,
                   rec.status, rec.attempts, rec.fault, rec.steps,
                   rec.velocity_solves, rec.newton_iters, rec.rejections,
                   rec.volume_initial, rec.volume_final, rec.mean_velocity,
                   rec.max_mass_residual, rec.U, rec.H);
}

}  // namespace mali::ensemble
