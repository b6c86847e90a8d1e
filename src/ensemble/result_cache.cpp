#include "ensemble/result_cache.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "portability/common.hpp"
#include "util/hash.hpp"

namespace mali::ensemble {

namespace {

constexpr char kMagic[8] = {'M', 'A', 'L', 'I', 'E', 'N', 'S', 'R'};
// v2 adds the degradation fields (status / attempts / fault).  A version
// mismatch is a miss, so v1 files degrade to recomputation, never to a
// misparse.
constexpr std::uint32_t kVersion = 2;

template <class T>
void put(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <class T>
bool get(std::ifstream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  return in.good();
}

void put_string(std::ofstream& out, const std::string& s) {
  const std::uint64_t n = s.size();
  put(out, n);
  out.write(s.data(), static_cast<std::streamsize>(n));
}

bool get_string(std::ifstream& in, std::string& s) {
  std::uint64_t n = 0;
  if (!get(in, n) || n > (1ull << 30)) return false;
  s.resize(n);
  in.read(s.data(), static_cast<std::streamsize>(n));
  return in.good();
}

void put_vector(std::ofstream& out, const std::vector<double>& v) {
  const std::uint64_t n = v.size();
  put(out, n);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(double)));
}

bool get_vector(std::ifstream& in, std::vector<double>& v) {
  std::uint64_t n = 0;
  if (!get(in, n) || n > (1ull << 30)) return false;
  v.resize(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  return in.good();
}

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

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

  std::ifstream in(path_for(canonical), std::ios::binary);
  if (!in.good()) return nullptr;

  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return nullptr;
  }
  std::uint32_t version = 0;
  if (!get(in, version) || version != kVersion) return nullptr;

  MemberRecord rec;
  if (!get_string(in, rec.canonical)) return nullptr;
  // The filename is only the 64-bit hash; the stored canonical string is
  // the real key.  A mismatch (collision or corruption) is a miss.
  if (rec.canonical != canonical) return nullptr;
  bool ok = get_string(in, rec.status) && get(in, rec.attempts) &&
            get_string(in, rec.fault) && get(in, rec.steps) &&
            get(in, rec.velocity_solves) && get(in, rec.newton_iters) &&
            get(in, rec.rejections) && get(in, rec.volume_initial) &&
            get(in, rec.volume_final) && get(in, rec.mean_velocity) &&
            get(in, rec.max_mass_residual) && get_vector(in, rec.U) &&
            get_vector(in, rec.H);
  if (!ok) return nullptr;

  const auto [pos, inserted] = mem_.emplace(canonical, std::move(rec));
  (void)inserted;
  return &pos->second;
}

void ResultCache::store(const MemberRecord& rec) {
  MALI_CHECK_MSG(!rec.canonical.empty(),
                 "ResultCache: record has no canonical key");
  mem_[rec.canonical] = rec;
  if (dir_.empty()) return;

  if (!dir_ready_) {
    ::mkdir(dir_.c_str(), 0755);  // fine if it already exists
    dir_ready_ = true;
  }
  const std::string path = path_for(rec.canonical);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  MALI_CHECK_MSG(out.good(),
                 "ResultCache: cannot write '" + path + "'");
  out.write(kMagic, sizeof(kMagic));
  put(out, kVersion);
  put_string(out, rec.canonical);
  put_string(out, rec.status);
  put(out, rec.attempts);
  put_string(out, rec.fault);
  put(out, rec.steps);
  put(out, rec.velocity_solves);
  put(out, rec.newton_iters);
  put(out, rec.rejections);
  put(out, rec.volume_initial);
  put(out, rec.volume_final);
  put(out, rec.mean_velocity);
  put(out, rec.max_mass_residual);
  put_vector(out, rec.U);
  put_vector(out, rec.H);
  MALI_CHECK_MSG(out.good(), "ResultCache: write failed for '" + path + "'");
}

}  // namespace mali::ensemble
