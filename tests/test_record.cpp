// Corruption battery over the three io::Record formats (MALICKPT solver
// checkpoints, MALITCKP transient checkpoints, MALIENSR ensemble cache
// records), driven through their public save/load and store/find calls:
//   - a small record cut to every length from 0 to size-1 is rejected;
//   - a record with one bit flipped in any byte is rejected;
//   - "rejected" means a mali::Error (never a std:: exception) for the
//     checkpoints, and a miss for the cache, whose recompute stores a
//     byte-identical record;
// plus the three faults the hand-rolled formats had: a flipped U payload
// bit served as a cache hit, a flipped length bit escaping as
// std::length_error, and a save that overwrote a hard-linked live file.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ensemble/result_cache.hpp"
#include "portability/common.hpp"
#include "resilience/checkpoint.hpp"

using namespace mali;

namespace {

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "record_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Byte offset of `v`'s raw doubles inside `bytes` (npos when absent).
std::size_t find_doubles(const std::string& bytes,
                         const std::vector<double>& v) {
  return bytes.find(std::string(reinterpret_cast<const char*>(v.data()),
                                v.size() * sizeof(double)));
}

resilience::SolverCheckpoint sample_solver() {
  resilience::SolverCheckpoint c;
  c.U = {1.0, -0.0, 5e-324};
  c.residual_norm = 0.25;
  c.newton_step = 3;
  c.valid = true;
  return c;
}

resilience::TransientCheckpoint sample_transient() {
  resilience::TransientCheckpoint c;
  c.H = {1.0, 2.0};
  c.T = {260.0};
  c.U = {0.5, -0.5};
  c.t = 1.5;
  c.dt = 0.25;
  c.step = 6;
  c.valid = true;
  return c;
}

const std::string kMemberKey = "record-battery|glen_A=1e-16";

ensemble::MemberRecord sample_member() {
  ensemble::MemberRecord rec;
  rec.canonical = kMemberKey;
  rec.steps = 2;
  rec.velocity_solves = 2;
  rec.newton_iters = 9;
  rec.volume_initial = 1.0 / 3.0;
  rec.volume_final = 0.3;
  rec.mean_velocity = 12.5;
  rec.U = {1.0, 2.0};
  rec.H = {3.0};
  return rec;
}

std::string member_path(const std::string& dir) {
  return dir + "/" +
         ensemble::ResultCache::key_hex(
             ensemble::ResultCache::fnv1a(kMemberKey)) +
         ".ensr";
}

const char* const kLoaded = "loaded";
const char* const kRejected = "rejected";

/// kRejected when `load` throws mali::Error, kLoaded when it returns, and
/// the message of any other exception.
template <class Load>
std::string checkpoint_outcome(Load load) {
  try {
    load();
    return kLoaded;
  } catch (const Error&) {
    return kRejected;
  } catch (const std::exception& e) {
    return std::string("non-mali exception: ") + e.what();
  }
}

struct Format {
  const char* name;
  /// Writes the sample record under `dir`; returns its path.
  std::string (*write)(const std::string& dir);
  /// Loads the record at `path` under `dir`, whose intact bytes are
  /// `intact`: kLoaded, kRejected, or what went wrong instead.
  std::string (*load)(const std::string& dir, const std::string& path,
                      const std::string& intact);
};

const Format kFormats[] = {
    {"MALICKPT",
     [](const std::string& dir) {
       const std::string path = dir + "/solver.ckpt";
       sample_solver().save(path);
       return path;
     },
     [](const std::string&, const std::string& path, const std::string&) {
       return checkpoint_outcome(
           [&] { (void)resilience::load_checkpoint(path); });
     }},
    {"MALITCKP",
     [](const std::string& dir) {
       const std::string path = dir + "/forecast.tckpt";
       sample_transient().save(path);
       return path;
     },
     [](const std::string&, const std::string& path, const std::string&) {
       return checkpoint_outcome(
           [&] { (void)resilience::load_transient_checkpoint(path); });
     }},
    {"MALIENSR",
     [](const std::string& dir) {
       ensemble::ResultCache(dir).store(sample_member());
       return member_path(dir);
     },
     [](const std::string& dir, const std::string& path,
        const std::string& intact) -> std::string {
       ensemble::ResultCache cache(dir);  // fresh memory level
       try {
         if (cache.find(kMemberKey) != nullptr) return kLoaded;
       } catch (const std::exception& e) {
         return std::string("find threw: ") + e.what();
       }
       cache.store(sample_member());  // the recompute
       if (read_bytes(path) != intact) return "recompute stored other bytes";
       return kRejected;
     }},
};

void PrintTo(const Format& f, std::ostream* os) { *os << f.name; }

class RecordCorruption : public ::testing::TestWithParam<Format> {};

}  // namespace

TEST_P(RecordCorruption, EveryTruncationIsRejected) {
  const Format& f = GetParam();
  const std::string dir = fresh_dir(std::string("trunc_") + f.name);
  const std::string path = f.write(dir);
  const std::string intact = read_bytes(path);
  ASSERT_EQ(f.load(dir, path, intact), kLoaded);
  for (std::size_t len = 0; len < intact.size(); ++len) {
    write_bytes(path, intact.substr(0, len));
    ASSERT_EQ(f.load(dir, path, intact), kRejected)
        << "cut to " << len << " of " << intact.size() << " bytes";
  }
  write_bytes(path, intact);
  EXPECT_EQ(f.load(dir, path, intact), kLoaded);
}

TEST_P(RecordCorruption, EverySingleBitFlipIsRejected) {
  const Format& f = GetParam();
  const std::string dir = fresh_dir(std::string("flip_") + f.name);
  const std::string path = f.write(dir);
  const std::string intact = read_bytes(path);
  ASSERT_EQ(f.load(dir, path, intact), kLoaded);
  for (std::size_t i = 0; i < intact.size(); ++i) {
    std::string flipped = intact;
    flipped[i] = static_cast<char>(flipped[i] ^ (1 << (i % 8)));
    write_bytes(path, flipped);
    ASSERT_EQ(f.load(dir, path, intact), kRejected)
        << "bit " << i % 8 << " of byte " << i << " of " << intact.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, RecordCorruption,
                         ::testing::ValuesIn(kFormats),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(RecordFaults, FlippedUPayloadBitIsACacheMissNotAWrongHit) {
  const std::string dir = fresh_dir("ensr_u_flip");
  const ensemble::MemberRecord rec = sample_member();
  ensemble::ResultCache(dir).store(rec);
  const std::string path = member_path(dir);
  std::string bytes = read_bytes(path);
  const std::size_t u = find_doubles(bytes, rec.U);
  ASSERT_NE(u, std::string::npos);
  bytes[u + 5] = static_cast<char>(bytes[u + 5] ^ 0x01);  // a mantissa bit
  write_bytes(path, bytes);
  ensemble::ResultCache reader(dir);
  const ensemble::MemberRecord* hit = reader.find(kMemberKey);
  EXPECT_EQ(hit, nullptr) << "served U[0] = " << (hit ? hit->U[0] : 0.0);
}

TEST(RecordFaults, FlippedLengthBitIsAMaliErrorNotALengthError) {
  const std::string dir = fresh_dir("ckpt_len_flip");
  const std::string path = dir + "/solver.ckpt";
  const resilience::SolverCheckpoint c = sample_solver();
  c.save(path);
  std::string bytes = read_bytes(path);
  const std::size_t u = find_doubles(bytes, c.U);
  ASSERT_NE(u, std::string::npos);
  // U's u64 length sits just before its doubles: flip its bit 62.
  bytes[u - 1] = static_cast<char>(bytes[u - 1] ^ 0x40);
  write_bytes(path, bytes);
  EXPECT_EQ(
      checkpoint_outcome([&] { (void)resilience::load_checkpoint(path); }),
      kRejected);
}

TEST(RecordFaults, SaveLeavesAHardLinkToTheOldCheckpointIntact) {
  const std::string dir = fresh_dir("tckpt_link");
  const std::string path = dir + "/forecast.tckpt";
  const std::string link = dir + "/kept.tckpt";
  resilience::TransientCheckpoint c = sample_transient();
  c.save(path);
  const std::string old_bytes = read_bytes(path);
  ASSERT_EQ(::link(path.c_str(), link.c_str()), 0);
  c.step += 1;
  c.H[0] = 7.0;
  c.save(path);
  // save replaces the directory entry; the linked inode keeps the old state.
  EXPECT_EQ(read_bytes(link), old_bytes);
  EXPECT_EQ(resilience::load_transient_checkpoint(link).step, 6);
  const resilience::TransientCheckpoint r =
      resilience::load_transient_checkpoint(path);
  EXPECT_EQ(r.step, 7);
  EXPECT_EQ(r.H[0], 7.0);
}
