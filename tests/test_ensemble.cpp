// Ensemble engine battery (DESIGN.md §15):
//   - cross-product expansion determinism (last dimension fastest) and
//     parity with the historical nested-loop order
//   - LPT scheduler determinism, balance, and the round-robin execution
//     order
//   - manifest canonical round trip (field-for-field, doubles bitwise) and
//     the malformed-manifest typed-error battery
//   - result cache round trips (memory and disk) bit-exact, with the
//     canonical-string collision guard demoting hash collisions to misses
//   - engine contracts: cache-served rerun byte-identical members section,
//     warm vs cold within 1e-10/dof (also on a multilevel shared AMG),
//     AMG structure reuse bitwise equal to a rebuild, member velocities
//     against recorded values

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ensemble/engine.hpp"
#include "ensemble/manifest.hpp"
#include "ensemble/result_cache.hpp"
#include "ensemble/scheduler.hpp"
#include "ensemble/sweep.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "portability/common.hpp"
#include "util/json_writer.hpp"

using namespace mali;

namespace {

std::string temp_dir(const char* name) {
  // gtest's TempDir() is stable across runs of the binary; wipe any stale
  // cache records a previous run left behind so hit/miss counts start
  // from a known-empty store.
  const std::string path = ::testing::TempDir() + name;
  std::filesystem::remove_all(path);
  return path;
}

/// Small fast manifest every engine test shares (2 members, coarse dome).
ensemble::EnsembleManifest small_manifest() {
  ensemble::EnsembleManifest m;
  m.name = "test-sweep";
  m.dx_km = 220.0;
  m.layers = 3;
  m.years = 0.25;
  m.velocity_every = 1;
  // Tight absolute Newton tolerance: the warm == cold contract below
  // compares converged states, so the convergence target must be well
  // below the 1e-10/dof pin.
  m.newton_max_iters = 40;
  m.newton_tol = 1e-9;
  m.rank_groups = 1;
  m.glen_n = {3.0};
  m.glen_A = {1.0e-16};
  m.friction_scale = {1.0, 1.1};
  m.forcing = {"constant"};
  return m;
}

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits(a[i]) != bits(b[i])) return false;
  }
  return true;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double d = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    d = std::max(d, std::fabs(a[i] - b[i]));
  }
  return d;
}

}  // namespace

// ---- JSON writer (the results/bench document emitter) -----------------

// Containers opened directly after key() (or as array elements) must still
// participate in comma bookkeeping: the first key inside a nested object
// gets its newline, the SECOND gets a comma, and sibling array elements
// are comma-separated.  Pinned as exact text because this is exactly the
// separator state a streaming writer gets wrong.
TEST(JsonWriter, NestedContainersGetSeparators) {
  util::JsonWriter w;
  w.begin_object();
  w.key("a").begin_object();
  w.key("x").value(1);
  w.key("y").value(2);
  w.end_object();
  w.key("b").begin_array();
  w.begin_object();
  w.key("p").value(true);
  w.end_object();
  w.begin_object();
  w.key("q").value(false);
  w.end_object();
  w.end_array();
  w.key("c").begin_array();
  w.begin_array();
  w.value(1);
  w.value(2);
  w.end_array();
  w.begin_array();
  w.value(3);
  w.end_array();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"a\": {\n"
            "    \"x\": 1,\n"
            "    \"y\": 2\n"
            "  },\n"
            "  \"b\": [\n"
            "    {\n"
            "      \"p\": true\n"
            "    },\n"
            "    {\n"
            "      \"q\": false\n"
            "    }\n"
            "  ],\n"
            "  \"c\": [\n"
            "    [\n"
            "      1,\n"
            "      2\n"
            "    ],\n"
            "    [\n"
            "      3\n"
            "    ]\n"
            "  ]\n"
            "}");
}

// ---- cross-product expansion ------------------------------------------

TEST(Sweep, LastDimensionFastestMatchesNestedLoops) {
  const auto tuples = ensemble::cross_product_indices({2, 3, 2});
  ASSERT_EQ(tuples.size(), 12u);
  std::size_t k = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      for (std::size_t l = 0; l < 2; ++l, ++k) {
        ASSERT_EQ(tuples[k].size(), 3u);
        EXPECT_EQ(tuples[k][0], i);
        EXPECT_EQ(tuples[k][1], j);
        EXPECT_EQ(tuples[k][2], l);
      }
    }
  }
}

TEST(Sweep, EdgeCases) {
  // No dimensions: exactly one empty tuple (the identity of the product).
  const auto none = ensemble::cross_product_indices({});
  ASSERT_EQ(none.size(), 1u);
  EXPECT_TRUE(none[0].empty());
  // A zero-size dimension annihilates the product.
  EXPECT_TRUE(ensemble::cross_product_indices({3, 0, 2}).empty());
  // Determinism: two calls produce identical tuples.
  EXPECT_EQ(ensemble::cross_product_indices({4, 5}),
            ensemble::cross_product_indices({4, 5}));
}

TEST(Sweep, MemberExpansionIsStable) {
  ensemble::EnsembleManifest m = small_manifest();
  m.glen_n = {3.0, 3.5};
  m.forcing = {"constant", "ramp:anomaly=-0.5"};
  const auto a = ensemble::expand_members(m);
  const auto b = ensemble::expand_members(m);
  ASSERT_EQ(a.size(), m.n_members());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(bits(a[i].glen_n), bits(b[i].glen_n));
    EXPECT_EQ(bits(a[i].friction_scale), bits(b[i].friction_scale));
    EXPECT_EQ(a[i].forcing, b[i].forcing);
  }
  // forcing is the last (fastest) dimension.
  EXPECT_EQ(a[0].forcing, "constant");
  EXPECT_EQ(a[1].forcing, "ramp:anomaly=-0.5");
  EXPECT_EQ(bits(a[0].glen_n), bits(3.0));
  EXPECT_EQ(bits(a.back().glen_n), bits(3.5));
}

// ---- scheduler --------------------------------------------------------

TEST(Scheduler, UniformCostsRoundRobinDeterministically) {
  const auto s1 = ensemble::schedule_members(7, 3);
  const auto s2 = ensemble::schedule_members(7, 3);
  ASSERT_EQ(s1.groups.size(), 3u);
  EXPECT_EQ(s1.groups, s2.groups);
  EXPECT_EQ(s1.load, s2.load);
  // Every member appears exactly once.
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const auto& g : s1.groups) {
    total += g.size();
    for (const std::size_t id : g) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(total, 7u);
  // Uniform costs balance to within one member.
  const auto [lo, hi] = std::minmax_element(s1.load.begin(), s1.load.end());
  EXPECT_LE(*hi - *lo, 1.0 + 1e-12);
}

TEST(Scheduler, LptPlacesHeavyMembersFirst) {
  // Costs 10, 1, 1, 1, 9 on two groups: LPT puts 0 alone-ish (10) and
  // pairs 4 (9) with the light ones — makespan 11 vs naive 13.
  const auto s = ensemble::schedule_members(5, 2, {10, 1, 1, 1, 9});
  ASSERT_EQ(s.groups.size(), 2u);
  EXPECT_EQ(std::max(s.load[0], s.load[1]), 11.0);
  // Heaviest member went to group 0 (ties break low).
  EXPECT_EQ(s.groups[0].front(), 0u);
  EXPECT_EQ(s.groups[1].front(), 4u);
}

TEST(Scheduler, ExecutionOrderIsRoundRobinOverGroups) {
  ensemble::Schedule s;
  s.groups = {{0, 2, 5}, {1, 3}, {4}};
  const auto order = s.execution_order();
  const std::vector<std::size_t> expect{0, 1, 4, 2, 3, 5};
  EXPECT_EQ(order, expect);
}

TEST(Scheduler, OneGroupIsIdentityOrder) {
  const auto s = ensemble::schedule_members(4, 1);
  ASSERT_EQ(s.groups.size(), 1u);
  const std::vector<std::size_t> expect{0, 1, 2, 3};
  EXPECT_EQ(s.groups[0], expect);
  EXPECT_EQ(s.execution_order(), expect);
}

// ---- manifest ---------------------------------------------------------

TEST(Manifest, ParsesCommentsDefaultsAndSweeps) {
  const auto m = ensemble::parse_manifest(
      "# a sweep\n"
      "name = warming   # trailing comment\n"
      "dx_km = 150\n"
      "sweep.glen_A = 0.8e-16, 1.2e-16\n"
      "sweep.forcing = constant; ramp:anomaly=-0.5,end=2\n");
  EXPECT_EQ(m.name, "warming");
  EXPECT_EQ(bits(m.dx_km), bits(150.0));
  EXPECT_EQ(m.layers, 3);                  // default
  EXPECT_EQ(bits(m.years), bits(0.5));     // default
  ASSERT_EQ(m.glen_A.size(), 2u);
  EXPECT_EQ(bits(m.glen_A[0]), bits(0.8e-16));
  ASSERT_EQ(m.forcing.size(), 2u);
  EXPECT_EQ(m.forcing[1], "ramp:anomaly=-0.5,end=2");
  EXPECT_EQ(m.n_members(), 4u);
}

TEST(Manifest, CanonicalRoundTripsBitwise) {
  ensemble::EnsembleManifest m = small_manifest();
  m.dx_km = 1.0 / 3.0;             // no short exact decimal
  m.newton_tol = 1e-300;           // extreme exponent
  m.glen_n = {3.0, 3.0000000000000004};  // adjacent representables
  m.glen_A = {4.9e-324};           // subnormal
  const auto r = ensemble::parse_manifest(m.canonical());
  EXPECT_EQ(r.name, m.name);
  EXPECT_EQ(bits(r.dx_km), bits(m.dx_km));
  EXPECT_EQ(r.layers, m.layers);
  EXPECT_EQ(bits(r.years), bits(m.years));
  EXPECT_EQ(r.velocity_every, m.velocity_every);
  EXPECT_EQ(r.newton_max_iters, m.newton_max_iters);
  EXPECT_EQ(bits(r.newton_tol), bits(m.newton_tol));
  EXPECT_EQ(r.rank_groups, m.rank_groups);
  ASSERT_TRUE(bitwise_equal(r.glen_n, m.glen_n));
  ASSERT_TRUE(bitwise_equal(r.glen_A, m.glen_A));
  ASSERT_TRUE(bitwise_equal(r.friction_scale, m.friction_scale));
  EXPECT_EQ(r.forcing, m.forcing);
  // The canonical form is a fixed point.
  EXPECT_EQ(r.canonical(), m.canonical());
}

TEST(Manifest, MalformedManifestsAreTypedErrors) {
  const char* bad[] = {
      "volcano = 3\n",                       // unknown key
      "dx_km\n",                             // no '='
      "= 3\n",                               // empty key
      "dx_km = \n",                          // empty value
      "dx_km = abc\n",                       // not a number
      "dx_km = 1e999\n",                     // overflows to inf
      "dx_km = -100\n",                      // out of range
      "dx_km = 100\ndx_km = 200\n",          // duplicate key
      "layers = 2.5\n",                      // non-integer int
      "layers = 0\n",                        // out of range
      "years = 0\n",                         // out of range
      "velocity_every = -2\n",               // below the -1 sentinel
      "newton_max_iters = 0\n",              // out of range
      "newton_tol = -1e-6\n",                // out of range
      "rank_groups = 0\n",                   // out of range
      "sweep.glen_n = \n",                   // empty sweep
      "sweep.glen_n = 3,,4\n",               // empty element
      "sweep.glen_n = 0.5\n",                // glen_n < 1
      "sweep.glen_A = -1e-16\n",             // non-positive
      "sweep.friction_scale = 0\n",          // non-positive
      "sweep.forcing = ;\n",                 // empty spec
      "name =\n",                            // empty name
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)ensemble::parse_manifest(text), mali::Error)
        << "manifest should be rejected:\n" << text;
  }
  // The unknown-key error names every valid key (self-documenting).
  try {
    (void)ensemble::parse_manifest("volcano = 3\n");
    FAIL() << "unknown key accepted";
  } catch (const mali::Error& e) {
    const std::string msg = e.what();
    for (const char* key :
         {"dx_km", "layers", "years", "velocity_every", "newton_max_iters",
          "newton_tol", "rank_groups", "sweep.glen_n", "sweep.glen_A",
          "sweep.friction_scale", "sweep.forcing"}) {
      EXPECT_NE(msg.find(key), std::string::npos) << key;
    }
  }
}

TEST(Manifest, LoadManifestReadsFilesAndRejectsMissing) {
  const std::string path = temp_dir("manifest.ens");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("name = from-disk\nsweep.friction_scale = 1,1.5\n", f);
  std::fclose(f);
  const auto m = ensemble::load_manifest(path);
  EXPECT_EQ(m.name, "from-disk");
  EXPECT_EQ(m.n_members(), 2u);
  EXPECT_THROW((void)ensemble::load_manifest(path + ".nope"), mali::Error);
}

// ---- result cache -----------------------------------------------------

namespace {

ensemble::MemberRecord sample_record(const std::string& canonical) {
  ensemble::MemberRecord rec;
  rec.canonical = canonical;
  rec.steps = 7;
  rec.velocity_solves = 5;
  rec.newton_iters = 23;
  rec.rejections = 1;
  rec.volume_initial = 1.0 / 3.0;
  rec.volume_final = 0.1 + 0.2;  // deliberately not 0.3
  rec.mean_velocity = -0.0;
  rec.max_mass_residual = 4.9e-324;
  rec.U = {1.5, -2.25, 1.0 / 7.0};
  rec.H = {3.0, 4.9406564584124654e-324};
  return rec;
}

void expect_record_bitwise(const ensemble::MemberRecord& a,
                           const ensemble::MemberRecord& b) {
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.velocity_solves, b.velocity_solves);
  EXPECT_EQ(a.newton_iters, b.newton_iters);
  EXPECT_EQ(a.rejections, b.rejections);
  EXPECT_EQ(bits(a.volume_initial), bits(b.volume_initial));
  EXPECT_EQ(bits(a.volume_final), bits(b.volume_final));
  EXPECT_EQ(bits(a.mean_velocity), bits(b.mean_velocity));
  EXPECT_EQ(bits(a.max_mass_residual), bits(b.max_mass_residual));
  EXPECT_TRUE(bitwise_equal(a.U, b.U));
  EXPECT_TRUE(bitwise_equal(a.H, b.H));
}

}  // namespace

TEST(ResultCache, MemoryRoundTripIsBitExact) {
  ensemble::ResultCache cache;  // memory-only
  EXPECT_EQ(cache.find("k1"), nullptr);
  const auto rec = sample_record("k1");
  cache.store(rec);
  const auto* hit = cache.find("k1");
  ASSERT_NE(hit, nullptr);
  expect_record_bitwise(*hit, rec);
  EXPECT_EQ(cache.find("k2"), nullptr);
}

TEST(ResultCache, DiskRoundTripAcrossInstancesIsBitExact) {
  const std::string dir = temp_dir("ensr_cache_rt");
  const auto rec = sample_record("disk-key|v=1");
  {
    ensemble::ResultCache writer(dir);
    writer.store(rec);
  }
  ensemble::ResultCache reader(dir);  // fresh process simulation
  const auto* hit = reader.find("disk-key|v=1");
  ASSERT_NE(hit, nullptr);
  expect_record_bitwise(*hit, rec);
}

TEST(ResultCache, HashCollisionDegradesToAMissNeverAWrongResult) {
  const std::string dir = temp_dir("ensr_cache_coll");
  const std::string key_a = "canonical-A";
  const std::string key_b = "canonical-B";
  {
    ensemble::ResultCache writer(dir);
    writer.store(sample_record(key_a));
  }
  // Simulate fnv1a(key_b) == fnv1a(key_a): plant A's record at B's slot.
  const std::string file_a =
      dir + "/" + ensemble::ResultCache::key_hex(
                      ensemble::ResultCache::fnv1a(key_a)) + ".ensr";
  const std::string file_b =
      dir + "/" + ensemble::ResultCache::key_hex(
                      ensemble::ResultCache::fnv1a(key_b)) + ".ensr";
  ASSERT_EQ(std::rename(file_a.c_str(), file_b.c_str()), 0);
  ensemble::ResultCache reader(dir);
  // The stored canonical string says A, the lookup says B: must miss.
  EXPECT_EQ(reader.find(key_b), nullptr);
}

TEST(ResultCache, CorruptDiskRecordsAreMisses) {
  const std::string dir = temp_dir("ensr_cache_bad");
  const std::string key = "corrupt-me";
  {
    ensemble::ResultCache writer(dir);
    writer.store(sample_record(key));
  }
  const std::string file =
      dir + "/" + ensemble::ResultCache::key_hex(
                      ensemble::ResultCache::fnv1a(key)) + ".ensr";
  // Truncate mid-record.
  std::FILE* f = std::fopen(file.c_str(), "r+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(file.c_str(), size / 2), 0);
  ensemble::ResultCache reader(dir);
  EXPECT_EQ(reader.find(key), nullptr);
  // Garbage magic.
  std::FILE* g = std::fopen(file.c_str(), "w");
  ASSERT_NE(g, nullptr);
  std::fputs("NOTMAGIC-and-then-some", g);
  std::fclose(g);
  ensemble::ResultCache reader2(dir);
  EXPECT_EQ(reader2.find(key), nullptr);
}

// ---- AMG structure reuse ---------------------------------------------

TEST(EnsembleAmg, StructureReuseIsBitIdenticalToARebuild) {
  // Fine enough that the hierarchy actually coarsens (> 1 level), so the
  // replay path re-runs real aggregation maps, not just the fine level.
  physics::StokesFOConfig pcfg;
  pcfg.dx_m = 64.0e3;
  pcfg.n_layers = 5;
  physics::StokesFOProblem problem(pcfg);
  const auto U = problem.analytic_initial_guess();
  std::vector<double> F;
  auto A = problem.create_matrix();
  problem.residual_and_jacobian(U, F, A);

  linalg::SemicoarseningAmg fresh(problem.extrusion_info());
  linalg::SemicoarseningAmg reused(problem.extrusion_info());
  fresh.compute(A);
  ASSERT_GT(fresh.n_levels(), 1u);  // the replay below is nontrivial
  reused.compute(A);   // first compute: derives and caches the aggregation
  reused.compute(A);   // second: replays the cached structure
  EXPECT_EQ(reused.hierarchy_builds(), 1u);
  EXPECT_EQ(reused.structure_reuses(), 1u);
  EXPECT_EQ(fresh.structure_reuses(), 0u);
  EXPECT_EQ(reused.n_levels(), fresh.n_levels());

  // The recycled hierarchy must apply bit-identically to the rebuilt one.
  std::vector<double> r(A.n_rows());
  for (std::size_t i = 0; i < r.size(); ++i) {
    r[i] = std::sin(0.1 * static_cast<double>(i) + 0.3);
  }
  std::vector<double> z_fresh(r.size()), z_reused(r.size());
  fresh.apply(r, z_fresh);
  reused.apply(r, z_reused);
  EXPECT_TRUE(bitwise_equal(z_fresh, z_reused));
}

// ---- engine -----------------------------------------------------------

TEST(EnsembleEngine, CacheServedRerunIsByteIdenticalAndAllHits) {
  ensemble::EnsembleConfig cfg;
  cfg.verbose = false;
  ensemble::EnsembleEngine engine(small_manifest(), cfg);
  const auto first = engine.run();
  EXPECT_EQ(first.stats.cache_misses, 2u);
  EXPECT_EQ(first.stats.cache_hits, 0u);
  const auto second = engine.run();
  EXPECT_EQ(second.stats.cache_hits, 2u);
  EXPECT_EQ(second.stats.cache_misses, 0u);
  // The deterministic members section is byte-identical between the
  // computing run and the cache-served rerun.
  EXPECT_EQ(ensemble::EnsembleEngine::members_json(first),
            ensemble::EnsembleEngine::members_json(second));
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    expect_record_bitwise(first.records[i], second.records[i]);
  }
}

TEST(EnsembleEngine, DiskCacheServesASecondEngine) {
  const std::string dir = temp_dir("ensr_engine_disk");
  ensemble::EnsembleConfig cfg;
  cfg.cache_dir = dir;
  const auto m = small_manifest();
  const auto first = ensemble::EnsembleEngine(m, cfg).run();
  EXPECT_EQ(first.stats.cache_misses, m.n_members());
  // A brand-new engine (fresh memory cache) over the same disk dir: every
  // member a disk hit, members section byte-identical.
  const auto second = ensemble::EnsembleEngine(m, cfg).run();
  EXPECT_EQ(second.stats.cache_hits, m.n_members());
  EXPECT_EQ(second.stats.cache_misses, 0u);
  EXPECT_EQ(ensemble::EnsembleEngine::members_json(first),
            ensemble::EnsembleEngine::members_json(second));
}

TEST(EnsembleEngine, WarmStartMatchesColdWithinTolerancePerDof) {
  const auto m = small_manifest();
  ensemble::EnsembleConfig warm_cfg;
  warm_cfg.use_cache = false;  // force both runs to compute
  warm_cfg.warm_start = true;
  ensemble::EnsembleConfig cold_cfg = warm_cfg;
  cold_cfg.warm_start = false;

  const auto warm = ensemble::EnsembleEngine(m, warm_cfg).run();
  const auto cold = ensemble::EnsembleEngine(m, cold_cfg).run();
  EXPECT_GT(warm.stats.warm_starts, 0u);
  EXPECT_EQ(cold.stats.warm_starts, 0u);
  for (std::size_t i = 0; i < warm.records.size(); ++i) {
    const auto& wu = warm.records[i].U;
    const auto& cu = cold.records[i].U;
    ASSERT_EQ(wu.size(), cu.size());
    EXPECT_LE(max_abs_diff(wu, cu) / static_cast<double>(wu.size()), 1e-10)
        << "member " << i;
  }
}

// ---- engine on a multilevel AMG -----------------------------------------

namespace {

/// small_manifest() at 64 km / 5 layers, where the shared AMG smooths
/// several levels (at 220 km / 3 layers it is one direct level).  ||F||
/// starts near 1e16 and floors between 1e1 and 1e3 here: 1e3 converges in
/// about ten Newton steps, 1e1 would run every member to max_iters.
ensemble::EnsembleManifest multilevel_manifest() {
  auto m = small_manifest();
  m.dx_km = 64.0;
  m.layers = 5;
  m.newton_tol = 1e3;
  return m;
}

}  // namespace

/// One warm-started and one cold run of multilevel_manifest(), shared by
/// the tests below.
class EnsembleMultilevel : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ensemble::EnsembleConfig cfg;
    cfg.use_cache = false;  // both runs compute
    warm_ = ensemble::EnsembleEngine(multilevel_manifest(), cfg).run();
    cfg.warm_start = false;
    cold_ = ensemble::EnsembleEngine(multilevel_manifest(), cfg).run();
  }
  static void TearDownTestSuite() {
    warm_.reset();
    cold_.reset();
  }

  static inline std::optional<ensemble::EnsembleEngine::RunOutput> warm_;
  static inline std::optional<ensemble::EnsembleEngine::RunOutput> cold_;
};

TEST_F(EnsembleMultilevel, OneHierarchyBuildIsReplayedForEveryMember) {
  const auto m = multilevel_manifest();
  physics::StokesFOConfig pcfg;
  pcfg.dx_m = m.dx_km * 1e3;
  pcfg.n_layers = m.layers;
  physics::StokesFOProblem problem(pcfg);
  std::vector<double> F;
  auto A = problem.create_matrix();
  problem.residual_and_jacobian(problem.analytic_initial_guess(), F, A);
  linalg::SemicoarseningAmg amg(problem.extrusion_info());
  amg.compute(A);
  ASSERT_GT(amg.n_levels(), 2u);  // smoothed levels above the direct solve

  EXPECT_EQ(warm_->stats.amg_builds, 1u);
  EXPECT_GT(warm_->stats.amg_reuses, 0u);
  EXPECT_EQ(cold_->stats.amg_builds, 1u);
  EXPECT_GT(warm_->stats.warm_starts, 0u);
  EXPECT_EQ(cold_->stats.warm_starts, 0u);
}

TEST_F(EnsembleMultilevel, WarmStartMatchesColdWithinTolerancePerDof) {
  ASSERT_EQ(warm_->records.size(), cold_->records.size());
  for (std::size_t i = 0; i < warm_->records.size(); ++i) {
    const auto& wu = warm_->records[i].U;
    const auto& cu = cold_->records[i].U;
    ASSERT_EQ(wu.size(), cu.size());
    EXPECT_LE(max_abs_diff(wu, cu) / static_cast<double>(wu.size()), 1e-10)
        << "member " << i;
  }
}

TEST_F(EnsembleMultilevel, MemberVelocitiesHoldAgainstRecordedValues) {
  // Recorded with the engine's former Chebyshev-smoothed AMG (cold run):
  // the smoother changes the Newton path, not the root.
  const double recorded[] = {241.28861125778946, 237.1158747513599};
  for (const auto* out : {&*warm_, &*cold_}) {
    ASSERT_EQ(out->records.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_NEAR(out->records[i].mean_velocity, recorded[i],
                  1e-5 * recorded[i])
          << "member " << i;
    }
  }
}

TEST(EnsembleEngine, ExecutionFollowsTheScheduleAndKeysExcludeLabels) {
  auto m = small_manifest();
  const auto members = ensemble::expand_members(m);

  // rank_groups and name are scheduling/labels: the cache key must not
  // change when they do (a renamed manifest reuses the same results).
  auto relabeled = m;
  relabeled.name = "totally-different";
  relabeled.rank_groups = 2;
  for (const auto& p : members) {
    EXPECT_EQ(ensemble::EnsembleEngine::member_canonical_key(m, p, 1),
              ensemble::EnsembleEngine::member_canonical_key(relabeled, p, 1));
  }
  // ranks DO enter the key (a distributed solve is a different pipeline).
  EXPECT_NE(ensemble::EnsembleEngine::member_canonical_key(m, members[0], 1),
            ensemble::EnsembleEngine::member_canonical_key(m, members[0], 2));
  // Physics parameters move the key.
  auto p2 = members[0];
  p2.friction_scale *= 2.0;
  EXPECT_NE(ensemble::EnsembleEngine::member_canonical_key(m, members[0], 1),
            ensemble::EnsembleEngine::member_canonical_key(m, p2, 1));

  // The schedule in the output covers every member exactly once.
  ensemble::EnsembleConfig cfg;
  m.rank_groups = 2;
  const auto out = ensemble::EnsembleEngine(m, cfg).run();
  ASSERT_EQ(out.schedule.groups.size(), 2u);
  std::set<std::size_t> seen;
  for (const auto& g : out.schedule.groups) {
    for (const std::size_t id : g) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(seen.size(), members.size());
}

TEST(EnsembleEngine, MalformedMemberForcingIsATypedError) {
  auto m = small_manifest();
  m.forcing = {"volcano:eruption=1"};
  ensemble::EnsembleConfig cfg;
  ensemble::EnsembleEngine engine(m, cfg);
  EXPECT_THROW((void)engine.run(), mali::Error);
}

TEST(EnsembleEngine, ResultsJsonCarriesSchemaScheduleAndMembers) {
  const auto m = small_manifest();
  ensemble::EnsembleConfig cfg;
  ensemble::EnsembleEngine engine(m, cfg);
  const auto out = engine.run();
  const std::string with_stats =
      ensemble::EnsembleEngine::results_json(out, m, true);
  EXPECT_NE(with_stats.find("\"schema\": \"mali-ensemble-results-v2\""),
            std::string::npos);
  EXPECT_NE(with_stats.find("\"manifest\": "), std::string::npos);
  EXPECT_NE(with_stats.find("\"members\": "), std::string::npos);
  EXPECT_NE(with_stats.find("\"stats\": "), std::string::npos);
  EXPECT_NE(with_stats.find("\"wall_seconds\": "), std::string::npos);
  // Without stats the document is fully deterministic; the members
  // fragment embedded in it is exactly members_json.
  const std::string no_stats =
      ensemble::EnsembleEngine::results_json(out, m, false);
  EXPECT_EQ(no_stats.find("wall_seconds"), std::string::npos);
  EXPECT_NE(no_stats.find(ensemble::EnsembleEngine::members_json(out)),
            std::string::npos);
}

// ---- graceful degradation (DESIGN.md §16) -----------------------------

TEST(EnsembleEngine, PermanentMemberFaultIsQuarantinedNotFatal) {
  const auto m = small_manifest();
  ensemble::EnsembleConfig cfg;
  cfg.member_retries = 1;
  // The pre-attempt seam models a permanently broken member: every
  // attempt for member 1 fails, so the retry budget is exhausted and the
  // member is quarantined while the batch completes.
  cfg.before_attempt = [](std::size_t id, int) {
    if (id == 1) throw mali::Error("injected permanent member fault");
  };
  ensemble::EnsembleEngine engine(m, cfg);
  const auto out = engine.run();  // must not throw

  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0].status, "ok");
  EXPECT_EQ(out.records[1].status, "quarantined");
  EXPECT_EQ(out.records[1].attempts, 2);
  EXPECT_NE(out.records[1].fault.find("injected permanent member fault"),
            std::string::npos);
  // A quarantined record carries no state (nothing to donate or cache).
  EXPECT_TRUE(out.records[1].U.empty());
  EXPECT_EQ(out.records[1].steps, 0);
  EXPECT_EQ(out.stats.quarantined, 1u);
  EXPECT_EQ(out.stats.retried, 0u);
  // The results document labels the member for downstream consumers.
  const std::string json = ensemble::EnsembleEngine::members_json(out);
  EXPECT_NE(json.find("\"status\": \"quarantined\""), std::string::npos);

  // Quarantined members are never cached: a rerun serves the healthy
  // member from cache (one hit, zero misses) and re-attempts the broken
  // one, quarantining it again.
  const auto second = engine.run();
  EXPECT_EQ(second.stats.cache_hits, 1u);
  EXPECT_EQ(second.stats.cache_misses, 0u);
  EXPECT_EQ(second.stats.quarantined, 1u);
  EXPECT_EQ(second.records[1].status, "quarantined");
}

TEST(EnsembleEngine, TransientMemberFaultIsRetriedAndMatchesACleanRun) {
  const auto m = small_manifest();
  ensemble::EnsembleConfig clean_cfg;
  clean_cfg.use_cache = false;
  const auto clean = ensemble::EnsembleEngine(m, clean_cfg).run();

  // Member 0 fails exactly once; the retry runs clean (the transient
  // fault model), so the batch degrades to one extra attempt and the
  // numbers are indistinguishable from an undisturbed run.
  int injected = 0;
  ensemble::EnsembleConfig cfg;
  cfg.use_cache = false;
  cfg.member_retries = 2;
  cfg.before_attempt = [&injected](std::size_t id, int attempt) {
    if (id == 0 && attempt == 0) {
      ++injected;
      throw mali::Error("injected transient member fault");
    }
  };
  const auto out = ensemble::EnsembleEngine(m, cfg).run();

  EXPECT_EQ(injected, 1);
  ASSERT_EQ(out.records.size(), clean.records.size());
  EXPECT_EQ(out.records[0].status, "retried");
  EXPECT_EQ(out.records[0].attempts, 2);
  EXPECT_NE(out.records[0].fault.find("injected transient member fault"),
            std::string::npos);
  EXPECT_EQ(out.records[1].status, "ok");
  EXPECT_EQ(out.stats.retried, 1u);
  EXPECT_EQ(out.stats.quarantined, 0u);
  for (std::size_t i = 0; i < out.records.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(out.records[i].U, clean.records[i].U))
        << "member " << i;
    EXPECT_EQ(out.records[i].steps, clean.records[i].steps) << "member " << i;
    EXPECT_EQ(bits(out.records[i].volume_final),
              bits(clean.records[i].volume_final))
        << "member " << i;
  }
}
