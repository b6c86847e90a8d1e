// Field-output tests: PPM heatmap structure and colormap properties, and
// CSV writing; and the io::Record checks a valid checksum cannot stand in
// for (magic, version, length prefixes, leftover bytes) and its failed
// commit.  test_record runs the corruption battery over the formats.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <cmath>
#include <sstream>

#include "io/field_writer.hpp"
#include "io/record.hpp"
#include "mesh/ice_geometry.hpp"

using namespace mali;

namespace {

struct Fixture {
  mesh::IceGeometry geom{};
  mesh::QuadGrid grid{geom, mesh::QuadGridConfig{200.0e3}};
  std::string tmp(const char* name) {
    return std::string(::testing::TempDir()) + name;
  }
};

}  // namespace

TEST(HeatColor, EndpointsAndMonotoneRedChannel) {
  const auto lo = io::heat_color(0.0);
  const auto hi = io::heat_color(1.0);
  EXPECT_GT(lo.b, lo.r);  // cold end is blue
  EXPECT_GT(hi.r, hi.b);  // hot end is red
  // Red channel grows (not strictly, but ends apart).
  EXPECT_GT(static_cast<int>(hi.r) - static_cast<int>(lo.r), 100);
  // Clamping.
  const auto under = io::heat_color(-3.0);
  EXPECT_EQ(under.r, lo.r);
  const auto over = io::heat_color(7.0);
  EXPECT_EQ(over.r, hi.r);
}

TEST(FieldWriter, PpmHeaderAndSize) {
  Fixture f;
  std::vector<double> field(f.grid.n_cells());
  for (std::size_t c = 0; c < field.size(); ++c) {
    field[c] = static_cast<double>(c);
  }
  io::HeatmapConfig cfg;
  cfg.pixels_per_cell = 2;
  const auto path = io::write_heatmap_ppm(f.tmp("field.ppm"), f.grid, field, cfg);

  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good());
  std::string magic;
  long w = 0, h = 0, maxval = 0;
  is >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(maxval, 255);
  EXPECT_GT(w, 0);
  EXPECT_GT(h, 0);
  EXPECT_EQ(w % cfg.pixels_per_cell, 0);
  is.get();  // single whitespace after header
  // Payload must be exactly w*h*3 bytes.
  const auto start = is.tellg();
  is.seekg(0, std::ios::end);
  EXPECT_EQ(static_cast<long>(is.tellg() - start), w * h * 3);
  std::remove(path.c_str());
}

TEST(FieldWriter, ConstantFieldRendersUniformIceColor) {
  Fixture f;
  std::vector<double> field(f.grid.n_cells(), 5.0);
  io::HeatmapConfig cfg;
  cfg.pixels_per_cell = 1;
  const auto path =
      io::write_heatmap_ppm(f.tmp("const.ppm"), f.grid, field, cfg);
  std::ifstream is(path, std::ios::binary);
  std::string magic;
  long w, h, maxval;
  is >> magic >> w >> h >> maxval;
  is.get();
  std::vector<unsigned char> px(static_cast<std::size_t>(w * h * 3));
  is.read(reinterpret_cast<char*>(px.data()),
          static_cast<std::streamsize>(px.size()));
  // Every non-background pixel has the same color.
  const io::HeatmapConfig defaults;
  unsigned char r0 = 0, g0 = 0, b0 = 0;
  bool found = false;
  for (std::size_t i = 0; i < px.size(); i += 3) {
    const bool bg = px[i] == defaults.background.r &&
                    px[i + 1] == defaults.background.g &&
                    px[i + 2] == defaults.background.b;
    if (bg) continue;
    if (!found) {
      r0 = px[i];
      g0 = px[i + 1];
      b0 = px[i + 2];
      found = true;
    } else {
      EXPECT_EQ(px[i], r0);
      EXPECT_EQ(px[i + 1], g0);
      EXPECT_EQ(px[i + 2], b0);
    }
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

TEST(FieldWriter, RejectsWrongFieldSize) {
  Fixture f;
  std::vector<double> field(f.grid.n_cells() + 1, 0.0);
  EXPECT_THROW(io::write_heatmap_ppm(f.tmp("bad.ppm"), f.grid, field),
               mali::Error);
}

TEST(FieldWriter, NodeCsvRoundTrip) {
  Fixture f;
  std::vector<double> a(f.grid.n_nodes()), b(f.grid.n_nodes());
  for (std::size_t n = 0; n < f.grid.n_nodes(); ++n) {
    a[n] = static_cast<double>(n);
    b[n] = -2.0 * static_cast<double>(n);
  }
  const auto path = f.tmp("nodes.csv");
  io::write_node_csv(path, f.grid, {"a", "b"}, {&a, &b});
  std::ifstream is(path);
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header, "x_m,y_m,a,b");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(is, line)) ++rows;
  EXPECT_EQ(rows, f.grid.n_nodes());
  std::remove(path.c_str());
}

TEST(FieldWriter, CsvColumnArityChecked) {
  Fixture f;
  std::vector<double> a(f.grid.n_nodes(), 0.0);
  EXPECT_THROW(io::write_node_csv(f.tmp("x.csv"), f.grid, {"a", "b"}, {&a}),
               mali::Error);
}

TEST(FieldWriter, LogScaleHandlesWideDynamicRange) {
  Fixture f;
  std::vector<double> field(f.grid.n_cells());
  for (std::size_t c = 0; c < field.size(); ++c) {
    field[c] = c == 0 ? 0.0 : std::pow(10.0, static_cast<double>(c % 5));
  }
  io::HeatmapConfig cfg;
  cfg.log_scale = true;
  cfg.pixels_per_cell = 1;
  const auto path =
      io::write_heatmap_ppm(f.tmp("log.ppm"), f.grid, field, cfg);
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good());
  std::remove(path.c_str());
}

TEST(FieldWriter, ExplicitColorBounds) {
  Fixture f;
  std::vector<double> field(f.grid.n_cells(), 50.0);
  io::HeatmapConfig cfg;
  cfg.vmin = 0.0;
  cfg.vmax = 100.0;
  cfg.pixels_per_cell = 1;
  const auto path =
      io::write_heatmap_ppm(f.tmp("mid.ppm"), f.grid, field, cfg);
  // Mid-range value maps to the mid color, not an endpoint.
  const auto mid = io::heat_color(0.5);
  const auto lo = io::heat_color(0.0);
  EXPECT_NE(mid.b, lo.b);
  std::remove(path.c_str());
}

// ---- io::Record ---------------------------------------------------------

namespace {

std::string record_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

/// The mali::Error message `read` throws, or "" when it throws none.
template <class Read>
std::string record_error(Read read) {
  try {
    read();
  } catch (const mali::Error& e) {
    return e.what();
  }
  return "";
}

}  // namespace

constexpr io::RecordFormat kTestFormat{"MALITEST", 2};

TEST(Record, ChecksMagicAndVersionBehindAValidChecksum) {
  const std::string path = record_path("version.rec");
  io::write_record(path, kTestFormat, 1.5);
  double x = 0.0;
  const auto read_as = [&](io::RecordFormat format) {
    return record_error([&] { io::read_record(path, format, x); });
  };
  EXPECT_NE(read_as({"MALITEST", 3}).find("unsupported version 2"),
            std::string::npos);
  EXPECT_NE(read_as({"MALIOTHR", 2}).find("wrong magic"), std::string::npos);
  EXPECT_EQ(read_as(kTestFormat), "");
  EXPECT_EQ(x, 1.5);
  std::remove(path.c_str());
}

TEST(Record, LengthPrefixesAreCheckedBeforeAllocating) {
  const std::string path = record_path("length.rec");
  // A length far past the 8 payload bytes that follow it.
  io::write_record(path, kTestFormat, std::uint64_t{1} << 62, 2.0);
  std::vector<double> v;
  std::string s;
  for (const std::string& err :
       {record_error([&] { io::read_record(path, kTestFormat, v); }),
        record_error([&] { io::read_record(path, kTestFormat, s); })}) {
    EXPECT_NE(err.find("length prefix exceeds the payload"),
              std::string::npos) << err;
    EXPECT_NE(err.find(path), std::string::npos) << err;
  }
  std::remove(path.c_str());
}

TEST(Record, FieldsMustExactlyFillThePayload) {
  const std::string path = record_path("fields.rec");
  io::write_record(path, kTestFormat, 7, std::vector<double>{0.5, -0.0});
  int i = 0;
  std::vector<double> v;
  double past = 0.0;
  EXPECT_NE(record_error([&] { io::read_record(path, kTestFormat, i); })
                .find("bytes left over"),
            std::string::npos);
  EXPECT_NE(record_error([&] {
              io::read_record(path, kTestFormat, i, v, past);
            }).find("runs past the payload"),
            std::string::npos);
  io::read_record(path, kTestFormat, i, v);
  EXPECT_EQ(i, 7);
  EXPECT_EQ(v, (std::vector<double>{0.5, -0.0}));
  EXPECT_TRUE(std::signbit(v[1]));
  std::remove(path.c_str());
}

TEST(Record, FailedWriteKeepsTheTargetAndLeavesNoTempFile) {
  namespace fs = std::filesystem;
  const std::string dir = record_path("record_write_fail");
  fs::remove_all(dir);
  // The target is a non-empty directory: the temp file is written, the
  // rename over the target fails.
  const std::string target = dir + "/target";
  fs::create_directories(target + "/inside");
  const std::string err =
      record_error([&] { io::write_record(target, kTestFormat, 1.0); });
  EXPECT_NE(err.find("cannot write record '" + target + "'"),
            std::string::npos) << err;
  EXPECT_TRUE(fs::is_directory(target + "/inside"));
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // the temp file was unlinked
  // A missing directory fails at the temp file, naming the target.
  const std::string missing = dir + "/no/such/dir/x.rec";
  EXPECT_NE(record_error([&] { io::write_record(missing, kTestFormat, 1.0); })
                .find(missing),
            std::string::npos);
  fs::remove_all(dir);
}
