#include "linalg/matrix_market.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "portability/common.hpp"

namespace mali::linalg {

namespace {

std::string next_content_line(std::istream& is) {
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line[0] != '%') return line;
  }
  return {};
}

}  // namespace

void write_matrix_market(const std::string& path, const CrsMatrix& A) {
  std::ofstream os(path);
  MALI_CHECK_MSG(os.good(), "cannot open " + path);
  os << "%%MatrixMarket matrix coordinate real general\n";
  os << "% written by MiniMALI\n";
  os << A.n_rows() << ' ' << A.n_rows() << ' ' << A.nnz() << '\n';
  os.precision(17);
  const auto& vals = A.values();
  for (std::size_t r = 0; r < A.n_rows(); ++r) {
    A.graph()->for_row(r, [&](std::size_t k, std::size_t c) {
      os << r + 1 << ' ' << c + 1 << ' ' << vals[k] << '\n';
    });
  }
  MALI_CHECK_MSG(os.good(), "write failed: " + path);
}

CrsMatrix read_matrix_market(const std::string& path) {
  std::ifstream is(path);
  MALI_CHECK_MSG(is.good(), "cannot open " + path);
  std::string header;
  std::getline(is, header);
  MALI_CHECK_MSG(header.find("%%MatrixMarket") == 0 &&
                     header.find("coordinate") != std::string::npos,
                 "not a coordinate MatrixMarket file: " + path);
  MALI_CHECK_MSG(header.find("general") != std::string::npos,
                 "only 'general' symmetry is supported: " + path);

  std::istringstream dims(next_content_line(is));
  std::size_t n_rows = 0, n_cols = 0, nnz = 0;
  dims >> n_rows >> n_cols >> nnz;
  MALI_CHECK_MSG(n_rows == n_cols, "only square matrices are supported");
  MALI_CHECK(n_rows > 0);

  // Accumulate entries (the format permits duplicates: sum them).
  std::vector<std::map<std::size_t, double>> rows(n_rows);
  for (std::size_t k = 0; k < nnz; ++k) {
    std::size_t r = 0, c = 0;
    double v = 0.0;
    is >> r >> c >> v;
    MALI_CHECK_MSG(static_cast<bool>(is), "truncated MatrixMarket file");
    MALI_CHECK(r >= 1 && r <= n_rows && c >= 1 && c <= n_cols);
    rows[r - 1][c - 1] += v;
  }

  std::vector<std::size_t> rp{0}, cols;
  for (const auto& row : rows) {
    for (const auto& [c, v] : row) cols.push_back(c);
    rp.push_back(cols.size());
  }
  CrsMatrix A(std::move(rp), std::move(cols));
  for (std::size_t r = 0; r < n_rows; ++r) {
    for (const auto& [c, v] : rows[r]) A.set(r, c, v);
  }
  return A;
}

void write_matrix_market(const std::string& path,
                         const std::vector<double>& v) {
  std::ofstream os(path);
  MALI_CHECK_MSG(os.good(), "cannot open " + path);
  os << "%%MatrixMarket matrix array real general\n";
  os << v.size() << " 1\n";
  os.precision(17);
  for (double x : v) os << x << '\n';
  MALI_CHECK_MSG(os.good(), "write failed: " + path);
}

std::vector<double> read_matrix_market_vector(const std::string& path) {
  std::ifstream is(path);
  MALI_CHECK_MSG(is.good(), "cannot open " + path);
  std::string header;
  std::getline(is, header);
  MALI_CHECK_MSG(header.find("%%MatrixMarket") == 0 &&
                     header.find("array") != std::string::npos,
                 "not an array MatrixMarket file: " + path);
  std::istringstream dims(next_content_line(is));
  std::size_t n = 0, m = 0;
  dims >> n >> m;
  MALI_CHECK_MSG(m == 1, "expected an n x 1 array");
  std::vector<double> v(n);
  for (auto& x : v) {
    is >> x;
    MALI_CHECK_MSG(static_cast<bool>(is), "truncated array file");
  }
  return v;
}

}  // namespace mali::linalg
