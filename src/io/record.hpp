#pragma once
// io::Record — the one on-disk format of every binary state file MiniMALI
// writes: solver checkpoints (MALICKPT), transient checkpoints (MALITCKP)
// and ensemble result-cache records (MALIENSR).
//
//   8-byte magic | u32 version | u64 payload length P | P payload bytes |
//   u64 util::fnv1a64 of every byte before this trailer
//
// The payload is the fields in call order, in native (host-endian
// IEEE-754) layout, so a round trip is bit-exact; strings and vectors
// carry a u64 length prefix.  write_record replaces the file by
// temp + fsync + rename, so a crash mid-write keeps the previous record.
// read_record checks size, checksum, magic and version before any field,
// and each length prefix before allocating; every failed check throws
// mali::Error naming the path and the check (DESIGN.md §11).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mali::io {

static_assert(sizeof(int) == 4, "records store int fields as i32");

struct RecordFormat {
  std::string_view magic;  ///< exactly 8 characters
  std::uint32_t version;
};

namespace detail {

inline constexpr std::size_t kRecordHeaderBytes = 8 + 4 + 8;

/// Appends one field: an arithmetic value, or a std::string or std::vector
/// of them behind a u64 length prefix.
template <class T>
void put(std::string& bytes, const T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(T));
  } else {
    using E = typename T::value_type;
    static_assert(std::is_arithmetic_v<E>, "records store arithmetic fields");
    put(bytes, static_cast<std::uint64_t>(v.size()));
    bytes.append(reinterpret_cast<const char*>(v.data()),
                 v.size() * sizeof(E));
  }
}

/// Fills in the header, appends the checksum and replaces `path`.
void commit(const std::string& path, const RecordFormat& format,
            std::string& bytes);

/// A checked record file, read field by field.
class RecordReader {
 public:
  RecordReader(const std::string& path, const RecordFormat& format);
  template <class T>
  void get(T& v) {
    if constexpr (std::is_arithmetic_v<T>) {
      std::memcpy(&v, take(sizeof(T)), sizeof(T));
    } else {
      using E = typename T::value_type;
      std::uint64_t n = 0;
      get(n);
      const char* p = take(prefixed_bytes(n, sizeof(E)));
      v.resize(static_cast<std::size_t>(n));
      if (n > 0) std::memcpy(v.data(), p, v.size() * sizeof(E));
    }
  }
  void finish() const;

 private:
  [[nodiscard]] const char* take(std::size_t n);
  /// n * elem_size, after checking that n elements fit in the bytes left.
  [[nodiscard]] std::size_t prefixed_bytes(std::uint64_t n,
                                           std::size_t elem_size) const;
  [[noreturn]] void fail(const std::string& check) const;

  std::string path_;
  std::string bytes_;
  std::size_t pos_ = kRecordHeaderBytes;  ///< next unread payload byte
  std::size_t end_ = 0;                   ///< one past the payload
};

}  // namespace detail

/// Replaces `path` with a record of `fields`: arithmetic values, strings
/// and vectors of arithmetic values.  Throws mali::Error on any failure,
/// leaving `path` as it was.
template <class... Fields>
void write_record(const std::string& path, const RecordFormat& format,
                  const Fields&... fields) {
  std::string bytes(detail::kRecordHeaderBytes, '\0');
  (detail::put(bytes, fields), ...);
  detail::commit(path, format, bytes);
}

/// Reads the record at `path` into `fields`, which must exactly fill its
/// payload.  Throws mali::Error on a missing, truncated, corrupt or
/// other-format file.
template <class... Fields>
void read_record(const std::string& path, const RecordFormat& format,
                 Fields&... fields) {
  detail::RecordReader r(path, format);
  (r.get(fields), ...);
  r.finish();
}

}  // namespace mali::io
