#include "io/record.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <fstream>

#include "portability/common.hpp"
#include "util/hash.hpp"

namespace mali::io::detail {

namespace {

constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kLengthOffset = 12;
constexpr std::size_t kTrailerBytes = sizeof(std::uint64_t);

bool write_all(int fd, const std::string& bytes) {
  for (std::size_t done = 0; done < bytes.size();) {
    const ssize_t w = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    done += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

void commit(const std::string& path, const RecordFormat& format,
            std::string& bytes) {
  MALI_CHECK_MSG(format.magic.size() == kVersionOffset,
                 "record magic must be 8 characters");
  const std::uint64_t length = bytes.size() - kRecordHeaderBytes;
  format.magic.copy(bytes.data(), kVersionOffset);
  std::memcpy(bytes.data() + kVersionOffset, &format.version,
              sizeof(format.version));
  std::memcpy(bytes.data() + kLengthOffset, &length, sizeof(length));
  put(bytes, util::fnv1a64(bytes.data(), bytes.size()));

  // mkstemp makes the temp name unique per writer, so processes sharing a
  // directory never write into each other's temp files.
  std::string tmp = path + ".XXXXXX";
  const int fd = ::mkstemp(tmp.data());
  // mkstemp creates 0600; a record is as readable as any other output.
  const bool written = fd >= 0 && ::fchmod(fd, 0644) == 0 &&
                       write_all(fd, bytes) && ::fsync(fd) == 0;
  // close runs whenever the file was opened; rename only after a clean write.
  if (!(fd >= 0 && ::close(fd) == 0 && written &&
        ::rename(tmp.c_str(), path.c_str()) == 0)) {
    const int err = errno;
    if (fd >= 0) ::unlink(tmp.c_str());
    throw Error("cannot write record '" + path + "': " + std::strerror(err));
  }
}

RecordReader::RecordReader(const std::string& path,
                           const RecordFormat& format)
    : path_(path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = is.tellg();
  if (!is || size < 0) fail("cannot open");
  bytes_.resize(static_cast<std::size_t>(size));
  is.seekg(0);
  if (!is.read(bytes_.data(), size)) fail("read failed");

  if (bytes_.size() < kRecordHeaderBytes + kTrailerBytes) {
    fail("truncated header");
  }
  end_ = bytes_.size() - kTrailerBytes;
  std::uint64_t length = 0, checksum = 0;
  std::uint32_t version = 0;
  std::memcpy(&length, bytes_.data() + kLengthOffset, sizeof(length));
  std::memcpy(&checksum, bytes_.data() + end_, sizeof(checksum));
  std::memcpy(&version, bytes_.data() + kVersionOffset, sizeof(version));
  if (length != end_ - kRecordHeaderBytes) {
    fail("size does not match the header's payload length");
  }
  if (checksum != util::fnv1a64(bytes_.data(), end_)) fail("checksum mismatch");
  if (std::string_view(bytes_.data(), kVersionOffset) != format.magic) {
    fail("wrong magic (expected " + std::string(format.magic) + ")");
  }
  if (version != format.version) {
    fail("unsupported version " + std::to_string(version) + " (expected " +
         std::to_string(format.version) + ")");
  }
}

const char* RecordReader::take(std::size_t n) {
  if (n > end_ - pos_) fail("field runs past the payload");
  pos_ += n;
  return bytes_.data() + pos_ - n;
}

std::size_t RecordReader::prefixed_bytes(std::uint64_t n,
                                         std::size_t elem_size) const {
  if (n > (end_ - pos_) / elem_size) fail("length prefix exceeds the payload");
  return static_cast<std::size_t>(n) * elem_size;
}

void RecordReader::finish() const {
  if (pos_ != end_) fail("bytes left over after the last field");
}

void RecordReader::fail(const std::string& check) const {
  throw Error("record '" + path_ + "': " + check);
}

}  // namespace mali::io::detail
