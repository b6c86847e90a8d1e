#pragma once
// The repo's two non-cryptographic hashes, in one place:
//
//  * splitmix64 — a strong, tiny 64-bit mixer for seeded choices (which dof
//    a fault injector poisons, which rank a comm fault victimizes).
//  * fnv1a64 — 64-bit FNV-1a over raw bytes: the comm payload checksums and
//    the ensemble result-cache content keys.  Byte-exact, so any single-bit
//    change of the input changes the hash.

#include <cstddef>
#include <cstdint>

namespace mali::util {

[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

[[nodiscard]] inline std::uint64_t fnv1a64(const void* data,
                                           std::size_t n_bytes) noexcept {
  const auto* b = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n_bytes; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace mali::util
