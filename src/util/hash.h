#ifndef ARECEL_UTIL_HASH_H_
#define ARECEL_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace arecel {

// splitmix64's step: adds the golden gamma, then avalanches every input bit
// into every output bit. Rng seeds its state with it; the open-addressing
// tables over double keys use it to spread bit patterns across slots.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Hash of `size` bytes, read eight at a time: each word is folded into the
// state by one 64x64->128-bit multiply whose halves are xored (the mixer of
// wyhash and absl::Hash), the last 0-7 bytes as one zero-padded word, and
// the length seeds the state so that a trailing zero byte still moves it.
// A 170-byte serving cache key costs 22 multiplies where byte-at-a-time
// FNV-1a paid 170. For in-memory tables only: words are read in native
// byte order, so nothing persisted may depend on the value.
inline uint64_t HashBytes(const void* data, size_t size) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  const auto mix = [](uint64_t x) {
    const unsigned __int128 product = static_cast<unsigned __int128>(x) * kMul;
    return static_cast<uint64_t>(product) ^
           static_cast<uint64_t>(product >> 64);
  };
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t state = SplitMix64(size);
  for (; size >= sizeof(uint64_t); size -= sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    state = mix(state ^ word);
    bytes += sizeof(word);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, bytes, size);
  return SplitMix64(state ^ tail);
}

// Bit pattern of `v` with -0.0 collapsed onto +0.0, so that two doubles
// operator== calls equal get one key. NaN equals nothing; callers keep it
// out of the key space.
inline uint64_t CanonicalBits(double v) {
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace arecel

#endif  // ARECEL_UTIL_HASH_H_
