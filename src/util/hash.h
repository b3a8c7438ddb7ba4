#ifndef ARECEL_UTIL_HASH_H_
#define ARECEL_UTIL_HASH_H_

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
