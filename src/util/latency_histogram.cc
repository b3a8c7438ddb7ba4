#include "util/latency_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace arecel {

size_t LatencyHistogram::BucketOf(uint64_t ns) {
  if (ns < kExactBelow) return static_cast<size_t>(ns);
  const int exponent = std::bit_width(ns) - 1;
  const uint64_t sub = (ns >> (exponent - kSubBits)) & ((1u << kSubBits) - 1);
  return (static_cast<size_t>(exponent - kSubBits + 1) << kSubBits) +
         static_cast<size_t>(sub);
}

uint64_t LatencyHistogram::BucketMaxNs(size_t bucket) {
  if (bucket < kExactBelow) return bucket;
  const int exponent = static_cast<int>(bucket >> kSubBits) + kSubBits - 1;
  const uint64_t sub = bucket & ((1u << kSubBits) - 1);
  const int shift = exponent - kSubBits;
  return (((uint64_t{1} << kSubBits) + sub + 1) << shift) - 1;
}

size_t LatencyHistogram::BucketOfMs(double ms) {
  constexpr uint64_t kLast = (uint64_t{1} << kMaxBits) - 1;
  const double ns = ms * 1e6;
  const uint64_t value = !(ns > 0.0) ? 0
                         : ns >= static_cast<double>(kLast)
                             ? kLast
                             : static_cast<uint64_t>(ns);
  return BucketOf(value);
}

void LatencyHistogram::Record(double ms) {
  buckets_[BucketOfMs(ms)].fetch_add(1, std::memory_order_relaxed);
}

void LatencyHistogram::Add(const Accumulator& accumulator) {
  for (size_t b = 0; b < kBuckets; ++b) {
    if (accumulator.buckets_[b] != 0)
      buckets_[b].fetch_add(accumulator.buckets_[b],
                            std::memory_order_relaxed);
  }
}

uint64_t LatencyHistogram::count() const {
  uint64_t total = 0;
  for (const auto& bucket : buckets_)
    total += bucket.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::PercentileMs(double p) const {
  std::array<uint64_t, kBuckets> counts;
  uint64_t total = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0.0;
  const double wanted = std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 *
                                  static_cast<double>(total));
  const uint64_t rank = std::max<uint64_t>(1, static_cast<uint64_t>(wanted));
  uint64_t seen = 0;
  size_t b = 0;
  for (; b + 1 < kBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) break;
  }
  return static_cast<double>(BucketMaxNs(b)) / 1e6;
}

}  // namespace arecel
