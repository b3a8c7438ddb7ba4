#ifndef ARECEL_UTIL_LATENCY_HISTOGRAM_H_
#define ARECEL_UTIL_LATENCY_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace arecel {

// Fixed log-spaced latency histogram. Record() is one relaxed atomic
// increment, so any number of threads record without a lock; a read while
// they run sees a snapshot that may miss the latest few records.
//
// Buckets hold nanoseconds: exact below 16 ns, then 8 buckets per power of
// two up to 2^40 ns (about 18 minutes; longer values land in the last
// bucket). A quantile is reported as the largest value its bucket holds,
// so it is at most 1/8 (12.5%) above the recorded value it stands for.
class LatencyHistogram {
 private:
  static constexpr int kSubBits = 3;  // 2^3 buckets per power of two.
  static constexpr int kMaxBits = 40;
  static constexpr uint64_t kExactBelow = uint64_t{2} << kSubBits;
  static constexpr size_t kBuckets =
      static_cast<size_t>((kMaxBits - kSubBits + 1) << kSubBits);

 public:
  // The same buckets as plain counters, for one thread: a batch records its
  // answers here and adds them to the shared histogram with one Add, so it
  // writes the shared buckets once per call instead of once per answer.
  class Accumulator {
   public:
    void Record(double ms) { ++buckets_[BucketOfMs(ms)]; }

   private:
    friend class LatencyHistogram;
    std::array<uint64_t, kBuckets> buckets_{};
  };

  void Record(double ms);
  void Add(const Accumulator& accumulator);

  uint64_t count() const;

  // The p-th percentile (p in [0, 100]) in milliseconds at bucket
  // resolution; p = 100 gives the maximum. 0 when nothing was recorded.
  double PercentileMs(double p) const;

 private:
  static size_t BucketOfMs(double ms);
  static size_t BucketOf(uint64_t ns);
  static uint64_t BucketMaxNs(size_t bucket);

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

}  // namespace arecel

#endif  // ARECEL_UTIL_LATENCY_HISTOGRAM_H_
