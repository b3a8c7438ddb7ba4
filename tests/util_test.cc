#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/ascii_table.h"
#include "util/env.h"
#include "util/hash.h"
#include "util/latency_histogram.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace arecel {
namespace {

// Threads of this process, from /proc/self/task.
size_t ThreadCount() {
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(AsciiTableTest, AlignsColumns) {
  AsciiTable table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer", "22"});
  const std::string s = table.ToString();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(AsciiTableTest, ShortRowsRenderEmptyCells) {
  AsciiTable table({"a", "b", "c"});
  table.AddRow({"only"});
  const std::string s = table.ToString();
  EXPECT_NE(s.find("| only |"), std::string::npos);
}

TEST(FormatCompactTest, PlainAndScientific) {
  EXPECT_EQ(FormatCompact(1.5), "1.50");
  EXPECT_EQ(FormatCompact(123.4), "123");
  EXPECT_EQ(FormatCompact(200000.0), "2.0e+05");
  EXPECT_EQ(FormatCompact(0.0), "0.00");
  EXPECT_EQ(FormatCompact(0.0001), "1.0e-04");
}

TEST(FormatFixedTest, Digits) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFixed(2.0, 0), "2");
}

TEST(ParallelForTest, CoversEveryIndexOnce) {
  std::vector<int> hits(1000, 0);
  ParallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(5, 5, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForChunkedTest, ChunksPartitionRange) {
  std::vector<int> hits(777, 0);
  ParallelForChunked(0, hits.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, NestedCallInsideABodyFinishes) {
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ParallelFor(0, kOuter, [&](size_t i) {
    ParallelFor(0, kInner, [&](size_t j) { ++hits[i * kInner + j]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ConcurrentCallersAllFinish) {
  constexpr int kCallers = 8;
  constexpr size_t kRange = 1000;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kRange, 0));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&hits, c] {
      for (int round = 0; round < 50; ++round)
        ParallelFor(0, kRange, [&](size_t i) { ++hits[c][i]; });
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const auto& row : hits)
    for (int h : row) EXPECT_EQ(h, 50);
}

TEST(ParallelForTest, ThrowingSliceIsRethrownAfterTheOthersRan) {
  const size_t slices = static_cast<size_t>(ParallelWorkerCount());
  std::vector<std::atomic<int>> ran(slices);
  auto body = [&](size_t lo, size_t) {
    if (lo == 0) throw std::runtime_error("slice 0 failed");
    ++ran[lo];
  };
  if (slices == 1) {
    EXPECT_THROW(ParallelForChunked(0, 1, body), std::runtime_error);
    return;
  }
  EXPECT_THROW(ParallelForChunked(0, slices, body), std::runtime_error);
  for (size_t s = 1; s < slices; ++s) EXPECT_EQ(ran[s].load(), 1) << s;
  // The pool is unharmed: the next call covers its range.
  std::vector<int> hits(333, 0);
  ParallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, BackToBackCallsStartNoThreads) {
  ParallelForChunked(0, 64, [](size_t, size_t) {});  // starts the pool.
  const size_t before = ThreadCount();
  for (int call = 0; call < 10000; ++call)
    ParallelForChunked(0, 64, [](size_t, size_t) {});
  EXPECT_EQ(ThreadCount(), before);
}

TEST(ParallelWorkerCountTest, AtLeastOne) {
  EXPECT_GE(ParallelWorkerCount(), 1);
  EXPECT_LE(ParallelWorkerCount(), 16);
}

TEST(LatencyHistogramTest, PercentilesAtBucketResolution) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.PercentileMs(50), 0.0);
  for (int us = 1; us <= 1000; ++us) histogram.Record(us / 1000.0);
  EXPECT_EQ(histogram.count(), 1000u);
  // Each reported value lies within one bucket (12.5%) above the truth.
  const double truths[] = {0.5, 0.9, 0.99, 1.0};
  const double ps[] = {50, 90, 99, 100};
  for (int k = 0; k < 4; ++k) {
    const double got = histogram.PercentileMs(ps[k]);
    EXPECT_GE(got, truths[k]) << ps[k];
    EXPECT_LE(got, truths[k] * 1.125) << ps[k];
  }
  // Below 16 ns buckets are exact; negative and NaN land in bucket 0.
  LatencyHistogram small;
  small.Record(7.5e-6);  // 7.5 ns counts as 7 ns.
  EXPECT_DOUBLE_EQ(small.PercentileMs(100), 7e-6);
  small.Record(-1.0);
  small.Record(std::nan(""));
  EXPECT_EQ(small.count(), 3u);
  EXPECT_EQ(small.PercentileMs(50), 0.0);
}

TEST(LatencyHistogramTest, AccumulatorAddsWhatRecordWould) {
  LatencyHistogram recorded;
  LatencyHistogram added;
  LatencyHistogram::Accumulator accumulator;
  for (int i = 0; i < 500; ++i) {
    const double ms = 1e-5 * (i % 37) + 0.002 * (i % 5);
    recorded.Record(ms);
    accumulator.Record(ms);
  }
  added.Add(accumulator);
  added.Add(LatencyHistogram::Accumulator{});  // adds nothing.
  EXPECT_EQ(added.count(), 500u);
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0})
    EXPECT_EQ(added.PercentileMs(p), recorded.PercentileMs(p)) << p;
}

// Every length from 0 to 24 bytes covers zero to three whole words and
// every tail length; the hash must see each length and each byte.
TEST(HashBytesTest, EveryTailLengthAndEveryByteMoveTheHash) {
  unsigned char bytes[32];
  for (size_t i = 0; i < sizeof(bytes); ++i)
    bytes[i] = static_cast<unsigned char>(i * 37 + 11);
  std::set<uint64_t> by_length;
  for (size_t n = 0; n <= 24; ++n) {
    const uint64_t hash = HashBytes(bytes, n);
    EXPECT_TRUE(by_length.insert(hash).second) << "length " << n;
    // The same bytes at an unaligned address hash alike.
    unsigned char shifted[33];
    std::memcpy(shifted + 1, bytes, n);
    EXPECT_EQ(HashBytes(shifted + 1, n), hash) << n;
    for (size_t at = 0; at < n; ++at) {
      for (unsigned char flip : {0x01, 0x80}) {
        bytes[at] ^= flip;
        EXPECT_NE(HashBytes(bytes, n), hash) << n << " " << at;
        bytes[at] ^= flip;
      }
    }
  }
  // A trailing zero byte is not the end of the input.
  const unsigned char zeros[9] = {};
  EXPECT_NE(HashBytes(zeros, 8), HashBytes(zeros, 9));
  EXPECT_NE(HashBytes(zeros, 0), HashBytes(zeros, 1));
}

TEST(TimerTest, MeasuresElapsed) {
  Timer timer;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
  EXPECT_GT(timer.ElapsedMicros(), timer.ElapsedSeconds());
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

// One reader for every environment knob: unset, empty and unparsable
// values read as the default; zero and negative values parse, and the
// count reader sends negatives back to the default.
TEST(EnvReaderTest, UnsetEmptyGarbageZeroAndNegative) {
  constexpr const char* kName = "ARECEL_UTIL_TEST_KNOB";
  const auto with = [&](const char* value) {
    if (value == nullptr) {
      unsetenv(kName);
    } else {
      setenv(kName, value, /*overwrite=*/1);
    }
  };
  for (const char* value : {static_cast<const char*>(nullptr), "", "abc",
                            "12abc", "nan", "1e999"}) {
    with(value);
    const std::string shown = value == nullptr ? "unset" : value;
    EXPECT_EQ(EnvDouble(kName, 7.5), 7.5) << shown;
    EXPECT_EQ(EnvSize(kName, 7), 7u) << shown;
  }
  with("0");
  EXPECT_EQ(EnvDouble(kName, 7.5), 0.0);
  EXPECT_EQ(EnvSize(kName, 7), 0u);
  with("-2.5");
  EXPECT_EQ(EnvDouble(kName, 7.5), -2.5);
  EXPECT_EQ(EnvSize(kName, 7), 7u);
  with("1e3");
  EXPECT_EQ(EnvDouble(kName, 7.5), 1000.0);
  EXPECT_EQ(EnvSize(kName, 7), 1000u);
  with("2.9");
  EXPECT_EQ(EnvSize(kName, 7), 2u);
  with(nullptr);
}

}  // namespace
}  // namespace arecel
