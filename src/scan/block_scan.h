#ifndef ARECEL_SCAN_BLOCK_SCAN_H_
#define ARECEL_SCAN_BLOCK_SCAN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/table.h"
#include "workload/query.h"

namespace arecel::scan {

// Vectorized exact-count execution engine (DESIGN.md §8). Every count runs
// one path, cheapest first:
//  1. the posting path: a one-predicate query on a column within the code
//     budget (WithinCodeBudget) is answered from the column's code-count
//     prefix alone, in Count and CountBatch alike; CountBatch also answers
//     a selective multi-predicate query from its most selective
//     predicate's row ids (below);
//  2. selection vectors: every other query is evaluated one block of rows
//     and one *column* at a time, most-selective predicate first,
//     compacting a dense row-id vector instead of re-testing every
//     predicate per row;
//  3. branch-free kernels: data-independent interval passes over the
//     contiguous column block — over the table's u8/u16 code array when
//     the column is within the code budget (a fraction of the double
//     array's bandwidth), over the doubles otherwise, one value segment
//     at a time where a block straddles a segment boundary.
//
// All counts are exact integers: results are bit-identical to the naive
// reference executor (ExecuteCountNaive) by construction, which
// tests/scan_engine_test.cc and tests/scan_codes_test.cc enforce
// differentially. Interval semantics are Predicate::Matches (inclusive
// bounds, NaN never matches, -0.0 == +0.0).

// Rows per block: the length of a selection vector and the unit of work of
// the shared block scan. 4096 doubles = 32 KB per column block, so one
// block of one column fits comfortably in L1.
inline constexpr size_t kDefaultBlockSize = 4096;

// Code budget: a column whose domain holds at most this many values runs
// its predicates on the table's codes and answers from its code-count
// prefix. Within the budget the nan_code() sentinel fits 16 bits, so the
// codes are u8 or u16; 4096 codes cover every categorical column of the
// paper's Census/DMV-shaped tables.
inline constexpr size_t kMaxDictCodes = 4096;
static_assert(kMaxDictCodes < 65535);

// The one column rule, shared by ScanPlan (which predicates run the code
// kernels) and the posting path (which predicates it can count).
inline bool WithinCodeBudget(const Column& column) {
  return column.domain_size() <= kMaxDictCodes;
}

// Per column of one table, the running sum of the column's code counts
// (domain size + 1 entries): entry c is the number of rows with a code
// below c, which is where code c's rows start when the row ids are ordered
// by code, and a code range [lo, hi] holds exactly
// prefix[hi + 1] - prefix[lo] rows. Empty on a column past the code
// budget. Built in O(domain) from the Table's own counts.
using CodePrefixes = std::vector<std::vector<uint64_t>>;
CodePrefixes BuildCodePrefixes(const Table& table);

// Kernel and posting counters, accumulated per scan. Plain integers:
// workers keep a local copy and merge once into a ScanStatsCollector.
struct ScanStats {
  // Always 0: the engine prunes no blocks. Kept because the benchmark
  // harness (cebench/) reads them.
  uint64_t classified_blocks = 0;
  uint64_t zone_skips = 0;
  uint64_t bitmap_skips = 0;
  uint64_t histogram_skips = 0;
  uint64_t full_blocks = 0;
  uint64_t scanned_blocks = 0;  // (block, query) pairs evaluated row by row.
  // Scanned blocks that ran code kernels; a block that straddles a value
  // segment boundary counts once per run (ScanPlan).
  uint64_t dict_kernel_blocks = 0;
  // Queries answered from a code-count prefix or a driving slice.
  uint64_t posting_queries = 0;
  uint64_t posting_rows = 0;  // row ids read from driving slices.

  void Add(const ScanStats& other);
};

// Thread-safe accumulator (relaxed atomics): BlockScanner and JoinExecutor
// are shared read-only across threads, so their counters must tolerate
// concurrent merges.
class ScanStatsCollector {
 public:
  void Merge(const ScanStats& delta);
  ScanStats Snapshot() const;

 private:
  std::atomic<uint64_t> scanned_blocks_{0};
  std::atomic<uint64_t> dict_kernel_blocks_{0};
  std::atomic<uint64_t> posting_queries_{0};
  std::atomic<uint64_t> posting_rows_{0};
};

// Branch-free interval kernels over one contiguous run of a column's values
// (a value segment; ColumnValues::SegmentAt): values[r - first] is row r's
// value, so every row a call reads must lie in the run. Exposed for tests;
// `sel` must have room for (end - begin) ids.
//
// Writes the row ids in [begin, end) with lo <= value <= hi into `sel`;
// returns how many matched.
size_t FilterInterval(const double* values, uint32_t first, uint32_t begin,
                      uint32_t end, double lo, double hi, uint32_t* sel);
// Compacts `sel` (n row ids) in place, keeping ids whose value lies in
// [lo, hi]; returns the surviving count.
size_t RefineInterval(const double* values, uint32_t first, double lo,
                      double hi, uint32_t* sel, size_t n);
// Count-only variant for single-predicate scans (no ids materialized).
size_t CountInterval(const double* values, uint32_t first, uint32_t begin,
                     uint32_t end, double lo, double hi);

// Code-space variants over dictionary code arrays: one unsigned compare per
// row against an inclusive [lo, hi] code range, at 1/8 (u8) or 1/4 (u16) of
// the double array's memory traffic. The NaN sentinel code sits above every
// valid range, so NaN rows never match — same semantics as the double path.
// RefineCodes reads n row ids from `src` and writes the kept ones, in order,
// to `dst`, which may be `src` itself (in-place compaction).
size_t FilterCodes(const uint8_t* codes, uint32_t begin, uint32_t end,
                   uint32_t lo, uint32_t hi, uint32_t* sel);
size_t FilterCodes(const uint16_t* codes, uint32_t begin, uint32_t end,
                   uint32_t lo, uint32_t hi, uint32_t* sel);
size_t RefineCodes(const uint8_t* codes, uint32_t lo, uint32_t hi,
                   const uint32_t* src, size_t n, uint32_t* dst);
size_t RefineCodes(const uint16_t* codes, uint32_t lo, uint32_t hi,
                   const uint32_t* src, size_t n, uint32_t* dst);
size_t CountCodes(const uint8_t* codes, uint32_t begin, uint32_t end,
                  uint32_t lo, uint32_t hi);
size_t CountCodes(const uint16_t* codes, uint32_t begin, uint32_t end,
                  uint32_t lo, uint32_t hi);

// One query's predicates compiled against one table: column ids checked
// (aborts on a column outside [0, num_cols())), column pointers resolved,
// predicates on columns within the code budget lowered to code ranges, and
// the whole list ordered most-selective-first: exactly, from the table's
// code-count prefixes, on columns within the budget, else by the fraction
// of the domain the interval covers. Shared by BlockScanner and the join
// executor's probe/build scans.
class ScanPlan {
 public:
  // `prefixes` are the table's (BuildCodePrefixes).
  ScanPlan(const Table& table, const CodePrefixes& prefixes,
           const std::vector<Predicate>& predicates);

  // False when no row anywhere can match (an inverted interval, or an
  // interval containing no domain value of its column).
  bool satisfiable() const { return satisfiable_; }
  // True when the predicate list is empty: every row matches.
  bool unconstrained() const { return preds_.empty(); }

  // Exact match count over rows [begin, end) of a satisfiable, constrained
  // plan; `sel` needs end - begin slots of scratch.
  size_t CountBlock(uint32_t begin, uint32_t end, uint32_t* sel,
                    ScanStats* stats) const;
  // As CountBlock, but leaves the matching row ids in `sel`.
  size_t FilterBlock(uint32_t begin, uint32_t end, uint32_t* sel,
                     ScanStats* stats) const;

 private:
  struct Pred {
    const ColumnValues* values = nullptr;
    double lo = 0.0;
    double hi = 0.0;
    // The table's codes, when the column is within the code budget.
    const uint8_t* codes8 = nullptr;
    const uint16_t* codes16 = nullptr;
    uint32_t code_lo = 0;
    uint32_t code_hi = 0;

    bool on_codes() const { return codes8 != nullptr || codes16 != nullptr; }
  };

  size_t Evaluate(uint32_t begin, uint32_t end, uint32_t* sel,
                  ScanStats* stats, bool count_only) const;

  std::vector<Pred> preds_;  // most selective first.
  bool satisfiable_ = true;
};

// Scan engine bound to one immutable table. Construction costs O(domain):
// it builds the table's code-count prefixes, which every query then shares.
// The table must outlive the scanner and must not change: Count/CountBatch
// abort when its row count differs from the one the scanner was built
// over. A new data version needs a new scanner. `block_size` is the
// selection-vector length and the shared scan's unit of work; the
// differential suites shrink it to put block edges at odd offsets.
// Queries must name no tables (Query::IsSingleTable).
class BlockScanner {
 public:
  explicit BlockScanner(const Table& table,
                        size_t block_size = kDefaultBlockSize);

  // Cumulative kernel and posting counters across every Count/CountBatch/
  // Label call.
  ScanStats stats() const { return stats_.Snapshot(); }

  // Exact match count / selectivity of one query. A one-predicate query on
  // a column within the code budget is its code range's prefix count.
  size_t Count(const Query& query) const;
  double Selectivity(const Query& query) const;

  // Batch labeling, in two paths; every count is exact, so the result is
  // bit-identical to labeling each query alone.
  //  - Posting path: a query whose predicates all lie on columns within
  //    the code budget is answered from the row ids of its most selective
  //    predicate's code range when that predicate passes the cost rule
  //    (block_scan.cc). Per driving column, the row ids are counting-sorted
  //    by code once per call, so a code range is one contiguous slice; the
  //    column's queries then refine their slices through their other
  //    predicates, in parallel over queries. A one-predicate query is its
  //    prefix count. Nothing stays resident after the call.
  //  - Shared block scan for the rest: streams each block once through
  //    every remaining query (blocks-outer, queries-inner), parallelized
  //    over block ranges.
  std::vector<size_t> CountBatch(const std::vector<Query>& queries) const;
  std::vector<double> Label(const std::vector<Query>& queries) const;

 private:
  const Table* table_;
  uint32_t rows_;  // the table's row count at construction.
  size_t block_size_;
  CodePrefixes prefixes_;
  mutable ScanStatsCollector stats_;
};

}  // namespace arecel::scan

#endif  // ARECEL_SCAN_BLOCK_SCAN_H_
