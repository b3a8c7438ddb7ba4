#ifndef ARECEL_SCAN_BLOCK_SCAN_H_
#define ARECEL_SCAN_BLOCK_SCAN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/table.h"
#include "scan/synopsis.h"
#include "workload/query.h"

namespace arecel::scan {

// Vectorized exact-count execution engine (DESIGN.md §8).
//
// Batch labelling (CountBatch) first answers the queries it can from their
// most selective predicate's rows alone (the posting path, below); every
// other query runs a three-layer cascade, cheapest first:
//  1. block pruning (TableSynopsis, built once per table): a predicate
//     skips every block whose [min, max] zone map misses its interval, and
//     counts wholesale every NaN-free block whose envelope it contains; on
//     a column within the code budget (WithinCodeBudget) it also skips a
//     block unless the block's presence bitmap has a set bit in the
//     predicate's code range — equality predicates on categorical columns
//     prune here even when every envelope overlaps;
//  2. selection vectors: surviving blocks are evaluated one *column* at a
//     time, most-selective predicate first, compacting a dense row-id
//     vector instead of re-testing every predicate per row;
//  3. branch-free kernels: data-independent interval passes over the
//     contiguous column block — over the table's u8/u16 code array when
//     the column is within the code budget (a fraction of the double
//     array's bandwidth), over the doubles otherwise, one value segment
//     at a time where a block straddles a segment boundary.
//
// All counts are exact integers: results are bit-identical to the naive
// reference executor (ExecuteCountNaive) by construction, which
// tests/scan_engine_test.cc and tests/scan_synopsis_test.cc enforce
// differentially. Interval semantics are Predicate::Matches (inclusive
// bounds, NaN never matches, -0.0 == +0.0).

// Pruning / kernel counters, accumulated per scan. Plain integers: workers
// keep a local copy and merge once into a ScanStatsCollector.
struct ScanStats {
  uint64_t classified_blocks = 0;  // (block, query) classifications made.
  uint64_t zone_skips = 0;         // skipped by the min/max envelope.
  uint64_t bitmap_skips = 0;       // skipped by a dictionary bitmap.
  // Always 0: the synopsis has no histogram tier. Kept because the
  // benchmark harness (cebench/) reads it.
  uint64_t histogram_skips = 0;
  uint64_t full_blocks = 0;        // counted wholesale, values untouched.
  uint64_t scanned_blocks = 0;     // evaluated row by row.
  // Scanned blocks that ran code kernels; a block that straddles a value
  // segment boundary counts once per run (ScanPlan).
  uint64_t dict_kernel_blocks = 0;
  uint64_t posting_queries = 0;  // answered from a driving slice.
  uint64_t posting_rows = 0;     // row ids read from driving slices.

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
  std::atomic<uint64_t> classified_blocks_{0};
  std::atomic<uint64_t> zone_skips_{0};
  std::atomic<uint64_t> bitmap_skips_{0};
  std::atomic<uint64_t> full_blocks_{0};
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

// Zone-map / bitmap classification of one (block, query) pair.
enum class BlockDecision { kSkip, kEvaluate, kFullMatch };

// One query's predicates compiled against one table: column ids checked
// (aborts on a column outside [0, num_cols())), column pointers resolved,
// predicates on columns within the code budget lowered to code ranges, and
// the whole list ordered most-selective-first: exactly, from the synopsis'
// code-count prefix, on columns within the budget, else by the fraction of
// the domain the interval covers. Shared by BlockScanner, the one-shot
// CountMatches path and the join executor's probe/build cascades.
// `synopsis` may be null (the one-shot path): the exact ordering and
// Classify are then unavailable; evaluation still runs the code kernels.
class ScanPlan {
 public:
  // Sentinel for evaluation without a known block (no per-block
  // full-match elision).
  static constexpr size_t kNoBlock = static_cast<size_t>(-1);

  ScanPlan(const Table& table, const TableSynopsis* synopsis,
           const std::vector<Predicate>& predicates);

  // False when no row anywhere can match (an inverted interval, or an
  // interval containing no domain value of its column).
  bool satisfiable() const { return satisfiable_; }
  // True when the predicate list is empty: every row matches.
  bool unconstrained() const { return preds_.empty(); }

  // Requires a synopsis built over the plan's table.
  BlockDecision Classify(size_t block, ScanStats* stats) const;

  // Exact match count over rows [begin, end); `sel` needs end - begin
  // slots of scratch. When `block` is known, predicates that fully match
  // the block's envelope are skipped.
  size_t CountBlock(size_t block, uint32_t begin, uint32_t end,
                    uint32_t* sel, ScanStats* stats) const;
  // As CountBlock, but leaves the matching row ids in `sel`.
  size_t FilterBlock(size_t block, uint32_t begin, uint32_t end,
                     uint32_t* sel, ScanStats* stats) const;

 private:
  struct Pred {
    const ColumnValues* values = nullptr;
    double lo = 0.0;
    double hi = 0.0;
    int column = 0;
    // The table's codes, when the column is within the code budget.
    const uint8_t* codes8 = nullptr;
    const uint16_t* codes16 = nullptr;
    uint32_t code_lo = 0;
    uint32_t code_hi = 0;

    bool on_codes() const { return codes8 != nullptr || codes16 != nullptr; }
  };

  size_t Evaluate(size_t block, uint32_t begin, uint32_t end, uint32_t* sel,
                  ScanStats* stats, bool count_only) const;

  std::vector<Pred> preds_;  // most selective first.
  const TableSynopsis* synopsis_ = nullptr;
  bool satisfiable_ = true;
};

// Scan engine bound to one immutable table. Builds the synopsis once;
// queries then share it. The table must outlive the scanner and must not
// change: Count/CountBatch abort when its row count differs from the one
// the scanner was built over. A new data version needs a new scanner.
// Queries must name no tables (Query::IsSingleTable).
class BlockScanner {
 public:
  explicit BlockScanner(const Table& table,
                        const SynopsisOptions& options = {});

  const TableSynopsis& synopsis() const { return synopsis_; }

  // Cumulative pruning counters across every Count/CountBatch/Label call.
  ScanStats stats() const { return stats_.Snapshot(); }

  // Exact match count / selectivity of one query.
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
  //    slice's length. Nothing stays resident after the call.
  //  - Shared block scan for the rest: streams each block once through
  //    every remaining query (blocks-outer, queries-inner), parallelized
  //    over block ranges.
  std::vector<size_t> CountBatch(const std::vector<Query>& queries) const;
  std::vector<double> Label(const std::vector<Query>& queries) const;

 private:
  const Table* table_;
  TableSynopsis synopsis_;
  mutable ScanStatsCollector stats_;
};

// One-shot conveniences behind ExecuteCount / LabelQueries. CountMatches
// builds no synopsis (one query cannot amortize it) but still runs the
// selection-vector evaluation and the code kernels; callers that issue
// repeated single queries against one table should build one BlockScanner.
// LabelMatches builds a scanner and shared-scans the whole batch.
size_t CountMatches(const Table& table, const Query& query);
std::vector<double> LabelMatches(const Table& table,
                                 const std::vector<Query>& queries);

}  // namespace arecel::scan

#endif  // ARECEL_SCAN_BLOCK_SCAN_H_
