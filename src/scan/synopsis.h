#ifndef ARECEL_SCAN_SYNOPSIS_H_
#define ARECEL_SCAN_SYNOPSIS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/table.h"
#include "workload/query.h"

namespace arecel::scan {

// Rows per zone-map block. 4096 doubles = 32 KB per column block, so one
// block of one column fits comfortably in L1 while the per-block metadata
// stays negligible even for million-row tables.
inline constexpr size_t kDefaultBlockSize = 4096;

// Code budget: a column whose domain holds at most this many values gets
// per-block presence bitmaps over its dictionary codes, and its predicates
// run on the table's u8/u16 codes. 4096 codes keep one block's bitmap at
// 512 bytes and cover every categorical column of the paper's
// Census/DMV-shaped tables.
inline constexpr size_t kMaxDictCodes = 4096;

// The one column rule, shared by the synopsis (which columns get bitmaps)
// and ScanPlan (which predicates run the code kernels). Within the budget
// the nan_code() sentinel fits 16 bits, so the codes are u8 or u16.
inline bool WithinCodeBudget(const Column& column) {
  return column.domain_size() <= kMaxDictCodes;
}

struct SynopsisOptions {
  size_t block_size = kDefaultBlockSize;
};

// Per-block synopses of one immutable table, built once (DESIGN.md §8).
// The dictionary itself (domain, narrow per-row codes, per-code counts)
// belongs to the Table; the synopsis keeps only per-block state and what it
// derives from the dictionary:
//
//  1. min/max zone maps for every column (NaN-aware: NaN values never
//     widen an envelope, and a block containing NaN is never counted
//     wholesale, matching Predicate::Matches which NaN never satisfies);
//  2. for columns within the code budget (WithinCodeBudget): per-block
//     presence bitmaps over the codes, so equality predicates skip every
//     block whose bit is clear and range predicates prune via code-range
//     bit tests; plus prefix sums of the column's code counts, which make
//     DictFraction exact in O(1).
//
// A new data version is a new Table, and gets a new synopsis.
class TableSynopsis {
 public:
  explicit TableSynopsis(const Table& table,
                         const SynopsisOptions& options = {});

  size_t block_size() const { return block_size_; }
  size_t num_blocks() const { return num_blocks_; }
  // Rows of the table the synopsis was built over.
  size_t num_rows() const { return rows_; }

  // Total heap footprint of every synopsis structure (zone maps, bitmaps,
  // count prefixes), in bytes. The codes are the table's.
  size_t SizeBytes() const;

  // ---- tier 1: zone maps --------------------------------------------------

  // Interval [lo, hi] on `col` overlaps the block's envelope: at least one
  // row of the block *may* match.
  bool CanMatch(size_t block, size_t col, double lo, double hi) const {
    const ColumnSynopsis& c = columns_[col];
    return lo <= c.maxs[block] && hi >= c.mins[block];
  }
  // Interval [lo, hi] contains the block's envelope and the block holds no
  // NaN: every row matches.
  bool FullyMatches(size_t block, size_t col, double lo, double hi) const {
    const ColumnSynopsis& c = columns_[col];
    return lo <= c.mins[block] && c.maxs[block] <= hi &&
           c.has_nan[block] == 0;
  }

  bool CanMatch(size_t block, const Predicate& p) const {
    return CanMatch(block, static_cast<size_t>(p.column), p.lo, p.hi);
  }
  bool FullyMatches(size_t block, const Predicate& p) const {
    return FullyMatches(block, static_cast<size_t>(p.column), p.lo, p.hi);
  }

  // ---- tier 2: columns within the code budget -----------------------------

  bool HasDictionary(size_t col) const {
    return col < columns_.size() && !columns_[col].code_prefix.empty();
  }

  // Any row of `block` carries a code in [lo, hi] (presence bitmap test).
  // Wholesale counting needs no bitmap variant: because the domain is
  // sorted, "every present code lies in the code range" is exactly the
  // zone-map FullyMatches condition.
  bool BitmapCanMatch(size_t block, size_t col, uint32_t lo,
                      uint32_t hi) const;

  // Exact fraction of the table's rows whose code lies in [lo, hi].
  double DictFraction(size_t col, uint32_t lo, uint32_t hi) const;

  // Prefix sums of the column's code counts (domain size + 1 entries):
  // entry c is the number of rows with a code below c, which is where
  // code c's rows start when the row ids are ordered by code. Empty on a
  // column past the code budget.
  const std::vector<uint64_t>& CodePrefix(size_t col) const {
    return columns_[col].code_prefix;
  }

 private:
  struct ColumnSynopsis {
    std::vector<double> mins;  // [block].
    std::vector<double> maxs;
    std::vector<uint8_t> has_nan;
    // Within the code budget only; empty otherwise.
    size_t words_per_block = 0;
    std::vector<uint64_t> bitmap;       // [block * words_per_block + word].
    std::vector<uint64_t> code_prefix;  // domain size + 1; prefix of counts.
  };

  void BuildZoneMaps(const Column& column, ColumnSynopsis& c) const;
  void BuildBitmaps(const Column& column, ColumnSynopsis& c) const;

  size_t block_size_ = 0;
  size_t rows_ = 0;
  size_t num_blocks_ = 0;
  std::vector<ColumnSynopsis> columns_;
};

}  // namespace arecel::scan

#endif  // ARECEL_SCAN_SYNOPSIS_H_
