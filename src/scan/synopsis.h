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

// Code budget for presence bitmaps: a column whose domain holds at most
// this many values gets per-block presence bitmaps over its dictionary
// codes, and its predicates run on the table's u8/u16 codes. 4096 codes
// keep one block's bitmap at 512 bytes and cover every categorical column
// of the paper's Census/DMV-shaped tables.
inline constexpr size_t kDefaultMaxDictCodes = 4096;

// Buckets in the per-block equi-width mini-histograms kept for columns
// past the code budget.
inline constexpr size_t kHistogramBuckets = 16;

struct SynopsisOptions {
  size_t block_size = kDefaultBlockSize;
  // When false, only min/max zone maps are built and predicates run on the
  // doubles (the pre-dictionary engine). The bench's baseline arm.
  bool rich = true;
  size_t max_dict_codes = kDefaultMaxDictCodes;
};

// Per-column synopses over fixed-size row blocks of one table
// (DESIGN.md §8). The dictionary itself (domain, narrow per-row codes,
// per-code counts) belongs to the Table; the synopsis keeps only per-block
// state and what it derives from the dictionary:
//
//  1. min/max zone maps for every column (NaN-aware: NaN values never
//     widen an envelope, and a block containing NaN is never counted
//     wholesale, matching Predicate::Matches which NaN never satisfies);
//  2. for columns within the code budget (domain size <= max_dict_codes):
//     per-block presence bitmaps over the codes, so equality predicates
//     skip every block whose bit is clear and range predicates prune via
//     code-range bit tests; plus prefix sums of the column's code counts,
//     which make DictFraction exact in O(1);
//  3. for the remaining columns: per-block equi-width mini-histograms — a
//     predicate whose interval covers only empty buckets skips the block
//     even when it overlaps the [min, max] envelope.
//
// After rows are appended to the table, ExtendTo() recomputes only from
// the first block the append touched — unless the column's domain grew,
// which moves its codes and so rebuilds its bitmaps, or pushed it past the
// budget, which demotes it to the mini-histogram layer. Counts stay
// bit-identical to the naive executor either way.
class TableSynopsis {
 public:
  TableSynopsis() = default;
  explicit TableSynopsis(const Table& table,
                         const SynopsisOptions& options = {});

  // Re-syncs with `table` after rows were appended: recomputes the last
  // (possibly partial) previously-covered block and everything after it.
  // A table that shrank or changed column count triggers a full rebuild.
  void ExtendTo(const Table& table);

  size_t block_size() const { return options_.block_size; }
  size_t num_blocks() const { return num_blocks_; }
  size_t covered_rows() const { return rows_; }
  bool rich() const { return options_.rich; }

  // Total heap footprint of every synopsis structure (zone maps, bitmaps,
  // count prefixes, histograms), in bytes. The codes are the table's.
  size_t SizeBytes() const;

  // ---- layer 1: zone maps -------------------------------------------------

  double BlockMin(size_t col, size_t block) const {
    return mins_[col][block];
  }
  double BlockMax(size_t col, size_t block) const {
    return maxs_[col][block];
  }
  bool BlockHasNaN(size_t col, size_t block) const {
    return has_nan_[col][block] != 0;
  }

  // Interval [lo, hi] on `col` overlaps the block's envelope: at least one
  // row of the block *may* match.
  bool CanMatch(size_t block, size_t col, double lo, double hi) const {
    return lo <= maxs_[col][block] && hi >= mins_[col][block];
  }
  // Interval [lo, hi] contains the block's envelope and the block holds no
  // NaN: every row matches.
  bool FullyMatches(size_t block, size_t col, double lo, double hi) const {
    return lo <= mins_[col][block] && maxs_[col][block] <= hi &&
           has_nan_[col][block] == 0;
  }

  bool CanMatch(size_t block, const Predicate& p) const {
    return CanMatch(block, static_cast<size_t>(p.column), p.lo, p.hi);
  }
  bool FullyMatches(size_t block, const Predicate& p) const {
    return FullyMatches(block, static_cast<size_t>(p.column), p.lo, p.hi);
  }

  // ---- layer 2: columns within the code budget ---------------------------

  bool HasDictionary(size_t col) const {
    return col < dicts_.size() && dicts_[col].active;
  }

  // Any row of `block` carries a code in [lo, hi] (presence bitmap test).
  // Wholesale counting needs no bitmap variant: because the domain is
  // sorted, "every present code lies in the code range" is exactly the
  // zone-map FullyMatches condition.
  bool BitmapCanMatch(size_t block, size_t col, uint32_t lo,
                      uint32_t hi) const;

  // Exact fraction of covered rows whose code lies in [lo, hi].
  double DictFraction(size_t col, uint32_t lo, uint32_t hi) const;

  // ---- layer 3: mini-histograms for the other columns ---------------------

  bool HasHistogram(size_t col) const {
    return col < minis_.size() && !minis_[col].empty();
  }
  // False when every histogram bucket overlapping [lo, hi] is empty — the
  // block cannot contain a matching row even though its envelope overlaps.
  bool HistogramCanMatch(size_t block, size_t col, double lo, double hi) const;

 private:
  struct DictColumn {
    bool active = false;
    size_t domain_size = 0;        // the domain the bitmaps index.
    size_t words_per_block = 0;
    std::vector<uint64_t> bitmap;  // [block * words_per_block + word].
    std::vector<uint64_t> code_prefix;  // size + 1; prefix of counts.
  };

  void Build(const Table& table);
  // Recomputes the synopses of blocks [first_block, num_blocks_).
  void BuildBlocks(const Table& table, size_t first_block);
  void BuildColumn(const Column& column, size_t col, size_t first_block);
  void BuildMiniBlocks(const Column& column, size_t col, size_t first_block);
  void BuildBitmaps(const Column& column, DictColumn& d, size_t first_block);

  SynopsisOptions options_;
  size_t rows_ = 0;
  size_t num_blocks_ = 0;
  std::vector<std::vector<double>> mins_;  // [col][block].
  std::vector<std::vector<double>> maxs_;
  std::vector<std::vector<uint8_t>> has_nan_;
  std::vector<DictColumn> dicts_;  // [col]; inactive past the budget.
  // [col][block * kHistogramBuckets + bucket], equi-width over the block's
  // [min, max] envelope; NaN rows are counted nowhere. Empty for columns
  // within the budget.
  std::vector<std::vector<uint32_t>> minis_;
};

}  // namespace arecel::scan

#endif  // ARECEL_SCAN_SYNOPSIS_H_
