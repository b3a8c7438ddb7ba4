#include "scan/block_scan.h"

#include <algorithm>
#include <limits>
#include <mutex>

#include "util/check.h"
#include "util/thread_pool.h"

namespace arecel::scan {

namespace {

uint32_t CheckedRowCount(const Table& table) {
  ARECEL_CHECK_MSG(
      table.num_rows() <= std::numeric_limits<uint32_t>::max(),
      "block scan uses 32-bit row ids");
  return static_cast<uint32_t>(table.num_rows());
}

// Single unsigned compare per row: c in [lo, hi] iff c - lo <= hi - lo.
// The arithmetic stays at the code's own width (u8/u16) — lo, hi, and every
// code fit it, and modular wrap preserves the trick — so the compiler can
// vectorize at 16/32 lanes per vector instead of widening each code to u32.
template <typename Code>
size_t FilterCodesImpl(const Code* codes, uint32_t begin, uint32_t end,
                       uint32_t lo, uint32_t hi, uint32_t* sel) {
  const Code lo_c = static_cast<Code>(lo);
  const Code span = static_cast<Code>(hi - lo);
  size_t n = 0;
  for (uint32_t r = begin; r < end; ++r) {
    sel[n] = r;
    n += static_cast<size_t>(static_cast<Code>(codes[r] - lo_c) <= span);
  }
  return n;
}

// `dst` may alias `src`: each id is read before any write can reach it.
template <typename Code>
size_t RefineCodesImpl(const Code* codes, uint32_t lo, uint32_t hi,
                       const uint32_t* src, size_t n, uint32_t* dst) {
  const Code lo_c = static_cast<Code>(lo);
  const Code span = static_cast<Code>(hi - lo);
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t id = src[i];
    dst[kept] = id;
    kept += static_cast<size_t>(static_cast<Code>(codes[id] - lo_c) <= span);
  }
  return kept;
}

template <typename Code>
size_t CountCodesImpl(const Code* codes, uint32_t begin, uint32_t end,
                      uint32_t lo, uint32_t hi) {
  const Code lo_c = static_cast<Code>(lo);
  const Code span = static_cast<Code>(hi - lo);
  size_t n = 0;
  for (uint32_t r = begin; r < end; ++r) {
    n += static_cast<size_t>(static_cast<Code>(codes[r] - lo_c) <= span);
  }
  return n;
}

// Fused conjunctive count over two code columns: the common two-predicate
// categorical query counts in one vectorizable pass instead of a serial
// selection-vector Filter followed by a Refine.
template <typename A, typename B>
size_t CountCodes2Impl(const A* a, uint32_t a_lo, uint32_t a_hi, const B* b,
                       uint32_t b_lo, uint32_t b_hi, uint32_t begin,
                       uint32_t end) {
  const A a_lo_c = static_cast<A>(a_lo);
  const A a_span = static_cast<A>(a_hi - a_lo);
  const B b_lo_c = static_cast<B>(b_lo);
  const B b_span = static_cast<B>(b_hi - b_lo);
  size_t n = 0;
  for (uint32_t r = begin; r < end; ++r) {
    const bool in_a = static_cast<A>(a[r] - a_lo_c) <= a_span;
    const bool in_b = static_cast<B>(b[r] - b_lo_c) <= b_span;
    n += static_cast<size_t>(in_a & in_b);
  }
  return n;
}

// Aborts on a predicate column outside [0, num_cols()); every engine path
// runs this before Table::column indexes with the ids.
void CheckPredicateColumns(const Table& table,
                           const std::vector<Predicate>& predicates) {
  for (const Predicate& p : predicates) {
    ARECEL_CHECK_MSG(
        p.column >= 0 && static_cast<size_t>(p.column) < table.num_cols(),
        "predicate column outside the table");
  }
}

// ---- posting path (BlockScanner::CountBatch) ------------------------------

// The cost rule, in units of one table row of one query's block scan on
// one thread (DESIGN.md §8 gives the measurement behind both constants).
// Refining a driving slice costs up to kSliceCost per row id it holds (a
// gather per id and predicate instead of a streamed compare per row), so a
// query drives from its slice only when the slice holds at most
// rows / kSliceCost ids. Counting-sorting a driving column costs kSortCost
// per table row on one thread, while the block scan and the refines use
// every worker, so the sort is charged once per worker: a column's queries
// take the posting path only when the block work they save exceeds that,
// and a small batch keeps the block scan.
constexpr double kSliceCost = 4.0;
constexpr double kSortCost = 1.3;

// One predicate lowered to its column's codes.
struct CodeRange {
  size_t column = 0;
  uint32_t lo = 0;
  uint32_t hi = 0;
  uint64_t rows = 0;  // exact, from the code-count prefix.
};

// Lowers `predicates` to code ranges in `ranges`, ordered by exact row
// count (stable, as ScanPlan orders them). False when the query must stay
// on the block scan: no predicates, a column past the code budget, or an
// interval containing no domain value.
bool LowerToCodeRanges(const Table& table, const CodePrefixes& prefixes,
                       const std::vector<Predicate>& predicates,
                       std::vector<CodeRange>* ranges) {
  ranges->clear();
  if (predicates.empty()) return false;
  for (const Predicate& p : predicates) {
    const size_t col = static_cast<size_t>(p.column);
    const Column& column = table.column(col);
    if (!WithinCodeBudget(column) || !(p.lo <= p.hi)) return false;
    const int32_t lo = column.LowerBoundCode(p.lo);
    const int32_t hi = column.UpperBoundCode(p.hi);
    if (lo > hi) return false;
    const std::vector<uint64_t>& prefix = prefixes[col];
    ranges->push_back({col, static_cast<uint32_t>(lo),
                       static_cast<uint32_t>(hi),
                       prefix[static_cast<size_t>(hi) + 1] -
                           prefix[static_cast<size_t>(lo)]});
  }
  std::stable_sort(ranges->begin(), ranges->end(),
                   [](const CodeRange& a, const CodeRange& b) {
                     return a.rows < b.rows;
                   });
  return true;
}

// Counting sort of one column's row ids by code into `ids` (rows entries):
// code c's rows land at [prefix[c], prefix[c + 1]) in ascending order, and
// the NaN rows (code domain_size(), prefix's last entry) after them all.
template <typename Code>
void SortRowIdsByCode(const Code* codes, uint32_t rows,
                      const std::vector<uint64_t>& prefix, uint32_t* ids) {
  std::vector<uint32_t> cursor(prefix.begin(), prefix.end());
  for (uint32_t r = 0; r < rows; ++r) ids[cursor[codes[r]]++] = r;
}

size_t RefineRange(const Column& column, const CodeRange& range,
                   const uint32_t* src, size_t n, uint32_t* dst) {
  return column.codes8.empty()
             ? RefineCodes(column.codes16.data(), range.lo, range.hi, src, n,
                           dst)
             : RefineCodes(column.codes8.data(), range.lo, range.hi, src, n,
                           dst);
}

}  // namespace

CodePrefixes BuildCodePrefixes(const Table& table) {
  CodePrefixes prefixes(table.num_cols());
  for (size_t c = 0; c < table.num_cols(); ++c) {
    const Column& column = table.column(c);
    if (!WithinCodeBudget(column)) continue;
    std::vector<uint64_t>& prefix = prefixes[c];
    prefix.assign(column.domain_size() + 1, 0);
    for (size_t i = 0; i < column.domain_size(); ++i)
      prefix[i + 1] = prefix[i] + column.counts[i];
  }
  return prefixes;
}

void ScanStats::Add(const ScanStats& other) {
  scanned_blocks += other.scanned_blocks;
  dict_kernel_blocks += other.dict_kernel_blocks;
  posting_queries += other.posting_queries;
  posting_rows += other.posting_rows;
}

void ScanStatsCollector::Merge(const ScanStats& delta) {
  scanned_blocks_.fetch_add(delta.scanned_blocks, std::memory_order_relaxed);
  dict_kernel_blocks_.fetch_add(delta.dict_kernel_blocks,
                                std::memory_order_relaxed);
  posting_queries_.fetch_add(delta.posting_queries,
                             std::memory_order_relaxed);
  posting_rows_.fetch_add(delta.posting_rows, std::memory_order_relaxed);
}

ScanStats ScanStatsCollector::Snapshot() const {
  ScanStats s;
  s.scanned_blocks = scanned_blocks_.load(std::memory_order_relaxed);
  s.dict_kernel_blocks = dict_kernel_blocks_.load(std::memory_order_relaxed);
  s.posting_queries = posting_queries_.load(std::memory_order_relaxed);
  s.posting_rows = posting_rows_.load(std::memory_order_relaxed);
  return s;
}

size_t FilterInterval(const double* values, uint32_t first, uint32_t begin,
                      uint32_t end, double lo, double hi, uint32_t* sel) {
  const double* v = values + (begin - first);
  const uint32_t count = end - begin;
  size_t n = 0;
  for (uint32_t i = 0; i < count; ++i) {
    sel[n] = begin + i;
    n += static_cast<size_t>((v[i] >= lo) & (v[i] <= hi));
  }
  return n;
}

size_t RefineInterval(const double* values, uint32_t first, double lo,
                      double hi, uint32_t* sel, size_t n) {
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const double v = values[sel[i] - first];
    sel[kept] = sel[i];
    kept += static_cast<size_t>((v >= lo) & (v <= hi));
  }
  return kept;
}

size_t CountInterval(const double* values, uint32_t first, uint32_t begin,
                     uint32_t end, double lo, double hi) {
  const double* v = values + (begin - first);
  const uint32_t count = end - begin;
  size_t n = 0;
  for (uint32_t i = 0; i < count; ++i)
    n += static_cast<size_t>((v[i] >= lo) & (v[i] <= hi));
  return n;
}

size_t FilterCodes(const uint8_t* codes, uint32_t begin, uint32_t end,
                   uint32_t lo, uint32_t hi, uint32_t* sel) {
  return FilterCodesImpl(codes, begin, end, lo, hi, sel);
}
size_t FilterCodes(const uint16_t* codes, uint32_t begin, uint32_t end,
                   uint32_t lo, uint32_t hi, uint32_t* sel) {
  return FilterCodesImpl(codes, begin, end, lo, hi, sel);
}
size_t RefineCodes(const uint8_t* codes, uint32_t lo, uint32_t hi,
                   const uint32_t* src, size_t n, uint32_t* dst) {
  return RefineCodesImpl(codes, lo, hi, src, n, dst);
}
size_t RefineCodes(const uint16_t* codes, uint32_t lo, uint32_t hi,
                   const uint32_t* src, size_t n, uint32_t* dst) {
  return RefineCodesImpl(codes, lo, hi, src, n, dst);
}
size_t CountCodes(const uint8_t* codes, uint32_t begin, uint32_t end,
                  uint32_t lo, uint32_t hi) {
  return CountCodesImpl(codes, begin, end, lo, hi);
}
size_t CountCodes(const uint16_t* codes, uint32_t begin, uint32_t end,
                  uint32_t lo, uint32_t hi) {
  return CountCodesImpl(codes, begin, end, lo, hi);
}

ScanPlan::ScanPlan(const Table& table, const CodePrefixes& prefixes,
                   const std::vector<Predicate>& predicates) {
  CheckPredicateColumns(table, predicates);
  struct Lowered {
    double fraction;
    size_t index;
    int32_t code_lo;
    int32_t code_hi;
  };
  std::vector<Lowered> order;
  order.reserve(predicates.size());
  for (size_t i = 0; i < predicates.size(); ++i) {
    const Predicate& p = predicates[i];
    if (!(p.lo <= p.hi)) {
      satisfiable_ = false;
      return;
    }
    const size_t col = static_cast<size_t>(p.column);
    const Column& column = table.column(col);
    const int32_t code_lo = column.LowerBoundCode(p.lo);
    const int32_t code_hi = column.UpperBoundCode(p.hi);
    if (code_lo > code_hi) {
      // The interval contains no domain value: nothing anywhere in the
      // table can match this predicate.
      satisfiable_ = false;
      return;
    }
    const std::vector<uint64_t>& prefix = prefixes[col];
    const double fraction =
        WithinCodeBudget(column)
            ? static_cast<double>(prefix[static_cast<size_t>(code_hi) + 1] -
                                  prefix[static_cast<size_t>(code_lo)]) /
                  static_cast<double>(table.num_rows())
            : static_cast<double>(code_hi - code_lo + 1) /
                  static_cast<double>(column.domain_size());
    order.push_back({fraction, i, code_lo, code_hi});
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Lowered& a, const Lowered& b) {
                     return a.fraction < b.fraction;
                   });

  preds_.reserve(predicates.size());
  for (const Lowered& lowered : order) {
    const Predicate& p = predicates[lowered.index];
    const Column& column = table.column(static_cast<size_t>(p.column));
    Pred pred;
    pred.values = &column.values;
    pred.lo = p.lo;
    pred.hi = p.hi;
    if (WithinCodeBudget(column)) {
      if (!column.codes8.empty()) pred.codes8 = column.codes8.data();
      if (!column.codes16.empty()) pred.codes16 = column.codes16.data();
      pred.code_lo = static_cast<uint32_t>(lowered.code_lo);
      pred.code_hi = static_cast<uint32_t>(lowered.code_hi);
    }
    preds_.push_back(pred);
  }
}

size_t ScanPlan::Evaluate(uint32_t begin, uint32_t end, uint32_t* sel,
                          ScanStats* stats, bool count_only) const {
  // A predicate on values reads one value segment per pass, so rows that
  // straddle a segment boundary of its column are evaluated one run at a
  // time, each run's ids landing after the previous run's in `sel`. Codes
  // are contiguous and need no split.
  for (const Pred& p : preds_) {
    if (p.on_codes()) continue;
    const size_t boundary = p.values->SegmentAt(begin).end_row();
    if (boundary < end) {
      const uint32_t mid = static_cast<uint32_t>(boundary);
      const size_t n = Evaluate(begin, mid, sel, stats, count_only);
      return n + Evaluate(mid, end, sel + n, stats, count_only);
    }
  }

  bool used_codes = false;
  auto eval_one = [&](const Pred& p, bool fill, size_t n) -> size_t {
    if (p.codes8 != nullptr) {
      used_codes = true;
      return fill ? FilterCodes(p.codes8, begin, end, p.code_lo, p.code_hi,
                                sel)
                  : RefineCodes(p.codes8, p.code_lo, p.code_hi, sel, n, sel);
    }
    if (p.codes16 != nullptr) {
      used_codes = true;
      return fill ? FilterCodes(p.codes16, begin, end, p.code_lo, p.code_hi,
                                sel)
                  : RefineCodes(p.codes16, p.code_lo, p.code_hi, sel, n, sel);
    }
    const ColumnValues::SegmentRef segment = p.values->SegmentAt(begin);
    const uint32_t first_row = static_cast<uint32_t>(segment.first_row);
    return fill ? FilterInterval(segment.values.data(), first_row, begin, end,
                                 p.lo, p.hi, sel)
                : RefineInterval(segment.values.data(), first_row, p.lo, p.hi,
                                 sel, n);
  };

  size_t n;
  if (count_only && preds_.size() == 1) {
    const Pred& p = preds_[0];
    if (p.codes8 != nullptr) {
      used_codes = true;
      n = CountCodes(p.codes8, begin, end, p.code_lo, p.code_hi);
    } else if (p.codes16 != nullptr) {
      used_codes = true;
      n = CountCodes(p.codes16, begin, end, p.code_lo, p.code_hi);
    } else {
      const ColumnValues::SegmentRef segment = p.values->SegmentAt(begin);
      n = CountInterval(segment.values.data(),
                        static_cast<uint32_t>(segment.first_row), begin, end,
                        p.lo, p.hi);
    }
  } else if (count_only && preds_.size() == 2 && preds_[0].on_codes() &&
             preds_[1].on_codes()) {
    const Pred& a = preds_[0];
    const Pred& b = preds_[1];
    used_codes = true;
    if (a.codes8 != nullptr && b.codes8 != nullptr) {
      n = CountCodes2Impl(a.codes8, a.code_lo, a.code_hi, b.codes8, b.code_lo,
                          b.code_hi, begin, end);
    } else if (a.codes8 != nullptr) {
      n = CountCodes2Impl(a.codes8, a.code_lo, a.code_hi, b.codes16,
                          b.code_lo, b.code_hi, begin, end);
    } else if (b.codes8 != nullptr) {
      n = CountCodes2Impl(a.codes16, a.code_lo, a.code_hi, b.codes8,
                          b.code_lo, b.code_hi, begin, end);
    } else {
      n = CountCodes2Impl(a.codes16, a.code_lo, a.code_hi, b.codes16,
                          b.code_lo, b.code_hi, begin, end);
    }
  } else {
    n = eval_one(preds_[0], /*fill=*/true, 0);
    for (size_t k = 1; k < preds_.size() && n > 0; ++k)
      n = eval_one(preds_[k], /*fill=*/false, n);
  }
  if (stats != nullptr && used_codes) ++stats->dict_kernel_blocks;
  return n;
}

size_t ScanPlan::CountBlock(uint32_t begin, uint32_t end, uint32_t* sel,
                            ScanStats* stats) const {
  if (stats != nullptr) ++stats->scanned_blocks;
  return Evaluate(begin, end, sel, stats, /*count_only=*/true);
}

size_t ScanPlan::FilterBlock(uint32_t begin, uint32_t end, uint32_t* sel,
                             ScanStats* stats) const {
  if (stats != nullptr) ++stats->scanned_blocks;
  return Evaluate(begin, end, sel, stats, /*count_only=*/false);
}

BlockScanner::BlockScanner(const Table& table, size_t block_size)
    : table_(&table),
      rows_(CheckedRowCount(table)),
      block_size_(block_size),
      prefixes_(BuildCodePrefixes(table)) {
  ARECEL_CHECK_MSG(block_size_ > 0, "block size must be positive");
}

size_t BlockScanner::Count(const Query& query) const {
  ARECEL_CHECK_MSG(query.IsSingleTable(), "BlockScanner given a join query");
  ARECEL_CHECK_MSG(table_->num_rows() == rows_,
                   "table changed after the scanner was built");
  CheckPredicateColumns(*table_, query.predicates);
  std::vector<CodeRange> ranges;
  if (query.predicates.size() == 1 &&
      LowerToCodeRanges(*table_, prefixes_, query.predicates, &ranges)) {
    ScanStats posting;
    posting.posting_queries = 1;
    stats_.Merge(posting);
    return ranges[0].rows;
  }
  const ScanPlan plan(*table_, prefixes_, query.predicates);
  if (!plan.satisfiable()) return 0;
  if (plan.unconstrained()) return rows_;
  std::vector<uint32_t> sel(block_size_);
  ScanStats local;
  size_t total = 0;
  for (size_t lo = 0; lo < rows_; lo += block_size_) {
    const size_t hi = std::min<size_t>(rows_, lo + block_size_);
    total += plan.CountBlock(static_cast<uint32_t>(lo),
                             static_cast<uint32_t>(hi), sel.data(), &local);
  }
  stats_.Merge(local);
  return total;
}

double BlockScanner::Selectivity(const Query& query) const {
  if (table_->num_rows() == 0) return 0.0;
  return static_cast<double>(Count(query)) /
         static_cast<double>(table_->num_rows());
}

std::vector<size_t> BlockScanner::CountBatch(
    const std::vector<Query>& queries) const {
  for (const Query& query : queries)
    ARECEL_CHECK_MSG(query.IsSingleTable(), "BlockScanner given a join query");
  std::vector<size_t> counts(queries.size(), 0);
  ARECEL_CHECK_MSG(table_->num_rows() == rows_,
                   "table changed after the scanner was built");
  const uint32_t rows = rows_;
  if (rows == 0 || queries.empty()) return counts;
  for (const Query& q : queries) CheckPredicateColumns(*table_, q.predicates);

  // Route every query. A one-predicate query within the budget is its
  // prefix count; a query whose driving slice passes the cost rule joins
  // its driving column's group, which tallies the block work it saves; the
  // rest go to the block scan.
  std::vector<std::vector<size_t>> groups(table_->num_cols());
  std::vector<double> saved(table_->num_cols(), 0.0);
  std::vector<size_t> block_queries;
  std::vector<CodeRange> ranges;
  ScanStats posting_stats;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (!LowerToCodeRanges(*table_, prefixes_, queries[qi].predicates,
                           &ranges)) {
      block_queries.push_back(qi);
      continue;
    }
    if (ranges.size() == 1) {
      counts[qi] = ranges[0].rows;
      ++posting_stats.posting_queries;
      continue;
    }
    const double slice_cost = static_cast<double>(ranges[0].rows) * kSliceCost;
    if (slice_cost > rows) {
      block_queries.push_back(qi);
      continue;
    }
    groups[ranges[0].column].push_back(qi);
    saved[ranges[0].column] += rows - slice_cost;
  }
  stats_.Merge(posting_stats);

  // Per driving column whose saved block work pays for its sort:
  // counting-sort the row ids by code into one buffer reused across
  // columns, then refine each query's slice through its other predicates,
  // in parallel over queries. Workers read `ids` only; each lowers its
  // queries again (to the ranges routed above) and owns its scratch for
  // the length of its slice of queries.
  const double sort_cost = kSortCost * rows * ParallelWorkerCount();
  std::vector<uint32_t> ids;
  for (size_t col = 0; col < groups.size(); ++col) {
    const std::vector<size_t>& group = groups[col];
    if (saved[col] <= sort_cost) {
      block_queries.insert(block_queries.end(), group.begin(), group.end());
      continue;
    }
    ids.resize(rows);
    const Column& column = table_->column(col);
    const std::vector<uint64_t>& prefix = prefixes_[col];
    if (column.codes8.empty()) {
      SortRowIdsByCode(column.codes16.data(), rows, prefix, ids.data());
    } else {
      SortRowIdsByCode(column.codes8.data(), rows, prefix, ids.data());
    }
    ParallelForChunked(0, group.size(), [&](size_t begin, size_t end) {
      std::vector<CodeRange> query_ranges;
      std::vector<uint32_t> scratch;
      ScanStats local;
      for (size_t g = begin; g < end; ++g) {
        LowerToCodeRanges(*table_, prefixes_, queries[group[g]].predicates,
                          &query_ranges);
        const CodeRange& driving = query_ranges[0];
        if (scratch.size() < driving.rows) scratch.resize(driving.rows);
        const uint32_t* src = ids.data() + prefix[driving.lo];
        size_t n = driving.rows;
        for (size_t k = 1; k < query_ranges.size() && n > 0; ++k) {
          const CodeRange& range = query_ranges[k];
          n = RefineRange(table_->column(range.column), range, src, n,
                          scratch.data());
          src = scratch.data();
        }
        counts[group[g]] = n;
        ++local.posting_queries;
        local.posting_rows += driving.rows;
      }
      stats_.Merge(local);
    });
  }
  if (block_queries.empty()) return counts;

  std::vector<ScanPlan> plans;
  plans.reserve(block_queries.size());
  for (size_t qi : block_queries) {
    plans.emplace_back(*table_, prefixes_, queries[qi].predicates);
  }

  // Blocks-outer, queries-inner: the table streams through cache once per
  // chunk instead of once per query. Each worker accumulates into private
  // counters and merges once; integer sums over disjoint block ranges make
  // the merged result independent of the partitioning.
  const size_t num_blocks = (rows + block_size_ - 1) / block_size_;
  std::mutex merge_mutex;
  ParallelForChunked(0, num_blocks, [&](size_t chunk_begin,
                                        size_t chunk_end) {
    std::vector<size_t> local(plans.size(), 0);
    std::vector<uint32_t> sel(block_size_);
    ScanStats local_stats;
    for (size_t b = chunk_begin; b < chunk_end; ++b) {
      const uint32_t lo = static_cast<uint32_t>(b * block_size_);
      const uint32_t hi = static_cast<uint32_t>(
          std::min<size_t>(rows, (b + 1) * block_size_));
      for (size_t pi = 0; pi < plans.size(); ++pi) {
        const ScanPlan& plan = plans[pi];
        if (!plan.satisfiable()) continue;
        if (plan.unconstrained()) {
          local[pi] += hi - lo;
          continue;
        }
        local[pi] += plan.CountBlock(lo, hi, sel.data(), &local_stats);
      }
    }
    stats_.Merge(local_stats);
    const std::scoped_lock lock(merge_mutex);
    for (size_t pi = 0; pi < local.size(); ++pi)
      counts[block_queries[pi]] += local[pi];
  });
  return counts;
}

std::vector<double> BlockScanner::Label(
    const std::vector<Query>& queries) const {
  std::vector<double> selectivities(queries.size(), 0.0);
  if (table_->num_rows() == 0) return selectivities;
  const std::vector<size_t> counts = CountBatch(queries);
  const double rows = static_cast<double>(table_->num_rows());
  for (size_t i = 0; i < counts.size(); ++i)
    selectivities[i] = static_cast<double>(counts[i]) / rows;
  return selectivities;
}

}  // namespace arecel::scan
