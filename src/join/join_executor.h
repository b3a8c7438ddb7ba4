#ifndef ARECEL_JOIN_JOIN_EXECUTOR_H_
#define ARECEL_JOIN_JOIN_EXECUTOR_H_

#include <cstddef>
#include <vector>

#include "data/schema.h"
#include "scan/block_scan.h"
#include "workload/query.h"

namespace arecel::join {

// Exact ground-truth execution of star join queries (DESIGN.md §13).
//
// The executor decomposes a join query into one probe table (the star's
// center — the table every join edge touches) and one build side per other
// table, then runs a textbook build-side hash join:
//  1. each build table is scanned with its predicates through the
//     block scan's selection vectors and kernels (shared with
//     BlockScanner via scan::ScanPlan), and the matching rows' key values
//     feed an open-addressing hash table of key -> multiplicity;
//  2. the probe table is scanned the same way with its own predicates; each
//     matching row contributes the product of its key lookups across the
//     build tables.
// With PK–FK integrity every multiplicity is 0 or 1, but the executor is
// deliberately general (duplicate build keys multiply), so the
// nested-loop reference below is a true differential oracle for fan-out
// cases too. Counts are exact integers, bit-identical to the reference by
// construction; tests/join_executor_test.cc enforces that differentially.
//
// Queries must name their tables (a one-table query names one); each
// predicate's `table` indexes them.
class JoinExecutor {
 public:
  // Builds each schema table's code-count prefixes, once. The schema must
  // outlive the executor and its tables must not change; a new data
  // version needs a new executor. `block_size` is the selection-vector
  // length of the per-table scans.
  explicit JoinExecutor(const Schema& schema,
                        size_t block_size = scan::kDefaultBlockSize);

  // Exact COUNT(*) of `query`. Aborts on malformed queries (unknown
  // tables, non-star join graphs, out-of-range columns or table indices).
  size_t Count(const Query& query) const;

  // Count / product of participating table row counts, in [0, 1]; 0 when
  // any participating table is empty.
  double Selectivity(const Query& query) const;

  // Batch labeling, parallelized over queries (each Count is a pure read).
  std::vector<size_t> CountBatch(const std::vector<Query>& queries) const;
  std::vector<double> Label(const std::vector<Query>& queries) const;

  // Cartesian-product denominator of `query` over `schema`.
  static double RowsProduct(const Schema& schema, const Query& query);

  // Cumulative build/probe-side kernel counters across every Count call.
  scan::ScanStats scan_stats() const { return stats_.Snapshot(); }

 private:
  const Schema* schema_;
  size_t block_size_;
  std::vector<scan::CodePrefixes> prefixes_;  // aligned with schema tables.
  mutable scan::ScanStatsCollector stats_;
};

// Differential oracle: row-at-a-time nested loops over the same star
// decomposition, with Predicate::Matches as the interval oracle and plain
// double equality as the join condition. Shares no scan or hash machinery
// with JoinExecutor — the "naive" side of the differential suite and of
// bench_join.
size_t ExecuteJoinCountNaive(const Schema& schema, const Query& query);

}  // namespace arecel::join

#endif  // ARECEL_JOIN_JOIN_EXECUTOR_H_
