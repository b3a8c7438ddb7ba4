#ifndef ARECEL_WORKLOAD_QUERY_H_
#define ARECEL_WORKLOAD_QUERY_H_

#include <limits>
#include <string>
#include <vector>

#include "data/table.h"

namespace arecel {

// One conjunct: lo <= column <= hi (inclusive). Equality predicates have
// lo == hi; open ranges use +/-infinity on the unbounded side, which is how
// the unified generator represents ranges that spilled past the column
// domain (§3 "Workload" of the paper).
struct Predicate {
  int column = 0;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  // Index into Query::tables of the table `column` belongs to; 0 in a
  // single-table query. It follows the bounds so that `{column, lo, hi}`
  // brace initializers keep their meaning.
  int table = 0;

  bool is_equality() const { return lo == hi; }
  bool Matches(double v) const { return v >= lo && v <= hi; }
};

// One equi-join edge: left_table.left_column = right_table.right_column.
// Tables are referenced by name (column indices are into the named table),
// matching the Schema's ForeignKey edges.
struct JoinEdge {
  std::string left_table;
  int left_column = 0;
  std::string right_table;
  int right_column = 0;
};

// A conjunctive COUNT(*) query: one flat list of range predicates over one
// or more tables joined by equi-join edges — the tables, joins and
// predicates sets MSCN featurizes (DESIGN.md §13).
//
// An empty `tables` means the one table the caller is bound to: the
// single-table estimators, the scan engine and the serve path read
// `predicates` alone. A join query names its tables and tags each
// predicate with its table's index; its selectivity is defined against the
// Cartesian product of the tables (|result| / prod |T_i|), the convention
// of MSCN and the follow-up join benchmarks, so estimators keep returning
// values in [0, 1].
struct Query {
  std::vector<Predicate> predicates;
  std::vector<std::string> tables;  // distinct names, any order.
  std::vector<JoinEdge> joins;      // n - 1 edges for n tables.

  // True when the query names no tables and no joins.
  bool IsSingleTable() const { return tables.empty() && joins.empty(); }

  // Tables the query ranges over: the caller's one table when `tables` is
  // empty.
  size_t num_tables() const { return tables.empty() ? 1 : tables.size(); }

  // True when every predicate interval is non-empty (lo <= hi).
  bool IsSatisfiable() const;

  // True when every predicate's `table` lies in [0, num_tables()).
  bool HasValidTableIndices() const;

  // Position of `name` in `tables`, or -1.
  int TableIndex(const std::string& name) const;

  // The predicates on table `t`, in list order.
  std::vector<Predicate> TablePredicates(int t) const;

  // SQL-ish rendering of a single-table query, with `table`'s column names.
  std::string ToString(const Table& table) const;

  // SQL-ish rendering of a join query, columns written table.c<index>.
  std::string ToString() const;
};

// The benchmark harness (cebench/) spells join queries `JoinQuery` and is
// kept unchanged across library changes; the alias lets it build.
using JoinQuery = Query;

// Exact number of rows of `table` matching `query`, which must name no
// tables. Routed through the vectorized block-scan engine
// (src/scan/block_scan.h). Both executors abort on a predicate column
// outside [0, table.num_cols()).
size_t ExecuteCount(const Table& table, const Query& query);

// Reference executor: row-at-a-time scan with Predicate::Matches as the
// interval oracle. Kept as the differential-testing baseline
// (tests/scan_engine_test.cc) and the "naive" side of bench_micro_scan;
// production callers use ExecuteCount.
size_t ExecuteCountNaive(const Table& table, const Query& query);

// Exact selectivity = ExecuteCount / rows.
double ExecuteSelectivity(const Table& table, const Query& query);

// Labels the whole batch through one BlockScanner::CountBatch (the posting
// path, then one shared scan of the table for the rest, parallelized over
// blocks). Returns selectivities in [0, 1], bit-identical to per-query
// execution. Every query must name no tables.
std::vector<double> LabelQueries(const Table& table,
                                 const std::vector<Query>& queries);

}  // namespace arecel

#endif  // ARECEL_WORKLOAD_QUERY_H_
