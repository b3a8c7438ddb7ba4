// Randomized differential testing of the vectorized block-scan engine
// (src/scan/) against the naive reference executor: every count must be
// BIT-IDENTICAL (exact integers, not approximately equal), across seeded
// tables and workloads, degenerate queries (no predicates, unsatisfiable
// intervals, open ranges), a fresh scanner over the table an update step
// appended to, and block-boundary shapes (rows not a multiple of the block
// size). Predicates on columns outside the table abort on every path.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "scan/block_scan.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/query.h"

namespace arecel {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Table SmallTable() {
  Table t("scan_tbl");
  t.AddColumn("a", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, false);
  t.AddColumn("b", {5, 5, 5, 1, 1, 2, 2, 9, 9, 9}, true);
  return t;
}

// Asserts every executor agrees with the naive reference on `queries`:
// a scanner with `block_size` rows per block (single and batch),
// ExecuteCount and LabelQueries.
void ExpectDifferentialMatch(const Table& table,
                             const std::vector<Query>& queries,
                             size_t block_size) {
  scan::BlockScanner scanner(table, {block_size});
  const std::vector<size_t> batch = scanner.CountBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const size_t naive = ExecuteCountNaive(table, queries[i]);
    EXPECT_EQ(scanner.Count(queries[i]), naive) << "query " << i;
    EXPECT_EQ(batch[i], naive) << "query " << i;
    EXPECT_EQ(ExecuteCount(table, queries[i]), naive) << "query " << i;
  }
  const std::vector<double> labels = LabelQueries(table, queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    const double naive_sel =
        static_cast<double>(ExecuteCountNaive(table, queries[i])) /
        static_cast<double>(table.num_rows());
    EXPECT_DOUBLE_EQ(labels[i], naive_sel) << "query " << i;
  }
}

TEST(ScanEngineTest, RandomizedDifferentialOverSeededWorkloads) {
  for (uint64_t seed : {7u, 23u, 91u}) {
    const Table table = GenerateDataset(
        [] {
          DatasetSpec spec = CensusSpec();
          spec.rows = 3000;
          return spec;
        }(),
        seed);
    const std::vector<Query> queries =
        GenerateQueries(table, 150, seed + 1);
    // Block sizes straddling the row count: tiny (forces many boundary
    // blocks), one that does not divide 3000, and one bigger than the
    // table (single block).
    for (size_t block_size : {7u, 256u, 8192u}) {
      SCOPED_TRACE(testing::Message()
                   << "seed=" << seed << " block_size=" << block_size);
      ExpectDifferentialMatch(table, queries, block_size);
    }
  }
}

TEST(ScanEngineTest, HighlyCorrelatedSkewedTable) {
  const Table table = GenerateSynthetic2D(2500, 1.2, 0.9, 40, 11);
  const std::vector<Query> queries = GenerateQueries(table, 120, 12);
  ExpectDifferentialMatch(table, queries, 64);
}

TEST(ScanEngineTest, EmptyPredicateListMatchesAllRows) {
  const Table table = SmallTable();
  const Query query;  // no predicates.
  EXPECT_EQ(ExecuteCountNaive(table, query), table.num_rows());
  EXPECT_EQ(ExecuteCount(table, query), table.num_rows());
  scan::BlockScanner scanner(table, {4});
  EXPECT_EQ(scanner.Count(query), table.num_rows());
  EXPECT_EQ(scanner.CountBatch({query})[0], table.num_rows());
}

TEST(ScanEngineTest, UnsatisfiableIntervalIsZeroEverywhere) {
  const Table table = SmallTable();
  Query query;
  query.predicates.push_back({0, 5, 2});  // lo > hi.
  EXPECT_EQ(ExecuteCountNaive(table, query), 0u);
  EXPECT_EQ(ExecuteCount(table, query), 0u);
  scan::BlockScanner scanner(table, {4});
  EXPECT_EQ(scanner.Count(query), 0u);
  EXPECT_EQ(scanner.CountBatch({query})[0], 0u);
}

TEST(ScanEngineTest, OpenRangesWithInfiniteBounds) {
  const Table table = SmallTable();
  std::vector<Query> queries(4);
  queries[0].predicates.push_back({0, -kInf, 4});     // a <= 4.
  queries[1].predicates.push_back({0, 7, kInf});      // a >= 7.
  queries[2].predicates.push_back({0, -kInf, kInf});  // unconstrained.
  queries[3].predicates.push_back({0, -kInf, 6});     // conjunction with
  queries[3].predicates.push_back({1, 5, kInf});      // two open ranges.
  ExpectDifferentialMatch(table, queries, 3);
  EXPECT_EQ(ExecuteCount(table, queries[0]), 4u);
  EXPECT_EQ(ExecuteCount(table, queries[1]), 4u);
  EXPECT_EQ(ExecuteCount(table, queries[2]), 10u);
}

TEST(ScanEngineTest, AppendedRowsAfterUpdateStep) {
  const Table table = GenerateSynthetic2D(1100, 0.8, 0.5, 30, 21);
  const std::vector<Query> queries = GenerateQueries(table, 80, 22);
  // §4.2-style append-20% update step. The new version is a new table and
  // gets its own scanner.
  const Table updated = AppendCorrelatedUpdate(table, 0.2, 23);
  ASSERT_GT(updated.num_rows(), table.num_rows());
  ExpectDifferentialMatch(table, queries, 128);
  ExpectDifferentialMatch(updated, queries, 128);  // 1320 % 128 != 0.
}

TEST(ScanEngineDeathTest, PredicateColumnOutsideTableAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Table table = SmallTable();  // two columns.
  for (int column : {99, -1}) {
    SCOPED_TRACE(testing::Message() << "column=" << column);
    Query query;
    query.predicates.push_back({0, 1, 9});
    query.predicates.push_back({column, 1, 2});
    EXPECT_DEATH(ExecuteCount(table, query),
                 "predicate column outside the table");
    EXPECT_DEATH(ExecuteCountNaive(table, query),
                 "predicate column outside the table");
    EXPECT_DEATH(scan::BlockScanner(table).Count(query),
                 "predicate column outside the table");
    EXPECT_DEATH(scan::BlockScanner(table).CountBatch({query}),
                 "predicate column outside the table");
  }
}

TEST(ScanEngineDeathTest, ScannerAbortsAfterItsTableChanged) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Table table = SmallTable();
  const scan::BlockScanner scanner(table, {4});
  table = table.WithSortedRows({0, 1});
  Query query;
  query.predicates.push_back({0, 1, 9});
  EXPECT_DEATH(scanner.Count(query),
               "table changed after the scanner was built");
  EXPECT_DEATH(scanner.CountBatch({query}),
               "table changed after the scanner was built");
}

TEST(ScanEngineTest, KernelsAgreeWithMatches) {
  const std::vector<double> values = {0.5, 1.0, 2.5, 3.0, -1.0, 7.25, 3.0};
  const Predicate p{0, 1.0, 3.0};
  std::vector<uint32_t> sel(values.size());
  const size_t filtered = scan::FilterInterval(
      values.data(), 0, 0, static_cast<uint32_t>(values.size()), p.lo, p.hi,
      sel.data());
  const size_t counted = scan::CountInterval(
      values.data(), 0, 0, static_cast<uint32_t>(values.size()), p.lo, p.hi);
  size_t expected = 0;
  for (double v : values) expected += p.Matches(v) ? 1 : 0;
  EXPECT_EQ(filtered, expected);
  EXPECT_EQ(counted, expected);
  for (size_t i = 0; i < filtered; ++i)
    EXPECT_TRUE(p.Matches(values[sel[i]]));
  // Refine against a second "column" (reuse values shifted): keeps exactly
  // the ids whose value also lies in the refined interval.
  const size_t refined =
      scan::RefineInterval(values.data(), 0, 2.0, 3.0, sel.data(), filtered);
  for (size_t i = 0; i < refined; ++i) {
    EXPECT_GE(values[sel[i]], 2.0);
    EXPECT_LE(values[sel[i]], 3.0);
  }
  EXPECT_EQ(refined, 3u);  // 2.5, 3.0, 3.0.
}

TEST(ScanEngineTest, SelectivityMatchesExecuteSelectivity) {
  const Table table = SmallTable();
  Query query;
  query.predicates.push_back({0, 2, 6});
  scan::BlockScanner scanner(table, {4});
  EXPECT_DOUBLE_EQ(scanner.Selectivity(query),
                   ExecuteSelectivity(table, query));
}

}  // namespace
}  // namespace arecel
