// Differential tests for the posting path of BlockScanner::CountBatch: a
// query whose predicates all lie on columns within the code budget is
// answered from the row ids of its most selective predicate's code range,
// counting-sorted per driving column, when that range passes the cost rule.
// Every count must be BIT-IDENTICAL to the naive executor on both paths:
// u8 and u16 codes (domains 255, 256 and 4096), NaN rows, -0.0/+0.0 and
// +-inf bounds, empty code ranges, inverted intervals and empty predicate
// lists, duplicate-column predicates, a column past the budget, both sides
// of the cost rule, a batch mixing the paths, a column whose rows continue
// with new values past u8 codes and its §5.1 version, and queries past 64
// predicates.
//
// Routing is forced through the batch: a lone multi-predicate query never
// saves enough block work to pay for a column sort, so it takes the block
// scan, while kCopies copies of a query whose driving slice holds at most
// rows / 8 ids pay for the sort on any pool size (up to 16 workers).

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "data/table.h"
#include "scan/block_scan.h"
#include "util/random.h"
#include "workload/query.h"

namespace arecel {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr size_t kCopies = 64;

Query MakeQuery(std::vector<Predicate> predicates) {
  Query query;
  query.predicates = std::move(predicates);
  return query;
}

// Counts `batch` and returns how many of its queries the posting path
// answered.
uint64_t CountRouted(const scan::BlockScanner& scanner,
                     const std::vector<Query>& batch,
                     std::vector<size_t>* counts) {
  const uint64_t before = scanner.stats().posting_queries;
  *counts = scanner.CountBatch(batch);
  return scanner.stats().posting_queries - before;
}

// Checks every query against the naive executor: in the whole batch
// (order preserved), alone, as kCopies copies, through Count and through
// ExecuteCount. Returns the posting queries counted over all batches.
uint64_t ExpectEveryPathMatchesNaive(const Table& table,
                                     const std::vector<Query>& queries,
                                     size_t block_size) {
  const scan::BlockScanner scanner(table, {block_size});
  const std::vector<size_t> batch = scanner.CountBatch(queries);
  EXPECT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& query = queries[i];
    const size_t naive = ExecuteCountNaive(table, query);
    EXPECT_EQ(batch[i], naive) << "query " << i;
    EXPECT_EQ(scanner.CountBatch({query})[0], naive) << "query " << i;
    for (size_t count :
         scanner.CountBatch(std::vector<Query>(kCopies, query))) {
      EXPECT_EQ(count, naive) << "query " << i;
    }
    EXPECT_EQ(scanner.Count(query), naive) << "query " << i;
    EXPECT_EQ(ExecuteCount(table, query), naive) << "query " << i;
  }
  return scanner.stats().posting_queries;
}

// 2-4 predicates per query on random columns: equalities on domain values
// (the first and last code included) and ranges between two of them.
std::vector<Query> RandomQueries(const Table& table, size_t count,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> queries(count);
  for (Query& q : queries) {
    const size_t preds = 2 + rng.UniformInt(uint64_t{3});
    for (size_t i = 0; i < preds; ++i) {
      const int col =
          static_cast<int>(rng.UniformInt(uint64_t{table.num_cols()}));
      const std::vector<double>& domain =
          table.column(static_cast<size_t>(col)).domain;
      const auto pick = [&] {
        const uint64_t r = rng.UniformInt(uint64_t{8});
        if (r == 0) return domain.front();
        if (r == 1) return domain.back();
        return domain[rng.UniformInt(uint64_t{domain.size()})];
      };
      const double a = pick();
      if (rng.Bernoulli(0.5)) {
        q.predicates.push_back({col, a, a});
      } else {
        const double b = pick();
        q.predicates.push_back({col, std::min(a, b), std::max(a, b)});
      }
    }
  }
  return queries;
}

// A column holding exactly `domain` distinct integers, permuted so every
// block sees most of the domain.
std::vector<double> PermutedDomain(size_t rows, size_t domain) {
  std::vector<double> values(rows);
  for (size_t i = 0; i < rows; ++i)
    values[i] = static_cast<double>((i * 7919) % domain);
  return values;
}

TEST(ScanPostingTest, U8AndU16CodeColumns) {
  const size_t rows = 3 * 4096 + 123;
  Table table("widths");
  table.AddColumn("d255", PermutedDomain(rows, 255), true);
  table.AddColumn("d256", PermutedDomain(rows, 256), true);
  table.AddColumn("d4096", PermutedDomain(rows, 4096), true);
  ASSERT_EQ(table.column(0).domain_size(), 255u);
  ASSERT_FALSE(table.column(0).codes8.empty());  // NaN sentinel 255 fits u8.
  ASSERT_EQ(table.column(1).domain_size(), 256u);
  ASSERT_FALSE(table.column(1).codes16.empty());
  ASSERT_EQ(table.column(2).domain_size(), scan::kMaxDictCodes);
  ASSERT_FALSE(table.column(2).codes16.empty());

  const std::vector<Query> queries = RandomQueries(table, 60, 5);
  for (size_t block_size : {size_t{777}, scan::kDefaultBlockSize}) {
    SCOPED_TRACE(testing::Message() << "block_size=" << block_size);
    EXPECT_GT(ExpectEveryPathMatchesNaive(table, queries, block_size), 0u);
  }
}

TEST(ScanPostingTest, NaNRowsSignedZeroAndInfiniteBounds) {
  // Column a: -4..4 with both zero signs and NaN rows; column b: 0..19
  // with NaN rows. Every a value holds about 1/10 of the rows.
  const size_t rows = 5000;
  std::vector<double> a(rows);
  std::vector<double> b(rows);
  for (size_t i = 0; i < rows; ++i) {
    const int v = static_cast<int>(i % 10) - 5;
    a[i] = v == -5 ? kNaN : (v == 0 && i % 20 == 5 ? -0.0 : v);
    b[i] = i % 13 == 0 ? kNaN : static_cast<double>((i * 31) % 20);
  }
  Table table("nan_zero");
  table.AddColumn("a", std::move(a), false);
  table.AddColumn("b", std::move(b), true);
  ASSERT_EQ(table.column(0).domain_size(), 9u);  // -0.0 stored as +0.0.

  const std::vector<Query> queries = {
      MakeQuery({{0, -0.0, -0.0}, {1, 0, 9}}),
      MakeQuery({{0, 0.0, 0.0}, {1, -kInf, 4}}),
      MakeQuery({{0, -0.0, 0.0}, {1, 15, kInf}}),
      MakeQuery({{0, -kInf, -4}, {1, -kInf, kInf}}),
      MakeQuery({{0, 4, kInf}, {1, 3, 3}}),
      MakeQuery({{1, 7, 7}, {0, -kInf, kInf}}),
      MakeQuery({{1, -kInf, 1}, {0, -0.0, kInf}, {1, 0, kInf}}),
      MakeQuery({{0, 0.0, 0.0}}),        // one predicate: the slice length.
      MakeQuery({{0, -kInf, kInf}}),     // every non-NaN row.
      MakeQuery({{0, kNaN, kNaN}, {1, 3, 3}}),  // NaN bounds match nothing.
  };
  EXPECT_EQ(ExecuteCountNaive(table, queries[8]), 4500u);
  for (size_t block_size : {size_t{100}, scan::kDefaultBlockSize}) {
    SCOPED_TRACE(testing::Message() << "block_size=" << block_size);
    EXPECT_GT(ExpectEveryPathMatchesNaive(table, queries, block_size), 0u);
  }
}

TEST(ScanPostingTest, EmptyRangesInvertedIntervalsAndEmptyLists) {
  const size_t rows = 4000;
  Table table("degenerate");
  table.AddColumn("a", PermutedDomain(rows, 40), true);
  table.AddColumn("b", PermutedDomain(rows, 25), true);
  const std::vector<Query> queries = {
      MakeQuery({{0, 3, 3}, {1, 2.25, 2.75}}),  // no domain value inside.
      MakeQuery({{0, 3, 3}, {1, 9, 2}}),        // lo > hi.
      MakeQuery({{0, 100, kInf}, {1, 1, 1}}),   // past the domain's top.
      MakeQuery({{0, -kInf, -1}}),              // below the domain.
      Query{},                                  // every row.
      MakeQuery({{0, 3, 3}, {1, 2, 2}}),        // a posting query beside.
  };
  const scan::BlockScanner scanner(table);
  const std::vector<size_t> counts = scanner.CountBatch(queries);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 0u);
  EXPECT_EQ(counts[4], rows);
  ExpectEveryPathMatchesNaive(table, queries, 512);
}

TEST(ScanPostingTest, DuplicateColumnPredicates) {
  const size_t rows = 6000;
  Table table("dups");
  table.AddColumn("a", PermutedDomain(rows, 30), true);
  table.AddColumn("b", PermutedDomain(rows, 17), true);
  const std::vector<Query> queries = {
      MakeQuery({{0, 0, 3}, {0, 2, 9}}),          // overlapping ranges.
      MakeQuery({{0, 3, 3}, {0, 3, 3}}),          // the same equality.
      MakeQuery({{0, 3, 3}, {0, 4, 4}}),          // disjoint: empty.
      MakeQuery({{0, 2, 2}, {1, 0, 8}, {0, 0, 10}}),
      MakeQuery({{1, 5, 5}, {0, -kInf, kInf}, {1, 5, kInf}}),
  };
  EXPECT_EQ(ExecuteCountNaive(table, queries[2]), 0u);
  const uint64_t posting = ExpectEveryPathMatchesNaive(table, queries, 1000);
  EXPECT_GE(posting, queries.size() * kCopies);
}

TEST(ScanPostingTest, ColumnPastTheBudgetKeepsTheBlockScan) {
  const size_t rows = 3 * scan::kMaxDictCodes;
  Table table("past");
  table.AddColumn("small", PermutedDomain(rows, 50), true);
  table.AddColumn("big", PermutedDomain(rows, scan::kMaxDictCodes + 1), true);
  ASSERT_FALSE(scan::WithinCodeBudget(table.column(1)));
  // Selective on `small`, but `big` has no codes the path can read.
  const Query query = MakeQuery({{0, 7, 7}, {1, 100, 3000}});
  const scan::BlockScanner scanner(table);
  std::vector<size_t> counts;
  EXPECT_EQ(CountRouted(scanner, std::vector<Query>(kCopies, query), &counts),
            0u);
  const size_t naive = ExecuteCountNaive(table, query);
  for (size_t count : counts) EXPECT_EQ(count, naive);
  ExpectEveryPathMatchesNaive(table, {query}, 1000);
}

TEST(ScanPostingTest, QueriesOnBothSidesOfTheCostRule) {
  // Column a: code 0 holds exactly rows / 4 rows (the largest slice the
  // rule admits), code 1 one row more, code 2 a tenth of the rows.
  const size_t rows = 8000;
  std::vector<double> a(rows, 3.0);
  for (size_t i = 0; i < rows; ++i) {
    const size_t k = (i * 7919) % rows;
    if (k < 2000) {
      a[i] = 0.0;
    } else if (k < 4001) {
      a[i] = 1.0;
    } else if (k < 4801) {
      a[i] = 2.0;
    }
  }
  Table table("rule");
  table.AddColumn("a", std::move(a), true);
  table.AddColumn("b", PermutedDomain(rows, 2), true);
  const Query at_limit = MakeQuery({{0, 0, 0}, {1, 1, 1}});
  const Query past_limit = MakeQuery({{0, 1, 1}, {1, 1, 1}});
  const Query selective = MakeQuery({{0, 2, 2}, {1, 0, 0}});
  const scan::BlockScanner scanner(table, {1000});
  std::vector<size_t> counts;

  // A lone selective query cannot pay for the sort of column a.
  EXPECT_EQ(CountRouted(scanner, {selective}, &counts), 0u);
  EXPECT_EQ(counts[0], ExecuteCountNaive(table, selective));

  // Enough selective copies pay for it; the query at the limit rides
  // along, the one past it stays on the block scan.
  std::vector<Query> batch(kCopies, selective);
  batch.push_back(at_limit);
  batch.push_back(past_limit);
  EXPECT_EQ(CountRouted(scanner, batch, &counts), kCopies + 1);
  for (size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(counts[i], ExecuteCountNaive(table, batch[i])) << i;

  // Copies of the query at the limit save nothing, so they never pay.
  EXPECT_EQ(CountRouted(scanner, std::vector<Query>(kCopies, at_limit),
                        &counts),
            0u);
  EXPECT_EQ(counts[0], ExecuteCountNaive(table, at_limit));
}

TEST(ScanPostingTest, MixedBatchPreservesResultOrder) {
  const size_t rows = 20000;
  Table table("mixed");
  table.AddColumn("a", PermutedDomain(rows, 60), true);
  table.AddColumn("b", PermutedDomain(rows, 12), true);
  table.AddColumn("c", PermutedDomain(rows, scan::kMaxDictCodes + 50), false);
  Rng rng(9);
  std::vector<Query> batch;
  for (size_t i = 0; i < 400; ++i) {
    const double a = static_cast<double>(rng.UniformInt(uint64_t{60}));
    const double b = static_cast<double>(rng.UniformInt(uint64_t{12}));
    switch (i % 6) {
      case 0:  // posting: a drives.
        batch.push_back(MakeQuery({{1, b, b + 3}, {0, a, a}}));
        break;
      case 1:  // posting, one predicate.
        batch.push_back(MakeQuery({{0, a, a + 10}}));
        break;
      case 2:  // block: b's slice is past the rule.
        batch.push_back(MakeQuery({{1, 0, 8}, {0, 0, 50}}));
        break;
      case 3:  // block: c is past the budget.
        batch.push_back(MakeQuery({{0, a, a}, {2, 0, 2000}}));
        break;
      case 4:  // block: unsatisfiable.
        batch.push_back(MakeQuery({{0, a, a}, {1, 4, 1}}));
        break;
      default:  // block: no predicates.
        batch.push_back(Query{});
        break;
    }
  }
  const scan::BlockScanner scanner(table);
  std::vector<size_t> counts;
  const uint64_t posting = CountRouted(scanner, batch, &counts);
  EXPECT_GE(posting, 2 * batch.size() / 6);
  EXPECT_LT(posting, batch.size());
  EXPECT_GT(scanner.stats().scanned_blocks, 0u);
  ASSERT_EQ(counts.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(counts[i], ExecuteCountNaive(table, batch[i])) << "query " << i;
}

TEST(ScanPostingTest, FreshScannerAfterAppendsWidenCodes) {
  // Column c holds 200 values (u8 codes); the widened table's rows continue
  // with 150 new ones, so its codes are u16, and a §5.1 update then
  // appends 20%.
  const size_t rows = 6000;
  std::vector<double> c = PermutedDomain(rows, 200);
  std::vector<double> d = PermutedDomain(rows, 30);
  Table base("widen");
  base.AddColumn("c", c, true);
  base.AddColumn("d", d, true);
  ASSERT_FALSE(base.column(0).codes8.empty());
  for (size_t i = 0; i < 1500; ++i)
    c.push_back(static_cast<double>(100 + (i * 13) % 250));
  const std::vector<double> more_d = PermutedDomain(1500, 30);
  d.insert(d.end(), more_d.begin(), more_d.end());
  Table widened("widen");
  widened.AddColumn("c", std::move(c), true);
  widened.AddColumn("d", std::move(d), true);
  ASSERT_EQ(widened.column(0).domain_size(), 350u);
  ASSERT_FALSE(widened.column(0).codes16.empty());
  const Table updated = AppendCorrelatedUpdate(widened, 0.2, 77);
  ASSERT_GT(updated.num_rows(), widened.num_rows());

  const std::vector<Query> queries = RandomQueries(base, 40, 31);
  EXPECT_GT(ExpectEveryPathMatchesNaive(base, queries, 1024), 0u);
  EXPECT_GT(ExpectEveryPathMatchesNaive(widened, queries, 1024), 0u);
  EXPECT_GT(ExpectEveryPathMatchesNaive(updated, queries, 1024), 0u);
}

TEST(ScanPostingTest, QueriesPastSixtyFourPredicates) {
  DatasetSpec spec = CensusSpec();
  spec.rows = 4000;
  const Table table = GenerateDataset(spec, 3);
  for (const Column& column : table.columns())
    ASSERT_TRUE(scan::WithinCodeBudget(column));
  for (size_t preds : {size_t{65}, size_t{130}}) {
    SCOPED_TRACE(testing::Message() << "predicates=" << preds);
    // Half-domain bounds on columns i % 13.
    Query half;
    for (size_t i = 0; i < preds; ++i) {
      const size_t col = i % table.num_cols();
      const std::vector<double>& domain = table.column(col).domain;
      half.predicates.push_back(
          {static_cast<int>(col), domain.front(), domain[domain.size() / 2]});
    }
    // The same with the first predicate an equality on column 0's rarest
    // value, which drives.
    const Column& column0 = table.column(0);
    const size_t rarest = static_cast<size_t>(
        std::min_element(column0.counts.begin(), column0.counts.end()) -
        column0.counts.begin());
    Query selective = half;
    selective.predicates[0] = {0, column0.domain[rarest],
                               column0.domain[rarest]};
    ExpectEveryPathMatchesNaive(table, {half, selective},
                                scan::kDefaultBlockSize);
    const scan::BlockScanner scanner(table);
    std::vector<size_t> counts;
    EXPECT_EQ(CountRouted(scanner, std::vector<Query>(kCopies, selective),
                          &counts),
              kCopies);
  }
}

}  // namespace
}  // namespace arecel
