// Differential tests for the engine's code paths over the table's codes:
// one-predicate counts read from the code-count prefix, and the code
// kernels. Every count must be bit-identical to the naive reference
// executor, including the awkward corners — NaN rows (which no predicate
// matches), -0.0/+0.0 code collapse, block sizes that do not divide the row
// count, columns with exactly kMaxDictCodes and one more distinct values,
// and scanners over a column whose rows continue with brand-new dictionary
// values (with a u8 -> u16 code width upgrade) or past the code budget.
// The differential cases keep their ScanSynopsisTest suite name so their
// test ids stay stable.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "data/table.h"
#include "scan/block_scan.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/query.h"

namespace arecel {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// A categorical-heavy table: `cats` low-cardinality Zipf columns plus one
// continuous column, the dominant shape of the paper's Census/DMV-style
// workloads.
Table CategoricalZipfTable(size_t rows, size_t cats, size_t cardinality,
                           uint64_t seed) {
  Rng rng(seed);
  Table t("catzipf");
  for (size_t c = 0; c < cats; ++c) {
    std::vector<double> vals(rows);
    for (double& v : vals)
      v = static_cast<double>(rng.Zipf(cardinality, 1.1));
    t.AddColumn("cat" + std::to_string(c), std::move(vals), true);
  }
  std::vector<double> cont(rows);
  for (double& v : cont) v = rng.Gaussian() * 100.0;
  t.AddColumn("cont", std::move(cont), false);
  return t;
}

// `base` followed by `appended`: the rows of a column that grew by them.
std::vector<double> Concat(std::vector<double> base,
                           const std::vector<double>& appended) {
  base.insert(base.end(), appended.begin(), appended.end());
  return base;
}

// Mixed equality + range queries over every column.
std::vector<Query> MixedQueries(const Table& table, size_t count,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> queries(count);
  for (Query& q : queries) {
    const size_t preds = 1 + rng.UniformInt(uint64_t{2});
    for (size_t i = 0; i < preds; ++i) {
      const int col =
          static_cast<int>(rng.UniformInt(uint64_t{table.num_cols()}));
      const Column& column = table.column(static_cast<size_t>(col));
      const double a =
          column.domain[rng.UniformInt(uint64_t{column.domain.size()})];
      if (rng.Bernoulli(0.6)) {
        q.predicates.push_back({col, a, a});  // equality.
      } else {
        const double b =
            column.domain[rng.UniformInt(uint64_t{column.domain.size()})];
        q.predicates.push_back({col, std::min(a, b), std::max(a, b)});
      }
    }
  }
  return queries;
}

// The scanner (single and batch) and ExecuteCount agree with the naive
// executor on every query.
void ExpectBitIdentical(const Table& table, const std::vector<Query>& queries,
                        size_t block_size) {
  const scan::BlockScanner scanner(table, block_size);
  const std::vector<size_t> batch = scanner.CountBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const size_t naive = ExecuteCountNaive(table, queries[i]);
    EXPECT_EQ(scanner.Count(queries[i]), naive) << "query " << i;
    EXPECT_EQ(batch[i], naive) << "query " << i;
    EXPECT_EQ(ExecuteCount(table, queries[i]), naive) << "query " << i;
  }
}

TEST(ScanSynopsisTest, CategoricalEqualityGridDifferential) {
  for (uint64_t seed : {3u, 17u}) {
    const Table table = CategoricalZipfTable(3000, 3, 20, seed);
    const std::vector<Query> queries = MixedQueries(table, 120, seed + 1);
    // Block sizes that do not divide 3000, plus one bigger than the table.
    for (size_t block_size : {7u, 97u, 8192u}) {
      SCOPED_TRACE(testing::Message()
                   << "seed=" << seed << " block_size=" << block_size);
      ExpectBitIdentical(table, queries, block_size);
    }
  }
}

TEST(ScanSynopsisTest, NaNRowsNeverMatchAnyPredicate) {
  // NaN placed first in a block, and a fully-NaN block region at the tail.
  Table table("nan_tbl");
  table.AddColumn("a", {kNaN, 1, 2, kNaN, 3, 4, 5, 6, kNaN, kNaN}, false);
  table.AddColumn("b", {5, 5, kNaN, 1, 1, 2, 2, 9, 9, 9}, true);
  std::vector<Query> queries(5);
  queries[0].predicates.push_back({0, -kInf, kInf});  // all non-NaN rows.
  queries[1].predicates.push_back({0, 1, 3});
  queries[2].predicates.push_back({0, kNaN, kNaN});  // unsatisfiable.
  queries[3].predicates.push_back({1, 5, 5});
  queries[4].predicates.push_back({0, -kInf, kInf});
  queries[4].predicates.push_back({1, -kInf, kInf});
  EXPECT_EQ(ExecuteCountNaive(table, queries[0]), 6u);
  for (size_t block_size : {3u, 4u, 16u}) {
    SCOPED_TRACE(testing::Message() << "block_size=" << block_size);
    ExpectBitIdentical(table, queries, block_size);
  }
}

TEST(ScanSynopsisTest, NegativeZeroCollapsesWithPositiveZero) {
  Table table("zeros");
  table.AddColumn("a", {-0.0, 0.0, -0.0, 1.0, -1.0, 0.0}, false);
  const scan::BlockScanner scanner(table, 2);
  // -0.0 == +0.0, so the dictionary holds one zero entry.
  ASSERT_TRUE(scan::WithinCodeBudget(table.column(0)));
  EXPECT_EQ(table.column(0).domain_size(), 3u);
  std::vector<Query> queries(3);
  queries[0].predicates.push_back({0, 0.0, 0.0});
  queries[1].predicates.push_back({0, -0.0, 0.0});
  queries[2].predicates.push_back({0, -0.0, -0.0});
  for (const Query& q : queries) {
    EXPECT_EQ(scanner.Count(q), 4u);
    EXPECT_EQ(scanner.Count(q), ExecuteCountNaive(table, q));
  }
}

TEST(ScanSynopsisTest, CodeBudgetBoundary) {
  // Column 0 holds exactly kMaxDictCodes distinct values, column 1 one
  // more: the first runs the code kernels and the posting path, the second
  // the double kernels. Values are permuted so that every block sees most
  // of the domain.
  const size_t rows = 3 * scan::kMaxDictCodes;
  std::vector<double> at_budget(rows);
  std::vector<double> past_budget(rows);
  for (size_t i = 0; i < rows; ++i) {
    at_budget[i] = 0.5 * static_cast<double>((i * 7919) % 4096);
    past_budget[i] = 0.5 * static_cast<double>((i * 7919) % 4097);
  }
  Table table("budget");
  table.AddColumn("at", std::move(at_budget), true);
  table.AddColumn("past", std::move(past_budget), true);
  ASSERT_EQ(table.column(0).domain_size(), scan::kMaxDictCodes);
  ASSERT_EQ(table.column(1).domain_size(), scan::kMaxDictCodes + 1);
  EXPECT_TRUE(scan::WithinCodeBudget(table.column(0)));
  EXPECT_FALSE(scan::WithinCodeBudget(table.column(1)));
  const std::vector<Query> queries = MixedQueries(table, 200, 45);
  for (size_t block_size : {size_t{1000}, scan::kDefaultBlockSize}) {
    SCOPED_TRACE(testing::Message() << "block_size=" << block_size);
    ExpectBitIdentical(table, queries, block_size);
  }
}

TEST(ScanSynopsisTest, AppendIntroducingNewDictionaryValues) {
  // Base table's categorical columns draw from [0, 10); the rows after
  // them draw from [5, 15) — roughly half of those values are new to the
  // base's dictionary, so the grown column's codes differ from the base's.
  // A scanner over the grown column counts exactly.
  Rng rng(41);
  std::vector<double> vals(900);
  for (double& v : vals) v = static_cast<double>(rng.UniformInt(uint64_t{10}));
  Table base("grow");
  base.AddColumn("c", vals, true);
  ASSERT_EQ(base.column(0).domain_size(), 10u);

  std::vector<double> more(300);
  for (double& v : more)
    v = static_cast<double>(5 + rng.UniformInt(uint64_t{10}));
  Table table("grow");
  table.AddColumn("c", Concat(std::move(vals), more), true);

  ASSERT_TRUE(scan::WithinCodeBudget(table.column(0)));
  EXPECT_EQ(table.column(0).domain_size(), 15u);
  std::vector<Query> queries(15);
  for (int v = 0; v < 15; ++v) {
    const double value = static_cast<double>(v);
    queries[static_cast<size_t>(v)].predicates.push_back({0, value, value});
  }
  ExpectBitIdentical(base, queries, 64);   // 900 % 64 != 0.
  ExpectBitIdentical(table, queries, 64);  // 1200 % 64 != 0.
}

TEST(ScanSynopsisTest, AppendUpgradesCodeWidthFromU8ToU16) {
  // 200 distinct values fit u8 codes; the same rows followed by values up
  // to 400 distinct cross the 255-code boundary and take u16 codes. A
  // scanner over the wider column runs the u16 kernels.
  std::vector<double> vals(400);
  for (size_t i = 0; i < vals.size(); ++i)
    vals[i] = static_cast<double>(i % 200);
  Table base("widen");
  base.AddColumn("c", vals, true);
  EXPECT_FALSE(base.column(0).codes8.empty());
  EXPECT_TRUE(base.column(0).codes16.empty());

  std::vector<double> more(400);
  for (size_t i = 0; i < more.size(); ++i)
    more[i] = static_cast<double>(i % 400);
  Table table("widen");
  table.AddColumn("c", Concat(std::move(vals), more), true);

  ASSERT_TRUE(scan::WithinCodeBudget(table.column(0)));
  EXPECT_EQ(table.column(0).domain_size(), 400u);
  EXPECT_TRUE(table.column(0).codes8.empty());
  EXPECT_FALSE(table.column(0).codes16.empty());
  Rng rng(43);
  std::vector<Query> queries(50);
  for (Query& q : queries) {
    const double v = static_cast<double>(rng.UniformInt(uint64_t{400}));
    q.predicates.push_back({0, v, v});
  }
  ExpectBitIdentical(table, queries, 32);
}

TEST(ScanSynopsisTest, DictDemotionWhenAppendCrossesBudget) {
  // The base column holds exactly kMaxDictCodes distinct values and runs on
  // its codes; the same rows followed by new values pass the budget, so a
  // scanner over the grown column falls back to the double kernels without
  // ever miscounting.
  const size_t budget = scan::kMaxDictCodes;
  std::vector<double> vals(2 * budget);
  for (size_t i = 0; i < vals.size(); ++i)
    vals[i] = static_cast<double>(i % budget);
  Table base("demote");
  base.AddColumn("c", vals, true);
  ASSERT_TRUE(scan::WithinCodeBudget(base.column(0)));

  std::vector<double> more(500);
  for (size_t i = 0; i < more.size(); ++i)
    more[i] = static_cast<double>(budget - 20 + i % 40);
  Table table("demote");
  table.AddColumn("c", Concat(std::move(vals), more), true);
  ASSERT_EQ(table.column(0).domain_size(), budget + 20);

  EXPECT_FALSE(scan::WithinCodeBudget(table.column(0)));
  ExpectBitIdentical(table, MixedQueries(table, 60, 44), 48);
}

TEST(ScanCodesTest, OnePredicateCountsComeFromTheCodePrefix) {
  // Column 0 holds 200 values (u8 codes), column 1 1000 halves (u16 codes);
  // both carry NaN rows. A lone predicate on either is answered from the
  // column's code-count prefix: exact, and no block is scanned.
  const size_t rows = 3 * 4096 + 77;
  std::vector<double> narrow(rows);
  std::vector<double> wide(rows);
  for (size_t i = 0; i < rows; ++i) {
    narrow[i] = i % 11 == 0 ? kNaN : static_cast<double>((i * 7919) % 200);
    wide[i] =
        i % 17 == 0 ? kNaN : 0.5 * static_cast<double>((i * 104729) % 1000);
  }
  Table table("prefix");
  table.AddColumn("narrow", std::move(narrow), true);
  table.AddColumn("wide", std::move(wide), true);
  ASSERT_EQ(table.column(0).domain_size(), 200u);
  ASSERT_FALSE(table.column(0).codes8.empty());
  ASSERT_EQ(table.column(1).domain_size(), 1000u);
  ASSERT_FALSE(table.column(1).codes16.empty());

  const scan::BlockScanner scanner(table, 1000);
  const double num_rows = static_cast<double>(rows);
  uint64_t answered = 0;
  for (int col : {0, 1}) {
    SCOPED_TRACE(testing::Message() << "column=" << col);
    const std::vector<double>& domain =
        table.column(static_cast<size_t>(col)).domain;
    // Every code's equality: the count, and the selectivity as an exact
    // fraction of the rows.
    for (double v : domain) {
      Query q;
      q.predicates.push_back({col, v, v});
      const size_t naive = ExecuteCountNaive(table, q);
      EXPECT_EQ(scanner.Count(q), naive) << "value " << v;
      EXPECT_DOUBLE_EQ(scanner.Selectivity(q),
                       static_cast<double>(naive) / num_rows);
      answered += 2;
    }
    const double mid = domain[domain.size() / 2];
    std::vector<Query> ranges(5);
    ranges[0].predicates.push_back({col, -kInf, kInf});  // non-NaN rows.
    ranges[1].predicates.push_back({col, -kInf, mid});
    ranges[2].predicates.push_back({col, mid, kInf});
    ranges[3].predicates.push_back(
        {col, domain[1], domain[domain.size() - 2]});
    ranges[4].predicates.push_back({col, 0.1, 0.2});  // empty code range.
    EXPECT_LT(ExecuteCountNaive(table, ranges[0]), rows);
    EXPECT_EQ(ExecuteCountNaive(table, ranges[4]), 0u);
    for (const Query& q : ranges) {
      const size_t naive = ExecuteCountNaive(table, q);
      EXPECT_EQ(scanner.Count(q), naive) << q.ToString();
      EXPECT_EQ(ExecuteCount(table, q), naive) << q.ToString();
    }
    answered += 4;  // the empty range is unsatisfiable, not a prefix count.
  }
  const scan::ScanStats stats = scanner.stats();
  EXPECT_EQ(stats.scanned_blocks, 0u);
  EXPECT_EQ(stats.posting_queries, answered);
}

}  // namespace
}  // namespace arecel
