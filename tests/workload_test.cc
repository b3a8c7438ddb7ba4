#include "workload/generator.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "workload/query.h"

namespace arecel {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetSpec spec = CensusSpec();
    spec.rows = 5000;
    table_ = new Table(GenerateDataset(spec, 11));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static Table* table_;
};

Table* WorkloadTest::table_ = nullptr;

TEST_F(WorkloadTest, PredicateCountWithinBounds) {
  const auto queries = GenerateQueries(*table_, 500, 1);
  for (const Query& q : queries) {
    EXPECT_GE(q.predicates.size(), 1u);
    EXPECT_LE(q.predicates.size(), table_->num_cols());
  }
}

TEST_F(WorkloadTest, PredicateColumnsDistinct) {
  const auto queries = GenerateQueries(*table_, 200, 2);
  for (const Query& q : queries) {
    std::set<int> cols;
    for (const Predicate& p : q.predicates) cols.insert(p.column);
    EXPECT_EQ(cols.size(), q.predicates.size());
  }
}

TEST_F(WorkloadTest, CategoricalColumnsGetEqualityPredicates) {
  const auto queries = GenerateQueries(*table_, 500, 3);
  for (const Query& q : queries) {
    for (const Predicate& p : q.predicates) {
      if (table_->column(static_cast<size_t>(p.column)).categorical)
        EXPECT_TRUE(p.is_equality());
    }
  }
}

TEST_F(WorkloadTest, ContainsOpenAndCloseRanges) {
  const auto queries = GenerateQueries(*table_, 2000, 4);
  int open = 0, close = 0;
  for (const Query& q : queries) {
    for (const Predicate& p : q.predicates) {
      if (p.is_equality()) continue;
      if (std::isinf(p.lo) || std::isinf(p.hi)) {
        ++open;
      } else {
        ++close;
      }
    }
  }
  EXPECT_GT(open, 50);
  EXPECT_GT(close, 50);
}

TEST_F(WorkloadTest, DeterministicForSeed) {
  const auto a = GenerateQueries(*table_, 50, 9);
  const auto b = GenerateQueries(*table_, 50, 9);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].predicates.size(), b[i].predicates.size());
    for (size_t j = 0; j < a[i].predicates.size(); ++j) {
      EXPECT_EQ(a[i].predicates[j].column, b[i].predicates[j].column);
      EXPECT_EQ(a[i].predicates[j].lo, b[i].predicates[j].lo);
      EXPECT_EQ(a[i].predicates[j].hi, b[i].predicates[j].hi);
    }
  }
}

TEST_F(WorkloadTest, DataCenteredQueriesMostlyNonEmpty) {
  // Way-① centers sit on real tuples, so the tuple itself matches unless
  // ranges exclude it; the bulk of the workload must have support.
  WorkloadOptions options;
  options.ood_probability = 0.0;
  const Workload w = GenerateWorkload(*table_, 300, 5, options);
  int non_zero = 0;
  for (double s : w.selectivities) non_zero += s > 0 ? 1 : 0;
  EXPECT_GT(non_zero, 290);
}

TEST_F(WorkloadTest, SelectivityBroadSpectrum) {
  // Figure 3: the generator produces selectivities across many magnitudes.
  const Workload w = GenerateWorkload(*table_, 1000, 6);
  int tiny = 0, small = 0, mid = 0, large = 0;
  for (double s : w.selectivities) {
    if (s < 1e-3) {
      ++tiny;
    } else if (s < 1e-2) {
      ++small;
    } else if (s < 1e-1) {
      ++mid;
    } else {
      ++large;
    }
  }
  EXPECT_GT(tiny, 50);
  EXPECT_GT(small, 30);
  EXPECT_GT(mid, 50);
  EXPECT_GT(large, 50);
}

TEST_F(WorkloadTest, MaxPredicatesOptionRespected) {
  WorkloadOptions options;
  options.max_predicates = 2;
  const auto queries = GenerateQueries(*table_, 200, 7, options);
  for (const Query& q : queries) EXPECT_LE(q.predicates.size(), 2u);
}

TEST(ExecuteCountTest, ManualTable) {
  Table t("t");
  t.AddColumn("a", {1, 2, 3, 4, 5}, false);
  t.AddColumn("b", {1, 1, 0, 0, 1}, true);
  Query q;
  q.predicates.push_back({0, 2, 4});  // a in [2, 4].
  EXPECT_EQ(ExecuteCount(t, q), 3u);
  q.predicates.push_back({1, 1, 1});  // b == 1.
  EXPECT_EQ(ExecuteCount(t, q), 1u);
  EXPECT_DOUBLE_EQ(ExecuteSelectivity(t, q), 0.2);
}

TEST(ExecuteCountTest, UnsatisfiableIsZero) {
  Table t("t");
  t.AddColumn("a", {1, 2, 3}, false);
  Query q;
  q.predicates.push_back({0, 5, 2});  // lo > hi.
  EXPECT_FALSE(q.IsSatisfiable());
  EXPECT_EQ(ExecuteCount(t, q), 0u);
}

TEST(ExecuteCountTest, OpenRanges) {
  Table t("t");
  t.AddColumn("a", {1, 2, 3, 4, 5}, false);
  Query q;
  q.predicates.push_back(
      {0, 3, std::numeric_limits<double>::infinity()});  // a >= 3.
  EXPECT_EQ(ExecuteCount(t, q), 3u);
}

TEST(LabelQueriesTest, MatchesSequentialExecution) {
  Table t("t");
  std::vector<double> vals;
  for (int i = 0; i < 5000; ++i) vals.push_back(i % 97);
  t.AddColumn("a", std::move(vals), false);
  const auto queries = GenerateQueries(t, 64, 8);
  const auto parallel = LabelQueries(t, queries);
  for (size_t i = 0; i < queries.size(); ++i)
    EXPECT_DOUBLE_EQ(parallel[i], ExecuteSelectivity(t, queries[i]));
}

TEST(WorkloadSliceTest, Slices) {
  Workload w;
  for (int i = 0; i < 10; ++i) {
    w.queries.emplace_back();
    w.selectivities.push_back(i * 0.1);
  }
  const Workload s = w.Slice(2, 5);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.selectivities[0], 0.2);
}

}  // namespace
}  // namespace arecel
