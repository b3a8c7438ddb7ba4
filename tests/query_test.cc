#include "workload/query.h"

#include <gtest/gtest.h>

namespace arecel {
namespace {

Table OneColumnTable() {
  Table t("tbl");
  t.AddColumn("a", {1, 2, 3}, false);
  return t;
}

TEST(PredicateTest, EqualityAndMatch) {
  Predicate p{0, 5, 5};
  EXPECT_TRUE(p.is_equality());
  EXPECT_TRUE(p.Matches(5));
  EXPECT_FALSE(p.Matches(4.999));
}

TEST(PredicateTest, RangeMatchInclusive) {
  Predicate p{0, 1, 3};
  EXPECT_TRUE(p.Matches(1));
  EXPECT_TRUE(p.Matches(3));
  EXPECT_FALSE(p.Matches(3.0001));
}

TEST(QueryTest, SatisfiableChecks) {
  Query q;
  q.predicates.push_back({0, 1, 3});
  EXPECT_TRUE(q.IsSatisfiable());
  q.predicates.push_back({0, 3, 1});
  EXPECT_FALSE(q.IsSatisfiable());
}

TEST(QueryTest, ToStringEquality) {
  const Table t = OneColumnTable();
  Query q;
  q.predicates.push_back({0, 2, 2});
  EXPECT_EQ(q.ToString(t), "SELECT COUNT(*) FROM tbl WHERE a = 2");
}

TEST(QueryTest, ToStringOpenRanges) {
  const Table t = OneColumnTable();
  const double inf = std::numeric_limits<double>::infinity();
  Query le;
  le.predicates.push_back({0, -inf, 2});
  EXPECT_NE(le.ToString(t).find("a <= 2"), std::string::npos);
  Query ge;
  ge.predicates.push_back({0, 2, inf});
  EXPECT_NE(ge.ToString(t).find("a >= 2"), std::string::npos);
}

TEST(QueryTest, ToStringCloseRange) {
  const Table t = OneColumnTable();
  Query q;
  q.predicates.push_back({0, 1, 2});
  EXPECT_NE(q.ToString(t).find("1 <= a <= 2"), std::string::npos);
}

// A join query tags each predicate with its table's index; a query that
// names no tables is bound to one table, index 0.
TEST(QueryTest, TableIndicesNameTheQueryTables) {
  Query single;
  single.predicates = {{0, 1, 3}, {2, 4, 4}};
  EXPECT_TRUE(single.IsSingleTable());
  EXPECT_EQ(single.num_tables(), 1u);
  EXPECT_TRUE(single.HasValidTableIndices());
  single.predicates[1].table = 1;
  EXPECT_FALSE(single.HasValidTableIndices());

  Query star;
  star.tables = {"fact", "dim0"};
  star.joins.push_back({"fact", 0, "dim0", 0});
  star.predicates = {{1, 1, 3, 0}, {1, 10, 20, 1}, {2, 5, 5, 0}};
  EXPECT_FALSE(star.IsSingleTable());
  EXPECT_EQ(star.num_tables(), 2u);
  EXPECT_TRUE(star.HasValidTableIndices());
  EXPECT_EQ(star.TableIndex("dim0"), 1);
  EXPECT_EQ(star.TableIndex("dim1"), -1);
  const std::vector<Predicate> fact = star.TablePredicates(0);
  ASSERT_EQ(fact.size(), 2u);
  EXPECT_EQ(fact[0].column, 1);
  EXPECT_EQ(fact[1].column, 2);
  EXPECT_EQ(star.ToString(),
            "SELECT COUNT(*) FROM fact, dim0 WHERE fact.c0 = dim0.c0 AND "
            "1 <= fact.c1 <= 3 AND 10 <= dim0.c1 <= 20 AND fact.c2 = 5");
  star.predicates[0].table = -1;
  EXPECT_FALSE(star.HasValidTableIndices());
}

}  // namespace
}  // namespace arecel
