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

}  // namespace
}  // namespace arecel
