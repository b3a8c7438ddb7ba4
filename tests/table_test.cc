#include "data/table.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

namespace arecel {
namespace {

std::vector<double> Values(const Column& col) {
  std::vector<double> out(col.values.size());
  for (size_t r = 0; r < out.size(); ++r) out[r] = col.values[r];
  return out;
}

Table MakeSmallTable() {
  Table t("t");
  t.AddColumn("a", {3, 1, 2, 3, 1}, false);
  t.AddColumn("b", {0, 1, 0, 1, 0}, true);
  return t;
}

TEST(TableTest, BasicShape) {
  const Table t = MakeSmallTable();
  EXPECT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(t.num_cols(), 2u);
  EXPECT_EQ(t.name(), "t");
}

TEST(TableTest, DomainSortedDistinct) {
  const Table t = MakeSmallTable();
  const Column& a = t.column(0);
  ASSERT_EQ(a.domain.size(), 3u);
  EXPECT_DOUBLE_EQ(a.domain[0], 1.0);
  EXPECT_DOUBLE_EQ(a.domain[1], 2.0);
  EXPECT_DOUBLE_EQ(a.domain[2], 3.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(TableTest, CodesMatchDomainIndices) {
  const Table t = MakeSmallTable();
  const Column& a = t.column(0);
  for (size_t r = 0; r < t.num_rows(); ++r)
    EXPECT_DOUBLE_EQ(a.domain[a.code(r)], a.values[r]);
}

TEST(TableTest, BoundCodes) {
  const Table t = MakeSmallTable();
  const Column& a = t.column(0);
  EXPECT_EQ(a.LowerBoundCode(1.5), 1);
  EXPECT_EQ(a.LowerBoundCode(2.0), 1);
  EXPECT_EQ(a.UpperBoundCode(2.5), 1);
  EXPECT_EQ(a.UpperBoundCode(0.5), -1);
  EXPECT_EQ(a.LowerBoundCode(5.0), 3);  // == domain size.
}

TEST(TableTest, HeadCopiesPrefix) {
  const Table t = MakeSmallTable();
  const Table h = t.Head(3);
  EXPECT_EQ(h.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(h.column(0).values[2], 2.0);
}

TEST(TableTest, SampleRowsWithoutReplacement) {
  const Table t = MakeSmallTable();
  const Table s = t.SampleRows(5, 1);
  EXPECT_EQ(s.num_rows(), 5u);
  // All original values present exactly once (full sample).
  std::vector<double> vals = Values(s.column(0));
  std::sort(vals.begin(), vals.end());
  EXPECT_EQ(vals, (std::vector<double>{1, 1, 2, 3, 3}));
}

TEST(TableTest, AppendSortedRowsReadsRanksOffCodeCounts) {
  // Column a sorted is {1, 1, 2, 3, 3}; column b sorted is {0, 0, 0, 1, 1}.
  const Table t = MakeSmallTable().WithSortedRows({4, 0, 2});
  EXPECT_EQ(t.num_rows(), 8u);
  EXPECT_EQ(Values(t.column(0)),
            (std::vector<double>{3, 1, 2, 3, 1, 3, 1, 2}));
  EXPECT_EQ(Values(t.column(1)),
            (std::vector<double>{0, 1, 0, 1, 0, 1, 0, 0}));
  EXPECT_EQ(t.column(0).counts, (std::vector<uint32_t>{3, 2, 3}));
  EXPECT_EQ(t.column(0).code(5), 2u);
}

TEST(TableTest, NaNRowsCarryTheSentinelCode) {
  const double nan = std::nan("");
  Table t("nan");
  t.AddColumn("a", {nan, 2.0, -0.0, nan}, false);
  const Column& a = t.column(0);
  ASSERT_EQ(a.domain, (std::vector<double>{0.0, 2.0}));
  EXPECT_FALSE(std::signbit(a.domain[0]));
  EXPECT_EQ(a.nan_code(), 2u);
  EXPECT_EQ(a.code(0), a.nan_code());
  EXPECT_EQ(a.code(2), 0u);
  EXPECT_EQ(a.counts, (std::vector<uint32_t>{1, 1}));
  // NaN sorts last in the sorted-columns copy.
  t = t.WithSortedRows({3, 0});
  EXPECT_TRUE(std::isnan(t.column(0).values[4]));
  EXPECT_EQ(t.column(0).code(4), t.column(0).nan_code());
  EXPECT_EQ(t.column(0).values[5], 0.0);
}

TEST(TableTest, Log10JointDomain) {
  const Table t = MakeSmallTable();
  EXPECT_NEAR(t.Log10JointDomain(), std::log10(3.0) + std::log10(2.0), 1e-12);
}

TEST(TableTest, DataSizeBytes) {
  const Table t = MakeSmallTable();
  EXPECT_EQ(t.DataSizeBytes(), 5u * 2u * sizeof(double));
}

}  // namespace
}  // namespace arecel
