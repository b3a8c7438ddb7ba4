#include "data/datasets.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "util/stats.h"

namespace arecel {
namespace {

// A column's values as one vector, for the stats helpers.
std::vector<double> Values(const Column& col) {
  std::vector<double> out(col.values.size());
  for (size_t r = 0; r < out.size(); ++r) out[r] = col.values[r];
  return out;
}

TEST(DatasetSpecTest, ShapesMatchPaper) {
  const DatasetSpec census = CensusSpec();
  EXPECT_EQ(census.num_cols, 13);
  EXPECT_EQ(census.num_categorical, 8);
  const DatasetSpec forest = ForestSpec();
  EXPECT_EQ(forest.num_cols, 10);
  EXPECT_EQ(forest.num_categorical, 0);
  const DatasetSpec power = PowerSpec();
  EXPECT_EQ(power.num_cols, 7);
  const DatasetSpec dmv = DmvSpec();
  EXPECT_EQ(dmv.num_cols, 11);
  EXPECT_EQ(dmv.num_categorical, 10);
}

TEST(GenerateDatasetTest, RowAndColumnCounts) {
  DatasetSpec spec = CensusSpec();
  spec.rows = 3000;
  const Table t = GenerateDataset(spec, 1);
  EXPECT_EQ(t.num_rows(), 3000u);
  EXPECT_EQ(t.num_cols(), 13u);
}

TEST(GenerateDatasetTest, DomainSizesBounded) {
  DatasetSpec spec = PowerSpec();
  spec.rows = 50000;
  const Table t = GenerateDataset(spec, 2);
  for (int j = 0; j < spec.num_cols; ++j) {
    EXPECT_LE(t.column(static_cast<size_t>(j)).domain.size(),
              static_cast<size_t>(spec.domain_sizes[static_cast<size_t>(j)]));
    EXPECT_GE(t.column(static_cast<size_t>(j)).domain.size(), 2u);
  }
}

TEST(GenerateDatasetTest, DeterministicForSeed) {
  DatasetSpec spec = CensusSpec();
  spec.rows = 1000;
  const Table a = GenerateDataset(spec, 7);
  const Table b = GenerateDataset(spec, 7);
  for (size_t c = 0; c < a.num_cols(); ++c)
    EXPECT_EQ(a.column(c).values, b.column(c).values);
}

TEST(GenerateDatasetTest, CorrelatedColumnsHaveRankCorrelation) {
  DatasetSpec spec = ForestSpec();
  spec.rows = 20000;
  const Table t = GenerateDataset(spec, 3);
  // Columns 0 and 1 both copy the latent with prob 0.95/0.9; column
  // direction alternates, so the dependence is strongly *negative*.
  const double rho =
      SpearmanCorrelation(Values(t.column(0)), Values(t.column(1)));
  EXPECT_GT(std::fabs(rho), 0.5);
}

TEST(GenerateDatasetTest, SkewedColumnsAreSkewed) {
  DatasetSpec spec = CensusSpec();
  spec.rows = 20000;
  const Table t = GenerateDataset(spec, 4);
  // Column 9 has skew 1.5: its most frequent value should hold a large
  // share of the rows.
  const Column& col = t.column(9);
  std::map<double, int> counts;
  for (double v : Values(col)) ++counts[v];
  int max_count = 0;
  for (const auto& [v, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, static_cast<int>(t.num_rows() / 10));
}

TEST(Synthetic2DTest, ShapeAndDomains) {
  const Table t = GenerateSynthetic2D(5000, 1.0, 0.5, 100, 1);
  EXPECT_EQ(t.num_rows(), 5000u);
  EXPECT_EQ(t.num_cols(), 2u);
  EXPECT_LE(t.column(0).domain.size(), 100u);
  EXPECT_LE(t.column(1).domain.size(), 100u);
}

TEST(Synthetic2DTest, FullCorrelationIsFunctionalDependency) {
  const Table t = GenerateSynthetic2D(5000, 0.5, 1.0, 50, 2);
  for (size_t r = 0; r < t.num_rows(); ++r)
    ASSERT_DOUBLE_EQ(t.column(0).values[r], t.column(1).values[r]);
}

TEST(Synthetic2DTest, ZeroCorrelationIsIndependent) {
  const Table t = GenerateSynthetic2D(20000, 0.0, 0.0, 50, 3);
  const double rho =
      PearsonCorrelation(Values(t.column(0)), Values(t.column(1)));
  EXPECT_LT(std::fabs(rho), 0.05);
}

TEST(Synthetic2DTest, SkewControlsConcentration) {
  const Table uniform = GenerateSynthetic2D(20000, 0.0, 0.0, 100, 4);
  const Table skewed = GenerateSynthetic2D(20000, 2.0, 0.0, 100, 4);
  EXPECT_GT(Mean(Values(uniform.column(0))), 40.0);
  EXPECT_LT(Mean(Values(skewed.column(0))), 15.0);
}

TEST(AppendCorrelatedUpdateTest, AddsRequestedFraction) {
  DatasetSpec spec = CensusSpec();
  spec.rows = 5000;
  const Table base = GenerateDataset(spec, 5);
  const Table updated = AppendCorrelatedUpdate(base, 0.2, 6);
  EXPECT_EQ(updated.num_rows(), 6000u);
  // Prefix is unchanged.
  for (size_t c = 0; c < base.num_cols(); ++c)
    for (size_t r = 0; r < 100; ++r)
      ASSERT_DOUBLE_EQ(updated.column(c).values[r], base.column(c).values[r]);
}

TEST(AppendCorrelatedUpdateTest, AppendedRowsShiftCorrelation) {
  DatasetSpec spec = CensusSpec();
  spec.rows = 10000;
  const Table base = GenerateDataset(spec, 7);
  const Table updated = AppendCorrelatedUpdate(base, 0.5, 8);
  // The appended block alone has much higher pairwise rank correlation
  // between two weakly correlated columns than the base data.
  const std::vector<double> a = Values(updated.column(1));
  const std::vector<double> b = Values(updated.column(7));
  const std::vector<double> appended_a(a.begin() + 10000, a.end());
  const std::vector<double> appended_b(b.begin() + 10000, b.end());
  const double base_rho =
      SpearmanCorrelation(Values(base.column(1)), Values(base.column(7)));
  const double appended_rho = SpearmanCorrelation(appended_a, appended_b);
  EXPECT_GT(std::fabs(appended_rho), std::fabs(base_rho) + 0.2);
}

TEST(BenchmarkDatasetsTest, ScalesRows) {
  const std::vector<Table> tables = BenchmarkDatasets(0.1, 1);
  ASSERT_EQ(tables.size(), 4u);
  EXPECT_EQ(tables[0].num_rows(), 4900u);
}

}  // namespace
}  // namespace arecel
