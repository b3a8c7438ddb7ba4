// Tests for the additional inference machinery: DQM-D's VEGAS sampler and
// Bayes' progressive-sampling mode.

#include <cmath>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "data/datasets.h"
#include "estimators/learned/binning.h"
#include "estimators/learned/dqm.h"
#include "estimators/traditional/bayes.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace arecel {
namespace {

TEST(ColumnBinningTest, SmallDomainOneBinPerValue) {
  Table t("t");
  t.AddColumn("a", {1, 2, 2, 5}, false);
  const auto binnings = BuildColumnBinnings(t, 16);
  ASSERT_EQ(binnings.size(), 1u);
  EXPECT_EQ(binnings[0].num_bins(), 3);
  EXPECT_EQ(binnings[0].Range(2, 5), (std::pair<int, int>{1, 2}));
  EXPECT_EQ(binnings[0].BinForValue(2.0), 1);
  EXPECT_EQ(binnings[0].BinForValue(100.0), 2);  // clamps to edge bin.
}

TEST(ColumnBinningTest, LargeDomainPacksEqualMass) {
  std::vector<double> vals;
  for (int i = 0; i < 10000; ++i) vals.push_back(i % 1000);
  Table t("t");
  t.AddColumn("a", std::move(vals), false);
  const auto binnings = BuildColumnBinnings(t, 50);
  EXPECT_LE(binnings[0].num_bins(), 50);
  EXPECT_GE(binnings[0].num_bins(), 40);
  // Bins tile the domain without gaps.
  for (int b = 1; b < binnings[0].num_bins(); ++b)
    EXPECT_GT(binnings[0].bin_min[static_cast<size_t>(b)],
              binnings[0].bin_max[static_cast<size_t>(b - 1)]);
}

TEST(ColumnBinningTest, EncodeRowsRoundTrips) {
  const Table t = GenerateSynthetic2D(3000, 0.5, 0.5, 40, 2);
  const auto binnings = BuildColumnBinnings(t, 64);
  std::vector<int32_t> codes;
  EncodeRowsWithBinnings(t, binnings, &codes);
  ASSERT_EQ(codes.size(), t.num_rows() * 2);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < 2; ++c) {
      const int bin = codes[r * 2 + c];
      const double v = t.column(c).values[r];
      EXPECT_GE(v, binnings[c].bin_min[static_cast<size_t>(bin)]);
      EXPECT_LE(v, binnings[c].bin_max[static_cast<size_t>(bin)]);
    }
  }
}

TEST(DqmDTest, AccuracyTracksTheModel) {
  const Table table = GenerateSynthetic2D(30000, 0.5, 1.0, 100, 51);
  DqmDEstimator::Options options;
  options.epochs = 15;
  DqmDEstimator dqm(options);
  dqm.Train(table, {});
  Query q;
  q.predicates.push_back({0, 20, 40});
  q.predicates.push_back({1, 20, 40});
  const double act = ExecuteSelectivity(table, q) *
                     static_cast<double>(table.num_rows());
  const double est = dqm.EstimateCardinality(q, table.num_rows());
  EXPECT_LT(QError(est, act), 3.0);
}

TEST(DqmDTest, EmptyAndFullRanges) {
  const Table table = GenerateSynthetic2D(10000, 0.5, 0.5, 50, 52);
  DqmDEstimator::Options options;
  options.epochs = 3;
  DqmDEstimator dqm(options);
  dqm.Train(table, {});
  Query empty;
  empty.predicates.push_back({0, 30, 10});
  EXPECT_DOUBLE_EQ(dqm.EstimateSelectivity(empty), 0.0);
  Query full;
  full.predicates.push_back({0, table.column(0).min(),
                             table.column(0).max()});
  // VEGAS over the whole box integrates the (normalized) model: near 1.
  EXPECT_NEAR(dqm.EstimateSelectivity(full), 1.0, 0.2);
}

TEST(DqmDTest, MoreStagesReduceVariance) {
  const Table table = GenerateSynthetic2D(20000, 1.0, 0.8, 200, 53);
  Query q;
  q.predicates.push_back({0, 20, 120});
  q.predicates.push_back({1, 40, 90});

  auto spread_for = [&](int stages) {
    DqmDEstimator::Options options;
    options.epochs = 8;
    options.stages = stages;
    options.stage_samples = 32;
    DqmDEstimator dqm(options);
    dqm.Train(table, {});
    std::vector<double> estimates;
    for (int i = 0; i < 30; ++i)
      estimates.push_back(dqm.EstimateSelectivity(q));
    return StdDev(estimates);
  };
  // Adaptive refinement should not blow up the estimator's spread.
  EXPECT_LT(spread_for(4), spread_for(1) * 3.0 + 1e-6);
}

TEST(BayesSampledTest, AgreesWithExactInExpectation) {
  const Table table = GenerateSynthetic2D(20000, 0.8, 0.9, 100, 54);
  BayesEstimator exact;
  exact.Train(table, {});
  BayesEstimator::Options options;
  options.inference = BayesEstimator::Inference::kProgressiveSampling;
  options.sample_count = 400;
  BayesEstimator sampled(options);
  sampled.Train(table, {});

  const Workload probe = GenerateWorkload(table, 40, 55);
  for (size_t i = 0; i < probe.size(); ++i) {
    const double e = exact.EstimateSelectivity(probe.queries[i]);
    double mean = 0.0;
    for (int rep = 0; rep < 5; ++rep)
      mean += sampled.EstimateSelectivity(probe.queries[i]);
    mean /= 5.0;
    EXPECT_NEAR(mean, e, std::max(0.02, e * 0.35)) << i;
  }
}

TEST(BayesSampledTest, StochasticAcrossCalls) {
  const Table table = GenerateSynthetic2D(20000, 0.5, 1.0, 500, 56);
  BayesEstimator::Options options;
  options.inference = BayesEstimator::Inference::kProgressiveSampling;
  options.sample_count = 16;  // few samples -> visible noise.
  BayesEstimator sampled(options);
  sampled.Train(table, {});
  Query q;
  q.predicates.push_back({0, 100, 400});
  q.predicates.push_back({1, 180, 220});
  bool varied = false;
  const double first = sampled.EstimateSelectivity(q);
  for (int i = 0; i < 20 && !varied; ++i)
    varied = sampled.EstimateSelectivity(q) != first;
  EXPECT_TRUE(varied);
}

}  // namespace
}  // namespace arecel
