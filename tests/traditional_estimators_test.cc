// Behavioural tests of the eight traditional estimators beyond the generic
// smoke test: each one's characteristic assumptions and failure modes.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "data/datasets.h"
#include "estimators/traditional/bayes.h"
#include "estimators/traditional/dbms.h"
#include "estimators/traditional/kde.h"
#include "estimators/traditional/mhist.h"
#include "estimators/traditional/quicksel.h"
#include "estimators/traditional/sampling.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace arecel {
namespace {

Table IndependentTable(size_t rows) {
  return GenerateSynthetic2D(rows, 0.5, 0.0, 100, 11);
}

Table DependentTable(size_t rows) {
  return GenerateSynthetic2D(rows, 0.5, 1.0, 100, 11);
}

Query TwoColumnRange(double lo0, double hi0, double lo1, double hi1) {
  Query q;
  q.predicates.push_back({0, lo0, hi0});
  q.predicates.push_back({1, lo1, hi1});
  return q;
}

TEST(PostgresEstimatorTest, SingleColumnRangeAccurate) {
  const Table t = IndependentTable(20000);
  auto postgres = MakePostgresEstimator();
  postgres->Train(t, {});
  Query q;
  q.predicates.push_back({0, 10, 30});
  const double est = postgres->EstimateSelectivity(q);
  const double act = ExecuteSelectivity(t, q);
  EXPECT_LT(QError(est * 20000, act * 20000), 1.3);
}

TEST(PostgresEstimatorTest, AviFailsOnFunctionalDependency) {
  // P(A in R and B in R') under independence underestimates heavily when
  // B == A and the ranges coincide.
  const Table t = DependentTable(20000);
  auto postgres = MakePostgresEstimator();
  postgres->Train(t, {});
  const Query q = TwoColumnRange(10, 20, 10, 20);
  const double est = postgres->EstimateSelectivity(q);
  const double act = ExecuteSelectivity(t, q);
  EXPECT_LT(est, act / 3.0);  // clear underestimate.
}

TEST(DbmsAEstimatorTest, ExponentialBackoffBeatsAviOnDependence) {
  const Table t = DependentTable(20000);
  auto postgres = MakePostgresEstimator();
  auto dbms_a = MakeDbmsAEstimator();
  postgres->Train(t, {});
  dbms_a->Train(t, {});
  const Query q = TwoColumnRange(10, 40, 10, 40);
  const double act = ExecuteSelectivity(t, q);
  const double avi_err = QError(postgres->EstimateSelectivity(q) * 20000,
                                act * 20000);
  const double ebo_err = QError(dbms_a->EstimateSelectivity(q) * 20000,
                                act * 20000);
  EXPECT_LT(ebo_err, avi_err);
}

TEST(SamplingEstimatorTest, UnbiasedOnLargeRanges) {
  const Table t = IndependentTable(50000);
  SamplingEstimator sampling;
  TrainContext ctx;
  ctx.size_budget_fraction = 0.05;
  sampling.Train(t, ctx);
  const Query q = TwoColumnRange(0, 50, 0, 80);
  EXPECT_NEAR(sampling.EstimateSelectivity(q), ExecuteSelectivity(t, q),
              0.03);
}

TEST(SamplingEstimatorTest, MissesRareValues) {
  // A predicate matching ~5 rows of 50K is usually absent from a 1.5%
  // sample -> estimate 0.
  Table t("t");
  std::vector<double> vals(50000, 1.0);
  for (int i = 0; i < 5; ++i) vals[static_cast<size_t>(i) * 1000 + 7] = 99.0;
  t.AddColumn("a", std::move(vals), true);
  SamplingEstimator sampling;
  sampling.Train(t, {});
  Query q;
  q.predicates.push_back({0, 99.0, 99.0});
  EXPECT_LT(sampling.EstimateSelectivity(q), 2e-3);
}

TEST(MhistEstimatorTest, BuildsMultipleBuckets) {
  const Table t = DependentTable(20000);
  MhistEstimator mhist;
  mhist.Train(t, {});
  EXPECT_GT(mhist.num_buckets(), 10u);
  EXPECT_GT(mhist.SizeBytes(), 0u);
}

TEST(MhistEstimatorTest, ReasonableOnJointRange) {
  // A joint bucket directory keeps a dependent conjunction within a modest
  // factor (per-bucket independence bounds the error by bucket resolution).
  const Table t = DependentTable(30000);
  MhistEstimator mhist;
  mhist.Train(t, {});
  const Query q = TwoColumnRange(5, 15, 5, 15);
  const double act = ExecuteSelectivity(t, q);
  ASSERT_GT(act, 0.0);
  EXPECT_LT(QError(mhist.EstimateSelectivity(q) * 30000, act * 30000), 20.0);
}

TEST(QuickSelEstimatorTest, FitsTrainingFeedback) {
  const Table t = DependentTable(20000);
  const Workload train = GenerateWorkload(t, 600, 21);
  QuickSelEstimator quicksel;
  TrainContext ctx;
  ctx.training_workload = &train;
  quicksel.Train(t, ctx);
  // In-sample residuals should be small on average.
  double total_abs = 0.0;
  for (size_t i = 0; i < 200; ++i) {
    total_abs += std::fabs(quicksel.EstimateSelectivity(train.queries[i]) -
                           train.selectivities[i]);
  }
  EXPECT_LT(total_abs / 200.0, 0.05);
}

TEST(BayesEstimatorTest, TreeStructureIsValid) {
  DatasetSpec spec = CensusSpec();
  spec.rows = 5000;
  const Table t = GenerateDataset(spec, 9);
  BayesEstimator bayes;
  bayes.Train(t, {});
  const std::vector<int>& parents = bayes.parents();
  ASSERT_EQ(parents.size(), t.num_cols());
  int roots = 0;
  for (int p : parents) roots += p < 0 ? 1 : 0;
  EXPECT_EQ(roots, 1);  // exactly one root; Chow-Liu is a tree.
}

TEST(BayesEstimatorTest, CapturesPairwiseDependence) {
  const Table t = DependentTable(30000);
  BayesEstimator bayes;
  bayes.Train(t, {});
  const Query q = TwoColumnRange(10, 20, 10, 20);
  const double act = ExecuteSelectivity(t, q);
  EXPECT_LT(QError(bayes.EstimateSelectivity(q) * 30000, act * 30000), 2.0);
}

TEST(BayesEstimatorTest, FullDomainIsOne) {
  const Table t = DependentTable(10000);
  BayesEstimator bayes;
  bayes.Train(t, {});
  const Query q = TwoColumnRange(t.column(0).min(), t.column(0).max(),
                                 t.column(1).min(), t.column(1).max());
  EXPECT_NEAR(bayes.EstimateSelectivity(q), 1.0, 1e-6);
}

TEST(KdeFbEstimatorTest, EqualityOnDiscreteValuesNonZero) {
  const Table t = IndependentTable(20000);
  KdeFbEstimator kde;
  TrainContext ctx;
  kde.Train(t, ctx);
  Query q;
  q.predicates.push_back({0, 10.0, 10.0});
  const double act = ExecuteSelectivity(t, q);
  ASSERT_GT(act, 0.0);
  EXPECT_GT(kde.EstimateSelectivity(q), act / 10.0);
}

TEST(KdeFbEstimatorTest, FeedbackImprovesAccuracy) {
  const Table t = DependentTable(30000);
  const Workload train = GenerateWorkload(t, 400, 23);
  const Workload test = GenerateWorkload(t, 200, 24);

  KdeFbEstimator::Options no_feedback_options;
  no_feedback_options.feedback_iterations = 0;
  KdeFbEstimator plain(no_feedback_options);
  TrainContext ctx;
  ctx.training_workload = &train;
  plain.Train(t, ctx);

  KdeFbEstimator tuned;
  tuned.Train(t, ctx);

  const double plain_p95 =
      Percentile(EvaluateQErrors(plain, test, t.num_rows()), 95);
  const double tuned_p95 =
      Percentile(EvaluateQErrors(tuned, test, t.num_rows()), 95);
  EXPECT_LE(tuned_p95, plain_p95 * 1.2);  // never much worse...
  EXPECT_LT(tuned_p95, 60.0);             // ...and decent in absolute terms.
}

TEST(TraditionalUpdateTest, DefaultUpdateRetrains) {
  const Table base = IndependentTable(10000);
  auto postgres = MakePostgresEstimator();
  postgres->Train(base, {});
  const Table updated = AppendCorrelatedUpdate(base, 0.5, 31);
  UpdateContext ctx;
  ctx.old_row_count = base.num_rows();
  postgres->Update(updated, ctx);
  // After retraining, a single-column range over the updated data is
  // accurate again.
  Query q;
  q.predicates.push_back({0, 0, 20});
  EXPECT_NEAR(postgres->EstimateSelectivity(q),
              ExecuteSelectivity(updated, q), 0.05);
}

}  // namespace
}  // namespace arecel
