// Tests for the core harness: q-error, evaluation, dynamic-environment
// simulation, hyper-parameter tuning, device model and registry.

#include <cmath>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "core/device.h"
#include "core/dynamic.h"
#include "core/estimator.h"
#include "core/evaluator.h"
#include "core/registry.h"
#include "core/tuning.h"
#include "data/datasets.h"
#include "estimators/traditional/dbms.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace arecel {
namespace {

TEST(QErrorTest, Symmetric) {
  EXPECT_DOUBLE_EQ(QError(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(QError(10, 100), 10.0);
}

TEST(QErrorTest, PerfectIsOne) { EXPECT_DOUBLE_EQ(QError(42, 42), 1.0); }

TEST(QErrorTest, ClampsBelowOneTuple) {
  EXPECT_DOUBLE_EQ(QError(0.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(QError(10.0, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(QError(0.0, 0.0), 1.0);
}

TEST(QErrorTest, NegativeEstimatesClampLikeZero) {
  // A (buggy) negative estimate is treated as "less than one tuple", the
  // same defined behavior zero gets — not an abort, not a negative q-error.
  EXPECT_DOUBLE_EQ(QError(-5.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(QError(10.0, -5.0), 10.0);
  EXPECT_DOUBLE_EQ(QError(-1.0, -2.0), 1.0);
}

TEST(QErrorTest, NonFiniteInputsReturnSentinel) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // NaN must not clamp to 1.0 and masquerade as a perfect estimate.
  EXPECT_EQ(QError(nan, 10.0), kInvalidQError);
  EXPECT_EQ(QError(10.0, nan), kInvalidQError);
  EXPECT_EQ(QError(inf, 10.0), kInvalidQError);
  EXPECT_EQ(QError(-inf, 10.0), kInvalidQError);
  EXPECT_EQ(QError(10.0, inf), kInvalidQError);
  EXPECT_TRUE(std::isinf(kInvalidQError));
  // The sentinel orders after every valid q-error, so quantile summaries
  // containing it surface at the max.
  EXPECT_GT(kInvalidQError, QError(1.0, 1e18));
}

TEST(RegistryTest, AllNamesConstruct) {
  const std::vector<std::string> names = AllEstimatorNames();
  EXPECT_EQ(names.size(), 13u);
  for (const std::string& name : names) {
    auto estimator = MakeEstimator(name);
    ASSERT_NE(estimator, nullptr);
    EXPECT_EQ(estimator->Name(), name);
  }
}

TEST(RegistryTest, GroupSizesMatchPaper) {
  EXPECT_EQ(TraditionalEstimatorNames().size(), 8u);
  EXPECT_EQ(LearnedEstimatorNames().size(), 5u);
}

TEST(RegistryTest, AllRegistryNamesCoversPaperAndExtended) {
  const std::vector<std::string> names = AllRegistryNames();
  EXPECT_EQ(names.size(), AllEstimatorNames().size() +
                              ExtendedEstimatorNames().size() +
                              JoinEstimatorNames().size());
  for (const std::string& name : names) {
    auto estimator = MakeEstimator(name);
    ASSERT_NE(estimator, nullptr);
    EXPECT_EQ(estimator->Name(), name);
  }
}

TEST(RegistryTest, QueryDrivenFlags) {
  for (const char* name : {"mscn", "lw-xgb", "lw-nn", "quicksel", "kde-fb"})
    EXPECT_TRUE(MakeEstimator(name)->IsQueryDriven()) << name;
  for (const char* name : {"naru", "deepdb", "postgres", "sampling", "bayes"})
    EXPECT_FALSE(MakeEstimator(name)->IsQueryDriven()) << name;
}

TEST(DeviceTest, CpuIsUnity) {
  for (const std::string& name : AllEstimatorNames()) {
    EXPECT_DOUBLE_EQ(SimulatedSpeedup(name, Device::kCpu, true), 1.0);
    EXPECT_DOUBLE_EQ(SimulatedSpeedup(name, Device::kCpu, false), 1.0);
  }
}

TEST(DeviceTest, GpuHelpsNnMethodsOnly) {
  EXPECT_GT(SimulatedSpeedup("naru", Device::kGpu, true), 1.0);
  EXPECT_GT(SimulatedSpeedup("lw-nn", Device::kGpu, true), 1.0);
  EXPECT_LT(SimulatedSpeedup("mscn", Device::kGpu, true), 1.0);  // slower!
  EXPECT_DOUBLE_EQ(SimulatedSpeedup("lw-xgb", Device::kGpu, true), 1.0);
  EXPECT_DOUBLE_EQ(SimulatedSpeedup("postgres", Device::kGpu, false), 1.0);
}

TEST(EvaluatorDegenerateTest, EmptyTestSetYieldsZeroSummary) {
  const Table table = GenerateSynthetic2D(2000, 0.5, 0.5, 50, 1);
  const Workload train = GenerateWorkload(table, 100, 2);
  Workload empty;
  auto estimator = MakePostgresEstimator();
  const EstimatorReport report =
      EvaluateOnDataset(*estimator, table, train, empty);
  EXPECT_TRUE(report.raw_qerrors.empty());
  EXPECT_DOUBLE_EQ(report.qerror.p50, 0.0);
  EXPECT_DOUBLE_EQ(report.qerror.p95, 0.0);
  EXPECT_DOUBLE_EQ(report.qerror.p99, 0.0);
  EXPECT_DOUBLE_EQ(report.qerror.max, 0.0);
  EXPECT_DOUBLE_EQ(report.avg_inference_ms, 0.0);
}

TEST(EvaluatorDegenerateTest, SingleQueryCollapsesQuantiles) {
  const Table table = GenerateSynthetic2D(2000, 0.5, 0.5, 50, 1);
  const Workload train = GenerateWorkload(table, 100, 2);
  const Workload single = GenerateWorkload(table, 1, 3);
  auto estimator = MakePostgresEstimator();
  const EstimatorReport report =
      EvaluateOnDataset(*estimator, table, train, single);
  ASSERT_EQ(report.raw_qerrors.size(), 1u);
  // Every quantile of a one-element sample is that element.
  EXPECT_DOUBLE_EQ(report.qerror.p50, report.raw_qerrors[0]);
  EXPECT_DOUBLE_EQ(report.qerror.p95, report.raw_qerrors[0]);
  EXPECT_DOUBLE_EQ(report.qerror.p99, report.raw_qerrors[0]);
  EXPECT_DOUBLE_EQ(report.qerror.max, report.raw_qerrors[0]);
}

TEST(EvaluatorDegenerateTest, IdenticalQErrorsCollapseQuantiles) {
  const std::vector<double> identical(37, 4.25);
  const QuantileSummary summary = Summarize(identical);
  EXPECT_DOUBLE_EQ(summary.p50, 4.25);
  EXPECT_DOUBLE_EQ(summary.p95, 4.25);
  EXPECT_DOUBLE_EQ(summary.p99, 4.25);
  EXPECT_DOUBLE_EQ(summary.max, 4.25);
}

TEST(EvaluatorDegenerateTest, SummaryHookMatchesEvaluateOnDataset) {
  const Table table = GenerateSynthetic2D(2000, 0.5, 0.5, 50, 1);
  const Workload train = GenerateWorkload(table, 100, 2);
  const Workload test = GenerateWorkload(table, 40, 3);
  auto estimator = MakePostgresEstimator();
  const EstimatorReport report =
      EvaluateOnDataset(*estimator, table, train, test);
  const QuantileSummary hook =
      EvaluateQErrorSummary(*estimator, test, table.num_rows());
  EXPECT_DOUBLE_EQ(hook.p50, report.qerror.p50);
  EXPECT_DOUBLE_EQ(hook.max, report.qerror.max);
}

TEST(EvaluatorTest, ReportFieldsPopulated) {
  const Table table = GenerateSynthetic2D(5000, 0.5, 0.5, 50, 1);
  const Workload train = GenerateWorkload(table, 200, 2);
  const Workload test = GenerateWorkload(table, 100, 3);
  auto estimator = MakePostgresEstimator();
  const EstimatorReport report =
      EvaluateOnDataset(*estimator, table, train, test);
  EXPECT_EQ(report.estimator, "postgres");
  EXPECT_EQ(report.raw_qerrors.size(), 100u);
  EXPECT_GE(report.qerror.max, report.qerror.p99);
  EXPECT_GE(report.qerror.p99, report.qerror.p50);
  EXPECT_GT(report.train_seconds, 0.0);
  EXPECT_GT(report.model_size_bytes, 0u);
}

TEST(DynamicTest, ProfileAndMixture) {
  const Table base = GenerateSynthetic2D(20000, 0.5, 0.8, 100, 4);
  const Table updated = AppendCorrelatedUpdate(base, 0.3, 5);
  const Workload test = GenerateWorkload(updated, 200, 6);
  auto estimator = MakePostgresEstimator();
  estimator->Train(base, {});

  DynamicOptions options;
  const DynamicProfile profile = ProfileDynamicUpdate(
      *estimator, updated, base.num_rows(), test, options);
  EXPECT_EQ(profile.stale_errors.size(), test.size());
  EXPECT_EQ(profile.updated_errors.size(), test.size());
  EXPECT_GT(profile.update_seconds, 0.0);

  // Large T: mixture converges to the updated model.
  const double updated_p99 = Percentile(profile.updated_errors, 99);
  EXPECT_NEAR(DynamicP99(profile, 1e9), updated_p99, 1e-9);
  // Tiny T: update misses the window; everything stale.
  const double stale_p99 = Percentile(profile.stale_errors, 99);
  EXPECT_DOUBLE_EQ(DynamicP99(profile, profile.update_seconds * 0.5),
                   stale_p99);
  EXPECT_FALSE(FinishedInTime(profile, profile.update_seconds * 0.5));
}

TEST(DynamicTest, StaleModelWorseThanUpdated) {
  // After the correlation-shifting append, refreshed statistics must beat
  // stale ones on the updated workload.
  const Table base = GenerateSynthetic2D(30000, 1.0, 0.2, 100, 10);
  const Table updated = AppendCorrelatedUpdate(base, 0.2, 11);
  const Workload test = GenerateWorkload(updated, 300, 12);
  auto estimator = MakePostgresEstimator();
  estimator->Train(base, {});
  DynamicOptions options;
  const DynamicProfile profile = ProfileDynamicUpdate(
      *estimator, updated, base.num_rows(), test, options);
  EXPECT_LE(Percentile(profile.updated_errors, 99),
            Percentile(profile.stale_errors, 99) * 1.05);
}

TEST(TuningTest, FindsBestAndWorst) {
  const Table table = GenerateSynthetic2D(10000, 0.5, 0.9, 100, 13);
  const Workload train = GenerateWorkload(table, 400, 14);
  const Workload validation = GenerateWorkload(table, 150, 15);
  // Candidates with known quality ordering: full stats vs absurdly coarse.
  std::vector<TuningCandidate> candidates;
  candidates.push_back({"fine", [] {
                          ColumnStats::Options options;
                          options.num_buckets = 200;
                          options.num_mcvs = 200;
                          return std::make_unique<PerColumnStatsEstimator>(
                              "fine", options,
                              PerColumnStatsEstimator::Combination::
                                  kIndependence);
                        }});
  candidates.push_back({"coarse", [] {
                          ColumnStats::Options options;
                          options.num_buckets = 1;
                          options.num_mcvs = 0;
                          return std::make_unique<PerColumnStatsEstimator>(
                              "coarse", options,
                              PerColumnStatsEstimator::Combination::
                                  kIndependence);
                        }});
  const TuningResult result =
      RunTuning(candidates, table, train, validation);
  EXPECT_EQ(result.outcomes.size(), 2u);
  EXPECT_EQ(result.best().label, "fine");
  EXPECT_GE(result.WorstBestRatio(), 1.0);
}

}  // namespace
}  // namespace arecel
