// Watchdog deadline coverage (labelled slow): these tests must genuinely
// wait out deadlines and grace periods, so they live apart from the fast
// robustness suite. Deadlines are kept to fractions of a second — long
// enough to be unambiguous under load, short enough not to drag the tier.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "data/datasets.h"
#include "robustness/failure.h"
#include "robustness/fault_injector.h"
#include "robustness/guard.h"
#include "robustness/runner.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace arecel {
namespace {

using robust::FaultSpec;
using robust::ParseFaultPlan;
using robust::RunGuarded;
using robust::WrapWithFaults;

struct SharedData {
  Table table = GenerateSynthetic2D(3000, 0.8, 0.5, 50, 23);
  Workload train = GenerateWorkload(table, 200, 24);
  Workload test = GenerateWorkload(table, 40, 25);
};

const SharedData& Shared() {
  static const SharedData* data = new SharedData();
  return *data;
}

TEST(GuardTimeoutTest, CooperativeWorkIsCancelledAndReportedAsTimeout) {
  CancellationToken cancel;
  std::atomic<bool>* flag_seen = new std::atomic<bool>(false);
  auto keep_alive = std::shared_ptr<std::atomic<bool>>(flag_seen);
  const auto result = RunGuarded(
      [&cancel, keep_alive] {
        // Cooperative hang: poll the token in small slices.
        while (!cancel.cancelled())
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        keep_alive->store(true);
        throw CancelledError("saw cancellation");
      },
      /*deadline_seconds=*/0.2,
      {FailureKind::kTrainTimeout, FailureKind::kTrainThrew,
       FailureKind::kTrainCancelled},
      &cancel, keep_alive, /*cancel_grace_seconds=*/1.0);
  // The worker noticed the cancel within the grace window; the stage is
  // still a deadline failure, reported through the cancel kind.
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.kind, FailureKind::kTrainCancelled);
  EXPECT_TRUE(keep_alive->load());
  EXPECT_GE(result.elapsed_seconds, 0.19);
}

TEST(GuardTimeoutTest, UncooperativeWorkIsAbandonedAsTimeout) {
  auto gate = std::make_shared<std::atomic<bool>>(false);
  const auto result = RunGuarded(
      [gate] {
        // Ignores cancellation; only the test's own gate releases it, after
        // the guard has already abandoned the worker.
        while (!gate->load())
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
      },
      /*deadline_seconds=*/0.2,
      {FailureKind::kTrainTimeout, FailureKind::kTrainThrew,
       FailureKind::kTrainCancelled},
      nullptr, gate, /*cancel_grace_seconds=*/0.1);
  EXPECT_EQ(result.kind, FailureKind::kTrainTimeout);
  // The abandoned worker is tracked until it actually finishes: callers use
  // this count to decide whether process teardown is safe.
  EXPECT_GE(robust::AbandonedWorkerCount(), 1);
  // The hung task keeps its pool worker; a full-width ParallelFor still
  // finishes on the caller and the remaining workers.
  std::vector<std::atomic<int>> hits(
      static_cast<size_t>(ParallelWorkerCount()));
  ParallelFor(0, hits.size(), [&hits](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  gate->store(true);  // release the abandoned worker before test exit.
  for (int i = 0; i < 100 && robust::AbandonedWorkerCount() > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(robust::AbandonedWorkerCount(), 0);
}

TEST(RobustTimeoutTest, HangingTrainTimesOutThenFallsBack) {
  std::vector<FaultSpec> plan;
  std::string error;
  // The injected hang polls the TrainContext cancellation token, so the
  // watchdog's cancel releases it; cap is a safety net only.
  ASSERT_TRUE(
      ParseFaultPlan("mhist:train:hang:cap=5", &plan, &error));
  robust::RobustOptions options;
  options.train_deadline_seconds = 0.3;
  options.estimate_deadline_seconds = 10.0;
  options.max_train_attempts = 1;
  const auto report = robust::EvaluateOnDatasetRobust(
      "mhist",
      [&plan] { return WrapWithFaults(MakeEstimator("mhist"), plan); },
      Shared().table, Shared().train, Shared().test, options);
  ASSERT_FALSE(report.failures.empty());
  // The released hang raises CancelledError, so the deadline surfaces as
  // either timeout (grace expired) or cancellation (worker exited in time);
  // both are deadline failures.
  EXPECT_TRUE(report.failures[0].kind == FailureKind::kTrainTimeout ||
              report.failures[0].kind == FailureKind::kTrainCancelled)
      << FailureKindName(report.failures[0].kind);
  EXPECT_EQ(report.served_by, "guarded(postgres)");
}

TEST(RobustTimeoutTest, HangingEstimateStageTimesOutThenFallsBack) {
  std::vector<FaultSpec> plan;
  std::string error;
  // Estimate hangs cannot poll a train context; the cap releases them.
  ASSERT_TRUE(ParseFaultPlan("mhist:estimate:hang:cap=2", &plan, &error));
  robust::RobustOptions options;
  options.train_deadline_seconds = 10.0;
  options.estimate_deadline_seconds = 0.3;
  options.max_train_attempts = 1;
  const auto report = robust::EvaluateOnDatasetRobust(
      "mhist",
      [&plan] { return WrapWithFaults(MakeEstimator("mhist"), plan); },
      Shared().table, Shared().train, Shared().test, options);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_EQ(report.failures[0].kind, FailureKind::kEstimateTimeout);
  EXPECT_EQ(report.failures[0].stage, "estimate");
  EXPECT_EQ(report.served_by, "guarded(postgres)");
  // Give the abandoned worker's capped hang time to unwind before exit.
  std::this_thread::sleep_for(std::chrono::seconds(3));
}

TEST(RobustTimeoutTest, CooperativeTrainerExitsEarlyOnCancellation) {
  // naru polls context.cancellation between epochs: with a tiny deadline
  // its training stops early instead of running to completion.
  robust::RobustOptions options;
  options.train_deadline_seconds = 0.05;
  options.estimate_deadline_seconds = 10.0;
  options.max_train_attempts = 1;
  options.fallback.clear();
  const auto report = robust::EvaluateOnDatasetRobust(
      "naru", [] { return MakeEstimator("naru"); }, Shared().table,
      Shared().train, Shared().test, options);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_TRUE(report.failures[0].kind == FailureKind::kTrainCancelled ||
              report.failures[0].kind == FailureKind::kTrainTimeout)
      << FailureKindName(report.failures[0].kind);
  EXPECT_TRUE(report.served_by.empty());
}

}  // namespace
}  // namespace arecel
