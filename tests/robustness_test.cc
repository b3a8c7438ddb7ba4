// Fast (tier1) coverage of the fault-tolerant harness: fault-plan parsing,
// the FaultInjector substrate, guarded execution's exception mapping,
// seed-bump retry + fallback in the robust runner, boundary clamping of
// invalid estimates, and the resumable sweep journal. The watchdog *timeout*
// paths (which must actually wait out deadlines) live in
// robustness_timeout_test.cc, labelled slow.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/registry.h"
#include "data/datasets.h"
#include "robustness/failure.h"
#include "robustness/fault_injector.h"
#include "robustness/guard.h"
#include "robustness/journal.h"
#include "robustness/runner.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace arecel {
namespace {

using robust::FaultAction;
using robust::FaultInjector;
using robust::FaultSpec;
using robust::FaultStage;
using robust::JournalRecord;
using robust::ParseFaultPlan;
using robust::RunGuarded;
using robust::SweepJournal;
using robust::WrapWithFaults;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

struct SharedData {
  Table table = GenerateSynthetic2D(4000, 0.8, 0.5, 60, 17);
  Workload train = GenerateWorkload(table, 300, 18);
  Workload test = GenerateWorkload(table, 60, 19);
};

const SharedData& Shared() {
  static const SharedData* data = new SharedData();
  return *data;
}

// A trivially fast, deterministic base model for injection tests.
std::unique_ptr<CardinalityEstimator> FastBase() {
  return MakeEstimator("postgres");
}

// ---------------------------------------------------------------------------
// Fault plan parsing.

TEST(FaultPlanTest, ParsesMultiSpecPlans) {
  std::vector<FaultSpec> plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(
      "naru:train:hang;mscn:estimate:nan,lw-nn:train:throw:times=2:after=1",
      &plan, &error))
      << error;
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].estimator, "naru");
  EXPECT_EQ(plan[0].stage, FaultStage::kTrain);
  EXPECT_EQ(plan[0].action, FaultAction::kHang);
  EXPECT_EQ(plan[1].estimator, "mscn");
  EXPECT_EQ(plan[1].stage, FaultStage::kEstimate);
  EXPECT_EQ(plan[1].action, FaultAction::kNan);
  EXPECT_EQ(plan[2].times, 2);
  EXPECT_EQ(plan[2].after_calls, 1);
  EXPECT_EQ(plan[0].times, -1);  // estimator specs fire forever by default.

  // One plan may mix estimator specs and model-store tokens: the estimator
  // injector takes only its own specs (the store's are its business, see
  // tests/store_test.cc), so a name-less store spec never wraps postgres.
  ASSERT_TRUE(ParseFaultPlan(
      "naru:train:throw;store-torn-write:after=1:times=2,store-bitflip",
      &plan, &error))
      << error;
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].stage, FaultStage::kTrain);
  EXPECT_EQ(plan[1].stage, FaultStage::kStoreWrite);
  EXPECT_EQ(plan[2].stage, FaultStage::kStoreCommit);
  auto postgres = WrapWithFaults(FastBase(), plan);
  EXPECT_EQ(dynamic_cast<FaultInjector*>(postgres.get()), nullptr);
  auto naru = WrapWithFaults(MakeEstimator("naru"), plan);
  auto* injector = dynamic_cast<FaultInjector*>(naru.get());
  ASSERT_NE(injector, nullptr);
  TrainContext context;
  for (int call = 0; call < 3; ++call)  // fires before training starts.
    EXPECT_THROW(naru->Train(Shared().table, context), std::runtime_error);
  EXPECT_EQ(injector->train_calls(), 3);
}

TEST(FaultPlanTest, EmptyPlanAndMalformedSpecs) {
  std::vector<FaultSpec> plan;
  std::string error;
  EXPECT_TRUE(ParseFaultPlan("", &plan, &error));
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(ParseFaultPlan("naru:train", &plan, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseFaultPlan("naru:nowhere:throw", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("naru:train:explode", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("store-enospc:bogus", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("store-enospc:depth=3", &plan, &error));
  EXPECT_FALSE(ParseFaultPlan("store-nonsense", &plan, &error));
  EXPECT_NE(error.find("store-nonsense"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// FaultInjector substrate.

TEST(FaultInjectorTest, TransparentWithoutMatchingSpec) {
  std::vector<FaultSpec> plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("naru:train:throw", &plan, &error));
  auto wrapped = WrapWithFaults(FastBase(), plan);
  // postgres has no matching spec: WrapWithFaults returns the base as-is.
  EXPECT_EQ(wrapped->Name(), "postgres");
  TrainContext context;
  EXPECT_NO_THROW(wrapped->Train(Shared().table, context));
}

TEST(FaultInjectorTest, KeepsBaseNameAndInjectsNan) {
  std::vector<FaultSpec> plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("postgres:estimate:nan", &plan, &error));
  auto wrapped = WrapWithFaults(FastBase(), plan);
  EXPECT_EQ(wrapped->Name(), "postgres");  // transparent identity.
  TrainContext context;
  wrapped->Train(Shared().table, context);
  const double sel =
      wrapped->EstimateSelectivity(Shared().test.queries[0]);
  EXPECT_TRUE(std::isnan(sel));
}

TEST(FaultInjectorTest, TimesBudgetExpires) {
  std::vector<FaultSpec> plan;
  std::string error;
  ASSERT_TRUE(
      ParseFaultPlan("postgres:estimate:negative:times=2", &plan, &error));
  auto wrapped = WrapWithFaults(FastBase(), plan);
  TrainContext context;
  wrapped->Train(Shared().table, context);
  const Query& q = Shared().test.queries[0];
  EXPECT_LT(wrapped->EstimateSelectivity(q), 0.0);
  EXPECT_LT(wrapped->EstimateSelectivity(q), 0.0);
  // Budget exhausted: the base model answers normally again.
  const double sel = wrapped->EstimateSelectivity(q);
  EXPECT_GE(sel, 0.0);
  EXPECT_LE(sel, 1.0);
}

TEST(FaultInjectorTest, TrainThrowAndCancelAreDistinct) {
  std::vector<FaultSpec> plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("postgres:train:throw", &plan, &error));
  auto throwing = WrapWithFaults(FastBase(), plan);
  TrainContext context;
  EXPECT_THROW(throwing->Train(Shared().table, context), std::runtime_error);

  ASSERT_TRUE(ParseFaultPlan("postgres:train:cancel", &plan, &error));
  auto cancelling = WrapWithFaults(FastBase(), plan);
  EXPECT_THROW(cancelling->Train(Shared().table, context), CancelledError);
}

// ---------------------------------------------------------------------------
// Guarded execution (non-timeout paths; timeouts are in the slow suite).

TEST(GuardTest, SuccessInlineAndOnWorker) {
  int ran = 0;
  // deadline <= 0: inline, no hand-off.
  auto inline_result = RunGuarded([&] { ++ran; }, 0.0, {});
  EXPECT_TRUE(inline_result.ok());
  // positive deadline: pool worker path.
  auto worker_result = RunGuarded([&] { ++ran; }, 30.0, {});
  EXPECT_TRUE(worker_result.ok());
  EXPECT_EQ(ran, 2);
}

// The guard hands each call to an idle pool worker, so a long run of
// guarded calls reuses the pool instead of starting (and detaching) one
// thread per call.
TEST(GuardTest, BackToBackGuardedCallsReuseWorkers) {
  auto thread_count = [] {
    size_t count = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++count;
    }
    return count;
  };
  size_t peak = 0;
  for (int call = 0; call < 20000; ++call) {
    ASSERT_TRUE(RunGuarded([] {}, 1.0, {}).ok());
    if (call % 500 == 0) peak = std::max(peak, thread_count());
  }
  peak = std::max(peak, thread_count());
  // The caller, the persistent workers, and at most a few started while
  // a finished worker was still on its way back to idle.
  EXPECT_LE(peak, static_cast<size_t>(ParallelWorkerCount()) + 4);
}

TEST(GuardTest, MapsExceptionsToConfiguredKinds) {
  const robust::GuardKinds kinds = {FailureKind::kCellTimeout,
                                    FailureKind::kTrainThrew,
                                    FailureKind::kTrainCancelled};
  auto threw = RunGuarded([] { throw std::runtime_error("boom"); }, 30.0,
                          kinds);
  EXPECT_EQ(threw.kind, FailureKind::kTrainThrew);
  EXPECT_NE(threw.detail.find("boom"), std::string::npos);

  auto cancelled = RunGuarded([] { throw CancelledError("stop"); }, 30.0,
                              kinds);
  EXPECT_EQ(cancelled.kind, FailureKind::kTrainCancelled);
}

// ---------------------------------------------------------------------------
// Robust evaluation: retry and fallback.

robust::RobustOptions FastOptions() {
  robust::RobustOptions options;
  options.train_deadline_seconds = 0.0;     // inline; no watchdog needed.
  options.estimate_deadline_seconds = 0.0;  // these tests cover logic, not
  options.max_train_attempts = 2;           // deadlines.
  return options;
}

TEST(RobustRunnerTest, RetryAfterOneThrowSucceeds) {
  std::vector<FaultSpec> plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("postgres:train:throw:times=1", &plan, &error));
  // One injector shared across attempts so the times budget spans retries.
  auto injector = std::make_shared<FaultInjector>(FastBase(), plan);
  const auto report = robust::EvaluateOnDatasetRobust(
      "postgres",
      [injector] {
        struct Ref : CardinalityEstimator {
          std::shared_ptr<FaultInjector> inner;
          explicit Ref(std::shared_ptr<FaultInjector> i)
              : inner(std::move(i)) {}
          std::string Name() const override { return inner->Name(); }
          void Train(const Table& t, const TrainContext& c) override {
            inner->Train(t, c);
          }
          double EstimateSelectivity(const Query& q) const override {
            return inner->EstimateSelectivity(q);
          }
          size_t SizeBytes() const override { return inner->SizeBytes(); }
        };
        return std::unique_ptr<CardinalityEstimator>(
            std::make_unique<Ref>(injector));
      },
      Shared().table, Shared().train, Shared().test, FastOptions());
  // Attempt 0 threw and was recorded; attempt 1 served the cell.
  EXPECT_EQ(report.served_by, "postgres");
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kTrainThrew);
  EXPECT_EQ(report.failures[0].attempt, 0);
  EXPECT_FALSE(report.ok());  // a failure happened, even though numbers came.
  EXPECT_GT(report.qerror.p50, 0.0);
}

TEST(RobustRunnerTest, ExhaustedRetriesFallBackToGuardedTraditional) {
  std::vector<FaultSpec> plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("mhist:train:throw", &plan, &error));
  const auto report = robust::EvaluateOnDatasetRobust(
      "mhist",
      [&plan] { return WrapWithFaults(MakeEstimator("mhist"), plan); },
      Shared().table, Shared().train, Shared().test, FastOptions());
  EXPECT_EQ(report.served_by, "guarded(postgres)");
  ASSERT_GE(report.failures.size(), 2u);  // both attempts recorded.
  EXPECT_EQ(report.failures[0].kind, FailureKind::kTrainThrew);
  EXPECT_EQ(report.failures[1].kind, FailureKind::kTrainThrew);
  EXPECT_TRUE(std::isfinite(report.qerror.p50));  // fallback produced numbers.
}

TEST(RobustRunnerTest, NoFallbackLeavesSentinelQuantiles) {
  std::vector<FaultSpec> plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("mhist:train:throw", &plan, &error));
  robust::RobustOptions options = FastOptions();
  options.fallback.clear();
  const auto report = robust::EvaluateOnDatasetRobust(
      "mhist",
      [&plan] { return WrapWithFaults(MakeEstimator("mhist"), plan); },
      Shared().table, Shared().train, Shared().test, options);
  EXPECT_TRUE(report.served_by.empty());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.qerror.p50, kInvalidQError);
  EXPECT_EQ(report.qerror.max, kInvalidQError);
}

TEST(RobustRunnerTest, NanEstimatesAreCountedNotPropagated) {
  std::vector<FaultSpec> plan;
  std::string error;
  // First three probes return NaN, the rest answer normally.
  ASSERT_TRUE(ParseFaultPlan("postgres:estimate:nan:times=3", &plan, &error));
  const auto report = robust::EvaluateOnDatasetRobust(
      "postgres",
      [&plan] { return WrapWithFaults(FastBase(), plan); },
      Shared().table, Shared().train, Shared().test, FastOptions());
  EXPECT_EQ(report.served_by, "postgres");
  EXPECT_EQ(report.invalid_estimates, 3u);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kNonFiniteEstimate);
  // The three invalid probes carry the sentinel, not a silent clamp.
  size_t sentinels = 0;
  for (double q : report.raw_qerrors) sentinels += (q == kInvalidQError);
  EXPECT_EQ(sentinels, 3u);
}

// ---------------------------------------------------------------------------
// Boundary clamping in the shared q-error scan.

TEST(ScanQErrorsTest, InvalidSelectivitiesScoreSentinel) {
  struct BadEstimator : CardinalityEstimator {
    std::string Name() const override { return "bad"; }
    void Train(const Table&, const TrainContext&) override {}
    size_t SizeBytes() const override { return 0; }
    double EstimateSelectivity(const Query&) const override {
      // Cycle: NaN, -0.25, +inf, then a valid value.
      const int i = calls_++ % 4;
      if (i == 0) return std::nan("");
      if (i == 1) return -0.25;
      if (i == 2) return std::numeric_limits<double>::infinity();
      return 0.5;
    }
    mutable int calls_ = 0;
  };
  BadEstimator bad;
  const QErrorScan scan =
      ScanQErrors(bad, Shared().test, Shared().table.num_rows());
  ASSERT_EQ(scan.qerrors.size(), Shared().test.size());
  // 3 of every 4 probes are invalid.
  EXPECT_EQ(scan.invalid_estimates, Shared().test.size() * 3 / 4);
  EXPECT_EQ(scan.qerrors[0], kInvalidQError);
  EXPECT_EQ(scan.qerrors[1], kInvalidQError);
  EXPECT_EQ(scan.qerrors[2], kInvalidQError);
  EXPECT_TRUE(std::isfinite(scan.qerrors[3]));
}

// ---------------------------------------------------------------------------
// Resumable sweep journal.

TEST(JournalTest, FingerprintIsDeterministicAndSensitive) {
  const std::string a = robust::FingerprintConfig({"bench", "1.0", "100"});
  const std::string b = robust::FingerprintConfig({"bench", "1.0", "100"});
  const std::string c = robust::FingerprintConfig({"bench", "1.0", "200"});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Part boundaries matter: {"ab","c"} != {"a","bc"}.
  EXPECT_NE(robust::FingerprintConfig({"ab", "c"}),
            robust::FingerprintConfig({"a", "bc"}));
}

TEST(JournalTest, RoundTripResumesCompletedCells) {
  const std::string path = TempPath("journal_roundtrip.jsonl");
  std::remove(path.c_str());
  const std::string fp = robust::FingerprintConfig({"test-bench", "42"});
  {
    SweepJournal journal(path, fp);
    EXPECT_TRUE(journal.enabled());
    EXPECT_EQ(journal.resumed_cells(), 0u);
    JournalRecord record;
    record.estimator = "naru";
    record.cell = "census";
    record.metrics = {{"p50", 1.5}, {"p95", 9.0}};
    EXPECT_TRUE(journal.Append(record));
    record.estimator = "mscn";
    record.metrics = {{"p50", 2.5}, {"p95", 20.0}};
    EXPECT_TRUE(journal.Append(record));
  }
  SweepJournal reopened(path, fp);
  EXPECT_EQ(reopened.resumed_cells(), 2u);
  const JournalRecord* hit = reopened.Find("naru", "census");
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->Metric("p50"), 1.5);
  EXPECT_DOUBLE_EQ(hit->Metric("p95"), 9.0);
  EXPECT_DOUBLE_EQ(hit->Metric("missing", -1.0), -1.0);
  EXPECT_EQ(reopened.Find("naru", "dmv"), nullptr);
  reopened.RemoveFile();
  SweepJournal after_remove(path, fp);
  EXPECT_EQ(after_remove.resumed_cells(), 0u);
}

TEST(JournalTest, FingerprintMismatchDiscardsStaleJournal) {
  const std::string path = TempPath("journal_mismatch.jsonl");
  std::remove(path.c_str());
  {
    SweepJournal journal(path, robust::FingerprintConfig({"scale=1.0"}));
    JournalRecord record;
    record.estimator = "naru";
    record.cell = "census";
    record.metrics = {{"p50", 1.5}};
    ASSERT_TRUE(journal.Append(record));
  }
  // The configuration changed: old cells are not comparable.
  SweepJournal reopened(path, robust::FingerprintConfig({"scale=0.5"}));
  EXPECT_EQ(reopened.resumed_cells(), 0u);
  EXPECT_EQ(reopened.Find("naru", "census"), nullptr);
  reopened.RemoveFile();
}

TEST(JournalTest, DisabledJournalIsInert) {
  SweepJournal journal("", "whatever");
  EXPECT_FALSE(journal.enabled());
  JournalRecord record;
  record.estimator = "x";
  record.cell = "y";
  EXPECT_TRUE(journal.Append(record));  // no-op success.
  EXPECT_EQ(journal.Find("x", "y"), nullptr);
}

TEST(JournalTest, InfClampsButNanIsRefused) {
  const std::string path = TempPath("journal_nonfinite.jsonl");
  std::remove(path.c_str());
  const std::string fp = robust::FingerprintConfig({"nf"});
  {
    SweepJournal journal(path, fp);
    // Infinite q-errors are legitimate results: they journal, clamped to
    // the representable edge so the JSONL stays parseable.
    JournalRecord inf_record;
    inf_record.estimator = "big";
    inf_record.cell = "cell";
    inf_record.metrics = {{"inf", std::numeric_limits<double>::infinity()}};
    ASSERT_TRUE(journal.Append(inf_record));
    // NaN is corruption, not a result: Append refuses it outright instead
    // of rewriting it into a plausible number, and never indexes it — the
    // cell stays missing so a resumed run re-executes it.
    JournalRecord nan_record;
    nan_record.estimator = "bad";
    nan_record.cell = "cell";
    nan_record.metrics = {{"p50", 1.5}, {"p99", std::nan("")}};
    EXPECT_FALSE(journal.Append(nan_record));
    EXPECT_EQ(journal.Find("bad", "cell"), nullptr);
  }
  SweepJournal reopened(path, fp);
  ASSERT_EQ(reopened.resumed_cells(), 1u);
  const JournalRecord* hit = reopened.Find("big", "cell");
  ASSERT_NE(hit, nullptr);
  EXPECT_GT(hit->Metric("inf"), 1e300);
  EXPECT_TRUE(std::isfinite(hit->Metric("inf")));
  // The refused NaN record never reached disk.
  EXPECT_EQ(reopened.Find("bad", "cell"), nullptr);
  reopened.RemoveFile();
}

// ---------------------------------------------------------------------------
// Failure taxonomy strings.

TEST(FailureTest, KindNamesAreStable) {
  EXPECT_STREQ(FailureKindName(FailureKind::kNone), "kNone");
  EXPECT_STREQ(FailureKindName(FailureKind::kTrainTimeout), "kTrainTimeout");
  EXPECT_STREQ(FailureKindName(FailureKind::kNonFiniteEstimate),
               "kNonFiniteEstimate");
  FailureRecord record{FailureKind::kTrainThrew, "train", 1, "boom"};
  const std::string text = record.ToString();
  EXPECT_NE(text.find("kTrainThrew"), std::string::npos);
  EXPECT_NE(text.find("boom"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-query estimate budgets.

TEST(RobustRunnerTest, PerQueryBudgetLocalizesPathologicalQuery) {
  std::vector<FaultSpec> plan;
  std::string error;
  // Query index 2 stalls well past the budget; everything else is instant.
  ASSERT_TRUE(ParseFaultPlan(
      "postgres:estimate:delay:after=2:times=1:delay=0.6", &plan, &error));
  robust::RobustOptions options = FastOptions();
  options.query_deadline_seconds = 0.05;
  const auto report = robust::EvaluateOnDatasetRobust(
      "postgres",
      [&plan] { return WrapWithFaults(FastBase(), plan); },
      Shared().table, Shared().train, Shared().test, options);
  // The pathological query is a per-query failure, not a dead stage: the
  // estimator itself still serves the cell.
  EXPECT_EQ(report.served_by, "postgres");
  ASSERT_EQ(report.raw_qerrors.size(), Shared().test.size());
  EXPECT_EQ(report.raw_qerrors[2], kInvalidQError);
  EXPECT_TRUE(std::isfinite(report.raw_qerrors[0]));
  EXPECT_TRUE(std::isfinite(report.raw_qerrors[3]));
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kEstimateTimeout);
  EXPECT_NE(report.failures[0].detail.find("query 2"), std::string::npos);
  EXPECT_FALSE(report.ok());
}

TEST(RobustRunnerTest, PerQueryBudgetGivesUpAfterTimeoutCap) {
  std::vector<FaultSpec> plan;
  std::string error;
  // Every probe stalls: a deterministic hang should cost at most
  // max_query_timeouts budgets, then the stage gives up.
  ASSERT_TRUE(
      ParseFaultPlan("postgres:estimate:delay:delay=0.6", &plan, &error));
  robust::RobustOptions options = FastOptions();
  options.query_deadline_seconds = 0.05;
  options.max_query_timeouts = 2;
  options.fallback.clear();
  const auto report = robust::EvaluateOnDatasetRobust(
      "postgres",
      [&plan] { return WrapWithFaults(FastBase(), plan); },
      Shared().table, Shared().train, Shared().test, options);
  EXPECT_TRUE(report.served_by.empty());
  EXPECT_EQ(report.qerror.p50, kInvalidQError);
  // Two per-query timeout records plus the give-up record.
  ASSERT_EQ(report.failures.size(), 3u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kEstimateTimeout);
  EXPECT_EQ(report.failures[1].kind, FailureKind::kEstimateTimeout);
  EXPECT_NE(report.failures[2].detail.find("gave up"), std::string::npos);
}

}  // namespace
}  // namespace arecel
