// The estimator conformance gate: every name the registry can construct is
// held to the metamorphic behavioral contract (bounds, tightening
// monotonicity, full-domain no-op, fixed-seed determinism, save/load
// round-trip, and the three feedback invariants for FeedbackSink
// estimators) on the pinned conformance fixture. A perf PR that corrupts
// an estimate fails here before any accuracy number moves.

#include <set>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "testing/conformance.h"

namespace arecel {
namespace {

class ConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    options_ = new ConformanceOptions();
    fixture_ = new ConformanceFixture(BuildConformanceFixture(*options_));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    delete options_;
    fixture_ = nullptr;
    options_ = nullptr;
  }
  static ConformanceFixture* fixture_;
  static ConformanceOptions* options_;
};

ConformanceFixture* ConformanceTest::fixture_ = nullptr;
ConformanceOptions* ConformanceTest::options_ = nullptr;

TEST_P(ConformanceTest, SatisfiesBehavioralContract) {
  const ConformanceReport report =
      RunConformance(GetParam(), *fixture_, *options_);
  EXPECT_TRUE(report.passed()) << report.Summary();
  // Every invariant ran (or was explicitly skipped), none silently missing.
  ASSERT_EQ(report.results.size(), 10u);
  for (const InvariantResult& r : report.results) {
    EXPECT_TRUE(r.passed()) << report.estimator << ": " << r.invariant
                            << " violated " << r.violations << "/" << r.trials
                            << " trials; " << r.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, ConformanceTest,
                         ::testing::ValuesIn(AllRegistryNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// The serving layer keys its dispatch strategy off ThreadSafeEstimates();
// this freezes the documented capability map so a new estimator (or a
// refactor of an old one) must update the set consciously, not silently.
TEST(ConformanceCapabilityTest, ThreadSafeEstimatesMatchesDocumentedSet) {
  const std::set<std::string> serialized_inference = {"naru", "bayes",
                                                      "dqm-d"};
  for (const std::string& name : AllRegistryNames()) {
    auto estimator = MakeEstimator(name);
    const bool expected = serialized_inference.count(name) == 0;
    EXPECT_EQ(estimator->ThreadSafeEstimates(), expected)
        << name << " thread-safety capability changed";
  }
}

// The feedback invariants must actually exercise the two adaptive
// estimators (and only report skipped for everything else) — otherwise the
// sweep could silently skip its way to green.
TEST(ConformanceCapabilityTest, FeedbackInvariantsApplyToSinksOnly) {
  const std::set<std::string> sinks = {"feedback-knn", "feedback-corrected"};
  ConformanceOptions options;
  const ConformanceFixture fixture = BuildConformanceFixture(options);
  for (const std::string& name : {std::string("feedback-knn"),
                                  std::string("feedback-corrected"),
                                  std::string("postgres")}) {
    const ConformanceReport report = RunConformance(name, fixture, options);
    int feedback_results = 0;
    for (const InvariantResult& r : report.results) {
      if (r.invariant.rfind("feedback-", 0) != 0) continue;
      ++feedback_results;
      EXPECT_EQ(r.skipped, sinks.count(name) == 0)
          << name << "/" << r.invariant;
    }
    EXPECT_EQ(feedback_results, 3) << name;
  }
}

// Mirror of the feedback sweep guard for the join capability: the join
// invariants must actually exercise the three join-capable estimators and
// only report skipped for everything else.
TEST(ConformanceCapabilityTest, JoinInvariantsApplyToJoinCapableOnly) {
  const std::set<std::string> join_capable = {"postgres-join", "sampling-join",
                                             "mscn-join"};
  for (const std::string& name : AllRegistryNames()) {
    auto estimator = MakeEstimator(name);
    EXPECT_EQ(estimator->SupportsJoins(), join_capable.count(name) == 1)
        << name << " join capability changed";
  }
  ConformanceOptions options;
  const ConformanceFixture fixture = BuildConformanceFixture(options);
  for (const std::string& name : {std::string("postgres-join"),
                                  std::string("sampling-join"),
                                  std::string("postgres")}) {
    const ConformanceReport report = RunConformance(name, fixture, options);
    int join_results = 0;
    for (const InvariantResult& r : report.results) {
      if (r.invariant.rfind("join-", 0) != 0) continue;
      ++join_results;
      EXPECT_EQ(r.skipped, join_capable.count(name) == 0)
          << name << "/" << r.invariant;
    }
    EXPECT_EQ(join_results, 2) << name;
  }
}

TEST(ConformanceFixtureTest, IsDeterministic) {
  ConformanceOptions options;
  const ConformanceFixture a = BuildConformanceFixture(options);
  const ConformanceFixture b = BuildConformanceFixture(options);
  ASSERT_EQ(a.table.num_rows(), b.table.num_rows());
  ASSERT_EQ(a.train.size(), b.train.size());
  ASSERT_EQ(a.probes.size(), b.probes.size());
  for (size_t c = 0; c < a.table.num_cols(); ++c)
    EXPECT_EQ(a.table.column(c).values, b.table.column(c).values);
  EXPECT_EQ(a.train.selectivities, b.train.selectivities);
}

}  // namespace
}  // namespace arecel
