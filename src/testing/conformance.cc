#include "testing/conformance.h"

#include <cstdio>

#include "core/registry.h"
#include "data/datasets.h"
#include "util/check.h"
#include "workload/join_generator.h"

namespace arecel {

namespace {

// Estimator families, for tolerance profiles. Exactness tiers:
//   kExact      — closed-form statistics; invariants hold to float noise.
//   kNumeric    — deterministic numeric models whose smoothing/learned
//                 weights can locally bend monotonicity by a small margin.
//   kStochastic — neural or sampled-inference models; the paper's §6.3
//                 measures their rule violations, so the slack is large but
//                 frozen here so it cannot silently widen.
enum class Exactness { kExact, kNumeric, kStochastic };

Exactness ExactnessOf(const std::string& name) {
  if (name == "postgres" || name == "mysql" || name == "dbms-a" ||
      name == "sampling" || name == "mhist" || name == "postgres-join" ||
      name == "sampling-join") {
    // The two non-neural join estimators answer from frozen statistics /
    // frozen samples, so their single-table invariants hold to float noise.
    return Exactness::kExact;
  }
  if (name == "bayes" || name == "kde-fb" || name == "quicksel" ||
      name == "deepdb") {
    return Exactness::kNumeric;
  }
  // mscn, mscn-join, lw-nn, lw-xgb, naru, dqm-d, feedback-knn,
  // feedback-corrected.
  // The feedback pair is deterministic, but its kNN store interpolates
  // between remembered truths, which bends local monotonicity like a
  // learned model does.
  return Exactness::kStochastic;
}

}  // namespace

InvariantTolerance MonotonicityToleranceFor(const std::string& estimator) {
  // dqm-d estimates each query with fresh VEGAS importance-sampling runs, so
  // two related queries see independent sampling noise; its frozen envelope
  // is the widest in the registry (worst observed excess 0.23 at the
  // stochastic default).
  if (estimator == "dqm-d") return {.relative = 2.0, .absolute = 0.15};
  // The feedback stores answer from nearest remembered truths: a tightened
  // query can land nearer a *larger* remembered truth, so the envelope is
  // dqm-d-wide. Frozen here; shrinking it as the store's interpolation
  // improves is welcome.
  if (estimator == "feedback-knn" || estimator == "feedback-corrected")
    return {.relative = 2.0, .absolute = 0.15};
  // mscn-join's single-table bridge runs the full three-module network at
  // 4x the single-table mscn's training budget (160 epochs, stepped LR),
  // and the sharper fit bends local monotonicity harder (worst observed
  // excess 0.17 over the stochastic default). Frozen at dqm-d's envelope;
  // its full-domain no-op stays bit-exact (vacuous atoms are dropped at
  // featurization), so only this invariant gets the wider band.
  if (estimator == "mscn-join") return {.relative = 2.0, .absolute = 0.15};
  switch (ExactnessOf(estimator)) {
    case Exactness::kExact:
      return {.relative = 1e-9, .absolute = 1e-9};
    case Exactness::kNumeric:
      return {.relative = 1e-6, .absolute = 1e-6};
    case Exactness::kStochastic:
      return {.relative = 0.5, .absolute = 0.05};
  }
  return {};
}

InvariantTolerance NoOpToleranceFor(const std::string& estimator) {
  // kde-fb's Gaussian kernels leak mass outside each column's domain, so a
  // full-domain conjunct multiplies the estimate by a per-column kernel mass
  // < 1 (worst observed relative shift ~0.25 of the base estimate).
  if (estimator == "kde-fb") return {.relative = 0.4, .absolute = 0.02};
  if (estimator == "dqm-d") return {.relative = 2.0, .absolute = 0.15};
  // The feedback stores canonicalize full-domain conjuncts away (vacuous
  // predicates are excluded from both fingerprint and features), so the
  // no-op holds bit-exactly despite the stochastic-tier monotonicity slack.
  if (estimator == "feedback-knn" || estimator == "feedback-corrected")
    return {.relative = 1e-9, .absolute = 1e-9};
  switch (ExactnessOf(estimator)) {
    case Exactness::kExact:
      return {.relative = 1e-9, .absolute = 1e-9};
    case Exactness::kNumeric:
      return {.relative = 1e-6, .absolute = 1e-6};
    case Exactness::kStochastic:
      return {.relative = 0.5, .absolute = 0.05};
  }
  return {};
}

ConformanceFixture BuildConformanceFixture(const ConformanceOptions& options) {
  ARECEL_CHECK(options.num_cols >= 1);
  ARECEL_CHECK(options.num_categorical <= options.num_cols);
  // Census-like shape trimmed to the requested arity: skewed, correlated,
  // mixed categorical/numeric — the smoke-test diet every estimator already
  // digests, pinned here as the conformance contract's input.
  DatasetSpec spec = CensusSpec();
  spec.name = "conformance";
  spec.rows = options.rows;
  spec.num_cols = options.num_cols;
  spec.num_categorical = options.num_categorical;
  spec.domain_sizes.resize(static_cast<size_t>(options.num_cols));
  spec.skews.resize(static_cast<size_t>(options.num_cols));
  spec.correlations.resize(static_cast<size_t>(options.num_cols));

  ConformanceFixture fixture;
  fixture.table = GenerateDataset(spec, options.seed);
  fixture.train =
      GenerateWorkload(fixture.table, options.train_queries, options.seed + 1);
  fixture.probes = GenerateQueries(fixture.table, options.probe_queries,
                                   options.seed + 2);

  // Star fixture for the join invariants: correlated and skewed, like the
  // bench_join workload, but small enough to train per invariant.
  StarSchemaOptions star;
  star.fact_rows = options.star_fact_rows;
  star.dim_rows = options.star_dim_rows;
  fixture.star = GenerateStarSchema(star, options.seed + 10);
  fixture.join_train = GenerateWorkload(
      fixture.star, options.join_train_queries, options.seed + 11);
  fixture.join_probes = GenerateJoinQueries(
      fixture.star, options.join_probe_queries, options.seed + 12);
  return fixture;
}

bool ConformanceReport::passed() const {
  for (const InvariantResult& r : results)
    if (!r.passed()) return false;
  return !results.empty();
}

std::string ConformanceReport::Summary() const {
  std::string out = estimator + ":\n";
  for (const InvariantResult& r : results) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-22s %s  (%zu/%zu trials",
                  r.invariant.c_str(),
                  r.skipped ? "SKIP" : (r.violations == 0 ? "ok" : "FAIL"),
                  r.violations, r.trials);
    out += line;
    if (r.worst > 0) {
      std::snprintf(line, sizeof(line), ", worst excess %.3g", r.worst);
      out += line;
    }
    out += ")\n";
    if (!r.passed() && !r.detail.empty()) out += "    " + r.detail + "\n";
  }
  return out;
}

ConformanceReport RunConformance(const std::string& estimator_name,
                                 const ConformanceFixture& fixture,
                                 const ConformanceOptions& options) {
  ConformanceReport report;
  report.estimator = estimator_name;

  auto estimator = MakeEstimator(estimator_name);
  TrainContext context;
  context.training_workload = &fixture.train;
  context.seed = options.seed;
  estimator->Train(fixture.table, context);

  report.results.push_back(CheckSelectivityBounds(
      *estimator, fixture.probes, fixture.table.num_rows()));
  report.results.push_back(CheckTighteningMonotonicity(
      *estimator, fixture.table, options.metamorphic_trials, options.seed + 3,
      MonotonicityToleranceFor(estimator_name)));
  report.results.push_back(CheckFullDomainNoOp(
      *estimator, fixture.table, options.metamorphic_trials, options.seed + 4,
      NoOpToleranceFor(estimator_name)));
  report.results.push_back(CheckDeterminism(estimator_name, fixture.table,
                                            fixture.train, fixture.probes,
                                            options.seed));
  report.results.push_back(CheckSaveLoadRoundTrip(
      estimator_name, fixture.table, fixture.train, fixture.probes,
      options.seed));
  // Feedback invariants: skipped (= passed) for estimators that are not
  // FeedbackSinks, so the sweep stays total over the registry.
  report.results.push_back(CheckFeedbackMonotonicity(
      estimator_name, fixture.table, fixture.train,
      options.metamorphic_trials / 2, options.seed + 5));
  report.results.push_back(CheckFeedbackReplayNotWorse(
      estimator_name, fixture.table, fixture.train, options.seed + 6));
  report.results.push_back(CheckFeedbackDynamicConvergence(
      estimator_name, fixture.table, fixture.train, options.seed + 7));
  // Join invariants: skipped (= passed) for estimators without join
  // support, so the sweep stays total over the registry.
  report.results.push_back(CheckJoinSelectivityBounds(
      estimator_name, fixture.star, fixture.join_train, fixture.join_probes,
      options.seed + 8));
  report.results.push_back(CheckJoinDeterminism(
      estimator_name, fixture.star, fixture.join_train, fixture.join_probes,
      options.seed + 9));
  return report;
}

}  // namespace arecel
