// Behavioral tests for the three join-capable estimator families
// (DESIGN.md §13): the correlated-sampling estimator is exact when its
// sample covers the tables, the independence baseline reproduces the
// textbook 1/max(distinct) math on an uncorrelated star, MSCN-join learns
// a non-constant model, and all three answer queries that name no tables
// after Train(table), which wraps the table into a one-table schema.

#include <algorithm>
#include <cmath>
#include <vector>

#include "gtest/gtest.h"

#include "core/registry.h"
#include "data/schema.h"
#include "estimators/join/join_sampling.h"
#include "join/join_executor.h"
#include "workload/generator.h"
#include "workload/join_generator.h"

namespace arecel {
namespace {

struct StarFixture {
  Schema schema;
  Workload train;
  std::vector<Query> probes;
};

StarFixture BuildStar(const StarSchemaOptions& options, uint64_t seed) {
  StarFixture fixture;
  fixture.schema = GenerateStarSchema(options, seed);
  fixture.train = GenerateWorkload(fixture.schema, 80, seed + 1);
  fixture.probes = GenerateJoinQueries(fixture.schema, 25, seed + 2);
  return fixture;
}

TrainContext ContextFor(const StarFixture& fixture, uint64_t seed) {
  TrainContext context;
  context.training_workload = &fixture.train;
  context.seed = seed;
  return context;
}

TEST(JoinEstimatorsTest, AllFamiliesProduceBoundedEstimates) {
  StarSchemaOptions options;
  options.fact_rows = 1500;
  options.num_dimensions = 2;
  options.dim_rows = 48;
  const StarFixture fixture = BuildStar(options, /*seed=*/201);
  for (const std::string& name : JoinEstimatorNames()) {
    auto estimator = MakeEstimator(name);
    ASSERT_TRUE(estimator->SupportsJoins()) << name;
    estimator->TrainJoin(fixture.schema, ContextFor(fixture, 202));
    for (const Query& probe : fixture.probes) {
      const double sel = estimator->EstimateSelectivity(probe);
      EXPECT_TRUE(std::isfinite(sel)) << name;
      EXPECT_GE(sel, 0.0) << name;
      EXPECT_LE(sel, 1.0) << name;
      const double rows =
          join::JoinExecutor::RowsProduct(fixture.schema, probe);
      const double card = estimator->EstimateCardinality(probe, rows);
      EXPECT_GE(card, 0.0) << name;
      EXPECT_LE(card, rows) << name;
    }
  }
}

// With the sample budget above every table's row count the correlated
// sample *is* the join: under PK–FK integrity the estimate equals the
// ground truth to float precision, the property that makes sampling-join
// the reference point bench_join compares the learned family against.
TEST(JoinEstimatorsTest, FullSampleJoinSamplingIsExact) {
  StarSchemaOptions options;
  options.fact_rows = 800;
  options.num_dimensions = 2;
  options.dim_rows = 32;
  const StarFixture fixture = BuildStar(options, /*seed=*/211);
  std::string detail;
  ASSERT_TRUE(fixture.schema.CheckIntegrity(&detail)) << detail;

  JoinSamplingEstimator estimator(/*max_sample_rows=*/100000);
  estimator.TrainJoin(fixture.schema, ContextFor(fixture, 212));
  const join::JoinExecutor executor(fixture.schema);
  for (const Query& probe : fixture.probes) {
    EXPECT_NEAR(estimator.EstimateSelectivity(probe),
                executor.Selectivity(probe), 1e-12)
        << probe.ToString();
  }
}

// Uncorrelated, unskewed star: per-table predicates are independent of the
// join and fan-out is uniform, so the textbook independence estimate is
// essentially right — the no-predicate join must come out at exactly
// 1 / dim_rows (fk distinct = pk distinct = dim_rows).
TEST(JoinEstimatorsTest, IndependenceBaselineIsExactWhenIndependenceHolds) {
  StarSchemaOptions options;
  options.fact_rows = 2000;
  options.num_dimensions = 1;
  options.dim_rows = 50;
  options.fk_skew = 0.0;
  options.correlation = 0.0;
  const StarFixture fixture = BuildStar(options, /*seed=*/221);

  auto estimator = MakeEstimator("postgres-join");
  estimator->TrainJoin(fixture.schema, ContextFor(fixture, 222));
  Query no_predicates;
  no_predicates.tables = {"fact", "dim0"};
  no_predicates.joins.push_back(
      {fixture.schema.foreign_keys()[0].table,
       fixture.schema.foreign_keys()[0].column,
       fixture.schema.foreign_keys()[0].ref_table,
       fixture.schema.foreign_keys()[0].ref_column});
  EXPECT_NEAR(estimator->EstimateSelectivity(no_predicates), 1.0 / 50.0,
              1e-9);
}

// The learned model must actually have learned something: estimates vary
// across probes (no constant-output collapse) and training is
// seed-deterministic (also enforced registry-wide by conformance).
TEST(JoinEstimatorsTest, MscnJoinLearnsANonConstantModel) {
  StarSchemaOptions options;
  options.fact_rows = 1500;
  options.num_dimensions = 2;
  options.dim_rows = 48;
  const StarFixture fixture = BuildStar(options, /*seed=*/231);
  auto estimator = MakeEstimator("mscn-join");
  estimator->TrainJoin(fixture.schema, ContextFor(fixture, 232));
  std::vector<double> estimates;
  estimates.reserve(fixture.probes.size());
  for (const Query& probe : fixture.probes)
    estimates.push_back(estimator->EstimateSelectivity(probe));
  const auto [min_it, max_it] =
      std::minmax_element(estimates.begin(), estimates.end());
  EXPECT_LT(*min_it, *max_it);
}

// After Train(table), a query naming no tables is bound to the one wrapped
// table; full-sample sampling-join must therefore hit the block-scan ground
// truth exactly on single-table workloads too.
TEST(JoinEstimatorsTest, SingleTableBridgeMatchesGroundTruth) {
  const Table table = [] {
    StarSchemaOptions options;
    options.fact_rows = 1000;
    options.num_dimensions = 1;
    Schema schema = GenerateStarSchema(options, /*seed=*/241);
    return schema.table("fact");
  }();
  const Workload workload = GenerateWorkload(table, 60, /*seed=*/242);

  JoinSamplingEstimator sampler(/*max_sample_rows=*/100000);
  TrainContext context;
  context.training_workload = &workload;
  context.seed = 243;
  sampler.Train(table, context);
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_NEAR(sampler.EstimateSelectivity(workload.queries[i]),
                workload.selectivities[i], 1e-12)
        << i;
  }

  // The other two families at least stay bounded.
  for (const std::string& name : {std::string("postgres-join"),
                                  std::string("mscn-join")}) {
    auto estimator = MakeEstimator(name);
    estimator->Train(table, context);
    for (const Query& query : workload.queries) {
      const double sel = estimator->EstimateSelectivity(query);
      EXPECT_TRUE(std::isfinite(sel)) << name;
      EXPECT_GE(sel, 0.0) << name;
      EXPECT_LE(sel, 1.0) << name;
    }
  }
}

}  // namespace
}  // namespace arecel
