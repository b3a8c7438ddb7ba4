// Robustness edge cases across the registry: degenerate schemas (single
// column, constant column), duplicate predicates, and extreme queries.
// These paths are where estimator implementations typically divide by zero
// or index out of range; every estimator must stay within [0, 1] and never
// crash.

#include <memory>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "data/datasets.h"
#include "util/random.h"
#include "workload/generator.h"

namespace arecel {
namespace {

Table OneColumnTable() {
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 4000; ++i)
    values.push_back(static_cast<double>(rng.Zipf(50, 0.8)));
  Table t("one_col");
  t.AddColumn("a", std::move(values), false);
  return t;
}

Table ConstantColumnTable() {
  Rng rng(4);
  std::vector<double> varying, constant(3000, 7.0);
  for (int i = 0; i < 3000; ++i)
    varying.push_back(static_cast<double>(rng.UniformInt(uint64_t{40})));
  Table t("const_col");
  t.AddColumn("a", std::move(varying), false);
  t.AddColumn("b", std::move(constant), true);
  return t;
}

class EdgeCaseTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EdgeCaseTest, SingleColumnTable) {
  const Table t = OneColumnTable();
  const Workload train = GenerateWorkload(t, 300, 5);
  auto estimator = MakeEstimator(GetParam());
  TrainContext context;
  context.training_workload = &train;
  estimator->Train(t, context);

  Query q;
  q.predicates.push_back({0, 5, 20});
  const double sel = estimator->EstimateSelectivity(q);
  ASSERT_GE(sel, 0.0);
  ASSERT_LE(sel, 1.0);
}

TEST_P(EdgeCaseTest, ConstantColumn) {
  const Table t = ConstantColumnTable();
  const Workload train = GenerateWorkload(t, 300, 6);
  auto estimator = MakeEstimator(GetParam());
  TrainContext context;
  context.training_workload = &train;
  estimator->Train(t, context);

  // Equality on the constant column: true selectivity 1.
  Query hit;
  hit.predicates.push_back({1, 7.0, 7.0});
  const double sel_hit = estimator->EstimateSelectivity(hit);
  ASSERT_GE(sel_hit, 0.0);
  ASSERT_LE(sel_hit, 1.0);

  // Equality on a value the constant column never takes: near 0.
  Query miss;
  miss.predicates.push_back({1, 8.0, 8.0});
  const double sel_miss = estimator->EstimateSelectivity(miss);
  ASSERT_GE(sel_miss, 0.0);
  ASSERT_LE(sel_miss, 1.0);
}

TEST_P(EdgeCaseTest, DuplicatePredicatesOnOneColumn) {
  const Table t = GenerateSynthetic2D(5000, 0.5, 0.5, 60, 7);
  const Workload train = GenerateWorkload(t, 300, 8);
  auto estimator = MakeEstimator(GetParam());
  TrainContext context;
  context.training_workload = &train;
  estimator->Train(t, context);

  Query q;
  q.predicates.push_back({0, 10, 50});
  q.predicates.push_back({0, 20, 40});  // tighter duplicate on column 0.
  const double sel = estimator->EstimateSelectivity(q);
  ASSERT_GE(sel, 0.0);
  ASSERT_LE(sel, 1.0);
}

TEST_P(EdgeCaseTest, PointQueryAtDomainEdges) {
  const Table t = GenerateSynthetic2D(5000, 1.0, 0.5, 60, 9);
  const Workload train = GenerateWorkload(t, 300, 10);
  auto estimator = MakeEstimator(GetParam());
  TrainContext context;
  context.training_workload = &train;
  estimator->Train(t, context);

  for (double edge : {t.column(0).min(), t.column(0).max()}) {
    Query q;
    q.predicates.push_back({0, edge, edge});
    const double sel = estimator->EstimateSelectivity(q);
    ASSERT_GE(sel, 0.0);
    ASSERT_LE(sel, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, EdgeCaseTest,
                         ::testing::ValuesIn(AllEstimatorNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace arecel
