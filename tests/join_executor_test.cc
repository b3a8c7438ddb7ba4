// The join ground-truth gate (DESIGN.md §13): the hash-join executor must
// be bit-identical to the row-at-a-time nested-loop oracle — the two share
// only the star decomposition, so any disagreement localizes a bug in the
// scan plan, the selection vectors, or the key hash. The suite drives both
// through handmade adversarial fixtures (empty dimensions, duplicate-key
// fan-out, predicates outside every key's values, -0.0 keys) and a
// randomized differential sweep over generated star schemas at
// non-dividing block sizes.

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "data/schema.h"
#include "join/join_executor.h"
#include "workload/join_generator.h"

namespace arecel {
namespace {

using join::ExecuteJoinCountNaive;
using join::JoinExecutor;

Table MakeTable(const std::string& name,
                std::vector<std::pair<std::string, std::vector<double>>> cols) {
  Table table(name);
  for (auto& [col_name, values] : cols)
    table.AddColumn(col_name, std::move(values), /*categorical=*/false);
  return table;
}

Query StarQuery(std::vector<std::string> tables,
                std::vector<Predicate> predicates,
                std::vector<JoinEdge> joins) {
  Query query;
  query.tables = std::move(tables);
  query.predicates = std::move(predicates);
  query.joins = std::move(joins);
  return query;
}

// fact(fk, payload) -> dim(pk, attr): the minimal star used by the
// handmade known-answer cases.
Schema TinyStar(std::vector<double> fact_fk, std::vector<double> dim_pk,
                std::vector<double> dim_attr) {
  std::vector<double> fact_payload(fact_fk.size());
  for (size_t i = 0; i < fact_payload.size(); ++i)
    fact_payload[i] = static_cast<double>(i);
  Schema schema;
  schema.AddTable(MakeTable("fact", {{"fk", std::move(fact_fk)},
                                     {"payload", std::move(fact_payload)}}));
  schema.AddTable(
      MakeTable("dim0", {{"pk", std::move(dim_pk)},
                         {"attr", std::move(dim_attr)}}));
  return schema;
}

JoinEdge FactDimEdge() { return {"fact", 0, "dim0", 0}; }

// ---------------------------------------------------------------------------
// Handmade known-answer and adversarial cases.

TEST(JoinExecutorTest, KnownAnswerWithAndWithoutPredicates) {
  const Schema schema =
      TinyStar({1, 1, 2, 3}, {1, 2, 3, 4}, {10, 20, 30, 40});

  // No predicates: every fact row finds its dimension row once.
  Query all = StarQuery({"fact", "dim0"}, {}, {FactDimEdge()});
  EXPECT_EQ(JoinExecutor(schema).Count(all), 4u);
  EXPECT_EQ(ExecuteJoinCountNaive(schema, all), 4u);
  EXPECT_DOUBLE_EQ(JoinExecutor(schema).Selectivity(all), 4.0 / (4.0 * 4.0));

  // attr in [10, 20] keeps dim pks {1, 2}; fact rows with fk 1, 1, 2 join.
  Query banded =
      StarQuery({"fact", "dim0"}, {{1, 10.0, 20.0, 1}}, {FactDimEdge()});
  EXPECT_EQ(JoinExecutor(schema).Count(banded), 3u);
  EXPECT_EQ(ExecuteJoinCountNaive(schema, banded), 3u);
}

TEST(JoinExecutorTest, DuplicateBuildKeysMultiplyFanOut) {
  // dim holds key 1 twice: every fact row with fk 1 matches both copies.
  const Schema schema = TinyStar({1, 1, 1, 2}, {1, 1, 2}, {10, 20, 30});
  const Query all = StarQuery({"fact", "dim0"}, {}, {FactDimEdge()});
  EXPECT_EQ(JoinExecutor(schema).Count(all), 3u * 2u + 1u);
  EXPECT_EQ(ExecuteJoinCountNaive(schema, all), 7u);
}

TEST(JoinExecutorTest, AllRowsMatchFanOut) {
  // Every fact row carries the same key and the dimension is all
  // duplicates of it: the count is the full Cartesian product, the worst
  // case for any accidental 0/1-multiplicity assumption.
  const Schema schema = TinyStar({5, 5, 5}, {5, 5, 5, 5}, {1, 2, 3, 4});
  const Query all = StarQuery({"fact", "dim0"}, {}, {FactDimEdge()});
  EXPECT_EQ(JoinExecutor(schema).Count(all), 12u);
  EXPECT_EQ(ExecuteJoinCountNaive(schema, all), 12u);
  EXPECT_DOUBLE_EQ(JoinExecutor(schema).Selectivity(all), 1.0);
}

TEST(JoinExecutorTest, EmptyDimensionYieldsZero) {
  Schema schema;
  schema.AddTable(MakeTable("fact", {{"fk", {1, 2, 3}}}));
  // A zero-row column has an empty domain; the executor must bail out
  // before ever touching it.
  Table empty_dim("dim0");
  empty_dim.AddColumn("pk", {}, /*categorical=*/false);
  schema.AddTable(std::move(empty_dim));
  const Query query = StarQuery({"fact", "dim0"}, {}, {FactDimEdge()});
  EXPECT_EQ(JoinExecutor(schema).Count(query), 0u);
  EXPECT_EQ(ExecuteJoinCountNaive(schema, query), 0u);
  EXPECT_DOUBLE_EQ(JoinExecutor(schema).Selectivity(query), 0.0);
}

TEST(JoinExecutorTest, UnsatisfiableAndBlockPruningPredicatesYieldZero) {
  const Schema schema =
      TinyStar({1, 2, 3, 4}, {1, 2, 3, 4}, {10, 20, 30, 40});
  // lo > hi: unsatisfiable by construction.
  const Query empty_interval =
      StarQuery({"fact", "dim0"}, {{1, 5.0, 2.0, 0}}, {FactDimEdge()});
  EXPECT_FALSE(empty_interval.IsSatisfiable());
  EXPECT_EQ(JoinExecutor(schema).Count(empty_interval), 0u);
  EXPECT_EQ(ExecuteJoinCountNaive(schema, empty_interval), 0u);
  // Satisfiable, but no value of the column lies in the interval.
  const Query outside_domain =
      StarQuery({"fact", "dim0"}, {{1, 100.0, 200.0, 1}}, {FactDimEdge()});
  EXPECT_TRUE(outside_domain.IsSatisfiable());
  EXPECT_EQ(JoinExecutor(schema).Count(outside_domain), 0u);
  EXPECT_EQ(ExecuteJoinCountNaive(schema, outside_domain), 0u);
}

TEST(JoinExecutorTest, NegativeZeroKeysJoinPositiveZero) {
  // IEEE -0.0 == +0.0: the hash path must collapse the two bit patterns the
  // way the naive oracle's operator== does.
  const Schema schema = TinyStar({-0.0, 1.0}, {0.0, 1.0}, {10, 20});
  const Query all = StarQuery({"fact", "dim0"}, {}, {FactDimEdge()});
  EXPECT_EQ(JoinExecutor(schema).Count(all), 2u);
  EXPECT_EQ(ExecuteJoinCountNaive(schema, all), 2u);
}

TEST(JoinExecutorTest, SingleTableQueryMatchesNaive) {
  const Schema schema =
      TinyStar({1, 2, 3, 4}, {1, 2, 3, 4}, {10, 20, 30, 40});
  const Query single = StarQuery({"fact"}, {{0, 2.0, 3.0}}, {});
  EXPECT_EQ(JoinExecutor(schema).Count(single), 2u);
  EXPECT_EQ(ExecuteJoinCountNaive(schema, single), 2u);
  EXPECT_DOUBLE_EQ(JoinExecutor(schema).Selectivity(single), 0.5);
}

// ---------------------------------------------------------------------------
// Randomized differential sweep: hash executor vs nested-loop oracle,
// bit-identical counts across generated workloads and block sizes that do
// not divide the table sizes.

TEST(JoinDifferentialTest, HashMatchesNaiveAcrossSchemasAndBlockSizes) {
  StarSchemaOptions small;
  small.fact_rows = 500;
  small.num_dimensions = 2;
  small.dim_rows = 16;
  StarSchemaOptions skewed;
  skewed.fact_rows = 300;
  skewed.num_dimensions = 3;
  skewed.dim_rows = 9;  // smaller than every tested block size.
  skewed.fk_skew = 1.5;
  skewed.correlation = 1.0;

  size_t nonzero = 0;
  for (const StarSchemaOptions& options : {small, skewed}) {
    const Schema schema = GenerateStarSchema(options, /*seed=*/77);
    std::string detail;
    ASSERT_TRUE(schema.CheckIntegrity(&detail)) << detail;
    const std::vector<Query> queries =
        GenerateJoinQueries(schema, /*count=*/40, /*seed=*/78);
    // Block sizes 7 and 100 do not divide 500, 300, 16, or 9, so partial
    // trailing blocks and sub-block tables are both exercised.
    for (const size_t block_size : {size_t{7}, size_t{100},
                                    scan::kDefaultBlockSize}) {
      const JoinExecutor executor(schema, block_size);
      for (const Query& query : queries) {
        const size_t naive = ExecuteJoinCountNaive(schema, query);
        ASSERT_EQ(executor.Count(query), naive)
            << "block_size=" << block_size << " query=" << query.ToString();
        if (naive > 0) ++nonzero;
        // The single-table path must agree with the oracle too.
        Query center_only;
        center_only.tables = {"fact"};
        center_only.predicates =
            query.TablePredicates(query.TableIndex("fact"));
        for (Predicate& p : center_only.predicates) p.table = 0;
        ASSERT_EQ(executor.Count(center_only),
                  ExecuteJoinCountNaive(schema, center_only))
            << "block_size=" << block_size;
      }
    }
  }
  // The sweep must not have degenerated into all-empty results.
  EXPECT_GT(nonzero, 0u);
}

TEST(JoinDifferentialTest, BatchLabelsMatchScalarSelectivities) {
  StarSchemaOptions options;
  options.fact_rows = 400;
  options.num_dimensions = 2;
  options.dim_rows = 16;
  const Schema schema = GenerateStarSchema(options, /*seed=*/5);
  const std::vector<Query> queries =
      GenerateJoinQueries(schema, /*count=*/30, /*seed=*/6);
  const JoinExecutor executor(schema);
  const std::vector<double> labels = executor.Label(queries);
  ASSERT_EQ(labels.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(labels[i], executor.Selectivity(queries[i])) << i;
    EXPECT_GE(labels[i], 0.0);
    EXPECT_LE(labels[i], 1.0);
  }
}

// ---------------------------------------------------------------------------
// Star schema generator contract.

TEST(StarSchemaTest, GeneratorIsDeterministicAndIntegral) {
  StarSchemaOptions options;
  options.fact_rows = 600;
  options.num_dimensions = 3;
  options.dim_rows = 32;
  const Schema a = GenerateStarSchema(options, /*seed=*/11);
  const Schema b = GenerateStarSchema(options, /*seed=*/11);
  ASSERT_EQ(a.num_tables(), 4u);
  ASSERT_EQ(a.foreign_keys().size(), 3u);
  std::string detail;
  EXPECT_TRUE(a.CheckIntegrity(&detail)) << detail;
  for (size_t t = 0; t < a.num_tables(); ++t) {
    ASSERT_EQ(a.tables()[t].num_cols(), b.tables()[t].num_cols());
    for (size_t c = 0; c < a.tables()[t].num_cols(); ++c)
      EXPECT_EQ(a.tables()[t].column(c).values, b.tables()[t].column(c).values)
          << a.tables()[t].name() << "." << c;
  }
  // Every FK edge is discoverable from both directions, round-trips
  // through EdgeIndex, and marks its endpoints as key columns.
  for (const ForeignKey& fk : a.foreign_keys()) {
    EXPECT_NE(a.FindEdge(fk.table, fk.ref_table), nullptr);
    EXPECT_NE(a.FindEdge(fk.ref_table, fk.table), nullptr);
    EXPECT_GE(a.EdgeIndex(fk), 0);
    EXPECT_TRUE(a.IsKeyColumn(fk.table, fk.column));
    EXPECT_TRUE(a.IsKeyColumn(fk.ref_table, fk.ref_column));
  }
}

// ---------------------------------------------------------------------------
// Join workload generator contract.

TEST(JoinGeneratorTest, GeneratedQueriesAreWellFormedStarQueries) {
  StarSchemaOptions schema_options;
  schema_options.fact_rows = 500;
  schema_options.num_dimensions = 3;
  schema_options.dim_rows = 16;
  const Schema schema = GenerateStarSchema(schema_options, /*seed=*/21);
  const std::vector<Query> queries =
      GenerateJoinQueries(schema, /*count=*/60, /*seed=*/22);
  ASSERT_EQ(queries.size(), 60u);
  for (const Query& query : queries) {
    // Center listed first, tables distinct, star shape (n-1 edges).
    EXPECT_EQ(query.TableIndex("fact"), 0) << query.ToString();
    const std::set<std::string> names(query.tables.begin(),
                                      query.tables.end());
    EXPECT_EQ(names.size(), query.tables.size()) << query.ToString();
    EXPECT_TRUE(query.HasValidTableIndices()) << query.ToString();
    int previous_table = 0;
    for (const Predicate& p : query.predicates) {
      // Predicates only on payload columns, never on join keys, grouped
      // by table in table order.
      EXPECT_FALSE(schema.IsKeyColumn(
          query.tables[static_cast<size_t>(p.table)], p.column))
          << query.ToString();
      EXPECT_LE(p.lo, p.hi);
      EXPECT_GE(p.table, previous_table) << query.ToString();
      previous_table = p.table;
    }
    EXPECT_GE(query.num_tables(), 2u);
    EXPECT_EQ(query.joins.size(), query.num_tables() - 1);
    // Every edge is a schema FK edge touching the center.
    for (const JoinEdge& e : query.joins) {
      EXPECT_TRUE(e.left_table == "fact" || e.right_table == "fact");
      EXPECT_NE(schema.FindEdge(e.left_table, e.right_table), nullptr);
    }
    // At least one predicate somewhere (forced onto the center if the
    // draw came up empty).
    EXPECT_GE(query.predicates.size(), 1u) << query.ToString();
  }
  // Determinism: the same seed reproduces the same workload.
  const std::vector<Query> again =
      GenerateJoinQueries(schema, /*count=*/60, /*seed=*/22);
  ASSERT_EQ(again.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i)
    EXPECT_EQ(queries[i].ToString(), again[i].ToString());
}

TEST(JoinGeneratorTest, WorkloadLabelsMatchExecutor) {
  StarSchemaOptions schema_options;
  schema_options.fact_rows = 400;
  schema_options.num_dimensions = 2;
  schema_options.dim_rows = 16;
  const Schema schema = GenerateStarSchema(schema_options, /*seed=*/31);
  const Workload workload = GenerateWorkload(schema, /*count=*/25,
                                             /*seed=*/32);
  ASSERT_EQ(workload.size(), 25u);
  const JoinExecutor executor(schema);
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(workload.selectivities[i],
              executor.Selectivity(workload.queries[i]))
        << i;
  }
}

}  // namespace
}  // namespace arecel
