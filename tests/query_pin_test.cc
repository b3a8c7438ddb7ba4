// Pins the bits of both query generators, of the non-neural join
// estimators' answers and of the canonical cache-key bytes. Each test
// hashes what it observes with FNV-1a and compares it with the value
// recorded when join queries were still a separate type holding one
// predicate list per table, so the move to one Query type moved no bit of
// what is generated, estimated or keyed.
//
// A join query is serialized as its table names, then its predicates in
// list order, each tagged with its table's name. The recorded bytes listed
// the predicates table by table in table order, so the hashes also pin
// that generated predicates come grouped by table in that order.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "data/datasets.h"
#include "data/schema.h"
#include "serve/cache.h"
#include "workload/generator.h"
#include "workload/join_generator.h"

namespace arecel {
namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

void AppendInt(std::string* out, int32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendDouble(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  out->append(reinterpret_cast<const char*>(&bits), sizeof(bits));
}

void AppendName(std::string* out, const std::string& name) {
  *out += name;
  *out += '\x1f';
}

void AppendPredicate(std::string* out, const Predicate& p) {
  AppendInt(out, p.column);
  AppendDouble(out, p.lo);
  AppendDouble(out, p.hi);
}

std::string StarQueryBytes(const std::vector<Query>& queries) {
  std::string out;
  for (const Query& query : queries) {
    for (const std::string& name : query.tables) AppendName(&out, name);
    out += '\x1e';
    for (const Predicate& p : query.predicates) {
      AppendName(&out, query.tables.at(static_cast<size_t>(p.table)));
      AppendPredicate(&out, p);
    }
    out += '\x1e';
    for (const JoinEdge& e : query.joins) {
      AppendName(&out, e.left_table);
      AppendInt(&out, e.left_column);
      AppendName(&out, e.right_table);
      AppendInt(&out, e.right_column);
    }
    out += '\x1d';
  }
  return out;
}

std::string SingleTableQueryBytes(const std::vector<Query>& queries) {
  std::string out;
  for (const Query& query : queries) {
    for (const Predicate& p : query.predicates) AppendPredicate(&out, p);
    out += '\x1d';
  }
  return out;
}

StarSchemaOptions PinStar(int option_set) {
  StarSchemaOptions star;
  if (option_set == 0) {
    star.fact_rows = 600;
    star.num_dimensions = 2;
    star.dim_rows = 40;
  } else {
    star.fact_rows = 900;
    star.num_dimensions = 3;
    star.dim_rows = 64;
    star.fk_skew = 1.2;
    star.correlation = 0.9;
  }
  return star;
}

Table PinCensus() {
  DatasetSpec spec = CensusSpec();
  spec.rows = 2000;
  return GenerateDataset(spec, 31);
}

std::string EstimateBits(const std::vector<double>& estimates) {
  std::string out;
  for (const double e : estimates) AppendDouble(&out, e);
  return out;
}

TEST(QueryPinTest, JoinGeneratorEmitsPinnedQueries) {
  const uint64_t expected[2][2] = {
      {16099371510533250492ull, 12607924514781110164ull},
      {16561708171411284395ull, 4311005031051567322ull}};
  for (int set = 0; set < 2; ++set) {
    const Schema schema = GenerateStarSchema(PinStar(set), 21);
    for (int s = 0; s < 2; ++s) {
      const uint64_t seed = 22 + static_cast<uint64_t>(s);
      EXPECT_EQ(Fnv1a(StarQueryBytes(GenerateJoinQueries(schema, 60, seed))),
                expected[set][s])
          << "option set " << set << " seed " << seed;
    }
  }
}

TEST(QueryPinTest, SingleTableGeneratorEmitsPinnedQueries) {
  EXPECT_EQ(Fnv1a(SingleTableQueryBytes(GenerateQueries(PinCensus(), 200, 32))),
            16200949185932389862ull);
}

TEST(QueryPinTest, JoinEstimatesArePinned) {
  const Schema schema = GenerateStarSchema(PinStar(1), 41);
  const std::vector<Query> probes = GenerateJoinQueries(schema, 80, 42);
  const std::pair<const char*, uint64_t> expected[] = {
      {"postgres-join", 15947520112950063367ull},
      {"sampling-join", 16726392894417603055ull}};
  for (const auto& [name, hash] : expected) {
    auto estimator = MakeEstimator(name);
    TrainContext context;
    context.seed = 43;
    estimator->TrainJoin(schema, context);
    std::vector<double> estimates;
    for (const Query& probe : probes)
      estimates.push_back(estimator->EstimateSelectivity(probe));
    EXPECT_EQ(Fnv1a(EstimateBits(estimates)), hash) << name;
  }
}

TEST(QueryPinTest, SingleTableEstimatesArePinned) {
  const Table table = PinCensus();
  const std::vector<Query> probes = GenerateQueries(table, 120, 51);
  const std::pair<const char*, uint64_t> expected[] = {
      {"postgres-join", 5535602779466166033ull},
      {"sampling-join", 3115364906694426521ull}};
  for (const auto& [name, hash] : expected) {
    auto estimator = MakeEstimator(name);
    TrainContext context;
    context.seed = 52;
    estimator->Train(table, context);
    std::vector<double> estimates;
    for (const Query& probe : probes)
      estimates.push_back(estimator->EstimateSelectivity(probe));
    EXPECT_EQ(Fnv1a(EstimateBits(estimates)), hash) << name;
  }
}

TEST(QueryPinTest, CanonicalKeyBytesArePinned) {
  Query single;
  single.predicates = {{2, 1.0, 5.0}, {0, 3.0, 3.0}, {1, -0.0, 1e300}};
  EXPECT_EQ(Fnv1a(serve::CanonicalPredicateKey(single)), 89449958049473947ull);

  Query one_table;
  one_table.tables = {"dim0"};
  one_table.predicates = {{2, 1.0, 5.0}, {1, -0.0, 7.5}};
  EXPECT_EQ(Fnv1a(serve::CanonicalPredicateKey(one_table)),
            16470960218274317793ull);

  Query star;
  star.tables = {"fact", "dim1", "dim0"};
  star.predicates = {{3, 2.0, 9.0, 0}, {2, 0.0, 0.0, 0}, {1, -4.0, 4.0, 1}};
  star.joins.push_back({"fact", 0, "dim0", 0});
  star.joins.push_back({"dim1", 0, "fact", 1});
  EXPECT_EQ(Fnv1a(serve::CanonicalPredicateKey(star)), 8967010574400721585ull);
}

}  // namespace
}  // namespace arecel
