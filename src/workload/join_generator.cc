#include "workload/join_generator.h"

#include <algorithm>
#include <string>

#include "join/join_executor.h"
#include "util/check.h"
#include "util/random.h"

namespace arecel {
namespace {

// Column indices of `table` that never appear in a join edge.
std::vector<int> PayloadColumns(const Schema& schema, const Table& table) {
  std::vector<int> cols;
  for (size_t c = 0; c < table.num_cols(); ++c) {
    if (!schema.IsKeyColumn(table.name(), static_cast<int>(c))) {
      cols.push_back(static_cast<int>(c));
    }
  }
  return cols;
}

// Appends to `query` up to `max_preds` predicates over the payload columns
// of its table `table_index`, count uniform in
// [0, min(max_preds, payload columns)].
void DrawTablePredicates(Rng& rng, const Table& table, int table_index,
                         const std::vector<int>& payload, int max_preds,
                         const WorkloadOptions& options, Query* query) {
  if (payload.empty() || table.num_rows() == 0 || max_preds <= 0) return;
  const int cap = std::min<int>(max_preds, static_cast<int>(payload.size()));
  const int d =
      static_cast<int>(rng.UniformInt(int64_t{0}, static_cast<int64_t>(cap)));
  if (d == 0) return;
  const std::vector<int> picks =
      rng.SampleWithoutReplacement(static_cast<int>(payload.size()), d);
  const bool ood = rng.Bernoulli(options.ood_probability);
  const size_t tuple =
      ood ? 0 : rng.UniformInt(static_cast<uint64_t>(table.num_rows()));
  for (int pick : picks) {
    Predicate pred = DrawPredicate(
        rng, table, payload[static_cast<size_t>(pick)], ood, tuple, options);
    pred.table = table_index;
    query->predicates.push_back(pred);
  }
}

}  // namespace

std::vector<Query> GenerateJoinQueries(const Schema& schema, size_t count,
                                       uint64_t seed,
                                       const JoinGeneratorOptions& options) {
  ARECEL_CHECK_MSG(!schema.foreign_keys().empty(),
                   "join generator needs at least one FK edge");
  const std::string center = StarCenterTable(schema);
  const Table& center_table = schema.table(center);
  const std::vector<int> center_payload = PayloadColumns(schema, center_table);

  // Dimensions reachable from the center, in schema edge order.
  struct Dim {
    const ForeignKey* fk;
    const Table* table;
    std::vector<int> payload;
  };
  std::vector<Dim> dims;
  for (const ForeignKey& fk : schema.foreign_keys()) {
    const std::string& other = fk.table == center ? fk.ref_table : fk.table;
    const Table& t = schema.table(other);
    dims.push_back({&fk, &t, PayloadColumns(schema, t)});
  }
  const int num_dims = static_cast<int>(dims.size());
  const int max_dims = options.max_dimensions > 0
                           ? std::min(options.max_dimensions, num_dims)
                           : num_dims;
  const int min_dims = std::clamp(options.min_dimensions, 1, max_dims);

  Rng rng(seed);
  std::vector<Query> queries;
  queries.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    const int k = static_cast<int>(rng.UniformInt(
        static_cast<int64_t>(min_dims), static_cast<int64_t>(max_dims)));
    const std::vector<int> picks = rng.SampleWithoutReplacement(num_dims, k);

    Query query;
    query.tables.push_back(center);
    DrawTablePredicates(rng, center_table, 0, center_payload,
                        options.max_predicates_per_table,
                        options.predicate_options, &query);
    for (int pick : picks) {
      const Dim& dim = dims[static_cast<size_t>(pick)];
      query.tables.push_back(dim.table->name());
      DrawTablePredicates(rng, *dim.table,
                          static_cast<int>(query.tables.size()) - 1,
                          dim.payload, options.max_predicates_per_table,
                          options.predicate_options, &query);
      query.joins.push_back({dim.fk->table, dim.fk->column, dim.fk->ref_table,
                             dim.fk->ref_column});
    }

    // A pure join count carries no signal for predicate-driven estimators;
    // force at least one predicate, on the center table.
    if (query.predicates.empty() && !center_payload.empty() &&
        center_table.num_rows() > 0) {
      const bool ood = rng.Bernoulli(options.predicate_options.ood_probability);
      const size_t tuple =
          ood ? 0
              : rng.UniformInt(static_cast<uint64_t>(center_table.num_rows()));
      query.predicates.push_back(
          DrawPredicate(rng, center_table, center_payload[0], ood, tuple,
                        options.predicate_options));
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

Workload GenerateWorkload(const Schema& schema, size_t count, uint64_t seed,
                          const JoinGeneratorOptions& options) {
  Workload w;
  w.queries = GenerateJoinQueries(schema, count, seed, options);
  // Labeling amortizes one executor (synopses built once) across the batch
  // and parallelizes over queries.
  w.selectivities = join::JoinExecutor(schema).Label(w.queries);
  return w;
}

}  // namespace arecel
