#ifndef ARECEL_WORKLOAD_JOIN_GENERATOR_H_
#define ARECEL_WORKLOAD_JOIN_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "data/schema.h"
#include "workload/generator.h"

namespace arecel {

// Multi-table extension of the unified workload generator (DESIGN.md §13).
//
// Every query joins the schema's star center (the table on the referencing
// side of every foreign key) with a random subset of its dimensions along
// the schema's FK edges; predicates are drawn per participating table on
// payload columns only (join-key columns, per Schema::IsKeyColumn, never
// get predicates — they are constrained by the join itself). Center and
// width of each predicate follow the single-table generator's way ①/way ②
// machinery (DrawPredicate), reusing WorkloadOptions. A query lists the
// center first, then its dimensions, and its predicates grouped by table
// in that order.
struct JoinGeneratorOptions {
  int min_dimensions = 1;  // joined dimensions per query (>= 1).
  int max_dimensions = 0;  // 0 = every dimension with an edge to the center.
  // Per participating table, the predicate count is uniform in
  // [0, min(max_predicates_per_table, payload columns)]; a query that drew
  // no predicate anywhere gets one forced onto the center table.
  int max_predicates_per_table = 2;
  WorkloadOptions predicate_options;
};

std::vector<Query> GenerateJoinQueries(
    const Schema& schema, size_t count, uint64_t seed,
    const JoinGeneratorOptions& options = {});

// The join overload of GenerateWorkload: generates and labels `count`
// queries in one call, with the exact Cartesian-product selectivities
// (|result| / prod |T_i|) of the hash-join ground-truth executor
// (src/join/join_executor.h).
Workload GenerateWorkload(const Schema& schema, size_t count, uint64_t seed,
                          const JoinGeneratorOptions& options = {});

}  // namespace arecel

#endif  // ARECEL_WORKLOAD_JOIN_GENERATOR_H_
