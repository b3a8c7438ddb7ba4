#ifndef ARECEL_WORKLOAD_GENERATOR_H_
#define ARECEL_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "data/table.h"
#include "util/random.h"
#include "workload/query.h"

namespace arecel {

// The paper's unified workload generator (§3, "Workload").
//
// A query with d predicates is a hyper-rectangle controlled by a center and
// a width per attribute:
//  * the number of predicates d is uniform in [1, |D|], over d random
//    distinct columns;
//  * the center comes from a random data tuple (way ①) with probability
//    1 - ood_probability, or is drawn independently per column from the
//    column's distinct-value domain (way ②, "out of domain") otherwise;
//  * the width is uniform in [0, domain width] (way ⑴) with probability
//    uniform_width_probability, or exponential with rate 10/width (way ⑵);
//  * categorical columns always get an equality predicate;
//  * a side that spills past the column's min/max becomes an open range.
struct WorkloadOptions {
  double ood_probability = 0.1;
  double uniform_width_probability = 0.5;
  double exponential_scale = 10.0;  // lambda = exponential_scale / width.
  int min_predicates = 1;
  int max_predicates = 0;  // 0 = number of table columns.
};

std::vector<Query> GenerateQueries(const Table& table, size_t count,
                                   uint64_t seed,
                                   const WorkloadOptions& options = {});

// One predicate on `column` of `table`: centred on row `tuple` (way ①) or,
// when `ood`, on a value drawn from the column's domain (way ②), with the
// width drawn per `options`. Both generators draw every predicate through
// this one function.
Predicate DrawPredicate(Rng& rng, const Table& table, int column, bool ood,
                        size_t tuple, const WorkloadOptions& options);

// A labelled workload: queries plus exact selectivities — over the table
// for single-table queries, against the Cartesian product of the named
// tables for join queries.
struct Workload {
  std::vector<Query> queries;
  std::vector<double> selectivities;

  size_t size() const { return queries.size(); }

  // Actual cardinality of query i on a table with `rows` rows.
  double Cardinality(size_t i, size_t rows) const {
    return selectivities[i] * static_cast<double>(rows);
  }

  Workload Slice(size_t begin, size_t end) const;
};

// Generates and labels `count` queries in one call.
Workload GenerateWorkload(const Table& table, size_t count, uint64_t seed,
                          const WorkloadOptions& options = {});

}  // namespace arecel

#endif  // ARECEL_WORKLOAD_GENERATOR_H_
