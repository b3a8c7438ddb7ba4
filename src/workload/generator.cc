#include "workload/generator.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace arecel {

std::vector<Query> GenerateQueries(const Table& table, size_t count,
                                   uint64_t seed,
                                   const WorkloadOptions& options) {
  ARECEL_CHECK(table.num_rows() > 0);
  ARECEL_CHECK(table.num_cols() > 0);
  Rng rng(seed);

  const int num_cols = static_cast<int>(table.num_cols());
  const int max_preds =
      options.max_predicates > 0
          ? std::min(options.max_predicates, num_cols)
          : num_cols;
  const int min_preds = std::clamp(options.min_predicates, 1, max_preds);

  std::vector<Query> queries;
  queries.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    const int d = static_cast<int>(
        rng.UniformInt(static_cast<int64_t>(min_preds),
                       static_cast<int64_t>(max_preds)));
    const std::vector<int> cols = rng.SampleWithoutReplacement(num_cols, d);

    // Way ① picks one tuple shared by all predicate centers; way ② draws
    // each center independently from its column's domain.
    const bool ood = rng.Bernoulli(options.ood_probability);
    const size_t tuple =
        ood ? 0 : rng.UniformInt(static_cast<uint64_t>(table.num_rows()));

    Query query;
    query.predicates.reserve(static_cast<size_t>(d));
    for (int c : cols)
      query.predicates.push_back(
          DrawPredicate(rng, table, c, ood, tuple, options));
    queries.push_back(std::move(query));
  }
  return queries;
}

Predicate DrawPredicate(Rng& rng, const Table& table, int column, bool ood,
                        size_t tuple, const WorkloadOptions& options) {
  const Column& col = table.column(static_cast<size_t>(column));
  const double center =
      ood ? col.domain[rng.UniformInt(static_cast<uint64_t>(col.domain.size()))]
          : col.values[tuple];
  Predicate pred;
  pred.column = column;
  if (col.categorical) {
    pred.lo = pred.hi = center;
    return pred;
  }
  const double domain_width = col.max() - col.min();
  double width = 0.0;
  if (domain_width > 0.0) {
    if (rng.Bernoulli(options.uniform_width_probability)) {
      width = rng.Uniform(0.0, domain_width);
    } else {
      width = rng.Exponential(options.exponential_scale / domain_width);
    }
  }
  pred.lo = center - width / 2.0;
  pred.hi = center + width / 2.0;
  // Spilling past the domain turns the query into an open range.
  if (pred.lo < col.min()) pred.lo = -std::numeric_limits<double>::infinity();
  if (pred.hi > col.max()) pred.hi = std::numeric_limits<double>::infinity();
  return pred;
}

Workload Workload::Slice(size_t begin, size_t end) const {
  ARECEL_CHECK(begin <= end && end <= queries.size());
  Workload out;
  out.queries.assign(queries.begin() + static_cast<long>(begin),
                     queries.begin() + static_cast<long>(end));
  out.selectivities.assign(selectivities.begin() + static_cast<long>(begin),
                           selectivities.begin() + static_cast<long>(end));
  return out;
}

Workload GenerateWorkload(const Table& table, size_t count, uint64_t seed,
                          const WorkloadOptions& options) {
  Workload w;
  w.queries = GenerateQueries(table, count, seed, options);
  // Ground-truth labeling is the dominant cost of workload construction;
  // LabelQueries shared-scans the table once through the whole batch
  // (src/scan/block_scan.h) instead of scanning it once per query.
  w.selectivities = LabelQueries(table, w.queries);
  return w;
}

}  // namespace arecel
