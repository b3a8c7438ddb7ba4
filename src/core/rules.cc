#include "core/rules.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/random.h"
#include "workload/generator.h"

namespace arecel {

std::vector<int> RangeableColumns(const Table& table) {
  std::vector<int> cols;
  for (size_t c = 0; c < table.num_cols(); ++c) {
    if (!table.column(c).categorical && table.column(c).domain.size() >= 8)
      cols.push_back(static_cast<int>(c));
  }
  return cols;
}

Query RandomRangeQuery(const Table& table, int col, Rng& rng) {
  const Column& column = table.column(static_cast<size_t>(col));
  const size_t domain = column.domain.size();
  const size_t a = rng.UniformInt(static_cast<uint64_t>(domain - 4));
  const size_t b = a + 4 +
                   rng.UniformInt(static_cast<uint64_t>(domain - a - 4));
  Query query;
  query.predicates.push_back(
      {col, column.domain[a], column.domain[std::min(b, domain - 1)]});
  return query;
}

std::vector<RuleResult> CheckLogicalRules(
    const CardinalityEstimator& estimator, const Table& table,
    const RuleCheckOptions& options) {
  Rng rng(options.seed);
  const std::vector<int> cols = RangeableColumns(table);
  ARECEL_CHECK_MSG(!cols.empty(),
                   "rule checking needs at least one range-able column");
  auto pick_col = [&] {
    return cols[rng.UniformInt(static_cast<uint64_t>(cols.size()))];
  };

  std::vector<RuleResult> results;

  // ---- Monotonicity ----
  {
    RuleResult r{.rule = "monotonicity", .trials = options.trials};
    const double shrinks[] = {0.01, 0.05, 0.25};
    for (size_t t = 0; t < options.trials; ++t) {
      const int col = pick_col();
      Query base = RandomRangeQuery(table, col, rng);
      // Stricter query: shrink the range on each side; small shrinks catch
      // local non-monotonicity that coarse ones smooth over.
      Query strict = base;
      const double lo = base.predicates[0].lo;
      const double hi = base.predicates[0].hi;
      const double width = hi - lo;
      const double shrink = shrinks[t % 3];
      strict.predicates[0].lo = lo + shrink * width;
      strict.predicates[0].hi = hi - shrink * width;
      const double base_est = estimator.EstimateSelectivity(base);
      const double strict_est = estimator.EstimateSelectivity(strict);
      const double excess = strict_est - base_est * (1.0 +
                                                     options.relative_tolerance) -
                            options.absolute_tolerance;
      if (excess > 0) {
        ++r.violations;
        r.worst_violation = std::max(r.worst_violation, excess);
      }
    }
    results.push_back(r);
  }

  // ---- Consistency ----
  {
    RuleResult r{.rule = "consistency", .trials = options.trials};
    for (size_t t = 0; t < options.trials; ++t) {
      const int col = pick_col();
      const Column& column = table.column(static_cast<size_t>(col));
      Query base = RandomRangeQuery(table, col, rng);
      // Split at a domain value strictly inside (lo, hi]: left gets
      // [lo, prev(m)], right gets [m, hi] — disjoint and exhaustive over
      // the discrete domain.
      const int lo_code = column.LowerBoundCode(base.predicates[0].lo);
      const int hi_code = column.UpperBoundCode(base.predicates[0].hi);
      if (hi_code - lo_code < 2) {
        --r.trials;
        continue;
      }
      const int m = lo_code + 1 +
                    static_cast<int>(rng.UniformInt(
                        static_cast<uint64_t>(hi_code - lo_code - 1)));
      Query left = base, right = base;
      left.predicates[0].hi = column.domain[static_cast<size_t>(m - 1)];
      right.predicates[0].lo = column.domain[static_cast<size_t>(m)];
      const double whole = estimator.EstimateSelectivity(base);
      const double parts = estimator.EstimateSelectivity(left) +
                           estimator.EstimateSelectivity(right);
      const double diff = std::fabs(whole - parts);
      const double allowed = options.absolute_tolerance +
                             options.relative_tolerance *
                                 std::max(whole, parts);
      if (diff > allowed) {
        ++r.violations;
        r.worst_violation = std::max(r.worst_violation, diff - allowed);
      }
    }
    results.push_back(r);
  }

  // ---- Stability ----
  {
    RuleResult r{.rule = "stability", .trials = options.trials};
    for (size_t t = 0; t < options.trials; ++t) {
      const Query query = RandomRangeQuery(table, pick_col(), rng);
      const double first = estimator.EstimateSelectivity(query);
      double worst = 0.0;
      for (int rep = 0; rep < 4; ++rep) {
        worst = std::max(
            worst, std::fabs(estimator.EstimateSelectivity(query) - first));
      }
      if (worst > options.absolute_tolerance) {
        ++r.violations;
        r.worst_violation = std::max(r.worst_violation, worst);
      }
    }
    results.push_back(r);
  }

  // ---- Fidelity-A: whole-domain query estimates 1. ----
  {
    RuleResult r{.rule = "fidelity-a", .trials = options.trials};
    for (size_t t = 0; t < options.trials; ++t) {
      // Whole-domain predicates on a random subset of columns (any arity):
      // SELECT * WHERE min_i <= A_i <= max_i for each chosen i.
      const int arity = 1 + static_cast<int>(rng.UniformInt(
                                static_cast<uint64_t>(table.num_cols())));
      const std::vector<int> chosen = rng.SampleWithoutReplacement(
          static_cast<int>(table.num_cols()), arity);
      Query query;
      for (int col : chosen) {
        const Column& column = table.column(static_cast<size_t>(col));
        query.predicates.push_back({col, column.min(), column.max()});
      }
      const double est = estimator.EstimateSelectivity(query);
      const double diff = std::fabs(est - 1.0);
      if (diff > options.relative_tolerance) {
        ++r.violations;
        r.worst_violation = std::max(r.worst_violation, diff);
      }
    }
    results.push_back(r);
  }

  // ---- Fidelity-B: invalid predicate estimates 0. ----
  {
    RuleResult r{.rule = "fidelity-b", .trials = options.trials};
    for (size_t t = 0; t < options.trials; ++t) {
      const int col = pick_col();
      const Column& column = table.column(static_cast<size_t>(col));
      const size_t domain = column.domain.size();
      const size_t a = 1 + rng.UniformInt(static_cast<uint64_t>(domain - 1));
      Query query;
      // lo > hi: e.g. WHERE 100 <= A <= 10.
      query.predicates.push_back(
          {col, column.domain[a], column.domain[a / 2]});
      const double est = estimator.EstimateSelectivity(query);
      if (est > options.absolute_tolerance) {
        ++r.violations;
        r.worst_violation = std::max(r.worst_violation, est);
      }
    }
    results.push_back(r);
  }

  return results;
}

}  // namespace arecel
