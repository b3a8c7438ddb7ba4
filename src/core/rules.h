#ifndef ARECEL_CORE_RULES_H_
#define ARECEL_CORE_RULES_H_

#include <string>
#include <vector>

#include "core/estimator.h"
#include "util/random.h"

namespace arecel {

// The five logical rules for cardinality estimators proposed in §6.3:
//   Monotonicity — a stricter predicate must not increase the estimate;
//   Consistency  — a query equals the sum of its disjoint splits;
//   Stability    — the same query always gets the same estimate;
//   Fidelity-A   — querying the whole domain estimates selectivity 1;
//   Fidelity-B   — an invalid predicate (lo > hi) estimates 0.
// The checker probes the estimator's native output (no fix-up wrappers),
// as the paper does, and reports violation counts per rule.

struct RuleCheckOptions {
  size_t trials = 50;
  uint64_t seed = 99;
  // Relative slack for Monotonicity/Consistency/Fidelity-A and absolute
  // slack for Stability/Fidelity-B (in selectivity units).
  double relative_tolerance = 1e-6;
  double absolute_tolerance = 1e-9;
};

struct RuleResult {
  std::string rule;
  size_t trials = 0;
  size_t violations = 0;
  double worst_violation = 0.0;  // largest observed excess, selectivity units.

  bool satisfied() const { return violations == 0; }
};

// Runs all five rules against `estimator` (already trained on `table`).
// Returns results in the order: Monotonicity, Consistency, Stability,
// Fidelity-A, Fidelity-B.
std::vector<RuleResult> CheckLogicalRules(
    const CardinalityEstimator& estimator, const Table& table,
    const RuleCheckOptions& options = {});

// Range probes, shared with the conformance invariants (src/testing/).
// Columns with enough distinct values to shrink/split a range
// meaningfully: non-categorical with at least 8 domain values.
std::vector<int> RangeableColumns(const Table& table);

// A random closed-range query on one of those columns, spanning at least
// five domain values. Draws two values from `rng`.
Query RandomRangeQuery(const Table& table, int col, Rng& rng);

}  // namespace arecel

#endif  // ARECEL_CORE_RULES_H_
