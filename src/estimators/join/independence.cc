#include "estimators/join/independence.h"

#include <algorithm>

#include "estimators/join/join_support.h"
#include "util/check.h"

namespace arecel {

JoinIndependenceEstimator::JoinIndependenceEstimator(
    ColumnStats::Options options)
    : options_(options) {}

void JoinIndependenceEstimator::TrainJoin(const Schema& schema,
                                          const TrainContext& context) {
  (void)context;  // data-driven: statistics only.
  stats_.clear();
  stats_.reserve(schema.num_tables());
  for (const Table& table : schema.tables()) {
    TableStats ts;
    ts.name = table.name();
    ts.rows = table.num_rows();
    ts.columns.resize(table.num_cols());
    for (size_t c = 0; c < table.num_cols(); ++c) {
      ts.columns[c].BuildFromRuns(table.column(c).values.spans(), options_);
    }
    stats_.push_back(std::move(ts));
  }
}

void JoinIndependenceEstimator::Train(const Table& table,
                                      const TrainContext& context) {
  TrainJoin(WrapSingleTable(table), context);
}

const JoinIndependenceEstimator::TableStats* JoinIndependenceEstimator::Find(
    const std::string& name) const {
  for (const TableStats& ts : stats_)
    if (ts.name == name) return &ts;
  return nullptr;
}

double JoinIndependenceEstimator::EstimateSelectivity(
    const Query& query) const {
  ARECEL_CHECK_MSG(!stats_.empty(), "Train() must run first");
  const std::vector<const TableStats*> tables =
      ResolveQueryTables(query, stats_);
  if (!query.IsSatisfiable()) return 0.0;

  for (const TableStats* ts : tables) {
    if (ts->rows == 0) return 0.0;
  }
  double sel = 1.0;
  for (const Predicate& p : query.predicates) {
    const TableStats* ts = tables[static_cast<size_t>(p.table)];
    ARECEL_CHECK(p.column >= 0 &&
                 static_cast<size_t>(p.column) < ts->columns.size());
    const ColumnStats& col = ts->columns[static_cast<size_t>(p.column)];
    sel *= p.is_equality() ? col.EstimateEquality(p.lo)
                           : col.EstimateRange(p.lo, p.hi);
  }

  for (const JoinEdge& e : query.joins) {
    const TableStats* left = Find(e.left_table);
    const TableStats* right = Find(e.right_table);
    ARECEL_CHECK_MSG(left != nullptr, e.left_table.c_str());
    ARECEL_CHECK_MSG(right != nullptr, e.right_table.c_str());
    ARECEL_CHECK(e.left_column >= 0 && static_cast<size_t>(e.left_column) <
                                           left->columns.size());
    ARECEL_CHECK(e.right_column >= 0 && static_cast<size_t>(e.right_column) <
                                            right->columns.size());
    const size_t distinct = std::max(
        left->columns[static_cast<size_t>(e.left_column)].distinct_count(),
        right->columns[static_cast<size_t>(e.right_column)].distinct_count());
    if (distinct == 0) return 0.0;
    sel /= static_cast<double>(distinct);
  }
  return std::clamp(sel, 0.0, 1.0);
}

size_t JoinIndependenceEstimator::SizeBytes() const {
  size_t total = 0;
  for (const TableStats& ts : stats_) {
    for (const ColumnStats& col : ts.columns) total += col.SizeBytes();
  }
  return total;
}

std::unique_ptr<CardinalityEstimator> MakeJoinIndependenceEstimator() {
  return std::make_unique<JoinIndependenceEstimator>();
}

}  // namespace arecel
