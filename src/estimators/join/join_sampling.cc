#include "estimators/join/join_sampling.h"

#include <algorithm>
#include <unordered_map>

#include "estimators/join/join_support.h"
#include "util/check.h"
#include "util/random.h"

namespace arecel {
namespace {

bool PredicatesHold(const std::vector<Predicate>& preds,
                    const std::vector<std::vector<double>>& columns,
                    size_t row) {
  for (const Predicate& p : preds) {
    ARECEL_CHECK(p.column >= 0 &&
                 static_cast<size_t>(p.column) < columns.size());
    if (!p.Matches(columns[static_cast<size_t>(p.column)][row])) return false;
  }
  return true;
}

}  // namespace

JoinSamplingEstimator::JoinSamplingEstimator(size_t max_sample_rows)
    : max_sample_rows_(std::max<size_t>(1, max_sample_rows)) {}

void JoinSamplingEstimator::TrainJoin(const Schema& schema,
                                      const TrainContext& context) {
  center_ = StarCenterTable(schema);
  joined_.clear();
  per_table_.clear();
  center_columns_.clear();
  center_sample_rows_ = 0;

  Rng rng(context.seed);

  // Per-table uniform samples for one-table queries.
  for (const Table& table : schema.tables()) {
    TableSample ts;
    ts.name = table.name();
    ts.table_rows = table.num_rows();
    ts.sample_rows = std::min(table.num_rows(), max_sample_rows_);
    ts.columns.assign(table.num_cols(),
                      std::vector<double>(ts.sample_rows));
    if (ts.sample_rows > 0) {
      const std::vector<int> rows = rng.SampleWithoutReplacement(
          static_cast<int>(table.num_rows()),
          static_cast<int>(ts.sample_rows));
      for (size_t c = 0; c < table.num_cols(); ++c) {
        const ColumnValues& values = table.column(c).values;
        for (size_t i = 0; i < rows.size(); ++i) {
          ts.columns[c][i] = values[static_cast<size_t>(rows[i])];
        }
      }
    }
    per_table_.push_back(std::move(ts));
  }

  // Correlated joined sample anchored on the center.
  const Table& center = schema.table(center_);
  center_sample_rows_ = std::min(center.num_rows(), max_sample_rows_);
  std::vector<int> picks;
  if (center_sample_rows_ > 0) {
    picks = rng.SampleWithoutReplacement(
        static_cast<int>(center.num_rows()),
        static_cast<int>(center_sample_rows_));
  }
  center_columns_.assign(center.num_cols(),
                         std::vector<double>(center_sample_rows_));
  for (size_t c = 0; c < center.num_cols(); ++c) {
    const ColumnValues& values = center.column(c).values;
    for (size_t i = 0; i < picks.size(); ++i) {
      center_columns_[c][i] = values[static_cast<size_t>(picks[i])];
    }
  }

  for (const ForeignKey& fk : schema.foreign_keys()) {
    const bool center_referencing = fk.table == center_;
    const std::string& dim_name =
        center_referencing ? fk.ref_table : fk.table;
    const int center_col = center_referencing ? fk.column : fk.ref_column;
    const int dim_col = center_referencing ? fk.ref_column : fk.column;
    const Table& dim = schema.table(dim_name);

    // Key -> (representative row, multiplicity).
    std::unordered_map<double, std::pair<size_t, double>> index;
    const ColumnValues& keys = dim.column(static_cast<size_t>(dim_col)).values;
    index.reserve(keys.size());
    for (size_t r = 0; r < keys.size(); ++r) {
      auto [it, inserted] = index.try_emplace(keys[r], r, 1.0);
      if (!inserted) it->second.second += 1.0;
    }

    JoinedDimension jd;
    jd.name = dim_name;
    jd.table_rows = dim.num_rows();
    jd.columns.assign(dim.num_cols(),
                      std::vector<double>(center_sample_rows_, 0.0));
    jd.weight.assign(center_sample_rows_, 0.0);
    const std::vector<double>& fk_values =
        center_columns_[static_cast<size_t>(center_col)];
    for (size_t i = 0; i < center_sample_rows_; ++i) {
      const auto it = index.find(fk_values[i]);
      if (it == index.end()) continue;  // dangling FK: weight stays 0.
      jd.weight[i] = it->second.second;
      const size_t row = it->second.first;
      for (size_t c = 0; c < dim.num_cols(); ++c) {
        jd.columns[c][i] = dim.column(c).values[row];
      }
    }
    joined_.push_back(std::move(jd));
  }
}

void JoinSamplingEstimator::Train(const Table& table,
                                  const TrainContext& context) {
  TrainJoin(WrapSingleTable(table), context);
}

const JoinSamplingEstimator::JoinedDimension*
JoinSamplingEstimator::FindDimension(const std::string& name) const {
  for (const JoinedDimension& jd : joined_)
    if (jd.name == name) return &jd;
  return nullptr;
}

double JoinSamplingEstimator::EstimateSelectivity(const Query& query) const {
  ARECEL_CHECK_MSG(!per_table_.empty(), "Train() must run first");
  const std::vector<const TableSample*> tables =
      ResolveQueryTables(query, per_table_);
  if (!query.IsSatisfiable()) return 0.0;

  if (tables.size() == 1) {
    const TableSample& ts = *tables[0];
    if (ts.sample_rows == 0) return 0.0;
    size_t matches = 0;
    for (size_t r = 0; r < ts.sample_rows; ++r) {
      if (PredicatesHold(query.predicates, ts.columns, r)) ++matches;
    }
    return std::clamp(static_cast<double>(matches) /
                          static_cast<double>(ts.sample_rows),
                      0.0, 1.0);
  }

  // Multi-table: walk the correlated sample. The query must be anchored on
  // the schema's star center (every generated workload is).
  const int center_slot = query.TableIndex(center_);
  ARECEL_CHECK_MSG(center_slot >= 0,
                   "join query does not include the star center");
  if (center_sample_rows_ == 0) return 0.0;
  const std::vector<Predicate> center_predicates =
      query.TablePredicates(center_slot);

  struct DimProbe {
    const JoinedDimension* dim;
    std::vector<Predicate> predicates;
  };
  std::vector<DimProbe> dims;
  double denom = 1.0;
  for (size_t t = 0; t < query.tables.size(); ++t) {
    if (static_cast<int>(t) == center_slot) continue;
    const JoinedDimension* jd = FindDimension(query.tables[t]);
    ARECEL_CHECK_MSG(jd != nullptr, query.tables[t].c_str());
    if (jd->table_rows == 0) return 0.0;
    dims.push_back({jd, query.TablePredicates(static_cast<int>(t))});
    denom *= static_cast<double>(jd->table_rows);
  }

  double matched = 0.0;
  for (size_t r = 0; r < center_sample_rows_; ++r) {
    if (!PredicatesHold(center_predicates, center_columns_, r)) continue;
    double weight = 1.0;
    for (const DimProbe& probe : dims) {
      if (probe.dim->weight[r] == 0.0 ||
          !PredicatesHold(probe.predicates, probe.dim->columns, r)) {
        weight = 0.0;
        break;
      }
      weight *= probe.dim->weight[r];
    }
    matched += weight;
  }
  const double fraction =
      matched / static_cast<double>(center_sample_rows_);
  return std::clamp(fraction / denom, 0.0, 1.0);
}

size_t JoinSamplingEstimator::SizeBytes() const {
  size_t total = 0;
  for (const TableSample& ts : per_table_) {
    total += ts.columns.size() * ts.sample_rows * sizeof(double);
  }
  for (const JoinedDimension& jd : joined_) {
    total += (jd.columns.size() + 1) * center_sample_rows_ * sizeof(double);
  }
  return total;
}

std::unique_ptr<CardinalityEstimator> MakeJoinSamplingEstimator() {
  return std::make_unique<JoinSamplingEstimator>();
}

}  // namespace arecel
