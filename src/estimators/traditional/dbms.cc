#include "estimators/traditional/dbms.h"

#include <algorithm>
#include <cmath>

namespace arecel {

void PerColumnStatsEstimator::Train(const Table& table,
                                    const TrainContext& /*context*/) {
  stats_.assign(table.num_cols(), ColumnStats());
  for (size_t c = 0; c < table.num_cols(); ++c) {
    stats_[c].BuildFromRuns(table.column(c).values.spans(), options_);
  }
}

double PerColumnStatsEstimator::EstimateSelectivity(
    const Query& query) const {
  std::vector<double> sels;
  sels.reserve(query.predicates.size());
  for (const Predicate& p : query.predicates) {
    const ColumnStats& s = stats_[static_cast<size_t>(p.column)];
    const double sel = p.is_equality() ? s.EstimateEquality(p.lo)
                                       : s.EstimateRange(p.lo, p.hi);
    sels.push_back(std::clamp(sel, 0.0, 1.0));
  }
  if (sels.empty()) return 1.0;

  if (combination_ == Combination::kIndependence) {
    double sel = 1.0;
    for (double s : sels) sel *= s;
    return sel;
  }
  // Exponential backoff: multiply the four most selective predicates with
  // exponentially decaying weights; further predicates are assumed to be
  // redundant with the first four.
  std::sort(sels.begin(), sels.end());
  double sel = 1.0;
  double exponent = 1.0;
  for (size_t i = 0; i < sels.size() && i < 4; ++i) {
    sel *= std::pow(sels[i], exponent);
    exponent /= 2.0;
  }
  return sel;
}

bool PerColumnStatsEstimator::SerializeModel(ByteWriter* writer) const {
  writer->U64(stats_.size());
  for (const ColumnStats& s : stats_) s.Serialize(writer);
  return true;
}

bool PerColumnStatsEstimator::DeserializeModel(ByteReader* reader) {
  uint64_t count = 0;
  if (!reader->U64(&count) || count > 4096) return false;
  stats_.assign(count, ColumnStats());
  for (ColumnStats& s : stats_) {
    if (!s.Deserialize(reader)) return false;
  }
  return true;
}

size_t PerColumnStatsEstimator::SizeBytes() const {
  size_t total = 0;
  for (const ColumnStats& s : stats_) total += s.SizeBytes();
  return total;
}

std::unique_ptr<CardinalityEstimator> MakePostgresEstimator() {
  ColumnStats::Options options;
  options.num_buckets = 1000;  // statistics target 10000 scaled to our data.
  options.num_mcvs = 1000;
  return std::make_unique<PerColumnStatsEstimator>(
      "postgres", options, PerColumnStatsEstimator::Combination::kIndependence);
}

std::unique_ptr<CardinalityEstimator> MakeMysqlEstimator() {
  ColumnStats::Options options;
  options.num_buckets = 100;  // MySQL's singleton+equi-height histograms
  options.num_mcvs = 24;      // resolve far less than Postgres' target.
  return std::make_unique<PerColumnStatsEstimator>(
      "mysql", options, PerColumnStatsEstimator::Combination::kIndependence);
}

std::unique_ptr<CardinalityEstimator> MakeDbmsAEstimator() {
  ColumnStats::Options options;
  options.num_buckets = 200;
  options.num_mcvs = 200;
  return std::make_unique<PerColumnStatsEstimator>(
      "dbms-a", options,
      PerColumnStatsEstimator::Combination::kExponentialBackoff);
}

}  // namespace arecel
