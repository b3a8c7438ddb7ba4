#include "estimators/learned/lw_features.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace arecel {

namespace {
constexpr double kMinSelectivityFloor = 1e-12;
}  // namespace

void LwFeaturizer::Build(const Table& table, bool include_ce_features) {
  include_ce_features_ = include_ce_features;
  stats_.assign(table.num_cols(), ColumnStats());
  col_min_.resize(table.num_cols());
  col_max_.resize(table.num_cols());
  ColumnStats::Options options;
  options.num_buckets = 100;
  options.num_mcvs = 100;
  for (size_t c = 0; c < table.num_cols(); ++c) {
    stats_[c].BuildFromRuns(table.column(c).values.spans(), options);
    col_min_[c] = table.column(c).min();
    col_max_[c] = table.column(c).max();
  }
}

std::vector<double> LwFeaturizer::PerPredicateSelectivities(
    const Query& query) const {
  std::vector<double> sels;
  sels.reserve(query.predicates.size());
  for (const Predicate& p : query.predicates) {
    const ColumnStats& s = stats_[static_cast<size_t>(p.column)];
    const double sel = p.is_equality() ? s.EstimateEquality(p.lo)
                                       : s.EstimateRange(p.lo, p.hi);
    sels.push_back(std::clamp(sel, kMinSelectivityFloor, 1.0));
  }
  return sels;
}

double LwFeaturizer::Avi(const Query& query) const {
  double sel = 1.0;
  for (double s : PerPredicateSelectivities(query)) sel *= s;
  return sel;
}

double LwFeaturizer::MinSel(const Query& query) const {
  double min_sel = 1.0;
  for (double s : PerPredicateSelectivities(query))
    min_sel = std::min(min_sel, s);
  return min_sel;
}

double LwFeaturizer::Ebo(const Query& query) const {
  std::vector<double> sels = PerPredicateSelectivities(query);
  if (sels.empty()) return 1.0;
  std::sort(sels.begin(), sels.end());
  double sel = 1.0;
  double exponent = 1.0;
  for (size_t i = 0; i < sels.size() && i < 4; ++i) {
    sel *= std::pow(sels[i], exponent);
    exponent /= 2.0;
  }
  return sel;
}

std::vector<float> LwFeaturizer::Featurize(const Query& query) const {
  ARECEL_CHECK(!stats_.empty());
  const size_t n = stats_.size();
  std::vector<float> features(FeatureDim());
  // Default: unconstrained columns cover [0, 1].
  for (size_t c = 0; c < n; ++c) {
    features[2 * c] = 0.0f;
    features[2 * c + 1] = 1.0f;
  }
  for (const Predicate& p : query.predicates) {
    const size_t c = static_cast<size_t>(p.column);
    const double width = col_max_[c] - col_min_[c];
    const double span = width > 0 ? width : 1.0;
    const double lo = std::isinf(p.lo)
                          ? 0.0
                          : std::clamp((p.lo - col_min_[c]) / span, 0.0, 1.0);
    const double hi = std::isinf(p.hi)
                          ? 1.0
                          : std::clamp((p.hi - col_min_[c]) / span, 0.0, 1.0);
    features[2 * c] = static_cast<float>(lo);
    features[2 * c + 1] = static_cast<float>(hi);
  }
  if (include_ce_features_) {
    features[2 * n] = static_cast<float>(std::log(std::max(
        Avi(query), kMinSelectivityFloor)));
    features[2 * n + 1] = static_cast<float>(std::log(std::max(
        MinSel(query), kMinSelectivityFloor)));
    features[2 * n + 2] = static_cast<float>(std::log(std::max(
        Ebo(query), kMinSelectivityFloor)));
  }
  return features;
}

double LwFeaturizer::LogLabel(double selectivity, size_t rows) {
  const double floor_sel = 0.5 / static_cast<double>(std::max<size_t>(rows, 1));
  return std::log(std::max(selectivity, floor_sel));
}

void LwFeaturizer::Serialize(ByteWriter* writer) const {
  writer->U64(stats_.size());
  for (const ColumnStats& s : stats_) s.Serialize(writer);
  writer->Doubles(col_min_);
  writer->Doubles(col_max_);
  writer->U32(include_ce_features_ ? 1 : 0);
}

bool LwFeaturizer::Deserialize(ByteReader* reader) {
  uint64_t count = 0;
  if (!reader->U64(&count) || count > 4096) return false;
  stats_.assign(count, ColumnStats());
  for (ColumnStats& s : stats_) {
    if (!s.Deserialize(reader)) return false;
  }
  uint32_t include = 0;
  if (!reader->Doubles(&col_min_) || !reader->Doubles(&col_max_) ||
      !reader->U32(&include)) {
    return false;
  }
  if (col_min_.size() != stats_.size() || col_max_.size() != stats_.size())
    return false;
  // A non-finite range would make every range feature on its column NaN.
  for (size_t c = 0; c < stats_.size(); ++c) {
    if (!std::isfinite(col_min_[c]) || !std::isfinite(col_max_[c]) ||
        col_min_[c] > col_max_[c]) {
      return false;
    }
  }
  include_ce_features_ = include != 0;
  return true;
}

size_t LwFeaturizer::SizeBytes() const {
  size_t total = 0;
  for (const ColumnStats& s : stats_) total += s.SizeBytes();
  return total;
}

}  // namespace arecel
