#include "ml/histogram.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/check.h"

namespace arecel {

void EquiDepthHistogram::Build(const std::vector<double>& values,
                               int max_buckets) {
  boundaries_.clear();
  if (values.empty()) return;
  ARECEL_CHECK(max_buckets >= 1);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  const size_t buckets = std::min<size_t>(static_cast<size_t>(max_buckets), n);
  boundaries_.reserve(buckets + 1);
  boundaries_.push_back(sorted.front());
  for (size_t b = 1; b < buckets; ++b) {
    const size_t idx = b * n / buckets;
    boundaries_.push_back(sorted[idx]);
  }
  boundaries_.push_back(sorted.back());
  // Collapse duplicate boundaries from heavy values; buckets keep equal
  // *intended* mass so we must remember how many original buckets each
  // surviving boundary pair spans. We re-expand instead: keep duplicates
  // (zero-width buckets are fine — EstimateRange treats them as point mass).
}

double EquiDepthHistogram::EstimateRange(double lo, double hi) const {
  if (boundaries_.empty() || lo > hi) return 0.0;
  const size_t buckets = boundaries_.size() - 1;
  const double per_bucket = 1.0 / static_cast<double>(buckets);
  double total = 0.0;
  for (size_t b = 0; b < buckets; ++b) {
    const double b_lo = boundaries_[b];
    const double b_hi = boundaries_[b + 1];
    if (hi < b_lo || lo > b_hi) continue;
    if (b_hi == b_lo) {
      // Zero-width bucket: a run of identical values; counts fully if the
      // point is inside the query range.
      if (lo <= b_lo && b_lo <= hi) total += per_bucket;
      continue;
    }
    const double clipped_lo = std::max(lo, b_lo);
    const double clipped_hi = std::min(hi, b_hi);
    const double frac = (clipped_hi - clipped_lo) / (b_hi - b_lo);
    total += per_bucket * std::clamp(frac, 0.0, 1.0);
  }
  return std::clamp(total, 0.0, 1.0);
}

void EquiDepthHistogram::Serialize(ByteWriter* writer) const {
  writer->Doubles(boundaries_);
}

bool EquiDepthHistogram::Deserialize(ByteReader* reader) {
  return reader->Doubles(&boundaries_);
}

void ColumnStats::Build(const std::vector<double>& values,
                        const Options& options) {
  const std::span<const double> run(values);
  BuildFromRuns({&run, 1}, options);
}

void ColumnStats::BuildFromRuns(std::span<const std::span<const double>> runs,
                                const Options& options) {
  mcv_values_.clear();
  mcv_freqs_.clear();
  mcv_total_freq_ = 0.0;
  row_count_ = 0;
  for (const std::span<const double> run : runs) row_count_ += run.size();
  if (row_count_ == 0) {
    distinct_count_ = 0;
    histogram_mass_ = 0.0;
    return;
  }

  std::unordered_map<double, size_t> counts;
  counts.reserve(row_count_ / 4);
  for (const std::span<const double> run : runs) {
    for (double v : run) ++counts[v];
  }
  distinct_count_ = counts.size();

  // Pick the top-k most common values (Postgres keeps those whose frequency
  // is above average; top-k by count is the same spirit and simpler).
  std::vector<std::pair<double, size_t>> freq(counts.begin(), counts.end());
  const size_t k =
      std::min<size_t>(static_cast<size_t>(options.num_mcvs), freq.size());
  std::partial_sort(freq.begin(), freq.begin() + static_cast<long>(k),
                    freq.end(), [](const auto& a, const auto& b) {
                      return a.second > b.second;
                    });
  freq.resize(k);
  std::sort(freq.begin(), freq.end());
  for (const auto& [v, c] : freq) {
    mcv_values_.push_back(v);
    mcv_freqs_.push_back(static_cast<double>(c) /
                         static_cast<double>(row_count_));
    mcv_total_freq_ += mcv_freqs_.back();
  }

  // Histogram over the rows not covered by the MCV list.
  std::vector<double> rest;
  rest.reserve(row_count_);
  for (const std::span<const double> run : runs) {
    for (double v : run) {
      if (!std::binary_search(mcv_values_.begin(), mcv_values_.end(), v))
        rest.push_back(v);
    }
  }
  histogram_mass_ = static_cast<double>(rest.size()) /
                    static_cast<double>(row_count_);
  if (!rest.empty()) {
    histogram_.Build(rest, options.num_buckets);
  } else {
    histogram_ = EquiDepthHistogram();
  }
}

double ColumnStats::EstimateRange(double lo, double hi) const {
  if (row_count_ == 0 || lo > hi) return 0.0;
  double total = 0.0;
  // MCV part: exact.
  const auto begin = std::lower_bound(mcv_values_.begin(), mcv_values_.end(),
                                      lo);
  for (auto it = begin; it != mcv_values_.end() && *it <= hi; ++it) {
    total += mcv_freqs_[static_cast<size_t>(it - mcv_values_.begin())];
  }
  // Histogram part: uniform-spread interpolation over the remaining mass.
  if (histogram_mass_ > 0.0 && !histogram_.empty())
    total += histogram_mass_ * histogram_.EstimateRange(lo, hi);
  return std::clamp(total, 0.0, 1.0);
}

double ColumnStats::EstimateEquality(double v) const {
  if (row_count_ == 0) return 0.0;
  const auto it = std::lower_bound(mcv_values_.begin(), mcv_values_.end(), v);
  if (it != mcv_values_.end() && *it == v)
    return mcv_freqs_[static_cast<size_t>(it - mcv_values_.begin())];
  // Postgres-style: remaining mass spread evenly over remaining distincts.
  const size_t remaining_distinct =
      distinct_count_ > mcv_values_.size()
          ? distinct_count_ - mcv_values_.size()
          : 1;
  return (1.0 - mcv_total_freq_) / static_cast<double>(remaining_distinct);
}

void ColumnStats::Serialize(ByteWriter* writer) const {
  writer->Doubles(mcv_values_);
  writer->Doubles(mcv_freqs_);
  writer->F64(mcv_total_freq_);
  histogram_.Serialize(writer);
  writer->F64(histogram_mass_);
  writer->U64(distinct_count_);
  writer->U64(row_count_);
}

bool ColumnStats::Deserialize(ByteReader* reader) {
  uint64_t distinct = 0, rows = 0;
  if (!reader->Doubles(&mcv_values_) || !reader->Doubles(&mcv_freqs_) ||
      !reader->F64(&mcv_total_freq_) || !histogram_.Deserialize(reader) ||
      !reader->F64(&histogram_mass_) || !reader->U64(&distinct) ||
      !reader->U64(&rows)) {
    return false;
  }
  if (mcv_values_.size() != mcv_freqs_.size()) return false;
  distinct_count_ = distinct;
  row_count_ = rows;
  return true;
}

size_t ColumnStats::SizeBytes() const {
  return (mcv_values_.size() + mcv_freqs_.size()) * sizeof(double) +
         histogram_.SizeBytes();
}

}  // namespace arecel
