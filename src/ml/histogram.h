#ifndef ARECEL_ML_HISTOGRAM_H_
#define ARECEL_ML_HISTOGRAM_H_

#include <cstddef>
#include <span>
#include <vector>

#include "util/archive.h"

namespace arecel {

// Equi-depth (equi-height) one-dimensional histogram over raw values.
// Buckets hold equal row mass; estimates interpolate linearly inside a
// bucket (the classic uniform-spread assumption).
class EquiDepthHistogram {
 public:
  EquiDepthHistogram() = default;

  // Builds over `values` (unsorted ok) with at most `max_buckets` buckets.
  void Build(const std::vector<double>& values, int max_buckets);

  // Fraction of rows with value in [lo, hi] (inclusive; +/-inf allowed).
  double EstimateRange(double lo, double hi) const;

  void Serialize(ByteWriter* writer) const;
  bool Deserialize(ByteReader* reader);

  bool empty() const { return boundaries_.empty(); }
  size_t num_buckets() const {
    return boundaries_.empty() ? 0 : boundaries_.size() - 1;
  }
  size_t SizeBytes() const { return boundaries_.size() * sizeof(double); }

 private:
  // boundaries_[i], boundaries_[i+1] delimit bucket i; each bucket holds
  // 1/num_buckets of the mass.
  std::vector<double> boundaries_;
};

// Per-column statistics in the style of pg_stats: a most-common-values list
// plus an equi-depth histogram over the remaining rows, and a distinct
// count. This is the statistics object behind the Postgres/MySQL/DBMS-A
// estimator stand-ins and the CE features (AVI/MinSel/EBO) of LW-XGB/NN.
class ColumnStats {
 public:
  struct Options {
    int num_buckets = 100;  // "statistics target".
    int num_mcvs = 100;
  };

  void Build(const std::vector<double>& values, const Options& options);
  // Builds over a column held as contiguous runs of values, read in order
  // (a table column's ColumnValues::spans()); Build is the one-run case.
  void BuildFromRuns(std::span<const std::span<const double>> runs,
                     const Options& options);

  // Selectivity of lo <= col <= hi (inclusive, +/-inf allowed).
  double EstimateRange(double lo, double hi) const;

  // Selectivity of col = v.
  double EstimateEquality(double v) const;

  void Serialize(ByteWriter* writer) const;
  bool Deserialize(ByteReader* reader);

  size_t distinct_count() const { return distinct_count_; }
  size_t SizeBytes() const;

 private:
  std::vector<double> mcv_values_;  // sorted.
  std::vector<double> mcv_freqs_;   // aligned with mcv_values_.
  double mcv_total_freq_ = 0.0;
  EquiDepthHistogram histogram_;    // over non-MCV rows.
  double histogram_mass_ = 0.0;     // 1 - mcv_total_freq_ (0 if no rows left).
  size_t distinct_count_ = 0;
  size_t row_count_ = 0;
};

}  // namespace arecel

#endif  // ARECEL_ML_HISTOGRAM_H_
