#ifndef ARECEL_DATA_DATASETS_H_
#define ARECEL_DATA_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/table.h"

namespace arecel {

// Synthetic stand-ins for the paper's four real-world benchmark datasets
// (Table 3). The real data cannot be shipped, so each generator matches the
// published shape: column count, categorical/numeric ratio, per-column
// domain sizes (so the joint log-domain is in the paper's ballpark), heavy
// marginal skew, and cross-column correlation induced by shared latent
// factors. Row counts are scaled down so CPU-only benches finish quickly;
// `scale` multiplies the default row count.

struct DatasetSpec {
  std::string name;
  size_t rows = 0;
  int num_cols = 0;
  int num_categorical = 0;
  // Per-column generation knobs (size == num_cols).
  std::vector<int> domain_sizes;
  std::vector<double> skews;         // Zipf exponent per column.
  std::vector<double> correlations;  // weight on the shared latent factor.
};

// Specs mirroring the paper's Table 3 (rows scaled; see DESIGN.md §2).
DatasetSpec CensusSpec();
DatasetSpec ForestSpec();
DatasetSpec PowerSpec();
DatasetSpec DmvSpec();

// Generates a table from a spec. Deterministic given (spec, seed).
Table GenerateDataset(const DatasetSpec& spec, uint64_t seed);

// Convenience: all four benchmark tables at a given row scale.
std::vector<Table> BenchmarkDatasets(double scale, uint64_t seed);

// The §6.1 micro-benchmark generator: two columns, `rows` rows.
//  - column A: SkewedUnit(s) quantized to `domain_size` bins (codes 0..d-1);
//    s = 0 is uniform, larger s is more skewed.
//  - column B: equals A with probability `correlation`, otherwise an
//    independent uniform draw from the same domain. correlation = 1 makes
//    the columns functionally dependent.
Table GenerateSynthetic2D(size_t rows, double skew, double correlation,
                          int domain_size, uint64_t seed);

// The paper's §5.1 dynamic-environment update: samples `fraction` * rows
// tuples from the sorted-columns copy of `base` (maximal pairwise Spearman
// correlation; Table::WithSortedRows) and returns `base` with those
// tuples appended, as a version that shares `base`'s value segments. The
// appended part deliberately has different correlation characteristics
// from the original so a stale model degrades.
Table AppendCorrelatedUpdate(const Table& base, double fraction,
                             uint64_t seed);

}  // namespace arecel

#endif  // ARECEL_DATA_DATASETS_H_
