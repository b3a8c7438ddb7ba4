#include "data/datasets.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/random.h"

namespace arecel {

namespace {

// Maps a dictionary code to a numeric attribute value with mildly nonuniform
// spacing (k^1.1). Keeping the mapping monotone preserves range semantics
// while violating the uniform-spread assumption that histogram estimators
// make, as real numeric attributes do.
double NumericAnchor(int code) {
  return std::pow(static_cast<double>(code), 1.1);
}

}  // namespace

DatasetSpec CensusSpec() {
  DatasetSpec s;
  s.name = "census";
  s.rows = 49000;
  s.num_cols = 13;
  s.num_categorical = 8;
  s.domain_sizes = {73, 9, 16, 16, 7, 15, 6, 5, 92, 95, 94, 42, 2};
  s.skews = {0.6, 1.2, 0.8, 0.8, 0.9, 1.0, 1.1, 0.7, 1.4, 1.5, 0.5, 0.9, 0.3};
  s.correlations = {0.9, 0.5, 0.95, 0.9, 0.7, 0.85, 0.6, 0.4,
                    0.9, 0.85, 0.3, 0.7, 0.5};
  return s;
}

DatasetSpec ForestSpec() {
  DatasetSpec s;
  s.name = "forest";
  s.rows = 120000;
  s.num_cols = 10;
  s.num_categorical = 0;
  s.domain_sizes = {500, 400, 60, 560, 700, 550, 207, 185, 255, 700};
  s.skews = {0.4, 0.5, 0.7, 0.8, 1.0, 0.6, 0.3, 0.3, 0.4, 0.9};
  s.correlations = {0.95, 0.9, 0.6, 0.7, 0.85, 0.7, 0.95, 0.9, 0.85, 0.5};
  return s;
}

DatasetSpec PowerSpec() {
  DatasetSpec s;
  s.name = "power";
  s.rows = 200000;
  s.num_cols = 7;
  s.num_categorical = 0;
  s.domain_sizes = {300, 250, 2000, 400, 90, 80, 30};
  s.skews = {0.8, 0.9, 0.5, 0.7, 1.1, 1.2, 0.6};
  s.correlations = {0.95, 0.95, 0.8, 0.9, 0.7, 0.7, 0.4};
  return s;
}

DatasetSpec DmvSpec() {
  DatasetSpec s;
  s.name = "dmv";
  s.rows = 300000;
  s.num_cols = 11;
  s.num_categorical = 10;
  s.domain_sizes = {9, 25, 60, 2, 3, 90, 600, 30, 5, 2, 2000};
  s.skews = {1.3, 1.0, 0.9, 0.4, 0.5, 1.2, 0.8, 1.0, 0.7, 0.2, 0.6};
  s.correlations = {0.7, 0.85, 0.9, 0.4, 0.5, 0.85, 0.95, 0.7, 0.5, 0.3, 0.9};
  return s;
}

Table GenerateDataset(const DatasetSpec& spec, uint64_t seed) {
  ARECEL_CHECK(static_cast<int>(spec.domain_sizes.size()) == spec.num_cols);
  ARECEL_CHECK(static_cast<int>(spec.skews.size()) == spec.num_cols);
  ARECEL_CHECK(static_cast<int>(spec.correlations.size()) == spec.num_cols);

  Rng rng(seed);
  // Shared latent factor per row: columns copy it with per-column
  // probability `correlations[j]`, which induces pairwise correlation while
  // keeping each marginal exactly Zipf(skew_j) after inverse-CDF mapping.
  std::vector<double> latent(spec.rows);
  for (double& t : latent) t = rng.Uniform();

  Table table(spec.name);
  for (int j = 0; j < spec.num_cols; ++j) {
    const int d = spec.domain_sizes[j];
    const bool categorical = j < spec.num_categorical;
    // Inverse-CDF table for the Zipf marginal. Alternating columns reverse
    // the code direction so not every pair is co-monotone, but the
    // dependence stays smooth/monotone — the kind real attributes exhibit
    // and dependence measures (RDC) and learned models can actually pick up
    // (a random code permutation would make the joint unlearnable noise).
    ZipfSampler zipf(static_cast<uint64_t>(d), spec.skews[j]);
    const bool reversed = (j % 2) == 1;
    // Each code's value, computed once per code instead of once per row.
    std::vector<double> value_of(static_cast<size_t>(d));
    for (int code = 0; code < d; ++code)
      value_of[static_cast<size_t>(code)] =
          categorical ? static_cast<double>(code) : NumericAnchor(code);

    std::vector<double> values(spec.rows);
    for (size_t r = 0; r < spec.rows; ++r) {
      const double u =
          rng.Bernoulli(spec.correlations[j]) ? latent[r] : rng.Uniform();
      const uint64_t rank = zipf.InvertCdf(u);
      values[r] = value_of[reversed ? static_cast<uint64_t>(d) - 1 - rank
                                    : rank];
    }
    const std::string prefix = categorical ? "cat_" : "num_";
    table.AddColumn(prefix + std::to_string(j), std::move(values),
                    categorical);
  }
  return table;
}

std::vector<Table> BenchmarkDatasets(double scale, uint64_t seed) {
  std::vector<DatasetSpec> specs = {CensusSpec(), ForestSpec(), PowerSpec(),
                                    DmvSpec()};
  std::vector<Table> tables;
  tables.reserve(specs.size());
  for (auto& spec : specs) {
    spec.rows = static_cast<size_t>(
        std::max(1000.0, static_cast<double>(spec.rows) * scale));
    tables.push_back(GenerateDataset(spec, seed));
  }
  return tables;
}

Table GenerateSynthetic2D(size_t rows, double skew, double correlation,
                          int domain_size, uint64_t seed) {
  ARECEL_CHECK(domain_size > 0);
  ARECEL_CHECK(correlation >= 0.0 && correlation <= 1.0);
  Rng rng(seed);
  std::vector<double> col_a(rows), col_b(rows);
  for (size_t r = 0; r < rows; ++r) {
    const double x = rng.SkewedUnit(skew);
    int a = static_cast<int>(x * domain_size);
    a = std::min(a, domain_size - 1);
    const int b = rng.Bernoulli(correlation)
                      ? a
                      : static_cast<int>(rng.UniformInt(
                            static_cast<uint64_t>(domain_size)));
    col_a[r] = static_cast<double>(a);
    col_b[r] = static_cast<double>(b);
  }
  Table table("synthetic2d");
  table.AddColumn("col0", std::move(col_a), /*categorical=*/false);
  table.AddColumn("col1", std::move(col_b), /*categorical=*/false);
  return table;
}

Table AppendCorrelatedUpdate(const Table& base, double fraction,
                             uint64_t seed) {
  ARECEL_CHECK(fraction > 0.0 && fraction <= 1.0);
  const size_t append_rows = static_cast<size_t>(
      static_cast<double>(base.num_rows()) * fraction);
  Rng rng(seed);
  const std::vector<int> ranks = rng.SampleWithoutReplacement(
      static_cast<int>(base.num_rows()), static_cast<int>(append_rows));
  return base.WithSortedRows(ranks);
}

}  // namespace arecel
