#include "estimators/learned/binning.h"

#include <algorithm>

#include "util/check.h"

namespace arecel {

std::pair<int, int> ColumnBinning::Range(double lo, double hi) const {
  const auto first_it = std::lower_bound(bin_max.begin(), bin_max.end(), lo);
  const int first = static_cast<int>(first_it - bin_max.begin());
  const auto last_it = std::upper_bound(bin_min.begin(), bin_min.end(), hi);
  const int last = static_cast<int>(last_it - bin_min.begin()) - 1;
  return {first, last};
}

int ColumnBinning::BinForValue(double v) const {
  const auto it = std::upper_bound(bin_min.begin(), bin_min.end(), v);
  const int bin = static_cast<int>(it - bin_min.begin()) - 1;
  return std::clamp(bin, 0, num_bins() - 1);
}

std::vector<ColumnBinning> BuildColumnBinnings(const Table& table,
                                               int max_vocab) {
  ARECEL_CHECK(max_vocab >= 1);
  std::vector<ColumnBinning> binnings(table.num_cols());
  for (size_t c = 0; c < table.num_cols(); ++c) {
    const Column& col = table.column(c);
    ColumnBinning& binning = binnings[c];
    const int domain = static_cast<int>(col.domain.size());
    if (domain <= max_vocab) {
      binning.bin_min = col.domain;
      binning.bin_max = col.domain;
      continue;
    }
    // Pack sorted distinct values greedily so each bin holds roughly
    // rows / max_vocab rows.
    const std::vector<uint32_t>& value_counts = col.counts;
    const double target = static_cast<double>(col.values.size()) /
                          static_cast<double>(max_vocab);
    size_t bin_rows = 0;
    binning.bin_min.push_back(col.domain[0]);
    for (int v = 0; v < domain; ++v) {
      bin_rows += value_counts[static_cast<size_t>(v)];
      const bool last_value = v + 1 == domain;
      if ((static_cast<double>(bin_rows) >= target && !last_value &&
           static_cast<int>(binning.bin_min.size()) < max_vocab) ||
          last_value) {
        binning.bin_max.push_back(col.domain[static_cast<size_t>(v)]);
        if (!last_value)
          binning.bin_min.push_back(col.domain[static_cast<size_t>(v) + 1]);
        bin_rows = 0;
      }
    }
    ARECEL_CHECK(binning.bin_min.size() == binning.bin_max.size());
  }
  return binnings;
}

void EncodeRowsWithBinnings(const Table& table,
                            const std::vector<ColumnBinning>& binnings,
                            std::vector<int32_t>* codes) {
  const size_t n = table.num_cols();
  const size_t rows = table.num_rows();
  ARECEL_CHECK(binnings.size() == n);
  codes->resize(rows * n);
  for (size_t c = 0; c < n; ++c) {
    const Column& col = table.column(c);
    const ColumnBinning& binning = binnings[c];
    // One entry past the domain for the NaN code: NaN rows go to the last
    // bin, as BinForValue(NaN) does (no bin_min compares above NaN).
    std::vector<int32_t> code_to_bin(col.domain.size() + 1);
    for (size_t d = 0; d < col.domain.size(); ++d)
      code_to_bin[d] = binning.BinForValue(col.domain[d]);
    code_to_bin.back() = binning.num_bins() - 1;
    for (size_t r = 0; r < rows; ++r)
      (*codes)[r * n + c] = code_to_bin[col.code(r)];
  }
}

}  // namespace arecel
