#include "scan/synopsis.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace arecel::scan {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Bitmap columns read u8 or u16 codes: the NaN sentinel must fit 16 bits.
static_assert(kMaxDictCodes < 65535);

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

// Sets the bit of every non-NaN code among codes[lo, hi).
template <typename Code>
void SetPresenceBits(const Code* codes, size_t lo, size_t hi,
                     uint32_t nan_code, uint64_t* words) {
  for (size_t r = lo; r < hi; ++r) {
    const uint32_t code = codes[r];
    if (code == nan_code) continue;  // NaN row: present in no code.
    words[code >> 6] |= 1ull << (code & 63);
  }
}

}  // namespace

TableSynopsis::TableSynopsis(const Table& table,
                             const SynopsisOptions& options)
    : block_size_(options.block_size), rows_(table.num_rows()) {
  ARECEL_CHECK_MSG(block_size_ > 0, "block size must be positive");
  num_blocks_ = (rows_ + block_size_ - 1) / block_size_;
  columns_.resize(table.num_cols());
  for (size_t c = 0; c < table.num_cols(); ++c) {
    const Column& column = table.column(c);
    BuildZoneMaps(column, columns_[c]);
    if (WithinCodeBudget(column)) BuildBitmaps(column, columns_[c]);
  }
}

void TableSynopsis::BuildZoneMaps(const Column& column,
                                  ColumnSynopsis& c) const {
  c.mins.resize(num_blocks_);
  c.maxs.resize(num_blocks_);
  c.has_nan.resize(num_blocks_);
  for (size_t b = 0; b < num_blocks_; ++b) {
    const size_t lo = b * block_size_;
    const size_t hi = std::min(rows_, lo + block_size_);
    // NaN never matches a predicate, so it must not widen the envelope;
    // an all-NaN block gets the empty envelope [+inf, -inf], which no
    // interval overlaps. Any NaN also vetoes wholesale counting. A block
    // that straddles a value-segment boundary is read one segment at a
    // time.
    double block_min = kInf;
    double block_max = -kInf;
    bool block_nan = false;
    for (size_t r = lo; r < hi;) {
      const ColumnValues::SegmentRef segment = column.values.SegmentAt(r);
      const size_t stop = std::min(hi, segment.end_row());
      const double* values = segment.values.data() + (r - segment.first_row);
      for (size_t i = 0; i < stop - r; ++i) {
        const double v = values[i];
        if (std::isnan(v)) {
          block_nan = true;
          continue;
        }
        block_min = std::min(block_min, v);
        block_max = std::max(block_max, v);
      }
      r = stop;
    }
    c.mins[b] = block_min;
    c.maxs[b] = block_max;
    c.has_nan[b] = block_nan ? 1 : 0;
  }
}

void TableSynopsis::BuildBitmaps(const Column& column,
                                 ColumnSynopsis& c) const {
  const size_t domain_size = column.domain_size();
  c.code_prefix.assign(domain_size + 1, 0);
  for (size_t i = 0; i < domain_size; ++i) {
    c.code_prefix[i + 1] = c.code_prefix[i] + column.counts[i];
  }
  const size_t words = (domain_size + 63) / 64;
  c.words_per_block = words;
  c.bitmap.assign(num_blocks_ * words, 0ull);
  for (size_t b = 0; b < num_blocks_; ++b) {
    const size_t lo = b * block_size_;
    const size_t hi = std::min(rows_, lo + block_size_);
    uint64_t* w = c.bitmap.data() + b * words;
    if (!column.codes8.empty()) {
      SetPresenceBits(column.codes8.data(), lo, hi, column.nan_code(), w);
    } else {
      SetPresenceBits(column.codes16.data(), lo, hi, column.nan_code(), w);
    }
  }
}

bool TableSynopsis::BitmapCanMatch(size_t block, size_t col, uint32_t lo,
                                   uint32_t hi) const {
  const ColumnSynopsis& c = columns_[col];
  const uint64_t* w = c.bitmap.data() + block * c.words_per_block;
  const size_t word_lo = lo >> 6;
  const size_t word_hi = hi >> 6;
  const uint64_t mask_lo = ~0ull << (lo & 63);
  const uint64_t mask_hi = ~0ull >> (63 - (hi & 63));
  if (word_lo == word_hi) return (w[word_lo] & mask_lo & mask_hi) != 0;
  if ((w[word_lo] & mask_lo) != 0) return true;
  for (size_t k = word_lo + 1; k < word_hi; ++k) {
    if (w[k] != 0) return true;
  }
  return (w[word_hi] & mask_hi) != 0;
}

double TableSynopsis::DictFraction(size_t col, uint32_t lo,
                                   uint32_t hi) const {
  if (lo > hi || rows_ == 0) return 0.0;
  const std::vector<uint64_t>& prefix = columns_[col].code_prefix;
  const uint64_t matching = prefix[hi + 1] - prefix[lo];
  return static_cast<double>(matching) / static_cast<double>(rows_);
}

size_t TableSynopsis::SizeBytes() const {
  size_t bytes = sizeof(*this) + VectorBytes(columns_);
  for (const ColumnSynopsis& c : columns_) {
    bytes += VectorBytes(c.mins) + VectorBytes(c.maxs) +
             VectorBytes(c.has_nan) + VectorBytes(c.bitmap) +
             VectorBytes(c.code_prefix);
  }
  return bytes;
}

}  // namespace arecel::scan
