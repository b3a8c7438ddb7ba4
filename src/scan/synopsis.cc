#include "scan/synopsis.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace arecel::scan {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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
    : options_(options) {
  ARECEL_CHECK_MSG(options_.block_size > 0, "block size must be positive");
  ARECEL_CHECK_MSG(options_.max_dict_codes <= 65535,
                   "bitmap columns must have u8/u16 codes");
  Build(table);
}

void TableSynopsis::Build(const Table& table) {
  const size_t cols = table.num_cols();
  rows_ = table.num_rows();
  num_blocks_ = (rows_ + options_.block_size - 1) / options_.block_size;
  mins_.assign(cols, {});
  maxs_.assign(cols, {});
  has_nan_.assign(cols, {});
  dicts_.assign(cols, {});
  minis_.assign(cols, {});
  BuildBlocks(table, 0);
}

void TableSynopsis::ExtendTo(const Table& table) {
  const bool shape_changed =
      table.num_cols() != mins_.size() || table.num_rows() < rows_;
  if (shape_changed) {
    Build(table);
    return;
  }
  // The append only dirtied the last previously-covered block (it may have
  // been partial) and created blocks after it; everything before is
  // immutable under the AppendRows contract.
  const size_t first_block = rows_ / options_.block_size;
  rows_ = table.num_rows();
  num_blocks_ = (rows_ + options_.block_size - 1) / options_.block_size;
  BuildBlocks(table, first_block);
}

void TableSynopsis::BuildBlocks(const Table& table, size_t first_block) {
  for (size_t c = 0; c < table.num_cols(); ++c) {
    const double* values = table.column(c).values.data();
    mins_[c].resize(num_blocks_);
    maxs_[c].resize(num_blocks_);
    has_nan_[c].resize(num_blocks_);
    for (size_t b = first_block; b < num_blocks_; ++b) {
      const size_t lo = b * options_.block_size;
      const size_t hi = std::min(rows_, lo + options_.block_size);
      // NaN never matches a predicate, so it must not widen the envelope;
      // an all-NaN block gets the empty envelope [+inf, -inf], which no
      // interval overlaps. Any NaN also vetoes wholesale counting.
      double block_min = kInf;
      double block_max = -kInf;
      bool block_nan = false;
      for (size_t r = lo; r < hi; ++r) {
        const double v = values[r];
        if (std::isnan(v)) {
          block_nan = true;
          continue;
        }
        block_min = std::min(block_min, v);
        block_max = std::max(block_max, v);
      }
      mins_[c][b] = block_min;
      maxs_[c][b] = block_max;
      has_nan_[c][b] = block_nan ? 1 : 0;
    }
    if (options_.rich) BuildColumn(table.column(c), c, first_block);
  }
}

void TableSynopsis::BuildColumn(const Column& column, size_t col,
                                size_t first_block) {
  DictColumn& d = dicts_[col];
  if (column.domain_size() > options_.max_dict_codes) {
    if (d.active) {
      // The append pushed the column past the code budget: demote it to
      // the mini-histogram layer. Appends only ever grow a domain, so it
      // stays there.
      d = DictColumn{};
      first_block = 0;
    }
    BuildMiniBlocks(column, col, first_block);
    return;
  }
  // A grown domain moved the codes: every bitmap is stale.
  if (column.domain_size() != d.domain_size) first_block = 0;
  d.active = true;
  d.domain_size = column.domain_size();
  d.words_per_block = (d.domain_size + 63) / 64;
  d.code_prefix.assign(d.domain_size + 1, 0);
  for (size_t i = 0; i < d.domain_size; ++i) {
    d.code_prefix[i + 1] = d.code_prefix[i] + column.counts[i];
  }
  BuildBitmaps(column, d, first_block);
}

void TableSynopsis::BuildBitmaps(const Column& column, DictColumn& d,
                                 size_t first_block) {
  const size_t words = d.words_per_block;
  d.bitmap.resize(num_blocks_ * words);
  for (size_t b = first_block; b < num_blocks_; ++b) {
    const size_t lo = b * options_.block_size;
    const size_t hi = std::min(rows_, lo + options_.block_size);
    uint64_t* w = d.bitmap.data() + b * words;
    std::fill(w, w + words, 0ull);
    if (!column.codes8.empty()) {
      SetPresenceBits(column.codes8.data(), lo, hi, column.nan_code(), w);
    } else {
      SetPresenceBits(column.codes16.data(), lo, hi, column.nan_code(), w);
    }
  }
}

void TableSynopsis::BuildMiniBlocks(const Column& column, size_t col,
                                    size_t first_block) {
  std::vector<uint32_t>& histogram = minis_[col];
  const double* values = column.values.data();
  histogram.resize(num_blocks_ * kHistogramBuckets);
  for (size_t b = first_block; b < num_blocks_; ++b) {
    const size_t lo = b * options_.block_size;
    const size_t hi = std::min(rows_, lo + options_.block_size);
    uint32_t* hist = histogram.data() + b * kHistogramBuckets;
    std::fill(hist, hist + kHistogramBuckets, 0u);
    const double bmin = mins_[col][b];
    const double bmax = maxs_[col][b];
    const double width =
        bmax > bmin ? (bmax - bmin) / static_cast<double>(kHistogramBuckets)
                    : 0.0;
    for (size_t r = lo; r < hi; ++r) {
      const double v = values[r];
      if (std::isnan(v)) continue;  // counted in no bucket: never matches.
      size_t idx = 0;
      if (width > 0.0) {
        idx = std::min(kHistogramBuckets - 1,
                       static_cast<size_t>((v - bmin) / width));
      }
      ++hist[idx];
    }
  }
}

bool TableSynopsis::BitmapCanMatch(size_t block, size_t col, uint32_t lo,
                                   uint32_t hi) const {
  const DictColumn& d = dicts_[col];
  const uint64_t* w = d.bitmap.data() + block * d.words_per_block;
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
  const DictColumn& d = dicts_[col];
  const uint64_t matching = d.code_prefix[hi + 1] - d.code_prefix[lo];
  return static_cast<double>(matching) / static_cast<double>(rows_);
}

bool TableSynopsis::HistogramCanMatch(size_t block, size_t col, double lo,
                                      double hi) const {
  const double bmin = mins_[col][block];
  const double bmax = maxs_[col][block];
  if (bmin > bmax) return false;  // all-NaN block: empty envelope.
  const double clamped_lo = std::max(lo, bmin);
  const double clamped_hi = std::min(hi, bmax);
  if (clamped_lo > clamped_hi) return false;
  const double width =
      bmax > bmin ? (bmax - bmin) / static_cast<double>(kHistogramBuckets)
                  : 0.0;
  size_t b_lo = 0;
  size_t b_hi = 0;
  if (width > 0.0) {
    // Same index formula as the build pass; IEEE subtraction/division are
    // monotone, so every matching value's bucket lies in [b_lo, b_hi].
    b_lo = std::min(kHistogramBuckets - 1,
                    static_cast<size_t>((clamped_lo - bmin) / width));
    b_hi = std::min(kHistogramBuckets - 1,
                    static_cast<size_t>((clamped_hi - bmin) / width));
  }
  const uint32_t* hist = minis_[col].data() + block * kHistogramBuckets;
  for (size_t k = b_lo; k <= b_hi; ++k) {
    if (hist[k] != 0) return true;
  }
  return false;
}

size_t TableSynopsis::SizeBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& v : mins_) bytes += VectorBytes(v);
  for (const auto& v : maxs_) bytes += VectorBytes(v);
  for (const auto& v : has_nan_) bytes += VectorBytes(v);
  for (const DictColumn& d : dicts_) {
    bytes += VectorBytes(d.bitmap) + VectorBytes(d.code_prefix);
  }
  for (const auto& m : minis_) bytes += VectorBytes(m);
  return bytes;
}

}  // namespace arecel::scan
