#include "data/table.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <type_traits>

#include "util/check.h"
#include "util/hash.h"
#include "util/random.h"

namespace arecel {

namespace {

constexpr uint32_t kNoId = std::numeric_limits<uint32_t>::max();

// Calls fn with the code vector col stores its codes in: the narrowest
// that holds its domain's NaN sentinel, col.nan_code().
template <typename Fn>
void WithCodes(Column& col, Fn&& fn) {
  const size_t domain_size = col.domain.size();
  if (domain_size < (size_t{1} << 8)) {
    fn(col.codes8);
  } else if (domain_size < (size_t{1} << 16)) {
    fn(col.codes16);
  } else {
    fn(col.codes32);
  }
}

template <typename Vector>
using CodeOf = typename std::decay_t<Vector>::value_type;

// col's code vector of element type Code.
template <typename Code>
const std::vector<Code>& CodesOfWidth(const Column& col) {
  if constexpr (std::is_same_v<Code, uint8_t>) {
    return col.codes8;
  } else if constexpr (std::is_same_v<Code, uint16_t>) {
    return col.codes16;
  } else {
    return col.codes32;
  }
}

// Open-addressing map from a value's canonical bits to a dense id in
// first-seen order. Empty slots hold kNoId, so the all-zero key (+0.0)
// needs no special casing.
class ValueIds {
 public:
  ValueIds() { Rehash(16); }

  // Returns the id of `bits`, assigning the next id when it is new.
  uint32_t Intern(uint64_t bits) {
    size_t slot = SplitMix64(bits) & mask_;
    while (ids_[slot] != kNoId) {
      if (keys_[slot] == bits) return ids_[slot];
      slot = (slot + 1) & mask_;
    }
    const uint32_t id = static_cast<uint32_t>(size_++);
    keys_[slot] = bits;
    ids_[slot] = id;
    if (2 * size_ > ids_.size()) Rehash(2 * ids_.size());
    return id;
  }

 private:
  void Rehash(size_t capacity) {
    std::vector<uint64_t> keys(capacity, 0);
    std::vector<uint32_t> ids(capacity, kNoId);
    mask_ = capacity - 1;
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] == kNoId) continue;
      size_t slot = SplitMix64(keys_[i]) & mask_;
      while (ids[slot] != kNoId) slot = (slot + 1) & mask_;
      keys[slot] = keys_[i];
      ids[slot] = ids_[i];
    }
    keys_.swap(keys);
    ids_.swap(ids);
  }

  std::vector<uint64_t> keys_;
  std::vector<uint32_t> ids_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

// Builds col's dictionary from `values`: one hash probe per row finds the
// distinct values, only those are sorted, and a per-id rank turns each
// row's id into its code.
void BuildDictionary(Column& col, const std::vector<double>& values) {
  ValueIds ids;
  std::vector<double> distinct;  // indexed by id.
  std::vector<uint32_t> row_ids(values.size());
  for (size_t r = 0; r < values.size(); ++r) {
    const double v = values[r];
    if (std::isnan(v)) {
      row_ids[r] = kNoId;
      continue;
    }
    row_ids[r] = ids.Intern(CanonicalBits(v));
    if (row_ids[r] == distinct.size()) distinct.push_back(v == 0.0 ? 0.0 : v);
  }
  ARECEL_CHECK_MSG(values.empty() || !distinct.empty(),
                   "column must have at least one non-NaN value");

  std::vector<uint32_t> order(distinct.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return distinct[a] < distinct[b];
  });
  std::vector<uint32_t> code_of_id(distinct.size());
  col.domain.resize(distinct.size());
  for (size_t code = 0; code < order.size(); ++code) {
    col.domain[code] = distinct[order[code]];
    code_of_id[order[code]] = static_cast<uint32_t>(code);
  }

  const uint32_t nan_code = col.nan_code();
  col.counts.assign(col.domain.size(), 0);
  WithCodes(col, [&](auto& codes) {
    codes.resize(values.size());
    for (size_t r = 0; r < values.size(); ++r) {
      const uint32_t code =
          row_ids[r] == kNoId ? nan_code : code_of_id[row_ids[r]];
      codes[r] = static_cast<CodeOf<decltype(codes)>>(code);
      if (code != nan_code) ++col.counts[code];
    }
  });
}

}  // namespace

ColumnValues::SegmentRef ColumnValues::SegmentAt(size_t row) const {
  const size_t i = static_cast<size_t>(
      std::upper_bound(ends_.begin(), ends_.end(), row) - ends_.begin());
  ARECEL_CHECK(i < spans_.size());
  return {spans_[i], ends_[i] - spans_[i].size()};
}

double ColumnValues::PastFirstSegment(size_t row) const {
  const SegmentRef segment = SegmentAt(row);
  return segment.values[row - segment.first_row];
}

void ColumnValues::Append(std::vector<double> values) {
  if (values.empty()) return;  // no empty segments.
  auto segment = std::make_shared<const std::vector<double>>(std::move(values));
  spans_.emplace_back(*segment);
  size_ += segment->size();
  ends_.push_back(size_);
  segments_.push_back(std::move(segment));
  first_ = spans_.front();
}

bool operator==(const ColumnValues& a, const ColumnValues& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (!(a[r] == b[r])) return false;
  }
  return true;
}

int32_t Column::LowerBoundCode(double v) const {
  const auto it = std::lower_bound(domain.begin(), domain.end(), v);
  return static_cast<int32_t>(it - domain.begin());
}

int32_t Column::UpperBoundCode(double v) const {
  const auto it = std::upper_bound(domain.begin(), domain.end(), v);
  return static_cast<int32_t>(it - domain.begin()) - 1;
}

void Table::AddColumn(std::string col_name, std::vector<double> values,
                      bool categorical) {
  if (!columns_.empty()) {
    ARECEL_CHECK_MSG(values.size() == num_rows_,
                     "all columns must have the same length");
  } else {
    num_rows_ = values.size();
  }
  Column col;
  col.name = std::move(col_name);
  col.categorical = categorical;
  BuildDictionary(col, values);
  col.values = ColumnValues(std::move(values));
  columns_.push_back(std::move(col));
}

Table Table::WithSortedRows(const std::vector<int>& ranks) const {
  Table out(name_);
  out.num_rows_ = num_rows_ + ranks.size();
  out.columns_.reserve(columns_.size());
  for (const Column& base : columns_) {
    // Rank k of the sorted column holds code c for ends[c - 1] <= k <
    // ends[c]; ranks from ends.back() on hold its NaN rows.
    std::vector<uint64_t> ends(base.counts.size());
    uint64_t end = 0;
    for (size_t c = 0; c < ends.size(); ++c) {
      end += base.counts[c];
      ends[c] = end;
    }
    Column col;
    col.name = base.name;
    col.categorical = base.categorical;
    col.values = base.values;
    col.domain = base.domain;
    col.counts = base.counts;
    std::vector<double> appended(ranks.size());
    WithCodes(col, [&](auto& codes) {
      using Code = CodeOf<decltype(codes)>;
      const std::vector<Code>& base_codes = CodesOfWidth<Code>(base);
      codes.reserve(out.num_rows_);
      codes.assign(base_codes.begin(), base_codes.end());
      for (size_t i = 0; i < ranks.size(); ++i) {
        const int rank = ranks[i];
        ARECEL_CHECK(rank >= 0 && static_cast<size_t>(rank) < num_rows_);
        const uint32_t code = static_cast<uint32_t>(
            std::upper_bound(ends.begin(), ends.end(),
                             static_cast<uint64_t>(rank)) -
            ends.begin());
        codes.push_back(static_cast<Code>(code));
        if (code == col.nan_code()) {
          appended[i] = std::numeric_limits<double>::quiet_NaN();
        } else {
          appended[i] = col.domain[code];
          ++col.counts[code];
        }
      }
    });
    col.values.Append(std::move(appended));
    out.columns_.push_back(std::move(col));
  }
  return out;
}

Table Table::Head(size_t count) const {
  ARECEL_CHECK(count <= num_rows_);
  Table out(name_);
  for (const Column& col : columns_) {
    std::vector<double> vals(count);
    for (size_t r = 0; r < count; ++r) vals[r] = col.values[r];
    out.AddColumn(col.name, std::move(vals), col.categorical);
  }
  return out;
}

Table Table::SampleRows(size_t count, uint64_t seed) const {
  ARECEL_CHECK(count <= num_rows_);
  Rng rng(seed);
  const std::vector<int> rows = rng.SampleWithoutReplacement(
      static_cast<int>(num_rows_), static_cast<int>(count));
  Table out(name_ + "_sample");
  for (const Column& col : columns_) {
    std::vector<double> vals(count);
    for (size_t i = 0; i < count; ++i)
      vals[i] = col.values[static_cast<size_t>(rows[i])];
    out.AddColumn(col.name, std::move(vals), col.categorical);
  }
  return out;
}

double Table::Log10JointDomain() const {
  double log10_domain = 0.0;
  for (const Column& col : columns_)
    log10_domain += std::log10(static_cast<double>(col.domain.size()));
  return log10_domain;
}

size_t Table::DataSizeBytes() const {
  return num_rows_ * num_cols() * sizeof(double);
}

}  // namespace arecel
