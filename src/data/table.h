#ifndef ARECEL_DATA_TABLE_H_
#define ARECEL_DATA_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace arecel {

// A column's values as immutable, reference-counted segments in row order.
// Table versions that hold the same rows share them: AddColumn makes one
// segment, and Table::WithSortedRows adds one holding only the appended
// rows' values, so a version stores only what it appends. Reads go by row
// (operator[]: one compare and one load while the row lies in the first
// segment, which is every row of a table built by AddColumn) or by
// contiguous span (spans(), SegmentAt). Copies share every segment.
class ColumnValues {
 public:
  using Segment = std::shared_ptr<const std::vector<double>>;

  // The segment holding a row: its values, and the row its first value
  // belongs to.
  struct SegmentRef {
    std::span<const double> values;
    size_t first_row = 0;
    size_t end_row() const { return first_row + values.size(); }
  };

  ColumnValues() = default;
  explicit ColumnValues(std::vector<double> values) {
    Append(std::move(values));
  }

  size_t size() const { return size_; }

  double operator[](size_t row) const {
    return row < first_.size() ? first_[row] : PastFirstSegment(row);
  }

  // The segment holding `row` (< size()); row's value is
  // values[row - first_row].
  SegmentRef SegmentAt(size_t row) const;

  // Every segment's values, in row order.
  const std::vector<std::span<const double>>& spans() const {
    return spans_;
  }
  // The segments themselves: which storage this column shares.
  const std::vector<Segment>& segments() const { return segments_; }

  // Adds one segment holding `values` after the last row; the earlier
  // segments, and every version that shares them, stay as they are.
  void Append(std::vector<double> values);

  // Equal sizes and values equal row for row under double ==, as
  // std::vector's == compares; segment boundaries do not matter.
  friend bool operator==(const ColumnValues& a, const ColumnValues& b);

 private:
  double PastFirstSegment(size_t row) const;

  std::vector<Segment> segments_;
  std::vector<std::span<const double>> spans_;  // segments_' values.
  std::vector<size_t> ends_;                    // row past each segment.
  std::span<const double> first_;               // spans_[0], or empty.
  size_t size_ = 0;
};

// One attribute of a relation, stored column-major, with its dictionary.
//
// Every value is a double (categorical attributes hold integer codes). The
// dictionary is the sorted distinct non-NaN values (`domain`, -0.0 stored
// as +0.0), each row's code (the index of its value in `domain`) and the
// number of rows per code. NaN rows carry the sentinel code nan_code() ==
// domain.size(), which no code range includes. Codes use the narrowest
// width that holds the sentinel, so exactly one of codes8 / codes16 /
// codes32 is filled; code(r) reads whichever it is. The scan engine, the
// discrete estimators (Naru, DQM, Bayes) and the §5.1 update read these.
//
// A Table builds the dictionary in AddColumn, and a built table's rows,
// domain, counts and code width never change. A table gains rows only as
// a new version from Table::WithSortedRows, whose appended values are
// domain values, so a version keeps its base's domain and code width. The
// values are shared with other versions of the table; the codes and counts
// are each version's own.
struct Column {
  std::string name;
  bool categorical = false;
  ColumnValues values;            // length = table rows.
  std::vector<double> domain;     // sorted distinct non-NaN values.
  std::vector<uint32_t> counts;   // rows per code; NaN rows count nowhere.
  std::vector<uint8_t> codes8;    // per-row codes while domain.size() < 2^8,
  std::vector<uint16_t> codes16;  // then while domain.size() < 2^16,
  std::vector<uint32_t> codes32;  // else here.

  double min() const { return domain.front(); }
  double max() const { return domain.back(); }
  size_t domain_size() const { return domain.size(); }
  uint32_t nan_code() const { return static_cast<uint32_t>(domain.size()); }

  uint32_t code(size_t row) const {
    if (!codes8.empty()) return codes8[row];
    if (!codes16.empty()) return codes16[row];
    return codes32[row];
  }

  // Index of the first domain value >= v (domain_size() if none).
  int32_t LowerBoundCode(double v) const;
  // Index of the last domain value <= v (-1 if none).
  int32_t UpperBoundCode(double v) const;
};

// A single relation. Columns all share the same row count.
class Table {
 public:
  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  // Adds a column of raw values and builds its dictionary. All columns
  // must have equal length, and a non-empty column needs at least one
  // non-NaN value.
  void AddColumn(std::string col_name, std::vector<double> values,
                 bool categorical);

  // Returns the next version of this table: its rows, then, for each of
  // `ranks`, the row at that rank of its sorted-columns copy: every column
  // sorted ascending independently, NaN last — the paper's §5.1
  // construction that maximizes Spearman correlation between every pair of
  // columns. The copy is never built; each rank is looked up in the
  // column's code counts, so appended values are domain values and the
  // domain does not change. The version shares this table's value
  // segments and adds one per column holding only the appended values;
  // its codes and counts are its own, allocated once at their final size.
  Table WithSortedRows(const std::vector<int>& ranks) const;

  // Returns a new table containing rows [0, count) of this table.
  Table Head(size_t count) const;

  // Returns a uniform random sample (without replacement) of `count` rows.
  Table SampleRows(size_t count, uint64_t seed) const;

  // Total number of distinct-value combinations, as log10 (the paper's
  // "Domain" column in Table 3).
  double Log10JointDomain() const;

  // Approximate in-memory size in bytes (raw values only), mirroring the
  // paper's use of data size to set the 1.5% model budget.
  size_t DataSizeBytes() const;

 private:
  std::string name_;
  size_t num_rows_ = 0;
  std::vector<Column> columns_;
};

}  // namespace arecel

#endif  // ARECEL_DATA_TABLE_H_
