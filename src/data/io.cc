#include "data/io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace arecel {

namespace {
constexpr uint64_t kMaxColumns = 4096;
}  // namespace

void WriteTable(const Table& table, ByteWriter* writer) {
  writer->Str(table.name());
  writer->U64(table.num_cols());
  for (const Column& col : table.columns()) {
    writer->Str(col.name);
    writer->U32(col.categorical ? 1 : 0);
    writer->U64(col.values.size());
    for (const std::span<const double> run : col.values.spans()) {
      writer->F64s(run);
    }
  }
}

bool ReadTable(ByteReader* reader, Table* table) {
  std::string name;
  uint64_t cols = 0;
  if (!reader->Str(&name) || !reader->U64(&cols) || cols > kMaxColumns) {
    return false;
  }
  Table loaded(name);
  for (uint64_t c = 0; c < cols; ++c) {
    std::string col_name;
    uint32_t categorical = 0;
    std::vector<double> values;
    if (!reader->Str(&col_name) || !reader->U32(&categorical) ||
        !reader->Doubles(&values)) {
      return false;
    }
    // Table::AddColumn aborts on both; a stored table holds neither.
    if (c > 0 && values.size() != loaded.num_rows()) return false;
    if (!values.empty() &&
        std::all_of(values.begin(), values.end(),
                    [](double v) { return std::isnan(v); })) {
      return false;
    }
    loaded.AddColumn(std::move(col_name), std::move(values),
                     categorical != 0);
  }
  *table = std::move(loaded);
  return true;
}

}  // namespace arecel
