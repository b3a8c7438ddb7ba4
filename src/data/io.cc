#include "data/io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <vector>

namespace arecel {

namespace {

constexpr uint32_t kTableMagic = 0x41434531;     // "ACE1".
constexpr uint32_t kWorkloadMagic = 0x41434532;  // "ACE2".
constexpr uint32_t kVersion = 1;
constexpr uint64_t kMaxColumns = 4096;

bool WriteFile(const std::string& path, const ByteWriter& writer) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) return false;
  out.write(writer.buffer().data(),
            static_cast<std::streamsize>(writer.buffer().size()));
  return out.good();
}

bool ReadFile(const std::string& path, std::string* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  bytes->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  return !in.bad();
}

bool ReadHeader(ByteReader* reader, uint32_t expected_magic) {
  uint32_t magic = 0, version = 0;
  return reader->U32(&magic) && magic == expected_magic &&
         reader->U32(&version) && version == kVersion;
}

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

bool SaveTable(const Table& table, const std::string& path) {
  ByteWriter writer;
  writer.U32(kTableMagic);
  writer.U32(kVersion);
  WriteTable(table, &writer);
  return WriteFile(path, writer);
}

bool LoadTable(const std::string& path, Table* table) {
  std::string bytes;
  if (!ReadFile(path, &bytes)) return false;
  ByteReader reader(bytes);
  return ReadHeader(&reader, kTableMagic) && ReadTable(&reader, table);
}

bool SaveWorkload(const Workload& workload, const std::string& path) {
  for (const Query& q : workload.queries)
    if (!q.IsSingleTable()) return false;
  ByteWriter writer;
  writer.U32(kWorkloadMagic);
  writer.U32(kVersion);
  writer.U64(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    const Query& q = workload.queries[i];
    writer.U64(q.predicates.size());
    for (const Predicate& p : q.predicates) {
      writer.U32(static_cast<uint32_t>(p.column));
      writer.F64(p.lo);
      writer.F64(p.hi);
    }
    writer.F64(workload.selectivities[i]);
  }
  return WriteFile(path, writer);
}

bool LoadWorkload(const std::string& path, Workload* workload) {
  std::string bytes;
  if (!ReadFile(path, &bytes)) return false;
  ByteReader reader(bytes);
  if (!ReadHeader(&reader, kWorkloadMagic)) return false;
  uint64_t count = 0;
  if (!reader.U64(&count) || count > (1ull << 24)) return false;
  Workload loaded;
  loaded.queries.resize(count);
  loaded.selectivities.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t predicates = 0;
    if (!reader.U64(&predicates) || predicates > 4096) return false;
    Query& q = loaded.queries[i];
    q.predicates.resize(predicates);
    for (uint64_t p = 0; p < predicates; ++p) {
      uint32_t column = 0;
      if (!reader.U32(&column) || !reader.F64(&q.predicates[p].lo) ||
          !reader.F64(&q.predicates[p].hi))
        return false;
      q.predicates[p].column = static_cast<int>(column);
    }
    if (!reader.F64(&loaded.selectivities[i])) return false;
  }
  *workload = std::move(loaded);
  return true;
}

}  // namespace arecel
