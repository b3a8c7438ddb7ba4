#include "data/io.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "workload/generator.h"

namespace arecel {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

template <typename T>
void Put(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutStr(std::string* out, const std::string& s) {
  Put<uint64_t>(out, s.size());
  out->append(s);
}

// A table file spelled out byte by byte: magic "ACE1", version 1, the table
// name and column count, then per column its name, categorical flag and
// length-prefixed values.
std::string TableFileBytes(const std::vector<std::vector<double>>& columns) {
  std::string out;
  Put<uint32_t>(&out, 0x41434531);
  Put<uint32_t>(&out, 1);
  PutStr(&out, "t");
  Put<uint64_t>(&out, columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    PutStr(&out, "c" + std::to_string(c));
    Put<uint32_t>(&out, c % 2 == 0 ? 1 : 0);
    Put<uint64_t>(&out, columns[c].size());
    for (double v : columns[c]) Put(&out, v);
  }
  return out;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

bool LoadsFromBytes(const std::string& bytes, Table* table) {
  const std::string path = TempPath("table_bytes.bin");
  WriteBytes(path, bytes);
  const bool ok = LoadTable(path, table);
  std::remove(path.c_str());
  return ok;
}

TEST(TableIoTest, RoundTrip) {
  DatasetSpec spec = CensusSpec();
  spec.rows = 2000;
  const Table original = GenerateDataset(spec, 7);
  const std::string path = TempPath("table_roundtrip.bin");
  ASSERT_TRUE(SaveTable(original, path));

  Table loaded;
  ASSERT_TRUE(LoadTable(path, &loaded));
  ASSERT_EQ(loaded.num_rows(), original.num_rows());
  ASSERT_EQ(loaded.num_cols(), original.num_cols());
  EXPECT_EQ(loaded.name(), original.name());
  for (size_t c = 0; c < original.num_cols(); ++c) {
    EXPECT_EQ(loaded.column(c).name, original.column(c).name);
    EXPECT_EQ(loaded.column(c).categorical, original.column(c).categorical);
    EXPECT_EQ(loaded.column(c).values, original.column(c).values);
    // The dictionary is rebuilt on load.
    EXPECT_EQ(loaded.column(c).domain, original.column(c).domain);
    EXPECT_EQ(loaded.column(c).codes8, original.column(c).codes8);
    EXPECT_EQ(loaded.column(c).counts, original.column(c).counts);
  }
  std::remove(path.c_str());
}

TEST(TableIoTest, RejectsGarbage) {
  const std::string path = TempPath("garbage.bin");
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a table", f);
  std::fclose(f);
  Table loaded;
  EXPECT_FALSE(LoadTable(path, &loaded));
  std::remove(path.c_str());
}

TEST(TableIoTest, RejectsMissingFile) {
  Table loaded;
  EXPECT_FALSE(LoadTable(TempPath("does_not_exist.bin"), &loaded));
}

// Stored models embed this layout (sampling, mscn), so it must not move.
TEST(TableCodecTest, SaveTableWritesTheDocumentedLayout) {
  const std::vector<std::vector<double>> columns = {{3, 1, 2}, {-0.0, 7, 7}};
  Table table("t");
  table.AddColumn("c0", columns[0], true);
  table.AddColumn("c1", columns[1], false);
  const std::string path = TempPath("table_layout.bin");
  ASSERT_TRUE(SaveTable(table, path));
  const std::string bytes = ReadBytes(path);
  std::remove(path.c_str());
  EXPECT_EQ(bytes, TableFileBytes(columns));

  ByteWriter writer;
  WriteTable(table, &writer);
  EXPECT_EQ(writer.buffer(), bytes.substr(8));  // all but magic + version.
  Table read;
  ByteReader reader(writer.buffer());
  ASSERT_TRUE(ReadTable(&reader, &read));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(read.column(1).domain, table.column(1).domain);
  EXPECT_EQ(read.column(1).codes8, table.column(1).codes8);
}

// A length prefix of 2^32 doubles must fail on the bytes left, before any
// 32 GB allocation.
TEST(TableCodecTest, HugeLengthPrefixLoadsAsFalse) {
  std::string bytes = TableFileBytes({{1, 2, 3}});
  const size_t prefix = bytes.size() - 3 * sizeof(double) - sizeof(uint64_t);
  const uint64_t huge = uint64_t{1} << 32;
  bytes.replace(prefix, sizeof(huge), reinterpret_cast<const char*>(&huge),
                sizeof(huge));
  Table loaded;
  EXPECT_FALSE(LoadsFromBytes(bytes, &loaded));
}

TEST(TableCodecTest, RaggedColumnsLoadAsFalse) {
  Table loaded;
  EXPECT_FALSE(LoadsFromBytes(TableFileBytes({{1, 2, 3}, {1, 2}}), &loaded));
  EXPECT_FALSE(LoadsFromBytes(TableFileBytes({{}, {1}}), &loaded));
  EXPECT_TRUE(LoadsFromBytes(TableFileBytes({{1, 2}, {4, 5}}), &loaded));
  EXPECT_EQ(loaded.num_rows(), 2u);
}

TEST(TableCodecTest, AllNaNColumnLoadsAsFalse) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table loaded;
  EXPECT_FALSE(LoadsFromBytes(TableFileBytes({{1, 2}, {nan, nan}}), &loaded));
  // One non-NaN value suffices, and an empty column holds no rows at all.
  EXPECT_TRUE(LoadsFromBytes(TableFileBytes({{1, 2}, {nan, 3}}), &loaded));
  EXPECT_EQ(loaded.column(1).code(0), loaded.column(1).nan_code());
  EXPECT_TRUE(LoadsFromBytes(TableFileBytes({{}, {}}), &loaded));
  EXPECT_EQ(loaded.num_rows(), 0u);
}

TEST(WorkloadIoTest, RoundTripPreservesLabels) {
  const Table table = GenerateSynthetic2D(3000, 0.5, 0.5, 50, 3);
  const Workload original = GenerateWorkload(table, 200, 4);
  const std::string path = TempPath("workload_roundtrip.bin");
  ASSERT_TRUE(SaveWorkload(original, path));

  Workload loaded;
  ASSERT_TRUE(LoadWorkload(path, &loaded));
  ASSERT_EQ(loaded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.selectivities[i], original.selectivities[i]);
    ASSERT_EQ(loaded.queries[i].predicates.size(),
              original.queries[i].predicates.size());
    for (size_t p = 0; p < original.queries[i].predicates.size(); ++p) {
      EXPECT_EQ(loaded.queries[i].predicates[p].column,
                original.queries[i].predicates[p].column);
      EXPECT_EQ(loaded.queries[i].predicates[p].lo,
                original.queries[i].predicates[p].lo);
      EXPECT_EQ(loaded.queries[i].predicates[p].hi,
                original.queries[i].predicates[p].hi);
    }
  }
  std::remove(path.c_str());
}

TEST(WorkloadIoTest, RoundTripPreservesOpenRanges) {
  Workload original;
  Query q;
  q.predicates.push_back(
      {2, -std::numeric_limits<double>::infinity(), 5.0});
  original.queries.push_back(q);
  original.selectivities.push_back(0.25);
  const std::string path = TempPath("workload_inf.bin");
  ASSERT_TRUE(SaveWorkload(original, path));
  Workload loaded;
  ASSERT_TRUE(LoadWorkload(path, &loaded));
  EXPECT_TRUE(std::isinf(loaded.queries[0].predicates[0].lo));
  EXPECT_DOUBLE_EQ(loaded.queries[0].predicates[0].hi, 5.0);

  // The file holds single-table queries only: a join query would lose its
  // tables, so the save is refused.
  original.queries[0].tables = {"t"};
  EXPECT_FALSE(SaveWorkload(original, path));
  std::remove(path.c_str());
}

TEST(WorkloadIoTest, WrongMagicRejected) {
  const Table table = GenerateSynthetic2D(1000, 0.5, 0.5, 20, 5);
  const std::string path = TempPath("table_as_workload.bin");
  ASSERT_TRUE(SaveTable(table, path));
  Workload loaded;
  EXPECT_FALSE(LoadWorkload(path, &loaded));  // table magic != workload.
  std::remove(path.c_str());
}

}  // namespace
}  // namespace arecel
