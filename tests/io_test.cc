#include "data/io.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"

namespace arecel {
namespace {

template <typename T>
void Put(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutStr(std::string* out, const std::string& s) {
  Put<uint64_t>(out, s.size());
  out->append(s);
}

// WriteTable's layout spelled out byte by byte: the table name and column
// count, then per column its name, categorical flag and length-prefixed
// values.
std::string TableBytes(const std::vector<std::vector<double>>& columns) {
  std::string out;
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

bool LoadsFromBytes(const std::string& bytes, Table* table) {
  ByteReader reader(bytes);
  return ReadTable(&reader, table);
}

TEST(TableIoTest, RoundTrip) {
  DatasetSpec spec = CensusSpec();
  spec.rows = 2000;
  const Table original = GenerateDataset(spec, 7);
  ByteWriter writer;
  WriteTable(original, &writer);

  Table loaded;
  ASSERT_TRUE(LoadsFromBytes(writer.buffer(), &loaded));
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
}

TEST(TableIoTest, RejectsGarbage) {
  Table loaded;
  EXPECT_FALSE(LoadsFromBytes("this is not a table", &loaded));
}

// Stored models embed this layout (sampling, mscn), so it must not move.
TEST(TableCodecTest, SaveTableWritesTheDocumentedLayout) {
  const std::vector<std::vector<double>> columns = {{3, 1, 2}, {-0.0, 7, 7}};
  Table table("t");
  table.AddColumn("c0", columns[0], true);
  table.AddColumn("c1", columns[1], false);
  ByteWriter writer;
  WriteTable(table, &writer);
  EXPECT_EQ(writer.buffer(), TableBytes(columns));
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
  std::string bytes = TableBytes({{1, 2, 3}});
  const size_t prefix = bytes.size() - 3 * sizeof(double) - sizeof(uint64_t);
  const uint64_t huge = uint64_t{1} << 32;
  bytes.replace(prefix, sizeof(huge), reinterpret_cast<const char*>(&huge),
                sizeof(huge));
  Table loaded;
  EXPECT_FALSE(LoadsFromBytes(bytes, &loaded));
}

TEST(TableCodecTest, RaggedColumnsLoadAsFalse) {
  Table loaded;
  EXPECT_FALSE(LoadsFromBytes(TableBytes({{1, 2, 3}, {1, 2}}), &loaded));
  EXPECT_FALSE(LoadsFromBytes(TableBytes({{}, {1}}), &loaded));
  EXPECT_TRUE(LoadsFromBytes(TableBytes({{1, 2}, {4, 5}}), &loaded));
  EXPECT_EQ(loaded.num_rows(), 2u);
}

TEST(TableCodecTest, AllNaNColumnLoadsAsFalse) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table loaded;
  EXPECT_FALSE(LoadsFromBytes(TableBytes({{1, 2}, {nan, nan}}), &loaded));
  // One non-NaN value suffices, and an empty column holds no rows at all.
  EXPECT_TRUE(LoadsFromBytes(TableBytes({{1, 2}, {nan, 3}}), &loaded));
  EXPECT_EQ(loaded.column(1).code(0), loaded.column(1).nan_code());
  EXPECT_TRUE(LoadsFromBytes(TableBytes({{}, {}}), &loaded));
  EXPECT_EQ(loaded.num_rows(), 0u);
}

}  // namespace
}  // namespace arecel
