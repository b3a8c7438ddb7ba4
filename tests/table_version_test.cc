// Table versions share their base's value segments (data/table.h): an
// append stores only the appended rows' values, every earlier version stays
// bit-identical, each version equals a table built flat from the same
// values, and the scan engine counts exactly across segment boundaries.

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/io.h"
#include "data/table.h"
#include "scan/block_scan.h"
#include "util/archive.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/query.h"

namespace arecel {
namespace {

std::vector<double> Flat(const ColumnValues& values) {
  std::vector<double> out(values.size());
  for (size_t r = 0; r < out.size(); ++r) out[r] = values[r];
  return out;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::string TableBytes(const Table& table) {
  ByteWriter writer;
  WriteTable(table, &writer);
  return writer.buffer();
}

// Everything a column stores, flattened, to compare before and after.
struct ColumnImage {
  std::vector<double> values;
  std::vector<double> domain;
  std::vector<uint32_t> counts;
  std::vector<uint8_t> codes8;
  std::vector<uint16_t> codes16;
  std::vector<uint32_t> codes32;
};

std::vector<ColumnImage> Image(const Table& table) {
  std::vector<ColumnImage> out;
  for (const Column& col : table.columns()) {
    out.push_back({Flat(col.values), col.domain, col.counts, col.codes8,
                   col.codes16, col.codes32});
  }
  return out;
}

void ExpectSameImage(const std::vector<ColumnImage>& a,
                     const std::vector<ColumnImage>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t c = 0; c < a.size(); ++c) {
    SCOPED_TRACE(testing::Message() << "column " << c);
    EXPECT_TRUE(SameBits(a[c].values, b[c].values));
    EXPECT_TRUE(SameBits(a[c].domain, b[c].domain));
    EXPECT_EQ(a[c].counts, b[c].counts);
    EXPECT_EQ(a[c].codes8, b[c].codes8);
    EXPECT_EQ(a[c].codes16, b[c].codes16);
    EXPECT_EQ(a[c].codes32, b[c].codes32);
  }
}

// The version rebuilt flat: one AddColumn per column over its values.
void ExpectEqualsFlatTable(const Table& version) {
  Table flat(version.name());
  for (const Column& col : version.columns()) {
    flat.AddColumn(col.name, Flat(col.values), col.categorical);
  }
  ExpectSameImage(Image(version), Image(flat));
  EXPECT_EQ(TableBytes(version), TableBytes(flat));
}

// Column 0: categorical, 12 codes (u8). Column 1: 300 values (u16 within
// the code budget). Column 2: about 60 000 distinct values, past the code
// budget, so its predicates run the double kernels. Column 3: 20 values
// with NaN rows.
Table MakeBase(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(4, std::vector<double>(rows));
  for (size_t r = 0; r < rows; ++r) {
    cols[0][r] = static_cast<double>(rng.UniformInt(12));
    cols[1][r] = static_cast<double>(rng.UniformInt(300)) * 0.5;
    cols[2][r] = static_cast<double>(rng.UniformInt(60000)) - 30000.0;
    cols[3][r] = rng.Bernoulli(0.05)
                     ? std::numeric_limits<double>::quiet_NaN()
                     : static_cast<double>(rng.UniformInt(20));
  }
  Table table("versions");
  table.AddColumn("cat", std::move(cols[0]), true);
  table.AddColumn("half", std::move(cols[1]), false);
  table.AddColumn("wide", std::move(cols[2]), false);
  table.AddColumn("nan", std::move(cols[3]), false);
  return table;
}

std::vector<int> Ranks(size_t rows, size_t count, uint64_t seed) {
  return Rng(seed).SampleWithoutReplacement(static_cast<int>(rows),
                                            static_cast<int>(count));
}

TEST(TableVersionTest, AppendsShareTheBaseAndOwnOnlyTheirRows) {
  const Table v0 = MakeBase(5000, 1);
  const Table v1 = v0.WithSortedRows(Ranks(5000, 1000, 2));
  const Table v2 = v1.WithSortedRows(Ranks(v1.num_rows(), 700, 3));
  for (size_t c = 0; c < v0.num_cols(); ++c) {
    SCOPED_TRACE(testing::Message() << "column " << c);
    const auto& base = v0.column(c).values.segments();
    const auto& once = v1.column(c).values.segments();
    const auto& twice = v2.column(c).values.segments();
    ASSERT_EQ(base.size(), 1u);
    ASSERT_EQ(once.size(), 2u);
    ASSERT_EQ(twice.size(), 3u);
    EXPECT_EQ(once[0].get(), base[0].get());
    EXPECT_EQ(once[1]->size(), 1000u);
    EXPECT_EQ(twice[0].get(), base[0].get());
    EXPECT_EQ(twice[1].get(), once[1].get());
    EXPECT_EQ(twice[2]->size(), 700u);
  }
}

TEST(TableVersionTest, ChainLeavesEveryEarlierVersionBitIdentical) {
  const Table v0 = MakeBase(6000, 4);
  const std::vector<ColumnImage> v0_image = Image(v0);
  ASSERT_FALSE(v0.column(0).codes8.empty());

  const Table v1 = v0.WithSortedRows(Ranks(6000, 1200, 5));
  const std::vector<ColumnImage> v1_image = Image(v1);
  const Table v2 = v1.WithSortedRows(Ranks(v1.num_rows(), 900, 6));
  // A version keeps its base's domain and code width.
  ASSERT_FALSE(v2.column(0).codes8.empty());
  ASSERT_EQ(v2.column(0).domain, v1.column(0).domain);
  const std::vector<ColumnImage> v2_image = Image(v2);
  const Table v3 = v2.WithSortedRows(Ranks(v2.num_rows(), 1500, 7));
  const Table v4 = v3.WithSortedRows(Ranks(v3.num_rows(), 300, 8));

  ExpectSameImage(Image(v0), v0_image);
  ExpectSameImage(Image(v1), v1_image);
  ExpectSameImage(Image(v2), v2_image);
  for (const Table* version : std::vector<const Table*>{&v0, &v1, &v2, &v3,
                                                       &v4}) {
    SCOPED_TRACE(testing::Message() << version->num_rows() << " rows");
    ExpectEqualsFlatTable(*version);
  }
}

// Queries over every column, past-budget ones included, so that the code
// kernels, the double kernels and the posting path all run.
std::vector<Query> MixedQueries(const Table& table) {
  std::vector<Query> queries = GenerateQueries(table, 60, /*seed=*/21);
  const std::vector<std::vector<Predicate>> shaped = {
      {{2, -5000.0, 12000.0}},
      {{2, -30000.0, 29999.0}},
      {{2, 100.0, 100.0}},
      {{2, -2000.0, 2000.0}, {0, 3.0, 7.0}},
      {{0, 5.0, 5.0}, {2, -29000.0, 0.0}, {3, 2.0, 15.0}},
      {{1, 10.0, 60.0}, {2, 0.0, 25000.0}, {0, 0.0, 11.0}, {3, 0.0, 19.0}},
      {{3, 4.0, 9.0}, {1, 0.0, 149.5}},
      {{0, 2.0, 2.0}, {1, 30.0, 30.0}},
  };
  for (const std::vector<Predicate>& predicates : shaped) {
    Query query;
    query.predicates = predicates;
    queries.push_back(query);
  }
  return queries;
}

TEST(TableVersionTest, ScansCountExactlyAcrossTheSegmentBoundary) {
  const Table v0 = MakeBase(200000, 9);
  const Table v1 = v0.WithSortedRows(Ranks(200000, 40000, 10));
  ASSERT_EQ(v1.column(2).values.segments().size(), 2u);
  ASSERT_FALSE(scan::WithinCodeBudget(v1.column(2)));
  const std::vector<Query> queries = MixedQueries(v1);
  std::vector<size_t> naive;
  for (const Query& query : queries) {
    naive.push_back(ExecuteCountNaive(v1, query));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(ExecuteCount(v1, queries[i]), naive[i]) << "query " << i;
  }
  for (size_t block_size : {1u, 1000u, 4096u}) {
    SCOPED_TRACE(testing::Message() << "block_size=" << block_size);
    const scan::BlockScanner scanner(v1, {block_size});
    EXPECT_EQ(scanner.CountBatch(queries), naive);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(scanner.Count(queries[i]), naive[i]) << "query " << i;
    }
  }
}

TEST(TableVersionTest, BaseServesReadersWhileVersionsAreBuilt) {
  const Table v0 = MakeBase(60000, 11);
  const std::vector<Query> queries = MixedQueries(v0);
  const scan::BlockScanner scanner(v0);
  const std::vector<size_t> counts = scanner.CountBatch(queries);
  const std::vector<ColumnImage> sample = Image(v0.SampleRows(500, 12));

  bool readers_agree = true;
  std::thread counter([&] {
    for (int i = 0; i < 4; ++i) {
      readers_agree = readers_agree && scanner.CountBatch(queries) == counts;
    }
  });
  bool sampler_agrees = true;
  std::thread sampler([&] {
    for (int i = 0; i < 4; ++i) {
      const std::vector<ColumnImage> again = Image(v0.SampleRows(500, 12));
      for (size_t c = 0; c < again.size(); ++c) {
        sampler_agrees = sampler_agrees &&
                         SameBits(again[c].values, sample[c].values) &&
                         again[c].codes8 == sample[c].codes8;
      }
    }
  });
  const Table v1 = v0.WithSortedRows(Ranks(60000, 12000, 13));
  const Table v2 = v1.WithSortedRows(Ranks(v1.num_rows(), 5000, 14));
  counter.join();
  sampler.join();

  EXPECT_TRUE(readers_agree);
  EXPECT_TRUE(sampler_agrees);
  EXPECT_EQ(v2.num_rows(), 77000u);
  for (const Query& query : queries) {
    EXPECT_EQ(ExecuteCount(v2, query), ExecuteCountNaive(v2, query));
  }
}

}  // namespace
}  // namespace arecel
