// Bit-identity oracle for the column dictionary and the §5.1 update.
//
// The reference re-implements the dictionary the slow, obvious way over raw
// value vectors: sort + unique for the domain and lower_bound for each
// row's code. The §5.1 update is re-implemented as the paper states it: a
// sorted copy of every column, the rows at Rng(seed)'s
// SampleWithoutReplacement ranks gathered from it, and the gathered rows
// concatenated under the base. Every table the library builds must equal
// the reference in values, domain and codes.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "data/schema.h"
#include "data/table.h"
#include "util/random.h"

namespace arecel {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

using Values = std::vector<std::vector<double>>;

struct RefColumn {
  std::vector<double> domain;
  std::vector<uint32_t> codes;  // NaN rows carry domain.size().
};

RefColumn RefEncode(const std::vector<double>& values) {
  RefColumn ref;
  for (double v : values) {
    if (!std::isnan(v)) ref.domain.push_back(v == 0.0 ? 0.0 : v);
  }
  std::sort(ref.domain.begin(), ref.domain.end());
  ref.domain.erase(std::unique(ref.domain.begin(), ref.domain.end()),
                   ref.domain.end());
  ref.codes.reserve(values.size());
  for (double v : values) {
    ref.codes.push_back(static_cast<uint32_t>(
        std::isnan(v) ? ref.domain.size()
                      : std::lower_bound(ref.domain.begin(), ref.domain.end(),
                                         v) -
                            ref.domain.begin()));
  }
  return ref;
}

Values ValuesOf(const Table& table) {
  Values out;
  for (const Column& col : table.columns()) {
    std::vector<double>& values = out.emplace_back(col.values.size());
    for (size_t r = 0; r < values.size(); ++r) values[r] = col.values[r];
  }
  return out;
}

// The paper's §5.1 update over raw values.
Values RefUpdate(const Values& base, double fraction, uint64_t seed) {
  const size_t rows = base.empty() ? 0 : base[0].size();
  const size_t append = static_cast<size_t>(static_cast<double>(rows) *
                                            fraction);
  Rng rng(seed);
  const std::vector<int> ranks = rng.SampleWithoutReplacement(
      static_cast<int>(rows), static_cast<int>(append));
  Values out = base;
  for (size_t c = 0; c < base.size(); ++c) {
    std::vector<double> sorted = base[c];
    std::sort(sorted.begin(), sorted.end());
    for (int rank : ranks) out[c].push_back(sorted[static_cast<size_t>(rank)]);
  }
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectMatchesReference(const Table& table, const Values& expected) {
  ASSERT_EQ(table.num_cols(), expected.size());
  for (size_t c = 0; c < table.num_cols(); ++c) {
    SCOPED_TRACE(testing::Message() << table.name() << " column " << c);
    const Column& col = table.column(c);
    ASSERT_EQ(col.values.size(), expected[c].size());
    ASSERT_EQ(table.num_rows(), expected[c].size());
    for (size_t r = 0; r < col.values.size(); ++r) {
      ASSERT_TRUE(SameBits(col.values[r], expected[c][r])) << "row " << r;
    }
    const RefColumn ref = RefEncode(expected[c]);
    ASSERT_EQ(col.domain, ref.domain);
    // Codes sit at the narrowest width that holds the NaN sentinel.
    const size_t d = ref.domain.size();
    const size_t rows = col.values.size();
    EXPECT_EQ(col.codes8.size(), d < 256 ? rows : 0u);
    EXPECT_EQ(col.codes16.size(), d >= 256 && d < 65536 ? rows : 0u);
    EXPECT_EQ(col.codes32.size(), d >= 65536 ? rows : 0u);
    for (double v : col.domain) EXPECT_FALSE(v == 0.0 && std::signbit(v));
    for (size_t r = 0; r < col.values.size(); ++r) {
      ASSERT_EQ(col.code(r), ref.codes[r]) << "row " << r;
    }
    std::vector<uint32_t> counts(ref.domain.size(), 0);
    for (uint32_t code : ref.codes) {
      if (code < counts.size()) ++counts[code];
    }
    EXPECT_EQ(col.counts, counts);
  }
}

TEST(TableOracleTest, GeneratedDatasetsMatchReference) {
  for (DatasetSpec spec : {CensusSpec(), ForestSpec(), PowerSpec(),
                           DmvSpec()}) {
    spec.rows = 20000;
    const Table table = GenerateDataset(spec, 11);
    ExpectMatchesReference(table, ValuesOf(table));
  }
  const Table synthetic = GenerateSynthetic2D(20000, 1.0, 0.5, 300, 4);
  ExpectMatchesReference(synthetic, ValuesOf(synthetic));

  StarSchemaOptions options;
  options.fact_rows = 5000;
  options.dim_rows = 400;
  const Schema schema = GenerateStarSchema(options, 9);
  for (const Table& table : schema.tables()) {
    ExpectMatchesReference(table, ValuesOf(table));
  }
}

// serve-update applies the update twice in a row, the second over the
// first's output.
TEST(TableOracleTest, CorrelatedUpdateMatchesSortedCopySample) {
  DatasetSpec spec = CensusSpec();
  spec.rows = 20000;
  const Table base = GenerateDataset(spec, 5);
  for (uint64_t seed : {99u, 501u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    const Table once = AppendCorrelatedUpdate(base, 0.2, seed);
    const Values expected_once = RefUpdate(ValuesOf(base), 0.2, seed);
    ExpectMatchesReference(once, expected_once);
    const Table twice = AppendCorrelatedUpdate(once, 0.2, seed + 1);
    ExpectMatchesReference(twice, RefUpdate(expected_once, 0.2, seed + 1));
  }
}

TEST(TableOracleTest, SampleRowsAndHeadMatchReference) {
  DatasetSpec spec = DmvSpec();
  spec.rows = 20000;
  const Table table = GenerateDataset(spec, 3);
  const Values values = ValuesOf(table);

  const Table sample = table.SampleRows(3000, 17);
  const std::vector<int> rows = Rng(17).SampleWithoutReplacement(20000, 3000);
  Values expected(values.size());
  for (size_t c = 0; c < values.size(); ++c) {
    for (int r : rows) expected[c].push_back(values[c][static_cast<size_t>(r)]);
  }
  ExpectMatchesReference(sample, expected);

  const Table head = table.Head(777);
  for (std::vector<double>& col : expected = values) col.resize(777);
  ExpectMatchesReference(head, expected);
}

// Builds a one-column table of `values`.
Table OneColumn(const std::string& name, std::vector<double> values) {
  Table table(name);
  table.AddColumn("c", std::move(values), false);
  return table;
}

// Checks a column of `base` and a column of `base` followed by `extra`:
// a built table never grows, so a grown domain is a new AddColumn.
void CheckBaseAndConcatenation(std::vector<double> base,
                               const std::vector<double>& extra) {
  ExpectMatchesReference(OneColumn("grow", base), {base});
  base.insert(base.end(), extra.begin(), extra.end());
  ExpectMatchesReference(OneColumn("grow", base), {base});
}

std::vector<double> Range(size_t begin, size_t end, size_t repeat) {
  std::vector<double> out;
  for (size_t k = 0; k < repeat; ++k) {
    for (size_t v = begin; v < end; ++v) out.push_back(static_cast<double>(v));
  }
  Rng(begin + end).Shuffle(out);
  return out;
}

TEST(TableOracleTest, AppendsAddValuesAndWidenCodes) {
  // New values interleave with old ones, so every old code moves.
  std::vector<double> evens, odds;
  for (int v = 0; v < 40; ++v) (v % 2 == 0 ? evens : odds).push_back(v);
  CheckBaseAndConcatenation(evens, odds);
  // No new value: the dictionary stays, the codes only grow.
  CheckBaseAndConcatenation(Range(0, 50, 3), Range(10, 20, 2));
  // 200 -> 400 distinct: u8 -> u16.
  CheckBaseAndConcatenation(Range(0, 200, 2), Range(100, 400, 1));
  // 60000 -> 70000 distinct: u16 -> u32.
  CheckBaseAndConcatenation(Range(0, 60000, 1), Range(55000, 70000, 1));
  // Exactly 255 distinct values fit u8 with the NaN sentinel, 256 do not;
  // likewise 65535 and 65536 for u16.
  CheckBaseAndConcatenation(Range(0, 255, 1), Range(255, 256, 1));
  CheckBaseAndConcatenation(Range(0, 65535, 1), Range(65535, 65536, 1));
}

TEST(TableOracleTest, NaNRowsAndNegativeZero) {
  const std::vector<double> base = {kNaN, -0.0, 3.0, 0.0, kNaN, -2.5, -0.0};
  const std::vector<double> extra = {kNaN, 7.0, -0.0, -2.5, 0.0};
  CheckBaseAndConcatenation(base, extra);
  CheckBaseAndConcatenation({-0.0, -0.0}, {1.0, kNaN});
  CheckBaseAndConcatenation({4.0}, {kNaN, 5.0, kNaN});
}

}  // namespace
}  // namespace arecel
