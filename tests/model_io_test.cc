#include "core/model_io.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "data/datasets.h"
#include "data/io.h"
#include "estimators/learned/naru.h"
#include "util/archive.h"
#include "util/random.h"
#include "workload/generator.h"

namespace arecel {
namespace {

struct SharedData {
  Table table = GenerateSynthetic2D(10000, 0.7, 0.8, 80, 9);
  Workload train = GenerateWorkload(table, 600, 10);
  Workload probes = GenerateWorkload(table, 100, 11);
};

const SharedData& Shared() {
  static const SharedData* data = new SharedData();
  return *data;
}

TEST(ByteArchiveTest, ScalarRoundTrip) {
  ByteWriter w;
  w.U32(7);
  w.I32(-3);
  w.F64(2.5);
  w.Str("hello");
  w.Doubles({1.0, 2.0});
  ByteReader r(w.buffer());
  uint32_t u = 0;
  int32_t i = 0;
  double d = 0;
  std::string s;
  std::vector<double> v;
  ASSERT_TRUE(r.U32(&u));
  ASSERT_TRUE(r.I32(&i));
  ASSERT_TRUE(r.F64(&d));
  ASSERT_TRUE(r.Str(&s));
  ASSERT_TRUE(r.Doubles(&v));
  EXPECT_EQ(u, 7u);
  EXPECT_EQ(i, -3);
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(v, (std::vector<double>{1.0, 2.0}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteArchiveTest, CountingWriterTalliesWithoutBuffering) {
  ByteWriter full;
  ByteWriter counting = ByteWriter::Counting();
  for (ByteWriter* w : {&full, &counting}) {
    w->U32(7);
    w->Str("hello");
    w->Doubles({1.0, 2.0, 3.0});
  }
  EXPECT_EQ(counting.bytes_written(), full.buffer().size());
  EXPECT_EQ(full.bytes_written(), full.buffer().size());
  EXPECT_TRUE(counting.buffer().empty());
}

TEST(ByteArchiveTest, TruncatedReadFails) {
  ByteWriter w;
  w.U64(1000);  // claims a 1000-byte string follows; none does.
  ByteReader r(w.buffer());
  std::string s;
  EXPECT_FALSE(r.Str(&s));

  // A length prefix is checked against the bytes left before anything is
  // allocated: 1000 doubles cannot fit in the 8 bytes that follow.
  ByteWriter doubles;
  doubles.U64(1000);
  doubles.F64(1.5);
  ByteReader dr(doubles.buffer());
  std::vector<double> v;
  EXPECT_FALSE(dr.Doubles(&v));
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(dr.failed());
}

// Serialize -> load into a fresh instance -> identical estimates. Swept
// over every name the registry can construct: estimators with persistence
// support must round-trip bit-for-bit; the rest must refuse to serialize
// (and produce no bytes) rather than produce a broken model.
class ModelRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelRoundTripTest, EstimatesSurviveRoundTripOrSaveRefuses) {
  const std::string name = GetParam();
  auto trained = MakeEstimator(name);
  TrainContext context;
  context.training_workload = &Shared().train;
  trained->Train(Shared().table, context);

  std::string bytes;
  if (!SupportsPersistence(*trained)) {
    EXPECT_FALSE(SerializeEstimatorBytes(*trained, &bytes));
    EXPECT_TRUE(bytes.empty()) << "refused serialization still wrote bytes";
    return;
  }
  ASSERT_TRUE(SerializeEstimatorBytes(*trained, &bytes));

  auto loaded = MakeEstimator(name);
  ASSERT_TRUE(LoadEstimatorBytes(loaded.get(), bytes).ok());

  // Sequence-aligned comparison: stochastic-inference estimators seed from
  // a per-instance counter, so collect each instance's estimates in the
  // same call order before comparing.
  std::vector<double> expected(Shared().probes.size());
  for (size_t i = 0; i < Shared().probes.size(); ++i)
    expected[i] = trained->EstimateSelectivity(Shared().probes.queries[i]);
  for (size_t i = 0; i < Shared().probes.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->EstimateSelectivity(Shared().probes.queries[i]),
                     expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, ModelRoundTripTest,
                         ::testing::ValuesIn(AllRegistryNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// The persistable set documented in core/model_io.h; growing it is
// welcome, silently shrinking it is not. Shared with the truncation
// regression below.
const std::vector<std::string>& DocumentedPersistableSet() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "postgres", "mysql",        "dbms-a", "sampling",
      "mhist",    "lw-xgb",       "lw-nn",  "mscn",
      "naru",     "feedback-knn", "feedback-corrected"};
  return *names;
}

TEST(ModelIoTest, PersistenceSupportMatchesDocumentedSet) {
  for (const std::string& name : DocumentedPersistableSet()) {
    auto estimator = MakeEstimator(name);
    TrainContext context;
    context.training_workload = &Shared().train;
    estimator->Train(Shared().table, context);
    EXPECT_TRUE(SupportsPersistence(*estimator)) << name;
  }
}

TEST(ModelIoTest, UnsupportedEstimatorReturnsFalse) {
  auto quicksel = MakeEstimator("quicksel");  // no persistence implemented.
  TrainContext context;
  context.training_workload = &Shared().train;
  quicksel->Train(Shared().table, context);
  EXPECT_FALSE(SupportsPersistence(*quicksel));
  std::string bytes;
  EXPECT_FALSE(SerializeEstimatorBytes(*quicksel, &bytes));
}

// Feeding a truncated or garbage byte stream to every persistable
// estimator must come back typed as kCorruptModel — never a crash, and
// never the kPersistenceFailure that a clean kind-mismatch reports. This is
// the contract the model store's recovery path builds on: a record whose
// CRC passes but whose payload the deserializer rejects still poisons only
// that instance.
TEST(ModelIoTest, TruncatedBytesTypedAsCorruptForEveryPersistable) {
  for (const std::string& name : DocumentedPersistableSet()) {
    auto trained = MakeEstimator(name);
    TrainContext context;
    context.training_workload = &Shared().train;
    trained->Train(Shared().table, context);

    std::string bytes;
    ASSERT_TRUE(SerializeEstimatorBytes(*trained, &bytes)) << name;

    // Truncate at several depths: inside the frame header, inside the
    // payload's leading structure, and just shy of the end.
    for (const size_t cut :
         {size_t{3}, bytes.size() / 4, bytes.size() - 1}) {
      auto fresh = MakeEstimator(name);
      const ModelLoadResult result =
          LoadEstimatorBytes(fresh.get(), bytes.substr(0, cut));
      EXPECT_EQ(result.kind, FailureKind::kCorruptModel)
          << name << " cut at " << cut << ": " << result.detail;
    }

    // Garbage payload of plausible length.
    auto fresh = MakeEstimator(name);
    const ModelLoadResult garbage = LoadEstimatorBytes(
        fresh.get(), std::string(bytes.size(), '\x5a'));
    EXPECT_EQ(garbage.kind, FailureKind::kCorruptModel) << name;
  }
}

TEST(ModelIoTest, KindMismatchRejected) {
  auto postgres = MakeEstimator("postgres");
  postgres->Train(Shared().table, {});
  std::string bytes;
  ASSERT_TRUE(SerializeEstimatorBytes(*postgres, &bytes));
  auto mysql = MakeEstimator("mysql");
  EXPECT_FALSE(LoadEstimatorBytes(mysql.get(), bytes).ok());
}

TEST(ModelIoTest, CorruptFileRejected) {
  auto postgres = MakeEstimator("postgres");
  EXPECT_FALSE(LoadEstimatorBytes(postgres.get(), "definitely not a model")
                   .ok());
}

// Hostile bytes: each case flips one bit of, overwrites, or sets to 0xff
// 1-4 random bytes of a serialized model's payload (the part
// DeserializeModel reads; the frame header has its own checks). Every
// mutated model must be refused as kCorruptModel, or load and answer every
// probe with a finite selectivity in [0, 1].
TEST(ModelIoTest, MutatedMscnAndLwNnModelsAreRejectedOrServeFiniteAnswers) {
  constexpr int kCases = 200;
  for (const std::string name : {"mscn", "lw-nn", "sampling"}) {
    auto trained = MakeEstimator(name);
    TrainContext context;
    context.training_workload = &Shared().train;
    trained->Train(Shared().table, context);
    std::string bytes;
    ASSERT_TRUE(SerializeEstimatorBytes(*trained, &bytes));
    ByteWriter payload;
    ASSERT_TRUE(trained->SerializeModel(&payload));
    const size_t header = bytes.size() - payload.buffer().size();

    Rng rng(name == "mscn" ? 71 : name == "lw-nn" ? 72 : 73);
    int rejected = 0;
    for (int c = 0; c < kCases; ++c) {
      std::string mutated = bytes;
      const uint64_t edits = 1 + rng.UniformInt(uint64_t{4});
      for (uint64_t e = 0; e < edits; ++e) {
        char& byte = mutated[header + rng.UniformInt(mutated.size() - header)];
        switch (rng.UniformInt(uint64_t{3})) {
          case 0:
            byte = static_cast<char>(byte ^ (1 << rng.UniformInt(uint64_t{8})));
            break;
          case 1:
            byte = static_cast<char>(rng.UniformInt(uint64_t{256}));
            break;
          default:
            byte = '\xff';  // erased storage; in a float's top byte, NaN.
            break;
        }
      }
      auto loaded = MakeEstimator(name);
      const ModelLoadResult result = LoadEstimatorBytes(loaded.get(), mutated);
      if (!result.ok()) {
        EXPECT_EQ(result.kind, FailureKind::kCorruptModel)
            << name << " case " << c << ": " << result.detail;
        ++rejected;
        continue;
      }
      for (const Query& probe : Shared().probes.queries) {
        const double sel = loaded->EstimateSelectivity(probe);
        ASSERT_TRUE(std::isfinite(sel) && sel >= 0.0 && sel <= 1.0)
            << name << " case " << c << " served " << sel;
      }
    }
    // Most edits land in weights and sample values, which load and serve.
    EXPECT_LT(rejected, kCases) << name;
  }
}

template <typename T>
std::string Patched(std::string bytes, size_t offset, T value) {
  std::memcpy(&bytes[offset], &value, sizeof(value));
  return bytes;
}

// A sampling payload is the sample table alone, and its last column's
// values end it. Dropping that column's last value (and fixing its length
// prefix and the frame's payload length) leaves a well-framed stream whose
// columns are ragged: corrupt, not an abort.
TEST(ModelIoTest, RaggedSamplingColumnsAreCorrupt) {
  auto trained = MakeEstimator("sampling");
  trained->Train(Shared().table, {});
  std::string bytes;
  ASSERT_TRUE(SerializeEstimatorBytes(*trained, &bytes));
  ByteWriter writer;
  ASSERT_TRUE(trained->SerializeModel(&writer));
  const std::string& payload = writer.buffer();
  const size_t header = bytes.size() - payload.size();
  ASSERT_EQ(bytes.substr(header), payload);
  uint64_t framed_size = 0;  // the frame's payload length prefix.
  std::memcpy(&framed_size, &bytes[header - 8], sizeof(framed_size));
  ASSERT_EQ(framed_size, payload.size());

  Table sample;
  ByteReader reader(payload);
  ASSERT_TRUE(ReadTable(&reader, &sample));
  const uint64_t rows = sample.num_rows();
  ASSERT_GT(rows, 0u);
  const std::string ragged =
      Patched(payload.substr(0, payload.size() - 8),
              payload.size() - 8 * rows - 8, rows - 1);
  const std::string framed =
      Patched(bytes.substr(0, header), header - 8, uint64_t{ragged.size()}) +
      ragged;
  auto fresh = MakeEstimator("sampling");
  const ModelLoadResult result = LoadEstimatorBytes(fresh.get(), framed);
  EXPECT_EQ(result.kind, FailureKind::kCorruptModel) << result.detail;
}

// The checks the random mutations above rarely reach, one at a time: a
// non-finite last bias (both payloads end with the output layer's bias)
// and, for mscn, a non-finite or inverted column range. The mscn payload
// starts with the column count, then col_min and col_max as
// length-prefixed doubles.
TEST(ModelIoTest, NonFiniteMscnAndLwNnParametersAreCorrupt) {
  const auto corrupt = [](const std::string& name, const std::string& bytes) {
    auto fresh = MakeEstimator(name);
    return LoadEstimatorBytes(fresh.get(), bytes).kind ==
           FailureKind::kCorruptModel;
  };
  for (const std::string name : {"mscn", "lw-nn"}) {
    auto trained = MakeEstimator(name);
    TrainContext context;
    context.training_workload = &Shared().train;
    trained->Train(Shared().table, context);
    std::string bytes;
    ASSERT_TRUE(SerializeEstimatorBytes(*trained, &bytes));
    ASSERT_FALSE(corrupt(name, bytes)) << name;
    const size_t last_bias = bytes.size() - sizeof(float);
    for (const float bad : {std::nanf(""), INFINITY, -INFINITY})
      EXPECT_TRUE(corrupt(name, Patched(bytes, last_bias, bad))) << name;
  }

  auto mscn = MakeEstimator("mscn");
  TrainContext context;
  context.training_workload = &Shared().train;
  mscn->Train(Shared().table, context);
  std::string bytes;
  ASSERT_TRUE(SerializeEstimatorBytes(*mscn, &bytes));
  ByteWriter payload;
  ASSERT_TRUE(mscn->SerializeModel(&payload));
  const size_t cols = Shared().table.num_cols();
  const size_t col_min = bytes.size() - payload.buffer().size() + 16;
  const size_t col_max = col_min + 8 * cols + 8;
  EXPECT_TRUE(corrupt("mscn", Patched(bytes, col_min, std::nan(""))));
  EXPECT_TRUE(corrupt("mscn", Patched(bytes, col_max, HUGE_VAL)));
  EXPECT_TRUE(corrupt("mscn", Patched(bytes, col_min, 1e300)));  // inverted.
}

// Hostile naru payloads, one field at a time. The payload starts with the
// column count, then per column the length-prefixed bin_min and bin_max
// doubles, then the sample count. NaN or out-of-order bin edges and a
// sample count past NaruEstimator::kMaxSampleCount are corrupt; an
// infinite edge in order is a legal domain value and loads.
TEST(ModelIoTest, MutatedNaruBinEdgesAndSampleCountAreCorrupt) {
  NaruEstimator::Options options;
  options.epochs = 1;
  NaruEstimator trained(options);
  trained.Train(Shared().table, {});
  std::string bytes;
  ASSERT_TRUE(SerializeEstimatorBytes(trained, &bytes));
  ByteWriter payload;
  ASSERT_TRUE(trained.SerializeModel(&payload));
  const size_t header = bytes.size() - payload.buffer().size();

  // Offsets of column 0's edges and of the sample count.
  ByteReader reader(payload.buffer());
  uint64_t cols = 0;
  ASSERT_TRUE(reader.U64(&cols));
  std::vector<std::vector<double>> edges(2 * cols);  // min, max per column.
  size_t sample_count = header + 8;
  for (std::vector<double>& column_edges : edges) {
    ASSERT_TRUE(reader.Doubles(&column_edges));
    sample_count += 8 + 8 * column_edges.size();
  }
  const std::vector<double>& bin_min = edges[0];
  const std::vector<double>& bin_max = edges[1];
  const size_t bins = bin_min.size();
  ASSERT_GE(bins, 2u);
  const size_t min0 = header + 16;          // bin_min[0].
  const size_t max0 = min0 + 8 * bins + 8;  // bin_max[0].

  const auto load = [](const std::string& mutated) {
    NaruEstimator fresh;
    return LoadEstimatorBytes(&fresh, mutated).kind;
  };
  ASSERT_EQ(load(bytes), FailureKind::kNone);
  const double nan = std::nan("");
  for (const std::string& mutated :
       {Patched(bytes, min0, nan), Patched(bytes, max0, nan),
        Patched(bytes, max0 + 8 * (bins - 1), nan),
        Patched(bytes, min0, bin_max[0] + 1.0),  // bin_min[0] > bin_max[0].
        Patched(bytes, max0, bin_min[1]),        // bin_max[0] == bin_min[1].
        Patched(bytes, sample_count,
                uint32_t{NaruEstimator::kMaxSampleCount + 1}),
        Patched(bytes, sample_count, uint32_t{1} << 20)}) {
    EXPECT_EQ(load(mutated), FailureKind::kCorruptModel);
  }
  EXPECT_EQ(load(Patched(bytes, min0, -HUGE_VAL)), FailureKind::kNone);
  EXPECT_EQ(load(Patched(bytes, sample_count,
                         uint32_t{NaruEstimator::kMaxSampleCount})),
            FailureKind::kNone);

  // Train refuses a sample count the loader would reject.
  options.sample_count = NaruEstimator::kMaxSampleCount + 1;
  NaruEstimator too_many(options);
  EXPECT_THROW(too_many.Train(Shared().table, {}), std::invalid_argument);
}

}  // namespace
}  // namespace arecel
