// Pins the training numerics of both MSCN estimators. Each model is trained
// on a small fixture under every ISA tier this machine offers and the
// FNV-1a hash of its serialized bytes is compared with the value the
// per-query trainers produced. The mini-batch trainers must reproduce
// per-query accumulation bit for bit under the fast and quant backends
// (DESIGN.md §10), so these hashes may only change with a deliberate
// change to the training math.
//
// The reference backend sums dW per call into a temporary and so depends
// on how rows are grouped into calls; it is skipped. AVX2 and AVX-512 do the
// same arithmetic per element and hash alike; the portable tier has no FMA and
// hashes differently. The hashes belong to the RelWithDebInfo and Release
// builds at the baseline ISA, which train the same bits; other builds skip
// them (tests/CMakeLists.txt says why).

#include <cstdint>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "core/model_io.h"
#include "data/datasets.h"
#include "data/schema.h"
#include "estimators/join/mscn_join.h"
#include "estimators/learned/mscn.h"
#include "ml/kernels.h"
#include "util/archive.h"
#include "workload/generator.h"
#include "workload/join_generator.h"

namespace arecel {
namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string MscnBytes() {
  DatasetSpec spec = CensusSpec();
  spec.rows = 400;
  const Table table = GenerateDataset(spec, 5);
  const Workload training = GenerateWorkload(table, 300, 6);
  MscnEstimator::Options options;
  options.epochs = 3;
  MscnEstimator mscn(options);
  TrainContext context;
  context.training_workload = &training;
  context.seed = 7;
  mscn.Train(table, context);
  std::string bytes;
  EXPECT_TRUE(SerializeEstimatorBytes(mscn, &bytes));
  return bytes;
}

std::string MscnJoinBytes() {
  StarSchemaOptions star;
  star.fact_rows = 400;
  star.num_dimensions = 2;
  star.dim_rows = 48;
  const Schema schema = GenerateStarSchema(star, 11);
  const Workload training = GenerateWorkload(schema, 200, 12);
  MscnJoinEstimator::Options options;
  options.epochs = 4;
  MscnJoinEstimator mscn(options);
  TrainContext context;
  context.training_workload = &training;
  context.seed = 13;
  mscn.TrainJoin(schema, context);
  ByteWriter writer;
  mscn.SerializeWeights(&writer);
  return writer.buffer();
}

// mscn-join's single-table estimates after Train(table), the path that
// wraps the table in a one-table schema. The goldens band these answers;
// this pins their bits.
std::string MscnJoinSingleTableEstimateBits() {
  DatasetSpec spec = CensusSpec();
  spec.rows = 400;
  const Table table = GenerateDataset(spec, 5);
  const Workload training = GenerateWorkload(table, 300, 6);
  MscnJoinEstimator::Options options;
  options.epochs = 3;
  MscnJoinEstimator mscn(options);
  TrainContext context;
  context.training_workload = &training;
  context.seed = 7;
  mscn.Train(table, context);
  std::string bytes;
  for (const Query& query : GenerateQueries(table, 100, 8)) {
    const double selectivity = mscn.EstimateSelectivity(query);
    bytes.append(reinterpret_cast<const char*>(&selectivity),
                 sizeof(selectivity));
  }
  return bytes;
}

struct PinnedHashes {
  uint64_t portable;
  uint64_t simd;  // avx2 and avx512.
};

void ExpectPinnedPerIsa(std::string (*train)(), const PinnedHashes& pinned) {
#ifndef ARECEL_MSCN_PINNED_BUILD
  GTEST_SKIP() << "hashes hold for the RelWithDebInfo and Release builds "
                  "only (tests/CMakeLists.txt)";
#endif
  if (ActiveMlKernelBackend() == MlKernelBackend::kReference)
    GTEST_SKIP() << "reference backend sums dW per call";
  const std::map<std::string, uint64_t> expected = {
      {"portable", pinned.portable},
      {"avx2", pinned.simd},
      {"avx512", pinned.simd}};
  for (const char* isa : AvailableMlKernelIsas()) {
    ScopedMlKernelIsa scoped(isa);
    ASSERT_TRUE(scoped.ok()) << isa;
    EXPECT_EQ(Fnv1a(train()), expected.at(isa)) << "isa " << isa;
  }
}

TEST(MscnTrainingPinTest, MscnModelBytesMatchPerIsa) {
  ExpectPinnedPerIsa(MscnBytes,
                     {7878478699231528625ull, 11318576255384775464ull});
}

TEST(MscnTrainingPinTest, MscnJoinWeightBytesMatchPerIsa) {
  ExpectPinnedPerIsa(MscnJoinBytes,
                     {8942544487409835659ull, 7916182472546018509ull});
}

TEST(MscnTrainingPinTest, MscnJoinSingleTableEstimatesMatchPerIsa) {
  ExpectPinnedPerIsa(MscnJoinSingleTableEstimateBits,
                     {17046392350236217529ull, 5192756481677556022ull});
}

}  // namespace
}  // namespace arecel
