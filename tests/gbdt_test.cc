#include "ml/gbdt.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "core/model_io.h"
#include "data/datasets.h"
#include "estimators/learned/lw_xgb.h"
#include "util/random.h"
#include "workload/generator.h"

namespace arecel {
namespace {

TEST(RegressionTreeTest, ConstantTargetSingleLeaf) {
  std::vector<std::vector<float>> x{{0}, {1}, {2}, {3}};
  std::vector<double> y{5, 5, 5, 5};
  RegressionTree tree;
  GbdtOptions options;
  options.min_leaf_size = 1;
  tree.Fit(x, y, options);
  EXPECT_DOUBLE_EQ(tree.Predict({1.5f}), 5.0);
}

TEST(RegressionTreeTest, PerfectStepFunction) {
  std::vector<std::vector<float>> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({static_cast<float>(i)});
    y.push_back(i < 50 ? -1.0 : 1.0);
  }
  RegressionTree tree;
  GbdtOptions options;
  options.min_leaf_size = 5;
  options.max_depth = 3;
  tree.Fit(x, y, options);
  EXPECT_DOUBLE_EQ(tree.Predict({10.0f}), -1.0);
  EXPECT_DOUBLE_EQ(tree.Predict({90.0f}), 1.0);
}

TEST(RegressionTreeTest, RespectsMinLeafSize) {
  std::vector<std::vector<float>> x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back({static_cast<float>(i)});
    y.push_back(i);
  }
  RegressionTree tree;
  GbdtOptions options;
  options.min_leaf_size = 10;
  options.max_depth = 10;
  tree.Fit(x, y, options);
  // Only one split possible: 20 rows into two 10-row leaves -> 3 nodes.
  EXPECT_LE(tree.num_nodes(), 3u);
}

TEST(RegressionTreeTest, SplitsOnInformativeFeature) {
  Rng rng(1);
  std::vector<std::vector<float>> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const float noise = static_cast<float>(rng.Uniform(0, 1));
    const float signal = static_cast<float>(rng.Uniform(0, 1));
    x.push_back({noise, signal});
    y.push_back(signal > 0.5f ? 10.0 : 0.0);
  }
  RegressionTree tree;
  GbdtOptions options;
  options.min_leaf_size = 20;
  options.max_depth = 1;
  tree.Fit(x, y, options);
  EXPECT_NEAR(tree.Predict({0.9f, 0.9f}), 10.0, 1.5);
  EXPECT_NEAR(tree.Predict({0.9f, 0.1f}), 0.0, 1.5);
}

template <typename T>
std::string Patched(std::string bytes, size_t offset, T value) {
  std::memcpy(&bytes[offset], &value, sizeof(value));
  return bytes;
}

bool Loads(const std::string& bytes, size_t feature_dim) {
  ByteReader reader(bytes);
  RegressionTree tree;
  return tree.Deserialize(&reader, feature_dim);
}

// Serialized tree layout: u64 node count, then per node i32 feature,
// f32 threshold, i32 left, i32 right, f64 value (24 bytes).
TEST(RegressionTreeTest, DeserializeRejectsHostileBytes) {
  std::vector<std::vector<float>> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({static_cast<float>(i % 7), static_cast<float>(i)});
    y.push_back(i < 50 ? -1.0 : 1.0);  // the root splits on feature 1.
  }
  RegressionTree tree;
  GbdtOptions options;
  options.min_leaf_size = 5;
  tree.Fit(x, y, options);
  ASSERT_GT(tree.num_nodes(), 1u);
  ByteWriter writer;
  tree.Serialize(&writer);
  const std::string bytes = writer.buffer();
  ASSERT_TRUE(Loads(bytes, 2));

  // Node 0's left child pointing at node 0 would make Predict loop
  // forever; past the end it would read out of bounds.
  EXPECT_FALSE(Loads(Patched<int32_t>(bytes, 16, 0), 2));
  EXPECT_FALSE(Loads(Patched<int32_t>(bytes, 16, 1 << 20), 2));
  // A forged node count fails at the end of the buffer.
  EXPECT_FALSE(Loads(Patched<uint64_t>(bytes, 0, uint64_t{1} << 26), 2));
  EXPECT_FALSE(Loads(Patched<uint64_t>(bytes, 0, 0), 2));  // empty tree.
  // Feature indices below -1 or outside the feature vector.
  EXPECT_FALSE(Loads(Patched<int32_t>(bytes, 8, -2), 2));
  EXPECT_FALSE(Loads(bytes, 1));
}

TEST(RegressionTreeTest, PatchedLwXgbModelIsCorrupt) {
  const Table table = GenerateSynthetic2D(2000, 1.0, 0.5, 30, 7);
  const Workload training = GenerateWorkload(table, 200, 8);
  LwXgbEstimator estimator;
  TrainContext context;
  context.training_workload = &training;
  estimator.Train(table, context);
  std::string bytes;
  ASSERT_TRUE(SerializeEstimatorBytes(estimator, &bytes));
  LwXgbEstimator intact;
  ASSERT_TRUE(LoadEstimatorBytes(&intact, bytes).ok());

  // The payload ends with the last tree's last node, then the u64 row
  // count. Turn that leaf into a split whose left child points back at it.
  const size_t last_node = bytes.size() - 8 - 24;
  std::string patched = Patched<int32_t>(bytes, last_node, 0);
  patched = Patched<int32_t>(patched, last_node + 8, 0);
  LwXgbEstimator hostile;
  EXPECT_EQ(LoadEstimatorBytes(&hostile, patched).kind,
            FailureKind::kCorruptModel);
}

TEST(GbdtTest, FitsNonlinearFunction) {
  Rng rng(2);
  std::vector<std::vector<float>> x;
  std::vector<double> y;
  for (int i = 0; i < 1000; ++i) {
    const float a = static_cast<float>(rng.Uniform(-2, 2));
    const float b = static_cast<float>(rng.Uniform(-2, 2));
    x.push_back({a, b});
    y.push_back(std::sin(a) + 0.5 * b * b);
  }
  Gbdt model;
  GbdtOptions options;
  options.num_trees = 80;
  options.max_depth = 4;
  options.min_leaf_size = 5;
  options.learning_rate = 0.2;
  model.Train(x, y, options);
  double sse = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = model.Predict(x[i]) - y[i];
    sse += d * d;
  }
  EXPECT_LT(sse / static_cast<double>(x.size()), 0.02);
}

TEST(GbdtTest, MoreTreesReduceTrainingError) {
  Rng rng(3);
  std::vector<std::vector<float>> x;
  std::vector<double> y;
  for (int i = 0; i < 400; ++i) {
    const float a = static_cast<float>(rng.Uniform(0, 1));
    x.push_back({a});
    y.push_back(std::exp(2.0 * a));
  }
  auto sse_with_trees = [&](int trees) {
    Gbdt model;
    GbdtOptions options;
    options.num_trees = trees;
    options.min_leaf_size = 5;
    model.Train(x, y, options);
    double sse = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      const double d = model.Predict(x[i]) - y[i];
      sse += d * d;
    }
    return sse;
  };
  EXPECT_LT(sse_with_trees(64), sse_with_trees(4));
}

TEST(GbdtTest, SizeGrowsWithTrees) {
  Rng rng(4);
  std::vector<std::vector<float>> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({static_cast<float>(i)});
    y.push_back(i % 7);
  }
  Gbdt small, large;
  GbdtOptions options;
  options.num_trees = 4;
  small.Train(x, y, options);
  options.num_trees = 32;
  large.Train(x, y, options);
  EXPECT_GT(large.SizeBytes(), small.SizeBytes());
  EXPECT_EQ(large.num_trees(), 32u);
}

}  // namespace
}  // namespace arecel
