#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace arecel {

namespace {

double MeanOf(const std::vector<double>& targets,
              const std::vector<int>& rows) {
  double sum = 0.0;
  for (int r : rows) sum += targets[static_cast<size_t>(r)];
  return rows.empty() ? 0.0 : sum / static_cast<double>(rows.size());
}

}  // namespace

int RegressionTree::Build(const std::vector<std::vector<float>>& features,
                          const std::vector<double>& targets,
                          std::vector<int>& rows, int depth,
                          const GbdtOptions& options) {
  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<size_t>(node_index)].value = MeanOf(targets, rows);

  if (depth >= options.max_depth ||
      rows.size() < 2 * static_cast<size_t>(options.min_leaf_size)) {
    return node_index;
  }

  const size_t num_features = features[static_cast<size_t>(rows[0])].size();
  // Total sum/cnt for variance-reduction bookkeeping.
  double total_sum = 0.0;
  for (int r : rows) total_sum += targets[static_cast<size_t>(r)];
  const double n = static_cast<double>(rows.size());

  double best_gain = 1e-12;
  int best_feature = -1;
  float best_threshold = 0.0f;

  std::vector<int> order = rows;
  for (size_t f = 0; f < num_features; ++f) {
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return features[static_cast<size_t>(a)][f] <
             features[static_cast<size_t>(b)][f];
    });
    double left_sum = 0.0;
    for (size_t i = 0; i + 1 < order.size(); ++i) {
      const int row = order[i];
      left_sum += targets[static_cast<size_t>(row)];
      const size_t left_count = i + 1;
      if (left_count < static_cast<size_t>(options.min_leaf_size)) continue;
      if (order.size() - left_count <
          static_cast<size_t>(options.min_leaf_size))
        break;
      const float v = features[static_cast<size_t>(row)][f];
      const float v_next = features[static_cast<size_t>(order[i + 1])][f];
      if (v == v_next) continue;  // cannot split between equal values.
      const double right_sum = total_sum - left_sum;
      const double right_count = n - static_cast<double>(left_count);
      // SSE reduction = left_sum^2/|L| + right_sum^2/|R| - total^2/n.
      const double gain = left_sum * left_sum /
                              static_cast<double>(left_count) +
                          right_sum * right_sum / right_count -
                          total_sum * total_sum / n;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = (v + v_next) / 2.0f;
      }
    }
  }

  if (best_feature < 0) return node_index;

  std::vector<int> left_rows, right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
  for (int r : rows) {
    if (features[static_cast<size_t>(r)][static_cast<size_t>(best_feature)] <=
        best_threshold) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }
  ARECEL_CHECK(!left_rows.empty() && !right_rows.empty());
  rows.clear();
  rows.shrink_to_fit();

  const int left = Build(features, targets, left_rows, depth + 1, options);
  const int right = Build(features, targets, right_rows, depth + 1, options);
  Node& node = nodes_[static_cast<size_t>(node_index)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

void RegressionTree::Fit(const std::vector<std::vector<float>>& features,
                         const std::vector<double>& targets,
                         const GbdtOptions& options) {
  ARECEL_CHECK(features.size() == targets.size());
  ARECEL_CHECK(!features.empty());
  nodes_.clear();
  std::vector<int> rows(features.size());
  std::iota(rows.begin(), rows.end(), 0);
  Build(features, targets, rows, 0, options);
}

double RegressionTree::Predict(const std::vector<float>& x) const {
  ARECEL_CHECK(!nodes_.empty());
  int index = 0;
  while (nodes_[static_cast<size_t>(index)].feature >= 0) {
    const Node& node = nodes_[static_cast<size_t>(index)];
    index = x[static_cast<size_t>(node.feature)] <= node.threshold
                ? node.left
                : node.right;
  }
  return nodes_[static_cast<size_t>(index)].value;
}

void RegressionTree::Serialize(ByteWriter* writer) const {
  writer->U64(nodes_.size());
  for (const Node& node : nodes_) {
    writer->I32(node.feature);
    writer->F32(node.threshold);
    writer->I32(node.left);
    writer->I32(node.right);
    writer->F64(node.value);
  }
}

bool RegressionTree::Deserialize(ByteReader* reader, size_t feature_dim) {
  uint64_t count = 0;
  if (!reader->U64(&count) || count == 0 || count > (1u << 26)) return false;
  // Nodes are appended as they are read, so a forged count fails at the end
  // of the buffer instead of allocating for nodes that are not there.
  nodes_.clear();
  for (uint64_t i = 0; i < count; ++i) {
    Node node;
    if (!reader->I32(&node.feature) || !reader->F32(&node.threshold) ||
        !reader->I32(&node.left) || !reader->I32(&node.right) ||
        !reader->F64(&node.value)) {
      return false;
    }
    // Predict follows these fields unchecked. Build numbers nodes in
    // pre-order, so a split's children come strictly after it; requiring
    // that keeps every walk in bounds and makes it terminate.
    if (node.feature < -1 ||
        (node.feature >= 0 &&
         (static_cast<size_t>(node.feature) >= feature_dim ||
          node.left <= static_cast<int64_t>(i) ||
          node.right <= static_cast<int64_t>(i) ||
          static_cast<uint64_t>(node.left) >= count ||
          static_cast<uint64_t>(node.right) >= count))) {
      return false;
    }
    nodes_.push_back(node);
  }
  return true;
}

void Gbdt::Train(const std::vector<std::vector<float>>& features,
                 const std::vector<double>& targets,
                 const GbdtOptions& options) {
  ARECEL_CHECK(features.size() == targets.size());
  ARECEL_CHECK(!features.empty());
  trees_.clear();
  learning_rate_ = options.learning_rate;
  base_prediction_ =
      std::accumulate(targets.begin(), targets.end(), 0.0) /
      static_cast<double>(targets.size());

  std::vector<double> residuals(targets.size());
  std::vector<double> predictions(targets.size(), base_prediction_);
  for (int t = 0; t < options.num_trees; ++t) {
    for (size_t i = 0; i < targets.size(); ++i)
      residuals[i] = targets[i] - predictions[i];
    RegressionTree tree;
    tree.Fit(features, residuals, options);
    for (size_t i = 0; i < targets.size(); ++i)
      predictions[i] += learning_rate_ * tree.Predict(features[i]);
    trees_.push_back(std::move(tree));
  }
}

double Gbdt::Predict(const std::vector<float>& x) const {
  double prediction = base_prediction_;
  for (const RegressionTree& tree : trees_)
    prediction += learning_rate_ * tree.Predict(x);
  return prediction;
}

void Gbdt::Serialize(ByteWriter* writer) const {
  writer->F64(base_prediction_);
  writer->F64(learning_rate_);
  writer->U64(trees_.size());
  for (const RegressionTree& tree : trees_) tree.Serialize(writer);
}

bool Gbdt::Deserialize(ByteReader* reader, size_t feature_dim) {
  uint64_t count = 0;
  if (!reader->F64(&base_prediction_) || !reader->F64(&learning_rate_) ||
      !reader->U64(&count) || count > (1u << 20)) {
    return false;
  }
  trees_.clear();
  for (uint64_t t = 0; t < count; ++t) {
    RegressionTree tree;
    if (!tree.Deserialize(reader, feature_dim)) return false;
    trees_.push_back(std::move(tree));
  }
  return true;
}

size_t Gbdt::SizeBytes() const {
  size_t total = 0;
  for (const RegressionTree& tree : trees_) total += tree.SizeBytes();
  return total;
}

}  // namespace arecel
