#ifndef ARECEL_ML_GBDT_H_
#define ARECEL_ML_GBDT_H_

#include <cstddef>
#include <vector>

#include "util/archive.h"

namespace arecel {

// Gradient-boosted regression trees with squared-error loss — the XGBoost
// stand-in behind LW-XGB (DESIGN.md §2). With squared loss, boosting
// reduces to fitting each tree to the current residuals, which is what this
// implements: exact greedy splits (sort-and-scan per feature), depth and
// leaf-size limits, shrinkage.

struct GbdtOptions {
  int num_trees = 64;
  int max_depth = 6;
  int min_leaf_size = 10;
  double learning_rate = 0.2;
};

// One regression tree over dense float feature vectors.
class RegressionTree {
 public:
  // Fits to (features[i], targets[i]) for i in `rows`.
  void Fit(const std::vector<std::vector<float>>& features,
           const std::vector<double>& targets, const GbdtOptions& options);

  double Predict(const std::vector<float>& x) const;

  void Serialize(ByteWriter* writer) const;
  // Rejects a tree Predict could not walk safely on feature vectors of
  // `feature_dim` entries: no nodes, a feature index outside
  // [-1, feature_dim), or a split whose children are not after it or fall
  // outside the tree.
  bool Deserialize(ByteReader* reader, size_t feature_dim);

  size_t num_nodes() const { return nodes_.size(); }
  size_t SizeBytes() const { return nodes_.size() * sizeof(Node); }

 private:
  struct Node {
    int feature = -1;        // -1 for a leaf.
    float threshold = 0.0f;  // go left when x[feature] <= threshold.
    int left = -1;
    int right = -1;
    double value = 0.0;      // leaf prediction.
  };

  int Build(const std::vector<std::vector<float>>& features,
            const std::vector<double>& targets, std::vector<int>& rows,
            int depth, const GbdtOptions& options);

  std::vector<Node> nodes_;
};

// The boosted ensemble.
class Gbdt {
 public:
  void Train(const std::vector<std::vector<float>>& features,
             const std::vector<double>& targets, const GbdtOptions& options);

  double Predict(const std::vector<float>& x) const;

  void Serialize(ByteWriter* writer) const;
  // Every tree is checked as RegressionTree::Deserialize describes.
  bool Deserialize(ByteReader* reader, size_t feature_dim);

  size_t num_trees() const { return trees_.size(); }
  size_t SizeBytes() const;

 private:
  double base_prediction_ = 0.0;
  double learning_rate_ = 0.0;
  std::vector<RegressionTree> trees_;
};

}  // namespace arecel

#endif  // ARECEL_ML_GBDT_H_
