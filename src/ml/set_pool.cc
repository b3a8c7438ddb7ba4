#include "ml/set_pool.h"

#include <algorithm>

#include "util/check.h"

namespace arecel {

void StackSets(const std::vector<Matrix>& sets, const size_t* order,
               size_t count, SetBatch* batch) {
  ARECEL_CHECK(count > 0);
  const size_t cols = sets[order[0]].cols();
  batch->offsets.resize(count + 1);
  batch->offsets[0] = 0;
  for (size_t b = 0; b < count; ++b) {
    ARECEL_CHECK(sets[order[b]].cols() == cols);
    batch->offsets[b + 1] = batch->offsets[b] + sets[order[b]].rows();
  }
  batch->rows.Resize(batch->offsets[count], cols);
  for (size_t b = 0; b < count; ++b) {
    const Matrix& set = sets[order[b]];
    std::copy(set.data(), set.data() + set.size(),
              batch->rows.Row(batch->offsets[b]));
  }
}

void MeanPoolSets(const Matrix& embed, std::span<const size_t> offsets,
                  size_t col, Matrix* out) {
  const size_t sets = offsets.size() - 1, cols = embed.cols();
  ARECEL_CHECK(out->rows() == sets && col + cols <= out->cols());
  ARECEL_CHECK(offsets.back() == embed.rows());
  for (size_t b = 0; b < sets; ++b) {
    ARECEL_CHECK(offsets[b] < offsets[b + 1]);
    float* pooled = out->Row(b) + col;
    std::fill(pooled, pooled + cols, 0.0f);
    for (size_t r = offsets[b]; r < offsets[b + 1]; ++r) {
      const float* row = embed.Row(r);
      for (size_t j = 0; j < cols; ++j) pooled[j] += row[j];
    }
    const float inv = 1.0f / static_cast<float>(offsets[b + 1] - offsets[b]);
    for (size_t j = 0; j < cols; ++j) pooled[j] *= inv;
  }
}

void MeanUnpoolSets(const Matrix& pooled_grad, size_t col, size_t cols,
                    std::span<const size_t> offsets, Matrix* rows_grad) {
  const size_t sets = offsets.size() - 1;
  ARECEL_CHECK(pooled_grad.rows() == sets &&
               col + cols <= pooled_grad.cols());
  rows_grad->Resize(offsets.back(), cols);
  for (size_t b = 0; b < sets; ++b) {
    const float* grad = pooled_grad.Row(b) + col;
    const float inv = 1.0f / static_cast<float>(offsets[b + 1] - offsets[b]);
    for (size_t r = offsets[b]; r < offsets[b + 1]; ++r) {
      float* row = rows_grad->Row(r);
      for (size_t j = 0; j < cols; ++j) row[j] = grad[j] * inv;
    }
  }
}

}  // namespace arecel
