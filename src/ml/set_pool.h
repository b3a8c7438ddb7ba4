#ifndef ARECEL_ML_SET_POOL_H_
#define ARECEL_ML_SET_POOL_H_

#include <cstddef>
#include <span>
#include <vector>

#include "ml/matrix.h"

namespace arecel {

// Set modules of the MSCN estimators (estimators/learned/mscn.h,
// estimators/join/mscn_join.h). A set module embeds every element of a
// variable-size set with one shared MLP and mean-pools the embeddings. A
// mini-batch stacks the sets of all its queries into one matrix, so each
// module's MLP runs once per Adam step; set b owns rows
// [offsets[b], offsets[b + 1]).
struct SetBatch {
  Matrix rows;
  std::vector<size_t> offsets;  // one entry per set, plus the total.
};

// Stacks sets[order[0]], ..., sets[order[count - 1]], which share a column
// count, into `batch`.
void StackSets(const std::vector<Matrix>& sets, const size_t* order,
               size_t count, SetBatch* batch);

// Writes the mean of set b's rows of `embed` to row b of `out`, columns
// [col, col + embed.cols()). The rows are summed in order starting from
// zero and the sum is scaled by 1 / count: the same arithmetic as pooling
// one query at a time, which keeps batched MSCN training bit-identical to
// per-query training (DESIGN.md §10).
void MeanPoolSets(const Matrix& embed, std::span<const size_t> offsets,
                  size_t col, Matrix* out);

// Backward of MeanPoolSets: every row of set b gets
// pooled_grad[b][col, col + cols) / count. Resizes `rows_grad`.
void MeanUnpoolSets(const Matrix& pooled_grad, size_t col, size_t cols,
                    std::span<const size_t> offsets, Matrix* rows_grad);

}  // namespace arecel

#endif  // ARECEL_ML_SET_POOL_H_
