#include "ml/transformer.h"

#include <algorithm>
#include <cmath>

#include "ml/kernels.h"
#include "util/check.h"
#include "util/random.h"

namespace arecel {

void AutoregressiveTransformer::Param::Init(size_t rows, size_t cols,
                                            Rng& rng) {
  value.Resize(rows, cols);
  const float bound = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (size_t i = 0; i < value.size(); ++i)
    value.data()[i] = static_cast<float>(rng.Uniform(-bound, bound));
  grad.Resize(rows, cols);
  grad.Fill(0.0f);
  m.Resize(rows, cols);
  m.Fill(0.0f);
  v.Resize(rows, cols);
  v.Fill(0.0f);
}

void AutoregressiveTransformer::Param::AdamStep(float learning_rate,
                                                int step) {
  AdamUpdate(value.data(), grad.data(), m.data(), v.data(), value.size(),
             learning_rate, step);
  grad.Fill(0.0f);
}

AutoregressiveTransformer::AutoregressiveTransformer(
    std::vector<int> vocab_sizes, const TransformerBackboneOptions& options)
    : vocab_sizes_(std::move(vocab_sizes)),
      d_model_(options.d_model),
      ffn_hidden_(options.ffn_hidden) {
  const size_t n = vocab_sizes_.size();
  ARECEL_CHECK(n >= 1);
  Rng rng(options.seed);

  sos_.Init(1, d_model_, rng);
  positions_.Init(n, d_model_, rng);
  embeddings_.resize(n);
  out_weights_.resize(n);
  out_biases_.resize(n);
  for (size_t j = 0; j < n; ++j) {
    ARECEL_CHECK(vocab_sizes_[j] >= 1);
    embeddings_[j].Init(static_cast<size_t>(vocab_sizes_[j]), d_model_, rng);
    out_weights_[j].Init(d_model_, static_cast<size_t>(vocab_sizes_[j]), rng);
    out_biases_[j].Init(1, static_cast<size_t>(vocab_sizes_[j]), rng);
    out_biases_[j].value.Fill(0.0f);
  }
  blocks_.resize(static_cast<size_t>(options.num_blocks));
  for (Block& block : blocks_) {
    block.wq.Init(d_model_, d_model_, rng);
    block.wk.Init(d_model_, d_model_, rng);
    block.wv.Init(d_model_, d_model_, rng);
    block.wo.Init(d_model_, d_model_, rng);
    block.w1.Init(d_model_, ffn_hidden_, rng);
    block.b1.Init(1, ffn_hidden_, rng);
    block.b1.value.Fill(0.0f);
    block.w2.Init(ffn_hidden_, d_model_, rng);
    block.b2.Init(1, d_model_, rng);
    block.b2.value.Fill(0.0f);
  }
}

void AutoregressiveTransformer::Embed(const std::vector<int32_t>& codes,
                                      size_t batch, size_t valid_prefix,
                                      Matrix* h) const {
  const size_t n = vocab_sizes_.size();
  h->Resize(batch * n, d_model_);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t pos = 0; pos < n; ++pos) {
      float* row = h->Row(b * n + pos);
      const float* position_row = positions_.value.Row(pos);
      if (pos == 0) {
        const float* sos_row = sos_.value.Row(0);
        for (size_t d = 0; d < d_model_; ++d)
          row[d] = sos_row[d] + position_row[d];
        continue;
      }
      // Token for position pos is column pos-1's value; beyond the valid
      // prefix it is zero (cannot influence positions <= valid_prefix via
      // the causal mask anyway).
      if (pos > valid_prefix) {
        for (size_t d = 0; d < d_model_; ++d) row[d] = position_row[d];
        continue;
      }
      const int32_t code = codes[b * n + (pos - 1)];
      ARECEL_CHECK(code >= 0 && code < vocab_sizes_[pos - 1]);
      const float* embedding_row =
          embeddings_[pos - 1].value.Row(static_cast<size_t>(code));
      for (size_t d = 0; d < d_model_; ++d)
        row[d] = embedding_row[d] + position_row[d];
    }
  }
}

void AutoregressiveTransformer::AttentionForward(const Block& block,
                                                 const Matrix& input,
                                                 Matrix* out,
                                                 BlockCache* cache) const {
  const size_t n = vocab_sizes_.size();
  const size_t batch = input.rows() / n;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_model_));

  Matrix q, k, v;
  MatMul(input, block.wq.value, &q);
  MatMul(input, block.wk.value, &k);
  MatMul(input, block.wv.value, &v);

  Matrix context(input.rows(), d_model_, 0.0f);
  std::vector<Matrix> attention(cache != nullptr ? batch : 0);
  std::vector<float> scores;
  for (size_t b = 0; b < batch; ++b) {
    Matrix a(n, n, 0.0f);
    for (size_t i = 0; i < n; ++i) {
      // Causal: position i attends to positions 0..i.
      scores.assign(i + 1, 0.0f);
      float max_s = -1e30f;
      const float* q_row = q.Row(b * n + i);
      for (size_t t = 0; t <= i; ++t) {
        const float* k_row = k.Row(b * n + t);
        float s = 0.0f;
        for (size_t d = 0; d < d_model_; ++d) s += q_row[d] * k_row[d];
        s *= scale;
        scores[t] = s;
        max_s = std::max(max_s, s);
      }
      float sum = 0.0f;
      for (size_t t = 0; t <= i; ++t) {
        scores[t] = std::exp(scores[t] - max_s);
        sum += scores[t];
      }
      float* context_row = context.Row(b * n + i);
      for (size_t t = 0; t <= i; ++t) {
        const float weight = scores[t] / sum;
        a.At(i, t) = weight;
        const float* v_row = v.Row(b * n + t);
        for (size_t d = 0; d < d_model_; ++d)
          context_row[d] += weight * v_row[d];
      }
    }
    if (cache != nullptr) attention[b] = std::move(a);
  }

  // Residual: out = input + context * Wo.
  MatMul(context, block.wo.value, out);
  AddInPlace(out, input);

  if (cache != nullptr) {
    cache->q = std::move(q);
    cache->k = std::move(k);
    cache->v = std::move(v);
    cache->attention = std::move(attention);
    cache->context = std::move(context);
  }
}

void AutoregressiveTransformer::ForwardBlocks(
    Matrix* h, std::vector<BlockCache>* caches) const {
  for (size_t l = 0; l < blocks_.size(); ++l) {
    const Block& block = blocks_[l];
    BlockCache* cache = caches != nullptr ? &(*caches)[l] : nullptr;
    if (cache != nullptr) cache->input = *h;

    Matrix after_attention;
    AttentionForward(block, *h, &after_attention, cache);

    // FFN with residual: h = after + relu(after*W1 + b1)*W2 + b2. The
    // dense+bias (+ReLU on the cache-free inference path) is one fused
    // kernel call; training must keep the pre-activation for backward, so
    // it caches `pre` first and applies ReLU in place afterwards.
    Matrix pre;
    if (cache == nullptr && l < packed_w1_.size() && packed_w1_[l].has &&
        ActiveMlKernelBackend() == MlKernelBackend::kQuant) {
      PackedDenseForward(after_attention, packed_w1_[l],
                         block.b1.value.Row(0), /*relu=*/true, &pre);
    } else {
      DenseForward(after_attention, block.w1.value, block.b1.value.Row(0),
                   /*relu=*/cache == nullptr, &pre);
    }
    if (cache != nullptr) {
      cache->after_attention = after_attention;
      cache->ffn_pre = pre;
      Relu(pre, &pre);
    }
    Matrix ffn_out;
    MatMul(pre, block.w2.value, &ffn_out);
    h->Resize(after_attention.rows(), d_model_);
    for (size_t r = 0; r < h->rows(); ++r) {
      float* dst = h->Row(r);
      const float* base = after_attention.Row(r);
      const float* ffn = ffn_out.Row(r);
      const float* bias = block.b2.value.Row(0);
      for (size_t d = 0; d < d_model_; ++d)
        dst[d] = base[d] + ffn[d] + bias[d];
    }
  }
}

float AutoregressiveTransformer::TrainStep(const std::vector<int32_t>& codes,
                                           size_t batch,
                                           float learning_rate) {
  ClearPacked();  // Adam will mutate every packed source matrix.
  const size_t n = vocab_sizes_.size();
  ARECEL_CHECK(codes.size() >= batch * n);

  Matrix h;
  Embed(codes, batch, n, &h);
  const Matrix h0 = h;
  std::vector<BlockCache> caches(blocks_.size());
  ForwardBlocks(&h, &caches);

  // Output heads: per-column softmax cross-entropy at position col.
  double total_nll = 0.0;
  Matrix dh(h.rows(), d_model_, 0.0f);
  const float inv_batch = 1.0f / static_cast<float>(batch);
  Matrix logits;
  std::vector<double> probs;
  for (size_t col = 0; col < n; ++col) {
    // logits = H_col * Wout + b; rows = batch.
    Matrix h_col(batch, d_model_);
    for (size_t b = 0; b < batch; ++b)
      std::copy(h.Row(b * n + col), h.Row(b * n + col) + d_model_,
                h_col.Row(b));
    DenseForward(h_col, out_weights_[col].value,
                 out_biases_[col].value.Row(0), /*relu=*/false, &logits);
    const size_t vocab = static_cast<size_t>(vocab_sizes_[col]);
    Matrix dlogits(batch, vocab, 0.0f);
    for (size_t b = 0; b < batch; ++b) {
      float* row = logits.Row(b);
      float max_v = -1e30f;
      for (size_t t = 0; t < vocab; ++t)
        max_v = std::max(max_v, row[t]);
      probs.resize(vocab);
      double sum = 0.0;
      for (size_t t = 0; t < vocab; ++t) {
        probs[t] = std::exp(static_cast<double>(row[t] - max_v));
        sum += probs[t];
      }
      const int32_t target = codes[b * n + col];
      for (size_t t = 0; t < vocab; ++t) {
        const double p = probs[t] / sum;
        dlogits.At(b, t) = static_cast<float>(p) * inv_batch;
        if (static_cast<int32_t>(t) == target) {
          dlogits.At(b, t) -= inv_batch;
          total_nll -= std::log(std::max(p, 1e-30));
        }
      }
    }
    // Head gradients and dH at position col.
    MatMulATAccumulate(h_col, dlogits, &out_weights_[col].grad);
    std::vector<float> dbias;
    ColumnSums(dlogits, &dbias);
    for (size_t i = 0; i < dbias.size(); ++i)
      out_biases_[col].grad.data()[i] += dbias[i];
    Matrix dh_col;
    MatMulBT(dlogits, out_weights_[col].value, &dh_col);
    for (size_t b = 0; b < batch; ++b) {
      float* dst = dh.Row(b * n + col);
      const float* src = dh_col.Row(b);
      for (size_t d = 0; d < d_model_; ++d) dst[d] += src[d];
    }
  }

  // Backward through the blocks (reverse order).
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_model_));
  for (size_t l = blocks_.size(); l-- > 0;) {
    Block& block = blocks_[l];
    BlockCache& cache = caches[l];

    // --- FFN backward: out = after + relu(pre)*W2 + b2. ---
    Matrix relu;
    Relu(cache.ffn_pre, &relu);
    std::vector<float> db2;
    ColumnSums(dh, &db2);
    for (size_t i = 0; i < db2.size(); ++i)
      block.b2.grad.data()[i] += db2[i];
    MatMulATAccumulate(relu, dh, &block.w2.grad);
    Matrix dpre;
    MatMulBT(dh, block.w2.value, &dpre);
    for (size_t i = 0; i < dpre.size(); ++i) {
      if (cache.ffn_pre.data()[i] <= 0.0f) dpre.data()[i] = 0.0f;
    }
    std::vector<float> db1;
    ColumnSums(dpre, &db1);
    for (size_t i = 0; i < db1.size(); ++i)
      block.b1.grad.data()[i] += db1[i];
    MatMulATAccumulate(cache.after_attention, dpre, &block.w1.grad);
    // d(after_attention) = dh (residual) + dpre * W1^T.
    Matrix dafter;
    MatMulBT(dpre, block.w1.value, &dafter);
    AddInPlace(&dafter, dh);

    // --- Attention backward: after = input + (A V) Wo. ---
    MatMulATAccumulate(cache.context, dafter, &block.wo.grad);
    Matrix dcontext;
    MatMulBT(dafter, block.wo.value, &dcontext);

    const size_t batch_rows = cache.input.rows();
    const size_t samples = batch_rows / n;
    Matrix dq(batch_rows, d_model_, 0.0f);
    Matrix dk(batch_rows, d_model_, 0.0f);
    Matrix dv(batch_rows, d_model_, 0.0f);
    for (size_t b = 0; b < samples; ++b) {
      const Matrix& a = cache.attention[b];
      for (size_t i = 0; i < n; ++i) {
        const float* dcontext_row = dcontext.Row(b * n + i);
        // dA_row and dV accumulation.
        std::vector<float> da(i + 1, 0.0f);
        for (size_t t = 0; t <= i; ++t) {
          const float* v_row = cache.v.Row(b * n + t);
          float acc = 0.0f;
          for (size_t d = 0; d < d_model_; ++d)
            acc += dcontext_row[d] * v_row[d];
          da[t] = acc;
          float* dv_row = dv.Row(b * n + t);
          const float weight = a.At(i, t);
          for (size_t d = 0; d < d_model_; ++d)
            dv_row[d] += weight * dcontext_row[d];
        }
        // Softmax backward: ds = a .* (da - sum(da .* a)).
        float dot = 0.0f;
        for (size_t t = 0; t <= i; ++t) dot += da[t] * a.At(i, t);
        float* dq_row = dq.Row(b * n + i);
        const float* q_row = cache.q.Row(b * n + i);
        for (size_t t = 0; t <= i; ++t) {
          const float ds = a.At(i, t) * (da[t] - dot) * scale;
          if (ds == 0.0f) continue;
          const float* k_row = cache.k.Row(b * n + t);
          float* dk_row = dk.Row(b * n + t);
          for (size_t d = 0; d < d_model_; ++d) {
            dq_row[d] += ds * k_row[d];
            dk_row[d] += ds * q_row[d];
          }
        }
      }
    }
    // Projection gradients and dInput.
    MatMulATAccumulate(cache.input, dq, &block.wq.grad);
    MatMulATAccumulate(cache.input, dk, &block.wk.grad);
    MatMulATAccumulate(cache.input, dv, &block.wv.grad);
    Matrix dinput_q, dinput_k, dinput_v;
    MatMulBT(dq, block.wq.value, &dinput_q);
    MatMulBT(dk, block.wk.value, &dinput_k);
    MatMulBT(dv, block.wv.value, &dinput_v);
    // dInput = residual (dafter) + Q/K/V paths; becomes dh for block below.
    dh = dafter;
    for (size_t i = 0; i < dh.size(); ++i)
      dh.data()[i] += dinput_q.data()[i] + dinput_k.data()[i] +
                      dinput_v.data()[i];
  }

  // --- Embedding backward. ---
  for (size_t b = 0; b < batch; ++b) {
    for (size_t pos = 0; pos < n; ++pos) {
      const float* dh0_row = dh.Row(b * n + pos);
      float* dpos_row = positions_.grad.Row(pos);
      for (size_t d = 0; d < d_model_; ++d) dpos_row[d] += dh0_row[d];
      if (pos == 0) {
        float* dsos = sos_.grad.Row(0);
        for (size_t d = 0; d < d_model_; ++d) dsos[d] += dh0_row[d];
      } else {
        const int32_t code = codes[b * n + (pos - 1)];
        float* demb = embeddings_[pos - 1].grad.Row(
            static_cast<size_t>(code));
        for (size_t d = 0; d < d_model_; ++d) demb[d] += dh0_row[d];
      }
    }
  }
  (void)h0;

  ++adam_step_;
  sos_.AdamStep(learning_rate, adam_step_);
  positions_.AdamStep(learning_rate, adam_step_);
  for (auto& embedding : embeddings_)
    embedding.AdamStep(learning_rate, adam_step_);
  for (Block& block : blocks_) {
    for (Param* param : {&block.wq, &block.wk, &block.wv, &block.wo,
                         &block.w1, &block.b1, &block.w2, &block.b2})
      param->AdamStep(learning_rate, adam_step_);
  }
  for (size_t j = 0; j < vocab_sizes_.size(); ++j) {
    out_weights_[j].AdamStep(learning_rate, adam_step_);
    out_biases_[j].AdamStep(learning_rate, adam_step_);
  }
  return static_cast<float>(total_nll / static_cast<double>(batch));
}

void AutoregressiveTransformer::ColumnLogits(const std::vector<int32_t>& codes,
                                             size_t batch, size_t col,
                                             Matrix* logits) const {
  const size_t n = vocab_sizes_.size();
  Matrix h;
  Embed(codes, batch, col, &h);
  ForwardBlocks(&h, nullptr);
  Matrix h_col(batch, d_model_);
  for (size_t b = 0; b < batch; ++b)
    std::copy(h.Row(b * n + col), h.Row(b * n + col) + d_model_,
              h_col.Row(b));
  if (col < packed_out_.size() && packed_out_[col].has &&
      ActiveMlKernelBackend() == MlKernelBackend::kQuant) {
    PackedDenseForward(h_col, packed_out_[col], out_biases_[col].value.Row(0),
                       /*relu=*/false, logits);
    return;
  }
  DenseForward(h_col, out_weights_[col].value, out_biases_[col].value.Row(0),
               /*relu=*/false, logits);
}

void AutoregressiveTransformer::PackForInference() {
  packed_out_.resize(out_weights_.size());
  for (size_t j = 0; j < out_weights_.size(); ++j)
    packed_out_[j].Build(out_weights_[j].value);
  packed_w1_.resize(blocks_.size());
  for (size_t l = 0; l < blocks_.size(); ++l)
    packed_w1_[l].Build(blocks_[l].w1.value);
}

void AutoregressiveTransformer::ClearPacked() {
  packed_out_.clear();
  packed_w1_.clear();
}

size_t AutoregressiveTransformer::ParamCount() const {
  size_t total = sos_.value.size() + positions_.value.size();
  for (const auto& embedding : embeddings_) total += embedding.value.size();
  for (const Block& block : blocks_) {
    total += block.wq.value.size() + block.wk.value.size() +
             block.wv.value.size() + block.wo.value.size() +
             block.w1.value.size() + block.b1.value.size() +
             block.w2.value.size() + block.b2.value.size();
  }
  for (size_t j = 0; j < vocab_sizes_.size(); ++j)
    total += out_weights_[j].value.size() + out_biases_[j].value.size();
  return total;
}

namespace {

void WriteParam(const Matrix& value, ByteWriter* writer) {
  writer->U64(value.rows());
  writer->U64(value.cols());
  writer->Floats(
      std::vector<float>(value.data(), value.data() + value.size()));
}

bool ReadParam(ByteReader* reader, Matrix* value) {
  uint64_t rows = 0, cols = 0;
  std::vector<float> data;
  if (!reader->U64(&rows) || !reader->U64(&cols) || !reader->Floats(&data))
    return false;
  if (rows != value->rows() || cols != value->cols() ||
      data.size() != value->size()) {
    return false;
  }
  std::copy(data.begin(), data.end(), value->data());
  return true;
}

}  // namespace

void AutoregressiveTransformer::Serialize(ByteWriter* writer) const {
  // Tag value 2 = Transformer backbone; must agree with the deserializing
  // factory in ml/autoregressive.cc.
  writer->U32(2);
  writer->Ints(vocab_sizes_);
  writer->U64(d_model_);
  writer->U64(ffn_hidden_);
  writer->U32(static_cast<uint32_t>(blocks_.size()));
  WriteParam(sos_.value, writer);
  WriteParam(positions_.value, writer);
  for (const Param& embedding : embeddings_) WriteParam(embedding.value, writer);
  for (const Block& block : blocks_) {
    for (const Param* p : {&block.wq, &block.wk, &block.wv, &block.wo,
                           &block.w1, &block.b1, &block.w2, &block.b2})
      WriteParam(p->value, writer);
  }
  for (const Param& w : out_weights_) WriteParam(w.value, writer);
  for (const Param& b : out_biases_) WriteParam(b.value, writer);
}

bool AutoregressiveTransformer::DeserializeParams(ByteReader* reader) {
  ClearPacked();
  if (!ReadParam(reader, &sos_.value) || !ReadParam(reader, &positions_.value))
    return false;
  for (Param& embedding : embeddings_)
    if (!ReadParam(reader, &embedding.value)) return false;
  for (Block& block : blocks_) {
    for (Param* p : {&block.wq, &block.wk, &block.wv, &block.wo, &block.w1,
                     &block.b1, &block.w2, &block.b2})
      if (!ReadParam(reader, &p->value)) return false;
  }
  for (Param& w : out_weights_)
    if (!ReadParam(reader, &w.value)) return false;
  for (Param& b : out_biases_)
    if (!ReadParam(reader, &b.value)) return false;
  return true;
}

}  // namespace arecel
