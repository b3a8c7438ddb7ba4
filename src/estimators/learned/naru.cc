#include "estimators/learned/naru.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "robustness/failure.h"
#include "util/check.h"
#include "util/random.h"

namespace arecel {

void NaruEstimator::RunEpochs(const Table& table, int epochs, uint64_t seed,
                              const CancellationToken* cancel) {
  const size_t n = table.num_cols();
  std::vector<int32_t> all_codes;
  EncodeRowsWithBinnings(table, binnings_, &all_codes);
  const size_t rows = table.num_rows();

  Rng rng(seed);
  const size_t train_rows = std::min(rows, options_.max_train_rows);
  std::vector<size_t> order(rows);
  for (size_t i = 0; i < rows; ++i) order[i] = i;

  const size_t batch = std::min(options_.batch_size, train_rows);
  std::vector<int32_t> batch_codes(batch * n);

  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (cancel && cancel->cancelled()) throw CancelledError("naru train");
    rng.Shuffle(order);
    double epoch_nll = 0.0;
    size_t steps = 0;
    for (size_t start = 0; start + batch <= train_rows; start += batch) {
      for (size_t b = 0; b < batch; ++b) {
        const size_t row = order[start + b];
        std::copy(&all_codes[row * n], &all_codes[row * n] + n,
                  &batch_codes[b * n]);
      }
      epoch_nll +=
          model_->TrainStep(batch_codes, batch, options_.learning_rate);
      ++steps;
    }
    if (steps > 0) final_loss_ = epoch_nll / static_cast<double>(steps);
  }
}

void NaruEstimator::Train(const Table& table, const TrainContext& context) {
  if (options_.sample_count < 1 || options_.sample_count > kMaxSampleCount)
    throw std::invalid_argument("naru sample_count " +
                                std::to_string(options_.sample_count) +
                                " outside [1, " +
                                std::to_string(kMaxSampleCount) + "]");
  binnings_ = BuildColumnBinnings(table, options_.max_vocab);
  std::vector<int> vocabs;
  vocabs.reserve(table.num_cols());
  for (const auto& binning : binnings_) vocabs.push_back(binning.num_bins());
  if (options_.backbone == Backbone::kTransformer) {
    TransformerBackboneOptions model_options;
    model_options.d_model = options_.d_model;
    model_options.ffn_hidden = options_.ffn_hidden;
    model_options.num_blocks = options_.num_blocks;
    model_options.seed = context.seed;
    model_ = MakeTransformerModel(std::move(vocabs), model_options);
  } else {
    ResMadeBackboneOptions model_options;
    model_options.hidden_units = options_.hidden_units;
    model_options.num_blocks = options_.num_blocks;
    model_options.seed = context.seed;
    model_ = MakeResMadeModel(std::move(vocabs), model_options);
  }
  RunEpochs(table, options_.epochs, context.seed + 1, context.cancellation);
}

void NaruEstimator::Update(const Table& table, const UpdateContext& context) {
  ARECEL_CHECK_MSG(model_ != nullptr, "Train() must run before Update()");
  // Keep the model and its vocabulary; run the configured number of extra
  // epochs over the updated table (the paper's Naru update procedure).
  const int epochs =
      context.epochs > 0 ? context.epochs : options_.update_epochs;
  RunEpochs(table, epochs, context.seed);
}

double NaruEstimator::EstimateSelectivity(const Query& query) const {
  ARECEL_CHECK_MSG(model_ != nullptr, "Train() must run first");
  const size_t n = binnings_.size();

  // Per-column allowed bin ranges.
  std::vector<std::pair<int, int>> ranges(n);
  for (size_t c = 0; c < n; ++c)
    ranges[c] = {0, binnings_[c].num_bins() - 1};
  for (const Predicate& p : query.predicates) {
    const size_t c = static_cast<size_t>(p.column);
    const auto [first, last] = binnings_[c].Range(p.lo, p.hi);
    ranges[c].first = std::max(ranges[c].first, first);
    ranges[c].second = std::min(ranges[c].second, last);
    if (ranges[c].first > ranges[c].second) return 0.0;
  }

  // Progressive sampling. Each estimate draws fresh randomness (stochastic
  // inference is intrinsic to Naru and probed by Figure 11 / Table 6).
  const uint64_t draw =
      options_.pin_sampling_seed ? 0xabcdef12u : estimate_counter_++;
  Rng rng(0x9e3779b97f4a7c15ULL ^ (draw * 0xd1342543de82ef95ULL));

  const size_t samples = static_cast<size_t>(options_.sample_count);
  std::vector<int32_t> codes(samples * n, 0);
  std::vector<double> weights(samples, 1.0);
  Matrix logits;
  std::vector<double> probs;

  for (size_t c = 0; c < n; ++c) {
    model_->ColumnLogits(codes, samples, c, &logits);
    const auto [lo_bin, hi_bin] = ranges[c];
    const size_t vocab = static_cast<size_t>(binnings_[c].num_bins());
    for (size_t s = 0; s < samples; ++s) {
      if (weights[s] == 0.0) continue;
      // Softmax over the sliced logits row (ForwardColumnLogits returns the
      // segment at offset 0).
      {
        const float* row = logits.Row(s);
        probs.resize(vocab);
        float max_v = row[0];
        for (size_t v = 1; v < vocab; ++v) max_v = std::max(max_v, row[v]);
        double sum = 0.0;
        for (size_t v = 0; v < vocab; ++v) {
          probs[v] = std::exp(static_cast<double>(row[v] - max_v));
          sum += probs[v];
        }
        for (size_t v = 0; v < vocab; ++v) probs[v] /= sum;
      }
      double mass = 0.0;
      for (int v = lo_bin; v <= hi_bin; ++v)
        mass += probs[static_cast<size_t>(v)];
      if (mass <= 0.0) {
        weights[s] = 0.0;
        continue;
      }
      weights[s] *= mass;
      // Sample the next code proportionally within the allowed range.
      double target = rng.Uniform() * mass;
      int chosen = hi_bin;
      for (int v = lo_bin; v <= hi_bin; ++v) {
        target -= probs[static_cast<size_t>(v)];
        if (target <= 0.0) {
          chosen = v;
          break;
        }
      }
      codes[s * n + c] = chosen;
    }
  }

  double total = 0.0;
  for (double w : weights) total += w;
  return std::clamp(total / static_cast<double>(samples), 0.0, 1.0);
}

bool NaruEstimator::SerializeModel(ByteWriter* writer) const {
  if (model_ == nullptr) return false;
  writer->U64(binnings_.size());
  for (const ColumnBinning& binning : binnings_) {
    writer->Doubles(binning.bin_min);
    writer->Doubles(binning.bin_max);
  }
  writer->U32(static_cast<uint32_t>(options_.sample_count));
  writer->U32(options_.pin_sampling_seed ? 1u : 0u);
  model_->Serialize(writer);
  return true;
}

bool NaruEstimator::DeserializeModel(ByteReader* reader) {
  uint64_t cols = 0;
  if (!reader->U64(&cols) || cols == 0 || cols > (1u << 16)) return false;
  std::vector<ColumnBinning> binnings(cols);
  for (ColumnBinning& binning : binnings) {
    if (!reader->Doubles(&binning.bin_min) ||
        !reader->Doubles(&binning.bin_max) || binning.bin_min.empty() ||
        binning.bin_min.size() != binning.bin_max.size()) {
      return false;
    }
    // Edges ordered as BuildColumnBinnings builds them: bin_min[i] <=
    // bin_max[i] < bin_min[i + 1]. The comparisons fail on NaN; +-inf are
    // valid domain values and pass.
    const std::vector<double>& lo = binning.bin_min;
    const std::vector<double>& hi = binning.bin_max;
    for (size_t i = 0; i < lo.size(); ++i) {
      if (!(lo[i] <= hi[i])) return false;
      if (i + 1 < lo.size() && !(hi[i] < lo[i + 1])) return false;
    }
  }
  uint32_t sample_count = 0, pin_seed = 0;
  if (!reader->U32(&sample_count) || !reader->U32(&pin_seed) ||
      sample_count == 0 ||
      sample_count > static_cast<uint32_t>(kMaxSampleCount)) {
    return false;
  }
  std::unique_ptr<AutoregressiveModel> model =
      DeserializeAutoregressiveModel(reader);
  if (model == nullptr || model->num_columns() != cols) return false;
  for (size_t c = 0; c < cols; ++c) {
    if (model->vocab_size(c) != binnings[c].num_bins()) return false;
  }
  binnings_ = std::move(binnings);
  model_ = std::move(model);
  options_.sample_count = static_cast<int>(sample_count);
  options_.pin_sampling_seed = pin_seed != 0;
  estimate_counter_ = 0;
  final_loss_ = 0.0;
  return true;
}

size_t NaruEstimator::SizeBytes() const {
  size_t binning_bytes = 0;
  for (const auto& binning : binnings_)
    binning_bytes += 2 * binning.bin_min.size() * sizeof(double);
  return (model_ ? model_->ParamCount() * sizeof(float) : 0) + binning_bytes;
}

}  // namespace arecel
