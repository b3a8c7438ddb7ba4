// Micro + end-to-end benchmark of the ML compute kernels (ml/kernels.h):
// the fast backend (SIMD, cache-blocked, fused epilogues) against the
// reference backend (the historical scalar loops, kept verbatim as the
// numerical baseline). Three layers of measurement:
//
//   1. a matmul grid (MatMul / MatMulBT / MatMulAT over mixed shapes,
//      including tile-unaligned ones) with per-cell divergence checks, and
//      fused-op cells: DenseBackward with ReLU at MSCN's and ResMADE's
//      training shapes, and Adam over MSCN's three MLPs;
//   2. end-to-end sections at the granularity the estimators actually pay:
//      a ResMADE training run, a Naru progressive-sampling estimate batch,
//      and LW-NN and MSCN training runs, each timed under both backends;
//   3. quick single-backend timings of the non-matrix ML substrate (GBDT,
//      k-means, RDC) for continuity with earlier perf tracking.
//
// Every fast/reference pair also compares outputs, so the bench doubles as
// a coarse differential gate: it exits nonzero when any divergence exceeds
// its documented tolerance. Emits machine-readable BENCH_ml.json (default
// at the repo root) to seed the perf trajectory: later PRs touching ml/
// re-run this bench and compare against the committed baseline.
//
// Usage: bench_micro_ml [--smoke] [--out <path>] (bench_report.h). The
// smoke configuration skips layers 1 and 3 and runs the end-to-end sections
// on tiny sizes, where speedups are informational but the gates still hold.
//
// The quant tier (ARECEL_ML_KERNEL=quant, ml/packed.h) is measured in two
// extra layers: a fast-vs-quant dense-forward grid, and a quantized Naru
// estimate batch gated on end-to-end q-error divergence vs the fp32 fast
// path (quantization is lossy by design, so the gate is a q-error budget,
// not a float tolerance).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.h"
#include "data/datasets.h"
#include "estimators/learned/lw_nn.h"
#include "estimators/learned/mscn.h"
#include "estimators/learned/naru.h"
#include "ml/gbdt.h"
#include "ml/kernels.h"
#include "ml/kmeans.h"
#include "ml/made.h"
#include "ml/matrix.h"
#include "ml/nn.h"
#include "ml/packed.h"
#include "ml/rdc.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace {

using namespace arecel;

// Seconds per call: warm up once, then double the repetition count until the
// timed loop is long enough to trust the clock.
template <typename F>
double TimePerCall(F&& fn, double min_seconds = 0.08) {
  fn();
  size_t reps = 1;
  for (;;) {
    Timer timer;
    for (size_t i = 0; i < reps; ++i) fn();
    const double s = timer.ElapsedSeconds();
    if (s >= min_seconds || reps >= (1u << 22)) return s / static_cast<double>(reps);
    reps = s <= 1e-9 ? reps * 16
                     : std::max(reps * 2,
                                static_cast<size_t>(
                                    static_cast<double>(reps) * min_seconds / s) +
                                    1);
  }
}

float MaxAbsDiff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return 1e30f;
  float worst = 0.0f;
  for (size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  return worst;
}

void FillRandom(Matrix* m, Rng& rng) {
  for (size_t i = 0; i < m->size(); ++i)
    m->data()[i] = static_cast<float>(rng.Uniform(-1, 1));
}

// ---- matmul grid ----------------------------------------------------------

struct MicroCell {
  const char* op = "";
  size_t m = 0, k = 0, n = 0;
  double reference_seconds = 0.0;
  double fast_seconds = 0.0;
  double divergence = 0.0;

  double speedup() const {
    return fast_seconds > 0.0 ? reference_seconds / fast_seconds : 0.0;
  }
  double gflops_fast() const {
    return fast_seconds > 0.0
               ? 2.0 * static_cast<double>(m * k * n) / fast_seconds / 1e9
               : 0.0;
  }
};

// Absolute divergence tolerance for a k-length float32 contraction over
// inputs in [-1, 1]: FMA + 8-lane tree reduction vs strict left-to-right
// accumulation. Empirically the worst case over these shapes is ~1e-4;
// 2e-3 matches the tolerance tests/matrix_test.cc has always used.
constexpr double kMicroTolerance = 2e-3;

MicroCell MeasureMicroCell(const char* op, size_t m, size_t k, size_t n) {
  MicroCell cell;
  cell.op = op;
  cell.m = m;
  cell.k = k;
  cell.n = n;
  Rng rng(99);
  Matrix a, b, out_ref, out_fast;
  const bool bt = std::string(op) == "MatMulBT";
  const bool at = std::string(op) == "MatMulAT";
  if (bt) {
    a.Resize(m, k);
    b.Resize(n, k);
  } else if (at) {
    a.Resize(k, m);
    b.Resize(k, n);
  } else {
    a.Resize(m, k);
    b.Resize(k, n);
  }
  FillRandom(&a, rng);
  FillRandom(&b, rng);
  auto run = [&](Matrix* out) {
    if (bt) {
      MatMulBT(a, b, out);
    } else if (at) {
      MatMulAT(a, b, out);
    } else {
      MatMul(a, b, out);
    }
  };
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
    cell.reference_seconds = TimePerCall([&] { run(&out_ref); });
  }
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
    cell.fast_seconds = TimePerCall([&] { run(&out_fast); });
  }
  cell.divergence = MaxAbsDiff(out_ref, out_fast);
  return cell;
}

// ---- quant dense-forward grid ----------------------------------------------

// One DenseForward shape measured on the two serving tiers: the fast fp32
// kernel over row-major weights and the int8 quant kernel over the packed
// weights (ml/packed.h). The quant tier is lossy by construction; the grid
// reports its max abs output error for visibility, and the end-to-end
// acceptance gate lives in the naru q-error section below.
struct QuantCell {
  size_t m = 0, k = 0, n = 0;
  double fast_seconds = 0.0;   // fp32 DenseForward.
  double quant_seconds = 0.0;  // int8 PackedDenseForward.
  double quant_max_abs = 0.0;

  double quant_speedup() const {
    return quant_seconds > 0.0 ? fast_seconds / quant_seconds : 0.0;
  }
};

QuantCell MeasureQuantCell(size_t m, size_t k, size_t n) {
  QuantCell cell;
  cell.m = m;
  cell.k = k;
  cell.n = n;
  Rng rng(123);
  Matrix input, weights;
  input.Resize(m, k);
  weights.Resize(k, n);
  FillRandom(&input, rng);
  FillRandom(&weights, rng);
  std::vector<float> bias(n);
  for (auto& v : bias) v = static_cast<float>(rng.Uniform(-1, 1));
  PackedDenseWeights packed;
  packed.Build(weights);

  Matrix out_fast, out_quant;
  ScopedMlKernelBackend fast_scope(MlKernelBackend::kFast);
  cell.fast_seconds = TimePerCall(
      [&] { DenseForward(input, weights, bias.data(), true, &out_fast); });
  cell.quant_seconds = TimePerCall([&] {
    PackedDenseForward(input, packed, bias.data(), true, &out_quant);
  });
  cell.quant_max_abs = MaxAbsDiff(out_fast, out_quant);
  return cell;
}

// ---- end-to-end sections --------------------------------------------------

struct Section {
  std::string name;
  double reference_seconds = 0.0;
  double fast_seconds = 0.0;
  // Max abs difference between the two backends evaluating the *same
  // trained model* on the same inputs (training trajectories are allowed to
  // drift — summation order differs by design; see ml/kernels.h).
  double divergence = 0.0;
  double tolerance = 0.0;
  std::string detail;

  double speedup() const {
    return fast_seconds > 0.0 ? reference_seconds / fast_seconds : 0.0;
  }
  bool within_tolerance() const { return divergence <= tolerance; }
};

// ---- fused-op cells -------------------------------------------------------

// DenseBackward with ReLU at one training shape, timed under both backends.
// The pre-activations take random signs, so the mask passes about half the
// gradient in no pattern a branch predictor could learn, as in training; a
// constant all-positive input would let a scalar branch inside the fused
// pass go unseen. `with_input_grad` adds the dX product, which a network's
// first layer skips. Divergence is the largest difference among the
// weight, bias and input gradients of one call from zeroed accumulators.
Section BenchDenseBackwardRelu(const char* name, size_t m, size_t k, size_t n,
                               bool with_input_grad) {
  Section section;
  section.name = name;
  section.detail = std::to_string(m) + "x" + std::to_string(k) + "->" +
                   std::to_string(n) +
                   (with_input_grad ? " relu with dX" : " relu no dX");
  Rng rng(77);
  Matrix input(m, k), weights(k, n), preact(m, n), output_grad(m, n);
  FillRandom(&input, rng);
  FillRandom(&weights, rng);
  FillRandom(&preact, rng);
  FillRandom(&output_grad, rng);
  struct Grads {
    Matrix weight, input, dz;
    std::vector<float> bias;
  };
  const auto fresh = [&] {
    Grads g;
    g.weight = Matrix(k, n, 0.0f);
    g.bias.assign(n, 0.0f);
    return g;
  };
  const auto run = [&](Grads* g) {
    DenseBackward(input, preact, /*relu=*/true, output_grad, weights,
                  &g->weight, g->bias.data(),
                  with_input_grad ? &g->input : nullptr, &g->dz);
  };
  Grads ref = fresh(), fast = fresh();
  for (const MlKernelBackend backend :
       {MlKernelBackend::kReference, MlKernelBackend::kFast}) {
    ScopedMlKernelBackend scoped(backend);
    const bool is_ref = backend == MlKernelBackend::kReference;
    run(is_ref ? &ref : &fast);
    Grads scratch = fresh();
    (is_ref ? section.reference_seconds : section.fast_seconds) =
        TimePerCall([&] { run(&scratch); });
  }
  double divergence = MaxAbsDiff(ref.weight, fast.weight);
  if (with_input_grad)
    divergence =
        std::max<double>(divergence, MaxAbsDiff(ref.input, fast.input));
  for (size_t j = 0; j < n; ++j)
    divergence =
        std::max<double>(divergence, std::abs(ref.bias[j] - fast.bias[j]));
  section.divergence = divergence;
  section.tolerance = kMicroTolerance;
  return section;
}

// Adam over MSCN's three MLPs (predicates 17-48-48 over a 496-atom batch,
// sample bitmap 256-48-48 and output 96-48-1 over 64 queries) for the 960
// steps of one cold train (2000 queries, batch 64, 30 epochs), timing only
// the AdamStep calls. A third of the bitmap columns go quiet after the
// first epoch's 32 steps, as sample rows that the batches stop selecting
// do: their weights' gradients turn zero and their first moments decay by
// 0.9 a step into the subnormal range within the run, where every vector
// instruction with a subnormal lane takes a microcode assist.
// Adam's code is the same under both backends, so the reference column
// runs the AdamStep calls on the portable tier, the loop every tier must
// reproduce, and the fast column on the active tier. Forward and backward
// run on the active tier both times, so both runs must end with identical
// parameters (tolerance 0).
Section BenchAdamStepMscn() {
  constexpr size_t kSteps = 960;
  Section section;
  section.name = "adam_step_mscn";
  section.detail = "mlps=17-48-48,256-48-48,96-48-1 steps=" +
                   std::to_string(kSteps);
  Rng rng(79);
  Matrix pred_in(496, 17), out_in(64, 96);
  Matrix pred_grad(496, 48), sample_grad(64, 48), out_grad(64, 1);
  for (Matrix* m : {&pred_in, &out_in, &pred_grad, &sample_grad, &out_grad})
    FillRandom(m, rng);
  Matrix first_epoch_bitmap(64, 256), bitmap(64, 256);
  for (size_t r = 0; r < bitmap.rows(); ++r) {
    for (size_t c = 0; c < bitmap.cols(); ++c) {
      const float bit = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
      first_epoch_bitmap.At(r, c) = bit;
      bitmap.At(r, c) = c < 171 ? bit : 0.0f;
    }
  }
  const auto train = [&](const char* adam_isa, std::vector<float>* params) {
    Rng init(3);
    Mlp pred({17, 48, 48}, init), sample({256, 48, 48}, init),
        out({96, 48, 1}, init);
    Matrix activations;
    double seconds = 0.0;
    for (size_t step = 0; step < kSteps; ++step) {
      pred.ForwardTrain(pred_in, &activations);
      pred.Backward(pred_grad);
      sample.ForwardTrain(step < 32 ? first_epoch_bitmap : bitmap,
                          &activations);
      sample.Backward(sample_grad);
      out.ForwardTrain(out_in, &activations);
      out.Backward(out_grad);
      ScopedMlKernelIsa isa(adam_isa);
      Timer timer;
      pred.AdamStep(1e-3f);
      sample.AdamStep(1e-3f);
      out.AdamStep(1e-3f);
      seconds += timer.ElapsedSeconds();
    }
    for (const Mlp* mlp : {&pred, &sample, &out}) {
      for (const DenseLayer& layer : mlp->layers()) {
        const Matrix& w = layer.weights();
        params->insert(params->end(), w.data(), w.data() + w.size());
        params->insert(params->end(), layer.bias().begin(),
                       layer.bias().end());
      }
    }
    return seconds / static_cast<double>(kSteps);
  };
  std::vector<float> portable_params, active_params;
  section.reference_seconds = train("portable", &portable_params);
  section.fast_seconds = train(MlKernelSimdName(), &active_params);
  for (size_t i = 0; i < portable_params.size(); ++i)
    section.divergence =
        std::max<double>(section.divergence,
                         std::abs(portable_params[i] - active_params[i]));
  section.tolerance = 0.0;
  return section;
}

// A ResMADE training run at paper scale (hidden 64, two residual blocks,
// four 256-vocab columns) — the inner loop of Naru training (Figure 4's
// dominant cost). Both backends train from identical init on the same
// batch; divergence compares the fast-trained model's logits evaluated
// under both backends.
Section BenchResMadeTrain(size_t steps, size_t batch) {
  Section section;
  section.name = "resmade_train";
  section.detail = "steps=" + std::to_string(steps) +
                   " batch=" + std::to_string(batch);
  const std::vector<int> vocabs = {256, 256, 256, 256};
  ResMade::Options options;
  options.hidden_units = 64;

  Rng rng(7);
  Matrix input;
  std::vector<int32_t> targets(batch * vocabs.size());
  {
    ResMade probe(vocabs, options);
    input.Resize(batch, probe.input_dim());
    for (size_t b = 0; b < batch; ++b) {
      int32_t codes[4];
      for (size_t j = 0; j < vocabs.size(); ++j) {
        codes[j] = static_cast<int32_t>(
            rng.UniformInt(static_cast<uint64_t>(vocabs[j])));
        targets[b * vocabs.size() + j] = codes[j];
      }
      probe.Encode(codes, vocabs.size(), input.Row(b));
    }
  }

  float loss_ref = 0.0f, loss_fast = 0.0f;
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
    ResMade made(vocabs, options);
    Timer timer;
    for (size_t s = 0; s < steps; ++s)
      loss_ref = made.TrainStep(input, targets, 1e-3f);
    section.reference_seconds = timer.ElapsedSeconds();
  }
  ScopedMlKernelBackend fast_scope(MlKernelBackend::kFast);
  ResMade made(vocabs, options);
  {
    Timer timer;
    for (size_t s = 0; s < steps; ++s)
      loss_fast = made.TrainStep(input, targets, 1e-3f);
    section.fast_seconds = timer.ElapsedSeconds();
  }
  // Same trained model, both backends, same eval input.
  Matrix logits_fast, logits_ref;
  made.Forward(input, &logits_fast);
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
    made.Forward(input, &logits_ref);
  }
  section.divergence = MaxAbsDiff(logits_ref, logits_fast);
  section.tolerance = 2e-3;
  section.detail += " final_loss_ref=" + std::to_string(loss_ref) +
                    " final_loss_fast=" + std::to_string(loss_fast);
  return section;
}

// Serving-tier comparison over the same trained Naru model: the model is
// packed (PackForServing), then the identical estimate batch is re-timed
// through the int8 quant path against the fp32 fast timing. The quant
// tier is gated on end-to-end estimate drift measured as per-query q-error
// factors max(e_q/e_f, e_f/e_q) — selectivities floored at half a row so a
// near-empty query cannot blow up the ratio — against documented median and
// p99 budgets (DESIGN.md §10).
constexpr double kQuantQerrMedianBudget = 1.10;
constexpr double kQuantQerrP99Budget = 1.50;

struct NaruQuantSection {
  double fast_seconds = 0.0;   // fp32 fast (the baseline column).
  double quant_seconds = 0.0;  // int8 quant serving path.
  double qerr_median = 0.0;
  double qerr_p99 = 0.0;
  double qerr_median_budget = kQuantQerrMedianBudget;
  double qerr_p99_budget = kQuantQerrP99Budget;

  double quant_speedup() const {
    return quant_seconds > 0.0 ? fast_seconds / quant_seconds : 0.0;
  }
  bool ok() const {
    return qerr_median <= qerr_median_budget && qerr_p99 <= qerr_p99_budget;
  }
};

// A Naru progressive-sampling estimate batch: the trained model answers
// `num_queries` range queries, each drawing 128 sample paths column by
// column through ForwardColumnLogits (the sliced inference path). The model
// is trained once (fast backend, pinned sampling seed); both backends then
// run the identical estimate batch. Tolerance is looser than the pure
// matmul bound because a ~1e-5 probability perturbation can flip a sampled
// path, shifting that query's 128-path mean by O(1/128).
Section BenchNaruInference(const Table& table, size_t num_queries, int epochs,
                           NaruQuantSection* quant) {
  Section section;
  section.name = "naru_inference";
  section.detail = "queries=" + std::to_string(num_queries) +
                   " sample_count=128 epochs=" + std::to_string(epochs);

  NaruEstimator::Options options;
  options.epochs = epochs;
  options.pin_sampling_seed = true;
  NaruEstimator naru(options);
  TrainContext context;
  context.seed = 42;
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
    naru.Train(table, context);
  }
  const std::vector<Query> queries =
      GenerateQueries(table, num_queries, /*seed=*/31);

  std::vector<double> est_ref(queries.size()), est_fast(queries.size());
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
    Timer timer;
    for (size_t i = 0; i < queries.size(); ++i)
      est_ref[i] = naru.EstimateSelectivity(queries[i]);
    section.reference_seconds = timer.ElapsedSeconds();
  }
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kFast);
    Timer timer;
    for (size_t i = 0; i < queries.size(); ++i)
      est_fast[i] = naru.EstimateSelectivity(queries[i]);
    section.fast_seconds = timer.ElapsedSeconds();
  }
  for (size_t i = 0; i < queries.size(); ++i)
    section.divergence =
        std::max(section.divergence, std::abs(est_ref[i] - est_fast[i]));
  section.tolerance = 2e-2;

  // Serving tiers: pack the trained model, then re-run the identical batch
  // through the int8 quant path.
  naru.PackForServing();
  quant->fast_seconds = section.fast_seconds;
  std::vector<double> est_quant(queries.size());
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kQuant);
    Timer timer;
    for (size_t i = 0; i < queries.size(); ++i)
      est_quant[i] = naru.EstimateSelectivity(queries[i]);
    quant->quant_seconds = timer.ElapsedSeconds();
  }
  const double floor =
      0.5 / static_cast<double>(std::max<size_t>(1, table.num_rows()));
  std::vector<double> qerrs(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const double f = std::max(est_fast[i], floor);
    const double q = std::max(est_quant[i], floor);
    qerrs[i] = std::max(f / q, q / f);
  }
  std::sort(qerrs.begin(), qerrs.end());
  quant->qerr_median = qerrs[qerrs.size() / 2];
  quant->qerr_p99 = qerrs[std::min(
      qerrs.size() - 1,
      static_cast<size_t>(0.99 * static_cast<double>(qerrs.size())))];
  return section;
}

// An LW-NN training run over a labelled workload. Both backends train from
// identical init; divergence compares the fast-trained model's estimates
// under both backends over the workload's first queries.
Section BenchLwNnTrain(const Table& table, const Workload& workload,
                       int epochs) {
  Section section;
  section.name = "lwnn_train";
  section.detail = "queries=" + std::to_string(workload.queries.size()) +
                   " epochs=" + std::to_string(epochs);
  LwNnEstimator::Options options;
  options.epochs = epochs;
  TrainContext context;
  context.training_workload = &workload;
  context.seed = 42;

  double loss_ref = 0.0, loss_fast = 0.0;
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
    LwNnEstimator lwnn(options);
    Timer timer;
    lwnn.Train(table, context);
    section.reference_seconds = timer.ElapsedSeconds();
    loss_ref = lwnn.final_loss();
  }
  ScopedMlKernelBackend fast_scope(MlKernelBackend::kFast);
  LwNnEstimator lwnn(options);
  {
    Timer timer;
    lwnn.Train(table, context);
    section.fast_seconds = timer.ElapsedSeconds();
    loss_fast = lwnn.final_loss();
  }
  const size_t eval = std::min<size_t>(32, workload.queries.size());
  for (size_t i = 0; i < eval; ++i) {
    const double fast = lwnn.EstimateSelectivity(workload.queries[i]);
    double ref = 0.0;
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
      ref = lwnn.EstimateSelectivity(workload.queries[i]);
    }
    section.divergence = std::max(section.divergence, std::abs(ref - fast));
  }
  section.tolerance = 1e-3;
  section.detail += " final_loss_ref=" + std::to_string(loss_ref) +
                    " final_loss_fast=" + std::to_string(loss_fast);
  return section;
}

// An MSCN training run over the same workload: both backends train from
// identical init (each Adam step is one mini-batch pass per module);
// divergence compares the fast-trained model's estimates under both
// backends over the workload's first queries.
Section BenchMscnTrain(const Table& table, const Workload& workload,
                       int epochs) {
  Section section;
  section.name = "mscn_train";
  section.detail = "queries=" + std::to_string(workload.queries.size()) +
                   " epochs=" + std::to_string(epochs);
  MscnEstimator::Options options;
  options.epochs = epochs;
  TrainContext context;
  context.training_workload = &workload;
  context.seed = 42;

  double loss_ref = 0.0, loss_fast = 0.0;
  {
    ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
    MscnEstimator mscn(options);
    Timer timer;
    mscn.Train(table, context);
    section.reference_seconds = timer.ElapsedSeconds();
    loss_ref = mscn.final_loss();
  }
  ScopedMlKernelBackend fast_scope(MlKernelBackend::kFast);
  MscnEstimator mscn(options);
  {
    Timer timer;
    mscn.Train(table, context);
    section.fast_seconds = timer.ElapsedSeconds();
    loss_fast = mscn.final_loss();
  }
  const size_t eval = std::min<size_t>(32, workload.queries.size());
  for (size_t i = 0; i < eval; ++i) {
    const double fast = mscn.EstimateSelectivity(workload.queries[i]);
    double ref = 0.0;
    {
      ScopedMlKernelBackend scoped(MlKernelBackend::kReference);
      ref = mscn.EstimateSelectivity(workload.queries[i]);
    }
    section.divergence = std::max(section.divergence, std::abs(ref - fast));
  }
  section.tolerance = 1e-3;
  section.detail += " final_loss_ref=" + std::to_string(loss_ref) +
                    " final_loss_fast=" + std::to_string(loss_fast);
  return section;
}

bench::JsonRow SectionRow(const Section& s) {
  bench::JsonRow row;
  row.Add("name", s.name).Add("reference_seconds", s.reference_seconds);
  row.Add("fast_seconds", s.fast_seconds).Add("speedup", s.speedup());
  row.Add("divergence", s.divergence).Add("tolerance", s.tolerance);
  row.Add("within_tolerance", s.within_tolerance()).Add("detail", s.detail);
  return row;
}

std::vector<bench::JsonRow> SectionRows(const std::vector<Section>& sections) {
  std::vector<bench::JsonRow> rows;
  for (const Section& s : sections) rows.push_back(SectionRow(s));
  return rows;
}

void PrintSection(const Section& s) {
  std::printf("%-16s %12.4f %12.4f %8.2fx %10.2e %8.0e %-4s %s\n",
              s.name.c_str(), s.reference_seconds, s.fast_seconds,
              s.speedup(), s.divergence, s.tolerance,
              s.within_tolerance() ? "ok" : "FAIL", s.detail.c_str());
}

struct OtherTiming {
  const char* name = "";
  double seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv, "ml");
  const bool smoke = args.smoke;
  const size_t steps = smoke ? 2 : 30;        // ResMADE train steps.
  const size_t batch = smoke ? 64 : 512;      // ResMADE batch size.
  const size_t rows = smoke ? 3000 : 20000;   // naru, lw-nn and mscn table.
  const size_t queries = smoke ? 4 : 64;      // naru estimate batch.
  const int naru_epochs = smoke ? 1 : 4;
  const int lwnn_epochs = smoke ? 2 : 10;     // lw-nn and mscn.

  const std::string cpu_flags = MlCpuFeatureFlags();
  std::printf("== bench_micro_ml: fast vs. reference ML kernels ==\n");
  std::printf("backend=%s simd=%s cpu=%s workers=%d\n\n",
              MlKernelBackendName(ActiveMlKernelBackend()), MlKernelSimdName(),
              cpu_flags.empty() ? "-" : cpu_flags.c_str(),
              ParallelWorkerCount());

  bool all_within = true;

  // ---- matmul grid --------------------------------------------------------
  std::vector<MicroCell> grid;
  if (!smoke) {
    std::printf("%-8s %5s %5s %5s %12s %12s %9s %10s %9s\n", "op", "m", "k",
                "n", "ref_s", "fast_s", "speedup", "div", "gflops");
    const size_t shapes[][3] = {
        {256, 256, 256},  // square, cache-resident
        {512, 64, 64},    // tall-skinny: a training batch through hidden 64
        {128, 64, 1024},  // wide output: ResMADE logits layer
        {511, 67, 33},    // deliberately tile- and lane-unaligned
    };
    for (const char* op : {"MatMul", "MatMulBT", "MatMulAT"}) {
      for (const auto& s : shapes) {
        MicroCell cell = MeasureMicroCell(op, s[0], s[1], s[2]);
        all_within = all_within && cell.divergence <= kMicroTolerance;
        std::printf("%-8s %5zu %5zu %5zu %12.6f %12.6f %8.1fx %10.2e %9.1f\n",
                    cell.op, cell.m, cell.k, cell.n, cell.reference_seconds,
                    cell.fast_seconds, cell.speedup(), cell.divergence,
                    cell.gflops_fast());
        grid.push_back(cell);
      }
    }
    std::printf("\n");
  }

  // ---- quant dense-forward grid ------------------------------------------
  std::vector<QuantCell> quant_grid;
  if (!smoke) {
    std::printf("%-12s %5s %5s %5s %10s %10s %8s %10s\n", "quant", "m", "k",
                "n", "fast_s", "quant_s", "qspeed", "quant_err");
    const size_t shapes[][3] = {
        {256, 256, 256},  // square, cache-resident
        {512, 64, 64},    // tall-skinny hidden layer
        {128, 64, 1024},  // wide logits head
        {1, 64, 1024},    // single-sample serving logits
        {511, 67, 33},    // deliberately tile- and lane-unaligned
    };
    for (const auto& s : shapes) {
      QuantCell cell = MeasureQuantCell(s[0], s[1], s[2]);
      std::printf("%-12s %5zu %5zu %5zu %10.6f %10.6f %7.1fx %10.2e\n",
                  "DenseForward", cell.m, cell.k, cell.n, cell.fast_seconds,
                  cell.quant_seconds, cell.quant_speedup(),
                  cell.quant_max_abs);
      quant_grid.push_back(cell);
    }
    std::printf("\n");
  }

  // ---- fused-op cells ----------------------------------------------------
  std::vector<Section> fused;
  if (!smoke) {
    std::printf("%-16s %12s %12s %9s %10s %8s %-4s\n", "fused op", "ref_s",
                "fast_s", "speedup", "div", "tol", "ok");
    // MSCN's predicate input layer (about 7.75 atoms per query, batch 64)
    // and a ResMADE hidden block at bench_micro_ml's training batch.
    fused.push_back(BenchDenseBackwardRelu("dense_bwd_mscn_pred", 496, 17, 48,
                                           /*with_input_grad=*/false));
    fused.push_back(BenchDenseBackwardRelu("dense_bwd_resmade", 512, 64, 64,
                                           /*with_input_grad=*/true));
    fused.push_back(BenchAdamStepMscn());
    for (const Section& s : fused) {
      PrintSection(s);
      all_within = all_within && s.within_tolerance();
    }
    std::printf("\n");
  }

  // ---- end-to-end sections ------------------------------------------------
  std::printf("%-16s %12s %12s %9s %10s %8s %-4s\n", "section", "ref_s",
              "fast_s", "speedup", "div", "tol", "ok");
  const Table table = [&] {
    DatasetSpec spec = CensusSpec();
    spec.rows = rows;
    return GenerateDataset(spec, /*seed=*/11);
  }();

  std::vector<Section> sections;
  sections.push_back(BenchResMadeTrain(steps, batch));
  PrintSection(sections.back());
  NaruQuantSection naru_quant;
  sections.push_back(BenchNaruInference(table, queries, naru_epochs,
                                        &naru_quant));
  PrintSection(sections.back());
  const Workload workload = GenerateWorkload(table, 400, /*seed=*/21);
  sections.push_back(BenchLwNnTrain(table, workload, lwnn_epochs));
  PrintSection(sections.back());
  sections.push_back(BenchMscnTrain(table, workload, lwnn_epochs));
  PrintSection(sections.back());
  for (const Section& s : sections) all_within = all_within && s.within_tolerance();
  std::printf("\n");

  // ---- quant serving tier (end-to-end gate) -------------------------------
  std::printf("naru serving tiers: fast=%.4fs quant=%.4fs (%.2fx)\n",
              naru_quant.fast_seconds, naru_quant.quant_seconds,
              naru_quant.quant_speedup());
  std::printf("quant q-error vs fp32 fast: median=%.4f (budget %.2f) "
              "p99=%.4f (budget %.2f) %s\n\n",
              naru_quant.qerr_median, naru_quant.qerr_median_budget,
              naru_quant.qerr_p99, naru_quant.qerr_p99_budget,
              naru_quant.ok() ? "ok" : "FAIL");
  all_within = all_within && naru_quant.ok();

  // ---- non-matrix substrate (single backend, continuity timings) ----------
  std::vector<OtherTiming> other;
  if (!smoke) {
    {
      Rng rng(3);
      const size_t n = 2000;
      std::vector<std::vector<float>> x(n, std::vector<float>(8));
      std::vector<double> y(n);
      for (size_t i = 0; i < n; ++i) {
        for (auto& v : x[i]) v = static_cast<float>(rng.Uniform(0, 1));
        y[i] = x[i][0] * 2 - x[i][3];
      }
      GbdtOptions options;
      options.num_trees = 64;
      Timer timer;
      Gbdt model;
      model.Train(x, y, options);
      other.push_back({"gbdt_train_64t_2000x8", timer.ElapsedSeconds()});
    }
    {
      Rng rng(4);
      std::vector<std::vector<double>> points(2000, std::vector<double>(6));
      for (auto& p : points)
        for (auto& v : p) v = rng.Uniform(0, 1);
      Timer timer;
      const KMeansResult result = KMeans(points, 2, 20, 5);
      other.push_back({"kmeans_2000x6", timer.ElapsedSeconds()});
      (void)result;
    }
    {
      Rng rng(5);
      std::vector<double> x(2000), y(2000);
      for (size_t i = 0; i < x.size(); ++i) {
        x[i] = rng.Uniform();
        y[i] = rng.Bernoulli(0.5) ? x[i] : rng.Uniform();
      }
      Timer timer;
      const double rdc = Rdc(x, y);
      other.push_back({"rdc_2000", timer.ElapsedSeconds()});
      (void)rdc;
    }
    for (const OtherTiming& t : other)
      std::printf("%-24s %10.4f s\n", t.name, t.seconds);
    std::printf("\n");
  }

  // ---- machine-readable artifact ------------------------------------------
  bench::JsonRow quant_row;
  quant_row.Add("fast_seconds", naru_quant.fast_seconds);
  quant_row.Add("quant_seconds", naru_quant.quant_seconds);
  quant_row.Add("quant_speedup", naru_quant.quant_speedup());
  quant_row.Add("qerr_median", naru_quant.qerr_median);
  quant_row.Add("qerr_p99", naru_quant.qerr_p99);
  quant_row.Add("qerr_median_budget", naru_quant.qerr_median_budget);
  quant_row.Add("qerr_p99_budget", naru_quant.qerr_p99_budget);
  quant_row.Add("ok", naru_quant.ok());
  std::vector<bench::JsonRow> grid_rows(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    const MicroCell& c = grid[i];
    grid_rows[i].Add("op", c.op).Add("m", c.m).Add("k", c.k).Add("n", c.n);
    grid_rows[i].Add("reference_seconds", c.reference_seconds);
    grid_rows[i].Add("fast_seconds", c.fast_seconds);
    grid_rows[i].Add("speedup", c.speedup());
    grid_rows[i].Add("gflops_fast", c.gflops_fast());
    grid_rows[i].Add("divergence", c.divergence);
  }
  std::vector<bench::JsonRow> quant_rows(quant_grid.size());
  for (size_t i = 0; i < quant_grid.size(); ++i) {
    const QuantCell& c = quant_grid[i];
    quant_rows[i].Add("m", c.m).Add("k", c.k).Add("n", c.n);
    quant_rows[i].Add("fast_seconds", c.fast_seconds);
    quant_rows[i].Add("quant_seconds", c.quant_seconds);
    quant_rows[i].Add("quant_speedup", c.quant_speedup());
    quant_rows[i].Add("quant_max_abs", c.quant_max_abs);
  }
  std::vector<bench::JsonRow> other_rows(other.size());
  for (size_t i = 0; i < other.size(); ++i)
    other_rows[i].Add("name", other[i].name).Add("seconds", other[i].seconds);
  bench::BenchReport report("bench_micro_ml");
  report.BeginObject("headline");
  report.Add("resmade_train", SectionRow(sections[0]));
  report.Add("naru_inference", SectionRow(sections[1]));
  report.Add("naru_inference_quant", quant_row).EndObject();
  report.Add("sections", SectionRows(sections)).Add("matmul_grid", grid_rows);
  report.Add("fused_ops", SectionRows(fused)).Add("quant_grid", quant_rows);
  report.Add("other", other_rows);
  if (!report.WriteTo(args.out)) return 1;

  if (!all_within) {
    std::fprintf(stderr,
                 "FAILED: a divergence gate tripped (fast-vs-reference "
                 "tolerance or quant q-error budget)\n");
    return 1;
  }
  return 0;
}
