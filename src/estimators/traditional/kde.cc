#include "estimators/traditional/kde.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/stats.h"

namespace arecel {

namespace {

// Standard normal CDF.
double Phi(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }
// Standard normal PDF.
double NormalPdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
}

}  // namespace

double KdeFbEstimator::Evaluate(const Query& query,
                                std::vector<double>* bandwidth_grad) const {
  const size_t s_count = sample_.num_rows();
  if (s_count == 0) return 0.0;
  if (bandwidth_grad != nullptr)
    bandwidth_grad->assign(num_cols_, 0.0);

  // Collapse multiple predicates per column into one interval.
  std::vector<double> lo(num_cols_, -std::numeric_limits<double>::infinity());
  std::vector<double> hi(num_cols_, std::numeric_limits<double>::infinity());
  std::vector<bool> constrained(num_cols_, false);
  for (const Predicate& p : query.predicates) {
    const size_t c = static_cast<size_t>(p.column);
    lo[c] = std::max(lo[c], p.lo);
    hi[c] = std::min(hi[c], p.hi);
    constrained[c] = true;
  }
  // Continuity correction over the discrete domain: widen [lo, hi] to the
  // midpoint cell edges of the covered values, so an equality predicate
  // integrates the kernel over its value's cell rather than a zero-width
  // interval.
  for (size_t c = 0; c < num_cols_; ++c) {
    if (!constrained[c] || lo[c] > hi[c]) continue;
    const std::vector<double>& domain = domains_[c];
    if (domain.size() < 2) continue;
    if (!std::isinf(lo[c])) {
      const auto it = std::lower_bound(domain.begin(), domain.end(), lo[c]);
      if (it != domain.end() && *it <= hi[c]) {
        const size_t k = static_cast<size_t>(it - domain.begin());
        lo[c] = k == 0 ? domain[0] - (domain[1] - domain[0]) / 2.0
                       : (domain[k - 1] + domain[k]) / 2.0;
      }
    }
    if (!std::isinf(hi[c])) {
      // Last domain value <= hi.
      const auto it = std::upper_bound(domain.begin(), domain.end(), hi[c]);
      if (it != domain.begin()) {
        const size_t k = static_cast<size_t>(it - domain.begin()) - 1;
        if (domain[k] >= lo[c] || std::isinf(lo[c])) {
          hi[c] = k + 1 == domain.size()
                      ? domain[k] + (domain[k] - domain[k - 1]) / 2.0
                      : (domain[k] + domain[k + 1]) / 2.0;
        }
      }
    }
  }

  double estimate = 0.0;
  std::vector<double> mass(num_cols_);
  std::vector<double> dmass(num_cols_);  // d(mass)/d(log h).
  for (size_t s = 0; s < s_count; ++s) {
    double product = 1.0;
    for (size_t d = 0; d < num_cols_; ++d) {
      if (!constrained[d]) {
        mass[d] = 1.0;
        dmass[d] = 0.0;
        continue;
      }
      const double x = sample_.column(d).values[s];
      const double h = bandwidths_[d];
      const double z_hi = std::isinf(hi[d]) ? 40.0 : (hi[d] - x) / h;
      const double z_lo = std::isinf(lo[d]) ? -40.0 : (lo[d] - x) / h;
      mass[d] = std::max(Phi(z_hi) - Phi(z_lo), 0.0);
      if (bandwidth_grad != nullptr) {
        // d/d(log h) of Phi((b - x)/h) = -phi(z) * z.
        const double d_hi = std::isinf(hi[d]) ? 0.0 : -NormalPdf(z_hi) * z_hi;
        const double d_lo = std::isinf(lo[d]) ? 0.0 : -NormalPdf(z_lo) * z_lo;
        dmass[d] = d_hi - d_lo;
      }
      product *= mass[d];
    }
    estimate += product;
    if (bandwidth_grad != nullptr && product > 0.0) {
      for (size_t d = 0; d < num_cols_; ++d) {
        if (!constrained[d] || mass[d] <= 1e-300) continue;
        (*bandwidth_grad)[d] += product / mass[d] * dmass[d];
      }
    }
  }
  const double inv = 1.0 / static_cast<double>(s_count);
  if (bandwidth_grad != nullptr)
    for (double& g : *bandwidth_grad) g *= inv;
  return estimate * inv;
}

void KdeFbEstimator::Train(const Table& table, const TrainContext& context) {
  num_cols_ = table.num_cols();
  domains_.resize(num_cols_);
  for (size_t c = 0; c < num_cols_; ++c) domains_[c] = table.column(c).domain;
  size_t rows = static_cast<size_t>(static_cast<double>(table.num_rows()) *
                                    context.size_budget_fraction);
  rows = std::clamp<size_t>(rows, std::min<size_t>(table.num_rows(), 100),
                            std::min(options_.max_sample_rows,
                                     table.num_rows()));
  sample_ = table.SampleRows(rows, context.seed);

  // Scott's rule initialization: h_d = sigma_d * S^(-1/(d+4)).
  bandwidths_.assign(num_cols_, 1.0);
  const double exponent =
      -1.0 / (static_cast<double>(num_cols_) + 4.0);
  const double factor = std::pow(static_cast<double>(rows), exponent);
  std::vector<double> sample_column(rows);
  for (size_t d = 0; d < num_cols_; ++d) {
    for (size_t s = 0; s < rows; ++s) {
      sample_column[s] = sample_.column(d).values[s];
    }
    const double sigma = StdDev(sample_column);
    bandwidths_[d] = std::max(sigma * factor, 1e-3);
  }

  // Feedback: gradient descent on log-bandwidths against squared error.
  if (context.training_workload == nullptr ||
      context.training_workload->size() == 0) {
    return;  // plain KDE (no feedback available).
  }
  const Workload& workload = *context.training_workload;
  const size_t n_feedback = std::min(options_.feedback_queries,
                                     workload.size());
  std::vector<double> grad(num_cols_), total_grad(num_cols_);
  for (int iter = 0; iter < options_.feedback_iterations; ++iter) {
    std::fill(total_grad.begin(), total_grad.end(), 0.0);
    for (size_t i = 0; i < n_feedback; ++i) {
      const double est = Evaluate(workload.queries[i], &grad);
      const double residual = est - workload.selectivities[i];
      for (size_t d = 0; d < num_cols_; ++d)
        total_grad[d] += 2.0 * residual * grad[d];
    }
    const double inv = 1.0 / static_cast<double>(n_feedback);
    for (size_t d = 0; d < num_cols_; ++d) {
      const double step =
          options_.feedback_learning_rate * total_grad[d] * inv;
      bandwidths_[d] *= std::exp(-std::clamp(step, -0.5, 0.5));
      bandwidths_[d] = std::clamp(bandwidths_[d], 1e-4, 1e6);
    }
  }
}

double KdeFbEstimator::EstimateSelectivity(const Query& query) const {
  ARECEL_CHECK_MSG(num_cols_ > 0, "Train() must run first");
  if (!query.IsSatisfiable()) return 0.0;
  return std::clamp(Evaluate(query, nullptr), 0.0, 1.0);
}

size_t KdeFbEstimator::SizeBytes() const {
  return sample_.DataSizeBytes() + bandwidths_.size() * sizeof(double);
}

}  // namespace arecel
