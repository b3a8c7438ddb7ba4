#include "estimators/traditional/bayes.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/check.h"
#include "util/random.h"

namespace arecel {

std::vector<double> BayesEstimator::CoverageWeights(size_t col, double lo,
                                                    double hi) const {
  const ColumnBins& cb = bins_[col];
  std::vector<double> weights(static_cast<size_t>(cb.num_bins()), 0.0);
  if (lo > hi) return weights;
  for (int b = 0; b < cb.num_bins(); ++b) {
    const double b_lo = cb.bin_min[static_cast<size_t>(b)];
    const double b_hi = cb.bin_max[static_cast<size_t>(b)];
    if (hi < b_lo || lo > b_hi) continue;
    if (lo <= b_lo && b_hi <= hi) {
      weights[static_cast<size_t>(b)] = 1.0;
      continue;
    }
    // Partial coverage: assume the bin's distinct values spread uniformly.
    if (b_hi > b_lo) {
      const double overlap = std::min(hi, b_hi) - std::max(lo, b_lo);
      weights[static_cast<size_t>(b)] =
          std::clamp(overlap / (b_hi - b_lo), 0.0, 1.0);
    } else {
      weights[static_cast<size_t>(b)] = 1.0;
    }
  }
  return weights;
}

void BayesEstimator::Train(const Table& table, const TrainContext& context) {
  const size_t n = table.num_cols();
  ARECEL_CHECK(n >= 1);

  // Row subsample for structure and parameter learning.
  std::vector<uint32_t> rows;
  if (table.num_rows() > options_.max_build_rows) {
    Rng rng(context.seed);
    const std::vector<int> sampled = rng.SampleWithoutReplacement(
        static_cast<int>(table.num_rows()),
        static_cast<int>(options_.max_build_rows));
    rows.assign(sampled.begin(), sampled.end());
  } else {
    rows.resize(table.num_rows());
    for (size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<uint32_t>(r);
  }
  const size_t m = rows.size();

  // --- Per-column equal-mass binning over codes. ---
  bins_.assign(n, ColumnBins());
  std::vector<std::vector<int>> row_bins(n, std::vector<int>(m));
  for (size_t c = 0; c < n; ++c) {
    const Column& col = table.column(c);
    const int domain = static_cast<int>(col.domain.size());
    ColumnBins& cb = bins_[c];
    // One entry past the domain for the NaN code, whose rows share bin 0.
    std::vector<int> code_to_bin(static_cast<size_t>(domain) + 1);
    if (domain <= options_.max_bins) {
      cb.bin_min = col.domain;
      cb.bin_max = col.domain;
      cb.bin_values.assign(static_cast<size_t>(domain), 1);
      for (int v = 0; v < domain; ++v) code_to_bin[static_cast<size_t>(v)] = v;
    } else {
      // Greedy equal-mass packing of sorted distinct values.
      std::vector<size_t> counts(static_cast<size_t>(domain) + 1, 0);
      for (uint32_t r : rows) ++counts[col.code(r)];
      const double target =
          static_cast<double>(m) / static_cast<double>(options_.max_bins);
      size_t bin_rows = 0;
      int bin_index = 0;
      cb.bin_min.push_back(col.domain[0]);
      int values_in_bin = 0;
      for (int v = 0; v < domain; ++v) {
        code_to_bin[static_cast<size_t>(v)] = bin_index;
        bin_rows += counts[static_cast<size_t>(v)];
        ++values_in_bin;
        const bool last = v + 1 == domain;
        if ((static_cast<double>(bin_rows) >= target && !last &&
             bin_index + 1 < options_.max_bins) ||
            last) {
          cb.bin_max.push_back(col.domain[static_cast<size_t>(v)]);
          cb.bin_values.push_back(values_in_bin);
          if (!last) {
            cb.bin_min.push_back(col.domain[static_cast<size_t>(v) + 1]);
            ++bin_index;
            bin_rows = 0;
            values_in_bin = 0;
          }
        }
      }
    }
    for (size_t i = 0; i < m; ++i)
      row_bins[c][i] = code_to_bin[col.code(rows[i])];
  }

  // --- Pairwise mutual information; Chow-Liu = max spanning tree. ---
  std::vector<std::vector<double>> mi(n, std::vector<double>(n, 0.0));
  for (size_t a = 0; a < n; ++a) {
    const int ba = bins_[a].num_bins();
    std::vector<double> pa(static_cast<size_t>(ba), 0.0);
    for (size_t i = 0; i < m; ++i)
      pa[static_cast<size_t>(row_bins[a][i])] += 1.0;
    for (double& v : pa) v /= static_cast<double>(m);
    for (size_t b = a + 1; b < n; ++b) {
      const int bb = bins_[b].num_bins();
      std::vector<double> pb(static_cast<size_t>(bb), 0.0);
      std::vector<double> pab(static_cast<size_t>(ba * bb), 0.0);
      for (size_t i = 0; i < m; ++i) {
        pb[static_cast<size_t>(row_bins[b][i])] += 1.0;
        pab[static_cast<size_t>(row_bins[a][i] * bb + row_bins[b][i])] += 1.0;
      }
      for (double& v : pb) v /= static_cast<double>(m);
      for (double& v : pab) v /= static_cast<double>(m);
      double info = 0.0;
      for (int x = 0; x < ba; ++x) {
        for (int y = 0; y < bb; ++y) {
          const double joint = pab[static_cast<size_t>(x * bb + y)];
          if (joint <= 0.0) continue;
          info += joint * std::log(joint / (pa[static_cast<size_t>(x)] *
                                            pb[static_cast<size_t>(y)]));
        }
      }
      mi[a][b] = mi[b][a] = info;
    }
  }

  // Prim's algorithm for the maximum spanning tree.
  parent_.assign(n, -1);
  root_ = 0;
  std::vector<bool> in_tree(n, false);
  std::vector<double> best_weight(n, -1.0);
  std::vector<int> best_parent(n, -1);
  in_tree[0] = true;
  for (size_t c = 1; c < n; ++c) {
    best_weight[c] = mi[0][c];
    best_parent[c] = 0;
  }
  for (size_t added = 1; added < n; ++added) {
    int next = -1;
    double best = -1.0;
    for (size_t c = 0; c < n; ++c) {
      if (!in_tree[c] && best_weight[c] > best) {
        best = best_weight[c];
        next = static_cast<int>(c);
      }
    }
    ARECEL_CHECK(next >= 0);
    in_tree[static_cast<size_t>(next)] = true;
    parent_[static_cast<size_t>(next)] = best_parent[static_cast<size_t>(next)];
    for (size_t c = 0; c < n; ++c) {
      if (!in_tree[c] && mi[static_cast<size_t>(next)][c] > best_weight[c]) {
        best_weight[c] = mi[static_cast<size_t>(next)][c];
        best_parent[c] = next;
      }
    }
  }
  children_.assign(n, {});
  for (size_t c = 0; c < n; ++c) {
    if (parent_[c] >= 0)
      children_[static_cast<size_t>(parent_[c])].push_back(
          static_cast<int>(c));
  }

  // --- CPTs with Laplace smoothing. ---
  root_marginal_.assign(static_cast<size_t>(bins_[static_cast<size_t>(root_)]
                                                .num_bins()),
                        options_.laplace);
  for (size_t i = 0; i < m; ++i)
    root_marginal_[static_cast<size_t>(
        row_bins[static_cast<size_t>(root_)][i])] += 1.0;
  {
    double total = 0.0;
    for (double v : root_marginal_) total += v;
    for (double& v : root_marginal_) v /= total;
  }
  cpt_.assign(n, {});
  for (size_t c = 0; c < n; ++c) {
    const int p = parent_[c];
    if (p < 0) continue;
    const int bc = bins_[c].num_bins();
    const int bp = bins_[static_cast<size_t>(p)].num_bins();
    std::vector<double>& table_c = cpt_[c];
    table_c.assign(static_cast<size_t>(bp * bc), options_.laplace);
    for (size_t i = 0; i < m; ++i) {
      const int a = row_bins[static_cast<size_t>(p)][i];
      const int b = row_bins[c][i];
      table_c[static_cast<size_t>(a * bc + b)] += 1.0;
    }
    for (int a = 0; a < bp; ++a) {
      double total = 0.0;
      for (int b = 0; b < bc; ++b) total += table_c[static_cast<size_t>(a * bc + b)];
      for (int b = 0; b < bc; ++b) table_c[static_cast<size_t>(a * bc + b)] /= total;
    }
  }
}

double BayesEstimator::EstimateSelectivity(const Query& query) const {
  ARECEL_CHECK_MSG(!bins_.empty(), "Train() must run first");
  const size_t n = bins_.size();
  // Per-column coverage weights (1.0 everywhere when unconstrained).
  std::vector<std::vector<double>> phi(n);
  for (size_t c = 0; c < n; ++c)
    phi[c].assign(static_cast<size_t>(bins_[c].num_bins()), 1.0);
  for (const Predicate& p : query.predicates) {
    const size_t c = static_cast<size_t>(p.column);
    const std::vector<double> w = CoverageWeights(c, p.lo, p.hi);
    for (size_t b = 0; b < w.size(); ++b) phi[c][b] *= w[b];
  }
  if (options_.inference == Inference::kProgressiveSampling)
    return EstimateSampled(phi);
  return EstimateExact(phi);
}

double BayesEstimator::EstimateExact(
    const std::vector<std::vector<double>>& phi) const {
  // Exact sum-product over the tree: message from child c to its parent,
  // m_c[a] = sum_b P(b | a) * phi_c[b] * prod(messages into c)[b].
  // Recursion depth = tree height <= n.
  std::function<std::vector<double>(int)> message =
      [&](int c) -> std::vector<double> {
    const size_t cs = static_cast<size_t>(c);
    const int bc = bins_[cs].num_bins();
    std::vector<double> belief = phi[cs];
    for (int child : children_[cs]) {
      const std::vector<double> child_message = message(child);
      for (int b = 0; b < bc; ++b)
        belief[static_cast<size_t>(b)] *= child_message[static_cast<size_t>(b)];
    }
    const int p = parent_[cs];
    ARECEL_CHECK(p >= 0);
    const int bp = bins_[static_cast<size_t>(p)].num_bins();
    std::vector<double> out(static_cast<size_t>(bp), 0.0);
    const std::vector<double>& table_c = cpt_[cs];
    for (int a = 0; a < bp; ++a) {
      double acc = 0.0;
      for (int b = 0; b < bc; ++b)
        acc += table_c[static_cast<size_t>(a * bc + b)] *
               belief[static_cast<size_t>(b)];
      out[static_cast<size_t>(a)] = acc;
    }
    return out;
  };

  const size_t rs = static_cast<size_t>(root_);
  std::vector<double> root_belief = phi[rs];
  for (int child : children_[rs]) {
    const std::vector<double> child_message = message(child);
    for (size_t b = 0; b < root_belief.size(); ++b)
      root_belief[b] *= child_message[b];
  }
  double probability = 0.0;
  for (size_t b = 0; b < root_belief.size(); ++b)
    probability += root_marginal_[b] * root_belief[b];
  return std::clamp(probability, 0.0, 1.0);
}

double BayesEstimator::EstimateSampled(
    const std::vector<std::vector<double>>& phi) const {
  // Progressive sampling root-down (the reference implementation's mode):
  // at each node draw a bin from the coverage-masked conditional and fold
  // the masked mass into the sample weight. Unbiased; variance shrinks
  // with sample_count.
  Rng rng(0x94d049bb133111ebULL ^ (estimate_counter_++ * 0x2545f4914f6cdd1dULL));

  // Topological (parent-before-child) order via BFS from the root.
  std::vector<int> order;
  order.reserve(bins_.size());
  order.push_back(root_);
  for (size_t i = 0; i < order.size(); ++i) {
    for (int child : children_[static_cast<size_t>(order[i])])
      order.push_back(child);
  }

  const size_t samples = static_cast<size_t>(options_.sample_count);
  std::vector<int> sampled_bin(bins_.size(), 0);
  double total = 0.0;
  std::vector<double> masked;
  for (size_t s = 0; s < samples; ++s) {
    double weight = 1.0;
    for (int c : order) {
      const size_t cs = static_cast<size_t>(c);
      const int bc = bins_[cs].num_bins();
      masked.assign(static_cast<size_t>(bc), 0.0);
      if (c == root_) {
        for (int b = 0; b < bc; ++b)
          masked[static_cast<size_t>(b)] =
              root_marginal_[static_cast<size_t>(b)] *
              phi[cs][static_cast<size_t>(b)];
      } else {
        const int a = sampled_bin[static_cast<size_t>(parent_[cs])];
        const std::vector<double>& table_c = cpt_[cs];
        for (int b = 0; b < bc; ++b)
          masked[static_cast<size_t>(b)] =
              table_c[static_cast<size_t>(a * bc + b)] *
              phi[cs][static_cast<size_t>(b)];
      }
      double mass = 0.0;
      for (double m : masked) mass += m;
      if (mass <= 0.0) {
        weight = 0.0;
        break;
      }
      weight *= mass;
      double target = rng.Uniform() * mass;
      int chosen = bc - 1;
      for (int b = 0; b < bc; ++b) {
        target -= masked[static_cast<size_t>(b)];
        if (target <= 0.0) {
          chosen = b;
          break;
        }
      }
      sampled_bin[cs] = chosen;
    }
    total += weight;
  }
  return std::clamp(total / static_cast<double>(samples), 0.0, 1.0);
}

size_t BayesEstimator::SizeBytes() const {
  size_t total = root_marginal_.size() * sizeof(double);
  for (const auto& table_c : cpt_) total += table_c.size() * sizeof(double);
  for (const auto& cb : bins_)
    total += (cb.bin_min.size() * 2 + cb.bin_values.size()) * sizeof(double);
  return total;
}

}  // namespace arecel
