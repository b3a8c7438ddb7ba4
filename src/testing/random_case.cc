#include "testing/random_case.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"
#include "util/random.h"
#include "workload/generator.h"

namespace arecel {

std::string RandomCase::Describe() const {
  char head[128];
  std::snprintf(head, sizeof(head), "seed=%llu rows=%zu cols=%zu queries=%zu",
                static_cast<unsigned long long>(seed), table.num_rows(),
                table.num_cols(), queries.size());
  std::string out = head;
  out += " preds=[";
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(queries[i].predicates.size());
  }
  out += "]";
  return out;
}

size_t RandomCase::TotalPredicates() const {
  size_t total = 0;
  for (const Query& q : queries) total += q.predicates.size();
  return total;
}

RandomCase GenerateRandomCase(uint64_t seed,
                              const RandomCaseOptions& options) {
  ARECEL_CHECK(options.min_rows >= 1 && options.min_rows <= options.max_rows);
  ARECEL_CHECK(options.min_cols >= 1 && options.min_cols <= options.max_cols);
  ARECEL_CHECK(options.min_domain >= 2 &&
               options.min_domain <= options.max_domain);
  Rng rng(seed);

  const size_t rows = static_cast<size_t>(rng.UniformInt(
      static_cast<int64_t>(options.min_rows),
      static_cast<int64_t>(options.max_rows)));
  const int cols = static_cast<int>(
      rng.UniformInt(static_cast<int64_t>(options.min_cols),
                     static_cast<int64_t>(options.max_cols)));

  RandomCase out;
  out.seed = seed;
  out.table = Table("random_case_" + std::to_string(seed));

  // A shared latent uniform per row induces cross-column correlation, the
  // regime where independence-assuming estimators are most stressed.
  std::vector<double> latent(rows);
  for (size_t r = 0; r < rows; ++r) latent[r] = rng.Uniform();

  for (int c = 0; c < cols; ++c) {
    const int domain = static_cast<int>(
        rng.UniformInt(static_cast<int64_t>(options.min_domain),
                       static_cast<int64_t>(options.max_domain)));
    const double skew = rng.Uniform(0.0, options.max_skew);
    const double correlation = rng.Uniform();
    const bool categorical = rng.Bernoulli(options.categorical_probability);
    ZipfSampler zipf(static_cast<uint64_t>(domain), skew);
    std::vector<double> values(rows);
    for (size_t r = 0; r < rows; ++r) {
      const uint64_t code = rng.Bernoulli(correlation)
                                ? zipf.InvertCdf(latent[r])
                                : zipf.Sample(rng);
      values[r] = static_cast<double>(code);
    }
    out.table.AddColumn("c" + std::to_string(c), std::move(values),
                        categorical);
  }

  out.queries = GenerateQueries(out.table, options.num_queries,
                                rng.Next() | 1);
  return out;
}

}  // namespace arecel
