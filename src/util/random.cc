#include "util/random.h"

#include <cmath>

#include "util/check.h"
#include "util/hash.h"

namespace arecel {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t i = 0; i < 4; ++i)
    s_[i] = SplitMix64(seed + i * 0x9e3779b97f4a7c15ULL);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  ARECEL_CHECK(n > 0);
  // Lemire's nearly-divisionless bounded sampling would be faster; plain
  // modulo bias is negligible for our n (<< 2^32) and simpler to audit.
  return Next() % n;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  ARECEL_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = Uniform();
  double u2 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Exponential(double lambda) {
  ARECEL_CHECK(lambda > 0);
  double u = Uniform();
  while (u <= 1e-300) u = Uniform();
  return -std::log(u) / lambda;
}

double Rng::SkewedUnit(double shape) {
  ARECEL_CHECK(shape >= 0);
  const double u = Uniform();
  if (shape < 1e-12) return u;
  // Power-law inverse CDF: F^{-1}(u) = u^(1 + 4*shape) concentrates uniform
  // mass toward 0 as shape grows (mean = 1 / (2 + 4*shape)). shape == 0
  // degenerates to uniform (handled above); monotone in u.
  const double v = std::pow(u, 1.0 + shape * 4.0);
  return v < 1.0 ? v : std::nextafter(1.0, 0.0);
}

uint64_t Rng::Zipf(uint64_t n, double s) {
  ARECEL_CHECK(n > 0);
  if (s <= 1e-12) return UniformInt(n);
  // Rejection-inversion (Hörmann) is overkill for our domain sizes; use
  // direct inversion over the harmonic weights with a cached normalizer for
  // small n, otherwise a two-level bucket trick. Domains here are <= 100K.
  double h = 0.0;
  for (uint64_t k = 1; k <= n; ++k) h += std::pow(static_cast<double>(k), -s);
  double u = Uniform() * h;
  double acc = 0.0;
  for (uint64_t k = 1; k <= n; ++k) {
    acc += std::pow(static_cast<double>(k), -s);
    if (acc >= u) return k - 1;
  }
  return n - 1;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  ARECEL_CHECK(k >= 0 && k <= n);
  // Partial Fisher-Yates over an index vector.
  std::vector<int> idx(n);
  for (int i = 0; i < n; ++i) idx[i] = i;
  for (int i = 0; i < k; ++i) {
    const int j =
        i + static_cast<int>(UniformInt(static_cast<uint64_t>(n - i)));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

ZipfSampler::ZipfSampler(uint64_t n, double s) : n_(n), cdf_(n) {
  ARECEL_CHECK(n > 0);
  double acc = 0.0;
  for (uint64_t k = 0; k < n; ++k) {
    acc += std::pow(static_cast<double>(k + 1), -s);
    cdf_[k] = acc;
  }
  for (uint64_t k = 0; k < n; ++k) cdf_[k] /= acc;
  cdf_[n - 1] = 1.0;  // guard against rounding.
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  return InvertCdf(rng.Uniform());
}

uint64_t ZipfSampler::InvertCdf(double u) const {
  // The first cdf entry >= u, or n - 1 when none of the first n - 1 is: a
  // lower bound over the first n - 1 entries that halves its range with a
  // conditional move per level, so uniform u costs no mispredicted branch.
  const double* cdf = cdf_.data();
  uint64_t len = n_ - 1;
  if (len == 0) return 0;
  uint64_t base = 0;
  while (len > 1) {
    const uint64_t half = len / 2;
    base = cdf[base + half] < u ? base + half : base;
    len -= half;
  }
  return base + (cdf[base] < u ? 1 : 0);
}

}  // namespace arecel
