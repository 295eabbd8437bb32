#include "common/rng.hpp"

#include <cmath>
#include <math.h>  // lgamma_r
#include <numbers>

#include "common/error.hpp"

namespace gp {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t v, int k) { return (v << k) | (v >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  require(lo <= hi, "uniform: lo must be <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  require(lo <= hi, "uniform_int: lo must be <= hi");
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full 64-bit range
  // Lemire's nearly-divisionless bounded generation with rejection.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto low = static_cast<std::uint64_t>(m);
  if (low < range) {
    const std::uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * range;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; guard against log(0).
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  require(stddev >= 0.0, "normal: stddev must be >= 0");
  return mean + stddev * normal();
}

double Rng::exponential(double rate) {
  require(rate > 0.0, "exponential: rate must be > 0");
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

void Rng::fill_uniform_open(std::span<double> out) {
  for (double& u : out) {
    do {
      u = uniform();
    } while (u <= 0.0);
  }
}

std::int64_t Rng::poisson(double mean) {
  require(mean >= 0.0, "poisson: mean must be >= 0");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Inversion by sequential search.
    const double limit = std::exp(-mean);
    double product = uniform();
    std::int64_t count = 0;
    while (product > limit) {
      product *= uniform();
      ++count;
    }
    return count;
  }
  // PTRS (Hoermann 1993) transformed rejection for large means.
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const double u = uniform() - 0.5;
    const double v = uniform();
    const double us = 0.5 - std::abs(u);
    const auto k = static_cast<std::int64_t>(std::floor((2.0 * a / us + b) * u + mean + 0.43));
    if (us >= 0.07 && v <= v_r) return k;
    if (k < 0 || (us < 0.013 && v > us)) continue;
    const double log_mean = std::log(mean);
    const double lhs = std::log(v * inv_alpha / (a / (us * us) + b));
    // lgamma_r, not lgamma: glibc's lgamma writes the process-global
    // signgam, a data race when pool lanes draw concurrently.
    int sign = 0;
    const double rhs = -mean + static_cast<double>(k) * log_mean -
                       ::lgamma_r(static_cast<double>(k) + 1.0, &sign);
    if (lhs <= rhs) return k;
  }
}

bool Rng::bernoulli(double p) {
  require(p >= 0.0 && p <= 1.0, "bernoulli: p must be in [0, 1]");
  return uniform() < p;
}

Rng Rng::split() {
  Rng child(0);
  for (auto& word : child.state_) word = (*this)();
  return child;
}

}  // namespace gp
