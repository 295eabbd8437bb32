// Deterministic, seedable random number generation.
//
// Every stochastic component of the library (workload generation, topology
// generation, game parameter sampling) draws from an explicitly passed Rng so
// that experiments are bit-for-bit reproducible from a single seed. The
// engine is xoshiro256**, seeded through splitmix64 as its authors recommend.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace gp {

/// Deterministic pseudo-random generator (xoshiro256**).
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions, but the common distributions needed by the
/// library are provided as members to keep results identical across standard
/// library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (deterministic across platforms).
  double normal();

  /// Normal with the given mean and standard deviation (stddev >= 0).
  double normal(double mean, double stddev);

  /// Exponential with the given rate (rate > 0).
  double exponential(double rate);

  /// Fills `out` with uniforms in (0, 1): exactly the uniforms successive
  /// exponential() calls consume, in order, u <= 0 redrawn. A batch of
  /// exponential draws is then -log(out[i]) / rate (linalg::neg_log_div).
  void fill_uniform_open(std::span<double> out);

  /// Poisson with the given mean (mean >= 0). Uses inversion for small
  /// means and the PTRS transformed-rejection method for large ones.
  std::int64_t poisson(double mean);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Derives an independent child generator; used to give each component
  /// (demand, topology, game) its own stream from one master seed.
  Rng split();

 private:
  std::array<std::uint64_t, 4> state_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace gp
