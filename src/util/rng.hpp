// Deterministic random number generation for stochastic simulation.
//
// Stochastic simulation (SSA) and rate-jitter robustness sweeps must be
// reproducible run to run and platform to platform, so the library carries its
// own generator (xoshiro256**, seeded via SplitMix64) rather than relying on
// the implementation-defined distributions of <random>. The per-event draws
// (`next_u64`, `uniform`, `uniform_positive`, `exponential`) are defined
// here so the SSA loops inline them.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace mrsc::util {

/// xoshiro256** pseudo-random generator (Blackman & Vigna). Fast, high
/// quality, and fully deterministic given a seed.
class Rng {
 public:
  /// Seeds the generator state via SplitMix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform double in (0, 1]; never returns 0 (safe for log()).
  double uniform_positive() {
    double u = uniform();
    while (u == 0.0) u = uniform();
    return u;
  }

  /// Standard exponential variate with the given rate (mean 1/rate).
  double exponential(double rate) {
    return -std::log(uniform_positive()) / rate;
  }

  /// Standard normal variate (Box-Muller; one value per call, cached pair).
  double normal();

  /// Normal variate with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Uniform integer in [0, bound) using Lemire's method.
  std::uint64_t uniform_below(std::uint64_t bound);

  /// Poisson variate (Knuth's method for small means, normal approximation
  /// with rounding for large ones). Used by the tau-leaping simulator.
  std::uint64_t poisson(double mean);

  /// Log-uniform multiplicative jitter in [1/factor, factor]; used by the
  /// rate-robustness sweeps to perturb individual rate constants.
  double log_uniform_jitter(double factor);

  /// Derives the seed of sub-stream `stream` from `base_seed` by one
  /// SplitMix64 finalization of an affine combination of the two. Distinct
  /// streams of the same base are guaranteed distinct (the combination is
  /// injective in `stream` and the finalizer is a bijection), so batch
  /// runtimes can hand replicate i the seed `stream_seed(base, i)` and get
  /// results that depend only on (base, i) — never on scheduling order.
  [[nodiscard]] static std::uint64_t stream_seed(std::uint64_t base_seed,
                                                 std::uint64_t stream);

  /// Returns an independent generator for sub-stream `stream`, derived from
  /// this generator's current state without advancing it.
  [[nodiscard]] Rng split(std::uint64_t stream) const;

 private:
  std::array<std::uint64_t, 4> state_{};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace mrsc::util
