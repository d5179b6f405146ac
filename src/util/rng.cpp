#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace mrsc::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // Guard against the (astronomically unlikely) all-zero state, which is the
  // one state xoshiro cannot escape.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  const double u1 = uniform_positive();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::uint64_t Rng::uniform_below(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth: count uniform draws until the product drops below e^-mean.
    const double limit = std::exp(-mean);
    std::uint64_t count = 0;
    double product = uniform_positive();
    while (product > limit) {
      ++count;
      product *= uniform_positive();
    }
    return count;
  }
  // Normal approximation, adequate for the leap sizes tau-leaping uses.
  const double value = normal(mean, std::sqrt(mean));
  return value <= 0.0 ? 0 : static_cast<std::uint64_t>(value + 0.5);
}

double Rng::log_uniform_jitter(double factor) {
  const double log_factor = std::log(factor);
  return std::exp(uniform(-log_factor, log_factor));
}

std::uint64_t Rng::stream_seed(std::uint64_t base_seed, std::uint64_t stream) {
  // (stream + 1) * odd-constant is injective in `stream`, so for a fixed base
  // every stream lands on a distinct splitmix64 input; the finalizer then
  // decorrelates neighbouring streams.
  std::uint64_t s = base_seed + (stream + 1) * 0x9E3779B97F4A7C15ULL;
  return splitmix64(s);
}

Rng Rng::split(std::uint64_t stream) const {
  // Fold the current 256-bit state down to 64 bits (without touching it) and
  // derive the child stream from the fold.
  std::uint64_t folded = stream_seed(state_[0], state_[1]) ^
                         stream_seed(state_[2], state_[3]);
  return Rng(stream_seed(folded, stream));
}

}  // namespace mrsc::util
