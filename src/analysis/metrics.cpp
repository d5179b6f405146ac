#include "analysis/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mrsc::analysis {

namespace {
void check_sizes(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("metrics: series must be equal-length, "
                                "non-empty");
  }
}
}  // namespace

double rmse(std::span<const double> a, std::span<const double> b) {
  check_sizes(a, b);
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

double max_abs_error(std::span<const double> a, std::span<const double> b) {
  check_sizes(a, b);
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

std::vector<bool> digitize(std::span<const double> series, double low,
                           double high) {
  if (!(low < high)) {
    throw std::invalid_argument("digitize: low must be < high");
  }
  std::vector<bool> bits;
  bits.reserve(series.size());
  bool state = !series.empty() && series.front() >= high;
  for (const double v : series) {
    if (!state && v >= high) state = true;
    if (state && v <= low) state = false;
    bits.push_back(state);
  }
  return bits;
}

double mean(std::span<const double> series) {
  if (series.empty()) {
    throw std::invalid_argument("mean: empty series");
  }
  double acc = 0.0;
  for (const double v : series) acc += v;
  return acc / static_cast<double>(series.size());
}

double stddev(std::span<const double> series) {
  if (series.size() < 2) {
    throw std::invalid_argument("stddev: need >= 2 samples");
  }
  const double m = mean(series);
  double acc = 0.0;
  for (const double v : series) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(series.size() - 1));
}

}  // namespace mrsc::analysis
