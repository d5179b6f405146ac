// Error metrics and signal digitization.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mrsc::analysis {

/// Root-mean-square error between two equal-length series.
[[nodiscard]] double rmse(std::span<const double> a, std::span<const double> b);

/// Maximum absolute error between two equal-length series.
[[nodiscard]] double max_abs_error(std::span<const double> a,
                                   std::span<const double> b);

/// Thresholds an analog series into bits with hysteresis: 1 once the value
/// exceeds `high`, back to 0 once it drops below `low`. The initial logic
/// value is `value >= high` of the first sample.
[[nodiscard]] std::vector<bool> digitize(std::span<const double> series,
                                         double low, double high);

/// Mean of a series.
[[nodiscard]] double mean(std::span<const double> series);

/// Sample standard deviation of a series.
[[nodiscard]] double stddev(std::span<const double> series);

}  // namespace mrsc::analysis
