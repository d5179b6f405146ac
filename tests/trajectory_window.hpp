// Test helper: the largest sampled value of one species in a time window.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "sim/trajectory.hpp"

namespace mrsc::sim {

/// Maximum of species `id` over the samples in [t_lo, t_hi]. Throws
/// std::invalid_argument when no sample falls in the window.
inline double max_in_window(const Trajectory& trajectory, core::SpeciesId id,
                            double t_lo, double t_hi) {
  double best = -1e300;
  for (std::size_t k = 0; k < trajectory.sample_count(); ++k) {
    const double t = trajectory.time(k);
    if (t < t_lo || t > t_hi) continue;
    best = std::max(best, trajectory.value(k, id));
  }
  if (best == -1e300) {
    throw std::invalid_argument("max_in_window: no samples in window");
  }
  return best;
}

}  // namespace mrsc::sim
