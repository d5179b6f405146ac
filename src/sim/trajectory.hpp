// Time-series output of simulations.
//
// A `Trajectory` stores sampled states (all species) against time, plus query
// helpers used throughout the analysis layer: interpolation, extrema over
// windows, final values, and CSV export.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/network.hpp"

namespace mrsc::sim {

class Trajectory {
 public:
  Trajectory() = default;
  explicit Trajectory(std::size_t species_count)
      : species_count_(species_count) {}

  [[nodiscard]] std::size_t species_count() const { return species_count_; }
  [[nodiscard]] std::size_t sample_count() const { return times_.size(); }
  [[nodiscard]] bool empty() const { return times_.empty(); }

  /// Appends a sample; `state.size()` must equal `species_count()` and `t`
  /// must be non-decreasing.
  void append(double t, std::span<const double> state);

  [[nodiscard]] const std::vector<double>& times() const { return times_; }
  [[nodiscard]] double time(std::size_t k) const { return times_[k]; }

  /// Value of species `id` in sample `k`.
  [[nodiscard]] double value(std::size_t k, core::SpeciesId id) const {
    return values_[k * species_count_ + id.index()];
  }

  /// Full state of sample `k`.
  [[nodiscard]] std::span<const double> state(std::size_t k) const;

  /// Final state (must be non-empty).
  [[nodiscard]] std::span<const double> final_state() const;
  [[nodiscard]] double final_time() const { return times_.back(); }
  [[nodiscard]] double final_value(core::SpeciesId id) const;

  /// Linear interpolation of species `id` at time `t` (clamped to range).
  [[nodiscard]] double value_at(double t, core::SpeciesId id) const;

  /// Full time series of one species.
  [[nodiscard]] std::vector<double> series(core::SpeciesId id) const;

  /// CSV with a time column plus one column per listed species, using the
  /// names from `network` as the header.
  [[nodiscard]] std::string to_csv(const core::ReactionNetwork& network,
                                   std::span<const core::SpeciesId> ids) const;

 private:
  std::size_t species_count_ = 0;
  std::vector<double> times_;
  std::vector<double> values_;  // row-major: sample-major, species-minor
};

}  // namespace mrsc::sim
