#include "sim/trajectory.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace mrsc::sim {

void Trajectory::append(double t, std::span<const double> state) {
  if (state.size() != species_count_) {
    throw std::invalid_argument("Trajectory::append: state size mismatch");
  }
  if (!times_.empty() && t < times_.back()) {
    throw std::invalid_argument("Trajectory::append: time went backwards");
  }
  times_.push_back(t);
  values_.insert(values_.end(), state.begin(), state.end());
}

std::span<const double> Trajectory::state(std::size_t k) const {
  return {values_.data() + k * species_count_, species_count_};
}

std::span<const double> Trajectory::final_state() const {
  if (times_.empty()) {
    throw std::logic_error("Trajectory::final_state: empty trajectory");
  }
  return state(times_.size() - 1);
}

double Trajectory::final_value(core::SpeciesId id) const {
  return final_state()[id.index()];
}

double Trajectory::value_at(double t, core::SpeciesId id) const {
  if (times_.empty()) {
    throw std::logic_error("Trajectory::value_at: empty trajectory");
  }
  if (t <= times_.front()) return value(0, id);
  if (t >= times_.back()) return value(times_.size() - 1, id);
  const auto it = std::ranges::lower_bound(times_, t);
  const std::size_t hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double span = times_[hi] - times_[lo];
  if (span <= 0.0) return value(hi, id);
  const double w = (t - times_[lo]) / span;
  return (1.0 - w) * value(lo, id) + w * value(hi, id);
}

std::vector<double> Trajectory::series(core::SpeciesId id) const {
  std::vector<double> out(times_.size());
  for (std::size_t k = 0; k < times_.size(); ++k) out[k] = value(k, id);
  return out;
}

std::string Trajectory::to_csv(const core::ReactionNetwork& network,
                               std::span<const core::SpeciesId> ids) const {
  std::ostringstream out;
  out << "time";
  for (const core::SpeciesId id : ids) out << "," << network.species_name(id);
  out << "\n";
  for (std::size_t k = 0; k < times_.size(); ++k) {
    out << times_[k];
    for (const core::SpeciesId id : ids) out << "," << value(k, id);
    out << "\n";
  }
  return out.str();
}

}  // namespace mrsc::sim
