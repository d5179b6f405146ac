#include "sim/observer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mrsc::sim {

bool Observer::should_stop(double /*t*/, std::span<const double> /*state*/) {
  return false;
}

EdgeDetector::EdgeDetector(core::SpeciesId species, double low, double high)
    : species_(species), low_(low), high_(high) {
  if (!(low < high)) {
    throw std::invalid_argument("EdgeDetector: low must be < high");
  }
}

void EdgeDetector::on_step(double t, std::span<double> state) {
  const double x = state[species_.index()];
  if (!initialized_) {
    is_high_ = x >= high_;
    initialized_ = true;
    return;
  }
  if (!is_high_ && x >= high_) {
    is_high_ = true;
    rising_.push_back(t);
  } else if (is_high_ && x <= low_) {
    is_high_ = false;
    falling_.push_back(t);
  }
}

FaultEventObserver::FaultEventObserver(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  std::ranges::stable_sort(events_, {}, &FaultEvent::time);
}

void FaultEventObserver::on_step(double t, std::span<double> state) {
  while (next_ < events_.size() && events_[next_].time <= t) {
    const FaultEvent& event = events_[next_];
    double& value = state[event.species.index()];
    value = std::max(0.0, event.scale * value + event.add);
    ++next_;
  }
}

SteadyStateDetector::SteadyStateDetector(double tol, double window)
    : tol_(tol), window_(window) {
  if (tol <= 0.0 || window <= 0.0) {
    throw std::invalid_argument(
        "SteadyStateDetector: tol and window must be positive");
  }
}

void SteadyStateDetector::on_step(double t, std::span<double> state) {
  if (reached_) return;
  if (last_time_ < 0.0) {
    last_time_ = t;
    last_state_.assign(state.begin(), state.end());
    return;
  }
  if (t - last_time_ < window_) return;

  double max_rate = 0.0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    max_rate = std::max(max_rate,
                        std::abs(state[i] - last_state_[i]) / (t - last_time_));
  }
  if (max_rate < tol_) {
    reached_ = true;
    reached_time_ = t;
  }
  last_time_ = t;
  last_state_.assign(state.begin(), state.end());
}

bool SteadyStateDetector::should_stop(double /*t*/,
                                      std::span<const double> /*state*/) {
  return reached_;
}

}  // namespace mrsc::sim
