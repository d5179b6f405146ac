// Simulation observers.
//
// Observers hook into the ODE integration loop after every accepted step.
// They can watch the state (edge detection, steady-state tests), modify it
// (input injection — the molecular analogue of driving a circuit's input pins
// each clock cycle), or stop the run early.
#pragma once

#include <span>
#include <vector>

#include "core/network.hpp"

namespace mrsc::sim {

class Observer {
 public:
  virtual ~Observer() = default;

  /// Called after every accepted integration step. May modify `state`
  /// (e.g. to inject an input sample).
  virtual void on_step(double t, std::span<double> state) = 0;

  /// Return true to terminate the simulation after this step.
  [[nodiscard]] virtual bool should_stop(double t,
                                         std::span<const double> state);
};

/// Detects threshold crossings of one species with hysteresis. A rising edge
/// is recorded when the value goes above `high`; the detector re-arms when it
/// falls below `low`. Used to find clock phase boundaries.
class EdgeDetector : public Observer {
 public:
  EdgeDetector(core::SpeciesId species, double low, double high);

  void on_step(double t, std::span<double> state) override;

  [[nodiscard]] const std::vector<double>& rising_edges() const {
    return rising_;
  }
  [[nodiscard]] const std::vector<double>& falling_edges() const {
    return falling_;
  }

 private:
  core::SpeciesId species_;
  double low_;
  double high_;
  bool is_high_ = false;
  bool initialized_ = false;
  std::vector<double> rising_;
  std::vector<double> falling_;
};

/// A scheduled state change: at `time` the species' concentration x becomes
/// `max(0, scale * x + add)`. An injection adds (`add`), a loss scales
/// (`scale` = 1 - fraction).
struct FaultEvent {
  double time = 0.0;
  core::SpeciesId species;
  double add = 0.0;
  double scale = 1.0;
};

/// The one observer that changes the state at scheduled times: at the first
/// accepted step at or past each event's time it applies the event. Events
/// with equal times apply in the order given.
class FaultEventObserver final : public Observer {
 public:
  /// Events need not be pre-sorted.
  explicit FaultEventObserver(std::vector<FaultEvent> events);

  void on_step(double t, std::span<double> state) override;

  [[nodiscard]] std::size_t applied_count() const { return next_; }

 private:
  std::vector<FaultEvent> events_;
  std::size_t next_ = 0;
};

/// Stops the simulation when the infinity norm of dx/dt (supplied by the
/// integrator via a callback set at construction) stays below `tol` — not a
/// derivative estimate of its own; it simply watches successive states.
class SteadyStateDetector : public Observer {
 public:
  /// `tol`: max |x_i(t) - x_i(t - window)| / window to accept steady state.
  SteadyStateDetector(double tol, double window);

  void on_step(double t, std::span<double> state) override;
  [[nodiscard]] bool should_stop(double t,
                                 std::span<const double> state) override;

  [[nodiscard]] bool reached() const { return reached_; }
  [[nodiscard]] double reached_time() const { return reached_time_; }

 private:
  double tol_;
  double window_;
  double last_time_ = -1.0;
  std::vector<double> last_state_;
  bool reached_ = false;
  double reached_time_ = 0.0;
};

}  // namespace mrsc::sim
