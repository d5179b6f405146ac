// Simulation observers.
//
// Observers hook into the ODE integration loop after every accepted step.
// They can watch the state (edge detection, steady-state tests), modify it
// (input injection — the molecular analogue of driving a circuit's input pins
// each clock cycle), or stop the run early.
#pragma once

#include <functional>
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

/// Injects scheduled amounts into species at fixed times (adds to the current
/// concentration, modelling a fast injection of molecules).
class ScheduledInjector : public Observer {
 public:
  struct Event {
    double time;
    core::SpeciesId species;
    double amount;
  };

  /// Events need not be pre-sorted.
  explicit ScheduledInjector(std::vector<Event> events);

  void on_step(double t, std::span<double> state) override;

  [[nodiscard]] std::size_t injected_count() const { return next_; }

 private:
  std::vector<Event> events_;
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

/// Adapts a callable into an Observer (for ad-hoc test probes).
class CallbackObserver : public Observer {
 public:
  using Callback = std::function<void(double, std::span<double>)>;
  explicit CallbackObserver(Callback callback)
      : callback_(std::move(callback)) {}

  void on_step(double t, std::span<double> state) override {
    callback_(t, state);
  }

 private:
  Callback callback_;
};

}  // namespace mrsc::sim
