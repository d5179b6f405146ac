// Deterministic simulation of mass-action kinetics.
//
// Three integrators are provided:
//  * kRk4Fixed          — classical fixed-step RK4 (simple, predictable cost)
//  * kDormandPrince45   — adaptive embedded RK45 with PI step control; the
//                         default. Handles the k_fast/k_slow stiffness of the
//                         paper's networks up to ratios of ~1e4 efficiently.
//  * kBackwardEuler     — semi-implicit with Newton iteration and the analytic
//                         mass-action Jacobian; for extreme rate separations
//                         (ratios of 1e5 and beyond) in the robustness sweeps.
//
// All integrators clamp tiny negative concentrations (integration noise) back
// to zero, call observers after every accepted step, and record the
// trajectory on a configurable interval.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/network.hpp"
#include "sim/engine/compiled_system.hpp"
#include "sim/observer.hpp"
#include "sim/trajectory.hpp"

namespace mrsc::sim {

enum class OdeMethod : std::uint8_t {
  kRk4Fixed,
  kDormandPrince45,
  kBackwardEuler,
};

struct OdeOptions {
  double t_end = 100.0;
  OdeMethod method = OdeMethod::kDormandPrince45;

  /// Step size for the fixed-step methods; initial step for the adaptive one.
  double dt = 1e-3;

  // Adaptive (Dormand-Prince) controls.
  double rel_tol = 1e-6;
  double abs_tol = 1e-9;
  double max_step = 0.5;
  double min_step = 1e-12;

  /// Trajectory sampling period; 0 records every accepted step.
  double record_interval = 0.05;

  /// Hard cap on accepted steps (guards against runaway stiff runs).
  std::size_t max_steps = 200'000'000;

  /// Newton iteration cap for kBackwardEuler.
  std::uint32_t newton_max_iters = 12;

  /// Cooperative cancellation hook, polled after every accepted step. When it
  /// returns true the run stops and the result carries `aborted = true`. The
  /// batch runtime uses this for deadlines and cancel requests; the callback
  /// must be cheap and thread-safe if the options are shared across jobs.
  std::function<bool()> abort;
};

struct OdeResult {
  Trajectory trajectory;
  std::size_t steps_accepted = 0;
  std::size_t steps_rejected = 0;
  /// Adaptive steps accepted *at* min_step with the error estimate still
  /// above 1 (the controller could not shrink further). A nonzero count is
  /// the step-size-underflow failure signature the fallback ladder reacts to.
  std::size_t steps_forced = 0;
  /// Right-hand-side evaluations f(x) the integrator made: 4 per RK4 step,
  /// one per Newton iteration for backward Euler, and for Dormand-Prince
  /// 1 + 6 per attempted step when every step reuses its last stage as the
  /// next first stage (more when a clamp or an observer forces a fresh k1).
  /// Deterministic, like the step counts.
  std::size_t rhs_evaluations = 0;
  bool stopped_by_observer = false;
  bool hit_step_limit = false;
  /// The state left the finite domain (NaN/Inf). The run stops at the last
  /// finite state; the recorded trajectory never contains non-finite values.
  bool non_finite = false;
  bool aborted = false;  ///< OdeOptions::abort requested an early stop
  double end_time = 0.0;
};

/// Simulates `network` from `initial` (or the network's default initial state
/// if empty). Observers are invoked after every accepted step in order.
/// Compiles the network for this one run.
[[nodiscard]] OdeResult simulate_ode(
    const core::ReactionNetwork& network, const OdeOptions& options,
    std::vector<double> initial = {},
    std::span<Observer* const> observers = {});

/// Same, against an already-compiled network. The `CompiledSystem` is
/// read-only here and may be shared across concurrent jobs.
[[nodiscard]] OdeResult simulate_ode(
    const CompiledSystem& system, const OdeOptions& options,
    std::vector<double> initial, std::span<Observer* const> observers = {});

}  // namespace mrsc::sim
