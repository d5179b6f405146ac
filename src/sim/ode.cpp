#include "sim/ode.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "sim/engine/arena.hpp"
#include "util/matrix.hpp"

namespace mrsc::sim {

namespace {

// The state passes below are branch-free, so the compiler vectorizes them:
// each folds its per-value test into one integer with `|=`, where a
// `bool |= test` or an early return keeps the loop scalar.

/// Returns whether any value was clamped: whether any value's bits changed.
bool clamp_nonnegative(std::span<double> x) {
  std::uint64_t changed = 0;
  for (double& v : x) {
    const double clamped = v < 0.0 ? 0.0 : v;
    changed |= std::bit_cast<std::uint64_t>(clamped) ^
               std::bit_cast<std::uint64_t>(v);
    v = clamped;
  }
  return changed != 0;
}

/// Bit 63 is set exactly when `v` is ±inf or NaN: the exponent field is all
/// ones then, and adding one to it carries into bit 63. OR these over the
/// state and test the result with `non_finite_seen`.
std::uint64_t non_finite_bit(double v) {
  constexpr std::uint64_t kExponent = 0x7ff0000000000000;
  constexpr std::uint64_t kExponentOne = std::uint64_t{1} << 52;
  return (std::bit_cast<std::uint64_t>(v) & kExponent) + kExponentOne;
}

bool non_finite_seen(std::uint64_t bits) { return (bits >> 63) != 0; }

bool has_non_finite(std::span<const double> x) {
  std::uint64_t bits = 0;
  for (const double v : x) bits |= non_finite_bit(v);
  return non_finite_seen(bits);
}

/// Shared bookkeeping: recording, observers, stop checks.
class RunContext {
 public:
  RunContext(const OdeOptions& options, std::size_t species_count,
             std::span<Observer* const> observers)
      : options_(options),
        observers_(observers),
        trajectory_(species_count) {}

  /// Processes an accepted step; returns false if the run should stop.
  bool accept(double t, std::span<double> state) {
    state_unchanged_ = !clamp_nonnegative(state) && observers_.empty();
    if (!observers_.empty()) {
      for (Observer* obs : observers_) obs->on_step(t, state);
      clamp_nonnegative(state);  // observers may inject/clear
    }
    if (options_.record_interval <= 0.0 || t >= next_record_) {
      trajectory_.append(t, state);
      if (options_.record_interval > 0.0) {
        // Advance to the first grid point strictly after t.
        next_record_ +=
            options_.record_interval *
            std::floor((t - next_record_) / options_.record_interval + 1.0);
      }
    }
    for (Observer* obs : observers_) {
      if (obs->should_stop(t, state)) {
        stopped_ = true;
        return false;
      }
    }
    if (options_.abort && options_.abort()) {
      aborted_ = true;
      return false;
    }
    return true;
  }

  void record_initial(double t, std::span<const double> state) {
    trajectory_.append(t, state);
    next_record_ = t + options_.record_interval;
  }

  void record_final(double t, std::span<const double> state) {
    if (trajectory_.empty() || trajectory_.final_time() < t) {
      trajectory_.append(t, state);
    }
  }

  /// True when the last accept() left every state bit as the stepper
  /// produced it: nothing was clamped and no observer could have written.
  [[nodiscard]] bool state_unchanged() const { return state_unchanged_; }
  [[nodiscard]] bool stopped_by_observer() const { return stopped_; }
  [[nodiscard]] bool aborted() const { return aborted_; }
  [[nodiscard]] Trajectory take_trajectory() { return std::move(trajectory_); }

 private:
  const OdeOptions& options_;
  std::span<Observer* const> observers_;
  Trajectory trajectory_;
  double next_record_ = 0.0;
  bool state_unchanged_ = false;
  bool stopped_ = false;
  bool aborted_ = false;
};

// Stage temporaries, and the RHS flux scratch, come from a per-run arena so
// a run's scratch arrays sit in one contiguous block.

OdeResult run_rk4(const CompiledSystem& system, const OdeOptions& options,
                  std::vector<double> x, std::span<Observer* const> observers) {
  const std::size_t n = system.species_count();
  OdeResult result;
  RunContext ctx(options, n, observers);
  ctx.record_initial(0.0, x);

  Arena arena;
  std::span<double> k1 = arena.alloc<double>(n), k2 = arena.alloc<double>(n),
                    k3 = arena.alloc<double>(n), k4 = arena.alloc<double>(n),
                    tmp = arena.alloc<double>(n);
  const std::span<double> flux = arena.alloc<double>(system.reaction_count());
  std::vector<double> x_new(n);
  double t = 0.0;
  while (t < options.t_end && result.steps_accepted < options.max_steps) {
    const double h = std::min(options.dt, options.t_end - t);
    system.rhs(x, k1, flux);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + 0.5 * h * k1[i];
    system.rhs(tmp, k2, flux);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + 0.5 * h * k2[i];
    system.rhs(tmp, k3, flux);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + h * k3[i];
    system.rhs(tmp, k4, flux);
    result.rhs_evaluations += 4;
    for (std::size_t i = 0; i < n; ++i) {
      x_new[i] = x[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
    if (has_non_finite(x_new)) {
      result.non_finite = true;
      break;  // x still holds the last finite state
    }
    std::swap(x, x_new);
    t += h;
    ++result.steps_accepted;
    if (!ctx.accept(t, x)) break;
  }
  result.hit_step_limit =
      result.steps_accepted >= options.max_steps && t < options.t_end;
  result.stopped_by_observer = ctx.stopped_by_observer();
  result.aborted = ctx.aborted();
  ctx.record_final(t, x);
  result.trajectory = ctx.take_trajectory();
  result.end_time = t;
  return result;
}

// Dormand-Prince RK45 Butcher tableau.
constexpr double kA21 = 1.0 / 5.0;
constexpr double kA31 = 3.0 / 40.0, kA32 = 9.0 / 40.0;
constexpr double kA41 = 44.0 / 45.0, kA42 = -56.0 / 15.0, kA43 = 32.0 / 9.0;
constexpr double kA51 = 19372.0 / 6561.0, kA52 = -25360.0 / 2187.0,
                 kA53 = 64448.0 / 6561.0, kA54 = -212.0 / 729.0;
constexpr double kA61 = 9017.0 / 3168.0, kA62 = -355.0 / 33.0,
                 kA63 = 46732.0 / 5247.0, kA64 = 49.0 / 176.0,
                 kA65 = -5103.0 / 18656.0;
constexpr double kB1 = 35.0 / 384.0, kB3 = 500.0 / 1113.0,
                 kB4 = 125.0 / 192.0, kB5 = -2187.0 / 6784.0,
                 kB6 = 11.0 / 84.0;
constexpr double kE1 = kB1 - 5179.0 / 57600.0, kE3 = kB3 - 7571.0 / 16695.0,
                 kE4 = kB4 - 393.0 / 640.0, kE5 = kB5 + 92097.0 / 339200.0,
                 kE6 = kB6 - 187.0 / 2100.0, kE7 = -1.0 / 40.0;

OdeResult run_dp45(const CompiledSystem& system, const OdeOptions& options,
                   std::vector<double> x,
                   std::span<Observer* const> observers) {
  const std::size_t n = system.species_count();
  OdeResult result;
  RunContext ctx(options, n, observers);
  ctx.record_initial(0.0, x);

  Arena arena;
  std::span<double> k1 = arena.alloc<double>(n), k2 = arena.alloc<double>(n),
                    k3 = arena.alloc<double>(n), k4 = arena.alloc<double>(n),
                    k5 = arena.alloc<double>(n), k6 = arena.alloc<double>(n),
                    k7 = arena.alloc<double>(n), tmp = arena.alloc<double>(n);
  const std::span<double> flux = arena.alloc<double>(system.reaction_count());
  std::vector<double> x_new(n);
  double t = 0.0;
  double h = std::min(options.dt, options.t_end);
  // First same as last: k7 = f(x_new) is the next step's k1 whenever the
  // step is accepted and accept() leaves x_new bit-for-bit as computed; a
  // rejected step leaves x, and so k1, unchanged. Each RHS is a pure
  // function of its input, so reuse changes no result bit.
  bool k1_is_f_of_x = false;

  while (t < options.t_end && result.steps_accepted < options.max_steps) {
    h = std::clamp(h, options.min_step, options.max_step);
    h = std::min(h, options.t_end - t);

    if (!k1_is_f_of_x) {
      system.rhs(x, k1, flux);
      ++result.rhs_evaluations;
    }
    for (std::size_t i = 0; i < n; ++i) tmp[i] = x[i] + h * kA21 * k1[i];
    system.rhs(tmp, k2, flux);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = x[i] + h * (kA31 * k1[i] + kA32 * k2[i]);
    }
    system.rhs(tmp, k3, flux);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = x[i] + h * (kA41 * k1[i] + kA42 * k2[i] + kA43 * k3[i]);
    }
    system.rhs(tmp, k4, flux);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = x[i] + h * (kA51 * k1[i] + kA52 * k2[i] + kA53 * k3[i] +
                           kA54 * k4[i]);
    }
    system.rhs(tmp, k5, flux);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[i] = x[i] + h * (kA61 * k1[i] + kA62 * k2[i] + kA63 * k3[i] +
                           kA64 * k4[i] + kA65 * k5[i]);
    }
    system.rhs(tmp, k6, flux);
    result.rhs_evaluations += 5;
    std::uint64_t non_finite = 0;
    for (std::size_t i = 0; i < n; ++i) {
      x_new[i] = x[i] + h * (kB1 * k1[i] + kB3 * k3[i] + kB4 * k4[i] +
                             kB5 * k5[i] + kB6 * k6[i]);
      non_finite |= non_finite_bit(x_new[i]);
    }
    if (non_finite_seen(non_finite)) {
      result.non_finite = true;
      break;  // x still holds the last finite state
    }
    system.rhs(x_new, k7, flux);
    ++result.rhs_evaluations;

    // Weighted RMS error of the embedded 4th/5th order difference.
    double err_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double e = h * (kE1 * k1[i] + kE3 * k3[i] + kE4 * k4[i] +
                            kE5 * k5[i] + kE6 * k6[i] + kE7 * k7[i]);
      const double scale =
          options.abs_tol +
          options.rel_tol * std::max(std::abs(x[i]), std::abs(x_new[i]));
      const double ratio = e / scale;
      err_sq += ratio * ratio;
    }
    const double err = std::sqrt(err_sq / static_cast<double>(n));

    if (err <= 1.0 || h <= options.min_step) {
      // Accepting at min_step with err > 1 means the controller could not
      // shrink the step far enough: a step-size underflow (stiffness beyond
      // the tolerance budget). Count it so the fallback ladder can react.
      if (err > 1.0) ++result.steps_forced;
      t += h;
      std::swap(x, x_new);
      ++result.steps_accepted;
      if (!ctx.accept(t, x)) break;
      k1_is_f_of_x = ctx.state_unchanged();
      if (k1_is_f_of_x) std::swap(k1, k7);
    } else {
      ++result.steps_rejected;
      k1_is_f_of_x = true;
    }
    const double factor = !std::isfinite(err) ? 0.2
                          : (err <= 0.0)
                              ? 5.0
                              : std::clamp(0.9 * std::pow(err, -0.2), 0.2, 5.0);
    h *= factor;
  }
  result.hit_step_limit =
      result.steps_accepted >= options.max_steps && t < options.t_end;
  result.stopped_by_observer = ctx.stopped_by_observer();
  result.aborted = ctx.aborted();
  ctx.record_final(t, x);
  result.trajectory = ctx.take_trajectory();
  result.end_time = t;
  return result;
}

/// Backward Euler's Newton iteration converges once the residual's max-norm
/// falls below this.
constexpr double kNewtonTolerance = 1e-10;

OdeResult run_backward_euler(const CompiledSystem& system,
                             const OdeOptions& options,
                             std::vector<double> x,
                             std::span<Observer* const> observers) {
  const std::size_t n = system.species_count();
  OdeResult result;
  RunContext ctx(options, n, observers);
  ctx.record_initial(0.0, x);

  std::vector<double> z(n), f(n), residual(n),
      flux(system.reaction_count());
  util::Matrix jac(n, n), newton_matrix(n, n);
  double t = 0.0;

  while (t < options.t_end && result.steps_accepted < options.max_steps) {
    const double h = std::min(options.dt, options.t_end - t);
    // Newton iteration on F(z) = z - x - h f(z) = 0, warm-started at x.
    z = x;
    bool converged = false;
    for (std::uint32_t iter = 0; iter < options.newton_max_iters; ++iter) {
      system.rhs(z, f, flux);
      ++result.rhs_evaluations;
      double residual_norm = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        residual[i] = z[i] - x[i] - h * f[i];
        residual_norm = std::max(residual_norm, std::abs(residual[i]));
      }
      if (residual_norm < kNewtonTolerance) {
        converged = true;
        break;
      }
      system.jacobian(z, jac);
      newton_matrix.set_identity();
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          newton_matrix(r, c) -= h * jac(r, c);
        }
      }
      const util::LuFactorization lu(newton_matrix);
      lu.solve_in_place(residual);
      for (std::size_t i = 0; i < n; ++i) z[i] -= residual[i];
      clamp_nonnegative(z);
    }
    if (!converged) {
      // Fall back to one explicit Euler step at this size; backward Euler's
      // L-stability is a convenience here, not a correctness requirement.
      system.rhs(x, f, flux);
      ++result.rhs_evaluations;
      for (std::size_t i = 0; i < n; ++i) z[i] = x[i] + h * f[i];
    }
    if (has_non_finite(z)) {
      result.non_finite = true;
      break;  // x still holds the last finite state
    }
    x = z;
    t += h;
    ++result.steps_accepted;
    if (!ctx.accept(t, x)) break;
  }
  result.hit_step_limit =
      result.steps_accepted >= options.max_steps && t < options.t_end;
  result.stopped_by_observer = ctx.stopped_by_observer();
  result.aborted = ctx.aborted();
  ctx.record_final(t, x);
  result.trajectory = ctx.take_trajectory();
  result.end_time = t;
  return result;
}

OdeResult dispatch_method(const CompiledSystem& system,
                          const OdeOptions& options,
                          std::vector<double> initial,
                          std::span<Observer* const> observers) {
  if (initial.size() != system.species_count()) {
    throw std::invalid_argument("simulate_ode: initial state size mismatch");
  }
  if (options.t_end <= 0.0 || options.dt <= 0.0) {
    throw std::invalid_argument("simulate_ode: t_end and dt must be positive");
  }
  switch (options.method) {
    case OdeMethod::kRk4Fixed:
      return run_rk4(system, options, std::move(initial), observers);
    case OdeMethod::kDormandPrince45:
      return run_dp45(system, options, std::move(initial), observers);
    case OdeMethod::kBackwardEuler:
      return run_backward_euler(system, options, std::move(initial),
                                observers);
  }
  throw std::logic_error("simulate_ode: unknown method");
}

}  // namespace

OdeResult simulate_ode(const core::ReactionNetwork& network,
                       const OdeOptions& options, std::vector<double> initial,
                       std::span<Observer* const> observers) {
  if (initial.empty()) initial = network.initial_state();
  const CompiledSystem system(network);
  return simulate_ode(system, options, std::move(initial), observers);
}

OdeResult simulate_ode(const CompiledSystem& system, const OdeOptions& options,
                       std::vector<double> initial,
                       std::span<Observer* const> observers) {
  return dispatch_method(system, options, std::move(initial), observers);
}

}  // namespace mrsc::sim
