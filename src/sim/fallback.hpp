// Failure classification and the solver fallback ladder.
//
// A simulation attempt can fail for reasons that have nothing to do with the
// network being wrong: the adaptive controller underflows its step size on a
// stiff transient, an explicit method blows up to NaN, an SSA run exhausts
// its event budget, or the batch deadline fires mid-run. `classify_failure`
// turns the raw result flags into a structured `SimFailure`, and
// `simulate_with_fallback` reacts to it by walking a ladder of progressively
// more conservative configurations on one `CompiledSystem`:
//
//   ODE:  as-requested -> "tightened" (smaller tolerances/steps)
//                      -> "implicit-fixed" (backward Euler, small fixed step)
//                      -> "ssa-nrm" (exact stochastic, omega 1000)
//   SSA:  as-requested -> "event-budget" (16x the event cap)
//                      -> "tau-leap" (approximate accelerated method)
//
// `walk_ladder` is the one retry policy every ladder walks (the stress
// campaign harness walks its own two rungs through it too). A transient
// failure (deadline) retries the same rung at once with a fresh deadline,
// unless the stop was requested; any other failure advances one rung. Every
// failed attempt is recorded in a `RecoveryLog` whose rendering is
// deterministic — it holds only the attempt index, rung name and classified
// failure, never wall-clock measurements — so logs compare equal across
// thread counts and reruns.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stop_token>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine/compiled_system.hpp"
#include "sim/ode.hpp"
#include "sim/ssa.hpp"
#include "util/json.hpp"

namespace mrsc::sim {

enum class SimFailureKind : std::uint8_t {
  kNone,            ///< the attempt succeeded
  kStepUnderflow,   ///< adaptive steps forced through at min_step with err > 1
  kNonFiniteState,  ///< the state left the finite domain (NaN/Inf)
  kStepLimit,       ///< OdeOptions::max_steps exhausted before t_end
  kEventLimit,      ///< SsaOptions::max_events exhausted before t_end
  kDeadline,        ///< the abort hook fired (deadline or cancellation)
  kException,       ///< the stepper threw; detail carries what()
};

[[nodiscard]] const char* to_string(SimFailureKind kind);

/// Transient failures are resource exhaustion that a retry with a fresh
/// budget may clear (currently only kDeadline — a new attempt gets a new
/// per-attempt deadline). Everything else is deterministic: the same rung
/// would fail the same way, so the ladder advances instead.
[[nodiscard]] bool is_transient(SimFailureKind kind);

struct SimFailure {
  SimFailureKind kind = SimFailureKind::kNone;
  std::string detail;  ///< human-readable specifics (counts, what(), ...)

  explicit operator bool() const { return kind != SimFailureKind::kNone; }
};

/// Inspects the result flags of a finished attempt. Precedence (first match
/// wins): deadline, non-finite, step/event limit, step underflow.
[[nodiscard]] SimFailure classify_failure(const OdeResult& result);
[[nodiscard]] SimFailure classify_failure(const SsaResult& result);

/// One failed attempt as recorded by the ladder. Successful attempts are not
/// logged; `RecoveryLog::final_rung` names where the run ended up.
struct RecoveryAttempt {
  std::size_t attempt = 0;  ///< 0-based attempt index
  std::string rung;         ///< ladder rung the attempt ran on
  SimFailure failure;
};

struct RecoveryLog {
  std::vector<RecoveryAttempt> attempts;  ///< failed attempts, in order
  std::string final_rung;                 ///< rung of the last attempt
  bool recovered = false;  ///< succeeded after at least one failure

  /// True when the last attempt succeeded (with or without failures first).
  [[nodiscard]] bool succeeded() const {
    return recovered || attempts.empty();
  }
  /// "rk4:non-finite-state -> tightened:non-finite-state -> implicit-fixed:ok"
  [[nodiscard]] std::string to_string() const;
  /// Deterministic JSON object. Each attempt carries a constant
  /// `"backoff_seconds":0` key, part of the report schema.
  [[nodiscard]] util::json::Value to_value() const;
};

/// The steppers' abort hook: true once `stop` is requested or, when
/// `timeout_seconds` is positive, once that long has passed from this call.
[[nodiscard]] std::function<bool()> abort_hook(std::stop_token stop,
                                               double timeout_seconds);

/// The retry policy. Calls `attempt(rung_index)` (starting at rung 0) until
/// it returns no failure, `max_attempts` (>= 1) attempts have run, or the
/// rungs run out. A deadline failure retries the same rung, unless `stop` is
/// requested, which ends the walk; any other failure moves down one rung.
/// Exceptions thrown by `attempt` propagate. `rungs` must not be empty.
[[nodiscard]] RecoveryLog walk_ladder(
    std::span<const std::string_view> rungs, std::size_t max_attempts,
    std::stop_token stop,
    const std::function<SimFailure(std::size_t rung_index)>& attempt);

/// The "tightened" rung: same method, smaller tolerances/steps. Exposed for
/// the stress campaign harness, which walks its own rungs.
[[nodiscard]] OdeOptions tightened_options(const OdeOptions& options);

struct FallbackOptions {
  /// Total attempts across all rungs (>= 1). 1 disables the ladder: the
  /// first failure is final, matching the plain simulate_* behaviour.
  std::size_t max_attempts = 4;
  /// Seed of the ODE ladder's exact SSA rung.
  std::uint64_t ssa_seed = 1;
  /// Each attempt's abort hook is `abort_hook(stop, timeout_seconds)`, built
  /// when the attempt starts (a deadline retry gets a fresh budget); it
  /// replaces any hook set on the simulation options. 0 means no deadline.
  std::stop_token stop;
  double timeout_seconds = 0.0;
};

/// A ladder walk: `log` is the verdict (`succeeded()`, the final failure
/// `attempts.back().failure`), the rest is the last attempt that finished.
struct FallbackResult {
  RecoveryLog log;
  std::vector<double> final_state;  ///< concentrations (SSA: counts / omega)
  double end_time = 0.0;
  std::size_t ode_steps = 0;    ///< accepted steps of the last ODE attempt
  std::uint64_t ssa_events = 0;  ///< events of the last SSA attempt
};

/// Runs `system` down the ODE ladder starting from `options`, from the
/// concentrations `initial`.
[[nodiscard]] FallbackResult simulate_with_fallback(
    const CompiledSystem& system, const OdeOptions& options,
    const FallbackOptions& fallback, std::span<const double> initial);

/// Runs `system` down the SSA ladder starting from `options`, from the
/// concentrations `initial` (converted to counts at `options.omega`).
[[nodiscard]] FallbackResult simulate_with_fallback(
    const CompiledSystem& system, const SsaOptions& options,
    const FallbackOptions& fallback, std::span<const double> initial);

}  // namespace mrsc::sim
